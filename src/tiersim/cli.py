"""Command-line driver: argument handling only.

Subcommands: validate, run, sweep, report, oracle-check, synthesize.
Each handler reads its inputs, calls the library (``runs`` for
oracle-check, ``sweep`` for sweeps) and writes the text it returns.
This module renders nothing itself: every output is rendered by a
function beside the data it renders, and ``--format`` names one of them.

Exit codes: 0 success, 1 validation or domain failure, 2 I/O failure.
Output files are written atomically (temp file + rename in the target
directory), so a crash never leaves a half-written report behind, and a
new file gets the mode the umask gives, as open() would. A command
renders every output it was asked for, and checks that each target names
a file in an existing directory and that no two targets name one file,
before it writes any, so an output that cannot be rendered or a target
that cannot be written leaves no file written. The one exception to
rendering first is the series CSV of ``run --series-out``: its refusals
come first like any other, but its rows are formatted in chunks as they
are written, so the whole CSV is never held at once.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys
import tempfile
from collections.abc import Iterable

from . import __version__, bundled
from .bottleneck import DEFAULT_DROP_THRESHOLD, DEFAULT_WAIT_THRESHOLD, format_json, format_table, rank
from .engine import Engine
from .errors import TiersimError, ValidationError
from .frontend import parse_deployment, parse_execution, synthesize_scenario
from .metrics import report_from_json, report_to_json, report_to_table, series_chunks
from .model import (
    Distribution,
    RunConfig,
    ScenarioModel,
    StopRule,
    parse_scenario,
    serialize_scenario,
    validated,
)
from .runs import oracle_check_to_json, oracle_check_to_table, run_oracle_check
# SweepResult is not used here; it stays importable from tiersim.cli for its callers
from .sweep import SweepResult, parse_rate_grid, run_sweep, sweep_to_csv  # noqa: F401

_BUNDLED_PREFIX = "bundled:"

# each --format choice and the renderer it names
_REPORT_FORMATS = {"table": report_to_table, "json": report_to_json}
_RANKING_FORMATS = {"table": format_table, "json": format_json}
_ORACLE_FORMATS = {"table": oracle_check_to_table, "json": oracle_check_to_json}


def _read_input(path: str) -> str:
    """Read a file argument; 'bundled:NAME' loads a packaged example."""
    if path.startswith(_BUNDLED_PREFIX):
        return bundled.read(path[len(_BUNDLED_PREFIX) :])
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` one by one into a temp file beside
    ``path``, then rename it to ``path``. The file appears whole or not
    at all; a failure, in a write or in the iterable, removes the temp."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tiersim.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        # mkstemp creates the file 0o600; reading the umask means setting it
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_files(outputs: list[tuple[str, Iterable[str]]]) -> None:
    """Write each ``(path, chunks)`` atomically, once every path names a
    file in an existing directory and no two name the same file. The
    temp file goes to the path's directory, so it could neither be made
    in a missing one nor replace a directory; each refusal names the path
    as it was given."""
    targets: dict[str, str] = {}  # real path -> the path as given
    for path, _ in outputs:
        # otherwise the later output would silently replace the earlier one
        real = os.path.realpath(path)
        if real in targets:
            raise ValidationError(f"two outputs name one file: {targets[real]!r} and {path!r}")
        targets[real] = path
        directory = os.path.dirname(path) or "."
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(directory):
            code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
        else:
            continue
        raise OSError(code, os.strerror(code), path)
    for path, chunks in outputs:
        _write_atomic(path, chunks)


def _write_output(args: argparse.Namespace, text: str, what: str) -> None:
    """Write ``text`` to ``--output`` and say so unless ``--quiet``, or
    to stdout when there is no ``--output``."""
    if args.output:
        _write_files([(args.output, [text])])
        if not args.quiet:
            print(f"wrote {what} to {args.output}")
    else:
        sys.stdout.write(text)


def _apply_overrides(model: ScenarioModel, args: argparse.Namespace) -> ScenarioModel:
    run = model.run
    if getattr(args, "seed", None) is not None:
        run = dataclasses.replace(run, seed=args.seed)
    if getattr(args, "requests", None) is not None:
        run = dataclasses.replace(run, stop=StopRule.after_requests(args.requests))
    if getattr(args, "time", None) is not None:
        run = dataclasses.replace(run, stop=StopRule.after_time(args.time))
    if getattr(args, "warmup", None) is not None:
        run = dataclasses.replace(run, warmup=args.warmup)
    if getattr(args, "series", False):
        run = dataclasses.replace(run, series_enabled=True)
    if run is model.run:
        # no override: the model is as parse_scenario or synthesize_scenario validated it
        return model
    return validated(dataclasses.replace(model, run=run))


# ----------------------------------------------------------------------
# subcommand handlers


def _cmd_validate(args: argparse.Namespace) -> int:
    text = _read_input(args.scenario)
    model = parse_scenario(text)
    if not args.quiet:
        print(f"{model.name}: ok ({len(model.resources())} resources, {len(model.classes)} classes)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    model = _apply_overrides(parse_scenario(_read_input(args.scenario)), args)
    report = Engine(model).run()
    outputs = []
    if args.report:
        outputs.append((args.report, [report_to_json(report)]))
    if args.series_out:
        # refuses here, before any write; the rows are formatted as written
        outputs.append((args.series_out, series_chunks(report)))
    _write_files(outputs)
    if not args.quiet:
        sys.stdout.write(_REPORT_FORMATS[args.format](report))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # the overridden run.seed is the master seed; each replication replaces it
    model = _apply_overrides(parse_scenario(_read_input(args.scenario)), args)
    result = run_sweep(model, parse_rate_grid(args.rates), args.replications, model.run.seed)
    _write_output(args, sweep_to_csv(result), f"{len(result.cells)} rows")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = report_from_json(_read_input(args.report))
    if args.bottlenecks:
        ranking = rank(report, drop_threshold=args.drop_threshold, wait_threshold=args.wait_threshold)
        sys.stdout.write(_RANKING_FORMATS[args.format](ranking))
    else:
        sys.stdout.write(_REPORT_FORMATS[args.format](report))
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    rows = run_oracle_check(args.lam, args.mu, args.servers, args.capacity, args.requests, args.seed)
    sys.stdout.write(_ORACLE_FORMATS[args.format](rows))
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    execution = parse_execution(_read_input(args.execution))
    deployment = parse_deployment(_read_input(args.deployment))
    if args.interarrival is not None:
        arrival = Distribution.deterministic(args.interarrival)
    else:
        arrival = Distribution.exponential(args.arrival_rate)
    # an option left out keeps synthesize_scenario's default
    given = {"scenario_name": args.name, "class_name": args.class_name, "max_requests": args.max_requests}
    synthesized = synthesize_scenario(
        execution, deployment, arrival=arrival, **{k: v for k, v in given.items() if v is not None}
    )
    model = _apply_overrides(synthesized, args)
    _write_output(args, serialize_scenario(model), f"scenario {model.name!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiersim",
        description="Deterministic discrete-event simulator for multi-tier queueing architectures.",
    )
    parser.add_argument("--version", action="version", version=f"tiersim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--quiet", action="store_true", help="suppress informational output")

    p = sub.add_parser("validate", help="parse and check a scenario file")
    p.add_argument("scenario", help="scenario JSON path (or bundled:NAME)")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="simulate a scenario and report metrics")
    p.add_argument("scenario", help="scenario JSON path (or bundled:NAME)")
    p.add_argument("--seed", type=int, help="override the run seed")
    stop = p.add_mutually_exclusive_group()
    stop.add_argument("--requests", type=int, help="stop after N terminal requests")
    stop.add_argument("--time", type=float, help="stop at simulated time T")
    p.add_argument("--warmup", type=float, help="exclude samples arriving before this time")
    p.add_argument("--series", action="store_true", help="record raw response series")
    p.add_argument("--report", help="write the JSON report here (atomic)")
    p.add_argument("--series-out", dest="series_out", help="write the series CSV here (atomic)")
    p.add_argument("--format", choices=("table", "json"), default="table")
    common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="re-run a scenario over an arrival-rate grid")
    p.add_argument("scenario", help="scenario JSON path (or bundled:NAME)")
    p.add_argument(
        "--rates",
        required=True,
        help="total arrival rates, split across classes in their declared mix; grid: start:stop:count or comma list",
    )
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--requests", type=int, help="override stop: terminal requests per run")
    p.add_argument("--seed", type=int, help="master seed for replication seeds")
    p.add_argument("--output", help="write aggregated CSV here (atomic)")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="render a saved report, optionally ranking bottlenecks")
    p.add_argument("report", help="report JSON written by run --report")
    p.add_argument("--bottlenecks", action="store_true", help="rank resources by bottleneck score")
    p.add_argument("--drop-threshold", dest="drop_threshold", type=float, default=DEFAULT_DROP_THRESHOLD)
    p.add_argument("--wait-threshold", dest="wait_threshold", type=float, default=DEFAULT_WAIT_THRESHOLD)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("oracle-check", help="simulate one M/M/c/K station and compare with the closed form")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="arrival rate")
    p.add_argument("--mu", type=float, required=True, help="service rate per server")
    p.add_argument("-c", "--servers", type=int, default=1)
    p.add_argument("-K", "--capacity", type=int, default=0, help="waiting slots")
    p.add_argument("--requests", type=int, default=100000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("synthesize", help="build a scenario from a step script and deployment map")
    p.add_argument("execution", help="step script path (or bundled:NAME)")
    p.add_argument("deployment", help="deployment JSON path (or bundled:NAME)")
    p.add_argument("--name", help="scenario name")
    p.add_argument("--class-name", dest="class_name")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--arrival-rate", dest="arrival_rate", type=float, help="exponential arrival rate")
    group.add_argument("--interarrival", type=float, help="fixed interarrival gap")
    p.add_argument("--max-requests", dest="max_requests", type=int, help="cap generated sessions")
    p.add_argument("--seed", type=int)
    stop = p.add_mutually_exclusive_group()
    stop.add_argument("--requests", type=int, help=f"stop rule: terminal requests (default {RunConfig().stop.n})")
    stop.add_argument("--time", type=float, help="stop rule: simulated time")
    p.add_argument("--warmup", type=float)
    p.add_argument("--series", action="store_true")
    p.add_argument("--output", help="write the scenario JSON here (atomic)")
    common(p)
    p.set_defaults(func=_cmd_synthesize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TiersimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
