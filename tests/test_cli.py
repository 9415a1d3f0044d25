"""End-to-end command-line behavior: exit codes, files, stdout."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tiersim
from tiersim import (
    Distribution,
    DomainError,
    Engine,
    WorkloadClass,
    __version__,
    bundled,
    export_series,
    parse_scenario,
    serialize_scenario,
    validate,
)
from tiersim import cli, engine
from tiersim import model as model_module
from tiersim.cli import main, parse_rate_grid
from tiersim.metrics import _SERIES_CHUNK_ROWS
from tiersim.runs import build_station_model
from tiersim.sweep import _with_arrival_rate


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(code: int, err: str, prefix: str) -> None:
    assert code == 1
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith(prefix), err


@pytest.fixture()
def station_path(tmp_path):
    model = build_station_model(1.5, 2.0, 1, 3, 500, seed=4)
    path = tmp_path / "station.json"
    path.write_text(serialize_scenario(model), encoding="utf-8")
    return str(path)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"tiersim {__version__}\n"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_package_version_comes_from_the_module():
    import tomllib

    doc = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in doc["project"]
    assert "version" in doc["project"]["dynamic"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "tiersim.__version__"}


def test_validate_bundled_scenario(capsys):
    code, out, _ = run_cli(capsys, "validate", "bundled:webservices.json")
    assert code == 0
    assert "ok (7 resources, 1 classes)" in out


def test_validate_quiet_prints_nothing(capsys):
    code, out, err = run_cli(capsys, "validate", "bundled:webservices.json", "--quiet")
    assert code == 0
    assert out == "" and err == ""


@pytest.mark.parametrize(
    "digits, prefix",
    [
        (400, "error: $.classes[0].arrival.rate: number out of range, got an integer of 400 digits"),
        (5000, "error: integer literal longer than "),
    ],
    ids=["too-large-for-a-float", "too-long-to-convert"],
)
def test_validate_rejects_a_huge_integer_literal(tmp_path, capsys, digits, prefix):
    doc = json.loads(serialize_scenario(build_station_model(1.0, 1.0, 1, 1, 10, seed=1)))
    doc["classes"][0]["arrival"]["rate"] = "<rate>"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc).replace('"<rate>"', "9" * digits), encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert_one_error_line(code, err, prefix)


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "<deep>"),
        ("synthesize", "bundled:webservices_steps.txt", "<deep>", "--arrival-rate", "75"),
        ("report", "<deep>"),
    ],
    ids=["validate", "synthesize", "report"],
)
def test_deeply_nested_json_is_one_error_line(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    code, out, err = run_cli(capsys, *(str(path) if arg == "<deep>" else arg for arg in argv))
    assert out == ""
    assert_one_error_line(code, err, "error: arrays or objects nested too deeply\n")


def _station_doc(station_path: str) -> dict:
    return json.loads(Path(station_path).read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", ["run", "oracle-check"])
def test_replicas_beyond_the_bound_are_one_error_line(station_path, tmp_path, capsys, command):
    if command == "run":
        doc = _station_doc(station_path)
        doc["tiers"][0]["resources"][0]["replicas"] = 10**30
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ("run", str(path))
        line = f"error: tiers[0].resources[0]: replicas must be at most 4096, got {10**30}\n"
    else:
        argv = ("oracle-check", "--lambda", "1", "--mu", "1", "-c", str(10**30))
        line = f"error: servers must be at most 100000, got {10**30}\n"
    code, out, err = run_cli(capsys, *argv)
    assert out == ""
    assert_one_error_line(code, err, line)


def test_an_oracle_capacity_beyond_the_bound_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "oracle-check", "--lambda", "1", "--mu", "1", "-K", str(10**30))
    assert out == ""
    assert_one_error_line(code, err, f"error: queue_capacity must be at most 100000, got {10**30}\n")


@pytest.mark.parametrize(
    "flags, line",
    [
        (("--lambda", "1", "-c", "5000"), "error: servers must be at most 4096 to simulate, got 5000\n"),
        (("--lambda", "0"), "error: lam must be > 0 to simulate, got 0.0\n"),
        (("--lambda", "1", "--requests", "0"), "error: requests must be an integer >= 1 to simulate, got 0\n"),
        (("--lambda", "1", "--seed", "-1"), "error: seed must be an unsigned 64-bit integer, got -1\n"),
    ],
    ids=["servers", "lam", "requests", "seed"],
)
def test_an_oracle_station_the_simulator_cannot_run_names_the_flag(capsys, flags, line):
    code, out, err = run_cli(capsys, "oracle-check", "--mu", "1", *flags)
    assert out == ""
    assert_one_error_line(code, err, line)


def test_a_queue_past_the_waiting_ceiling_is_one_error_line(tmp_path, capsys, monkeypatch):
    # M/M/1 at twice its capacity with an infinite queue never settles
    monkeypatch.setattr(engine, "MAX_WAITING", 100)
    path = tmp_path / "overload.json"
    path.write_text(serialize_scenario(build_station_model(2.0, 1.0, 1, math.inf, 10_000, seed=1)), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path))
    assert out == ""
    assert_one_error_line(
        code,
        err,
        "error: resource 'station' has 100 requests waiting, the most a resource may hold "
        "(tiersim.engine.MAX_WAITING); its arrivals outpace its replicas\n",
    )


def test_a_service_demand_lost_to_the_clock_is_one_error_line(capsys):
    # at 1e-300 arrivals per second the clock passes 1e296, where adding a
    # demand of milliseconds leaves it where it was
    code, out, err = run_cli(capsys, "sweep", "bundled:webservices.json", "--rates", "1e-300", "--requests", "50")
    assert out == ""
    assert_one_error_line(code, err, "error: resource 'SRS_CPU': a service demand of ")
    assert re.fullmatch(
        r"error: resource 'SRS_CPU': a service demand of \S+ was lost to the clock at \S+, "
        r"as is the visit's mean demand \S+\n",
        err,
    )


_SRC = str(Path(__file__).resolve().parents[1] / "src")
# the CLI in a child interpreter that may map at most 1 GiB
_CAPPED_CLI = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "from tiersim.cli import main; sys.exit(main(sys.argv[1:]))"
)
_AFTER_TIME = ({"kind": "after_time", "t": 1}, "before the after_time stop, got 1e+300")
# the unbounded station's mean demand is 0.5: 5e299 arrivals before a session can end
_AFTER_REQUESTS = ({"kind": "after_requests", "n": 10}, "before a session can end, got 5e+299")


@pytest.mark.parametrize(
    "command, stop, expected",
    [
        ("validate", *_AFTER_TIME),
        ("run", *_AFTER_TIME),
        ("validate", *_AFTER_REQUESTS),
        ("run", *_AFTER_REQUESTS),
    ],
    ids=["validate", "run", "validate-after_requests", "run-after_requests"],
)
def test_a_tiny_arrival_gap_before_a_time_stop_is_one_error_line(station_path, tmp_path, capsys, command, stop, expected):
    # 1e300 arrivals before t = 1, or unbounded queueing before the tenth
    # session ends: refused by validate(), so the run never starts
    doc = _station_doc(station_path)
    doc["classes"][0]["arrival"] = {"kind": "deterministic", "value": 1e-300}
    if stop["kind"] == "after_requests":
        # a bounded queue would drop the flood, and each drop ends a session
        doc["tiers"][0]["resources"][0]["queue_capacity"] = "inf"
    doc["run"]["stop"] = stop
    path = tmp_path / "flood.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if command == "run":
        # were the flood let through, its queue would grow until memory ran
        # out; a child capped at 1 GiB of address space fails fast instead
        proc = subprocess.run(
            [sys.executable, "-c", _CAPPED_CLI, command, str(path)],
            env=dict(os.environ, PYTHONPATH=_SRC),
            capture_output=True,
            text=True,
            timeout=60,
        )
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        code, out, err = run_cli(capsys, command, str(path))
    assert out == ""
    assert_one_error_line(
        code,
        err,
        f"error: classes[0].arrival: an unbounded class may expect at most 1000000000 arrivals {expected} (mean gap 1e-300)",
    )


def test_zero_gap_arrivals_need_a_bounded_class(station_path, tmp_path, capsys):
    doc = _station_doc(station_path)
    doc["classes"][0]["arrival"] = {"kind": "deterministic", "value": 0}
    path = tmp_path / "burst.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert out == ""
    assert_one_error_line(
        code,
        err,
        "error: classes[0].arrival: an unbounded class needs a mean interarrival gap > 0 or a finite max_requests, got 0\n",
    )
    # a bounded burst at t = 0 still runs: one served, three queued, one dropped
    doc["classes"][0]["max_requests"] = 5
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", str(path), "--format", "json")
    assert code == 0
    totals = json.loads(out)["classes"]["load"]
    assert (totals["generated"], totals["completed"], totals["dropped"]) == (5, 4, 1)


def test_validate_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "validate", "/no/such/file.json")
    assert code == 2
    assert "i/o error" in err


def test_validate_bad_json_is_a_tool_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "error:" in err and "line" in err


@pytest.mark.parametrize(
    "argv", [("validate",), ("run",), ("sweep", "--rates", "1.0")], ids=["validate", "run", "sweep"]
)
def test_a_name_with_no_utf8_encoding_is_one_error_line(station_path, tmp_path, capsys, argv):
    # json.dumps writes the lone surrogate as the escape "\ud800"
    doc = json.loads(Path(station_path).read_text(encoding="utf-8"))
    doc["classes"][0]["name"] = "load\ud800"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert out == ""
    assert_one_error_line(code, err, "error: classes[0]: class name must be a non-empty token, got 'load\\ud800'\n")


def test_validate_invalid_model_is_a_tool_error(tmp_path, capsys):
    doc = json.loads(serialize_scenario(build_station_model(1.0, 1.0, 1, 1, 10, seed=1)))
    doc["classes"][0]["path"][0]["resource"] = "ghost"
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "ghost" in err


def test_run_prints_a_table_by_default(station_path, capsys):
    code, out, _ = run_cli(capsys, "run", station_path)
    assert code == 0
    assert out.splitlines()[0].startswith("Resource")
    assert "station" in out


def test_run_json_format_is_parseable(station_path, capsys):
    code, out, _ = run_cli(capsys, "run", station_path, "--format", "json", "--quiet")
    assert code == 0
    assert out == ""
    code, out, _ = run_cli(capsys, "run", station_path, "--format", "json")
    doc = json.loads(out)
    assert doc["scenario"] == "station-check"
    assert doc["totals"]["generated"] >= 500


def test_run_writes_report_and_series_atomically(station_path, tmp_path, capsys):
    report = tmp_path / "out" / "report.json"
    report.parent.mkdir()
    series = tmp_path / "out" / "series.csv"
    args = ("run", station_path, "--series", "--report", str(report), "--series-out", str(series), "--quiet")

    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    first_report = report.read_bytes()
    first_series = series.read_bytes()
    assert first_series.startswith(b"resource,arrival_time,response_time\n")

    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    assert report.read_bytes() == first_report
    assert series.read_bytes() == first_series
    # no temp droppings left beside the outputs
    assert list(report.parent.glob("*.tmp")) == []


def test_a_write_that_fails_after_its_temp_file_exists_leaves_none(tmp_path, monkeypatch):
    error = PermissionError("refused")

    def refuse(source, target):
        assert os.path.exists(source)
        raise error

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError) as exc:
        cli._write_atomic(str(tmp_path / "report.json"), "text")
    assert exc.value is error
    assert list(tmp_path.iterdir()) == []


def test_a_write_whose_temp_file_cannot_be_removed_raises_its_own_error(tmp_path, monkeypatch):
    error = ValueError("no more chunks")

    def chunks():
        yield "text"
        raise error

    def refuse(path):
        raise OSError("unlink refused")

    monkeypatch.setattr(os, "unlink", refuse)
    target = tmp_path / "report.json"
    with pytest.raises(ValueError) as exc:
        cli._write_atomic(str(target), chunks())
    assert exc.value is error
    assert not target.exists()
    # the temp file that could not be removed is all that is left
    assert [p.name.startswith(".tiersim.") for p in tmp_path.iterdir()] == [True]


def test_run_seed_override_changes_the_report(station_path, tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(capsys, "run", station_path, "--report", str(a), "--quiet")
    run_cli(capsys, "run", station_path, "--seed", "99", "--report", str(b), "--quiet")
    assert a.read_bytes() != b.read_bytes()


def test_run_requests_override(station_path, capsys):
    code, out, _ = run_cli(capsys, "run", station_path, "--requests", "50", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["totals"]["completed"] + doc["totals"]["dropped"] == 50


def test_run_series_out_without_series_fails_cleanly(station_path, tmp_path, capsys):
    target = tmp_path / "series.csv"
    code, _, err = run_cli(capsys, "run", station_path, "--series-out", str(target), "--quiet")
    assert code == 1
    assert "series" in err
    assert not target.exists()


def test_run_writes_no_file_when_one_output_cannot_be_rendered(station_path, tmp_path, capsys):
    # the station scenario records no series, so the CSV cannot be rendered
    report = tmp_path / "report.json"
    series = tmp_path / "series.csv"
    args = ("run", station_path, "--report", str(report), "--series-out", str(series), "--quiet")
    code, out, err = run_cli(capsys, *args)
    assert out == ""
    assert err == "error: this run did not record series data (enable run.series)\n"
    assert code == 1
    assert not report.exists()
    assert not series.exists()


def test_a_series_written_in_chunks_is_the_exported_csv(tmp_path, capsys):
    # the bundled scenario without its max_requests cap, run long enough
    # that its series CSV spans several chunks
    doc = json.loads(bundled.scenario_text())
    for cls in doc["classes"]:
        cls.pop("max_requests", None)
    scenario = tmp_path / "lifted.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    series = tmp_path / "series.csv"
    code, _, _ = run_cli(
        capsys, "run", str(scenario), "--requests", "2500", "--series", "--series-out", str(series), "--quiet"
    )
    assert code == 0
    doc["run"].update(stop={"kind": "after_requests", "n": 2500}, series=True)
    expected = export_series(Engine(parse_scenario(json.dumps(doc))).run())
    assert expected.count("\n") > 3 * _SERIES_CHUNK_ROWS
    assert series.read_bytes() == expected.encode()


@pytest.mark.parametrize("demand", ["exp 0", "uniform 3 1"])
def test_an_invalid_step_demand_is_one_error_line_naming_the_line(tmp_path, capsys, demand):
    # line 3 of the bundled script is a step with @disk across two nodes,
    # which synthesis turns into three visits; the error names the line once
    lines = bundled.execution_text().splitlines()
    lines[2] = f"requester -> broker : discover service [{demand}] @disk"
    steps = tmp_path / "steps.txt"
    steps.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "synthesize", str(steps), "bundled:webservices_deployment.json", "--arrival-rate", "75"
    )
    assert_one_error_line(code, err, "error: line 3: demand: ")
    assert out == ""


@pytest.mark.parametrize("report, series", [("r.json", "r.json"), ("./x.json", "x.json")], ids=["same", "dot-slash"])
def test_two_outputs_to_one_file_are_refused_before_any_write(tmp_path, capsys, monkeypatch, report, series):
    # otherwise the series CSV replaces the report, and the command exits 0
    monkeypatch.chdir(tmp_path)
    args = ("run", "bundled:webservices.json", "--requests", "100", "--series", "--quiet")
    code, out, err = run_cli(capsys, *args, "--report", report, "--series-out", series)
    assert_one_error_line(code, err, "error: ")
    assert out == ""
    assert repr(report) in err and repr(series) in err, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_get_the_mode_the_umask_gives(station_path, tmp_path, capsys, umask, mode):
    paths = {name: tmp_path / name for name in ("report.json", "series.csv", "sweep.csv", "scenario.json")}
    commands = [
        ("run", station_path, "--series", "--report", str(paths["report.json"]), "--series-out", str(paths["series.csv"])),
        ("sweep", station_path, "--rates", "1.0", "--requests", "50", "--output", str(paths["sweep.csv"])),
        (
            "synthesize",
            "bundled:webservices_steps.txt",
            "bundled:webservices_deployment.json",
            "--arrival-rate",
            "75",
            "--output",
            str(paths["scenario.json"]),
        ),
    ]
    previous = os.umask(umask)
    try:
        for argv in commands:
            code, _, _ = run_cli(capsys, *argv, "--quiet")
            assert code == 0
    finally:
        os.umask(previous)
    assert {name: path.stat().st_mode & 0o777 for name, path in paths.items()} == dict.fromkeys(paths, mode)


def test_run_report_into_missing_directory_is_io_error(station_path, tmp_path, capsys, monkeypatch):
    # refused before anything is written, by the name it was given;
    # "newdir/" names a missing directory, not a file in the current one
    monkeypatch.chdir(tmp_path)
    cases = [
        (("--report", "nodir/r.json"), "nodir/r.json"),
        (("--report", "newdir/"), "newdir/"),
        # a missing directory among several targets: none of them is written
        (("--series", "--report", "ok.json", "--series-out", "nodir/s.csv"), "nodir/s.csv"),
    ]
    for flags, target in cases:
        code, out, err = run_cli(capsys, "run", station_path, *flags, "--quiet")
        assert (code, out) == (2, ""), target
        assert err.startswith("i/o error: ") and err.count("\n") == 1, err
        assert repr(target) in err and ".tiersim." not in err, err
        assert [p.name for p in tmp_path.iterdir()] == ["station.json"]


def test_a_report_path_that_is_a_directory_leaves_nothing_behind(station_path, tmp_path, capsys):
    # refused before any file is written, by the name it was given
    target = tmp_path / "out"
    target.mkdir()
    code, out, err = run_cli(capsys, "run", station_path, "--report", str(target), "--quiet")
    assert (code, out) == (2, "")
    assert err.startswith("i/o error: ") and err.count("\n") == 1, err
    assert str(target) in err and ".tiersim." not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "station.json"]
    assert list(target.iterdir()) == []

    # a directory among several targets: none of them is written
    ok = tmp_path / "ok.json"
    code, out, err = run_cli(
        capsys, "run", station_path, "--series", "--report", str(ok), "--series-out", str(target), "--quiet"
    )
    assert (code, out) == (2, "")
    assert err.startswith("i/o error: ") and err.count("\n") == 1, err
    assert str(target) in err and ".tiersim." not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "station.json"]
    assert list(target.iterdir()) == []


def test_report_rerenders_and_ranks(station_path, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    run_cli(capsys, "run", station_path, "--report", str(out_path), "--quiet")

    code, out, _ = run_cli(capsys, "report", str(out_path))
    assert code == 0
    assert out.splitlines()[0].startswith("Resource")

    code, out, _ = run_cli(capsys, "report", str(out_path), "--bottlenecks", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["drop_threshold"] == 0.5
    assert [e["resource"] for e in doc["entries"]] == ["station"]

    code, out, _ = run_cli(capsys, "report", str(out_path), "--bottlenecks")
    assert "Flagged" in out


def test_report_ranks_an_infinite_wait_first_with_no_nan(tmp_path, capsys):
    saved = tmp_path / "report.json"
    assert run_cli(capsys, "run", "bundled:webservices.json", "--requests", "200", "--report", str(saved), "--quiet")[0] == 0
    doc = json.loads(saved.read_text(encoding="utf-8"))
    doc["resources"]["SP_CPU"]["avg_waiting"] = math.inf
    saved.write_text(json.dumps(doc), encoding="utf-8")

    code, out, _ = run_cli(capsys, "report", str(saved), "--bottlenecks", "--format", "json")
    assert code == 0 and "NaN" not in out
    entries = json.loads(out)["entries"]
    assert (entries[0]["resource"], entries[0]["normalized_waiting"], entries[0]["flagged"]) == ("SP_CPU", 1.0, True)
    assert [e["score"] for e in entries] == sorted((e["score"] for e in entries), reverse=True)

    code, out, _ = run_cli(capsys, "report", str(saved), "--bottlenecks")
    assert code == 0 and "nan" not in out
    assert out.splitlines()[2].split() == ["SP_CPU", "1", "1", "0", "yes"]


@pytest.mark.parametrize("series", [("--series",), ()], ids=["series-on", "series-off"])
def test_a_saved_report_reprints_byte_for_byte(station_path, tmp_path, capsys, series):
    saved = tmp_path / "saved.json"
    argv = ("run", station_path, "--requests", "300", *series, "--report", str(saved), "--quiet")
    assert run_cli(capsys, *argv) == (0, "", "")
    assert json.loads(saved.read_text(encoding="utf-8"))["series"]["enabled"] is bool(series)
    assert run_cli(capsys, "report", str(saved), "--format", "json") == (0, saved.read_text(encoding="utf-8"), "")


def test_report_threshold_flags(station_path, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    run_cli(capsys, "run", station_path, "--report", str(out_path), "--quiet")
    code, out, _ = run_cli(
        capsys, "report", str(out_path), "--bottlenecks", "--format", "json", "--wait-threshold", "0.0"
    )
    doc = json.loads(out)
    assert doc["entries"][0]["flagged"] is True
    code, _, err = run_cli(capsys, "report", str(out_path), "--bottlenecks", "--drop-threshold", "3.0")
    assert code == 1


def _without_totals(text: str) -> str:
    doc = json.loads(text)
    del doc["totals"]
    return json.dumps(doc)


def _setting(value, *keys):
    """An edit that sets the report's value at ``keys`` to ``value``."""

    def edit(text: str) -> str:
        doc = json.loads(text)
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return json.dumps(doc)

    return edit


def _renaming(section: str, name: str, new: str):
    """An edit that renames the report's row ``name`` in ``section`` to ``new``."""

    def edit(text: str) -> str:
        doc = json.loads(text)
        doc[section][new] = doc[section].pop(name)
        return json.dumps(doc)

    return edit


def _huge_elapsed(text: str) -> str:
    """The report with a 5000-digit integer as its elapsed time."""
    doc = json.loads(text)
    doc["elapsed"] = "<elapsed>"
    return json.dumps(doc).replace('"<elapsed>"', "9" * 5000)


@pytest.mark.parametrize(
    "edit, prefix",
    [
        (lambda text: text[: len(text) // 2], "error: line "),
        (lambda text: "[]", "error: $: expected an object, got list"),
        (_without_totals, "error: $: missing required key 'totals'"),
        (_setting(0, "resources", "station", "bogus"), "error: $.resources['station']: unknown key 'bogus'"),
        (_setting("soon", "elapsed"), "error: $.elapsed: expected a number, got 'soon'"),
        (_setting(True, "seed"), "error: $.seed: expected an integer, got True"),
        (_setting(7, "scenario"), "error: $.scenario: expected a string, got 7"),
        (_setting("3", "totals", "generated"), "error: $.totals.generated: expected an integer, got '3'"),
        (_setting(1.5, "resources", "station", "served"), "error: $.resources['station'].served: expected an integer"),
        (_setting(None, "resources", "station", "p_idle"), "error: $.resources['station'].p_idle: expected a number"),
        (_setting(False, "classes", "load", "mean_response"), "error: $.classes['load'].mean_response: expected a"),
        (
            _setting(math.nan, "resources", "station", "avg_waiting"),
            "error: $.resources['station'].avg_waiting: expected a finite number, got nan\n",
        ),
        (
            _setting(math.nan, "classes", "load", "p95_response"),
            "error: $.classes['load'].p95_response: expected a finite number, got nan\n",
        ),
        (_setting(math.nan, "elapsed"), "error: $.elapsed: expected a finite number, got nan\n"),
        (_setting(1, "series", "enabled"), "error: $.series.enabled: expected a boolean, got 1"),
        (_setting(int("9" * 400), "elapsed"), "error: $.elapsed: number out of range, got an integer of 400 digits"),
        (_huge_elapsed, "error: integer literal longer than "),
        (_setting("m\ud800", "scenario"), "error: $.scenario: name 'm\\ud800' has no UTF-8 encoding\n"),
        (_renaming("resources", "station", "\udc00"), "error: $.resources: name '\\udc00' has no UTF-8 encoding\n"),
        (_renaming("classes", "load", "lo\udfffad"), "error: $.classes: name 'lo\\udfffad' has no UTF-8 encoding\n"),
    ],
    ids=[
        "truncated",
        "array",
        "no-totals",
        "unknown-row-key",
        "text-elapsed",
        "bool-seed",
        "number-scenario",
        "text-total",
        "fractional-count",
        "null-metric",
        "bool-metric",
        "nan-resource-metric",
        "nan-class-metric",
        "nan-elapsed",
        "number-series-flag",
        "float-overflowing-elapsed",
        "overlong-elapsed",
        "surrogate-scenario-name",
        "surrogate-resource-name",
        "surrogate-class-name",
    ],
)
def test_report_rejects_a_malformed_report_file(station_path, tmp_path, capsys, edit, prefix):
    path = tmp_path / "report.json"
    run_cli(capsys, "run", station_path, "--report", str(path), "--quiet")
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    code, _, err = run_cli(capsys, "report", str(path))
    assert_one_error_line(code, err, prefix)


def test_parse_rate_grid_forms():
    assert parse_rate_grid("1.0,2.5,0.5") == (1.0, 2.5, 0.5)
    grid = parse_rate_grid("0.2:1.0:5")
    assert grid == pytest.approx((0.2, 0.4, 0.6, 0.8, 1.0))
    assert parse_rate_grid("2.0:9.0:1") == (2.0,)
    for bad in ("", "a,b", "1:2", "1:2:3:4", "0.1:1:0", "x:1:3"):
        with pytest.raises(DomainError):
            parse_rate_grid(bad)
    # an empty entry is refused like any other non-number, not skipped
    for bad in ("1,,2", "1,2,", ",1", " ", "1, ,2"):
        with pytest.raises(DomainError, match=f"^rate grid must be numeric, got {bad!r}$"):
            parse_rate_grid(bad)


def test_sweep_writes_deterministic_csv(station_path, tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    args = (
        "sweep",
        station_path,
        "--rates",
        "0.5,1.5",
        "--replications",
        "2",
        "--requests",
        "400",
        "--seed",
        "6",
        "--output",
        str(out_path),
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "wrote 4 rows" in out
    first = out_path.read_bytes()

    lines = first.decode().splitlines()
    assert lines[0] == "rate,resource,avg_response,avg_service,avg_waiting,utilization,p_idle,p_drop"
    assert len(lines) == 5  # 2 rates x (station + end-to-end)
    stations = [ln.split(",") for ln in lines[1:] if ln.split(",")[1] == "station"]
    assert [float(row[0]) for row in stations] == [0.5, 1.5]
    assert all(0.0 <= float(row[7]) <= 1.0 for row in stations)
    ends = [ln for ln in lines[1:] if "__end_to_end__:load" in ln]
    assert len(ends) == 2

    run_cli(capsys, *args)
    assert out_path.read_bytes() == first


def test_sweep_to_stdout_and_bad_grid(station_path, capsys):
    code, out, _ = run_cli(capsys, "sweep", station_path, "--rates", "1.0", "--requests", "100")
    assert code == 0
    assert out.startswith("rate,resource")
    code, _, err = run_cli(capsys, "sweep", station_path, "--rates", "fast")
    assert code == 1
    assert "rate grid" in err


@pytest.mark.parametrize(
    "sizes, line",
    [
        (("--rates", "0:1:10001"), "error: rate grid may hold at most 10000 points, got 10001\n"),
        (
            ("--rates", "0", "--replications", "10001"),
            "error: a sweep may hold at most 10000 runs, got 1 rates x 10001 replications\n",
        ),
        (("--rates", "1", "--replications", "0"), "error: replications must be >= 1\n"),
        (("--rates", "0"), "error: swept arrival rate must be > 0, got 0.0\n"),
        (("--rates", "1e-320"), "error: scheduled event time is not finite: inf\n"),
        (("--rates", "0:inf:3"), "error: rate grid must hold finite numbers, got '0:inf:3'\n"),
        # the step overflows to -inf, so the grid reads (nan, -inf, -inf)
        (("--rates", "1e308:-1e308:3"), "error: rate grid must hold finite numbers, got '1e308:-1e308:3'\n"),
    ],
    ids=[
        "grid-points",
        "replications",
        "replications-zero",
        "rate-zero",
        "rate-denormal",
        "grid-inf",
        "grid-step-overflow",
    ],
)
def test_a_sweep_beyond_the_run_bound_is_one_error_line(station_path, capsys, sizes, line):
    # rate 0 is refused too, but only once the grid and the runs are sized:
    # the replications case above never reaches it. A denormal rate is a
    # valid one whose mean gap overflows: its first arrival is refused as
    # `run` refuses it, not by sizing the batch
    code, out, err = run_cli(capsys, "sweep", station_path, *sizes, "--requests", "10")
    assert out == ""
    assert_one_error_line(code, err, line)


def test_sweep_rejects_non_exponential_arrivals(tmp_path, capsys):
    model = build_station_model(1.0, 1.0, 1, 1, 50, seed=1)
    doc = json.loads(serialize_scenario(model))
    doc["classes"][0]["arrival"] = {"kind": "deterministic", "value": 0.5}
    path = tmp_path / "det.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "sweep", str(path), "--rates", "1.0")
    assert code == 1
    assert "exponential" in err


@pytest.mark.parametrize(
    "argv, issue",
    [
        (("run", "bundled:webservices.json", "--time", "-1"), "run.stop: after_time horizon must be finite and > 0"),
        (("run", "bundled:webservices.json", "--time", "inf"), "run.stop: after_time horizon must be finite and > 0"),
        (("run", "bundled:webservices.json", "--requests", "0"), "run.stop: after_requests count must be >= 1"),
        (("run", "bundled:webservices.json", "--requests", "-3"), "run.stop: after_requests count must be >= 1"),
        (("run", "bundled:webservices.json", "--warmup", "-1"), "run.warmup: warmup must be finite and >= 0"),
        (("sweep", "bundled:webservices.json", "--rates", "40", "--requests", "0"), "run.stop: after_requests"),
        (
            ("sweep", "bundled:webservices.json", "--rates", "inf", "--requests", "50"),
            "rate grid must hold finite numbers, got 'inf'",
        ),
        (
            ("sweep", "bundled:webservices.json", "--rates", "1e400", "--requests", "50"),
            "rate grid must hold finite numbers, got '1e400'",
        ),
        (
            ("sweep", "bundled:webservices.json", "--rates", "nan", "--requests", "50"),
            "rate grid must hold finite numbers, got 'nan'",
        ),
        (("oracle-check", "--lambda", "1.0", "--mu", "2.0", "--requests", "0"), "requests must be an integer >= 1"),
        (
            (
                "synthesize",
                "bundled:webservices_steps.txt",
                "bundled:webservices_deployment.json",
                "--arrival-rate",
                "75",
                "--requests",
                "0",
            ),
            "run.stop: after_requests count must be >= 1",
        ),
    ],
    ids=[
        "time-negative",
        "time-inf",
        "requests-zero",
        "requests-negative",
        "warmup-negative",
        "sweep",
        "sweep-rate-inf",
        "sweep-rate-1e400",
        "sweep-rate-nan",
        "oracle-check",
        "synthesize",
    ],
)
def test_overrides_are_validated_like_a_scenario_file(capsys, argv, issue):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert issue in err


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "bundled:webservices.json", "--time", "5", "--requests", "10"),
        (
            "synthesize",
            "bundled:webservices_steps.txt",
            "bundled:webservices_deployment.json",
            "--arrival-rate",
            "75",
            "--time",
            "5",
            "--requests",
            "10",
        ),
    ],
    ids=["run", "synthesize"],
)
def test_stop_overrides_are_mutually_exclusive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_sweep_rate_is_split_in_the_declared_class_mix():
    model = build_station_model(2.0, 5.0, 1, 3, 100, seed=1)
    (web,) = model.classes
    batch = WorkloadClass(name="batch", arrival=Distribution.exponential(1.0), path=web.path)
    mixed = dataclasses.replace(model, classes=(web, batch))
    swept = _with_arrival_rate(mixed, 3.0)
    assert [c.arrival.rate for c in swept.classes] == [2.0, 1.0]
    (single,) = _with_arrival_rate(model, 0.1).classes
    assert single.arrival.rate == 0.1


def test_oracle_check_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle-check",
        "--lambda",
        "1.0",
        "--mu",
        "2.0",
        "-c",
        "1",
        "-K",
        "3",
        "--requests",
        "30000",
        "--seed",
        "23",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"utilization", "p_drop", "avg_waiting", "avg_response", "mean_in_system"}
    assert doc["utilization"]["rel_error"] < 0.05
    assert doc["utilization"]["analytic"] == pytest.approx(15 / 31, abs=1e-12)


def test_oracle_check_table(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--lambda", "1.0", "--mu", "2.0", "--requests", "2000")
    assert code == 0
    assert out.splitlines()[0].split() == ["metric", "simulated", "analytic", "rel_error"]


# SHA-256 over the stdout of oracle-check, JSON and table, at three
# (c, K) stations, then of report --bottlenecks --format json on a saved
# run of the bundled scenario. Changing it means an output byte moved.
OUTPUT_DIGEST = "66e912aaa09611edf12b4bedf9e6244f372765b240be543d133ecad2640e1974"


def test_oracle_check_and_bottleneck_bytes_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    for servers, capacity in ((1, 3), (2, 0), (3, 6)):
        for fmt in ("json", "table"):
            argv = ("--lambda", "1.5", "--mu", "1.0", "-c", str(servers), "-K", str(capacity))
            code, out, _ = run_cli(capsys, "oracle-check", *argv, "--requests", "3000", "--seed", "5", "--format", fmt)
            assert code == 0
            digest.update(out.encode())
    saved = tmp_path / "webservices-report.json"
    code, _, _ = run_cli(capsys, "run", "bundled:webservices.json", "--requests", "400", "--report", str(saved), "--quiet")
    assert code == 0
    code, out, _ = run_cli(capsys, "report", str(saved), "--bottlenecks", "--format", "json")
    assert code == 0
    digest.update(out.encode())
    assert digest.hexdigest() == OUTPUT_DIGEST


@pytest.mark.parametrize(
    "argv",
    [("report", "report.json"), ("oracle-check", "--lambda", "1.0", "--mu", "2.0")],
    ids=["report", "oracle-check"],
)
def test_quiet_is_not_an_option_of_commands_whose_output_is_the_result(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--quiet"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quiet" in capsys.readouterr().err


def test_oracle_check_rejects_bad_domain(capsys):
    code, _, err = run_cli(capsys, "oracle-check", "--lambda", "1.0", "--mu", "0.0")
    assert code == 1
    assert "mu" in err


def test_synthesize_to_stdout(capsys):
    code, out, _ = run_cli(
        capsys,
        "synthesize",
        "bundled:webservices_steps.txt",
        "bundled:webservices_deployment.json",
        "--arrival-rate",
        "75.0",
    )
    assert code == 0
    model = parse_scenario(out)
    assert model.name == "synthesized"
    assert len(model.classes[0].path) == 10


def test_synthesize_writes_a_runnable_scenario(tmp_path, capsys):
    out_path = tmp_path / "scenario.json"
    code, out, _ = run_cli(
        capsys,
        "synthesize",
        "bundled:webservices_steps.txt",
        "bundled:webservices_deployment.json",
        "--interarrival",
        "0.02",
        "--requests",
        "100",
        "--seed",
        "5",
        "--max-requests",
        "100",
        "--name",
        "synth",
        "--output",
        str(out_path),
    )
    assert code == 0
    assert "wrote scenario 'synth'" in out
    code, out, _ = run_cli(capsys, "run", str(out_path), "--format", "json")
    assert code == 0
    assert json.loads(out)["totals"]["generated"] == 100


def test_synthesize_requires_exactly_one_arrival_spec(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "bundled:webservices_steps.txt", "bundled:webservices_deployment.json"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "synthesize",
                "bundled:webservices_steps.txt",
                "bundled:webservices_deployment.json",
                "--arrival-rate",
                "1.0",
                "--interarrival",
                "2.0",
            ]
        )
    assert exc.value.code == 2
    capsys.readouterr()


_TWO_NODES = '"bindings": {"a": "n1"}, "nodes": {"n1": ["P1"], "n2": ["P2"]}'


@pytest.mark.parametrize(
    "deployment, path",
    [
        ('{"bindings": {"a": ["n1"]}, "nodes": {"n1": ["P1"]}}', "deployment.bindings['a']"),
        ('{%s, "links": 5}' % _TWO_NODES, "deployment.links"),
        ('{%s, "links": {}}' % _TWO_NODES, "deployment.links"),
        ('{%s, "links": [{"between": ["n1", 5], "resource": "NET"}]}' % _TWO_NODES, "deployment.links[0].between[1]"),
        ('{"bindings": {"a": "n1"}, "nodes": {"n1": [{"name": 5}]}}', "deployment.nodes['n1'][0].name"),
        (
            '{%s, "links": [{"between": ["n1", "n2", "n1"], "resource": "NET"}]}' % _TWO_NODES,
            "deployment.links[0].between",
        ),
        (
            '{%s, "links": [{"between": ["n1", "n2"], "resource": {"name": "lan", "replicas": "2"}}]}' % _TWO_NODES,
            "deployment.links[0].resource.replicas",
        ),
        # found by validating the synthesized scenario, and named as the deployment names it
        ('{"bindings": {"a": "n1"}, "nodes": {"n1": [{"name": "P1", "replicas": 0}]}}', "deployment.nodes['n1'][0]"),
    ],
    ids=[
        "binding-array",
        "links-number",
        "links-object",
        "endpoint-number",
        "name-number",
        "three-endpoints",
        "link-replicas-string",
        "node-replicas-zero",
    ],
)
def test_synthesize_rejects_a_malformed_deployment(tmp_path, capsys, deployment, path):
    steps = tmp_path / "steps.txt"
    steps.write_text("a -> a : local [det 0.1]\n", encoding="utf-8")
    deployment_path = tmp_path / "deployment.json"
    deployment_path.write_text(deployment, encoding="utf-8")
    code, _, err = run_cli(capsys, "synthesize", str(steps), str(deployment_path), "--arrival-rate", "1")
    assert_one_error_line(code, err, f"error: {path}: ")


_FILE = "<file>"


# each command that reads a file, with that file as _FILE
_EVERY_FILE_INPUT = pytest.mark.parametrize(
    "argv",
    [
        ("validate", _FILE),
        ("run", _FILE),
        ("sweep", _FILE, "--rates", "1.0"),
        ("report", _FILE),
        ("synthesize", _FILE, "bundled:webservices_deployment.json", "--arrival-rate", "1"),
        ("synthesize", "bundled:webservices_steps.txt", _FILE, "--arrival-rate", "1"),
    ],
    ids=["validate", "run", "sweep", "report", "synthesize-steps", "synthesize-deployment"],
)


@pytest.mark.parametrize("text", ["{", "[]", "{}"], ids=["truncated", "array", "empty-object"])
@_EVERY_FILE_INPUT
def test_every_file_input_rejects_malformed_text_with_one_error_line(tmp_path, capsys, argv, text):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, *(str(path) if arg == _FILE else arg for arg in argv))
    assert out == ""
    assert_one_error_line(code, err, "error: ")
    # the message starts at the offending position: a line, or a document path
    assert re.match(r"error: (line 1\b|\$: |deployment: )", err), err


@_EVERY_FILE_INPUT
def test_every_file_input_refuses_bytes_that_are_not_utf8_with_one_error_line(tmp_path, capsys, argv):
    path = tmp_path / "input"
    path.write_bytes(b'{"name": "\xff"}')
    code, out, err = run_cli(capsys, *(str(path) if arg == _FILE else arg for arg in argv))
    assert out == ""
    assert_one_error_line(code, err, f"error: {path}: byte 0xff at offset 10 is not UTF-8\n")


def _without_uniform_bounds(text: str) -> str:
    doc = json.loads(text)
    doc["classes"][0]["arrival"] = {"kind": "uniform"}
    return json.dumps(doc)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: "{}", "error: $: missing required key 'name'\n"),
        (_without_uniform_bounds, "error: $.classes[0].arrival: missing required key 'lo'\n"),
    ],
    ids=["empty", "uniform"],
)
def test_a_missing_key_error_names_the_same_key_under_every_hash_seed(station_path, tmp_path, edit, message):
    path = tmp_path / "scenario.json"
    path.write_text(edit(Path(station_path).read_text(encoding="utf-8")), encoding="utf-8")
    errors = set()
    # string hashing orders a set of names differently under these seeds
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=_SRC, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "tiersim.cli", "validate", str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        errors.add((proc.returncode, proc.stderr))
    assert errors == {(1, message)}


_ARRIVAL = ("classes", 0, "arrival")
_DEMAND = ("classes", 0, "path", 0, "demand")
_STOP = ("run", "stop")
_BAD_DEMAND = "(expected 'exp RATE', 'det VALUE' or 'uniform LO HI')"


@pytest.mark.parametrize(
    "where, record, line",
    [
        (_ARRIVAL, {"kind": "normal", "rate": 1}, "$.classes[0].arrival.kind: unknown distribution kind 'normal'"),
        (_ARRIVAL, {"kind": [1], "rate": 1}, "$.classes[0].arrival.kind: unknown distribution kind [1]"),
        (_DEMAND, {"kind": None, "value": 1}, "$.classes[0].path[0].demand.kind: unknown distribution kind None"),
        (_STOP, {"kind": "forever", "n": 10}, "$.run.stop.kind: unknown stop kind 'forever'"),
        (_DEMAND, {"kind": "deterministic", "value": 1, "rate": 2}, "$.classes[0].path[0].demand: unknown key 'rate'"),
        (_STOP, {"kind": "after_time", "t": 5, "n": 10}, "$.run.stop: unknown key 'n'"),
        (_ARRIVAL, {"kind": "uniform", "lo": 1}, "$.classes[0].arrival: missing required key 'hi'"),
        (_STOP, {"kind": "after_time"}, "$.run.stop: missing required key 't'"),
        (_ARRIVAL, {"kind": "exponential", "rate": "2"}, "$.classes[0].arrival.rate: expected a number, got '2'"),
        (_STOP, {"kind": "after_requests", "n": 1.5}, "$.run.stop.n: expected an integer, got 1.5"),
        (("format_version",), 2, "$.format_version: unsupported version 2 (this build reads 1)"),
        (None, "exp 1 2", f"line 1: bad demand 'exp 1 2' {_BAD_DEMAND}"),
        (None, "gamma 1", f"line 1: bad demand 'gamma 1' {_BAD_DEMAND}"),
        (None, "det cheap", "line 1: demand parameters must be numbers, got ['cheap']"),
        (None, "uniform 1", f"line 1: bad demand 'uniform 1' {_BAD_DEMAND}"),
        (None, " ", "line 1: empty demand bracket"),
    ],
    ids=[
        "kind-normal",
        "kind-list",
        "kind-null",
        "stop-forever",
        "distribution-extra-key",
        "stop-extra-key",
        "uniform-without-hi",
        "stop-without-t",
        "text-rate",
        "fractional-n",
        "format-version-2",
        "step-exp-two-params",
        "step-gamma",
        "step-det-text",
        "step-uniform-one-param",
        "step-empty-bracket",
    ],
)
def test_each_bad_tagged_record_is_one_pinned_error_line(station_path, tmp_path, capsys, where, record, line):
    path = tmp_path / "input"
    if where is None:
        # a demand in the step script
        path.write_text(f"a -> b : call [{record}]\n", encoding="utf-8")
        argv = ("synthesize", str(path), "bundled:webservices_deployment.json", "--arrival-rate", "1")
    else:
        doc = _station_doc(station_path)
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = record
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ("validate", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert out == ""
    assert (code, err) == (1, f"error: {line}\n")


@pytest.mark.parametrize(
    "name",
    ["nothing.json", "../model.py", "../../tiersim/data/webservices.json", ""],
    ids=["unknown", "package-source", "climbs-back-in", "data-directory"],
)
def test_unknown_bundled_name_is_io_error(capsys, name):
    # only a file directly in the packaged data directory is bundled
    code, out, err = run_cli(capsys, "validate", f"bundled:{name}")
    assert out == ""
    assert (code, err) == (2, f"i/o error: [Errno 2] No such file or directory: 'bundled:{name}'\n")


_SYNTHESIZE = ("synthesize", "bundled:webservices_steps.txt", "bundled:webservices_deployment.json")


@pytest.mark.parametrize(
    "argv, validations",
    [
        (("run", "STATION", "--quiet"), 1),
        (("run", "STATION", "--quiet", "--seed", "3"), 2),
        (("run", "STATION", "--quiet", "--series"), 2),
        # run_sweep validates each rate's model once more
        (("sweep", "STATION", "--rates", "1.0,2.0"), 3),
        (("sweep", "STATION", "--rates", "1.0,2.0", "--requests", "50"), 4),
        ((*_SYNTHESIZE, "--arrival-rate", "75"), 1),
        ((*_SYNTHESIZE, "--arrival-rate", "75", "--requests", "20"), 2),
    ],
    ids=["run", "run-seed", "run-series", "sweep", "sweep-requests", "synthesize", "synthesize-requests"],
)
def test_a_command_without_overrides_validates_its_model_once(monkeypatch, capsys, station_path, argv, validations):
    calls = []

    def counted(model):
        calls.append(model)
        return validate(model)

    monkeypatch.setattr(model_module, "validate", counted)
    code, _, err = run_cli(capsys, *(station_path if a == "STATION" else a for a in argv))
    assert (code, err) == (0, "")
    assert len(calls) == validations


def test_apply_overrides_returns_the_model_itself_when_none_is_given():
    model = parse_scenario(bundled.scenario_text())
    for argv in (["run", "x"], ["sweep", "x", "--rates", "1"], [*_SYNTHESIZE, "--arrival-rate", "1"]):
        assert cli._apply_overrides(model, cli.build_parser().parse_args(argv)) is model
    overridden = cli._apply_overrides(model, cli.build_parser().parse_args(["run", "x", "--warmup", "0.0"]))
    assert overridden is not model and overridden.run.warmup == 0.0


def _readme_section(title: str) -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (section,) = (s for s in re.split(r"^## ", readme, flags=re.M) if s.startswith(f"{title}\n"))
    return section


def test_the_readme_command_lines_and_library_example_run(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)
    (block,) = re.findall(r"```sh\n(.*?)```", _readme_section("Command line"), re.S)
    commands = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("tiersim ")]
    assert len(commands) == 6
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)

    (scenario,) = re.findall(r"```json\n(.*?)```", _readme_section("Scenario format"), re.S)
    (tmp_path / "scenario.json").write_text(scenario, encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", _readme_section("Library use"), re.S)
    exec(compile(example, "README.md", "exec"), {})
    # the package docstring's example, against the same file
    (example,) = re.findall(r"Typical use:\n\n((?:    .*\n)+)", tiersim.__doc__)
    exec(compile(textwrap.dedent(example), tiersim.__file__, "exec"), {})
    assert capsys.readouterr().err == ""
