"""tiersim benchmark: run one workload for a fixed time, check it, report.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the checkout root. The workload's inputs derive from ``--seed``.
Jobs (input text to rendered outputs, see workloads.py) repeat until
``--seconds`` have passed, with the host-speed probe between them.
Every simulation run is checked (checks.py) and every job's outputs
must match the first job's byte for byte.

``--trace 0`` reports the end-to-end metrics, after measuring peak RSS
in a fresh child process. ``--trace 1`` reports the per-layer metrics:
the span medians of the same jobs, then one more job under cProfile.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give quartiles, raw
wall-clock figures, output digests and the environment. The exit code
is 0 when every run passed, 1 when one failed, 2 when the tiersim
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import source

HERE = Path(__file__).resolve().parent
MIN_JOBS = 3
# Each child normally finishes in about two seconds; the whole command
# must still end within three minutes if one hangs.
CHILD_TIMEOUT_S = 60


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="tiersim benchmark: one workload, timed, checked and optionally traced.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to repeat jobs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    return parser.parse_args(argv)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def digests(outputs: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in outputs.items()}


def child(*args: str) -> dict:
    """Run peak_rss.py in a fresh interpreter and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "peak_rss.py"), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"peak_rss.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def mmck_rel_err(report, station) -> float:
    """Largest relative error of the simulated station against mmck,
    over the quantities whose exact value is at least 1e-3."""
    from tiersim import mmck

    exact = mmck(station.lam, station.mu, station.servers, station.queue_capacity)
    sim = report.resources["station"]
    pairs = ((sim.utilization, exact.utilization), (sim.avg_waiting, exact.mean_wait), (sim.p_drop, exact.p_block))
    return max(abs(s - e) / e for s, e in pairs if e >= 1e-3)


def useful_visit_ratio(job) -> float:
    """Visits served to sessions that completed, over all visits served."""
    path_len = {cls.name: len(cls.path) for cls in job.engine.model.classes}
    useful = served = 0
    for report in job.reports():
        useful += sum(c.completed * path_len[name] for name, c in report.classes.items())
        served += sum(m.served for m in report.resources.values())
    return useful / served if served else 0.0


class Run:
    """Jobs of one benchmark run, with their checks and timings."""

    def __init__(self, inputs, trace: bool):
        import checks
        import workloads

        self.checks = checks
        self.workloads = workloads
        self.inputs = inputs
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None
        self.first = None
        self.samples: dict[str, list[float]] = {}
        self._probe = hostspeed.probe()

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def check(self, job) -> int:
        """Check one job; return its events. Failed runs go to the tallies."""
        runs = job.reports()
        self.attempted += len(runs)
        bad = 0
        for report in runs:
            found = self.checks.report_problems(report)
            self.problems.extend(found)
            bad += bool(found)
        applied = job.engine.events_applied
        if applied != self.checks.events_of(job.report):
            self.problems.append(f"engine applied {applied} events, report accounts for {self.checks.events_of(job.report)}")
            bad = max(bad, 1)
        got = digests(job.outputs)
        if self.reference is None:
            self.reference = got
        elif got != self.reference:
            self.problems.append(f"outputs differ between two runs of one seed: {got} vs {self.reference}")
            bad = len(runs)
        self.failed += bad
        return sum(self.checks.events_of(r) for r in runs)

    def speed_since_last_probe(self) -> float:
        """Host speed over the job just finished: mean of the probes around it."""
        probe = hostspeed.probe()
        speed = hostspeed.speed((self._probe + probe) / 2)
        self._probe = probe
        return speed

    def timed_jobs(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while len(self.samples.get("events_per_s", ())) < MIN_JOBS or time.perf_counter() < deadline:
            gc.collect()
            try:
                job = self.workloads.run_job(self.inputs)
            except Exception:
                traceback.print_exc()
                self.attempted += self.inputs.runs_per_job
                self.failed += self.inputs.runs_per_job
                self.problems.append("a job raised; see the traceback on stderr")
                return
            finalize_s = self._time_finalize(job) if self.trace else None
            speed = self.speed_since_last_probe()
            events = self.check(job)
            if self.first is None:
                self.first = job
            self.add("host.speed", speed)
            self.add("raw.events_per_s", events / job.wall_s)
            self.add("events_per_s", events / (job.wall_s * speed))
            self.add("setup_s", job.setup_s * speed)
            self.add("job.wall_s", job.wall_s * speed)
            self.add("setup.job_frac", job.setup_s / job.wall_s)
            for name, span_s in job.spans.items():
                self.add(name, span_s * speed)
            if finalize_s is not None:
                self.add("metrics.finalize_s", finalize_s * speed)

    @staticmethod
    def _time_finalize(job) -> float:
        """Time a second finalize of the finished run; the call is pure."""
        from tiersim import finalize

        start = time.perf_counter()
        finalize(job.engine.accumulator, job.report.elapsed)
        return time.perf_counter() - start

    def profiled_job(self) -> dict[str, dict]:
        """One more job under cProfile: layer breakdown and tracing overhead."""
        import tracing

        gc.collect()
        job, entries = tracing.profile(self.workloads.run_job, self.inputs)
        speed = self.speed_since_last_probe()
        events = self.check(job)
        out = tracing.breakdown(entries, events)
        untraced = statistics.median(self.samples["engine.run_s"])
        out["trace.overhead"] = metric(job.spans["engine.run_s"] * speed / untraced, "ratio")
        return out

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])


def environment(inputs, load: tuple[float, float, float]) -> dict:
    import numpy
    import tiersim
    from tiersim.workload import STREAM_ALGORITHM

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "tiersim": tiersim.__version__,
        "stream_algorithm": STREAM_ALGORITHM,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "loadavg_at_start": list(load),
        "workload": inputs.workload,
        "seed": inputs.seed,
        "scenario_seed": inputs.scenario_seed,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(run: Run, layers: dict[str, dict], station_err: float | None) -> dict[str, dict]:
    """The per-layer metrics: span medians, profile breakdown, counters."""
    first = run.first
    span_names = [*first.spans, "metrics.finalize_s", "job.wall_s"]
    metrics = {name: metric(run.median(name), "s") for name in span_names}
    metrics["setup.job_frac"] = metric(run.median("setup.job_frac"), "ratio")
    metrics["host.speed"] = metric(run.median("host.speed"), "ratio")
    metrics.update(layers)
    reports = first.reports()
    metrics["engine.events"] = metric(sum(run.checks.events_of(r) for r in reports), "count")
    metrics["engine.arrivals"] = metric(sum(r.generated for r in reports), "count")
    metrics["engine.completions"] = metric(sum(sum(m.served for m in r.resources.values()) for r in reports), "count")
    metrics["engine.useful_visit_ratio"] = metric(useful_visit_ratio(first), "ratio")
    rows = len(first.report.resource_series) + len(first.report.end_to_end_series)
    metrics["metrics.series_rows"] = metric(rows, "count")
    metrics["metrics.series_bytes"] = metric(len(first.outputs.get("series", "").encode()), "bytes")
    metrics["metrics.report_bytes"] = metric(len(first.outputs["report"].encode()), "bytes")
    metrics["oracle.mmck_rel_err"] = metric(station_err or 0.0, "ratio")
    return metrics


def print_summary(run: Run, env: dict, rss: float | None, base_rss: float | None, station_err: float | None) -> None:
    """Human-readable lines: medians with quartiles, raw figures, checks."""
    print(f"workload {env['workload']}  seed {env['seed']}  jobs {len(run.samples['events_per_s'])}  simulation runs {run.attempted}")
    print("env " + json.dumps(env))
    rows = (
        ("events_per_s", "events_per_s", "events/s", "(reference-host time)"),
        ("setup_s", "setup_s", "s", "(reference-host time)"),
        ("job.wall_s", "job.wall_s", "s", "(reference-host time)"),
        ("raw events/s", "raw.events_per_s", "events/s", "(wall time)"),
        ("host speed", "host.speed", "ratio", ""),
    )
    for label, name, unit, note in rows:
        q1, q2, q3 = quartiles(run.samples[name])
        print(f"{label:<16}{q2:>14.6g} {unit:<9} q1 {q1:.6g}  q3 {q3:.6g}  {note}")
    if rss is not None:
        print(f"{'peak_rss_mb':<16}{rss:>14.6g} {'MiB':<9} import-only {base_rss:.6g} MiB, workload +{rss - base_rss:.6g} MiB")
    if station_err is not None:
        print(f"{'mmck_rel_err':<16}{station_err:>14.6g} {'ratio':<9}")
    fail_ratio = run.failed / run.attempted
    print(f"{'fail_ratio':<16}{fail_ratio:>14.6g} {'ratio':<9} {run.failed} of {run.attempted} runs failed")
    print("sha256 " + " ".join(f"{name}={digest}" for name, digest in sorted((run.reference or {}).items())))
    for line in run.problems:
        print(f"FAIL {line}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    load = os.getloadavg()
    try:
        source.add_source_path()
    except source.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed)
    run = Run(inputs, trace=bool(args.trace))

    rss = base_rss = None
    if not args.trace:
        # a fresh process per figure; its outputs must match ours byte for byte
        try:
            base_rss = child("--import-only")["peak_rss_mb"]
            measured = child("--workload", inputs.workload, "--seed", str(inputs.seed))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: peak-RSS child failed: {exc}", file=sys.stderr)
            run.attempted += inputs.runs_per_job
            run.failed += inputs.runs_per_job
            run.problems.append("peak-RSS child failed")
        else:
            rss = measured["peak_rss_mb"]
            run.reference = measured["sha256"]

    run.timed_jobs(args.seconds)
    if not run.samples:
        print("error: no job finished", file=sys.stderr)
        for line in run.problems:
            print(f"FAIL {line}", file=sys.stderr)
        return 1
    layers = run.profiled_job() if args.trace else {}

    station_err = mmck_rel_err(run.first.report, inputs.station) if inputs.station else None
    print_summary(run, environment(inputs, load), rss, base_rss, station_err)

    if args.trace:
        metrics = layer_metrics(run, layers, station_err)
    else:
        metrics = {
            "events_per_s": metric(run.median("events_per_s"), "events/s"),
            "setup_s": metric(run.median("setup_s"), "s"),
            "peak_rss_mb": metric(rss if rss is not None else 0.0, "MiB"),
        }
    correct = run.failed == 0 and not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
