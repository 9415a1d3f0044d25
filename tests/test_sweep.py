"""Arrival-rate sweeps: per-rate validation and the forked batch."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tiersim import (
    Distribution,
    DomainError,
    Engine,
    InternalError,
    RunConfig,
    StopRule,
    bundled,
    export_series,
    parse_deployment,
    parse_execution,
    parse_scenario,
    report_to_json,
    synthesize_scenario,
)
from tiersim import runs, sweep
from tiersim.metrics import UNVISITED
from tiersim.model import validated
from tiersim.runs import build_station_model
from tiersim.sweep import parse_rate_grid, run_sweep, sweep_to_csv

from randdeploy import random_deployment

SRC = Path(__file__).resolve().parents[1] / "src"


def webservices(requests: int):
    model = parse_scenario(bundled.scenario_text())
    return dataclasses.replace(model, run=dataclasses.replace(model.run, stop=StopRule.after_requests(requests)))


@pytest.fixture()
def pooled(monkeypatch):
    """Fork every batch of more than one run into two workers, even on a
    host with one usable CPU."""
    monkeypatch.setattr(runs, "usable_cpus", lambda: 2)


@pytest.fixture()
def forks(monkeypatch):
    """The pid of each child a batch forks, in the order it forked them."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture()
def no_fork(monkeypatch):
    def refuse():
        raise AssertionError("a batch that needs one worker forked")

    monkeypatch.setattr(os, "fork", refuse)


def assert_no_child_left():
    # every child a batch forked has exited and been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_each_rate_is_validated_once(monkeypatch):
    calls = []
    real = sweep.validated

    def counting(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(sweep, "validated", counting)
    run_sweep(webservices(60), (20.0, 40.0, 60.0), replications=4, master_seed=3)
    assert len(calls) == 3


def test_replications_record_no_series():
    model = webservices(60)
    assert model.run.series_enabled
    result = run_sweep(model, (20.0, 40.0), replications=2, master_seed=3)
    reports = [r for reps in result.reports.values() for r in reps]
    assert not any(r.series_enabled or r.resource_series or r.end_to_end_series for r in reports)


@pytest.mark.parametrize("grid", ["1,1", "1:1:3", "0.5,2,0.5"])
def test_a_repeated_rate_is_refused_before_any_run(monkeypatch, grid):
    def no_run(model):
        raise AssertionError("a sweep started a run before checking its grid")

    monkeypatch.setattr(runs, "Engine", no_run)
    with pytest.raises(DomainError, match=r"rate grid repeats (1\.0|0\.5); give each rate once"):
        run_sweep(webservices(60), parse_rate_grid(grid), replications=2, master_seed=3)


@pytest.mark.parametrize(
    "rate",
    [
        math.inf,
        math.nan,
        pytest.param(10**400, id="int-past-float"),
        pytest.param("40", id="string"),
        pytest.param(True, id="bool"),
    ],
)
def test_a_non_finite_rate_is_refused_before_any_run(monkeypatch, rate):
    # a caller that builds its own grid skips parse_rate_grid's check; a
    # bool, a string or an int too large for a float is no finite rate
    def no_run(model):
        raise AssertionError("a sweep started a run of a non-finite rate")

    monkeypatch.setattr(runs, "Engine", no_run)
    with pytest.raises(DomainError, match=f"^swept arrival rate must be finite, got {re.escape(repr(rate))}$"):
        run_sweep(webservices(60), (rate,), replications=1, master_seed=3)


@pytest.mark.parametrize("replications", [1.5, "2", None, True], ids=["float", "string", "none", "bool"])
def test_a_non_integer_replication_count_is_refused_before_any_run(monkeypatch, replications):
    def no_run(model):
        raise AssertionError("a sweep started a run with a non-integer replication count")

    monkeypatch.setattr(runs, "Engine", no_run)
    with pytest.raises(DomainError, match=f"^replications must be an integer, got {re.escape(repr(replications))}$"):
        run_sweep(webservices(60), (40.0,), replications=replications, master_seed=3)


def test_usable_cpus_is_positive():
    assert runs.usable_cpus() >= 1


@pytest.mark.parametrize("count, usable", [(3, 3), (None, 1)])
def test_usable_cpus_without_an_affinity_api_is_the_cpu_count_or_one(monkeypatch, count, usable):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert runs.usable_cpus() == usable


def test_the_pool_forks_and_changes_no_byte(monkeypatch, pooled, forks):
    model = webservices(300)
    rates = (20.0, 40.0, 60.0)
    monkeypatch.setattr(runs, "usable_cpus", lambda: 1)
    serial = run_sweep(model, rates, replications=2, master_seed=11)
    assert forks == []
    monkeypatch.setattr(runs, "usable_cpus", lambda: 2)
    pooled_result = run_sweep(model, rates, replications=2, master_seed=11)
    # two workers: this process and one forked child
    assert len(forks) == 1
    assert_no_child_left()
    assert sweep_to_csv(pooled_result) == sweep_to_csv(serial)
    assert list(pooled_result.reports) == list(serial.reports) == list(rates)
    for rate in rates:
        pooled_json = [report_to_json(r) for r in pooled_result.reports[rate]]
        assert pooled_json == [report_to_json(r) for r in serial.reports[rate]]


def test_a_pooled_sweep_of_unvisited_resources_changes_no_byte(monkeypatch, pooled, forks):
    # the webservices test above visits every resource; these synthesized
    # deployments declare resources that no class visits
    models = [model for label, model in pinned_sweep_models() if label.startswith("randdeploy:")][:2]
    for model in models:
        visited = {v.resource for c in model.classes for v in c.path}
        assert {r.name for r in model.resources()} > visited
        monkeypatch.setattr(runs, "usable_cpus", lambda: 1)
        serial = run_sweep(model, (1.5, 4.0), replications=2, master_seed=13)
        monkeypatch.setattr(runs, "usable_cpus", lambda: 2)
        pooled_result = run_sweep(model, (1.5, 4.0), replications=2, master_seed=13)
        assert sweep_to_csv(pooled_result) == sweep_to_csv(serial)
        for rate, reports in serial.reports.items():
            assert [report_to_json(r) for r in pooled_result.reports[rate]] == [report_to_json(r) for r in reports]
        # in process the unvisited rows are the UNVISITED object; the
        # child's reports (runs 1 and 3 of 4) come back as unpickled
        # copies, while this process's share (runs 0 and 2) keeps it
        unvisited = [name for name in serial.reports[1.5][0].resources if name not in visited]
        assert all(r.resources[name] is UNVISITED for reps in serial.reports.values() for r in reps for name in unvisited)
        flat = [r for reps in pooled_result.reports.values() for r in reps]
        for index, report in enumerate(flat):
            identical = [report.resources[name] is UNVISITED for name in unvisited]
            assert identical == [index % 2 == 0] * len(unvisited)
    assert len(forks) == len(models)
    assert_no_child_left()


def test_run_models_returns_pooled_reports_in_input_order(monkeypatch, pooled, forks):
    web = webservices(200)
    timed = dataclasses.replace(web, run=dataclasses.replace(web.run, seed=9, stop=StopRule.after_time(4.0)))
    models = (build_station_model(1.5, 2.0, 2, 4, 400, seed=3), web, timed)
    monkeypatch.setattr(runs, "usable_cpus", lambda: 1)
    serial = [report_to_json(r) for r in runs.run_models(models)]
    assert len(set(serial)) == len(models)
    monkeypatch.setattr(runs, "usable_cpus", lambda: 2)
    assert [report_to_json(r) for r in runs.run_models(models)] == serial
    assert len(forks) == 1
    assert_no_child_left()


def test_series_rows_come_back_from_the_fork_join_byte_for_byte(pooled, forks):
    # the child runs models 1 and 3 and sends their reports, series
    # columns included, back through its pickle pipe
    web = webservices(1000)
    models = tuple(
        dataclasses.replace(web, run=dataclasses.replace(web.run, seed=seed, warmup=warmup))
        for seed, warmup in ((1, 0.0), (2, 1.0), (3, 0.0), (4, 2.0))
    )
    assert all(m.run.series_enabled for m in models)
    reports = runs.run_models(models)
    assert len(forks) == 1
    for model, report in zip(models, reports):
        assert report.resource_series and report.end_to_end_series
        assert export_series(report) == export_series(Engine(model).run())
    assert_no_child_left()


def test_run_models_of_no_models_starts_no_pool(monkeypatch, pooled, no_fork):
    # no runs means no workers, whatever the CPUs
    assert runs.run_models(()) == ()


@pytest.mark.parametrize("one_worker", ["one-cpu", "no-fork"])
def test_a_one_worker_batch_runs_one_share_in_this_process(monkeypatch, pooled, no_fork, one_worker):
    # the fork-join with one worker forks nothing and runs share 0 here
    if one_worker == "one-cpu":
        monkeypatch.setattr(runs, "usable_cpus", lambda: 1)
    else:
        monkeypatch.delattr(os, "fork")
    shares = []
    real = runs._run_share

    def recording(*args):
        shares.append(args)
        return real(*args)

    monkeypatch.setattr(runs, "_run_share", recording)
    models = _stations(3)
    reports = runs.run_models(models)
    assert shares == [(models, 0, 1)]
    assert [report_to_json(r) for r in reports] == [report_to_json(Engine(m).run()) for m in models]


def test_a_failed_share_sends_back_only_its_error(monkeypatch):
    error = DomainError("model 1")
    _failing_engine(monkeypatch, {1: _raise(error)})
    assert runs._run_share(_stations(2), 0, 1) == (None, (1, error))


def _station_arriving(arrival: Distribution, max_requests: float, stop: StopRule):
    model = build_station_model(1.0, 2.0, 2, 3, 40, seed=7)
    (cls,) = model.classes
    cls = dataclasses.replace(cls, arrival=arrival, max_requests=max_requests)
    return validated(dataclasses.replace(model, classes=(cls,), run=dataclasses.replace(model.run, stop=stop)))


def test_a_capped_class_under_a_long_time_stop_generates_only_its_cap(monkeypatch):
    # 100 arrivals per unit time for 1000 time units, but 10 sessions in
    # all, in each of the runs that two forked workers share
    model = _station_arriving(Distribution.exponential(100.0), 10, StopRule.after_time(1000.0))
    monkeypatch.setattr(runs, "usable_cpus", lambda: 2)
    assert [r.generated for r in runs.run_models((model,) * 4)] == [10] * 4


def test_a_capped_class_under_a_long_request_stop_generates_only_its_cap(monkeypatch):
    # the stop waits for 100000 terminal sessions, but the class sends 10
    # in all, in each of the runs that two forked workers share
    model = _station_arriving(Distribution.exponential(100.0), 10, StopRule.after_requests(100_000))
    monkeypatch.setattr(runs, "usable_cpus", lambda: 2)
    assert [r.generated for r in runs.run_models((model,) * 4)] == [10] * 4


def test_a_class_whose_rate_underflows_is_refused_by_the_engine(pooled, forks):
    # the mean gap 1/1e-320 overflows to inf, so the class's rate reads
    # 0.0; each run fails at its first arrival, in the child as here
    model = _station_arriving(Distribution.exponential(1e-320), math.inf, StopRule.after_requests(50))
    with pytest.raises(InternalError, match="scheduled event time is not finite: inf"):
        runs.run_models((model,) * 2)
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("in_pool", [False, True], ids=["in-process", "pooled"])
def test_run_models_takes_arrivals_without_a_rate(request, in_pool):
    # deterministic and uniform gaps have no exponential rate, and a
    # burst (gaps of mean 0, bounded max_requests) has no rate at all
    if in_pool:
        request.getfixturevalue("pooled")
    arrivals = (
        (Distribution.deterministic(0.4), math.inf),
        (Distribution.uniform(0.1, 0.7), math.inf),
        (Distribution.deterministic(0.0), 30),
    )
    models = tuple(
        _station_arriving(arrival, max_requests, stop)
        for arrival, max_requests in arrivals
        for stop in (StopRule.after_requests(40), StopRule.after_time(6.0))
    )
    # a class capped at 10 sessions under a stop that waits far longer:
    # 100 arrivals per unit time for 1000 time units, or 100000 outcomes
    capped = tuple(
        _station_arriving(Distribution.exponential(100.0), 10, stop)
        for stop in (StopRule.after_time(1000.0), StopRule.after_requests(100_000))
    )
    models += capped * 2
    reports = runs.run_models(models)
    assert [r.generated for r in reports[-4:]] == [10] * 4
    assert [report_to_json(r) for r in reports] == [report_to_json(Engine(m).run()) for m in models]


def test_a_worker_error_reaches_the_caller_unchanged(monkeypatch, pooled):
    # one session of 40 visits, each with a mean demand of 1e307: the
    # clock overflows within a few visits
    model = build_station_model(1.0, 1.0, 1, 0, 1, seed=1)
    (cls,) = model.classes
    path = (dataclasses.replace(cls.path[0], demand=Distribution.exponential(1e-307)),) * 40
    model = dataclasses.replace(model, classes=(dataclasses.replace(cls, path=path, max_requests=1),))
    errors = []
    for cpus in (1, 2):
        monkeypatch.setattr(runs, "usable_cpus", lambda: cpus)
        with pytest.raises(InternalError) as exc:
            run_sweep(model, (1.0, 2.0), replications=2, master_seed=5)
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] == errors[1]
    assert "scheduled event time is not finite" in errors[0][1]
    # one worker runs every model here, so the error is the one raised
    error = InternalError("model 2")
    _failing_engine(monkeypatch, {2: _raise(error)})
    monkeypatch.setattr(runs, "usable_cpus", lambda: 1)
    with pytest.raises(InternalError) as exc:
        runs.run_models(_stations(3))
    assert exc.value is error


def _failing_engine(monkeypatch, fail):
    """Patch runs.Engine: a run whose model's seed is a key of ``fail``
    calls that key's action instead of simulating."""
    real = runs.Engine

    class Engine:
        def __init__(self, model):
            self.model = model

        def run(self):
            action = fail.get(self.model.run.seed)
            return action() if action else real(self.model).run()

    monkeypatch.setattr(runs, "Engine", Engine)


def _stations(count: int):
    return tuple(build_station_model(1.5, 2.0, 2, 4, 60, seed=seed) for seed in range(count))


def _raise(error):
    def action():
        raise error

    return action


def test_a_failed_batch_raises_the_lowest_index_error(monkeypatch, pooled, forks):
    # with 2 workers, model 1 is the child's and model 2 this process's;
    # this process fails first, but the serial loop would raise model 1's
    _failing_engine(monkeypatch, {1: _raise(DomainError("model 1")), 2: _raise(InternalError("model 2"))})
    with pytest.raises(DomainError, match="^model 1$"):
        runs.run_models(_stations(4))
    assert len(forks) == 1
    assert_no_child_left()
    monkeypatch.setattr(runs, "usable_cpus", lambda: 1)
    with pytest.raises(DomainError, match="^model 1$"):
        runs.run_models(_stations(4))


def test_a_child_that_exits_without_reports_is_one_internal_error(monkeypatch, pooled, forks):
    _failing_engine(monkeypatch, {1: lambda: os._exit(3)})
    with pytest.raises(InternalError, match=r"batch worker 1 sent no reports \(wait status 768\)"):
        runs.run_models(_stations(4))
    assert len(forks) == 1
    assert_no_child_left()


def test_an_interrupt_in_this_process_kills_and_reaps_the_children(monkeypatch, pooled, forks):
    # this process runs models 0, 3, ...; the children would sleep for a minute
    parent = os.getpid()

    def interrupt_or_sleep():
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    _failing_engine(monkeypatch, dict.fromkeys(range(3), interrupt_or_sleep))
    monkeypatch.setattr(runs, "usable_cpus", lambda: 3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        runs.run_models(_stations(3))
    assert time.monotonic() - start < 30
    assert len(forks) == 2
    assert_no_child_left()


def test_uneven_shares_change_no_byte(monkeypatch, pooled, forks):
    # 5 runs on 3 workers: this process runs 0 and 3, the children 1 and 4, and 2
    model = webservices(150)
    monkeypatch.setattr(runs, "usable_cpus", lambda: 1)
    serial = run_sweep(model, (20.0, 40.0, 60.0, 80.0, 100.0), replications=1, master_seed=17)
    monkeypatch.setattr(runs, "usable_cpus", lambda: 3)
    forked = run_sweep(model, (20.0, 40.0, 60.0, 80.0, 100.0), replications=1, master_seed=17)
    assert len(forks) == 2
    assert_no_child_left()
    assert sweep_to_csv(forked) == sweep_to_csv(serial)
    for rate, reports in serial.reports.items():
        assert [report_to_json(r) for r in forked.reports[rate]] == [report_to_json(r) for r in reports]


@pytest.mark.parametrize(
    "cpus, rates, replications",
    [(2, (40.0,), 1), (1, (20.0, 40.0), 2)],
    ids=["one-run", "one-cpu"],
)
def test_a_sweep_that_needs_one_worker_starts_no_pool(monkeypatch, no_fork, cpus, rates, replications):
    monkeypatch.setattr(runs, "usable_cpus", lambda: cpus)
    result = run_sweep(webservices(60), rates, replications=replications, master_seed=2)
    assert [len(reps) for reps in result.reports.values()] == [replications] * len(rates)


def test_a_short_sweep_forks_and_changes_no_byte(monkeypatch, forks):
    # 4 runs of 60 requests: however little work, 2 CPUs mean 2 workers
    model = webservices(60)
    monkeypatch.setattr(runs, "usable_cpus", lambda: 1)
    serial = run_sweep(model, (20.0, 40.0), replications=2, master_seed=2)
    assert forks == []
    monkeypatch.setattr(runs, "usable_cpus", lambda: 2)
    forked = run_sweep(model, (20.0, 40.0), replications=2, master_seed=2)
    assert len(forks) == 1
    assert_no_child_left()
    assert sweep_to_csv(forked) == sweep_to_csv(serial)
    for rate, reports in serial.reports.items():
        assert [report_to_json(r) for r in forked.reports[rate]] == [report_to_json(r) for r in reports]


def test_no_fork_means_no_pool(monkeypatch, pooled):
    # a platform without os.fork runs the batch in this process
    monkeypatch.delattr(os, "fork")
    result = run_sweep(webservices(60), (20.0, 40.0), replications=2, master_seed=2)
    assert [len(reps) for reps in result.reports.values()] == [2, 2]


def test_a_pooled_batch_forks_one_child_per_other_worker(monkeypatch, pooled, forks):
    # this process is one of the workers, so 3 workers fork 2 children
    monkeypatch.setattr(runs, "usable_cpus", lambda: 3)
    assert len(runs.run_models(_stations(4))) == 4
    assert len(forks) == 2
    assert_no_child_left()


def _fresh_python(code: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True, timeout=60)


def test_importing_the_cli_loads_no_pool_machinery():
    proc = _fresh_python("import tiersim.cli, sys; assert 'concurrent.futures.process' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_a_forked_batch_loads_no_pool_machinery():
    code = """
import os, sys
from tiersim import runs

forks = []
real_fork = os.fork
os.fork = lambda: forks.append(True) or real_fork()
runs.usable_cpus = lambda: 2
model = runs.build_station_model(1.0, 2.0, 1, 40, 200, 1)
assert len(runs.run_models((model,) * 3)) == 3
assert forks == [True]
loaded = sorted(name for name in ("concurrent.futures", "multiprocessing") if name in sys.modules)
assert not loaded, loaded
"""
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr


def test_commands_that_draw_nothing_load_no_numpy(tmp_path):
    # numpy is half of `import tiersim.cli`; only a stream's first draw needs it
    (tmp_path / "report.json").write_text(report_to_json(Engine(webservices(20)).run()), encoding="utf-8")
    code = """
import sys
import tiersim.cli
assert "numpy" not in sys.modules, "import tiersim.cli loaded numpy"
for argv in (
    ["validate", "bundled:webservices.json"],
    ["synthesize", "bundled:webservices_steps.txt", "bundled:webservices_deployment.json", "--arrival-rate", "5"],
    ["report", "report.json", "--bottlenecks"],
):
    assert tiersim.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
"""
    proc = _fresh_python(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_a_pooled_batch_imports_numpy_before_it_forks():
    # otherwise each child of a fresh `tiersim sweep` imports numpy itself
    code = """
import os, sys
from tiersim import runs

def fork():
    assert "numpy" in sys.modules, "forked before numpy was imported"
    raise SystemExit(0)

os.fork = fork
runs.usable_cpus = lambda: 2
model = runs.build_station_model(1.0, 2.0, 1, 40, 200, 1)
assert "numpy" not in sys.modules
runs.run_models((model, model))
raise SystemExit("the batch forked nothing")
"""
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr


# SHA-256 over the CSV and every replication's report JSON of a sweep of
# each PINNED_SWEEPS model, run in-process at warmup 0 and 1.0. Changing
# it means a sweep or report byte moved.
SWEEP_DIGEST = "927813aa044d3fbf263f68c2c142d2a8ae0516e504a2d6a8027c7919dad8eb0f"
PINNED_DEPLOYMENTS = 6


def pinned_sweep_models():
    yield "bundled:webservices", webservices(80)
    for case in range(PINNED_DEPLOYMENTS):
        steps, doc = random_deployment(case)
        yield f"randdeploy:{case}", synthesize_scenario(
            parse_execution(steps),
            parse_deployment(json.dumps(doc)),
            scenario_name=f"case{case}",
            arrival=Distribution.exponential(2.0),
            run=RunConfig(seed=case, stop=StopRule.after_requests(80)),
        )


def test_sweep_bytes_are_pinned(monkeypatch, no_fork):
    monkeypatch.setattr(runs, "usable_cpus", lambda: 1)
    models = list(pinned_sweep_models())
    # the synthesized deployments declare resources that no class visits
    unvisited = [
        label
        for label, model in models
        if {r.name for r in model.resources()} > {v.resource for c in model.classes for v in c.path}
    ]
    assert len(unvisited) >= 5
    digest = hashlib.sha256()
    for label, model in models:
        for warmup in (0.0, 1.0):
            warmed = dataclasses.replace(model, run=dataclasses.replace(model.run, warmup=warmup))
            result = run_sweep(warmed, (1.5, 4.0), replications=3, master_seed=7)
            digest.update(f"{label} warmup={warmup!r}\n".encode())
            digest.update(sweep_to_csv(result).encode())
            for reports in result.reports.values():
                for report in reports:
                    digest.update(report_to_json(report).encode())
    assert digest.hexdigest() == SWEEP_DIGEST
