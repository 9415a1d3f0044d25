"""Arrival-rate sweeps: per-rate validation and the worker-process path."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
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
    parse_deployment,
    parse_execution,
    parse_scenario,
    report_to_json,
    synthesize_scenario,
)
from tiersim import runs, sweep
from tiersim.metrics import UNVISITED
from tiersim.model import validated
from tiersim.runs import build_station_model, worker_count
from tiersim.sweep import parse_rate_grid, run_sweep, sweep_to_csv

from randdeploy import random_deployment

SRC = Path(__file__).resolve().parents[1] / "src"


def webservices(requests: int):
    model = parse_scenario(bundled.scenario_text())
    return dataclasses.replace(model, run=dataclasses.replace(model.run, stop=StopRule.after_requests(requests)))


@pytest.fixture()
def pooled(monkeypatch):
    """Send every sweep of more than one run to a pool of two workers,
    even on a host with one usable CPU."""
    monkeypatch.setattr(runs, "usable_cpus", lambda: 2)
    monkeypatch.setattr(runs, "_MIN_POOLED_EVENTS", 0)


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a sweep that needs one worker started a pool")


def test_each_rate_is_validated_once(monkeypatch):
    calls = []
    real = sweep.validated

    def counting(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(sweep, "validated", counting)
    run_sweep(webservices(60), (20.0, 40.0, 60.0), replications=4, master_seed=3)
    assert len(calls) == 3


@pytest.mark.parametrize("grid", ["1,1", "1:1:3", "0.5,2,0.5"])
def test_a_repeated_rate_is_refused_before_any_run(monkeypatch, grid):
    def no_run(model):
        raise AssertionError("a sweep started a run before checking its grid")

    monkeypatch.setattr(runs, "Engine", no_run)
    with pytest.raises(DomainError, match=r"rate grid repeats (1\.0|0\.5); give each rate once"):
        run_sweep(webservices(60), parse_rate_grid(grid), replications=2, master_seed=3)


def test_worker_count_needs_cpus_runs_and_work(monkeypatch):
    monkeypatch.setattr(runs, "usable_cpus", lambda: 2)
    enough = runs._MIN_POOLED_EVENTS
    assert worker_count(6, enough) == 2
    assert worker_count(1, enough) == 1
    assert worker_count(10**6, 10**9) == 2
    assert worker_count(6, enough - 1) == 1
    monkeypatch.setattr(runs, "usable_cpus", lambda: 1)
    assert worker_count(6, 10**9) == 1


def test_expected_events_count_an_arrival_and_each_visit():
    model = webservices(300)
    (cls,) = model.classes
    assert runs._expected_events(model) == 300 * (1 + len(cls.path))
    timed = dataclasses.replace(model, run=dataclasses.replace(model.run, stop=StopRule.after_time(10.0)))
    assert runs._expected_events(timed) == cls.arrival.rate * 10.0 * (1 + len(cls.path))


def test_usable_cpus_is_positive():
    assert runs.usable_cpus() >= 1


def test_the_pool_forks_and_changes_no_byte(monkeypatch, pooled):
    model = webservices(300)
    rates = (20.0, 40.0, 60.0)
    monkeypatch.setattr(runs, "usable_cpus", lambda: 1)
    serial = run_sweep(model, rates, replications=2, master_seed=11)
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, mp_context, **kwargs):
            started.append(mp_context.get_start_method())
            super().__init__(*args, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(runs, "usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    pooled_result = run_sweep(model, rates, replications=2, master_seed=11)
    assert started == ["fork"]
    assert sweep_to_csv(pooled_result) == sweep_to_csv(serial)
    assert list(pooled_result.reports) == list(serial.reports) == list(rates)
    for rate in rates:
        pooled_json = [report_to_json(r) for r in pooled_result.reports[rate]]
        assert pooled_json == [report_to_json(r) for r in serial.reports[rate]]


def test_a_pooled_sweep_of_unvisited_resources_changes_no_byte(monkeypatch, pooled):
    # the webservices test above visits every resource; these synthesized
    # deployments declare resources that no class visits
    models = [model for label, model in pinned_sweep_models() if label.startswith("randdeploy:")][:2]
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(True)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
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
            # in process the unvisited rows are the UNVISITED object; a
            # worker's rows come back as unpickled copies
            for local, forked in zip(reports, pooled_result.reports[rate]):
                unvisited = [name for name in local.resources if name not in visited]
                assert all(local.resources[name] is UNVISITED for name in unvisited)
                assert not any(forked.resources[name] is UNVISITED for name in unvisited)
    assert started == [True] * len(models)


def test_run_models_returns_pooled_reports_in_input_order(monkeypatch, pooled):
    web = webservices(200)
    timed = dataclasses.replace(web, run=dataclasses.replace(web.run, seed=9, stop=StopRule.after_time(4.0)))
    models = (build_station_model(1.5, 2.0, 2, 4, 400, seed=3), web, timed)
    monkeypatch.setattr(runs, "usable_cpus", lambda: 1)
    serial = [report_to_json(r) for r in runs.run_models(models)]
    assert len(set(serial)) == len(models)
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, *args, **kwargs):
            started.append(workers)
            super().__init__(workers, *args, **kwargs)

    monkeypatch.setattr(runs, "usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert [report_to_json(r) for r in runs.run_models(models)] == serial
    assert started == [2]


def test_run_models_of_no_models_starts_no_pool(monkeypatch, pooled):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    assert runs.run_models(()) == ()


def _station_arriving(arrival: Distribution, max_requests: float, stop: StopRule):
    model = build_station_model(1.0, 2.0, 2, 3, 40, seed=7)
    (cls,) = model.classes
    cls = dataclasses.replace(cls, arrival=arrival, max_requests=max_requests)
    return validated(dataclasses.replace(model, classes=(cls,), run=dataclasses.replace(model.run, stop=stop)))


def test_a_capped_class_under_a_long_time_stop_starts_no_pool(monkeypatch):
    # 100 arrivals per unit time for 1000 time units, but 10 sessions in all
    model = _station_arriving(Distribution.exponential(100.0), 10, StopRule.after_time(1000.0))
    assert runs._expected_events(model) == 10 * (1 + len(model.classes[0].path))
    monkeypatch.setattr(runs, "usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    assert [r.generated for r in runs.run_models((model,) * 4)] == [10] * 4


def test_a_capped_class_under_a_long_request_stop_starts_no_pool(monkeypatch):
    # the stop waits for 100000 terminal sessions, but the class sends 10 in all
    model = _station_arriving(Distribution.exponential(100.0), 10, StopRule.after_requests(100_000))
    assert runs._expected_events(model) <= 10 * (1 + len(model.classes[0].path))
    monkeypatch.setattr(runs, "usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    assert [r.generated for r in runs.run_models((model,) * 4)] == [10] * 4


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
    assert [report_to_json(r) for r in runs.run_models(models)] == [report_to_json(Engine(m).run()) for m in models]


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


@pytest.mark.parametrize(
    "rates, replications, requests",
    [((40.0,), 1, 60), ((20.0, 40.0), 2, 60)],
    ids=["one-run", "short"],
)
def test_a_sweep_that_needs_one_worker_starts_no_pool(monkeypatch, rates, replications, requests):
    monkeypatch.setattr(runs, "usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    result = run_sweep(webservices(requests), rates, replications=replications, master_seed=2)
    assert [len(reps) for reps in result.reports.values()] == [replications] * len(rates)


def test_no_fork_means_no_pool(monkeypatch, pooled):
    monkeypatch.setattr(runs, "_fork_context", lambda: None)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    result = run_sweep(webservices(60), (20.0, 40.0), replications=2, master_seed=2)
    assert [len(reps) for reps in result.reports.values()] == [2, 2]


def test_fork_context_is_fork_where_the_platform_has_it():
    import multiprocessing

    context = runs._fork_context()
    if "fork" in multiprocessing.get_all_start_methods():
        assert context.get_start_method() == "fork"
    else:
        assert context is None


def test_importing_the_cli_loads_no_pool_machinery():
    code = "import tiersim.cli, sys; assert 'concurrent.futures.process' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# SHA-256 over the CSV and every replication's report JSON of a sweep of
# each PINNED_SWEEPS model, run in-process at warmup 0 and 1.0. Changing
# it means a sweep or report byte moved.
SWEEP_DIGEST = "750eaddde830ccabe0ea5e998271ebb6200737090583f7cae1dfcdfe7830e6f3"
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


def test_sweep_bytes_are_pinned(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
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
