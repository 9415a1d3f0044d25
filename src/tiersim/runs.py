"""Batches of runs, and the one-station check against the closed form.

``run_models`` is the one place that chooses between running models in
this process and forking workers; either way the reports come back in
input order and do not depend on how many workers ran them.
``build_station_model`` and ``run_oracle_check`` pair a simulated
M/M/c/K station with ``oracle.mmck``; they live here so that ``oracle``
stays independent of the simulator. ``oracle_check_to_table`` and
``oracle_check_to_json`` render the rows ``run_oracle_check`` returns.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from .engine import Engine
from .errors import DomainError
from .metrics import MetricsReport
from .model import (
    MAX_REPLICAS,
    Distribution,
    ResourceSpec,
    RunConfig,
    ScenarioModel,
    StopKind,
    StopRule,
    Tier,
    Visit,
    WorkloadClass,
    _integer,
    json_text,
    valid_seed,
    validated,
)
from .oracle import check_station, mmck

if TYPE_CHECKING:  # importing multiprocessing costs every CLI command 9 ms
    from multiprocessing.context import BaseContext


def usable_cpus() -> int:
    """CPUs this process may run on (``taskset`` narrows them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


# A pool costs about 10 ms to fork its workers and shut them down, 25 ms
# more to import into a process that has not loaded it yet, and a pickled
# report per run. On a 2-vCPU host it broke even at about 25k expected
# events once imported and at about 45k in a fresh `tiersim sweep`.
_MIN_POOLED_EVENTS = 40_000


def _expected_events(model: ScenarioModel) -> float:
    """Roughly the events one run of ``model`` applies: an arrival and a
    completion per visit for each session the stop rule waits for.

    A class sends one session per mean arrival gap, and at most
    ``max_requests`` in all. One whose gaps have mean 0, which
    ``validate`` allows only with a finite ``max_requests``, is a burst
    of that many sessions at t = 0. One whose mean gap is so long that
    its rate is 0.0 (a denormal exponential rate) adds no sessions; its
    run fails in ``Engine`` at the first arrival, whose time is not finite.
    """
    events = 0.0
    steady = []  # (sessions per unit time, visits per session, max_requests)
    for cls in model.classes:
        gap = cls.arrival.mean()
        if not gap:
            events += cls.max_requests * (1 + len(cls.path))
        elif 1.0 / gap:
            steady.append((1.0 / gap, len(cls.path), cls.max_requests))
    stop = model.run.stop
    if stop.kind is not StopKind.AFTER_REQUESTS:
        return events + sum(min(cap, rate * stop.t) * (1 + n) for rate, n, cap in steady)
    if steady:
        total = sum(rate for rate, _, _ in steady)
        visits = sum(rate * n for rate, n, _ in steady) / total
        events += min(stop.n, sum(cap for _, _, cap in steady)) * (1 + visits)
    return events


def worker_count(runs: int, events: float) -> int:
    """Workers for ``runs`` runs that apply about ``events`` events in all:
    one per usable CPU and at most one per run, or one when the batch is
    too short to pay for a pool."""
    if events < _MIN_POOLED_EVENTS:
        return 1
    return min(usable_cpus(), runs)


def _fork_context() -> BaseContext | None:
    """The fork start method, or None where the platform has none.

    Forked workers inherit the loaded package and the models. Under spawn
    or forkserver (the defaults on macOS and, from Python 3.14, on Linux)
    every worker imports them again, which made ``wide_sweep`` slower than
    the in-process loop on a 2-vCPU host. The parent's only other threads
    are numpy's idle BLAS workers, which no run calls.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


# The models of a worker process, set once by _init_worker. The parent
# never writes it; forked workers inherit the models unpickled.
_worker_models: tuple[ScenarioModel, ...] = ()


def _init_worker(models: tuple[ScenarioModel, ...]) -> None:
    global _worker_models
    _worker_models = models


def _run_index(index: int) -> MetricsReport:
    return Engine(_worker_models[index]).run()


def run_models(models: tuple[ScenarioModel, ...]) -> tuple[MetricsReport, ...]:
    """Run each validated model once and return the reports in input order.

    The batch runs in this process unless ``worker_count`` gives it more
    than one worker and the platform can fork. A run's error reaches the
    caller as raised, and the runs not yet started are dropped.
    """
    workers = worker_count(len(models), sum(_expected_events(m) for m in models))
    context = _fork_context() if workers > 1 else None
    if context is None:
        return tuple(Engine(model).run() for model in models)
    # imported here, not at the top: every `import tiersim.cli` would
    # otherwise load the pool machinery (1.3 MiB and 20 ms on a 2-vCPU VM)
    from concurrent.futures import ProcessPoolExecutor

    # a stream imports numpy at its first draw; importing it once here
    # spares each forked worker of a fresh process its own import
    import numpy  # noqa: F401

    pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_init_worker, initargs=(models,))
    try:
        return tuple(pool.map(_run_index, range(len(models))))
    finally:
        # after a failed run, drop the runs not yet started
        pool.shutdown(cancel_futures=True)


def build_station_model(lam: float, mu: float, servers: int, capacity: int, requests: int, seed: int) -> ScenarioModel:
    """Single M/M/c/K station driven until `requests` terminal outcomes."""
    return validated(
        ScenarioModel(
            name="station-check",
            tiers=(Tier(name="station", resources=(ResourceSpec(name="station", replicas=servers, queue_capacity=capacity),)),),
            classes=(
                WorkloadClass(
                    name="load",
                    arrival=Distribution.exponential(lam),
                    path=(Visit(resource="station", demand=Distribution.exponential(mu)),),
                ),
            ),
            run=RunConfig(seed=seed, stop=StopRule.after_requests(requests)),
        )
    )


def run_oracle_check(lam: float, mu: float, servers: int, capacity: int, requests: int, seed: int):
    """Simulate the station and pair each metric with its closed form."""
    # a bad flag is named as the user gave it, not by its place in the station's model
    check_station(lam, mu, servers, capacity)
    if servers > MAX_REPLICAS:
        raise DomainError(f"servers must be at most {MAX_REPLICAS} to simulate, got {servers!r}")
    if lam <= 0:
        raise DomainError(f"lam must be > 0 to simulate, got {lam!r}")
    if not (_integer(requests) and requests >= 1):
        raise DomainError(f"requests must be an integer >= 1 to simulate, got {requests!r}")
    if not valid_seed(seed):
        raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    model = build_station_model(lam, mu, servers, capacity, requests, seed)
    analytic = mmck(lam, mu, servers, capacity)
    report = Engine(model).run()
    sim = report.resources["station"]
    pairs = [
        ("utilization", sim.utilization, analytic.utilization),
        ("p_drop", sim.p_drop, analytic.p_block),
        ("avg_waiting", sim.avg_waiting, analytic.mean_wait),
        ("avg_response", sim.avg_response, analytic.mean_response),
        ("mean_in_system", sim.mean_in_system, analytic.mean_in_system),
    ]
    # relative error, or the absolute one where the closed form is 0
    return [(name, s, a, abs(s - a) / (abs(a) or 1.0)) for name, s, a in pairs]


def oracle_check_to_table(rows) -> str:
    """Fixed-width text, one line per metric under a header."""
    lines = [f"{'metric':<16}{'simulated':>14}{'analytic':>14}{'rel_error':>12}"]
    lines += [f"{name:<16}{s:>14.6g}{a:>14.6g}{e:>12.3g}" for name, s, a, e in rows]
    return "\n".join(lines) + "\n"


def oracle_check_to_json(rows) -> str:
    doc = {name: {"simulated": s, "analytic": a, "rel_error": e} for name, s, a, e in rows}
    return json_text(doc, sort_keys=True) + "\n"
