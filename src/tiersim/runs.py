"""Batches of runs, and the one-station check against the closed form.

``run_models`` is the one place that chooses between running models in
this process and forking workers. A forked batch is a fork-join in which
this process is one of the workers: it runs its own share of the models
while its children run theirs, then reads each child's pickled reports
from a pipe and reaps it. Either way the reports come back in input
order, a failed batch raises the error of its lowest-index failing run,
and neither depends on how many workers ran them.
``build_station_model`` and ``run_oracle_check`` pair a simulated
M/M/c/K station with ``oracle.mmck``; they live here so that ``oracle``
stays independent of the simulator. ``oracle_check_to_table`` and
``oracle_check_to_json`` render the rows ``run_oracle_check`` returns.
"""

from __future__ import annotations

import os

from .engine import Engine
from .errors import DomainError, InternalError
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


def usable_cpus() -> int:
    """CPUs this process may run on (``taskset`` narrows them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


# A forked batch costs a fork and a reap per child and a pickled report
# per run the children ran, and imports nothing. On a 2-vCPU host, with
# batches of 10 no-drop M/M/2 runs, two workers against one (`taskset -c
# 0`): in a warm process the fork lost at 2.5k expected events (2 of 20
# pairs) and won at 5k (15 of 20) and 10k (20 of 20); in a fresh `tiersim
# sweep` (10 pairs per size) it won 1 of 10 at 2.5k, 2 at 7.5k, 4 and 6
# in two rounds at 10k, 7 at 20k and 9 at 30k.
_MIN_POOLED_EVENTS = 10_000


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
    too short to pay for forking."""
    if events < _MIN_POOLED_EVENTS:
        return 1
    return min(usable_cpus(), runs)


def _run_share(models: tuple[ScenarioModel, ...], first: int, step: int):
    """Run models ``first``, ``first + step``, ... in order. Return their
    reports and None, or the reports before the first run that raised and
    that run's (index, error)."""
    reports = []
    for index in range(first, len(models), step):
        try:
            reports.append(Engine(models[index]).run())
        except Exception as error:
            return reports, (index, error)
    return reports, None


def run_models(models: tuple[ScenarioModel, ...]) -> tuple[MetricsReport, ...]:
    """Run each validated model once and return the reports in input order.

    The batch runs in this process unless ``worker_count`` gives it more
    than one worker and the platform can fork. Then this process is
    worker 0 of a fork-join: it forks one child per other worker, worker w
    runs models w, w + workers, ... in input order, and each child pickles
    its reports (or its first error) into its own pipe and exits. Forked
    children inherit the loaded package and the models; their reports come
    back as unpickled copies.

    Either way the error raised is that of the lowest-index run that
    failed, as the in-process loop raises it; a worker drops its runs
    after its first error. A child that exits non-zero or sends nothing
    is an ``InternalError`` naming the worker. However this returns or
    raises, every child has been reaped: the ones not yet reaped are
    killed first.
    """
    workers = worker_count(len(models), sum(_expected_events(m) for m in models))
    if workers <= 1 or not hasattr(os, "fork"):
        return tuple(Engine(model).run() for model in models)
    # imported here, so that a command that forks nothing loads none of
    # them; a stream imports numpy at its first draw, and importing it
    # once here spares each child of a fresh process its own import
    import pickle
    import signal

    import numpy  # noqa: F401

    children: dict[int, int] = {}  # worker -> pid, until it is reaped
    pipes: dict[int, int] = {}  # worker -> read end, until it is closed
    try:
        for worker in range(1, workers):
            read, write = os.pipe()
            pipes[worker] = read
            try:
                # numpy's idle BLAS threads are this process's only other
                # threads, and no run calls them
                pid = os.fork()
                if pid == 0:  # the child: send its share, never return
                    status = 1
                    try:
                        with open(write, "wb") as pipe:
                            pickle.dump(_run_share(models, worker, workers), pipe, pickle.HIGHEST_PROTOCOL)
                        status = 0
                    except Exception:  # the parent names the worker; say why here
                        import traceback

                        traceback.print_exc()
                    finally:
                        os._exit(status)
            finally:
                os.close(write)  # so that the read end sees EOF when the child exits
            children[worker] = pid
        shares = [_run_share(models, 0, workers)]
        for worker in range(1, workers):
            with open(pipes.pop(worker), "rb") as pipe:
                data = pipe.read()
            _, status = os.waitpid(children[worker], 0)
            del children[worker]  # only once reaped: an interrupted wait leaves it to the kill below
            if status or not data:
                raise InternalError(f"batch worker {worker} sent no reports (wait status {status})")
            shares.append(pickle.loads(data))
    finally:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for read in pipes.values():
            os.close(read)
    failures = [failure for _, failure in shares if failure]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    reports: list = [None] * len(models)
    for worker, (share, _) in enumerate(shares):
        reports[worker::workers] = share
    return tuple(reports)


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
