"""Batches of runs, and the one-station check against the closed form.

``run_models`` runs every batch as one fork-join, whatever its number of
workers. A batch of n runs has one worker per CPU this process may use,
and at most n; it has one worker where the platform cannot fork. This
process is worker 0: it runs its own share of the models while its
children run theirs, then reads each child's pickled reports from a pipe
and reaps it. One worker forks nothing and runs every model here. The
reports come back in input order, a failed batch raises the error of its
lowest-index failing run, and neither depends on how many workers ran
them; a failed share sends back only that error, not the reports before
it.
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


def _run_share(models: tuple[ScenarioModel, ...], first: int, step: int):
    """Run models ``first``, ``first + step``, ... in order. Return their
    reports and None, or None and the (index, error) of the first run that
    raised: the reports before it would only be thrown away."""
    reports = []
    for index in range(first, len(models), step):
        try:
            reports.append(Engine(models[index]).run())
        except Exception as error:
            return None, (index, error)
    return reports, None


def run_models(models: tuple[ScenarioModel, ...]) -> tuple[MetricsReport, ...]:
    """Run each validated model once and return the reports in input order.

    One path runs any number of workers. The batch has
    ``min(usable_cpus(), len(models))`` workers, at least one, and one
    where the platform cannot fork. This process is worker 0 of a
    fork-join: it forks one child per other worker, worker w runs models
    w, w + workers, ... in input order, and each child pickles its reports
    (or only its first error) into its own pipe and exits. One worker
    forks nothing and runs every model in this process. Forked children
    inherit the loaded package and the models; their reports come back as
    unpickled copies.

    The error raised is that of the lowest-index run that failed; a
    worker drops its runs after its first error, and a failed share sends
    back that error alone. A child that exits non-zero or sends nothing
    is an ``InternalError`` naming the worker. However this returns or
    raises, every child has been reaped: the ones not yet reaped are
    killed first.
    """
    workers = max(1, min(usable_cpus(), len(models))) if hasattr(os, "fork") else 1
    # imported here, so that a command that runs no batch loads none of
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
