"""Arrival-rate sweeps: re-run a scenario over a grid of total rates.

Each (rate, replication) pair is one independent simulation run. The
model for each rate is built and validated once; replications at that
rate differ only in ``run.seed``. Runs go to forked worker processes
when more than one CPU is usable and the sweep is long enough to pay
for them, and the results are gathered in grid order, so the sweep's
output does not depend on how many workers ran it.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import operator
import os
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .engine import Engine
from .errors import DomainError, ValidationError
from .metrics import MetricsReport
from .model import END_TO_END, DistKind, Distribution, ScenarioModel, StopKind, validated
from .workload import stream_key

if TYPE_CHECKING:  # importing multiprocessing costs every CLI command 9 ms
    from multiprocessing.context import BaseContext


@dataclass(frozen=True)
class SweepCell:
    """Replication-averaged metrics for one (rate, resource) pair."""

    rate: float
    resource: str
    avg_response: float
    avg_service: float
    avg_waiting: float
    utilization: float
    p_idle: float
    p_drop: float


_SWEEP_FIELDS = tuple(f.name for f in dataclasses.fields(SweepCell))
# the replication-averaged metrics; each names a ResourceMetrics field
_SWEEP_METRICS = _SWEEP_FIELDS[2:]
_sweep_metrics = operator.attrgetter(*_SWEEP_METRICS)


@dataclass(frozen=True)
class SweepResult:
    cells: tuple[SweepCell, ...]
    # raw per-replication reports, for callers that need spread
    reports: dict[float, tuple[MetricsReport, ...]]


def parse_rate_grid(text: str) -> tuple[float, ...]:
    """Either 'start:stop:count' (inclusive grid) or 'a,b,c'."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise DomainError(f"rate grid must be start:stop:count, got {text!r}")
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
            if count < 1:
                raise DomainError("rate grid needs at least one point")
            if count == 1:
                return (start,)
            step = (stop - start) / (count - 1)
            return tuple(start + i * step for i in range(count))
        rates = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise DomainError(f"rate grid must be numeric, got {text!r}") from None
    if not rates:
        raise DomainError(f"no rates in {text!r}")
    return rates


def _with_arrival_rate(model: ScenarioModel, rate: float) -> ScenarioModel:
    """Scale the class arrival rates to total ``rate``, keeping their mix."""
    if rate <= 0:
        raise DomainError(f"swept arrival rate must be > 0, got {rate!r}")
    for cls in model.classes:
        if cls.arrival.kind is not DistKind.EXPONENTIAL:
            raise ValidationError(
                f"sweep needs exponential arrivals; class {cls.name!r} uses {cls.arrival.kind.value}"
            )
    total = sum(cls.arrival.rate for cls in model.classes)
    # rate * (r / total), not rate * r / total: one class gets rate * 1.0,
    # exactly the grid value
    classes = [
        dataclasses.replace(cls, arrival=Distribution.exponential(rate * (cls.arrival.rate / total)))
        for cls in model.classes
    ]
    return validated(dataclasses.replace(model, classes=tuple(classes)))


def _run_replication(model: ScenarioModel, seed: int) -> MetricsReport:
    # seeds come from stream_key(...) % 2**64, always valid, so the
    # validated per-rate model needs no second check
    return Engine(dataclasses.replace(model, run=dataclasses.replace(model.run, seed=seed))).run()


# The per-rate models of a worker process, set once by _init_worker. The
# parent never writes it; forked workers inherit the models unpickled.
_worker_models: tuple[ScenarioModel, ...] = ()


def _init_worker(models: tuple[ScenarioModel, ...]) -> None:
    global _worker_models
    _worker_models = models


def _run_task(task: tuple[int, int]) -> MetricsReport:
    rate_index, seed = task
    return _run_replication(_worker_models[rate_index], seed)


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
    completion per visit for each session the stop rule waits for."""
    total = sum(cls.arrival.rate for cls in model.classes)
    visits = sum(cls.arrival.rate * len(cls.path) for cls in model.classes) / total
    stop = model.run.stop
    sessions = stop.n if stop.kind is StopKind.AFTER_REQUESTS else total * stop.t
    return sessions * (1 + visits)


def worker_count(runs: int, events: float) -> int:
    """Workers for ``runs`` runs that apply about ``events`` events in all:
    one per usable CPU and at most one per run, or one when the sweep is
    too short to pay for a pool."""
    if events < _MIN_POOLED_EVENTS:
        return 1
    return min(usable_cpus(), runs)


def _fork_context() -> BaseContext | None:
    """The fork start method, or None where the platform has none.

    Forked workers inherit the loaded package and the per-rate models.
    Under spawn or forkserver (the defaults on macOS and, from Python
    3.14, on Linux) every worker imports them again, which made
    ``wide_sweep`` slower than the in-process loop on a 2-vCPU host. The
    parent's only other threads are numpy's idle BLAS workers, which no
    run calls.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def run_sweep(
    model: ScenarioModel,
    rates: tuple[float, ...],
    replications: int,
    master_seed: int,
) -> SweepResult:
    """Simulate every (rate, replication) pair and average per rate.

    Replication seeds derive from the master seed and the grid position
    by the same stable hash the streams use, so the whole sweep is one
    deterministic function of (scenario, rates, replications, seed). How
    many processes run it (see ``worker_count``) never changes the result.
    """
    if replications < 1:
        raise DomainError("replications must be >= 1")
    repeated = [rate for rate, count in Counter(rates).items() if count > 1]
    if repeated:
        # SweepResult.reports is keyed by rate, so a repeat would hide runs
        raise DomainError(f"rate grid repeats {', '.join(map(repr, repeated))}; give each rate once")
    models = tuple(_with_arrival_rate(model, rate) for rate in rates)
    tasks = [
        (ri, stream_key(master_seed, f"sweep:rate[{ri}]:rep[{k}]") % 2**64)
        for ri in range(len(rates))
        for k in range(replications)
    ]
    workers = worker_count(len(tasks), replications * sum(_expected_events(m) for m in models))
    context = _fork_context() if workers > 1 else None
    if context is None:
        flat = [_run_replication(models[ri], seed) for ri, seed in tasks]
    else:
        # imported here, not at the top: every `import tiersim.cli` would
        # otherwise load the pool machinery (1.3 MiB and 20 ms on a 2-vCPU VM)
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_init_worker, initargs=(models,))
        try:
            flat = list(pool.map(_run_task, tasks))
        finally:
            # after a failed run, drop the runs not yet started
            pool.shutdown(cancel_futures=True)

    cells: list[SweepCell] = []
    reports: dict[float, tuple[MetricsReport, ...]] = {}
    for ri, rate in enumerate(rates):
        reps = flat[ri * replications : (ri + 1) * replications]
        reports[rate] = tuple(reps)
        n = len(reps)
        for name in reps[0].resources:
            # one column per metric, each summed in replication order
            columns = zip(*(_sweep_metrics(r.resources[name]) for r in reps))
            cells.append(SweepCell(rate, name, *(sum(column) / n for column in columns)))
        for cname in reps[0].classes:
            mean_resp = sum(r.classes[cname].mean_response for r in reps) / n
            cells.append(
                SweepCell(
                    rate=rate,
                    resource=f"{END_TO_END}:{cname}",
                    avg_response=mean_resp,
                    avg_service=0.0,
                    avg_waiting=0.0,
                    utilization=0.0,
                    p_idle=0.0,
                    p_drop=sum(
                        (r.classes[cname].dropped / r.classes[cname].generated if r.classes[cname].generated else 0.0)
                        for r in reps
                    )
                    / n,
                )
            )
    return SweepResult(cells=tuple(cells), reports=reports)


def sweep_to_csv(result: SweepResult) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_SWEEP_FIELDS)
    for c in result.cells:
        writer.writerow([repr(c.rate), c.resource] + [repr(getattr(c, k)) for k in _SWEEP_METRICS])
    return out.getvalue()
