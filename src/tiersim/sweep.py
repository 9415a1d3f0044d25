"""Arrival-rate sweeps: re-run a scenario over a grid of total rates.

This module holds the rate grid, the per-rate models, the replication
seeds, the replication averages and the CSV. Each (rate, replication)
pair is one independent run; the model for each rate is built and
validated once, and replications at that rate differ only in
``run.seed``. No sweep output reads series rows, so no replication
records them. ``runs.run_models`` runs them all and returns the reports
in grid order, so the sweep's output does not depend on how many
workers ran it. A cell is its CSV row: a plain tuple in
``SWEEP_COLUMNS`` order, built once and written as it is. A resource
that no class visits reports the constant ``metrics.UNVISITED`` row in
every run, so its metrics are one constant too, taken without averaging.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import operator
from collections import Counter
from dataclasses import dataclass

from .errors import DomainError, ValidationError
from .metrics import UNVISITED, ClassMetrics, MetricsReport
from .model import END_TO_END, SEED_LIMIT, DistKind, Distribution, ScenarioModel, _finite, _integer, validated
from .runs import run_models
from .workload import stream_key

# A cell's fields, which are the CSV's columns: the swept rate, the
# resource (or end-to-end class) label and its replication averages.
SWEEP_COLUMNS = ("rate", "resource", "avg_response", "avg_service", "avg_waiting", "utilization", "p_idle", "p_drop")

# Most runs (grid points x replications) one sweep may hold.
# SweepResult.reports keeps every run's report, without series rows:
# about 9 KB each on the bundled 7-resource scenario and 85 KB on a
# 900-resource deployment, and even a 10-request run takes about 4 ms
# there on a 2-vCPU host, so this many already holds up to 850 MB and
# takes minutes at a realistic run length.
MAX_SWEEP_RUNS = 10_000

# the replication-averaged metrics; each names a ResourceMetrics field
_SWEEP_METRICS = SWEEP_COLUMNS[2:]
_sweep_metrics = operator.attrgetter(*_SWEEP_METRICS)
# An unvisited resource's averages: its row is UNVISITED in every
# replication, and n copies of 0.0 or 1.0 summed and divided by n
# (n <= MAX_SWEEP_RUNS) give back 0.0 or 1.0 exactly.
_UNVISITED_CELL = _sweep_metrics(UNVISITED)


def _class_metrics(totals: ClassMetrics) -> tuple[float, ...]:
    """A class's end-to-end metrics in ``_SWEEP_METRICS`` order: its mean
    response and drop fraction, and 0 for the per-resource ones."""
    p_drop = totals.dropped / totals.generated if totals.generated else 0.0
    return (totals.mean_response, 0.0, 0.0, 0.0, 0.0, p_drop)


@dataclass(frozen=True)
class SweepResult:
    # one tuple per (rate, label) pair, in SWEEP_COLUMNS order
    cells: tuple[tuple, ...]
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
            if count > MAX_SWEEP_RUNS:
                raise DomainError(f"rate grid may hold at most {MAX_SWEEP_RUNS} points, got {count}")
            if count == 1:
                rates = (start,)
            else:
                step = (stop - start) / (count - 1)
                rates = tuple(start + i * step for i in range(count))
        else:
            rates = tuple(map(float, text.split(",")))
    except ValueError:
        raise DomainError(f"rate grid must be numeric, got {text!r}") from None
    # an inf or nan bound, or a step that overflows, gives a point no run can use
    if not all(map(math.isfinite, rates)):
        raise DomainError(f"rate grid must hold finite numbers, got {text!r}")
    return rates


def _with_arrival_rate(model: ScenarioModel, rate: float) -> ScenarioModel:
    """Scale the class arrival rates to total ``rate``, keeping their mix."""
    if not _finite(rate):
        raise DomainError(f"swept arrival rate must be finite, got {rate!r}")
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
    many processes run it (see ``runs.run_models``) never changes the result.
    """
    if not _integer(replications):
        raise DomainError(f"replications must be an integer, got {replications!r}")
    if replications < 1:
        raise DomainError("replications must be >= 1")
    if len(rates) * replications > MAX_SWEEP_RUNS:
        raise DomainError(
            f"a sweep may hold at most {MAX_SWEEP_RUNS} runs, got {len(rates)} rates x {replications} replications"
        )
    repeated = [rate for rate, count in Counter(rates).items() if count > 1]
    if repeated:
        # SweepResult.reports is keyed by rate, so a repeat would hide runs
        raise DomainError(f"rate grid repeats {', '.join(map(repr, repeated))}; give each rate once")
    models = tuple(_with_arrival_rate(model, rate) for rate in rates)
    # seeds come from stream_key(...) % SEED_LIMIT, always valid, so the
    # validated per-rate models need no second check
    runs = []
    for ri, per_rate in enumerate(models):
        for k in range(replications):
            seed = stream_key(master_seed, f"sweep:rate[{ri}]:rep[{k}]") % SEED_LIMIT
            run = dataclasses.replace(per_rate.run, seed=seed, series_enabled=False)
            runs.append(dataclasses.replace(per_rate, run=run))
    flat = run_models(tuple(runs))

    # a forked child's reports come back unpickled, so an unvisited row is
    # found by the model's paths, not by identity with UNVISITED
    visited = {v.resource for c in model.classes for v in c.path}
    cells: list[tuple] = []
    reports: dict[float, tuple[MetricsReport, ...]] = {}
    for ri, rate in enumerate(rates):
        reps = flat[ri * replications : (ri + 1) * replications]
        reports[rate] = reps
        rows = [
            (name, [_sweep_metrics(r.resources[name]) for r in reps] if name in visited else None)
            for name in reps[0].resources
        ]
        rows += [(f"{END_TO_END}:{name}", [_class_metrics(r.classes[name]) for r in reps]) for name in reps[0].classes]
        for label, metrics in rows:
            # one column per metric, each summed in replication order
            row = _UNVISITED_CELL if metrics is None else (sum(column) / replications for column in zip(*metrics))
            cells.append((rate, label, *row))
    return SweepResult(cells=tuple(cells), reports=reports)


def sweep_to_csv(result: SweepResult) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    # csv writes a float as its repr
    writer.writerows(result.cells)
    return out.getvalue()
