"""Measurement: streaming accumulators and the finished report.

This module alone defines the measurement window and rules.
ResourceAccumulator.occupancy_change and record_visit and
ClassAccumulator.record_completion state what an admission, a completed
visit and a completed session record. The engine's event loop applies
those rules inline, with the same float operations in the same order,
and bumps the counts itself; the methods stay as the reference that the
tests hold the loop to, and close() still calls occupancy_change. At the
stop clock the engine hands each resource the start times of its
running services and its queue length (ResourceAccumulator.close);
nothing here looks at simulator state.

Averages are running means, each updated inline as
``mean += (x - mean) / n``, so a million samples lose no precision to
cancellation. The waiting and service means of a resource share one
sample count, and a class's mean counts its kept responses. No second
moment is kept: successive waits and responses at a queue are
autocorrelated, so their per-sample spread gives no valid confidence
interval; intervals need independent replications or batch means.
Per-visit response is reported as the sum of the waiting and service
means, which makes the response = service + waiting identity exact
rather than merely close.

Warmup is transient deletion: a visit enqueued before the warmup point
contributes to no average. Busy, idle and occupancy time run on a
clipped clock: each time t is read as ``t if t > warmup else warmup``
(a name ending in ``_w``), so an interval is a plain difference of two
clipped times and its part before warmup is 0. Idle time is the part of
the occupancy integral where the resource holds no request: a request
queues only behind a busy replica, so an empty resource is one whose
replicas are all idle. Counts are never windowed: offered, served,
dropped and a class's counts, and so each p_drop, include the warmup,
which keeps conservation exact.

Only a resource that some class visits gets an accumulator. A declared
resource that no class visits is never offered a request, so its report
row is the one constant UNVISITED row, shared by every run, and
report_to_json writes that row from one text rendered at import.

A series point is one labelled row, ``(label, arrival, response)``: a
resource's rows carry its name and a class's rows carry END_TO_END. Each
accumulator appends the row once, as the report holds it and
export_series writes it; finalize only gathers the accumulators' lists.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from itertools import chain
from operator import attrgetter, itemgetter

from .errors import SeriesDisabledError
from .model import END_TO_END, JSONText, ScenarioModel, _as_dict, _as_record, _load_json, _read_values, json_text


class ResourceAccumulator:
    """Running observations for one resource over the window [warmup, stop]."""

    __slots__ = (
        "name",
        "replicas",
        "warmup",
        "offered",
        "dropped",
        "served",
        "samples",
        "waiting_mean",
        "service_mean",
        "busy_time",
        "idle_time",
        "occupancy",
        "occupancy_since",
        "area",
        "queued_at_stop",
        "in_service_at_stop",
        "series_rows",
        "record_series",
    )

    def __init__(self, name: str, replicas: int, warmup: float, record_series: bool):
        self.name = name
        self.replicas = replicas
        self.warmup = warmup
        self.offered = 0
        self.dropped = 0
        self.served = 0
        self.samples = 0  # visits enqueued inside the window: the count of both means
        self.waiting_mean = 0.0
        self.service_mean = 0.0
        self.busy_time = 0.0
        self.idle_time = 0.0
        self.occupancy = 0  # requests at the resource, waiting or served
        self.occupancy_since = warmup  # the last occupancy change, clipped
        self.area = 0.0
        self.queued_at_stop = 0
        self.in_service_at_stop = 0
        self.series_rows: list[tuple[str, float, float]] = []
        self.record_series = record_series

    def record_visit(self, enqueue: float, start: float, end: float) -> None:
        """One completed service: the busy interval is [start, end] and
        the request leaves the resource at end (occupancy_change(end, -1))."""
        self.served += 1
        warmup = self.warmup
        end_w = end if end > warmup else warmup
        self.area += self.occupancy * (end_w - self.occupancy_since)
        self.busy_time += end_w - (start if start > warmup else warmup)
        self.occupancy_since = end_w
        self.occupancy -= 1
        if enqueue < warmup:
            return
        n = self.samples + 1
        self.samples = n
        self.waiting_mean += (start - enqueue - self.waiting_mean) / n
        self.service_mean += (end - start - self.service_mean) / n
        if self.record_series:
            self.series_rows.append((self.name, enqueue, end - enqueue))

    def occupancy_change(self, now: float, delta: int) -> None:
        """Request count at this resource changed by delta at time now.

        The time since the last change is occupancy area while the
        resource held requests and idle time while it held none.
        """
        n = self.occupancy
        warmup = self.warmup
        now_w = now if now > warmup else warmup
        if n:
            self.area += n * (now_w - self.occupancy_since)
        else:
            self.idle_time += now_w - self.occupancy_since
        self.occupancy_since = now_w
        self.occupancy = n + delta

    def close(self, elapsed: float, service_starts: list[float], queued: int) -> None:
        """Flush the open intervals at the stop clock.

        ``service_starts`` holds, in replica order, when each service
        still running began; ``queued`` counts the requests still waiting.
        """
        self.occupancy_change(elapsed, 0)
        stop_w = self.occupancy_since
        warmup = self.warmup
        for start in service_starts:
            self.busy_time += stop_w - (start if start > warmup else warmup)
        self.in_service_at_stop = len(service_starts)
        self.queued_at_stop = queued


class ClassAccumulator:
    """Running observations for one workload class."""

    __slots__ = ("warmup", "generated", "completed", "dropped", "mean_response", "responses", "series_rows", "record_series")

    def __init__(self, warmup: float, record_series: bool):
        self.warmup = warmup
        self.generated = 0
        self.completed = 0
        self.dropped = 0
        self.mean_response = 0.0  # over responses, the sessions that arrived inside the window
        self.responses: list[float] = []
        self.series_rows: list[tuple[str, float, float]] = []
        self.record_series = record_series

    def record_completion(self, arrival: float, response: float) -> None:
        self.completed += 1
        if arrival >= self.warmup:
            responses = self.responses
            responses.append(response)
            self.mean_response += (response - self.mean_response) / len(responses)
            if self.record_series:
                self.series_rows.append((END_TO_END, arrival, response))


class RunAccumulator:
    """Everything recorded during one run, keyed to one scenario.

    ``resources`` holds an accumulator for each visited resource only;
    ``resource_names`` keeps every declared resource, in model order.
    """

    def __init__(self, model: ScenarioModel):
        warmup = model.run.warmup
        series = model.run.series_enabled
        self.scenario = model.name
        self.seed = model.run.seed
        self.warmup = warmup
        self.series_enabled = series
        specs = model.resources()
        visited = {v.resource for c in model.classes for v in c.path}
        self.resource_names = tuple(r.name for r in specs)
        self.resources: dict[str, ResourceAccumulator] = {
            r.name: ResourceAccumulator(r.name, r.replicas, warmup, series) for r in specs if r.name in visited
        }
        self.classes: dict[str, ClassAccumulator] = {
            c.name: ClassAccumulator(warmup, series) for c in model.classes
        }


@dataclass(frozen=True)
class ResourceMetrics:
    """The per-resource report row: response/service/waiting averages,
    idle and drop probabilities, plus raw counts for conservation checks."""

    avg_response: float
    avg_service: float
    avg_waiting: float
    utilization: float
    p_idle: float
    p_drop: float
    mean_in_system: float
    offered: int
    served: int
    dropped: int
    queued_at_stop: int
    in_service_at_stop: int


@dataclass(frozen=True)
class ClassMetrics:
    generated: int
    completed: int
    dropped: int
    mean_response: float
    p50_response: float
    p95_response: float


@dataclass(frozen=True)
class MetricsReport:
    scenario: str
    seed: int
    elapsed: float
    warmup: float
    generated: int
    completed: int
    dropped: int
    in_flight: int
    resources: dict[str, ResourceMetrics]
    classes: dict[str, ClassMetrics]
    series_enabled: bool
    resource_series: tuple[tuple[str, float, float], ...]
    end_to_end_series: tuple[tuple[str, float, float], ...]
    # a loaded report's (resource, end-to-end) series row counts as saved;
    # None for a finished run, which holds the rows themselves
    loaded_series_rows: tuple[int, int] | None = None


# The report row of a resource that no class visits: exactly what
# finalize's arithmetic gives an accumulator that was never offered a
# request. Every count, mean and integral is 0, so utilization and
# mean_in_system are 0.0. p_idle is 1.0: one replica gives 1.0 - 0.0,
# and for more, idle_time and window are the same float
# (elapsed - warmup), so their quotient is 1.0, or the window is 0 and
# the else branch gives 1.0.
UNVISITED = ResourceMetrics(
    avg_response=0.0,
    avg_service=0.0,
    avg_waiting=0.0,
    utilization=0.0,
    p_idle=1.0,
    p_drop=0.0,
    mean_in_system=0.0,
    offered=0,
    served=0,
    dropped=0,
    queued_at_stop=0,
    in_service_at_stop=0,
)

# Each saved record's keys, in field order, with the type (a field
# annotation) its value is read as.
_RESOURCE_TYPES = {f.name: f.type for f in fields(ResourceMetrics)}
_CLASS_TYPES = {f.name: f.type for f in fields(ClassMetrics)}
_REPORT_TYPES = {f.name: f.type for f in fields(MetricsReport)}
_HEADER_TYPES = {k: _REPORT_TYPES[k] for k in ("scenario", "seed", "elapsed", "warmup")}
_TOTALS_TYPES = {k: _REPORT_TYPES[k] for k in ("generated", "completed", "dropped", "in_flight")}
_SERIES_TYPES = {"enabled": "bool", "resource_rows": "int", "end_to_end_rows": "int"}
_REPORT_KEYS = (*_HEADER_TYPES, "totals", "resources", "classes", "series")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    idx = max(0, math.ceil(q * n) - 1)
    return sorted_values[min(idx, n - 1)]


def finalize(acc: RunAccumulator, elapsed: float) -> MetricsReport:
    """Turn raw accumulators into the immutable report.

    ``elapsed`` is the stop clock; all rates and probabilities use the
    window [warmup, elapsed].
    """
    warmup = acc.warmup
    window = (elapsed if elapsed > warmup else warmup) - warmup

    # every declared resource in model order; the visited ones are overwritten below
    resources = dict.fromkeys(acc.resource_names, UNVISITED)
    for name, ra in acc.resources.items():
        avg_waiting = ra.waiting_mean
        avg_service = ra.service_mean
        if window > 0.0:
            utilization = ra.busy_time / (ra.replicas * window)
            mean_in_system = ra.area / window
        else:
            utilization = 0.0
            mean_in_system = 0.0
        if ra.replicas == 1:
            # exact complement; a lone server is idle iff it is not busy
            p_idle = 1.0 - utilization
        else:
            p_idle = ra.idle_time / window if window > 0.0 else 1.0
        p_drop = ra.dropped / ra.offered if ra.offered else 0.0
        resources[name] = ResourceMetrics(
            avg_response=avg_service + avg_waiting,
            avg_service=avg_service,
            avg_waiting=avg_waiting,
            utilization=utilization,
            p_idle=p_idle,
            p_drop=p_drop,
            mean_in_system=mean_in_system,
            offered=ra.offered,
            served=ra.served,
            dropped=ra.dropped,
            queued_at_stop=ra.queued_at_stop,
            in_service_at_stop=ra.in_service_at_stop,
        )

    classes: dict[str, ClassMetrics] = {}
    for name, ca in acc.classes.items():
        ordered = sorted(ca.responses)
        classes[name] = ClassMetrics(
            generated=ca.generated,
            completed=ca.completed,
            dropped=ca.dropped,
            mean_response=ca.mean_response,
            p50_response=_percentile(ordered, 0.50),
            p95_response=_percentile(ordered, 0.95),
        )

    generated = sum(ca.generated for ca in acc.classes.values())
    completed = sum(ca.completed for ca in acc.classes.values())
    dropped = sum(ca.dropped for ca in acc.classes.values())

    # each accumulator's own rows, in model then record order; a list
    # stays empty when series are off
    rows = attrgetter("series_rows")
    return MetricsReport(
        scenario=acc.scenario,
        seed=acc.seed,
        elapsed=elapsed,
        warmup=acc.warmup,
        generated=generated,
        completed=completed,
        dropped=dropped,
        in_flight=generated - completed - dropped,
        resources=resources,
        classes=classes,
        series_enabled=acc.series_enabled,
        resource_series=tuple(chain.from_iterable(map(rows, acc.resources.values()))),
        end_to_end_series=tuple(chain.from_iterable(map(rows, acc.classes.values()))),
    )


def _record(row: object, types: dict[str, str]) -> dict:
    return {k: getattr(row, k) for k in types}


# report_to_json tests identity, never value, before using this text:
# 0.0 == -0.0, so a value-keyed cache could write the wrong sign. A row
# sits two objects deep in the report, and a JSON string holds no raw
# newline, so indenting every line indents the row.
_UNVISITED_JSON = JSONText(json_text(_record(UNVISITED, _RESOURCE_TYPES), sort_keys=True).replace("\n", "\n    "))


def report_to_json(report: MetricsReport) -> str:
    """Stable JSON rendering: identical runs give identical bytes, those of
    ``json.dumps(doc, indent=2, sort_keys=True)`` on the whole report. A
    row that ``is UNVISITED`` is written from one text rendered at import;
    an unpickled or loaded report holds equal copies, rendered row by row.

    Series rows live in their own CSV (see export_series); the JSON
    carries only their counts.
    """
    rows = report.loaded_series_rows
    if rows is None:
        rows = (len(report.resource_series), len(report.end_to_end_series))
    doc = {
        **_record(report, _HEADER_TYPES),
        "totals": _record(report, _TOTALS_TYPES),
        "resources": {
            name: _UNVISITED_JSON if m is UNVISITED else _record(m, _RESOURCE_TYPES)
            for name, m in report.resources.items()
        },
        "classes": {name: _record(c, _CLASS_TYPES) for name, c in report.classes.items()},
        "series": {"enabled": report.series_enabled, "resource_rows": rows[0], "end_to_end_rows": rows[1]},
    }
    return json_text(doc, sort_keys=True) + "\n"


def _read_record(obj: object, types: dict[str, str], path: str) -> dict:
    """``obj`` as an object holding exactly the keys of ``types``, read by _read_values."""
    return _read_values(_as_record(obj, tuple(types), path), types, path)


def report_from_json(text: str) -> MetricsReport:
    """Load a report written by report_to_json; every key it writes is
    required, no other is allowed, and each value must have its field's type.

    Series rows are not stored in the JSON, only their counts. A loaded
    report keeps the series record as saved, so report_to_json writes
    ``text`` back byte for byte, but export_series refuses it.
    """
    doc = _as_record(_load_json(text), _REPORT_KEYS, "$")
    series = _read_record(doc["series"], _SERIES_TYPES, "$.series")
    resources = {
        name: ResourceMetrics(**_read_record(m, _RESOURCE_TYPES, f"$.resources[{name!r}]"))
        for name, m in _as_dict(doc["resources"], "$.resources").items()
    }
    classes = {
        name: ClassMetrics(**_read_record(c, _CLASS_TYPES, f"$.classes[{name!r}]"))
        for name, c in _as_dict(doc["classes"], "$.classes").items()
    }
    return MetricsReport(
        **_read_values(doc, _HEADER_TYPES, "$"),
        **_read_record(doc["totals"], _TOTALS_TYPES, "$.totals"),
        resources=resources,
        classes=classes,
        series_enabled=series["enabled"],
        resource_series=(),
        end_to_end_series=(),
        loaded_series_rows=(series["resource_rows"], series["end_to_end_rows"]),
    )


def table_lines(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> list[str]:
    """Left-aligned columns two spaces apart: header, rule, then rows."""
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    return [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        for row in (headers, tuple("-" * w for w in widths), *rows)
    ]


def report_to_table(report: MetricsReport) -> str:
    """Fixed-width text table, one row per resource in model order."""
    headers = ("Resource", "AvgResponse", "AvgService", "AvgWaiting", "Utilization", "P(idle)", "P(drop)")
    rows = [
        (
            name,
            f"{m.avg_response:.6g}",
            f"{m.avg_service:.6g}",
            f"{m.avg_waiting:.6g}",
            f"{m.utilization:.6g}",
            f"{m.p_idle:.6g}",
            f"{m.p_drop:.6g}",
        )
        for name, m in report.resources.items()
    ]
    lines = table_lines(headers, rows)
    lines.append("")
    lines.append(
        f"elapsed {report.elapsed:.6g}  generated {report.generated}  "
        f"completed {report.completed}  dropped {report.dropped}  in-flight {report.in_flight}"
    )
    for name, c in report.classes.items():
        lines.append(
            f"class {name}: completed {c.completed}, mean response {c.mean_response:.6g}, "
            f"p50 {c.p50_response:.6g}, p95 {c.p95_response:.6g}"
        )
    return "\n".join(lines) + "\n"


def export_series(report: MetricsReport) -> str:
    """CSV of raw (arrival time, response time) points for plotting.

    One row per completed visit, labeled with its resource, plus one row
    per completed session labeled __end_to_end__. Rows are ordered by
    arrival time (stable for ties), which is what a response-vs-arrival
    scatter needs.
    """
    if report.loaded_series_rows is not None:
        raise SeriesDisabledError("a loaded report holds no series rows; export them from the run that recorded them")
    if not report.series_enabled:
        raise SeriesDisabledError("this run did not record series data (enable run.series)")
    rows = sorted(chain(report.resource_series, report.end_to_end_series), key=itemgetter(1))
    # each label as csv writes it, quoted where it holds a comma or a quote;
    # quoting each label once, not each row, keeps the export a plain join
    cells = {}
    for label in set(map(itemgetter(0), rows)):
        out = io.StringIO()
        csv.writer(out, lineterminator="").writerow((label,))
        cells[label] = out.getvalue()
    lines = ["resource,arrival_time,response_time"]
    lines.extend(f"{cells[label]},{t!r},{r!r}" for label, t, r in rows)
    return "\n".join(lines) + "\n"
