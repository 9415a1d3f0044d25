"""Measurement: streaming accumulators and the finished report.

The accumulators are plain records of measurement fields only. The
engine's runtimes subclass them, adding queue state, so a run keeps one
object per visited resource and per class, and RunAccumulator holds the
engine's own records. The engine's event loop (Engine._drive) is the one
place that states what an admission, a completed visit and a completed
session record, and writes those fields itself; tests/refengine.py holds
the reference rules the loop is checked against. This module defines the
records, the flush at the stop clock and finalize, which turns the
records into the report. At the stop clock the engine hands each
resource the window, the start times of its running services and its
queue length (ResourceAccumulator.close); nothing here reads queue
state.

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

A class's p50 and p95 are exact nearest-rank order statistics, so each
class keeps every response inside the window: packed in an
``array('d')``, 8 bytes a response, appended by the engine's loop.
finalize selects the two ranks with one numpy.partition of a copy, in
O(n) time rather than a sort's O(n log n), and gives the same floats a
sort would.

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

Only a resource that some class visits gets a record; the engine
decides which. A declared resource that no class visits is never offered
a request, so its report row is the one constant UNVISITED row, shared
by every run, and report_to_json writes that row from one text rendered
at import.

A series point is one row, ``(label, arrival, response)``: a resource's
rows carry its name and a class's rows carry END_TO_END. No row is
stored as a tuple. Each accumulator keeps its points as packed
``array('d')`` columns, 8 bytes a value: a resource keeps an arrival and
a response column, and a class keeps an arrival column beside the
responses it already keeps, which the loop appends under the same window
rule. finalize hands each column to the report with the row count it
holds at that moment (a SeriesRows), so the report reads the
accumulators' own buffers without a copy, and what they record later is
not part of it. A SeriesRows is iterated, counted, compared and
pickled, never indexed: its rows run in column order (model order, then
record order), which is not the CSV's arrival order. series_chunks
sorts the rows with one stable argsort of the arrival columns.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from itertools import repeat

from .errors import SeriesDisabledError, ValidationError
from .model import (
    END_TO_END,
    JSONText,
    ScenarioModel,
    _as_dict,
    _as_record,
    _find_surrogate,
    _load_json,
    _read_values,
    json_text,
    valid_seed,
)


class ResourceAccumulator:
    """Running observations for one resource over the window [warmup, stop].

    A plain record: the engine's loop writes every field as it applies
    each event, and close() flushes the intervals still open at the stop
    clock.
    """

    __slots__ = (
        "name",
        "replicas",
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
        "series_arrivals",
        "series_responses",
    )

    def __init__(self, name: str, replicas: int, warmup: float):
        self.name = name
        self.replicas = replicas
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
        self.series_arrivals = array("d")  # the series rows as two packed columns
        self.series_responses = array("d")

    def close(self, elapsed: float, warmup: float, service_starts: list[float], queued: int) -> None:
        """Flush the open intervals at the stop clock ``elapsed`` of a run
        whose window opens at ``warmup``.

        The time since the last occupancy change is occupancy area while
        the resource holds requests and idle time while it holds none.
        ``service_starts`` holds, in replica order, when each service
        still running began; ``queued`` counts the requests still waiting.
        """
        stop_w = elapsed if elapsed > warmup else warmup
        if self.occupancy:
            self.area += self.occupancy * (stop_w - self.occupancy_since)
        else:
            self.idle_time += stop_w - self.occupancy_since
        for start in service_starts:
            self.busy_time += stop_w - (start if start > warmup else warmup)
        self.in_service_at_stop = len(service_starts)
        self.queued_at_stop = queued


class ClassAccumulator:
    """Running observations for one workload class: a plain record that
    the engine's loop writes."""

    __slots__ = (
        "generated",
        "completed",
        "dropped",
        "mean_response",
        "responses",
        "series_arrivals",
    )

    def __init__(self):
        self.generated = 0
        self.completed = 0
        self.dropped = 0
        self.mean_response = 0.0  # over responses, the sessions that arrived inside the window
        self.responses = array("d")  # the kept responses, packed: 8 bytes each
        # the series rows' arrivals; their responses are ``responses``
        self.series_arrivals = array("d")


class RunAccumulator:
    """Everything recorded during one run of ``model``: the record of
    each visited resource, by name in model order, and of each class.

    A plain holder: the engine builds the records, each with its queue
    state beside its measurement fields, and hands them over. The run's
    name, seed, window, series setting and declared resources are read
    from ``model`` itself, by finalize.
    """

    def __init__(self, model: ScenarioModel, resources: dict, classes: dict):
        self.model = model
        self.resources: dict[str, ResourceAccumulator] = resources
        self.classes: dict[str, ClassAccumulator] = classes


# One labelled run of series rows: rows i < n of the two columns.
SeriesColumns = tuple[str, array, array, int]


class SeriesRows:
    """The ``(label, arrival, response)`` rows of packed columns, to
    iterate, count and compare: each ``(label, arrivals, responses, n)``
    in ``columns`` gives its first n rows, in order, and the columns
    follow one another. Holding n, not a copy, keeps the rows fixed while
    the buffers grow. Compares equal to a SeriesRows or a tuple of the
    same rows.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Iterable[SeriesColumns]):
        self.columns = tuple(columns)

    def __len__(self) -> int:
        return sum(n for *_, n in self.columns)

    def __iter__(self) -> Iterator[tuple[str, float, float]]:
        for label, arrivals, responses, n in self.columns:
            yield from zip(repeat(label, n), arrivals, responses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (SeriesRows, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __reduce__(self):
        # rebuilt from its columns, at any pickle protocol
        return SeriesRows, (self.columns,)


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
    resource_series: SeriesRows
    end_to_end_series: SeriesRows
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


def _nearest_ranks(values: array, qs: tuple[float, ...]) -> list[float]:
    """Each q in ``qs`` as a nearest-rank percentile of ``values``: the
    k-th smallest value, k = max(0, ceil(q * n) - 1) counted from 0, which
    is ``sorted(values)[k]``; 0.0 for every q when there are no values.

    One numpy.partition of a view of the buffer puts every k-th value in
    its sorted place without sorting the rest. The partition is a copy and
    the view dies within the call, so ``values`` keeps no export and may
    still grow.
    """
    n = len(values)
    if n == 0:
        return [0.0] * len(qs)
    # imported here, as workload._refill does: commands that keep no
    # response never load numpy
    import numpy as np

    ks = [max(0, math.ceil(q * n) - 1) for q in qs]
    return np.partition(np.frombuffer(values), ks)[ks].tolist()


def finalize(acc: RunAccumulator, elapsed: float) -> MetricsReport:
    """Turn raw accumulators into the immutable report.

    ``elapsed`` is the stop clock; all rates and probabilities use the
    window [warmup, elapsed]. The name, seed, window, series setting and
    every declared resource come from ``acc.model``.
    """
    model = acc.model
    run = model.run
    warmup = run.warmup
    window = (elapsed if elapsed > warmup else warmup) - warmup

    # every declared resource in model order; the visited ones are overwritten below
    resources = dict.fromkeys([r.name for r in model.resources()], UNVISITED)
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
        p50, p95 = _nearest_ranks(ca.responses, (0.50, 0.95))
        classes[name] = ClassMetrics(
            generated=ca.generated,
            completed=ca.completed,
            dropped=ca.dropped,
            mean_response=ca.mean_response,
            p50_response=p50,
            p95_response=p95,
        )

    generated = sum(ca.generated for ca in acc.classes.values())
    completed = sum(ca.completed for ca in acc.classes.values())
    dropped = sum(ca.dropped for ca in acc.classes.values())

    # each accumulator's own columns, in model then record order, with
    # the row count they hold now; the columns stay empty when series are off
    return MetricsReport(
        scenario=model.name,
        seed=run.seed,
        elapsed=elapsed,
        warmup=warmup,
        generated=generated,
        completed=completed,
        dropped=dropped,
        in_flight=generated - completed - dropped,
        resources=resources,
        classes=classes,
        series_enabled=run.series_enabled,
        resource_series=SeriesRows(
            (ra.name, ra.series_arrivals, ra.series_responses, len(ra.series_arrivals))
            for ra in acc.resources.values()
            if ra.series_arrivals
        ),
        end_to_end_series=SeriesRows(
            (END_TO_END, ca.series_arrivals, ca.responses, len(ca.series_arrivals))
            for ca in acc.classes.values()
            if ca.series_arrivals
        ),
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


def _read_report_values(d: dict, types: dict[str, str], path: str) -> dict:
    """The values of ``d`` at the keys of ``types``, read by _read_values,
    of which only those a run writes: no NaN, no negative count and no
    seed that valid_seed refuses. An infinity is read, since a clock near
    the float maximum can write one."""
    values = _read_values(d, types, path)
    for key, value in values.items():
        if value != value:
            raise ValidationError(f"{path}.{key}: expected a finite number, got nan")
        if key == "seed":
            if not valid_seed(value):
                raise ValidationError(f"{path}.seed: seed must be an unsigned 64-bit integer, got {value!r}")
        elif types[key] == "int" and value < 0:
            raise ValidationError(f"{path}.{key}: expected a count >= 0, got {value!r}")
    return values


def _read_record(obj: object, types: dict[str, str], path: str) -> dict:
    """``obj`` as an object holding exactly the keys of ``types``, read by _read_report_values."""
    return _read_report_values(_as_record(obj, tuple(types), path), types, path)


def report_from_json(text: str) -> MetricsReport:
    """Load a report written by report_to_json; every key it writes is
    required, no other is allowed, each value must have its field's type,
    and UTF-8 must be able to encode the scenario, resource and class names.

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
    header = _read_report_values(doc, _HEADER_TYPES, "$")
    # a name UTF-8 cannot encode could be neither printed nor written; a
    # scenario refuses it too (model._valid_name)
    for key, names in (("scenario", [header["scenario"]]), ("resources", resources), ("classes", classes)):
        for name in filter(_find_surrogate, names):
            raise ValidationError(f"$.{key}: name {name!r} has no UTF-8 encoding")
    return MetricsReport(
        **header,
        **_read_record(doc["totals"], _TOTALS_TYPES, "$.totals"),
        resources=resources,
        classes=classes,
        series_enabled=series["enabled"],
        resource_series=SeriesRows(()),
        end_to_end_series=SeriesRows(()),
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


# rows that series_chunks formats into one chunk: a chunk is about 48 kB
# of text, so neither the export nor a streamed write holds one str per row
_SERIES_CHUNK_ROWS = 1024


def series_chunks(report: MetricsReport) -> Iterator[str]:
    """The series CSV that export_series returns, as consecutive pieces:
    the header line, then the rows _SERIES_CHUNK_ROWS at a time.

    A refusal is raised by this call, before the first chunk, so a
    caller that writes the chunks as they come writes nothing for a
    report that holds no series rows. The rows are ordered at the first
    chunk by one stable numpy argsort of the concatenated arrival columns;
    each chunk is then formatted from plain slices of the sorted columns,
    with each label's CSV cell quoted once. No tuple or str is made per
    row beyond the chunk being formatted.
    """
    if report.loaded_series_rows is not None:
        raise SeriesDisabledError("a loaded report holds no series rows; export them from the run that recorded them")
    if not report.series_enabled:
        raise SeriesDisabledError("this run did not record series data (enable run.series)")
    return _format_series(report.resource_series.columns + report.end_to_end_series.columns)


def _csv_cell(label: str) -> str:
    """``label`` as csv writes it, quoted where it holds a comma or a quote."""
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow((label,))
    return out.getvalue()


def _format_series(columns: tuple[SeriesColumns, ...]) -> Iterator[str]:
    yield "resource,arrival_time,response_time\n"
    if not any(n for *_, n in columns):
        return
    # imported here, as _nearest_ranks does: a run that records a row has
    # drawn a variate, so numpy is already loaded
    import numpy as np

    # one stable argsort orders all rows by arrival, ties in column then
    # record order; the sorted columns are then read in plain slices
    arrivals = np.concatenate([np.frombuffer(a, count=n) for _, a, _, n in columns])
    order = np.argsort(arrivals, kind="stable")
    arrivals = arrivals[order]
    responses = np.concatenate([np.frombuffer(r, count=n) for _, _, r, n in columns])[order]
    # each row's label as the index of its column's cell, quoted once a column
    which = np.repeat(np.arange(len(columns), dtype=np.int32), [n for *_, n in columns])[order]
    del order
    cells = [_csv_cell(label) for label, *_ in columns]
    for start in range(0, len(arrivals), _SERIES_CHUNK_ROWS):
        part = slice(start, start + _SERIES_CHUNK_ROWS)
        rows = zip(map(cells.__getitem__, which[part].tolist()), arrivals[part].tolist(), responses[part].tolist())
        yield "".join([f"{cell},{t!r},{r!r}\n" for cell, t, r in rows])


def export_series(report: MetricsReport) -> str:
    """CSV of raw (arrival time, response time) points for plotting.

    One row per completed visit, labeled with its resource, plus one row
    per completed session labeled __end_to_end__. Rows are ordered by
    arrival time, which is what a response-vs-arrival scatter needs; rows
    that arrived at the same time keep the report's order, resource rows
    (model then record order) before end-to-end rows. The text is the
    join of series_chunks, so it holds the chunks beside the result but
    never one str per row; a caller that only writes the CSV can write
    those chunks one by one instead.
    """
    return "".join(series_chunks(report))
