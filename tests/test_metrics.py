"""Accumulators, finalized reports, and their serializations (the sweep CSV too)."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import pickle
import statistics
import tracemalloc
from array import array
from itertools import chain
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiersim import (
    Distribution,
    Engine,
    ResourceSpec,
    RunConfig,
    ScenarioModel,
    SeriesDisabledError,
    StopRule,
    Tier,
    ValidationError,
    Visit,
    WorkloadClass,
    bundled,
    export_series,
    finalize,
    parse_scenario,
    report_from_json,
    report_to_json,
    report_to_table,
    simulate,
)
from tiersim.metrics import (
    _SERIES_CHUNK_ROWS,
    UNVISITED,
    MetricsReport,
    SeriesRows,
    _nearest_ranks,
    series_chunks,
)
from tiersim.sweep import SweepResult, sweep_to_csv
from pycalls import python_calls
from randscen import random_scenario
from refengine import accumulator, occupancy_change, record_completion, record_visit, snapshot, step


class Welford:
    """Streaming mean: the reference for the inline recorders, which
    update their means in this operation order."""

    __slots__ = ("n", "mean")

    def __init__(self):
        self.n = 0
        self.mean = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        self.mean += (x - self.mean) / self.n


def one_station_model(replicas: int = 1, warmup: float = 0.0, series: bool = False) -> ScenarioModel:
    return ScenarioModel(
        name="m",
        tiers=(Tier(name="t", resources=(ResourceSpec(name="A", replicas=replicas),)),),
        classes=(
            WorkloadClass(
                name="w",
                arrival=Distribution.exponential(1.0),
                path=(Visit(resource="A", demand=Distribution.exponential(2.0)),),
            ),
        ),
        run=RunConfig(seed=1, stop=StopRule.after_requests(10), warmup=warmup, series_enabled=series),
    )


def test_welford_matches_batch_statistics():
    data = [0.3, 1.7, 2.2, 2.2, 9.0, 0.05, 4.4]
    w = Welford()
    for x in data:
        w.add(x)
    assert w.n == len(data)
    assert w.mean == pytest.approx(statistics.fmean(data), rel=1e-12)


def test_inline_recorders_match_the_welford_reference():
    acc = accumulator(one_station_model())
    ra, ca = acc.resources["A"], acc.classes["w"]
    waits, services, responses = Welford(), Welford(), Welford()
    for i in range(50):
        enqueue = 0.37 * i
        start = enqueue + (i % 7) * 0.113
        end = start + 0.05 + (i % 5) * 0.071
        record_visit(ra, 0.0, False, enqueue, start, end)
        record_completion(ca, 0.0, False, enqueue, end - enqueue)
        waits.add(start - enqueue)
        services.add(end - start)
        responses.add(end - enqueue)
    assert (ra.samples, ra.waiting_mean) == (waits.n, waits.mean)
    assert (ra.samples, ra.service_mean) == (services.n, services.mean)
    assert (len(ca.responses), ca.mean_response) == (responses.n, responses.mean)


def test_response_is_exactly_service_plus_waiting():
    acc = accumulator(one_station_model())
    ra = acc.resources["A"]
    # ten visits averaging 0.150 waiting and 0.057 service
    for i in range(10):
        enqueue = float(i)
        start = enqueue + 0.150
        end = start + 0.057
        ra.offered += 1
        record_visit(ra, 0.0, False, enqueue, start, end)
    report = finalize(acc, 10.0)
    m = report.resources["A"]
    assert m.avg_waiting == pytest.approx(0.150, abs=1e-12)
    assert m.avg_service == pytest.approx(0.057, abs=1e-12)
    assert m.avg_response == m.avg_service + m.avg_waiting  # identity, not approximation


def test_drop_probability_is_the_exact_ratio():
    acc = accumulator(one_station_model())
    ra = acc.resources["A"]
    ra.offered = 1000
    ra.dropped = 761
    report = finalize(acc, 50.0)
    assert report.resources["A"].p_drop == 761 / 1000


def test_mean_in_system_integrates_occupancy():
    acc = accumulator(one_station_model())
    ra = acc.resources["A"]
    occupancy_change(ra, 0.0, 0.0, +1)
    occupancy_change(ra, 0.0, 1.0, +1)
    occupancy_change(ra, 0.0, 2.0, -1)
    occupancy_change(ra, 0.0, 4.0, -1)
    ra.close(4.0, 0.0, [], 0)
    # area: 1*(1) + 2*(1) + 1*(2) = 5 over elapsed 4
    assert finalize(acc, 4.0).resources["A"].mean_in_system == pytest.approx(1.25, abs=1e-12)


def test_single_replica_idle_is_the_exact_complement():
    acc = accumulator(one_station_model())
    ra = acc.resources["A"]
    ra.offered = 3
    record_visit(ra, 0.0, False, 0.0, 0.0, 2.0)
    record_visit(ra, 0.0, False, 2.0, 2.5, 3.0)
    record_visit(ra, 0.0, False, 3.0, 5.0, 6.5)
    m = finalize(acc, 10.0).resources["A"]
    assert m.utilization == pytest.approx(0.4, abs=1e-12)
    assert m.p_idle == 1.0 - m.utilization
    assert m.p_idle + m.utilization == 1.0  # exact in floating point


def test_multi_replica_idle_uses_all_idle_time():
    acc = accumulator(one_station_model(replicas=2))
    ra = acc.resources["A"]
    occupancy_change(ra, 0.0, 3.0, +1)  # empty, so all replicas idle, since 0
    occupancy_change(ra, 0.0, 8.0, -1)
    ra.close(10.0, 0.0, [], 0)
    m = finalize(acc, 10.0).resources["A"]
    assert m.p_idle == pytest.approx(0.5, abs=1e-12)


def test_warmup_clips_time_and_filters_samples():
    acc = accumulator(one_station_model(warmup=2.0))
    ra = acc.resources["A"]
    ra.offered = 2
    # enqueued before warmup: contributes clipped busy time, no samples
    record_visit(ra, 2.0, False, 0.0, 1.0, 3.0)
    assert ra.busy_time == pytest.approx(1.0, abs=1e-12)
    assert ra.samples == 0
    # enqueued after warmup: a normal sample
    record_visit(ra, 2.0, False, 2.5, 2.5, 3.0)
    assert ra.samples == 1
    m = finalize(acc, 4.0).resources["A"]
    # window is [2, 4]; busy 1.0 + 0.5 of it
    assert m.utilization == pytest.approx(0.75, abs=1e-12)
    assert m.avg_waiting == 0.0
    assert m.avg_service == pytest.approx(0.5, abs=1e-12)


def test_warmup_clips_occupancy_area():
    acc = accumulator(one_station_model(warmup=2.0))
    ra = acc.resources["A"]
    occupancy_change(ra, 2.0, 0.0, +1)
    occupancy_change(ra, 2.0, 4.0, -1)
    ra.close(4.0, 2.0, [], 0)
    m = finalize(acc, 4.0).resources["A"]
    assert m.mean_in_system == pytest.approx(1.0, abs=1e-12)


def test_warmup_clips_all_idle_time():
    acc = accumulator(one_station_model(replicas=2, warmup=2.0))
    ra = acc.resources["A"]
    occupancy_change(ra, 2.0, 3.0, +1)  # idle [0, 3) but only [2, 3) counts
    ra.close(6.0, 2.0, [3.0], 0)  # the service begun at 3 still runs at the stop
    m = finalize(acc, 6.0).resources["A"]
    assert m.p_idle == pytest.approx(0.25, abs=1e-12)
    assert m.utilization == pytest.approx(3.0 / (2 * 4.0), abs=1e-12)
    assert (m.in_service_at_stop, m.queued_at_stop) == (1, 0)


def _stepped_all_idle_time(model, names):
    """Run ``model`` one step() at a time and add up, per resource, the
    time inside the window during which snapshot() shows no replica busy.
    The state seen after a step holds until the next event, and the
    state after the last step until the stop clock."""
    warmup = model.run.warmup
    whole = Engine(model)
    whole.run()
    eng = Engine(model)
    idle = dict.fromkeys(names, 0.0)
    all_idle = dict.fromkeys(names, True)
    last = 0.0

    def hold(until):
        span = max(0.0, until - max(last, warmup))
        for name in names:
            if all_idle[name]:
                idle[name] += span

    for _ in range(whole.events_applied):
        event = step(eng)
        hold(event.time)
        last = event.time
        for name in names:
            all_idle[name] = not any(snapshot(eng, name).busy)
    report = eng.run()
    hold(report.elapsed)
    return report, idle


@pytest.mark.parametrize("warmup", [0.0, 1.0])
def test_multi_replica_idle_is_the_share_of_the_window_with_every_replica_idle(warmup):
    checked = 0
    for case in range(100):
        base = random_scenario(case)
        model = dataclasses.replace(base, run=dataclasses.replace(base.run, warmup=warmup))
        names = [r.name for r in model.resources() if r.replicas > 1]
        report, idle = _stepped_all_idle_time(model, names)
        window = report.elapsed - warmup
        for name in names:
            expected = idle[name] / window if window > 0.0 else 1.0
            assert report.resources[name].p_idle == pytest.approx(expected, rel=1e-9, abs=1e-12), (model.name, name)
            checked += 1
    assert checked > 100


def test_zero_window_reports_zeros_and_full_idle():
    acc = accumulator(one_station_model(warmup=5.0))
    acc.resources["A"].close(5.0, 5.0, [], 0)
    m = finalize(acc, 5.0).resources["A"]
    assert m.utilization == 0.0
    assert m.mean_in_system == 0.0
    assert m.p_idle == 1.0


def _percentile(values: list[float], q: float) -> float:
    """The nearest-rank q-percentile of ``values``, as finalize reads it."""
    (value,) = _nearest_ranks(array("d", values), (q,))
    return value


def test_percentiles_nearest_rank():
    values = sorted(float(i) for i in range(1, 101))
    assert _percentile(values, 0.50) == 50.0
    assert _percentile(values, 0.95) == 95.0
    assert _percentile([1.0, 2.0, 3.0], 0.50) == 2.0
    assert _percentile([1.0, 2.0, 3.0], 0.95) == 3.0
    assert _percentile([7.0], 0.50) == 7.0
    assert _percentile([], 0.95) == 0.0
    assert _percentile([4.0, 9.0], 1.0) == 9.0
    assert _percentile([4.0, 9.0], 0.0) == 4.0
    # unsorted input, and ties
    shuffled = [float((37 * i) % 100 + 1) for i in range(100)]
    assert shuffled != values and sorted(shuffled) == values
    assert _percentile(shuffled, 0.50) == 50.0
    assert _percentile(shuffled, 0.95) == 95.0
    assert _percentile([3.0, 1.0, 2.0], 0.95) == 3.0
    assert _percentile([9.0, 4.0], 0.0) == 4.0
    assert _percentile([5.0, 1.0, 5.0, 5.0, 1.0], 0.50) == 5.0
    assert _percentile([2.0, 2.0, 2.0], 0.95) == 2.0
    assert _nearest_ranks(array("d", [3.0, 1.0, 2.0, 1.0]), (0.50, 0.95)) == [1.0, 3.0]
    assert _nearest_ranks(array("d"), (0.50, 0.95)) == [0.0, 0.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0, 1e-300, 7e10]) | st.floats(0.0, 1e6), max_size=300))
def test_nearest_ranks_select_what_a_sort_gives(values):
    n = len(values)
    qs = (0.0, 0.5, 0.95, 1.0)
    expected = [sorted(values)[max(0, math.ceil(q * n) - 1)] if n else 0.0 for q in qs]
    buffer = array("d", values)
    assert _nearest_ranks(buffer, qs) == expected
    # the selection leaves the buffer as it was, and exported nowhere
    assert buffer.tolist() == values
    buffer.append(1.0)


def _quantile(cdf, q: float) -> float:
    """The q-quantile of a continuous distribution on [0, inf), by bisection on its CDF."""
    lo, hi = 0.0, 1.0
    while cdf(hi) < q:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if cdf(mid) < q else (lo, mid)
    return (lo + hi) / 2.0


def _hypoexponential_quantile(a: float, b: float, q: float) -> float:
    """The q-quantile of Exp(a) + Exp(b), a != b."""
    return _quantile(lambda t: 1.0 - (b * math.exp(-a * t) - a * math.exp(-b * t)) / (b - a), q)


def _mm1k_response_quantile(lam: float, mu: float, capacity: int, q: float) -> float:
    """The q-quantile of an accepted request's response at an M/M/1 station
    with ``capacity`` waiting places. An arrival that finds n present
    (n <= capacity) is accepted and leaves after n + 1 services, an
    Erlang(n + 1, mu) response; it finds n with probability pi_n, which is
    proportional to (lam/mu)^n for n <= capacity + 1, so an accepted one
    finds n with weight pi_n / (1 - pi_{capacity + 1})."""
    rho = lam / mu
    weights = [rho**n for n in range(capacity + 1)]
    total = sum(weights)

    def cdf(t: float) -> float:
        # P(Erlang(k, mu) > t) is the Poisson(mu t) probability of fewer than k events
        terms = [math.exp(-mu * t) * (mu * t) ** j / math.factorial(j) for j in range(capacity + 1)]
        return 1.0 - sum(w * sum(terms[: n + 1]) for n, w in enumerate(weights)) / total

    return _quantile(cdf, q)


def _chain(
    lam: float,
    rates: tuple[float, ...],
    seed: int,
    capacity: float = math.inf,
    warmup: float = 200.0,
    requests: int = 50_000,
) -> ScenarioModel:
    """One class visiting one M/M/1 station per service rate, in order, each
    with ``capacity`` waiting places."""
    names = [f"S{i}" for i in range(len(rates))]
    return ScenarioModel(
        name="chain",
        tiers=(
            Tier(
                name="t",
                resources=tuple(ResourceSpec(name=name, replicas=1, queue_capacity=capacity) for name in names),
            ),
        ),
        classes=(
            WorkloadClass(
                name="w",
                arrival=Distribution.exponential(lam),
                path=tuple(Visit(resource=name, demand=Distribution.exponential(mu)) for name, mu in zip(names, rates)),
            ),
        ),
        run=RunConfig(seed=seed, stop=StopRule.after_requests(requests), warmup=warmup),
    )


@pytest.mark.parametrize(
    "model, seeds, t, exact",
    [
        # M/M/1, infinite room: the response is Exp(mu - lam) = Exp(0.2),
        # so p50 = ln 2 / 0.2 = 3.46574 and p95 = ln 20 / 0.2 = 14.97866
        (
            lambda seed: _chain(0.8, (1.0,), seed),
            range(2801, 2811),
            2.262,
            (math.log(2) / 0.2, math.log(20) / 0.2),
        ),
        # two infinite M/M/1 in tandem: the sojourns are independent Exp(0.4)
        # and Exp(0.9) (Reich 1957), so p50 = 2.93166 and p95 = 8.94608
        (
            lambda seed: _chain(0.6, (1.0, 1.5), seed),
            range(2811, 2821),
            2.262,
            (_hypoexponential_quantile(0.4, 0.9, 0.50), _hypoexponential_quantile(0.4, 0.9, 0.95)),
        ),
        # M/M/1/K with 5 waiting places at rho = 0.9: a mixture of Erlangs,
        # p50 = 2.688793 and p95 = 7.913927; 20 replications
        (
            lambda seed: _chain(0.9, (1.0,), seed, capacity=5, warmup=50.0),
            range(3201, 3221),
            2.093,
            (_mm1k_response_quantile(0.9, 1.0, 5, 0.50), _mm1k_response_quantile(0.9, 1.0, 5, 0.95)),
        ),
    ],
    ids=["mm1", "tandem", "mm1k"],
)
def test_printed_response_percentiles_agree_with_theory(model, seeds, t, exact):
    # each percentile's mean over the replications must lie within its 95%
    # confidence half-width (t at len(seeds) - 1 degrees of freedom) of the
    # exact value
    runs = [simulate(model(seed)).classes["w"] for seed in seeds]
    for name, value in zip(("p50_response", "p95_response"), exact):
        observed = [getattr(c, name) for c in runs]
        half_width = t * statistics.stdev(observed) / math.sqrt(len(observed))
        assert abs(statistics.fmean(observed) - value) <= half_width, (name, value, observed)


def test_report_json_is_byte_stable_and_round_trips():
    report = simulate(one_station_model(series=True))
    text = report_to_json(report)
    assert text == report_to_json(report)
    assert text.endswith("\n")

    loaded = report_from_json(text)
    assert loaded.scenario == report.scenario
    assert loaded.seed == report.seed
    assert loaded.elapsed == report.elapsed
    assert loaded.warmup == report.warmup
    assert (loaded.generated, loaded.completed, loaded.dropped, loaded.in_flight) == (
        report.generated,
        report.completed,
        report.dropped,
        report.in_flight,
    )
    assert loaded.resources == report.resources
    assert loaded.classes == report.classes
    # series rows live in the CSV, not the JSON; the record of them comes back as saved
    assert loaded.series_enabled is True
    assert loaded.resource_series == ()
    assert loaded.loaded_series_rows == (len(report.resource_series), len(report.end_to_end_series))
    assert report_to_json(loaded) == text


def test_a_loaded_report_keeps_an_infinity():
    # a clock near the float maximum can write Infinity, so it loads and
    # writes back, where NaN is refused (test_cli)
    doc = json.loads(report_to_json(simulate(one_station_model())))
    doc["elapsed"] = doc["resources"]["A"]["avg_waiting"] = math.inf
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert "Infinity" in text
    assert report_to_json(report_from_json(text)) == text


@pytest.mark.parametrize(
    "keys, value, line",
    [
        (("seed",), 2**70, f"$.seed: seed must be an unsigned 64-bit integer, got {2**70}"),
        (("totals", "generated"), -3, "$.totals.generated: expected a count >= 0, got -3"),
        (("resources", "A", "served"), -1, "$.resources['A'].served: expected a count >= 0, got -1"),
        (("resources", "A", "utilization"), -0.5, "$.resources['A'].utilization: expected a value >= 0, got -0.5"),
        (("resources", "A", "avg_waiting"), -1e-300, "$.resources['A'].avg_waiting: expected a value >= 0, got -1e-300"),
        (
            ("resources", "A", "mean_in_system"),
            -math.inf,
            "$.resources['A'].mean_in_system: expected a value >= 0, got -inf",
        ),
        (("resources", "A", "p_drop"), 3.0, "$.resources['A'].p_drop: expected a probability in [0, 1], got 3.0"),
        (("resources", "A", "p_drop"), -0.25, "$.resources['A'].p_drop: expected a probability in [0, 1], got -0.25"),
        (
            ("resources", "A", "offered"),
            11,
            "$.resources['A'].offered: expected served + dropped + queued_at_stop + in_service_at_stop = 10, got 11",
        ),
        (("totals", "in_flight"), 7, "$.totals.in_flight: expected generated - completed - dropped = 0, got 7"),
    ],
    ids=[
        "seed-2**70",
        "negative-total",
        "negative-resource-count",
        "negative-utilization",
        "negative-mean",
        "negative-integral",
        "p_drop-above-1",
        "p_drop-below-0",
        "offered-not-accounted-for",
        "in_flight-not-accounted-for",
    ],
)
def test_a_loaded_report_refuses_a_value_no_run_writes(keys, value, line):
    doc = json.loads(report_to_json(simulate(one_station_model())))
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    with pytest.raises(ValidationError) as found:
        report_from_json(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert str(found.value) == line


def test_every_report_a_run_writes_loads_and_writes_back():
    # the checks on a loaded report's ranges and identities refuse none
    # that a run writes: the 100 random scenarios and the bundled one
    models = [random_scenario(case) for case in range(100)]
    models.append(parse_scenario(bundled.read("webservices.json")))
    for model in models:
        text = report_to_json(simulate(model))
        assert report_to_json(report_from_json(text)) == text, model.name


def test_a_loaded_report_keeps_a_utilization_one_ulp_past_one():
    # a saturated station's float sums can land there, and p_idle below 0
    doc = json.loads(report_to_json(simulate(one_station_model())))
    doc["resources"]["A"].update(utilization=math.nextafter(1.0, 2.0), p_idle=-math.ulp(1.0))
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert report_to_json(report_from_json(text)) == text


def test_report_json_carries_series_counts():
    import json

    report = simulate(one_station_model(series=True))
    doc = json.loads(report_to_json(report))
    assert doc["series"]["enabled"] is True
    assert doc["series"]["resource_rows"] == len(report.resource_series)
    assert doc["series"]["end_to_end_rows"] == len(report.end_to_end_series)
    assert doc["series"]["resource_rows"] == report.resources["A"].served


def series_rows(*columns: tuple[str, list[tuple[float, float]]]) -> SeriesRows:
    """Rows as a run's report holds them: one pair of packed columns per
    ``(label, [(arrival, response), ...])``, in the order given."""
    return SeriesRows(
        (label, array("d", [t for t, _ in rows]), array("d", [r for _, r in rows]), len(rows)) for label, rows in columns
    )


def test_export_series_format_and_order():
    base = simulate(one_station_model(series=True))
    report = MetricsReport(
        scenario=base.scenario,
        seed=base.seed,
        elapsed=base.elapsed,
        warmup=base.warmup,
        generated=base.generated,
        completed=base.completed,
        dropped=base.dropped,
        in_flight=base.in_flight,
        resources=base.resources,
        classes=base.classes,
        series_enabled=True,
        resource_series=series_rows(("A", [(1.0, 0.5), (3.0, 0.25)]), ("B", [(2.0, 0.125)])),
        end_to_end_series=series_rows(("__end_to_end__", [(1.0, 0.75)])),
    )
    text = export_series(report)
    assert text.splitlines() == [
        "resource,arrival_time,response_time",
        "A,1.0,0.5",
        "__end_to_end__,1.0,0.75",
        "B,2.0,0.125",
        "A,3.0,0.25",
    ]


def test_export_series_refuses_when_disabled():
    report = simulate(one_station_model(series=False))
    assert report.resource_series == ()
    with pytest.raises(SeriesDisabledError):
        export_series(report)


@pytest.mark.parametrize("series", [True, False], ids=["series-on", "series-off"])
def test_export_series_refuses_a_loaded_report(series):
    loaded = report_from_json(report_to_json(simulate(one_station_model(series=series))))
    with pytest.raises(SeriesDisabledError, match="a loaded report holds no series rows"):
        export_series(loaded)


def test_series_rows_match_counts_from_a_real_run():
    report = simulate(one_station_model(series=True))
    assert len(report.resource_series) == report.resources["A"].served
    assert len(report.end_to_end_series) == report.completed
    csv_text = export_series(report)
    assert len(csv_text.splitlines()) == 1 + len(report.resource_series) + len(report.end_to_end_series)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_pickled_report_keeps_its_series_rows(protocol):
    report = simulate(one_station_model(replicas=2, series=True))
    copy = pickle.loads(pickle.dumps(report, protocol))
    assert len(copy.resource_series) == report.resources["A"].served > 0
    assert copy.resource_series == report.resource_series == tuple(report.resource_series)
    assert copy.end_to_end_series == report.end_to_end_series
    assert export_series(copy) == export_series(report)


def test_series_rows_iterate_count_and_compare_as_a_tuple_of_rows():
    rows = series_rows(("A", [(1.0, 0.5), (3.0, 0.25)]), ("B", []), ("C", [(2.0, 0.125)]))
    expected = (("A", 1.0, 0.5), ("A", 3.0, 0.25), ("C", 2.0, 0.125))
    assert len(rows) == 3 and tuple(rows) == expected and rows == expected and expected == rows
    assert rows != expected[:2] and rows != (*expected[:2], ("C", 2.0, 0.25))
    # a list of the same rows is no tuple, so it compares unequal both ways
    assert rows != list(expected) and list(expected) != rows
    assert series_rows() == () and not series_rows()


def test_series_labels_that_need_quoting_read_back_as_three_fields():
    model = one_station_model(series=True)
    resources = (ResourceSpec(name="a,b"), ResourceSpec(name='x"y'))
    path = tuple(Visit(resource=r.name, demand=Distribution.exponential(2.0)) for r in resources)
    model = dataclasses.replace(
        model,
        tiers=(Tier(name="t", resources=resources),),
        classes=(dataclasses.replace(model.classes[0], path=path),),
    )
    report = simulate(model)
    rows = list(csv.reader(io.StringIO(export_series(report))))
    assert rows[0] == ["resource", "arrival_time", "response_time"]
    assert all(len(row) == 3 for row in rows)
    labels = [row[0] for row in rows[1:]]
    assert set(labels) == {"a,b", 'x"y', "__end_to_end__"}
    assert labels.count("a,b") == report.resources["a,b"].served


def reference_series(report: MetricsReport) -> str:
    """The series CSV as one join of one line per row: the formatter
    that series_chunks replaced, kept as the bytes it must reproduce."""
    rows = sorted(chain(report.resource_series, report.end_to_end_series), key=itemgetter(1))
    cells = {}
    for label in set(map(itemgetter(0), rows)):
        out = io.StringIO()
        csv.writer(out, lineterminator="").writerow((label,))
        cells[label] = out.getvalue()
    lines = ["resource,arrival_time,response_time"]
    lines.extend(f"{cells[label]},{t!r},{r!r}" for label, t, r in rows)
    return "\n".join(lines) + "\n"


N = _SERIES_CHUNK_ROWS


@pytest.mark.parametrize("n", [0, 1, N - 1, N, N + 1, 2 * N + 1])
def test_export_series_bytes_hold_across_chunk_edges(n):
    # labels alternate, so rows N-2, N-1 and N, N+1 put both labels that
    # need quoting on both sides of the first edge; the rows are given
    # out of order, so the sort decides where each edge falls
    rows = [(j * 0.1, 1.0 / (j + 3)) for j in range(n)]
    report = dataclasses.replace(
        simulate(one_station_model(series=True)),
        resource_series=series_rows(('x"y', rows[1::2][::-1]), ("a,b", rows[::2])),
        end_to_end_series=series_rows(),
    )
    chunks = list(series_chunks(report))
    assert "".join(chunks) == export_series(report) == reference_series(report)
    assert all(chunk.endswith("\n") and chunk.count("\n") <= N for chunk in chunks)
    assert len(chunks) == 1 + -(-n // N)
    if n > N:
        # the header is chunk 0; rows N-2, N-1 end chunk 1 and row N (and
        # N+1 where there is one) starts chunk 2
        edge = chunks[1].splitlines()[-2:] + chunks[2].splitlines()[:2]
        assert [line[:6] for line in edge] == ['"a,b",', '"x""y"', '"a,b",', '"x""y"'][: len(edge)]


def webservices_series_report_model(sessions: int = 12_500) -> ScenarioModel:
    """The bundled scenario with max_requests lifted, stopped after
    ``sessions`` terminal sessions, series on: about 23k series rows at
    12,500."""
    doc = json.loads(bundled.scenario_text())
    for cls in doc["classes"]:
        cls.pop("max_requests", None)
    doc["run"].update(stop={"kind": "after_requests", "n": sessions}, series=True)
    return parse_scenario(json.dumps(doc))


@pytest.fixture(scope="module")
def webservices_series_report() -> MetricsReport:
    return Engine(webservices_series_report_model()).run()


def traced(fn) -> tuple[object, int, int]:
    """``fn()``, the peak of its traced allocations above their start,
    and what they still hold once it has returned."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        return result, peak - start, held - start
    finally:
        tracemalloc.stop()


def traced_peak(fn) -> tuple[object, int]:
    """``fn()`` and the peak of its traced allocations above their start."""
    result, peak, _ = traced(fn)
    return result, peak


def test_export_series_peaks_near_its_result(webservices_series_report):
    # one str per row held beside the result peaked at 4.3 times the CSV
    csv_text, peak = traced_peak(lambda: export_series(webservices_series_report))
    assert csv_text.count("\n") > 20 * N
    assert peak <= 2.5 * len(csv_text), (peak, len(csv_text))


def test_draining_series_chunks_stays_under_a_megabyte(webservices_series_report):
    def drain():
        for _ in series_chunks(webservices_series_report):
            pass

    _, peak = traced_peak(drain)
    assert peak <= 1_000_000, peak


def test_a_run_holds_about_two_doubles_per_kept_response():
    # a kept response is 8 bytes in its class's buffer, and finalize's
    # partition copies it once; a list of floats and a sorted copy of it
    # peaked at 49 B a response on this model, the buffer at 22 B
    model = _chain(0.8, (1.0,), 1, warmup=0.0, requests=15_000)
    Engine(_chain(0.8, (1.0,), 1, warmup=0.0, requests=100)).run()  # numpy imported, outside the trace
    report, peak = traced_peak(lambda: Engine(model).run())
    kept = report.classes["w"].completed
    assert kept == 15_000
    assert peak / kept <= 24, peak / kept


def test_a_run_holds_two_doubles_per_series_row():
    # a resource row is an arrival and a response, 8 bytes each, in its
    # resource's columns; an end-to-end row adds only its arrival to the
    # responses its class keeps anyway. A (label, arrival, response) tuple
    # and its floats held 115 B a row and peaked at 133 B; the columns
    # hold 17 B and peak at 27 B.
    model = webservices_series_report_model()
    Engine(webservices_series_report_model(100)).run()  # numpy imported, outside the trace
    report, peak, held = traced(lambda: Engine(model).run())
    rows = len(report.resource_series) + len(report.end_to_end_series)
    assert rows > 20 * N
    assert held / rows <= 24, held / rows
    assert peak / rows <= 32, peak / rows


def test_rows_recorded_after_finalize_are_not_in_the_report():
    eng = Engine(webservices_series_report_model(300))
    report = eng.run()
    rows = (tuple(report.resource_series), tuple(report.end_to_end_series))
    csv_text = export_series(report)
    run = eng.model.run
    for ra in eng.accumulator.resources.values():
        record_visit(ra, run.warmup, run.series_enabled, 1e9, 1e9 + 1, 1e9 + 2)
    for ca in eng.accumulator.classes.values():
        record_completion(ca, run.warmup, run.series_enabled, 1e9, 5.0)
    assert sum(map(len, (ra.series_arrivals for ra in eng.accumulator.resources.values()))) > len(rows[0])
    assert (tuple(report.resource_series), tuple(report.end_to_end_series)) == rows
    assert export_series(report) == csv_text
    # a second finalize sees the new rows; the first report still does not
    again = finalize(eng.accumulator, report.elapsed)
    assert len(again.resource_series) == len(rows[0]) + len(eng.accumulator.resources)
    assert export_series(report) == csv_text


def test_table_rendering_lists_every_resource_and_class():
    report = simulate(one_station_model())
    table = report_to_table(report)
    assert "Resource" in table and "P(drop)" in table
    assert "\nA  " in table or table.splitlines()[2].startswith("A")
    assert "class w:" in table
    assert f"generated {report.generated}" in table


def reference_report_json(report: MetricsReport) -> str:
    """The report as one document through one json.dumps: the reference
    for report_to_json, which renders it member by member."""
    doc = {
        "scenario": report.scenario,
        "seed": report.seed,
        "elapsed": report.elapsed,
        "warmup": report.warmup,
        "totals": {k: getattr(report, k) for k in ("generated", "completed", "dropped", "in_flight")},
        "resources": {name: dataclasses.asdict(m) for name, m in report.resources.items()},
        "classes": {name: dataclasses.asdict(c) for name, c in report.classes.items()},
        "series": {
            "enabled": report.series_enabled,
            "resource_rows": len(report.resource_series),
            "end_to_end_rows": len(report.end_to_end_series),
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def wide_model(declared: int, visited: int, warmup: float = 0.0) -> ScenarioModel:
    """One tier of ``declared`` resources; one class visits the first ``visited``."""
    model = one_station_model(warmup=warmup)
    resources = tuple(ResourceSpec(name=f"r{i}", replicas=1 + i % 3) for i in range(declared))
    path = tuple(Visit(resource=r.name, demand=Distribution.exponential(8.0)) for r in resources[:visited])
    return dataclasses.replace(
        model,
        tiers=(Tier(name="t", resources=resources),),
        classes=(dataclasses.replace(model.classes[0], path=path),),
    )


def _escaping_names(report: MetricsReport) -> MetricsReport:
    """``report`` with rows renamed to names the JSON writer must escape,
    given out of order; a class name holds a newline, which no scenario
    allows but a hand-built report may hold."""
    names = ('a"b', "a\\b", "\u00e9", "Z", "\u2028x", "a")
    resources = dict(zip(names, report.resources.values()))
    classes = {"w\nx": report.classes["w"], "\u00e9": report.classes["w"]}
    return dataclasses.replace(report, resources=resources, classes=classes)


def _report_cases():
    report = simulate(wide_model(6, 2, warmup=0.5))
    assert sum(m is UNVISITED for m in report.resources.values()) == 4
    yield "in-process", report
    yield "pickled", pickle.loads(pickle.dumps(report))
    yield "loaded", report_from_json(report_to_json(report))
    yield "escaped", _escaping_names(report)
    yield "empty", dataclasses.replace(report, resources={}, classes={})
    # a row equal to UNVISITED but for the sign of a zero keeps its sign
    signed = dict(report.resources, r5=dataclasses.replace(UNVISITED, avg_waiting=-0.0))
    yield "signed-zero", dataclasses.replace(report, resources=signed)
    series = simulate(one_station_model(replicas=2, series=True))
    yield "series", series
    yield "pickled-series", pickle.loads(pickle.dumps(series))


@pytest.mark.parametrize("report", [pytest.param(report, id=label) for label, report in _report_cases()])
def test_report_json_matches_one_whole_document_dump(report):
    assert report_to_json(report) == reference_report_json(report)


@pytest.mark.parametrize("report", [pytest.param(report, id=label) for label, report in _report_cases()])
def test_report_json_reloads_to_the_same_bytes(report):
    text = report_to_json(report)
    assert report_to_json(report_from_json(text)) == text


def test_report_json_calls_stay_bounded_per_declared_resource():
    # An exact count, no wall clock: rendering each unvisited row through
    # the pure-Python indenting encoder took about 222 calls a row.
    declared = 900
    model = dataclasses.replace(wide_model(declared, 12), run=RunConfig(seed=2, stop=StopRule.after_requests(40)))
    report = simulate(model)
    assert sum(m is not UNVISITED for m in report.resources.values()) == 12
    assert python_calls(report_to_json, report) <= 8 * declared


def test_sweep_csv_calls_do_not_grow_with_cells():
    def result(n: int) -> SweepResult:
        cells = tuple((1.5, f"r{i}", 0.25 * i, 0.125, 0.125, 0.5, 0.5, 1e-9) for i in range(n))
        return SweepResult(cells=cells, reports={})

    assert python_calls(sweep_to_csv, result(1000)) == python_calls(sweep_to_csv, result(1))
