"""The engine against the sample-path oracle in refpath.py, which shares
no code with it but the streams and samplers: every recorded visit and
session, bit for bit, and each drop, up to the stop clock."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiersim import (
    END_TO_END,
    INFINITE,
    BalancerPolicy,
    Distribution,
    Engine,
    ResourceSpec,
    RunConfig,
    ScenarioModel,
    StopRule,
    Tier,
    Visit,
    WorkloadClass,
    bundled,
    parse_scenario,
)
from tiersim.model import validated
from refpath import sample_path


def _bits(rows):
    return [(label, a.hex(), r.hex()) for label, a, r in rows]


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def check_against_the_recursion(model):
    report = Engine(model).run()
    path = sample_path(model)
    warmup = model.run.warmup
    assert report.elapsed == path.clock
    rows = [(name, a, d - a) for name, visits in path.visits.items() for a, _, d in visits if a >= warmup]
    assert _bits(report.resource_series) == _bits(rows)
    kept = [(a, r) for a, r in path.ends if a >= warmup]
    assert _bits(report.end_to_end_series) == _bits((END_TO_END, a, r) for a, r in kept)
    assert {name: m.dropped for name, m in report.resources.items()} == path.drops
    (cls,) = report.classes.values()
    assert (cls.dropped, cls.completed) == (sum(path.drops.values()), len(path.ends))
    responses = [r for _, r in kept]
    assert (cls.p50_response, cls.p95_response) == (_nearest_rank(responses, 0.50), _nearest_rank(responses, 0.95))
    assert report.in_flight == path.in_flight
    if path.in_flight:
        return
    # every session ended, so no visit is open at the stop: each integral
    # is a sum of whole intervals, clipped to the window
    stop_w = max(path.clock, warmup)
    window = stop_w - warmup
    for name, visits in path.visits.items():
        m = report.resources[name]
        busy = sum(max(d, warmup) - max(s, warmup) for _, s, d in visits)
        held = sum(max(d, warmup) - max(a, warmup) for a, _, d in visits)
        # idle: the stretches of the window in which no request is present
        idle, since = 0.0, warmup
        for a, _, d in sorted(visits):
            idle += max(max(a, warmup) - since, 0.0)
            since = max(since, d)
        idle += stop_w - since
        replicas = model.resource(name).replicas
        if window > 0.0:
            expected = (busy / (replicas * window), held / window)
            assert (m.utilization, m.mean_in_system) == pytest.approx(expected, rel=1e-12, abs=0.0), name
            # a lone server's is 1 - utilization, exact to the utilization's rounding
            assert m.p_idle == pytest.approx(idle / window, rel=1e-12, abs=1e-12), name
        else:
            assert (m.utilization, m.mean_in_system, m.p_idle) == (0.0, 0.0, 1.0), name


@pytest.mark.parametrize("seed", [42, 1, 2, 3])
def test_the_bundled_scenario_is_its_recursion_visit_by_visit(seed):
    model = parse_scenario(bundled.scenario_text())
    model = dataclasses.replace(model, run=dataclasses.replace(model.run, seed=seed))
    assert model.run.series_enabled and model.run.stop.n == model.classes[0].max_requests
    check_against_the_recursion(model)


def test_a_session_forwarded_at_the_instant_its_place_frees_finds_it_taken():
    # Equal deterministic demands: a session queued at r0 leaves it at the
    # instant its predecessor leaves r1. The engine scheduled the queued
    # session's departure first, so it applies it first, and r1, with no
    # room, is still busy: "the departure frees its place first" would
    # drop none of these sessions.
    stations = (ResourceSpec(name="r0", queue_capacity=INFINITE), ResourceSpec(name="r1", queue_capacity=0))
    demand = Distribution.deterministic(1.0)
    cls = WorkloadClass(
        name="w", arrival=Distribution.exponential(2.0), path=(Visit("r0", demand), Visit("r1", demand)), max_requests=20
    )
    run = RunConfig(seed=5, stop=StopRule.after_requests(20), warmup=0.0, series_enabled=True)
    model = validated(ScenarioModel(name="tie", tiers=(Tier(name="t", resources=stations),), classes=(cls,), run=run))
    assert sample_path(model).drops == {"r0": 0, "r1": 10}
    check_against_the_recursion(model)


_DISTRIBUTIONS = st.one_of(
    st.floats(0.2, 5.0).map(Distribution.exponential),
    # values whose sums meet, so that events tie
    st.sampled_from([0.0, 0.25, 0.5, 1.0]).map(Distribution.deterministic),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(lambda b: Distribution.uniform(min(b), max(b))),
)


# a single server with any room, or c servers with none
_STATIONS = st.one_of(
    st.tuples(st.just(1), st.sampled_from([0, 1, 2, INFINITE])),
    st.tuples(st.integers(2, 4), st.just(0)),
)


@st.composite
def tandems(draw):
    stations = draw(st.lists(_STATIONS, min_size=1, max_size=4))
    specs = tuple(
        ResourceSpec(name=f"r{i}", replicas=c, queue_capacity=k, balancer=draw(st.sampled_from(BalancerPolicy)))
        for i, (c, k) in enumerate(stations)
    )
    path = tuple(Visit(resource=r.name, demand=draw(_DISTRIBUTIONS)) for r in specs)
    cls = WorkloadClass(name="w", arrival=draw(_DISTRIBUTIONS), path=path, max_requests=draw(st.integers(1, 40)))
    stop = draw(
        st.one_of(st.integers(1, 50).map(StopRule.after_requests), st.floats(0.1, 20.0).map(StopRule.after_time))
    )
    run = RunConfig(
        seed=draw(st.integers(0, 2**64 - 1)),
        stop=stop,
        warmup=draw(st.one_of(st.just(0.0), st.floats(0.01, 5.0))),
        series_enabled=True,
    )
    return validated(ScenarioModel(name="tandem", tiers=(Tier(name="t", resources=specs),), classes=(cls,), run=run))


@settings(max_examples=200, deadline=None)
@given(tandems())
def test_one_class_tandems_are_their_recursion(model):
    check_against_the_recursion(model)
