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
    UNBOUNDED,
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
from tiersim.metrics import UNVISITED
from tiersim.model import validated
from randscen import random_scenario
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
    # a report lists a resource's rows in declaration order, not path order
    declared = [r.name for r in model.resources() if r.name in path.visits]
    rows = [(name, a, d - a) for name in declared for a, _, d in path.visits[name] if a >= warmup]
    assert _bits(report.resource_series) == _bits(rows)
    kept = [(a, r) for a, r in path.ends if a >= warmup]
    assert _bits(report.end_to_end_series) == _bits((END_TO_END, a, r) for a, r in kept)
    assert {name: report.resources[name].dropped for name in path.drops} == path.drops
    for name, m in report.resources.items():
        assert name in path.drops or m is UNVISITED, name
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
# a positive mean demand that a clock of a few hundred absorbs, as one of
# 1e-300 is, makes the engine refuse the run (test_engine), not a path.
# A demand is kept if its mean is larger, or if it only ever draws 0: the
# mean of uniform(0, 5e-324) underflows to 0.0, yet it draws 5e-324
_DEMANDS = _DISTRIBUTIONS.filter(lambda d: d.mean() > 1e-9 or max(d.value, d.hi) == 0.0)


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
    # in any order, so that some tandems visit out of declaration order
    path = tuple(Visit(resource=r.name, demand=draw(_DEMANDS)) for r in draw(st.permutations(specs)))
    max_requests = draw(st.one_of(st.integers(1, 40), st.just(UNBOUNDED)))
    # an unbounded class needs a mean gap > 0; at least 0.1 keeps its run short
    arrivals = _DISTRIBUTIONS if max_requests < UNBOUNDED else _DISTRIBUTIONS.filter(lambda d: d.mean() >= 0.1)
    cls = WorkloadClass(name="w", arrival=draw(arrivals), path=path, max_requests=max_requests)
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


@settings(max_examples=300, deadline=None)
@given(tandems())
def test_one_class_tandems_are_their_recursion(model):
    check_against_the_recursion(model)


def _in_scope(model):
    """One class, each resource visited once, each a single server or c
    servers with no room."""
    if len(model.classes) != 1:
        return False
    names = [v.resource for v in model.classes[0].path]
    specs = [model.resource(name) for name in names]
    return len(set(names)) == len(names) and all(r.replicas == 1 or r.queue_capacity == 0 for r in specs)


RANDSCEN = [case for case in range(100) if _in_scope(random_scenario(case))]


def test_the_random_scenarios_in_scope_are_these():
    # 18 is unbounded; 79, 90 and 92 declare resources their class never visits
    assert RANDSCEN == [18, 40, 79, 90, 92]


@pytest.mark.parametrize("warmup", [0.0, 1.0])
@pytest.mark.parametrize("case", RANDSCEN)
def test_random_scenarios_in_scope_are_their_recursion(case, warmup):
    model = random_scenario(case)
    model = validated(dataclasses.replace(model, run=dataclasses.replace(model.run, warmup=warmup, series_enabled=True)))
    check_against_the_recursion(model)
