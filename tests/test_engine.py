"""Event-loop semantics: admission, queueing, dropping, forwarding,
stop rules, and determinism."""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import re
import sys

import numpy
import pytest

from tiersim import (
    END_TO_END,
    INFINITE,
    BalancerPolicy,
    Distribution,
    DomainError,
    Engine,
    InternalError,
    ResourceSpec,
    RunConfig,
    ScenarioModel,
    StopRule,
    Stream,
    Tier,
    Visit,
    WorkloadClass,
    parse_scenario,
    report_to_json,
    simulate,
    validate,
)
from tiersim import bundled, runs
from tiersim.metrics import UNVISITED, ResourceAccumulator, finalize
from pycalls import python_calls
from randscen import random_scenario
from refengine import ReferenceEngine, snapshot, step, terminals


def station(
    *,
    arrival: Distribution,
    service: Distribution,
    replicas: int = 1,
    capacity: float = INFINITE,
    policy: BalancerPolicy = BalancerPolicy.JSQ,
    stop: StopRule = StopRule.after_requests(5),
    max_requests: float = math.inf,
    warmup: float = 0.0,
    series: bool = False,
    seed: int = 1,
) -> ScenarioModel:
    model = ScenarioModel(
        name="station-test",
        tiers=(
            Tier(
                name="t",
                resources=(ResourceSpec(name="A", replicas=replicas, queue_capacity=capacity, balancer=policy),),
            ),
        ),
        classes=(
            WorkloadClass(name="w", arrival=arrival, path=(Visit(resource="A", demand=service),), max_requests=max_requests),
        ),
        run=RunConfig(seed=seed, stop=stop, warmup=warmup, series_enabled=series),
    )
    assert validate(model) == ()
    return model


def two_stage(
    *,
    service_a: Distribution,
    service_b: Distribution,
    capacity_b: float,
    arrival: Distribution,
    stop: StopRule,
    max_requests: float = math.inf,
) -> ScenarioModel:
    model = ScenarioModel(
        name="two-stage",
        tiers=(
            Tier(
                name="t",
                resources=(
                    ResourceSpec(name="A"),
                    ResourceSpec(name="B", queue_capacity=capacity_b),
                ),
            ),
        ),
        classes=(
            WorkloadClass(
                name="w",
                arrival=arrival,
                path=(Visit(resource="A", demand=service_a), Visit(resource="B", demand=service_b)),
                max_requests=max_requests,
            ),
        ),
        run=RunConfig(seed=1, stop=stop),
    )
    assert validate(model) == ()
    return model


def test_no_queueing_hand_case():
    # arrivals every 1.0 starting at 1.0, each served in 0.5
    report = simulate(
        station(arrival=Distribution.deterministic(1.0), service=Distribution.deterministic(0.5))
    )
    m = report.resources["A"]
    assert report.elapsed == 5.5
    assert (report.generated, report.completed, report.dropped, report.in_flight) == (5, 5, 0, 0)
    assert m.avg_waiting == 0.0
    assert m.avg_service == 0.5
    assert m.avg_response == 0.5
    assert m.utilization == 2.5 / 5.5
    assert m.p_idle == 1.0 - 2.5 / 5.5
    assert m.p_drop == 0.0


def test_queueing_hand_case():
    # arrivals every 0.5, service takes 1.0: the k-th session waits (k-1)/2
    report = simulate(
        station(arrival=Distribution.deterministic(0.5), service=Distribution.deterministic(1.0))
    )
    m = report.resources["A"]
    c = report.classes["w"]
    assert report.elapsed == 5.5
    assert m.avg_waiting == pytest.approx(1.0, abs=1e-12)
    assert m.avg_service == pytest.approx(1.0, abs=1e-12)
    assert m.avg_response == pytest.approx(2.0, abs=1e-12)
    assert m.utilization == pytest.approx(5.0 / 5.5, abs=1e-12)
    # session responses are 1.0, 1.5, 2.0, 2.5, 3.0
    assert c.mean_response == pytest.approx(2.0, abs=1e-12)
    assert c.p50_response == pytest.approx(2.0, abs=1e-12)
    assert c.p95_response == pytest.approx(3.0, abs=1e-12)
    # arrivals keep flowing while the first five are served: sessions
    # 6..10 (arrivals 3.0..5.0) are still queued at the stop, adding
    # 7.5 to the occupancy area on top of the 10.0 from the finishers
    assert report.generated == 10
    assert report.in_flight == 5
    assert m.mean_in_system == pytest.approx(17.5 / 5.5, abs=1e-12)


def test_blocking_hand_case_and_tie_order():
    # no waiting slots, arrivals every 0.25, service 1.0: only the
    # sessions that find the server idle survive. At t=1.25 a completion
    # and an arrival coincide; the completion was scheduled first, so
    # the arrival finds the server free and is admitted.
    report = simulate(
        station(
            arrival=Distribution.deterministic(0.25),
            service=Distribution.deterministic(1.0),
            capacity=0,
            stop=StopRule.after_requests(8),
        )
    )
    m = report.resources["A"]
    assert report.elapsed == 2.25
    assert (report.generated, report.completed, report.dropped) == (8, 2, 6)
    assert (m.offered, m.served, m.dropped) == (8, 2, 6)
    assert m.p_drop == 0.75
    assert report.classes["w"].dropped == 6


def test_step_exposes_the_event_sequence():
    eng = Engine(
        station(
            arrival=Distribution.deterministic(0.25),
            service=Distribution.deterministic(1.0),
            capacity=0,
            stop=StopRule.after_requests(8),
        )
    )
    seen = [step(eng) for _ in range(6)]
    assert [(e.time, e.kind) for e in seen] == [
        (0.25, "arrival"),
        (0.50, "arrival"),
        (0.75, "arrival"),
        (1.00, "arrival"),
        (1.25, "service_complete"),
        (1.25, "arrival"),
    ]
    done = seen[4]
    assert done.resource == "A"
    assert done.replica == 0
    assert done.arrival_time == 0.25  # the first session
    assert done.class_name == "w"
    assert eng.clock == 1.25
    snap = snapshot(eng, "A")
    assert snap.busy == (True,)  # the 1.25 arrival went straight into service
    assert snap.dropped == 3


def test_drop_kills_the_whole_session_and_is_charged_to_the_refuser():
    report = simulate(
        two_stage(
            service_a=Distribution.deterministic(0.2),
            service_b=Distribution.deterministic(10.0),
            capacity_b=0,
            arrival=Distribution.deterministic(1.0),
            stop=StopRule.after_requests(3),
            max_requests=3,
        )
    )
    a, b = report.resources["A"], report.resources["B"]
    assert (a.offered, a.served, a.dropped) == (3, 3, 0)
    assert (b.offered, b.served, b.dropped) == (3, 1, 2)
    assert b.p_drop == pytest.approx(2 / 3, abs=1e-12)
    assert (report.completed, report.dropped, report.in_flight) == (1, 2, 0)
    assert report.elapsed == 11.2  # the one survivor finishing B


def test_same_timestamp_forwarding_between_visits():
    report = simulate(
        two_stage(
            service_a=Distribution.deterministic(0.5),
            service_b=Distribution.deterministic(0.25),
            capacity_b=INFINITE,
            arrival=Distribution.deterministic(1.0),
            stop=StopRule.after_requests(1),
            max_requests=1,
        )
    )
    # A runs [1.0, 1.5], B runs [1.5, 1.75]: no gap, no wait at B
    assert report.elapsed == 1.75
    assert report.resources["B"].avg_waiting == 0.0
    assert report.classes["w"].mean_response == 0.75


def test_warmup_clips_busy_time_and_skips_early_samples():
    report = simulate(
        station(
            arrival=Distribution.deterministic(2.0),
            service=Distribution.deterministic(1.0),
            stop=StopRule.after_time(12.0),
            warmup=5.0,
        )
    )
    m = report.resources["A"]
    assert report.elapsed == 12.0
    assert report.warmup == 5.0
    # busy [6,7], [8,9], [10,11] inside the window [5,12]; the arrival
    # at t=12 is admitted but contributes no busy time yet
    assert m.utilization == pytest.approx(3.0 / 7.0, abs=1e-12)
    assert m.offered == 6
    assert m.served == 5
    assert m.in_service_at_stop == 1
    assert m.avg_service == pytest.approx(1.0, abs=1e-12)
    assert m.avg_waiting == 0.0
    assert report.in_flight == 1
    assert report.in_flight == m.queued_at_stop + m.in_service_at_stop


# The window's edges, with hand-computed values: every input is a small
# integer, so each figure below is exact and compared with ==.


@pytest.mark.parametrize("replicas", [1, 2])
def test_a_visit_enqueued_at_warmup_is_inside_the_window(replicas):
    # arrivals at 2, 4, ..., 12, each served at once for 1.0; the one at
    # 4 arrives and starts service exactly at warmup
    report = simulate(
        station(
            arrival=Distribution.deterministic(2.0),
            service=Distribution.deterministic(1.0),
            replicas=replicas,
            stop=StopRule.after_time(12.0),
            warmup=4.0,
            series=True,
        )
    )
    m = report.resources["A"]
    # window [4, 12]: busy [4,5], [6,7], [8,9], [10,11], and the service
    # begun at 12 adds nothing; empty [5,6], [7,8], [9,10], [11,12]
    assert m.utilization == 4.0 / (replicas * 8.0)
    assert m.mean_in_system == 0.5
    assert m.p_idle == 0.5
    assert m.avg_waiting == 0.0
    assert m.avg_service == 1.0
    assert [t for _, t, _ in report.resource_series] == [4.0, 6.0, 8.0, 10.0]
    assert (m.offered, m.served, m.in_service_at_stop) == (6, 5, 1)


def test_a_warmup_past_the_stop_clock_leaves_an_empty_window():
    report = simulate(
        station(
            arrival=Distribution.deterministic(1.0),
            service=Distribution.deterministic(0.5),
            replicas=2,
            stop=StopRule.after_requests(4),
            warmup=5.0,
            series=True,
        )
    )
    m = report.resources["A"]
    assert report.elapsed == 4.5
    assert m.p_idle == 1.0
    assert m.utilization == 0.0
    assert m.mean_in_system == 0.0
    assert (m.avg_waiting, m.avg_service, m.avg_response) == (0.0, 0.0, 0.0)
    assert report.resource_series == report.end_to_end_series == ()
    assert report.classes["w"].mean_response == 0.0
    # counts are raw: the four sessions are served, counted and completed
    assert (m.offered, m.served, report.completed) == (4, 4, 4)


def test_drops_before_warmup_still_count():
    # no waiting slots: the arrival at 1 holds the server over [1, 9],
    # and those at 2, 3 and 4 are dropped, all before warmup at 5
    report = simulate(
        station(
            arrival=Distribution.deterministic(1.0),
            service=Distribution.deterministic(8.0),
            capacity=0,
            max_requests=4,
            stop=StopRule.after_time(7.0),
            warmup=5.0,
        )
    )
    m = report.resources["A"]
    assert m.p_drop == 0.75
    assert (m.offered, m.served, m.dropped, m.queued_at_stop, m.in_service_at_stop) == (4, 0, 3, 0, 1)
    assert m.offered == m.served + m.dropped + m.queued_at_stop + m.in_service_at_stop
    assert (report.generated, report.completed, report.dropped, report.in_flight) == (4, 0, 3, 1)
    # the window [5, 7] is all busy and holds no sample
    assert (m.utilization, m.p_idle, m.mean_in_system) == (1.0, 0.0, 1.0)
    assert m.avg_waiting == 0.0


def test_after_time_reports_the_horizon_as_elapsed():
    report = simulate(
        station(
            arrival=Distribution.deterministic(2.0),
            service=Distribution.deterministic(1.0),
            stop=StopRule.after_time(9.5),
        )
    )
    assert report.elapsed == 9.5
    assert report.generated == 4  # arrivals at 2, 4, 6, 8


def test_max_requests_bounds_generation():
    report = simulate(
        station(
            arrival=Distribution.deterministic(0.5),
            service=Distribution.deterministic(0.1),
            max_requests=7,
            stop=StopRule.after_requests(100),
        )
    )
    assert report.generated == 7
    assert report.completed + report.dropped == 7
    assert report.in_flight == 0


def test_zero_traffic_window():
    report = simulate(
        station(
            arrival=Distribution.deterministic(1e9),
            service=Distribution.deterministic(1.0),
            stop=StopRule.after_time(10.0),
        )
    )
    m = report.resources["A"]
    assert report.generated == 0
    assert m.offered == 0
    assert m.utilization == 0.0
    assert m.p_idle == 1.0
    assert m.p_drop == 0.0
    assert m.avg_response == 0.0
    assert m.mean_in_system == 0.0


def test_stepping_drains_the_event_list():
    eng = Engine(
        station(
            arrival=Distribution.deterministic(1.0),
            service=Distribution.deterministic(0.5),
            max_requests=2,
            stop=StopRule.after_requests(50),
        )
    )
    events = 0
    while eng._heap:
        step(eng)
        events += 1
    assert events == eng.events_applied == 4  # two arrivals, two completions


def test_engine_cannot_be_driven_after_finalize():
    model = station(arrival=Distribution.deterministic(1.0), service=Distribution.deterministic(0.5))
    eng = Engine(model)
    eng.run()
    with pytest.raises(InternalError):
        eng.run()


def test_an_event_before_the_clock_is_an_internal_error():
    # validate() refuses a negative demand; unchecked, the first service
    # would end a second before its own start
    model = station(arrival=Distribution.exponential(1.0), service=Distribution.deterministic(0.0))
    visit = Visit(resource="A", demand=Distribution.deterministic(-1.0))
    model = dataclasses.replace(model, classes=(dataclasses.replace(model.classes[0], path=(visit,)),))
    assert validate(model)
    with pytest.raises(InternalError, match=r"^event time \S+ precedes clock \S+$"):
        Engine(model).run()


def _visits_a(name: str, arrival: Distribution, demand: Distribution, max_requests: float = math.inf) -> WorkloadClass:
    return WorkloadClass(name=name, arrival=arrival, path=(Visit(resource="A", demand=demand),), max_requests=max_requests)


def _unvalidated(*classes: WorkloadClass, seed: int = 1) -> ScenarioModel:
    """station()'s model with ``classes`` in place of its own, each
    visiting its one resource "A"; validate() may refuse them."""
    model = station(arrival=Distribution.deterministic(1.0), service=Distribution.deterministic(1.0), seed=seed)
    return dataclasses.replace(model, classes=classes)


def test_a_first_arrival_before_the_clock_is_refused_when_the_engine_is_built():
    model = _unvalidated(_visits_a("w", Distribution.deterministic(-1.0), Distribution.deterministic(1.0)))
    with pytest.raises(InternalError) as found:
        Engine(model)
    assert str(found.value) == "event time -1.0 precedes clock 0.0"


@pytest.mark.parametrize(
    "model, line",
    [
        # the first two gaps are >= 0, the third negative
        (
            _unvalidated(
                _visits_a("c", Distribution.uniform(-1.0, 1.0), Distribution.deterministic(1.0), max_requests=5), seed=2
            ),
            "event time 0.009789436066675705 precedes clock 0.613391562567416",
        ),
        # y waits behind x's service, which ends at 6; its own would end at 5
        (
            _unvalidated(
                _visits_a("x", Distribution.deterministic(1.0), Distribution.deterministic(5.0), max_requests=1),
                _visits_a("y", Distribution.deterministic(2.0), Distribution.deterministic(-1.0), max_requests=1),
            ),
            "event time 5.0 precedes clock 6.0",
        ),
        (
            _unvalidated(_visits_a("w", Distribution.deterministic(1.0), Distribution.deterministic(math.nan))),
            "scheduled event time is not finite: nan",
        ),
    ],
    ids=["next-arrival", "queued-start", "nan-demand"],
)
def test_each_push_site_refuses_a_time_before_the_clock_or_not_finite(model, line):
    engine = Engine(model)
    with pytest.raises(InternalError) as found:
        engine.run()
    assert str(found.value) == line


def test_simulate_equals_engine_run():
    model = random_scenario(3)
    assert report_to_json(simulate(model)) == report_to_json(Engine(model).run())


def test_same_seed_is_byte_identical_different_seed_is_not():
    base = random_scenario(11)
    model = dataclasses.replace(base, run=dataclasses.replace(base.run, series_enabled=True))
    assert report_to_json(simulate(model)) == report_to_json(simulate(model))

    # a saturated station is sensitive to every draw
    hot = station(
        arrival=Distribution.exponential(2.0),
        service=Distribution.exponential(1.0),
        capacity=2,
        stop=StopRule.after_requests(500),
        seed=7,
    )
    other = dataclasses.replace(hot, run=dataclasses.replace(hot.run, seed=8))
    assert report_to_json(simulate(hot)) != report_to_json(simulate(other))


def test_single_replica_ignores_balancer_policy():
    texts = []
    for policy in (BalancerPolicy.JSQ, BalancerPolicy.ROUND_ROBIN, BalancerPolicy.RANDOM):
        model = station(
            arrival=Distribution.exponential(3.0),
            service=Distribution.exponential(2.0),
            capacity=1,
            policy=policy,
            stop=StopRule.after_requests(300),
            seed=5,
        )
        texts.append(report_to_json(simulate(model)))
    assert texts[0] == texts[1] == texts[2]


def test_policies_agree_on_when_to_refuse():
    # with no waiting room, refusal depends only on how many replicas
    # are busy, so deterministic traffic drops identically under every
    # policy even though placements differ
    counts = []
    for policy in (BalancerPolicy.JSQ, BalancerPolicy.ROUND_ROBIN, BalancerPolicy.RANDOM):
        model = station(
            arrival=Distribution.deterministic(0.3),
            service=Distribution.deterministic(1.0),
            replicas=3,
            capacity=0,
            policy=policy,
            stop=StopRule.after_requests(40),
            seed=9,
        )
        report = simulate(model)
        counts.append((report.completed, report.dropped))
    assert counts[0] == counts[1] == counts[2]


def test_capacity_ceiling_is_never_exceeded():
    model = station(
        arrival=Distribution.exponential(5.0),
        service=Distribution.exponential(1.0),
        replicas=3,
        capacity=2,
        policy=BalancerPolicy.RANDOM,
        stop=StopRule.after_requests(400),
        seed=13,
    )
    eng = Engine(model)
    while terminals(eng) < 400:
        step(eng)
        snap = snapshot(eng, "A")
        assert snap.in_system <= 5
        assert sum(snap.queue_lengths) <= 2
        assert sum(snap.busy) + sum(snap.queue_lengths) == snap.in_system


def _overloaded(policy: BalancerPolicy, capacity: float) -> ScenarioModel:
    """Three replicas offered 5/3 of what they serve, so the waiting room fills."""
    return station(
        arrival=Distribution.exponential(5.0),
        service=Distribution.exponential(1.0),
        replicas=3,
        capacity=capacity,
        policy=policy,
        stop=StopRule.after_requests(400),
        seed=13,
    )


def _arrivals(eng: Engine):
    """Step to the stop count; for each arrival yield the backlogs the
    resource held before it and after it, whether its two waiting slots
    were full before it, and whether it was dropped."""

    def backlogs(snap):
        return [busy + queued for busy, queued in zip(snap.busy, snap.queue_lengths)]

    while terminals(eng) < 400:
        before = snapshot(eng, "A")
        if step(eng).kind == "arrival":
            after = snapshot(eng, "A")
            yield backlogs(before), backlogs(after), sum(before.queue_lengths) >= 2, after.dropped > before.dropped


def test_refuses_only_at_the_hard_ceiling():
    for policy in (BalancerPolicy.JSQ, BalancerPolicy.ROUND_ROBIN, BalancerPolicy.RANDOM):
        outcomes = set()
        for before, after, full, dropped in _arrivals(Engine(_overloaded(policy, 2))):
            assert dropped == (full and 0 not in before), policy
            assert (after == before) == dropped, policy
            outcomes.add((full, dropped))
        # every branch ran: room, full with an idle replica, refused
        assert outcomes == {(False, False), (True, False), (True, True)}, policy


def test_infinite_waiting_room_never_refuses():
    for policy in (BalancerPolicy.JSQ, BalancerPolicy.ROUND_ROBIN, BalancerPolicy.RANDOM):
        m = simulate(_overloaded(policy, INFINITE)).resources["A"]
        assert m.dropped == 0 and m.avg_waiting > 0, policy


def test_a_refused_request_leaves_the_round_robin_sequence_unchanged():
    cursor = 0
    refused = fell_forward = 0
    for before, after, full, dropped in _arrivals(Engine(_overloaded(BalancerPolicy.ROUND_ROBIN, 2))):
        if dropped:
            refused += 1
            continue
        (placed,) = [r for r in range(3) if after[r] == before[r] + 1]
        if full and before[cursor]:
            fell_forward += 1
            cursor = next(r % 3 for r in range(cursor, cursor + 3) if not before[r % 3])
        assert placed == cursor
        cursor = (cursor + 1) % 3
    assert refused and fell_forward


def built_streams(monkeypatch) -> list[Stream]:
    """Every stream the engine and the selectors build from here on."""
    built = []

    class RecordedStream(Stream):
        __slots__ = ()

        def __init__(self, master_seed, consumer):
            super().__init__(master_seed, consumer)
            built.append(self)

    monkeypatch.setattr("tiersim.engine.Stream", RecordedStream)
    # a random selector builds its own balance stream
    monkeypatch.setattr("tiersim.balancer.Stream", RecordedStream)
    return built


def test_a_refused_request_draws_nothing(monkeypatch):
    streams = built_streams(monkeypatch)
    m = simulate(_overloaded(BalancerPolicy.RANDOM, 2)).resources["A"]
    assert m.dropped > 0
    (balance,) = [s for s in streams if s.consumer == "resource:A:balance"]
    assert balance.draws == m.offered - m.dropped


def test_arrivals_come_from_the_documented_stream():
    seed = 77
    rate = 3.0
    probe = Stream(seed, "class:w:arrival")
    first = -math.log1p(-probe.uniform01()) / rate
    eng = Engine(
        station(
            arrival=Distribution.exponential(rate),
            service=Distribution.deterministic(1.0),
            seed=seed,
        )
    )
    assert step(eng).time == first


def test_service_draws_come_from_the_documented_stream():
    seed = 78
    mu = 2.0
    probe = Stream(seed, "resource:A:service")
    first_service = -math.log1p(-probe.uniform01()) / mu
    eng = Engine(
        station(
            arrival=Distribution.deterministic(1.0),
            service=Distribution.exponential(mu),
            seed=seed,
        )
    )
    step(eng)  # arrival at 1.0 starts service immediately
    done = step(eng)
    while done.kind != "service_complete":  # later arrivals may pop first
        done = step(eng)
    assert done.time == 1.0 + first_service


@pytest.mark.parametrize(
    "second", [Distribution.exponential(2.0), Distribution.uniform(0.1, 0.3)], ids=["equal-demand", "mixed-demands"]
)
def test_a_resource_visited_with_one_demand_draws_finished_variates(second):
    # equal or mixed, each visit's demand draws through a C callable over
    # the resource's one service stream, in the order the visits draw
    first = Distribution.exponential(2.0)
    base = station(arrival=Distribution.exponential(1.0), service=first, seed=79)
    cls = dataclasses.replace(base.classes[0], path=(Visit(resource="A", demand=first), Visit(resource="A", demand=second)))
    eng = Engine(dataclasses.replace(base, classes=(cls,)))
    (_, _, cr, _, _) = eng._heap[0]  # the class's pending arrival
    (_, draw_first), (_, draw_second) = cr.path
    assert python_calls(cr.sample_arrival) == 0  # Engine() drew the first arrival
    probe = Stream(79, "resource:A:service")
    scalar = {
        draw_first: lambda u: -math.log1p(-u) / 2.0,
        draw_second: (lambda u: -math.log1p(-u) / 2.0) if second == first else (lambda u: 0.1 + (0.3 - 0.1) * u),
    }
    pattern = [draw_first, draw_second, draw_second, draw_first] * 10  # past the first batch
    assert [draw() for draw in pattern] == [scalar[draw](probe.uniform01()) for draw in pattern]
    assert python_calls(draw_first) == python_calls(draw_second) == 0


def test_little_self_consistency_on_unbounded_station():
    model = station(
        arrival=Distribution.exponential(0.8),
        service=Distribution.exponential(1.0),
        stop=StopRule.after_requests(30000),
        seed=21,
    )
    report = simulate(model)
    m = report.resources["A"]
    throughput = report.completed / report.elapsed
    assert m.mean_in_system == pytest.approx(throughput * m.avg_response, rel=0.05)


def test_fresh_engine_snapshot_is_empty():
    eng = Engine(station(arrival=Distribution.deterministic(1.0), service=Distribution.deterministic(1.0)))
    snap = snapshot(eng, "A")
    assert snap.busy == (False,)
    assert snap.queue_lengths == (0,)
    assert snap.in_system == 0
    assert (snap.offered, snap.served, snap.dropped) == (0, 0, 0)
    assert len(eng._heap) == 1  # the first arrival


def test_only_streams_that_draw_key_a_generator(monkeypatch):
    doc = json.loads(bundled.read("webservices.json"))
    # one visited multi-replica resource under each policy: only random draws
    for spec, policy in zip(doc["tiers"][1]["resources"], ("random", "jsq", "round_robin")):
        spec.update(replicas=3, balancer=policy)
    idle = [{"name": f"Idle{i}", "replicas": 1, "queue_capacity": 0} for i in range(100)]
    doc["tiers"].append({"name": "unvisited", "resources": idle})
    model = parse_scenario(json.dumps(doc))

    streams = built_streams(monkeypatch)
    keyed = []
    philox = numpy.random.Philox

    def counting_philox(*args, **kwargs):
        keyed.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(numpy.random, "Philox", counting_philox)
    eng = Engine(model)
    eng.run()

    # only visited resources get runtime state and streams; the idle ones get neither
    visited = {v.resource for cls in model.classes for v in cls.path}
    assert len(visited) == len(model.resources()) - len(idle)
    assert set(eng.accumulator.resources) == visited
    multi = [r for r in model.resources() if r.name in visited and r.replicas > 1]
    balanced = {r.name for r in multi if r.balancer is BalancerPolicy.RANDOM}
    assert len(multi) == 3 and len(balanced) == 1
    assert len(streams) == len(visited) + len(model.classes) + len(balanced)
    balance = {s.consumer for s in streams if s.consumer.endswith(":balance")}
    assert balance == {f"resource:{name}:balance" for name in balanced}
    assert not any(s.consumer.startswith("resource:Idle") for s in streams)
    assert len(keyed) == sum(s.draws > 0 for s in streams)


@pytest.mark.parametrize("workers", [1, 2], ids=["one-worker", "forked"])
def test_keying_reads_no_os_entropy(monkeypatch, workers):
    # one worker runs both models here; forked, each order puts each
    # model once here and once in the child
    bundled_model = parse_scenario(bundled.scenario_text())
    balanced = station(
        arrival=Distribution.exponential(5.0),
        service=Distribution.exponential(1.0),
        replicas=3,
        capacity=2,
        policy=BalancerPolicy.RANDOM,
        stop=StopRule.after_requests(400),
        seed=35,
    )
    assert simulate(balanced).resources["A"].served > 0  # so its balance stream draws
    batches = [(bundled_model, balanced), (balanced, bundled_model)]
    expected = [[report_to_json(Engine(model).run()) for model in batch] for batch in batches]

    def refuse(*args):
        raise AssertionError("read OS entropy")

    monkeypatch.setattr(numpy.random.bit_generator, "randbits", refuse)
    with pytest.raises(AssertionError, match="OS entropy"):
        numpy.random.Philox(key=1)  # the patch bites where a SeedSequence is built
    monkeypatch.setattr(runs, "usable_cpus", lambda: workers)
    for batch, want in zip(batches, expected):
        assert [report_to_json(report) for report in runs.run_models(batch)] == want


def with_idle_tier(stop: StopRule, warmup: float) -> ScenarioModel:
    """The bundled scenario plus a tier of resources no class visits,
    one with a single replica and one with three."""
    doc = json.loads(bundled.read("webservices.json"))
    doc["tiers"].insert(
        1,
        {
            "name": "unvisited",
            "resources": [{"name": "Idle1", "replicas": 1}, {"name": "Idle3", "replicas": 3, "queue_capacity": 2}],
        },
    )
    model = parse_scenario(json.dumps(doc))
    return dataclasses.replace(model, run=dataclasses.replace(model.run, stop=stop, warmup=warmup))


@pytest.mark.parametrize(
    "stop, warmup",
    [(StopRule.after_requests(200), 0.0), (StopRule.after_requests(200), 1e6), (StopRule.after_time(4.0), 1.0)],
    ids=["warmup-0", "warmup-past-elapsed", "after-time"],
)
def test_an_unvisited_resource_reports_the_constant_row(stop, warmup):
    model = with_idle_tier(stop, warmup)
    eng = Engine(model)
    report = eng.run()
    assert list(report.resources) == [r.name for r in model.resources()]
    for name in ("Idle1", "Idle3"):
        assert report.resources[name] is UNVISITED
    if warmup == 1e6:
        assert report.elapsed < warmup

    # the constant is what the accumulator arithmetic gives a resource
    # that was never offered a request
    acc = eng.accumulator
    for name, replicas in (("Idle1", 1), ("Idle3", 3)):
        idle = ResourceAccumulator(name, replicas, acc.model.run.warmup)
        idle.close(report.elapsed, acc.model.run.warmup, [], 0)
        acc.resources[name] = idle
    computed = finalize(acc, report.elapsed)
    assert computed.resources["Idle1"] == computed.resources["Idle3"] == UNVISITED
    assert report_to_json(computed) == report_to_json(report)


def test_snapshot_of_an_unvisited_resource_is_all_idle():
    eng = Engine(with_idle_tier(StopRule.after_requests(200), 0.0))
    for _ in range(50):
        step(eng)
    snap = snapshot(eng, "Idle3")
    assert snap.busy == (False, False, False)
    assert snap.queue_lengths == (0, 0, 0)
    assert (snap.in_system, snap.offered, snap.served, snap.dropped) == (0, 0, 0, 0)
    assert snapshot(eng, "Idle1").busy == (False,)
    with pytest.raises(KeyError):
        snapshot(eng, "nope")


def test_clock_overflow_in_a_valid_model_is_an_internal_error():
    # validate() checks parameters, not the clock: gaps near 1e307 push
    # the arrival clock past the float maximum within a few dozen draws.
    # Demands near 1 vanish at such a clock long before that, which is a
    # domain error (see the lost-demand test below)
    model = station(
        arrival=Distribution.exponential(1e-307),
        service=Distribution.exponential(1.0),
        stop=StopRule.after_requests(50),
    )
    with pytest.raises(DomainError, match="^resource 'A': a service demand of .* was lost to the clock at "):
        Engine(model).run()
    # demands that survive at 1e307: near 1e300, or 0, which ends where it starts
    for service in (Distribution.exponential(1e-300), Distribution.deterministic(0.0)):
        model = station(arrival=Distribution.exponential(1e-307), service=service, stop=StopRule.after_requests(50))
        with pytest.raises(InternalError, match="scheduled event time is not finite: inf"):
            Engine(model).run()
    # the second request waits behind the first, whose service ends at
    # 1e308, so its own service would end past the float maximum
    model = station(
        arrival=Distribution.deterministic(1.0),
        service=Distribution.deterministic(1e308),
        max_requests=2,
        stop=StopRule.after_requests(2),
    )
    with pytest.raises(InternalError, match="scheduled event time is not finite: inf"):
        Engine(model).run()


def _lost_demand_models():
    # at admission: arrivals near 1e307 and demands near 1
    yield station(
        arrival=Distribution.exponential(1e-307), service=Distribution.exponential(1.0), stop=StopRule.after_requests(50)
    )
    # at a queued start: a demand of 1 waits behind one of 1e300, so it
    # starts at 1 + 1e300, where adding 1 changes nothing
    model = station(arrival=Distribution.deterministic(1.0), service=Distribution.deterministic(1e300), max_requests=1)
    small = WorkloadClass(
        name="small",
        arrival=Distribution.deterministic(2.0),
        path=(Visit(resource="A", demand=Distribution.deterministic(1.0)),),
        max_requests=1,
    )
    yield dataclasses.replace(model, classes=(*model.classes, small))


@pytest.mark.parametrize("model", list(_lost_demand_models()), ids=["at-admission", "at-queued-start"])
def test_a_service_demand_lost_to_the_clock_is_a_domain_error(model):
    # once the clock is past 2**53 times a demand, now + demand == now:
    # the service would take no time, so the run stops instead
    assert validate(model) == ()
    with pytest.raises(DomainError) as found:
        Engine(model).run()
    assert re.fullmatch(
        r"resource 'A': a service demand of \S+ was lost to the clock at \S+, as is the visit's mean demand 1.0",
        str(found.value),
    )
    with pytest.raises(DomainError) as reference:
        ReferenceEngine(model).run()
    assert str(reference.value) == str(found.value)


def test_a_lone_draw_the_clock_absorbs_ends_where_it_starts():
    # a gap of 1e11 puts the clock near 2e14 within 2000 sessions, where a
    # draw below about 0.016 is absorbed, but a mean demand of 1 is not:
    # as in any long run, a few draws far below the mean take no time
    model = station(
        arrival=Distribution.deterministic(1e11),
        service=Distribution.exponential(1.0),
        max_requests=2000,
        stop=StopRule.after_requests(2000),
        series=True,
    )
    report = Engine(model).run()
    assert sum(1 for _, _, response in report.resource_series if response == 0.0) == 16
    assert report.resources["A"].avg_service == pytest.approx(1.0, rel=0.05)
    assert report_to_json(ReferenceEngine(model).run()) == report_to_json(report)


def test_maintained_backlogs_match_busy_plus_queue_after_every_step():
    cases = [random_scenario(case) for case in range(100)]
    multi = [r for model in cases for r in model.resources() if r.replicas > 1]
    assert {r.balancer for r in multi} == set(BalancerPolicy)
    for model in cases:
        whole = Engine(model)
        whole.run()
        eng = Engine(model)
        for _ in range(whole.events_applied):
            step(eng)
            for name, res in eng.accumulator.resources.items():
                snap = snapshot(eng, name)
                assert res.backlogs == [busy + queued for busy, queued in zip(snap.busy, snap.queue_lengths)], (
                    model.name,
                    name,
                    eng.clock,
                )


def _calls_per_event(model: ScenarioModel) -> float:
    """Python and builtin calls made by Engine.run(), per event applied."""
    eng = Engine(model)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        eng.run()
    finally:
        sys.setprofile(None)
    return calls / eng.events_applied


def test_calls_per_event_stay_bounded():
    # Exact counts for a fixed seed, no wall clock: a regrowth of the
    # per-event call chain fails here before it shows as lost speed.
    # The counts are mm1 4.01, jsq8 4.78, round_robin 4.60, random 5.17
    # and the bundled webservices scenario with series on 3.95. One loop
    # frame applies every event, with no handler, admission or
    # accumulator frame; an arrival or service draw is one C call, and a
    # new request makes no call. What remains is heappop, heappush, the
    # draw, and a multi-replica resource's selector.
    jsq8 = station(
        arrival=Distribution.exponential(7.6),
        service=Distribution.exponential(1.0),
        replicas=8,
        capacity=0,
        policy=BalancerPolicy.JSQ,
        stop=StopRule.after_requests(5000),
    )
    mm1 = station(
        arrival=Distribution.exponential(1.0),
        service=Distribution.exponential(2.0),
        capacity=40,
        stop=StopRule.after_requests(5000),
    )
    assert _calls_per_event(jsq8) <= 6
    assert _calls_per_event(mm1) <= 5
    # the other policies' selectors, with room to queue so that both
    # the free placement and the fall-forward to an idle replica run
    for policy in (BalancerPolicy.ROUND_ROBIN, BalancerPolicy.RANDOM):
        eight = station(
            arrival=Distribution.exponential(7.6),
            service=Distribution.exponential(1.0),
            replicas=8,
            capacity=8,
            policy=policy,
            stop=StopRule.after_requests(5000),
        )
        assert _calls_per_event(eight) <= 6, policy
    # three tiers with drops, forwarding between visits and series rows
    assert _calls_per_event(webservices(5000, series=True)) <= 4


def _bytecodes_per_event(model: ScenarioModel) -> float:
    """Bytecodes run in Engine._drive frames by Engine.run(), per event applied."""
    eng = Engine(model)
    ops = 0

    def count(frame, event, arg):
        nonlocal ops
        if event == "opcode":
            ops += 1
        return count

    def enter(frame, event, arg):
        if frame.f_code is not Engine._drive.__code__:
            return None
        frame.f_trace_opcodes = True
        return count

    sys.settrace(enter)
    try:
        eng.run()
    finally:
        sys.settrace(None)
    return ops / eng.events_applied


# the compiler's output, and so the count, differs from one CPython version to the next
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="bytecode counts are pinned for CPython 3.11")
def test_bytecodes_per_event_stay_bounded():
    # Exact counts for a fixed seed: mm1 219.6 and the bundled webservices
    # scenario with series on 244.8. The loop's work per event that adds
    # no call (a counter, a field set on each request) shows here and not
    # in test_calls_per_event_stay_bounded.
    mm1 = station(
        arrival=Distribution.exponential(1.0),
        service=Distribution.exponential(2.0),
        capacity=40,
        stop=StopRule.after_requests(2000),
    )
    assert _bytecodes_per_event(mm1) <= 225
    assert _bytecodes_per_event(webservices(2000, series=True)) <= 250


def webservices(sessions: int, series: bool) -> ScenarioModel:
    """The bundled scenario, uncapped, run until ``sessions`` sessions are terminal."""
    model = parse_scenario(bundled.read("webservices.json"))
    classes = tuple(dataclasses.replace(c, max_requests=math.inf) for c in model.classes)
    run = dataclasses.replace(model.run, stop=StopRule.after_requests(sessions), series_enabled=series)
    return dataclasses.replace(model, classes=classes, run=run)


@pytest.mark.parametrize("series", [False, True], ids=["series-off", "series-on"])
def test_a_finished_run_is_freed_without_the_cyclic_collector(series):
    # numpy is already imported (at the top of this module), so the first
    # draw imports nothing that could leave cycles of its own
    model = webservices(3000, series)
    gc.collect()
    gc.disable()
    try:
        eng = Engine(model)
        eng.run()
        queued = sum(sum(snapshot(eng, r.name).queue_lengths) for r in model.resources())
        assert queued > 0  # the run stops with requests still queued
        del eng
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_each_series_row_is_the_accumulators_own_row():
    # the report reads each accumulator's own columns, not a copy of them
    eng = Engine(webservices(300, series=True))
    report = eng.run()
    acc = eng.accumulator
    columns = [(ra.name, ra.series_arrivals, ra.series_responses) for ra in acc.resources.values()]
    assert len(report.resource_series.columns) == len(columns) > 0
    for (label, arrivals, responses, n), (name, own_arrivals, own_responses) in zip(
        report.resource_series.columns, columns
    ):
        assert label == name and arrivals is own_arrivals and responses is own_responses
        assert n == len(arrivals) == len(responses) > 0
    assert list(report.resource_series) == [(name, *row) for name, a, r in columns for row in zip(a, r)]
    ((label, arrivals, responses, n),) = report.end_to_end_series.columns
    (ca,) = acc.classes.values()
    assert label == END_TO_END and arrivals is ca.series_arrivals and responses is ca.responses
    assert n == len(arrivals) == len(responses) == report.completed
    assert list(report.end_to_end_series) == [(END_TO_END, *row) for row in zip(arrivals, responses)]


def test_finalize_calls_do_not_grow_with_series_rows():
    # Exact counts, no wall clock: finalize makes 18 calls at both sizes.
    # Rebuilding each row there made about one call a row (5,633 calls at
    # 3000 sessions, 23,161 at 12,500).
    def calls(sessions: int) -> int:
        eng = Engine(webservices(sessions, series=True))
        report = eng.run()
        assert len(report.resource_series) > sessions
        return python_calls(finalize, eng.accumulator, report.elapsed)

    assert calls(3000) == calls(12_500)


def _drained(model: ScenarioModel, policy: BalancerPolicy, sessions: int) -> ScenarioModel:
    """``model`` with every balancer set to ``policy`` and every class capped
    at ``sessions``, run until each session has completed or been dropped."""
    tiers = tuple(
        dataclasses.replace(t, resources=tuple(dataclasses.replace(r, balancer=policy) for r in t.resources))
        for t in model.tiers
    )
    classes = tuple(dataclasses.replace(c, max_requests=sessions) for c in model.classes)
    stop = StopRule.after_requests(sessions * len(classes))
    return dataclasses.replace(model, tiers=tiers, classes=classes, run=RunConfig(seed=model.run.seed, stop=stop))


@pytest.mark.parametrize("policy", list(BalancerPolicy), ids=lambda p: p.value)
def test_drained_runs_satisfy_littles_law_and_the_busy_time_identity_exactly(policy):
    # With warmup 0 and every session terminal at the stop, each served
    # visit lies wholly inside the window: the occupancy area is the sum
    # of the served visits' responses, and the busy time the sum of their
    # services. Only rounding separates the two sides.
    for case in range(100):
        model = _drained(random_scenario(case), policy, sessions=40)
        report = simulate(model)
        assert report.in_flight == 0
        for name, m in report.resources.items():
            replicas = model.resource(name).replicas
            where = (model.name, name)
            assert math.isclose(m.mean_in_system * report.elapsed, m.served * m.avg_response, rel_tol=1e-12), where
            assert math.isclose(
                m.utilization * replicas * report.elapsed, m.served * m.avg_service, rel_tol=1e-12
            ), where
