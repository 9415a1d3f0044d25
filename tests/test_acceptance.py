"""Acceptance gate: one test per required behavior, one PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time

from tiersim import (
    INFINITE,
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
    export_series,
    mmck,
    parse_scenario,
    rank,
    report_to_json,
    simulate,
)
from tiersim.cli import run_sweep
from tiersim.runs import build_station_model, run_oracle_check
from randscen import random_scenario


def assert_response_identity(report) -> int:
    checked = 0
    for name, m in report.resources.items():
        gap = abs(m.avg_response - (m.avg_service + m.avg_waiting))
        assert gap <= 1e-9 * max(1.0, m.avg_response), (report.scenario, name, gap)
        checked += 1
    return checked


def test_criterion_1_response_equals_service_plus_waiting():
    reports = [simulate(parse_scenario(bundled.scenario_text()))]
    reports.append(simulate(build_station_model(1.8, 2.0, 1, 5, 20000, seed=23)))
    reports.extend(simulate(random_scenario(case)) for case in range(30))
    checked = sum(assert_response_identity(r) for r in reports)
    print(f"PASS criterion 1: avg_response == avg_service + avg_waiting on {checked} resource reports")


def test_criterion_2_station_agrees_with_the_closed_form():
    worst = 0.0
    for lam, mu, K in [(1.0, 2.0, 3), (1.8, 2.0, 5), (2.0, 2.0, 4)]:
        analytic = mmck(lam, mu, 1, K)
        rows = {name: rel for name, _, _, rel in run_oracle_check(lam, mu, 1, K, 100000, seed=23)}
        wait_tol = 0.05 if analytic.p_block > 0.5 else 0.02
        assert rows["utilization"] <= 0.02, (lam, mu, K, rows)
        assert rows["p_drop"] <= 0.02, (lam, mu, K, rows)
        assert rows["avg_waiting"] <= wait_tol, (lam, mu, K, rows)
        worst = max(worst, rows["utilization"], rows["p_drop"], rows["avg_waiting"])
    print(f"PASS criterion 2: utilization, p_drop, mean wait within 2% of mmck (worst {worst:.3%})")


def test_criterion_3_bundled_scenario_reproduces_the_drop_pattern():
    model = parse_scenario(bundled.scenario_text())
    assert model.run.stop == StopRule.after_requests(1000)

    t0 = time.perf_counter()
    report = simulate(model)
    wall = time.perf_counter() - t0
    assert wall < 1.0, f"bundled run took {wall:.2f}s"
    assert report.completed + report.dropped == 1000

    expected = {"SRS_CPU", "Internet1", "SB_CPU", "SB_Disk", "Internet2", "SP_CPU", "SP_Disk"}
    assert set(report.resources) == expected
    for m in report.resources.values():
        for value in (m.avg_response, m.avg_service, m.avg_waiting, m.p_idle, m.p_drop):
            assert isinstance(value, float) and math.isfinite(value)

    droppers = {"Internet1", "Internet2", "SP_Disk"}
    for name in droppers:
        assert report.resources[name].p_drop > 0.5, (name, report.resources[name].p_drop)
    for name in expected - droppers:
        assert report.resources[name].p_drop == 0.0, (name, report.resources[name].p_drop)

    assert set(rank(report).flagged()) == droppers
    pattern = ", ".join(f"{n}={report.resources[n].p_drop:.3f}" for n in sorted(droppers))
    print(f"PASS criterion 3: 7 resources, drops only at {pattern}, flagged exactly those ({wall * 1000:.0f} ms)")


def test_criterion_4_conservation_across_random_scenarios():
    t0 = time.perf_counter()
    for case in range(100):
        report = simulate(random_scenario(case))
        assert report.generated == report.completed + report.dropped + report.in_flight, case
        in_flight = sum(m.queued_at_stop + m.in_service_at_stop for m in report.resources.values())
        assert report.in_flight == in_flight, case
        for name, m in report.resources.items():
            assert m.offered == m.served + m.dropped + m.queued_at_stop + m.in_service_at_stop, (case, name)
    wall = time.perf_counter() - t0
    assert wall < 30.0, f"conservation sweep took {wall:.1f}s"
    print(f"PASS criterion 4: generated == completed + dropped + in_flight on 100 random scenarios ({wall:.1f}s)")


def test_criterion_5_same_seed_identical_bytes_new_seed_new_numbers():
    model = parse_scenario(bundled.scenario_text())
    first = simulate(model)
    second = simulate(model)
    assert report_to_json(first) == report_to_json(second)
    assert export_series(first) == export_series(second)

    reseeded = dataclasses.replace(model, run=dataclasses.replace(model.run, seed=model.run.seed + 1))
    assert report_to_json(simulate(reseeded)) != report_to_json(first)
    print("PASS criterion 5: byte-identical report and series under one seed; a new seed changes the metrics")


def test_criterion_6_degenerate_cases():
    roomy = build_station_model(5.0, 1.0, 2, 1, 2000, seed=11)
    roomy = dataclasses.replace(
        roomy,
        tiers=(Tier(name="station", resources=(ResourceSpec(name="station", replicas=2, queue_capacity=INFINITE),)),),
    )
    saturated_report = simulate(roomy)
    assert all(m.p_drop == 0.0 for m in saturated_report.resources.values())

    silent = ScenarioModel(
        name="silent",
        tiers=(Tier(name="t", resources=(ResourceSpec(name="A"),)),),
        classes=(
            WorkloadClass(
                name="w",
                arrival=Distribution.deterministic(1e9),
                path=(Visit(resource="A", demand=Distribution.deterministic(1.0)),),
            ),
        ),
        run=RunConfig(seed=1, stop=StopRule.after_time(10.0)),
    )
    quiet = simulate(silent).resources["A"]
    assert quiet.p_idle == 1.0
    assert quiet.utilization == 0.0
    assert quiet.avg_response == quiet.avg_service == quiet.avg_waiting == 0.0

    single = simulate(build_station_model(1.8, 2.0, 1, 5, 5000, seed=2)).resources["station"]
    assert single.utilization + single.p_idle == 1.0
    print("PASS criterion 6: infinite capacity never drops, zero traffic idles at 1.0, util + p_idle == 1 exactly")


def test_criterion_7_oracle_self_consistency():
    for lam, mu, c, K in [(1.0, 2.0, 1, 3), (1.8, 2.0, 1, 5), (2.0, 2.0, 1, 4), (6.0, 1.5, 3, 10), (0.0, 1.0, 2, 2)]:
        m = mmck(lam, mu, c, K)
        assert abs(sum(m.p_n) - 1.0) <= 1e-12
        assert abs(m.mean_in_system - m.lambda_eff * m.mean_response) <= 1e-9

    c, K, mu = 2, 5, 1.0
    balanced = mmck(c * mu, mu, c, K)
    for eps in (-1e-8, 1e-8):
        nearby = mmck(c * mu * (1.0 + eps), mu, c, K)
        assert max(abs(a - b) for a, b in zip(balanced.p_n, nearby.p_n)) <= 1e-6
    print("PASS criterion 7: state probabilities sum to 1e-12, Little holds to 1e-9, balanced load is continuous")


def test_criterion_8_drop_probability_rises_with_arrival_rate():
    model = build_station_model(1.0, 1.0, 1, 3, 4000, seed=1)
    rates = tuple(0.2 + 0.2 * i for i in range(10))  # 0.2 .. 2.0
    result = run_sweep(model, rates, replications=5, master_seed=42)

    means = []
    half_widths = []
    for rate in rates:
        drops = [r.resources["station"].p_drop for r in result.reports[rate]]
        means.append(statistics.fmean(drops))
        half_widths.append(1.96 * statistics.stdev(drops) / math.sqrt(len(drops)))

    inversions = [
        (i, means[i] - means[i + 1])
        for i in range(len(means) - 1)
        if means[i + 1] < means[i]
    ]
    assert len(inversions) <= 1, (means, inversions)
    for i, gap in inversions:
        assert gap <= half_widths[i] + half_widths[i + 1], (means, half_widths, inversions)
    print(f"PASS criterion 8: mean p_drop over 5 replications is non-decreasing across rates 0.2..2.0 ({len(inversions)} inversion(s))")


def test_criterion_9_engine_throughput():
    engine = Engine(build_station_model(1.0, 2.0, 1, 10**9, 500000, seed=3))
    t0 = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - t0
    assert engine.events_applied >= 1_000_000
    assert wall <= 5.0, f"{engine.events_applied} events took {wall:.2f}s"
    print(f"PASS criterion 9: {engine.events_applied} events in {wall:.2f}s")
