"""Ranking resources by waiting pressure and drop probability."""

from __future__ import annotations

import pytest

from tiersim import BottleneckReport, DomainError, rank
from tiersim.bottleneck import format_table
from tiersim.metrics import MetricsReport, ResourceMetrics


def res(avg_waiting: float, p_drop: float) -> ResourceMetrics:
    return ResourceMetrics(
        avg_response=avg_waiting + 0.01,
        avg_service=0.01,
        avg_waiting=avg_waiting,
        utilization=0.5,
        p_idle=0.5,
        p_drop=p_drop,
        mean_in_system=1.0,
        offered=1000,
        served=int(1000 * (1 - p_drop)),
        dropped=int(1000 * p_drop),
        queued_at_stop=0,
        in_service_at_stop=0,
    )


def make_report(resources: dict[str, ResourceMetrics]) -> MetricsReport:
    return MetricsReport(
        scenario="synthetic",
        seed=1,
        elapsed=100.0,
        warmup=0.0,
        generated=1000,
        completed=600,
        dropped=400,
        in_flight=0,
        resources=resources,
        classes={},
        series_enabled=False,
        resource_series=(),
        end_to_end_series=(),
    )


def seven_resource_report() -> MetricsReport:
    # shaped like the canonical three-tier run: three droppers, four
    # lightly loaded resources
    return make_report(
        {
            "SRS_CPU": res(0.0001, 0.0),
            "Internet1": res(0.150, 0.761),
            "SB_CPU": res(0.0, 0.0),
            "SB_Disk": res(0.019, 0.0),
            "Internet2": res(0.483, 0.723),
            "SP_CPU": res(0.026, 0.0),
            "SP_Disk": res(2.010, 0.789),
        }
    )


def test_flags_exactly_the_droppers():
    ranking = rank(seven_resource_report())
    assert set(ranking.flagged()) == {"Internet1", "Internet2", "SP_Disk"}


def test_orders_by_score_descending():
    ranking = rank(seven_resource_report())
    names = [e.resource for e in ranking.entries]
    # SP_Disk: 1.0 + 0.789; Internet2: 0.483/2.010 + 0.723; Internet1 next
    assert names[:3] == ["SP_Disk", "Internet2", "Internet1"]
    scores = [e.score for e in ranking.entries]
    assert scores == sorted(scores, reverse=True)
    assert ranking.entries[0].normalized_waiting == 1.0


def test_score_is_normalized_wait_plus_drop():
    ranking = rank(seven_resource_report())
    by_name = {e.resource: e for e in ranking.entries}
    e = by_name["Internet2"]
    assert e.normalized_waiting == pytest.approx(0.483 / 2.010, abs=1e-12)
    assert e.score == pytest.approx(0.483 / 2.010 + 0.723, abs=1e-12)


def test_pure_queuer_is_flagged_without_drops():
    ranking = rank(make_report({"slow": res(3.0, 0.0), "fast": res(0.1, 0.0)}))
    assert ranking.flagged() == ("slow",)


def test_pure_dropper_is_flagged_without_waiting():
    ranking = rank(make_report({"gate": res(0.0, 0.9), "other": res(1.0, 0.0)}))
    assert "gate" in ranking.flagged()


def test_threshold_boundary_is_inclusive():
    ranking = rank(make_report({"edge": res(0.0, 0.5), "w": res(1.0, 0.0)}), drop_threshold=0.5)
    assert "edge" in ranking.flagged()


def test_custom_thresholds_change_the_flag_set():
    report = seven_resource_report()
    strict = rank(report, drop_threshold=0.78, wait_threshold=0.95)
    assert set(strict.flagged()) == {"SP_Disk"}
    loose = rank(report, drop_threshold=1.0, wait_threshold=0.0)
    # normalized waiting >= 0 holds everywhere, so all are flagged
    assert len(loose.flagged()) == 7


def test_all_zero_waits_do_not_divide_by_zero():
    ranking = rank(make_report({"a": res(0.0, 0.0), "b": res(0.0, 0.2)}))
    assert all(e.normalized_waiting == 0.0 for e in ranking.entries)
    assert ranking.flagged() == ()


def test_equal_scores_order_alphabetically():
    ranking = rank(make_report({"zeta": res(1.0, 0.0), "alpha": res(1.0, 0.0)}))
    assert [e.resource for e in ranking.entries] == ["alpha", "zeta"]


def test_thresholds_outside_unit_interval_are_rejected():
    report = seven_resource_report()
    with pytest.raises(DomainError):
        rank(report, drop_threshold=-0.1)
    with pytest.raises(DomainError):
        rank(report, drop_threshold=1.5)
    with pytest.raises(DomainError):
        rank(report, wait_threshold=2.0)
    # a threshold is a number: neither a bool nor a string
    with pytest.raises(DomainError, match=r"^drop threshold must lie in \[0, 1\], got True$"):
        rank(report, drop_threshold=True)
    with pytest.raises(DomainError, match=r"^wait threshold must lie in \[0, 1\], got '0.5'$"):
        rank(report, wait_threshold="0.5")


def test_report_carries_its_thresholds():
    ranking = rank(seven_resource_report(), drop_threshold=0.4, wait_threshold=0.6)
    assert isinstance(ranking, BottleneckReport)
    assert ranking.drop_threshold == 0.4
    assert ranking.wait_threshold == 0.6


def test_table_rendering():
    text = format_table(rank(seven_resource_report()))
    lines = text.splitlines()
    assert lines[0].split() == ["Resource", "Score", "NormWaiting", "P(drop)", "Flagged"]
    assert lines[2].startswith("SP_Disk")
    assert "yes" in text and "no" in text


def test_an_infinite_wait_normalizes_to_one_where_it_is_held_and_zero_elsewhere():
    # a saved report may hold Infinity; inf / inf would make NaN scores
    # that flag nothing and sort out of order
    resources = dict(seven_resource_report().resources)
    resources["SP_CPU"] = res(float("inf"), 0.0)
    ranking = rank(make_report(resources))
    by_name = {e.resource: e for e in ranking.entries}
    assert by_name["SP_CPU"].normalized_waiting == by_name["SP_CPU"].score == 1.0
    assert by_name["SP_CPU"].flagged
    assert {e.normalized_waiting for name, e in by_name.items() if name != "SP_CPU"} == {0.0}
    assert [e.resource for e in ranking.entries][:4] == ["SP_CPU", "SP_Disk", "Internet1", "Internet2"]
    assert set(ranking.flagged()) == {"SP_CPU", "Internet1", "Internet2", "SP_Disk"}
    # every resource that holds the infinite worst wait scores 1
    resources["SB_Disk"] = res(float("inf"), 0.0)
    ranking = rank(make_report(resources))
    assert [(e.resource, e.normalized_waiting) for e in ranking.entries][:2] == [("SB_Disk", 1.0), ("SP_CPU", 1.0)]
