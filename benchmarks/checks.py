"""Correctness checks applied to every simulation run the benchmark makes.

Each check is an identity the report must satisfy exactly (up to float
rounding for averages), so a failure means tiersim computed something
wrong, not that the host was slow.
"""

from __future__ import annotations

from tiersim import MetricsReport

# Same tolerance as the acceptance tests use for the response identity.
_REL_TOL = 1e-9


def events_of(report: MetricsReport) -> int:
    """Events a run applied: one arrival per generated session plus one
    service completion per served visit."""
    return report.generated + sum(m.served for m in report.resources.values())


def report_problems(report: MetricsReport) -> list[str]:
    """Every identity the report breaks, as readable lines."""
    problems = []
    at_stop = sum(m.queued_at_stop + m.in_service_at_stop for m in report.resources.values())
    if report.generated != report.completed + report.dropped + report.in_flight or report.in_flight != at_stop:
        problems.append(
            f"{report.scenario}: generated {report.generated} != completed {report.completed}"
            f" + dropped {report.dropped} + in flight {report.in_flight} (held at stop: {at_stop})"
        )
    for field in ("generated", "completed", "dropped"):
        by_class = sum(getattr(c, field) for c in report.classes.values())
        if by_class != getattr(report, field):
            problems.append(f"{report.scenario}: classes sum to {by_class} {field}, totals say {getattr(report, field)}")
    for name, m in report.resources.items():
        held = m.served + m.dropped + m.queued_at_stop + m.in_service_at_stop
        if m.offered != held:
            problems.append(f"{report.scenario}/{name}: offered {m.offered} != served + dropped + queued + in service {held}")
        if abs(m.avg_response - (m.avg_service + m.avg_waiting)) > _REL_TOL * max(1.0, abs(m.avg_response)):
            problems.append(f"{report.scenario}/{name}: avg_response {m.avg_response!r} != avg_service + avg_waiting")
    return problems
