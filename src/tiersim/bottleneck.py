"""Bottleneck identification from a finished report.

A resource is a bottleneck candidate when sessions either pile up in
front of it or die at its door. Both symptoms are combined into one
score: the resource's average waiting time normalized by the worst
average waiting time in the run, plus its drop probability. A saved
report may hold an infinite wait; then the resources that hold it score
a normalized wait of 1 and every other resource 0, never NaN. A resource
is flagged when either symptom alone crosses its threshold (both
default to 0.5 and are CLI-overridable), so a pure dropper and a pure
queuer are both caught.

A ranking renders two ways, both here: ``format_table`` as fixed-width
text and ``format_json`` as a JSON document.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import DomainError
from .metrics import MetricsReport, table_lines
from .model import _finite, json_text

DEFAULT_DROP_THRESHOLD = 0.5
DEFAULT_WAIT_THRESHOLD = 0.5


@dataclass(frozen=True)
class BottleneckEntry:
    resource: str
    score: float
    avg_waiting: float
    normalized_waiting: float
    p_drop: float
    flagged: bool


@dataclass(frozen=True)
class BottleneckReport:
    entries: tuple[BottleneckEntry, ...]
    drop_threshold: float
    wait_threshold: float

    def flagged(self) -> tuple[str, ...]:
        return tuple(e.resource for e in self.entries if e.flagged)


def rank(
    report: MetricsReport,
    drop_threshold: float = DEFAULT_DROP_THRESHOLD,
    wait_threshold: float = DEFAULT_WAIT_THRESHOLD,
) -> BottleneckReport:
    """Score and order every resource, worst first.

    Ties in score break alphabetically by resource name so the ranking
    is total and reproducible.
    """
    if not (_finite(drop_threshold) and 0.0 <= drop_threshold <= 1.0):
        raise DomainError(f"drop threshold must lie in [0, 1], got {drop_threshold!r}")
    if not (_finite(wait_threshold) and 0.0 <= wait_threshold <= 1.0):
        raise DomainError(f"wait threshold must lie in [0, 1], got {wait_threshold!r}")

    max_wait = max((m.avg_waiting for m in report.resources.values()), default=0.0)
    entries = []
    for name, m in report.resources.items():
        w = m.avg_waiting
        # inf / inf is NaN: an infinite worst wait normalizes to 1.0 where
        # it is held and to 0.0 elsewhere; a finite one as w / max_wait
        normalized = (1.0 if w == max_wait else w / max_wait) if max_wait > 0.0 else 0.0
        entries.append(
            BottleneckEntry(
                resource=name,
                score=normalized + m.p_drop,
                avg_waiting=m.avg_waiting,
                normalized_waiting=normalized,
                p_drop=m.p_drop,
                flagged=m.p_drop >= drop_threshold or normalized >= wait_threshold,
            )
        )
    entries.sort(key=lambda e: (-e.score, e.resource))
    return BottleneckReport(entries=tuple(entries), drop_threshold=drop_threshold, wait_threshold=wait_threshold)


def format_table(report: BottleneckReport) -> str:
    headers = ("Resource", "Score", "NormWaiting", "P(drop)", "Flagged")
    rows = [
        (e.resource, f"{e.score:.6g}", f"{e.normalized_waiting:.6g}", f"{e.p_drop:.6g}", "yes" if e.flagged else "no")
        for e in report.entries
    ]
    return "\n".join(table_lines(headers, rows)) + "\n"


def format_json(report: BottleneckReport) -> str:
    doc = {
        "drop_threshold": report.drop_threshold,
        "wait_threshold": report.wait_threshold,
        "entries": [asdict(e) for e in report.entries],
    }
    return json_text(doc, sort_keys=True) + "\n"
