"""Replica selection for multi-server resources.

The engine keeps one FIFO queue per replica; when a request is admitted
the balancer decides which replica's queue (or idle server) receives it.
``make_selector`` binds a resource's policy once, when the engine is
built; what the policy carries between admissions (the ROUND_ROBIN
cursor, the RANDOM stream) lives in the selector it returns. Selection
sees only the per-replica backlogs, kept by the engine, and the free
waiting slots, and never modifies them.

All policies agree on when to refuse: a request is turned away only when
no replica is idle and no waiting slot is free, i.e. the resource is at
its replicas + queue_capacity ceiling.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .errors import InternalError
from .model import BalancerPolicy
from .workload import Stream


def _idle_from(backlogs: Sequence[int], start: int) -> int:
    """The first idle replica at or cyclically after `start`; one exists."""
    return (start + (backlogs[start:] + backlogs[:start]).index(0)) % len(backlogs)


def make_selector(policy: BalancerPolicy, replicas: int, stream: Stream) -> Callable[..., int | None]:
    """``select(backlogs, waiting_free)``: a replica index, or None when full.

    backlogs[r] is 1 if replica r is serving, plus its queued requests;
    waiting_free is the remaining shared waiting slots (may be inf). Once
    no slot is free, ROUND_ROBIN and RANDOM fall forward cyclically from
    their pick to the first idle replica. ROUND_ROBIN's cursor moves past
    each replica it picks; RANDOM draws one uniform per accepted request.
    """
    n = replicas
    if policy is BalancerPolicy.JSQ:

        def select(backlogs, waiting_free):
            least = min(backlogs)
            return None if least and waiting_free <= 0 else backlogs.index(least)

    elif policy is BalancerPolicy.ROUND_ROBIN:
        cursor = 0

        def select(backlogs, waiting_free):
            nonlocal cursor
            pick = cursor
            if waiting_free <= 0 and backlogs[pick]:
                if 0 not in backlogs:
                    return None
                pick = _idle_from(backlogs, pick)
            cursor = (pick + 1) % n
            return pick

    elif policy is BalancerPolicy.RANDOM:
        uniform01 = stream.uniform01

        def select(backlogs, waiting_free):
            if waiting_free <= 0 and 0 not in backlogs:
                return None
            pick = min(int(uniform01() * n), n - 1)
            return _idle_from(backlogs, pick) if waiting_free <= 0 and backlogs[pick] else pick

    else:
        raise InternalError(f"unknown balancer policy {policy!r}")
    return select
