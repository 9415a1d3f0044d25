"""Replica selection for multi-server resources.

The engine keeps one FIFO queue per replica; when a request is admitted
the balancer decides which replica's queue (or idle server) receives it.
Selection sees only the per-replica backlogs, which the engine keeps up
to date as requests are admitted and complete and passes as they stand,
plus the shared pool of free waiting slots. Policies are pure given that
view (RANDOM draws from the stream it is handed) and never modify it.

All policies agree on when to refuse: a request is turned away only when
no replica is idle and no waiting slot is free, i.e. the resource is at
its replicas + queue_capacity ceiling.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import InternalError
from .model import BalancerPolicy
from .workload import Stream


def select_replica(
    backlogs: Sequence[int],
    waiting_free: int | float,
    rr_cursor: int,
    policy: BalancerPolicy,
    stream: Stream | None = None,
) -> int | None:
    """Pick a replica index for one admission, or None when full.

    None is returned only when every replica is busy and the waiting
    pool is exhausted. When waiting slots remain the policy places
    freely; once the pool is empty only an idle replica can accept, so
    ROUND_ROBIN and RANDOM advance cyclically from their pick to the
    first idle one rather than overbooking a queue. RANDOM consumes
    exactly one uniform per accepted request and nothing when refusing.

    backlogs[r] is 1 if replica r is serving, plus its queued requests;
    waiting_free is the remaining shared waiting slots (may be inf);
    rr_cursor is the next ROUND_ROBIN index, owned and advanced by the
    caller.
    """
    if not backlogs:
        raise InternalError("resource has no replicas")

    least = min(backlogs)
    no_waiting_room = waiting_free <= 0
    if no_waiting_room and least >= 1:
        return None

    if policy is BalancerPolicy.JSQ:
        # the first replica with the lowest backlog
        return backlogs.index(least)

    n = len(backlogs)
    if n == 1:
        return 0

    if policy is BalancerPolicy.ROUND_ROBIN:
        start = rr_cursor % n
    elif policy is BalancerPolicy.RANDOM:
        if stream is None:
            raise InternalError("RANDOM policy needs a stream")
        start = min(int(stream.uniform01() * n), n - 1)
    else:
        raise InternalError(f"unknown balancer policy {policy!r}")

    if no_waiting_room and backlogs[start] >= 1:
        for j in range(1, n):
            idx = (start + j) % n
            if backlogs[idx] == 0:
                return idx
        raise InternalError("no idle replica despite passing the full check")
    return start

