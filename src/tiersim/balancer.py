"""Replica selection for multi-server resources.

The engine keeps one FIFO queue per replica; when a request is admitted
the balancer decides which replica's queue (or idle server) receives it.
``make_selector`` binds a resource's policy once, when the engine is
built; what the policy carries between admissions (the ROUND_ROBIN
cursor, the RANDOM stream) lives in the selector it returns. Only a
RANDOM selector draws, so only it builds a stream, the resource's
``resource:NAME:balance``; a JSQ or ROUND_ROBIN resource has none, and
neither has a single-replica one, which the engine gives no selector.
Selection sees only the per-replica backlogs, kept by the engine, and
whether the waiting room is full, and never modifies them.

A selector runs only for a request the resource can take: the engine
refuses one before any selector sees it, so a selector always places.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import InternalError
from .model import BalancerPolicy
from .workload import Stream


def _idle_from(backlogs: list[int], start: int) -> int:
    """The first idle replica at or cyclically after `start`; one exists."""
    return (start + (backlogs[start:] + backlogs[:start]).index(0)) % len(backlogs)


def make_selector(policy: BalancerPolicy, replicas: int, seed: int, resource: str) -> Callable[[list[int], bool], int]:
    """``select(backlogs, full)``: the replica that receives the request.

    backlogs[r] is 1 if replica r is serving, plus its queued requests;
    full says no waiting slot is free, in which case some replica is idle
    and the pick must be one. Then ROUND_ROBIN and RANDOM fall forward
    cyclically from their pick to the first idle replica. ROUND_ROBIN's
    cursor moves past each replica it picks; RANDOM draws one uniform per
    request it places, from the stream of ``seed`` and
    ``resource:{resource}:balance``.
    """
    n = replicas
    if policy is BalancerPolicy.JSQ:

        def select(backlogs, full):
            return backlogs.index(min(backlogs))

    elif policy is BalancerPolicy.ROUND_ROBIN:
        cursor = 0

        def select(backlogs, full):
            nonlocal cursor
            pick = cursor
            if full and backlogs[pick]:
                pick = _idle_from(backlogs, pick)
            cursor = (pick + 1) % n
            return pick

    elif policy is BalancerPolicy.RANDOM:
        uniform01 = Stream(seed, f"resource:{resource}:balance").uniform01

        def select(backlogs, full):
            pick = min(int(uniform01() * n), n - 1)
            return _idle_from(backlogs, pick) if full and backlogs[pick] else pick

    else:
        raise InternalError(f"unknown balancer policy {policy!r}")
    return select
