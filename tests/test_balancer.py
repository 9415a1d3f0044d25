"""Replica selection: who gets the request, and when nobody can."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiersim import BalancerPolicy, InternalError, Stream, select_replica

POLICIES = (BalancerPolicy.JSQ, BalancerPolicy.ROUND_ROBIN, BalancerPolicy.RANDOM)


def fresh_stream() -> Stream:
    return Stream(1234, "balance-test")


def test_single_replica_accepts_when_idle_or_room():
    for policy in POLICIES:
        assert select_replica((0,), 0, 0, policy, fresh_stream()) == 0
        assert select_replica((3,), 2, 0, policy, fresh_stream()) == 0


def test_refuses_only_at_the_hard_ceiling():
    for policy in POLICIES:
        s = fresh_stream()
        assert select_replica((1, 1, 1), 0, 0, policy, s) is None
        assert select_replica((4, 2, 7), 0, 0, policy, s) is None
        # RANDOM must not consume a draw on refusal
        assert s.draws == 0


def test_infinite_waiting_room_never_refuses():
    for policy in POLICIES:
        r = select_replica((9, 9, 9), math.inf, 0, policy, fresh_stream())
        assert r in (0, 1, 2)


def test_jsq_picks_least_loaded():
    assert select_replica((3, 1, 2), 5, 0, BalancerPolicy.JSQ) == 1
    assert select_replica((5, 4, 0, 4), 5, 0, BalancerPolicy.JSQ) == 2


def test_jsq_breaks_ties_toward_lowest_index():
    assert select_replica((0, 0), 5, 0, BalancerPolicy.JSQ) == 0
    assert select_replica((2, 1, 1), 5, 0, BalancerPolicy.JSQ) == 1
    assert select_replica((7, 7, 7), 5, 0, BalancerPolicy.JSQ) == 0


def test_round_robin_follows_cursor():
    assert select_replica((1, 1, 1), 10, 2, BalancerPolicy.ROUND_ROBIN) == 2
    assert select_replica((1, 1, 1), 10, 7, BalancerPolicy.ROUND_ROBIN) == 1


def test_round_robin_ignores_load_when_room_remains():
    # cursor points at the most loaded replica; with waiting room it
    # still goes there
    assert select_replica((0, 9), 3, 1, BalancerPolicy.ROUND_ROBIN) == 1


def test_round_robin_falls_forward_to_idle_when_pool_exhausted():
    # cursor says 0, replica 0 is busy and no slot is free; the only
    # legal landing spot is an idle replica
    assert select_replica((1, 0, 1), 0, 0, BalancerPolicy.ROUND_ROBIN) == 1
    assert select_replica((1, 1, 0), 0, 1, BalancerPolicy.ROUND_ROBIN) == 2
    # wraps past the end
    assert select_replica((0, 1, 1), 0, 2, BalancerPolicy.ROUND_ROBIN) == 0


def test_random_is_reproducible_and_consumes_one_draw():
    probe = fresh_stream()
    n = 4
    expected = [min(int(probe.uniform01() * n), n - 1) for _ in range(200)]

    s = fresh_stream()
    got = [select_replica((1,) * n, 10, 0, BalancerPolicy.RANDOM, s) for _ in range(200)]
    assert got == expected
    assert s.draws == 200


def test_random_falls_forward_to_idle_when_pool_exhausted():
    probe = fresh_stream()
    s = fresh_stream()
    backlogs = (1, 1, 0, 1)
    for _ in range(100):
        start = min(int(probe.uniform01() * 4), 3)
        choice = select_replica(backlogs, 0, 0, BalancerPolicy.RANDOM, s)
        assert choice == (2 if backlogs[start] >= 1 else start)
        assert choice == 2  # the only idle replica


def test_random_without_stream_is_an_internal_error():
    with pytest.raises(InternalError):
        select_replica((1, 1), 5, 0, BalancerPolicy.RANDOM, None)


def test_zero_replicas_is_an_internal_error():
    with pytest.raises(InternalError):
        select_replica((), 5, 0, BalancerPolicy.JSQ)


@settings(max_examples=300, deadline=None)
@given(
    backlogs=st.lists(st.integers(0, 5), min_size=1, max_size=6).map(tuple),
    waiting_free=st.one_of(st.integers(0, 5), st.just(math.inf)),
    cursor=st.integers(0, 11),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(0, 2**32),
)
def test_selection_contract(backlogs, waiting_free, cursor, policy, seed):
    choice = select_replica(backlogs, waiting_free, cursor, policy, Stream(seed, "prop"))
    if waiting_free <= 0 and min(backlogs) >= 1:
        assert choice is None
    else:
        assert choice is not None and 0 <= choice < len(backlogs)
        if waiting_free <= 0:
            # without a free slot the pick must go straight into service
            assert backlogs[choice] == 0
