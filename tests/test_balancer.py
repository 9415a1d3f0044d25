"""Replica selection: who gets the request, and when nobody can."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiersim import BalancerPolicy, InternalError, Stream
from tiersim.balancer import make_selector

POLICIES = (BalancerPolicy.JSQ, BalancerPolicy.ROUND_ROBIN, BalancerPolicy.RANDOM)


def fresh_stream() -> Stream:
    return Stream(1234, "balance-test")


def selector(policy: BalancerPolicy, replicas: int, stream: Stream | None = None, cursor: int = 0):
    """A fresh selector; round-robin's cursor is reached by `cursor` earlier selections with room."""
    select = make_selector(policy, replicas, stream if stream is not None else fresh_stream())
    for _ in range(cursor):
        select((0,) * replicas, math.inf)
    return select


def test_single_replica_accepts_when_idle_or_room():
    for policy in POLICIES:
        assert selector(policy, 1)((0,), 0) == 0
        assert selector(policy, 1)((3,), 2) == 0


def test_refuses_only_at_the_hard_ceiling():
    for policy in POLICIES:
        s = fresh_stream()
        select = selector(policy, 3, s)
        assert select((1, 1, 1), 0) is None
        assert select((4, 2, 7), 0) is None
        # RANDOM must not consume a draw on refusal
        assert s.draws == 0


def test_infinite_waiting_room_never_refuses():
    for policy in POLICIES:
        assert selector(policy, 3)((9, 9, 9), math.inf) in (0, 1, 2)


def test_jsq_picks_least_loaded():
    assert selector(BalancerPolicy.JSQ, 3)((3, 1, 2), 5) == 1
    assert selector(BalancerPolicy.JSQ, 4)((5, 4, 0, 4), 5) == 2


def test_jsq_breaks_ties_toward_lowest_index():
    assert selector(BalancerPolicy.JSQ, 2)((0, 0), 5) == 0
    select = selector(BalancerPolicy.JSQ, 3)
    assert select((2, 1, 1), 5) == 1
    assert select((7, 7, 7), 5) == 0


def test_round_robin_follows_cursor():
    assert selector(BalancerPolicy.ROUND_ROBIN, 3, cursor=2)((1, 1, 1), 10) == 2
    # the cursor wraps past the last replica
    select = selector(BalancerPolicy.ROUND_ROBIN, 3)
    assert [select((1, 1, 1), 10) for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]


def test_round_robin_ignores_load_when_room_remains():
    # cursor points at the most loaded replica; with waiting room it
    # still goes there
    assert selector(BalancerPolicy.ROUND_ROBIN, 2, cursor=1)((0, 9), 3) == 1


def test_round_robin_falls_forward_to_idle_when_pool_exhausted():
    # cursor says 0, replica 0 is busy and no slot is free; the only
    # legal landing spot is an idle replica
    assert selector(BalancerPolicy.ROUND_ROBIN, 3)((1, 0, 1), 0) == 1
    assert selector(BalancerPolicy.ROUND_ROBIN, 3, cursor=1)((1, 1, 0), 0) == 2
    # wraps past the end
    assert selector(BalancerPolicy.ROUND_ROBIN, 3, cursor=2)((0, 1, 1), 0) == 0


def test_round_robin_next_pick_follows_a_fallen_forward_pick():
    select = selector(BalancerPolicy.ROUND_ROBIN, 3)
    assert select((1, 0, 1), 0) == 1
    assert select((1, 1, 1), 5) == 2


def test_random_is_reproducible_and_consumes_one_draw():
    probe = fresh_stream()
    n = 4
    expected = [min(int(probe.uniform01() * n), n - 1) for _ in range(200)]

    s = fresh_stream()
    select = selector(BalancerPolicy.RANDOM, n, s)
    got = [select((1,) * n, 10) for _ in range(200)]
    assert got == expected
    assert s.draws == 200


def test_random_falls_forward_to_idle_when_pool_exhausted():
    probe = fresh_stream()
    s = fresh_stream()
    select = selector(BalancerPolicy.RANDOM, 4, s)
    backlogs = (1, 1, 0, 1)
    for _ in range(100):
        start = min(int(probe.uniform01() * 4), 3)
        choice = select(backlogs, 0)
        assert choice == (2 if backlogs[start] >= 1 else start)
        assert choice == 2  # the only idle replica
    assert s.draws == 100


def test_unknown_policy_is_an_internal_error_when_bound():
    with pytest.raises(InternalError, match="unknown balancer policy"):
        make_selector("least_loaded", 2, fresh_stream())


@settings(max_examples=300, deadline=None)
@given(
    backlogs=st.lists(st.integers(0, 5), min_size=1, max_size=6).map(tuple),
    waiting_free=st.one_of(st.integers(0, 5), st.just(math.inf)),
    cursor=st.integers(0, 11),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(0, 2**32),
)
def test_selection_contract(backlogs, waiting_free, cursor, policy, seed):
    choice = selector(policy, len(backlogs), Stream(seed, "prop"), cursor)(backlogs, waiting_free)
    if waiting_free <= 0 and min(backlogs) >= 1:
        assert choice is None
    else:
        assert choice is not None and 0 <= choice < len(backlogs)
        if waiting_free <= 0:
            # without a free slot the pick must go straight into service
            assert backlogs[choice] == 0
