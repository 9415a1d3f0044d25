"""Replica selection: which replica gets a request the resource can take.

Whether a request is taken at all is the engine's decision; the
refusal checks live in tests/test_engine.py.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiersim import BalancerPolicy, InternalError, Stream
from tiersim.balancer import make_selector

POLICIES = (BalancerPolicy.JSQ, BalancerPolicy.ROUND_ROBIN, BalancerPolicy.RANDOM)


SEED = 1234
RESOURCE = "balance-test"


def fresh_stream() -> Stream:
    """A probe of the stream a RANDOM selector for RESOURCE draws from."""
    return Stream(SEED, f"resource:{RESOURCE}:balance")


def built_streams(monkeypatch) -> list[Stream]:
    """Every stream make_selector builds from here on, in order."""
    built = []

    class RecordedStream(Stream):
        __slots__ = ()

        def __init__(self, master_seed, consumer):
            super().__init__(master_seed, consumer)
            built.append(self)

    monkeypatch.setattr("tiersim.balancer.Stream", RecordedStream)
    return built


def selector(policy: BalancerPolicy, replicas: int, cursor: int = 0, seed: int = SEED):
    """A fresh selector; round-robin's cursor is reached by `cursor` earlier selections with room."""
    select = make_selector(policy, replicas, seed, RESOURCE)
    for _ in range(cursor):
        select([0] * replicas, False)
    return select


def test_single_replica_accepts_when_idle_or_room():
    for policy in POLICIES:
        assert selector(policy, 1)([0], True) == 0
        assert selector(policy, 1)([3], False) == 0


def test_jsq_picks_least_loaded():
    assert selector(BalancerPolicy.JSQ, 3)([3, 1, 2], False) == 1
    assert selector(BalancerPolicy.JSQ, 4)([5, 4, 0, 4], False) == 2


def test_jsq_breaks_ties_toward_lowest_index():
    assert selector(BalancerPolicy.JSQ, 2)([0, 0], False) == 0
    select = selector(BalancerPolicy.JSQ, 3)
    assert select([2, 1, 1], False) == 1
    assert select([7, 7, 7], False) == 0


def test_round_robin_follows_cursor():
    assert selector(BalancerPolicy.ROUND_ROBIN, 3, cursor=2)([1, 1, 1], False) == 2
    # the cursor wraps past the last replica
    select = selector(BalancerPolicy.ROUND_ROBIN, 3)
    assert [select([1, 1, 1], False) for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]


def test_round_robin_ignores_load_when_room_remains():
    # cursor points at the most loaded replica; with waiting room it
    # still goes there
    assert selector(BalancerPolicy.ROUND_ROBIN, 2, cursor=1)([0, 9], False) == 1


def test_round_robin_falls_forward_to_idle_when_pool_exhausted():
    # cursor says 0, replica 0 is busy and no slot is free; the only
    # legal landing spot is an idle replica
    assert selector(BalancerPolicy.ROUND_ROBIN, 3)([1, 0, 1], True) == 1
    assert selector(BalancerPolicy.ROUND_ROBIN, 3, cursor=1)([1, 1, 0], True) == 2
    # wraps past the end
    assert selector(BalancerPolicy.ROUND_ROBIN, 3, cursor=2)([0, 1, 1], True) == 0


def test_round_robin_next_pick_follows_a_fallen_forward_pick():
    select = selector(BalancerPolicy.ROUND_ROBIN, 3)
    assert select([1, 0, 1], True) == 1
    assert select([1, 1, 1], False) == 2


def test_only_a_random_selector_builds_a_stream(monkeypatch):
    built = built_streams(monkeypatch)
    for policy in (BalancerPolicy.JSQ, BalancerPolicy.ROUND_ROBIN):
        selector(policy, 3)
    assert built == []
    selector(BalancerPolicy.RANDOM, 3)
    assert [s.consumer for s in built] == [f"resource:{RESOURCE}:balance"]
    assert built[0].draws == 0  # and keys no generator until it places a request


def test_random_is_reproducible_and_consumes_one_draw(monkeypatch):
    probe = fresh_stream()
    n = 4
    expected = [min(int(probe.uniform01() * n), n - 1) for _ in range(200)]

    built = built_streams(monkeypatch)
    select = selector(BalancerPolicy.RANDOM, n)
    (s,) = built
    got = [select([1] * n, False) for _ in range(200)]
    assert got == expected
    assert s.draws == 200


def test_random_falls_forward_to_idle_when_pool_exhausted(monkeypatch):
    probe = fresh_stream()
    built = built_streams(monkeypatch)
    select = selector(BalancerPolicy.RANDOM, 4)
    (s,) = built
    backlogs = [1, 1, 0, 1]
    for _ in range(100):
        start = min(int(probe.uniform01() * 4), 3)
        choice = select(backlogs, True)
        assert choice == (2 if backlogs[start] >= 1 else start)
        assert choice == 2  # the only idle replica
    assert s.draws == 100


def test_unknown_policy_is_an_internal_error_when_bound():
    with pytest.raises(InternalError, match="unknown balancer policy"):
        make_selector("least_loaded", 2, SEED, RESOURCE)


@settings(max_examples=300, deadline=None)
@given(
    backlogs=st.lists(st.integers(0, 5), min_size=1, max_size=6),
    full=st.booleans(),
    idle=st.integers(0, 5),
    cursor=st.integers(0, 11),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(0, 2**32),
)
def test_selection_contract(backlogs, full, idle, cursor, policy, seed):
    if full:
        # the engine refuses a full resource with no idle replica, so a
        # full one reaches select only with some replica idle
        backlogs[idle % len(backlogs)] = 0
    choice = selector(policy, len(backlogs), cursor, seed)(backlogs, full)
    assert isinstance(choice, int) and 0 <= choice < len(backlogs)
    if full:
        # without a free slot the pick must go straight into service
        assert backlogs[choice] == 0
