"""Closed-form station results, checked against hand arithmetic and an
independent truncated-geometric evaluation written here in the test."""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiersim import DomainError, mmck


def geometric_p_n(lam: float, mu: float, top: int) -> list[float]:
    """Single-server truncated geometric, evaluated independently."""
    a = lam / mu
    if a == 1.0:
        return [1.0 / (top + 1)] * (top + 1)
    weights = [a**n for n in range(top + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def test_hand_case_single_server_three_slots():
    # lam=1, mu=2, one server, three waiting slots: states 0..4,
    # weights 1, 1/2, 1/4, 1/8, 1/16 summing to 31/16
    m = mmck(1.0, 2.0, 1, 3)
    assert len(m.p_n) == 5
    assert m.p_all_idle == pytest.approx(16 / 31, abs=1e-15)
    assert m.p_block == pytest.approx(1 / 31, abs=1e-15)
    assert m.utilization == pytest.approx(15 / 31, abs=1e-12)
    assert m.lambda_eff == pytest.approx(30 / 31, abs=1e-12)


def test_hand_case_two_servers():
    # lam=2, mu=2, two servers, one waiting slot:
    # weights 1, 1, 1/2, 1/4 so p = (4/11, 4/11, 2/11, 1/11)
    m = mmck(2.0, 2.0, 2, 1)
    expected = (4 / 11, 4 / 11, 2 / 11, 1 / 11)
    assert m.p_n == pytest.approx(expected, abs=1e-15)
    # busy servers: 0*4/11 + 1*4/11 + 2*2/11 + 2*1/11 = 10/11
    assert m.utilization == pytest.approx(5 / 11, abs=1e-15)
    assert m.mean_in_queue == pytest.approx(1 / 11, abs=1e-15)


def test_matches_independent_geometric_evaluation():
    for lam, mu, K in [(0.3, 1.0, 4), (2.5, 1.0, 7), (0.99, 1.0, 12), (5.0, 4.0, 2)]:
        m = mmck(lam, mu, 1, K)
        expected = geometric_p_n(lam, mu, 1 + K)
        assert m.p_n == pytest.approx(expected, abs=1e-12)


def test_balanced_load_gives_uniform_states():
    m = mmck(1.0, 1.0, 1, 3)
    assert m.p_n == pytest.approx((0.2,) * 5, abs=1e-15)
    m2 = mmck(3.0, 1.0, 3, 6)
    # above c the ratio is lam/(c*mu) = 1, so the tail is flat
    assert m2.p_n[3:] == pytest.approx((m2.p_n[3],) * 7, abs=1e-15)


def test_zero_arrivals_is_the_empty_system():
    m = mmck(0.0, 2.0, 1, 4)
    assert m.p_all_idle == 1.0
    assert m.p_block == 0.0
    assert m.utilization == 0.0
    assert m.mean_wait == 0.0
    assert m.mean_response == 0.5


def test_zero_waiting_slots_is_pure_loss():
    # Erlang loss with c=1: p_block = a/(1+a)
    m = mmck(3.0, 1.0, 1, 0)
    assert m.p_block == pytest.approx(0.75, abs=1e-15)
    assert m.mean_wait == 0.0
    assert m.mean_in_queue == 0.0


def test_probabilities_sum_to_one_tightly():
    for lam, mu, c, K in [(1.0, 2.0, 1, 3), (7.3, 0.9, 4, 25), (0.001, 5.0, 2, 0), (40.0, 1.0, 8, 100)]:
        m = mmck(lam, mu, c, K)
        assert abs(sum(m.p_n) - 1.0) <= 1e-12


def test_littles_law_and_response_identity():
    for lam, mu, c, K in [(1.0, 2.0, 1, 3), (1.8, 2.0, 1, 5), (2.0, 2.0, 1, 4), (6.0, 1.5, 3, 10)]:
        m = mmck(lam, mu, c, K)
        assert abs(m.mean_in_queue - m.lambda_eff * m.mean_wait) <= 1e-9
        assert abs(m.mean_in_system - m.lambda_eff * m.mean_response) <= 1e-9
        assert m.mean_response == m.mean_wait + 1.0 / mu


def test_flow_balance_throughput_equals_service_rate_times_busy():
    for lam, mu, c, K in [(2.0, 1.0, 2, 4), (9.0, 2.0, 3, 1), (0.4, 0.7, 5, 9)]:
        m = mmck(lam, mu, c, K)
        assert m.utilization * c * mu == pytest.approx(m.lambda_eff, rel=1e-12)


def test_mean_wait_holds_under_deep_overload():
    # one saturated server with 100 waiting slots: an admitted request
    # waits behind a full queue, 100 / mu, however large lam grows
    for lam in (1e10, 1e16, 1e17, 1e100):
        m = mmck(lam, 1.0, 1, 100)
        assert m.mean_wait == pytest.approx(100.0, rel=1e-9), lam
        assert m.lambda_eff == pytest.approx(1.0, rel=1e-9), lam


def test_blocking_increases_with_arrival_rate():
    blocks = [mmck(lam, 1.0, 2, 4).p_block for lam in (0.2, 0.8, 1.5, 3.0, 8.0)]
    assert blocks == sorted(blocks)
    waits = [mmck(lam, 1.0, 2, 4).mean_wait for lam in (0.2, 0.8, 1.5, 3.0)]
    assert waits == sorted(waits)


def test_blocking_falls_as_capacity_grows():
    blocks = [mmck(1.5, 2.0, 1, K).p_block for K in (0, 1, 3, 8, 20)]
    assert blocks == sorted(blocks, reverse=True)


def test_huge_state_space_stays_finite():
    # per-state weights of (lam/mu)^n would overflow long before n=2000
    m = mmck(4.0, 1.0, 1, 2000)
    assert all(math.isfinite(p) for p in m.p_n)
    assert abs(sum(m.p_n) - 1.0) <= 1e-12
    # deep overload: blocking tends to 1 - mu/lam
    assert m.p_block == pytest.approx(0.75, abs=1e-9)


def log_space_reference(lam: float, mu: float, servers: int, capacity: int) -> tuple[float, float]:
    """(p_block, mean_in_system) from log-weights held to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        logs = [Decimal(0)]
        for n in range(1, servers + capacity + 1):
            logs.append(logs[-1] + (Decimal(lam) / (min(n, servers) * Decimal(mu))).ln())
        peak = max(logs)
        terms = [(x - peak).exp() for x in logs]
        total = sum(terms)
        return float(terms[-1] / total), float(sum(n * t for n, t in enumerate(terms)) / total)


@pytest.mark.parametrize(
    "lam, servers, capacity",
    [(1e10, 1, 300), (1e3, 4, 400), (50.0, 2, 1000), (2000.0, 3000, 10)],
)
def test_rescaled_weights_match_a_log_space_reference(lam, servers, capacity):
    # each case's weights pass the rescale threshold more than once
    m = mmck(lam, 1.0, servers, capacity)
    p_block, mean_in_system = log_space_reference(lam, 1.0, servers, capacity)
    assert m.p_block == pytest.approx(p_block, rel=1e-12, abs=0)
    assert m.mean_in_system == pytest.approx(mean_in_system, rel=1e-12, abs=0)


def test_a_deep_overload_at_the_capacity_bound_is_answered_quickly():
    # the weights rescale every third state; the check must stay linear in K
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "tiersim.cli", "oracle-check", "--lambda", "1e100", "--mu", "1", "-K", "100000"]
        + ["--requests", "10", "--format", "json"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert abs(json.loads(proc.stdout)["p_drop"]["analytic"] - 1.0) <= 1e-12


def test_balanced_load_is_the_limit_of_nearby_loads():
    at_one = mmck(1.0, 1.0, 2, 5)
    for lam in (1.0 - 1e-8, 1.0 + 1e-8):
        near = mmck(lam, 1.0, 2, 5)
        assert max(abs(a - b) for a, b in zip(at_one.p_n, near.p_n)) <= 1e-6
        assert abs(at_one.p_block - near.p_block) <= 1e-6
        assert abs(at_one.mean_wait - near.mean_wait) <= 1e-6


def test_domain_errors():
    with pytest.raises(DomainError):
        mmck(1.0, 2.0, 0, 3)
    with pytest.raises(DomainError):
        mmck(1.0, 2.0, 1.5, 3)  # type: ignore[arg-type]
    with pytest.raises(DomainError):
        mmck(1.0, 2.0, 1, -1)
    with pytest.raises(DomainError):
        mmck(1.0, 2.0, 1, 2.0)  # type: ignore[arg-type]
    # a float per state: c and K are bounded before anything is allocated
    with pytest.raises(DomainError, match="servers must be at most 100000"):
        mmck(1.0, 1.0, 10**30, 0)
    with pytest.raises(DomainError, match="queue_capacity must be at most 100000"):
        mmck(1.0, 2.0, 1, 10**30)
    with pytest.raises(DomainError):
        mmck(1.0, 0.0, 1, 3)
    with pytest.raises(DomainError):
        mmck(1.0, -2.0, 1, 3)
    with pytest.raises(DomainError):
        mmck(-1.0, 2.0, 1, 3)
    with pytest.raises(DomainError):
        mmck(math.inf, 2.0, 1, 3)
    with pytest.raises(DomainError):
        mmck(1.0, math.nan, 1, 3)
    # bool is an int subclass, but never a count or a rate here
    for args in ((1.0, 2.0, True, 3), (1.0, 2.0, 1, True), (1.0, True, 1, 3), (True, 2.0, 1, 3)):
        with pytest.raises(DomainError):
            mmck(*args)
    # an int too large for a float is not a finite rate
    with pytest.raises(DomainError, match="^mu must be finite and > 0, got 1000"):
        mmck(1, 10**400, 1, 0)
    with pytest.raises(DomainError, match="^lam must be finite and >= 0, got 1000"):
        mmck(10**400, 1.0, 1, 0)


@settings(max_examples=150, deadline=None)
@given(
    lam=st.floats(0.0, 50.0, allow_nan=False),
    mu=st.floats(0.01, 50.0, allow_nan=False),
    servers=st.integers(1, 8),
    capacity=st.integers(0, 60),
)
def test_steady_state_invariants(lam, mu, servers, capacity):
    m = mmck(lam, mu, servers, capacity)
    assert abs(sum(m.p_n) - 1.0) <= 1e-12
    assert all(p >= 0.0 for p in m.p_n)
    assert 0.0 <= m.p_block <= 1.0
    assert 0.0 <= m.utilization <= 1.0 + 1e-12
    assert m.mean_in_system >= m.mean_in_queue
    assert m.mean_response >= 1.0 / mu
    assert abs(m.mean_in_system - m.lambda_eff * m.mean_response) <= 1e-9 * max(1.0, m.mean_in_system)


def test_shuffled_evaluation_order_is_irrelevant():
    # mmck is a pure function; calling it in any order gives equal objects
    cases = [(1.0, 2.0, 1, 3), (2.0, 2.0, 2, 1), (4.0, 1.0, 1, 9)]
    first = [mmck(*c) for c in cases]
    shuffled = cases[:]
    random.Random(7).shuffle(shuffled)
    again = {c: mmck(*c) for c in shuffled}
    for c, m in zip(cases, first):
        assert again[c] == m
