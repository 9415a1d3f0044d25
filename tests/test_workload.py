"""Random streams and variate sampling."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiersim import Distribution, DomainError, Stream, stream_key
from tiersim.workload import make_sampler


def test_same_consumer_same_seed_reproduces_exactly():
    a = Stream(123, "class:web:arrival")
    b = Stream(123, "class:web:arrival")
    assert [a.uniform01() for _ in range(2000)] == [b.uniform01() for _ in range(2000)]


def test_different_consumer_or_seed_differs():
    base = [Stream(123, "x").uniform01() for _ in range(16)]
    assert base != [Stream(123, "y").uniform01() for _ in range(16)]
    assert base != [Stream(124, "x").uniform01() for _ in range(16)]


def test_streams_are_independent_byte_exactly():
    # consuming B must not move A
    a_alone = Stream(7, "a")
    expected = [a_alone.uniform01() for _ in range(512)]

    a = Stream(7, "a")
    b = Stream(7, "b")
    got = []
    for i in range(512):
        if i % 3 == 0:
            b.uniform01()
        got.append(a.uniform01())
    assert got == expected


def test_stream_key_is_stable():
    # frozen: the derivation (sha256 of seed||name) must never drift,
    # or archived reports stop being reproducible
    assert stream_key(0, "class:web:arrival") == 220894331738974015017210949884353310075
    assert stream_key(42, "resource:SP_Disk:service") == 286084202314805610786489779494899755081
    assert 0 <= stream_key(2**64 - 1, "") < 2**128


def test_stream_key_rejects_bad_seed():
    with pytest.raises(DomainError):
        stream_key(-1, "x")
    with pytest.raises(DomainError):
        stream_key(2**64, "x")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_stream_rejects_bad_seed_at_construction(seed):
    with pytest.raises(DomainError, match="master seed must be an unsigned 64-bit integer"):
        Stream(seed, "x")


def test_stream_keyed_late_draws_the_same_sequence():
    alone = Stream(9, "late")
    expected = [alone.uniform01() for _ in range(1500)]

    late = Stream(9, "late")
    others = [Stream(9, f"other{i}") for i in range(3)]
    for other in others:
        for _ in range(1100):
            other.uniform01()
    assert [late.uniform01() for _ in range(1500)] == expected


def test_deterministic_consumes_nothing():
    s = Stream(1, "svc")
    draw = make_sampler(Distribution.deterministic(0.25), s)
    assert draw() == 0.25
    assert s.draws == 0


def test_exponential_and_uniform_consume_one_draw():
    s = Stream(1, "svc")
    make_sampler(Distribution.exponential(2.0), s)()
    assert s.draws == 1
    make_sampler(Distribution.uniform(0.0, 1.0), s)()
    assert s.draws == 2


def test_exponential_mean_and_variance_at_rate_four():
    draw = make_sampler(Distribution.exponential(4.0), Stream(99, "exp-check"))
    n = 1_000_000
    total = 0.0
    total_sq = 0.0
    for _ in range(n):
        x = draw()
        total += x
        total_sq += x * x
    mean = total / n
    var = total_sq / n - mean * mean
    assert 0.2475 <= mean <= 0.2525
    assert abs(var - 1.0 / 16.0) <= 0.03 / 16.0


def test_uniform_degenerate_bounds_give_constant():
    draw = make_sampler(Distribution.uniform(0.7, 0.7), Stream(5, "u"))
    assert all(draw() == 0.7 for _ in range(100))


def test_uniform_respects_bounds():
    draw = make_sampler(Distribution.uniform(1.5, 2.5), Stream(5, "u"))
    for _ in range(5000):
        x = draw()
        assert 1.5 <= x < 2.5


def test_exponential_samples_finite_and_nonnegative():
    draw = make_sampler(Distribution.exponential(0.001), Stream(3, "e"))
    for _ in range(20000):
        x = draw()
        assert x >= 0.0 and math.isfinite(x)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    rate=st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
    n=st.integers(1, 50),
)
def test_samples_never_negative(seed, rate, n):
    draw = make_sampler(Distribution.exponential(rate), Stream(seed, "prop"))
    for _ in range(n):
        assert draw() >= 0.0
