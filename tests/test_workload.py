"""Random streams and variate sampling."""

from __future__ import annotations

import gc
import math
import random
import weakref
from types import SimpleNamespace

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pycalls import python_calls
from tiersim import Distribution, DistKind, DomainError, InternalError, Stream, stream_key
from tiersim.workload import _BUFFER, _FIRST_BATCH, _PhiloxKey, make_sampler


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


# a float, a bool or a string is no seed, even where its value is in range
BAD_SEEDS = [-1, 2**64, 1.5, True, "1"]


def test_stream_key_rejects_bad_seed():
    for seed in BAD_SEEDS:
        with pytest.raises(DomainError, match="master seed must be an unsigned 64-bit integer"):
            stream_key(seed, "x")


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_stream_rejects_bad_seed_at_construction(seed):
    with pytest.raises(DomainError, match="master seed must be an unsigned 64-bit integer"):
        Stream(seed, "x")


def test_make_sampler_refuses_a_kind_it_cannot_sample():
    with pytest.raises(DomainError, match="^cannot sample distribution kind 'pareto'$"):
        make_sampler(Distribution("pareto", rate=1.0), Stream(1, "x"))


def test_stream_keyed_late_draws_the_same_sequence():
    alone = Stream(9, "late")
    expected = [alone.uniform01() for _ in range(1500)]

    late = Stream(9, "late")
    others = [Stream(9, f"other{i}") for i in range(3)]
    for other in others:
        for _ in range(1100):
            other.uniform01()
    assert [late.uniform01() for _ in range(1500)] == expected


@pytest.mark.parametrize(
    "seed, consumer",
    [
        (0, "class:web:arrival"),
        (42, "resource:SP_Disk:service"),
        (2**64 - 1, ""),
        (1, "resource:A:balance"),
        (2**63, "class:wéb:arrival"),
    ],
)
def test_uniforms_are_the_keyed_philox_doubles_in_order(seed, consumer):
    # across the doubling first batches and full ones: the stream keys
    # Philox through _PhiloxKey, the reference through Philox(key=)
    s = Stream(seed, consumer)
    got = [s.uniform01() for _ in range(5000)]
    expected = numpy.random.Generator(numpy.random.Philox(key=stream_key(seed, consumer))).random(5000).tolist()
    assert got == expected


def _keys() -> list[int]:
    """The edges of the 128-bit key and of its two 64-bit words, and 200 others."""
    rng = random.Random(35)
    return [0, 1, 2**64 - 1, 2**64, 2**128 - 1] + [rng.getrandbits(128) for _ in range(200)]


def test_the_key_object_keys_the_generator_philox_key_does():
    keys = _keys()
    assert len(set(keys)) == len(keys)
    for key in keys:
        by_key, by_object = numpy.random.Philox(key=key), numpy.random.Philox(_PhiloxKey(key))
        assert by_object.state["state"]["key"].tolist() == by_key.state["state"]["key"].tolist(), key
        assert by_object.random_raw(3).tolist() == by_key.random_raw(3).tolist(), key
        got = numpy.random.Generator(by_object).random(40).tolist()
        assert got == numpy.random.Generator(by_key).random(40).tolist(), key


def test_the_key_object_is_the_low_then_the_high_word():
    assert _PhiloxKey(2**64 + 3).generate_state(2, numpy.uint64).tolist() == [3, 1]
    assert _PhiloxKey(2**128 - 1).generate_state(2, "uint64").tolist() == [2**64 - 1] * 2


@pytest.mark.parametrize(
    "request_args",
    [
        (1, numpy.uint64),
        (3, numpy.uint64),
        (4, numpy.uint32),
        (2, numpy.uint32),
        (2, numpy.int64),
        (2, numpy.dtype(numpy.uint64).newbyteorder()),
        (2, None),
        (2,),  # the interface's default dtype is uint32
    ],
)
def test_the_key_object_hands_out_two_uint64_words_or_nothing(request_args):
    with pytest.raises(InternalError, match="a stream key is 2 uint64 words"):
        _PhiloxKey(5).generate_state(*request_args)


def test_draws_counts_exactly_across_batch_edges():
    assert _BUFFER == 1024
    s = Stream(3, "count")
    drawn = 0
    for target in (0, 1, 1023, 1024, 1025, 2048, 2049):
        for _ in range(target - drawn):
            s.uniform01()
        drawn = target
        assert s.draws == target


def test_a_draw_is_one_c_call_and_a_refill_one_python_step():
    s = Stream(4, "frames")
    s.uniform01()  # the first refill also keys the generator
    for _ in range(_FIRST_BATCH - 2):
        s.uniform01()
    assert python_calls(s.uniform01) == 0  # the batch's last uniform
    assert python_calls(s.uniform01) == 1  # the next refill
    assert python_calls(s.uniform01) == 0


def test_samplers_sharing_a_stream_interleave_in_draw_order():
    u = Stream(8, "shared")
    u_probe = Stream(8, "shared")
    exponential = make_sampler(Distribution.exponential(3.0), u)
    uniform = make_sampler(Distribution.uniform(2.0, 5.0), u)
    pattern = [exponential, uniform, uniform, exponential, exponential, uniform] * 400
    got = [draw() for draw in pattern]
    expected = []
    for draw in pattern:
        x = u_probe.uniform01()
        expected.append(-math.log1p(-x) / 3.0 if draw is exponential else 2.0 + 3.0 * x)
    assert got == expected
    assert u.draws == u_probe.draws == len(pattern)


def _batch_edges() -> list[int]:
    """Draw counts at which a stream's first eight batches end: the small
    first ones doubling up to ``_BUFFER``, then full ones."""
    edges, taken, size = [], 0, _FIRST_BATCH
    for _ in range(8):
        taken += size
        edges.append(taken)
        size = min(2 * size, _BUFFER)
    return edges


def test_batches_double_from_a_small_first_one():
    assert _FIRST_BATCH == 16
    assert _batch_edges() == [16, 48, 112, 240, 496, 1008, 2032, 3056]


def _scalar(dist: Distribution, u: float) -> float:
    """``dist``'s inverse transform of one uniform, as a scalar expression."""
    if dist.kind is DistKind.EXPONENTIAL:
        return -math.log1p(-u) / dist.rate
    return dist.lo + (dist.hi - dist.lo) * u


@pytest.mark.parametrize(
    "dist",
    [Distribution.exponential(3.0), Distribution.exponential(1e-300), Distribution.uniform(2.0, 5.0)],
    ids=["exponential", "exponential-tiny-rate", "uniform"],
)
def test_every_draw_is_the_scalar_transform_across_batch_edges(dist):
    # every variate bit-identical to the scalar transform of the stream's
    # next uniform, across every edge of the small first batches and two
    # full ones, with the draw count exact on both sides of each edge
    stream = Stream(8, "one")
    draw = make_sampler(dist, stream)
    probe = Stream(8, "one")
    drawn = 0
    for edge in _batch_edges():
        for target in (edge - 1, edge, edge + 1):
            got = [draw().hex() for _ in range(target - drawn)]
            assert got == [_scalar(dist, probe.uniform01()).hex() for _ in range(target - drawn)]
            drawn = target
            assert stream.draws == probe.draws == target


@pytest.mark.parametrize(
    "dist",
    [
        Distribution.exponential(3),
        Distribution.exponential(1e-300),
        Distribution.exponential(5e-324),
        Distribution.uniform(2, 5),
        Distribution.uniform(0.1, 0.7),
    ],
    ids=["exponential-int-rate", "exponential-1e-300", "exponential-5e-324", "uniform-int-bounds", "uniform"],
)
def test_the_map_chain_is_the_scalar_transform_at_the_edges_of_the_unit_interval(dist):
    # u = 0, the smallest positive double a stream can hand out, a middle
    # value and the largest double below 1, with rates whose quotient
    # underflows, overflows or is an int
    edges = [0.0, 2**-53, 0.5, 1 - 2**-53]
    draw = make_sampler(dist, SimpleNamespace(uniforms=iter(edges)))
    assert [draw().hex() for _ in edges] == [_scalar(dist, u).hex() for u in edges]


@pytest.mark.parametrize(
    "dist", [Distribution.exponential(2.0), Distribution.uniform(0.1, 0.7)], ids=["exponential", "uniform"]
)
def test_a_variate_draw_is_one_c_call_and_a_refill_one_python_step(dist):
    s = Stream(4, "frames")
    draw = make_sampler(dist, s)
    for edge in _batch_edges():
        while s.draws < edge - 1:
            draw()
        assert python_calls(draw) == 0  # the batch's last variate
        assert python_calls(draw) == 1  # resuming the refill generator
        assert python_calls(draw) == 0


class _WeakStream(Stream):
    __slots__ = ("__weakref__",)


def test_a_dropped_stream_leaves_nothing_to_the_cyclic_collector():
    # numpy is already imported (at the top of this module), so the first
    # refill imports nothing that could leave cycles of its own
    gc.collect()
    gc.disable()
    try:
        s = _WeakStream(6, "dropped")
        draw = make_sampler(Distribution.exponential(1.0), s)
        for _ in range(_BUFFER + 5):
            draw()
        freed = weakref.ref(s)
        del s, draw
        # reference counting alone frees it; gc.collect() can read 0 on a
        # cycle too, when closing a suspended generator breaks that cycle
        assert freed() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_deterministic_consumes_nothing():
    s = Stream(1, "svc")
    draw = make_sampler(Distribution.deterministic(0.25), s)
    assert python_calls(draw) == 0  # a C callable
    assert [draw() for _ in range(3)] == [0.25] * 3
    assert s.draws == 0


def test_a_deterministic_stream_draws_nothing():
    # a deterministic sampler sharing a stream leaves its uniforms to the
    # other samplers, in order
    s = Stream(1, "svc")
    probe = Stream(1, "svc")
    fixed = make_sampler(Distribution.deterministic(0.25), s)
    uniform = make_sampler(Distribution.uniform(0.0, 1.0), s)
    got = [draw() for draw in [fixed, uniform, fixed, fixed, uniform] * 40]
    assert got[0::5] == got[2::5] == got[3::5] == [0.25] * 40
    assert [x for i, x in enumerate(got) if i % 5 in (1, 4)] == [
        probe.uniform01() for _ in range(80)
    ]
    assert s.draws == probe.draws == 80


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
