"""Random-variate streams with one independent generator per consumer.

Every stochastic decision in a run is drawn from a stream named after
its consumer (for example ``class:web:arrival`` or
``resource:SP_Disk:service``). Each stream is a Philox 4x64 counter-based
generator keyed by SHA-256(master seed || consumer name), so:

* the same (seed, consumer) pair always yields the same sequence, on any
  platform and in any build;
* adding or removing a consumer never perturbs another consumer's
  samples, because no stream is derived from another's position.

A key reaches Philox as its two 64-bit words, low then high, the order
in which ``Philox(key=k)`` splits k, through ``_PhiloxKey``: numpy's
seed-sequence interface, which Philox asks for those 2 words and takes
as its key. So keying builds no ``SeedSequence`` and reads no OS
entropy, where ``Philox(key=k)`` builds one from fresh entropy and then
overwrites its output; the generator, and every uniform, is the same.

A stream's generator is keyed on its first draw, not when the stream is
built. Since the key depends only on (seed, consumer), when that happens
never changes a sample; it only means that a stream which never draws
costs no generator and imports no numpy. A process imports numpy at its
first draw, or when it finalizes a run that kept a response, since
metrics selects a class's p50 and p95 with it; validate, synthesize and
report do neither. A declared resource that no
class visits has no runtime, no stream and no accumulator at all.

Only raw uniform doubles come from the generator. Variates are formed by
explicit inverse transforms here, so the sampling algorithm is part of
this module's contract rather than an upstream library detail.

A draw enters no Python frame. A stream chains the generator's batches
in a C iterator, ``uniforms``, and ``uniform01`` is that iterator's
``__next__``: one C call. A refill, once per batch, is the only Python
step. The first batch holds ``_FIRST_BATCH`` uniforms and each refill
doubles the size up to ``_BUFFER``, so a stream that draws a few times
takes a few values from its generator; Philox hands out the same
sequence however it is split into batches.

A stream hands out uniforms and nothing else. ``make_sampler`` is the
one place that holds each inverse transform, written as a chain of C
``map`` iterators over the stream's ``uniforms``, so a variate draw is
one C call too. Every map pulls exactly one uniform per draw, so the
samplers of different demands that share a stream interleave in the
order the draws are made. The exponential transform divides
``log1p(-u)`` by ``-rate``: IEEE division rounds symmetrically in sign,
so that is the same float as ``-log1p(-u) / rate`` with one map fewer.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterator
from functools import cache
from itertools import chain, repeat
from math import log1p
from operator import add, length_hint, mul, neg, truediv

from .errors import DomainError, InternalError
from .model import Distribution, DistKind, valid_seed

# How many uniforms to pull from the bit generator per refill, once the
# first refills have doubled up to it. Purely a speed knob; the sample
# sequence is identical for any positive size.
_BUFFER = 1024
# The first refill's size. Engine() draws each class's first arrival, so
# this is how many uniforms a stream's first draw takes from its
# generator at set-up.
_FIRST_BATCH = 16

STREAM_ALGORITHM = "philox4x64/sha256-key/inverse-cdf"


def _check_seed(master_seed: int) -> None:
    if not valid_seed(master_seed):
        raise DomainError(f"master seed must be an unsigned 64-bit integer, got {master_seed!r}")


def stream_key(master_seed: int, consumer: str) -> int:
    """128-bit Philox key for a consumer, stable across builds."""
    _check_seed(master_seed)
    digest = hashlib.sha256(master_seed.to_bytes(8, "little") + b"\x00" + consumer.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


class _PhiloxKey:
    """A 128-bit stream key as numpy's seed-sequence interface
    (``numpy.random.bit_generator.ISeedSequence``), registered as one at
    the first refill. ``Philox(_PhiloxKey(k))`` asks it for 2 uint64
    words and takes them as its key, the key ``Philox(key=k)`` takes:
    k's low 64 bits, then its high 64 bits."""

    __slots__ = ("words",)

    def __init__(self, key: int):
        np = _numpy()
        self.words = np.array((key & 0xFFFFFFFFFFFFFFFF, key >> 64), np.uint64)

    def generate_state(self, n_words, dtype="uint32"):
        words = self.words
        # Philox asks for exactly this; any other words would key another generator
        if n_words != 2 or words.dtype != dtype:
            raise InternalError(f"a stream key is 2 uint64 words, not {n_words!r} of {dtype!r}")
        return words


@cache
def _numpy():
    """numpy, imported at the first refill rather than with the package,
    with ``_PhiloxKey`` registered as a seed sequence: validate,
    synthesize and report import ``tiersim.cli`` and never draw."""
    import numpy
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_PhiloxKey)
    return numpy


class _Refills:
    """The batch a stream is drawing from and how many uniforms it has
    taken from the generator. The refill generator writes it and
    ``Stream.draws`` reads it; it holds no reference to the stream, so a
    stream is in no cycle and is freed when its last reference goes."""

    __slots__ = ("batch", "taken")

    def __init__(self) -> None:
        self.batch: Iterator[float] = iter(())
        self.taken = 0


def _refill(master_seed: int, consumer: str, state: _Refills) -> Iterator[Iterator[float]]:
    """Endless batches of uniforms from the consumer's generator."""
    np = _numpy()
    random = np.random.Generator(np.random.Philox(_PhiloxKey(stream_key(master_seed, consumer)))).random
    size = _FIRST_BATCH
    while True:
        state.batch = batch = iter(random(size).tolist())
        state.taken += size
        yield batch
        size = min(2 * size, _BUFFER)


class Stream:
    """Deterministic uniform draws for one named consumer.

    ``uniforms`` is the endless iterator of the consumer's doubles in
    [0, 1), and ``uniform01()`` returns the next of them. A double is
    never 1.0, so log(1 - u) is finite.
    """

    __slots__ = ("consumer", "uniforms", "uniform01", "_refills")

    def __init__(self, master_seed: int, consumer: str):
        _check_seed(master_seed)
        self.consumer = consumer
        self._refills = state = _Refills()
        # the generator body, and so the keying, first runs at the first draw
        self.uniforms: Iterator[float] = chain.from_iterable(_refill(master_seed, consumer, state))
        self.uniform01: Callable[[], float] = self.uniforms.__next__

    @property
    def draws(self) -> int:
        """How many uniforms this stream has handed out."""
        state = self._refills
        return state.taken - length_hint(state.batch)


def make_sampler(dist: Distribution, stream: Stream) -> Callable[[], float]:
    """Bind ``dist`` to the uniforms of ``stream`` as a zero-argument C
    callable that draws one non-negative variate per call.

    DETERMINISTIC consumes nothing from the stream; the other kinds
    consume exactly one uniform per call, so samplers sharing a stream
    interleave in draw order. Binding once keeps dispatch on the kind out
    of the engine's event loop.
    """
    kind = dist.kind
    if kind is DistKind.EXPONENTIAL:
        # inverse CDF: log1p(-u) / -rate == -ln(1 - u) / rate, u in [0, 1)
        return map(truediv, map(log1p, map(neg, stream.uniforms)), repeat(-dist.rate)).__next__
    if kind is DistKind.DETERMINISTIC:
        return repeat(dist.value).__next__
    if kind is DistKind.UNIFORM:
        # lo + (hi - lo) * u
        return map(add, repeat(dist.lo), map(mul, repeat(dist.hi - dist.lo), stream.uniforms)).__next__
    raise DomainError(f"cannot sample distribution kind {kind!r}")
