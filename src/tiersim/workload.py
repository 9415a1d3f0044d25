"""Random-variate streams with one independent generator per consumer.

Every stochastic decision in a run is drawn from a stream named after
its consumer (for example ``class:web:arrival`` or
``resource:SP_Disk:service``). Each stream is a Philox 4x64 counter-based
generator keyed by SHA-256(master seed || consumer name), so:

* the same (seed, consumer) pair always yields the same sequence, on any
  platform and in any build;
* adding or removing a consumer never perturbs another consumer's
  samples, because no stream is derived from another's position.

A stream's generator is keyed on its first draw, not when the stream is
built. Since the key depends only on (seed, consumer), when that happens
never changes a sample; it only means that a stream which never draws
(such as the balance stream of a resource whose policy is not
``random``) costs no generator, and a process that never draws never
imports numpy. A declared resource that no class visits has no runtime,
no stream and no accumulator at all.

Only raw uniform doubles come from the generator. Variates are formed by
explicit inverse transforms here, so the sampling algorithm is part of
this module's contract rather than an upstream library detail.

A draw enters no Python frame. A stream chains the generator's batches
in a C iterator and a draw is that iterator's ``__next__``: one C call.
A refill, once per batch, is the only Python step. The first batch holds
``_FIRST_BATCH`` uniforms and each refill doubles the size up to
``_BUFFER``, so a stream that draws a few times converts a few values;
Philox hands out the same sequence however it is split into batches.

A stream whose draws all follow one distribution (every class arrival
stream, and a service stream whose visits all carry an equal demand) is
built for that distribution and hands out finished variates: each refill
applies the inverse transform to the whole batch, with the expression
``make_sampler`` applies per draw, so every variate is bit-identical. A
stream shared by different distributions hands out uniforms, and each
consumer binds a ``make_sampler`` closure over ``uniform01``: its
variates must interleave in draw order, which a batch transformed ahead
for one distribution cannot give.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable, Iterator
from itertools import chain, repeat
from operator import length_hint

from .errors import DomainError
from .model import Distribution, DistKind

# How many uniforms to pull from the bit generator per refill, once the
# first refills have doubled up to it. Purely a speed knob; the sample
# sequence is identical for any positive size.
_BUFFER = 1024
# The first refill's size. Engine() draws each class's first arrival, so
# this is what a stream's first draw converts at set-up.
_FIRST_BATCH = 16

STREAM_ALGORITHM = "philox4x64/sha256-key/inverse-cdf"


def _check_seed(master_seed: int) -> None:
    if not (0 <= master_seed < 2**64):
        raise DomainError(f"master seed must be an unsigned 64-bit integer, got {master_seed!r}")


def stream_key(master_seed: int, consumer: str) -> int:
    """128-bit Philox key for a consumer, stable across builds."""
    _check_seed(master_seed)
    digest = hashlib.sha256(master_seed.to_bytes(8, "little") + b"\x00" + consumer.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


class _Refills:
    """The batch a stream is drawing from and how many uniforms it has
    taken from the generator. The refill generator writes it and
    ``Stream.draws`` reads it; it holds no reference to the stream, so a
    stream is in no cycle and is freed when its last reference goes."""

    __slots__ = ("batch", "taken")

    def __init__(self) -> None:
        self.batch: Iterator[float] = iter(())
        self.taken = 0


def _refill(
    master_seed: int, consumer: str, state: _Refills, transform: Callable[[list[float]], list[float]] | None
) -> Iterator[Iterator[float]]:
    """Endless batches from the consumer's generator: uniforms, or their
    ``transform`` when the stream is built for one distribution."""
    # imported here, at the first refill: it is half of `import
    # tiersim.cli`, which validate, synthesize and report need without a draw
    import numpy as np

    random = np.random.Generator(np.random.Philox(key=stream_key(master_seed, consumer))).random
    size = _FIRST_BATCH
    while True:
        # one name for the uniforms and their transform, so the suspended
        # generator keeps only the batch it hands out
        batch = random(size).tolist()
        if transform is not None:
            batch = transform(batch)
        state.batch = batch = iter(batch)
        state.taken += size
        yield batch
        size = min(2 * size, _BUFFER)


def _batch_transform(dist: Distribution) -> Callable[[list[float]], list[float]]:
    """``dist``'s inverse transform over a batch of uniforms: per value,
    exactly the expression ``make_sampler`` applies per draw."""
    kind = dist.kind
    if kind is DistKind.EXPONENTIAL:
        log1p = math.log1p
        rate = dist.rate
        return lambda batch: [-log1p(-u) / rate for u in batch]
    if kind is DistKind.UNIFORM:
        lo = dist.lo
        span = dist.hi - dist.lo
        return lambda batch: [lo + span * u for u in batch]
    raise DomainError(f"cannot sample distribution kind {kind!r}")


class Stream:
    """Deterministic draws for one named consumer.

    Built without a distribution, a stream hands out uniforms:
    ``uniform01()`` returns the next double in [0, 1). It never returns
    1.0, so log(1 - u) is finite.

    Built for one distribution, it hands out that distribution's
    variates instead: ``sample()`` returns the next, and the stream has
    no ``uniform01``. A deterministic ``sample`` draws nothing.
    """

    __slots__ = ("consumer", "uniform01", "sample", "_refills")

    def __init__(self, master_seed: int, consumer: str, dist: Distribution | None = None):
        _check_seed(master_seed)
        self.consumer = consumer
        self._refills = state = _Refills()
        if dist is not None and dist.kind is DistKind.DETERMINISTIC:
            self.sample: Callable[[], float] = repeat(dist.value).__next__
            return
        transform = None if dist is None else _batch_transform(dist)
        # the generator body, and so the keying, first runs at the first draw
        draw = chain.from_iterable(_refill(master_seed, consumer, state, transform)).__next__
        if dist is None:
            self.uniform01: Callable[[], float] = draw
        else:
            self.sample = draw

    @property
    def draws(self) -> int:
        """How many uniforms this stream has handed out, raw or transformed."""
        state = self._refills
        return state.taken - length_hint(state.batch)


def make_sampler(dist: Distribution, stream: Stream):
    """Bind ``dist`` to the uniforms of ``stream`` as a zero-argument
    callable that draws one non-negative variate per call.

    DETERMINISTIC consumes nothing from the stream; the other kinds
    consume exactly one uniform per call, so samplers sharing a stream
    interleave in draw order. Binding once keeps dispatch on the kind out
    of the engine's event loop.
    """
    kind = dist.kind
    if kind is DistKind.EXPONENTIAL:
        # inverse CDF: -ln(1 - u) / rate, u in [0, 1)
        uniform01 = stream.uniform01
        log1p = math.log1p
        rate = dist.rate
        return lambda: -log1p(-uniform01()) / rate
    if kind is DistKind.DETERMINISTIC:
        return repeat(dist.value).__next__
    if kind is DistKind.UNIFORM:
        uniform01 = stream.uniform01
        lo = dist.lo
        span = dist.hi - dist.lo
        return lambda: lo + span * uniform01()
    raise DomainError(f"cannot sample distribution kind {kind!r}")
