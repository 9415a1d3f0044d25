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

A draw enters no Python frame: ``Stream.uniform01`` is the ``__next__``
of a C iterator that chains the generator's batches of ``_BUFFER``
doubles, so a draw is one C call. A refill, once per batch, is the only
Python step.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable, Iterator
from itertools import chain, repeat
from operator import length_hint

from .errors import DomainError
from .model import Distribution, DistKind

# How many uniforms to pull from the bit generator per refill. Purely a
# speed knob; the sample sequence is identical for any positive size. It
# also sets the cost of a stream's first draw, which keys the generator
# and fills the first batch.
_BUFFER = 1024

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
    """The batch a stream is drawing from and how many batches it has
    taken. The refill generator writes it and ``Stream.draws`` reads it;
    it holds no reference to the stream, so a stream is in no cycle and
    is freed when its last reference goes."""

    __slots__ = ("batch", "batches")

    def __init__(self) -> None:
        self.batch: Iterator[float] = iter(())
        self.batches = 0


def _refill(master_seed: int, consumer: str, state: _Refills) -> Iterator[Iterator[float]]:
    """Endless batches of ``_BUFFER`` uniforms from the consumer's generator."""
    # imported here, at the first refill: it is half of `import
    # tiersim.cli`, which validate, synthesize and report need without a draw
    import numpy as np

    random = np.random.Generator(np.random.Philox(key=stream_key(master_seed, consumer))).random
    while True:
        state.batch = batch = iter(random(_BUFFER).tolist())
        state.batches += 1
        yield batch


class Stream:
    """Deterministic uniform source for one named consumer.

    ``uniform01()`` returns the next double in [0, 1). It never returns
    1.0, so log(1 - u) is finite.
    """

    __slots__ = ("consumer", "uniform01", "_refills")

    def __init__(self, master_seed: int, consumer: str):
        _check_seed(master_seed)
        self.consumer = consumer
        self._refills = state = _Refills()
        # the generator body, and so the keying, first runs at the first draw
        self.uniform01: Callable[[], float] = chain.from_iterable(_refill(master_seed, consumer, state)).__next__

    @property
    def draws(self) -> int:
        """How many uniforms this stream has handed out."""
        state = self._refills
        return state.batches * _BUFFER - length_hint(state.batch)


def make_sampler(dist: Distribution, stream: Stream):
    """Bind ``dist`` to ``stream`` as a zero-argument callable that draws
    one non-negative variate per call.

    DETERMINISTIC consumes nothing from the stream; the other kinds
    consume exactly one uniform per call. Binding once keeps dispatch on
    the kind out of the engine's event loop.
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
