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
"""

from __future__ import annotations

import hashlib
import math
from typing import TYPE_CHECKING

from .errors import DomainError
from .model import Distribution, DistKind

if TYPE_CHECKING:  # numpy is imported at a stream's first refill
    import numpy as np

# How many uniforms to pull from the bit generator per refill. Purely a
# speed knob; the sample sequence is identical for any positive size. It
# also sets the cost of a stream's first draw, which keys the generator
# and fills the first buffer.
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


class Stream:
    """Deterministic uniform source for one named consumer."""

    __slots__ = ("consumer", "_seed", "_gen", "_buf", "_idx", "_spent")

    def __init__(self, master_seed: int, consumer: str):
        _check_seed(master_seed)
        self.consumer = consumer
        self._seed = master_seed
        self._gen: np.random.Generator | None = None  # keyed on the first refill
        self._buf: list[float] = []
        self._idx = 0
        self._spent = 0  # uniforms in the buffers already used up

    def uniform01(self) -> float:
        """Next double in [0, 1). Never returns 1.0, so log(1 - u) is finite."""
        if self._idx >= len(self._buf):
            if self._gen is None:
                # imported here: it is half of `import tiersim.cli`, which
                # validate, synthesize and report need without a draw
                import numpy as np

                self._gen = np.random.Generator(np.random.Philox(key=stream_key(self._seed, self.consumer)))
            self._spent += self._idx  # the whole used-up buffer
            self._buf = self._gen.random(_BUFFER).tolist()
            self._idx = 0
        u = self._buf[self._idx]
        self._idx += 1
        return u

    @property
    def draws(self) -> int:
        """How many uniforms this stream has handed out."""
        return self._spent + self._idx


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
        value = dist.value
        return lambda: value
    if kind is DistKind.UNIFORM:
        uniform01 = stream.uniform01
        lo = dist.lo
        span = dist.hi - dist.lo
        return lambda: lo + span * uniform01()
    raise DomainError(f"cannot sample distribution kind {kind!r}")
