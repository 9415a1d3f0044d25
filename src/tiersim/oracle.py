"""Closed-form results for a single M/M/c/K station.

This module is deliberately independent of the simulator: it evaluates
the birth-death steady-state equations directly, so simulation output
can be checked against it rather than against itself.

Convention: ``K`` counts waiting positions only. A station with ``c``
servers therefore occupies states 0..c+K, and an arrival is blocked
exactly in state c+K. The state probabilities are built from the
recurrence p_n ∝ p_{n-1} * lam / (min(n, c) * mu), which is singularity
free: at rho = 1 the weights above c are all equal (the uniform regime),
elsewhere they form a truncated geometric series. Weights are rescaled
on the fly so huge c+K cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .model import _finite, _integer

# Rescale threshold for the running weight computation.
_BIG = 1e280

# Most servers and waiting slots mmck() takes: it builds a float per
# state, so an unbounded c or K would exhaust memory (or overflow a list
# size) first.
MAX_SERVERS = 100_000
MAX_QUEUE_CAPACITY = 100_000


@dataclass(frozen=True)
class AnalyticMetrics:
    """Steady-state quantities for one station.

    mean_wait and mean_response are per admitted request; mean_response
    is always mean_wait + 1/mu by construction.
    """

    lam: float
    mu: float
    servers: int
    queue_capacity: int
    rho: float
    p_n: tuple[float, ...]
    p_block: float
    p_all_idle: float
    utilization: float
    lambda_eff: float
    mean_in_system: float
    mean_in_queue: float
    mean_wait: float
    mean_response: float


def check_station(lam: float, mu: float, servers: int, queue_capacity: int) -> None:
    """Raise DomainError naming the first argument mmck() cannot take.

    The number rules are the scenario validator's: a bool is neither a
    count nor a rate, and an int too large for a float is not finite."""
    if not (_integer(servers) and servers >= 1):
        raise DomainError(f"servers must be an integer >= 1, got {servers!r}")
    if servers > MAX_SERVERS:
        raise DomainError(f"servers must be at most {MAX_SERVERS}, got {servers!r}")
    if not (_integer(queue_capacity) and queue_capacity >= 0):
        raise DomainError(f"queue_capacity must be an integer >= 0, got {queue_capacity!r}")
    if queue_capacity > MAX_QUEUE_CAPACITY:
        raise DomainError(f"queue_capacity must be at most {MAX_QUEUE_CAPACITY}, got {queue_capacity!r}")
    if not (_finite(mu) and mu > 0):
        raise DomainError(f"mu must be finite and > 0, got {mu!r}")
    if not (_finite(lam) and lam >= 0):
        raise DomainError(f"lam must be finite and >= 0, got {lam!r}")


def mmck(lam: float, mu: float, servers: int, queue_capacity: int) -> AnalyticMetrics:
    """Exact steady state of an M/M/c/K station.

    ``queue_capacity`` is the number of waiting slots (K); the station
    holds at most servers + K requests. lam = 0 is legal and yields the
    empty-system fixed point.
    """
    check_station(lam, mu, servers, queue_capacity)
    top = servers + queue_capacity
    weights = [0.0] * (top + 1)
    weights[0] = 1.0
    total = 1.0
    w = 1.0
    # (n, scale): every weight below n is still to be multiplied by scale
    rescales: list[tuple[int, float]] = []
    for n in range(1, top + 1):
        w *= lam / (min(n, servers) * mu)
        if w > _BIG:
            # keep everything finite; only ratios matter
            scale = 1.0 / w
            rescales.append((n, scale))
            total *= scale
            w = 1.0
        weights[n] = w
        total += w
    # one backward pass gives each weight the product of the scales after it
    factor = 1.0
    starts = [0] + [n for n, _ in rescales]
    for (end, scale), start in zip(reversed(rescales), reversed(starts[:-1])):
        factor *= scale
        weights[start:end] = [wi * factor for wi in weights[start:end]]

    p_n = tuple(wi / total for wi in weights)
    p_block = p_n[top]

    mean_in_system = 0.0
    mean_in_queue = 0.0
    busy_servers = 0.0
    for n, p in enumerate(p_n):
        mean_in_system += n * p
        if n > servers:
            mean_in_queue += (n - servers) * p
        busy_servers += min(n, servers) * p

    utilization = busy_servers / servers
    # The accepted flow is the departure rate. lam * (1 - p_block) is the
    # same in exact arithmetic, but under deep overload 1 - p_block
    # cancels to a few ulps or to 0 and the wait reads far too low.
    lambda_eff = mu * busy_servers
    mean_wait = mean_in_queue / lambda_eff if lambda_eff > 0 else 0.0
    mean_response = mean_wait + 1.0 / mu

    return AnalyticMetrics(
        lam=float(lam),
        mu=float(mu),
        servers=servers,
        queue_capacity=queue_capacity,
        rho=lam / (servers * mu),
        p_n=p_n,
        p_block=p_block,
        p_all_idle=p_n[0],
        utilization=utilization,
        lambda_eff=lambda_eff,
        mean_in_system=mean_in_system,
        mean_in_queue=mean_in_queue,
        mean_wait=mean_wait,
        mean_response=mean_response,
    )
