"""Sample-path oracle: every visit's times from Lindley's recursion.

One class walks a tandem that visits each resource once. Each station is
a single server with any waiting room, or c servers with no room
(K = 0). There the engine's floats follow from the arrival gaps and the
service draws alone, with no event list (Lindley, Proc. Cambridge Phil.
Soc. 48, 1952). The draws come from the engine's own streams through
``workload.make_sampler``; nothing else of the engine is used.

- Arrivals: t1 = gap() and t(n+1) = t(n) + gap(), for max_requests
  sessions. An unbounded class takes them in doubling batches, until the
  stop falls before the last arrival taken: an arrival and all it causes
  come after every earlier arrival's key, so a later one changes nothing
  before the stop.
- A station drops an offer if c + K admitted requests are still present.
  A single server starts an admitted request at its offer when it is
  free, and at its predecessor's departure when it is not:
  start = max(a(n), D(n-1)). c servers with no room start it at its
  offer. Its departure is start + draw(), the draws taken in admission
  order, which is the order services start.
- Sessions reach the next station in departure order, at their departure
  instants.

Ties. The engine applies the events of one instant in the order it
scheduled them. Here each event carries the key (time, key of the event
that scheduled it, its place among that event's children), and keys
compare as the engine's (time, seq) do: at one time, the event whose
scheduler ran first comes first. An arrival schedules its successor
(place 0) before the service it starts (place 1). A departure schedules
the service of the request queued behind it (0) before the service its
own request starts at the next station (1). So a request is still present
at an offer iff its departure's key exceeds the offer's.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from tiersim import UNBOUNDED, StopKind
from tiersim.workload import Stream, make_sampler

_ROOT = (float("-inf"),)  # Engine() itself, which schedules the first arrival
_END = (float("inf"),)  # a key after every event


@dataclass
class SamplePath:
    """What a run records up to its stop clock, by the recursion."""

    clock: float
    visits: dict  # resource -> [(enqueue, start, departure)], in completion order
    drops: dict  # resource -> sessions it dropped
    ends: list  # (arrival, response) of each completed session, in completion order
    in_flight: int  # sessions that arrived but neither completed nor were dropped


def sample_path(model) -> SamplePath:
    (cls,) = model.classes
    if cls.max_requests != UNBOUNDED:
        return _sample_path(model, cls.max_requests)[0]
    sessions = 16
    while True:
        path, bound, last = _sample_path(model, sessions)
        if bound < last:
            return path
        sessions *= 2


def _sample_path(model, sessions: int) -> tuple[SamplePath, tuple, tuple]:
    """The path of the first ``sessions`` arrivals, the key of the stop
    and the key of the last arrival."""
    (cls,) = model.classes
    seed, stop = model.run.seed, model.run.stop
    gap = make_sampler(cls.arrival, Stream(seed, f"class:{cls.name}:arrival"))
    offers, key, t = [], _ROOT, 0.0  # each session's (offer time, offer key, arrival key)
    for n in range(sessions):
        t = gap() if n == 0 else t + gap()
        key = (t, key, 0)
        offers.append((t, key, key))
    visits, drops, terminals, last = {}, {}, [], t  # terminals: (terminal key, arrival key)
    arrival = key
    for visit in cls.path:
        spec = model.resource(visit.resource)
        if spec.replicas > 1 and spec.queue_capacity != 0:
            raise ValueError(f"{spec.name}: c > 1 servers with a waiting room are out of scope")
        draw = make_sampler(visit.demand, Stream(seed, f"resource:{spec.name}:service"))
        room = spec.replicas + spec.queue_capacity
        present, done, dropped, prev = [], [], [], None  # present: a min-heap of departure keys
        for a, akey, arrived in offers:
            while present and present[0] < akey:
                heappop(present)
            if len(present) >= room:
                dropped.append(akey)
                terminals.append((akey, arrived))
                continue
            if spec.replicas == 1 and present:  # it starts when the last admitted request leaves
                start, prev = prev[0], (prev[0] + draw(), prev, 0)
            else:
                start, prev = a, (a + draw(), akey, 1)
            heappush(present, prev)
            done.append((prev, a, start, arrived))
            last = max(last, prev[0])
        done.sort()  # by departure key: no two are equal
        visits[spec.name] = done
        drops[spec.name] = dropped
        offers = [(k[0], k, arrived) for k, _, _, arrived in done]
    terminals += [(k, arrived) for _, k, arrived in offers]
    if stop.kind is StopKind.AFTER_TIME:
        clock, bound = stop.t, (stop.t, _END)
    elif len(terminals) >= stop.n:
        bound = sorted(terminals)[stop.n - 1][0]
        clock = bound[0]
    else:
        clock, bound = last, _END
    path = SamplePath(
        clock=clock,
        visits={name: [(a, s, k[0]) for k, a, s, _ in done if k <= bound] for name, done in visits.items()},
        drops={name: sum(k <= bound for k in keys) for name, keys in drops.items()},
        ends=[(arrived[0], k[0] - arrived[0]) for _, k, arrived in offers if k <= bound],
        in_flight=sum(arrived <= bound < k for k, arrived in terminals),
    )
    return path, bound, arrival
