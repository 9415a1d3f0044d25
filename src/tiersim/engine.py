"""Deterministic discrete-event core.

Single-threaded, future-event-list simulation. The event list is a heap
of (time, seq, ...) tuples; seq is a global schedule counter, so ties in
time resolve in scheduling order and a run is a pure function of the
scenario (model + seed). No wall-clock, no shared mutable state.

Two event kinds exist. An arrival materializes one session of a class
and offers it to the first resource on its path; each arrival schedules
its successor, so at most one arrival per class is ever pending. A
service completion releases the replica, promotes the head of that
replica's queue, and forwards the session to its next visit at the same
timestamp.

Admission is decided in one place, _offer: a resource refuses a request
only when its waiting room is full and no replica is idle. A refused
session is dropped in its entirety at that visit and the drop is charged
to the refusing resource. Only an admitted request reaches a selector,
which places it. A resource that would hold more than MAX_WAITING
waiting requests raises DomainError instead of growing until memory
runs out.

The engine keeps queue state only. Each resource keeps its per-replica
backlogs (1 if serving, plus the queued requests) up to date as requests
are admitted and complete. A multi-replica resource hands that list as
it stands to the selector balancer.make_selector bound for it once; the
policy, its cursor and its stream live there. The backlogs are the one
record of which replica is busy: replica r serves iff backlogs[r] > 0,
and busy_since[r] is the one record of when that service began. What
is measured, and over which window, is the metrics module's business:
the engine reports each admission and completed visit to the resource's
accumulator and, at the stop clock, the services still running and the
requests still queued. run() and step() share one driver loop, which
dispatches every event.

Only the resources that some class visits get runtime state, a balance
stream and a service stream; a declared resource that no class visits
costs a run nothing, and metrics gives it its constant report row.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .balancer import make_selector
from .errors import DomainError, EngineEmptyError, InternalError
from .metrics import MetricsReport, RunAccumulator, finalize
from .model import ScenarioModel, StopKind
from .workload import Stream, make_sampler

_ARRIVAL = 0
_COMPLETE = 1
_INF = float("inf")
# The most requests one resource may hold waiting; at about 178 B per
# queued request, 10**7 is about 1.8 GB.
MAX_WAITING = 10**7


def _not_finite(time: float) -> InternalError:
    return InternalError(f"scheduled event time is not finite: {time!r}")


@dataclass(frozen=True)
class Event:
    """What step() just applied, for inspection in tests and tools."""

    time: float
    seq: int
    kind: str
    class_name: str | None = None
    resource: str | None = None
    replica: int | None = None
    request_id: int | None = None


@dataclass(frozen=True)
class ResourceSnapshot:
    busy: tuple[bool, ...]
    queue_lengths: tuple[int, ...]
    in_system: int
    offered: int
    served: int
    dropped: int


class Request:
    """One session walking its class path. Freed once terminal."""

    __slots__ = ("id", "cls", "visit_index", "arrival_time", "enqueue_time")

    def __init__(self, rid: int, cls: _ClassRuntime, arrival_time: float):
        self.id = rid
        self.cls = cls
        self.visit_index = 0
        self.arrival_time = arrival_time
        self.enqueue_time = arrival_time


class _ResourceRuntime:
    __slots__ = (
        "name",
        "queue_capacity",
        "select",
        "busy_since",
        "backlogs",
        "queues",
        "waiting",
        "acc",
    )

    def __init__(self, spec, seed: int, acc):
        self.name = spec.name
        self.queue_capacity = spec.queue_capacity
        balance = Stream(seed, f"resource:{spec.name}:balance")
        self.select = None if spec.replicas == 1 else make_selector(spec.balancer, spec.replicas, balance)
        self.busy_since = [0.0] * spec.replicas
        self.backlogs = [0] * spec.replicas  # (1 if serving) + len(queues[r]), kept by the engine
        self.queues: list[deque[Request]] = [deque() for _ in range(spec.replicas)]
        self.waiting = 0
        self.acc = acc


class _ClassRuntime:
    __slots__ = ("name", "max_requests", "path", "visits", "scheduled", "sample_arrival", "acc")

    def __init__(self, cls, seed: int, path, acc):
        self.name = cls.name
        self.max_requests = cls.max_requests
        self.path = path  # tuple of (_ResourceRuntime, demand sampler)
        self.visits = len(path)
        self.scheduled = 0
        self.sample_arrival = make_sampler(cls.arrival, Stream(seed, f"class:{cls.name}:arrival"))
        self.acc = acc


class Engine:
    """One simulation run over a validated scenario model."""

    def __init__(self, model: ScenarioModel):
        self.model = model
        self.clock = 0.0
        self.terminals = 0
        self._seq = 0
        self._heap: list = []
        self._next_request_id = 0
        self._finished = False

        seed = model.run.seed
        self.accumulator = RunAccumulator(model)
        accs = self.accumulator.resources
        # visited resources only: one no class visits is never offered a request
        self._resources: dict[str, _ResourceRuntime] = {
            spec.name: _ResourceRuntime(spec, seed, accs[spec.name]) for spec in model.resources() if spec.name in accs
        }
        service_streams = {name: Stream(seed, f"resource:{name}:service") for name in self._resources}
        for cls in model.classes:
            path = tuple(
                (self._resources[v.resource], make_sampler(v.demand, service_streams[v.resource])) for v in cls.path
            )
            cr = _ClassRuntime(cls, seed, path, self.accumulator.classes[cls.name])
            if cr.max_requests >= 1:
                time = cr.sample_arrival()
                if not time < _INF:
                    raise _not_finite(time)
                self._seq += 1
                heappush(self._heap, (time, self._seq, _ARRIVAL, cr, None, None))
                cr.scheduled = 1

    @property
    def events_applied(self) -> int:
        """Events applied so far: every scheduled event is applied or still pending."""
        return self._seq - len(self._heap)

    # -- handlers ------------------------------------------------------
    #
    # Every push checks its time with `not time < _INF`, which also
    # rejects NaN: a validated model can still overflow the clock (a
    # tiny exponential rate draws gaps near the float maximum).

    def _on_arrival(self, now: float, cr: _ClassRuntime) -> None:
        if cr.scheduled < cr.max_requests:
            cr.scheduled += 1
            time = now + cr.sample_arrival()
            if not time < _INF:
                raise _not_finite(time)
            self._seq += 1
            heappush(self._heap, (time, self._seq, _ARRIVAL, cr, None, None))
        self._next_request_id += 1
        req = Request(self._next_request_id, cr, now)
        cr.acc.generated += 1
        self._offer(req, cr, now)

    def _offer(self, req: Request, cr: _ClassRuntime, now: float) -> None:
        """Present the request at its current visit; admit or drop."""
        res, demand_sampler = cr.path[req.visit_index]
        acc = res.acc
        acc.offered += 1
        backlogs = res.backlogs
        full = res.waiting >= res.queue_capacity
        if full and 0 not in backlogs:
            acc.dropped += 1
            cr.acc.dropped += 1
            self.terminals += 1
            return
        # one replica: any policy degenerates to replica 0, so none was bound
        replica = 0 if res.select is None else res.select(backlogs, full)

        req.enqueue_time = now
        acc.occupancy_change(now, 1)
        backlogs[replica] += 1
        if backlogs[replica] > 1:
            if res.waiting >= MAX_WAITING:
                raise DomainError(
                    f"resource {res.name!r} has {MAX_WAITING} requests waiting, the most a resource may hold "
                    f"(tiersim.engine.MAX_WAITING); its arrivals outpace its replicas"
                )
            res.queues[replica].append(req)
            res.waiting += 1
            return

        res.busy_since[replica] = now
        time = now + demand_sampler()
        if not time < _INF:
            raise _not_finite(time)
        self._seq += 1
        heappush(self._heap, (time, self._seq, _COMPLETE, res, replica, req))

    def _on_complete(self, now: float, res: _ResourceRuntime, replica: int, req: Request) -> None:
        res.acc.record_visit(req.enqueue_time, res.busy_since[replica], now)
        res.backlogs[replica] -= 1

        queue = res.queues[replica]
        if queue:
            nxt = queue.popleft()
            res.waiting -= 1
            res.busy_since[replica] = now
            time = now + nxt.cls.path[nxt.visit_index][1]()
            if not time < _INF:
                raise _not_finite(time)
            self._seq += 1
            heappush(self._heap, (time, self._seq, _COMPLETE, res, replica, nxt))

        cr = req.cls
        req.visit_index += 1
        if req.visit_index < cr.visits:
            self._offer(req, cr, now)
        else:
            cr.acc.record_completion(req.arrival_time, now - req.arrival_time)
            self.terminals += 1

    # -- driving -------------------------------------------------------

    def _drive(self, limit: float, target: float, horizon: float):
        """Apply events in time order until `limit` have been applied,
        `target` sessions are terminal, or the next event lies past
        `horizon`. Returns the last event tuple applied, or None."""
        heap = self._heap
        on_arrival = self._on_arrival
        on_complete = self._on_complete
        item = None
        while limit and heap and self.terminals < target and heap[0][0] <= horizon:
            limit -= 1
            item = heappop(heap)
            time, _, kind, a, b, c = item
            if time < self.clock:
                raise InternalError(f"event time {time!r} precedes clock {self.clock!r}")
            self.clock = time
            if kind == _ARRIVAL:
                on_arrival(time, a)
            else:
                on_complete(time, a, b, c)
        return item

    def step(self) -> Event:
        """Apply exactly one event and describe it. Testing hook."""
        if self._finished:
            raise InternalError("simulation already finalized")
        if not self._heap:
            raise EngineEmptyError("event list is empty")
        time, seq, kind, a, b, req = self._drive(1, _INF, _INF)
        if kind == _ARRIVAL:
            return Event(time=time, seq=seq, kind="arrival", class_name=a.name)
        return Event(
            time=time,
            seq=seq,
            kind="service_complete",
            class_name=req.cls.name,
            resource=a.name,
            replica=b,
            request_id=req.id,
        )

    def run(self) -> MetricsReport:
        """Drive to the stop rule and return the finalized report."""
        if self._finished:
            raise InternalError("simulation already finalized")
        stop = self.model.run.stop
        if stop.kind is StopKind.AFTER_REQUESTS:
            self._drive(_INF, stop.n, _INF)
        else:
            self._drive(_INF, _INF, stop.t)
            self.clock = stop.t
        return self._finalize(self.clock)

    def _finalize(self, elapsed: float) -> MetricsReport:
        self._finished = True
        for res in self._resources.values():
            res.acc.close(elapsed, [since for since, n in zip(res.busy_since, res.backlogs) if n], res.waiting)
        return finalize(self.accumulator, elapsed)

    # -- inspection ----------------------------------------------------

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    def snapshot(self, resource: str) -> ResourceSnapshot:
        """The resource's replicas, queues and counts as they stand; a
        declared resource that no class visits is always empty."""
        res = self._resources.get(resource)
        if res is None:
            replicas = self.model.resource(resource).replicas  # KeyError for an undeclared name
            return ResourceSnapshot((False,) * replicas, (0,) * replicas, 0, 0, 0, 0)
        return ResourceSnapshot(
            busy=tuple(b > 0 for b in res.backlogs),
            queue_lengths=tuple(len(q) for q in res.queues),
            in_system=sum(res.backlogs),
            offered=res.acc.offered,
            served=res.acc.served,
            dropped=res.acc.dropped,
        )


def simulate(model: ScenarioModel) -> MetricsReport:
    """Build an engine for the model, run it, return the report."""
    return Engine(model).run()
