"""Reference measurement rules and the driver that applies them.

record_visit, occupancy_change and record_completion state what a
completed visit, an admission and a completed session record in the
accumulators of tiersim.metrics: the plain records that accumulator()
builds, or the engine's runtimes, which are those records with queue
state beside them. Each takes the record and the run's window
(``warmup``) and series flag as arguments, as the engine's loop reads
them from the model. The engine's loop applies the
same rules inline; these functions are the separate statement that the
tests hold it to.

ReferenceEngine applies each event through its own handler frame and
records every measurement through these functions, as the engine did
before its loop applied both inline. Tests hold Engine's loop to it
field by field.

step() applies an engine's next event through the engine's own loop
and describes it, snapshot() reads one resource's replicas, queues
and counts as they stand, and terminals() counts the sessions that have
completed or been dropped: the event-by-event view the tests inspect.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from tiersim import engine
from tiersim.engine import _INF, Engine, Request, _bad_time
from tiersim.errors import DomainError, InternalError
from tiersim.metrics import ClassAccumulator, ResourceAccumulator, RunAccumulator


def record_visit(acc, warmup, series, enqueue, start, end):
    """One completed service: the busy interval is [start, end] and the
    request leaves the resource at end (occupancy_change(end, -1))."""
    acc.served += 1
    end_w = end if end > warmup else warmup
    acc.area += acc.occupancy * (end_w - acc.occupancy_since)
    acc.busy_time += end_w - (start if start > warmup else warmup)
    acc.occupancy_since = end_w
    acc.occupancy -= 1
    if enqueue < warmup:
        return
    n = acc.samples + 1
    acc.samples = n
    acc.waiting_mean += (start - enqueue - acc.waiting_mean) / n
    acc.service_mean += (end - start - acc.service_mean) / n
    if series:
        acc.series_arrivals.append(enqueue)
        acc.series_responses.append(end - enqueue)


def occupancy_change(acc, warmup, now, delta):
    """The request count at the resource changed by delta at time now.

    The time since the last change is occupancy area while the resource
    held requests and idle time while it held none.
    """
    n = acc.occupancy
    now_w = now if now > warmup else warmup
    if n:
        acc.area += n * (now_w - acc.occupancy_since)
    else:
        acc.idle_time += now_w - acc.occupancy_since
    acc.occupancy_since = now_w
    acc.occupancy = n + delta


def record_completion(acc, warmup, series, arrival, response):
    """A session that arrived at ``arrival`` completed after ``response``."""
    acc.completed += 1
    if arrival >= warmup:
        responses = acc.responses
        responses.append(response)
        acc.mean_response += (response - acc.mean_response) / len(responses)
        if series:
            acc.series_arrivals.append(arrival)


@dataclass(frozen=True)
class Event:
    """The event step() applied."""

    time: float
    seq: int
    kind: str
    class_name: str
    resource: str | None = None
    replica: int | None = None
    arrival_time: float | None = None


def step(eng):
    """Apply exactly ``eng``'s next event, the first in (time, seq)
    order, through its loop, and describe it. IndexError when no event
    is pending."""
    time, seq, a, replica, req = eng._heap[0]
    # the bound sorts just after this event and before every other
    eng._drive(_INF, (time, seq + 1))
    if req is None:
        return Event(time, seq, "arrival", a.spec.name)
    return Event(time, seq, "service_complete", req.cls.spec.name, a.name, replica, req.arrival_time)


def terminals(eng):
    """The sessions of ``eng`` that have completed or been dropped, as
    its class records count them."""
    return sum(cr.completed + cr.dropped for cr in eng.accumulator.classes.values())


@dataclass(frozen=True)
class Snapshot:
    busy: tuple[bool, ...]
    queue_lengths: tuple[int, ...]
    in_system: int
    offered: int
    served: int
    dropped: int


def snapshot(eng, resource):
    """The resource's replicas, queues and counts as they stand in
    ``eng``; a declared resource that no class visits is always empty,
    and an undeclared name is a KeyError."""
    res = eng.accumulator.resources.get(resource)
    if res is None:
        replicas = eng.model.resource(resource).replicas
        return Snapshot((False,) * replicas, (0,) * replicas, 0, 0, 0, 0)
    return Snapshot(
        busy=tuple(b > 0 for b in res.backlogs),
        queue_lengths=tuple(len(q) for q in res.queues),
        in_system=sum(res.backlogs),
        offered=res.offered,
        served=res.served,
        dropped=res.dropped,
    )


def accumulator(model):
    """A RunAccumulator of plain records for ``model``: one for each
    visited resource, in model order, and one for each class, with no
    queue state beside them."""
    visited = {v.resource for cls in model.classes for v in cls.path}
    resources = {
        r.name: ResourceAccumulator(r.name, r.replicas, model.run.warmup) for r in model.resources() if r.name in visited
    }
    return RunAccumulator(model, resources, {cls.name: ClassAccumulator() for cls in model.classes})


class ReferenceEngine(Engine):
    def __init__(self, model):
        super().__init__(model)
        self.terminals = 0  # its own count, beside the class records

    def _on_arrival(self, now, cr):
        cr.generated += 1
        if cr.generated < cr.max_requests:
            time = now + cr.sample_arrival()
            if not time < _INF:
                raise _bad_time(time, now)
            self._seq += 1
            heappush(self._heap, (time, self._seq, cr, None, None))
        req = object.__new__(Request)
        req.cls = cr
        req.visit_index = 0
        req.arrival_time = now
        self._offer(req, cr, now)

    def _offer(self, req, cr, now):
        res, demand_sampler = cr.path[req.visit_index]
        res.offered += 1
        backlogs = res.backlogs
        full = res.waiting >= res.queue_capacity
        if full and 0 not in backlogs:
            res.dropped += 1
            cr.dropped += 1
            self.terminals += 1
            return
        replica = 0 if res.select is None else res.select(backlogs, full)

        req.enqueue_time = now
        occupancy_change(res, self.model.run.warmup, now, 1)
        backlogs[replica] += 1
        if backlogs[replica] > 1:
            if res.waiting >= engine.MAX_WAITING:
                raise DomainError(
                    f"resource {res.name!r} has {engine.MAX_WAITING} requests waiting, the most a resource may hold "
                    f"(tiersim.engine.MAX_WAITING); its arrivals outpace its replicas"
                )
            res.queues[replica].append(req)
            res.waiting += 1
            return

        res.busy_since[replica] = now
        self._start(res, replica, req, demand_sampler(), now)

    def _start(self, res, replica, req, demand, now):
        """Schedule the end of a service that starts at now. A demand > 0
        the clock absorbs is an error if the visit's mean demand is too."""
        time = now + demand
        if demand > 0 and time == now:
            (cls,) = (c for c in self.model.classes if c.name == req.cls.spec.name)
            mean = cls.path[req.visit_index].demand.mean()
            if now + mean == now:
                raise DomainError(
                    f"resource {res.name!r}: a service demand of {demand!r} was lost to the clock at {now!r}, "
                    f"as is the visit's mean demand {mean!r}"
                )
        if not time < _INF:
            raise _bad_time(time, now)
        self._seq += 1
        heappush(self._heap, (time, self._seq, res, replica, req))

    def _on_complete(self, now, res, replica, req):
        run = self.model.run
        record_visit(res, run.warmup, run.series_enabled, req.enqueue_time, res.busy_since[replica], now)
        res.backlogs[replica] -= 1

        queue = res.queues[replica]
        if queue:
            nxt = queue.popleft()
            res.waiting -= 1
            res.busy_since[replica] = now
            self._start(res, replica, nxt, nxt.cls.path[nxt.visit_index][1](), now)

        cr = req.cls
        req.visit_index += 1
        if req.visit_index < cr.visits:
            self._offer(req, cr, now)
        else:
            record_completion(cr, run.warmup, run.series_enabled, req.arrival_time, now - req.arrival_time)
            self.terminals += 1

    def _drive(self, target, bound):
        """Engine._drive's contract, with the clock checked on every event:
        the independent statement that no event pops before the clock."""
        heap = self._heap
        while heap and self.terminals < target and heap[0] < bound:
            time, _, a, b, c = heappop(heap)
            if time < self.clock:
                raise InternalError(f"event time {time!r} precedes clock {self.clock!r}")
            self.clock = time
            if c is None:
                self._on_arrival(time, a)
            else:
                self._on_complete(time, a, b, c)
