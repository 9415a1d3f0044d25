"""Deterministic discrete-event core.

Single-threaded, future-event-list simulation. The event list is a heap
of (time, seq, target, replica, request) tuples; seq is a global
schedule counter, so ties in time resolve in scheduling order and a run
is a pure function of the scenario (model + seed). No wall-clock, no
shared mutable state.

Two event kinds exist, told apart by their request. An arrival carries
none (its target is the class, its replica None): it materializes one
session of the class and offers it to the first resource on its path.
Each arrival counts itself in its class's generated count, then
schedules its successor while generated < max_requests, so at most one
arrival per class is ever pending. A service completion carries the
request it served (its target is the resource): it releases the
replica, promotes the head of that replica's queue, and forwards the
session to its next visit at the same timestamp.

One loop, Engine._drive, applies every event in its own frame: no
handler, admission or accounting function is called per event. It
reads the run's window and series setting from the model once per call.
Admission is still decided in one place, the loop's offer block, which
both an arrival and a forwarded session reach: a resource refuses a
request only when its waiting room is full and no replica is idle. A
refused session is dropped in its entirety at that visit and the drop
is charged to the refusing resource. Only an admitted request reaches a selector,
which places it. A resource that would hold more than MAX_WAITING
waiting requests raises DomainError instead of growing until memory
runs out. So does a service start whose demand > 0 the clock absorbs
(now + demand == now, once the clock is past about 2**53 times the
demand) when the visit's mean demand is absorbed too: every service
there would take no time. A lone draw far below its mean, which a long
run makes now and then, ends where it starts, as any sum of a float
clock rounds; so does a demand of 0.

Each visited resource and each class is one object: a subclass of the
metrics module's accumulator record that adds the loop's own state. So
what the loop drives is what finalize reads, with no second record to
reach. A resource adds its per-replica backlogs (1 if serving, plus the
queued requests), kept up to date as requests are admitted and complete.
A multi-replica resource hands that list as it stands to the selector
balancer.make_selector bound for it once; the policy, its cursor and its
stream live there. The backlogs are the one record of which replica is
busy: replica r serves iff backlogs[r] > 0, and busy_since[r] is the one
record of when that service began. A class adds its path and its
arrival sampler.

The loop states the measurement rules: what a completed visit, an
admission and a completed session record in the accumulator fields, and
over which window. tests/refengine.py holds the same rules as
functions, applied through one handler frame per event, and the tests
hold this loop to them field by field. A kept session response
goes onto its class's packed ``array('d')`` of responses, 8 bytes each,
from which finalize selects p50 and p95. With series on, a kept visit
appends its arrival and response to its resource's two packed series
columns, and a kept session appends its arrival to its class's column:
8 bytes a value, and no tuple per row. At the stop clock the engine
hands each resource the window, the services still running and the
requests still queued (ResourceAccumulator.close).
The loop applies every event that sorts before a (time, seq) bound in
the heap's own order: run() passes (stop time, inf) for an after_time
stop and (inf, 0) for an after_requests one. A caller that passes the
next event's time and seq + 1, which sorts after that event and before
every other, applies that one event: tests/refengine.py's step() drives
the engine so.

Finalizing releases each still-queued request's class link: that link
leads back, through the class path, to the queue holding the request,
so without the release a finished run would wait for the cyclic
collector. The queues themselves stay: tests/refengine.py's snapshot()
reads them, and a test checks that a finished run with queued requests
is freed without the collector.

Engine() decides once which resources get a record: only those that
some class visits get one, with its queue state and a service stream,
and the engine hands the same records to RunAccumulator. Of those, only
a multi-replica resource whose policy is random has a balance stream,
which its selector builds. A declared resource that no class visits
costs a run nothing, and metrics gives it its constant report row.

Each class draws its arrival gaps from its arrival stream, and each
visited resource has one service stream that every visit to it draws
from. A visit binds its own demand's sampler (see the workload module)
to that stream, so a draw is one C call and the draws of a resource
visited with different demands interleave in the order the visits make
them.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from .balancer import make_selector
from .errors import DomainError, InternalError
from .metrics import ClassAccumulator, MetricsReport, ResourceAccumulator, RunAccumulator, finalize
from .model import ScenarioModel, StopKind
from .workload import Stream, make_sampler

_INF = float("inf")
# The most requests one resource may hold waiting; at 96 to 120 B per
# queued request (a 64 B Request, one or two 24 B floats, a deque slot),
# 10**7 is at most about 1.2 GB.
MAX_WAITING = 10**7


def _bad_time(time: float, now: float) -> InternalError:
    """The error for an event scheduled at ``time`` when the clock reads
    ``now``: ``time`` is not finite, or it precedes ``now``."""
    if not time < _INF:
        return InternalError(f"scheduled event time is not finite: {time!r}")
    return InternalError(f"event time {time!r} precedes clock {now!r}")


class Request:
    """One session walking its class path, freed once terminal: its
    class, the index of its current visit, the time the session arrived
    and the time it joined its current resource.

    The driver loop fills the slots itself when a session arrives, with
    no __init__ frame, and sets enqueue_time at each admission."""

    __slots__ = ("cls", "visit_index", "arrival_time", "enqueue_time")


_new = object.__new__


class _ResourceRuntime(ResourceAccumulator):
    """A visited resource: its measurement record, plus the queue state
    the loop keeps beside it."""

    __slots__ = ("queue_capacity", "select", "busy_since", "backlogs", "queues", "waiting")

    def __init__(self, spec, seed: int, warmup: float):
        super().__init__(spec.name, spec.replicas, warmup)
        self.queue_capacity = spec.queue_capacity
        self.select = None if spec.replicas == 1 else make_selector(spec.balancer, spec.replicas, seed, spec.name)
        self.busy_since = [0.0] * spec.replicas
        self.backlogs = [0] * spec.replicas  # (1 if serving) + len(queues[r]), kept by the engine
        self.queues: list[deque[Request]] = [deque() for _ in range(spec.replicas)]
        self.waiting = 0


class _ClassRuntime(ClassAccumulator):
    """A class: its measurement record, plus its path and arrival sampler."""

    __slots__ = ("name", "max_requests", "path", "visits", "sample_arrival")

    def __init__(self, cls, seed: int, path):
        super().__init__()
        self.name = cls.name
        self.max_requests = cls.max_requests
        self.path = path  # tuple of (_ResourceRuntime, demand sampler)
        self.visits = len(path)
        self.sample_arrival = make_sampler(cls.arrival, Stream(seed, f"class:{cls.name}:arrival"))


class Engine:
    """One simulation run over a validated scenario model."""

    def __init__(self, model: ScenarioModel):
        self.model = model
        self.clock = 0.0
        self.terminals = 0
        self._seq = 0
        self._heap: list = []
        self._finished = False

        seed = model.run.seed
        visited = {v.resource for cls in model.classes for v in cls.path}
        # visited resources only: one no class visits is never offered a request
        self._resources: dict[str, _ResourceRuntime] = {
            spec.name: _ResourceRuntime(spec, seed, model.run.warmup) for spec in model.resources() if spec.name in visited
        }
        services = {name: Stream(seed, f"resource:{name}:service") for name in self._resources}
        classes: dict[str, _ClassRuntime] = {}
        for cls in model.classes:
            path = tuple((self._resources[v.resource], make_sampler(v.demand, services[v.resource])) for v in cls.path)
            classes[cls.name] = cr = _ClassRuntime(cls, seed, path)
            # a validated class generates at least one session
            time = cr.sample_arrival()
            if not 0.0 <= time < _INF:
                raise _bad_time(time, 0.0)
            self._seq += 1
            heappush(self._heap, (time, self._seq, cr, None, None))
        self.accumulator = RunAccumulator(model, self._resources, classes)

    @property
    def events_applied(self) -> int:
        """Events applied so far: every scheduled event is applied or still pending."""
        return self._seq - len(self._heap)

    # -- driving -------------------------------------------------------
    #
    # Every push checks its time with `not now <= time < _INF` (now is
    # 0.0 for the first arrivals), which also rejects NaN: a validated
    # model can still overflow the clock (a tiny exponential rate draws
    # gaps near the float maximum), and an unvalidated one can schedule
    # an event before the clock (a negative gap or demand). The heap pops
    # in (time, seq) order, so once every push is checked no event pops
    # before the clock, and the loop does not check it again. A service
    # start first checks `not now < time < _INF`: a demand > 0 whose end
    # is not past now was lost to the clock, and _check_start applies
    # the push check and then decides whether the loss is an error.

    def _drive(self, target: float, bound: tuple) -> None:
        """Apply events in (time, seq) order until `target` sessions are
        terminal or the next event does not sort before `bound`, a
        (time, seq) pair compared as the heap compares its entries.

        An arrival (an event with no request) schedules its successor
        and builds its request; a completion records the visit, starts
        the replica's next queued request, and finishes the session or
        moves it on. Both then reach the one offer block, which admits
        or drops. The counters live in locals and are written back
        however the loop ends."""
        heap = self._heap
        run = self.model.run
        warmup = run.warmup
        series = run.series_enabled
        now = self.clock
        seq = self._seq
        terminals = self.terminals
        try:
            while heap and terminals < target and heap[0] < bound:
                now, _, a, replica, req = heappop(heap)

                if req is None:
                    cr = a
                    cr.generated = generated = cr.generated + 1
                    if generated < cr.max_requests:
                        time = now + cr.sample_arrival()
                        if not now <= time < _INF:
                            raise _bad_time(time, now)
                        seq += 1
                        heappush(heap, (time, seq, cr, None, None))
                    req = _new(Request)
                    req.cls = cr
                    req.visit_index = visit = 0
                    req.arrival_time = now
                else:
                    res = a
                    busy_since = res.busy_since
                    # a completed visit: busy [start, now], then the request leaves
                    enqueue = req.enqueue_time
                    start = busy_since[replica]
                    res.served += 1
                    now_w = now if now > warmup else warmup
                    res.area += res.occupancy * (now_w - res.occupancy_since)
                    res.busy_time += now_w - (start if start > warmup else warmup)
                    res.occupancy_since = now_w
                    res.occupancy -= 1
                    if enqueue >= warmup:
                        n = res.samples + 1
                        res.samples = n
                        res.waiting_mean += (start - enqueue - res.waiting_mean) / n
                        res.service_mean += (now - start - res.service_mean) / n
                        if series:
                            res.series_arrivals.append(enqueue)
                            res.series_responses.append(now - enqueue)
                    res.backlogs[replica] -= 1

                    queue = res.queues[replica]
                    if queue:
                        nxt = queue.popleft()
                        res.waiting -= 1
                        busy_since[replica] = now
                        demand = nxt.cls.path[nxt.visit_index][1]()
                        time = now + demand
                        if not now < time < _INF and demand:
                            self._check_start(nxt.cls, nxt.visit_index, demand, now, time)
                        seq += 1
                        heappush(heap, (time, seq, res, replica, nxt))

                    cr = req.cls
                    req.visit_index = visit = req.visit_index + 1
                    if visit == cr.visits:
                        # a completed session
                        cr.completed += 1
                        arrival = req.arrival_time
                        if arrival >= warmup:
                            response = now - arrival
                            responses = cr.responses
                            responses.append(response)
                            cr.mean_response += (response - cr.mean_response) / len(responses)
                            if series:
                                cr.series_arrivals.append(arrival)
                        terminals += 1
                        continue

                # offer: present req at its visit, admit or drop
                res, sample = cr.path[visit]
                res.offered += 1
                backlogs = res.backlogs
                full = res.waiting >= res.queue_capacity
                if full and 0 not in backlogs:
                    res.dropped += 1
                    cr.dropped += 1
                    terminals += 1
                    continue
                # one replica: any policy degenerates to replica 0, so none was bound
                replica = 0 if res.select is None else res.select(backlogs, full)

                req.enqueue_time = now
                # an admission: the time since the last change is area or idle time
                n = res.occupancy
                now_w = now if now > warmup else warmup
                if n:
                    res.area += n * (now_w - res.occupancy_since)
                else:
                    res.idle_time += now_w - res.occupancy_since
                res.occupancy_since = now_w
                res.occupancy = n + 1
                backlogs[replica] += 1
                if backlogs[replica] > 1:
                    if res.waiting >= MAX_WAITING:
                        raise DomainError(
                            f"resource {res.name!r} has {MAX_WAITING} requests waiting, the most a resource may hold "
                            f"(tiersim.engine.MAX_WAITING); its arrivals outpace its replicas"
                        )
                    res.queues[replica].append(req)
                    res.waiting += 1
                    continue

                res.busy_since[replica] = now
                demand = sample()
                time = now + demand
                if not now < time < _INF and demand:
                    self._check_start(cr, visit, demand, now, time)
                seq += 1
                heappush(heap, (time, seq, res, replica, req))
        finally:
            self.clock = now
            self._seq = seq
            self.terminals = terminals

    def _check_start(self, cr, visit: int, demand: float, now: float, time: float) -> None:
        """Raise unless a service of ``demand`` != 0 that starts at ``now``
        at visit ``visit`` of ``cr`` may end at ``time``, which is not past
        ``now`` or not finite. An end that is not finite or precedes
        ``now`` is an InternalError (see _bad_time). An end at ``now`` is a
        demand the clock absorbed: an error when the visit's mean demand
        is absorbed too, so that every service there takes no time; a
        lone draw far below the mean ends where it starts, as any sum
        rounds."""
        if not now <= time < _INF:
            raise _bad_time(time, now)
        mean = next(c for c in self.model.classes if c.name == cr.name).path[visit].demand.mean()
        if now + mean == now:
            raise DomainError(
                f"resource {cr.path[visit][0].name!r}: a service demand of {demand!r} was lost to the clock at "
                f"{now!r}, as is the visit's mean demand {mean!r}"
            )

    def run(self) -> MetricsReport:
        """Drive to the stop rule and return the finalized report."""
        if self._finished:
            raise InternalError("simulation already finalized")
        stop = self.model.run.stop
        if stop.kind is StopKind.AFTER_REQUESTS:
            self._drive(stop.n, (_INF, 0))
        else:
            self._drive(_INF, (stop.t, _INF))
            self.clock = stop.t
        return self._finalize(self.clock)

    def _finalize(self, elapsed: float) -> MetricsReport:
        self._finished = True
        warmup = self.model.run.warmup
        for res in self._resources.values():
            res.close(elapsed, warmup, [since for since, n in zip(res.busy_since, res.backlogs) if n], res.waiting)
            # break the cycle request -> class path -> this queue -> request
            for queue in res.queues:
                for req in queue:
                    req.cls = None
        return finalize(self.accumulator, elapsed)


def simulate(model: ScenarioModel) -> MetricsReport:
    """Build an engine for the model, run it, return the report."""
    return Engine(model).run()
