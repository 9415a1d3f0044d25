"""Reference driver: the engine with one handler frame per event.

ReferenceEngine applies each event through separate handlers and records
every measurement through the accumulator methods (record_visit,
occupancy_change, record_completion), as the engine did before its loop
applied both inline. Tests hold Engine's loop to it field by field.
"""

from __future__ import annotations

from heapq import heappop, heappush

from tiersim import engine
from tiersim.engine import _INF, Engine, Request, _not_finite
from tiersim.errors import DomainError, InternalError


class ReferenceEngine(Engine):
    def _on_arrival(self, now, cr):
        cr.acc.generated += 1
        if cr.acc.generated < cr.max_requests:
            time = now + cr.sample_arrival()
            if not time < _INF:
                raise _not_finite(time)
            self._seq += 1
            heappush(self._heap, (time, self._seq, cr, None, None))
        self._next_request_id += 1
        req = object.__new__(Request)
        req.id = self._next_request_id
        req.cls = cr
        req.visit_index = 0
        req.arrival_time = now
        self._offer(req, cr, now)

    def _offer(self, req, cr, now):
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
        replica = 0 if res.select is None else res.select(backlogs, full)

        req.enqueue_time = now
        acc.occupancy_change(now, 1)
        backlogs[replica] += 1
        if backlogs[replica] > 1:
            if res.waiting >= engine.MAX_WAITING:
                raise DomainError(
                    f"resource {acc.name!r} has {engine.MAX_WAITING} requests waiting, the most a resource may hold "
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
        heappush(self._heap, (time, self._seq, res, replica, req))

    def _on_complete(self, now, res, replica, req):
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
            heappush(self._heap, (time, self._seq, res, replica, nxt))

        cr = req.cls
        req.visit_index += 1
        if req.visit_index < cr.visits:
            self._offer(req, cr, now)
        else:
            cr.acc.record_completion(req.arrival_time, now - req.arrival_time)
            self.terminals += 1

    def _drive(self, target, horizon, once):
        heap = self._heap
        item = None
        limit = 1 if once else _INF
        while limit and heap and self.terminals < target and heap[0][0] <= horizon:
            limit -= 1
            item = heappop(heap)
            time, _, a, b, c = item
            if time < self.clock:
                raise InternalError(f"event time {time!r} precedes clock {self.clock!r}")
            self.clock = time
            if c is None:
                self._on_arrival(time, a)
            else:
                self._on_complete(time, a, b, c)
        return item
