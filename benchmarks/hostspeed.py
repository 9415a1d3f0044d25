"""Host-speed probe: a fixed workload timed between jobs.

The benchmark host is a shared virtual machine whose speed drifts by up
to 2x over minutes while the load average stays near zero. A job's wall
time therefore says as much about the neighbours as about tiersim. The
probe does the same kinds of work as the simulator but never changes,
so its time tracks the host: half of it is an interpreter-bound event
loop (heap, slotted objects, exponential draws, FIFO queue), half is
allocation-heavy JSON rendering and parsing like the scenario parser,
report and set-up paths. ``speed()`` turns a probe time into the host's
speed relative to the reference host; the timing metrics multiply wall
seconds by that speed to express them in reference-host seconds.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import deque
from heapq import heappop, heappush

# Probe seconds on the reference host: the median probe time on the
# 2-core Xeon VM (2.1 GHz, Python 3.11) the benchmark was tuned on.
# Only ratios of benchmark results are meaningful; this constant just
# keeps the scaled numbers close to the wall-clock ones.
REFERENCE_PROBE_S = 0.041

_EVENTS = 25_000
_ROUND_TRIPS = 4
_DOCUMENT = {
    f"resource{i}": {"rate": 1.0 / (i + 3), "replicas": i % 4 + 1, "name": f"n{i}_cpu", "path": [i * 0.5, i + 0.25]}
    for i in range(300)
}


class _Job:
    __slots__ = ("arrived", "started")

    def __init__(self, arrived: float):
        self.arrived = arrived
        self.started = 0.0


def _mm1_loop(events: int) -> float:
    rng = random.Random(20120110)
    uniform = rng.random
    log1p = math.log1p
    heap: list = []
    queue: deque[_Job] = deque()
    busy = False
    seq = 0
    waited = 0.0
    heappush(heap, (0.0, seq, 0, None))
    for _ in range(events):
        now, _, kind, job = heappop(heap)
        seq += 1
        if kind == 0:
            heappush(heap, (now - log1p(-uniform()) / 1.0, seq, 0, None))
            job = _Job(now)
            if busy:
                queue.append(job)
                continue
            busy = True
        elif queue:
            job = queue.popleft()
        else:
            busy = False
            continue
        job.started = now
        waited += now - job.arrived
        heappush(heap, (now - log1p(-uniform()) / 2.0, seq, 1, job))
    return waited


def _json_round_trips(count: int) -> int:
    size = 0
    for _ in range(count):
        size += len(json.loads(json.dumps(_DOCUMENT, indent=2, sort_keys=True)))
    return size


def probe() -> float:
    """Wall seconds for one fixed probe workload."""
    start = time.perf_counter()
    _mm1_loop(_EVENTS)
    _json_round_trips(_ROUND_TRIPS)
    return time.perf_counter() - start


def speed(probe_s: float) -> float:
    """Host speed relative to the reference host (above 1 = faster)."""
    return REFERENCE_PROBE_S / probe_s
