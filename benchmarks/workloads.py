"""The benchmark's four workloads: seeded inputs and one job each.

A job is what a tiersim user does once: turn input text into a ready
``Engine``, run it, and render the outputs (report JSON, plus the series
CSV when series is on and the sweep CSV for a sweep). Every layer is
called through its public function, and ``Spans`` times each call from
outside, so nothing under ``src/`` is touched.

All inputs derive from the benchmark seed: the same seed gives the same
scenario text, step script and deployment map.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass

from tiersim import (
    UNBOUNDED,
    Distribution,
    Engine,
    MetricsReport,
    RunConfig,
    StopRule,
    bundled,
    export_series,
    parse_deployment,
    parse_execution,
    parse_scenario,
    report_to_json,
    serialize_scenario,
    synthesize_scenario,
)
from tiersim.cli import SweepResult, run_sweep, sweep_to_csv

WORKLOADS = ("mm1_long", "jsq8_station", "webservices_series", "wide_sweep")

# Sessions per job. Each job takes a few tenths of a second, so a run
# holds dozens of jobs with a host-speed probe between each pair; longer
# jobs leave the host's drift within a job unmeasured.
MM1_SESSIONS = 50_000
JSQ8_SESSIONS = 25_000
WEBSERVICES_SESSIONS = 12_500

# wide_sweep: nodes in the generated deployment, sessions per sweep
# replication, grid points as multiples of the design rate, replications.
WIDE_NODES = 300
WIDE_SESSIONS = 500
WIDE_RATE_SCALES = (0.75, 1.5)
WIDE_REPLICATIONS = 2
# The design rate loads the busiest visited resource to this utilization.
WIDE_DESIGN_LOAD = 0.5
# Processors of the flow's nodes: (replicas, queue capacity, balancer).
FLOW_CPUS = {
    "client": (1, "inf", "jsq"),
    "gateway": (2, 16, "jsq"),
    "service": (4, 16, "round_robin"),
    "store": (2, 8, "random"),
}


@dataclass(frozen=True)
class Station:
    """One M/M/c/K station, as ``tiersim.mmck`` takes it."""

    lam: float
    mu: float
    servers: int
    queue_capacity: int


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    scenario_seed: int
    scenario_text: str = ""
    steps_text: str = ""
    deployment_text: str = ""
    design_rate: float = 0.0
    station: Station | None = None
    rates: tuple[float, ...] = ()

    @property
    def runs_per_job(self) -> int:
        """Simulation runs one job makes (each sweep replication counts)."""
        return 1 + len(self.rates) * WIDE_REPLICATIONS


@dataclass
class Job:
    """What one job produced, plus the wall time of each layer call."""

    spans: dict[str, float]
    wall_s: float
    setup_s: float
    engine: Engine
    report: MetricsReport
    outputs: dict[str, str]
    sweep: SweepResult | None

    def reports(self) -> list[MetricsReport]:
        """Every simulation report of the job, sweep replications included."""
        found = [self.report]
        if self.sweep is not None:
            for reps in self.sweep.reports.values():
                found.extend(reps)
        return found


class Spans:
    """Wall time between consecutive marks, keyed by the layer just called."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.start = self.last = time.perf_counter()

    def mark(self, name: str) -> float:
        now = time.perf_counter()
        self.seconds[name] = now - self.last
        self.last = now
        return now


def derive_seed(workload: str, seed: int) -> int:
    """Scenario seed for one workload, stable across machines."""
    digest = hashlib.sha256(f"tiersim-bench:{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _station_text(name: str, station: Station, sessions: int, seed: int) -> str:
    doc = {
        "format_version": 1,
        "name": name,
        "tiers": [
            {
                "name": "station",
                "resources": [
                    {
                        "name": "station",
                        "replicas": station.servers,
                        "queue_capacity": station.queue_capacity,
                        "balancer": "jsq",
                    }
                ],
            }
        ],
        "classes": [
            {
                "name": "load",
                "arrival": {"kind": "exponential", "rate": station.lam},
                "path": [{"resource": "station", "demand": {"kind": "exponential", "rate": station.mu}}],
            }
        ],
        "run": {"seed": seed, "stop": {"kind": "after_requests", "n": sessions}, "warmup": 0.0, "series": False},
    }
    return json.dumps(doc, indent=2) + "\n"


def _webservices_text(sessions: int, seed: int) -> str:
    doc = json.loads(bundled.scenario_text())
    for cls in doc["classes"]:
        cls.pop("max_requests", None)
    doc["run"].update(seed=seed, stop={"kind": "after_requests", "n": sessions}, series=True)
    return json.dumps(doc, indent=2) + "\n"


def _wide_texts(rng: random.Random) -> tuple[str, str]:
    """A ring of WIDE_NODES nodes and an 8-step flow over four of them.

    Node i has a processor and i % 3 disks, and a network link to node
    i + 1, so the deployment declares 3 * WIDE_NODES resources whatever
    the seed. Only the flow's nodes are ever visited: most declared
    resources cost set-up (two keyed streams each) but no events.

    The seed picks the step demands, where on the ring the flow sits,
    and each other node's replicas (1 to 4), balancer and capacities.
    The flow's own resources (FLOW_CPUS, and a capacity of 8 for its
    disks and links) and its path length are fixed, so the host work
    per event does not change with the seed.
    """
    nodes = {}
    for i in range(WIDE_NODES):
        cpu = {
            "name": f"n{i}_cpu",
            "replicas": rng.choice((1, 1, 2, 4)),
            "queue_capacity": rng.choice(("inf", 4, 16)),
            "balancer": rng.choice(("jsq", "round_robin", "random")),
        }
        disks = [{"name": f"n{i}_disk{d}", "queue_capacity": rng.choice(("inf", 8))} for d in range(i % 3)]
        nodes[f"node{i}"] = [cpu, *disks]
    links = [
        {
            "between": [f"node{i}", f"node{(i + 1) % WIDE_NODES}"],
            "resource": {"name": f"link{i}", "queue_capacity": rng.choice(("inf", 8))},
        }
        for i in range(WIDE_NODES)
    ]
    # client, gateway, service and store sit on consecutive ring nodes,
    # starting at a node with two disks; the cache shares the service's
    # node, so two steps cross no link
    first = 3 * rng.randrange(WIDE_NODES // 3) + 2
    placement = {"client": 0, "gateway": 1, "service": 2, "store": 3, "cache": 2}
    bindings = {p: f"node{(first + k) % WIDE_NODES}" for p, k in placement.items()}
    flow = [
        ("client", "gateway", "request"),
        ("gateway", "service", "route"),
        ("service", "store", "query"),
        ("store", "service", "rows"),
        ("service", "cache", "enrich"),
        ("cache", "service", "enriched"),
        ("service", "gateway", "reply"),
        ("gateway", "client", "response"),
    ]
    for participant, (replicas, capacity, balancer) in FLOW_CPUS.items():
        node = nodes[bindings[participant]]
        node[0].update(replicas=replicas, queue_capacity=capacity, balancer=balancer)
        for disk in node[1:]:
            disk["queue_capacity"] = 8
    flow_nodes = {(first + k) % WIDE_NODES for k in placement.values()}
    for i in flow_nodes:
        if (i + 1) % WIDE_NODES in flow_nodes:
            links[i]["resource"]["queue_capacity"] = 8
    lines = ["# generated request flow"]
    for src, dst, label in flow:
        disk = " @disk" if len(nodes[bindings[dst]]) > 1 else ""
        lines.append(f"{src} -> {dst} : {label} [exp {rng.uniform(200.0, 800.0)!r}]{disk}")
    deployment = {"bindings": bindings, "nodes": nodes, "links": links}
    return "\n".join(lines) + "\n", json.dumps(deployment, indent=2) + "\n"


def _design_rate(steps_text: str, deployment_text: str) -> float:
    """Arrival rate at which the busiest visited resource runs at WIDE_DESIGN_LOAD."""
    model = synthesize_scenario(
        parse_execution(steps_text), parse_deployment(deployment_text), arrival=Distribution.exponential(1.0)
    )
    work: dict[str, float] = {}
    for visit in model.classes[0].path:
        work[visit.resource] = work.get(visit.resource, 0.0) + visit.demand.mean()
    busiest = max(w / model.resource(name).replicas for name, w in work.items())
    return WIDE_DESIGN_LOAD / busiest


def make_inputs(workload: str, seed: int) -> Inputs:
    """Build one workload's inputs from the benchmark seed."""
    scenario_seed = derive_seed(workload, seed)
    if workload == "mm1_long":
        station = Station(lam=1.0, mu=2.0, servers=1, queue_capacity=40)
        text = _station_text("mm1_long", station, MM1_SESSIONS, scenario_seed)
        return Inputs(workload, seed, scenario_seed, scenario_text=text, station=station)
    if workload == "jsq8_station":
        station = Station(lam=7.6, mu=1.0, servers=8, queue_capacity=8)
        text = _station_text("jsq8_station", station, JSQ8_SESSIONS, scenario_seed)
        return Inputs(workload, seed, scenario_seed, scenario_text=text, station=station)
    if workload == "webservices_series":
        text = _webservices_text(WEBSERVICES_SESSIONS, scenario_seed)
        return Inputs(workload, seed, scenario_seed, scenario_text=text)
    if workload == "wide_sweep":
        steps, deployment = _wide_texts(random.Random(scenario_seed))
        rate = _design_rate(steps, deployment)
        return Inputs(
            workload,
            seed,
            scenario_seed,
            steps_text=steps,
            deployment_text=deployment,
            design_rate=rate,
            rates=tuple(rate * s for s in WIDE_RATE_SCALES),
        )
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def run_job(inputs: Inputs) -> Job:
    """One job from input text to rendered outputs, timed per layer.

    The job passes every mark, so the spans partition its wall time; a
    layer the workload skips gets the sub-microsecond time of the skip.
    """
    spans = Spans()
    scenario_text = inputs.scenario_text
    if inputs.steps_text:
        synthesized = synthesize_scenario(
            parse_execution(inputs.steps_text),
            parse_deployment(inputs.deployment_text),
            scenario_name=inputs.workload,
            arrival=Distribution.exponential(inputs.design_rate),
            max_requests=UNBOUNDED,
            run=RunConfig(seed=inputs.scenario_seed, stop=StopRule.after_requests(WIDE_SESSIONS)),
        )
        # the text `tiersim synthesize` writes, which the sweep then reads
        scenario_text = serialize_scenario(synthesized)
    spans.mark("frontend.synthesize_s")
    model = parse_scenario(scenario_text)
    spans.mark("model.parse_s")
    engine = Engine(model)
    setup_end = spans.mark("engine.init_s")
    report = engine.run()
    spans.mark("engine.run_s")
    outputs = {"report": report_to_json(report)}
    spans.mark("metrics.report_json_s")
    if model.run.series_enabled:
        outputs["series"] = export_series(report)
    spans.mark("metrics.export_series_s")
    sweep = None
    if inputs.rates:
        sweep = run_sweep(model, inputs.rates, WIDE_REPLICATIONS, inputs.scenario_seed)
        outputs["sweep"] = sweep_to_csv(sweep)
    end = spans.mark("cli.sweep_s")
    return Job(
        spans=spans.seconds,
        wall_s=end - spans.start,
        setup_s=setup_end - spans.start,
        engine=engine,
        report=report,
        outputs=outputs,
        sweep=sweep,
    )
