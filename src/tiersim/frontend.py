"""Design-stage inputs: turn a message-flow script plus a deployment map
into a runnable scenario.

The execution structure is a plain-text script, one interaction per
line:

    requester -> broker : find service [exp 12.5] @disk

``from -> to : label [dist params...]`` with an optional trailing
``@disk``. Distributions are ``exp RATE``, ``det VALUE`` or
``uniform LO HI``. ``#`` starts a comment. ``parse_execution`` returns
the script's steps as a tuple of ``Step``, in script order.

The deployment map is JSON binding each participant to a node, listing
each node's resources (the first entry is the node's processor, any
further entries are its disks), and naming the network resource that
carries traffic between each pair of nodes. A resource is written as
the scenario's resource object, or as a bare name for one with every
default.

Synthesis walks the steps in order. A step whose endpoints sit on
different nodes first visits the connecting network resource; every step
then visits the target node's processor, and with ``@disk`` also each of
the target's disks. Each visit draws its demand from the step's
distribution. The result is an ordinary scenario model: one tier per
node, one ``network`` tier for the links, one open workload class
walking the synthesized path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ScenarioSyntaxError, ValidationError
from .model import (
    _DIST_PARAMS,
    UNBOUNDED,
    DistKind,
    Distribution,
    ResourceSpec,
    RunConfig,
    ScenarioModel,
    Visit,
    WorkloadClass,
    _as_dict,
    _as_list,
    _as_record,
    _distribution_issue,
    _load_json,
    _parse_resource,
    _read_list,
    _require_keys,
    _rooted,
    _str,
    _tier,
    validated,
)

_STEP_RE = re.compile(
    r"^(?P<src>[A-Za-z_][\w.-]*)\s*->\s*(?P<dst>[A-Za-z_][\w.-]*)\s*:\s*"
    r"(?P<label>[^\[\]@]+?)\s*\[(?P<dist>[^\[\]]+)\]\s*(?P<disk>@disk)?\s*$"
)

# the tier synthesis makes for the link resources
_NETWORK_TIER = "network"

# the path of a tier or a tier's resource at the head of a validate() line
_TIER_PATH_RE = re.compile(r"tiers\[(\d+)\](?:\.resources\[(\d+)\])?")


@dataclass(frozen=True)
class Step:
    source: str
    target: str
    label: str
    demand: Distribution
    disk: bool = False


@dataclass(frozen=True)
class DeploymentMap:
    bindings: dict[str, str]
    nodes: dict[str, tuple[ResourceSpec, ...]]
    links: dict[tuple[str, str], ResourceSpec]

    def link_between(self, a: str, b: str) -> ResourceSpec | None:
        return self.links.get((a, b) if a <= b else (b, a))


# each distribution kind's token in a demand bracket, which lists the
# kind's parameters in the scenario format's order
_DEMAND_KINDS = {"exp": DistKind.EXPONENTIAL, "det": DistKind.DETERMINISTIC, "uniform": DistKind.UNIFORM}
_DEMAND_FORMS = [f"'{token} {' '.join(_DIST_PARAMS[kind]).upper()}'" for token, kind in _DEMAND_KINDS.items()]
_DEMAND_EXPECTED = f"expected {', '.join(_DEMAND_FORMS[:-1])} or {_DEMAND_FORMS[-1]}"


def _parse_demand(text: str, line_no: int) -> Distribution:
    tokens = text.split()
    if not tokens:
        raise ScenarioSyntaxError("empty demand bracket", line=line_no)
    kind, args = _DEMAND_KINDS.get(tokens[0]), tokens[1:]
    try:
        values = [float(a) for a in args]
    except ValueError:
        raise ScenarioSyntaxError(f"demand parameters must be numbers, got {args!r}", line=line_no) from None
    if kind is None or len(values) != len(_DIST_PARAMS[kind]):
        raise ScenarioSyntaxError(f"bad demand {text!r} ({_DEMAND_EXPECTED})", line=line_no)
    demand = Distribution(kind, **dict(zip(_DIST_PARAMS[kind], values)))
    # the validator's own rule, checked once here so that the error names
    # the line rather than each visit synthesis would make of this step
    issue = _distribution_issue(demand)
    if issue:
        raise ScenarioSyntaxError(f"demand: {issue}", line=line_no)
    return demand


def parse_execution(text: str) -> tuple[Step, ...]:
    """Parse the step script into its steps. Unparseable lines report their number."""
    steps: list[Step] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _STEP_RE.match(line)
        if not m:
            raise ScenarioSyntaxError(
                f"cannot parse step {line!r} (expected 'from -> to : label [dist params] [@disk]')",
                line=line_no,
            )
        steps.append(
            Step(
                source=m.group("src"),
                target=m.group("dst"),
                label=m.group("label").strip(),
                demand=_parse_demand(m.group("dist"), line_no),
                disk=m.group("disk") is not None,
            )
        )
    if not steps:
        raise ValidationError("execution structure holds no steps")
    return tuple(steps)


_LINK_KEYS = frozenset({"between", "resource"})


def _parse_resource_entry(obj: object) -> ResourceSpec:
    # a bare name is shorthand for a resource with every default
    return _parse_resource({"name": obj} if isinstance(obj, str) else obj)


def parse_deployment(text: str) -> DeploymentMap:
    """Parse and cross-check the deployment JSON."""
    raw = _as_dict(_load_json(text), "deployment")
    _require_keys(raw, ("bindings", "nodes", "links"), ("bindings", "nodes"), "deployment")

    nodes_raw = _as_dict(raw["nodes"], "deployment.nodes")
    if not nodes_raw:
        raise ValidationError("deployment.nodes must be a non-empty object")
    nodes: dict[str, tuple[ResourceSpec, ...]] = {}
    seen_resource: dict[str, str] = {}
    for node, entries in nodes_raw.items():
        # the paths below are relative to the node, rooted only when one is raised
        try:
            specs = tuple(_read_list(entries, _parse_resource_entry, ""))
            if not specs:
                raise ValidationError(": a node needs at least one resource")
        except ValidationError as exc:
            raise _rooted(f"deployment.nodes[{node!r}]", exc) from None
        for spec in specs:
            if spec.name in seen_resource:
                raise ValidationError(
                    f"deployment: resource {spec.name!r} declared on both {seen_resource[spec.name]!r} and {node!r}"
                )
            seen_resource[spec.name] = node
        nodes[node] = specs

    bindings = _as_dict(raw["bindings"], "deployment.bindings")
    if not bindings:
        raise ValidationError("deployment.bindings must be a non-empty object")
    for participant, node in bindings.items():
        path = f"deployment.bindings[{participant!r}]"
        if _str(node, path) not in nodes:
            raise ValidationError(f"{path}: participant bound to undeclared node {node!r}")

    links: dict[tuple[str, str], ResourceSpec] = {}
    link_specs: dict[str, ResourceSpec] = {}
    for i, entry in enumerate(_as_list(raw.get("links", []), "deployment.links")):
        # the paths below are relative to the link, rooted only when one is raised
        try:
            # each inline test calls the named reader only to name its error
            if not (type(entry) is dict and entry.keys() == _LINK_KEYS):
                _as_record(entry, ("between", "resource"), "")
            between = entry["between"]
            if not isinstance(between, list):
                _as_list(between, ".between")
            if len(between) != 2:
                raise ValidationError(".between: expected two node names")
            a, b = between
            if not (isinstance(a, str) and a in nodes and isinstance(b, str) and b in nodes):
                for endpoint_path, endpoint in zip((".between[0]", ".between[1]"), between):
                    if _str(endpoint, endpoint_path) not in nodes:
                        raise ValidationError(f".between: unknown node {endpoint!r}")
            if a == b:
                raise ValidationError(f".between: a link must join two distinct nodes, got {a!r} twice")
            key = (a, b) if a <= b else (b, a)
            if key in links:
                raise ValidationError(f": duplicate link between {a!r} and {b!r}")
            try:
                spec = _parse_resource_entry(entry["resource"])
            except ValidationError as exc:
                raise _rooted(".resource", exc) from None
            if spec.name in seen_resource:
                raise ValidationError(f": link resource {spec.name!r} collides with a node resource")
            # the same network resource may carry several node pairs, but its
            # spec must be written identically everywhere it appears
            if spec.name in link_specs and link_specs[spec.name] != spec:
                raise ValidationError(f": link resource {spec.name!r} redeclared with a different spec")
        except ValidationError as exc:
            raise _rooted(f"deployment.links[{i}]", exc) from None
        link_specs[spec.name] = spec
        links[key] = spec
    if links and _NETWORK_TIER in nodes:
        raise ValidationError(
            f"deployment.nodes[{_NETWORK_TIER!r}]: synthesis names the links' tier {_NETWORK_TIER!r},"
            " so no node of a deployment with links may take that name"
        )

    return DeploymentMap(bindings=dict(bindings), nodes=nodes, links=links)


def synthesize_scenario(
    execution: tuple[Step, ...],
    deployment: DeploymentMap,
    *,
    scenario_name: str = "synthesized",
    class_name: str = "sessions",
    arrival: Distribution,
    max_requests: int | float = UNBOUNDED,
    run: RunConfig | None = None,
) -> ScenarioModel:
    """Expand the step script against the deployment into a scenario.

    The synthesized path length is exactly (cross-node steps) +
    (declared processing visits): every step contributes its target's
    processor, @disk steps add each target disk, and crossing between
    nodes adds the connecting network resource.
    """
    visits: list[Visit] = []
    for step in execution:
        src_node = deployment.bindings.get(step.source)
        dst_node = deployment.bindings.get(step.target)
        if src_node is None:
            raise ValidationError(f"participant {step.source!r} has no binding in the deployment map")
        if dst_node is None:
            raise ValidationError(f"participant {step.target!r} has no binding in the deployment map")
        if src_node != dst_node:
            link = deployment.link_between(src_node, dst_node)
            if link is None:
                raise ValidationError(f"no link declared between nodes {src_node!r} and {dst_node!r}")
            visits.append(Visit(resource=link.name, demand=step.demand))
        resources = deployment.nodes[dst_node]
        visits.append(Visit(resource=resources[0].name, demand=step.demand))
        if step.disk:
            disks = resources[1:]
            if not disks:
                raise ValidationError(f"step {step.label!r} is tagged @disk but node {dst_node!r} declares no disks")
            visits.extend(Visit(resource=d.name, demand=step.demand) for d in disks)

    tiers = [_tier(node, specs) for node, specs in deployment.nodes.items()]
    # declare every link resource, even ones no step crosses, so the
    # scenario mirrors the whole deployment; dedupe shared links by name
    all_links = tuple(dict.fromkeys(deployment.links.values()))
    if all_links:
        tiers.append(_tier(_NETWORK_TIER, all_links))

    cls = WorkloadClass(name=class_name, arrival=arrival, path=tuple(visits), max_requests=max_requests)
    model = ScenarioModel(
        name=scenario_name,
        tiers=tuple(tiers),
        classes=(cls,),
        run=run if run is not None else RunConfig(),
    )
    try:
        return validated(model)
    except ValidationError as exc:
        # the user wrote a deployment, not these tiers: name its paths
        lines = [_deployment_path(line, deployment) for line in str(exc).split("\n")]
        raise ValidationError("\n".join(lines)) from None


def _deployment_path(line: str, deployment: DeploymentMap) -> str:
    """``line`` with a leading ``tiers[i]`` or ``tiers[i].resources[j]``
    of the synthesized scenario named as the deployment names it: a node
    or a node's resource, or the first link that declares a resource."""
    m = _TIER_PATH_RE.match(line)
    if m is None:
        return line
    tier, resource = int(m[1]), m[2]
    nodes = list(deployment.nodes)
    links = list(deployment.links.values())
    if tier < len(nodes):
        path = f"deployment.nodes[{nodes[tier]!r}]" + (f"[{resource}]" if resource else "")
    elif resource:
        # the network tier lists each distinct link resource once, in link order
        spec = tuple(dict.fromkeys(links))[int(resource)]
        path = f"deployment.links[{links.index(spec)}].resource"
    else:
        return line
    return path + line[m.end() :]
