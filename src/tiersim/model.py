"""Scenario model: the validated description of what to simulate.

A scenario is a set of tiers holding queueing resources, a set of open
workload classes that walk an ordered path of visits across those
resources, and a run configuration (seed, stop rule, warmup). Instances
are immutable after parsing; the parser and ``validate`` enforce every
structural invariant, so downstream modules never re-check references.
``validate`` returns one ``"path: message"`` line per violation (none
for a valid model); ``validated`` raises them as one ValidationError.

The on-disk format is strict JSON: unknown keys are rejected rather than
ignored, which catches typos like ``"replicsa"`` before a run silently
uses a default. A deployment may declare hundreds of resources, so their
reader tests each value inline and calls a named reader only to word an
error, and the writer fills a template per tier and per resource: the
same error lines and bytes as the named readers and ``json_text`` give.
That template is the one writer of tiers. A model built in code may hold
a value of a type the reader never builds (a float count, a name that is
not a str, a float seed), in a tier, a resource, a class or the run; the
writer refuses such a model with validate's lines, or writes it as
json.dumps does where validate accepts the value, which it does only for
an int, float or str subclass.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections.abc import Callable, Collection
from dataclasses import dataclass, field, fields
from enum import Enum
from json.encoder import encode_basestring_ascii
from operator import attrgetter

from .errors import ScenarioSyntaxError, ValidationError

FORMAT_VERSION = 1

# Sentinels for "no limit". Stored as float('inf') so comparisons work
# directly; serialized as the strings "inf" / "unbounded".
INFINITE = math.inf
UNBOUNDED = math.inf

# Most replicas one resource may have: Engine() builds a deque and two
# list slots per replica, and JSQ scans every replica on each admission.
MAX_REPLICAS = 4096

# Most arrivals an unbounded class may expect before an after_time stop
# (horizon / mean gap) or, under an after_requests stop, before one of its
# sessions can end (mean demand ahead of its first bounded queue / mean
# gap). A run applies a few hundred thousand events per second, so this
# many already takes hours; far more means a gap far below the window's
# scale, which would only ever hang.
MAX_EXPECTED_ARRIVALS = 10**9

# Pseudo-resource label used by series export for whole-session rows.
# Reserved so a scenario resource can never collide with it.
END_TO_END = "__end_to_end__"


class DistKind(str, Enum):
    EXPONENTIAL = "exponential"
    DETERMINISTIC = "deterministic"
    UNIFORM = "uniform"


class BalancerPolicy(str, Enum):
    JSQ = "jsq"
    ROUND_ROBIN = "round_robin"
    RANDOM = "random"


class StopKind(str, Enum):
    AFTER_REQUESTS = "after_requests"
    AFTER_TIME = "after_time"


@dataclass(frozen=True)
class Distribution:
    """A sampling rule for interarrival gaps or service demands.

    Exactly one parameter set is meaningful per kind; unused fields stay
    at 0.0 so equality and round-trip serialization are well defined.
    The factories store their arguments as given, and ``validate``
    rejects any that is not a finite int or float.
    """

    kind: DistKind
    rate: float = 0.0
    value: float = 0.0
    lo: float = 0.0
    hi: float = 0.0

    @staticmethod
    def exponential(rate: float) -> "Distribution":
        return Distribution(DistKind.EXPONENTIAL, rate=rate)

    @staticmethod
    def deterministic(value: float) -> "Distribution":
        return Distribution(DistKind.DETERMINISTIC, value=value)

    @staticmethod
    def uniform(lo: float, hi: float) -> "Distribution":
        return Distribution(DistKind.UNIFORM, lo=lo, hi=hi)

    def mean(self) -> float:
        if self.kind is DistKind.EXPONENTIAL:
            return 1.0 / self.rate
        if self.kind is DistKind.DETERMINISTIC:
            return self.value
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class ResourceSpec:
    """One service station: ``replicas`` parallel servers sharing a
    bounded pool of waiting positions.

    ``queue_capacity`` counts waiting slots only, so the station holds at
    most ``replicas + queue_capacity`` requests at once.
    """

    name: str
    replicas: int = 1
    queue_capacity: int | float = INFINITE
    balancer: BalancerPolicy = BalancerPolicy.JSQ


@dataclass(frozen=True)
class Tier:
    name: str
    resources: tuple[ResourceSpec, ...]


@dataclass(frozen=True)
class Visit:
    """One stop on a class path: which resource, and the demand drawn there."""

    resource: str
    demand: Distribution


@dataclass(frozen=True)
class WorkloadClass:
    """An open arrival stream walking ``path`` in order.

    ``max_requests`` bounds how many sessions this class ever generates;
    UNBOUNDED leaves termination to the run's stop rule.
    """

    name: str
    arrival: Distribution
    path: tuple[Visit, ...]
    max_requests: int | float = UNBOUNDED


@dataclass(frozen=True)
class StopRule:
    kind: StopKind
    n: int = 0
    t: float = 0.0

    @staticmethod
    def after_requests(n: int) -> "StopRule":
        return StopRule(StopKind.AFTER_REQUESTS, n=n)

    @staticmethod
    def after_time(t: float) -> "StopRule":
        return StopRule(StopKind.AFTER_TIME, t=t)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    stop: StopRule = field(default_factory=lambda: StopRule.after_requests(1000))
    warmup: float = 0.0
    series_enabled: bool = False


@dataclass(frozen=True)
class ScenarioModel:
    name: str
    tiers: tuple[Tier, ...]
    classes: tuple[WorkloadClass, ...]
    run: RunConfig

    def resources(self) -> tuple[ResourceSpec, ...]:
        """All resources in tier declaration order."""
        return tuple(r for tier in self.tiers for r in tier.resources)

    def resource(self, name: str) -> ResourceSpec:
        for tier in self.tiers:
            for r in tier.resources:
                if r.name == name:
                    return r
        raise KeyError(name)


# finds a code point that UTF-8 cannot encode: a surrogate, such as the
# lone one that the JSON escape "\ud800" decodes to
_find_surrogate = re.compile("[\ud800-\udfff]").search


def _valid_name(name: object) -> bool:
    """A non-empty run of non-space characters that UTF-8 can encode, as
    a stream key, a report and an output line must."""
    # str.split() splits on exactly the characters str.isspace() accepts;
    # str.isascii() reads a flag, so an ASCII name skips the search
    return isinstance(name, str) and name.split() == [name] and (name.isascii() or not _find_surrogate(name))


def _finite(x: object) -> bool:
    """A finite int or float; a bool is not a number here, nor is an int
    too large for a float."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _integer(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# run.seed and every master seed is an unsigned 64-bit integer below this
SEED_LIMIT = 2**64


def valid_seed(x: object) -> bool:
    """An int in [0, SEED_LIMIT); a bool or a float is not a seed."""
    return _integer(x) and 0 <= x < SEED_LIMIT


def _distribution_issue(dist: Distribution) -> str | None:
    """What is wrong with ``dist``, without a path, or None when it is valid."""
    if dist.kind is DistKind.EXPONENTIAL:
        if not (_finite(dist.rate) and dist.rate > 0):
            return f"exponential rate must be finite and > 0, got {dist.rate!r}"
    elif dist.kind is DistKind.DETERMINISTIC:
        if not (_finite(dist.value) and dist.value >= 0):
            return f"deterministic value must be finite and >= 0, got {dist.value!r}"
    elif dist.kind is DistKind.UNIFORM:
        if not (_finite(dist.lo) and _finite(dist.hi) and 0 <= dist.lo <= dist.hi):
            return f"uniform bounds must satisfy 0 <= lo <= hi, got ({dist.lo!r}, {dist.hi!r})"
    else:
        return f"kind must be a DistKind, got {dist.kind!r}"
    return None


def validate(model: ScenarioModel) -> tuple[str, ...]:
    """Check every structural invariant; one ``"path: message"`` line per
    violation, and none when the model is valid.

    Returns the lines rather than raising so callers can show all
    problems at once (the CLI prints each on its own line).
    """
    issues: list[str] = []

    if not _valid_name(model.name):
        issues.append(f"name: scenario name must be a non-empty token, got {model.name!r}")

    if not model.tiers:
        issues.append("tiers: at least one tier is required")
    if not model.classes:
        issues.append("classes: at least one workload class is required")

    tier_of: dict[str, int] = {}  # each accepted resource name -> the index of its tier
    # each declared name, accepted or refused -> whether its queue is bounded,
    # so a visit to a refused name is not also reported as unknown; a name
    # built in code that is not a str may not hash, and is left out
    bounded: dict[str, bool] = {}
    seen_tiers: set[str] = set()
    for ti, tier in enumerate(model.tiers):
        # each issue line is built whole where it is found, so a valid tier
        # or resource builds no path
        if not _valid_name(tier.name):
            issues.append(f"tiers[{ti}]: tier name must be a non-empty token, got {tier.name!r}")
        elif tier.name in seen_tiers:
            issues.append(f"tiers[{ti}]: duplicate tier name {tier.name!r}")
        else:
            seen_tiers.add(tier.name)
        if not tier.resources:
            issues.append(f"tiers[{ti}]: tier holds no resources")
        for ri, res in enumerate(tier.resources):
            name, replicas, cap = res.name, res.replicas, res.queue_capacity
            if isinstance(name, str):
                bounded.setdefault(name, cap != INFINITE)
            if not _valid_name(name):
                issues.append(f"tiers[{ti}].resources[{ri}]: resource name must be a non-empty token, got {name!r}")
            elif name == END_TO_END:
                issues.append(f"tiers[{ti}].resources[{ri}]: resource name {END_TO_END!r} is reserved")
            elif name in tier_of:
                issues.append(f"tiers[{ti}].resources[{ri}]: duplicate resource name {name!r} (also in tiers[{tier_of[name]}])")
            else:
                tier_of[name] = ti
            # `type(x) is int or _integer(x)` is _integer(x), decided without
            # a call for the exact ints a parsed model holds
            if not ((type(replicas) is int or _integer(replicas)) and replicas >= 1):
                issues.append(f"tiers[{ti}].resources[{ri}]: replicas must be an integer >= 1, got {replicas!r}")
            elif replicas > MAX_REPLICAS:
                issues.append(f"tiers[{ti}].resources[{ri}]: replicas must be at most {MAX_REPLICAS}, got {replicas!r}")
            if not (cap == INFINITE or ((type(cap) is int or _integer(cap)) and cap >= 0)):
                issues.append(f"tiers[{ti}].resources[{ri}]: queue_capacity must be an integer >= 0 or infinite, got {cap!r}")
            if not isinstance(res.balancer, BalancerPolicy):
                issues.append(f"tiers[{ti}].resources[{ri}]: balancer must be a BalancerPolicy, got {res.balancer!r}")

    stop = model.run.stop
    # 0 when there is no valid after_time horizon; the stop check below names that
    horizon = stop.t if stop.kind is StopKind.AFTER_TIME and _finite(stop.t) and stop.t > 0 else 0.0
    during, shorten = "before the after_time stop", "shorten the horizon"
    if stop.kind is StopKind.AFTER_REQUESTS:
        during, shorten = "before a session can end", "lower the path's demand"
    seen_classes: set[str] = set()
    for ci, cls in enumerate(model.classes):
        if not _valid_name(cls.name):
            issues.append(f"classes[{ci}]: class name must be a non-empty token, got {cls.name!r}")
        elif cls.name in seen_classes:
            issues.append(f"classes[{ci}]: duplicate class name {cls.name!r}")
        else:
            seen_classes.add(cls.name)
        arrival_issue = _distribution_issue(cls.arrival)
        if arrival_issue:
            issues.append(f"classes[{ci}].arrival: {arrival_issue}")
        # the mean gap of an unbounded class whose arrival law is valid
        gap = cls.arrival.mean() if arrival_issue is None and cls.max_requests == UNBOUNDED else None
        if gap == 0:
            # every gap is 0, so arrivals would be scheduled at t = 0 forever
            issues.append(
                f"classes[{ci}].arrival: an unbounded class needs a mean interarrival gap > 0 or a finite max_requests, got 0"
            )
        found = len(issues)
        if not cls.path:
            issues.append(f"classes[{ci}].path: path must hold at least one visit")
        for vi, visit in enumerate(cls.path):
            # a name built in code that is not a str may not hash: test it first
            if not isinstance(visit.resource, str):
                issues.append(f"classes[{ci}].path[{vi}]: visit resource must be a non-empty token, got {visit.resource!r}")
            elif visit.resource not in bounded:
                issues.append(f"classes[{ci}].path[{vi}]: visit references unknown resource {visit.resource!r}")
            demand_issue = _distribution_issue(visit.demand)
            if demand_issue:
                issues.append(f"classes[{ci}].path[{vi}].demand: {demand_issue}")
        if gap:
            window = horizon
            if stop.kind is StopKind.AFTER_REQUESTS and len(issues) == found:
                # the time before a session can end: the summed mean demand of
                # the visits before the first bounded queue, which drops the
                # flood, and each drop ends a session
                window = 0.0
                for visit in cls.path:
                    if bounded[visit.resource]:
                        break
                    window += visit.demand.mean()
            if window / gap > MAX_EXPECTED_ARRIVALS:
                issues.append(
                    f"classes[{ci}].arrival: an unbounded class may expect at most {MAX_EXPECTED_ARRIVALS} arrivals "
                    f"{during}, got {window / gap:.3g} (mean gap {gap!r}); "
                    f"raise the gap, {shorten} or set max_requests"
                )
        mr = cls.max_requests
        if not (mr == UNBOUNDED or (_integer(mr) and mr >= 1)):
            issues.append(f"classes[{ci}]: max_requests must be an integer >= 1 or unbounded, got {mr!r}")

    run = model.run
    if not valid_seed(run.seed):
        issues.append(f"run.seed: seed must be an unsigned 64-bit integer, got {run.seed!r}")
    if stop.kind is StopKind.AFTER_REQUESTS:
        if not (_integer(stop.n) and stop.n >= 1):
            issues.append(f"run.stop: after_requests count must be >= 1, got {stop.n!r}")
    elif stop.kind is StopKind.AFTER_TIME:
        if not (_finite(stop.t) and stop.t > 0):
            issues.append(f"run.stop: after_time horizon must be finite and > 0, got {stop.t!r}")
    else:
        issues.append(f"run.stop: kind must be a StopKind, got {stop.kind!r}")
    if not (_finite(run.warmup) and run.warmup >= 0):
        issues.append(f"run.warmup: warmup must be finite and >= 0, got {run.warmup!r}")
    if not isinstance(run.series_enabled, bool):
        issues.append(f"run.series: series must be a boolean, got {run.series_enabled!r}")

    return tuple(issues)


def validated(model: ScenarioModel) -> ScenarioModel:
    """Return ``model`` unchanged, or raise ValidationError listing every issue."""
    issues = validate(model)
    if issues:
        raise ValidationError("\n".join(issues))
    return model


# ----------------------------------------------------------------------
# JSON parsing. Strict: every object lists its allowed keys.


def _load_json(text: str) -> object:
    """Decode one JSON document; a decoding error names its line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except ValueError:  # an integer literal longer than int() converts
        raise ScenarioSyntaxError(f"integer literal longer than {sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise ScenarioSyntaxError("arrays or objects nested too deeply") from None


def _require_keys(obj: dict, allowed: Collection[str], required: Collection[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{path}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{path}: missing required key {key!r}")


def _as_dict(obj: object, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _as_record(obj: object, keys: tuple[str, ...], path: str) -> dict:
    """``obj`` as an object holding exactly ``keys``."""
    d = _as_dict(obj, path)
    _require_keys(d, keys, keys, path)
    return d


def _as_list(obj: object, path: str) -> list:
    if not isinstance(obj, list):
        raise ValidationError(f"{path}: expected an array, got {type(obj).__name__}")
    return obj


def _num(obj: object, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {obj!r}")
    try:
        return float(obj)
    except OverflowError:
        raise ValidationError(f"{path}: number out of range, got an integer of {len(str(obj))} digits") from None


def _int(obj: object, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValidationError(f"{path}: expected an integer, got {obj!r}")
    return obj


def _bool(obj: object, path: str) -> bool:
    if not isinstance(obj, bool):
        raise ValidationError(f"{path}: expected a boolean, got {obj!r}")
    return obj


def _str(obj: object, path: str) -> str:
    if not isinstance(obj, str):
        raise ValidationError(f"{path}: expected a string, got {obj!r}")
    return obj


# a field annotation's type name -> the reader of a value of that type
_READERS = {"float": _num, "int": _int, "str": _str, "bool": _bool}


def _read_values(d: dict, types: dict[str, str], path: str) -> dict:
    """The values of ``d`` at the keys of ``types``, each read as the type named there."""
    return {k: _READERS[t](d[k], f"{path}.{k}") for k, t in types.items()}


def _field_types(record: type, params: dict[Enum, tuple[str, ...]]) -> dict[Enum, dict[str, str]]:
    """Each kind's parameters, each paired with the annotated type of ``record``'s field."""
    types = {f.name: f.type for f in fields(record)}
    return {kind: {p: types[p] for p in names} for kind, names in params.items()}


# The tagged records of the format: an object holding "kind" and exactly
# that kind's parameters, listed here in the order the writer emits them.
_DIST_PARAMS = _field_types(
    Distribution, {DistKind.EXPONENTIAL: ("rate",), DistKind.DETERMINISTIC: ("value",), DistKind.UNIFORM: ("lo", "hi")}
)
_STOP_PARAMS = _field_types(StopRule, {StopKind.AFTER_REQUESTS: ("n",), StopKind.AFTER_TIME: ("t",)})


def _read_tagged(obj: object, record: type, params: dict, what: str, path: str) -> Distribution | StopRule:
    """A ``record`` read from a tagged object whose kinds and parameters ``params`` lists."""
    d = _as_dict(obj, path)
    kind = d.get("kind")
    for member, types in params.items():
        if kind == member:
            _as_record(d, ("kind", *types), path)
            return record(member, **_read_values(d, types, path))
    raise ValidationError(f"{path}.kind: unknown {what} kind {kind!r}")


def _tagged_to_json(record: Distribution | StopRule, params: dict) -> dict:
    return {"kind": record.kind.value, **{p: getattr(record, p) for p in params[record.kind]}}


def _rooted(path: str, exc: ValidationError) -> ValidationError:
    """``exc``, whose message starts with a path relative to some value,
    named under that value's ``path`` instead.

    Readers called once per resource (of a resource, a tier, a deployment
    node or link) name paths relative to their value, so a wide document
    builds no path unless a value in it is at fault.
    """
    return ValidationError(f"{path}{exc}")


def _read_list(obj: object, read: Callable[[object], object], path: str) -> list:
    """``obj`` as an array of items each read by ``read``, whose error paths
    are relative to the item; they are rooted at ``path[i]``."""
    items = []
    for i, item in enumerate(_as_list(obj, path)):
        try:
            items.append(read(item))
        except ValidationError as exc:
            raise _rooted(f"{path}[{i}]", exc) from None
    return items


# built once: a set display is rebuilt on every call, and a wide
# deployment map or scenario parses hundreds of resources
_RESOURCE_KEYS = frozenset({"name", "replicas", "queue_capacity", "discipline", "balancer"})
_TIER_KEYS = frozenset({"name", "resources"})
# dict lookups both ways: calling BalancerPolicy(value) costs twice as
# much, and reading the enum property policy.value makes two Python calls
_BALANCERS = {policy.value: policy for policy in BalancerPolicy}
_BALANCER_NAMES = {policy: name for name, policy in _BALANCERS.items()}

# A frozen dataclass's __init__ sets each field through object.__setattr__;
# a reader makes the same calls without the __init__ frame, which builds
# the same instance faster. (Filling __dict__ would add a dict to each.)
_new = object.__new__
_set = object.__setattr__


def _parse_resource(obj: object) -> ResourceSpec:
    """A resource object, with error paths relative to it (see _rooted).
    Each inline test calls its named reader only to word the error."""
    if not (type(obj) is dict and obj.keys() <= _RESOURCE_KEYS and "name" in obj):
        _require_keys(_as_dict(obj, ""), _RESOURCE_KEYS, ("name",), "")
    # FCFS is the only discipline; the key stays legal so documents naming it parse
    if obj.get("discipline", "fcfs") != "fcfs":
        raise ValidationError(f".discipline: unknown discipline {obj['discipline']!r}")
    balancer = obj.get("balancer", "jsq")
    # an array or object is no key of any dict
    policy = _BALANCERS.get(balancer) if isinstance(balancer, str) else None
    if policy is None:
        raise ValidationError(f".balancer: unknown balancer policy {balancer!r}")
    name = obj["name"]
    if not isinstance(name, str):
        _str(name, ".name")
    replicas = obj.get("replicas", 1)
    if type(replicas) is not int:
        _int(replicas, ".replicas")
    capacity = obj.get("queue_capacity", "inf")
    if capacity == "inf":
        capacity = INFINITE
    elif type(capacity) is not int:
        _int(capacity, ".queue_capacity")
    spec = _new(ResourceSpec)
    _set(spec, "name", name)
    _set(spec, "replicas", replicas)
    _set(spec, "queue_capacity", capacity)
    _set(spec, "balancer", policy)
    return spec


def _tier(name: str, resources: tuple[ResourceSpec, ...]) -> Tier:
    """``Tier(name, resources)``, built as _parse_resource builds a spec."""
    tier = _new(Tier)
    _set(tier, "name", name)
    _set(tier, "resources", resources)
    return tier


def _parse_tier(obj: object) -> Tier:
    """A tier object, with error paths relative to it (see _rooted)."""
    if not (type(obj) is dict and obj.keys() == _TIER_KEYS):
        _as_record(obj, ("name", "resources"), "")
    resources = tuple(_read_list(obj["resources"], _parse_resource, ".resources"))
    name = obj["name"]
    if not isinstance(name, str):
        _str(name, ".name")
    return _tier(name, resources)


def _parse_visit(obj: object) -> Visit:
    """A visit object, with error paths relative to it (see _rooted)."""
    d = _as_record(obj, ("resource", "demand"), "")
    resource = _str(d["resource"], ".resource")
    return Visit(resource, _read_tagged(d["demand"], Distribution, _DIST_PARAMS, "distribution", ".demand"))


def _parse_class(obj: object) -> WorkloadClass:
    """A class object, with error paths relative to it (see _rooted). It
    reads its keys, its path, max_requests, name and arrival, in that
    order, so the first fault found is the first in that order."""
    d = _as_dict(obj, "")
    _require_keys(d, ("name", "arrival", "path", "max_requests"), ("name", "arrival", "path"), "")
    path = tuple(_read_list(d["path"], _parse_visit, ".path"))
    mr = d.get("max_requests", "unbounded")
    max_requests = UNBOUNDED if mr == "unbounded" else _int(mr, ".max_requests")
    name = _str(d["name"], ".name")
    arrival = _read_tagged(d["arrival"], Distribution, _DIST_PARAMS, "distribution", ".arrival")
    return WorkloadClass(name, arrival, path, max_requests)


def parse_scenario(text: str) -> ScenarioModel:
    """Parse and fully validate a scenario JSON document.

    Raises ScenarioSyntaxError for malformed JSON (with position) and
    ValidationError for schema or invariant violations.
    """
    top = _as_dict(_load_json(text), "$")
    _require_keys(top, ("format_version", "name", "tiers", "classes", "run"), ("name", "tiers", "classes", "run"), "$")
    version = top.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ValidationError(f"$.format_version: unsupported version {version!r} (this build reads {FORMAT_VERSION})")

    tiers = _read_list(top["tiers"], _parse_tier, "$.tiers")

    classes = _read_list(top["classes"], _parse_class, "$.classes")

    rd = _as_dict(top["run"], "$.run")
    _require_keys(rd, ("seed", "stop", "warmup", "series"), ("stop",), "$.run")
    run = RunConfig(
        seed=_int(rd.get("seed", 1), "$.run.seed"),
        stop=_read_tagged(rd["stop"], StopRule, _STOP_PARAMS, "stop", "$.run.stop"),
        warmup=_num(rd.get("warmup", 0.0), "$.run.warmup"),
        series_enabled=_bool(rd.get("series", False), "$.run.series"),
    )

    return validated(ScenarioModel(name=_str(top["name"], "$.name"), tiers=tuple(tiers), classes=tuple(classes), run=run))


# ----------------------------------------------------------------------
# JSON writing. One writer for every document the package writes.


class JSONText:
    """Text that json_text writes verbatim where a value would go: a value
    rendered once by json_text, at the depth where it is placed."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


# The exact class of a scalar -> the C callable that writes it as
# json.dumps does. With any indent, json.dumps leaves its C encoder for
# a generator per container and a Python call per scalar; calling no
# Python code per scalar takes under half the time on a wide scenario.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    JSONText: attrgetter("text"),
}
# float.__repr__'s non-finite texts, as json.dumps spells them; no other
# scalar's text is one of these (a string's text is quoted)
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(value: object, sort_keys: bool = False) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=sort_keys)``
    writes it, for dicts with str keys, lists, tuples, str, int, float,
    bool and None (and JSONText). Exact classes take the fast path; a
    value of any other class, such as an int, float or str subclass, is
    handed to json.dumps itself, which refuses what it cannot write."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        text = scalar(value)
        return _NONFINITE.get(text, text)
    out: list[str] = []
    _write_container(value, "\n", sort_keys, out)
    return "".join(out)


def _write_container(value: object, pad: str, sort_keys: bool, out: list[str]) -> None:
    """Append the texts of ``value``, a dict, list or tuple, or a value
    whose class is no key of _SCALAR_TEXT, with its first line indented
    by ``pad`` (a newline and two spaces per level)."""
    inner = pad + "  "
    sep = "," + inner
    if type(value) is dict:
        if not value:
            out.append("{}")
            return
        first = "{" + inner
        for key, item in sorted(value.items()) if sort_keys else value.items():
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is None:
                out += (first, encode_basestring_ascii(key), ": ")
                _write_container(item, inner, sort_keys, out)
            else:
                text = scalar(item)
                out += (first, encode_basestring_ascii(key), ": ", _NONFINITE.get(text, text))
            first = sep
        out.append(pad + "}")
    elif type(value) is list or type(value) is tuple:
        if not value:
            out.append("[]")
            return
        first = "[" + inner
        for item in value:
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is None:
                out.append(first)
                _write_container(item, inner, sort_keys, out)
            else:
                text = scalar(item)
                out += (first, _NONFINITE.get(text, text))
            first = sep
        out.append(pad + "]")
    else:
        # no exact class: json.dumps writes it, or raises its own TypeError
        out.append(json.dumps(value, indent=2, sort_keys=sort_keys).replace("\n", pad))


# A tier and a resource object as json_text writes them in a scenario
# document's "tiers" array, 4 and 8 spaces in.
_TIER_TEXT = '{\n      "name": %s,\n      "resources": %s\n    }'
_RESOURCE_TEXT = (
    '{\n          "name": %s,\n          "replicas": %d,\n          "queue_capacity": %s,\n'
    '          "discipline": "fcfs",\n          "balancer": "%s"\n        }'
)


def _tiers_value(model: ScenarioModel) -> JSONText:
    """The scenario document's "tiers" value, one text from the templates.

    A model the reader built holds an exact str for every name and an
    exact int (or inf) for every count. A model built in code may hold a
    value of another type: then ``validated`` refuses the model with
    validate's lines, or accepts it, which it does only for a str or int
    subclass, and the templates write that as json.dumps does. A balancer
    that is not a BalancerPolicy member, even a str equal to one, is
    refused."""
    valid = None  # the model, once validated has accepted it
    tier_texts = []
    for tier in model.tiers:
        texts = []
        for r in tier.resources:
            name, replicas, cap, balancer = r.name, r.replicas, r.queue_capacity, r.balancer
            if cap == INFINITE:
                cap = '"inf"'
            elif type(cap) is not int:
                valid = valid or validated(model)
                cap = int.__repr__(cap)
            if type(name) is not str or type(replicas) is not int or type(balancer) is not BalancerPolicy:
                valid = valid or validated(model)
            # a policy's name is a plain lowercase token: quoting is all it needs
            texts.append(_RESOURCE_TEXT % (encode_basestring_ascii(name), replicas, cap, _BALANCER_NAMES[balancer]))
        if type(tier.name) is not str:
            valid = valid or validated(model)
        resources = "[\n        " + ",\n        ".join(texts) + "\n      ]" if texts else "[]"
        tier_texts.append(_TIER_TEXT % (encode_basestring_ascii(tier.name), resources))
    return JSONText("[\n    " + ",\n    ".join(tier_texts) + "\n  ]" if tier_texts else "[]")


# the exact types the reader builds for a field of each annotated type
# name; where it builds a float it reads an int too
_READ_CLASSES = {"float": (int, float), "int": (int,), "str": (str,), "bool": (bool,)}


def _reads_back(model: ScenarioModel) -> bool:
    """Whether each value in ``model``'s classes and run has an exact
    type the reader builds for it: each distribution and stop kind is a
    DistKind or StopKind member (a str equals its member, so the type is
    tested), and each parameter of that kind has its field's type."""
    run = model.run
    pairs = [(model.name, "str"), (run.seed, "int"), (run.warmup, "float"), (run.series_enabled, "bool")]
    tagged = [(run.stop, StopKind, _STOP_PARAMS)]
    for cls in model.classes:
        pairs += [(cls.name, "str"), *((v.resource, "str") for v in cls.path)]
        tagged += [(cls.arrival, DistKind, _DIST_PARAMS), *((v.demand, DistKind, _DIST_PARAMS) for v in cls.path)]
        if cls.max_requests != UNBOUNDED:
            pairs.append((cls.max_requests, "int"))
    if any(type(r.kind) is not kind for r, kind, _ in tagged):
        return False
    pairs += [(getattr(r, p), t) for r, _, params in tagged for p, t in params[r.kind].items()]
    return all(type(v) in _READ_CLASSES[t] for v, t in pairs)


def _scenario_doc(model: ScenarioModel) -> dict:
    """The scenario document of ``model``, as serialize_scenario writes it:
    plain data, but for its tiers, written as one text (see _tiers_value).
    A class or run value of any other type makes it call ``validated``,
    as _tiers_value does for a tier or resource value."""
    if not _reads_back(model):
        validated(model)
    return {
        "format_version": FORMAT_VERSION,
        "name": model.name,
        "tiers": _tiers_value(model),
        "classes": [
            {
                "name": cls.name,
                "arrival": _tagged_to_json(cls.arrival, _DIST_PARAMS),
                "path": [{"resource": v.resource, "demand": _tagged_to_json(v.demand, _DIST_PARAMS)} for v in cls.path],
                "max_requests": "unbounded" if cls.max_requests == UNBOUNDED else cls.max_requests,
            }
            for cls in model.classes
        ],
        "run": {
            "seed": model.run.seed,
            "stop": _tagged_to_json(model.run.stop, _STOP_PARAMS),
            "warmup": model.run.warmup,
            "series": model.run.series_enabled,
        },
    }


def serialize_scenario(model: ScenarioModel) -> str:
    """Render a model back to scenario JSON.

    Round-trips exactly: ``parse_scenario(serialize_scenario(m)) == m``.
    """
    return json_text(_scenario_doc(model)) + "\n"
