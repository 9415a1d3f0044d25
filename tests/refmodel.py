"""Reference reader and writer rules for a scenario's resources.

``parse_resource`` reads a resource object through the named readers
alone, one call per check, as the reader did before its checks were
written inline; ``scenario_doc`` is a model's scenario document as plain
data, as the writer built it before it wrote each tier's resources as
one text. Tests hold ``model._parse_resource`` and ``serialize_scenario``
to them: the same spec or the same error line, the same bytes.
"""

from __future__ import annotations

from tiersim.errors import ValidationError
from tiersim.model import (
    _BALANCER_NAMES,
    _BALANCERS,
    _DIST_PARAMS,
    _RESOURCE_KEYS,
    _STOP_PARAMS,
    FORMAT_VERSION,
    INFINITE,
    UNBOUNDED,
    ResourceSpec,
    ScenarioModel,
    _as_dict,
    _int,
    _require_keys,
    _str,
    _tagged_to_json,
)


def _parse_capacity(obj: object, path: str) -> int | float:
    if obj == "inf":
        return INFINITE
    return _int(obj, path)


def parse_resource(obj: object) -> ResourceSpec:
    """A resource object, with error paths relative to it."""
    d = _as_dict(obj, "")
    _require_keys(d, _RESOURCE_KEYS, ("name",), "")
    if d.get("discipline", "fcfs") != "fcfs":
        raise ValidationError(f".discipline: unknown discipline {d['discipline']!r}")
    balancer = d.get("balancer", "jsq")
    policy = _BALANCERS.get(balancer) if isinstance(balancer, str) else None
    if policy is None:
        raise ValidationError(f".balancer: unknown balancer policy {balancer!r}")
    return ResourceSpec(
        _str(d["name"], ".name"),
        _int(d.get("replicas", 1), ".replicas"),
        _parse_capacity(d.get("queue_capacity", "inf"), ".queue_capacity"),
        policy,
    )


def scenario_doc(model: ScenarioModel) -> dict:
    """The scenario document of ``model`` as plain data."""
    return {
        "format_version": FORMAT_VERSION,
        "name": model.name,
        "tiers": [
            {
                "name": tier.name,
                "resources": [
                    {
                        "name": r.name,
                        "replicas": r.replicas,
                        "queue_capacity": "inf" if r.queue_capacity == INFINITE else r.queue_capacity,
                        "discipline": "fcfs",
                        "balancer": _BALANCER_NAMES[r.balancer],
                    }
                    for r in tier.resources
                ],
            }
            for tier in model.tiers
        ],
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
