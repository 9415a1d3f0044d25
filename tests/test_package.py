"""The package namespace: what ``import tiersim`` offers."""

from __future__ import annotations

import types

import tiersim


def test_all_lists_each_public_name_once_and_every_one_resolves():
    assert len(tiersim.__all__) == len(set(tiersim.__all__))
    for name in tiersim.__all__:
        assert hasattr(tiersim, name), name
    # submodules (tiersim.model, ...) are bound too, but are not exports
    public = {
        name
        for name, value in vars(tiersim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(tiersim.__all__)


# Every public name, written out: adding or removing one is an edit here.
PUBLIC = {
    "AnalyticMetrics",
    "BalancerPolicy",
    "BottleneckEntry",
    "BottleneckReport",
    "ClassMetrics",
    "DeploymentMap",
    "DistKind",
    "Distribution",
    "DomainError",
    "END_TO_END",
    "Engine",
    "INFINITE",
    "InternalError",
    "MetricsReport",
    "ResourceMetrics",
    "ResourceSpec",
    "RunConfig",
    "ScenarioModel",
    "ScenarioSyntaxError",
    "SeriesDisabledError",
    "Step",
    "StopKind",
    "StopRule",
    "Stream",
    "Tier",
    "TiersimError",
    "UNBOUNDED",
    "ValidationError",
    "Visit",
    "WorkloadClass",
    "export_series",
    "finalize",
    "mmck",
    "parse_deployment",
    "parse_execution",
    "parse_scenario",
    "rank",
    "report_from_json",
    "report_to_json",
    "report_to_table",
    "serialize_scenario",
    "simulate",
    "stream_key",
    "synthesize_scenario",
    "validate",
}


def test_the_public_names_are_these():
    assert set(tiersim.__all__) == PUBLIC
