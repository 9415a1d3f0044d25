"""tiersim: deterministic discrete-event simulation of multi-tier
queueing architectures, with an analytic single-station cross-check.

Typical use:

    from tiersim import parse_scenario, simulate
    report = simulate(parse_scenario(open("scenario.json").read()))
"""

from .bottleneck import BottleneckEntry, BottleneckReport, rank
from .engine import Engine, simulate
from .errors import (
    DomainError,
    InternalError,
    ScenarioSyntaxError,
    SeriesDisabledError,
    TiersimError,
    ValidationError,
)
from .frontend import (
    DeploymentMap,
    Step,
    parse_deployment,
    parse_execution,
    synthesize_scenario,
)
from .metrics import (
    ClassMetrics,
    MetricsReport,
    ResourceMetrics,
    export_series,
    finalize,
    report_from_json,
    report_to_json,
    report_to_table,
)
from .model import (
    END_TO_END,
    INFINITE,
    UNBOUNDED,
    BalancerPolicy,
    DistKind,
    Distribution,
    ResourceSpec,
    RunConfig,
    ScenarioModel,
    StopKind,
    StopRule,
    Tier,
    Visit,
    WorkloadClass,
    parse_scenario,
    serialize_scenario,
    validate,
)
from .oracle import AnalyticMetrics, mmck
from .workload import Stream, stream_key

__version__ = "0.1.0"

__all__ = [
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
]
