"""Step script + deployment map synthesis into runnable scenarios."""

from __future__ import annotations

import hashlib
import json

import pytest

from tiersim import (
    DeploymentMap,
    DistKind,
    Distribution,
    ResourceSpec,
    RunConfig,
    ScenarioSyntaxError,
    StopRule,
    ValidationError,
    parse_deployment,
    parse_execution,
    parse_scenario,
    serialize_scenario,
    simulate,
    synthesize_scenario,
    validate,
)
from tiersim import bundled

from randdeploy import random_deployment
from pycalls import python_calls


def bundled_pair():
    return (
        parse_execution(bundled.execution_text()),
        parse_deployment(bundled.deployment_text()),
    )


SMALL_DEPLOYMENT = """
{
  "bindings": {"a": "n1", "b": "n1", "c": "n2"},
  "nodes": {
    "n1": ["P1", "D1"],
    "n2": ["P2"]
  },
  "links": [{"between": ["n1", "n2"], "resource": "NET"}]
}
"""


def test_parses_the_bundled_step_script():
    execution, _ = bundled_pair()
    steps = execution
    assert len(steps) == 4
    assert [(s.source, s.target) for s in steps] == [
        ("requester", "broker"),
        ("broker", "requester"),
        ("requester", "provider"),
        ("provider", "requester"),
    ]
    assert steps[0].label == "discover service"
    assert [s.disk for s in steps] == [True, False, True, False]
    assert steps[0].demand == Distribution.exponential(17.5)
    assert steps[2].demand == Distribution.exponential(5.0)


def test_synthesized_path_interleaves_links_processors_and_disks():
    execution, deployment = bundled_pair()
    model = synthesize_scenario(execution, deployment, arrival=Distribution.exponential(75.0))
    path = model.classes[0].path
    assert [v.resource for v in path] == [
        "Internet1",
        "SB_CPU",
        "SB_Disk",
        "Internet1",
        "SRS_CPU",
        "Internet2",
        "SP_CPU",
        "SP_Disk",
        "Internet2",
        "SRS_CPU",
    ]
    # every visit inherits its step's demand
    rates = [v.demand.rate for v in path]
    assert rates == [17.5] * 5 + [5.0] * 5


def test_synthesized_tiers_mirror_nodes_plus_network():
    execution, deployment = bundled_pair()
    model = synthesize_scenario(execution, deployment, arrival=Distribution.exponential(75.0))
    assert [t.name for t in model.tiers] == ["client", "brokerhost", "providerhost", "network"]
    network = model.tiers[-1]
    # Internet2 carries two node pairs but appears once
    assert [r.name for r in network.resources] == ["Internet1", "Internet2"]
    assert all(r.queue_capacity == 2 for r in network.resources)
    by_name = {r.name: r for t in model.tiers for r in t.resources}
    assert by_name["SP_Disk"].queue_capacity == 1
    assert validate(model) == ()


def test_synthesized_scenario_round_trips_and_runs():
    execution, deployment = bundled_pair()
    model = synthesize_scenario(
        execution,
        deployment,
        arrival=Distribution.exponential(75.0),
        max_requests=50,
        run=RunConfig(seed=3, stop=StopRule.after_requests(50)),
    )
    assert parse_scenario(serialize_scenario(model)) == model
    report = simulate(model)
    assert report.generated == 50


def test_same_node_step_crosses_no_link():
    execution = parse_execution("a -> b : local call [det 0.1]")
    model = synthesize_scenario(execution, parse_deployment(SMALL_DEPLOYMENT), arrival=Distribution.exponential(1.0))
    assert [v.resource for v in model.classes[0].path] == ["P1"]
    # the declared link still shows up so the scenario mirrors the map
    assert [t.name for t in model.tiers] == ["n1", "n2", "network"]


def test_disk_steps_visit_every_disk_of_the_target_node():
    execution = parse_execution("c -> a : store [det 0.1] @disk")
    model = synthesize_scenario(execution, parse_deployment(SMALL_DEPLOYMENT), arrival=Distribution.exponential(1.0))
    assert [v.resource for v in model.classes[0].path] == ["NET", "P1", "D1"]


def test_run_and_limits_are_plumbed_through():
    execution, deployment = bundled_pair()
    run = RunConfig(seed=9, stop=StopRule.after_time(3.0), warmup=1.0, series_enabled=True)
    model = synthesize_scenario(
        execution,
        deployment,
        scenario_name="mine",
        class_name="browsers",
        arrival=Distribution.deterministic(0.25),
        max_requests=10,
        run=run,
    )
    assert model.name == "mine"
    assert model.classes[0].name == "browsers"
    assert model.classes[0].max_requests == 10
    assert model.run == run
    default = synthesize_scenario(execution, deployment, arrival=Distribution.exponential(1.0))
    assert default.run == RunConfig()


def test_step_script_tolerates_comments_and_blank_lines():
    text = """
    # a comment

    a -> b : first [exp 2.0]   # trailing comment
    b -> a : second [uniform 0.1 0.3]
    """
    steps = parse_execution(text)
    assert len(steps) == 2
    assert steps[1].demand.kind is DistKind.UNIFORM


def test_unparseable_step_names_its_line():
    with pytest.raises(ScenarioSyntaxError, match="line 3"):
        parse_execution("a -> b : ok [det 1]\n\nthis is not a step\n")


def test_bad_demands_are_rejected_with_line_numbers():
    with pytest.raises(ScenarioSyntaxError, match="line 1"):
        parse_execution("a -> b : x [exp 1 2]")
    with pytest.raises(ScenarioSyntaxError):
        parse_execution("a -> b : x [gamma 1]")
    with pytest.raises(ScenarioSyntaxError):
        parse_execution("a -> b : x [det cheap]")
    with pytest.raises(ScenarioSyntaxError):
        parse_execution("a -> b : x []")


@pytest.mark.parametrize(
    "demand, message",
    [
        ("exp 0", "demand: exponential rate must be finite and > 0, got 0.0"),
        ("uniform 3 1", "demand: uniform bounds must satisfy 0 <= lo <= hi, got (3.0, 1.0)"),
    ],
    ids=["exp-zero", "uniform-reversed"],
)
def test_an_invalid_demand_is_one_error_naming_its_line(demand, message):
    # the validator's rule, named by line as a malformed bracket is
    script = f"a -> b : ok [det 1]\n\nb -> a : bad [{demand}] @disk\n"
    with pytest.raises(ScenarioSyntaxError) as exc:
        parse_execution(script)
    assert str(exc.value) == f"line 3: {message}"


def test_empty_script_is_invalid():
    with pytest.raises(ValidationError):
        parse_execution("# only comments\n\n")


def test_deployment_strictness():
    with pytest.raises(ValidationError, match="unknown key"):
        parse_deployment('{"bindings": {}, "nodes": {"n": ["P"]}, "extra": 1}')
    with pytest.raises(ValidationError, match="missing required key"):
        parse_deployment('{"nodes": {"n": ["P"]}}')
    with pytest.raises(ValidationError, match="missing required key"):
        parse_deployment('{"bindings": {"a": "n"}}')
    with pytest.raises(ScenarioSyntaxError, match="line"):
        parse_deployment("{not json")


def test_deployment_node_and_binding_checks():
    with pytest.raises(ValidationError, match="at least one resource"):
        parse_deployment('{"bindings": {"a": "n"}, "nodes": {"n": []}}')
    with pytest.raises(ValidationError, match="declared on both"):
        parse_deployment('{"bindings": {"a": "n"}, "nodes": {"n": ["P"], "m": ["P"]}}')
    with pytest.raises(ValidationError, match="undeclared node"):
        parse_deployment('{"bindings": {"a": "ghost"}, "nodes": {"n": ["P"]}}')
    with pytest.raises(ValidationError, match=r"^deployment\.nodes must be a non-empty object$"):
        parse_deployment('{"bindings": {"a": "n"}, "nodes": {}}')
    with pytest.raises(ValidationError, match=r"^deployment\.bindings must be a non-empty object$"):
        parse_deployment('{"bindings": {}, "nodes": {"n": ["P"]}}')


def test_deployment_link_checks():
    base = '{"bindings": {"a": "n1"}, "nodes": {"n1": ["P1"], "n2": ["P2"]}, "links": %s}'
    with pytest.raises(ValidationError, match="two distinct nodes"):
        parse_deployment(base % '[{"between": ["n1", "n1"], "resource": "NET"}]')
    with pytest.raises(ValidationError, match="unknown node"):
        parse_deployment(base % '[{"between": ["n1", "ghost"], "resource": "NET"}]')
    with pytest.raises(ValidationError, match="duplicate link"):
        parse_deployment(
            base % '[{"between": ["n1", "n2"], "resource": "NET"}, {"between": ["n2", "n1"], "resource": "NET2"}]'
        )
    with pytest.raises(ValidationError, match="collides"):
        parse_deployment(base % '[{"between": ["n1", "n2"], "resource": "P1"}]')
    with pytest.raises(ValidationError, match="missing required key 'resource'"):
        parse_deployment(base % '[{"between": ["n1", "n2"]}]')


def test_a_node_named_network_is_refused_only_beside_links():
    # synthesis would add its own 'network' tier for the links and fail on
    # a duplicate tier name, far from what the user wrote
    doc = {"bindings": {"a": "network", "b": "n2"}, "nodes": {"network": ["P1"], "n2": ["P2"]}}
    with pytest.raises(ValidationError, match=r"^deployment\.nodes\['network'\]: "):
        parse_deployment(json.dumps(dict(doc, links=[{"between": ["network", "n2"], "resource": "lan"}])))
    model = synthesize_scenario(
        parse_execution("a -> a : call [exp 10]"),
        parse_deployment(json.dumps(doc)),
        arrival=Distribution.exponential(1.0),
    )
    assert [t.name for t in model.tiers] == ["network", "n2"]


def test_a_node_named_network_built_in_code_meets_the_network_tier_as_a_duplicate():
    # parse_deployment refuses this map; built in code, the clash is the
    # network tier's own line, which names no node or link and passes unchanged
    deployment = DeploymentMap(
        bindings={"a": "network", "b": "n2"},
        nodes={"network": (ResourceSpec("P1"),), "n2": (ResourceSpec("P2"),)},
        links={("n2", "network"): ResourceSpec("lan")},
    )
    with pytest.raises(ValidationError) as exc:
        synthesize_scenario(parse_execution("a -> a : call [exp 10]"), deployment, arrival=Distribution.exponential(1.0))
    assert str(exc.value) == "tiers[2]: duplicate tier name 'network'"


def _three_nodes(first="n1", c1="c1", d2="d2", lan="lan", wan="wan"):
    """Nodes ``first``, n2 and n3; n2 has a disk, and ``wan`` carries two links."""
    return {
        "bindings": {"a": first, "b": "n2", "c": "n3"},
        "nodes": {first: [c1], "n2": ["c2", d2], "n3": ["c3"]},
        "links": [
            {"between": [first, "n2"], "resource": lan},
            {"between": ["n2", "n3"], "resource": wan},
            {"between": [first, "n3"], "resource": wan},
        ],
    }


@pytest.mark.parametrize(
    "doc, lines",
    [
        (_three_nodes(first="n 1"), ["deployment.nodes['n 1']: tier name must be a non-empty token, got 'n 1'"]),
        (
            _three_nodes(c1={"name": "c1", "replicas": 0}),
            ["deployment.nodes['n1'][0]: replicas must be an integer >= 1, got 0"],
        ),
        (
            _three_nodes(c1={"name": "__end_to_end__"}),
            ["deployment.nodes['n1'][0]: resource name '__end_to_end__' is reserved"],
        ),
        (
            _three_nodes(d2={"name": "d2", "replicas": 5000}, lan={"name": "lan", "queue_capacity": -1}),
            [
                "deployment.nodes['n2'][1]: replicas must be at most 4096, got 5000",
                "deployment.links[0].resource: queue_capacity must be an integer >= 0 or infinite, got -1",
            ],
        ),
        (
            _three_nodes(wan={"name": "wan", "replicas": 0}),
            ["deployment.links[1].resource: replicas must be an integer >= 1, got 0"],
        ),
        # json.dumps writes each lone surrogate as an escape, which parse_deployment reads back
        (
            _three_nodes(first="n\ud800", c1="c\udc01"),
            [
                "deployment.nodes['n\\ud800']: tier name must be a non-empty token, got 'n\\ud800'",
                "deployment.nodes['n\\ud800'][0]: resource name must be a non-empty token, got 'c\\udc01'",
            ],
        ),
    ],
    ids=["node-name", "node-replicas", "reserved-name", "disk-and-link", "shared-link", "surrogate-names"],
)
def test_synthesis_names_a_bad_value_where_the_deployment_declares_it(doc, lines):
    # validate() sees the synthesized tiers, which the user never wrote
    deployment = parse_deployment(json.dumps(doc))
    with pytest.raises(ValidationError) as exc:
        synthesize_scenario(
            parse_execution("a -> b : call [exp 10] @disk"), deployment, arrival=Distribution.exponential(1.0)
        )
    assert str(exc.value).split("\n") == lines


def test_synthesis_passes_a_line_that_names_no_tier_through_unchanged():
    # the class and its arrival are the caller's, not the deployment's
    doc = {"bindings": {"a": "client"}, "nodes": {"client": [{"name": "c", "replicas": 0}]}}
    with pytest.raises(ValidationError) as exc:
        synthesize_scenario(
            parse_execution("a -> a : call [exp 10]"),
            parse_deployment(json.dumps(doc)),
            class_name="a b",
            arrival=Distribution.exponential(0),
        )
    assert str(exc.value).split("\n") == [
        "deployment.nodes['client'][0]: replicas must be an integer >= 1, got 0",
        "classes[0]: class name must be a non-empty token, got 'a b'",
        "classes[0].arrival: exponential rate must be finite and > 0, got 0",
    ]


def test_shared_link_resource_must_be_declared_identically():
    doc = """
    {
      "bindings": {"a": "n1"},
      "nodes": {"n1": ["P1"], "n2": ["P2"], "n3": ["P3"]},
      "links": [
        {"between": ["n1", "n2"], "resource": {"name": "NET", "queue_capacity": 2}},
        {"between": ["n2", "n3"], "resource": {"name": "NET", "queue_capacity": 3}}
      ]
    }
    """
    with pytest.raises(ValidationError, match="different spec"):
        parse_deployment(doc)


def test_resource_entry_validation():
    base = '{"bindings": {"a": "n"}, "nodes": {"n": [%s]}}'
    with pytest.raises(ValidationError, match="missing required key 'name'"):
        parse_deployment(base % '{"replicas": 2}')
    with pytest.raises(ValidationError, match="unknown key"):
        parse_deployment(base % '{"name": "P", "speed": 3}')
    with pytest.raises(ValidationError, match="unknown balancer"):
        parse_deployment(base % '{"name": "P", "balancer": "fastest"}')
    spec = parse_deployment(base % '{"name": "P", "replicas": 3, "queue_capacity": 4}').nodes["n"][0]
    assert (spec.replicas, spec.queue_capacity) == (3, 4)


@pytest.mark.parametrize(
    "entry, message",
    [
        ('{"name": "P", "replicas": "3"}', "deployment.nodes['n'][0].replicas: expected an integer, got '3'"),
        ('{"name": "P", "replicas": true}', "deployment.nodes['n'][0].replicas: expected an integer, got True"),
        ('{"name": "P", "queue_capacity": 2.5}', "deployment.nodes['n'][0].queue_capacity: expected an integer, got 2.5"),
    ],
    ids=["replicas-string", "replicas-bool", "capacity-float"],
)
def test_resource_entry_values_are_typed_at_parse(entry, message):
    with pytest.raises(ValidationError) as exc:
        parse_deployment('{"bindings": {"a": "n"}, "nodes": {"n": [%s]}}' % entry)
    assert str(exc.value) == message


def test_synthesis_requires_bindings_links_and_disks():
    deployment = parse_deployment(SMALL_DEPLOYMENT)
    with pytest.raises(ValidationError, match="no binding"):
        synthesize_scenario(
            parse_execution("ghost -> a : x [det 1]"), deployment, arrival=Distribution.exponential(1.0)
        )
    with pytest.raises(ValidationError, match="^participant 'z' has no binding in the deployment map$"):
        synthesize_scenario(parse_execution("a -> z : x [det 1]"), deployment, arrival=Distribution.exponential(1.0))
    with pytest.raises(ValidationError, match="'n2'"):
        # n2 has no disks
        synthesize_scenario(
            parse_execution("a -> c : x [det 1] @disk"), deployment, arrival=Distribution.exponential(1.0)
        )

    unlinked = parse_deployment(
        '{"bindings": {"a": "n1", "c": "n2"}, "nodes": {"n1": ["P1"], "n2": ["P2"]}}'
    )
    with pytest.raises(ValidationError) as exc:
        synthesize_scenario(parse_execution("a -> c : x [det 1]"), unlinked, arrival=Distribution.exponential(1.0))
    assert "n1" in str(exc.value) and "n2" in str(exc.value)


def test_link_lookup_is_symmetric():
    deployment = parse_deployment(SMALL_DEPLOYMENT)
    assert deployment.link_between("n1", "n2").name == "NET"
    assert deployment.link_between("n2", "n1").name == "NET"
    assert deployment.link_between("n1", "n1") is None


# SHA-256 over the serialized scenarios synthesized from the bundled
# inputs and from random_deployment(0..SYNTHESIS_CASES-1)
SYNTHESIS_CASES = 20
SYNTHESIS_DIGEST = "2108961725ad6deddd9db624ec22ad1ead5fa36ddf3ba525ee16a8fcc3ce3987"


def test_synthesized_scenarios_are_pinned():
    generated = [random_deployment(case) for case in range(SYNTHESIS_CASES)]
    # the generated maps hold every resource-entry form the pin covers
    entries = [e for _, doc in generated for node in doc["nodes"].values() for e in node]
    assert any(isinstance(e, str) for e in entries)
    for key in ("replicas", "queue_capacity", "balancer"):
        assert any(isinstance(e, dict) and key in e for e in entries)
    assert any("@disk" in steps for steps, _ in generated)
    assert all(doc["links"][0]["resource"] == doc["links"][1]["resource"] for _, doc in generated)

    inputs = [(bundled.execution_text(), bundled.deployment_text())]
    inputs += [(steps, json.dumps(doc, indent=2)) for steps, doc in generated]
    digest = hashlib.sha256()
    for i, (steps, deployment) in enumerate(inputs):
        model = synthesize_scenario(
            parse_execution(steps),
            parse_deployment(deployment),
            scenario_name=f"case{i}",
            arrival=Distribution.exponential(2.0),
            max_requests=50,
            run=RunConfig(seed=i, stop=StopRule.after_requests(50)),
        )
        digest.update(serialize_scenario(model).encode("utf-8"))
    assert digest.hexdigest() == SYNTHESIS_DIGEST


def _wide_inputs(nodes: int) -> tuple[str, str]:
    """A ring of ``nodes`` nodes, node i with a processor, i % 3 disks and a
    link to node i + 1, and a four-step flow over the first three nodes."""
    policies = ("jsq", "round_robin", "random")
    doc = {
        "bindings": {"client": "node0", "front": "node1", "store": "node2"},
        "nodes": {
            f"node{i}": [
                {"name": f"n{i}_cpu", "replicas": 1 + i % 4, "queue_capacity": 16, "balancer": policies[i % 3]},
                *({"name": f"n{i}_disk{d}", "queue_capacity": "inf"} for d in range(i % 3)),
            ]
            for i in range(nodes)
        },
        "links": [
            {"between": [f"node{i}", f"node{(i + 1) % nodes}"], "resource": {"name": f"link{i}", "queue_capacity": 8}}
            for i in range(nodes)
        ],
    }
    steps = """
        client -> front : request [exp 400]
        front -> store : query [exp 200] @disk
        store -> front : rows [exp 500]
        front -> client : response [exp 800]
    """
    return steps, json.dumps(doc, indent=2)


def test_setup_calls_stay_bounded():
    # Exact counts, no wall clock. setup() makes 9.75 calls per declared
    # resource: 2.68 to read the deployment, 2.07 to synthesize (1.37 of
    # them validating), 1.0 for model.resources(), 0.09 to write the
    # scenario and 3.91 to parse it (1.37 validating). The readers test
    # each value inline and call a named reader only to name an error, a
    # spec or tier is built without its __init__ frame, and the writer
    # fills a template per tier and per resource. A named reader per check, the
    # frozen constructors, _integer per integer field in validate, and
    # json_text per tier and resource cost 31.76 (11.35, 3.73, 1.0, 2.09
    # and 13.58). Writing through json.dumps's indenting encoder cost
    # 166.7, one generator resumption per container and scalar.
    steps, deployment_text = _wide_inputs(300)
    execution = parse_execution(steps)
    declared = 3 * 300

    def setup():
        model = synthesize_scenario(
            execution, parse_deployment(deployment_text), arrival=Distribution.exponential(1.0)
        )
        assert len(model.resources()) == declared
        parse_scenario(serialize_scenario(model))

    assert python_calls(setup) <= 10.7 * declared
