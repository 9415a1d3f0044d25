"""Scenario parsing, validation and round-trip serialization."""

from __future__ import annotations

import dataclasses
import json
import math
import pickle
import re
from collections import OrderedDict
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiersim import (
    INFINITE,
    UNBOUNDED,
    BalancerPolicy,
    Distribution,
    ResourceSpec,
    RunConfig,
    ScenarioModel,
    ScenarioSyntaxError,
    StopKind,
    StopRule,
    Tier,
    ValidationError,
    Visit,
    WorkloadClass,
    bundled,
    parse_deployment,
    parse_scenario,
    serialize_scenario,
    validate,
)
from tiersim import model as model_module
from tiersim.frontend import parse_execution, synthesize_scenario
from tiersim.model import json_text

from randdeploy import random_deployment
from randscen import random_scenario
from refmodel import parse_resource as reference_resource
from refmodel import scenario_doc as reference_doc


def small_model(**run_kwargs) -> ScenarioModel:
    return ScenarioModel(
        name="tiny",
        tiers=(Tier(name="only", resources=(ResourceSpec(name="cpu", queue_capacity=2),)),),
        classes=(
            WorkloadClass(
                name="load",
                arrival=Distribution.exponential(1.0),
                path=(Visit(resource="cpu", demand=Distribution.exponential(2.0)),),
            ),
        ),
        run=RunConfig(**run_kwargs) if run_kwargs else RunConfig(),
    )


def test_bundled_scenario_parses_with_canonical_resources():
    model = parse_scenario(bundled.scenario_text())
    assert model.name == "webservices"
    assert [t.name for t in model.tiers] == ["requester", "broker", "provider"]
    assert {r.name for r in model.resources()} == {
        "SRS_CPU",
        "Internet1",
        "SB_CPU",
        "SB_Disk",
        "Internet2",
        "SP_CPU",
        "SP_Disk",
    }
    assert model.run.stop == StopRule.after_requests(1000)
    assert model.classes[0].max_requests == 1000
    # the saturating stations are bounded, the rest are not
    assert model.resource("Internet1").queue_capacity == 2
    assert model.resource("SP_Disk").queue_capacity == 1
    assert model.resource("SRS_CPU").queue_capacity == INFINITE


def test_round_trip_is_exact_on_bundled():
    model = parse_scenario(bundled.scenario_text())
    assert parse_scenario(serialize_scenario(model)) == model


def test_malformed_json_reports_position():
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario('{"name": "x",\n  "tiers": [}')
    assert err.value.line == 2


def test_unknown_top_level_key_rejected():
    doc = json.loads(serialize_scenario(small_model()))
    doc["extra"] = 1
    with pytest.raises(ValidationError, match="unknown key 'extra'"):
        parse_scenario(json.dumps(doc))


def test_unknown_resource_key_rejected():
    doc = json.loads(serialize_scenario(small_model()))
    doc["tiers"][0]["resources"][0]["replicsa"] = 2
    with pytest.raises(ValidationError, match="replicsa"):
        parse_scenario(json.dumps(doc))


def test_discipline_other_than_fcfs_rejected():
    doc = json.loads(serialize_scenario(small_model()))
    assert doc["tiers"][0]["resources"][0]["discipline"] == "fcfs"
    doc["tiers"][0]["resources"][0]["discipline"] = "lifo"
    with pytest.raises(ValidationError, match=r"resources\[0\]\.discipline: unknown discipline 'lifo'"):
        parse_scenario(json.dumps(doc))


@pytest.mark.parametrize("value", ["false", 0, 1])
def test_series_must_be_a_json_bool(value):
    doc = json.loads(serialize_scenario(small_model()))
    doc["run"]["series"] = value
    with pytest.raises(ValidationError, match=r"\$\.run\.series: expected a boolean"):
        parse_scenario(json.dumps(doc))


def test_every_json_block_in_the_readme_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    read = {parse_deployment: 0, parse_scenario: 0}
    for section in re.split(r"^## ", readme, flags=re.M):
        parse = parse_deployment if section.startswith("Deployment format\n") else parse_scenario
        for block in re.findall(r"```json\n(.*?)```", section, re.S):
            parse(block)
            read[parse] += 1
    assert read[parse_deployment] == 1 and read[parse_scenario] >= 1


def test_defaults_applied_for_optional_keys():
    text = json.dumps(
        {
            "name": "defaults",
            "tiers": [{"name": "t", "resources": [{"name": "cpu"}]}],
            "classes": [
                {
                    "name": "c",
                    "arrival": {"kind": "exponential", "rate": 1.0},
                    "path": [{"resource": "cpu", "demand": {"kind": "deterministic", "value": 0.1}}],
                }
            ],
            "run": {"stop": {"kind": "after_time", "t": 5.0}},
        }
    )
    model = parse_scenario(text)
    res = model.resource("cpu")
    assert res.replicas == 1
    assert res.queue_capacity == INFINITE
    assert res.balancer is BalancerPolicy.JSQ
    assert model.classes[0].max_requests == UNBOUNDED
    assert model.run.seed == 1
    assert model.run.warmup == 0.0
    assert model.run.series_enabled is False


def test_duplicate_resource_name_across_tiers_is_one_issue():
    model = ScenarioModel(
        name="dup",
        tiers=(
            Tier(name="a", resources=(ResourceSpec(name="cpu"),)),
            Tier(name="b", resources=(ResourceSpec(name="cpu"),)),
        ),
        classes=(
            WorkloadClass(
                name="load",
                arrival=Distribution.exponential(1.0),
                path=(Visit(resource="cpu", demand=Distribution.exponential(1.0)),),
            ),
        ),
        run=RunConfig(),
    )
    report = validate(model)
    assert len(report) == 1
    assert "duplicate resource name 'cpu'" in str(report[0])


def test_each_injected_violation_yields_exactly_one_issue():
    import dataclasses

    base = small_model()
    assert validate(base) == ()

    def broken_resource(**kw):
        res = dataclasses.replace(base.tiers[0].resources[0], **kw)
        return dataclasses.replace(base, tiers=(Tier(name="only", resources=(res,)),))

    cases = [
        broken_resource(replicas=0),
        broken_resource(queue_capacity=-1),
        dataclasses.replace(
            base,
            classes=(
                WorkloadClass(
                    name="load",
                    arrival=Distribution.exponential(1.0),
                    path=(Visit(resource="ghost", demand=Distribution.exponential(1.0)),),
                ),
            ),
        ),
        dataclasses.replace(
            base,
            classes=(
                WorkloadClass(
                    name="load",
                    arrival=Distribution.exponential(-2.0),
                    path=base.classes[0].path,
                ),
            ),
        ),
        dataclasses.replace(base, run=RunConfig(seed=-1)),
        dataclasses.replace(base, run=RunConfig(stop=StopRule.after_requests(0))),
        dataclasses.replace(base, run=RunConfig(warmup=-0.5)),
        # the kind enums are str mixins: a plain string is not a member
        broken_resource(balancer="jsq"),
        dataclasses.replace(
            base, classes=(dataclasses.replace(base.classes[0], arrival=Distribution("normal", rate=1.0)),)
        ),
        dataclasses.replace(base, run=RunConfig(stop=StopRule("after_requests", n=5))),
    ]
    for model in cases:
        report = validate(model)
        assert len(report) == 1, f"expected one issue, got {report}"


def _structural_cases():
    import dataclasses

    base = small_model()
    (tier,) = base.tiers
    (cls,) = base.classes
    renamed = dataclasses.replace(tier.resources[0], name=" cpu")

    def replaced(**kw):
        return dataclasses.replace(base, **kw)

    # (model, expected issue line, whether it is the only issue)
    return {
        "scenario-name": (
            replaced(name="two words"),
            "name: scenario name must be a non-empty token, got 'two words'",
            True,
        ),
        "tier-name": (
            replaced(tiers=(Tier(name="", resources=tier.resources),)),
            "tiers[0]: tier name must be a non-empty token, got ''",
            True,
        ),
        # the visit to "cpu" then names an unknown resource too
        "resource-name": (
            replaced(tiers=(Tier(name="only", resources=(renamed,)),)),
            "tiers[0].resources[0]: resource name must be a non-empty token, got ' cpu'",
            False,
        ),
        "class-name": (
            replaced(classes=(dataclasses.replace(cls, name="a\tb"),)),
            "classes[0]: class name must be a non-empty token, got 'a\\tb'",
            True,
        ),
        "no-tiers": (replaced(tiers=()), "tiers: at least one tier is required", False),
        "no-classes": (replaced(classes=()), "classes: at least one workload class is required", True),
        "duplicate-tier": (
            replaced(tiers=(tier, Tier(name="only", resources=(ResourceSpec(name="disk"),)))),
            "tiers[1]: duplicate tier name 'only'",
            True,
        ),
        "duplicate-class": (replaced(classes=(cls, cls)), "classes[1]: duplicate class name 'load'", True),
        "empty-tier": (
            replaced(tiers=(tier, Tier(name="spare", resources=()))),
            "tiers[1]: tier holds no resources",
            True,
        ),
        "empty-path": (
            replaced(classes=(dataclasses.replace(cls, path=()),)),
            "classes[0].path: path must hold at least one visit",
            True,
        ),
        # a list does not hash, so it is refused before the declared names are looked up
        "visit-resource-list": (
            replaced(classes=(dataclasses.replace(cls, path=(dataclasses.replace(cls.path[0], resource=["x"]),)),)),
            "classes[0].path[0]: visit resource must be a non-empty token, got ['x']",
            True,
        ),
        "balancer-text": (
            replaced(tiers=(Tier(name="only", resources=(dataclasses.replace(tier.resources[0], balancer="jsq"),)),)),
            "tiers[0].resources[0]: balancer must be a BalancerPolicy, got 'jsq'",
            True,
        ),
        "distribution-kind": (
            replaced(classes=(dataclasses.replace(cls, arrival=Distribution("normal", rate=1.0)),)),
            "classes[0].arrival: kind must be a DistKind, got 'normal'",
            True,
        ),
        "stop-kind": (
            replaced(run=RunConfig(stop=StopRule("after_requests", n=5))),
            "run.stop: kind must be a StopKind, got 'after_requests'",
            True,
        ),
        # the parser refuses a non-bool, but a model built in code reaches validate
        "series-text": (
            replaced(run=RunConfig(series_enabled="no")),
            "run.series: series must be a boolean, got 'no'",
            True,
        ),
        "replicas-above-bound": (
            replaced(tiers=(Tier(name="only", resources=(dataclasses.replace(tier.resources[0], replicas=4097),)),)),
            "tiers[0].resources[0]: replicas must be at most 4096, got 4097",
            True,
        ),
        "zero-gap-arrivals": (
            replaced(classes=(dataclasses.replace(cls, arrival=Distribution.uniform(0, 0)),)),
            "classes[0].arrival: an unbounded class needs a mean interarrival gap > 0 or a finite max_requests, got 0",
            True,
        ),
        # 2e9 arrivals expected before t = 2
        "arrivals-above-bound": (
            replaced(
                classes=(dataclasses.replace(cls, arrival=Distribution.exponential(1e9)),),
                run=RunConfig(stop=StopRule.after_time(2.0)),
            ),
            "classes[0].arrival: an unbounded class may expect at most 1000000000 arrivals before the after_time "
            "stop, got 2e+09 (mean gap 1e-09); raise the gap, shorten the horizon or set max_requests",
            True,
        ),
    }


@pytest.mark.parametrize("case", list(_structural_cases()))
def test_each_structural_invariant_has_its_issue_line(case):
    model, line, alone = _structural_cases()[case]
    issues = validate(model)
    assert line in issues, issues
    if alone:
        assert issues == (line,)
    else:
        assert len(issues) > 1


@pytest.mark.parametrize("capped", [True, False], ids=["capped", "unbounded"])
@pytest.mark.parametrize(
    "name, line",
    [
        ("__end_to_end__", "tiers[0].resources[0]: resource name '__end_to_end__' is reserved"),
        ("a b", "tiers[0].resources[0]: resource name must be a non-empty token, got 'a b'"),
    ],
    ids=["reserved", "malformed"],
)
def test_a_refused_resource_name_is_one_line_not_also_an_unknown_visit(name, line, capped):
    # the visit names a declared resource, so only the declaration is at
    # fault; an unbounded class also reads that resource's queue bound
    doc = json.loads(bundled.scenario_text())
    doc["tiers"][0]["resources"][0]["name"] = name
    doc["classes"][0]["path"][0]["resource"] = name
    if not capped:
        del doc["classes"][0]["max_requests"]
    with pytest.raises(ValidationError) as exc:
        parse_scenario(json.dumps(doc))
    assert str(exc.value).split("\n") == [line]


@pytest.mark.parametrize(
    "field",["replicas", "queue_capacity", "max_requests", "seed", "after_requests count", "after_time horizon", "warmup"]
)
def test_bool_is_not_an_integer_field(field):
    import dataclasses

    base = small_model()
    if field in ("replicas", "queue_capacity"):
        res = dataclasses.replace(base.tiers[0].resources[0], **{field: True})
        model = dataclasses.replace(base, tiers=(Tier(name="only", resources=(res,)),))
    elif field == "max_requests":
        model = dataclasses.replace(base, classes=(dataclasses.replace(base.classes[0], max_requests=True),))
    elif field == "after_requests count":
        model = dataclasses.replace(base, run=RunConfig(stop=StopRule.after_requests(True)))
    elif field == "after_time horizon":
        model = dataclasses.replace(base, run=RunConfig(stop=StopRule.after_time(True)))
    elif field == "warmup":
        model = dataclasses.replace(base, run=RunConfig(warmup=True))
    else:
        model = dataclasses.replace(base, run=RunConfig(seed=True))
    report = validate(model)
    assert len(report) == 1
    assert f"{field} must be" in str(report[0]) and "got True" in str(report[0])


@pytest.mark.parametrize(
    "dist, message",
    [
        (Distribution.exponential(True), "exponential rate must be finite and > 0, got True"),
        (Distribution.exponential("2"), "exponential rate must be finite and > 0, got '2'"),
        (Distribution.deterministic(True), "deterministic value must be finite and >= 0, got True"),
        (Distribution.uniform(0.0, True), "uniform bounds must satisfy 0 <= lo <= hi, got (0.0, True)"),
        (Distribution.uniform("0", 1.0), "uniform bounds must satisfy 0 <= lo <= hi, got ('0', 1.0)"),
        # an int is a number, but this one has no float
        (Distribution.exponential(10**400), f"exponential rate must be finite and > 0, got {10**400!r}"),
    ],
    ids=["exponential-bool", "exponential-text", "deterministic-bool", "uniform-bool", "uniform-text", "exponential-huge"],
)
def test_bool_and_text_are_not_distribution_parameters(dist, message):
    import dataclasses

    base = small_model()
    model = dataclasses.replace(base, classes=(dataclasses.replace(base.classes[0], arrival=dist),))
    report = validate(model)
    assert [str(issue) for issue in report] == [f"classes[0].arrival: {message}"]


def test_validation_error_names_offending_element():
    doc = json.loads(serialize_scenario(small_model()))
    doc["classes"][0]["path"][0]["resource"] = "nowhere"
    with pytest.raises(ValidationError, match=r"classes\[0\].path\[0\]") as err:
        parse_scenario(json.dumps(doc))
    assert "nowhere" in str(err.value)


def test_a_class_names_its_first_fault_in_read_order():
    # a class is read key by key: its keys, its path (each visit's keys,
    # resource and demand), then max_requests, name and arrival
    doc = json.loads(bundled.scenario_text())
    cls = doc["classes"][0]
    faults = [
        ("extra", 1, "$.classes[0]: unknown key 'extra'"),
        ("path", [{"resource": 7, "demand": {}}], "$.classes[0].path[0].resource: expected a string, got 7"),
        ("path", [{"resource": "SRS_CPU", "demand": {}}], "$.classes[0].path[0].demand.kind: unknown distribution kind None"),
        ("max_requests", "many", "$.classes[0].max_requests: expected an integer, got 'many'"),
        ("name", 7, "$.classes[0].name: expected a string, got 7"),
        ("arrival", {"kind": "zipf"}, "$.classes[0].arrival.kind: unknown distribution kind 'zipf'"),
    ]
    for i, (_, _, line) in enumerate(faults):
        # this fault and every later one; a later path fault replaces an earlier
        doc["classes"] = [{**cls, **{key: value for key, value, _ in faults[i:][::-1]}}]
        with pytest.raises(ValidationError) as found:
            parse_scenario(json.dumps(doc))
        assert str(found.value) == line


def test_zero_capacity_is_valid_pure_loss():
    import dataclasses

    base = small_model()
    res = dataclasses.replace(base.tiers[0].resources[0], queue_capacity=0)
    model = dataclasses.replace(base, tiers=(Tier(name="only", resources=(res,)),))
    assert validate(model) == ()


def test_reserved_series_label_rejected_as_resource_name():
    import dataclasses

    base = small_model()
    res = dataclasses.replace(base.tiers[0].resources[0], name="__end_to_end__")
    cls = dataclasses.replace(
        base.classes[0],
        path=(Visit(resource="__end_to_end__", demand=Distribution.exponential(1.0)),),
    )
    model = dataclasses.replace(base, tiers=(Tier(name="only", resources=(res,)),), classes=(cls,))
    report = validate(model)
    assert any("reserved" in str(i) for i in report)


def _reference_valid_name(name: object) -> bool:
    """The name check character by character: the reference for model._valid_name."""
    if not isinstance(name, str) or not name:
        return False
    if name != name.strip() or any(ch.isspace() for ch in name):
        return False
    # a surrogate code point has no UTF-8 encoding
    return not any(0xD800 <= ord(ch) <= 0xDFFF for ch in name)


def _named(kind: str, name: object) -> ScenarioModel:
    """small_model with its scenario, tier, resource or class renamed."""
    base = small_model()
    tier, cls = base.tiers[0], base.classes[0]
    if kind == "scenario":
        return dataclasses.replace(base, name=name)
    if kind == "tier":
        return dataclasses.replace(base, tiers=(dataclasses.replace(tier, name=name),))
    if kind == "class":
        return dataclasses.replace(base, classes=(dataclasses.replace(cls, name=name),))
    res = dataclasses.replace(tier.resources[0], name=name)
    path = (dataclasses.replace(cls.path[0], resource=name),)
    return dataclasses.replace(
        base,
        tiers=(dataclasses.replace(tier, resources=(res,)),),
        classes=(dataclasses.replace(cls, path=path),),
    )


_NAME_LINES = {
    "scenario": "name: scenario name must be a non-empty token, got {!r}",
    "tier": "tiers[0]: tier name must be a non-empty token, got {!r}",
    "resource": "tiers[0].resources[0]: resource name must be a non-empty token, got {!r}",
    "class": "classes[0]: class name must be a non-empty token, got {!r}",
}
_WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]


@pytest.mark.parametrize("kind", _NAME_LINES)
def test_names_with_any_whitespace_give_the_lines_of_the_reference_check(monkeypatch, kind):
    assert len(_WHITESPACE) == 29
    spaced = [name for ws in _WHITESPACE for name in (ws + "ab", "a" + ws + "b", "ab" + ws)]
    # a lone surrogate, high or low, anywhere in the name: no UTF-8 encoding
    unencodable = ["\ud800", "a\udbffb", "ab\udc00", "\udfff\ud800"]
    refused = [*spaced, *unencodable, "", None, 7, b"ab"]
    # both checks take a zero-width space and a NUL, which are not
    # whitespace, a character past the BMP, which a str holds as one code
    # point, and the code points on either side of the surrogates
    names = [*refused, "ab", "\u00e9", 'a"b', "a\\b", "a,b", "a\u200bb", "a\x00b", "a\U0001f600", "\ud7ff\ue000"]
    lines = [validate(_named(kind, name)) for name in names]
    for name, found in zip(refused, lines):
        assert _NAME_LINES[kind].format(name) in found
    monkeypatch.setattr(model_module, "_valid_name", _reference_valid_name)
    assert lines == [validate(_named(kind, name)) for name in names]


# -- property: serialize/parse is the identity on valid models ---------

_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True)


@st.composite
def scenario_models(draw):
    tier_count = draw(st.integers(1, 3))
    tier_names = draw(
        st.lists(_names, min_size=tier_count, max_size=tier_count, unique=True)
    )
    all_resources: list[str] = []
    tiers = []
    for ti, tname in enumerate(tier_names):
        res_count = draw(st.integers(1, 3))
        specs = []
        for ri in range(res_count):
            rname = f"{tname}_r{ri}"
            all_resources.append(rname)
            specs.append(
                ResourceSpec(
                    name=rname,
                    replicas=draw(st.integers(1, 4)),
                    queue_capacity=draw(st.one_of(st.just(INFINITE), st.integers(0, 9))),
                    balancer=draw(st.sampled_from(list(BalancerPolicy))),
                )
            )
        tiers.append(Tier(name=tname, resources=tuple(specs)))

    def dist(d, least=0.0):
        kind = d(st.sampled_from(["exponential", "deterministic", "uniform"]))
        if kind == "exponential":
            return Distribution.exponential(d(st.floats(0.01, 100.0, allow_nan=False)))
        if kind == "deterministic":
            return Distribution.deterministic(d(st.floats(least, 10.0, allow_nan=False)))
        lo = d(st.floats(0.0, 5.0, allow_nan=False))
        return Distribution.uniform(lo, lo + d(st.floats(least, 5.0, allow_nan=False)))

    class_count = draw(st.integers(1, 2))
    classes = []
    for ci in range(class_count):
        path_len = draw(st.integers(1, 4))
        path = tuple(
            Visit(resource=draw(st.sampled_from(all_resources)), demand=dist(draw)) for _ in range(path_len)
        )
        classes.append(
            WorkloadClass(
                name=f"class{ci}",
                # validate() refuses an unbounded class whose arrivals come 0 apart
                arrival=dist(draw, least=0.01),
                path=path,
                max_requests=draw(st.one_of(st.just(UNBOUNDED), st.integers(1, 10**6))),
            )
        )

    stop = draw(
        st.one_of(
            st.integers(1, 10**6).map(StopRule.after_requests),
            st.floats(0.001, 1e6, allow_nan=False).map(StopRule.after_time),
        )
    )
    run = RunConfig(
        seed=draw(st.integers(0, 2**64 - 1)),
        stop=stop,
        warmup=draw(st.floats(0.0, 100.0, allow_nan=False)),
        series_enabled=draw(st.booleans()),
    )
    return ScenarioModel(name=draw(_names), tiers=tuple(tiers), classes=tuple(classes), run=run)


@settings(max_examples=60, deadline=None)
@given(scenario_models())
def test_round_trip_property(model):
    assert validate(model) == ()
    again = parse_scenario(serialize_scenario(model))
    assert again == model
    assert again.run.stop.kind in (StopKind.AFTER_REQUESTS, StopKind.AFTER_TIME)


def test_the_arrival_bound_holds_only_unbounded_classes_under_a_time_stop():
    base = small_model(stop=StopRule.after_time(1.0))
    (cls,) = base.classes

    def with_class(model, **changes):
        return dataclasses.replace(model, classes=(dataclasses.replace(cls, **changes),))

    # exactly at the bound
    assert validate(with_class(base, arrival=Distribution.exponential(1e9))) == ()
    flood = Distribution.deterministic(1e-300)
    assert validate(with_class(base, arrival=flood, max_requests=5)) == ()
    assert validate(with_class(small_model(), arrival=flood)) == ()
    assert len(validate(with_class(base, arrival=flood))) == 1


class _Count(int):
    """An int subclass whose own texts json.dumps does not write."""

    def __repr__(self) -> str:
        return f"_Count({int(self)})"

    __str__ = __repr__


class _Name(str):
    """A str subclass whose own texts json.dumps does not write."""

    def __repr__(self) -> str:
        return f"_Name({str.__str__(self)!r})"

    __str__ = __repr__


class _Real(float):
    """A float subclass whose own texts json.dumps does not write."""

    def __repr__(self) -> str:
        return f"_Real({float.__repr__(self)})"

    __str__ = __repr__


class _Word(str, Enum):
    """A str Enum, whose members json.dumps writes as their values."""

    SHORT = "s"
    QUOTED = 'q"\u00e9'


class _Items(list):
    """A list subclass, which json.dumps writes as a list."""


# scalars json.dumps writes in a form of their own: escapes, signed and
# exponent floats, the non-finite spellings, ints past 64 bits
_EDGE_SCALARS = st.sampled_from(
    [
        "",
        'say "hi"',
        "back\\slash",
        "\x00\x1f\x7f\n\t",
        "\u00e9\u2028\U0001f600",
        -0.0,
        1e16,
        1e-7,
        math.inf,
        -math.inf,
        math.nan,
        2**64,
        -(10**80),
        True,
        False,
        None,
    ]
)
_SCALARS = st.one_of(_EDGE_SCALARS, st.text(), st.integers(), st.floats(), st.booleans(), st.none())
# scalars of no exact class; validate accepts an int, float or str
# subclass where it asks for the base class
_SUBCLASS_SCALARS = st.one_of(
    st.text().map(_Name),
    st.integers().map(_Count),
    st.floats().map(_Real),
    st.sampled_from(_Word),
)
_KEYS = st.one_of(st.text(), st.sampled_from(["a", "\u00e9", 'q"']))
_VALUES = st.recursive(
    st.one_of(_SCALARS, _SUBCLASS_SCALARS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(_Items),
        st.dictionaries(_KEYS, inner, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=4).map(OrderedDict),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_json_text_writes_what_json_dumps_writes(value):
    assert json_text(value) == json.dumps(value, indent=2)
    assert json_text(value, sort_keys=True) == json.dumps(value, indent=2, sort_keys=True)


def test_json_text_refuses_what_json_dumps_refuses():
    with pytest.raises(TypeError, match="not JSON serializable"):
        json_text({"a": [object()]})


def _synthesized_scenarios():
    for case in range(20):
        steps, doc = random_deployment(case)
        yield synthesize_scenario(
            parse_execution(steps),
            parse_deployment(json.dumps(doc)),
            scenario_name=f"case{case}",
            arrival=Distribution.exponential(2.0),
            run=RunConfig(seed=case, warmup=0.25 * case),
        )


@pytest.mark.parametrize(
    "models",
    [
        pytest.param(lambda: map(random_scenario, range(100)), id="randscen"),
        pytest.param(_synthesized_scenarios, id="randdeploy"),
    ],
)
def test_serialize_scenario_writes_what_json_dumps_writes(models):
    for model in models():
        assert serialize_scenario(model) == json.dumps(reference_doc(model), indent=2) + "\n", model.name


def _with_first_class(model: ScenarioModel, **changes) -> ScenarioModel:
    return dataclasses.replace(model, classes=(dataclasses.replace(model.classes[0], **changes), *model.classes[1:]))


@pytest.mark.parametrize(
    "change",
    [
        lambda m: dataclasses.replace(m, name=_Name(m.name)),
        lambda m: _with_first_class(m, name=_Name(m.classes[0].name)),
        lambda m: _with_first_class(m, max_requests=_Count(m.classes[0].max_requests)),
        lambda m: dataclasses.replace(m, run=dataclasses.replace(m.run, seed=_Count(m.run.seed))),
        lambda m: dataclasses.replace(m, run=dataclasses.replace(m.run, warmup=_Real(m.run.warmup))),
    ],
    ids=["scenario-name", "class-name", "max-requests", "seed", "warmup"],
)
def test_serialize_scenario_writes_a_subclass_value_of_a_class_or_run_as_json_dumps_does(change):
    # validate accepts an int, float or str subclass anywhere it asks for
    # the class; the writer gives it the exact value's bytes
    base = parse_scenario(bundled.scenario_text())
    model = change(base)
    assert validate(model) == ()
    text = serialize_scenario(model)
    assert text == serialize_scenario(base) == json.dumps(reference_doc(model), indent=2) + "\n"
    assert parse_scenario(text) == model == base


def _with_run(model: ScenarioModel, **changes) -> ScenarioModel:
    return dataclasses.replace(model, run=dataclasses.replace(model.run, **changes))


def _with_first_demand(model: ScenarioModel, demand: Distribution) -> ScenarioModel:
    first = model.classes[0]
    return _with_first_class(model, path=(dataclasses.replace(first.path[0], demand=demand), *first.path[1:]))


@pytest.mark.parametrize(
    "change, line",
    [
        (lambda m: dataclasses.replace(m, name=7), "name: scenario name must be a non-empty token, got 7"),
        (lambda m: _with_first_class(m, name=7), "classes[0]: class name must be a non-empty token, got 7"),
        (
            lambda m: _with_first_class(m, max_requests=2.0),
            "classes[0]: max_requests must be an integer >= 1 or unbounded, got 2.0",
        ),
        (lambda m: _with_run(m, seed=1.5), "run.seed: seed must be an unsigned 64-bit integer, got 1.5"),
        (lambda m: _with_run(m, warmup="0"), "run.warmup: warmup must be finite and >= 0, got '0'"),
        (lambda m: _with_run(m, series_enabled=1), "run.series: series must be a boolean, got 1"),
        (lambda m: _with_run(m, stop=StopRule.after_requests(5.0)), "run.stop: after_requests count must be >= 1, got 5.0"),
        (
            lambda m: _with_first_demand(m, Distribution.exponential("2")),
            "classes[0].path[0].demand: exponential rate must be finite and > 0, got '2'",
        ),
        (
            lambda m: _with_first_class(m, path=(Visit(resource=7, demand=Distribution.deterministic(1.0)),)),
            "classes[0].path[0]: visit resource must be a non-empty token, got 7",
        ),
        (
            lambda m: _with_first_class(m, path=(Visit(resource=["x"], demand=Distribution.deterministic(1.0)),)),
            "classes[0].path[0]: visit resource must be a non-empty token, got ['x']",
        ),
    ],
    ids=[
        "scenario-name",
        "class-name",
        "max-requests",
        "seed",
        "warmup",
        "series",
        "stop-n",
        "rate",
        "visit-resource",
        "visit-resource-list",
    ],
)
def test_serialize_scenario_refuses_a_class_or_run_value_of_a_type_the_reader_never_builds(change, line):
    # the reader would refuse the text the writer wrote; the writer refuses
    # the model instead, with validate's line
    model = change(parse_scenario(bundled.scenario_text()))
    with pytest.raises(ValidationError) as found:
        serialize_scenario(model)
    assert str(found.value) == line


def _with_resource(**changes) -> ScenarioModel:
    """small_model whose tier holds a plain resource, then one built in
    code with ``changes`` (which validate may refuse)."""
    base = small_model()
    odd = dataclasses.replace(base.tiers[0].resources[0], **changes)
    return dataclasses.replace(base, tiers=(Tier(name="only", resources=(ResourceSpec("plain"), odd)),))


def _refused_with_validates_lines(model: ScenarioModel) -> None:
    assert validate(model)
    with pytest.raises(ValidationError) as found:
        serialize_scenario(model)
    assert str(found.value) == "\n".join(validate(model))


def _with_first_resource(model: ScenarioModel, **changes) -> ScenarioModel:
    tier = model.tiers[0]
    resources = (dataclasses.replace(tier.resources[0], **changes), *tier.resources[1:])
    return dataclasses.replace(model, tiers=(dataclasses.replace(tier, resources=resources), *model.tiers[1:]))


@pytest.mark.parametrize(
    "change",
    [
        lambda m: _with_first_resource(m, balancer="fastest"),
        lambda m: _with_first_resource(m, balancer="jsq"),
        lambda m: _with_first_class(m, arrival=Distribution("pareto", rate=1.0)),
        lambda m: _with_first_class(m, arrival=Distribution("exponential", rate=1.0)),
        lambda m: _with_run(m, stop=StopRule("forever")),
        lambda m: _with_first_demand(m, Distribution("deterministic", value=0.01)),
    ],
    ids=["balancer-unknown", "balancer-str", "arrival-unknown", "arrival-str", "stop-unknown", "demand-str"],
)
def test_serialize_scenario_refuses_an_enum_field_that_is_not_a_member(change):
    # a str equals its member, so the writer tests the type: a plain str or
    # an unknown kind is refused with validate's lines, never looked up
    _refused_with_validates_lines(change(parse_scenario(bundled.scenario_text())))


# values of a type the reader never builds, which validate refuses
_REFUSED_VALUES = [
    {"replicas": 2.0},
    {"replicas": True},
    {"replicas": [1]},
    {"queue_capacity": 3.0},
    {"queue_capacity": False},
    {"queue_capacity": -math.inf},
    {"name": None},
    {"name": object()},
    {"balancer": "round_robin"},
]
# values of a type the reader builds, written whether validate accepts
# them or not, and int and str subclasses, which validate accepts
_WRITTEN_VALUES = [
    {"replicas": -(10**30)},
    {"queue_capacity": 2**70},
    {"name": "spé \"x\"\n"},
    {"replicas": _Count(3), "queue_capacity": _Count(2**70), "name": _Name("cpu")},
]


@pytest.mark.parametrize(
    "changes, refused",
    [(c, True) for c in _REFUSED_VALUES] + [(c, False) for c in _WRITTEN_VALUES],
    # an object()'s repr holds its address, which differs from run to run
    ids=lambda v: re.sub(" at 0x[0-9a-f]+", "", "-".join(f"{k}={x!r}" for k, x in v.items()))[:40]
    if isinstance(v, dict)
    else str(v),
)
def test_serialize_scenario_writes_a_resource_value_as_json_dumps_does_or_refuses_its_type_with_validates_lines(
    changes, refused
):
    # a model built in code may hold any value; the one tier writer refuses
    # a type the reader never builds as validated does
    model = _with_resource(**changes)
    if refused:
        _refused_with_validates_lines(model)
    else:
        assert serialize_scenario(model) == json.dumps(reference_doc(model), indent=2) + "\n"


@pytest.mark.parametrize(
    "name, refused",
    [(None, True), (7, True), ("spé", False), ("a\tb", False), (object(), True), (_Name("t2"), False)],
    ids=["none", "int", "accent", "tab", "object", "str-subclass"],
)
def test_serialize_scenario_writes_a_tier_name_as_json_dumps_does_or_refuses_its_type_with_validates_lines(
    name, refused
):
    base = _with_resource()
    model = dataclasses.replace(base, tiers=(*base.tiers, Tier(name=name, resources=(ResourceSpec("x"),))))
    if refused:
        _refused_with_validates_lines(model)
    else:
        assert serialize_scenario(model) == json.dumps(reference_doc(model), indent=2) + "\n"


def test_a_tier_without_resources_is_written_as_an_empty_array():
    model = _with_resource()
    model = dataclasses.replace(model, tiers=(*model.tiers, Tier(name="empty", resources=())))
    assert serialize_scenario(model) == json.dumps(reference_doc(model), indent=2) + "\n"
    assert '"resources": []' in serialize_scenario(model)


# -- the inline resource reader against the reference reader -----------

_RESOURCE_VALUES = {
    "name": st.one_of(_names, st.sampled_from(["n0_disk1", "é", "a b", "", " cpu", "__end_to_end__"])),
    "replicas": st.integers(1, 8),
    "queue_capacity": st.one_of(st.just("inf"), st.integers(0, 20)),
    "discipline": st.just("fcfs"),
    "balancer": st.sampled_from(["jsq", "round_robin", "random"]),
}
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=6)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=2), st.dictionaries(st.text(max_size=4), inner, max_size=2)),
    max_leaves=4,
)
# what the integer fields are given besides an integer's JSON type
_NOT_QUITE_INTEGERS = st.sampled_from([True, False, 1.0, 0.0, 2.5, -1, -(10**6), 10**400, -(10**400), "2", "inf"])


# the value mutations weigh more: a key mutation fails a check that comes first
_MUTATIONS = ["none", "drop", "unknown", "swap", "swap", "integer", "integer", "integer", "text", "text", "non-object"]


@st.composite
def resource_objects(draw):
    """A resource object with every key or some, then one to three
    mutations, so that the order of two failing checks shows too."""
    items = [(k, draw(v)) for k, v in _RESOURCE_VALUES.items() if k == "name" or draw(st.booleans())]
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(st.sampled_from(_MUTATIONS))
        if mutation == "drop" and items:
            del items[draw(st.integers(0, len(items) - 1))]
        elif mutation == "unknown":
            key = draw(st.text(max_size=8).filter(lambda k: k not in _RESOURCE_VALUES))
            items.insert(draw(st.integers(0, len(items))), (key, draw(_JSON_VALUES)))
        elif mutation == "non-object":
            return draw(st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=2)))
        elif mutation in ("swap", "integer", "text"):
            if mutation == "swap":
                key, values = draw(st.sampled_from(list(_RESOURCE_VALUES))), _JSON_VALUES
            elif mutation == "integer":
                key, values = draw(st.sampled_from(["replicas", "queue_capacity"])), _NOT_QUITE_INTEGERS
            else:
                key = draw(st.sampled_from(["balancer", "discipline"]))
                values = _JSON_VALUES.filter(lambda v: not isinstance(v, str))
            items = [(k, v) for k, v in items if k != key]
            items.insert(draw(st.integers(0, len(items))), (key, draw(values)))
    return dict(items)


def _outcome(read, *args):
    """``read(*args)``, or the line of the ValidationError it raises."""
    try:
        return read(*args)
    except ValidationError as exc:
        return str(exc)


def _scenario_with(obj, name) -> str:
    return json.dumps(
        {
            "name": "s",
            "tiers": [{"name": "t", "resources": [obj]}],
            "classes": [
                {
                    "name": "c",
                    "arrival": {"kind": "exponential", "rate": 1.0},
                    "path": [{"resource": name, "demand": {"kind": "exponential", "rate": 2.0}}],
                }
            ],
            "run": {"stop": {"kind": "after_requests", "n": 10}},
        }
    )


@settings(max_examples=800, deadline=None)
@given(resource_objects())
def test_the_resource_reader_gives_the_reference_spec_or_error_line(obj):
    expected = _outcome(reference_resource, obj)
    assert _outcome(model_module._parse_resource, obj) == expected

    # a scenario's resource: the same spec, validated, or the same line under its path
    name = expected.name if isinstance(expected, ResourceSpec) and isinstance(expected.name, str) else "cpu"
    found = _outcome(parse_scenario, _scenario_with(obj, name))
    if isinstance(expected, str):
        assert found == "$.tiers[0].resources[0]" + expected
    else:
        model = ScenarioModel(
            name="s",
            tiers=(Tier(name="t", resources=(expected,)),),
            classes=(
                WorkloadClass(
                    name="c",
                    arrival=Distribution.exponential(1.0),
                    path=(Visit(resource=name, demand=Distribution.exponential(2.0)),),
                ),
            ),
            run=RunConfig(stop=StopRule.after_requests(10)),
        )
        issues = validate(model)
        assert found == ("\n".join(issues) if issues else model)

    # a deployment's node entry and link resource, where a bare name is a
    # resource; the other resources' names are longer than any drawn name
    entry = {"name": obj} if isinstance(obj, str) else obj
    expected = _outcome(reference_resource, entry)
    doc = {
        "bindings": {"a": "n"},
        "nodes": {"n": [obj], "m": ["m_cpu_0000"]},
        "links": [{"between": ["n", "m"], "resource": obj}],
    }
    found = _outcome(parse_deployment, json.dumps(doc))
    if isinstance(expected, str):
        assert found == "deployment.nodes['n'][0]" + expected
    else:
        assert found == f"deployment.links[0]: link resource {expected.name!r} collides with a node resource"
        assert _outcome(parse_deployment, json.dumps(dict(doc, links=[]))).nodes["n"] == (expected,)
    doc["nodes"]["n"] = ["n_cpu_0000"]
    found = _outcome(parse_deployment, json.dumps(doc))
    if isinstance(expected, str):
        assert found == "deployment.links[0].resource" + expected
    else:
        assert found.links[("m", "n")] == expected


@pytest.mark.parametrize(
    "resource, line",
    [
        ([1, 2], "$.tiers[0].resources[0]: expected an object, got list"),
        ({"name": "cpu", "replicsa": 2}, "$.tiers[0].resources[0]: unknown key 'replicsa'"),
        ({"replicas": 2, "depth": 1}, "$.tiers[0].resources[0]: unknown key 'depth'"),
        ({"replicas": 2}, "$.tiers[0].resources[0]: missing required key 'name'"),
        ({"name": "cpu", "discipline": 0}, "$.tiers[0].resources[0].discipline: unknown discipline 0"),
        ({"name": "cpu", "balancer": ["jsq"]}, "$.tiers[0].resources[0].balancer: unknown balancer policy ['jsq']"),
        ({"name": 7, "replicas": 0.5}, "$.tiers[0].resources[0].name: expected a string, got 7"),
        ({"name": "cpu", "replicas": True}, "$.tiers[0].resources[0].replicas: expected an integer, got True"),
        ({"name": "cpu", "queue_capacity": 1.0}, "$.tiers[0].resources[0].queue_capacity: expected an integer, got 1.0"),
        ({"name": "cpu", "queue_capacity": False}, "$.tiers[0].resources[0].queue_capacity: expected an integer, got False"),
    ],
)
def test_a_bad_resource_value_is_one_pinned_line(resource, line):
    with pytest.raises(ValidationError) as exc:
        parse_scenario(_scenario_with(resource, "cpu"))
    assert str(exc.value) == line


_CPU = {"name": "cpu"}


@pytest.mark.parametrize(
    "tier, line",
    [
        (["t", [_CPU]], "$.tiers[0]: expected an object, got list"),
        ({"name": "t"}, "$.tiers[0]: missing required key 'resources'"),
        ({"name": "t", "resources": [_CPU], "x": 1}, "$.tiers[0]: unknown key 'x'"),
        ({"name": 5, "resources": [_CPU]}, "$.tiers[0].name: expected a string, got 5"),
    ],
    ids=["list", "no-resources", "unknown-key", "int-name"],
)
def test_a_bad_tier_is_one_pinned_line(tier, line):
    doc = json.loads(_scenario_with(_CPU, "cpu"))
    doc["tiers"] = [tier]
    with pytest.raises(ValidationError) as exc:
        parse_scenario(json.dumps(doc))
    assert str(exc.value) == line


_NODES = {"n": ["n_cpu"], "m": ["m_cpu"]}


@pytest.mark.parametrize(
    "nodes, link, line",
    [
        (
            {"n": [{"name": "cpu", "queue_capacity": "infinite"}], "m": ["m_cpu"]},
            {"between": ["n", "m"], "resource": "lan"},
            "deployment.nodes['n'][0].queue_capacity: expected an integer, got 'infinite'",
        ),
        (
            _NODES,
            {"between": ["n", "m"], "resource": {"name": "lan", "replicas": math.inf}},
            "deployment.links[0].resource.replicas: expected an integer, got inf",
        ),
        (_NODES, ["n", "m"], "deployment.links[0]: expected an object, got list"),
        (_NODES, {"between": ["n", "m"], "resource": "lan", "via": 1}, "deployment.links[0]: unknown key 'via'"),
        (_NODES, {"between": "n m", "resource": "lan"}, "deployment.links[0].between: expected an array, got str"),
        (_NODES, {"between": [["n"], "m"], "resource": "lan"}, "deployment.links[0].between[0]: expected a string, got ['n']"),
        (_NODES, {"between": ["n", "x"], "resource": "lan"}, "deployment.links[0].between: unknown node 'x'"),
    ],
    ids=["node-capacity", "link-replicas", "link-array", "link-key", "between-text", "endpoint-array", "endpoint-unknown"],
)
def test_a_bad_deployment_value_is_one_pinned_line(nodes, link, line):
    doc = {"bindings": {"a": "n"}, "nodes": nodes, "links": [link]}
    with pytest.raises(ValidationError) as exc:
        parse_deployment(json.dumps(doc))
    assert str(exc.value) == line


# -- specs and tiers from the readers are the constructors' ------------


def _built_and_read():
    """(built, read) pairs: each spec and tier of a scenario and of a
    deployment, from the readers, beside the same built by its constructor."""
    text = json.dumps(
        {
            "name": "s",
            "tiers": [
                {
                    "name": "t",
                    "resources": [
                        {"name": "cpu"},
                        {"name": "disk", "replicas": 3, "queue_capacity": 0, "balancer": "random"},
                    ],
                }
            ],
            "classes": [
                {
                    "name": "c",
                    "arrival": {"kind": "exponential", "rate": 1.0},
                    "path": [{"resource": "cpu", "demand": {"kind": "exponential", "rate": 2.0}}],
                }
            ],
            "run": {"stop": {"kind": "after_requests", "n": 10}},
        }
    )
    (tier,) = parse_scenario(text).tiers
    cpu = ResourceSpec("cpu")
    disk = ResourceSpec("disk", replicas=3, queue_capacity=0, balancer=BalancerPolicy.RANDOM)
    yield cpu, tier.resources[0]
    yield disk, tier.resources[1]
    yield Tier(name="t", resources=(cpu, disk)), tier
    synthesized = synthesize_scenario(
        parse_execution("a -> b : call [exp 10]"),
        parse_deployment(
            json.dumps(
                {
                    "bindings": {"a": "n", "b": "m"},
                    "nodes": {"n": ["n_cpu"], "m": [{"name": "m_cpu", "queue_capacity": 4}]},
                    "links": [{"between": ["n", "m"], "resource": {"name": "lan", "balancer": "round_robin"}}],
                }
            )
        ),
        arrival=Distribution.exponential(1.0),
    )
    n, m, network = synthesized.tiers
    lan = ResourceSpec("lan", balancer=BalancerPolicy.ROUND_ROBIN)
    yield ResourceSpec("m_cpu", queue_capacity=4), m.resources[0]
    yield lan, network.resources[0]
    yield Tier(name="n", resources=(ResourceSpec("n_cpu"),)), n
    yield Tier(name="network", resources=(lan,)), network


@pytest.mark.parametrize("protocol", range(6))
def test_specs_and_tiers_from_the_readers_are_the_constructors(protocol):
    for built, read in _built_and_read():
        assert type(read) is type(built)
        assert read == built and hash(read) == hash(built) and repr(read) == repr(built)
        assert pickle.dumps(read, protocol) == pickle.dumps(built, protocol)
        assert pickle.loads(pickle.dumps(read, protocol)) == built
        assert dataclasses.replace(read, name="other") == dataclasses.replace(built, name="other")
        with pytest.raises(dataclasses.FrozenInstanceError):
            read.name = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del read.name
