"""Output pins: stepping and running agree, the engine's loop records
what the reference driver's rules (refengine.py) record, and report and
series bytes stay fixed across refactors of the engine and the renderers."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from tiersim import Engine, bundled, export_series, parse_scenario, report_to_json
from tiersim.metrics import ClassAccumulator, ResourceAccumulator
from randscen import random_scenario
from refengine import ReferenceEngine, step

CASES = 100

# SHA-256 over every report JSON and series CSV of MODELS, run as given
# and with series on and warmup 1.0. Changing it means a report byte moved.
GOLDEN = "d7b2e120a03f92feaee4689985c15c50e285af8e5073a29c6a805c688b901548"


def models():
    yield "bundled:webservices.json", parse_scenario(bundled.scenario_text())
    for case in range(CASES):
        yield f"randscen:{case}", random_scenario(case)


MODELS = list(models())


@pytest.mark.parametrize("label,model", MODELS, ids=[label for label, _ in MODELS])
def test_stepping_then_running_matches_running(label, model):
    whole = Engine(model)
    expected = report_to_json(whole.run())
    n = whole.events_applied

    stepped = Engine(model)
    for _ in range(n):
        step(stepped)
    assert report_to_json(stepped.run()) == expected
    assert stepped.events_applied == n


def _fields(acc, record):
    # the measurement slots of ``record``, not the engine's queue state beside them
    return {name: getattr(acc, name) for name in record.__slots__}


@pytest.mark.parametrize("label,model", MODELS, ids=[label for label, _ in MODELS])
def test_loop_records_what_the_accumulator_methods_record(label, model):
    # each hoisted setting on its own too: a loop that swapped the window
    # and the series flag would pass the first two runs
    series_only = dataclasses.replace(model.run, series_enabled=True, warmup=0.0)
    variant = dataclasses.replace(model.run, series_enabled=True, warmup=1.0)
    for run in (model.run, series_only, variant):
        scenario = dataclasses.replace(model, run=run)
        fused, reference = Engine(scenario), ReferenceEngine(scenario)
        fused_report, reference_report = fused.run(), reference.run()
        for name, acc in fused.accumulator.resources.items():
            expected = reference.accumulator.resources[name]
            assert _fields(acc, ResourceAccumulator) == _fields(expected, ResourceAccumulator), (run.warmup, name)
        for name, acc in fused.accumulator.classes.items():
            expected = reference.accumulator.classes[name]
            assert _fields(acc, ClassAccumulator) == _fields(expected, ClassAccumulator), (run.warmup, name)
        assert (fused.clock, fused.terminals, fused._seq) == (reference.clock, reference.terminals, reference._seq)
        assert report_to_json(fused_report) == report_to_json(reference_report)
        if run.series_enabled:
            assert export_series(fused_report) == export_series(reference_report)


def test_report_and_series_bytes_are_pinned():
    digest = hashlib.sha256()
    for label, model in MODELS:
        variant = dataclasses.replace(model.run, series_enabled=True, warmup=1.0)
        for run in (model.run, variant):
            report = Engine(dataclasses.replace(model, run=run)).run()
            digest.update(f"{label}\n".encode())
            digest.update(report_to_json(report).encode())
            if report.series_enabled:
                digest.update(export_series(report).encode())
    assert digest.hexdigest() == GOLDEN
