"""Output pins: stepping and running agree, and report/series bytes
stay fixed across refactors of the engine and the renderers."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from tiersim import Engine, bundled, export_series, parse_scenario, report_to_json
from randscen import random_scenario

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
        stepped.step()
    assert report_to_json(stepped.run()) == expected
    assert stepped.events_applied == n


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
