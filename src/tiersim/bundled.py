"""Access to the example inputs shipped inside the package."""

from __future__ import annotations

import errno
import os
from importlib import resources

SCENARIO = "webservices.json"
EXECUTION = "webservices_steps.txt"
DEPLOYMENT = "webservices_deployment.json"


def read(name: str) -> str:
    """Return the text of one bundled data file. ``name`` must name a file
    directly in the data directory; any other name, such as one that
    climbs out of it, is a ``FileNotFoundError`` naming ``bundled:NAME``."""
    for entry in resources.files("tiersim.data").iterdir():
        if entry.name == name and entry.is_file():
            return entry.read_text(encoding="utf-8")
    raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), f"bundled:{name}")


def scenario_text() -> str:
    """The three-tier web-services scenario, ready to run."""
    return read(SCENARIO)


def execution_text() -> str:
    """The step script that synthesizes the web-services path."""
    return read(EXECUTION)


def deployment_text() -> str:
    """The deployment map matching the step script."""
    return read(DEPLOYMENT)
