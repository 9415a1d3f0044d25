"""Locate the tiersim sources of the checkout the benchmark lives in.

The benchmark always measures the code next to it, never an installed
copy, so it puts ``<checkout>/src`` first on ``sys.path`` and refuses to
run when that tree is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SourceMissing(RuntimeError):
    """The checkout holds no tiersim package to measure."""


def add_source_path() -> None:
    """Make ``import tiersim`` load ``<checkout>/src/tiersim``."""
    package = SRC / "tiersim" / "__init__.py"
    if not package.is_file():
        raise SourceMissing(f"no tiersim sources at {package}")
    sys.path.insert(0, str(SRC))
    import tiersim

    if Path(tiersim.__file__).resolve() != package.resolve():
        raise SourceMissing(f"imported tiersim from {tiersim.__file__}, not from {package}")
