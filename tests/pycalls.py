"""Exact Python call counts, for tests that bound work without a wall clock."""

from __future__ import annotations

import sys


def python_calls(fn, *args) -> int:
    """Python function calls (and generator resumptions) ``fn(*args)`` makes."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls
