"""Exact Python call counts, for tests that bound work without a wall clock."""

from __future__ import annotations

import sys


def _profiled(fn, args, counts) -> int:
    """How many profile events of ``fn(*args)`` ``counts(event, arg)`` holds true."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if counts(event, arg):
            calls += 1

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def python_calls(fn, *args) -> int:
    """Python function calls (and generator resumptions) ``fn(*args)`` makes."""
    return _profiled(fn, args, lambda event, arg: event == "call")


def builtin_calls(fn, *builtins) -> int:
    """Calls ``fn()`` makes, at any depth, to any of ``builtins``: C
    functions, whose calls the profiler reports as ``c_call``."""
    return _profiled(fn, (), lambda event, arg: event == "c_call" and arg in builtins)
