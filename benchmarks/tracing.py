"""The traced run's cProfile breakdown, grouped by tiersim module.

One job runs under ``cProfile``; every profiled function is charged to
a layer:

* a function in ``src/tiersim/<module>.py`` to ``<module>``;
* a dataclass-generated method (file name ``<string>``, such as
  ``ReplicaView.__init__``) to the module that defines its class;
* a C function to ``numpy`` when numpy owns it, else to ``builtins``;
* everything else (stdlib Python code, this benchmark) to ``other``.

Call counts are exact and repeat for a fixed seed; self times shift
under the profiler, so only their shares are reported.
"""

from __future__ import annotations

import cProfile
import inspect
import sys
from pathlib import Path
from types import CodeType

import tiersim
from tiersim import workload as tiersim_workload

CALL_LAYERS = ("engine", "metrics", "workload", "balancer", "cli", "builtins")
TIME_LAYERS = ("engine", "metrics", "workload", "balancer", "model", "frontend", "cli", "numpy", "builtins", "other")

_PACKAGE_DIR = Path(tiersim.__file__).resolve().parent
# Uniforms per refill of a stream's buffer; the name is private to
# tiersim.workload, so fall back to the seed's value if it goes away.
_BUFFER = getattr(tiersim_workload, "_BUFFER", 1024)


def _generated_code_layers() -> dict[CodeType, str]:
    """Code objects of methods defined on tiersim classes, by module."""
    layers: dict[CodeType, str] = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("tiersim.") or module is None:
            continue
        layer = name.split(".", 1)[1]
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != name:
                continue
            for attr in vars(cls).values():
                func = getattr(attr, "__func__", attr)
                code = getattr(func, "__code__", None)
                if code is not None:
                    layers[code] = layer
    return layers


class Attribution:
    """Maps profiler entries to layers."""

    def __init__(self) -> None:
        self._generated = _generated_code_layers()

    def layer(self, code: CodeType | str) -> str:
        if isinstance(code, str):
            return "numpy" if "numpy" in code else "builtins"
        path = Path(code.co_filename)
        if path.parent == _PACKAGE_DIR:
            return path.stem
        if code.co_filename == "<string>":
            return self._generated.get(code, "other")
        if "numpy" in path.parts:
            return "numpy"
        return "other"


def _qualname(code: CodeType | str) -> str:
    return code if isinstance(code, str) else getattr(code, "co_qualname", code.co_name)


def profile(run, *args):
    """Call ``run(*args)`` under cProfile; return its result and the entries."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run(*args)
    finally:
        profiler.disable()
    return result, profiler.getstats()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def breakdown(entries, events: int) -> dict[str, dict]:
    """Per-layer call counts per event, self-time shares and stream counters."""
    attribution = Attribution()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    selects = draws = refills = streams = 0
    for entry in entries:
        layer = attribution.layer(entry.code)
        calls[layer] = calls.get(layer, 0) + entry.callcount
        self_s[layer] = self_s.get(layer, 0.0) + entry.inlinetime
        name = _qualname(entry.code)
        if layer == "balancer" and name == "select_replica":
            selects += entry.callcount
        elif layer == "workload" and name == "Stream.__init__":
            streams += entry.callcount
        elif layer == "workload" and name == "Stream.uniform01":
            draws += entry.callcount
            # each refill converts one buffer with ndarray.tolist; the
            # Cython Generator.random call itself is invisible to cProfile
            for sub in entry.calls or ():
                if isinstance(sub.code, str) and "'tolist' of 'numpy.ndarray'" in sub.code:
                    refills += sub.callcount
    total_calls = sum(calls.values())
    total_self = sum(self_s.values()) or 1.0
    out = {f"{layer}.calls_per_event": _metric(calls.get(layer, 0) / events, "calls/event") for layer in CALL_LAYERS}
    out["total.calls_per_event"] = _metric(total_calls / events, "calls/event")
    out.update({f"{layer}.self_frac": _metric(self_s.get(layer, 0.0) / total_self, "ratio") for layer in TIME_LAYERS})
    out["balancer.selects_per_event"] = _metric(selects / events, "calls/event")
    out["workload.streams"] = _metric(streams, "count")
    out["workload.draws"] = _metric(draws, "count")
    out["workload.draw_use_ratio"] = _metric(draws / (refills * _BUFFER) if refills else 0.0, "ratio")
    return out
