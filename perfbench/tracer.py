"""Layer tracing from outside the package.

Every public function of each ``qfrac`` module is replaced, for the length of
a traced pass, by a wrapper that records one span: name, start, end and the
span that was open when it was called.  The replacement is applied to every
name that refers to the function anywhere in the package, so calls made
through ``from .x import f`` bindings (``solver.rl_integral``,
``cli.picard_solve``, ``verify.rl_integral`` ...) are recorded too.
``CauchyProblem`` is replaced by a subclass that wraps each rhs callable it
is given, which makes the Python rhs callbacks a layer of their own
(``problems.rhs``).

Spans live in flat arrays while the pass runs; self times are derived
afterwards by subtracting, from each span, the durations of its children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

#: Package modules in layer order; each one is a layer of its own.
LAYERS = ("qcore", "qgrid", "qfracops", "qml", "solver", "problems", "verify", "cli")

def _picard_counts(sol, counts):
    counts["solver.picard.iterations"] += int(sum(sol.iterations_per_interval))
    counts["solver.picard.blocks"] += len(sol.subinterval_boundaries)


def _linear_counts(sol, counts):
    counts["solver.linear.series_terms"] += int(sol.iterations_per_interval[0])


# Functions whose results carry counts worth recording (iterations, blocks,
# series terms).  A changed Solution shape raises here rather than reading 0.
_RESULT_HOOKS = {"solver.picard_solve": _picard_counts, "solver.linear_solve": _linear_counts}


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {
            "solver.picard.iterations": 0,
            "solver.picard.blocks": 0,
            "solver.linear.series_terms": 0,
        }
        self._undo: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        nid = self._name(name)
        hook = _RESULT_HOOKS.get(name)
        stack, start, end, name_ids, parent = (self._stack, self.start, self.end,
                                               self.name_id, self.parent)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(result, self.counts)
            return result

        traced.__wrapped_original__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every public qfrac function (and CauchyProblem) to a wrapper."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "qfrac" or name.startswith("qfrac.")}
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules.get(f"qfrac.{layer}")
            if mod is None:
                raise RuntimeError(f"qfrac.{layer} is not imported; its layer cannot be traced")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    replace[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for name in _RESULT_HOOKS:
            if name not in self._ids:
                raise RuntimeError(f"{name} was not found to trace")
        solver = modules["qfrac.solver"]
        replace[id(solver.CauchyProblem)] = self._traced_problem_class(solver.CauchyProblem)
        self._name("problems.rhs")  # listed even where no rhs is called
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                new = replace.get(id(obj))
                if new is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def _traced_problem_class(self, base):
        tracer = self

        class TracedCauchyProblem(base):
            def __post_init__(self):
                rhs = self.rhs
                if getattr(rhs, "__wrapped_original__", None) is None:
                    object.__setattr__(self, "rhs", tracer.wrap("problems.rhs", rhs))
                super().__post_init__()

        TracedCauchyProblem.__name__ = base.__name__
        TracedCauchyProblem.__qualname__ = base.__qualname__
        return TracedCauchyProblem

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name_id, duration, self time) per span."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return names, dur, dur - child

    def summary(self) -> dict:
        """Per-name and per-layer call counts and self times."""
        names, dur, self_s = self.self_times()
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        selfs = np.bincount(names, weights=self_s, minlength=n)
        by_name = {nm: {"calls": int(calls[i]), "self_s": float(selfs[i])}
                   for i, nm in enumerate(self.names)}
        by_layer = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for nm, rec in by_name.items():
            layer = by_layer.setdefault(nm.split(".", 1)[0], {"calls": 0, "self_s": 0.0})
            layer["calls"] += rec["calls"]
            layer["self_s"] += rec["self_s"]
        top = float(dur[np.frombuffer(self.parent, dtype=np.int32) < 0].sum())
        return {"by_name": by_name, "by_layer": by_layer, "top_level_s": top,
                "spans": len(dur)}

    def write(self, path: Path) -> None:
        """Write the span arrays (and the name table) for offline inspection."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            names=np.array(json.dumps(self.names)),
        )
