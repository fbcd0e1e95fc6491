"""The names the benchmark in ``perfbench/`` looks up strictly.

The benchmark traces every public function of each module and reads some of
them, a cache and two Solution fields by name; it stops rather than report 0
when one is missing.  These tests fail first, so that a rename is caught by
the test suite instead of by a benchmark run.
"""

import inspect
import json
from pathlib import Path

from qfrac import cli, qfracops, solver, verify

ROOT = Path(__file__).resolve().parents[1]


def _is_public_function_of(mod, name):
    obj = getattr(mod, name, None)
    return (not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__)


def test_traced_functions_are_public_and_defined_in_their_module():
    for mod, names in ((solver, ("initial_term", "picard_solve", "linear_solve")),
                       (qfracops, ("rl_integral", "hilfer_derivative")),
                       (cli, ("main",))):
        for name in names:
            assert _is_public_function_of(mod, name), f"{mod.__name__}.{name}"


def test_kernel_weight_table_is_a_functools_cache():
    assert callable(qfracops._kernel_weights.cache_info)
    assert callable(qfracops._kernel_weights.cache_clear)


def test_solution_carries_the_counted_fields():
    fields = solver.Solution.__dataclass_fields__
    assert "iterations_per_interval" in fields
    assert "subinterval_boundaries" in fields


def test_check_names_match_the_benchmark_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    prefix, suffix = "verify.check.", "_s"
    listed = [m["name"][len(prefix):-len(suffix)] for m in spec["per_layer"]
              if m["name"].startswith(prefix) and m["name"].endswith(suffix)]
    assert verify.check_names() == listed
