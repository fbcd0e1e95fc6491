"""qfrac benchmark: one seeded workload per call, metrics as one JSON line.

    python3 perfbench/run.py --workload {ops_apply,solve_cli,verify_suite} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Each workload runs in a fresh interpreter (``workload.py``) with its BLAS
threads capped at the number of usable cores.

``--trace 0`` prints the end-to-end metrics (BENCHMARK.json
``end_to_end``); set-up time is the median of several fresh interpreters.
``--trace 1`` prints the per-layer metrics (``per_layer``) from a separate
traced run.  The last stdout line is the result; a run record with machine
info, seed and counts goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ops_apply", "solve_cli", "verify_suite")
# Fresh interpreters whose set-up time is measured; the measuring one is the last.
SETUP_SAMPLES = 5
# Seed kept out of tuning; a performance claim must also hold on it.
HELDOUT_SEED = 918273
DEADLINE_S = 170.0
# Units of the per-layer metrics that are not times, by last name component.
LAYER_UNITS = {"calls": "count", "hits": "count", "misses": "count", "iterations": "count",
               "blocks": "count", "series_terms": "count", "hit_ratio": "ratio",
               "overhead_frac": "ratio"}


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _child(root: Path, args, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    threads = str(_cores())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"  # fixed set and dict orders, so counts repeat
    cmd = [sys.executable, str(HERE / "workload.py"), args.workload, str(args.seed),
           repr(args.seconds), mode]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Where operation kinds of very different cost meet at
    the quantile, it moves smoothly instead of jumping between them.

    The weight of the i-th order statistic is the Beta(p(n+1), (1-p)(n+1))
    mass on ((i-1)/n, i/n], integrated with 16 midpoints per interval.
    """
    x = np.sort(values)
    n, sub = len(x), 16
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = (np.arange(n * sub) + 0.5) / (n * sub)
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, sub).sum(axis=1)
    return float(np.dot(w, x) / w.sum())


def end_to_end(setups: list[float], res: dict) -> dict:
    attempted = res["ops"]
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_s": _metric(attempted / res["busy_s"], "1/s"),
        "latency_p50_ms": _metric(quantile(res["lat_s"], 0.5) * 1e3, "ms"),
        "latency_p90_ms": _metric(quantile(res["lat_s"], 0.9) * 1e3, "ms"),
        "ok_frac": _metric(1.0 - len(res["failures"]) / attempted, "ratio"),
        "claims_ok_frac": _metric(
            1.0 - (len(res["failures"]) + len(res["defects"])) / attempted, "ratio"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
    }


def raw_summary(lat: list[float]) -> dict:
    """Unscaled op times, summarised like the scaled ones."""
    p90 = quantile(lat, 0.9)
    return {"ops": len(lat), "busy_s": sum(lat), "p50_s": quantile(lat, 0.5), "p90_s": p90,
            "beyond_p90": sum(1 for t in lat if t > p90)}


def per_layer(workload: str, res: dict) -> dict:
    """Per-layer metrics; span times are scaled to nominal speed like op times.

    Every name is looked up strictly, so a function or count that moved or
    was renamed stops the run instead of reading as 0.  A metric reads 0
    only where its layer is traced and the workload does not call it.
    """
    tr = res["trace"]
    layer, name, counts = tr["by_layer"], tr["by_name"], tr["counts"]

    def by_name(key, field):
        return name[key][field]

    hits, misses = res["kernel_hits"], res["kernel_misses"]
    out = {}
    for lay in ("qcore", "qgrid", "qml"):
        out[f"{lay}.calls"] = layer[lay]["calls"]
        out[f"{lay}.self_s"] = layer[lay]["self_s"]
    out["qfracops.rl_integral.calls"] = by_name("qfracops.rl_integral", "calls")
    out["qfracops.rl_integral.self_s"] = by_name("qfracops.rl_integral", "self_s")
    out["qfracops.hilfer_derivative.self_s"] = by_name("qfracops.hilfer_derivative", "self_s")
    out["qfracops.kernel_weights.hits"] = hits
    out["qfracops.kernel_weights.misses"] = misses
    out["qfracops.kernel_weights.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["solver.picard_solve.self_s"] = by_name("solver.picard_solve", "self_s")
    out["solver.linear_solve.self_s"] = by_name("solver.linear_solve", "self_s")
    out["solver.initial_term.self_s"] = by_name("solver.initial_term", "self_s")
    out["solver.picard.iterations"] = counts["solver.picard.iterations"]
    out["solver.picard.blocks"] = counts["solver.picard.blocks"]
    out["solver.linear.series_terms"] = counts["solver.linear.series_terms"]
    out["problems.rhs.calls"] = by_name("problems.rhs", "calls")
    out["problems.rhs.self_s"] = by_name("problems.rhs", "self_s")
    out["cli.self_s"] = layer["cli"]["self_s"]
    f = res["speed_factor"]
    out = {k: v * f if _unit(k) in ("s", "ms") else v for k, v in out.items()}
    for grid in ("q0.5_M200", "q0.5_M1000", "q0.98_M4000"):  # scaled by the probe
        out[f"qfracops.rl_integral.{grid}_ms"] = res["rl_integral_ms"][grid]
    for check in res["check_names"]:
        out[f"verify.check.{check}_s"] = (res["op_median_s"][check]
                                          if workload == "verify_suite" else 0.0)
    out["trace.overhead_frac"] = res["traced_busy_s"] / res["untraced_busy_s"] - 1.0
    return {k: _metric(v, _unit(k)) for k, v in out.items()}


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_ms"):
        return "ms"
    if last.endswith("_s"):
        return "s"
    return LAYER_UNITS[last]


def failure_kinds(failures: list[str]) -> dict[str, int]:
    """Failure (or defect) counts by operation, without the drawn exponent or
    pass seed."""
    return dict(Counter(re.split(r",p=|\(seed=|: ", line, maxsplit=1)[0] for line in failures))


def _record(args, payload: dict, res: dict, extra: dict) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "usable_cores": _cores(),
            "numpy": res.get("numpy"),
            "blas_threads": res.get("blas_threads"),
            "blas_thread_cap": _cores(),
        },
        "result": payload,
        **extra,
    }
    path = out / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qfrac" / "__init__.py").is_file():
        print(f"error: {root} holds no src/qfrac package; run from a qfrac checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            res = _child(root, args, "trace", deadline)
            metrics = per_layer(args.workload, res)
            attempted = 3 * res["ops"]
            extra = {k: res[k] for k in ("cycles", "traced_wall_raw_s", "speed_factor",
                                         "traced_busy_s", "untraced_busy_s", "op_median_s")}
            extra["trace"] = res["trace"]
        else:
            setups = [_child(root, args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            res = _child(root, args, "measure", deadline)
            setups.append(res["setup_s"])
            metrics = end_to_end(setups, res)
            attempted = res["ops"]
            p90 = metrics["latency_p90_ms"]["value"] / 1e3
            extra = {"setup_samples_s": setups, "ops": res["ops"],
                     "raw": raw_summary(res["raw_lat_s"]),
                     "ref_s": res["ref_s"], "busy_s": res["busy_s"],
                     "beyond_p90": sum(1 for t in res["lat_s"] if t > p90)}
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures, defects = res["failures"], res["defects"]
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    for kind, count in sorted(failure_kinds(defects).items()):
        print(f"DEFECT {kind}: {count} operations missed their claim", file=sys.stderr)
    payload = {"correct": not failures, "attempted": attempted, "failed": len(failures),
               "metrics": metrics}
    _record(args, payload, res, {**extra, "failures": failures,
                                 "failure_kinds": failure_kinds(failures),
                                 "defects": defects, "defect_kinds": failure_kinds(defects)})
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
