"""Run one workload in this (fresh) interpreter and print its result as JSON.

Started by ``run.py``, never by hand:

    python3 perfbench/workload.py <workload> <seed> <seconds> <setup|measure|trace>

``setup`` only times set-up (import, input generation, warm-up).
``measure`` then runs whole cycles of operations until the timed operations
add up to ``seconds``, with no tracing installed.  ``trace`` runs a fixed,
seed-determined list of operations three times (traced, untraced, checked),
with caches reset in between, so every recorded count repeats exactly for a
given seed and length.

Times are reported at a nominal machine speed.  On a shared host the speed
of the whole machine drifts by up to ~1.8x over minutes, and the program's
times follow it.  A fixed reference kernel, which calls nothing from the
package, is timed between operations; each operation's time is scaled by
REF_NOMINAL_S over the reference time measured around it.  A change to the
package cannot change the reference, so it moves the scaled times as it
moves the raw ones.  The raw times are kept in the run record.
"""

from time import perf_counter

_T0 = perf_counter()  # set-up time includes the imports below

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Reference-kernel time that defines the nominal machine speed.
REF_NOMINAL_S = 3.0e-3
#: Op time between two speed samples.
SAMPLE_EVERY_S = 0.2


def _reference_kernel() -> float:
    """Interpreter loops and small numpy calls, like the package's hot paths.

    The second half is a sliding dot product over arrays of a few thousand
    entries, shaped like a lattice integral on a deep grid: those slow down
    more than the small calls when the host's caches are contended, and
    with them in the reference the scaled times of deep-grid operators
    follow the host less (IQR/median of op time over reference, sampled
    for 5 minutes on a 2-core shared host: 0.07 against 0.11 without).
    """
    x = np.linspace(0.1, 1.0, 400)
    acc = 0.0
    for k in range(50):
        w = np.cumprod(1.0 - 0.5 ** (x + k))
        acc += float(np.dot(w, x))
        for j in range(60):
            acc += math.log1p(j * 1e-3) * 0.5
    w, s = np.linspace(1.0, 2.0, 3000), np.linspace(0.5, 1.0, 3000)
    for m in range(0, 3000, 3):
        acc += float(np.dot(w[: 3000 - m], s[m:]))
    return acc


def _reference_time(reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        t = perf_counter()
        _reference_kernel()
        times.append(perf_counter() - t)
    return statistics.median(times)


class SpeedTimer:
    """Collects op times and samples the reference kernel between ops."""

    def __init__(self):
        self.raw: list[float] = []
        self.marks = [(0, _reference_time())]  # (ops timed before the sample, time)
        self._since = 0.0

    def add(self, dt: float) -> None:
        self.raw.append(dt)
        self._since += dt
        if self._since >= SAMPLE_EVERY_S:
            self.mark()

    def mark(self) -> None:
        self.marks.append((len(self.raw), _reference_time()))
        self._since = 0.0

    def scaled(self) -> list[float]:
        """Op times at nominal speed, each scaled by the samples around it."""
        if self.marks[-1][0] < len(self.raw):
            self.mark()
        out, j = [], 0
        for i, dt in enumerate(self.raw):
            while self.marks[j + 1][0] <= i:
                j += 1
            ref = 0.5 * (self.marks[j][1] + self.marks[j + 1][1])
            out.append(dt * REF_NOMINAL_S / ref)
        return out

    def factor(self) -> float:
        """Nominal over median reference time, for times taken as a whole."""
        return REF_NOMINAL_S / statistics.median(t for _, t in self.marks)


def _run_ops(ops, failures, timer: SpeedTimer, defects=None) -> list[str]:
    """Time each op into ``timer``; with a ``defects`` list, check it
    afterwards: a failed check goes to ``failures``, a missed claim of an op
    that passed to ``defects``.  Returns output digests."""
    digests = []
    for op in ops:
        t = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            timer.add(perf_counter() - t)
            digests.append(f"raised {type(exc).__name__}")
            failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            continue
        timer.add(perf_counter() - t)
        digests.append(op.digest(out))
        if defects is not None:
            why = op.check(out)
            if why is not None:
                failures.append(f"{op.label}: {why}")
            elif op.claim is not None and (why := op.claim(out)) is not None:
                defects.append(f"{op.label}: {why}")
    return digests


def _reset_caches():
    """Clear every functools cache in the package, as a fresh process has them."""
    for name, mod in list(sys.modules.items()):
        if name == "qfrac" or name.startswith("qfrac."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _kernel_cache_info():
    """(hits, misses) of the kernel-weight cache.

    Raises once ``qfracops._kernel_weights`` is renamed or stops being a
    ``functools`` cache: the benchmark must then be taught the new cache
    rather than report zero hits and misses.
    """
    from qfrac import qfracops

    info = qfracops._kernel_weights.cache_info()
    return info.hits, info.misses


def _rl_integral_probe(reps: int = 15) -> dict[str, float]:
    """Median time (ms, at nominal speed) of one warm rl_integral on each
    reference grid, called directly, outside any workload."""
    from qfrac import qfracops
    from qfrac.qcore import QParams
    from qfrac.qgrid import ZERO, LatticeGrid, sample
    from workloads import OPS_GRIDS

    out = {}
    for q, M in OPS_GRIDS:
        u = sample(LatticeGrid(b=1.0, depth=M, params=QParams(q)), lambda x: x)
        qfracops.rl_integral(u, ZERO, 0.75)  # builds the kernel table
        timer = SpeedTimer()
        for _ in range(reps):
            t = perf_counter()
            qfracops.rl_integral(u, ZERO, 0.75)
            timer.add(perf_counter() - t)
        out[f"q{q}_M{M}"] = statistics.median(timer.scaled()) * 1e3
    return out


def _peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    ``getrusage`` would also count the parent's resident set at the time it
    started this process, which exec folds into the child's maximum.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return int(fn())
    return None


def main(argv):
    workload_name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    import qfrac

    src = (ROOT / "src").resolve()
    if src not in Path(qfrac.__file__).resolve().parents:
        raise SystemExit(f"qfrac imported from {qfrac.__file__}, not from {src}")
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"tmp-{workload_name}-", dir=OUT))
    try:
        wl = WORKLOADS[workload_name](seed, ROOT, tmp)
        wl.warm_up()
        setup_raw = perf_counter() - _T0
        ref = _reference_time(reps=5)
        result = {"setup_s": setup_raw * REF_NOMINAL_S / ref, "setup_raw_s": setup_raw}
        if mode == "measure":
            result.update(_measure(wl, seconds))
        elif mode == "trace":
            result.update(_trace(wl, seconds))
        result["peak_rss_mb"] = _peak_rss_mb()
        result["numpy"] = np.__version__
        result["blas_threads"] = _blas_threads()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))


def _measure(wl, seconds):
    timer, failures, defects = SpeedTimer(), [], []
    while sum(timer.raw) < seconds:
        _run_ops(wl.cycle(), failures, timer, defects)
    lat = timer.scaled()
    res = {"ops": len(lat), "busy_s": sum(lat), "lat_s": lat}
    res["raw_lat_s"] = timer.raw
    res["ref_s"] = [t for _, t in timer.marks]
    res["failures"] = failures
    res["defects"] = defects
    return res


def _trace(wl, seconds):
    """Traced pass, then an untraced pass of the same ops for the overhead,
    then a checked pass for correctness and per-op times.

    The traced pass starts from the post-set-up cache state, and each later
    pass from that same state again, so counts repeat exactly.  The first two
    passes do identical untimed work (a digest) between ops, so their ratio
    is the tracing overhead alone.
    """
    from qfrac import verify
    from tracer import Tracer

    cycles = max(1, round(seconds * wl.trace_cycles_per_second))
    ops = [op for _ in range(cycles) for op in wl.cycle()]
    failures: list[str] = []
    defects: list[str] = []

    hits0, misses0 = _kernel_cache_info()
    traced = SpeedTimer()
    tracer = Tracer()
    tracer.install()
    t = perf_counter()
    try:
        traced_digests = _run_ops(ops, failures, traced)
    finally:
        traced_wall = perf_counter() - t
        tracer.uninstall()
    hits1, misses1 = _kernel_cache_info()

    _reset_caches()
    wl.warm_up()
    plain = SpeedTimer()
    plain_digests = _run_ops(ops, failures, plain)
    _reset_caches()
    wl.warm_up()
    checked = SpeedTimer()
    checked_digests = _run_ops(ops, failures, checked, defects)
    for op, a, b, c in zip(ops, checked_digests, plain_digests, traced_digests):
        if not a == b == c:
            failures.append(f"{op.label}: output differs between passes")

    tracer.write(OUT / f"spans-{wl.name}.npz")
    summary = tracer.summary()
    op_s: dict[str, list[float]] = {}
    for op, dt in zip(ops, checked.scaled()):
        op_s.setdefault(op.label.split("(", 1)[0], []).append(dt)
    return {
        "ops": len(ops),
        "cycles": cycles,
        "check_names": verify.check_names(),
        "failures": failures,
        "defects": defects,
        "traced_busy_s": sum(traced.scaled()),
        "untraced_busy_s": sum(plain.scaled()),
        "traced_wall_raw_s": traced_wall,
        "speed_factor": traced.factor(),
        "kernel_hits": hits1 - hits0,
        "kernel_misses": misses1 - misses0,
        "trace": {**summary, "counts": tracer.counts},
        "rl_integral_ms": _rl_integral_probe(),
        "op_median_s": {k: float(np.median(v)) for k, v in op_s.items()},
    }


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    main(sys.argv[1:])
