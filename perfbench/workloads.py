"""The three benchmark workloads.

Each workload is a closed loop with one caller.  Its inputs come from one
seeded ``numpy`` generator and are produced in cycles: every cycle holds the
same mix of operation kinds in the same order, and only the drawn
parameters differ between cycles, so a run's composition does not depend on
the seed.  An operation is timed on its own; its correctness check runs
after the timer stops.

* ``ops_apply`` -- ``rl_integral``, ``rl_derivative``, ``caputo_derivative``
  and ``hilfer_derivative`` on seeded power-law inputs over the three
  reference grids.  Orders come from small fixed sets, so the kernel-weight
  tables stay warm: this isolates ``qfracops`` in its hot-read regime.
* ``solve_cli`` -- seeded problem files through ``qfrac.cli.main(["solve",
  ...])``: the user's end-to-end path through ``cli``, ``solver``,
  ``problems``, ``qcore`` and ``qfracops``.  Orders are drawn continuously,
  so each solve builds its own kernel tables.
* ``verify_suite`` -- every registered check of the quick profile, one
  operation per check, each pass on the next derived seed.  Many distinct
  (q, order, depth) combinations: many kernel tables are built, and the
  load falls on ``qcore`` and ``qml`` scalars.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qfrac import cli, qfracops, verify
from qfrac.problems import make_example42
from qfrac.qcore import QParams, q_gamma, q_power_basis
from qfrac.qgrid import ZERO, LatticeGrid, LatticePoint, sample


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check``, ``claim`` and
    ``digest`` are not.

    ``check`` returns None when the output is correct and a short reason
    otherwise; ``digest`` fingerprints the output so that a traced replay can
    be compared with the untraced pass.  ``claim``, where given, tests an
    output that passed ``check`` over the whole window the operator reports
    as trusted; a miss there is a defect of that report, counted apart from
    failures.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], str]
    claim: Callable[[object], str | None] | None = None


def _blake(*parts: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part)
    return h.hexdigest()


class Balanced:
    """Seeded draws that visit every stratum once per block of draws.

    Each key keeps its own shuffled list of strata.  A continuous draw takes
    a uniform point inside the next stratum of its range, a discrete draw the
    next option.  Over whole blocks every seed covers the same parameter mix,
    so the run-to-run spread measures the program rather than a lucky draw;
    every draw still lands anywhere in its range.
    """

    def __init__(self, rng: np.random.Generator, strata: int = 4):
        self.rng = rng
        self.strata = strata
        self._queues: dict[object, list[int]] = {}

    def _next(self, key, n: int) -> int:
        queue = self._queues.get(key)
        if not queue:
            queue = self._queues[key] = [int(k) for k in self.rng.permutation(n)]
        return queue.pop()

    def uniform(self, key, lo: float, hi: float) -> float:
        k = self._next(key, self.strata)
        return lo + (k + float(self.rng.random())) / self.strata * (hi - lo)

    def choice(self, key, options):
        return options[self._next(key, len(options))]


# --------------------------------------------------------------------------
# ops_apply
# --------------------------------------------------------------------------

# The reference grids of the ROADMAP's layer timings.
OPS_GRIDS = ((0.5, 200), (0.5, 1000), (0.98, 4000))
_INT_ORDERS = (0.35, 0.75, 1.5)
_RL_ORDERS = (0.4, 0.8, 1.3)
_CAPUTO_ORDERS = (0.3, 0.6, 0.9)
_HILFER_ORDERS = ((0.8, 0.6, 0.0), (0.7, 0.4, 0.5), (0.9, 0.3, 1.0))
_ORDERS = {"int": _INT_ORDERS, "rl": _RL_ORDERS, "caputo": _CAPUTO_ORDERS,
           "hilfer": _HILFER_ORDERS}
# Input exponents, each jittered by the seed.  The exponent also sets how
# many deep samples are subnormal, which costs time, so the exponents stay
# near fixed values.
_POWERS = (0.5, 1.0, 1.6)
# Relative tolerances of the registered power identities (verify.py).
_INT_TOL = 1e-7
_DER_TOL = 1e-6


# The window helpers below and _gamma_nu_orders restate private helpers of
# verify.py, so that the benchmark keeps working when those are merged or
# renamed.


def _clean_stop(q: float, M: int, decay: float, target: float = 1e-9, lowest: int = 1) -> int:
    """Deepest index where a 0-anchored truncation tail stays below target."""
    need = math.log(1.0 / target) / (decay * math.log(1.0 / q))
    return max(int(M + 1 - need), lowest)


def _deriv_stop(q: float, M: int, decay: float, amp: float, target: float = 1e-12) -> int:
    """Window where a 0-anchored tail ~ q**((M+1-m) decay), amplified by
    q**(-m amp) through the q-derivatives, stays below target."""
    s = math.log(1.0 / target) / math.log(1.0 / q)
    return max(int(((M + 1) * decay - s) / (decay + max(amp, 0.0))), 1)


class OpsApply:
    """Stream of fractional operators on power-law inputs (see module doc)."""

    name = "ops_apply"
    trace_cycles_per_second = 2.0

    def __init__(self, seed: int, root: Path, tmp: Path):
        self.rng = np.random.default_rng([seed, 1])
        self.draw = Balanced(self.rng)
        self.grids = []
        for q, M in OPS_GRIDS:
            g = LatticeGrid(b=1.0, depth=M, params=QParams(q))
            # One lattice anchor per grid, deep enough that a lattice-anchored
            # operator sums over most of the grid.  Its ops then cost nearly
            # what 0-anchored ones do; with a shallower anchor the median op
            # time falls in the gap between the two and jumps run to run.
            m_a = round(0.85 * M)
            pools = {}
            for m in (None, m_a):
                base = 0.0 if m is None else g.point(m)
                # Anchored at 0, whether a check passes near the window's
                # edge can depend on p: one input in each quarter of p +- 0.1
                # gives every seed the same spread of exponents.  Lattice
                # anchors give exact finite sums and need one input each.
                per = self.draw.strata if m is None else 1
                pools[m] = [self._power_input(g, base, self.draw.uniform((M, m, p), p - 0.1, p + 0.1))
                            for p in _POWERS for _ in range(per)]
            self.grids.append((g, m_a, pools))
        self._expected: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    @staticmethod
    def _power_input(g: LatticeGrid, base: float, p: float):
        """(p, base, samples of the masked q-power basis (x - base)^p_q)."""
        params = g.params
        if base == 0.0:
            u = sample(g, lambda x: x**p)
        else:
            u = sample(g, lambda x: 0.0 if x < base * (1.0 - 1e-12)
                       else q_power_basis(params, x, base, p))
        return p, base, u

    def warm_up(self) -> None:
        for g, _, pools in self.grids:
            for kind, orders in _ORDERS.items():
                for order in orders:
                    self._op(g, None, pools[None][0], kind, order).run()

    def cycle(self) -> list[Op]:
        draw = self.draw
        ops = []
        for g, m_a, pools in self.grids:
            picks = [("int", m, draw.choice((g.depth, "int", m, "order"), _INT_ORDERS))
                     for m in (None, m_a)]
            for kind in ("rl", "caputo", "hilfer"):
                # anchor and order as one draw: every block of draws holds
                # each pair once, so each block has the same operations
                pairs = [(m, order) for m in (None, m_a) for order in _ORDERS[kind]]
                picks.append((kind, *draw.choice((g.depth, kind), pairs)))
            for kind, m, order in picks:
                inp = draw.choice((g.depth, kind, m), pools[m])
                ops.append(self._op(g, m, inp, kind, order))
        return ops

    def _op(self, g, m_a, inp, kind, order) -> Op:
        p, base, u = inp
        anchor = ZERO if m_a is None else LatticePoint(m_a)
        label = f"{kind}(q={g.q},M={g.depth},a={'0' if m_a is None else m_a},p={p:.4f},s={order})"
        if kind == "int":
            run = lambda: qfracops.rl_integral(u, anchor, order)
        elif kind == "rl":
            run = lambda: qfracops.rl_derivative(u, anchor, order)
        elif kind == "caputo":
            run = lambda: qfracops.caputo_derivative(u, anchor, order)
        else:
            orders = qfracops.FracOrders(*order, 1)
            run = lambda: qfracops.hilfer_derivative(u, anchor, orders)

        tol = _INT_TOL if kind == "int" else _DER_TOL

        def compare(out, whole: bool) -> str | None:
            idx, want, clean = self._expect(g, m_a, inp, kind, order, out)
            if not whole:
                if clean is None:
                    return None  # no exact window: only the claim tests this op
                idx, want = idx[:clean], want[:clean]
            if not len(idx):
                return "empty check window"
            rel = np.abs(out.values[idx] - want) / np.abs(want)
            worst = int(np.argmax(rel))
            if rel[worst] < tol:
                return None
            return f"rel err {rel[worst]:.3e} >= {tol:g} at index {idx[worst]}"

        def digest(out) -> str:
            return _blake(out.values.tobytes(), repr((out.domain_stop, out.guard)).encode())

        return Op(label, run, lambda out: compare(out, False), digest,
                  claim=lambda out: compare(out, True))

    def _expect(self, g, m_a, inp, kind, order, out):
        """Sampled indices of the trusted window, the closed-form values
        there, and how many leading indices lie inside the truncation window.

        The q-power basis maps to G_q(p+1)/G_q(p+s+1) (x - a)^(p+s)_q under
        I^s, and to G_q(p+1)/G_q(p-s+1) (x - a)^(p-s)_q under the RL and
        Caputo derivatives of order s; the two-order derivative acts with
        s = nu.

        The trusted window ends at ``out.trusted_stop``.  Anchored at 0, the
        Caputo and two-order derivatives zero their derivative stage
        D^gamma u ~ x^(p - gamma) from the stage cut on, and report that cut
        as ``trusted_stop``: the outer integral is then a 0-anchored integral
        truncated at depth cut - 1, and its truncation window is verify's
        ``_clean_stop`` for that depth and the stage's decay p - gamma + 1.
        The closed form holds to tolerance inside the truncation window;
        between it and the cut the output drops most of its value.  For a
        slowly decaying stage the window can be empty (the tail exceeds the
        target even at x = b); the count returned is then None.
        """
        key = (g.q, g.depth, m_a, id(inp), kind, order)
        hit = self._expected.get(key)
        if hit is not None:
            return hit
        p, base, _ = inp
        params, q, M = g.params, g.q, g.depth
        gamma = None  # order of a derivative stage under an outer integral
        if kind == "int":
            s, n = -order, 0
        elif kind == "hilfer":
            orders = qfracops.FracOrders(*order, 1)
            s, n = orders.nu, 1
            if orders.gamma > orders.nu:
                gamma = orders.gamma
        else:
            s, n = order, math.ceil(order)
            if kind == "caputo" and order < 1.0:
                gamma = 1.0
        if m_a is not None:
            stop = m_a - n  # exact finite sums; skip the edge values at a
        elif kind == "int":
            stop = _clean_stop(q, M, p + 1.0)
        else:
            stop = _deriv_stop(q, M, p + 1.0, n + p - s)
        stop = max(min(stop, out.trusted_stop), 1)
        clean, empty = stop, False
        if m_a is None and gamma is not None:
            clean = min(stop, _clean_stop(q, out.trusted_stop - 1, p - gamma + 1.0, lowest=0))
            empty = clean == 0
        # Deep samples, Jackson summands and stage values ~ x**(p+2) must stay
        # in double range, or the operator sees zeros where the closed form
        # does not.
        scale = p - s + 1.0 if kind == "int" else p + 2.0
        coef = q_gamma(params, p + 1.0) / q_gamma(params, p - s + 1.0)
        idx, want = [], []
        # verify's sampling of each window, plus its deepest index
        marks = {*range(0, clean, max(1, clean // 16)), max(clean - 1, 0)}
        marks |= {*range(clean, stop, max(1, (stop - clean) // 16)), stop - 1}
        for m in sorted(marks):
            if g.point(m) ** scale < 1e-290:
                continue
            value = coef * q_power_basis(params, g.point(m), base, p - s)
            if value != 0.0:
                idx.append(m)
                want.append(value)
        inside = None if empty else sum(1 for m in idx if m < clean)
        hit = self._expected[key] = (np.array(idx, dtype=int), np.array(want), inside)
        return hit


# --------------------------------------------------------------------------
# solve_cli
# --------------------------------------------------------------------------

# verify.py's q set and depths for 0-anchored comparisons.
_SOLVE_DEPTH = {0.3: 200, 0.5: 200, 0.7: 280, 0.9: 800}
# Picard and closed form must agree this closely (solver.linear-vs-picard).
_AGREE_TOL = 1e-7


def _linear_config(q, depth, orders, lam, xi, forcing) -> str:
    return (
        f"[grid]\nq = {q!r}\nb = 1.0\ndepth = {depth}\n\n"
        f"[orders]\nalpha = {orders.alpha!r}\nbeta = {orders.beta!r}\n"
        f"mu = {orders.mu!r}\nn = 1\n\n"
        f"[problem]\na = 0.0\nxi = {xi!r}\nlipschitz_a = {abs(lam)!r}\nrhs = linear\n\n"
        f"[rhs]\nlambda = {lam!r}\nforcing = {forcing}\n\n"
        "[solver]\ntol = 1e-12\nmax_iter = 600\nresidual_tol = 1e-6\nmethod = picard\n"
    )


def _sqrt_config(q, depth, anchor_exp, orders, lam, delta, seed_value) -> str:
    return (
        f"[grid]\nq = {q!r}\nb = 1.0\ndepth = {depth}\n\n"
        f"[orders]\nalpha = {orders.alpha!r}\nbeta = {orders.beta!r}\n"
        f"mu = {orders.mu!r}\nn = 1\n\n"
        f"[problem]\na = {q**anchor_exp!r}\nxi = 0.0\nlipschitz_a = 0.85\nrhs = example42\n\n"
        f"[rhs]\nlambda = {lam!r}\ndelta = {delta!r}\n\n"
        "[solver]\ntol = 1e-11\nmax_iter = 600\nresidual_tol = 1e-5\nmethod = picard\n"
        f"picard_seed = const:{seed_value!r}\n"
    )


def _gamma_nu_orders(draw: Balanced, key, nu: float) -> qfracops.FracOrders:
    """Orders with derived gamma = nu, drawn as solver.linear-vs-picard draws them."""
    F = qfracops.FracOrders
    if draw.choice((key, "mu=0"), (True, False)):
        return F(alpha=draw.uniform((key, "alpha"), nu, 1.0), beta=nu, mu=0.0, n=1)
    mu = draw.uniform((key, "mu"), 0.2, 1.0)
    if mu >= 1.0 - 1e-9 or nu >= 1.0 - 1e-9:
        return F(alpha=1.0, beta=nu, mu=1.0, n=1)
    beta = (nu - mu) / (1.0 - mu)
    if beta <= 0.0:
        return F(alpha=draw.uniform((key, "alpha"), nu, 1.0), beta=nu, mu=0.0, n=1)
    return F(alpha=1.0, beta=beta, mu=mu, n=1)


def _read_diagnostics(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text().splitlines() if "=" in line)


def _read_solution(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 1], data[:, 2]


class SolveCli:
    """Seeded problem files through ``qfrac solve`` (see module doc)."""

    name = "solve_cli"
    trace_cycles_per_second = 0.15

    def __init__(self, seed: int, root: Path, tmp: Path):
        self.draw = Balanced(np.random.default_rng([seed, 2]))
        self.tmp = tmp
        self.cycles = 0
        self.bundled = {name: root / "configs" / f"{name}.ini"
                        for name in ("linear", "example42")}
        for path in self.bundled.values():
            if not path.is_file():
                raise FileNotFoundError(f"bundled config {path} is missing")

    def warm_up(self) -> None:
        out = self.tmp / "warm"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["solve", "--config", str(self.bundled["linear"]), "--out", str(out)])

    def _linear_draw(self, q: float) -> str:
        """A linear problem inside Picard's and the closed form's admissible region."""
        draw = self.draw
        p = QParams(q)
        nu = draw.uniform((q, "nu"), 0.4, 1.0)
        orders = _gamma_nu_orders(draw, q, nu)
        lam = draw.uniform((q, "r"), 0.1, 0.9) / (1.0 - q) ** orders.nu
        # omega < 1 on the single lattice step next to b bounds |lam| as well
        step_span = q_power_basis(p, 1.0, q * q, orders.nu)
        lam = min(lam, 0.85 * q_gamma(p, orders.nu + 1.0) / step_span)
        lam *= draw.choice((q, "sign"), (1.0, -1.0))
        xi = draw.uniform((q, "xi"), -2.0, 2.0)
        forcing = draw.choice((q, "forcing"), ("zero", "const:1", "x^1"))
        return _linear_config(q, _SOLVE_DEPTH[q], orders, lam, xi, forcing)

    def _sqrt_draw(self) -> str:
        """An example42-type sqrt-rhs problem at a lattice anchor."""
        draw = self.draw
        q, depth = 0.5, 40
        anchor_exp = draw.choice("anchor", tuple(range(16, 25)))
        orders = qfracops.FracOrders(alpha=draw.uniform("alpha", 0.35, 0.45),
                                     beta=draw.uniform("beta", 0.15, 0.25),
                                     mu=draw.uniform("mu", 0.4, 0.6), n=1)
        lam = draw.uniform("lambda", 0.5, 1.5)
        delta = draw.uniform("delta", 0.1, 0.3)
        bp = make_example42(QParams(q), anchor=q**anchor_exp, lam=lam, delta=delta,
                            orders=orders)
        return _sqrt_config(q, depth, anchor_exp, orders, lam, delta, bp.seed_value)

    def cycle(self) -> list[Op]:
        self.cycles += 1
        ops = []
        for q in (0.3, 0.5, 0.7, 0.9):
            cfg = self._write(f"lin{q}", self._linear_draw(q))
            ops.append(self._op(f"linear-q{q}-picard", cfg, "picard"))
            ops.append(self._op(f"linear-q{q}-closed-form", cfg, "closed-form",
                                partner=f"linear-q{q}-picard"))
        ops.append(self._op("linear.ini", self.bundled["linear"], None))
        ops.append(self._op("example42.ini", self.bundled["example42"], None))
        for k in range(4):
            ops.append(self._op(f"sqrt{k}", self._write(f"sqrt{k}", self._sqrt_draw()), None))
        return ops

    def _write(self, slot: str, text: str) -> Path:
        # one file per cycle: a traced replay reruns earlier cycles' ops
        path = self.tmp / f"c{self.cycles}-{slot}.ini"
        path.write_text(text, encoding="utf-8")
        return path

    def _op(self, label: str, cfg: Path, method: str | None,
            partner: str | None = None) -> Op:
        text = cfg.read_text(encoding="utf-8")
        prefix = self.tmp / label
        argv = ["solve", "--config", str(cfg), "--out", str(prefix)]
        if method:
            argv += ["--method", method]
        config = cli.ProblemConfig.from_text(text)
        csv = prefix.with_suffix(".solution.csv")
        diag = prefix.with_suffix(".diagnostics.txt")

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        def check(code) -> str | None:
            if code != 0:
                return f"exit code {code}"
            resid = float(_read_diagnostics(diag)["residual_l1"])
            if not resid < config.residual_tol:
                return f"residual_l1 {resid:.3e} >= {config.residual_tol:g}"
            if partner is None:
                return None
            q = config.params.q
            x, y = _read_solution(csv)
            _, y_ref = _read_solution((self.tmp / partner).with_suffix(".solution.csv"))
            den = max(float(np.sum(x * np.abs(y))) * (1.0 - q), 1e-300)
            num = float(np.sum(x * np.abs(y - y_ref))) * (1.0 - q)
            if not num / den < _AGREE_TOL:
                return f"closed form vs Picard rel err {num / den:.3e} >= {_AGREE_TOL:g}"
            return None

        def digest(code) -> str:
            if code != 0:
                return f"exit {code}"
            return _blake(csv.read_bytes(), diag.read_bytes())

        return Op(label, run, check, digest)


# --------------------------------------------------------------------------
# verify_suite
# --------------------------------------------------------------------------


# verify reports a check that raised anything but AssertionError as
# "<ExceptionType>: <message>"; an assertion's own message never starts so.
_CRASH = re.compile(r"[A-Za-z_]\w*(Error|Exception): ")


class VerifySuite:
    """Registered checks of the quick profile, one operation per check.

    An operation's check requires the suite to deliver the check's verdict
    without a crash; its claim requires the verdict to be PASS.  Some checks
    fail on some seeds (a known operator defect, see README.md), so a FAIL
    verdict is a defect, counted in ``claims_ok_frac``, not a failed run.
    """

    name = "verify_suite"
    trace_cycles_per_second = 0.1

    def __init__(self, seed: int, root: Path, tmp: Path):
        self.rng = np.random.default_rng([seed, 3])
        self.names = verify.check_names()

    def warm_up(self) -> None:
        verify.run_checks(seed=0, pattern=self.names[0])

    def cycle(self) -> list[Op]:
        pass_seed = int(self.rng.integers(0, 2**31))
        return [self._op(name, pass_seed) for name in self.names]

    @staticmethod
    def _op(name: str, pass_seed: int) -> Op:
        def run():
            return verify.run_checks(seed=pass_seed, pattern=name)

        def check(results) -> str | None:
            if len(results) != 1 or results[0].name != name:
                return f"expected one result for {name}, got {len(results)}"
            if not results[0].passed and _CRASH.match(results[0].detail):
                return f"crashed: {results[0].detail}"
            return None

        def claim(results) -> str | None:
            return None if results[0].passed else f"FAIL: {results[0].detail}"

        def digest(results) -> str:
            return _blake(repr([(r.name, r.passed, r.detail) for r in results]).encode())

        return Op(f"{name}(seed={pass_seed})", run, check, digest, claim=claim)


WORKLOADS = {w.name: w for w in (OpsApply, SolveCli, VerifySuite)}
