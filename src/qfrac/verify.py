"""Registered identity and property checks runnable as one deterministic suite.

Every algebraic identity the operator stack is built on -- power-basis
integral/derivative rules, semigroup, left inverse, decomposition,
boundedness, the two-order derivative reductions and kernel annihilation,
Mittag-Leffler series certificates, the worked singular/sqrt examples and
the closed-form-vs-Picard cross checks -- lives here as a named check.
``run_checks`` executes them in registration order with per-check RNG
streams derived from one seed, so a fixed seed yields a byte-identical
report.  Checks raise AssertionError with a short detail on failure.

The ``thorough`` flag switches from the quick profile (used by the CLI
``verify`` subcommand) to the full sample counts and grid depths used by
the acceptance suite.  Deep-tail accuracy dictates deeper grids for q near
1: a Jackson sum anchored at 0 carries a relative truncation tail
~ q**((M+1-m) d) at index m for integrands ~ t**(d-1), so the q = 0.9
checks run on depth-800 grids and every 0-anchored comparison is restricted
to a window where that tail is provably below the tolerance.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DepthError, DivergenceError, NonConvergenceError
from .qcore import (
    _INT_WINDOW,
    QParams,
    q_factorial,
    q_gamma,
    q_number,
    q_pochhammer_finite,
    q_pochhammer_fractional,
    q_pochhammer_infinite,
    q_power_basis,
)
from .qfracops import (
    FracOrders,
    _integral_table,
    _integrate_stage,
    hilfer_derivative,
    rl_derivative,
    rl_integral,
)
from .qgrid import (
    ZERO,
    Anchor,
    GridFunction,
    LatticeGrid,
    LatticePoint,
    _sum_range,
    jackson_integral,
    q_derivative,
    q_derivative_n,
    roundoff_window,
    sample,
    tail_window,
)
from .qml import MLSpec, ml_bound_check, ml_eval, ml_terms
from .solver import (
    CauchyProblem,
    _lattice_power,
    as_cauchy,
    contraction_constant,
    initial_term,
    linear_solve,
    picard_solve,
    verify_equivalence,
)
from .problems import make_example41, make_example42, make_linear_problem

__all__ = ["CheckResult", "run_checks", "check_names", "render_report",
           "hilfer_derivative_raw"]

Q_SET = (0.3, 0.5, 0.7, 0.9)
# depth per q for 0-anchored operator comparisons (deep tails shrink slowly
# for q near 1)
DEPTH = {0.3: 200, 0.5: 200, 0.7: 280, 0.9: 800}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


_REGISTRY: list[tuple[str, Callable[[np.random.Generator, bool], str | None]]] = []


def _register(name: str):
    def deco(fn):
        _REGISTRY.append((name, fn))
        return fn

    return deco


def check_names() -> list[str]:
    return [name for name, _ in _REGISTRY]


def run_checks(seed: int = 0, pattern: str | None = None,
               thorough: bool = False) -> list[CheckResult]:
    """Run registered checks (optionally filtered by substring) with one seed.

    Each check draws from a stream keyed by the seed and its own name, so
    adding or reordering checks leaves the others' draws unchanged.
    """
    results = []
    for name, fn in _REGISTRY:
        if pattern and pattern not in name:
            continue
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        try:
            detail = fn(rng, thorough)
            results.append(CheckResult(name, True, detail or ""))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc)))
        except Exception as exc:  # a crash is a failed check, not a crashed suite
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results


def render_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        if r.passed:
            lines.append(f"PASS {r.name}" + (f" ({r.detail})" if r.detail else ""))
        else:
            lines.append(f"FAIL {r.name}: {r.detail}")
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - n_fail}/{len(results)} checks passed"
        + (f", {n_fail} FAILED" if n_fail else "")
    )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _grid(q: float, depth: int | None = None) -> LatticeGrid:
    return LatticeGrid(b=1.0, depth=depth or DEPTH[q], params=QParams(q))


def _anchors(g: LatticeGrid, m: int):
    """(m_a, anchor, base) for the origin and for lattice index m."""
    yield None, ZERO, 0.0
    yield m, LatticePoint(m), g.point(m)


def _rel_l1(gap: np.ndarray, ref: np.ndarray, g: LatticeGrid, stop: int) -> float:
    """L^1_q norm of gap over indices [0, stop), relative to that of ref."""
    den = _sum_range(g, np.abs(ref), 0, stop)
    return _sum_range(g, np.abs(gap), 0, stop) / max(den, 1e-300)


def _rate_violation(sol, floor: float) -> tuple[float, float] | None:
    """First (rate, omega) where Picard increments above floor shrink slower than omega + 0.05."""
    for omega, diffs in zip(sol.omega_per_interval, sol.diff_norms_per_interval):
        for j in range(1, len(diffs) - 1):
            if (diffs[j] > floor and diffs[j + 1] > floor
                    and diffs[j + 1] > (omega + 0.05) * diffs[j]):
                return diffs[j + 1] / diffs[j], omega
    return None


# --------------------------------------------------------------------------
# scalar special functions
# --------------------------------------------------------------------------


@_register("qcore.gamma-recurrence")
def _chk_gamma_recurrence(rng, thorough):
    count = 100 if thorough else 25
    worst = 0.0
    for q in Q_SET:
        p = QParams(q)
        for x in rng.uniform(0.1, 10.0, size=count):
            lhs = q_gamma(p, x + 1.0)
            rhs = q_number(p, x) * q_gamma(p, x)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst < 1e-10, f"recurrence relative error {worst:.3e} >= 1e-10"
    return f"max rel err {worst:.2e}"


@_register("qcore.pochhammer-integer-consistency")
def _chk_poch_integer(rng, thorough):
    worst = 0.0
    for q in Q_SET:
        p = QParams(q)
        for a in (-0.5, 0.3, 0.9):
            for n in range(0, 11):
                frac = q_pochhammer_fractional(p, a, float(n))
                fin = q_pochhammer_finite(p, a, n)
                worst = max(worst, abs(frac - fin) / max(abs(fin), 1e-300))
    assert worst < 4 * 1e-15, f"integer-order mismatch {worst:.3e} >= 4*eps_product"
    return f"max rel err {worst:.2e}"


@_register("qcore.gamma-factorial")
def _chk_gamma_factorial(rng, thorough):
    worst = 0.0
    for q in Q_SET:
        p = QParams(q)
        for n in range(0, 11):
            lhs = q_gamma(p, n + 1.0)
            rhs = q_factorial(p, n)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst < 1e-10, f"gamma/factorial mismatch {worst:.3e}"
    return f"max rel err {worst:.2e}"


@_register("qcore.pochhammer-splitting")
def _chk_poch_splitting(rng, thorough):
    count = 60 if thorough else 20
    worst = 0.0
    for q in Q_SET:
        p = QParams(q)
        for _ in range(count):
            al = rng.uniform(0.0, 3.0)
            be = rng.uniform(0.0, 3.0)
            a = rng.uniform(-0.9, 0.9)
            lhs = q_pochhammer_fractional(p, a, al + be)
            rhs = q_pochhammer_fractional(p, a, al) * q_pochhammer_fractional(
                p, p.q**al * a, be
            )
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    assert worst < 1e-10, f"splitting law relative error {worst:.3e}"
    return f"max rel err {worst:.2e}"


@_register("qcore.classical-limit-gamma")
def _chk_classical_gamma(rng, thorough):
    p = QParams(0.9999, eps_product=1e-9, max_terms=2_000_000)
    worst = 0.0
    for x in (1.5, 2.5, 3.5):
        rel = abs(q_gamma(p, x) - math.gamma(x)) / math.gamma(x)
        worst = max(worst, rel)
    assert worst < 1e-2, f"classical gamma limit off by {worst:.3e}"
    return f"max rel dev {worst:.2e}"


# --------------------------------------------------------------------------
# lattice calculus
# --------------------------------------------------------------------------


@_register("qgrid.derivative-exactness")
def _chk_derivative_exact(rng, thorough):
    worst = 0.0
    for q in (0.3, 0.5, 0.7, 0.9):
        g = LatticeGrid(b=1.5, depth=60, params=QParams(q))
        for n in range(0, 6):
            u = sample(g, lambda t, n=n: t**n)
            d = q_derivative(u)
            expect = q_number(g.params, n) * g.points ** (n - 1) if n else np.zeros(61)
            err = np.abs(d.values[:60] - expect[:60])
            scale = np.maximum(np.abs(expect[:60]), 1e-300)
            worst = max(worst, float(np.max(err / scale)) if n else float(np.max(err)))
    assert worst < 1e-12, f"monomial derivative error {worst:.3e}"
    return f"max rel err {worst:.2e}"


@_register("qgrid.integral-linearity")
def _chk_linearity(rng, thorough):
    g = _grid(0.5, 200)
    u = GridFunction(g, rng.standard_normal(201))
    v = GridFunction(g, rng.standard_normal(201))
    al, be = rng.uniform(-2, 2, size=2)
    combo = GridFunction(g, al * u.values + be * v.values)
    top = LatticePoint(0)
    lhs = jackson_integral(combo, ZERO, top, warn=False)
    rhs = al * jackson_integral(u, ZERO, top, warn=False) + be * jackson_integral(
        v, ZERO, top, warn=False
    )
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    assert rel < 1e-12, f"linearity violated: rel {rel:.3e}"
    return f"rel err {rel:.2e}"


@_register("qgrid.integral-additivity")
def _chk_additivity(rng, thorough):
    g = _grid(0.7, 280)
    u = GridFunction(g, rng.standard_normal(281))
    a, b, c = LatticePoint(20), LatticePoint(9), LatticePoint(2)
    whole = jackson_integral(u, a, c)
    split = jackson_integral(u, a, b) + jackson_integral(u, b, c)
    rel = abs(whole - split) / max(abs(whole), 1e-300)
    assert rel < 1e-12, f"additivity violated: rel {rel:.3e}"
    return f"rel err {rel:.2e}"


@_register("qgrid.fundamental-theorem")
def _chk_ftc(rng, thorough):
    worst = 0.0
    for q in (0.5, 0.9):
        g = LatticeGrid(b=1.0, depth=200, params=QParams(q))
        for n in range(1, 6):
            u = sample(g, lambda t, n=n: t**n)
            got = jackson_integral(q_derivative(u), ZERO, LatticePoint(0), warn=False)
            worst = max(worst, abs(got - 1.0))
    assert worst < 1e-9, f"fundamental theorem off by {worst:.3e}"
    return f"max abs err {worst:.2e}"


@_register("qgrid.truncation-monotonicity")
def _chk_trunc_monotone(rng, thorough):
    p = QParams(0.8)
    vals = []
    for depth in (8, 16, 50, 100, 200):
        g = LatticeGrid(b=1.0, depth=depth, params=p)
        u = sample(g, lambda t: 1.0 / (1.0 + t))
        vals.append(jackson_integral(u, ZERO, LatticePoint(0), warn=False))
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-15), f"integral not monotone in depth: {vals}"
    return f"values {vals[0]:.6f} -> {vals[-1]:.6f}"


# --------------------------------------------------------------------------
# fractional operators: power-basis identities
# --------------------------------------------------------------------------


def _identity_draws(rng, thorough):
    count = 20 if thorough else 5
    draws = []
    for _ in range(count):
        draws.append((float(rng.uniform(0.02, 2.0)), float(rng.uniform(-0.5, 3.0))))
    return draws


@_register("qfracops.integral-power-identity")
def _chk_integral_identity(rng, thorough):
    worst = 0.0
    checked = 0
    for q in Q_SET:
        g = _grid(q)
        p = g.params
        for alpha, lam in _identity_draws(rng, thorough):
            for m_a, anchor, base in _anchors(g, 4):
                u = GridFunction(g, _lattice_power(g, m_a, lam))
                got = rl_integral(u, anchor, alpha)
                coef = q_gamma(p, lam + 1.0) / q_gamma(p, alpha + lam + 1.0)
                if m_a is None:
                    stop = tail_window(q, g.depth, lam + 1.0, 0.0, target=1e-9)
                else:
                    stop = m_a  # exact finite sums; skip the empty value at a
                for m in range(0, stop, max(1, stop // 16)):
                    # the deepest Jackson summand has magnitude ~ x**(lam+alpha+1);
                    # once that leaves double range the index is untestable
                    if g.point(m) ** (lam + alpha + 1.0) < 1e-290:
                        continue
                    exact = coef * q_power_basis(p, g.point(m), base, alpha + lam)
                    if exact == 0.0:
                        continue
                    worst = max(worst, abs(got.values[m] - exact) / abs(exact))
                    checked += 1
    assert worst < 1e-7, f"integral power identity rel err {worst:.3e} >= 1e-7"
    return f"max rel err {worst:.2e} over {checked} points"


@_register("qfracops.derivative-power-identity")
def _chk_derivative_identity(rng, thorough):
    count = 20 if thorough else 5
    worst = 0.0
    for q in Q_SET:
        g = _grid(q)
        p = g.params
        for _ in range(count):
            lam = float(rng.uniform(0.0, 3.0))
            alpha = float(rng.uniform(0.02, min(lam, 2.0))) if lam > 0.04 else 0.02
            n = math.ceil(alpha)
            for m_a, anchor, base in _anchors(g, 4):
                u = GridFunction(g, _lattice_power(g, m_a, lam))
                got = rl_derivative(u, anchor, alpha)
                coef = q_gamma(p, lam + 1.0) / q_gamma(p, lam + 1.0 - alpha)
                if m_a is None:
                    stop = tail_window(q, g.depth, lam + 1.0, n + lam - alpha)
                else:
                    stop = m_a - n
                for m in range(0, max(stop, 1), max(1, stop // 16)):
                    exact = coef * q_power_basis(p, g.point(m), base, lam - alpha)
                    if exact == 0.0:
                        continue
                    worst = max(worst, abs(got.values[m] - exact) / abs(exact))
    assert worst < 1e-6, f"derivative power identity rel err {worst:.3e} >= 1e-6"
    return f"max rel err {worst:.2e}"


@_register("qfracops.derivative-annihilation")
def _chk_annihilation(rng, thorough):
    count = 12 if thorough else 4
    worst = 0.0
    for q in Q_SET:
        g = _grid(q)
        for _ in range(count):
            lam = float(rng.uniform(-0.5, 1.0))
            k = int(rng.integers(1, 3))
            alpha = lam + k  # integer offset: the annihilated family
            if alpha <= 0.02 or alpha > 2.0:
                continue
            n = math.ceil(alpha)
            for m_a, anchor, _ in _anchors(g, 4):
                u = GridFunction(g, _lattice_power(g, m_a, lam))
                got = rl_derivative(u, anchor, alpha)
                stop = (m_a - n) if m_a is not None else min(
                    tail_window(q, g.depth, lam + 1.0, alpha - lam),
                    roundoff_window(q, alpha - lam, n, 1e-11),
                )
                if stop > 0:
                    worst = max(worst, float(np.max(np.abs(got.values[:stop]))))
    assert worst < 1e-8, f"annihilation residual {worst:.3e} >= 1e-8"
    return f"max abs {worst:.2e}"


# --------------------------------------------------------------------------
# fractional operators: composition laws
# --------------------------------------------------------------------------

_FAMILY = (lambda x: 1.0, lambda x: x, lambda x: x * x)


def _composition_law(rng, thorough, label: str, draw) -> str:
    """Worst relative L^1_q gap between two compositions applied to _FAMILY.

    ``draw(rng)`` returns ``(lhs, rhs, n, decay, target)``: the compositions
    as functions of (u, anchor), the number of edge indices the lattice
    anchor's window drops, and the decay and target of the origin's tail
    window.
    """
    count = 6 if thorough else 2
    worst = 0.0
    for q in Q_SET:
        g = _grid(q)
        family = [sample(g, f) for f in _FAMILY]
        for _ in range(count):
            lhs, rhs, n, decay, target = draw(rng)
            for m_a, anchor, _ in _anchors(g, 6):
                stop = (m_a - n if m_a is not None
                        else tail_window(q, g.depth, min(decay, 1.0), 0.0, target=target))
                for u in family:
                    one, two = lhs(u, anchor).values, rhs(u, anchor).values
                    worst = max(worst, _rel_l1(one - two, two, g, stop))
    assert worst < 1e-7, f"{label} rel err {worst:.3e} >= 1e-7"
    return f"max rel err {worst:.2e}"


@_register("qfracops.semigroup")
def _chk_semigroup(rng, thorough):
    def draw(rng):
        al = float(rng.uniform(0.05, 2.0))
        be = float(rng.uniform(0.05, 2.0))
        return (lambda u, a: rl_integral(rl_integral(u, a, be), a, al),
                lambda u, a: rl_integral(u, a, al + be), 0, be, 1e-10)

    return _composition_law(rng, thorough, "semigroup", draw)


@_register("qfracops.left-inverse")
def _chk_left_inverse(rng, thorough):
    def draw(rng):
        al = float(rng.uniform(0.05, 2.0))
        return (lambda u, a: rl_derivative(rl_integral(u, a, al), a, al),
                lambda u, a: u, math.ceil(al), al, 1e-11)

    return _composition_law(rng, thorough, "left inverse", draw)


@_register("qfracops.reduced-derivative")
def _chk_reduced_derivative(rng, thorough):
    def draw(rng):
        be = float(rng.uniform(0.05, 1.6))
        al = float(rng.uniform(be + 0.1, be + 0.4))
        return (lambda u, a: rl_derivative(rl_integral(u, a, al), a, be),
                lambda u, a: rl_integral(u, a, al - be), math.ceil(be), al - be, 1e-11)

    return _composition_law(rng, thorough, "reduced derivative", draw)


@_register("qfracops.decomposition")
def _chk_decomposition(rng, thorough):
    count = 6 if thorough else 2
    worst = 0.0
    for q in Q_SET:
        g = _grid(q)
        for _ in range(count):
            al = float(rng.uniform(0.1, 1.8))
            lam = float(rng.uniform(al + 0.1, al + 1.5))
            n = math.ceil(al)
            m_a = 6
            anchor = LatticePoint(m_a)
            u = GridFunction(g, _lattice_power(g, m_a, lam))
            recon = rl_integral(rl_derivative(u, anchor, al), anchor, al)
            # boundary terms of the decomposition: D^(al-k) u at a; asserted
            # numerically rather than assumed to vanish
            boundary = 0.0
            for k in range(1, n + 1):
                if al - k > _INT_WINDOW:
                    dk = rl_derivative(u, anchor, al - k)
                    boundary = max(boundary, abs(float(dk.values[m_a])))
                elif abs(al - k) <= _INT_WINDOW:
                    boundary = max(boundary, abs(float(u.values[m_a])))
                else:
                    ik = rl_integral(u, anchor, k - al)
                    boundary = max(boundary, abs(float(ik.values[m_a])))
            assert boundary < 1e-8, f"boundary terms not negligible: {boundary:.3e}"
            worst = max(worst, _sum_range(g, np.abs(recon.values - u.values), 0, m_a - n))
    assert worst < 1e-6, f"decomposition residual {worst:.3e} >= 1e-6"
    return f"max L1 residual {worst:.2e}"


@_register("qfracops.boundedness")
def _chk_boundedness(rng, thorough):
    count = 13 if thorough else 3  # times 4 q values and 2 anchors
    worst = 0.0
    for q in Q_SET:
        g = _grid(q, 200)
        p = g.params
        for _ in range(count):
            al = float(rng.uniform(0.1, 2.0))
            m_a = int(rng.integers(0, 2)) * 6  # 0 -> origin anchor
            anchor: Anchor = ZERO if m_a == 0 else LatticePoint(m_a)
            a_val = 0.0 if m_a == 0 else g.point(m_a)
            u = GridFunction(g, rng.uniform(0.0, 1.0, size=g.depth + 1))
            out = rl_integral(u, anchor, al)
            K = q_power_basis(p, g.b, p.q * a_val, al) / q_gamma(p, al + 1.0)
            stop = g.depth + 1 if m_a == 0 else m_a
            lhs = _sum_range(g, np.abs(out.values), 0, stop)
            rhs = K * _sum_range(g, np.abs(u.values), 0, stop)
            worst = max(worst, lhs / rhs)
    assert worst <= 1.0 + 1e-9, f"boundedness constant exceeded: ratio {worst:.12f}"
    return f"max ratio {worst:.6f}"


# --------------------------------------------------------------------------
# two-order derivative
# --------------------------------------------------------------------------


def _reduction_family(g, m_a):
    return [
        sample(g, lambda x: 1.0),
        sample(g, lambda x: x),
        sample(g, lambda x: x**1.5),
        GridFunction(g, _lattice_power(g, m_a, 1.25)),
    ]


def _reduction(rng, label: str, draw) -> str:
    """Worst relative L^1_q gap between hilfer_derivative and the derivative it reduces to.

    ``draw(rng)`` returns the orders and the reference derivative as a
    function of (u, anchor).
    """
    worst = 0.0
    for q in Q_SET:
        g = _grid(q)
        ords, reference = draw(rng)
        for m_a, anchor, _ in _anchors(g, 6):
            stop = (m_a - 1 if m_a is not None
                    else tail_window(q, g.depth, 1.0, 0.0, target=1e-11))
            for u in _reduction_family(g, m_a):
                h, d = hilfer_derivative(u, anchor, ords).values, reference(u, anchor).values
                worst = max(worst, _rel_l1(h - d, d, g, stop))
    assert worst < 1e-7, f"{label} reduction rel err {worst:.3e} >= 1e-7"
    return f"max rel err {worst:.2e}"


@_register("qfracops.hilfer-reduces-to-rl")
def _chk_hilfer_rl(rng, thorough):
    def draw(rng):
        beta = float(rng.uniform(0.1, 1.0))
        alpha = float(rng.uniform(beta, 1.0))
        return (FracOrders(alpha=alpha, beta=beta, mu=0.0, n=1),
                lambda u, a: rl_derivative(u, a, beta))

    return _reduction(rng, "mu=0", draw)


@_register("qfracops.hilfer-reduces-to-caputo")
def _chk_hilfer_caputo(rng, thorough):
    # the reference is the definition I^(1-alpha) D_q: caputo_derivative is itself
    # hilfer_derivative at mu = 1, so it would compare the operator with itself
    def draw(rng):
        alpha = float(rng.uniform(0.1, 1.0))
        beta = float(rng.uniform(0.1, alpha))
        return (FracOrders(alpha=alpha, beta=beta, mu=1.0, n=1),
                lambda u, a: rl_integral(q_derivative(u), a, 1.0 - alpha))

    return _reduction(rng, "mu=1", draw)


def hilfer_derivative_raw(u: GridFunction, a: Anchor, orders: FracOrders) -> GridFunction:
    """Reference three-factor composition I^(mu(n-alpha)) D_q^n I^((1-mu)(n-beta)).

    The cross-checking oracle for the production path
    :func:`qfrac.qfracops.hilfer_derivative`; zero-order integrals
    short-circuit to the identity and the derivative stage is sanitized the
    same way.
    """
    if u.grid.depth < orders.n + 1:
        raise DepthError(f"orders with n={orders.n} need grid depth >= {orders.n + 1}")
    inner = (1.0 - orders.mu) * (orders.n - orders.beta)
    outer = orders.mu * (orders.n - orders.alpha)
    v = u if inner < _INT_WINDOW else rl_integral(u, a, inner)
    return _integrate_stage(q_derivative_n(v, orders.n), u, a, orders, outer)


@_register("qfracops.hilfer-raw-agreement")
def _chk_hilfer_raw(rng, thorough):
    worst = 0.0
    for q in (0.5, 0.9):
        g = _grid(q)
        for n in (1, 2):
            alpha = float(rng.uniform(n - 1 + 0.1, n))
            beta = float(rng.uniform(n - 1 + 0.1, n))
            mu = float(rng.uniform(0.0, 1.0))
            ords = FracOrders(alpha=alpha, beta=beta, mu=mu, n=n)
            for u in _reduction_family(g, 6):
                a_form = hilfer_derivative(u, LatticePoint(6), ords).values
                b_form = hilfer_derivative_raw(u, LatticePoint(6), ords).values
                worst = max(worst, _rel_l1(a_form - b_form, a_form, g, 6 - n))
    assert worst < 1e-7, f"raw/composed disagreement {worst:.3e} >= 1e-7"
    return f"max rel err {worst:.2e}"


@_register("qfracops.hilfer-kernel-annihilation")
def _chk_kernel_annihilation(rng, thorough):
    # The k = n member of the family has an inner integral that is constant
    # with a jump at a lattice anchor; the true lattice composition keeps
    # that boundary term, so the clean annihilation statement is exercised
    # at the origin anchor for every k and at lattice anchors for k < n.
    worst = 0.0
    for q in Q_SET:
        g = _grid(q)
        for n in (1, 2):
            alpha = float(rng.uniform(n - 1 + 0.15, n))
            beta = float(rng.uniform(n - 1 + 0.15, n))
            mu = float(rng.uniform(0.0, 1.0))
            ords = FracOrders(alpha=alpha, beta=beta, mu=mu, n=n)
            gamma = ords.gamma
            for m_a, anchor, _ in _anchors(g, 6):
                k_max = n if m_a is None else n - 1
                for k in range(1, k_max + 1):
                    u = GridFunction(g, _lattice_power(g, m_a, gamma - k))
                    h = hilfer_derivative(u, anchor, ords)
                    stop = ((m_a - n) if m_a is not None
                            else min(tail_window(q, g.depth, gamma - n + 1.0, k),
                                     roundoff_window(q, k, n, 1e-11), h.trusted_stop))
                    if stop > 0:
                        worst = max(worst, float(np.max(np.abs(h.values[:stop]))))
    assert worst < 1e-7, f"kernel annihilation residual {worst:.3e} >= 1e-7"
    return f"max abs {worst:.2e}"


@_register("qfracops.hilfer-linearity")
def _chk_hilfer_linearity(rng, thorough):
    g = _grid(0.5)
    ords = FracOrders(alpha=0.8, beta=0.4, mu=0.6, n=1)
    anchor = LatticePoint(5)
    u = GridFunction(g, rng.standard_normal(g.depth + 1))
    v = GridFunction(g, rng.standard_normal(g.depth + 1))
    al, be = 1.3, -0.7
    combo = GridFunction(g, al * u.values + be * v.values)
    lhs = hilfer_derivative(combo, anchor, ords)
    rhs = al * hilfer_derivative(u, anchor, ords).values + be * hilfer_derivative(
        v, anchor, ords
    ).values
    rel = _rel_l1(lhs.values - rhs, rhs, g, 4)
    assert rel < 1e-9, f"linearity rel err {rel:.3e} >= 1e-9"
    return f"rel err {rel:.2e}"


# --------------------------------------------------------------------------
# q-Mittag-Leffler
# --------------------------------------------------------------------------


def _ml_oracle(spec: MLSpec, x: float, a: float,
               n_terms: int = 500) -> tuple[float, float]:
    """Independent brute-force partial sum from arrays of direct products.

    The G_q and (c; q)_(k alpha) factors of all terms (c = a/x, 0 <= a < x,
    so every factor is positive) are fresh direct products from
    :func:`qfrac.qcore.q_pochhammer_infinite`, one array each, combined in log
    magnitude; nothing is shared with ``qml``'s ratio recurrence or with the
    log-space product kernel.  Returns (sum, sum of |terms|); the latter is
    the conditioning scale of the alternating series.
    """
    p = spec.params
    k = np.arange(n_terms if spec.lam else 1)
    y = spec.alpha * k + spec.beta
    log_gamma = (math.log(q_pochhammer_infinite(p, p.q)) - np.log(q_pochhammer_infinite(p, p.q**y))
                 + (1.0 - y) * math.log(1.0 - p.q))
    shifted = q_pochhammer_infinite(p, a / x * p.q ** (spec.alpha * k))  # (c q**(k alpha); q)_inf
    mag = np.log(shifted[0] / shifted) - log_gamma
    if spec.lam:
        mag += k * (math.log(abs(spec.lam)) + spec.alpha * math.log(x))
    terms = (-1.0 if spec.lam < 0.0 else 1.0) ** k * np.exp(mag)
    return float(terms.sum()), float(np.abs(terms).sum())


@_register("qml.series-oracle")
def _chk_ml_oracle(rng, thorough):
    count = 50 if thorough else 12
    worst = 0.0
    for _ in range(count):
        q = float(rng.choice(Q_SET))
        p = QParams(q)
        alpha = float(rng.uniform(0.2, 2.0))
        beta = float(rng.uniform(0.2, 2.0))
        x = float(rng.uniform(0.2, 1.0))
        # draw lam with certificate ratio in (0, 0.9)
        r = float(rng.uniform(0.05, 0.9))
        lam = (r / (x**alpha * (1.0 - q) ** alpha)) * (1 if rng.random() < 0.5 else -1)
        a = 0.0 if rng.random() < 0.5 else x * q ** int(rng.integers(1, 6))
        spec = MLSpec(alpha=alpha, beta=beta, lam=lam, params=p)
        got = ml_eval(spec, x, a)
        want, scale = _ml_oracle(spec, x, a)
        # alternating draws can cancel to |sum| << sum|terms|; double
        # precision bounds any method's error by ~eps * sum|terms|, so the
        # comparison scale keeps a floor at 1e-2 of the conditioning scale
        denom = max(abs(want), 1e-2 * scale, 1e-300)
        worst = max(worst, abs(got - want) / denom)
    assert worst < 1e-10, f"series oracle rel err {worst:.3e} >= 1e-10"
    return f"max rel err {worst:.2e}"


@_register("qml.divergence-boundary")
def _chk_ml_divergence(rng, thorough):
    p = QParams(0.5)
    x = 1.0
    for r, should_raise in ((0.999999, False), (1.0, True), (1.5, True)):
        lam = r / (x**0.8 * (1.0 - p.q) ** 0.8)
        spec = MLSpec(alpha=0.8, beta=0.7, lam=lam, params=p)
        try:
            ml_eval(spec, x, 0.0)
            raised = False
        except NonConvergenceError:  # inside the region, beyond max_terms
            raised = False
        except DivergenceError:
            raised = True
        assert raised == should_raise, f"ratio {r}: raised={raised}, expected {should_raise}"
    r = ml_bound_check(MLSpec(1.0, 1.0, 3.0, p), 1.0)
    assert abs(r - 1.5) < 1e-14, f"bound ratio {r} != 1.5"
    return "boundary behaviour exact"


@_register("qml.term-ratio-bound")
def _chk_ml_term_ratio(rng, thorough):
    count = 100 if thorough else 25
    worst = 0.0
    for _ in range(count):
        q = float(rng.choice(Q_SET))
        p = QParams(q)
        alpha = float(rng.uniform(0.2, 2.0))
        beta = float(rng.uniform(0.2, 2.0))
        x = float(rng.uniform(0.2, 1.0))
        r = float(rng.uniform(0.05, 0.85))
        lam = r / (x**alpha * (1.0 - q) ** alpha)
        a = 0.0 if rng.random() < 0.5 else x * q ** int(rng.integers(1, 5))
        spec = MLSpec(alpha=alpha, beta=beta, lam=lam, params=p)
        _, terms = ml_terms(spec, x, a)
        # G_q(y_k) / G_q(y_k + alpha) (1-q)**(-alpha) over y_k = alpha k + beta, as
        # direct products: (q**(y_k + alpha); q)_inf / (q**y_k; q)_inf
        y = alpha * np.arange(len(terms)) + beta
        cap = float(np.max(q_pochhammer_infinite(p, q ** (y + alpha))
                           / q_pochhammer_infinite(p, q**y)))
        for k in range(len(terms) - 1):
            if abs(terms[k]) > 1e-290:
                ratio = abs(terms[k + 1] / terms[k])
                worst = max(worst, ratio / (r * cap))
    assert worst <= 1.0 + 1e-12, f"term ratio exceeded r*C: factor {worst:.6f}"
    return f"max ratio/(r*C) {worst:.4f}"


@_register("qml.truncation-certificate")
def _chk_ml_truncation(rng, thorough):
    count = 20 if thorough else 8
    worst = 0.0
    for _ in range(count):
        q = float(rng.choice((0.3, 0.5, 0.7)))
        alpha = float(rng.uniform(0.3, 1.5))
        beta = float(rng.uniform(0.3, 1.5))
        x = float(rng.uniform(0.3, 1.0))
        r = float(rng.uniform(0.1, 0.8))
        lam = r / (x**alpha * (1.0 - q) ** alpha)
        base = QParams(q)
        tight = QParams(q, eps_series=base.eps_series / 10.0)
        v1 = ml_eval(MLSpec(alpha, beta, lam, base), x, 0.0)
        v2 = ml_eval(MLSpec(alpha, beta, lam, tight), x, 0.0)
        worst = max(worst, abs(v1 - v2) / max(abs(v2), 1e-300))
    assert worst < 10 * 1e-12, f"restart shift {worst:.3e} >= 10*eps_series"
    return f"max shift {worst:.2e}"


@_register("qml.monotone-lambda")
def _chk_ml_monotone(rng, thorough):
    p = QParams(0.5)
    x = 0.9
    alpha, beta = 0.7, 0.9
    lam_max = 0.95 / (x**alpha * (1.0 - p.q) ** alpha)
    lams = np.linspace(0.0, lam_max, 12)
    vals = [ml_eval(MLSpec(alpha, beta, float(l), p), x, 0.0) for l in lams]
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-14), "series not nondecreasing in lam >= 0"
    return f"range {vals[0]:.6f} -> {vals[-1]:.6f}"


# --------------------------------------------------------------------------
# solver
# --------------------------------------------------------------------------


def _gamma_nu_orders(rng, nu: float) -> FracOrders:
    """Random orders with derived nu as given and gamma = nu (mu=0 or alpha=n)."""
    if rng.random() < 0.5:
        return FracOrders(alpha=float(rng.uniform(nu, 1.0)), beta=nu, mu=0.0, n=1)
    mu = float(rng.uniform(0.2, 1.0))
    # alpha = n = 1: nu = beta + mu(1-beta) -> beta = (nu - mu)/(1 - mu)
    if mu >= 1.0 - 1e-9 or nu >= 1.0 - 1e-9:
        return FracOrders(alpha=1.0, beta=nu, mu=1.0, n=1)
    beta = (nu - mu) / (1.0 - mu)
    if beta <= 0.0:
        return FracOrders(alpha=float(rng.uniform(nu, 1.0)), beta=nu, mu=0.0, n=1)
    return FracOrders(alpha=1.0, beta=beta, mu=mu, n=1)


@_register("solver.initial-term")
def _chk_initial_term(rng, thorough):
    p = QParams(0.5)
    g = LatticeGrid(b=1.0, depth=120, params=p)
    ords = FracOrders(alpha=0.9, beta=0.6, mu=0.5, n=1)  # gamma = 0.75
    prob_zero = CauchyProblem(
        orders=ords, a=0.0, b=1.0, rhs=lambda x, y: 0.0, xi=(0.0,),
        lipschitz_A=1.0, params=p,
    )
    y = initial_term(prob_zero, g)
    assert float(np.max(np.abs(y.values))) == 0.0, "zero data must give the zero function"

    c = 1.7
    prob = CauchyProblem(
        orders=ords, a=0.0, b=1.0, rhs=lambda x, y: 0.0, xi=(c,),
        lipschitz_A=1.0, params=p,
    )
    y = initial_term(prob, g)
    gamma = ords.gamma
    expect = c * g.points ** (gamma - 1.0) / q_gamma(p, gamma)
    rel = float(np.max(np.abs(y.values - expect) / np.abs(expect)))
    assert rel < 1e-10, f"origin-anchored initial term rel err {rel:.3e}"

    m_a = 4
    ords2 = FracOrders(alpha=1.0, beta=0.5, mu=0.5, n=1)  # gamma = 0.75
    prob2 = CauchyProblem(
        orders=ords2, a=g.point(m_a), b=1.0, rhs=lambda x, y: 0.0, xi=(1.0,),
        lipschitz_A=1.0, params=p,
    )
    y2 = initial_term(prob2, g)
    worst = 0.0
    for m in range(m_a + 1):
        expect2 = q_power_basis(p, g.point(m), g.point(m_a), ords2.gamma - 1.0) / q_gamma(
            p, ords2.gamma
        )
        worst = max(worst, abs(y2.values[m] - expect2))
    assert worst < 1e-10, f"lattice-anchored initial term abs err {worst:.3e}"
    return "pointwise oracle agreement"


@_register("solver.contraction-constant")
def _chk_contraction(rng, thorough):
    p = QParams(0.5)
    ords = FracOrders(alpha=1.0, beta=1.0, mu=0.0, n=1)  # nu = 1
    prob = CauchyProblem(orders=ords, a=0.0, b=1.0, rhs=lambda x, y: y, xi=(0.0,),
                         lipschitz_A=1.0, params=p)
    w1 = contraction_constant(prob, 0.0, 1.0)
    assert abs(w1 - 1.0) < 1e-12, f"omega(0,1) = {w1} != 1"
    w2 = contraction_constant(prob, 0.0, 0.5)
    assert abs(w2 - 0.5) < 1e-12, f"omega(0,0.5) = {w2} != 0.5"
    prob3 = CauchyProblem(orders=ords, a=0.0, b=1.0, rhs=lambda x, y: y, xi=(0.0,),
                          lipschitz_A=1e-9, params=p)
    assert contraction_constant(prob3, 0.0, 1.0) < 1e-8, "omega must scale with A"
    return "closed-form values exact"


@_register("solver.picard-zero-rhs")
def _chk_picard_zero_rhs(rng, thorough):
    p = QParams(0.5)
    g = LatticeGrid(b=1.0, depth=100, params=p)
    ords = FracOrders(alpha=0.9, beta=0.7, mu=0.4, n=1)
    prob = CauchyProblem(orders=ords, a=0.0, b=1.0, rhs=lambda x, y: 0.0,
                         xi=(1.2,), lipschitz_A=0.5, params=p)
    sol = picard_solve(prob, g, tol=1e-12)
    y0 = initial_term(prob, g)
    assert all(it == 1 for it in sol.iterations_per_interval), (
        f"zero rhs must converge in one iteration, got {sol.iterations_per_interval}"
    )
    assert float(np.max(np.abs(sol.y.values - y0.values))) == 0.0, (
        "zero rhs must return the initial term exactly"
    )
    return f"intervals {sol.subinterval_boundaries}"


@_register("solver.linear-vs-picard")
def _chk_linear_vs_picard(rng, thorough):
    count = 10 if thorough else 4
    worst = worst_b = 0.0
    rate_ok = True
    fns = [lambda x: 0.0, lambda x: 1.0, lambda x: x]
    for i in range(count):
        q = float(rng.choice(Q_SET))
        p = QParams(q)
        g = LatticeGrid(b=1.0, depth=DEPTH[q], params=p)
        nu = float(rng.uniform(0.4, 1.0))
        ords = _gamma_nu_orders(rng, nu)
        r = float(rng.uniform(0.1, 0.9))
        lam = r / (1.0 - q) ** ords.nu
        # Picard needs omega < 1 even on the coarsest (single) lattice step
        # near b; cap |lam| by that operator-norm bound as well
        step_span = q_power_basis(p, 1.0, q * q, ords.nu)
        lam_cap = 0.85 * q_gamma(p, ords.nu + 1.0) / step_span
        lam = min(lam, lam_cap) * (1 if rng.random() < 0.5 else -1)
        xi1 = float(rng.uniform(-2.0, 2.0))
        lin = make_linear_problem(p, ords, lam=lam, forcing=fns[i % 3], xi=(xi1,))
        sc = linear_solve(lin, g)
        sp = picard_solve(as_cauchy(lin), g, tol=1e-12, max_iter=600)
        worst = max(worst, _rel_l1(sc.y.values - sp.y.values, sc.y.values, g, g.depth + 1))
        floor = 1e-13 * max(_sum_range(g, np.abs(sc.y.values), 0, g.depth + 1), 1.0)
        rate_ok = rate_ok and _rate_violation(sp, floor) is None
        # y(b) vs the paper's xi E_{nu,gamma}[lam] + E_{nu,nu+1}[lam] (f=1) or E_{nu,nu+2} (f=x)
        parts = [(xi1, ords.gamma)] + ([(1.0, ords.nu + i % 3)] if i % 3 else [])
        series = [(c, *ml_terms(MLSpec(ords.nu, beta, lam, p), 1.0)) for c, beta in parts]
        want = sum(c * total for c, total, _ in series)
        size = sum(abs(c) * math.fsum(map(abs, terms)) for c, _, terms in series)
        worst_b = max(worst_b, abs(sc.y.values[0] - want) / max(abs(want), 1e-2 * size))
    assert worst < 1e-7, f"closed form vs Picard rel err {worst:.3e} >= 1e-7"
    assert worst_b < 1e-9, f"closed form y(b) vs series rel err {worst_b:.3e} >= 1e-9"
    assert rate_ok, "iterate norms decayed slower than omega + 0.05"
    return f"max rel err {worst:.2e}, y(b) vs series {worst_b:.2e}"


@_register("solver.superposition")
def _chk_superposition(rng, thorough):
    p = QParams(0.5)
    g = LatticeGrid(b=1.0, depth=200, params=p)
    ords = FracOrders(alpha=0.9, beta=0.7, mu=0.0, n=1)
    lam = 0.5
    both = linear_solve(make_linear_problem(p, ords, lam, lambda x: 1.0 + x, (1.3,)), g)
    hom = linear_solve(make_linear_problem(p, ords, lam, lambda x: 0.0, (1.3,)), g)
    forc = linear_solve(make_linear_problem(p, ords, lam, lambda x: 1.0 + x, (0.0,)), g)
    rel = _rel_l1(both.y.values - hom.y.values - forc.y.values, both.y.values, g, g.depth + 1)
    assert rel < 1e-9, f"superposition rel err {rel:.3e} >= 1e-9"
    return f"rel err {rel:.2e}"


@_register("solver.order-reduction")
def _chk_order_reduction(rng, thorough):
    p = QParams(0.5)
    g = LatticeGrid(b=1.0, depth=200, params=p)

    def manual_volterra(y0_vals, order, rhs, iters=80):
        y = y0_vals.copy()
        for _ in range(iters):
            y = y0_vals + rl_integral(GridFunction(g, rhs(g.points, y)), ZERO, order).values
        return y

    rhs = lambda x, y: 0.4 * y + x
    # mu = 0: the pure RL problem of order beta
    beta = 0.65
    ords0 = FracOrders(alpha=0.9, beta=beta, mu=0.0, n=1)
    prob0 = CauchyProblem(orders=ords0, a=0.0, b=1.0, rhs=rhs, xi=(0.8,),
                          lipschitz_A=0.4, params=p)
    sol0 = picard_solve(prob0, g, tol=1e-12, max_iter=400)
    y0_rl = 0.8 * g.points ** (beta - 1.0) / q_gamma(p, beta)
    manual0 = manual_volterra(y0_rl, beta, rhs)
    rel = _rel_l1(sol0.y.values - manual0, manual0, g, g.depth + 1)
    assert rel < 1e-6, f"mu=0 reduction rel err {rel:.3e} >= 1e-6"

    # mu = 1, n = 1: the Caputo problem of order alpha
    alpha = 0.7
    ords1 = FracOrders(alpha=alpha, beta=0.3, mu=1.0, n=1)
    prob1 = CauchyProblem(orders=ords1, a=0.0, b=1.0, rhs=rhs, xi=(0.8,),
                          lipschitz_A=0.4, params=p)
    sol1 = picard_solve(prob1, g, tol=1e-12, max_iter=400)
    manual1 = manual_volterra(np.full(g.depth + 1, 0.8), alpha, rhs)
    rel = _rel_l1(sol1.y.values - manual1, manual1, g, g.depth + 1)
    assert rel < 1e-6, f"mu=1 reduction rel err {rel:.3e} >= 1e-6"
    return "matches manual RL and Caputo fixed points"


@_register("solver.example41-operator")
def _chk_example41(rng, thorough):
    p = QParams(0.5)
    bp = make_example41(p)
    g = LatticeGrid(b=1.0, depth=60, params=p)
    y = sample(g, bp.exact)
    m_a = 10
    h = hilfer_derivative(y, LatticePoint(m_a), bp.problem.orders)
    worst = 0.0
    for want, got in zip(bp.problem.rhs(g.points, y.values)[:m_a - 1], h.values):
        if want != 0.0:
            worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-5, f"singular example operator rel err {worst:.3e} >= 1e-5"
    return f"max rel err {worst:.2e}"


@_register("solver.example42-picard")
def _chk_example42(rng, thorough):
    p = QParams(0.5)
    bp = make_example42(p)
    g = LatticeGrid(b=1.0, depth=40, params=p)
    seed_gf = sample(g, lambda x: bp.seed_value)
    sol = picard_solve(bp.problem, g, tol=1e-11, max_iter=600, y_init=seed_gf)
    exact = sample(g, bp.exact)
    rel = _rel_l1(sol.y.values - exact.values, exact.values, g, 21)
    assert rel < 1e-6, f"sqrt example rel L1 err {rel:.3e} >= 1e-6"

    rep_picard = verify_equivalence(bp.problem, sol.y, 1e-5)
    assert rep_picard.passed, (
        f"equivalence(Picard) failed: volterra={rep_picard.volterra_residual:.3e} "
        f"ode={rep_picard.ode_residual:.3e} {rep_picard.detail}"
    )
    rep_exact = verify_equivalence(bp.problem, exact, 1e-5)
    assert rep_exact.passed, (
        f"equivalence(exact) failed: volterra={rep_exact.volterra_residual:.3e} "
        f"ode={rep_exact.ode_residual:.3e} {rep_exact.detail}"
    )
    return (
        f"rel err {rel:.2e}; residuals {rep_picard.volterra_residual:.1e}/"
        f"{rep_picard.ode_residual:.1e}"
    )


@_register("solver.perturbation-sensitivity")
def _chk_perturbation(rng, thorough):
    p = QParams(0.5)
    bp = make_example42(p)
    g = LatticeGrid(b=1.0, depth=40, params=p)
    exact = sample(g, bp.exact)
    bumped = exact.values.copy()
    bumped[1] += 0.1
    rep = verify_equivalence(bp.problem, GridFunction(g, bumped), 1e-5)
    assert not rep.passed, "perturbed solution must fail the equivalence check"
    assert max(rep.volterra_residual, rep.ode_residual) > 1e-3, (
        f"perturbation residuals too small: {rep.volterra_residual:.3e}, "
        f"{rep.ode_residual:.3e}"
    )
    return f"residuals {rep.volterra_residual:.2e}/{rep.ode_residual:.2e}"


@_register("solver.contraction-in-practice")
def _chk_contraction_practice(rng, thorough):
    p = QParams(0.5)
    # sqrt example
    bp = make_example42(p)
    g42 = LatticeGrid(b=1.0, depth=40, params=p)
    sol42 = picard_solve(bp.problem, g42, tol=1e-11, max_iter=600,
                         y_init=sample(g42, lambda x: bp.seed_value))
    # linear bundle
    ords = FracOrders(alpha=0.8, beta=0.6, mu=0.0, n=1)
    lin = make_linear_problem(p, ords, lam=0.45, forcing=lambda x: 1.0, xi=(1.0,))
    g_lin = LatticeGrid(b=1.0, depth=200, params=p)
    sol_lin = picard_solve(as_cauchy(lin), g_lin, tol=1e-12, max_iter=400)
    for sol in (sol42, sol_lin):
        scale = max(float(np.max(np.abs(sol.y.values))), 1.0)
        bad = _rate_violation(sol, 1e-12 * scale)
        assert bad is None, f"rate {bad[0]:.4f} exceeds omega+0.05 = {bad[1] + 0.05:.4f}"
    return "iterate decay within omega + 0.05 on every subinterval"


def _rl_integral_at_b(u: GridFunction, alpha: float) -> float:
    """(I^alpha u)(b) from 0: row 0 of :func:`qfrac.qfracops.rl_integral` alone.

    One dot product over the full row: the bits of rl_integral's row 0 when it
    sums full rows, as it does at q near 1, where the summands do not decay
    below roundoff within the grid.
    """
    g = u.grid
    w, pref = _integral_table(g, alpha)
    return pref[0] * np.dot(w, g.points * u.values)


@_register("solver.classical-limit-integral")
def _chk_classical_integral(rng, thorough):
    p = QParams(0.9999, eps_product=1e-9, max_terms=2_000_000)
    g = LatticeGrid(b=1.0, depth=35_000, params=p)
    u = GridFunction(g, g.points)  # u(t) = t, without 35,001 Python calls
    classical = math.gamma(2.0) / math.gamma(2.5)  # value of I^{1/2} x at x = 1
    rel = abs(_rl_integral_at_b(u, 0.5) - classical) / classical
    assert rel < 1e-2, f"classical limit off by {rel:.3e} >= 1e-2"
    return f"rel dev {rel:.2e}"
