"""Cauchy-type fractional q-difference problems on [a, b].

The problem D^{(alpha,beta)mu} y = f(x, y) with initial data xi_k is solved
through its equivalent Volterra q-integral equation of the second kind

    y(x) = sum_k xi_k / G_q(g - k + 1) * (x - a)^(g-k)_q  +  (I^v f(., y))(x)

(g, v the derived orders of :class:`qfrac.qfracops.FracOrders`).  Picard
iteration y <- y0 + I^v f(., y) is run subinterval by subinterval from a
towards b; on each subinterval the already-solved deeper part enters the
iteration as a known function, exactly as in the contraction construction.
Subintervals are chosen greedily: extend one lattice index at a time while
the contraction constant

    omega = A * (hi - q lo)^v_q / G_q(v + 1)

stays below 0.9 (a safety margin under 1); a single lattice step with
omega >= 1 means no admissible split exists.

For the linear right-hand side lam*y + f(x) with lower limit 0 the closed
form is evaluated instead: the Neumann series of I^v collapses to
q-Mittag-Leffler kernels,

    y(x) = sum_k xi_k x**(g-k) E_{v,g-k+1}[lam x**v; q]
         + int_0^x x**(v-1) (qt/x; q)_{v-1} E_{v,v}[lam x**v (q**v t/x; q)_v; q] f(t) d_q t,

which requires the convergence certificate |lam| b**v (1-q)**v < 1.  With
g = v the initial-value sum is literally the two-parameter Mittag-Leffler
solution formula; for g > v it is the continuation carrying the same
initial data (the pure-v form would attach the data to the wrong powers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DivergenceError,
    DomainError,
    MaxIterError,
    NoContractionError,
    NonConvergenceError,
    PoleError,
    SampleError,
)
from .qcore import (_INT_WINDOW, QParams, masked_power_basis, q_gamma, q_gamma_ratio,
                    q_power_basis)
from .qfracops import FracOrders, _weights_for, hilfer_derivative, rl_integral
from .qgrid import (
    ZERO,
    Anchor,
    GridFunction,
    LatticeGrid,
    _sum_range,
    anchor_index,
    lattice_locate,
    q_derivative_n,
    roundoff_window,
    tail_window,
)

__all__ = [
    "CauchyProblem",
    "LinearProblem",
    "Solution",
    "EquivalenceReport",
    "initial_term",
    "contraction_constant",
    "picard_solve",
    "linear_solve",
    "verify_equivalence",
    "estimate_lipschitz",
    "as_cauchy",
]

_OMEGA_MARGIN = 0.9


def _check_interval_and_data(p) -> None:
    """Normalise xi to floats and check its length, a >= 0 and b > a."""
    object.__setattr__(p, "xi", tuple(float(v) for v in np.atleast_1d(p.xi)))
    if len(p.xi) != p.orders.n:
        raise DomainError(f"xi must have exactly n={p.orders.n} entries, got {len(p.xi)}")
    if p.a < 0.0:
        raise DomainError(f"lower limit a must be nonnegative, got {p.a!r}")
    if not p.b > p.a:
        raise DomainError(f"need b > a, got a={p.a!r}, b={p.b!r}")


def _check_grid(p, g: LatticeGrid) -> None:
    """The solve grid must share the problem's b and q parameters."""
    if abs(g.b - p.b) > 1e-12 * p.b:
        raise DomainError(f"grid anchor b={g.b!r} does not match problem b={p.b!r}")
    if g.params != p.params:
        raise DomainError("grid params and problem params must agree")


@dataclass(frozen=True)
class CauchyProblem:
    """Nonlinear Cauchy-type problem: orders, interval, rhs and initial data.

    ``lipschitz_A`` is the user-supplied Lipschitz constant of the rhs in y;
    it drives subinterval splitting only, never correctness decisions
    (automatic global estimation is unsound for rhs that are merely locally
    Lipschitz).  ``a`` must be 0 or a lattice point of the solve grid.
    """

    orders: FracOrders
    a: float
    b: float
    rhs: Callable[[float, float], float]
    xi: tuple[float, ...]
    lipschitz_A: float
    params: QParams

    def __post_init__(self):
        _check_interval_and_data(self)
        if not (self.lipschitz_A > 0.0 and math.isfinite(self.lipschitz_A)):
            raise DomainError(
                f"lipschitz_A must be positive and finite, got {self.lipschitz_A!r}"
            )


@dataclass(frozen=True)
class LinearProblem:
    """Linear problem D^{(alpha,beta)mu} y - lam*y = f(x) with data xi.

    The convergence certificate |lam| b**v (1-q)**v < 1 is enforced at
    construction; the closed-form solver additionally requires a = 0.
    """

    orders: FracOrders
    a: float
    b: float
    lam: float
    forcing: Callable[[float], float]
    xi: tuple[float, ...]
    params: QParams

    def __post_init__(self):
        _check_interval_and_data(self)
        r = self.ratio
        if r >= 1.0:
            raise DivergenceError(
                f"|lam| b**v (1-q)**v = {r:.6g} >= 1: linear problem outside the "
                "convergence region"
            )

    @property
    def ratio(self) -> float:
        v = self.orders.nu
        return abs(self.lam) * self.b**v * (1.0 - self.params.q) ** v


def as_cauchy(p: LinearProblem) -> CauchyProblem:
    """View a linear problem as a general Cauchy problem (for Picard)."""
    lam, forcing = p.lam, p.forcing

    def rhs(x: float, y: float) -> float:
        return lam * y + forcing(x)

    return CauchyProblem(
        orders=p.orders,
        a=p.a,
        b=p.b,
        rhs=rhs,
        xi=p.xi,
        lipschitz_A=max(abs(lam), 1e-30),
        params=p.params,
    )


@dataclass(frozen=True)
class Solution:
    """Solver output: the solution samples plus convergence diagnostics.

    ``residual_l1`` is the absolute L^1_q norm of D^{(alpha,beta)mu} y -
    f(., y) over the trusted index window [0, residual_stop); the max-norm
    counterpart is reported alongside.  ``subinterval_boundaries`` lists the
    upper lattice index of each Picard subinterval in processing order
    (deep to shallow); the closed-form path reports a single interval with
    the series term count in ``iterations_per_interval`` and the
    convergence ratio as its omega.
    """

    y: GridFunction
    iterations_per_interval: tuple[int, ...]
    omega_per_interval: tuple[float, ...]
    residual_l1: float
    subinterval_boundaries: tuple[int, ...]
    residual_linf: float = 0.0
    residual_stop: int = 0
    method: str = "picard"
    diff_norms_per_interval: tuple[tuple[float, ...], ...] = field(default=())

    def __post_init__(self):
        if any(w >= 1.0 for w in self.omega_per_interval):
            raise DomainError("recorded contraction constants must all be < 1")
        if self.residual_l1 < 0.0:
            raise DomainError("residual must be nonnegative")


@dataclass(frozen=True)
class EquivalenceReport:
    """Two-sided residual report for the Volterra/differential equivalence."""

    volterra_residual: float
    ode_residual: float
    ic_deviations: tuple[float, ...]
    tol: float
    passed: bool
    detail: str = ""


def initial_term(p: CauchyProblem, g: LatticeGrid) -> GridFunction:
    """Leading Volterra term sum_k xi_k/G_q(g-k+1) (x - a)^(g-k)_q on the grid."""
    anchor = lattice_locate(g, p.a)
    m_a = anchor_index(anchor)
    stop = g.depth + 1 if m_a is None else m_a + 1
    gamma = p.orders.gamma
    vals = np.zeros(g.depth + 1)
    for k in range(1, p.orders.n + 1):
        xi_k = p.xi[k - 1]
        if xi_k == 0.0:
            continue
        try:
            coef = xi_k / q_gamma(p.params, gamma - k + 1.0)
        except PoleError as exc:
            raise PoleError(f"initial term k={k}: G_q({gamma - k + 1.0!r}) is a pole") from exc
        for m in range(stop):
            vals[m] += coef * masked_power_basis(p.params, g.point(m), p.a, gamma - k)
    return GridFunction(g, vals, domain_stop=stop)


def contraction_constant(p: CauchyProblem, sub_lo: float, sub_hi: float) -> float:
    """omega = A (sub_hi - q sub_lo)^v_q / G_q(v + 1) for one subinterval.

    This is the operator-norm bound of A * I^v on [sub_lo, sub_hi]; Picard
    contracts there exactly when omega < 1.
    """
    if not (p.a <= sub_lo < sub_hi <= p.b * (1.0 + 1e-12)):
        raise DomainError(
            f"need a <= sub_lo < sub_hi <= b, got [{sub_lo!r}, {sub_hi!r}] in "
            f"[{p.a!r}, {p.b!r}]"
        )
    v = p.orders.nu
    span = q_power_basis(p.params, sub_hi, p.params.q * sub_lo, v)
    return p.lipschitz_A * span / q_gamma(p.params, v + 1.0)


def _split_subintervals(p: CauchyProblem, g: LatticeGrid,
                        m_a: int | None) -> list[tuple[int, float]]:
    """Greedy left-to-right split; returns (upper_index, omega) per block.

    Blocks run from the deep end towards index 0.  Each block is the longest
    lattice extension with omega < 0.9, but never shorter than one step;
    a single step with omega >= 1 raises NoContractionError.
    """
    blocks: list[tuple[int, float]] = []
    lo_val = p.a
    cand = g.depth if m_a is None else m_a - 1
    if cand < 0:
        raise DomainError("lower limit sits at the top of the grid; nothing to solve")
    while cand >= 0:
        m = cand
        omega = contraction_constant(p, lo_val, g.point(m))
        if omega >= 1.0:
            raise NoContractionError(
                f"omega={omega:.4g} >= 1 on the single lattice step up from "
                f"{lo_val!r}; no admissible split exists"
            )
        while m > 0:
            w_next = contraction_constant(p, lo_val, g.point(m - 1))
            if w_next >= _OMEGA_MARGIN:
                break
            m -= 1
            omega = w_next
        blocks.append((m, omega))
        lo_val = g.point(m)
        cand = m - 1
    return blocks


def _trust_stop(g: LatticeGrid, orders: FracOrders, m_a: int | None) -> int:
    """One past the deepest index where operator residuals are meaningful.

    With a lattice lower limit every integral is exact and only the n
    derivative-edge indices are excluded.  Anchored at 0, truncation at
    depth M leaves relative tails ~ q**((M+1-m) d) that the n-fold
    q-derivative amplifies by q**(-m); :func:`qfrac.qgrid.tail_window` keeps
    the product below its default target.
    """
    if m_a is not None:
        return max(m_a + 1 - orders.n, 1)
    d = min(orders.nu, orders.gamma - orders.n + 1.0, 1.0)
    return tail_window(g.q, g.depth, d, 1.0)


def _ode_residual(orders: FracOrders, y: GridFunction, anchor: Anchor,
                  f_of_y: np.ndarray) -> tuple[float, float, int]:
    """(L^1_q, max) norms of D^{(a,b)mu} y - f over the trusted window."""
    g = y.grid
    H = hilfer_derivative(y, anchor, orders)
    stop = min(_trust_stop(g, orders, anchor_index(anchor)), H.trusted_stop)
    diff = np.abs(H.values[:stop] - f_of_y[:stop])
    linf = float(np.max(diff)) if stop > 0 else 0.0
    return _sum_range(g, diff, 0, stop), linf, stop


def _rhs_values(p: CauchyProblem, x: np.ndarray, y: np.ndarray, f_vals: np.ndarray,
                lo: int, hi: int) -> None:
    """Fill f_vals[lo:hi] with rhs(x_k, y_k); a non-finite value names the rhs."""
    for k in range(lo, hi):
        f_vals[k] = p.rhs(float(x[k]), float(y[k]))
    bad = np.flatnonzero(~np.isfinite(f_vals[lo:hi]))
    if bad.size:
        k = lo + int(bad[0])
        name = getattr(p.rhs, "__qualname__", repr(p.rhs))
        raise SampleError(k, float(x[k]), float(f_vals[k]),
                          source=f"rhs {name}(x, y={float(y[k])!r}) value")


def picard_solve(p: CauchyProblem, g: LatticeGrid, tol: float = 1e-10,
                 max_iter: int = 200, y_init: GridFunction | None = None) -> Solution:
    """Solve the Cauchy problem by blockwise Picard iteration on the grid.

    Starts from the Volterra initial term (or from ``y_init`` when given --
    useful for rhs whose trivial fixed point must be avoided) and iterates
    y <- y0 + I^v f(., y) until the L^1_q increment over the active
    subinterval drops below tol.  Deterministic: identical inputs produce
    bit-identical solutions.
    """
    _check_grid(p, g)
    anchor = lattice_locate(g, p.a)
    m_a = anchor_index(anchor)
    nu = p.orders.nu
    y0 = initial_term(p, g)
    blocks = _split_subintervals(p, g, m_a)

    M = g.depth
    domain_lo = M + 1 if m_a is None else m_a  # one past the deepest unknown index
    y = (y0.values if y_init is None else np.asarray(y_init.values, dtype=float)).copy()
    if m_a is not None:
        y[m_a] = y0.values[m_a]  # Volterra value at the lower limit itself
        y[m_a + 1:] = 0.0
    x = g.points

    iterations: list[int] = []
    diff_hist: list[tuple[float, ...]] = []
    f_vals = np.zeros(M + 1)
    frozen_hi = domain_lo  # indices in [frozen_hi, domain_lo) are converged

    for upper, omega in blocks:
        norms: list[float] = []
        it = 0
        while True:
            it += 1
            _rhs_values(p, x, y, f_vals, upper, domain_lo)
            f_gf = GridFunction(g, f_vals, domain_stop=y0.domain_stop)
            integ = rl_integral(f_gf, anchor, nu).values
            y_new = y.copy()
            active = slice(upper, frozen_hi)
            y_new[active] = y0.values[active] + integ[active]
            d = _sum_range(g, np.abs(y_new - y), upper, frozen_hi)
            norms.append(d)
            y = y_new
            if d < tol:
                break
            if it >= max_iter:
                raise MaxIterError(
                    f"subinterval up to index {upper}: |increment|={d:.3e} after "
                    f"{it} iterations (tol={tol:.1e})",
                    diagnostics={"upper_index": upper, "omega": omega,
                                 "last_increment": d, "tol": tol},
                )
        iterations.append(it)
        diff_hist.append(tuple(norms))
        frozen_hi = upper

    sol_gf = GridFunction(g, y, domain_stop=y0.domain_stop)
    _rhs_values(p, x, y, f_vals, 0, domain_lo)
    res_l1, res_linf, res_stop = _ode_residual(p.orders, sol_gf, anchor, f_vals)
    return Solution(
        y=sol_gf,
        iterations_per_interval=tuple(iterations),
        omega_per_interval=tuple(w for _, w in blocks),
        residual_l1=res_l1,
        subinterval_boundaries=tuple(u for u, _ in blocks),
        residual_linf=res_linf,
        residual_stop=res_stop,
        method="picard",
        diff_norms_per_interval=tuple(diff_hist),
    )


def _series_length(params: QParams, ratio: float) -> int:
    """Terms for a geometric tail below eps_series plus 4 spare, capped at max_terms.

    NonConvergenceError when max_terms terms cannot certify the tail.
    """
    if ratio <= 0.0:
        return 4
    need = math.ceil(math.log(params.eps_series * (1.0 - ratio)) / math.log(ratio))
    if need > params.max_terms:
        raise NonConvergenceError(
            f"series with ratio {ratio!r} needs {need} terms for a tail below "
            f"eps_series={params.eps_series:.1e}; max_terms={params.max_terms}"
        )
    return min(max(need + 4, 4), params.max_terms)


def linear_solve(p: LinearProblem, g: LatticeGrid) -> Solution:
    """Closed-form solution of the linear problem via q-Mittag-Leffler kernels.

    Requires lower limit 0 (the closed form integrates from the origin);
    problems anchored elsewhere route through picard_solve.
    """
    if p.a != 0.0:
        raise DomainError("closed-form linear solve requires lower limit a = 0")
    _check_grid(p, g)
    params = p.params
    q = params.q
    nu, gamma, n = p.orders.nu, p.orders.gamma, p.orders.n
    lam = p.lam
    ratio = p.ratio
    M = g.depth
    x = g.points
    xnu = x**nu

    K = _series_length(params, ratio)
    y = np.zeros(M + 1)

    # homogeneous part: sum_k xi_k x**(gamma-k) E_{nu, gamma-k+1}[lam x**nu]
    terms_used = 0
    for k in range(1, n + 1):
        xi_k = p.xi[k - 1]
        if xi_k == 0.0:
            continue
        shift = gamma - k + 1.0
        coef = 1.0 / q_gamma(params, shift)
        acc = np.full(M + 1, coef)
        quiet = 0
        for m in range(K):
            coef *= lam * q_gamma_ratio(params, nu * m + shift, nu)
            term = coef * xnu ** (m + 1)
            acc += term
            terms_used = max(terms_used, m + 1)
            if np.max(np.abs(term)) < params.eps_series * max(np.max(np.abs(acc)), 1e-300):
                quiet += 1
                if quiet >= 3:
                    break
            else:
                quiet = 0
        y += xi_k * x ** (gamma - k) * acc

    # forcing part: the Neumann series sum_m lam**m I^(nu(m+1)) f.  By the
    # splitting law the collapsed kernel (q**(j+1); q)_{nu-1} (q**(nu+j); q)_{m nu}
    # is the I^(nu(m+1)) weight table; lam**m / G_q(nu(m+1)) advances by
    # overflow-safe gamma ratios
    f_vals = np.array([p.forcing(float(t)) for t in x], dtype=float)
    bad = np.flatnonzero(~np.isfinite(f_vals))
    if bad.size:
        k = int(bad[0])
        name = getattr(p.forcing, "__qualname__", repr(p.forcing))
        raise SampleError(k, float(x[k]), float(f_vals[k]), source=f"forcing {name}(x) value")
    if np.any(f_vals != 0.0):
        src = x * f_vals
        coef = 1.0 / q_gamma(params, nu)  # lam**m / G_q(nu (m+1))
        acc = np.zeros(M + 1)
        for m in range(K + 1):
            kernel = np.correlate(src, _weights_for(g, nu * (m + 1)), "full")[M:]
            acc += coef * xnu ** float(m) * kernel
            coef *= lam * q_gamma_ratio(params, nu * (m + 1), nu)
        terms_used = max(terms_used, K)
        y += (1.0 - q) * x ** (nu - 1.0) * acc

    y_gf = GridFunction(g, y)
    res_l1, res_linf, res_stop = _ode_residual(p.orders, y_gf, ZERO, lam * y + f_vals)
    return Solution(
        y=y_gf,
        iterations_per_interval=(terms_used,),
        omega_per_interval=(ratio,),
        residual_l1=res_l1,
        subinterval_boundaries=(0,),
        residual_linf=res_linf,
        residual_stop=res_stop,
        method="closed-form",
    )


def verify_equivalence(p: CauchyProblem, y: GridFunction, tol: float) -> EquivalenceReport:
    """Check both directions of the Volterra/differential equivalence under y.

    Residual (i): y - [y0 + I^v f(., y)] in L^1_q over the trusted window.
    Residual (ii): D^{(alpha,beta)mu} y - f(., y) likewise, plus the initial
    data recovered as D_q^(n-k) I^((1-mu)(n-beta)) y at the deepest trusted
    lattice point above a, compared against xi_k.  The data recovery is a
    limit read off at a finite point: its deviation scales like a power of
    that point's distance to a, so deep anchors recover sharply while
    0-anchored problems see the window edge.  Reports, never raises.
    """
    try:
        g = y.grid
        anchor = lattice_locate(g, p.a)
        m_a = anchor_index(anchor)
        domain_lo = g.depth + 1 if m_a is None else m_a
        x = g.points
        f_vals = np.zeros(g.depth + 1)
        _rhs_values(p, x, y.values, f_vals, 0, domain_lo)

        y0 = initial_term(p, g)
        f_gf = GridFunction(g, f_vals, domain_stop=y0.domain_stop)
        integ = rl_integral(f_gf, anchor, p.orders.nu).values
        stop = _trust_stop(g, p.orders, m_a)
        volterra = y.values - (y0.values + integ)
        r1 = _sum_range(g, np.abs(volterra), 0, stop)

        y_gf = GridFunction(g, y.values, domain_stop=y0.domain_stop)
        r2, _, _ = _ode_residual(p.orders, y_gf, anchor, f_vals)

        # initial-condition limits at the deepest trusted points above a;
        # each q-derivative divides roundoff by x, so the evaluation point
        # of the j-fold derivative is additionally capped where
        # eps / (x (1-q))**j stays below ~1e-8
        inner = (1.0 - p.orders.mu) * (p.orders.n - p.orders.beta)
        w = y if inner < _INT_WINDOW else rl_integral(y, anchor, inner)
        deepest = (m_a - 1) if m_a is not None else (stop - 1)
        ics = []
        for k in range(1, p.orders.n + 1):
            j = p.orders.n - k
            dk = q_derivative_n(w, j) if j >= 1 else w
            m_eval = deepest - j
            if m_a is None and j >= 1:
                m_eval = min(m_eval, roundoff_window(g.q, j, j, 1e-8))
            ics.append(abs(float(dk.values[max(m_eval, 0)]) - p.xi[k - 1]))
        ic_ok = all(d <= tol * (1.0 + abs(x_k)) for d, x_k in zip(ics, p.xi))
        passed = (r1 <= tol) and (r2 <= tol) and ic_ok
        return EquivalenceReport(
            volterra_residual=r1,
            ode_residual=r2,
            ic_deviations=tuple(ics),
            tol=tol,
            passed=passed,
        )
    except Exception as exc:  # report, never throw
        return EquivalenceReport(
            volterra_residual=float("inf"),
            ode_residual=float("inf"),
            ic_deviations=(),
            tol=tol,
            passed=False,
            detail=f"{type(exc).__name__}: {exc}",
        )


def estimate_lipschitz(p: CauchyProblem, g: LatticeGrid, y_lo: float, y_hi: float,
                       n_samples: int = 200,
                       rng: np.random.Generator | None = None) -> float:
    """Sampled difference-quotient bound of the rhs over a y-box (diagnostic only)."""
    if not y_hi > y_lo:
        raise DomainError("need y_hi > y_lo")
    rng = np.random.default_rng(0) if rng is None else rng
    m_a = anchor_index(lattice_locate(g, p.a))
    hi = g.depth + 1 if m_a is None else m_a + 1
    best = 0.0
    for _ in range(n_samples):
        m = int(rng.integers(0, hi))
        y1, y2 = rng.uniform(y_lo, y_hi, size=2)
        if y1 == y2:
            continue
        xv = float(g.points[m])
        quot = abs(p.rhs(xv, float(y1)) - p.rhs(xv, float(y2))) / abs(y1 - y2)
        best = max(best, quot)
    return best
