"""Cauchy-type fractional q-difference problems on [a, b].

The problem D^{(alpha,beta)mu} y = f(x, y) with initial data xi_k is solved
through its equivalent Volterra q-integral equation of the second kind

    y(x) = sum_k xi_k / G_q(g - k + 1) * (x - a)^(g-k)_q  +  (I^v f(., y))(x)

(g, v the derived orders of :class:`qfrac.qfracops.FracOrders`).  Picard
iteration y <- y0 + I^v f(., y) is run subinterval by subinterval from a
towards b; on each subinterval the already-solved deeper part enters the
iteration as a known function, exactly as in the contraction construction:
its share of the lattice integral's rows (the frozen history) is summed once
per subinterval, and each sweep sums only the active subinterval.
Subintervals are chosen greedily: each is the longest run of lattice indices
on which the contraction constant

    omega = A * (hi - q lo)^v_q / G_q(v + 1)

stays below 0.9 (a safety margin under 1); a single lattice step with
omega >= 1 means no admissible split exists.  Any part of a contracting
subinterval contracts, so each is then cut into blocks of at most 64 rows,
the blocks of the closed form's lattice solve: a block's history is one
correlation and each sweep one dense 64 x 64 product.

For the linear right-hand side lam*y + f(x) the closed form is evaluated
instead: anchored at 0, the Neumann series of I^v collapses to
q-Mittag-Leffler kernels,

    y(x) = sum_k xi_k x**(g-k) E_{v,g-k+1}[lam x**v; q]
         + int_0^x x**(v-1) (qt/x; q)_{v-1} E_{v,v}[lam x**v (q**v t/x; q)_v; q] f(t) d_q t,

under the convergence certificate |lam| b**v (1-q)**v < 1 (for g > v the
first sum is the continuation carrying the same initial data).
:func:`linear_solve` does not sum these series at b: it solves the Volterra
equation exactly on the lattice, below any anchor Picard takes.
"""

from __future__ import annotations

import itertools
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
    QFracError,
    SampleError,
)
from .qcore import _INT_WINDOW, _LATTICE_RTOL, QParams, q_gamma, q_power_basis
from .qfracops import (
    _SOLVE_BLOCK,
    FracOrders,
    _block_history,
    _block_toeplitz,
    _integral_table,
    _kernel_weights,
    _lattice_solve,
    hilfer_derivative,
    rl_integral,
)
from .qml import MLSpec, _summation_bound, ml_bound_check, ml_terms
from .qgrid import (
    Anchor,
    GridFunction,
    LatticeGrid,
    _pointwise,
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
    if abs(g.b - p.b) > _LATTICE_RTOL * p.b:
        raise DomainError(f"grid anchor b={g.b!r} does not match problem b={p.b!r}")
    if g.params != p.params:
        raise DomainError("grid params and problem params must agree")


@dataclass(frozen=True)
class CauchyProblem:
    """Nonlinear Cauchy-type problem: orders, interval, rhs and initial data.

    ``rhs`` is elementwise over arrays: ``rhs(x, y)`` takes equal-shape float
    arrays and returns an array of that shape, or a scalar, which broadcasts.
    The solvers call it once per Picard sweep on the grid's read-only points
    and the whole iterate, so plain arithmetic such as
    ``lambda x, y: 0.4 * y + 1.0`` works as it stands; a callable that fails
    on arrays or returns another shape raises a DomainError that names it.
    ``lipschitz_A`` is the user-supplied Lipschitz constant of the rhs in y;
    it drives subinterval splitting only, never correctness decisions
    (automatic global estimation is unsound for rhs that are merely locally
    Lipschitz).  ``a`` must be 0 or a lattice point of the solve grid.
    """

    orders: FracOrders
    a: float
    b: float
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]
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
    construction.  ``a`` must be 0 or a lattice point of the solve grid.
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
        return ml_bound_check(MLSpec(self.orders.nu, 1.0, self.lam, self.params), self.b)


def as_cauchy(p: LinearProblem) -> CauchyProblem:
    """View a linear problem as a general Cauchy problem (for Picard)."""
    lam, forcing = p.lam, _pointwise(p.forcing)

    def rhs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
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
    counterpart is reported alongside.  ``residual_rel`` is ``residual_l1``
    over L^1_q(|f(., y)|) on the same window, a normwise backward error that
    does not grow with the solution's size (``residual_l1`` itself where that
    norm is 0); the CLI's status reads it.  ``subinterval_boundaries`` lists the
    upper lattice index of each Picard subinterval in processing order
    (deep to shallow); the closed-form path reports a single interval with
    its head-term count max_k J_k in ``iterations_per_interval`` (1 with a
    lattice anchor, 0 when every xi_k is 0; see :func:`linear_solve`) and
    the convergence ratio as its omega.
    """

    y: GridFunction
    iterations_per_interval: tuple[int, ...]
    omega_per_interval: tuple[float, ...]
    residual_l1: float
    subinterval_boundaries: tuple[int, ...]
    residual_linf: float = 0.0
    residual_rel: float = 0.0
    residual_stop: int = 0
    method: str = "picard"
    diff_norms_per_interval: tuple[tuple[float, ...], ...] = field(default=())

    def __post_init__(self):
        if any(w >= 1.0 for w in self.omega_per_interval):
            raise DomainError("recorded contraction constants must all be < 1")
        if self.residual_l1 < 0.0 or self.residual_rel < 0.0:
            raise DomainError("residuals must be nonnegative")


@dataclass(frozen=True)
class EquivalenceReport:
    """Two-sided residual report for the Volterra/differential equivalence."""

    volterra_residual: float
    ode_residual: float
    ic_deviations: tuple[float, ...]
    tol: float
    passed: bool
    detail: str = ""


def initial_term(p: CauchyProblem | LinearProblem, g: LatticeGrid) -> GridFunction:
    """Leading Volterra term sum_k xi_k/G_q(g-k+1) (x - a)^(g-k)_q on the grid."""
    m_a = anchor_index(lattice_locate(g, p.a))
    vals, _ = _initial_parts(p, g, m_a)
    return GridFunction(g, vals, domain_stop=g.depth + 1 if m_a is None else m_a + 1)


def _initial_parts(p, g: LatticeGrid, m_a: int | None) -> tuple[np.ndarray, dict]:
    """The initial term's values, summed in order of k, and its part for each nonzero xi_k;
    the first k whose addition leaves double range is one DomainError naming it."""
    gamma, vals, parts = p.orders.gamma, np.zeros(g.depth + 1), {}
    for k in range(1, p.orders.n + 1):
        xi_k = p.xi[k - 1]
        if xi_k == 0.0:
            continue
        try:
            coef = xi_k / q_gamma(p.params, gamma - k + 1.0)
        except PoleError as exc:
            raise PoleError(f"initial term k={k}: G_q({gamma - k + 1.0!r}) is a pole") from exc
        with np.errstate(over="ignore", invalid="ignore"):  # named just below
            parts[k] = coef * _lattice_power(g, m_a, gamma - k)
            vals += parts[k]
        if not np.isfinite(vals).all():
            i = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise DomainError(f"initial term k={k} (xi_{k} (x - a)^({gamma - k:.6g})_q) leaves "
                              f"double range at lattice index {i} (x={g.point(i)!r})")
    return vals, parts


def _lattice_power(g: LatticeGrid, m_base: int | None, s: float) -> np.ndarray:
    """(x_m - x_base)^s_q for m = 0..M, 0 below the base x_(m_base) (None: the origin).

    Above the base it is x_m**s (q**(m_base-m); q)_s = x_m**s w_(m_base-1-m) by the
    splitting law, w the kernel weights of order s + 1; at the base it is (1; q)_s,
    1 for s = 0 and 0 else.  m_base may be M + 1, the point just below the grid.
    """
    if m_base is None:
        return g.points**s
    out = np.zeros(g.depth + 1)
    if m_base:  # a table of m_base weights is the full table's prefix, bit for bit
        p = g.params
        w = _kernel_weights(p.q, p.eps_product, p.max_terms, s + 1.0, g.b, m_base)[0]
        out[:m_base] = g.points[:m_base] ** s * w[::-1]
    out[m_base:m_base + 1] = 1.0 if abs(s) < _INT_WINDOW else 0.0
    return out


def contraction_constant(p: CauchyProblem, sub_lo: float, sub_hi: float) -> float:
    """omega = A (sub_hi - q sub_lo)^v_q / G_q(v + 1) for one subinterval.

    This is the operator-norm bound of A * I^v on [sub_lo, sub_hi]; Picard
    contracts there exactly when omega < 1.
    """
    if not (p.a <= sub_lo < sub_hi <= p.b * (1.0 + _LATTICE_RTOL)):
        raise DomainError(
            f"need a <= sub_lo < sub_hi <= b, got [{sub_lo!r}, {sub_hi!r}] in "
            f"[{p.a!r}, {p.b!r}]"
        )
    span = q_power_basis(p.params, sub_hi, p.params.q * sub_lo, p.orders.nu)
    return p.lipschitz_A * span / q_gamma(p.params, p.orders.nu + 1.0)


def _split_subintervals(p: CauchyProblem, g: LatticeGrid,
                        m_a: int | None) -> list[tuple[int, float]]:
    """Greedy left-to-right split; returns (upper_index, omega) per block.

    Blocks run from the deep end towards index 0.  Each omega-block is the
    longest lattice extension with omega < 0.9, but never shorter than one
    step; a single step with omega >= 1 raises NoContractionError.  Each
    omega-block is then cut from its deep end into blocks of at most
    _SOLVE_BLOCK rows, the block of :func:`qfrac.qfracops._lattice_solve`, each
    with the omega of its own lower end, so the split refines the paper's: any
    part of a contracting subinterval contracts.  omega for a lower end x_lo is
    a power of base q x_lo = x_(lo+1), x_m**nu w_(lo-m) with w the kernel weights
    of order nu + 1: one x**nu array and one weight table serve every block, with
    :func:`_lattice_power`'s bits.
    """
    nu, gamma_nu1 = p.orders.nu, q_gamma(p.params, p.orders.nu + 1.0)
    xnu = g.points**nu
    w = _kernel_weights(g.q, g.params.eps_product, g.params.max_terms, nu + 1.0, g.b,
                        g.depth + 1)[0]

    def omega(base: int | None, lo: int, hi: int) -> np.ndarray:
        """omega of [x_(base-1), x_m] for the rows m in [lo, hi); base None: the origin."""
        power = xnu[lo:hi] if base is None else xnu[lo:hi] * w[base - hi:base - lo][::-1]
        return p.lipschitz_A * power / gamma_nu1

    blocks: list[tuple[int, float]] = []
    lo_val = p.a
    base, cand = (None, g.depth) if m_a is None else (m_a + 1, m_a - 1)
    if cand < 0:
        raise DomainError("lower limit sits at the top of the grid; nothing to solve")
    while cand >= 0:
        om = omega(base, 0, cand + 1)
        if om[cand] >= 1.0:
            raise NoContractionError(
                f"omega={om[cand]:.4g} >= 1 on the single lattice step up from "
                f"{lo_val!r}; no admissible split exists"
            )
        over = np.flatnonzero(om[:cand] >= _OMEGA_MARGIN)  # the nearest above cand ends it
        m = int(over[-1]) + 1 if over.size else 0
        upper = max(cand + 1 - _SOLVE_BLOCK, m)
        blocks.append((upper, float(om[upper])))
        while upper > m:
            base, upper = upper + 1, max(upper - _SOLVE_BLOCK, m)
            blocks.append((upper, float(omega(base, upper, upper + 1)[0])))
        lo_val = g.point(m)
        base, cand = m + 1, m - 1
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
                  f_of_y: np.ndarray) -> dict[str, float | int]:
    """Solution's residual fields for D^{(a,b)mu} y - f over the trusted window.

    The L^1_q and max norms of the difference, its L^1_q norm relative to
    L^1_q(|f|) over the same window (the absolute norm when that is 0), and
    the window's stop.
    """
    g = y.grid
    H = hilfer_derivative(y, anchor, orders)
    stop = min(_trust_stop(g, orders, anchor_index(anchor)), H.trusted_stop)
    diff = np.abs(H.values[:stop] - f_of_y[:stop])
    l1 = _sum_range(g, diff, 0, stop)
    size = _sum_range(g, np.abs(f_of_y), 0, stop)
    return dict(residual_l1=l1, residual_rel=l1 / size if size > 0.0 else l1,
                residual_linf=float(np.max(diff)) if stop > 0 else 0.0,
                residual_stop=stop)


def _name(fn: Callable) -> str:
    return getattr(fn, "__qualname__", repr(fn))


def _call_rhs(p: CauchyProblem, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """rhs(x, y) as an array of x's shape; a failing call or another shape names the rhs.

    An x-shaped result comes back as the rhs returned it, which may be y itself
    or the rhs's own state, so callers copy it before writing; they also hold its np.errstate.
    """
    try:
        vals = np.asarray(p.rhs(x, y), dtype=float)
    except QFracError:
        raise
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise DomainError(f"rhs {_name(p.rhs)} failed on arrays of x and y "
                          f"(it must be elementwise): {exc}") from None
    if vals.shape == x.shape:
        return vals
    if vals.shape:
        raise DomainError(f"rhs {_name(p.rhs)} returned shape {vals.shape}, "
                          f"expected {x.shape} or a scalar")
    return np.broadcast_to(vals, x.shape)


def _rhs_values(p: CauchyProblem, g: LatticeGrid, y: np.ndarray, f_vals: np.ndarray,
                lo: int, hi: int) -> None:
    """Fill f_vals[lo:hi] from one rhs call on the lattice; a non-finite value names the rhs."""
    with np.errstate(all="ignore"):  # non-finite values are named just below
        f_vals[lo:hi] = _call_rhs(p, g.points, y)[lo:hi]
    _check_rhs(p, g, y, f_vals, lo, hi)


def _check_rhs(p: CauchyProblem, g: LatticeGrid, y, f_vals, lo: int, hi: int) -> None:
    """Raise SampleError naming the rhs at the first non-finite f_vals[lo:hi]."""
    if not np.isfinite(f_vals[lo:hi]).all():
        k = lo + int(np.flatnonzero(~np.isfinite(f_vals[lo:hi]))[0])
        raise SampleError(k, g.point(k), float(f_vals[k]),
                          source=f"rhs {_name(p.rhs)}(x, y={float(y[k])!r}) value")


def picard_solve(p: CauchyProblem, g: LatticeGrid, tol: float = 1e-10,
                 max_iter: int = 200, y_init: GridFunction | None = None) -> Solution:
    """Solve the Cauchy problem by blockwise Picard iteration on the grid.

    Starts from the Volterra initial term (or from ``y_init`` on g, for rhs whose
    trivial fixed point must be avoided) and iterates y <- y0 + I^v f(., y)
    until the L^1_q increment over the active block, at most _SOLVE_BLOCK rows
    (:func:`_split_subintervals`), drops below tol.  A block's rows are
    y0 + pref (K f + hist), summed as :func:`qfrac.qfracops._lattice_solve` sums
    its forcing rows: the frozen history hist (the converged deeper indices'
    share) is one :func:`qfrac.qfracops._block_history` per block, and K is the
    block's Toeplitz of weights times x by column, one dense operator per
    block.  The prefactor multiplies finished sums, as in :func:`rl_integral`,
    so a sweep leaves double range exactly where I^v f does.  A sweep is one
    rhs call, one product K f and one x-weighted dot for the L^1_q increment,
    which is also its finiteness test: only a non-finite norm sends it looking
    for the value to name.  Deterministic: identical inputs produce
    bit-identical solutions.
    """
    _check_grid(p, g)
    if y_init is not None and y_init.grid != g:
        raise DomainError(f"y_init lives on {y_init.grid!r}, not on the solve grid {g!r}")
    anchor = lattice_locate(g, p.a)
    m_a = anchor_index(anchor)
    y0 = initial_term(p, g)
    blocks = _split_subintervals(p, g, m_a)

    domain_lo = g.depth + 1 if m_a is None else m_a  # one past the deepest unknown index
    y = (y0 if y_init is None else y_init).values.copy()
    if m_a is not None:
        y[m_a] = y0.values[m_a]  # Volterra value at the lower limit itself
        y[m_a + 1:] = 0.0

    diff_hist: list[list[float]] = []
    f_vals = np.zeros(g.depth + 1)
    frozen_hi = domain_lo  # indices in [frozen_hi, domain_lo) are converged

    with np.errstate(all="ignore"):  # values past double range are named by the sweep
        w, pref = _integral_table(g, p.orders.nu)
        toeplitz = _block_toeplitz(w, min(_SOLVE_BLOCK, domain_lo))
        l1_weights = (1.0 - g.q) * g.points
        for upper, omega in blocks:
            act, B = slice(upper, frozen_hi), frozen_hi - upper
            _rhs_values(p, g, y, f_vals, upper, domain_lo)
            pref_b, y0_b, y_b, f_b, l1_b = (  # views, once per block
                a[act] for a in (pref, y0.values, y, f_vals, l1_weights))
            hist = 0.0
            if frozen_hi < domain_lo:  # the rows' part from the converged indices
                deep = slice(frozen_hi, domain_lo)
                hist = _block_history(w, g.points[deep] * f_vals[deep], B)
            K = toeplitz[:B, :B] * g.points[act]  # entry (i, j) is w_(j-i) x_(upper+j)
            diff_hist.append(norms := [])
            while True:
                new = y0_b + pref_b * (K @ f_b + hist)
                d = float(np.dot(l1_b, np.abs(new - y_b)))
                if not d < math.inf:
                    _check_rhs(p, g, y, f_vals, upper, frozen_hi)
                    if not np.isfinite(new).all():
                        k = upper + int(np.flatnonzero(~np.isfinite(new))[0])
                        raise DomainError(f"Picard integral I^{p.orders.nu:g} f(., y) is not "
                                          f"finite at lattice index {k} (x={g.point(k)!r}): "
                                          "it leaves double range")
                y_b[...] = new
                norms.append(d)
                if d < tol:
                    break
                if len(norms) >= max_iter:
                    raise MaxIterError(
                        f"subinterval up to index {upper}: |increment|={d:.3e} after "
                        f"{len(norms)} iterations (tol={tol:.1e})",
                        diagnostics={"upper_index": upper, "omega": omega,
                                     "last_increment": d, "tol": tol},
                    )
                f_b[...] = _call_rhs(p, g.points, y)[act]  # all of x: _once_per_grid caches it
            frozen_hi = upper

    sol_gf = GridFunction(g, y, domain_stop=y0.domain_stop)
    _rhs_values(p, g, y, f_vals, 0, domain_lo)
    return Solution(
        y=sol_gf,
        iterations_per_interval=tuple(map(len, diff_hist)),
        omega_per_interval=tuple(w for _, w in blocks),
        subinterval_boundaries=tuple(u for u, _ in blocks),
        diff_norms_per_interval=tuple(map(tuple, diff_hist)),
        **_ode_residual(p.orders, sol_gf, anchor, f_vals),
    )


def linear_solve(p: LinearProblem, g: LatticeGrid) -> Solution:
    """Closed-form solution of the linear problem: y = sum_k sum_(j<J_k) t_(k,j) + u.

    The head terms t_(k,j) = lam**j (I^nu)^j t_(k,0), exact q-power bases, lead
    xi_k's q-Mittag-Leffler series; t_(k,0) summed over k is :func:`initial_term`.
    u solves u = I^nu (f + lam t) + lam I^nu u, t = sum_k t_(k,J_k-1), on the rows
    below the anchor by one :func:`qfrac.qfracops._lattice_solve`.  With a lattice
    anchor every sum is finite and J_k = 1; anchored at 0, the truncated lattice
    drops each series' part below x_M, so J_k counts the terms ml_terms certifies
    at x_M.  Summands that cancel past eps_series |y|, both in L^1_q over the
    solved rows (:func:`qfrac.qml._summation_bound`), raise NonConvergenceError.
    ``iterations_per_interval`` is max_k J_k, 0 when every xi_k is 0.
    """
    _check_grid(p, g)
    anchor = lattice_locate(g, p.a)
    m_a = anchor_index(anchor)
    params, nu, lam, x = p.params, p.orders.nu, p.lam, g.points
    rows = g.depth + 1 if m_a is None else m_a  # the rows below the anchor
    y0, parts = _initial_parts(p, g, m_a)
    summands, last, count = [y0], np.zeros(g.depth + 1), 0
    with np.errstate(over="ignore", invalid="ignore"):  # values past range are named below
        for k, t in parts.items():
            terms = [1.0] if m_a is not None else ml_terms(
                MLSpec(nu, p.orders.gamma - k + 1.0, lam, params), float(x[-1]))[1]
            heads = [t * (c / terms[0]) * (x / x[-1]) ** (nu * j) for j, c in enumerate(terms)]
            summands += heads[1:]  # heads[0] is t itself, already in y0
            last += heads[-1]
            count = max(count, len(terms))
        f_vals = np.where(np.arange(g.depth + 1) < rows, _pointwise(p.forcing)(x), 0.0)
        if not np.isfinite(f_vals).all():  # values past the anchor are never read
            i = int(np.flatnonzero(~np.isfinite(f_vals))[0])
            raise SampleError(i, g.point(i), float(f_vals[i]),
                              source=f"forcing {_name(p.forcing)}(x) value")
        u = np.zeros(g.depth + 1)
        u[:rows] = _lattice_solve((f_vals + lam * last)[:rows], x, *_integral_table(g, nu), lam,
                                  f"the lattice part u = I^{nu:g} (f + lam t) + lam I^{nu:g} u")
        sums = list(itertools.accumulate(summands + [u]))
    y = sums[-1]
    if not np.isfinite(y).all():
        i = int(np.flatnonzero(~np.isfinite(y))[0])
        raise DomainError(f"the head terms plus the lattice part leave double range at "
                          f"lattice index {i} (x={g.point(i)!r})")
    norm = lambda v: _sum_range(g, np.abs(v), 0, rows)
    bound, tol = _summation_bound(sums, norm), params.eps_series * norm(y)
    if not bound <= tol:
        raise NonConvergenceError(f"closed form cancels: the roundoff bound {bound:.3g} of its "
                                  f"summands exceeds eps_series*|y| = {tol:.3g} in L^1_q")

    y_gf = GridFunction(g, y, domain_stop=min(rows + 1, g.depth + 1))
    return Solution(y=y_gf, iterations_per_interval=(count,), omega_per_interval=(p.ratio,),
                    subinterval_boundaries=(0,), method="closed-form",
                    **_ode_residual(p.orders, y_gf, anchor, lam * y + f_vals))


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
        f_vals = np.zeros(g.depth + 1)
        _rhs_values(p, g, y.values, f_vals, 0, domain_lo)

        y0 = initial_term(p, g)
        f_gf = GridFunction(g, f_vals, domain_stop=y0.domain_stop)
        integ = rl_integral(f_gf, anchor, p.orders.nu).values
        stop = _trust_stop(g, p.orders, m_a)
        volterra = y.values - (y0.values + integ)
        r1 = _sum_range(g, np.abs(volterra), 0, stop)

        y_gf = GridFunction(g, y.values, domain_stop=y0.domain_stop)
        r2 = _ode_residual(p.orders, y_gf, anchor, f_vals)["residual_l1"]

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

