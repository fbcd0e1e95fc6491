"""Fractional q-operators on grid functions.

Implements the Riemann-Liouville fractional q-integral

    (I^s u)(x) = x**(s-1)/G_q(s) * int_a^x (q t / x; q)_{s-1} u(t) d_q t,

the Riemann-Liouville fractional q-derivative D^s = D_q^n I^(n-s) with
n = ceil(s), the Caputo fractional q-derivative I^(1-s) D_q for s in (0, 1],
and the two-order, one-type interpolation between them: for orders
(alpha, beta) with shared ceiling n and type mu in [0, 1], using the derived
orders g = beta + mu(n - beta) and v = beta + mu(alpha - beta),

    D^{(alpha,beta)mu} u = I^(g-v) D^g u  =  I^(mu(n-alpha)) D_q^n I^((1-mu)(n-beta)) u.

The production path is the left composition (one fractional integral after
one RL derivative); the raw three-factor composition is a cross-checking
oracle in :mod:`qfrac.verify`.

On the lattice the integral kernel samples (q t / x; q)_{s-1} collapse to
(q**(j+1); q)_{s-1}, which depend only on the index offset j, so one weight
table per (q, s, depth) serves every output point.  Lower limits must be
lattice points or 0; with a lattice lower limit every integral is an exact
finite sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DepthError, DomainError
from .qcore import _INT_WINDOW, QParams, q_gamma, q_pochhammer_fractional
from .qgrid import (
    Anchor,
    GridFunction,
    anchor_index,
    q_derivative_n,
    roundoff_window,
    tail_window,
)

__all__ = [
    "FracOrders",
    "rl_integral",
    "rl_derivative",
    "caputo_derivative",
    "hilfer_derivative",
    "derivative_stage_cut",
]


@dataclass(frozen=True)
class FracOrders:
    """Order pair (alpha, beta) with shared ceiling n and type mu in [0, 1].

    Exposes the derived orders gamma = beta + mu(n - beta) (governs the
    initial-term powers) and nu = beta + mu(alpha - beta) (the order of the
    iterated integral); both lie in (n-1, n] and gamma >= nu.
    """

    alpha: float
    beta: float
    mu: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"order ceiling n must be a positive integer, got {self.n}")
        if not (self.n - 1 < self.alpha <= self.n):
            raise DomainError(
                f"alpha={self.alpha!r} must lie in (n-1, n] = ({self.n - 1}, {self.n}]"
            )
        if not (self.n - 1 < self.beta <= self.n):
            raise DomainError(
                f"beta={self.beta!r} must lie in (n-1, n] = ({self.n - 1}, {self.n}]"
            )
        if not (0.0 <= self.mu <= 1.0):
            raise DomainError(f"type mu={self.mu!r} must lie in [0, 1]")

    @property
    def gamma(self) -> float:
        return self.beta + self.mu * (self.n - self.beta)

    @property
    def nu(self) -> float:
        return self.beta + self.mu * (self.alpha - self.beta)


@lru_cache(maxsize=128)
def _kernel_weights(q: float, eps_product: float, max_terms: int, alpha: float, b: float,
                    length: int) -> tuple[np.ndarray, np.ndarray]:
    """I^alpha's weights w_j = (q**(j+1); q)_{alpha-1} and row prefactor on {b q**m : m < length}.

    Both are read-only, j and m running over 0..length-1; the prefactor is
    x_m**(alpha-1) (1-q)/G_q(alpha).

    w_0 comes from the log-space product ratio; the rest follow the exact
    one-step recurrence w_{j+1} = w_j (1 - q**(j+alpha)) / (1 - q**(j+1))
    implied by the splitting law, at O(1) per entry.  Against 40-digit mpmath,
    over orders 0.05..3, the relative error is at most 3.4e-15 at q = 0.5,
    M = 200; 1.1e-14 at q = 0.9, M = 800; 6.1e-14 at q = 0.98, M = 4000.  Up to
    1.2e-14 of it is in w_0, the rest is roundoff the recurrence accumulates
    with depth.  The solver's lattice q-power bases are read from these
    tables, so this is their error budget too.  The weights tend monotonically
    to 1 as j grows, as w_j = (q**(j+1); q)_inf / (q**(j+alpha); q)_inf, which
    :func:`_lattice_sums` uses to sum the far field as a plain Jackson tail.
    The points x_m are formed as LatticeGrid forms them, so the prefactor has
    the bits of one computed from ``grid.points``.
    """
    p = QParams(q, eps_product=eps_product, max_terms=max_terms)
    w = np.empty(length)
    w[0] = q_pochhammer_fractional(p, q, alpha - 1.0)
    j = np.arange(length - 1, dtype=float)
    factors = (1.0 - q ** (j + alpha)) / (1.0 - q ** (j + 1.0))
    w[1:] = w[0] * np.cumprod(factors)
    x = b * q ** np.arange(length, dtype=float)
    pref = x ** (alpha - 1.0) * (1.0 - q) / q_gamma(p, alpha)
    w.setflags(write=False)
    pref.setflags(write=False)
    return w, pref


def _integral_table(grid, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """I^alpha on the grid: its weights w_j and its row prefactor x**(alpha-1) (1-q)/G_q(alpha).

    Row m of the 0-anchored integral of u is pref_m times the lattice sum
    sum_j w_j x_(m+j) u_(m+j).  Both arrays are read-only and come from the
    one :func:`_kernel_weights` cache, so a warm call forms neither G_q(alpha)
    nor a power of the points.
    """
    p = grid.params
    return _kernel_weights(p.q, p.eps_product, p.max_terms, alpha, grid.b, grid.depth + 1)


# A banded row may drop at most this fraction of itself: one unit roundoff.
_BAND_EPS = 2.0**-53
# Row 0's target for the band, 2**-10 below _BAND_EPS, so that deeper rows that
# decay more slowly than row 0 still pass the every-row certificate.
_FAR_EPS = 2.0**-63
# Floor of the far-field distance d_j = max(|w_j - 1|, _FAR_FLOOR).  With it the
# every-row certificate d_L S_(m+L) <= _BAND_EPS |row m| also keeps the plain
# tail S_(m+L) at most 2**-20 of the row, so its summation roundoff stays out
# of the row's last digits.
_FAR_FLOOR = 2.0**-33
# Shortest s for which a band is tried: below it the band's bookkeeping, about
# ten array calls, costs more than the whole correlation.  Measured on a shared
# 2-core Xeon (median of 9 x 100 calls, x**p inputs, orders 0.3-1.4): at
# n = 201 a passing band took 50 us against 18 us for the full correlation; at
# n = 401-513 the two were about even; at n = 801 the band took 52-110 us
# against 102-472 us, and a failed band added 10-20 us.  Past it a band of any
# width L < n pays: n L multiply-adds against the full correlation's n**2.
_BAND_MIN = 512


def _band_width(s: np.ndarray, w: np.ndarray) -> tuple[int, np.ndarray | None, np.ndarray | None]:
    """Band width L for :func:`_lattice_sums`, the distances d_j and the suffix sums S_k.

    s is one-signed and S_k = sum_(j>=k) |s_j|.  Row m < n - L, with the plain
    tail sum_(k>=m+L) s_k added by the caller, drops sum_(j>=L) (w_j - 1) s_(m+j),
    which is at most d_L S_(m+L) with d_j = max(|w_j - 1|, 2**-33), non-increasing
    as w tends monotonically to 1.  L is the smallest L >= 1 with
    d_L S_L <= 2**-63 |row 0|, a margin of 2**-10 on the 2**-53 every row is
    held to, and len(s) when no L < len(s) qualifies.

    Returns (len(s), None, None), no band, when row 0 is not finite.
    """
    n = len(s)
    tol = _FAR_EPS * abs(float(np.dot(w[:n], s)))
    if not tol < math.inf:
        return n, None, None
    d = np.maximum(np.abs(w[:n] - 1.0), _FAR_FLOOR)
    suffix = np.cumsum(np.abs(s[::-1]))[::-1]
    return max(int(np.searchsorted(-(d * suffix), -tol)), 1), d, suffix


def _lattice_sums(s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row sums sum_j w_j s_(m+j) of a 0-anchored lattice integral, for every row m of s.

    Certified short memory, for one-signed s of more than _BAND_MIN summands.
    The weights tend monotonically to 1, so deep in a row the integral is the
    plain Jackson sum: row m is sum_(j<L) w_j s_(m+j) plus the plain tail
    sum_(k>=m+L) s_k (one reversed cumsum), and only the far field
    sum_(j>=L) (w_j - 1) s_(m+j) is dropped, at most d_L S_(m+L) with
    d_j = max(|w_j - 1|, 2**-33).  L comes from row 0 (:func:`_band_width`),
    at any width below n; the banded sums are returned when the dropped part
    is at most 2**-53 of the banded sum on every row.  Otherwise (s that
    changes sign, whose rows may cancel; a row that cancels, no L < n, s of at
    most _BAND_MIN entries, a non-finite row 0) the result is the full
    correlation.  So the sums are within 2**-53 of the full ones plus
    summation-order roundoff; they are not bit-identical to per-row dot
    products.

    w holds at least len(s) positive weights that tend monotonically to 1,
    as the kernel tables do (w_(j+1)/w_j = (1-q**(j+alpha))/(1-q**(j+1)) is
    >= 1 exactly when alpha >= 1, and w_j -> 1); s must not be empty.
    """
    n = len(s)
    if n > _BAND_MIN:
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite sums are the caller's
            positive = bool(s.min() >= 0.0)  # nan: neither positive nor negative
            if positive or s.max() <= 0.0:
                L, d, suffix = _band_width(s, w)
                if L < n:
                    sums = np.correlate(s, w[:L], "full")[L - 1:]
                    sums[:n - L] += suffix[L:] if positive else -suffix[L:]
                    drop = d[L] * suffix[L:]
                    if np.all(drop <= _BAND_EPS * np.abs(sums[:n - L])):
                        return sums
    return np.correlate(s, w[:n], "full")[n - 1:]


# Rows per block of :func:`_lattice_solve` and of :func:`qfrac.solver.picard_solve`:
# each block sums its history from the deeper rows in one correlation
# (:func:`_block_history`) and works on its own rows through one dense
# :func:`_block_toeplitz`, a triangular solve there and a product per Picard sweep.
_SOLVE_BLOCK = 64


def _block_toeplitz(w: np.ndarray, size: int) -> np.ndarray:
    """The size x size upper-triangular Toeplitz of the weights: entry (i, j) is w_(j-i).

    Row i of a block of rows lo.. sums its own rows' part sum_(j>=i) w_(j-i) s_(lo+j).
    """
    i = np.arange(size)
    d = i - i[:, None]
    return np.where(d >= 0, w[np.maximum(d, 0)], 0.0)


def _block_history(w: np.ndarray, s: np.ndarray, rows: int) -> np.ndarray:
    """A block's history: row i < rows reads sum_k w_(rows-i+k) s_k from the summands below it.

    s holds the deeper rows' summands from the block's end on, so row lo + i of
    the block [lo, lo + rows) gets the part sum_(k>=lo+rows) w_(k-lo-i) s_k of its
    lattice sum: one "valid" np.correlate of about rows * len(s) multiply-adds.
    """
    return np.correlate(w[1:rows + len(s)], s, "valid")[::-1]


def _triangular_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution of a v = b for upper-triangular a with a nonzero diagonal.

    One np.linalg.solve when b is finite and the solve forms no nan (it raises
    LinAlgError on one).  Otherwise row by row from the last, so a non-finite
    value reaches only the rows above it, as in exact substitution: the solve
    would spread it to every row.
    """
    if np.isfinite(b).all():
        try:
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            pass
    v = b.copy()
    for m in range(len(b) - 1, -1, -1):
        v[m] = (v[m] - a[m, m + 1:] @ v[m + 1:]) / a[m, m]
    return v


def _lattice_solve(f: np.ndarray, x: np.ndarray, w: np.ndarray, pref: np.ndarray,
                   lam: float, what: str) -> np.ndarray:
    """The solution u of u = I f + lam I u on the 0-anchored lattice x, I = I^alpha.

    w and pref are I^alpha's weights and row prefactor (:func:`_integral_table`), so row
    m reads u_m = pref_m sum_(k>=m) w_(k-m) s_k with s_k = x_k (f_k + lam u_k), the rows
    of :func:`rl_integral`.  Row m involves only the rows k >= m, and its diagonal is
    1 - lam pref_m w_0 x_m = 1 - lam x_m**alpha (1-q)**alpha, at least 1 - r > 0 under
    the certificate r = |lam| b**alpha (1-q)**alpha < 1.  So substitution from the
    deepest row solves the system exactly, with no stop rule.

    Blocks of _SOLVE_BLOCK rows go deepest first.  A block [lo, hi) sums its own
    forcing, sum_(lo<=k<hi) w_(k-m) x_k f_k, and its history sum_(k>=hi) w_(k-m) s_k
    from the rows already solved in one np.correlate call each, then solves its
    own upper-triangular rows (:func:`_triangular_solve`): about n**2/2
    multiply-adds in ceil(n/_SOLVE_BLOCK) numpy passes.  The first row found past
    double range, the deepest non-finite one, raises one DomainError that names
    ``what`` and its lattice index, with no numpy warning.
    """
    n = len(f)
    u = np.empty(n)
    s = np.empty(n)  # the summands x_k (f_k + lam u_k) of the solved rows
    size = min(_SOLVE_BLOCK, n)
    toeplitz = _block_toeplitz(w, size)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are named below
        for hi in range(n, 0, -size):
            lo = max(hi - size, 0)
            t, xb, pb = toeplitz[:hi - lo, :hi - lo], x[lo:hi], pref[lo:hi]
            rows = np.correlate(xb * f[lo:hi], w[:hi - lo], "full")[hi - lo - 1:]
            if hi < n:
                rows += _block_history(w, s[hi:], hi - lo)
            rows *= pb
            a = t * xb
            a *= (-lam * pb)[:, None]
            a.flat[::hi - lo + 1] += 1.0
            rows = _triangular_solve(a, rows)
            if not np.isfinite(rows).all():
                k = lo + int(np.flatnonzero(~np.isfinite(rows))[-1])
                raise DomainError(f"{what} leaves double range: non-finite value at "
                                  f"lattice index {k} (x={float(x[k])!r})")
            u[lo:hi] = rows
            s[lo:hi] = xb * (f[lo:hi] + lam * rows)
    return u


def rl_integral(u: GridFunction, a: Anchor, alpha: float) -> GridFunction:
    """Riemann-Liouville fractional q-integral of order alpha > 0 from a.

    Output values at lattice points below a are zero and masked out of the
    domain.  With a lattice lower limit every value is an exact finite sum;
    anchored at 0 the sums truncate at the grid depth.

    The sums are :func:`_lattice_sums` of s_k = x_k u_k with the offset-only
    weights w_j: on more than _BAND_MIN points each row sums only the band of
    weights its suffix bound certifies (plus the plain Jackson tail when s is
    one-signed; dropped part at most 2**-53 of the row), else the full row, so
    values agree with per-row dot products to roundoff, not bit for bit.  The
    prefactor x_m**(alpha-1) (1-q)/G_q(alpha), cached with the weights,
    multiplies the finished sums, because folded into the weights it under-
    and overflows at deep indices.  No FFT: its absolute error swamps the
    geometrically decaying deep values.  No dense operator matrix: it costs
    (M+1)**2 memory.
    """
    return _integral(u, a, alpha, u.grid.depth + 1)


def _integral(u: GridFunction, a: Anchor, alpha: float, rows: int) -> GridFunction:
    """:func:`rl_integral` over the first ``rows`` rows and summands; later rows stay 0."""
    if alpha <= 0.0:
        raise DomainError(f"integral order must be positive, got {alpha!r}")
    g = u.grid
    m_a = anchor_index(a)
    w, pref = _integral_table(g, alpha)
    out = np.zeros(g.depth + 1)
    stop = min(rows, g.depth + 1 if m_a is None else m_a)  # sum over indices m..stop-1
    top = g.depth + 1 if m_a is None else m_a + 1
    # values past double range stay non-finite; GridFunction names the first index
    with np.errstate(over="ignore", invalid="ignore"):
        if stop > 0:
            out[:stop] = pref[:stop] * _lattice_sums(g.points[:stop] * u.values[:stop], w)
    return GridFunction(g, out, domain_stop=min(top, u.domain_stop), guard=u.guard)


def _ceil_order(alpha: float) -> int:
    r = round(alpha)
    if abs(alpha - r) < _INT_WINDOW:
        return int(r)
    return math.ceil(alpha)


def rl_derivative(u: GridFunction, a: Anchor, alpha: float) -> GridFunction:
    """Riemann-Liouville fractional q-derivative D_q^n I^(n-alpha), n = ceil(alpha).

    The trusted range shrinks by n indices at the deep end (tracked through
    the guard count).
    """
    if alpha <= 0.0:
        raise DomainError(f"derivative order must be positive, got {alpha!r}")
    n = _ceil_order(alpha)
    if u.grid.depth < n + 1:
        raise DepthError(f"derivative of order {alpha!r} needs grid depth >= {n + 1}")
    frac = n - alpha
    v = u if frac < _INT_WINDOW else rl_integral(u, a, frac)
    return q_derivative_n(v, n)


def caputo_derivative(u: GridFunction, a: Anchor, alpha: float) -> GridFunction:
    """Caputo fractional q-derivative I^(1-alpha) D_q for alpha in (0, 1].

    The mu = 1 reduction of the two-order derivative, evaluated as one:
    there gamma = alpha + (1 - alpha) is 1.0 and gamma - nu is 1.0 - alpha.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"Caputo order must lie in (0, 1], got {alpha!r}")
    return hilfer_derivative(u, a, FracOrders(alpha=alpha, beta=alpha, mu=1.0, n=1))


# double-precision information floor target for the n >= 2 compositions
_ROUNDOFF_TARGET = 1e-9


def derivative_stage_cut(u: GridFunction, a: Anchor, orders: FracOrders) -> int:
    """One past the deepest index of D^gamma u usable under an outer integral.

    With a lattice lower limit, and anchored at 0 with integer gamma (the
    stage is then D_q^n of samples and truncates nothing), only the
    derivative's edge indices are excluded.  Otherwise two effects bound the
    usable depth: the inner integral carries a relative truncation tail
    ~ q**((M+1-m) d) with d = gamma - n + 1 (the weakest decay of the power
    family the operator is built for) that the n-fold q-derivative amplifies
    by q**(-m n); and plain roundoff in the derivative stage grows like
    eps * q**(-m n) against values ~ q**(m(n-1)), of which the outer kernel
    weight q**m cancels only one power.  The cut keeps the first below the
    default target of :func:`qfrac.qgrid.tail_window` and the second below
    1e-9 (:func:`qfrac.qgrid.roundoff_window`); for n >= 2 this is a genuine
    double-precision information floor of the 0-anchored composition.
    """
    m_a = anchor_index(a)
    if m_a is not None:
        return max(m_a + 1 - orders.n, 1)
    if abs(orders.gamma - orders.n) < _INT_WINDOW:
        return u.grid.depth + 1 - orders.n
    q = u.grid.q
    stop = tail_window(q, u.grid.depth, min(orders.gamma - orders.n + 1.0, 1.0), orders.n)
    if orders.n >= 2:
        stop = min(stop, roundoff_window(q, orders.n - 1, 0, _ROUNDOFF_TARGET))
    return max(stop, 1)


def _integrate_stage(d: GridFunction, u: GridFunction, a: Anchor, orders: FracOrders,
                     step: float) -> GridFunction:
    """Outer integral I^step of the derivative stage d of u, untrusted indices zeroed.

    A vanishing step returns d.  Values of d at indices >= the stage cut
    (see :func:`derivative_stage_cut`) are edge padding or amplified
    truncation noise; summing only the first ``cut`` summands and rows (the
    rest are exact zeros) keeps the kernel from spreading noise into the
    trusted window, at the price of dropping a true contribution that is
    deep-tail-weighted and below the stage target there.
    """
    if step < _INT_WINDOW:
        return d
    cut = min(derivative_stage_cut(u, a, orders), d.trusted_stop)
    out = _integral(d, a, step, cut)
    return out.with_values(out.values, guard=max(out.domain_stop - cut, 0))


def hilfer_derivative(u: GridFunction, a: Anchor, orders: FracOrders) -> GridFunction:
    """Two-order fractional q-derivative of type mu: I^(gamma-nu) D^gamma u.

    Reduces to the RL derivative of order beta at mu = 0 and to the Caputo
    derivative of order alpha at mu = 1.  A vanishing outer order
    short-circuits to the identity (the operator limit) rather than
    evaluating a degenerate kernel.  The derivative stage is sanitized
    before the outer integral (see :func:`derivative_stage_cut`); the
    output guard marks everything beyond the stage cut untrusted.
    """
    if u.grid.depth < orders.n + 1:
        raise DepthError(f"orders with n={orders.n} need grid depth >= {orders.n + 1}")
    d = rl_derivative(u, a, orders.gamma)
    return _integrate_stage(d, u, a, orders, orders.gamma - orders.nu)
