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
    q_derivative,
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
def _kernel_weights(q: float, eps_product: float, max_terms: int, alpha: float,
                    length: int) -> np.ndarray:
    """Weights w_j = (q**(j+1); q)_{alpha-1} for j = 0..length-1.

    w_0 comes from the product ratio; the rest follow the exact one-step
    recurrence w_{j+1} = w_j (1 - q**(j+alpha)) / (1 - q**(j+1)) implied by
    the splitting law, which costs O(1) per entry and keeps accumulated
    roundoff near machine level even for very deep tables.
    """
    p = QParams(q, eps_product=eps_product, max_terms=max_terms)
    w = np.empty(length)
    w[0] = q_pochhammer_fractional(p, q, alpha - 1.0)
    j = np.arange(length - 1, dtype=float)
    factors = (1.0 - q ** (j + alpha)) / (1.0 - q ** (j + 1.0))
    w[1:] = w[0] * np.cumprod(factors)
    w.setflags(write=False)
    return w


def _weights_for(grid, alpha: float) -> np.ndarray:
    p = grid.params
    return _kernel_weights(p.q, p.eps_product, p.max_terms, alpha, grid.depth + 1)


def rl_integral(u: GridFunction, a: Anchor, alpha: float) -> GridFunction:
    """Riemann-Liouville fractional q-integral of order alpha > 0 from a.

    Output values at lattice points below a are zero and masked out of the
    domain.  With a lattice lower limit every value is an exact finite sum;
    anchored at 0 the sums truncate at the grid depth.

    The sums are one correlation of s_k = x_k u_k with the offset-only
    weights w_j, bit-identical to per-row np.dot sums; the prefactor
    x_m**(alpha-1) (1-q)/G_q(alpha) multiplies the finished sums, because
    folded into the weights it under- and overflows at deep indices.  No
    FFT: its absolute error swamps the geometrically decaying deep values.
    No dense operator matrix: it costs (M+1)**2 memory.
    """
    if alpha <= 0.0:
        raise DomainError(f"integral order must be positive, got {alpha!r}")
    g = u.grid
    m_a = anchor_index(a)
    M = g.depth
    x = g.points
    w = _weights_for(g, alpha)
    pref = x ** (alpha - 1.0) * (1.0 - g.q) / q_gamma(g.params, alpha)
    out = np.zeros(M + 1)
    stop = M + 1 if m_a is None else m_a  # sum over indices m..stop-1
    top = M + 1 if m_a is None else m_a + 1
    # values past double range stay non-finite; GridFunction names the first index
    with np.errstate(over="ignore", invalid="ignore"):
        s = x * u.values
        if stop > 0:
            sums = np.correlate(s[:stop], w[:stop], "full")[stop - 1:]
            # numpy sums a full overlap of 2 to 11 terms in its own order, not np.dot's
            sums[0] = np.dot(w[:stop], s[:stop])
            out[:stop] = pref[:stop] * sums
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

    Shares the sanitized derivative-stage path of the two-order derivative,
    of which it is the mu = 1 reduction (bit-identical outputs).
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"Caputo order must lie in (0, 1], got {alpha!r}")
    orders_eff = FracOrders(alpha=alpha, beta=alpha, mu=1.0, n=1)
    return _integrate_stage(q_derivative(u), u, a, orders_eff, 1.0 - alpha)


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
    truncation noise; zeroing them keeps the kernel from spreading noise
    into the trusted window, at the price of dropping a true contribution
    that is deep-tail-weighted and below the stage target there.
    """
    if step < _INT_WINDOW:
        return d
    cut = min(derivative_stage_cut(u, a, orders), d.trusted_stop)
    clean = d.values.copy()
    clean[cut:] = 0.0
    staged = GridFunction(d.grid, clean, domain_stop=d.domain_stop)
    out = rl_integral(staged, a, step)
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
