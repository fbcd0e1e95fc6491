"""Two-parameter q-Mittag-Leffler function with a certified truncation rule.

The series evaluated here is

    E_{A,B}[lam; x, a] = sum_{k>=0} lam**k x**(k A) (a/x; q)_{k A} / G_q(A k + B),

the q-analogue of the Mittag-Leffler function in the argument structure
lam * (x - a)^A_q.  It converges where r = |lam| x**A (1-q)**A < 1; outside
that region evaluation is a hard error.  Terms are built by ratio recurrences
that keep every factor in double range: the Pochhammer grows by the splitting
law (c; q)_{(k+1)A} = (c; q)_{kA} (q**(kA) c; q)_A, a step of at most 1, the
gamma factor by the ratio G_q(y)/G_q(y+A).

Every q-Mittag-Leffler series of the package (here and in the closed-form
linear solve) stops by one rule.  Term k+1 is at most rho_k = |lam| s**A
G_q(Ak+B)/G_q(Ak+A+B) times term k, and rho_k falls towards r but never grows
because G_q is log-convex (Askey, Applicable Anal. 8, 1978).  So once rho_k < 1
the tail is at most |term k| rho_k/(1 - rho_k); the sum stops when that is
within eps_series * |sum|, or raises NonConvergenceError after max_terms terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import DivergenceError, DomainError, NonConvergenceError
from .qcore import _POLE_WINDOW, QParams, q_gamma, q_gamma_ratio, q_pochhammer_fractional

__all__ = ["MLSpec", "MLBound", "ml_eval", "ml_bound_check", "ml_terms"]


@dataclass(frozen=True)
class MLSpec:
    """Series order alpha > 0, shift beta, scalar multiplier lam, and base q."""

    alpha: float
    beta: float
    lam: float
    params: QParams

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise DomainError(f"series order alpha must be positive, got {self.alpha!r}")


@dataclass(frozen=True)
class MLBound:
    """Convergence certificate: the term ratio falls to `ratio`, which must be < 1."""

    ratio: float


def ml_bound_check(spec: MLSpec, b: float) -> MLBound:
    """Certificate for arguments up to b: ratio |lam| b**alpha (1-q)**alpha.

    Callers must treat ratio < 1 as the admissibility condition.
    """
    if b <= 0.0:
        raise DomainError(f"bound point b must be positive, got {b!r}")
    q = spec.params.q
    try:
        r = abs(spec.lam) * b**spec.alpha * (1.0 - q) ** spec.alpha
    except OverflowError:
        raise DomainError(f"b**alpha leaves double range: b={b!r}, alpha={spec.alpha!r}") from None
    return MLBound(ratio=r)


def _ml_series(p: QParams, alpha: float, beta: float, lam: float,
               s: float) -> Iterator[tuple[float, float]]:
    """Yield the terms t_k = lam**k s**(alpha k) / G_q(alpha k + beta) with rho_k.

    rho_k is infinite while alpha k + beta <= 0, where G_q is not log-convex.
    On a pole of G_q the term is 0, as 1/G_q vanishes there; the next term is
    formed afresh, since the ratio recurrence would carry the 0 on.
    DomainError when a freshly formed 1/G_q leaves double range;
    NonConvergenceError when the caller asks for more than max_terms terms.
    """
    z = lam * s**alpha
    t = None  # formed afresh at k = 0 and after a pole
    for k in range(p.max_terms):
        y = alpha * k + beta
        r = round(y)
        if r <= 0 and abs(y - r) < _POLE_WINDOW:
            t, rho = None, math.inf
            yield 0.0, rho
            continue
        if t is None:
            g0 = q_gamma(p, y)
            t = z**k / g0 if g0 else math.inf
            if math.isinf(t):
                raise DomainError(f"q-Mittag-Leffler series E_{{{alpha:.6g},{beta:.6g}}}: "
                                  f"1/G_q({y!r}) leaves double range")
        g = q_gamma_ratio(p, y, alpha)
        rho = abs(z * g) if y > 0.0 else math.inf
        yield t, rho
        t *= z * g
    raise NonConvergenceError(
        f"q-Mittag-Leffler series E_{{{alpha:.6g},{beta:.6g}}}[{z:.6g}]: term ratio {rho:.6g}, "
        f"tail above eps_series={p.eps_series:.1e} after max_terms={p.max_terms} terms")


def _tail_within(p: QParams, size: float, rho: float, total: float) -> bool:
    """The stopping rule: size * rho / (1 - rho) <= eps_series * |total| with rho < 1."""
    return rho < 1.0 and size * rho <= p.eps_series * abs(total) * (1.0 - rho)


def ml_terms(spec: MLSpec, x: float, a: float = 0.0) -> tuple[float, list[float]]:
    """Partial sum and the individual terms of the series at (x, a), s = x."""
    p = spec.params
    if x <= 0.0:
        raise DomainError(f"evaluation point x must be positive, got {x!r}")
    if a < 0.0 or a > x:
        raise DomainError(f"lower base a must satisfy 0 <= a <= x, got a={a!r}, x={x!r}")
    r = ml_bound_check(spec, x).ratio
    if r >= 1.0:
        raise DivergenceError(
            f"divergence: |lambda| x**alpha (1-q)**alpha = {r:.6g} >= 1 violates the "
            "convergence condition of the linear solution theorem")
    c = a / x
    poch = 1.0  # (c; q)_{k alpha}
    total = 0.0
    terms = []
    for k, (t, rho) in enumerate(_ml_series(p, spec.alpha, spec.beta, spec.lam, x)):
        term = t * poch
        total += term
        terms.append(term)
        if _tail_within(p, abs(term), rho, total):
            break
        if c != 0.0:
            poch *= q_pochhammer_fractional(p, p.q ** (k * spec.alpha) * c, spec.alpha)
    return total, terms


def ml_eval(spec: MLSpec, x: float, a: float = 0.0) -> float:
    """Evaluate the q-Mittag-Leffler series at x with lower base a.

    Requires the pointwise convergence condition
    |lam| x**alpha (1-q)**alpha < 1 (DivergenceError otherwise).
    """
    total, _ = ml_terms(spec, x, a)
    return total
