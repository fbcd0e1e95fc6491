"""Two-parameter q-Mittag-Leffler function with a convergence certificate.

The series evaluated here is

    E_{A,B}[lam; x, a] = sum_{k>=0} lam**k x**(k A) (a/x; q)_{k A} / G_q(A k + B),

the q-analogue of the Mittag-Leffler function in the argument structure
lam * (x - a)^A_q.  Terms are built by ratio recurrences -- the fractional
Pochhammer grows one A-step per term through the splitting law
(c; q)_{(k+1)A} = (c; q)_{kA} (q**(kA) c; q)_A, and the gamma factor enters
as the overflow-safe ratio G_q(y)/G_q(y+A) -- so no individual factor ever
leaves double range while the certificate r = |lam| x**A (1-q)**A < 1 holds.
Outside that region the series has no assigned meaning and evaluation is a
hard error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DivergenceError, DomainError, NonConvergenceError
from .qcore import QParams, q_gamma, q_gamma_ratio, q_pochhammer_fractional

__all__ = ["MLSpec", "MLBound", "ml_eval", "ml_bound_check", "ml_terms"]

# consecutive sub-tolerance terms required before the series may stop;
# single-term tests can fire spuriously when the Pochhammer factor
# oscillates in magnitude
_STOP_RUN = 3


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
    """Convergence certificate: the series is geometric with ratio `ratio`.

    ``tail_bound`` is the uniform bound 1 / (|lam| b**alpha (1-q)**(alpha+1))
    on the absolute sum (infinite for lam = 0).
    """

    ratio: float
    tail_bound: float


def ml_bound_check(spec: MLSpec, b: float) -> MLBound:
    """Certificate for arguments up to b: ratio |lam| b**alpha (1-q)**alpha.

    Callers must treat ratio < 1 as the admissibility condition.
    """
    if b <= 0.0:
        raise DomainError(f"bound point b must be positive, got {b!r}")
    q = spec.params.q
    r = abs(spec.lam) * b**spec.alpha * (1.0 - q) ** spec.alpha
    tail = (
        float("inf")
        if r == 0.0
        else 1.0 / (abs(spec.lam) * b**spec.alpha * (1.0 - q) ** (spec.alpha + 1.0))
    )
    return MLBound(ratio=r, tail_bound=tail)


def ml_terms(spec: MLSpec, x: float, a: float = 0.0) -> tuple[float, list[float]]:
    """Partial sum and the individual terms of the series at (x, a).

    Stops once |term| < eps_series * |sum| holds for three consecutive terms;
    with ratio < 1 the dropped tail is geometric.  NonConvergenceError when
    max_terms terms pass first.
    """
    p = spec.params
    if x <= 0.0:
        raise DomainError(f"evaluation point x must be positive, got {x!r}")
    if a < 0.0 or a > x:
        raise DomainError(f"lower base a must satisfy 0 <= a <= x, got a={a!r}, x={x!r}")
    r = abs(spec.lam) * x**spec.alpha * (1.0 - p.q) ** spec.alpha
    if r >= 1.0:
        raise DivergenceError(
            f"|lam| x**alpha (1-q)**alpha = {r:.6g} >= 1: outside the convergence region"
        )
    c = a / x
    xa = x**spec.alpha
    term = 1.0 / q_gamma(p, spec.beta)  # k = 0
    total = term
    terms = [term]
    quiet = 0
    for k in range(p.max_terms):
        step = (
            q_pochhammer_fractional(p, p.q ** (k * spec.alpha) * c, spec.alpha)
            if c != 0.0
            else 1.0
        )
        gratio = q_gamma_ratio(p, spec.alpha * k + spec.beta, spec.alpha)
        term = term * spec.lam * xa * step * gratio
        total += term
        terms.append(term)
        if abs(term) < p.eps_series * abs(total):
            quiet += 1
            if quiet >= _STOP_RUN:
                break
        else:
            quiet = 0
    else:
        raise NonConvergenceError(
            f"q-Mittag-Leffler series at ratio {r:.6g}: last term {term:.3e} against "
            f"sum {total:.3e} after max_terms={p.max_terms} terms "
            f"(eps_series={p.eps_series:.1e})"
        )
    return total, terms


def ml_eval(spec: MLSpec, x: float, a: float = 0.0) -> float:
    """Evaluate the q-Mittag-Leffler series at x with lower base a.

    Requires the pointwise convergence condition
    |lam| x**alpha (1-q)**alpha < 1 (DivergenceError otherwise).
    """
    total, _ = ml_terms(spec, x, a)
    return total
