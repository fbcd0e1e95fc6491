"""Scalar q-arithmetic and q-special functions for a fixed base q in (0, 1).

Conventions used throughout the package:

* q-number          [a]_q = (1 - q**a) / (1 - q)
* q-factorial       [n]_q! = [1]_q [2]_q ... [n]_q
* q-Pochhammer      (a; q)_n = prod_{k<n} (1 - a q**k), extended to real
  order via the ratio (a; q)_s = (a; q)_inf / (a q**s; q)_inf
* q-gamma           G_q(x) = (q; q)_inf / (q**x; q)_inf * (1 - q)**(1 - x)
* q-power basis     (x - a)^s_q = x**s * (a/x; q)_s, the q-analogue of the
  shifted power (x - a)**s

Infinite products are truncated at the first factor within ``eps_product``
of 1; the dropped logarithmic tail is then dominated by a geometric series,
so the relative truncation error stays below the tolerance for any q bounded
away from 1.  All arithmetic is plain double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NonConvergenceError, PoleError

__all__ = [
    "QParams",
    "q_number",
    "q_factorial",
    "q_pochhammer_finite",
    "q_pochhammer_infinite",
    "q_pochhammer_fractional",
    "q_gamma",
    "q_power_basis",
    "masked_power_basis",
]

# Absolute window around nonpositive integers treated as q-gamma poles.
_POLE_WINDOW = 1e-12
# Relative window used to detect vanishing denominator factors in the
# fractional q-Pochhammer ratio.
_RATIO_POLE_WINDOW = 1e-9
# Window for snapping nearly-integral orders to exact integers.
_INT_WINDOW = 1e-12


def _safe_exp(x: float) -> float:
    """exp with IEEE overflow-to-inf semantics."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class QParams:
    """Base q together with the truncation controls for products/series.

    ``eps_product`` bounds the relative truncation error of infinite
    products, ``eps_series`` the relative stopping threshold for series,
    and ``max_terms`` caps the truncation length of either.
    """

    q: float
    eps_product: float = 1e-15
    eps_series: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"q must lie strictly inside (0, 1), got {self.q}")
        if self.eps_product <= 0.0:
            raise DomainError("eps_product must be positive")
        if self.eps_series <= 0.0:
            raise DomainError("eps_series must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")


def q_number(p: QParams, alpha: float) -> float:
    """The q-real number [alpha]_q = (1 - q**alpha)/(1 - q)."""
    return (1.0 - p.q**alpha) / (1.0 - p.q)


def q_factorial(p: QParams, n: int) -> float:
    """The q-factorial [n]_q!; equals 1 for n = 0."""
    if n < 0:
        raise DomainError(f"q-factorial needs n >= 0, got {n}")
    out = 1.0
    for k in range(1, n + 1):
        out *= q_number(p, k)
    return out


def q_pochhammer_finite(p: QParams, a: float, n: int) -> float:
    """Finite q-shifted factorial (a; q)_n = prod_{k<n} (1 - a q**k)."""
    if n < 0:
        raise DomainError(f"finite q-Pochhammer needs n >= 0, got {n}")
    if n == 0:
        return 1.0
    return float(np.prod(1.0 - a * p.q ** np.arange(n)))


def _product_length(p: QParams, a: float) -> int:
    """Factors needed until the geometric tail bound drops below eps_product.

    The relative size of the dropped tail of log(a;q)_inf after k factors is
    ~ |a| q**k / (1-q); cutting when that bound (not the bare factor) clears
    the tolerance keeps ratios of two such products consistent to a few
    eps_product even for q near 1.
    """
    mag = abs(a)
    if mag == 0.0:
        return 0
    target = p.eps_product * (1.0 - p.q)
    if mag < target:
        return 1
    return max(1, math.ceil(math.log(target / mag) / math.log(p.q)))


def _capped_length(p: QParams, a: float) -> int:
    n = _product_length(p, a)
    if n > p.max_terms:
        n = p.max_terms
        head = abs(a) * p.q**n
        tail_bound = head / ((1.0 - p.q) * max(1.0 - head, 1e-300))
        if tail_bound > p.eps_product:
            raise NonConvergenceError(
                f"(a;q)_inf with a={a!r}, q={p.q!r}: tail bound {tail_bound:.3e} "
                f"> eps_product after max_terms={p.max_terms} factors"
            )
    return n


def q_pochhammer_infinite(p: QParams, a: float) -> float:
    """Truncated infinite product (a; q)_inf = prod_{k>=0} (1 - a q**k).

    Truncation stops once the geometric tail bound falls below eps_product
    or at max_terms, whichever comes first; NonConvergenceError if the cap
    is hit while the tail bound still exceeds the tolerance.  For q very
    close to 1 the true value can be smaller than the double range and the
    product underflows to 0; ratio-based callers go through the log-space
    helpers instead.
    """
    if a == 0.0:
        return 1.0
    n = _capped_length(p, a)
    return float(np.prod(1.0 - a * p.q ** np.arange(n)))


def _signed_log_poch(p: QParams, a: float) -> tuple[float, float]:
    """(sign, log|value|) of (a; q)_inf; sign 0.0 marks an exact zero."""
    if a == 0.0:
        return 1.0, 0.0
    n = _capped_length(p, a)
    factors = 1.0 - a * p.q ** np.arange(n)
    if np.any(factors == 0.0):
        return 0.0, -math.inf
    sign = -1.0 if (np.count_nonzero(factors < 0.0) % 2) else 1.0
    return sign, float(np.sum(np.log(np.abs(factors))))


@lru_cache(maxsize=512)
def _log_euler(q: float, eps_product: float, max_terms: int) -> float:
    """log (q; q)_inf, cached per truncation profile (all factors positive)."""
    p = QParams(q, eps_product=eps_product, max_terms=max_terms)
    _, logval = _signed_log_poch(p, q)
    return logval


def q_pochhammer_fractional(p: QParams, a: float, alpha: float) -> float:
    """q-shifted factorial of real order: (a; q)_alpha = (a;q)_inf / (a q**alpha; q)_inf.

    Raises PoleError when a denominator factor vanishes, i.e. when
    a q**(alpha + k) = 1 for some integer k >= 0.  Computed as a ratio in
    log space, which stays finite even where the individual products leave
    double range.
    """
    shifted = p.q**alpha * a
    if shifted > 0.0:
        # factor 1 - shifted * q**k vanishes iff shifted = q**(-k) for some
        # k >= 0, i.e. log_q(shifted) is a nonpositive integer (window-based)
        t = math.log(shifted) / math.log(p.q)
        if t < _RATIO_POLE_WINDOW and abs(t - round(t)) < _RATIO_POLE_WINDOW:
            raise PoleError(
                f"(a;q)_alpha pole: a={a!r}, alpha={alpha!r} puts a q**alpha on q**(-k)"
            )
    s_den, l_den = _signed_log_poch(p, shifted)
    if s_den == 0.0:
        raise PoleError(f"(a;q)_alpha denominator vanished for a={a!r}, alpha={alpha!r}")
    s_num, l_num = _signed_log_poch(p, a)
    if s_num == 0.0:
        return 0.0
    return s_num * s_den * _safe_exp(l_num - l_den)


def q_gamma(p: QParams, x: float) -> float:
    """q-gamma function G_q(x); satisfies G_q(x+1) = [x]_q G_q(x).

    Defined for every real x away from the poles at 0, -1, -2, ...
    (detected within an absolute window of 1e-12).
    """
    r = round(x)
    if r <= 0 and abs(x - r) < _POLE_WINDOW:
        raise PoleError(f"q-gamma pole at x={x!r}")
    s_den, l_den = _signed_log_poch(p, p.q**x)
    if s_den == 0.0:
        raise PoleError(f"q-gamma pole at x={x!r}")
    l_num = _log_euler(p.q, p.eps_product, p.max_terms)
    return s_den * _safe_exp(l_num - l_den + (1.0 - x) * math.log(1.0 - p.q))


def q_gamma_ratio(p: QParams, x: float, step: float) -> float:
    """Overflow-safe ratio G_q(x) / G_q(x + step).

    Evaluates (q**(x+step); q)_inf / (q**x; q)_inf * (1-q)**step in log
    space, which stays O(1) even where the gammas themselves overflow.  Factors
    1 - q**e are -expm1(e log q) (-e log q where that underflows) to stay exact.
    """
    n = _capped_length(p, p.q ** min(x, x + step))
    if x <= 0.0 and x == round(x):
        raise PoleError(f"q-gamma ratio pole at x={x!r}")
    if x + step <= 0.0 and x + step == round(x + step):
        return 0.0  # G_q(x + step) sits on a pole, so the ratio vanishes
    if n == 0:  # q**x underflows: both products are 1
        return _safe_exp(step * math.log(1.0 - p.q))
    e = np.arange(n) + np.array([[x + step], [x]])
    t = e * math.log(p.q)
    tiny = np.abs(t) < 1e-300
    logs = np.log(np.abs(np.expm1(np.where(tiny, -1.0, t))))
    if tiny.any():
        logs[tiny] = np.log(np.abs(e[tiny])) + math.log(-math.log(p.q))
    sign = -1.0 if np.count_nonzero(e < 0.0) % 2 else 1.0
    return sign * _safe_exp(logs[0].sum() - logs[1].sum() + step * math.log(1.0 - p.q))


def q_power_basis(p: QParams, x: float, a: float, alpha: float) -> float:
    """q-power basis (x - a)^alpha_q = x**alpha * (a/x; q)_alpha.

    For nonnegative integer alpha this telescopes to the exact finite
    product prod_{k<alpha} (x - a q**k), valid for any real x.  Otherwise
    x must be positive and the ratio form is used; the singular limit
    x -> a from above of negative orders surfaces as a large finite value.
    """
    r = round(alpha)
    if abs(alpha - r) < _INT_WINDOW and r >= 0:
        if r == 0:
            return 1.0
        with np.errstate(over="ignore"):  # past double range: inf, for the caller to name
            return float(np.prod(x - a * p.q ** np.arange(r)))
    if x <= 0.0:
        raise DomainError(
            f"q-power basis with non-integer order {alpha!r} needs x > 0, got {x!r}"
        )
    return x**alpha * q_pochhammer_fractional(p, a / x, alpha)


def masked_power_basis(p: QParams, x: float, base: float, alpha: float) -> float:
    """(x - base)^alpha_q, but 0 below a positive base (relative tolerance 1e-12)."""
    if base > 0.0 and x < base * (1.0 - 1e-12):
        return 0.0
    return q_power_basis(p, x, base, alpha)
