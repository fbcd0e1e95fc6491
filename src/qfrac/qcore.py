"""Scalar q-arithmetic and q-special functions for a fixed base q in (0, 1).

Conventions used throughout the package:

* q-number          [a]_q = (1 - q**a) / (1 - q)
* q-factorial       [n]_q! = [1]_q [2]_q ... [n]_q
* q-Pochhammer      (a; q)_n = prod_{k<n} (1 - a q**k), extended to real
  order via the ratio (a; q)_s = (a; q)_inf / (a q**s; q)_inf
* q-gamma           G_q(x) = (q; q)_inf / (q**x; q)_inf * (1 - q)**(1 - x)
* q-power basis     (x - a)^s_q = x**s * (a/x; q)_s, the q-analogue of the
  shifted power (x - a)**s

Infinite products are formed in log space by one kernel and truncated where
the geometric bound on the dropped logarithmic tail falls below
``eps_product``, so the relative truncation error stays below the tolerance
for any q bounded away from 1.  All arithmetic is plain double precision.
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


def _capped_length(p: QParams, log_mag: float) -> int:
    """Factors kept of (a; q)_inf with |a| = exp(log_mag), at most max_terms.

    The relative size of the dropped tail of log(a;q)_inf after n factors is
    ~ |a| q**n / (1-q); cutting when that bound (not the bare factor) clears
    eps_product keeps ratios of two such products consistent to a few
    eps_product even for q near 1.
    """
    lq = math.log(p.q)
    n = max(0, math.ceil((math.log(p.eps_product * (1.0 - p.q)) - log_mag) / lq))
    if n > p.max_terms:
        n = p.max_terms
        head = _safe_exp(log_mag + n * lq)
        tail_bound = head / ((1.0 - p.q) * max(1.0 - head, 1e-300))
        if tail_bound > p.eps_product:
            raise NonConvergenceError(
                f"(a;q)_inf with |a|={_safe_exp(log_mag)!r}, q={p.q!r}: tail bound "
                f"{tail_bound:.3e} > eps_product after max_terms={p.max_terms} factors"
            )
    return n


def q_pochhammer_infinite(p: QParams, a: float) -> float:
    """Truncated infinite product (a; q)_inf = prod_{k>=0} (1 - a q**k).

    Truncation stops once the geometric tail bound falls below eps_product
    or at max_terms, whichever comes first; NonConvergenceError if the cap
    is hit while the tail bound still exceeds the tolerance.  For q very
    close to 1 the true value can be smaller than the double range and the
    product underflows to 0; ratio-based callers go through the log-space
    kernel instead, which this direct product serves as a reference for.
    """
    if a == 0.0:
        return 1.0
    n = _capped_length(p, math.log(abs(a)))
    return float(np.prod(1.0 - a * p.q ** np.arange(n)))


def _log_poch(p: QParams, a: float, s: float) -> tuple[float, float]:
    """(sign, log|value|) of (a q**s; q)_inf; sign 0.0 marks an exact zero.

    Factor k is 1 - a q**(k+s) = 1 - sign(a) e**t_k with t_k = log|a| + (k+s) log q,
    built in place on one array: -expm1(t_k) for a > 0, which keeps its digits
    next to a zero (k+s is exact there), and 1 + e**t_k for a < 0.
    """
    if a == 0.0:
        return 1.0, 0.0
    log_a, lq = math.log(abs(a)), math.log(p.q)
    head = log_a + s * lq
    n = _capped_length(p, head)
    if n == 0:  # |a q**s| below eps_product (1-q), underflow included: the product is 1
        return 1.0, 0.0
    t = np.arange(n, dtype=float)
    t += s
    t *= lq
    t += log_a
    if a < 0.0:
        return 1.0, float(np.log1p(np.exp(t, out=t), out=t).sum())
    # t falls with k, so only a q**s >= 1 leads to factors <= 0
    if head >= 0.0 and not t.all():
        return 0.0, -math.inf
    sign = -1.0 if head > 0.0 and np.count_nonzero(t > 0.0) % 2 else 1.0
    return sign, float(np.log(np.abs(np.expm1(t, out=t), out=t), out=t).sum())


@lru_cache(maxsize=512)
def _log_euler(q: float, eps_product: float, max_terms: int) -> float:
    """log (q; q)_inf, cached per truncation profile (all factors positive)."""
    return _log_poch(QParams(q, eps_product=eps_product, max_terms=max_terms), 1.0, 1.0)[1]


def q_pochhammer_fractional(p: QParams, a: float, alpha: float) -> float:
    """q-shifted factorial of real order: (a; q)_alpha = (a;q)_inf / (a q**alpha; q)_inf.

    Raises PoleError when a denominator factor vanishes, i.e. when
    a q**(alpha + k) = 1 for some integer k >= 0.  Computed as a ratio in
    log space, which stays finite even where the individual products leave
    double range.
    """
    s_den, l_den = _log_poch(p, a, alpha)
    # factor 1 - shifted * q**k vanishes iff shifted = q**(-k) for some k >= 0,
    # i.e. log_q(shifted) is a nonpositive integer (window-based)
    shifted = p.q**alpha * a
    t = math.log(shifted) / math.log(p.q) if shifted > 0.0 else 1.0
    if s_den == 0.0 or (t < _RATIO_POLE_WINDOW and abs(t - round(t)) < _RATIO_POLE_WINDOW):
        raise PoleError(f"(a;q)_alpha pole: a={a!r}, alpha={alpha!r} puts a q**alpha on q**(-k)")
    s_num, l_num = _log_poch(p, a, 0.0)
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
    s_den, l_den = _log_poch(p, 1.0, x)  # no zero factor outside the pole window
    l_num = _log_euler(p.q, p.eps_product, p.max_terms)
    return s_den * _safe_exp(l_num - l_den + (1.0 - x) * math.log(1.0 - p.q))


def q_gamma_ratio(p: QParams, x: float, step: float) -> float:
    """Overflow-safe ratio G_q(x) / G_q(x + step).

    Evaluates (q**(x+step); q)_inf / (q**x; q)_inf * (1-q)**step in log
    space, which stays O(1) even where the gammas themselves overflow.
    """
    if x <= 0.0 and x == round(x):
        raise PoleError(f"q-gamma ratio pole at x={x!r}")
    s_den, l_den = _log_poch(p, 1.0, x)
    if s_den == 0.0:
        # x log q underflows: shifting both gammas by G_q(y+1) = [y]_q G_q(y) multiplies
        # the ratio by [x+step]_q / [x]_q = expm1((x+step) log q) / (x log q)
        y, lq = x + step, math.log(p.q)
        return (math.expm1(y * lq) / lq if y * lq else y) / x * q_gamma_ratio(p, x + 1.0, step)
    s_num, l_num = _log_poch(p, 1.0, x + step)  # sign 0 on a pole of G_q(x + step)
    return s_num * s_den * _safe_exp(l_num - l_den + step * math.log(1.0 - p.q))


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
