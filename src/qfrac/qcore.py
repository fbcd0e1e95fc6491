"""Scalar q-arithmetic and q-special functions for a fixed base q in (0, 1).

Conventions used throughout the package:

* q-number          [a]_q = (1 - q**a) / (1 - q)
* q-factorial       [n]_q! = [1]_q [2]_q ... [n]_q
* q-Pochhammer      (a; q)_n = prod_{k<n} (1 - a q**k), extended to real
  order via the ratio (a; q)_s = (a; q)_inf / (a q**s; q)_inf
* q-gamma           G_q(x) = (q; q)_inf / (q**x; q)_inf * (1 - q)**(1 - x)
* q-power basis     (x - a)^s_q = x**s * (a/x; q)_s, the q-analogue of the
  shifted power (x - a)**s

Infinite products are formed in log space by one kernel, ``_log_poch``, and
truncated where the geometric bound on the dropped logarithmic tail falls
below ``eps_product``, so the relative truncation error stays below the
tolerance.  A product that would multiply out more than ``_TAIL_MIN`` factors
that way (about 40/(1-q): 1900 at q = 0.98) multiplies out only its factors
above 1/2 in modulus, about log 2/(1-q) of them, and sums the rest by Euler's
series log (z; q)_inf = -sum_(i>=1) z**i / (i (1 - q**i)), at most about 65
terms, cut where its remainder bound falls below ``eps_product``.  All
arithmetic is plain double precision.
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

# Relative window used to detect vanishing denominator factors in the
# fractional q-Pochhammer ratio.
_RATIO_POLE_WINDOW = 1e-9
# Absolute window within which a float counts as the nearest integer: nearly-integral
# orders snap to it, and q-gamma arguments this close to 0, -1, ... are its poles.
_INT_WINDOW = 1e-12
# Relative tolerance under which two floats name the same lattice point.
_LATTICE_RTOL = 1e-12
# Largest exponent t kept in _log_poch's factors 1 -+ e**t (e**709 is finite).
_EXP_SAFE = 709.0
# Direct length past which a float call of _log_poch, or a row of bases, takes
# Euler's tail.  Measured on a shared 2-core Xeon (best of 9 x 300 calls, a in
# {1, 0.7, -0.5}): the tail took 10.4-11.3 us at 900-1900 factors, the direct
# product 8.8-10.7 us at 900-925 and 10.9-12.2 us at 1227-1249.
_TAIL_MIN = 1000
# The same for a call of rows of shifts, by its longest row.  Replaying the 3000
# array calls of `qfrac verify` seeds 0-9 (same machine, best of 3 x 20): at
# 100-149 factors 9-row calls took 30 us direct against 46 us on the tail; at
# 250-349 calls of 8, 17 and 37 rows took 43, 62 and 101 us against 47, 46, 51 us.
_TAIL_MIN_ROWS = 200
_LOG2 = math.log(2.0)


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
    and ``max_terms`` caps the truncation length of either: the factors a
    product multiplies out, and on its tail path (see :func:`_log_poch`)
    also the terms of Euler's series, with NonConvergenceError past it.
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


def _length_bound(p: QParams, log_mag: float | np.ndarray) -> float | np.ndarray:
    """Factors of (a; q)_inf with |a| = exp(log_mag) that _capped_length rounds up.

    The relative size of the dropped tail of log(a;q)_inf after n factors is
    ~ |a| q**n / (1-q); cutting when that bound (not the bare factor) clears
    eps_product keeps ratios of two such products consistent to a few
    eps_product even for q near 1.  Elementwise on an array of log_mag.
    """
    return (math.log(p.eps_product * (1.0 - p.q)) - log_mag) / math.log(p.q)


def _capped_length(p: QParams, log_mag: float) -> int:
    """Factors kept of (a; q)_inf with |a| = exp(log_mag), at most max_terms.

    _length_bound rounded up; NonConvergenceError when the tail after
    max_terms factors still exceeds eps_product.
    """
    n = math.ceil(max(_length_bound(p, log_mag), 0.0))  # 0 for log_mag = -inf
    if n > p.max_terms:
        n, lq = p.max_terms, math.log(p.q)
        head = _safe_exp(log_mag + n * lq)
        tail_bound = head / ((1.0 - p.q) * max(1.0 - head, 1e-300))
        if tail_bound > p.eps_product:
            raise NonConvergenceError(
                f"(a;q)_inf with |a|={_safe_exp(log_mag)!r}, q={p.q!r}: tail bound "
                f"{tail_bound:.3e} > eps_product after max_terms={p.max_terms} factors"
            )
    return n


def q_pochhammer_infinite(p: QParams, a: float | np.ndarray) -> float | np.ndarray:
    """Truncated infinite product (a; q)_inf = prod_{k>=0} (1 - a q**k).

    Truncation stops once the geometric tail bound falls below eps_product
    or at max_terms, whichever comes first; NonConvergenceError if the cap
    is hit while the tail bound still exceeds the tolerance.  For q very
    close to 1 the true value can be smaller than the double range and the
    product underflows to 0; ratio-based callers go through the log-space
    kernel instead, which this direct product serves as a reference for.

    An array of a gives one product per entry, every entry truncated at the
    length the largest |a| needs; a float gives a float.
    """
    a = np.asarray(a, dtype=float)
    top = float(np.max(np.abs(a), initial=0.0))
    if top == 0.0:
        return 1.0 if a.ndim == 0 else np.ones(a.shape)
    n = _capped_length(p, math.log(top))
    out = np.prod(1.0 - np.multiply.outer(a, p.q ** np.arange(n)), axis=-1)
    return float(out) if a.ndim == 0 else out


def _log_poch(p: QParams, a: float | np.ndarray, s: float | np.ndarray) -> tuple:
    """(sign, log|value|) of (a q**s; q)_inf; sign 0.0 marks an exact zero.

    Factor k is 1 - a q**(k+s) = 1 - sign(a) e**t_k with t_k = log|a| + (k+s) log q,
    built in place on one array: -expm1(t_k) for a > 0, which keeps its digits
    next to a zero (k+s is exact there), and 1 + e**t_k for a < 0.  The j
    leading factors with t_k > 709, where e**t_k would overflow, have
    log|factor| = t_k to double precision; they are summed in closed form.

    A product multiplies out its direct length of factors (the _capped_length
    of its |a q**s|) until that passes _TAIL_MIN, or max_terms.  Past it, the
    product takes Euler's tail (:func:`_euler_split`): it multiplies out only
    its K factors with |a q**(k+s)| > 1/2 and adds I terms of Euler's series for
    the rest, and max_terms caps K and I.

    A 1-D array of shifts s, or of bases a (s a float), gives one product per
    entry, as arrays of signs and logs: row i keeps the length its own entry
    gives, and its factors past that length are exactly 1.  Every factor of a
    row of shifts must be positive (a < 0, or a > 0 with a q**s < 1 on each
    row); the rows take Euler's tail together once the longest row's direct
    length passes _TAIL_MIN_ROWS, and are summed over the longest row.  A row
    of bases takes zero and negative factors, and is summed over its own length
    from log|a| formed as a float call forms it, taking Euler's tail by the
    float call's rule, so it carries the float call's bits.  The bases share one
    sign; the overflowing head is served for a float a only.
    """
    bases = isinstance(a, np.ndarray)
    rows = bases or isinstance(s, np.ndarray)
    if not bases and a == 0.0:
        return (np.ones(len(s)), np.zeros(len(s))) if rows else (1.0, 0.0)
    if bases:
        if a.min(initial=0.0) < 0.0 < a.max(initial=0.0):
            raise DomainError("array rows of (a q**s; q)_inf need bases of one sign")
        negative = a.min(initial=0.0) < 0.0
        # every factor amplifies a one-ulp change of log|a|; a = 0 is a product of 1
        log_a = np.array([math.log(abs(v)) if v else -math.inf for v in a.tolist()])
    else:
        negative, log_a = a < 0.0, math.log(abs(a))
    lq = math.log(p.q)
    head = log_a + s * lq
    peak = float(np.maximum.reduce(head, initial=-math.inf)) if rows else head  # largest head
    top = 0  # terms of Euler's tail series: none on the direct path
    if rows:
        if peak > _EXP_SAFE if negative or bases else peak >= 0.0:
            need = "|a q**s| <= e**709" if bases else "positive factors"
            raise DomainError(f"array rows of (a q**s; q)_inf need {need}: a={a!r}")
        n = np.ceil(np.maximum(_length_bound(p, head), 0.0))  # each row's direct length
        tail = n > min(_TAIL_MIN if bases else _TAIL_MIN_ROWS, p.max_terms)
        if tail.any():
            if bases:  # the tail rows' K, log|z| and I; the other rows take no series term
                n_i, z_log = np.zeros(len(n)), np.full(len(n), -math.inf)
                n[tail], z_log[tail], n_i[tail] = _euler_split(p, log_a[tail], s, head[tail])
            else:
                n, z_log, n_i = _euler_split(p, log_a, s, head)
            top = int(np.maximum.reduce(n_i))
        n = n.astype(int)
        k = np.arange(n.max(initial=0), dtype=float)
        if bases:
            t = np.add.outer(log_a, (k + s) * lq)
        else:
            t = np.add.outer(s, k)
            t *= lq
            t += log_a
        t[k >= n[:, None]] = -math.inf  # a factor of exactly 1 past the row's length
        sign = np.ones(len(head))
    else:
        if head > _EXP_SAFE:
            j = math.ceil((head - _EXP_SAFE) / -lq)
            sign, rest = _log_poch(p, a, s + j)
            lead = j * head + lq * (j * (j - 1) / 2)  # sum of t_k over k < j
            return (-sign if a > 0.0 and j % 2 else sign), lead + rest
        n = math.ceil(max(_length_bound(p, head), 0.0))  # 0 for head = -inf
        if n > min(_TAIL_MIN, p.max_terms):
            n, z_log, top = _euler_split(p, log_a, s, head)
        elif n == 0:  # |a q**s| below eps_product (1-q), underflow included: the product is 1
            return 1.0, 0.0
        t = np.arange(n, dtype=float)
        t += s
        t *= lq
        t += log_a
        sign = 1.0
    # t falls with k, so only a > 0 with a q**s >= 1 leads to factors <= 0
    if not negative and peak >= 0.0:
        if rows:  # of bases
            sign[np.count_nonzero(t > 0.0, axis=1) % 2 == 1] = -1.0
            sign[(t == 0.0).any(axis=1)] = 0.0
            t[sign == 0.0] = -math.inf  # summed as a product of 1; its log is set below
        elif not t.all():
            return 0.0, -math.inf
        elif head > 0.0 and np.count_nonzero(t > 0.0) % 2:
            sign = -1.0
    if negative:
        np.log1p(np.exp(t, out=t), out=t)
    else:
        np.log(np.abs(np.expm1(t, out=t), out=t), out=t)
    if top:  # Euler's terms -z**i / (i (1 - q**i)), z = a q**(s+K), on the rows' own I
        i, den = _euler_denominators(p.q, int(top))
        e = np.multiply.outer(z_log, i)
        if rows:
            e[i > n_i[:, None]] = -math.inf  # a term of exactly 0 past the row's I
        np.exp(e, out=e)
        e /= den
        if negative:  # z < 0: the odd powers change sign
            e[..., ::2] *= -1.0
    if not rows:  # np.sum's pairwise sum, without its wrapper
        return sign, float(np.add.reduce(t) + np.add.reduce(e) if top else np.add.reduce(t))
    if not bases:
        log = np.add.reduce(t, axis=-1)
        return sign, log + np.add.reduce(e, axis=-1) if top else log
    log = np.array([np.add.reduce(row[:m]) for row, m in zip(t, n.tolist())], dtype=float)
    if top:  # a row below _TAIL_MIN adds the empty sum 0.0
        log += [np.add.reduce(row[:int(m)]) for row, m in zip(e, n_i.tolist())]
    log[sign == 0.0] = -math.inf
    return sign, log


def _euler_split(p: QParams, log_a, s, head) -> tuple:
    """K, log|z| and I of Euler's tail for (a q**s; q)_inf with |a q**s| = e**head.

    The product is its K leading factors with |a q**(k+s)| > 1/2 times
    (z; q)_inf at z = a q**(s+K), and log (z; q)_inf = -sum_(i>=1) z**i / (i (1 - q**i))
    (Euler; Gasper & Rahman, Basic Hypergeometric Series, 2nd ed., 2004, sec. 1.3).
    As i (1 - q**i) >= 1 - q and 1 - |z| >= 1/2, the series cut after I terms
    errs by at most |z|**(I+1) / ((1-q)(1 - |z|)) <= 2 |z|**(I+1) / (1-q); I is
    the fewest terms that puts this within eps_product.  Elementwise on arrays
    (rows) as on floats; NonConvergenceError when K or I passes max_terms.
    """
    rows = isinstance(head, np.ndarray)
    ceil, larger = (np.ceil, np.maximum) if rows else (math.ceil, max)
    lq = math.log(p.q)
    n_k = ceil(larger((head + _LOG2) / -lq, 0.0))  # the factors with t_k > -log 2
    z_log = log_a + (n_k + s) * lq  # at most -log 2
    n_i = larger(ceil(math.log(0.5 * p.eps_product * (1.0 - p.q)) / z_log) - 1, 0)
    top_k, top_i = (np.maximum.reduce(n_k), np.maximum.reduce(n_i)) if rows else (n_k, n_i)
    if max(top_k, top_i) > p.max_terms:
        raise NonConvergenceError(
            f"(a;q)_inf with |a q**s|={_safe_exp(float(np.max(head))):.6g}, q={p.q!r}: "
            f"{int(top_k)} factors above 1/2 and {int(top_i)} terms of Euler's tail "
            f"series, past max_terms={p.max_terms}")
    return n_k, z_log, n_i


@lru_cache(maxsize=512)
def _euler_denominators(q: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """i = 1..n and the denominators -i (1 - q**i) of Euler's tail series, read-only."""
    i = np.arange(1.0, n + 1.0)
    den = i * np.expm1(i * math.log(q))
    i.setflags(write=False)
    den.setflags(write=False)
    return i, den


@lru_cache(maxsize=512)
def _log_euler(q: float, eps_product: float, max_terms: int) -> float:
    """log (q; q)_inf, cached per truncation profile (all factors positive)."""
    return _log_poch(QParams(q, eps_product=eps_product, max_terms=max_terms), 1.0, 1.0)[1]


def q_pochhammer_fractional(p: QParams, a: float | np.ndarray,
                            alpha: float) -> float | np.ndarray:
    """q-shifted factorial of real order: (a; q)_alpha = (a;q)_inf / (a q**alpha; q)_inf.

    Raises PoleError when a denominator factor vanishes, i.e. when
    a q**(alpha + k) = 1 for some integer k >= 0.  Computed as a ratio in
    log space, which stays finite even where the individual products leave
    double range.  A 1-D array of a gives one value per entry from one row of
    the product kernel each; PoleError names the first entry on a pole.
    """
    s_den, l_den = _log_poch(p, a, alpha)
    # factor 1 - shifted * q**k vanishes iff shifted = q**(-k) for some k >= 0,
    # i.e. log_q(shifted) is a nonpositive integer (window-based)
    shifted = p.q**alpha * a
    array = isinstance(a, np.ndarray)
    if array:
        with np.errstate(divide="ignore", invalid="ignore"):  # shifted <= 0: no pole
            t = np.log(shifted) / math.log(p.q)
            pole = (s_den == 0.0) | ((t < _RATIO_POLE_WINDOW)
                                     & (np.abs(t - np.round(t)) < _RATIO_POLE_WINDOW))
        on_pole = float(a[pole][0]) if pole.any() else None
    else:
        t = math.log(shifted) / math.log(p.q) if shifted > 0.0 else 1.0
        on_pole = a if s_den == 0.0 or (t < _RATIO_POLE_WINDOW
                                        and abs(t - round(t)) < _RATIO_POLE_WINDOW) else None
    if on_pole is not None:
        raise PoleError(f"(a;q)_alpha pole: a={on_pole!r}, alpha={alpha!r} puts a q**alpha "
                        "on q**(-k)")
    s_num, l_num = _log_poch(p, a, 0.0)
    if array:
        with np.errstate(over="ignore"):  # past double range: inf, as _safe_exp gives it
            return np.where(s_num == 0.0, 0.0, s_num * s_den * np.exp(l_num - l_den))
    if s_num == 0.0:
        return 0.0
    return s_num * s_den * _safe_exp(l_num - l_den)


def q_gamma(p: QParams, x: float) -> float:
    """q-gamma function G_q(x); satisfies G_q(x+1) = [x]_q G_q(x).

    Defined for every real x away from the poles at 0, -1, -2, ...
    (detected within an absolute window of 1e-12).
    """
    r = round(x)
    if r <= 0 and abs(x - r) < _INT_WINDOW:
        raise PoleError(f"q-gamma pole at x={x!r}")
    s_den, l_den = _log_poch(p, 1.0, x)  # no zero factor outside the pole window
    l_num = _log_euler(p.q, p.eps_product, p.max_terms)
    return s_den * _safe_exp(l_num - l_den + (1.0 - x) * math.log(1.0 - p.q))


def q_power_basis(p: QParams, x: float | np.ndarray, a: float,
                  alpha: float) -> float | np.ndarray:
    """q-power basis (x - a)^alpha_q = x**alpha * (a/x; q)_alpha.

    For nonnegative integer alpha this telescopes to the exact finite
    product prod_{k<alpha} (x - a q**k), valid for any real x.  Otherwise
    x must be positive and the ratio form is used; the singular limit
    x -> a from above of negative orders surfaces as a large finite value.
    A 1-D array of x gives one value per entry through one array call of each
    product; an entry differs from the float call only by the last rounding of
    numpy's power and exp.
    """
    array = isinstance(x, np.ndarray)
    r = round(alpha)
    if abs(alpha - r) < _INT_WINDOW and r >= 0:
        if r == 0 and not array:
            return 1.0
        with np.errstate(over="ignore"):  # past double range: inf, for the caller to name
            value = np.prod((x[:, None] if array else x) - a * p.q ** np.arange(r), axis=-1)
        return value if array else float(value)
    low = x.min(initial=math.inf) if array else x
    if low <= 0.0:
        raise DomainError(
            f"q-power basis with non-integer order {alpha!r} needs x > 0, got {float(low)!r}"
        )
    poch = q_pochhammer_fractional(p, a / x, alpha)
    if array:
        with np.errstate(over="ignore"):  # past double range: inf, for the caller to name
            return x**alpha * poch
    return x**alpha * poch


def masked_power_basis(p: QParams, x: float | np.ndarray, base: float,
                       alpha: float) -> float | np.ndarray:
    """(x - base)^alpha_q, but 0 below a positive base (relative tolerance _LATTICE_RTOL);
    a 1-D array of x gives one value per entry, as q_power_basis does."""
    if isinstance(x, np.ndarray):
        out = np.zeros(len(x))
        kept = ~(x < base * (1.0 - _LATTICE_RTOL)) if base > 0.0 else np.ones(len(x), bool)
        out[kept] = q_power_basis(p, x[kept], base, alpha)
        return out
    if base > 0.0 and x < base * (1.0 - _LATTICE_RTOL):
        return 0.0
    return q_power_basis(p, x, base, alpha)
