"""Two-parameter q-Mittag-Leffler function with a certified truncation rule.

The series evaluated here is

    E_{A,B}[lam; x, a] = sum_{k>=0} lam**k x**(k A) (a/x; q)_{k A} / G_q(A k + B),

the q-analogue of the Mittag-Leffler function in the argument structure
lam * (x - a)^A_q.  It converges where r = |lam| x**A (1-q)**A < 1; outside
that region evaluation is a hard error.  A term is formed afresh in log space
(below the poles of G_q, and the first of the blocks) or in a block: term k+1
is term k times z G_q(y_k)/G_q(y_k+A), z = lam s**A, y_k = Ak + B, so a block
of C terms reads C + 1 rows (q**y_k; q)_inf from one array call of the
log-space product kernel ``qcore._log_poch``, and its Pochhammer factors
(c; q)_{kA} = (c; q)_inf / (q**(kA) c; q)_inf come from one more call.  A
term or partial sum past double range is a DomainError that names it.

Every q-Mittag-Leffler series of the package is summed by :func:`ml_terms`
(the closed-form linear solve takes its head terms from it at the deepest
grid point) and stops by one rule.  Term k+1 is at most rho_k = |lam| s**A
G_q(Ak+B)/G_q(Ak+A+B) times term k, and rho_k falls towards r but never grows
because G_q is log-convex (Askey, Applicable Anal. 8, 1978).  So once rho_k < 1
the tail is at most |term k| rho_k/(1 - rho_k); the sum stops when that is
within eps_series * |sum|, or raises NonConvergenceError after max_terms terms.
The tail rule certifies the truncation, not the digits: ``qfrac ml-eval`` and the
closed form refuse a sum whose :func:`_summation_bound` passes eps_series * |sum|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DivergenceError, DomainError, NonConvergenceError
from .qcore import _INT_WINDOW, QParams, _length_bound, _log_euler, _log_poch

# Largest factor array of one block's product-kernel call: 2**16 doubles, 512 KiB.
_BLOCK_ENTRIES = 1 << 16

__all__ = ["MLSpec", "ml_eval", "ml_bound_check", "ml_terms"]


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


def ml_bound_check(spec: MLSpec, b: float) -> float:
    """The certificate for arguments up to b, |lam| b**alpha (1-q)**alpha: the term ratio
    falls to it, and callers must treat a value below 1 as the admissibility condition."""
    if b <= 0.0:
        raise DomainError(f"bound point b must be positive, got {b!r}")
    q = spec.params.q
    try:
        r = abs(spec.lam) * b**spec.alpha * (1.0 - q) ** spec.alpha
    except OverflowError:
        raise DomainError(f"b**alpha leaves double range: b={b!r}, alpha={spec.alpha!r}") from None
    return r


def _summation_bound(partials, norm=abs) -> float:
    """u sum_(i>=2) norm(T_i) over the running sums T_i (scalars, or arrays with a norm) of
    adding terms in order, u = 2**-53: the first-order bound on its roundoff (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, sec. 4.2)."""
    return 2.0**-53 * math.fsum(map(norm, partials[1:]))


def _past_range(alpha: float, beta: float, what: str) -> DomainError:
    """The one error for a term or partial sum of E_{alpha,beta} past double range."""
    return DomainError(f"q-Mittag-Leffler series E_{{{alpha:.6g},{beta:.6g}}}: "
                       f"{what} leaves double range")


def _fresh_term(p: QParams, alpha: float, beta: float, z: float, k: int,
                sign: float, l_den: float) -> float:
    """z**k / G_q(y) at y = alpha k + beta, given (sign, log) of (q**y; q)_inf.

    Formed as sign * exp(k log|z| - log|G_q(y)|), so a term in double range is
    found even where z**k or 1/G_q(y) alone leaves it; DomainError when the
    term itself does.
    """
    y = alpha * k + beta
    if sign == 0.0 or (k and z == 0.0):  # 1/G_q(y) vanishes, or z**k does
        return 0.0
    l_g = _log_euler(p.q, p.eps_product, p.max_terms) - l_den + (1.0 - y) * math.log(1.0 - p.q)
    try:
        t = math.exp((k * math.log(abs(z)) if k else 0.0) - l_g)
    except OverflowError:
        raise _past_range(alpha, beta, f"1/G_q({y!r})") from None
    return -t if (sign < 0.0) != (z < 0.0 and k % 2 == 1) else t


def _ml_series(p: QParams, alpha: float, beta: float, lam: float,
               s: float) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield blocks (k0, t, rho) of the terms t_k = lam**k s**(alpha k) / G_q(alpha k + beta).

    t[i] and rho[i] belong to k = k0 + i; term k+1 is at most rho_k |t_k|.
    While alpha k + beta is within the pole window of 0 or below it, where G_q
    is not log-convex and rho_k is infinite, each block is one term formed
    afresh by one product-kernel call (0 on a pole of G_q).  From there on,
    block lengths double from 8, or follow the caller's sent estimate of the
    terms still needed where that is shorter; a block of C terms takes its gamma
    ratios G_q(y_k)/G_q(y_k+alpha) from one array call over y_k = alpha k + beta
    for k0..k0+C, row k+1 serving as term k's numerator and term k+1's
    denominator, and only the first block forms its first term afresh.
    DomainError names the first term past double range; NonConvergenceError
    when the caller asks for more than max_terms terms.
    """
    z = lam * s**alpha
    rho = math.inf  # below the blocks
    k = 0
    while k < p.max_terms and alpha * k + beta < _INT_WINDOW:
        y = alpha * k + beta
        on_pole = abs(y - round(y)) < _INT_WINDOW  # round(y) <= 0 here
        t = 0.0 if on_pole else _fresh_term(p, alpha, beta, z, k, *_log_poch(p, 1.0, y))
        yield k, np.full(1, t), np.full(1, rho)
        k += 1
    # a row with |a q**s| <= 1 keeps at most `width` factors; C + 1 rows fill _BLOCK_ENTRIES
    width = min(p.max_terms, max(1, math.ceil(_length_bound(p, 0.0))))
    most = max(1, _BLOCK_ENTRIES // width - 1)
    step = alpha * math.log(1.0 - p.q)
    size, want, first = 8, None, True
    while k < p.max_terms:
        n = min(size, want or size, most, p.max_terms - k)
        _, lg = _log_poch(p, 1.0, alpha * np.arange(k, k + n + 1) + beta)
        v = np.empty(n + 1)
        v[0] = _fresh_term(p, alpha, beta, z, k, 1.0, float(lg[0])) if first else t
        with np.errstate(over="ignore", invalid="ignore"):  # named just below
            np.exp(lg[1:] - lg[:-1] + step, out=v[1:])
            v[1:] *= z  # z G_q(y_k)/G_q(y_k + alpha), the ratio of term k+1 to term k
            rhos = np.abs(v[1:])
            np.cumprod(v, out=v)
        if not np.isfinite(v[:n]).all():  # v[n] is the next block's to check
            raise _past_range(alpha, beta, f"term {k + int(np.flatnonzero(~np.isfinite(v))[0])}")
        want = yield k, v[:n], rhos
        t, rho, first = float(v[n]), float(rhos[-1]), False
        k += n
        size *= 2
    raise NonConvergenceError(
        f"q-Mittag-Leffler series E_{{{alpha:.6g},{beta:.6g}}}[{z:.6g}]: term ratio {rho:.6g}, "
        f"tail above eps_series={p.eps_series:.1e} after max_terms={p.max_terms} terms")


def ml_terms(spec: MLSpec, x: float, a: float = 0.0) -> tuple[float, list[float]]:
    """Partial sum and the individual terms of the series at (x, a), s = x.

    The Pochhammer factors of a block come from one array call of the product
    kernel, (c; q)_(k alpha) = (c; q)_inf / (c q**(k alpha); q)_inf with c = a/x
    (Gasper & Rahman, Basic Hypergeometric Series, 2nd ed., 2004, sec. 1.2); at
    c = 1 every term after the first is 0.  The running sum adds in term order.
    """
    p = spec.params
    if x <= 0.0:
        raise DomainError(f"evaluation point x must be positive, got {x!r}")
    if a < 0.0 or a > x:
        raise DomainError(f"lower base a must satisfy 0 <= a <= x, got a={a!r}, x={x!r}")
    r = ml_bound_check(spec, x)
    if r >= 1.0:
        raise DivergenceError(
            f"divergence: |lambda| x**alpha (1-q)**alpha = {r:.6g} >= 1 violates the "
            "convergence condition of the linear solution theorem")
    c = a / x
    l_c = _log_poch(p, c, 0.0)[1] if 0.0 < c < 1.0 else 0.0  # log (c; q)_inf
    total = 0.0
    terms: list[float] = []
    series = _ml_series(p, spec.alpha, spec.beta, spec.lam, x)
    block = next(series)
    while True:
        k0, t, rho = block
        if c == 1.0:
            t = np.where(np.arange(k0, k0 + len(t)) == 0, t, 0.0)
        elif c != 0.0:
            _, l_k = _log_poch(p, c, spec.alpha * np.arange(k0, k0 + len(t), dtype=float))
            t = t * np.exp(l_c - l_k)
        acc = t.copy()
        with np.errstate(over="ignore"):  # named just below
            acc[0] += total
            np.cumsum(acc, out=acc)
        if not np.isfinite(acc).all():
            raise _past_range(spec.alpha, spec.beta, "the partial sum through term "
                              f"{k0 + int(np.flatnonzero(~np.isfinite(acc))[0])}")
        # the stopping rule: |t_k| rho_k / (1 - rho_k) <= eps_series |sum| with rho_k < 1
        with np.errstate(invalid="ignore"):  # 0 * inf where rho is infinite
            within = (rho < 1.0) & (np.abs(t) * rho <= p.eps_series * np.abs(acc) * (1.0 - rho))
        stop = np.flatnonzero(within)
        n = int(stop[0]) + 1 if stop.size else len(t)
        terms.extend(t[:n].tolist())
        total = float(acc[n - 1])
        if stop.size:
            return total, terms
        # the next block: the fewest j with |t_k| rho**j rho/(1 - rho) <= eps_series |sum|
        # for the last term k (the terms fall at least by rho from there), plus 2
        # (the stop failed there, so |t_k| rho > 0)
        last, r = abs(float(t[-1])), float(rho[-1])
        bound = p.eps_series * abs(total) * (1.0 - r) / (last * r) if 0.0 < r < 1.0 else 0.0
        block = series.send(max(math.ceil(math.log(bound) / math.log(r)), 0) + 2
                            if bound > 0.0 else None)


def ml_eval(spec: MLSpec, x: float, a: float = 0.0) -> float:
    """Evaluate the q-Mittag-Leffler series at x with lower base a.

    Requires the pointwise convergence condition
    |lam| x**alpha (1-q)**alpha < 1 (DivergenceError otherwise).
    """
    total, _ = ml_terms(spec, x, a)
    return total
