"""q-Mittag-Leffler series: frozen values, brute-force oracle, certificates."""

import math

import numpy as np
import pytest

from qfrac import qcore, qml
from qfrac.errors import DivergenceError, DomainError, NonConvergenceError
from qfrac.qcore import QParams, q_gamma, q_pochhammer_fractional
from qfrac.qml import MLSpec, ml_bound_check, ml_eval, ml_terms

P5 = QParams(0.5)


def direct_series(spec: MLSpec, x: float, a: float, n_terms: int = 500) -> float:
    """Term-by-term summation with fresh per-term evaluations (no recurrences).

    Stops early once intermediates overflow double range; the true terms are
    far below roundoff by then (certificate ratio < 1).
    """
    p = spec.params
    total = 0.0
    for k in range(n_terms):
        if spec.lam == 0.0 and k > 0:
            break
        poch = q_pochhammer_fractional(p, a / x, k * spec.alpha) if a else 1.0
        term = (spec.lam**k * x ** (k * spec.alpha) * poch
                / q_gamma(p, spec.alpha * k + spec.beta))
        if not np.isfinite(term):
            break
        total += term
    return total


def gamma_ratio(p: QParams, y: float, alpha: float) -> float:
    """G_q(y)/G_q(y + alpha) = (q**(y+alpha); q)_inf / (q**y; q)_inf (1-q)**alpha."""
    s_den, l_den = qcore._log_poch(p, 1.0, y)
    s_num, l_num = qcore._log_poch(p, 1.0, y + alpha)
    return s_num * s_den * math.exp(l_num - l_den + alpha * math.log(1.0 - p.q))


def scalar_recurrence(spec: MLSpec, x: float, a: float = 0.0) -> tuple[float, list[float]]:
    """The series formed one term at a time by ratio recurrences, as a reference.

    Term k+1 is term k times z G_q(y)/G_q(y+alpha) from two scalar product
    calls, the Pochhammer factor a running product of (q**(k alpha) c; q)_alpha
    steps, and the stop is qml's tail rule; a term after a pole is formed afresh.
    """
    p, alpha = spec.params, spec.alpha
    z, c = spec.lam * x**alpha, a / x
    t, poch, total, terms = None, 1.0, 0.0, []
    for k in range(p.max_terms):
        y = alpha * k + spec.beta
        g, rho, term = None, math.inf, 0.0
        if not (round(y) <= 0 and abs(y - round(y)) < 1e-12):
            if t is None:
                t = z**k / q_gamma(p, y)
            g = gamma_ratio(p, y, alpha)
            rho = abs(z * g) if y > 0.0 else math.inf
            term = t * poch
        total += term
        terms.append(term)
        if rho < 1.0 and abs(term) * rho <= p.eps_series * abs(total) * (1.0 - rho):
            return total, terms
        if c:
            poch *= q_pochhammer_fractional(p, p.q ** (k * alpha) * c, alpha)
        t = None if g is None else t * z * g
    raise NonConvergenceError(f"max_terms={p.max_terms}")


def _spec(q: float, r: float, alpha: float = 0.7, beta: float = 0.9, x: float = 0.8) -> MLSpec:
    """The spec whose certificate ratio at x is |r|, with the sign of r."""
    return MLSpec(alpha, beta, r / (x**alpha * (1.0 - q) ** alpha), QParams(q))


class TestBlockSeries:
    """Terms formed in blocks agree with the one-term-at-a-time recurrence."""

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.98])
    @pytest.mark.parametrize("j", [None, 2])
    @pytest.mark.parametrize("r", [0.5, -0.5])
    def test_terms_match_scalar_recurrence(self, q, j, r):
        spec, x = _spec(q, r), 0.8
        a = 0.0 if j is None else x * q**j
        total, terms = ml_terms(spec, x, a)
        want_total, want = scalar_recurrence(spec, x, a)
        assert len(terms) == len(want)
        assert np.all(np.abs(np.subtract(terms, want)) <= 1e-13 * np.abs(want))
        assert abs(total - want_total) <= 1e-13 * np.sum(np.abs(want))

    def test_stop_inside_first_block(self):
        spec, x = _spec(0.3, 0.01), 0.8
        total, terms = ml_terms(spec, x)
        assert len(terms) < 8
        assert terms == pytest.approx(scalar_recurrence(spec, x)[1], rel=1e-14)

    def test_series_over_at_least_three_blocks(self):
        spec, x = _spec(0.98, 0.5), 0.8
        blocks = []
        for k0, t, rho in qml._ml_series(spec.params, spec.alpha, spec.beta, spec.lam, x):
            blocks.append(len(t))
            if len(blocks) == 4:
                break
        _, terms = ml_terms(spec, x)
        assert blocks[:2] == [8, 16] and len(terms) > sum(blocks[:3])

    @pytest.mark.parametrize("q, r, a", [(0.5, 0.98, 0.0), (0.5, -0.9, 0.0), (0.9, 0.95, 0.0),
                                         (0.5, 0.9, 0.8 * 0.5**2)])
    def test_blocks_sized_by_the_stop_rule(self, q, r, a, monkeypatch):
        # after a block, ml_terms asks for the terms its tail bound predicts plus 2, so the
        # last block ends at most 2 terms past the stop (plain doubling formed 2040 for 1370
        # at q 0.5, r 0.98); no block is longer than the doubling gives
        lengths, series = [], qml._ml_series

        def recording(*args):
            blocks = series(*args)
            block = next(blocks)
            while True:
                lengths.append(len(block[1]))
                block = blocks.send((yield block))

        monkeypatch.setattr(qml, "_ml_series", recording)
        spec = _spec(q, r)
        _, terms = ml_terms(spec, 0.8, a)
        assert len(terms) <= sum(lengths) <= len(terms) + 2
        assert all(n <= 8 * 2**i for i, n in enumerate(lengths))
        assert len(terms) == len(scalar_recurrence(spec, 0.8, a)[1])

    def test_cap_mid_block_raises_and_forms_no_later_term(self, monkeypatch):
        # blocks of 8 and 16 terms, then 13 of a 32-term block
        p = QParams(0.3, max_terms=37)
        spec = MLSpec(0.7, 0.9, 0.98 / (0.8**0.7 * 0.7**0.7), p)
        shifts = []

        def recording(p, a, s):
            shifts.append(np.max(s))
            return kernel(p, a, s)

        kernel = qcore._log_poch
        monkeypatch.setattr(qml, "_log_poch", recording)
        with pytest.raises(NonConvergenceError, match="max_terms=37"):
            ml_terms(spec, 0.8)
        lengths = []
        with pytest.raises(NonConvergenceError, match="max_terms=37"):
            for k0, t, rho in qml._ml_series(p, spec.alpha, spec.beta, spec.lam, 0.8):
                lengths.append(len(t))
        assert lengths == [8, 16, 13]
        # row 37 is term 36's ratio numerator; no row reaches past it
        assert max(shifts) <= 0.7 * 37 + 0.9 + 1e-12

    def test_kernel_rows_one_per_term(self, monkeypatch):
        """Count product-kernel rows: a float call is 1 row, an array call len(s).

        A block of C terms takes C + 1 rows; the scalar recurrence took 2 per term.
        """
        rows, blocks = [], []
        kernel = qcore._log_poch

        def counting(p, a, s):
            if isinstance(s, np.ndarray):
                rows.append(len(s))
                blocks.append(len(s) - 1)
            else:
                rows.append(1)
            return kernel(p, a, s)

        monkeypatch.setattr(qcore, "_log_poch", counting)
        monkeypatch.setattr(qml, "_log_poch", counting)
        spec = _spec(0.5, 0.9)
        _, terms = ml_terms(spec, 0.8)
        formed = max(len(terms), sum(blocks))
        assert len(terms) >= 200
        assert sum(rows) <= formed + len(blocks) + 2

    @pytest.mark.parametrize("a", [0.0, 0.0005])
    def test_terms_past_double_range_raise_without_warning(self, a):
        # past the 155 poles and negative arguments the terms leave double range
        spec = MLSpec(1.0, -154.5, -1.8e5, QParams(0.995))
        with pytest.raises(DomainError, match=r"E_\{1,-154.5\}: .* leaves double range"):
            ml_terms(spec, 0.001, a)

    @pytest.mark.parametrize("lam, what", [(495.0, "the partial sum through term 823"),
                                           (-495.0, "term 831")], ids=["plus", "minus"])
    def test_series_past_double_range_names_the_term(self, lam, what):
        # certificate 0.99 < 1, but the terms rise past 1e308 before they fall: the
        # first term or partial sum out of range is named, with no numpy warning
        spec = MLSpec(1.0, 1.0, lam, QParams(0.998, max_terms=50_000))
        with pytest.raises(DomainError, match=f"E_\\{{1,1\\}}: {what} leaves double range"):
            ml_terms(spec, 1.0)

    def test_term_below_the_poles_costs_one_kernel_call(self, monkeypatch):
        # beta = -3.3: terms 0-3 lie below the poles, each one scalar product-kernel call
        spec = MLSpec(1.0, -3.3, 0.4, P5)
        want = ml_terms(spec, 1.0)  # warms the cached log (q; q)_inf
        scalar = []
        kernel = qcore._log_poch

        def counting(p, a, s):
            if not isinstance(s, np.ndarray):
                scalar.append(s)
            return kernel(p, a, s)

        monkeypatch.setattr(qcore, "_log_poch", counting)
        monkeypatch.setattr(qml, "_log_poch", counting)
        assert ml_terms(spec, 1.0) == want
        assert scalar == pytest.approx([-3.3, -2.3, -1.3, -0.3])

    @pytest.mark.parametrize("alpha, beta, lam, x, a", [
        (1.0, -3.3, 0.4, 1.0, 0.0),
        (0.5, -1.0, 0.1, 0.5, 0.0),
        (0.7, -2.45, -0.6, 0.8, 0.0),
        (1.7, -0.2, 1.1, 0.9, 0.0),
        (0.3, -7.25, 0.9, 0.6, 0.0),
        (0.8, -1.5, -0.3, 0.9, 0.9 * 0.5**3),
    ])
    def test_nonpositive_beta_against_mpmath(self, alpha, beta, lam, x, a):
        import mpmath as mp

        with mp.workdps(40):
            q, z, c = mp.mpf(0.5), mp.mpf(lam) * mp.mpf(x) ** alpha, mp.mpf(a) / mp.mpf(x)
            want = mp.mpf(0)
            for k in range(400):
                y = alpha * k + mp.mpf(beta)
                if y <= 0 and y == mp.floor(y):
                    continue  # 1/G_q vanishes on a pole
                poch = mp.qp(c, q) / mp.qp(c * q ** (alpha * k), q) if a else 1
                want += z**k * poch / mp.qgamma(y, q)
        assert ml_eval(MLSpec(alpha, beta, lam, P5), x, a) == pytest.approx(float(want),
                                                                            rel=2e-12)

    def test_fresh_term_past_the_poles_in_log_space(self):
        # terms 0-20 sit on poles; term 21 is 1e315 / G_q(50), about 6.1e300
        import mpmath as mp

        spec = MLSpec(50.0, -1000.0, 1e15, P5)
        total, terms = ml_terms(spec, 1.0)
        assert not any(terms[:21])
        with mp.workdps(30):
            want = [mp.mpf(10) ** (15 * k) / mp.qgamma(50 * k - 1000, mp.mpf("0.5"))
                    for k in range(21, 400)]
            assert terms[21] == pytest.approx(float(want[0]), rel=1e-12)
            assert total == pytest.approx(float(mp.fsum(want)), rel=1e-10)


class TestMLSpec:
    def test_alpha_positive(self):
        with pytest.raises(DomainError):
            MLSpec(alpha=0.0, beta=1.0, lam=0.1, params=P5)

    def test_beta_pole_term_is_zero(self):
        # 1/G_q(-1) = 0: the series starts at k = 1 with lam x**alpha / G_q(-0.5)
        spec = MLSpec(alpha=0.5, beta=-1.0, lam=0.1, params=P5)
        total, terms = ml_terms(spec, 0.5)
        assert terms[0] == 0.0 and terms[2] == 0.0
        want = sum(0.1**k * 0.5 ** (0.5 * k) / q_gamma(P5, 0.5 * k - 1.0)
                   for k in range(1, 60) if k != 2)
        assert total == pytest.approx(want, rel=1e-13)


class TestMLEval:
    def test_lambda_zero_collapses(self):
        spec = MLSpec(alpha=0.6, beta=0.8, lam=0.0, params=P5)
        assert ml_eval(spec, 0.7) == pytest.approx(1.0 / q_gamma(P5, 0.8), rel=1e-14)

    def test_a_equal_x_collapses(self):
        # (1; q)_(k alpha) = 0 for k > 0: every term after the first is 0
        spec = MLSpec(alpha=0.6, beta=0.8, lam=0.3, params=P5)
        assert ml_eval(spec, 0.7, 0.7) == pytest.approx(1.0 / q_gamma(P5, 0.8), rel=1e-14)
        total, terms = ml_terms(_spec(0.9, 0.5), 0.8, 0.8)
        assert terms[0] == total and len(terms) > 1 and not any(terms[1:])

    def test_reference_point_against_oracle(self):
        spec = MLSpec(alpha=0.5, beta=0.5, lam=0.2, params=P5)
        got = ml_eval(spec, 1.0, 0.0)
        want = direct_series(spec, 1.0, 0.0)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_specs_against_oracle(self, seed):
        rng = np.random.default_rng(seed)
        q = float(rng.choice([0.3, 0.5, 0.7]))
        p = QParams(q)
        alpha = float(rng.uniform(0.3, 1.5))
        beta = float(rng.uniform(0.3, 1.5))
        x = float(rng.uniform(0.3, 1.0))
        r = float(rng.uniform(0.05, 0.8))
        lam = (r / (x**alpha * (1 - q) ** alpha)) * (1 if rng.random() < 0.5 else -1)
        a = 0.0 if rng.random() < 0.5 else x * q ** int(rng.integers(1, 5))
        spec = MLSpec(alpha=alpha, beta=beta, lam=lam, params=p)
        got = ml_eval(spec, x, a)
        want = direct_series(spec, x, a)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-13)

    def test_divergence_raised_exactly_at_one(self):
        x = 1.0
        for r, raises in [(0.999999, False), (1.0, True), (2.0, True)]:
            lam = r / (x**0.8 * 0.5**0.8)
            spec = MLSpec(alpha=0.8, beta=1.0, lam=lam, params=P5)
            if raises:
                with pytest.raises(DivergenceError):
                    ml_eval(spec, x)
            else:
                # inside the region, but the tail outlasts max_terms terms
                with pytest.raises(NonConvergenceError):
                    ml_eval(spec, x)

    def test_argument_domain(self):
        spec = MLSpec(alpha=0.8, beta=1.0, lam=0.1, params=P5)
        with pytest.raises(DomainError):
            ml_eval(spec, 0.0)
        with pytest.raises(DomainError):
            ml_eval(spec, 0.5, 0.7)  # a > x

    def test_tighter_tolerance_shifts_below_certificate(self):
        base = MLSpec(alpha=0.7, beta=0.9, lam=0.5, params=QParams(0.5))
        tight = MLSpec(alpha=0.7, beta=0.9, lam=0.5,
                       params=QParams(0.5, eps_series=1e-13))
        v1, v2 = ml_eval(base, 0.9), ml_eval(tight, 0.9)
        assert abs(v1 - v2) <= 10 * 1e-12 * abs(v2)

    def test_monotone_in_lambda(self):
        vals = [ml_eval(MLSpec(0.7, 0.9, lam, P5), 0.9) for lam in np.linspace(0, 1.1, 8)]
        assert np.all(np.diff(vals) >= 0)

    def test_term_cap_before_tolerance_raises(self):
        # ratio 0.9995: after 10001 terms the last one is still 3.4e-6 of the sum
        spec = MLSpec(alpha=1.0, beta=1.0, lam=1.999, params=P5)
        with pytest.raises(NonConvergenceError, match="max_terms=10000"):
            ml_terms(spec, 1.0)

    def test_terms_expose_stopping_run(self):
        spec = MLSpec(alpha=0.9, beta=1.1, lam=0.4, params=P5)
        total, terms = ml_terms(spec, 0.8)
        assert sum(terms) == pytest.approx(total, rel=1e-15)
        assert len(terms) < P5.max_terms


class TestMLBound:
    def test_zero_lambda(self):
        assert ml_bound_check(MLSpec(1.0, 1.0, 0.0, P5), 2.0) == 0.0

    def test_unit_case(self):
        ratio = ml_bound_check(MLSpec(1.0, 1.0, 1.0, P5), 1.0)
        assert ratio == pytest.approx(0.5, abs=1e-15)

    def test_rejection_case(self):
        ratio = ml_bound_check(MLSpec(1.0, 1.0, 3.0, P5), 1.0)
        assert type(ratio) is float
        assert ratio == pytest.approx(1.5, abs=1e-15)
        assert ratio >= 1.0  # caller must reject

    def test_b_positive(self):
        with pytest.raises(DomainError):
            ml_bound_check(MLSpec(1.0, 1.0, 1.0, P5), 0.0)
