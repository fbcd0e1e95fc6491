"""q-Mittag-Leffler series: frozen values, brute-force oracle, certificates."""

import numpy as np
import pytest

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
        spec = MLSpec(alpha=0.6, beta=0.8, lam=0.3, params=P5)
        assert ml_eval(spec, 0.7, 0.7) == pytest.approx(1.0 / q_gamma(P5, 0.8), rel=1e-14)

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
        b = ml_bound_check(MLSpec(1.0, 1.0, 0.0, P5), 2.0)
        assert b.ratio == 0.0

    def test_unit_case(self):
        b = ml_bound_check(MLSpec(1.0, 1.0, 1.0, P5), 1.0)
        assert b.ratio == pytest.approx(0.5, abs=1e-15)

    def test_rejection_case(self):
        b = ml_bound_check(MLSpec(1.0, 1.0, 3.0, P5), 1.0)
        assert b.ratio == pytest.approx(1.5, abs=1e-15)
        assert b.ratio >= 1.0  # caller must reject

    def test_b_positive(self):
        with pytest.raises(DomainError):
            ml_bound_check(MLSpec(1.0, 1.0, 1.0, P5), 0.0)
