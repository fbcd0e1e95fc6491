"""Scalar q-special functions: frozen examples and algebraic properties."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfrac.errors import DomainError, NonConvergenceError, PoleError
from qfrac.qcore import (
    QParams,
    q_factorial,
    q_gamma,
    q_gamma_ratio,
    q_number,
    q_pochhammer_finite,
    q_pochhammer_fractional,
    q_pochhammer_infinite,
    q_power_basis,
)

P5 = QParams(0.5)
P3 = QParams(0.3)
P9 = QParams(0.9)


def brute_poch(a: float, q: float, n: int) -> float:
    """Plain long-product oracle, independent of the library truncation."""
    out = 1.0
    for k in range(n):
        out *= 1.0 - a * q**k
    return out


class TestQNumber:
    def test_zero_order(self):
        assert q_number(P5, 0.0) == 0.0

    def test_two(self):
        assert q_number(P5, 2.0) == pytest.approx(1.5, abs=1e-15)

    def test_half_order_extended_precision(self):
        # oracle: defining formula in 40-digit arithmetic
        import mpmath as mp

        with mp.workdps(40):
            want = float((1 - mp.mpf("0.3") ** mp.mpf("0.5")) / (1 - mp.mpf("0.3")))
        assert q_number(P3, 0.5) == pytest.approx(want, rel=1e-15)


class TestQFactorial:
    @pytest.mark.parametrize("n,want", [(0, 1.0), (2, 1.5), (3, 2.625)])
    def test_values(self, n, want):
        assert q_factorial(P5, n) == pytest.approx(want, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            q_factorial(P5, -1)


class TestPochhammerFinite:
    def test_empty_product(self):
        assert q_pochhammer_finite(P5, 0.7, 0) == 1.0

    def test_unit_argument_vanishes(self):
        assert q_pochhammer_finite(P5, 1.0, 2) == 0.0

    def test_direct_value(self):
        assert q_pochhammer_finite(P5, 0.5, 2) == pytest.approx(0.375, rel=1e-15)


class TestPochhammerInfinite:
    def test_zero_argument(self):
        assert q_pochhammer_infinite(P5, 0.0) == 1.0

    def test_unit_argument_vanishes(self):
        assert q_pochhammer_infinite(P5, 1.0) == 0.0

    def test_against_long_product(self):
        want = brute_poch(0.5, 0.5, 200)
        assert q_pochhammer_infinite(P5, 0.5) == pytest.approx(want, rel=1e-12)

    def test_nonconvergence_at_term_cap(self):
        p = QParams(0.9999, max_terms=50)
        with pytest.raises(NonConvergenceError):
            q_pochhammer_infinite(p, 0.5)


class TestPochhammerFractional:
    def test_order_zero(self):
        assert q_pochhammer_fractional(P5, 0.3, 0.0) == pytest.approx(1.0, rel=4e-15)

    def test_integer_order_matches_finite(self):
        want = q_pochhammer_finite(P5, 0.3, 2)  # (1-0.3)(1-0.15) = 0.595
        assert want == pytest.approx(0.595, rel=1e-15)
        got = q_pochhammer_fractional(P5, 0.3, 2.0)
        assert got == pytest.approx(want, rel=4e-15)

    def test_half_order_against_product_ratio(self):
        want = brute_poch(0.25, 0.5, 200) / brute_poch(0.5**0.5 * 0.25, 0.5, 200)
        got = q_pochhammer_fractional(P5, 0.25, 0.5)
        assert got == pytest.approx(want, rel=1e-10)

    def test_pole_detected(self):
        # q**alpha * a = q**(-1) puts a denominator factor at zero
        with pytest.raises(PoleError):
            q_pochhammer_fractional(P5, 2.0 / 0.5, 1.0)

    @pytest.mark.parametrize("a", [-0.5, 0.3, 0.9])
    @pytest.mark.parametrize("n", range(0, 11))
    def test_integer_consistency_sweep(self, a, n):
        for p in (P3, P5, P9):
            got = q_pochhammer_fractional(p, a, float(n))
            want = q_pochhammer_finite(p, a, n)
            assert got == pytest.approx(want, rel=4 * p.eps_product, abs=1e-280)


class TestQGamma:
    def test_one(self):
        assert q_gamma(P5, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_three_is_q_factorial_two(self):
        assert q_gamma(P5, 3.0) == pytest.approx(1.5, rel=1e-12)

    def test_against_long_product_formula(self):
        # direct defining-formula oracle with 500-term products at q = 0.9
        q = 0.9
        num = brute_poch(q, q, 500)
        den = brute_poch(q**2.5, q, 500)
        want = num / den * (1 - q) ** (1 - 2.5)
        assert q_gamma(P9, 2.5) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            q_gamma(P5, x)

    def test_pole_window(self):
        with pytest.raises(PoleError):
            q_gamma(P5, -2.0 + 1e-13)
        assert math.isfinite(q_gamma(P5, -2.0001))

    def test_negative_noninteger_argument(self):
        # recurrence continues the function left of the origin
        x = -0.3
        lhs = q_gamma(P5, x + 1.0)
        rhs = q_number(P5, x) * q_gamma(P5, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("q,x,want", [
        (0.5, 1e-8, "72134751.9911005972814760219175"),
        (0.9, -0.999999, "-854210.416376792416810451417277"),
    ])
    def test_next_to_poles_against_mpmath(self, q, x, want):
        # 30 digits from: mpmath.mp.dps = 40
        #                 mpmath.nstr(mpmath.qgamma(mpmath.mpf(x), mpmath.mpf(q)), 30)
        # forming 1 - q**(k+x) from the rounded power q**x loses up to 7.5e-9 here
        assert q_gamma(QParams(q), x) == pytest.approx(float(want), rel=1e-13)

    def test_ratio_at_smallest_subnormal_overflows(self):
        # G_q(5e-324) ~ (1-q)/(-5e-324 log q) leaves double range; x log q underflows
        assert q_gamma_ratio(QParams(0.75), 5e-324, 1.0) == math.inf

    def test_ratio_helper_matches_direct(self):
        for x, step in [(0.4, 0.7), (2.5, 1.3), (5.0, 0.25)]:
            want = q_gamma(P5, x) / q_gamma(P5, x + step)
            assert q_gamma_ratio(P5, x, step) == pytest.approx(want, rel=1e-12)


class TestQPowerBasis:
    def test_pure_power(self):
        assert q_power_basis(P5, 2.0, 0.0, 3.0) == pytest.approx(8.0, rel=1e-15)

    def test_vanishes_at_base(self):
        assert q_power_basis(P5, 1.0, 1.0, 1.0) == 0.0

    def test_half_order_against_ratio_oracle(self):
        want = 1.0**0.5 * (brute_poch(0.25, 0.5, 200)
                           / brute_poch(0.5**0.5 * 0.25, 0.5, 200))
        got = q_power_basis(P5, 1.0, 0.25, 0.5)
        assert got == pytest.approx(want, rel=1e-10)

    def test_negative_x_integer_order(self):
        # telescoped finite product is valid on the whole real line
        assert q_power_basis(P5, -1.0, 0.5, 2.0) == pytest.approx(
            (-1.0 - 0.5) * (-1.0 - 0.25), rel=1e-15
        )

    def test_negative_x_fractional_order_rejected(self):
        with pytest.raises(DomainError):
            q_power_basis(P5, -1.0, 0.5, 0.5)

    def test_negative_order_vanishes_at_base(self):
        # the q-analogue of (x-a)**(-s) tends to 0 as x -> a on the lattice
        assert q_power_basis(P5, 0.25, 0.25, -0.5) == 0.0

    def test_inverse_law(self):
        # (x - c)^(-s)_q * (x - q**(-s) c)^s_q = 1
        x, c, s = 0.8, 0.2, 0.65
        lhs = q_power_basis(P5, x, c, -s) * q_power_basis(P5, x, 0.5 ** (-s) * c, s)
        assert lhs == pytest.approx(1.0, rel=1e-12)


class TestQParamsValidation:
    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.7])
    def test_q_range(self, q):
        with pytest.raises(DomainError):
            QParams(q)

    def test_tolerances(self):
        with pytest.raises(DomainError):
            QParams(0.5, eps_product=0.0)
        with pytest.raises(DomainError):
            QParams(0.5, eps_series=-1e-9)
        with pytest.raises(DomainError):
            QParams(0.5, max_terms=0)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    x=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
def test_gamma_recurrence_property(q, x):
    p = QParams(q)
    lhs = q_gamma(p, x + 1.0)
    rhs = q_number(p, x) * q_gamma(p, x)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    a=st.floats(min_value=-0.9, max_value=0.9),
    al=st.floats(min_value=0.0, max_value=3.0),
    be=st.floats(min_value=0.0, max_value=3.0),
)
def test_pochhammer_splitting_property(q, a, al, be):
    p = QParams(q)
    whole = q_pochhammer_fractional(p, a, al + be)
    split = q_pochhammer_fractional(p, a, al) * q_pochhammer_fractional(p, q**al * a, be)
    assert abs(whole - split) <= 1e-10 * max(abs(whole), 1e-300)


@settings(max_examples=300, deadline=None)
@given(
    q=st.floats(min_value=0.05, max_value=0.99),
    a=st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
    y1=st.floats(min_value=0.0, max_value=40.0, exclude_min=True),
    y2=st.floats(min_value=0.0, max_value=40.0, exclude_min=True),
)
def test_gamma_ratio_never_grows(q, a, y1, y2):
    # G_q is log-convex on (0, inf), so G_q(y) / G_q(y + a) does not increase
    # in y: the premise of the q-Mittag-Leffler truncation rule in qfrac.qml
    p = QParams(q)
    lo, hi = sorted((y1, y2))
    assert q_gamma_ratio(p, hi, a) <= q_gamma_ratio(p, lo, a) * (1.0 + 1e-12)


def test_classical_limit_sanity():
    p = QParams(0.9999, eps_product=1e-9, max_terms=2_000_000)
    for x in (1.5, 2.5, 3.5):
        assert q_gamma(p, x) == pytest.approx(math.gamma(x), rel=1e-2)
