"""Scalar q-special functions: frozen examples and algebraic properties."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfrac import qcore, qfracops, qml
from qfrac.errors import DomainError, NonConvergenceError, PoleError
from qfrac.qcore import (
    QParams,
    _capped_length,
    _log_poch,
    masked_power_basis,
    q_factorial,
    q_gamma,
    q_number,
    q_pochhammer_finite,
    q_pochhammer_fractional,
    q_pochhammer_infinite,
    q_power_basis,
)

P5 = QParams(0.5)
P3 = QParams(0.3)
P9 = QParams(0.9)


def log_sum(q: float, a: float, s: float, digits: int = 40) -> tuple[float, float]:
    """(sign, log|value|) of (a q**s; q)_inf as a product of its factors in decimal arithmetic.

    Every factor is multiplied out, to within 1e-22 of the log, at `digits` + 5
    significant digits: an oracle independent of the kernel's truncation rules.
    """
    with localcontext() as ctx:
        ctx.prec = digits + 5
        qd = Decimal(q)
        z = Decimal(a) * qd ** Decimal(s)
        stop = Decimal("1e-22") * (1 - qd)
        prod = Decimal(1)
        while abs(z) > stop:
            prod *= 1 - z
            z *= qd
        return (1.0 if prod > 0 else -1.0), float(abs(prod).ln())


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

    @pytest.mark.parametrize("p", [P3, P5, QParams(0.7), P9])
    def test_array_matches_scalar_entry_by_entry(self, p):
        # every entry is truncated at the length the largest |a| needs, so the
        # smaller entries carry extra factors below eps_product
        a = np.array([0.0, 0.97, -0.6, 0.3, 1e-9, 0.0, -1.4, p.q**7.3, 1.0])
        got = q_pochhammer_infinite(p, a)
        want = np.array([q_pochhammer_infinite(p, float(v)) for v in a])
        assert got.shape == a.shape and got[a == 0.0].tolist() == [1.0, 1.0]
        assert got[-1] == 0.0 and want[-1] == 0.0
        nz = want != 0.0
        assert np.all(np.abs(got[nz] - want[nz]) <= 4 * p.eps_product * np.abs(want[nz]))

    def test_array_of_zeros_and_float_argument(self):
        assert np.array_equal(q_pochhammer_infinite(P5, np.zeros(4)), np.ones(4))
        assert type(q_pochhammer_infinite(P5, 0.5)) is float
        assert type(q_pochhammer_infinite(P5, 0.0)) is float


class TestLogPochRows:
    """The product kernel on a 1-D array of shifts: one (sign, log) row per shift."""

    @pytest.mark.parametrize("p", [P3, P5, QParams(0.7)])
    @pytest.mark.parametrize("a", [1.0, 0.6, 1e-9, -0.5, -2.0])
    def test_rows_match_float_calls(self, p, a):
        # the last shift takes the row's own length down to 0
        s = np.concatenate([0.37 * np.arange(1, 40) + 0.05, [55.0, 200.0]])
        lens = [_capped_length(p, math.log(abs(a)) + v * math.log(p.q)) for v in s]
        assert max(lens) > 10 and min(lens) == 0
        sign, log = _log_poch(p, a, s)
        want = [_log_poch(p, a, float(v)) for v in s]
        assert sign.tolist() == [w[0] for w in want] == [1.0] * len(s)
        assert np.all(np.abs(np.expm1(log - np.array([w[1] for w in want]))) <= 1e-15)

    @pytest.mark.parametrize("p", [P9, QParams(0.98)])
    def test_rows_near_one_match_to_roundoff_of_the_log(self, p):
        # |log| reaches 80 at q = 0.98: summed in another order, 1e-15 of it
        s = np.concatenate([0.41 * np.arange(1, 30), [3000.0]])
        _, log = _log_poch(p, 1.0, s)
        want = np.array([_log_poch(p, 1.0, float(v))[1] for v in s])
        assert want[-1] == 0.0 == log[-1]
        assert np.all(np.abs(log - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))

    def test_zero_base_and_empty_rows(self):
        sign, log = _log_poch(P5, 0.0, np.array([0.5, 2.0]))
        assert sign.tolist() == [1.0, 1.0] and log.tolist() == [0.0, 0.0]
        sign, log = _log_poch(P5, 1.0, np.array([200.0, 300.0]))
        assert sign.tolist() == [1.0, 1.0] and log.tolist() == [0.0, 0.0]
        sign, log = _log_poch(P5, 1.0, np.array([]))
        assert sign.shape == log.shape == (0,)

    def test_float_shift_gives_floats(self):
        sign, log = _log_poch(P5, 1.0, 0.5)
        assert type(sign) is float and type(log) is float

    @pytest.mark.parametrize("a, s", [(1.0, [0.5, 0.0]), (2.0, [0.5, 1.5]),
                                      (-1e308, [0.0, 2.0])])
    def test_rows_need_positive_factors(self, a, s):
        # a zero, negative or overflowing factor is served for a float shift only
        with pytest.raises(DomainError, match="positive factors"):
            _log_poch(P5, a, np.array(s))

    def test_row_cap_raises_like_a_float_call(self):
        p = QParams(0.9999, max_terms=50)
        with pytest.raises(NonConvergenceError):
            _log_poch(p, 0.5, np.array([3.0, 0.5]))


class TestLogPochRowsOfBases:
    """The product kernel on a 1-D array of bases a: each row carries the float call's bits."""

    @pytest.mark.parametrize("p", [P3, P5, P9, QParams(0.98)])
    @pytest.mark.parametrize("s", [0.0, 0.7, -0.6])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rows_equal_float_calls(self, p, s, sign):
        # a > 1 gives negative factors, a = 1 at s = 0 a zero one, a = 0 a product of 1
        a = sign * np.concatenate([p.q ** np.arange(-3.0, 80.0, 0.37), [1.0, 0.0, 1e-300]])
        got_sign, got_log = _log_poch(p, a, s)
        want = [_log_poch(p, float(v), s) for v in a]
        assert got_sign.tolist() == [w[0] for w in want]
        assert got_log.tolist() == [w[1] for w in want]
        assert -1.0 in got_sign.tolist() or sign < 0.0 or s == 0.7

    def test_empty_and_all_zero_bases(self):
        sign, log = _log_poch(P5, np.array([]), 0.5)
        assert sign.shape == log.shape == (0,)
        sign, log = _log_poch(P5, np.zeros(3), 0.5)
        assert sign.tolist() == [1.0] * 3 and log.tolist() == [0.0] * 3

    @pytest.mark.parametrize("a, need", [([0.5, -0.5], "one sign"),
                                         ([1e308, 0.5], r"\|a q\*\*s\| <= e\*\*709")])
    def test_mixed_signs_and_overflowing_head_refused(self, a, need):
        # the overflowing head is served for a float base only
        with pytest.raises(DomainError, match=need):
            _log_poch(P5, np.array(a), -2000.0 if a[0] > 1.0 else 0.0)


class TestEulerTail:
    """Long products: K factors above 1/2 multiplied out, the rest by Euler's series."""

    @pytest.mark.parametrize("q, eps", [(0.9, 1e-15), (0.98, 1e-15), (0.995, 1e-15),
                                        (0.999, 1e-15), (0.9999, 1e-9)])
    @pytest.mark.parametrize("a", [1.0, 0.7, 0.3, -0.5, -2.0])
    def test_against_log_sums(self, q, eps, a, monkeypatch):
        # every float call takes the tail; a = 1 at s = -0.4 leads with a negative factor
        monkeypatch.setattr(qcore, "_TAIL_MIN", 0)
        p = QParams(q, eps_product=eps, max_terms=100_000)  # a = -2 at q 0.9999: K = 13863
        for s in [1.5] if q == 0.9999 else [-0.4, 0.37, 2.5]:
            sign, log = _log_poch(p, a, s)
            want_sign, want = log_sum(q, a, s)
            assert sign == want_sign
            assert abs(log - want) <= 1e-15 * max(1.0, abs(want)), (s, log, want)

    @pytest.mark.parametrize("q", [0.98, 0.995, 0.999])
    @pytest.mark.parametrize("s", [0.0, 0.7, -0.6])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rows_of_bases_equal_float_calls(self, q, s, sign):
        # rows on both sides of _TAIL_MIN in one call; a > 1 leads with negative factors
        p = QParams(q)
        a = sign * np.concatenate([np.geomspace(1e-40, 3.0, 60), [1.0, 0.0]])
        lengths = [math.ceil(max(qcore._length_bound(p, math.log(abs(v)) + s * math.log(q)),
                                 0.0)) if v else 0 for v in a]
        assert min(lengths) <= qcore._TAIL_MIN < max(lengths)
        got_sign, got_log = _log_poch(p, a, s)
        want = [_log_poch(p, float(v), s) for v in a]
        assert got_sign.tolist() == [w[0] for w in want]
        assert got_log.tolist() == [w[1] for w in want]

    @pytest.mark.parametrize("q", [0.98, 0.995, 0.999])
    @pytest.mark.parametrize("a", [1.0, 0.3, -0.5, -2.0])
    def test_rows_of_shifts_match_float_calls(self, q, a):
        # both on the tail: they differ in the order of summation only
        p = QParams(q)
        s = np.concatenate([0.41 * np.arange(1, 30), [3.0 / (1.0 - q)]])
        _, log = _log_poch(p, a, s)
        want = np.array([_log_poch(p, a, float(v))[1] for v in s])
        assert np.all(np.abs(log - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("a", [1.0, 0.3, -0.5, -2.0])
    def test_rows_of_shifts_past_their_switch_against_log_sums(self, a):
        # at q 0.9 the float calls stay direct, whose dropped tail reaches eps_product
        p = QParams(0.9)
        s = np.array([0.41, 2.87, 7.0, 30.0])
        _, log = _log_poch(p, a, s)
        want = np.array([log_sum(0.9, a, float(v))[1] for v in s])
        assert np.all(np.abs(log - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("switch, q", [("_TAIL_MIN", 0.963), ("_TAIL_MIN_ROWS", 0.836)])
    @pytest.mark.parametrize("a", [1.0, -2.0])
    def test_float_calls_and_rows_agree_across_each_switch(self, switch, q, a):
        # shifts that put the direct length at the switch and one factor past it; q is
        # chosen so that both sit near s = 0, where |log| is a few units or more
        p, n = QParams(q), getattr(qcore, switch)
        bound = qcore._length_bound(p, math.log(abs(a)))  # the direct length at s = 0, unrounded
        s = np.array([bound - n + 0.5, bound - n - 0.5])
        assert [math.ceil(qcore._length_bound(p, math.log(abs(a)) + v * math.log(q)))
                for v in s] == [n, n + 1]
        _, rows = _log_poch(p, a, s)
        _, bases = _log_poch(p, np.full(2, a), float(s[0]))
        floats = np.array([_log_poch(p, a, float(v))[1] for v in s])
        assert bases[0] == floats[0]
        assert np.all(np.abs(rows - floats) <= 1e-15 * np.maximum(1.0, np.abs(floats)))

    @pytest.mark.parametrize("max_terms, a, s", [
        (50, 0.5, 0.0),  # K = 0, about 60 terms of the series
        (1000, 1.0, 0.001),  # about 6900 factors above 1/2
    ])
    def test_max_terms_caps_factors_and_terms_in_every_call_shape(self, max_terms, a, s):
        p = QParams(0.9999, max_terms=max_terms)
        with pytest.raises(NonConvergenceError, match=f"past max_terms={max_terms}"):
            _log_poch(p, a, s)
        with pytest.raises(NonConvergenceError, match=f"past max_terms={max_terms}"):
            _log_poch(p, a, np.array([s, s + 3.0]))
        with pytest.raises(NonConvergenceError, match=f"past max_terms={max_terms}"):
            _log_poch(p, np.array([a, 0.5 * a]), s)

    @pytest.mark.parametrize("q", [0.998, 0.999])
    @pytest.mark.parametrize("alpha", [0.6, 1.7])
    def test_kernel_weights_near_one_against_log_sums(self, q, alpha):
        # at M = 20000 the direct products need more than the default 10000 factors
        depth = 20_000
        w, pref = qfracops._kernel_weights(q, 1e-15, 10_000, alpha, 1.0, depth + 1)

        def ratio(s_num, s_den):  # (q**s_num; q)_inf / (q**s_den; q)_inf
            return math.exp(log_sum(q, 1.0, s_num, 30)[1] - log_sum(q, 1.0, s_den, 30)[1])

        for j in (0, 1, 500, depth):
            assert w[j] == pytest.approx(ratio(j + 1.0, j + alpha), rel=1e-12, abs=0.0), j
        want = (1.0 - q) ** alpha * ratio(alpha, 1.0)  # (1-q)/G_q(alpha) at x = b = 1
        assert pref[0] == pytest.approx(want, rel=1e-12, abs=0.0)


class TestPowerBasisOnArrays:
    """An array of x through one array call of each product, within 4 ulp of the floats."""

    @staticmethod
    def _within_4_ulp(got, want):
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.98])
    @pytest.mark.parametrize("alpha", [-0.6, 0.3, 1.4, 2.0])
    @pytest.mark.parametrize("offset", [0.0, 0.37], ids=["on-lattice", "off-lattice"])
    def test_entries_match_float_calls(self, q, alpha, offset):
        p = QParams(q)
        depth = {0.3: 40, 0.5: 60, 0.9: 250, 0.98: 1200}[q]
        x = q ** np.arange(depth + 1.0)
        m = depth // 3
        base = float(x[m]) * q**offset
        got = q_power_basis(p, x, base, alpha)
        self._within_4_ulp(got, np.array([q_power_basis(p, float(v), base, alpha) for v in x]))
        masked = masked_power_basis(p, x, base, alpha)
        want = np.array([masked_power_basis(p, float(v), base, alpha) for v in x])
        self._within_4_ulp(masked, want)
        # at and below the base the masked basis is 0; above it, the plain one
        assert np.all(masked[x <= base] == 0.0) and np.array_equal(masked[:m], got[:m])

    def test_order_zero_and_origin_base(self):
        x = 0.5 ** np.arange(5.0)
        assert q_power_basis(P5, x, 0.3, 0.0).tolist() == [1.0] * 5
        assert masked_power_basis(P5, x, 0.0, 0.5).tolist() == (x**0.5).tolist()

    def test_pole_and_nonpositive_x_name_an_entry(self):
        with pytest.raises(PoleError, match="a=2.0"):
            q_pochhammer_fractional(P5, np.array([0.25, 2.0]), -1.0)
        with pytest.raises(DomainError, match="needs x > 0, got -1.0"):
            q_power_basis(P5, np.array([0.5, -1.0]), 0.25, 0.5)


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

    def test_ratio_with_factors_past_exp_range(self):
        # G_q(x)/G_q(x + 1/4) from two products whose leading factors 1 - q**(x+k) pass
        # e**709; reference from 40-digit mpmath sums of log|1 - q**(x+k)|, k < 5000,
        # for each product
        s_den, l_den = _log_poch(P5, 1.0, -1100.5)
        s_num, l_num = _log_poch(P5, 1.0, -1100.25)
        ratio = s_num * s_den * math.exp(l_num - l_den + 0.25 * math.log(0.5))
        assert ratio == pytest.approx(8.41643907713637897611397379105e-84, rel=1e-9)


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
    y=st.floats(min_value=0.0, max_value=40.0, exclude_min=True),
)
def test_gamma_ratio_never_grows(q, a, y):
    # G_q is log-convex on (0, inf), so the term ratio bound
    # rho_k = |z| G_q(y + a k) / G_q(y + a (k+1)) does not increase in k: the
    # premise of the q-Mittag-Leffler truncation rule in qfrac.qml
    rhos = []
    for _, _, rho in qml._ml_series(QParams(q), a, y, 0.5, 1.0):
        rhos.extend(rho.tolist())
        if len(rhos) >= 56:  # three blocks: two block boundaries
            break
    assert all(hi <= lo * (1.0 + 1e-12) for lo, hi in zip(rhos, rhos[1:]))


def test_classical_limit_sanity():
    p = QParams(0.9999, eps_product=1e-9, max_terms=2_000_000)
    for x in (1.5, 2.5, 3.5):
        assert q_gamma(p, x) == pytest.approx(math.gamma(x), rel=1e-2)
