"""Fractional q-operators: closed-form identities, reductions, error paths."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfrac import qfracops
from qfrac.errors import DepthError, DomainError, QFracError
from qfrac.qcore import QParams, q_gamma, q_power_basis
from qfrac.qgrid import ZERO, GridFunction, LatticeGrid, LatticePoint, sample, tail_window
from qfrac.qfracops import (
    FracOrders,
    _band_width,
    _integral_table,
    _lattice_sums,
    caputo_derivative,
    derivative_stage_cut,
    hilfer_derivative,
    rl_derivative,
    rl_integral,
)
from qfrac.solver import _lattice_power
from qfrac.verify import hilfer_derivative_raw

P5 = QParams(0.5)


def grid(q=0.5, depth=200, b=1.0):
    return LatticeGrid(b=b, depth=depth, params=QParams(q))


def masked_pb(params, base, order):
    def fn(x):
        if base > 0.0 and x < base * (1.0 - 1e-12):
            return 0.0
        return q_power_basis(params, x, base, order)

    return fn


class TestFracOrders:
    def test_derived_orders(self):
        o = FracOrders(alpha=0.9, beta=0.5, mu=0.5, n=1)
        assert o.gamma == pytest.approx(0.75)
        assert o.nu == pytest.approx(0.7)
        assert o.gamma >= o.nu

    def test_derived_orders_stay_in_band(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            o = FracOrders(
                alpha=float(rng.uniform(n - 1, n)) + 1e-9,
                beta=float(rng.uniform(n - 1, n)) + 1e-9,
                mu=float(rng.uniform(0, 1)),
                n=n,
            )
            assert n - 1 < o.gamma <= n and n - 1 < o.nu <= n
            assert o.gamma >= o.nu - 1e-15

    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha=1.2, beta=0.5, mu=0.5, n=1),
            dict(alpha=0.5, beta=1.2, mu=0.5, n=1),
            dict(alpha=0.5, beta=0.5, mu=1.5, n=1),
            dict(alpha=0.5, beta=0.5, mu=-0.1, n=1),
            dict(alpha=0.5, beta=0.5, mu=0.5, n=0),
            dict(alpha=2.0, beta=2.0, mu=0.5, n=1),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(DomainError):
            FracOrders(**kw)


class TestRLIntegral:
    def test_order_one_is_plain_integration(self):
        g = grid()
        u = sample(g, lambda x: 1.0)
        out = rl_integral(u, ZERO, 1.0)
        keep = 160  # q**(M-m) tail below 1e-11 there
        assert out.values[:keep] == pytest.approx(g.points[:keep], rel=1e-9)

    def test_power_rule_from_origin(self):
        g = grid()
        u = sample(g, lambda x: x)
        out = rl_integral(u, ZERO, 0.5)
        coef = q_gamma(P5, 2.0) / q_gamma(P5, 2.5)
        m = np.arange(101)
        want = coef * g.points[m] ** 1.5
        assert out.values[:101] == pytest.approx(want, rel=1e-8)

    def test_power_basis_rule_lattice_anchor(self):
        g = grid()
        a = g.point(4)
        u = sample(g, masked_pb(P5, a, 1.0))
        alpha = 0.75
        out = rl_integral(u, LatticePoint(4), alpha)
        coef = q_gamma(P5, 2.0) / q_gamma(P5, alpha + 2.0)
        for m in range(4):
            want = coef * q_power_basis(P5, g.point(m), a, alpha + 1.0)
            assert out.values[m] == pytest.approx(want, rel=1e-8)

    def test_out_of_domain_masked(self):
        g = grid(depth=20)
        u = sample(g, lambda x: 1.0)
        out = rl_integral(u, LatticePoint(5), 1.0)
        assert out.domain_stop == 6
        assert np.all(out.values[6:] == 0.0)
        assert out.values[5] == 0.0  # integral from a to a

    def test_order_must_be_positive(self):
        u = sample(grid(depth=20), lambda x: 1.0)
        with pytest.raises(DomainError):
            rl_integral(u, ZERO, 0.0)


def per_row_rl_integral(u, a, alpha):
    """Reference I^alpha: one dot product per output row, prefactor after the sum."""
    g = u.grid
    M = g.depth
    x = g.points
    m_a = None if a is ZERO else a.index
    w = _integral_table(g, alpha)[0]
    pref = x ** (alpha - 1.0) * (1.0 - g.q) / q_gamma(g.params, alpha)
    s = x * u.values
    out = np.zeros(M + 1)
    stop = M + 1 if m_a is None else m_a
    top = M + 1 if m_a is None else m_a + 1
    for m in range(min(top, M + 1)):
        if stop > m:
            out[m] = pref[m] * float(np.dot(w[: stop - m], s[m:stop]))
    return out, min(top, u.domain_stop), u.guard


EPS = 2.0**-53


def per_row_sums(s, w):
    """Reference row sums, one np.dot per row, and their scales sum_j w_j |s_(m+j)|."""
    n = len(s)
    want = np.array([np.dot(w[: n - m], s[m:]) for m in range(n)])
    mag = np.array([np.dot(w[: n - m], np.abs(s[m:])) for m in range(n)])
    return want, mag


def assert_rows_close(got, want, mag, n):
    """Relative 1e-14 on every row whose |sum| is above the roundoff n eps sum|w s|."""
    rows = np.abs(want) > n * EPS * mag
    assert np.all(np.abs(got - want)[rows] <= 1e-14 * np.abs(want)[rows])


# The test ids below predate the band: the kernel's contract is the tolerance
# of assert_rows_close against per-row dot products, not bit-identity.
class TestRLIntegralMatchesPerRowSum:
    @pytest.mark.parametrize("q", [0.5, 0.98])
    @pytest.mark.parametrize("depth", [8, 200, 1000])
    @pytest.mark.parametrize("anchor", ["zero", 0, 1, "0.85M", "M"])
    def test_bit_identical(self, q, depth, anchor):
        g = grid(q=q, depth=depth)
        rng = np.random.default_rng(depth)
        vals = g.points ** -0.4 * rng.uniform(-1.0, 1.0, size=depth + 1)
        u = GridFunction(g, vals, guard=2)
        a = {"zero": ZERO, 0: LatticePoint(0), 1: LatticePoint(1),
             "0.85M": LatticePoint(round(0.85 * depth)), "M": LatticePoint(depth)}[anchor]
        stop = depth + 1 if a is ZERO else a.index
        for alpha in (0.35, 0.75, 1.5):
            out = rl_integral(u, a, alpha)
            want, domain_stop, guard = per_row_rl_integral(u, a, alpha)
            assert (out.domain_stop, out.guard) == (domain_stop, guard)
            if a == LatticePoint(0):
                assert not np.any(out.values)  # empty sums
                continue
            pref = g.points[:stop] ** (alpha - 1.0) * (1.0 - q) / q_gamma(g.params, alpha)
            _, mag = per_row_sums(g.points[:stop] * vals[:stop], _integral_table(g, alpha)[0])
            assert_rows_close(out.values[:stop], want[:stop], pref * mag, stop)
            assert not np.any(out.values[stop:])


class TestLatticeSums:
    @pytest.mark.parametrize("n", [*range(2, 14), 200, 1001])
    @pytest.mark.parametrize("extra", [0, 3])
    def test_bit_identical_to_per_row_dot(self, n, extra):
        rng = np.random.default_rng(n + 7 * extra)
        s = rng.uniform(-1.0, 1.0, size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
        w = np.sort(rng.uniform(0.0, 1.0, size=n + extra))  # positive, monotone
        assert_rows_close(_lattice_sums(s, w), *per_row_sums(s, w), n)


def full_sums(s, w):
    n = len(s)
    return np.correlate(s, w[:n], "full")[n - 1:]


class TestBandCertificate:
    """The banded sums against the full correlation on the short-memory probe family."""

    @staticmethod
    def summands(q, depth, anchor, p):
        g = grid(q=q, depth=depth)
        m_a = None if anchor == "zero" else round(0.85 * depth)
        stop = depth + 1 if m_a is None else m_a
        return g, g.points[:stop] * _lattice_power(g, m_a, p)[:stop]

    @staticmethod
    def assert_within_bound(s, w):
        # the dropped part is at most 2**-53 |full|; 16 eps sum w|s| covers summation order
        got, want = _lattice_sums(s, w), full_sums(s, w)
        slack = 16.0 * EPS * full_sums(np.abs(s), w)
        assert np.all(np.abs(got - want) <= EPS * np.abs(want) + slack)
        return got, want

    @pytest.mark.parametrize("q, depth", [(0.5, 1000), (0.98, 4000)])
    @pytest.mark.parametrize("anchor", ["zero", "0.85M"])
    @pytest.mark.parametrize("p", [0.4, -0.3, 1.6])
    def test_power_inputs(self, q, depth, anchor, p):
        g, s = self.summands(q, depth, anchor, p)
        for alpha in (0.3, 0.75, 1.0, 1.4):
            w = _integral_table(g, alpha)[0]
            L = _band_width(s, w)[0]
            self.assert_within_bound(s, w)
            # s ~ q**(k(p+1)) is one-signed: the band of w - 1 is taken, also for slow decay
            assert 2 * L <= len(s)

    @pytest.mark.parametrize("q, depth", [(0.5, 1000), (0.98, 4000)])
    @pytest.mark.parametrize("sign", ["alternating", "cos3k"])
    def test_sign_changing_inputs(self, q, depth, sign):
        g, s = self.summands(q, depth, "zero", 0.4)
        k = np.arange(len(s))
        s = s * ((-1.0) ** k if sign == "alternating" else np.cos(3.0 * k))
        for alpha in (0.3, 0.75, 1.4):
            self.assert_within_bound(s, _integral_table(g, alpha)[0])

    def test_cancelled_row_falls_back_to_full_sums(self):
        g, s = self.summands(0.5, 1000, "zero", 0.4)
        w = _integral_table(g, 0.75)[0]
        L = _band_width(s, w)[0]
        s[100:100 + L] = 0.0  # row 100's band sums to 0 while its tail does not
        assert _band_width(s, w)[0] == L
        got = _lattice_sums(s, w)
        assert np.array_equal(got, full_sums(s, w)) and got[100] > 0.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_deep_summand_gives_full_sums(self, bad):
        g, s = self.summands(0.5, 1000, "zero", 0.4)
        s[700] = bad
        w = _integral_table(g, 0.75)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            assert _band_width(s, w) == (len(s), None, None)  # no band is tried
        got, want = _lattice_sums(s, w), full_sums(s, w)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.flatnonzero(~np.isfinite(got)).tolist() == list(range(701))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_suffix_sum_is_quiet_and_full(self, sign):
        s = 1e306 * sign ** np.arange(1001)  # finite, but sum|s| overflows
        w = _integral_table(grid(depth=1000), 0.75)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _lattice_sums(s, w)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(got, full_sums(s, w), equal_nan=True)

    def test_non_finite_sum_names_the_same_index(self):
        # x u overflows at index 30 of a b = 1e10 grid; GridFunction names the first bad row
        g = grid(depth=1000, b=1e10)
        vals = g.points**0.4
        vals[30] = 1e308
        u = GridFunction(g, vals)
        with np.errstate(over="ignore", invalid="ignore"):
            want = per_row_rl_integral(u, ZERO, 0.75)[0]
        first = int(np.flatnonzero(~np.isfinite(want))[0])
        with pytest.raises(DomainError, match=f"non-finite value at lattice index {first}$"):
            rl_integral(u, ZERO, 0.75)


@pytest.fixture
def correlate_calls(monkeypatch):
    """Band widths of the np.correlate calls made while the test runs."""
    calls = []
    correlate = np.correlate

    def counted(a, v, mode):
        calls.append(len(v))
        return correlate(a, v, mode)

    monkeypatch.setattr(np, "correlate", counted)
    return calls


class TestFarField:
    """One-signed summands: a band of w_j - 1 plus the plain Jackson tail."""

    @pytest.mark.parametrize("q, depth", [(0.5, 1000), (0.98, 4000)])
    @pytest.mark.parametrize("p", [-0.95, -0.3, 0.4, 1.6])
    def test_rows_within_2e_15_of_fsum(self, q, depth, p):
        g = grid(q=q, depth=depth)
        s = g.points ** (p + 1.0)
        n = len(s)
        for alpha in (0.3, 1.4):
            w = _integral_table(g, alpha)[0]
            want = np.array([math.fsum(w[:n - m] * s[m:]) for m in range(n)])
            for sign in (1.0, -1.0):
                got = _lattice_sums(sign * s, w)
                assert np.all(np.abs(got - sign * want) <= 2e-15 * np.abs(want))

    @pytest.mark.parametrize("q, depth", [(0.5, 1000), (0.98, 4000)])
    @pytest.mark.parametrize("sign", ["alternating", "cos40x", "one-deep-negative"])
    def test_sign_changing_gives_full_sums(self, q, depth, sign, correlate_calls):
        g = grid(q=q, depth=depth)
        x = g.points
        for p in (-0.3, 0.4, 1.6):
            s = x ** (p + 1.0)
            if sign == "alternating":
                s = s * (-1.0) ** np.arange(len(s))
            elif sign == "cos40x":
                s = s * np.cos(40.0 * x)
            else:
                k = np.flatnonzero(s)[-1]  # the deepest summand that is not 0
                s[k] = -s[k]
            for alpha in (0.3, 0.75, 1.4):
                w = _integral_table(g, alpha)[0]
                correlate_calls.clear()
                got = _lattice_sums(s, w)
                assert correlate_calls == [len(s)]  # no band is tried
                assert np.array_equal(got, full_sums(s, w))

    @pytest.mark.parametrize("n", [2, 200, 512])
    def test_short_sums_are_the_full_correlation(self, n):
        g = grid(q=0.98, depth=1000)
        s = g.points[:n] ** 0.6
        for alpha in (0.3, 1.4):
            w = _integral_table(g, alpha)[0]
            assert np.array_equal(_lattice_sums(s, w), full_sums(s, w))

    @pytest.mark.parametrize("alpha", [0.3, 0.75, 1.4])
    def test_deep_rows_decaying_slower_than_row_0_keep_the_band(self, alpha, correlate_calls):
        # s_k = 2**-k to k = 100, then 2**-(3/4) per step: deeper rows keep more of their tail
        k = np.arange(1001.0)
        s = 2.0 ** -np.minimum(k, 100.0 + 0.75 * (k - 100.0))
        w = _integral_table(grid(depth=1000), alpha)[0]
        L = _band_width(s, w)[0]
        _lattice_sums(s, w)
        assert correlate_calls == [L]  # the band alone, not the band and then the full sum
        TestBandCertificate.assert_within_bound(s, w)

    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    def test_band_wider_than_half_the_sum(self, alpha, correlate_calls):
        # x**0.5 at q = 0.98 decays too slowly for a band of n/2: L is about 2050 of 4001
        g = grid(q=0.98, depth=4000)
        s = g.points**0.5
        n = len(s)
        w = _integral_table(g, alpha)[0]
        L = _band_width(s, w)[0]
        got = _lattice_sums(s, w)
        assert n / 2 < L < n and correlate_calls == [L]  # the band alone
        want = np.array([math.fsum(w[:n - m] * s[m:]) for m in range(n)])
        # the 2**-53 certificate plus 16 eps of summation order, as in assert_within_bound
        assert np.all(np.abs(got - want) <= 17.0 * EPS * want)

    @pytest.mark.parametrize("q, depth", [(0.5, 1000), (0.98, 4000)])
    def test_plain_tail_is_at_most_2_20_of_each_row(self, q, depth, correlate_calls):
        # at alpha = 1 every w_j is 1 and the far field is 0: only the floor of d_j bounds L
        g = grid(q=q, depth=depth)
        kept = 0
        for p in (-0.3, 0.4, 1.6):
            s = g.points ** (p + 1.0)
            for alpha in (0.3, 1.0, 1.4):
                w = _integral_table(g, alpha)[0]
                L, _, suffix = _band_width(s, w)
                correlate_calls.clear()
                got = _lattice_sums(s, w)
                if correlate_calls == [L]:  # the band was kept
                    kept += 1
                    assert np.all(suffix[L:] <= 2.0**-20 * got[:len(s) - L])
        assert kept == 9


class TestIntegralTable:
    """I^alpha's weights and row prefactor, both from the one kernel-weight cache."""

    @pytest.mark.parametrize("q, depth, b", [(0.5, 200, 1.0), (0.9, 800, 3.7), (0.98, 4000, 0.2)])
    def test_prefactor_has_the_bits_of_the_grid_points(self, q, depth, b):
        g = grid(q=q, depth=depth, b=b)
        for alpha in (0.3, 1.0, 2.5):
            w, pref = _integral_table(g, alpha)
            want = g.points ** (alpha - 1.0) * (1.0 - q) / q_gamma(g.params, alpha)
            assert np.array_equal(pref, want)
            assert not w.flags.writeable and not pref.flags.writeable

    def test_grids_differing_in_b_get_their_own_prefactor(self):
        a, b = _integral_table(grid(b=1.0), 0.5), _integral_table(grid(b=4.0), 0.5)
        assert np.array_equal(a[0], b[0])
        assert np.allclose(b[1], a[1] * 4.0**-0.5, rtol=4 * EPS, atol=0.0)

    def test_warm_rl_integral_forms_no_q_gamma(self, monkeypatch):
        g = grid(q=0.9, depth=800)
        u = sample(g, lambda x: x)
        want = rl_integral(u, ZERO, 0.75).values
        calls = []

        def counted(*args):
            calls.append(args)
            return q_gamma(*args)

        monkeypatch.setattr(qfracops, "q_gamma", counted)
        assert np.array_equal(rl_integral(u, ZERO, 0.75).values, want)
        assert calls == []


class TestLatticeSolve:
    """u = I f + lam I u on the 0-anchored lattice, by blocked forward substitution."""

    @staticmethod
    def _row_by_row(f, x, w, pref, lam):
        """The same system substituted one row at a time, in long double."""
        f, x, w, pref = (np.asarray(v, dtype=np.longdouble) for v in (f, x, w, pref))
        n = len(f)
        u, s = np.zeros(n, np.longdouble), np.zeros(n, np.longdouble)
        for m in range(n - 1, -1, -1):
            c = pref[m] * w[0] * x[m]
            u[m] = (c * f[m] + pref[m] * np.dot(w[1:n - m], s[m + 1:])) / (1 - lam * c)
            s[m] = x[m] * (f[m] + lam * u[m])
        return u.astype(float)

    @pytest.mark.parametrize("q, depth, alpha, r", [
        (0.5, 8, 0.6, 0.5),  # one block, shorter than _SOLVE_BLOCK
        (0.5, 127, 0.75, -0.9),  # two full blocks
        (0.9, 300, 1.4, 0.9),  # a short shallowest block
        (0.98, 1000, 0.3, -0.7),
    ])
    def test_matches_row_by_row_substitution(self, q, depth, alpha, r):
        g = grid(q=q, depth=depth)
        w, pref = _integral_table(g, alpha)
        lam = r / (1.0 - q) ** alpha  # certificate ratio |r|
        f = np.cos(7.0 * g.points) + 0.5  # changes sign
        got = qfracops._lattice_solve(f, g.points, w, pref, lam, "u")
        want = self._row_by_row(f, g.points, w, pref, lam)
        size = self._row_by_row(np.abs(f), g.points, w, pref, abs(lam))
        assert np.all(np.abs(got - want) <= 1e-14 * size)

    def test_substitution_after_a_failed_solve_gives_the_same_rows(self, monkeypatch):
        g = grid(q=0.9, depth=300)
        w, pref = _integral_table(g, 0.75)
        f = 1.0 + g.points
        want = qfracops._lattice_solve(f, g.points, w, pref, -4.0, "u")

        def failing(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", failing)
        got = qfracops._lattice_solve(f, g.points, w, pref, -4.0, "u")
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_past_double_range_names_the_deepest_non_finite_row(self):
        # rows 0..150 read f_150; the substitution meets index 150 first
        g = grid(q=0.9, depth=300)
        w, pref = _integral_table(g, 0.75)
        f = np.ones(301)
        f[150] = np.inf
        with pytest.raises(DomainError, match=r"^u leaves double range: non-finite value at "
                           r"lattice index 150 \(x="):
            qfracops._lattice_solve(f, g.points, w, pref, 2.0, "u")


class TestRLDerivative:
    def test_power_basis_rule(self):
        g = grid()
        a = g.point(4)
        lam, alpha = 1.4, 0.6
        u = sample(g, masked_pb(P5, a, lam))
        out = rl_derivative(u, LatticePoint(4), alpha)
        coef = q_gamma(P5, lam + 1.0) / q_gamma(P5, lam + 1.0 - alpha)
        for m in range(3):
            want = coef * q_power_basis(P5, g.point(m), a, lam - alpha)
            assert out.values[m] == pytest.approx(want, rel=1e-7)

    def test_annihilation_at_integer_offset(self):
        g = grid()
        a = g.point(4)
        u = sample(g, masked_pb(P5, a, 0.6))
        out = rl_derivative(u, LatticePoint(4), 1.6)  # offset exactly 1
        assert np.max(np.abs(out.values[:2])) < 1e-8

    def test_left_inverse(self):
        g = grid()
        u = sample(g, lambda x: x)
        back = rl_derivative(rl_integral(u, ZERO, 0.8), ZERO, 0.8)
        assert back.values[:100] == pytest.approx(u.values[:100], rel=1e-7)

    def test_depth_guard(self):
        u = sample(grid(depth=8), lambda x: x)
        with pytest.raises(DepthError):
            rl_derivative(u, ZERO, 7.5)


class TestCaputo:
    def test_kills_constants(self):
        u = sample(grid(), lambda x: 4.2)
        out = caputo_derivative(u, ZERO, 0.5)
        assert np.max(np.abs(out.values[:150])) < 1e-10

    def test_power_rule(self):
        g = grid()
        u = sample(g, lambda x: x)
        out = caputo_derivative(u, ZERO, 0.5)
        coef = q_gamma(P5, 2.0) / q_gamma(P5, 1.5)
        want = coef * g.points[:100] ** 0.5
        assert out.values[:100] == pytest.approx(want, rel=1e-8)

    def test_order_one_is_exact_q_derivative(self):
        from qfrac.qgrid import q_derivative

        g = grid(depth=40)
        u = GridFunction(g, np.random.default_rng(1).standard_normal(41))
        got = caputo_derivative(u, ZERO, 1.0)
        want = q_derivative(u)
        assert np.array_equal(got.values, want.values)

    def test_order_range(self):
        u = sample(grid(depth=20), lambda x: x)
        with pytest.raises(DomainError):
            caputo_derivative(u, ZERO, 1.5)


@pytest.mark.parametrize("q,depth", [(0.5, 200), (0.5, 1000), (0.98, 4000)])
@pytest.mark.parametrize("op", ["caputo", "hilfer-mu-one"])
def test_integer_gamma_stage_is_not_cut(q, depth, op):
    # 0-anchored with gamma = 1 the stage is D_q u of samples: nothing is
    # truncated, so the power rule holds out to the outer integral's own
    # tail window, and trusted_stop loses only the one edge index
    g = grid(q=q, depth=depth)
    for power in (0.4, 0.5, 0.6, 1.0, 1.6):
        u = sample(g, lambda x: x**power)
        stop_tail = tail_window(q, depth, power, 0.0, 1e-9)
        for s in (0.3, 0.6, 0.9):
            out = (caputo_derivative(u, ZERO, s) if op == "caputo"
                   else hilfer_derivative(u, ZERO, FracOrders(s, 0.5, 1.0, 1)))
            assert out.trusted_stop == depth
            stop = min(out.trusted_stop, stop_tail)
            x = g.points[:stop]
            want = (q_gamma(g.params, power + 1.0) / q_gamma(g.params, power + 1.0 - s)
                    * x ** (power - s))
            keep = x ** (power + 2.0) >= 1e-290  # as verify skips underflowing rows
            err = np.abs(out.values[:stop] - want)[keep] / np.abs(want[keep])
            assert err.max() < 1e-9, (power, s, err.max())


class TestHilfer:
    def test_mu_zero_is_rl_of_beta(self):
        g = grid()
        o = FracOrders(alpha=0.9, beta=0.6, mu=0.0, n=1)
        u = sample(g, lambda x: x**1.5)
        got = hilfer_derivative(u, ZERO, o)
        want = rl_derivative(u, ZERO, 0.6)
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("q,depth", [(0.5, 200), (0.5, 1000), (0.98, 4000)])
    @pytest.mark.parametrize("anchor", ["zero", "lattice"])
    def test_mu_one_is_caputo_of_alpha(self, anchor, q, depth):
        g = grid(q=q, depth=depth)
        a = ZERO if anchor == "zero" else LatticePoint(int(0.85 * depth))
        o = FracOrders(alpha=0.7, beta=0.4, mu=1.0, n=1)
        u = sample(g, lambda x: x**1.5)
        got = hilfer_derivative(u, a, o)
        want = caputo_derivative(u, a, 0.7)
        assert np.array_equal(got.values, want.values)

    def test_kernel_annihilation_origin(self):
        g = grid()
        o = FracOrders(alpha=0.9, beta=0.4, mu=0.6, n=1)
        u = sample(g, lambda x: x ** (o.gamma - 1.0))
        got = hilfer_derivative(u, ZERO, o)
        # annihilated outputs measure pure noise; roundoff grows ~ eps q**-m,
        # so only a shallow window is meaningfully zero
        stop = min(got.trusted_stop, 12)
        assert np.max(np.abs(got.values[:stop])) < 1e-7

    def test_kernel_annihilation_lattice_k_below_n(self):
        g = grid()
        o = FracOrders(alpha=1.9, beta=1.4, mu=0.6, n=2)
        a = g.point(6)
        u = sample(g, masked_pb(P5, a, o.gamma - 1.0))
        got = hilfer_derivative(u, LatticePoint(6), o)
        assert np.max(np.abs(got.values[:4])) < 1e-7

    def test_raw_composition_agrees(self):
        g = grid()
        o = FracOrders(alpha=0.8, beta=0.3, mu=0.45, n=1)
        a = g.point(6)
        u = sample(g, masked_pb(P5, a, 1.3))
        got = hilfer_derivative(u, LatticePoint(6), o)
        raw = hilfer_derivative_raw(u, LatticePoint(6), o)
        assert got.values[:5] == pytest.approx(raw.values[:5], rel=1e-7)

    def test_linearity(self):
        g = grid()
        o = FracOrders(alpha=0.8, beta=0.4, mu=0.6, n=1)
        rng = np.random.default_rng(2)
        u = GridFunction(g, rng.standard_normal(201))
        v = GridFunction(g, rng.standard_normal(201))
        combo = GridFunction(g, 1.7 * u.values - 0.3 * v.values)
        lhs = hilfer_derivative(combo, LatticePoint(5), o).values[:4]
        rhs = (1.7 * hilfer_derivative(u, LatticePoint(5), o).values[:4]
               - 0.3 * hilfer_derivative(v, LatticePoint(5), o).values[:4])
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_depth_guard(self):
        o = FracOrders(alpha=0.8, beta=0.4, mu=0.6, n=1)
        g = LatticeGrid(b=1.0, depth=8, params=P5)
        # depth 8 >= n+1 works; a too-shallow request must fail before compute
        u = sample(g, lambda x: x)
        hilfer_derivative(u, ZERO, o)
        o2 = FracOrders(alpha=7.5, beta=7.5, mu=0.5, n=8)
        with pytest.raises(DepthError):
            hilfer_derivative(u, ZERO, o2)

    def test_stage_cut_monotone_in_n(self):
        g = grid()
        o1 = FracOrders(alpha=0.9, beta=0.9, mu=0.5, n=1)
        o2 = FracOrders(alpha=1.9, beta=1.9, mu=0.5, n=2)
        u = sample(g, lambda x: x)
        assert derivative_stage_cut(u, ZERO, o2) <= derivative_stage_cut(u, ZERO, o1)


@pytest.fixture
def summand_counts(monkeypatch):
    """Summand counts of the _lattice_sums calls made while the test runs."""
    calls = []
    lattice_sums = qfracops._lattice_sums

    def counted(s, w):
        calls.append(len(s))
        return lattice_sums(s, w)

    monkeypatch.setattr(qfracops, "_lattice_sums", counted)
    return calls


class TestStageIntegral:
    """The outer integral of a two-order derivative sums only the stage rows above its cut."""

    @pytest.mark.parametrize("q, depth, anchor", [
        (0.98, 4000, "zero"), (0.5, 1000, "zero"), (0.5, 1000, "0.85M")])
    @pytest.mark.parametrize("orders", [(0.7, 0.4, 0.5, 1), (1.7, 1.4, 0.5, 2)])
    def test_rows_above_the_cut_only(self, q, depth, anchor, orders, summand_counts):
        g = grid(q=q, depth=depth)
        a = ZERO if anchor == "zero" else LatticePoint(round(0.85 * depth))
        o = FracOrders(*orders)
        assert abs(o.gamma - round(o.gamma)) > 0.1  # a fractional gamma
        for power in (0.5, 1.0, 1.6):
            u = sample(g, lambda x: x**power)
            d = rl_derivative(u, a, o.gamma)
            cut = min(derivative_stage_cut(u, a, o), d.trusted_stop)
            summand_counts.clear()
            got = hilfer_derivative(u, a, o)
            assert summand_counts[-1] == cut < depth + 1
            assert not np.any(got.values[cut:])
            # the stage zeroed from the cut on, integrated over every row
            clean = d.values.copy()
            clean[cut:] = 0.0
            staged = GridFunction(g, clean, domain_stop=d.domain_stop)
            step = o.gamma - o.nu
            want = rl_integral(staged, a, step)
            pref = g.points[:cut] ** (step - 1.0) * (1.0 - q) / q_gamma(g.params, step)
            _, mag = per_row_sums(g.points[:cut] * clean[:cut], _integral_table(g, step)[0])
            assert_rows_close(got.values[:cut], want.values[:cut], pref * mag, cut)
            guard = max(want.domain_stop - cut, 0)
            assert (got.domain_stop, got.guard) == (want.domain_stop, guard)
            assert got.trusted_stop == max(want.domain_stop - guard, 0)


class TestQDerivativeOverflow:
    """0-anchored derivatives at the deepest admissible depth of q = 0.5."""

    @pytest.mark.parametrize("op, fn, index", [
        (lambda u: hilfer_derivative(u, ZERO, FracOrders(1.7, 1.2, 0.4, 2)),
         lambda x: 1.0 + x, 675),
        (lambda u: caputo_derivative(u, ZERO, 0.5), lambda x: x**-0.3, 789),
    ])
    def test_overflow_named(self, op, fn, index):
        g = grid(depth=1022)
        u = sample(g, fn)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning first
            with pytest.raises(DomainError, match=(
                    rf"q-derivative overflow at lattice index {index} "
                    rf"\(x={g.point(index)!r}\)")):
                op(u)


class TestCompositionLaws:
    def test_semigroup(self):
        g = grid()
        u = sample(g, lambda x: x)
        one = rl_integral(rl_integral(u, ZERO, 0.7), ZERO, 0.6)
        two = rl_integral(u, ZERO, 1.3)
        assert one.values[:120] == pytest.approx(two.values[:120], rel=1e-7)

    def test_reduced_derivative(self):
        g = grid()
        u = sample(g, lambda x: x * x)
        lhs = rl_derivative(rl_integral(u, ZERO, 1.1), ZERO, 0.4)
        rhs = rl_integral(u, ZERO, 0.7)
        assert lhs.values[:100] == pytest.approx(rhs.values[:100], rel=1e-7)

    def test_boundedness_constant(self):
        g = grid()
        rng = np.random.default_rng(9)
        alpha = 0.8
        K = q_power_basis(P5, 1.0, 0.0, alpha) / q_gamma(P5, alpha + 1.0)
        for _ in range(10):
            u = GridFunction(g, rng.uniform(0.0, 1.0, 201))
            out = rl_integral(u, ZERO, alpha)
            lhs = float(np.sum(g.points * np.abs(out.values))) * 0.5
            rhs = K * float(np.sum(g.points * np.abs(u.values))) * 0.5
            assert lhs <= rhs * (1 + 1e-9)


_OPERATORS = {
    "rl_integral": lambda u, a, o: rl_integral(u, a, o.alpha),
    "rl_derivative": lambda u, a, o: rl_derivative(u, a, o.alpha),
    "caputo_derivative": lambda u, a, o: caputo_derivative(u, a, o.alpha - o.n + 1),
    "hilfer_derivative": hilfer_derivative,
}


@settings(max_examples=300, deadline=None)
@given(
    q=st.floats(0.05, 0.95),
    depth=st.integers(8, 400),
    anchor_index=st.one_of(st.none(), st.integers(0, 400)),
    power=st.floats(-0.9, 3.0),
    op=st.sampled_from(sorted(_OPERATORS)),
    n=st.integers(1, 2),
    alpha=st.floats(0.01, 1.0),
    beta=st.floats(0.01, 1.0),
    mu=st.floats(0.0, 1.0),
)
def test_operator_contract(q, depth, anchor_index, power, op, n, alpha, beta, mu):
    """Finite values or a QFracError, and never a numpy RuntimeWarning."""
    orders = FracOrders(alpha=n - 1 + alpha, beta=n - 1 + beta, mu=mu, n=n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            g = grid(q=q, depth=depth)
            anchor = ZERO if anchor_index is None else LatticePoint(min(anchor_index, depth))
            out = _OPERATORS[op](sample(g, lambda x: x**power), anchor, orders)
        except QFracError:
            return
    assert np.all(np.isfinite(out.values))
