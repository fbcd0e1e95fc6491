"""Lattice grids, exact q-differentiation, Jackson sums, CSV round trips."""

import io
import math

import numpy as np
import pytest

from qfrac.errors import (
    DepthError,
    DomainError,
    OffLatticeError,
    SampleError,
    TailWarning,
)
from qfrac.qcore import QParams, q_number
from qfrac.qfracops import FracOrders, derivative_stage_cut
from qfrac.qgrid import (
    ZERO,
    GridFunction,
    LatticeGrid,
    LatticePoint,
    jackson_integral,
    l1q_norm,
    lattice_locate,
    q_derivative,
    q_derivative_n,
    roundoff_window,
    sample,
    tail_window,
)
from qfrac.solver import _trust_stop

P5 = QParams(0.5)


def grid(q=0.5, b=1.0, depth=200):
    return LatticeGrid(b=b, depth=depth, params=QParams(q))


class TestLatticeGrid:
    def test_points_decrease_geometrically(self):
        g = grid(depth=10)
        assert np.allclose(g.points, 0.5 ** np.arange(11))
        assert np.all(np.diff(g.points) < 0)

    def test_depth_floor_enforced(self):
        with pytest.raises(DepthError):
            LatticeGrid(b=1.0, depth=2, params=P5)

    @pytest.mark.parametrize("depth", [1023, 1075])
    def test_subnormal_points_rejected(self, depth):
        # 0.5**1023 is subnormal and 0.5**1075 rounds to 0
        with pytest.raises(DepthError, match="deepest admissible depth is 1022"):
            LatticeGrid(b=1.0, depth=depth, params=P5)

    @pytest.mark.parametrize("q, depth", [(0.5, 1022), (0.98, 4000)])
    def test_normal_points_accepted(self, q, depth):
        g = grid(q=q, depth=depth)
        assert g.points[-1] >= np.finfo(float).tiny

    def test_anchor_positive(self):
        with pytest.raises(DomainError):
            LatticeGrid(b=0.0, depth=20, params=P5)

    def test_points_read_only(self):
        g = grid()
        with pytest.raises(ValueError):
            g.points[0] = 2.0


class TestLatticeLocate:
    def test_exact_point(self):
        assert lattice_locate(grid(), 0.25) == LatticePoint(2)

    def test_origin(self):
        assert lattice_locate(grid(), 0.0) is ZERO

    def test_off_lattice(self):
        with pytest.raises(OffLatticeError):
            lattice_locate(grid(), 0.3)

    def test_negative(self):
        with pytest.raises(OffLatticeError):
            lattice_locate(grid(), -0.5)

    def test_tolerant_within_relative_window(self):
        assert lattice_locate(grid(), 0.25 * (1 + 1e-10)) == LatticePoint(2)


class TestSample:
    def test_constant(self):
        u = sample(grid(depth=10), lambda x: 1.0)
        assert np.all(u.values == 1.0)

    def test_identity_gives_lattice_points(self):
        g = grid(depth=10)
        u = sample(g, lambda x: x)
        assert np.array_equal(u.values, g.points)

    def test_square_on_wide_grid(self):
        g = LatticeGrid(b=2.0, depth=10, params=P5)
        u = sample(g, lambda x: x * x)
        assert u.values[:3] == pytest.approx([4.0, 1.0, 0.25], rel=1e-15)

    def test_non_finite_sample_reports_index(self):
        g = grid(depth=10)
        with pytest.raises(SampleError) as err:
            sample(g, lambda x: float("nan") if x < 0.2 else x)
        assert err.value.index == 3  # first lattice point below 0.2 is 0.125


class TestGridFunction:
    def test_length_validated(self):
        g = grid(depth=10)
        with pytest.raises(DomainError):
            GridFunction(g, np.ones(5))

    def test_non_finite_rejected(self):
        g = grid(depth=10)
        vals = np.ones(11)
        vals[7] = np.inf
        with pytest.raises(DomainError):
            GridFunction(g, vals)

    def test_values_immutable(self):
        u = sample(grid(depth=10), lambda x: x)
        with pytest.raises(ValueError):
            u.values[0] = 9.9

    def test_csv_round_trip_bit_exact(self):
        g = grid(depth=30)
        rng = np.random.default_rng(3)
        u = GridFunction(g, rng.standard_normal(31) * 1e3)
        buf = io.StringIO(u.to_csv_text())
        back = GridFunction.from_csv(buf, g.params)
        assert np.array_equal(back.values, u.values)
        assert back.grid.depth == g.depth and back.grid.b == g.b

    def test_csv_header_checked(self):
        with pytest.raises(DomainError):
            GridFunction.from_csv(io.StringIO("x,y\n0,1\n"), P5)


class TestQDerivative:
    def test_constant_maps_to_zero(self):
        u = sample(grid(depth=20), lambda x: 3.7)
        assert np.all(q_derivative(u).values == 0.0)

    def test_identity_maps_to_one(self):
        u = sample(grid(depth=20), lambda x: x)
        d = q_derivative(u)
        assert d.values[:20] == pytest.approx(np.ones(20), rel=1e-14)

    def test_square_scales_by_q_two(self):
        g = grid(depth=20)
        u = sample(g, lambda x: x * x)
        d = q_derivative(u)
        assert d.values[:20] == pytest.approx(1.5 * g.points[:20], rel=1e-14)

    @pytest.mark.parametrize("n", range(0, 6))
    def test_monomials_exact(self, n):
        g = grid(q=0.7, depth=40)
        u = sample(g, lambda x: x**n)
        d = q_derivative(u)
        want = q_number(g.params, n) * g.points**(n - 1) if n else np.zeros(41)
        assert d.values[:40] == pytest.approx(want[:40], rel=1e-12, abs=1e-15)

    def test_padding_flagged(self):
        u = sample(grid(depth=20), lambda x: x)
        d = q_derivative(u)
        assert d.values[20] == d.values[19]
        assert d.guard == 1 and d.trusted_stop == 20


class TestQDerivativeN:
    def test_second_of_square_is_constant(self):
        u = sample(grid(depth=20), lambda x: x * x)
        d = q_derivative_n(u, 2)
        assert d.values[:18] == pytest.approx(np.full(18, 1.5), rel=1e-13)

    def test_second_of_linear_is_zero(self):
        u = sample(grid(depth=20), lambda x: x)
        assert np.max(np.abs(q_derivative_n(u, 2).values[:18])) < 1e-13

    def test_first_of_constant_is_zero(self):
        u = sample(grid(depth=20), lambda x: 2.0)
        assert np.all(q_derivative_n(u, 1).values == 0.0)

    def test_depth_guard(self):
        u = sample(grid(depth=10), lambda x: x)
        with pytest.raises(DepthError):
            q_derivative_n(u, 10)


class TestJacksonIntegral:
    def test_unit_over_full_interval(self):
        u = sample(grid(), lambda x: 1.0)
        got = jackson_integral(u, ZERO, LatticePoint(0))
        assert abs(got - 1.0) < 0.5**200

    def test_linear_over_full_interval(self):
        u = sample(grid(), lambda x: x)
        got = jackson_integral(u, ZERO, LatticePoint(0))
        assert got == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_between_lattice_points_exact(self):
        u = sample(grid(), lambda x: 1.0)
        got = jackson_integral(u, LatticePoint(1), LatticePoint(0))
        assert got == 0.5

    def test_equal_endpoints_vanish(self):
        u = sample(grid(), lambda x: 1.0)
        assert jackson_integral(u, LatticePoint(3), LatticePoint(3)) == 0.0

    def test_order_validated(self):
        u = sample(grid(), lambda x: 1.0)
        with pytest.raises(DomainError):
            jackson_integral(u, LatticePoint(0), LatticePoint(5))

    def test_tail_warning_for_slow_decay(self):
        g = grid(depth=50)
        u = sample(g, lambda x: 1.0 / x)
        with pytest.warns(TailWarning):
            jackson_integral(u, ZERO, LatticePoint(0))

    def test_warning_suppressible(self):
        g = grid(depth=50)
        u = sample(g, lambda x: 1.0 / x)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jackson_integral(u, ZERO, LatticePoint(0), warn=False)

    def test_linearity(self):
        g = grid()
        rng = np.random.default_rng(11)
        u = GridFunction(g, rng.standard_normal(201))
        v = GridFunction(g, rng.standard_normal(201))
        combo = GridFunction(g, 2.5 * u.values - 1.25 * v.values)
        top = LatticePoint(0)
        lhs = jackson_integral(combo, ZERO, top, warn=False)
        rhs = (2.5 * jackson_integral(u, ZERO, top, warn=False)
               - 1.25 * jackson_integral(v, ZERO, top, warn=False))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_additivity(self):
        g = grid()
        u = GridFunction(g, np.random.default_rng(5).standard_normal(201))
        whole = jackson_integral(u, LatticePoint(30), LatticePoint(3))
        split = (jackson_integral(u, LatticePoint(30), LatticePoint(12))
                 + jackson_integral(u, LatticePoint(12), LatticePoint(3)))
        assert whole == pytest.approx(split, rel=1e-12)

    def test_fundamental_theorem(self):
        g = grid()
        for n in range(1, 6):
            u = sample(g, lambda x, n=n: x**n)
            got = jackson_integral(q_derivative(u), ZERO, LatticePoint(0), warn=False)
            assert got == pytest.approx(1.0, abs=1e-9)

    def test_truncation_monotone_in_depth(self):
        vals = []
        for depth in (8, 20, 60, 150):
            g = grid(q=0.8, depth=depth)
            u = sample(g, lambda x: np.exp(-x))
            vals.append(jackson_integral(u, ZERO, LatticePoint(0), warn=False))
        assert np.all(np.diff(vals) >= -1e-15)


class TestL1qNorm:
    def test_zero_function(self):
        u = sample(grid(), lambda x: 0.0)
        assert l1q_norm(u, ZERO, LatticePoint(0)) == 0.0

    def test_negative_constant(self):
        u = sample(grid(), lambda x: -1.0)
        got = l1q_norm(u, ZERO, LatticePoint(0))
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_identity(self):
        u = sample(grid(), lambda x: x)
        assert l1q_norm(u, ZERO, LatticePoint(0)) == pytest.approx(2 / 3, abs=1e-9)

    def test_nonnegative_and_definite(self):
        g = grid(depth=30)
        vals = np.zeros(31)
        vals[4] = -2.0
        u = GridFunction(g, vals)
        assert l1q_norm(u, ZERO, LatticePoint(0), warn=False) > 0.0


# The trusted-window formulas as each call site wrote them out before they
# were shared through tail_window and roundoff_window.


def former_trust_stop(q, M, d):
    """solver._trust_stop, anchored at 0."""
    s = math.log(1.0 / 1e-12) / math.log(1.0 / q)
    stop = int(((M + 1) * d - s) / (1.0 + d))
    return min(max(stop, 1), M + 1)


def former_stage_cut(q, M, d, n):
    """qfracops.derivative_stage_cut, anchored at 0."""
    s = math.log(1.0 / 1e-12) / math.log(1.0 / q)
    stop = int(((M + 1) * d - s) / (d + n))
    if n >= 2:
        r_stop = int(math.log(1e-9 / 2.3e-16) / ((n - 1) * math.log(1.0 / q)))
        stop = min(stop, r_stop)
    return min(max(stop, 1), M + 1)


def former_deriv_stop(q, M, decay, amp, target=1e-12):
    """verify._deriv_stop."""
    s = math.log(1.0 / target) / math.log(1.0 / q)
    stop = int(((M + 1) * decay - s) / (decay + max(amp, 0.0)))
    return max(stop, 1)


def former_clean_stop(q, M, decay, target=1e-9):
    """verify._clean_stop."""
    need = math.log(1.0 / target) / (decay * math.log(1.0 / q))
    return max(int(M + 1 - need), 1)


def former_roundoff_stop(q, amp, n, target=1e-11):
    """verify._roundoff_stop."""
    budget = target * (1.0 - q) ** n / 2.3e-16
    return max(int(math.log(budget) / (amp * math.log(1.0 / q))), 1)


def former_ic_cap(q, j):
    """The initial-condition evaluation cap of solver.verify_equivalence."""
    return int(math.log(1e-8 * (1.0 - q) ** j / 2.3e-16) / (j * math.log(1.0 / q)))


WINDOW_Q = (0.3, 0.5, 0.7, 0.9, 0.98)
WINDOW_DEPTHS = (*range(8, 4001, 17), 200, 280, 800, 1000, 1022, 4000)
CAPPED_DECAYS = np.linspace(0.05, 1.0, 20)  # min(order, 1) decays
POWER_DECAYS = np.linspace(0.5, 4.0, 15)  # lam + 1 decays of the power identities
AMPS = (1, 2, 3, *np.linspace(0.02, 3.0, 10))


@pytest.mark.parametrize("q", WINDOW_Q)
class TestWindowsMatchFormerFormulas:
    def test_tail_window(self, q):
        for M in WINDOW_DEPTHS:
            for d in CAPPED_DECAYS:
                assert tail_window(q, M, d, 1.0) == former_trust_stop(q, M, d)
                for n in (1, 2, 3):
                    assert tail_window(q, M, d, n) == former_deriv_stop(q, M, d, n)
            for decay in (*CAPPED_DECAYS, *POWER_DECAYS):
                for amp in AMPS:
                    assert (tail_window(q, M, decay, amp)
                            == former_deriv_stop(q, M, decay, amp))
                for target in (1e-9, 1e-10, 1e-11):
                    assert (tail_window(q, M, decay, 0.0, target)
                            == former_clean_stop(q, M, decay, target))

    def test_roundoff_window(self, q):
        for amp in AMPS:
            for n in (1, 2, 3):
                assert (max(roundoff_window(q, amp, n, 1e-11), 1)
                        == former_roundoff_stop(q, amp, n))
        for j in (1, 2, 3):
            assert roundoff_window(q, j, j, 1e-8) == former_ic_cap(q, j)

    def test_call_sites(self, q):
        fracs = (0.15, 0.5, 0.9, 1.0)
        for M in WINDOW_DEPTHS:
            if q**M < np.finfo(float).tiny:
                continue
            u = GridFunction(LatticeGrid(b=1.0, depth=M, params=QParams(q)), np.zeros(M + 1))
            for n in (1, 2, 3):
                for fa in fracs:
                    for fb in fracs:
                        for mu in (0.0, 0.5, 1.0):
                            o = FracOrders(n - 1 + fa, n - 1 + fb, mu, n)
                            d = min(o.gamma - n + 1.0, 1.0)
                            # integer gamma (mu = 1 or beta = n): D_q^n of samples, no cut
                            want = (M + 1 - n if abs(o.gamma - n) < 1e-12
                                    else former_stage_cut(q, M, d, n))
                            assert derivative_stage_cut(u, ZERO, o) == want
                            assert (_trust_stop(u.grid, o, None)
                                    == former_trust_stop(q, M, min(o.nu, d)))
