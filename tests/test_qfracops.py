"""Fractional q-operators: closed-form identities, reductions, error paths."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfrac.errors import DepthError, DomainError, QFracError
from qfrac.qcore import QParams, q_gamma, q_power_basis
from qfrac.qgrid import ZERO, GridFunction, LatticeGrid, LatticePoint, sample, tail_window
from qfrac.qfracops import (
    FracOrders,
    _weights_for,
    caputo_derivative,
    derivative_stage_cut,
    hilfer_derivative,
    rl_derivative,
    rl_integral,
)
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
    w = _weights_for(g, alpha)
    pref = x ** (alpha - 1.0) * (1.0 - g.q) / q_gamma(g.params, alpha)
    s = x * u.values
    out = np.zeros(M + 1)
    stop = M + 1 if m_a is None else m_a
    top = M + 1 if m_a is None else m_a + 1
    for m in range(min(top, M + 1)):
        if stop > m:
            out[m] = pref[m] * float(np.dot(w[: stop - m], s[m:stop]))
    return out, min(top, u.domain_stop), u.guard


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
        for alpha in (0.35, 0.75, 1.5):
            out = rl_integral(u, a, alpha)
            want, domain_stop, guard = per_row_rl_integral(u, a, alpha)
            assert np.array_equal(out.values, want)
            assert (out.domain_stop, out.guard) == (domain_stop, guard)
            if a == LatticePoint(0):
                assert not np.any(out.values)  # empty sums


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

    def test_mu_one_is_caputo_of_alpha(self):
        g = grid()
        o = FracOrders(alpha=0.7, beta=0.4, mu=1.0, n=1)
        u = sample(g, lambda x: x**1.5)
        got = hilfer_derivative(u, ZERO, o)
        want = caputo_derivative(u, ZERO, 0.7)
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
