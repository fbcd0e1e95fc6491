"""Cauchy-problem solver: Picard machinery, closed form, equivalence checks."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from qfrac.errors import (
    DivergenceError,
    DomainError,
    MaxIterError,
    NoContractionError,
    NonConvergenceError,
    OffLatticeError,
    SampleError,
)
from qfrac.qcore import QParams, masked_power_basis, q_gamma, q_power_basis
from qfrac.qgrid import (
    ZERO,
    GridFunction,
    LatticeGrid,
    LatticePoint,
    _sum_range,
    anchor_index,
    lattice_locate,
    sample,
)
from qfrac.qfracops import FracOrders, hilfer_derivative, rl_integral
from qfrac.solver import (
    CauchyProblem,
    LinearProblem,
    Solution,
    as_cauchy,
    contraction_constant,
    initial_term,
    linear_solve,
    picard_solve,
    verify_equivalence,
)
from qfrac import qfracops, qml, solver, verify
from qfrac.problems import make_example41, make_example42, make_linear_problem

P5 = QParams(0.5)


def grid(q=0.5, depth=200, b=1.0):
    return LatticeGrid(b=b, depth=depth, params=QParams(q))


def l1(g, vals):
    return float((1 - g.q) * np.sum(g.points * np.abs(vals)))


def make_problem(orders=None, a=0.0, rhs=None, xi=(1.0,), A=0.5, params=P5):
    return CauchyProblem(
        orders=orders or FracOrders(alpha=0.9, beta=0.7, mu=0.0, n=1),
        a=a,
        b=1.0,
        rhs=rhs or (lambda x, y: 0.0),
        xi=xi,
        lipschitz_A=A,
        params=params,
    )


class TestProblemTypes:
    def test_xi_count_enforced(self):
        with pytest.raises(DomainError):
            make_problem(xi=(1.0, 2.0))

    def test_lipschitz_positive(self):
        with pytest.raises(DomainError):
            make_problem(A=0.0)

    def test_linear_certificate_enforced_at_construction(self):
        o = FracOrders(alpha=1.0, beta=1.0, mu=0.0, n=1)
        with pytest.raises(DivergenceError):
            LinearProblem(orders=o, a=0.0, b=1.0, lam=3.0, forcing=lambda x: 0.0,
                          xi=(0.0,), params=P5)

    def test_solution_invariants(self):
        g = grid(depth=10)
        y = sample(g, lambda x: x)
        with pytest.raises(DomainError):
            Solution(y=y, iterations_per_interval=(1,), omega_per_interval=(1.2,),
                     residual_l1=0.0, subinterval_boundaries=(0,))
        with pytest.raises(DomainError):
            Solution(y=y, iterations_per_interval=(1,), omega_per_interval=(0.5,),
                     residual_l1=-1.0, subinterval_boundaries=(0,))
        with pytest.raises(DomainError):
            Solution(y=y, iterations_per_interval=(1,), omega_per_interval=(0.5,),
                     residual_l1=0.0, subinterval_boundaries=(0,), residual_rel=-1.0)


class TestInitialTerm:
    def test_zero_data_zero_function(self):
        g = grid()
        y = initial_term(make_problem(xi=(0.0,)), g)
        assert np.all(y.values == 0.0)

    def test_single_term_origin(self):
        g = grid()
        o = FracOrders(alpha=0.9, beta=0.6, mu=0.5, n=1)  # gamma = 0.75
        c = 2.2
        y = initial_term(make_problem(orders=o, xi=(c,)), g)
        want = c * g.points ** (o.gamma - 1.0) / q_gamma(P5, o.gamma)
        assert y.values == pytest.approx(want, rel=1e-10)

    def test_lattice_anchor_componentwise(self):
        g = grid()
        m_a = 4
        o = FracOrders(alpha=1.0, beta=0.5, mu=0.5, n=1)  # gamma = 0.75
        p = make_problem(orders=o, a=g.point(m_a), xi=(1.0,))
        y = initial_term(p, g)
        for m in range(m_a + 1):
            want = q_power_basis(P5, g.point(m), g.point(m_a), o.gamma - 1.0) / q_gamma(
                P5, o.gamma
            )
            assert y.values[m] == pytest.approx(want, abs=1e-10)
        assert np.all(y.values[m_a + 1:] == 0.0)


@pytest.mark.parametrize("q,depth", [*verify.DEPTH.items(), (0.98, 4000)])
@pytest.mark.parametrize("base", ["origin", "interior", "below-grid", "m4", "m6"])
def test_lattice_power_matches_scalar_basis(q, depth, base):
    # verify's power-basis inputs read this table on its grids, at m = 4 and 6
    g = grid(q=q, depth=depth)
    m_base = {"origin": None, "interior": int(0.85 * depth), "below-grid": depth + 1,
              "m4": 4, "m6": 6}[base]
    x_base = (0.0 if m_base is None else g.point(m_base) if m_base <= depth
              else g.b * g.q ** float(m_base))
    for s in (-0.85, -0.5, -0.4, 0.0, 0.6, 1.0, 1.3, 2.0, 2.9, 3.0):
        got = solver._lattice_power(g, m_base, s)
        want = np.array([masked_power_basis(g.params, x, x_base, s) for x in g.points])
        assert np.array_equal(got == 0.0, want == 0.0), s
        nz = np.abs(want) > 1e-290  # deeper, x**s is subnormal on both sides
        err = np.abs(got[nz] - want[nz]) / np.abs(want[nz])
        assert err.max() <= 1e-13, (s, err.max())


@pytest.mark.parametrize("q,depth", [(0.5, 200), (0.98, 4000)])
def test_lattice_power_reads_only_its_rows(q, depth, monkeypatch):
    # a table of m weights is the full table's first m entries, bit for bit (the
    # recurrence is a cumulative product), so _lattice_power asks for m_base of them
    g, lengths = grid(q=q, depth=depth), []
    p, kernel = g.params, qfracops._kernel_weights

    def recording(*args):
        lengths.append(args[-1])
        return kernel(*args)

    monkeypatch.setattr(solver, "_kernel_weights", recording)
    for s in (-0.4, 0.6, 1.3):
        full_w, full_pref = kernel(p.q, p.eps_product, p.max_terms, s + 1.0, g.b, depth + 1)
        for m in (1, 4, depth // 2, depth + 1):
            w, pref = kernel(p.q, p.eps_product, p.max_terms, s + 1.0, g.b, m)
            assert w.tolist() == full_w[:m].tolist() and pref.tolist() == full_pref[:m].tolist()
            got = solver._lattice_power(g, m, s)
            assert lengths[-1] == m
            assert got[:m].tolist() == (g.points[:m] ** s * full_w[:m][::-1]).tolist()


def scalar_split(p, g, m_a):
    """The greedy split one lattice step at a time, on contraction_constant; each
    omega-block then cut from its deep end into runs of at most 64 rows, each with
    the omega of its own lower end."""
    blocks, lo = [], p.a
    cand = g.depth if m_a is None else m_a - 1
    while cand >= 0:
        m = cand
        omega = contraction_constant(p, lo, g.point(m))
        if omega >= 1.0:
            raise NoContractionError(f"omega={omega}")
        while m > 0 and (w := contraction_constant(p, lo, g.point(m - 1))) < 0.9:
            m, omega = m - 1, w
        hi = cand
        while hi >= m:
            upper = max(hi + 1 - 64, m)
            blocks.append((upper, contraction_constant(p, lo, g.point(upper))))
            lo, hi = g.point(upper), upper - 1
        cand = m - 1
    return blocks


def omega_split(p, g, m_a):
    """The paper's split alone, as the solver formed it before the 64-row cap: one
    _lattice_power array per omega-block, whose lower end x_lo is the base x_(lo+1)."""
    blocks, gamma_nu1 = [], q_gamma(p.params, p.orders.nu + 1.0)
    base, cand = (None, g.depth) if m_a is None else (m_a + 1, m_a - 1)
    while cand >= 0:
        omega = p.lipschitz_A * solver._lattice_power(g, base, p.orders.nu)[:cand + 1] / gamma_nu1
        if omega[cand] >= 1.0:
            raise NoContractionError(f"omega={omega[cand]}")
        over = np.flatnonzero(omega[:cand] >= 0.9)
        m = int(over[-1]) + 1 if over.size else 0
        blocks.append((m, float(omega[m])))
        base, cand = m + 1, m - 1
    return blocks


def test_split_and_initial_term_match_scalar_reference():
    rng = np.random.default_rng(11)
    for case in range(60):
        q = float(rng.uniform(0.3, 0.95))
        g = grid(q=q, depth=int(rng.integers(40, 300)))
        n = int(rng.integers(1, 3))
        alpha, beta = n - 1 + rng.uniform(0.05, 1.0, size=2)
        orders = FracOrders(float(alpha), float(beta), float(rng.uniform()), n)
        m_a = None if case % 2 else int(rng.integers(g.depth // 4, g.depth))
        p = make_problem(orders=orders, a=0.0 if m_a is None else g.point(m_a),
                         xi=tuple(rng.uniform(-2.0, 2.0, size=n)),
                         A=float(rng.uniform(0.2, 1.6)), params=g.params)
        try:
            want = scalar_split(p, g, m_a)
        except NoContractionError:
            with pytest.raises(NoContractionError):
                solver._split_subintervals(p, g, m_a)
            continue
        got = solver._split_subintervals(p, g, m_a)
        assert [m for m, _ in got] == [m for m, _ in want], case
        w_got, w_want = np.array([w for _, w in got]), np.array([w for _, w in want])
        assert np.all(np.abs(w_got - w_want) <= 1e-13 * w_want), case

        base = 0.0 if m_a is None else g.point(m_a)
        stop = g.depth + 1 if m_a is None else m_a + 1
        y0 = np.zeros(g.depth + 1)
        scale = np.zeros(g.depth + 1)
        for k in range(1, n + 1):
            basis = np.array([masked_power_basis(g.params, x, base, orders.gamma - k)
                              for x in g.points[:stop]])
            coef = p.xi[k - 1] / q_gamma(g.params, orders.gamma - k + 1.0)
            y0[:stop] += coef * basis
            scale[:stop] += abs(coef) * np.abs(basis)
        got_y0 = initial_term(p, g).values
        assert np.all(np.abs(got_y0 - y0) <= 1e-13 * scale), case


def _random_problem(rng, case):
    q = float(rng.uniform(0.3, 0.97))
    g = grid(q=q, depth=min(int(rng.integers(40, 1200)), int(300 / -math.log10(q))))
    n = int(rng.integers(1, 3))
    alpha, beta = n - 1 + rng.uniform(0.05, 1.0, size=2)
    orders = FracOrders(float(alpha), float(beta), float(rng.uniform()), n)
    m_a = None if case % 2 else int(rng.integers(g.depth // 4, g.depth + 1))
    p = make_problem(orders=orders, a=0.0 if m_a is None else g.point(m_a), xi=(1.0,) * n,
                     A=float(rng.uniform(0.05, 2.0)), params=g.params)
    return p, g, m_a


def test_capped_split_refines_the_omega_split():
    # any part of a contracting subinterval contracts, so cutting the paper's
    # blocks into 64-row runs keeps its guarantee; the omegas are _lattice_power's bits
    rng, split = np.random.default_rng(33), 0
    for case in range(150):
        p, g, m_a = _random_problem(rng, case)
        try:
            paper = omega_split(p, g, m_a)
        except NoContractionError:
            with pytest.raises(NoContractionError):
                solver._split_subintervals(p, g, m_a)
            continue
        got = solver._split_subintervals(p, g, m_a)
        assert {m for m, _ in paper} <= {m for m, _ in got}, case
        split += len(got) > len(paper)
        gamma_nu1 = q_gamma(p.params, p.orders.nu + 1.0)
        domain_lo = g.depth + 1 if m_a is None else m_a
        base, hi, ends = None if m_a is None else m_a + 1, domain_lo, iter(paper)
        end, omega_end = next(ends)
        for upper, omega in got:
            # cut from the deep end: only an omega-block's shallowest run is short
            assert 1 <= hi - upper <= 64 and (hi - upper == 64 or upper == end), case
            power = solver._lattice_power(g, base, p.orders.nu)
            assert omega == p.lipschitz_A * power[upper] / gamma_nu1, case
            assert omega <= omega_end * (1.0 + 1e-13), case  # within the tables' roundoff
            if upper == end:
                end, omega_end = next(ends, (None, None))
            base, hi = upper + 1, upper
    assert split > 50


def test_split_reads_one_weight_table(monkeypatch):
    calls, kernel = [], qfracops._kernel_weights

    def recording(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(solver, "_kernel_weights", recording)
    o = FracOrders(alpha=0.8, beta=0.6, mu=0.0, n=1)
    g = grid(q=0.9, depth=800)
    for m_a in (None, 700):
        p = make_problem(orders=o, a=0.0 if m_a is None else g.point(m_a), A=1.5,
                         params=g.params)
        assert len(omega_split(p, g, m_a)) > 1
        calls.clear()
        assert len(solver._split_subintervals(p, g, m_a)) > 10
        gp = g.params
        assert calls == [(gp.q, gp.eps_product, gp.max_terms, o.nu + 1.0, g.b, g.depth + 1)]


class TestContractionConstant:
    def test_scales_with_lipschitz(self):
        p = make_problem(orders=FracOrders(1.0, 1.0, 0.0, 1), A=1e-8)
        assert contraction_constant(p, 0.0, 1.0) < 1e-7

    def test_unit_interval_value(self):
        p = make_problem(orders=FracOrders(1.0, 1.0, 0.0, 1), A=1.0)
        assert contraction_constant(p, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_half_interval_value(self):
        p = make_problem(orders=FracOrders(1.0, 1.0, 0.0, 1), A=1.0)
        assert contraction_constant(p, 0.0, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_ordering_validated(self):
        p = make_problem()
        with pytest.raises(DomainError):
            contraction_constant(p, 0.5, 0.25)


class TestPicard:
    def test_zero_rhs_one_iteration(self):
        g = grid()
        p = make_problem(xi=(1.3,))
        sol = picard_solve(p, g, tol=1e-12)
        y0 = initial_term(p, g)
        assert np.array_equal(sol.y.values, y0.values)
        assert all(i == 1 for i in sol.iterations_per_interval)

    def test_no_contraction_error(self):
        p = make_problem(rhs=lambda x, y: 8.0 * y, A=8.0)
        with pytest.raises(NoContractionError):
            picard_solve(p, grid(), tol=1e-10)

    def test_max_iter_error_carries_diagnostics(self):
        p = make_problem(rhs=lambda x, y: 0.5 * y + 1.0, A=0.5)
        with pytest.raises(MaxIterError) as err:
            picard_solve(p, grid(), tol=1e-14, max_iter=2)
        assert "omega" in err.value.diagnostics

    def test_non_finite_rhs_named(self):
        def nan_below_half(x, y):
            return np.where(x < 0.5, np.nan, 0.4 * y + 1.0)

        g = grid()
        p = make_problem(rhs=nan_below_half, A=0.4)
        with pytest.raises(SampleError, match=r"non-finite rhs .*nan_below_half\(x, y=") as err:
            picard_solve(p, g, tol=1e-12)
        assert err.value.x < 0.5
        assert err.value.x == g.points[err.value.index]

    def test_rhs_called_once_per_sweep(self):
        shapes = []

        def counted(x, y):
            shapes.append((x.shape, y.shape))
            return 0.9 * y + 1.0

        g = grid()
        sol = picard_solve(make_problem(rhs=counted, A=0.9), g, tol=1e-12)
        assert len(sol.iterations_per_interval) > 1
        assert len(shapes) == sum(sol.iterations_per_interval) + 1  # + the residual
        assert set(shapes) == {((g.depth + 1,), (g.depth + 1,))}

    def test_scalar_rhs_and_wrong_shape_named(self):
        def branches_on_x(x, y):
            return 0.0 if x < 0.5 else 0.4 * y + 1.0

        def drops_a_point(x, y):
            return (0.4 * y + 1.0)[1:]

        for rhs, what in ((branches_on_x, "failed on arrays"),
                          (drops_a_point, r"returned shape \(200,\)")):
            with pytest.raises(DomainError, match=rf"rhs .*{rhs.__name__} {what}") as err:
                picard_solve(make_problem(rhs=rhs, A=0.4), grid(), tol=1e-12)
            assert len(str(err.value).splitlines()) == 1

    def test_scalar_and_array_rhs_give_identical_solutions(self):
        g = grid()
        sols = [picard_solve(make_problem(rhs=rhs, A=0.4, xi=(0.8,)), g, tol=1e-12)
                for rhs in (lambda x, y: 0.7, lambda x, y: np.full(x.shape, 0.7))]
        assert np.array_equal(sols[0].y.values, sols[1].y.values)
        assert sols[0].iterations_per_interval == sols[1].iterations_per_interval

    def test_rhs_returning_its_y_argument(self):
        # the rhs's array is used as it is, so it may be the iterate itself
        g = grid()

        def same(x, y):
            return y

        got, want = (picard_solve(make_problem(rhs=rhs, A=0.5, xi=(1.0,)), g, tol=1e-12)
                     for rhs in (same, lambda x, y: 1.0 * y))
        assert np.array_equal(got.y.values, want.y.values)
        assert got.diff_norms_per_interval == want.diff_norms_per_interval
        assert got.residual_rel < 1e-9

    def test_grid_mismatch_rejected(self):
        p = make_problem()
        with pytest.raises(DomainError):
            picard_solve(p, grid(b=2.0), tol=1e-10)
        with pytest.raises(DomainError):
            picard_solve(p, grid(q=0.7), tol=1e-10)

    def test_deterministic_bitwise(self):
        g = grid()
        p = make_problem(rhs=lambda x, y: 0.4 * y + x, A=0.4, xi=(0.8,))
        a = picard_solve(p, g, tol=1e-12)
        b = picard_solve(p, g, tol=1e-12)
        assert np.array_equal(a.y.values, b.y.values)
        assert a.iterations_per_interval == b.iterations_per_interval
        assert a.residual_l1 == b.residual_l1

    def test_omega_below_one_and_residual_small(self):
        g = grid()
        p = make_problem(rhs=lambda x, y: 0.4 * y + 1.0, A=0.4, xi=(1.0,))
        sol = picard_solve(p, g, tol=1e-12)
        assert all(w < 1.0 for w in sol.omega_per_interval)
        assert sol.residual_l1 < 1e-9

    def test_iterate_decay_bounded_by_omega(self):
        g = grid()
        p = make_problem(rhs=lambda x, y: 0.45 * y + 1.0, A=0.45, xi=(1.0,))
        sol = picard_solve(p, g, tol=1e-12)
        for omega, diffs in zip(sol.omega_per_interval, sol.diff_norms_per_interval):
            for i in range(1, len(diffs) - 1):
                if diffs[i] > 1e-13:
                    assert diffs[i + 1] <= (omega + 0.05) * diffs[i]


def reference_picard(p, g, tol, max_iter, y_init=None):
    """The sweep before the frozen-history split: rl_integral on the whole iterate."""
    anchor = lattice_locate(g, p.a)
    m_a = anchor_index(anchor)
    y0 = initial_term(p, g)
    blocks = solver._split_subintervals(p, g, m_a)
    domain_lo = g.depth + 1 if m_a is None else m_a
    y = (y0.values if y_init is None else y_init.values).copy()
    if m_a is not None:
        y[m_a] = y0.values[m_a]
        y[m_a + 1:] = 0.0
    f_vals = np.zeros(g.depth + 1)
    frozen_hi, iterations = domain_lo, []
    for upper, _ in blocks:
        it = 0
        while True:
            it += 1
            solver._rhs_values(p, g, y, f_vals, upper, domain_lo)
            f_gf = GridFunction(g, f_vals, domain_stop=y0.domain_stop)
            integ = rl_integral(f_gf, anchor, p.orders.nu).values
            y_new = y.copy()
            y_new[upper:frozen_hi] = y0.values[upper:frozen_hi] + integ[upper:frozen_hi]
            d = _sum_range(g, np.abs(y_new - y), upper, frozen_hi)
            y = y_new
            if d < tol:
                break
            assert it < max_iter
        iterations.append(it)
        frozen_hi = upper
    return y, tuple(iterations), blocks


def _picard_cases():
    p9 = QParams(0.9)
    o = FracOrders(alpha=0.8, beta=0.6, mu=0.0, n=1)
    linear = make_problem(orders=o, rhs=lambda x, y: 1.5 * y + 1.0, A=1.5, params=p9)
    bp = make_example42(P5)
    g42 = LatticeGrid(b=1.0, depth=40, params=P5)
    lin2 = make_linear_problem(P5, FracOrders(alpha=1.9, beta=1.3, mu=0.4, n=2), lam=0.3,
                               forcing=lambda x: 1.0 + x, xi=(0.8, -0.5))
    # (problem, grid, y_init, capped blocks, omega-blocks of the paper's split)
    return {
        "origin-four-blocks": (linear, grid(q=0.9, depth=800), None, 16, 4),
        "example42-seeded": (bp.problem, g42, sample(g42, lambda x: bp.seed_value), 2, 2),
        "two-data-orders": (as_cauchy(lin2), grid(), None, 4, 1),
    }


@pytest.mark.parametrize("case", ["origin-four-blocks", "example42-seeded", "two-data-orders"])
def test_sweep_matches_whole_iterate_reference(case, monkeypatch):
    p, g, y_init, n_blocks, n_omega_blocks = _picard_cases()[case]
    tol, max_iter = 1e-12, 500
    want, want_its, want_blocks = reference_picard(p, g, tol, max_iter, y_init)
    m_a = anchor_index(lattice_locate(g, p.a))
    assert len(want_blocks) == n_blocks and len(omega_split(p, g, m_a)) == n_omega_blocks
    histories, sums = [], []
    block_history, lattice_sums = qfracops._block_history, qfracops._lattice_sums

    def recorded_history(w, s, rows):
        histories.append((rows, len(s)))
        return block_history(w, s, rows)

    def recorded_sums(s, w):
        sums.append(len(s))
        return lattice_sums(s, w)

    monkeypatch.setattr(solver, "_block_history", recorded_history)
    monkeypatch.setattr(qfracops, "_lattice_sums", recorded_sums)
    sol = picard_solve(p, g, tol=tol, max_iter=max_iter, y_init=y_init)
    assert sol.iterations_per_interval == want_its
    assert sol.subinterval_boundaries == tuple(m for m, _ in want_blocks)
    assert sol.omega_per_interval == tuple(w for _, w in want_blocks)
    assert np.all(np.abs(sol.y.values - want) <= 1e-14 * np.abs(want))
    # no lattice sum per sweep: the solve's are its residual's Hilfer derivative alone
    solve_sums, sums[:] = list(sums), []
    hilfer_derivative(sol.y, lattice_locate(g, p.a), p.orders)
    assert solve_sums == sums
    # one history correlation per block: its B rows against the converged deeper summands
    domain_lo = g.depth + 1 if m_a is None else m_a
    expect, frozen_hi = [], domain_lo
    for upper in sol.subinterval_boundaries:
        expect += [(frozen_hi - upper, domain_lo - frozen_hi)] * (frozen_hi < domain_lo)
        frozen_hi = upper
    assert histories == expect


@pytest.mark.parametrize("lam", [1.0, -1.0])
@pytest.mark.parametrize("q, depth", [(0.5, 1000), (0.98, 4000)])
def test_deep_sweeps_match_reference_and_closed_form(q, depth, lam):
    # x_M is 9.3e-302 at q 0.5, M 1000; q 0.98, M 4000 cuts one omega-block into 63 runs
    g = grid(q=q, depth=depth)
    lin = make_linear_problem(g.params, FracOrders(alpha=0.8, beta=0.6, mu=0.0, n=1),
                              lam=lam, forcing=lambda x: 1.0, xi=(1.0,))
    p = as_cauchy(lin)
    want, want_its, _ = reference_picard(p, g, 1e-12, 500)
    sol = picard_solve(p, g, tol=1e-12, max_iter=500)
    assert sol.iterations_per_interval == want_its and len(want_its) > 16
    normal = np.abs(want) >= np.finfo(float).tiny
    assert normal.sum() > 0.9 * len(want)
    assert np.all(np.abs(sol.y.values - want)[normal] <= 1e-14 * np.abs(want[normal]))
    closed = linear_solve(lin, g).y.values
    assert l1(g, sol.y.values - closed) <= 1e-10 * l1(g, closed)


def _parent_picard(p, g, tol=1e-10, max_iter=200, y_init=None):
    """picard_solve's block sweep written plainly: each sweep forms the block's
    history, operator and L^1_q weights afresh, and tests finiteness with two
    ``np.isfinite`` passes, the new values' and (in _rhs_values) the rhs values'.
    The reference the hoisted sweeps must match bit for bit."""
    anchor = lattice_locate(g, p.a)
    m_a = anchor_index(anchor)
    nu = p.orders.nu
    y0 = initial_term(p, g)
    blocks = solver._split_subintervals(p, g, m_a)

    M = g.depth
    x = g.points
    domain_lo = M + 1 if m_a is None else m_a  # one past the deepest unknown index
    y = (y0.values if y_init is None else np.asarray(y_init.values, dtype=float)).copy()
    if m_a is not None:
        y[m_a] = y0.values[m_a]  # Volterra value at the lower limit itself
        y[m_a + 1:] = 0.0

    iterations: list[int] = []
    diff_hist: list[tuple[float, ...]] = []
    f_vals = np.zeros(M + 1)
    frozen_hi = domain_lo  # indices in [frozen_hi, domain_lo) are converged

    # values past double range stay non-finite until the sweep's check names them
    with np.errstate(over="ignore", invalid="ignore"):
        w, pref = qfracops._integral_table(g, nu)
        for upper, omega in blocks:
            act, B = slice(upper, frozen_hi), frozen_hi - upper
            solver._rhs_values(p, g, y, f_vals, upper, domain_lo)
            norms: list[float] = []
            while True:
                hist = 0.0
                if frozen_hi < domain_lo:  # the rows' part from the converged indices
                    deep = x[frozen_hi:domain_lo] * f_vals[frozen_hi:domain_lo]
                    hist = qfracops._block_history(w, deep, B)
                own = qfracops._block_toeplitz(w, B) * x[act]
                new = y0.values[act] + pref[act] * (own @ f_vals[act] + hist)
                if not np.isfinite(new).all():
                    k = upper + int(np.flatnonzero(~np.isfinite(new))[0])
                    raise DomainError(f"Picard integral I^{nu:g} f(., y) is not finite at "
                                      f"lattice index {k} (x={float(x[k])!r}): it leaves "
                                      "double range")
                step = np.abs(new - y[act])
                y[act] = new
                d = float(np.dot((1.0 - g.q) * x[act], step))
                norms.append(d)
                if d < tol:
                    break
                if len(norms) >= max_iter:
                    raise MaxIterError(
                        f"subinterval up to index {upper}: |increment|={d:.3e} after "
                        f"{len(norms)} iterations (tol={tol:.1e})",
                        diagnostics={"upper_index": upper, "omega": omega,
                                     "last_increment": d, "tol": tol},
                    )
                solver._rhs_values(p, g, y, f_vals, upper, frozen_hi)
            iterations.append(len(norms))
            diff_hist.append(tuple(norms))
            frozen_hi = upper

    sol_gf = GridFunction(g, y, domain_stop=y0.domain_stop)
    solver._rhs_values(p, g, y, f_vals, 0, domain_lo)
    return Solution(
        y=sol_gf,
        iterations_per_interval=tuple(iterations),
        omega_per_interval=tuple(w for _, w in blocks),
        subinterval_boundaries=tuple(u for u, _ in blocks),
        method="picard",
        diff_norms_per_interval=tuple(diff_hist),
        **solver._ode_residual(p.orders, sol_gf, anchor, f_vals),
    )


def _guard_cases():
    o = FracOrders(alpha=0.8, beta=0.6, mu=0.0, n=1)
    cases = {}
    for q, depth, lam in ((0.3, 100, 0.9), (0.5, 200, 0.9), (0.9, 800, 2.5)):
        for sign in (1.0, -1.0):
            lam_s = sign * lam
            cases[f"linear-q{q}-lam{lam_s:+g}"] = (
                make_problem(orders=o, rhs=lambda x, y, c=lam_s: c * y + x, A=lam,
                             xi=(1.3,), params=QParams(q)),
                grid(q=q, depth=depth), None, 1e-12, 500)
    cases["polynomial"] = (
        make_problem(orders=o, rhs=lambda x, y: 0.6 * y - 0.3 * y**2 + x**2, A=1.2,
                     xi=(0.7,), params=QParams(0.7)),
        grid(q=0.7, depth=300), None, 1e-12, 500)
    bp = make_example42(P5)
    g42 = LatticeGrid(b=1.0, depth=40, params=P5)
    cases["example42-seeded"] = (bp.problem, g42, sample(g42, lambda x: bp.seed_value),
                                 1e-11, 500)
    lin2 = make_linear_problem(P5, FracOrders(alpha=1.9, beta=1.3, mu=0.4, n=2), lam=0.3,
                               forcing=lambda x: 1.0 + x, xi=(0.8, -0.5))
    cases["two-data-orders"] = (as_cauchy(lin2), grid(), None, 1e-12, 500)
    cases["max-iter"] = (make_problem(orders=o, rhs=lambda x, y: 2.5 * y + 1.0, A=2.5,
                                      params=QParams(0.9)),
                         grid(q=0.9, depth=800), None, 1e-13, 25)
    return cases


def _outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs), None
    except (MaxIterError, DomainError) as exc:
        return None, exc


@pytest.mark.parametrize("case", list(_guard_cases()))
def test_sweeps_bit_identical_to_parent_loop(case):
    p, g, y_init, tol, max_iter = _guard_cases()[case]
    want, want_err = _outcome(_parent_picard, p, g, tol, max_iter, y_init)
    got, got_err = _outcome(picard_solve, p, g, tol=tol, max_iter=max_iter, y_init=y_init)
    assert (want_err is None) == (case != "max-iter")
    if want_err is not None:
        assert type(got_err) is type(want_err) and str(got_err) == str(want_err)
        assert got_err.diagnostics == want_err.diagnostics
        return
    assert got_err is None
    assert np.array_equal(got.y.values, want.y.values)
    assert got.iterations_per_interval == want.iterations_per_interval
    assert got.diff_norms_per_interval == want.diff_norms_per_interval
    assert got.subinterval_boundaries == want.subinterval_boundaries
    for name in ("residual_l1", "residual_linf", "residual_rel", "residual_stop"):
        assert getattr(got, name) == getattr(want, name)
    assert len(got.subinterval_boundaries) > 1 or case == "two-data-orders"


def _turns_bad_above(level, bad):
    """An rhs that returns ``bad`` wherever y has passed ``level``, and counts its calls."""
    calls = []

    def rhs(x, y):
        calls.append(1)
        return np.where(y > level, bad, 0.4 * y + 1.0)

    return rhs, calls


@pytest.mark.parametrize("bad, error", [(np.nan, SampleError), (1.7e308, DomainError)])
def test_mid_iteration_errors_match_parent_loop(bad, error):
    # from y0 = 0 the iterate's maximum rises 0, 1.07, 1.42, 1.52, ... to 1.554,
    # so level 1.5 is first passed in the third sweep of the one block (64 rows)
    g = grid(depth=63)
    errors = []
    for solve in (_parent_picard, picard_solve):
        rhs, calls = _turns_bad_above(1.5, bad)
        p = make_problem(rhs=rhs, A=0.4, xi=(0.0,))
        assert len(solver._split_subintervals(p, g, None)) == 1
        with pytest.raises(error) as err:
            solve(p, g, tol=1e-12)
        assert len(calls) > 3
        errors.append((err.value, len(calls)))
    (want, want_calls), (got, got_calls) = errors
    assert str(got) == str(want) and got_calls == want_calls
    if error is SampleError:
        assert (got.index, got.x) == (want.index, want.x)
        assert "y=" in str(got) and got.x == g.points[got.index]
    else:
        assert "Picard integral" in str(got)


@pytest.mark.parametrize("b, depth, q", [(1.0, 60, 0.5), (1.0, 40, 0.6), (2.0, 40, 0.5)],
                         ids=["another-depth", "same-depth-another-q", "same-depth-another-b"])
def test_y_init_on_another_grid_rejected(b, depth, q):
    bp = make_example42(P5)
    g = LatticeGrid(b=1.0, depth=40, params=P5)
    other = LatticeGrid(b=b, depth=depth, params=QParams(q))
    seed = sample(other, lambda x: bp.seed_value)
    with pytest.raises(DomainError, match="y_init lives on") as err:
        picard_solve(bp.problem, g, tol=1e-11, max_iter=500, y_init=seed)
    assert repr(other) in str(err.value) and repr(g) in str(err.value)
    assert len(str(err.value).splitlines()) == 1


# The forcing part at x = b = 1 for q = 0.98, orders (0.8, 0.6, mu 0) and xi = 0:
# y(1) = sum_m lam**m I^(nu(m+1)) f (1), summed by mpmath at 45 digits through
# the first term below 1e-40 of the largest (term 500), with
#     1/G_q(y) = (q**y; q)_inf / (q; q)_inf * (1-q)**(y-1),
#     I^s 1 = x**s / G_q(s+1),  I^s x = x**(s+1) / G_q(s+2);
# depth 4000 truncates x_m <= 9e-36, far below these digits.
Q98_FORCING_REFERENCE = {
    (-8.0, "1"): 0.1176366483012535123611233,
    (-8.0, "1+x"): 0.226665563846060619644977,
    (8.0, "1"): 33494599134947244.35010104,
    (8.0, "1+x"): 34541305357914345.5958434,
}


class TestLinearSolve:
    def test_trivial_collapse(self):
        # lam = 0, f = 0: the solution is the bare initial term
        g = grid()
        o = FracOrders(alpha=0.9, beta=0.75, mu=0.0, n=1)  # nu = gamma = 0.75
        lin = make_linear_problem(P5, o, lam=0.0, forcing=lambda x: 0.0, xi=(1.0,))
        sol = linear_solve(lin, g)
        want = g.points ** (o.nu - 1.0) / q_gamma(P5, o.nu)
        assert sol.y.values == pytest.approx(want, rel=1e-10)

    def test_matches_picard_homogeneous(self):
        g = grid()
        o = FracOrders(alpha=1.0, beta=0.5, mu=0.5, n=1)  # nu = gamma = 0.75
        lin = make_linear_problem(P5, o, lam=0.2, forcing=lambda x: 0.0, xi=(1.0,))
        sc = linear_solve(lin, g)
        sp = picard_solve(as_cauchy(lin), g, tol=1e-13, max_iter=300)
        assert l1(g, sc.y.values - sp.y.values) < 1e-7 * l1(g, sc.y.values)

    def test_matches_picard_forced(self):
        g = grid()
        o = FracOrders(alpha=0.9, beta=0.7, mu=0.0, n=1)
        lin = make_linear_problem(P5, o, lam=0.2, forcing=lambda x: 1.0, xi=(0.0,))
        sc = linear_solve(lin, g)
        sp = picard_solve(as_cauchy(lin), g, tol=1e-13, max_iter=300)
        assert l1(g, sc.y.values - sp.y.values) < 1e-7 * l1(g, sc.y.values)

    def test_matches_picard_gamma_above_nu(self):
        # the initial-value powers carry gamma, not nu; cross-check off the
        # mu in {0, 1} axis where the two derived orders differ
        g = grid()
        o = FracOrders(alpha=0.9, beta=0.5, mu=0.5, n=1)  # nu=0.7, gamma=0.75
        lin = make_linear_problem(P5, o, lam=0.3, forcing=lambda x: x, xi=(0.7,))
        sc = linear_solve(lin, g)
        sp = picard_solve(as_cauchy(lin), g, tol=1e-13, max_iter=300)
        assert l1(g, sc.y.values - sp.y.values) < 1e-7 * l1(g, sc.y.values)

    @staticmethod
    def _neumann_reference(g, lam, f):
        """The forcing-only solve, sum_m lam**m I^(nu(m+1)) f and sum_m |its terms|.

        The solve's rows solve the lattice equation u = I^nu f + lam I^nu u, whose
        Neumann series this is.  Each term reads its own order-nu(m+1) table, and
        the sum stops at the first term below 2**-60 of sum |terms| on every row.
        """
        o = FracOrders(alpha=0.8, beta=0.6, mu=0.0, n=1)  # nu = 0.6
        sol = linear_solve(make_linear_problem(g.params, o, lam, f, (0.0,)), g)
        u = sample(g, f)
        total, size = np.zeros(g.depth + 1), np.zeros(g.depth + 1)
        for m in range(1000):
            term = lam**m * rl_integral(u, ZERO, o.nu * (m + 1)).values
            total += term
            size += np.abs(term)
            if np.all(np.abs(term) <= 2.0**-60 * size):
                return sol.y.values, total, size
        raise AssertionError("the Neumann series did not settle in 1000 terms")

    @pytest.mark.parametrize("q, depth, lam, f", [
        (0.5, 200, 0.4, lambda x: 1.0),
        (0.9, 800, -2.0, lambda x: x),
        (0.5, 8, 0.4, lambda x: 1.0 + x),
        (0.98, 2000, 8.0, lambda x: 1.0 + x),  # ratio 0.765, about 250 terms
    ])
    def test_forcing_part_is_neumann_series_of_rl_integral(self, q, depth, lam, f):
        got, want, _ = self._neumann_reference(grid(q=q, depth=depth), lam, f)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_alternating_deep_forcing_series_within_roundoff_of_reference(self):
        # lam = -8 at q = 0.98 (ratio 0.765): the reference's terms cancel, sum |terms|
        # is about 3e14 on the shallow rows where the sum is 0.1 to 4e3, so the
        # reference is exact only to eps * sum |terms| there; the solve sums no series
        got, want, size = self._neumann_reference(grid(q=0.98, depth=2000), -8.0,
                                                  lambda x: 1.0 + x)
        assert np.all(np.abs(got - want) <= 1e-13 * size)

    @pytest.mark.parametrize("q, depth", [(0.3, 120), (0.9, 400), (0.98, 1500)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("f", [lambda x: 1.0, lambda x: x, lambda x: math.cos(9.0 * x)],
                             ids=["1", "x", "cos9x"])
    def test_forcing_rows_solve_the_lattice_equation(self, q, depth, sign, f):
        # u = I^nu f + lam I^nu u on every row, to the roundoff of forming the
        # right side: a few units of I^nu |f| + |lam| I^nu |u|
        g = grid(q=q, depth=depth)
        o = FracOrders(alpha=0.8, beta=0.6, mu=0.0, n=1)
        lam = sign * 0.6 / (1.0 - q) ** 0.6  # certificate ratio 0.6
        u = linear_solve(make_linear_problem(g.params, o, lam, f, (0.0,)), g).y
        f_gf = sample(g, f)
        rhs = rl_integral(f_gf, ZERO, o.nu).values + lam * rl_integral(u, ZERO, o.nu).values
        size = (rl_integral(f_gf.with_values(np.abs(f_gf.values)), ZERO, o.nu).values
                + abs(lam) * rl_integral(u.with_values(np.abs(u.values)), ZERO, o.nu).values)
        assert np.all(np.abs(u.values - rhs) <= 1e-14 * size)

    @staticmethod
    def _order_one_reference(g, lam):
        """u = (1/((1-q) lam x; q)_inf - 1)/lam, the nu = 1 forcing part for f = 1.

        With nu = 1 every weight is 1 and the prefactor is 1 - q, so the lattice
        equation is the q-difference equation whose solution the q-binomial
        theorem gives.  The product is summed in log space and the - 1 taken by
        expm1, since 1/(z; q)_inf - 1 cancels on deep rows where z is small.
        """
        z = (1.0 - g.q) * lam * g.points
        q_j = g.q ** np.arange(math.ceil(math.log(2.0**-60) / math.log(g.q)))
        log_prod = sum(np.log1p(-np.outer(z, part)).sum(axis=1)  # pairwise within a part
                       for part in np.array_split(q_j, 32))
        return np.expm1(-log_prod) / lam

    @pytest.mark.parametrize("lam", [8.0, -8.0])
    def test_order_one_forcing_part_matches_the_q_binomial_product(self, lam):
        g = grid(q=0.98, depth=4000)
        o = FracOrders(alpha=1.0, beta=1.0, mu=0.0, n=1)
        got = linear_solve(make_linear_problem(g.params, o, lam, lambda x: 1.0, (0.0,)), g)
        want = self._order_one_reference(g, lam)
        # rows past 2000 feel the truncation at depth 4000 (relative q**(M-m))
        rel = np.abs(got.y.values[:2001] - want[:2001]) / np.abs(want[:2001])
        assert np.max(rel) < 1e-13

    @pytest.mark.parametrize("lam, f", sorted(Q98_FORCING_REFERENCE))
    def test_deep_forcing_part_at_b_against_mpmath(self, lam, f):
        # at lam = -8 the Neumann series of this forcing part cancels: its terms
        # reach 8.5e14 in size against a sum of 0.12
        g = grid(q=0.98, depth=4000)
        o = FracOrders(alpha=0.8, beta=0.6, mu=0.0, n=1)
        forcing = {"1": lambda x: 1.0, "1+x": lambda x: 1.0 + x}[f]
        sol = linear_solve(make_linear_problem(g.params, o, lam, forcing, (0.0,)), g)
        want = Q98_FORCING_REFERENCE[(lam, f)]
        assert sol.iterations_per_interval == (0,)
        assert abs(sol.y.values[0] - want) <= 1e-12 * abs(want)

    # y(1) for xi = 1, f = 1 at q = 0.98, orders (0.8, 0.6, mu 0): E_{0.6,0.6}[lam]
    # + E_{0.6,1.6}[lam], summed by mpmath at 60 digits
    @pytest.mark.parametrize("lam, want", [(-8.0, 0.12226186699211326754),
                                           (8.0, 1.1053217714532590678e18)])
    def test_deep_solve_at_b_against_mpmath(self, lam, want):
        g = grid(q=0.98, depth=4000)
        o = FracOrders(alpha=0.8, beta=0.6, mu=0.0, n=1)
        sol = linear_solve(make_linear_problem(g.params, o, lam, lambda x: 1.0, (1.0,)), g)
        assert sol.iterations_per_interval == (1,)
        assert abs(sol.y.values[0] - want) <= 1e-12 * want

    def test_one_weight_table_per_solve(self):
        # the lattice solve reads the one order-nu table whatever lam is
        g = grid(q=0.9, depth=800)
        o = FracOrders(alpha=0.8, beta=0.6, mu=0.0, n=1)
        misses = []
        for lam in (0.2, 3.0, -3.0):
            qfracops._kernel_weights.cache_clear()
            linear_solve(make_linear_problem(g.params, o, lam, lambda x: 1.0 + x, (1.3,)), g)
            misses.append(qfracops._kernel_weights.cache_info().misses)
        assert misses[0] == misses[1] == misses[2]

    def test_q_gamma_calls_do_not_grow_with_the_series(self, monkeypatch):
        # a solve reads the prefactor's G_q(nu) once, whatever |lam| and however
        # long xi's q-Mittag-Leffler series at b
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return q_gamma(*args)

        for name, mod in list(sys.modules.items()):
            if name.startswith("qfrac.") and getattr(mod, "q_gamma", None) is q_gamma:
                monkeypatch.setattr(mod, "q_gamma", counted)
        g = grid(q=0.9, depth=800)
        o = FracOrders(alpha=0.8, beta=0.6, mu=0.0, n=1)
        counts = []
        for lam in (2.0, 3.0, -3.0):
            calls[0] = 0
            linear_solve(make_linear_problem(g.params, o, lam, lambda x: 1.0 + x, (1.3,)), g)
            counts.append(calls[0])
        assert counts[0] == counts[1] == counts[2]

    @staticmethod
    def _pow_per_term(g, o, lam, xi):
        """The homogeneous rows, term count and sum of |terms| per row of xi's series.

        Each xi_k's q-Mittag-Leffler series is stopped at b by ml_terms, each power
        formed as xnu**m.
        """
        params, nu, gamma = g.params, o.nu, o.gamma
        xnu = (g.points / g.b) ** nu
        y, size, count = np.zeros(g.depth + 1), np.zeros(g.depth + 1), 0
        for k, xi_k in enumerate(xi, 1):
            _, terms = qml.ml_terms(qml.MLSpec(nu, gamma - k + 1.0, lam, params), g.b)
            acc, acc_abs = np.zeros(g.depth + 1), np.zeros(g.depth + 1)
            for m, t in enumerate(terms):
                acc += t * xnu ** float(m)
                acc_abs += abs(t) * xnu ** float(m)
            y += xi_k * g.points ** (gamma - k) * acc
            size += abs(xi_k) * g.points ** (gamma - k) * acc_abs
            count = max(count, len(terms))
        return y, count, size

    @staticmethod
    def _grid_max_stop(g, o, lam, xi):
        """The homogeneous rows and term count of the loop that stopped against max |sum| on g.

        A copy of the per-term loop linear_solve once ran, with its running power,
        its one-term iterator and its tail test written out.
        """
        params, nu, gamma = g.params, o.nu, o.gamma
        xnu = (g.points / g.b) ** nu
        y, terms_used = np.zeros(g.depth + 1), 0
        for k in range(1, o.n + 1):
            xi_k = xi[k - 1]
            if xi_k == 0.0:
                continue
            acc = np.zeros(g.depth + 1)
            power = np.ones(g.depth + 1)
            series = qml._ml_series(params, nu, gamma - k + 1.0, lam, g.b)
            for m, t, rho in ((k0 + i, float(t[i]), float(r[i]))
                              for k0, t, r in series for i in range(len(t))):
                acc += t * power
                top = float(np.max(np.abs(acc)))
                if rho < 1.0 and abs(t) * rho <= params.eps_series * abs(top) * (1.0 - rho):
                    break
                power *= xnu
            y += xi_k * g.points ** (gamma - k) * acc
            terms_used = max(terms_used, m + 1)
        return y, terms_used

    HOMOGENEOUS_CASES = [
        (0.5, 200, (0.8, 0.6, 0.0, 1), 0.4, (1.0,)),
        (0.3, 200, (0.9, 0.5, 0.5, 1), -0.5, (0.7,)),
        (0.9, 800, (0.8, 0.6, 0.0, 1), 1.5, (1.3,)),
        (0.7, 300, (1.9, 1.3, 0.4, 2), 0.9, (0.8, -0.5)),
        (0.98, 200, (0.8, 0.6, 0.0, 1), 0.3 / 0.02**0.6, (1.0,)),  # x_M = 0.018
    ]

    @pytest.mark.parametrize("q, depth, orders, lam, xi", HOMOGENEOUS_CASES)
    def test_homogeneous_running_power_matches_pow_per_term(self, q, depth, orders, lam, xi):
        # the head terms plus the lattice part, in place of the running-power sum,
        # give the series' value on every row, each power formed as xnu**m; an
        # alternating row is only as exact as eps * sum|terms|, so the scale keeps a
        # floor at 1e-2 of it
        g = grid(q=q, depth=depth)
        o = FracOrders(*orders)
        sol = linear_solve(make_linear_problem(g.params, o, lam, lambda x: 0.0, xi), g)
        want, _, size = self._pow_per_term(g, o, lam, xi)
        scale = np.maximum(np.abs(want), 1e-2 * size)
        assert np.all(np.abs(sol.y.values - want) <= 1e-11 * scale)

    @pytest.mark.parametrize("q, depth, orders, lam, xi", HOMOGENEOUS_CASES)
    def test_stop_at_b_against_the_grid_max_stop(self, q, depth, orders, lam, xi):
        # lam > 0: every term is positive, |sum at b| is the grid max and ml_terms at b
        # stops where the grid-max loop did; lam < 0: stopping against |sum at b| takes
        # at least as many terms.  Either way the solve's rows are the grid-max rows.
        g = grid(q=q, depth=depth)
        o = FracOrders(*orders)
        for lam in (abs(lam), -abs(lam)):
            sol = linear_solve(make_linear_problem(g.params, o, lam, lambda x: 0.0, xi), g)
            old_rows, old_count = self._grid_max_stop(g, o, lam, xi)
            _, count, size = self._pow_per_term(g, o, lam, xi)
            if lam > 0.0:
                assert count == old_count
            else:
                assert old_count <= count
            scale = np.maximum(np.abs(old_rows), 1e-2 * size)
            assert np.all(np.abs(sol.y.values - old_rows) <= 1e-11 * scale)

    @pytest.mark.parametrize("q, depth, orders, lam, xi", HOMOGENEOUS_CASES)
    def test_homogeneous_part_at_b_is_the_series(self, q, depth, orders, lam, xi):
        # y(b) = sum_k xi_k E_{nu, gamma-k+1}[lam] for either sign of lam, with as many
        # head terms as ml_terms certifies at x_M; an alternating sum is only as exact
        # as eps * sum|terms|, so the scale keeps a floor at 1e-2 of it (as verify's
        # qml.series-oracle does)
        g = grid(q=q, depth=depth)
        o = FracOrders(*orders)
        for lam in (abs(lam), -abs(lam)):
            sol = linear_solve(make_linear_problem(g.params, o, lam, lambda x: 0.0, xi), g)
            specs = [qml.MLSpec(o.nu, o.gamma - k + 1.0, lam, g.params)
                     for k in range(1, o.n + 1)]
            series = [qml.ml_terms(spec, g.b) for spec in specs]
            want = sum(xi_k * total for xi_k, (total, _) in zip(xi, series))
            size = sum(abs(xi_k) * sum(map(abs, terms)) for xi_k, (_, terms) in zip(xi, series))
            heads = max(len(qml.ml_terms(spec, g.point(depth))[1]) for spec in specs)
            assert sol.iterations_per_interval == (heads,)
            assert abs(sol.y.values[0] - want) <= 1e-10 * max(abs(want), 1e-2 * size)

    def test_shallow_two_data_fold_each_last_head_term(self):
        # x_M = 0.018 needs 7 head terms for xi_1 and 8 for xi_2; the lattice part
        # takes lam t_(k, J_k - 1) of each k (folding only the last k's was off by 7.5e-2)
        g = grid(q=0.98, depth=200)
        o = FracOrders(alpha=1.9, beta=1.3, mu=0.4, n=2)
        lam = 0.3 / (1.0 - g.q) ** o.nu
        xi = (0.8, -0.5)
        sol = linear_solve(make_linear_problem(g.params, o, lam, lambda x: 0.0, xi), g)
        want = sum(xi_k * qml.ml_eval(qml.MLSpec(o.nu, o.gamma - k + 1.0, lam, g.params), g.b)
                   for k, xi_k in enumerate(xi, 1))
        assert abs(sol.y.values[0] - want) <= 1e-10 * abs(want)

    def test_relative_residual(self):
        # residual_l1 over L^1_q(|lam y + f|) on the residual window
        g = grid()
        o = FracOrders(alpha=0.8, beta=0.6, mu=0.0, n=1)
        lin = make_linear_problem(P5, o, 0.4, lambda x: 1.0, (1.0,))
        for sol in (linear_solve(lin, g), picard_solve(as_cauchy(lin), g, tol=1e-11)):
            f_of_y = np.abs(0.4 * sol.y.values + 1.0)
            size = _sum_range(g, f_of_y, 0, sol.residual_stop)
            assert sol.residual_rel == pytest.approx(sol.residual_l1 / size, rel=1e-14)
        # f(., y) = 0: the absolute norm
        free = linear_solve(make_linear_problem(P5, o, 0.0, lambda x: 0.0, (1.0,)), g)
        assert free.residual_rel == free.residual_l1

    def test_superposition(self):
        g = grid()
        o = FracOrders(alpha=0.9, beta=0.7, mu=0.0, n=1)
        full = linear_solve(make_linear_problem(P5, o, 0.5, lambda x: 1 + x, (1.3,)), g)
        hom = linear_solve(make_linear_problem(P5, o, 0.5, lambda x: 0.0, (1.3,)), g)
        frc = linear_solve(make_linear_problem(P5, o, 0.5, lambda x: 1 + x, (0.0,)), g)
        resid = full.y.values - hom.y.values - frc.y.values
        assert l1(g, resid) < 1e-9 * l1(g, full.y.values)

    def test_ratio_near_one_needs_no_series_at_b(self):
        # ratio 0.9995: the series at b needs ~70000 terms for a tail below eps_series,
        # past max_terms; the solve needs the few head terms certified at x_M = 2**-50
        g = grid(depth=50)
        o = FracOrders(alpha=0.9, beta=0.75, mu=0.0, n=1)  # nu = 0.75
        lam = 0.9995 / (1.0 - P5.q) ** o.nu
        lin = make_linear_problem(P5, o, lam=lam, forcing=lambda x: 0.0, xi=(1.0,))
        assert lin.ratio == pytest.approx(0.9995, rel=1e-14)
        spec = qml.MLSpec(o.nu, o.gamma, lam, P5)
        with pytest.raises(NonConvergenceError, match="max_terms=10000"):
            qml.ml_terms(spec, g.b)
        sol = linear_solve(lin, g)
        want = qml.ml_eval(dataclasses.replace(spec, params=QParams(0.5, max_terms=100_000)),
                           g.b)
        assert sol.iterations_per_interval == (len(qml.ml_terms(spec, g.point(50))[1]),)
        assert abs(sol.y.values[0] - want) <= 1e-10 * want

    def test_non_finite_forcing_named(self):
        g = grid(depth=50)
        bad_x = g.point(7)

        def nan_at_index_seven(x):
            return float("nan") if x == bad_x else 1.0

        o = FracOrders(alpha=0.9, beta=0.7, mu=0.0, n=1)
        lin = make_linear_problem(P5, o, lam=0.2, forcing=nan_at_index_seven, xi=(1.0,))
        with pytest.raises(SampleError,
                           match=r"non-finite forcing .*nan_at_index_seven\(x\)") as err:
            linear_solve(lin, g)
        assert err.value.index == 7
        assert err.value.x == bad_x

    def test_sum_of_both_parts_past_double_range_named(self):
        # each part is finite alone: 1.5e308 from xi, 0.5e308 x from f = 0.5e308
        g = grid(depth=50)
        o = FracOrders(alpha=1.0, beta=1.0, mu=0.0, n=1)  # nu = gamma = 1
        lin = make_linear_problem(P5, o, lam=0.0, forcing=lambda x: 0.5e308, xi=(1.5e308,))
        with pytest.raises(DomainError, match=r"the head terms plus the lattice part "
                           r"leave double range at lattice index 0 \(x=1.0\)"):
            linear_solve(lin, g)

    def test_off_lattice_anchor_rejected(self):
        o = FracOrders(alpha=0.9, beta=0.7, mu=0.0, n=1)
        lin = LinearProblem(orders=o, a=0.3, b=1.0, lam=0.2,
                            forcing=lambda x: 0.0, xi=(1.0,), params=P5)
        with pytest.raises(OffLatticeError, match="0.3 is not a lattice point"):
            linear_solve(lin, grid())

    # (q, depth, anchor index, orders, lam): the grids of the anchored comparison
    ANCHORED_CASES = [
        (0.5, 200, 40, (0.8, 0.6, 0.0, 1), 0.4),
        (0.9, 800, 300, (0.8, 0.6, 0.5, 1), -1.5),
        (0.7, 300, 100, (1.6, 1.2, 0.4, 2), 2.0),
        (0.98, 4000, 2500, (0.8, 0.6, 0.0, 1), 3.0),
    ]

    def test_anchored_forcing_is_read_above_the_anchor_only(self):
        # x**-3 leaves double range at index 342, far below the anchor x_10: neither
        # solver reads it there
        g = grid(depth=1000)
        o = FracOrders(alpha=0.8, beta=0.6, mu=0.0, n=1)
        lin = LinearProblem(orders=o, a=g.point(10), b=1.0, lam=0.4, forcing=lambda x: x**-3,
                            xi=(0.0,), params=P5)
        sc = linear_solve(lin, g)
        sp = picard_solve(as_cauchy(lin), g, tol=1e-15)
        assert np.all(np.abs(sc.y.values - sp.y.values) <= 1e-12 * np.abs(sp.y.values))

    @pytest.mark.parametrize("q, depth, m_a, orders, lam", ANCHORED_CASES)
    def test_anchored_closed_form_matches_picard(self, q, depth, m_a, orders, lam):
        # with a lattice anchor both solve the same finite lattice equations: rows
        # 0..m_a agree to roundoff, and the rows past the anchor are 0 in both
        g = grid(q=q, depth=depth)
        o = FracOrders(*orders)
        lin = LinearProblem(orders=o, a=g.point(m_a), b=1.0, lam=lam, forcing=lambda x: 1.0,
                            xi=(1.0,) * o.n, params=g.params)
        sc = linear_solve(lin, g)
        sp = picard_solve(as_cauchy(lin), g, tol=1e-15, max_iter=1000)
        got, want = sc.y.values, sp.y.values
        assert sc.y.domain_stop == sp.y.domain_stop == m_a + 1
        assert sc.iterations_per_interval == (1,)
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))

    @pytest.mark.parametrize(
        "orders",
        [
            FracOrders(alpha=1.6, beta=1.4, mu=0.0, n=2),  # gamma = nu
            FracOrders(alpha=1.9, beta=1.3, mu=0.4, n=2),  # gamma > nu
        ],
    )
    def test_two_data_problems_match_picard(self, orders):
        g = grid()
        lin = make_linear_problem(P5, orders, lam=0.3, forcing=lambda x: 1.0,
                                  xi=(0.8, -0.5))
        sc = linear_solve(lin, g)
        sp = picard_solve(as_cauchy(lin), g, tol=1e-13, max_iter=400)
        assert l1(g, sc.y.values - sp.y.values) < 1e-7 * l1(g, sc.y.values)
        # 0-anchored data recovery converges like x**(nu-1) at the
        # evaluation point, so the two-data check gets a matching tolerance
        rep = verify_equivalence(as_cauchy(lin), sp.y, 1e-3)
        assert rep.passed, (rep.volterra_residual, rep.ode_residual,
                            rep.ic_deviations, rep.detail)


# E_{0.6,beta}[lam] at q = 0.98, lam = r / (1-q)**0.6, summed by mpmath:
#     import mpmath as mp
#     mp.mp.dps = 30
#     q, nu = mp.mpf("0.98"), mp.mpf("0.6")
#     lam = mp.mpf(r) / (1 - q) ** nu
#     mp.fsum(lam**k / mp.qgamma(nu * k + beta, q) for k in range(500))
# for beta = nu (homogeneous, y(b) = E_{nu,nu}[lam]) and beta = nu + 1
# (forcing f = 1, y(b) = E_{nu,nu+1}[lam]); the sums take minutes, so they
# are pinned here
Q98_REFERENCE = {
    ("homogeneous", 0.3): 3782.8812528929802,
    ("homogeneous", -0.3): 0.02970407761681863,
    ("forced", 0.3): 562.3908949720075,
    ("forced", -0.3): 0.26985966932818023,
}


class TestLinearSolveNearQOne:
    """At q = 0.98 the term ratio starts far above the certificate ratio r."""

    @pytest.mark.parametrize("kind, r", sorted(Q98_REFERENCE))
    def test_value_at_b_against_mpmath(self, kind, r):
        p = QParams(0.98)
        o = FracOrders(alpha=0.8, beta=0.6, mu=0.0, n=1)  # nu = gamma = 0.6
        lam = r / (1.0 - p.q) ** o.nu
        if kind == "homogeneous":
            g, f, xi = grid(q=0.98, depth=200), 0.0, 1.0
        else:
            g, f, xi = grid(q=0.98, depth=2000), 1.0, 0.0
        sol = linear_solve(make_linear_problem(p, o, lam, lambda x: f, (xi,)), g)
        want = Q98_REFERENCE[(kind, r)]
        # an alternating sum is only as exact as eps * sum|terms|, and
        # sum|terms| is the r > 0 value (as verify's qml.series-oracle scales)
        scale = max(abs(want), 1e-2 * Q98_REFERENCE[(kind, abs(r))])
        assert abs(sol.y.values[0] - want) / scale < 1e-10


def _divides_by_zero(rhs):
    """rhs plus a branch that divides by zero on every point and is never taken."""
    def wrapped(x, y):
        return rhs(x, y) + np.where(x > 0.0, 0.0, 1.0 / (x - x))

    return wrapped


def _example_weight(kind, p, A, lam, delta, orders, x):
    """The x-only weight of example41/42's rhs at one point, by scalar q-power bases."""
    q, nu, dl = p.q, orders.nu, delta
    if kind == "example41":
        if x <= A * (1.0 + 1e-12):
            return 0.0
        return (lam * q_power_basis(p, x, q ** (-nu - dl) * A, nu + dl)
                / q_power_basis(p, x, q ** (-2 * nu - dl) * A, nu))
    if x < A * (1.0 - 1e-12):
        return 0.0
    num = q_power_basis(p, x, A, 2 * nu + 2 * dl)
    return lam * max(num, 0.0) ** 0.5 / q_power_basis(p, x, q ** (nu + 2 * dl) * A, nu)


class TestBundledProblems:
    # (q, depth, anchor index or None for the maker's default b q**10 / b q**20)
    WEIGHT_GRIDS = [(0.5, 40, None), (0.3, 30, 12), (0.7, 80, None), (0.9, 300, 100),
                    (0.98, 1500, 600)]

    @pytest.mark.parametrize("q, depth, m_a", WEIGHT_GRIDS)
    @pytest.mark.parametrize("kind", ["example41", "example42"])
    def test_weights_within_4_ulp_of_per_point_formula(self, kind, q, depth, m_a):
        # one array call of each q-power basis per grid; y = 1 leaves the weight alone
        p, orders, lam, delta = QParams(q), FracOrders(0.38, 0.22, 0.45, 1), 1.3, 0.15
        g = LatticeGrid(b=1.0, depth=depth, params=p)
        maker = make_example41 if kind == "example41" else make_example42
        bp = maker(p, anchor=None if m_a is None else g.point(m_a), lam=lam, delta=delta,
                   orders=orders)
        got = bp.problem.rhs(g.points, np.ones(depth + 1))
        want = np.array([_example_weight(kind, p, bp.problem.a, lam, delta, orders, x)
                         for x in g.points.tolist()])
        assert np.array_equal(got == 0.0, want == 0.0) and np.count_nonzero(want) > 5
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    def test_singular_example_operator_identity(self):
        p = QParams(0.5)
        bp = make_example41(p)
        g = LatticeGrid(b=1.0, depth=60, params=p)
        y = sample(g, bp.exact)
        h = hilfer_derivative(y, LatticePoint(10), bp.problem.orders)
        for m in range(0, 8):
            x = float(g.points[m])
            want = bp.problem.rhs(x, bp.exact(x))
            assert h.values[m] == pytest.approx(want, rel=1e-5)

    def test_sqrt_example_needs_seed(self):
        # from the zero initial term the iteration fixes the trivial branch
        p = QParams(0.5)
        bp = make_example42(p)
        g = LatticeGrid(b=1.0, depth=40, params=p)
        sol = picard_solve(bp.problem, g, tol=1e-11, max_iter=500)
        assert np.all(sol.y.values == 0.0)

    def test_sqrt_example_reaches_closed_form_with_seed(self):
        p = QParams(0.5)
        bp = make_example42(p)
        g = LatticeGrid(b=1.0, depth=40, params=p)
        seed = sample(g, lambda x: bp.seed_value)
        sol = picard_solve(bp.problem, g, tol=1e-11, max_iter=500, y_init=seed)
        exact = sample(g, bp.exact)
        assert l1(g, sol.y.values - exact.values) < 1e-6 * l1(g, exact.values)

    def test_equivalence_both_directions(self):
        p = QParams(0.5)
        bp = make_example42(p)
        g = LatticeGrid(b=1.0, depth=40, params=p)
        exact = sample(g, bp.exact)
        rep = verify_equivalence(bp.problem, exact, 1e-5)
        assert rep.passed
        assert rep.volterra_residual < 1e-5 and rep.ode_residual < 1e-5

    def test_perturbed_solution_flagged(self):
        p = QParams(0.5)
        bp = make_example42(p)
        g = LatticeGrid(b=1.0, depth=40, params=p)
        vals = sample(g, bp.exact).values.copy()
        vals[1] += 0.1
        rep = verify_equivalence(bp.problem, GridFunction(g, vals), 1e-5)
        assert not rep.passed
        assert max(rep.volterra_residual, rep.ode_residual) > 1e-3

    def test_rhs_dividing_by_zero_warns_nowhere(self):
        # the rhs's own 1/0 under np.where gives finite values: no numpy warning
        # may escape (RuntimeWarning is an error here) into the report's detail
        p = QParams(0.5)
        bp = make_example42(p)
        g = LatticeGrid(b=1.0, depth=40, params=p)
        prob = dataclasses.replace(bp.problem, rhs=_divides_by_zero(bp.problem.rhs))
        rep = verify_equivalence(prob, sample(g, bp.exact), 1e-5)
        assert rep.detail == "" and rep.passed

    def test_report_never_raises(self):
        p = QParams(0.5)
        bp = make_example42(p)
        g_wrong = LatticeGrid(b=2.0, depth=20, params=p)  # anchor off-lattice
        rep = verify_equivalence(bp.problem, sample(g_wrong, lambda x: x), 1e-5)
        assert not rep.passed and rep.detail

