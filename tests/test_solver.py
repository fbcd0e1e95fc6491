"""Cauchy-problem solver: Picard machinery, closed form, equivalence checks."""

import numpy as np
import pytest

from qfrac.errors import (
    DivergenceError,
    DomainError,
    MaxIterError,
    NoContractionError,
    NonConvergenceError,
    SampleError,
)
from qfrac.qcore import QParams, q_gamma, q_power_basis
from qfrac.qgrid import GridFunction, LatticeGrid, LatticePoint, sample
from qfrac.qfracops import FracOrders, hilfer_derivative
from qfrac.solver import (
    CauchyProblem,
    LinearProblem,
    Solution,
    _series_length,
    as_cauchy,
    contraction_constant,
    estimate_lipschitz,
    initial_term,
    linear_solve,
    picard_solve,
    verify_equivalence,
)
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
            return float("nan") if x < 0.5 else 0.4 * y + 1.0

        g = grid()
        p = make_problem(rhs=nan_below_half, A=0.4)
        with pytest.raises(SampleError, match=r"non-finite rhs .*nan_below_half\(x, y=") as err:
            picard_solve(p, g, tol=1e-12)
        assert err.value.x < 0.5
        assert err.value.x == g.points[err.value.index]

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

    def test_superposition(self):
        g = grid()
        o = FracOrders(alpha=0.9, beta=0.7, mu=0.0, n=1)
        full = linear_solve(make_linear_problem(P5, o, 0.5, lambda x: 1 + x, (1.3,)), g)
        hom = linear_solve(make_linear_problem(P5, o, 0.5, lambda x: 0.0, (1.3,)), g)
        frc = linear_solve(make_linear_problem(P5, o, 0.5, lambda x: 1 + x, (0.0,)), g)
        resid = full.y.values - hom.y.values - frc.y.values
        assert l1(g, resid) < 1e-9 * l1(g, full.y.values)

    def test_series_cap_before_tolerance_raises(self):
        # ratio 0.9995 needs ~70000 terms for a tail below eps_series
        with pytest.raises(NonConvergenceError, match="max_terms=10000"):
            _series_length(QParams(0.5), 0.9995)

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

    def test_nonzero_anchor_rejected(self):
        o = FracOrders(alpha=0.9, beta=0.7, mu=0.0, n=1)
        lin = LinearProblem(orders=o, a=0.25, b=1.0, lam=0.2,
                            forcing=lambda x: 0.0, xi=(1.0,), params=P5)
        with pytest.raises(DomainError):
            linear_solve(lin, grid())

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


class TestBundledProblems:
    def test_singular_example_operator_identity(self):
        p = QParams(0.5)
        bp = make_example41(p, anchor_exp=10)
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
        bp = make_example42(p, anchor_exp=20)
        g = LatticeGrid(b=1.0, depth=40, params=p)
        sol = picard_solve(bp.problem, g, tol=1e-11, max_iter=500)
        assert np.all(sol.y.values == 0.0)

    def test_sqrt_example_reaches_closed_form_with_seed(self):
        p = QParams(0.5)
        bp = make_example42(p, anchor_exp=20)
        g = LatticeGrid(b=1.0, depth=40, params=p)
        seed = sample(g, lambda x: bp.seed_value)
        sol = picard_solve(bp.problem, g, tol=1e-11, max_iter=500, y_init=seed)
        exact = sample(g, bp.exact)
        assert l1(g, sol.y.values - exact.values) < 1e-6 * l1(g, exact.values)

    def test_equivalence_both_directions(self):
        p = QParams(0.5)
        bp = make_example42(p, anchor_exp=20)
        g = LatticeGrid(b=1.0, depth=40, params=p)
        exact = sample(g, bp.exact)
        rep = verify_equivalence(bp.problem, exact, 1e-5)
        assert rep.passed
        assert rep.volterra_residual < 1e-5 and rep.ode_residual < 1e-5

    def test_perturbed_solution_flagged(self):
        p = QParams(0.5)
        bp = make_example42(p, anchor_exp=20)
        g = LatticeGrid(b=1.0, depth=40, params=p)
        vals = sample(g, bp.exact).values.copy()
        vals[1] += 0.1
        rep = verify_equivalence(bp.problem, GridFunction(g, vals), 1e-5)
        assert not rep.passed
        assert max(rep.volterra_residual, rep.ode_residual) > 1e-3

    def test_report_never_raises(self):
        p = QParams(0.5)
        bp = make_example42(p, anchor_exp=20)
        g_wrong = LatticeGrid(b=2.0, depth=20, params=p)  # anchor off-lattice
        rep = verify_equivalence(bp.problem, sample(g_wrong, lambda x: x), 1e-5)
        assert not rep.passed and rep.detail


class TestLipschitzEstimator:
    def test_linear_rhs_recovers_slope(self):
        g = grid(depth=40)
        p = make_problem(rhs=lambda x, y: 0.7 * y + x, A=0.7)
        est = estimate_lipschitz(p, g, -2.0, 2.0, n_samples=400,
                                 rng=np.random.default_rng(1))
        assert est == pytest.approx(0.7, rel=1e-6)

    def test_box_validated(self):
        p = make_problem()
        with pytest.raises(DomainError):
            estimate_lipschitz(p, grid(depth=40), 1.0, 1.0)
