"""Bundled regression problems with known exact solutions.

Two nonlinear problems exercise the solver end to end (both are anchored at
a lattice point A > 0, so every operator evaluation is an exact finite sum):

* ``singular_quadratic`` -- rhs proportional to y**2 with a weight built
  from negative-order q-power bases; the exact solution
  (1/lam) * R * (x - A)^(-v-d)_q vanishes at A and blows up off-lattice.
  Only the operator identity is exercised here (the quadratic rhs is
  attractive to solve only locally).
* ``sqrt_forcing`` -- rhs proportional to sqrt(y); y = 0 is also a solution,
  so Picard needs a positive starting iterate to reach the nonzero branch
  (lam * Gr)**2 * (x - A)^(2v+2d)_q.  The bundled problem carries such a
  seed value.

Both rhs are elementwise over arrays of x and y; their x-only weights come from one
array call of each q-power basis, once per grid.

``make_linear_problem`` builds the q-Mittag-Leffler-solvable linear case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .qcore import _LATTICE_RTOL, QParams, masked_power_basis, q_gamma, q_power_basis
from .qfracops import FracOrders
from .qgrid import _once_per_grid
from .solver import CauchyProblem, LinearProblem

__all__ = [
    "BundledProblem",
    "make_example41",
    "make_example42",
    "make_linear_problem",
    "DEFAULT_ORDERS",
]

#: Orders with derived nu = 0.3, gamma = 0.6 used by both worked examples.
DEFAULT_ORDERS = FracOrders(alpha=0.4, beta=0.2, mu=0.5, n=1)


@dataclass(frozen=True)
class BundledProblem:
    """A Cauchy problem together with its exact solution and solve hints."""

    problem: CauchyProblem
    exact: Callable[[float], float]
    seed_value: float | None = None  # constant positive Picard seed, if needed


def make_example41(params: QParams, *, b: float = 1.0, anchor: float | None = None,
                   lam: float = 1.0, delta: float = 0.2,
                   orders: FracOrders = DEFAULT_ORDERS) -> BundledProblem:
    """Quadratic-rhs problem with the singular exact solution.

    Anchored at A (default b q**10); requires 2 nu + delta < 1.  The
    rhs is lam * (x - q**(-v-d) A)^(v+d)_q / (x - q**(-2v-d) A)^v_q * y**2,
    which at x = A is the 0 * inf limit of the closed form and evaluates to 0.
    """
    q = params.q
    nu, dl = orders.nu, delta
    if 2 * nu + dl >= 1.0:
        raise DomainError(f"need 2*nu + delta < 1, got {2 * nu + dl}")
    A = b * q**10 if anchor is None else anchor
    num_base = q ** (-nu - dl) * A
    den_base = q ** (-2 * nu - dl) * A
    R = q_gamma(params, 1.0 - nu - dl) / q_gamma(params, 1.0 - 2.0 * nu - dl)

    @_once_per_grid
    def weight(x: np.ndarray) -> np.ndarray:
        out = np.zeros(len(x))
        above = x > A * (1.0 + _LATTICE_RTOL)  # at the anchor: the 0*inf limit, 0
        xa = x[above]
        out[above] = (lam * q_power_basis(params, xa, num_base, nu + dl)
                      / q_power_basis(params, xa, den_base, nu))
        return out

    def rhs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return weight(x) * y * y

    exact = lambda x: (1.0 / lam) * R * masked_power_basis(params, x, A, -nu - dl)
    problem = CauchyProblem(
        orders=orders, a=A, b=b, rhs=rhs, xi=(0.0,) * orders.n,
        lipschitz_A=1.0, params=params,
    )
    return BundledProblem(problem=problem, exact=exact)


def make_example42(params: QParams, *, b: float = 1.0, anchor: float | None = None,
                   lam: float = 1.0, delta: float = 0.2,
                   orders: FracOrders = DEFAULT_ORDERS) -> BundledProblem:
    """Square-root-rhs problem with exact solution (lam Gr)^2 (x-A)^(2v+2d)_q.

    The sqrt branch is extended by 0 below y = 0 (inactive at the positive
    fixed point); the bundled seed sits above the exact solution so the
    monotone iteration descends onto the nonzero branch rather than the
    trivial one.
    """
    q = params.q
    nu, dl = orders.nu, delta
    A = b * q**20 if anchor is None else anchor
    den_base = q ** (nu + 2 * dl) * A
    Gr = q_gamma(params, nu + 2 * dl + 1.0) / q_gamma(params, 2 * nu + 2 * dl + 1.0)
    amp = (lam * Gr) ** 2

    @_once_per_grid
    def weight(x: np.ndarray) -> np.ndarray:
        out = np.zeros(len(x))
        kept = ~(x < A * (1.0 - _LATTICE_RTOL))
        xk = x[kept]
        num = np.maximum(q_power_basis(params, xk, A, 2 * nu + 2 * dl), 0.0)
        out[kept] = lam * np.sqrt(num) / q_power_basis(params, xk, den_base, nu)
        return out

    def rhs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return weight(x) * np.sqrt(np.maximum(y, 0.0))

    exact = lambda x: amp * masked_power_basis(params, x, A, 2 * nu + 2 * dl)
    seed = 1.5 * amp * q_power_basis(params, b, A, 2 * nu + 2 * dl) + 0.1
    problem = CauchyProblem(
        orders=orders, a=A, b=b, rhs=rhs, xi=(0.0,) * orders.n,
        lipschitz_A=0.85, params=params,
    )
    return BundledProblem(problem=problem, exact=exact, seed_value=seed)


def make_linear_problem(params: QParams, orders: FracOrders, lam: float,
                        forcing: Callable[[float], float], xi,
                        b: float = 1.0) -> LinearProblem:
    """Linear problem anchored at 0 (validates the convergence certificate)."""
    return LinearProblem(
        orders=orders, a=0.0, b=b, lam=lam, forcing=forcing, xi=tuple(xi),
        params=params,
    )
