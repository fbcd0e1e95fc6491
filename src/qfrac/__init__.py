"""Numerical fractional q-calculus on geometric lattices.

Core pieces:

* :mod:`qfrac.qcore` -- scalar q-special functions (q-numbers, q-Pochhammer
  symbols, q-gamma, q-power basis) with certified product truncation;
* :mod:`qfrac.qgrid` -- functions on the lattice {b q**m}, exact
  q-differentiation and Jackson integration, L^1_q norms;
* :mod:`qfrac.qfracops` -- Riemann-Liouville, Caputo and two-order
  (bi-ordinal Hilfer-type) fractional q-operators;
* :mod:`qfrac.qml` -- the two-parameter q-Mittag-Leffler function with a
  convergence certificate;
* :mod:`qfrac.solver` -- Picard iteration for Cauchy-type fractional
  q-difference problems via the equivalent Volterra equation, plus the
  closed-form solution of the linear problem;
* :mod:`qfrac.cli` -- the ``qfrac`` command-line front-end.
"""

from .errors import (
    ConfigError,
    DepthError,
    DivergenceError,
    DomainError,
    MaxIterError,
    NoContractionError,
    NonConvergenceError,
    OffLatticeError,
    PoleError,
    QFracError,
    SampleError,
    TailWarning,
)
from .qcore import (
    QParams,
    q_factorial,
    q_gamma,
    q_number,
    q_pochhammer_finite,
    q_pochhammer_fractional,
    q_pochhammer_infinite,
    q_power_basis,
)
from .qgrid import (
    ZERO,
    GridFunction,
    LatticeGrid,
    LatticePoint,
    jackson_integral,
    l1q_norm,
    lattice_locate,
    q_derivative,
    q_derivative_n,
    sample,
)
from .qfracops import (
    FracOrders,
    caputo_derivative,
    hilfer_derivative,
    rl_derivative,
    rl_integral,
)
from .qml import MLSpec, ml_bound_check, ml_eval
from .solver import (
    CauchyProblem,
    EquivalenceReport,
    LinearProblem,
    Solution,
    contraction_constant,
    initial_term,
    linear_solve,
    picard_solve,
    verify_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "QParams",
    "q_number",
    "q_factorial",
    "q_pochhammer_finite",
    "q_pochhammer_infinite",
    "q_pochhammer_fractional",
    "q_gamma",
    "q_power_basis",
    "LatticeGrid",
    "LatticePoint",
    "GridFunction",
    "ZERO",
    "lattice_locate",
    "sample",
    "q_derivative",
    "q_derivative_n",
    "jackson_integral",
    "l1q_norm",
    "FracOrders",
    "rl_integral",
    "rl_derivative",
    "caputo_derivative",
    "hilfer_derivative",
    "MLSpec",
    "ml_eval",
    "ml_bound_check",
    "CauchyProblem",
    "LinearProblem",
    "Solution",
    "EquivalenceReport",
    "initial_term",
    "contraction_constant",
    "picard_solve",
    "linear_solve",
    "verify_equivalence",
    "QFracError",
    "DomainError",
    "PoleError",
    "NonConvergenceError",
    "OffLatticeError",
    "SampleError",
    "DepthError",
    "DivergenceError",
    "NoContractionError",
    "MaxIterError",
    "ConfigError",
    "TailWarning",
    "__version__",
]
