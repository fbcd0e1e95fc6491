"""Exception and warning types shared across the package."""

__all__ = [
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
]


class QFracError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QFracError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class PoleError(QFracError, ArithmeticError):
    """Evaluation requested at (or within the detection window of) a pole."""


class NonConvergenceError(QFracError, ArithmeticError):
    """A truncated product/series hit its term cap before its tolerance."""


class OffLatticeError(QFracError, ValueError):
    """A point that must sit on the geometric lattice does not."""


class SampleError(QFracError, ValueError):
    """A sampled function returned a non-finite value.

    The lattice index of the offending point is available as ``index``;
    ``source`` names what returned the value.
    """

    def __init__(self, index: int, x: float, value: float, source: str = "sample"):
        self.index = index
        self.x = x
        self.value = value
        self.source = source
        super().__init__(f"non-finite {source} {value!r} at lattice index {index} (x={x!r})")


class DepthError(QFracError, ValueError):
    """The grid is too shallow for the requested operation."""


class DivergenceError(QFracError, ArithmeticError):
    """A series was requested outside its convergence region."""


class NoContractionError(QFracError, ArithmeticError):
    """No subinterval split yields a contraction constant below one."""


class MaxIterError(QFracError, ArithmeticError):
    """Fixed-point iteration failed to reach tolerance within the cap."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class ConfigError(QFracError, ValueError):
    """A problem configuration file failed validation."""


class TailWarning(UserWarning):
    """Dropped lattice tail of a truncated Jackson sum may be significant."""
