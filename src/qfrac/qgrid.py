"""Functions on the geometric lattice {b q**m} and exact Jackson calculus.

Everything downstream represents a function as its samples on a single
right-anchored lattice x_m = b q**m, m = 0..M.  On that lattice the
q-derivative is algebraically exact (q x_m is itself a lattice point) and a
Jackson integral between two lattice points is a finite weighted sum of
existing samples, so no interpolation ever happens.  Only integrals anchored
at 0 are truncated, at depth M; the dropped tail gets a recorded estimate
and a TailWarning when it matters relative to the result.

How deep a 0-anchored value can be trusted is decided here as well, by
``tail_window`` (truncation) and ``roundoff_window`` (roundoff).

Index conventions: index 0 is the right endpoint b, larger indices sit
deeper (closer to 0).  ``domain_stop`` marks the end of the in-domain index
range of a grid function (points below an integral's lower limit are carried
as zeros outside it) and ``guard`` counts in-domain indices adjacent to
``domain_stop`` whose values are edge-padded and therefore untrusted.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import stat
import warnings
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import DepthError, DomainError, OffLatticeError, SampleError, TailWarning
from .qcore import _LATTICE_RTOL, QParams

__all__ = [
    "LatticeGrid",
    "LatticePoint",
    "GridFunction",
    "ZERO",
    "Anchor",
    "lattice_locate",
    "sample",
    "q_derivative",
    "q_derivative_n",
    "jackson_integral",
    "l1q_norm",
    "tail_window",
    "roundoff_window",
]

# How far a user's anchor may sit from the lattice point it names: looser than
# _LATTICE_RTOL, which compares floats the package computed itself.
_LOCATE_RTOL = 1e-9
_MIN_DEPTH = 8
_TINY = np.finfo(float).tiny  # smallest positive normal double
# default relative size of truncation effects inside a trusted window
_TRUST_TARGET = 1e-12
# double-precision machine epsilon 2.2e-16, rounded up
_EPS = 2.3e-16


class _ZeroAnchor:
    """Distinguished lower-limit marker for integrals anchored at the origin."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Zero"


#: Singleton lower-limit marker for the origin.
ZERO = _ZeroAnchor()


@dataclass(frozen=True)
class LatticePoint:
    """A lattice point identified by its index m (x_m = b q**m)."""

    index: int


Anchor = Union[LatticePoint, _ZeroAnchor]


@dataclass(frozen=True)
class LatticeGrid:
    """Geometric lattice {b q**m : m = 0..depth} on (0, b]."""

    b: float
    depth: int
    params: QParams

    def __post_init__(self):
        if self.b <= 0.0:
            raise DomainError(f"grid anchor b must be positive, got {self.b}")
        if self.depth < _MIN_DEPTH:
            raise DepthError(f"grid depth must be at least {_MIN_DEPTH}, got {self.depth}")
        pts = self.b * self.params.q ** np.arange(self.depth + 1, dtype=float)
        if not pts[-1] >= _TINY:  # subnormal points lose precision, then collide
            raise DepthError(
                f"depth {self.depth} puts b*q**M = {float(pts[-1])!r} below the smallest normal "
                f"double; the deepest admissible depth is {np.count_nonzero(pts >= _TINY) - 1}")
        pts.setflags(write=False)
        object.__setattr__(self, "_points", pts)

    @property
    def points(self) -> np.ndarray:
        """Lattice points x_m, strictly decreasing, read-only."""
        return self._points

    @property
    def q(self) -> float:
        return self.params.q

    def point(self, m: int) -> float:
        return float(self._points[m])


def lattice_locate(g: LatticeGrid, a: float) -> Anchor:
    """Map a real a to its lattice point, or to ZERO for a = 0.

    Lower integration limits must be lattice points; anything else raises
    OffLatticeError (relative tolerance 1e-9).
    """
    if a == 0.0:
        return ZERO
    if a < 0.0:
        raise OffLatticeError(f"negative point {a!r} cannot lie on the lattice")
    m = round(np.log(a / g.b) / np.log(g.q))
    if 0 <= m <= g.depth:
        x = g.point(m)
        if abs(a - x) <= _LOCATE_RTOL * x:
            return LatticePoint(m)
    raise OffLatticeError(f"{a!r} is not a lattice point of (b={g.b!r}, q={g.q!r}, M={g.depth})")


def anchor_index(a: Anchor) -> int | None:
    """Lattice index of an anchor, or None for ZERO."""
    if isinstance(a, _ZeroAnchor):
        return None
    if isinstance(a, LatticePoint):
        return a.index
    raise DomainError(f"expected LatticePoint or ZERO, got {a!r}")


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real-valued samples on a lattice grid.

    ``values[m]`` holds f(x_m).  Construction rejects non-finite values.
    ``domain_stop`` is one past the deepest in-domain index; ``guard`` counts
    the deepest in-domain indices whose values are padded/extrapolated
    (q-derivatives grow it by one per application).  Instances compare by
    identity (use array comparisons on ``values`` for content checks).
    """

    grid: LatticeGrid
    values: np.ndarray
    domain_stop: int = field(default=-1)
    guard: int = field(default=0)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.depth + 1,):
            raise DomainError(
                f"values must have length depth+1 = {self.grid.depth + 1}, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise DomainError(f"non-finite value at lattice index {bad}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.domain_stop < 0:
            object.__setattr__(self, "domain_stop", self.grid.depth + 1)
        if not (0 <= self.domain_stop <= self.grid.depth + 1):
            raise DomainError(f"domain_stop out of range: {self.domain_stop}")
        if self.guard < 0:
            raise DomainError("guard must be nonnegative")

    @property
    def trusted_stop(self) -> int:
        """One past the deepest index not affected by edge padding."""
        return max(self.domain_stop - self.guard, 0)

    def with_values(self, values: np.ndarray, *, guard: int | None = None) -> "GridFunction":
        return GridFunction(self.grid, values, domain_stop=self.domain_stop,
                            guard=self.guard if guard is None else guard)

    # -- CSV interface: header m,x,value; 17 significant digits -------------

    def to_csv(self, target) -> None:
        """Write `m,x,value` rows to a text handle, or to a str/bytes path in place."""
        if isinstance(target, (str, bytes)):
            _overwrite((target, self.to_csv_text()))
        else:
            target.write(self.to_csv_text())

    def to_csv_text(self) -> str:
        return _csv_template(self.grid) % tuple(self.values.tolist())

    @classmethod
    def from_csv(cls, source, params: QParams) -> "GridFunction":
        """Rebuild a grid function from `m,x,value` rows.

        The grid is reconstructed from the x column (b = x_0) and the given
        params; values round-trip bit-exactly through the 17-digit format.
        """
        own = isinstance(source, (str, bytes))
        with open(source, encoding="utf-8") if own else contextlib.nullcontext(source) as fh:
            header = fh.readline().strip()
            if header != "m,x,value":
                raise DomainError(f"unexpected CSV header {header!r}")
            ms, xs, vs = [], [], []
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    m_s, x_s, v_s = line.split(",")
                    ms.append(int(m_s))
                    xs.append(float(x_s))
                    vs.append(float(v_s))
                except ValueError:
                    raise DomainError(f"CSV line {lineno}: expected m,x,value, "
                                      f"got {line!r}") from None
        if not ms:
            raise DomainError("CSV has no rows after its header on line 1")
        if ms != list(range(len(ms))):
            raise DomainError("CSV rows must be consecutive lattice indices starting at 0")
        grid = LatticeGrid(b=xs[0], depth=len(ms) - 1, params=params)
        expect = grid.points
        if not np.allclose(xs, expect, rtol=_LATTICE_RTOL, atol=0.0):
            raise DomainError("CSV x column does not match the reconstructed lattice")
        return cls(grid, np.array(vs))


@functools.lru_cache(maxsize=16)
def _csv_template(g: LatticeGrid) -> str:
    """The CSV text of a function on g, with a `%.17g` slot (as `format(v, ".17g")`) per value."""
    return "m,x,value\n" + "".join([f"{m},{x:.17g},%.17g\n"
                                     for m, x in enumerate(g.points.tolist())])


def _overwrite(*files: tuple) -> None:
    """Write each (path, text) pair (UTF-8) as ``open(path, "w")`` would, but in place: a
    regular file is first cut to the text's length, not to zero (ext4 flushes a file cut
    to zero at close), so it never ends longer than the text; devices and pipes are not
    cut.  Every path is opened before any is written, so a path that cannot be opened
    leaves the others' bytes as they were; an OSError removes the files this call created."""
    fds, created = [], []
    try:
        for path, _ in files:
            new = not os.path.lexists(path)  # an existing symlink is written through
            fds.append(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
            if new:
                created.append(path)
        for fd, (_, text) in zip(fds, files):
            data = memoryview(text.encode("utf-8"))
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
            while data:
                data = data[os.write(fd, data):]
    except OSError:
        for path in created:
            os.unlink(path)
        raise
    finally:
        for fd in fds:
            os.close(fd)


def sample(g: LatticeGrid, f: Callable[[float], float], source: str = "sample") -> GridFunction:
    """Sample a scalar function at every lattice point.

    Raises SampleError (carrying the offending index, and naming f by
    ``source``) if f returns a non-finite value, or overflows a float power,
    anywhere on the lattice.  f runs on every point before the values are
    checked; the error names the first bad index.
    """
    vals = np.array([_value_at(f, x) for x in g.points.tolist()])
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        m = int(bad[0])
        raise SampleError(m, float(g.points[m]), float(vals[m]), source)
    return GridFunction(g, vals)


def _value_at(f: Callable[[float], float], x: float) -> float:
    """float(f(x)), with a float power past double range read as inf."""
    try:
        return float(f(x))
    except OverflowError:
        return math.inf


def _once_per_grid(values_of: Callable[[np.ndarray], np.ndarray]
                   ) -> Callable[[np.ndarray], np.ndarray]:
    """values_of on an array of x, reused while the same read-only array comes back.

    The solvers pass the grid's read-only ``points`` on every sweep, so an x-only factor
    of a right-hand side is formed once per grid.  values_of takes the x as one flat
    float array and gives a value per entry; the result has the shape of x.
    """
    last: tuple = (None, None)

    def values(x) -> np.ndarray:
        nonlocal last
        seen, vals = last
        if x is seen and not x.flags.writeable:
            return vals
        xs = np.asarray(x, dtype=float)
        vals = np.asarray(values_of(xs.ravel()), dtype=float).reshape(xs.shape)
        vals.setflags(write=False)
        if isinstance(x, np.ndarray) and not x.flags.writeable:
            last = (x, vals)
        return vals

    return values


def _pointwise(f: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """f applied to each element of an array of x, once per grid (``_once_per_grid``).

    f is called on Python floats, so the values carry the bits of the scalar f; an
    overflow reads as inf, as in ``sample``.
    """
    return _once_per_grid(lambda xs: [_value_at(f, t) for t in xs.tolist()])


def q_derivative(u: GridFunction) -> GridFunction:
    """Exact lattice q-derivative (D_q u)(x_m) = (u_m - u_{m+1}) / (x_m (1-q)).

    The deepest index has no sample below it; its slot is filled by copying
    the neighbouring derivative value and the guard count grows by one so
    consumers can shrink their trusted range.
    """
    g = u.grid
    if g.depth < 1:
        raise DepthError("q-derivative needs depth >= 1")
    x = g.points
    out = np.empty_like(u.values)
    with np.errstate(over="ignore"):
        out[:-1] = (u.values[:-1] - u.values[1:]) / (x[:-1] * (1.0 - g.q))
    out[-1] = out[-2]
    ds = u.domain_stop
    if ds <= g.depth:
        # keep out-of-domain slots at zero; the deepest in-domain slot used
        # an out-of-domain sample and is covered by the guard increment
        out[ds:] = 0.0
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        k = int(bad[0])
        raise DomainError(f"q-derivative overflow at lattice index {k} (x={float(x[k])!r}): "
                          "the difference quotient leaves double range")
    return u.with_values(out, guard=u.guard + 1)


def q_derivative_n(u: GridFunction, n: int) -> GridFunction:
    """n-fold composition of the lattice q-derivative."""
    if n < 1:
        raise DomainError(f"derivative order must be a positive integer, got {n}")
    if n >= u.grid.depth:
        raise DepthError(f"q-derivative of order {n} needs depth > {n}")
    out = u
    for _ in range(n):
        out = q_derivative(out)
    return out


def tail_window(q: float, depth: int, decay: float, amp: float,
                target: float = _TRUST_TARGET) -> int:
    """One past the deepest index m at which a 0-anchored value is trusted.

    A Jackson sum anchored at 0 and truncated at depth M drops a relative
    tail ~ q**((M+1-m) decay) at index m (integrands ~ t**(decay-1)); the
    q-derivatives applied afterwards amplify it by q**(-m amp), amp >= 0
    (each divides by x_m ~ q**m).  The window keeps
    q**((M+1-m) decay - m amp) below target (< 1), so it lies in [1, M+1].
    """
    s = math.log(1.0 / target) / math.log(1.0 / q)
    return max(int(((depth + 1) * decay - s) / (decay + amp)), 1)


def roundoff_window(q: float, amp: float, n: int, target: float) -> int:
    """Index m, rounded down, at which roundoff eps q**(-m amp) / (1-q)**n reaches target.

    n q-derivatives turn roundoff eps into eps / (1-q)**n at x = b, and into
    a further q**(-m amp) times that at index m when the output falls below
    the differentiated values by amp powers of x_m.  Not clamped: a result
    <= 0 means the target is out of reach even at x = b.
    """
    return int(math.log(target * (1.0 - q) ** n / _EPS) / (amp * math.log(1.0 / q)))


def _sum_range(g: LatticeGrid, values: np.ndarray, start: int, stop: int) -> float:
    """(1-q) * sum_{k=start}^{stop-1} x_k values_k (empty sum gives 0).

    The package's one L^1_q range sum: solver and verify norms pass |v|.
    """
    if stop <= start:
        return 0.0
    seg = g.points[start:stop] * values[start:stop]
    return float((1.0 - g.q) * np.add.reduce(seg))  # np.sum's pairwise sum, without its wrapper


def _integral(g: LatticeGrid, values: np.ndarray, lower: Anchor, upper: LatticePoint,
              warn: bool) -> float:
    mu = upper.index
    if not (0 <= mu <= g.depth):
        raise DomainError(f"upper index {mu} outside grid")
    lo = anchor_index(lower)
    if lo is not None:
        if not (0 <= lo <= g.depth):
            raise DomainError(f"lower index {lo} outside grid")
        if lo < mu:
            raise DomainError(
                f"lower limit (index {lo}) must not exceed upper limit (index {mu})"
            )
        return _sum_range(g, values, mu, lo)
    # anchored at 0: geometric sum truncated at depth M
    result = _sum_range(g, values, mu, g.depth + 1)
    tail = g.q * g.point(g.depth) * abs(float(values[g.depth]))
    if warn and tail > g.params.eps_series * abs(result):
        warnings.warn(
            f"Jackson sum tail estimate {tail:.3e} exceeds eps_series * |result| "
            f"({g.params.eps_series:.1e} * {abs(result):.3e})",
            TailWarning,
            stacklevel=3,
        )
    return result


def jackson_integral(u: GridFunction, lower: Anchor, upper: LatticePoint, *,
                     warn: bool = True) -> float:
    """Jackson integral of u from `lower` to `upper`.

    Between two lattice points this is the exact finite sum
    (1-q) sum x_k u_k over the indices in between; from ZERO the sum runs to
    the grid depth and the dropped tail is estimated (TailWarning when it
    exceeds eps_series relative to the result).
    """
    return _integral(u.grid, u.values, lower, upper, warn)


def l1q_norm(u: GridFunction, lower: Anchor, upper: LatticePoint, *,
             warn: bool = True) -> float:
    """L^1_q norm of u over [lower, upper]: the Jackson integral of |u|."""
    return _integral(u.grid, np.abs(u.values), lower, upper, warn)
