"""Command-line front-end: operator evaluation, solving, and verification.

Subcommands::

    qfrac eval-op  --op {rl-int,rl-der,caputo,hilfer} --q Q --b B [--depth M]
                   --alpha A [--beta B --mu MU] [--a LOWER] --fn SPEC
    qfrac solve    --config problem.ini [--method picard|closed-form] [--out PREFIX]
    qfrac verify   [--seed N] [--filter SUBSTRING] [--thorough]
    qfrac ml-eval  --q Q --alpha A --beta B --lambda L --x X [--a LOWER]

Exit codes: 0 success, 1 verification failure or relative residual not below
``residual_tol``, 2 configuration or validation error, 3 no contraction split
exists, 4 iteration cap hit.

Grid functions print/serialize as CSV with header ``m,x,value`` and floats
at 17 significant digits (bit-exact round trips).

A problem file (``ProblemConfig``) is read in one pass, line by line:

* ``[section]`` opens a section, each at most once; the known ones are
  ``grid``, ``orders``, ``problem``, ``rhs`` and ``solver``;
* ``key = value`` or ``key: value`` sets a key of the open section, at most
  once.  The line splits at its first ``=`` or ``:``, both sides are
  stripped, the key is lower-cased, and the value is read literally (``%``
  is an ordinary character);
* blank lines, lines whose first non-blank character is ``#`` or ``;``, and
  the rest of a line from a ``#`` that follows whitespace are comments.

Anything else -- text before the first section, text after a section header,
a line with no delimiter or no key, an indented line (a value does not
continue on the next line), a repeated section or key -- exits 2 with one
``unparseable config: line N`` error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from .errors import (ConfigError, MaxIterError, NoContractionError, NonConvergenceError,
                     QFracError)
from .qcore import QParams, masked_power_basis
from .qfracops import (
    FracOrders,
    _ceil_order,
    caputo_derivative,
    hilfer_derivative,
    rl_derivative,
    rl_integral,
)
from .qgrid import LatticeGrid, _overwrite, _pointwise, lattice_locate, sample
from .qml import MLSpec, _summation_bound, ml_bound_check, ml_terms
from .solver import LinearProblem, Solution, linear_solve, picard_solve
from .problems import make_example41, make_example42
from .solver import CauchyProblem
from . import verify as verify_mod

__all__ = ["main", "ProblemConfig", "parse_fn_spec"]


class _OneLineParser(argparse.ArgumentParser):
    """argparse with single-line machine-parseable errors on exit code 2."""

    def __init__(self, *args, **kwargs):  # subparsers are built from this class too
        super().__init__(*args, **kwargs)
        # a word starting like a negative number float() reads is a value (the default
        # missed -2e-1, -inf and -nan); _finite then names a non-finite one
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _finite(text: str) -> float:
    """The number a command-line or config value spells, if it is finite."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")


def _non_negative(text: str) -> int:
    """The non-negative integer a command-line value spells."""
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")


def parse_fn_spec(spec: str, params: QParams, base: float) -> Callable[[float], float]:
    """Builtin scalar function specs for sampling and forcing terms.

    Forms: ``const:<v>``, ``x^<p>`` (or ``pow:<p>``), ``powerbasis:<p>``
    (the q-power basis (x - base)^p_q, zero below the base), ``zero``.
    """
    s = spec.strip()
    try:
        if s == "zero":
            return lambda x: 0.0
        if s.startswith("const:"):
            v = float(s.split(":", 1)[1])
            return lambda x: v
        if s.startswith("pow:") or s.startswith("x^"):
            ppow = float(s.split(":", 1)[1] if ":" in s else s[2:])
            return lambda x: x**ppow
        if s.startswith("powerbasis:"):
            ppow = float(s.split(":", 1)[1])
            return lambda x: masked_power_basis(params, x, base, ppow)
    except ValueError as exc:
        raise ConfigError(f"bad function spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown function spec {spec!r}")


# --------------------------------------------------------------------------
# problem configuration files
# --------------------------------------------------------------------------

_GRID_KEYS = {"q", "b", "depth", "eps_product", "eps_series", "max_terms"}
_ORDER_KEYS = {"alpha", "beta", "mu", "n"}
_PROBLEM_KEYS = {"a", "xi", "lipschitz_a", "rhs"}
_RHS_KEYS = {"lambda", "delta", "forcing"}  # polynomial adds c<ij> keys
_SOLVER_KEYS = {"tol", "max_iter", "residual_tol", "method", "picard_seed"}
_RHS_KINDS = ("linear", "example41", "example42", "polynomial")
_INT_KEYS = {"depth", "n", "max_iter", "max_terms"}


_SECTION = re.compile(r"\[(.+)\]")
_INLINE_COMMENT = re.compile(r"\s#")
_KEY_VALUE = re.compile(r"([^=:]*)[=:](.*)")  # split at the first delimiter


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    """The sections of a problem file as ``{section: {key: value}}``, read in one pass.

    The language is the module doc's.  ConfigError names the first line outside it.
    """
    sections: dict[str, dict[str, str]] = {}
    current = None
    for number, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body[0] in "#;":
            continue
        if "#" in body:
            body = _INLINE_COMMENT.split(body, 1)[0].rstrip()
        if line[0].isspace():
            why = "an indented line (a value does not continue on the next line)"
        elif header := _SECTION.fullmatch(body):
            if header[1] not in sections:
                current = sections[header[1]] = {}
                continue
            why = f"repeated section [{header[1]}]"
        elif body[0] == "[":
            why = "expected a [section] header alone on its line"
        elif current is None:
            why = "text before the first [section]"
        elif not (pair := _KEY_VALUE.fullmatch(body)) or not pair[1].strip():
            why = "expected key = value or key: value"
        elif (key := pair[1].strip().lower()) in current:
            why = f"repeated key {key!r}"
        else:
            current[key] = pair[2].strip()
            continue
        raise ConfigError(f"unparseable config: line {number}: {why}: {line!r}")
    return sections


@dataclass(frozen=True)
class ProblemConfig:
    """Parsed, normalized contents of a problem definition file (see ``from_text``)."""

    params: QParams
    b: float
    depth: int
    orders: FracOrders
    a: float
    xi: tuple[float, ...]
    lipschitz_a: float | None
    rhs_kind: str
    rhs_params: dict[str, float | str]  # [rhs] by sorted key: the polynomial's term order
    tol: float = 1e-10
    max_iter: int = 200
    residual_tol: float = 1e-5
    method: str = "picard"
    picard_seed: str | None = None

    # -- parsing ------------------------------------------------------------

    @classmethod
    def from_text(cls, text: str, method: str | None = None) -> "ProblemConfig":
        """Parse a problem file; ``method``, if given, overrides ``[solver] method``
        before the file's rules are checked."""
        known = {"grid", "orders", "problem", "rhs", "solver"}
        sections = {name: {} for name in known}  # a known section the file lacks is empty
        sections.update(_read_sections(text))
        unknown = set(sections) - known
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        for section, allowed in (("grid", _GRID_KEYS), ("orders", _ORDER_KEYS),
                                 ("problem", _PROBLEM_KEYS), ("solver", _SOLVER_KEYS)):
            bad = set(sections[section]) - allowed
            if bad:
                raise ConfigError(f"unknown keys in [{section}]: {sorted(bad)}")

        def need(section: str, key: str) -> str:
            if key not in sections[section]:
                raise ConfigError(f"missing required key {key!r} in [{section}]")
            return sections[section][key]

        def fnum(section: str, key: str, default=None) -> float | int:
            """The finite number a key spells; an int for the integer keys."""
            if default is not None and key not in sections[section]:
                return default
            try:
                value = _finite(raw := need(section, key))
            except argparse.ArgumentTypeError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
            if key not in _INT_KEYS:
                return value
            if not value.is_integer():
                raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}")
            return int(value)

        def given(section: str, *keys: str) -> dict:
            """The keys present in a section; absent keys keep their defaults."""
            return {key: fnum(section, key) for key in keys if key in sections[section]}

        try:
            params = QParams(q=fnum("grid", "q"),
                             **given("grid", "eps_product", "eps_series", "max_terms"))
            orders = FracOrders(**{key: fnum("orders", key)
                                   for key in ("alpha", "beta", "mu", "n")})
        except QFracError as exc:
            raise ConfigError(str(exc)) from exc
        xi_raw = need("problem", "xi")
        try:
            xi = tuple(_finite(tok) for tok in xi_raw.split(","))
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"[problem] xi: expected comma-separated reals, {exc}") from exc
        rhs_kind = need("problem", "rhs").strip()
        if rhs_kind not in _RHS_KINDS:
            raise ConfigError(f"[problem] rhs must be one of {_RHS_KINDS}, got {rhs_kind!r}")
        rhs_items: dict[str, float | str] = {}
        for key, val in sections["rhs"].items():
            if key in ("forcing",):
                rhs_items[key] = val.strip()
            elif key in _RHS_KEYS or (rhs_kind == "polynomial" and len(key) == 3
                                      and key[0] == "c" and key[1:].isdigit()):
                rhs_items[key] = fnum("rhs", key)
            else:
                raise ConfigError(f"unknown key in [rhs]: {key!r}")
        solver = given("solver", "tol", "max_iter", "residual_tol")
        for source, value in (("[solver] method", sections["solver"].get("method")),
                              ("method", method)):  # the override comes last and wins
            if value is None:
                continue
            if (value := value.strip()) not in ("picard", "closed-form"):
                raise ConfigError(f"{source} must be picard or closed-form, got {value!r}")
            solver["method"] = value
        cfg = cls(
            params=params,
            b=fnum("grid", "b"),
            depth=fnum("grid", "depth", 200),
            orders=orders,
            a=fnum("problem", "a", 0.0),
            xi=xi,
            lipschitz_a=given("problem", "lipschitz_a").get("lipschitz_a"),
            rhs_kind=rhs_kind,
            rhs_params=dict(sorted(rhs_items.items())),
            picard_seed=sections["solver"].get("picard_seed", "").strip() or None,
            **solver,
        )
        cfg._check_rules()
        return cfg

    @classmethod
    def from_file(cls, path, method: str | None = None) -> "ProblemConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        return cls.from_text(text, method)

    def _check_rules(self) -> None:
        """The rules no runtime object owns; the grid and problem constructors check
        b, a, depth and the xi count, and the solvers that a is 0 or a lattice point,
        when ``qfrac solve`` builds and runs them."""
        if self.rhs_kind == "linear":
            if "lambda" not in self.rhs_params:
                raise ConfigError("[rhs] lambda is required for the linear rhs")
        elif self.rhs_kind in ("example41", "example42"):
            for key in ("lambda", "delta"):
                if key not in self.rhs_params:
                    raise ConfigError(f"[rhs] {key} is required for {self.rhs_kind}")
            if self.a == 0.0:
                raise ConfigError(f"{self.rhs_kind} needs a lattice anchor a > 0")
        elif self.rhs_kind == "polynomial":
            if not any(k.startswith("c") for k in self.rhs_params):
                raise ConfigError("[rhs] polynomial needs at least one c<ij> coefficient")
        if self.method == "closed-form" and self.rhs_kind != "linear":
            raise ConfigError("closed-form method requires the linear rhs")
        if self.method == "picard" and self.lipschitz_a is None:
            raise ConfigError("[problem] lipschitz_a is required for the picard method")

    # -- construction of runtime objects -------------------------------------

    def build_grid(self) -> LatticeGrid:
        return LatticeGrid(b=self.b, depth=self.depth, params=self.params)

    def build_cauchy(self) -> CauchyProblem:
        lip = self.lipschitz_a
        if self.rhs_kind == "linear":
            lam = float(self.rhs_params["lambda"])
            forcing = _pointwise(parse_fn_spec(self.rhs_params.get("forcing", "zero"),
                                               self.params, self.a))
            return CauchyProblem(
                orders=self.orders, a=self.a, b=self.b,
                rhs=lambda x, y: lam * y + forcing(x),
                xi=self.xi, lipschitz_A=lip, params=self.params,
            )
        if self.rhs_kind in ("example41", "example42"):
            maker = make_example41 if self.rhs_kind == "example41" else make_example42
            bundled = maker(
                self.params, b=self.b, anchor=self.a,
                lam=float(self.rhs_params["lambda"]),
                delta=float(self.rhs_params["delta"]),
                orders=self.orders,
            )
            return replace(bundled.problem, xi=self.xi, lipschitz_A=lip)
        # polynomial: f(x, y) = sum c_ij x**i y**j, with y**j as j products: numpy and
        # Python floats raise to a power differently, products round alike in both
        terms = [(float(v), _pointwise(lambda x, i=int(k[1]): x**i), int(k[2]))
                 for k, v in self.rhs_params.items() if k.startswith("c")]

        def rhs(x, y):
            return sum(math.prod((c, x_pow(x)) + (y,) * j) for c, x_pow, j in terms)

        return CauchyProblem(orders=self.orders, a=self.a, b=self.b, rhs=rhs,
                             xi=self.xi, lipschitz_A=lip, params=self.params)

    def build_linear(self) -> LinearProblem:
        forcing = parse_fn_spec(self.rhs_params.get("forcing", "zero"), self.params, self.a)
        return LinearProblem(orders=self.orders, a=self.a, b=self.b,
                             lam=float(self.rhs_params["lambda"]),
                             forcing=forcing, xi=self.xi, params=self.params)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_eval_op(args) -> int:
    params = QParams(q=args.q)
    grid = LatticeGrid(b=args.b, depth=args.depth, params=params)
    anchor = lattice_locate(grid, args.a)
    u = sample(grid, parse_fn_spec(args.fn, params, args.a))
    if args.op == "rl-int":
        out = rl_integral(u, anchor, args.alpha)
    elif args.op == "rl-der":
        out = rl_derivative(u, anchor, args.alpha)
    elif args.op == "caputo":
        out = caputo_derivative(u, anchor, args.alpha)
    else:  # hilfer
        if args.beta is None or args.mu is None:
            raise ConfigError("--op hilfer requires --beta and --mu")
        orders = FracOrders(alpha=args.alpha, beta=args.beta, mu=args.mu,
                            n=_ceil_order(args.alpha))
        out = hilfer_derivative(u, anchor, orders)
    out.to_csv(sys.stdout)
    return 0


def _output_paths(prefix: Path) -> tuple[Path, Path]:
    """The solution CSV and diagnostics paths of a prefix; ConfigError if it has no name."""
    try:
        return prefix.with_suffix(".solution.csv"), prefix.with_suffix(".diagnostics.txt")
    except ValueError:  # '.', '/': no file name to put a suffix on
        raise ConfigError(f"output prefix {str(prefix)!r} has no file name") from None


def _write_solution(sol: Solution, csv_path: Path, diag_path: Path) -> None:
    diagnostics = (
        f"method={sol.method}\n"
        f"iterations={','.join(str(i) for i in sol.iterations_per_interval)}\n"
        f"omega={','.join(f'{w:.17g}' for w in sol.omega_per_interval)}\n"
        f"residual_l1={sol.residual_l1:.17g}\n"
        f"residual_rel={sol.residual_rel:.17g}\n"
        f"residual_linf={sol.residual_linf:.17g}\n"
        f"residual_window_stop={sol.residual_stop}\n"
        f"subinterval_boundaries={','.join(str(i) for i in sol.subinterval_boundaries)}\n")
    _overwrite((csv_path, sol.y.to_csv_text()), (diag_path, diagnostics))


def _cmd_solve(args) -> int:
    cfg = ProblemConfig.from_file(args.config, args.method)
    csv_path, diag_path = _output_paths(Path(args.out) if args.out
                                        else Path(args.config).with_suffix(""))
    # the grid first: it owns the b and depth rules, the problem then owns a and the xi count
    grid = cfg.build_grid()
    if cfg.method == "closed-form":
        sol = linear_solve(cfg.build_linear(), grid)
    else:
        prob = cfg.build_cauchy()
        y_init = None
        if cfg.picard_seed:
            y_init = sample(grid, parse_fn_spec(cfg.picard_seed, cfg.params, cfg.a))
        sol = picard_solve(prob, grid, tol=cfg.tol, max_iter=cfg.max_iter, y_init=y_init)
    _write_solution(sol, csv_path, diag_path)
    ok = sol.residual_rel < cfg.residual_tol
    print(f"method={sol.method} residual_l1={sol.residual_l1:.6e} "
          f"residual_rel={sol.residual_rel:.6e} "
          f"residual_tol={cfg.residual_tol:.1e} "
          f"intervals={len(sol.subinterval_boundaries)} "
          f"status={'ok' if ok else 'residual-exceeded'}")
    print(f"wrote {csv_path} and {diag_path}")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    results = verify_mod.run_checks(seed=args.seed, pattern=args.filter,
                                    thorough=args.thorough)
    sys.stdout.write(verify_mod.render_report(results))
    return 0 if all(r.passed for r in results) else 1


def _refuse_cancelled(value: float, terms: list[float], p: QParams) -> None:
    """NonConvergenceError when the roundoff bound of a sum whose terms change sign
    passes eps_series |value|, the tolerance the series was cut at.

    Adding the terms in order, as :func:`qfrac.qml.ml_terms` does, errs by at
    most :func:`qfrac.qml._summation_bound` of their partial sums.  A term
    formed as exp(log) from truncated q-products carries about
    eps_product + |log |t_k|| u of itself, u = 2**-53.  Terms of one sign lose
    no digits to cancellation, so their sums are never refused.
    """
    if min(terms) >= 0.0 or max(terms) <= 0.0:
        return
    size = [abs(t) for t in terms if t]
    formed = math.fsum(t * (p.eps_product + 2.0**-53 * abs(math.log(t))) for t in size)
    bound = _summation_bound(list(itertools.accumulate(terms))) + formed
    if not bound <= p.eps_series * abs(value):
        ratio = math.fsum(size) / abs(value) if value else math.inf
        raise NonConvergenceError(
            f"q-Mittag-Leffler sum cancels: sum|terms|/|sum| = {ratio:.3g}, so its roundoff "
            f"bound {bound:.3g} exceeds eps_series*|sum| = {p.eps_series * abs(value):.3g}")


def _cmd_ml_eval(args) -> int:
    spec = MLSpec(alpha=args.alpha, beta=args.beta, lam=args.lam, params=QParams(q=args.q))
    value, terms = ml_terms(spec, args.x, args.a)
    _refuse_cancelled(value, terms, spec.params)
    print(f"value={value:.17g}")
    print(f"ratio={ml_bound_check(spec, args.x):.17g}")
    return 0


#: What each error that outside input can cause exits with, and its message
#: prefix; the first matching row wins.  OSError covers an unwritable --out.
_EXIT_CODES = (
    (NoContractionError, 3, "no contraction: "),
    (MaxIterError, 4, "max iterations: "),
    ((QFracError, OSError), 2, ""),
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one argument parser of the process, built on the first ``main`` call."""
    parser = _OneLineParser(prog="qfrac", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval-op", help="apply a fractional operator")
    p_eval.add_argument("--op", required=True,
                        choices=["rl-int", "rl-der", "caputo", "hilfer"])
    p_eval.add_argument("--q", type=_finite, required=True)
    p_eval.add_argument("--b", type=_finite, required=True)
    p_eval.add_argument("--depth", type=int, default=200)
    p_eval.add_argument("--alpha", type=_finite, required=True)
    p_eval.add_argument("--beta", type=_finite, default=None)
    p_eval.add_argument("--mu", type=_finite, default=None)
    p_eval.add_argument("--a", type=_finite, default=0.0)
    p_eval.add_argument("--fn", required=True,
                        help="const:<v> | x^<p> | powerbasis:<p> | zero")
    p_eval.set_defaults(func=_cmd_eval_op)

    p_solve = sub.add_parser("solve", help="solve a configured Cauchy problem")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--method", choices=["picard", "closed-form"], default=None)
    p_solve.add_argument("--out", default=None,
                         help="output prefix (default: config path without suffix)")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="run the identity/property check suite")
    p_verify.add_argument("--seed", type=_non_negative, default=0)
    p_verify.add_argument("--filter", default=None)
    p_verify.add_argument("--thorough", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_ml = sub.add_parser("ml-eval", help="evaluate the q-Mittag-Leffler series")
    p_ml.add_argument("--q", type=_finite, required=True)
    p_ml.add_argument("--alpha", type=_finite, required=True)
    p_ml.add_argument("--beta", type=_finite, required=True)
    p_ml.add_argument("--lambda", dest="lam", type=_finite, required=True)
    p_ml.add_argument("--x", type=_finite, required=True)
    p_ml.add_argument("--a", type=_finite, default=0.0)
    p_ml.set_defaults(func=_cmd_ml_eval)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (QFracError, OSError) as exc:
        code, prefix = next((code, prefix) for kind, code, prefix in _EXIT_CODES
                            if isinstance(exc, kind))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
