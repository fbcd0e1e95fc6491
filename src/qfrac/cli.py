"""Command-line front-end: operator evaluation, solving, and verification.

Subcommands::

    qfrac eval-op  --op {rl-int,rl-der,caputo,hilfer} --q Q --b B [--depth M]
                   --alpha A [--beta B --mu MU] [--a LOWER] --fn SPEC
    qfrac solve    --config problem.ini [--method picard|closed-form] [--out PREFIX]
    qfrac verify   [--seed N] [--filter SUBSTRING] [--thorough]
    qfrac ml-eval  --q Q --alpha A --beta B --lambda L --x X [--a LOWER]

Exit codes: 0 success, 1 verification/residual failure, 2 configuration or
validation error, 3 no contraction split exists, 4 iteration cap hit.

Grid functions print/serialize as CSV with header ``m,x,value`` and floats
at 17 significant digits (bit-exact round trips).  Problems are defined in
INI-style ``key = value`` section files; see ``ProblemConfig``.
"""

from __future__ import annotations

import argparse
import configparser
import io
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from .errors import (
    ConfigError,
    DivergenceError,
    MaxIterError,
    NoContractionError,
    QFracError,
)
from .qcore import QParams, masked_power_basis
from .qfracops import (
    FracOrders,
    _ceil_order,
    caputo_derivative,
    hilfer_derivative,
    rl_derivative,
    rl_integral,
)
from .qgrid import LatticeGrid, lattice_locate, sample
from .qml import MLSpec, ml_eval
from .solver import LinearProblem, Solution, linear_solve, picard_solve
from .problems import make_example41, make_example42
from .solver import CauchyProblem
from . import verify as verify_mod

__all__ = ["main", "ProblemConfig", "parse_fn_spec"]


class _OneLineParser(argparse.ArgumentParser):
    """argparse with single-line machine-parseable errors on exit code 2."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


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


@dataclass(frozen=True)
class ProblemConfig:
    """Validated, normalized contents of a problem definition file."""

    params: QParams
    b: float
    depth: int
    orders: FracOrders
    a: float
    xi: tuple[float, ...]
    lipschitz_a: float | None
    rhs_kind: str
    rhs_params: tuple[tuple[str, float | str], ...]  # sorted key/value pairs
    tol: float = 1e-10
    max_iter: int = 200
    residual_tol: float = 1e-5
    method: str = "picard"
    picard_seed: str | None = None

    def rhs_param(self, key: str, default=None):
        for k, v in self.rhs_params:
            if k == key:
                return v
        return default

    # -- parsing ------------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "ProblemConfig":
        cp = configparser.ConfigParser()
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"unparseable config: {exc}") from exc
        known = {"grid", "orders", "problem", "rhs", "solver"}
        unknown = set(cp.sections()) - known
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        for section, allowed in (("grid", _GRID_KEYS), ("orders", _ORDER_KEYS),
                                 ("problem", _PROBLEM_KEYS), ("solver", _SOLVER_KEYS)):
            if cp.has_section(section):
                bad = set(cp[section]) - allowed
                if bad:
                    raise ConfigError(f"unknown keys in [{section}]: {sorted(bad)}")

        def need(section: str, key: str) -> str:
            if not cp.has_option(section, key):
                raise ConfigError(f"missing required key {key!r} in [{section}]")
            return cp[section][key]

        def fnum(section: str, key: str, default=None) -> float:
            if not cp.has_option(section, key):
                if default is None:
                    raise ConfigError(f"missing required key {key!r} in [{section}]")
                return default
            try:
                return float(cp[section][key])
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: not a number") from exc

        def given(section: str, **convert) -> dict:
            """The keys present in a section, converted; absent keys keep their defaults."""
            return {key: conv(fnum(section, key)) for key, conv in convert.items()
                    if cp.has_option(section, key)}

        try:
            params = QParams(q=fnum("grid", "q"),
                             **given("grid", eps_product=float, eps_series=float, max_terms=int))
            orders = FracOrders(
                alpha=fnum("orders", "alpha"),
                beta=fnum("orders", "beta"),
                mu=fnum("orders", "mu"),
                n=int(fnum("orders", "n")),
            )
        except QFracError as exc:
            raise ConfigError(str(exc)) from exc
        b = fnum("grid", "b")
        depth = int(fnum("grid", "depth", 200))
        xi_raw = need("problem", "xi")
        try:
            xi = tuple(float(tok) for tok in xi_raw.split(","))
        except ValueError as exc:
            raise ConfigError(f"[problem] xi: expected comma-separated reals") from exc
        if len(xi) != orders.n:
            raise ConfigError(f"[problem] xi must have n={orders.n} entries, got {len(xi)}")
        rhs_kind = need("problem", "rhs").strip()
        if rhs_kind not in _RHS_KINDS:
            raise ConfigError(f"[problem] rhs must be one of {_RHS_KINDS}, got {rhs_kind!r}")
        rhs_items: dict[str, float | str] = {}
        if cp.has_section("rhs"):
            for key, val in cp["rhs"].items():
                if key in ("forcing",):
                    rhs_items[key] = val.strip()
                elif key in _RHS_KEYS:
                    rhs_items[key] = float(val)
                elif (rhs_kind == "polynomial" and len(key) == 3 and key[0] == "c"
                      and key[1:].isdigit()):
                    rhs_items[key] = float(val)
                else:
                    raise ConfigError(f"unknown key in [rhs]: {key!r}")
        lip = fnum("problem", "lipschitz_a", math.nan)
        solver = given("solver", tol=float, max_iter=int, residual_tol=float)
        if cp.has_option("solver", "method"):
            solver["method"] = cp["solver"]["method"].strip()
            if solver["method"] not in ("picard", "closed-form"):
                raise ConfigError("[solver] method must be picard or closed-form, "
                                  f"got {solver['method']!r}")
        cfg = cls(
            params=params,
            b=b,
            depth=depth,
            orders=orders,
            a=fnum("problem", "a", 0.0),
            xi=xi,
            lipschitz_a=None if math.isnan(lip) else lip,
            rhs_kind=rhs_kind,
            rhs_params=tuple(sorted(rhs_items.items())),
            picard_seed=cp.get("solver", "picard_seed", fallback="").strip() or None,
            **solver,
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ProblemConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        return cls.from_text(text)

    def validate(self) -> None:
        if not self.b > 0.0:
            raise ConfigError(f"b must be positive, got {self.b}")
        if self.a < 0.0 or self.a >= self.b:
            raise ConfigError(f"need 0 <= a < b, got a={self.a}, b={self.b}")
        if self.depth < 8:
            raise ConfigError(f"depth must be at least 8, got {self.depth}")
        if self.rhs_kind == "linear":
            if self.rhs_param("lambda") is None:
                raise ConfigError("[rhs] lambda is required for the linear rhs")
        elif self.rhs_kind in ("example41", "example42"):
            for key in ("lambda", "delta"):
                if self.rhs_param(key) is None:
                    raise ConfigError(f"[rhs] {key} is required for {self.rhs_kind}")
            if self.a == 0.0:
                raise ConfigError(f"{self.rhs_kind} needs a lattice anchor a > 0")
        elif self.rhs_kind == "polynomial":
            if not any(k.startswith("c") for k, _ in self.rhs_params):
                raise ConfigError("[rhs] polynomial needs at least one c<ij> coefficient")
        if self.method == "closed-form":
            if self.rhs_kind != "linear":
                raise ConfigError("closed-form method requires the linear rhs")
            if self.a != 0.0:
                raise ConfigError("closed-form method requires lower limit a = 0")
        if self.method == "picard" and self.lipschitz_a is None:
            raise ConfigError("[problem] lipschitz_a is required for the picard method")

    # -- emission (round-trip normal form) -----------------------------------

    def to_text(self) -> str:
        out = io.StringIO()
        p = self.params
        out.write("[grid]\n")
        out.write(f"q = {p.q!r}\nb = {self.b!r}\ndepth = {self.depth}\n")
        out.write(f"eps_product = {p.eps_product!r}\neps_series = {p.eps_series!r}\n")
        out.write(f"max_terms = {p.max_terms}\n\n")
        out.write("[orders]\n")
        o = self.orders
        out.write(f"alpha = {o.alpha!r}\nbeta = {o.beta!r}\nmu = {o.mu!r}\nn = {o.n}\n\n")
        out.write("[problem]\n")
        out.write(f"a = {self.a!r}\nxi = {', '.join(repr(v) for v in self.xi)}\n")
        if self.lipschitz_a is not None:
            out.write(f"lipschitz_a = {self.lipschitz_a!r}\n")
        out.write(f"rhs = {self.rhs_kind}\n\n")
        if self.rhs_params:
            out.write("[rhs]\n")
            for key, val in self.rhs_params:
                out.write(f"{key} = {val!r}\n" if isinstance(val, float)
                          else f"{key} = {val}\n")
            out.write("\n")
        out.write("[solver]\n")
        out.write(f"tol = {self.tol!r}\nmax_iter = {self.max_iter}\n")
        out.write(f"residual_tol = {self.residual_tol!r}\nmethod = {self.method}\n")
        if self.picard_seed:
            out.write(f"picard_seed = {self.picard_seed}\n")
        return out.getvalue()

    # -- construction of runtime objects -------------------------------------

    def build_grid(self) -> LatticeGrid:
        return LatticeGrid(b=self.b, depth=self.depth, params=self.params)

    def build_cauchy(self) -> CauchyProblem:
        lip = self.lipschitz_a
        if self.rhs_kind == "linear":
            lam = float(self.rhs_param("lambda"))
            forcing = parse_fn_spec(str(self.rhs_param("forcing", "zero")),
                                    self.params, self.a)
            return CauchyProblem(
                orders=self.orders, a=self.a, b=self.b,
                rhs=lambda x, y: lam * y + forcing(x),
                xi=self.xi, lipschitz_A=lip if lip else max(abs(lam), 1e-30),
                params=self.params,
            )
        if self.rhs_kind in ("example41", "example42"):
            maker = make_example41 if self.rhs_kind == "example41" else make_example42
            bundled = maker(
                self.params, b=self.b, anchor=self.a,
                lam=float(self.rhs_param("lambda")),
                delta=float(self.rhs_param("delta")),
                orders=self.orders,
            )
            prob = bundled.problem
            return replace(prob, xi=self.xi,
                           lipschitz_A=prob.lipschitz_A if lip is None else lip)
        # polynomial: f(x, y) = sum c_ij x**i y**j
        coeffs = [(int(k[1]), int(k[2]), float(v)) for k, v in self.rhs_params
                  if k.startswith("c")]

        def rhs(x: float, y: float) -> float:
            return sum(c * x**i * y**j for i, j, c in coeffs)

        return CauchyProblem(orders=self.orders, a=self.a, b=self.b, rhs=rhs,
                             xi=self.xi, lipschitz_A=lip, params=self.params)

    def build_linear(self) -> LinearProblem:
        if self.rhs_kind != "linear":
            raise ConfigError("closed-form method requires the linear rhs")
        lam = float(self.rhs_param("lambda"))
        forcing = parse_fn_spec(str(self.rhs_param("forcing", "zero")),
                                self.params, self.a)
        try:
            return LinearProblem(orders=self.orders, a=self.a, b=self.b, lam=lam,
                                 forcing=forcing, xi=self.xi, params=self.params)
        except DivergenceError as exc:
            raise ConfigError(str(exc)) from exc


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_eval_op(args) -> int:
    try:
        params = QParams(q=args.q)
        grid = LatticeGrid(b=args.b, depth=args.depth, params=params)
        anchor = lattice_locate(grid, args.a)
        fn = parse_fn_spec(args.fn, params, args.a)
        u = sample(grid, fn)
        if args.op == "rl-int":
            out = rl_integral(u, anchor, args.alpha)
        elif args.op == "rl-der":
            out = rl_derivative(u, anchor, args.alpha)
        elif args.op == "caputo":
            out = caputo_derivative(u, anchor, args.alpha)
        else:  # hilfer
            if args.beta is None or args.mu is None:
                raise ConfigError("--op hilfer requires --beta and --mu")
            n = _ceil_order(args.alpha)
            orders = FracOrders(alpha=args.alpha, beta=args.beta, mu=args.mu, n=n)
            out = hilfer_derivative(u, anchor, orders)
    except QFracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out.to_csv(sys.stdout)
    return 0


def _write_solution(sol: Solution, prefix: Path) -> None:
    csv_path = prefix.with_suffix(".solution.csv")
    diag_path = prefix.with_suffix(".diagnostics.txt")
    sol.y.to_csv(str(csv_path))
    with open(diag_path, "w", encoding="utf-8") as fh:
        fh.write(f"method={sol.method}\n")
        fh.write("iterations=" + ",".join(str(i) for i in sol.iterations_per_interval) + "\n")
        fh.write("omega=" + ",".join(f"{w:.17g}" for w in sol.omega_per_interval) + "\n")
        fh.write(f"residual_l1={sol.residual_l1:.17g}\n")
        fh.write(f"residual_linf={sol.residual_linf:.17g}\n")
        fh.write(f"residual_window_stop={sol.residual_stop}\n")
        fh.write("subinterval_boundaries="
                 + ",".join(str(i) for i in sol.subinterval_boundaries) + "\n")


def _cmd_solve(args) -> int:
    try:
        cfg = ProblemConfig.from_file(args.config)
        if args.method:
            cfg = replace(cfg, method=args.method)
            cfg.validate()
        grid = cfg.build_grid()
        if cfg.method == "closed-form":
            sol = linear_solve(cfg.build_linear(), grid)
        else:
            prob = cfg.build_cauchy()
            y_init = None
            if cfg.picard_seed:
                y_init = sample(grid, parse_fn_spec(cfg.picard_seed, cfg.params, cfg.a))
            sol = picard_solve(prob, grid, tol=cfg.tol, max_iter=cfg.max_iter,
                               y_init=y_init)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoContractionError as exc:
        print(f"error: no contraction: {exc}", file=sys.stderr)
        return 3
    except MaxIterError as exc:
        print(f"error: max iterations: {exc}", file=sys.stderr)
        return 4
    except QFracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prefix = Path(args.out) if args.out else Path(args.config).with_suffix("")
    _write_solution(sol, prefix)
    ok = sol.residual_l1 < cfg.residual_tol
    print(f"method={sol.method} residual_l1={sol.residual_l1:.6e} "
          f"residual_tol={cfg.residual_tol:.1e} "
          f"intervals={len(sol.subinterval_boundaries)} "
          f"status={'ok' if ok else 'residual-exceeded'}")
    print(f"wrote {prefix.with_suffix('.solution.csv')} and "
          f"{prefix.with_suffix('.diagnostics.txt')}")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    results = verify_mod.run_checks(seed=args.seed, pattern=args.filter,
                                    thorough=args.thorough)
    sys.stdout.write(verify_mod.render_report(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_ml_eval(args) -> int:
    try:
        params = QParams(q=args.q)
        spec = MLSpec(alpha=args.alpha, beta=args.beta, lam=args.lam, params=params)
        ratio = abs(args.lam) * args.x**args.alpha * (1.0 - args.q) ** args.alpha
        value = ml_eval(spec, args.x, args.a)
    except DivergenceError:
        print(
            f"error: divergence: |lambda| x**alpha (1-q)**alpha = {ratio:.6g}"
            " >= 1 violates the convergence condition of the linear solution theorem",
            file=sys.stderr,
        )
        return 2
    except QFracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"value={value:.17g}")
    print(f"ratio={ratio:.17g}")
    return 0


def main(argv=None) -> int:
    parser = _OneLineParser(prog="qfrac", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval-op", help="apply a fractional operator")
    p_eval.add_argument("--op", required=True,
                        choices=["rl-int", "rl-der", "caputo", "hilfer"])
    p_eval.add_argument("--q", type=float, required=True)
    p_eval.add_argument("--b", type=float, required=True)
    p_eval.add_argument("--depth", type=int, default=200)
    p_eval.add_argument("--alpha", type=float, required=True)
    p_eval.add_argument("--beta", type=float, default=None)
    p_eval.add_argument("--mu", type=float, default=None)
    p_eval.add_argument("--a", type=float, default=0.0)
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
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--filter", default=None)
    p_verify.add_argument("--thorough", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_ml = sub.add_parser("ml-eval", help="evaluate the q-Mittag-Leffler series")
    p_ml.add_argument("--q", type=float, required=True)
    p_ml.add_argument("--alpha", type=float, required=True)
    p_ml.add_argument("--beta", type=float, required=True)
    p_ml.add_argument("--lambda", dest="lam", type=float, required=True)
    p_ml.add_argument("--x", type=float, required=True)
    p_ml.add_argument("--a", type=float, default=0.0)
    p_ml.set_defaults(func=_cmd_ml_eval)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
