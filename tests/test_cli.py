"""CLI subcommands, config files, CSV emission, and exit codes."""

import dataclasses
import io
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qfrac.cli import ProblemConfig, main, parse_fn_spec
from qfrac.errors import ConfigError
from qfrac.qcore import QParams, q_gamma
from qfrac.qgrid import GridFunction

REPO_ROOT = Path(__file__).resolve().parents[1]

CONFIG_LINEAR = """
[grid]
q = 0.5
b = 1.0
depth = 120

[orders]
alpha = 0.8
beta = 0.6
mu = 0.0
n = 1

[problem]
a = 0.0
xi = 1.0
lipschitz_a = 0.4
rhs = linear

[rhs]
lambda = 0.4
forcing = const:1

[solver]
tol = 1e-11
max_iter = 400
residual_tol = 1e-6
method = picard
"""


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "qfrac.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def parse_csv(text):
    rows = text.strip().splitlines()
    assert rows[0] == "m,x,value"
    data = np.array([[float(tok) for tok in r.split(",")] for r in rows[1:]])
    return data[:, 1], data[:, 2]


class TestFnSpecs:
    def test_const(self):
        assert parse_fn_spec("const:2.5", QParams(0.5), 0.0)(0.3) == 2.5

    def test_pow(self):
        assert parse_fn_spec("x^2", QParams(0.5), 0.0)(3.0) == 9.0
        assert parse_fn_spec("pow:0.5", QParams(0.5), 0.0)(4.0) == 2.0

    def test_powerbasis_masks_below_base(self):
        fn = parse_fn_spec("powerbasis:1.5", QParams(0.5), 0.25)
        assert fn(0.1) == 0.0
        assert fn(1.0) > 0.0

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            parse_fn_spec("sin", QParams(0.5), 0.0)


class TestEvalOp:
    def test_plain_integration_column(self):
        proc = run_cli(["eval-op", "--op", "rl-int", "--alpha", "1", "--fn",
                        "const:1", "--a", "0", "--b", "1", "--q", "0.5"])
        assert proc.returncode == 0
        x, v = parse_csv(proc.stdout)
        keep = 160  # indices whose truncation tail is below 1e-10
        assert v[:keep] == pytest.approx(x[:keep], rel=1e-9)

    def test_hilfer_mu_zero_matches_rl(self):
        common = ["--fn", "x^1.5", "--a", "0", "--b", "1", "--q", "0.5",
                  "--depth", "120"]
        h = run_cli(["eval-op", "--op", "hilfer", "--alpha", "0.9", "--beta",
                     "0.6", "--mu", "0", *common])
        r = run_cli(["eval-op", "--op", "rl-der", "--alpha", "0.6", *common])
        assert h.returncode == 0 and r.returncode == 0
        _, hv = parse_csv(h.stdout)
        _, rv = parse_csv(r.stdout)
        assert hv == pytest.approx(rv, rel=1e-7, abs=1e-12)

    def test_missing_q_exits_2(self):
        proc = run_cli(["eval-op", "--op", "rl-int", "--alpha", "1", "--fn",
                        "const:1", "--a", "0", "--b", "1"])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_off_lattice_anchor_exits_2(self):
        proc = run_cli(["eval-op", "--op", "rl-int", "--alpha", "1", "--fn",
                        "const:1", "--a", "0.3", "--b", "1", "--q", "0.5"])
        assert proc.returncode == 2
        assert "lattice" in proc.stderr


class TestMlEvalCommand:
    def test_lambda_zero_prints_reciprocal_gamma(self):
        proc = run_cli(["ml-eval", "--q", "0.5", "--alpha", "0.7", "--beta",
                        "0.9", "--lambda", "0", "--x", "0.5"])
        assert proc.returncode == 0
        lines = dict(line.split("=") for line in proc.stdout.strip().splitlines())
        assert float(lines["value"]) == pytest.approx(
            1.0 / q_gamma(QParams(0.5), 0.9), rel=1e-14
        )
        assert float(lines["ratio"]) == 0.0

    def test_divergent_ratio_exits_2_naming_condition(self):
        proc = run_cli(["ml-eval", "--q", "0.5", "--alpha", "1", "--beta", "1",
                        "--lambda", "3", "--x", "1"])
        assert proc.returncode == 2
        assert "convergence condition" in proc.stderr
        assert ">= 1" in proc.stderr

    def test_spot_value_against_oracle(self):
        q, alpha, beta, lam, x = 0.5, 0.5, 0.5, 0.2, 1.0
        p = QParams(q)
        want = sum(
            lam**k * x ** (k * alpha) / q_gamma(p, alpha * k + beta)
            for k in range(500)
        )
        proc = run_cli(["ml-eval", "--q", str(q), "--alpha", str(alpha), "--beta",
                        str(beta), "--lambda", str(lam), "--x", str(x)])
        lines = dict(line.split("=") for line in proc.stdout.strip().splitlines())
        assert float(lines["value"]) == pytest.approx(want, rel=1e-10)


class TestProblemConfig:
    def test_round_trip_identity(self):
        cfg = ProblemConfig.from_text(CONFIG_LINEAR)
        again = ProblemConfig.from_text(cfg.to_text())
        assert again == cfg

    def test_unknown_key_rejected(self):
        bad = CONFIG_LINEAR.replace("[solver]", "[solver]\nwibble = 3")
        with pytest.raises(ConfigError):
            ProblemConfig.from_text(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            ProblemConfig.from_text(CONFIG_LINEAR + "\n[extra]\nx = 1\n")

    def test_xi_count_checked(self):
        bad = CONFIG_LINEAR.replace("xi = 1.0", "xi = 1.0, 2.0")
        with pytest.raises(ConfigError):
            ProblemConfig.from_text(bad)

    def test_invalid_q_reported_as_config_error(self):
        bad = CONFIG_LINEAR.replace("q = 0.5", "q = 1.5")
        with pytest.raises(ConfigError):
            ProblemConfig.from_text(bad)

    def test_closed_form_requires_origin(self):
        bad = CONFIG_LINEAR.replace("a = 0.0", "a = 0.25").replace(
            "method = picard", "method = closed-form"
        )
        with pytest.raises(ConfigError):
            ProblemConfig.from_text(bad)

    def test_required_keys_only_take_dataclass_defaults(self):
        text = (
            "[grid]\nq = 0.5\nb = 1.0\n\n"
            "[orders]\nalpha = 0.8\nbeta = 0.6\nmu = 0.0\nn = 1\n\n"
            "[problem]\nxi = 1.0\nlipschitz_a = 0.4\nrhs = linear\n\n"
            "[rhs]\nlambda = 0.4\n"
        )
        cfg = ProblemConfig.from_text(text)
        assert cfg.params == QParams(0.5)
        defaults = {f.name: f.default for f in dataclasses.fields(ProblemConfig)
                    if f.default is not dataclasses.MISSING}
        assert set(defaults) == {"tol", "max_iter", "residual_tol", "method", "picard_seed"}
        assert {name: getattr(cfg, name) for name in defaults} == defaults

    def test_polynomial_rhs_built(self):
        text = CONFIG_LINEAR.replace("rhs = linear", "rhs = polynomial").replace(
            "lambda = 0.4\nforcing = const:1", "c00 = 1.0\nc11 = 0.5"
        )
        cfg = ProblemConfig.from_text(text)
        prob = cfg.build_cauchy()
        assert prob.rhs(2.0, 3.0) == pytest.approx(1.0 + 0.5 * 2.0 * 3.0)


class TestSolveCommand:
    def test_linear_both_methods_agree(self, tmp_path):
        cfg = tmp_path / "lin.ini"
        cfg.write_text(CONFIG_LINEAR)
        p1 = run_cli(["solve", "--config", str(cfg), "--method", "picard",
                      "--out", str(tmp_path / "p")])
        p2 = run_cli(["solve", "--config", str(cfg), "--method", "closed-form",
                      "--out", str(tmp_path / "c")])
        assert p1.returncode == 0, p1.stderr
        assert p2.returncode == 0, p2.stderr
        params = QParams(0.5)
        a = GridFunction.from_csv(str(tmp_path / "p.solution.csv"), params)
        b = GridFunction.from_csv(str(tmp_path / "c.solution.csv"), params)
        g = a.grid
        num = float(np.sum(g.points * np.abs(a.values - b.values)))
        den = float(np.sum(g.points * np.abs(b.values)))
        assert num < 1e-7 * den

    def test_diagnostics_sidecar_format(self, tmp_path):
        cfg = tmp_path / "lin.ini"
        cfg.write_text(CONFIG_LINEAR)
        run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path / "s")])
        diag = (tmp_path / "s.diagnostics.txt").read_text()
        keys = {line.split("=")[0] for line in diag.strip().splitlines()}
        assert {"method", "iterations", "omega", "residual_l1",
                "subinterval_boundaries"} <= keys

    def test_divergent_closed_form_config_exits_2(self, tmp_path):
        bad = CONFIG_LINEAR.replace("lambda = 0.4", "lambda = 3.0").replace(
            "method = picard", "method = closed-form"
        )
        cfg = tmp_path / "bad.ini"
        cfg.write_text(bad)
        proc = run_cli(["solve", "--config", str(cfg)])
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_no_contraction_exits_3(self, tmp_path):
        text = CONFIG_LINEAR.replace("lipschitz_a = 0.4", "lipschitz_a = 8.0")
        cfg = tmp_path / "stiff.ini"
        cfg.write_text(text)
        proc = run_cli(["solve", "--config", str(cfg)])
        assert proc.returncode == 3

    def test_max_iter_exits_4(self, tmp_path):
        text = CONFIG_LINEAR.replace("max_iter = 400", "max_iter = 2")
        cfg = tmp_path / "short.ini"
        cfg.write_text(text)
        proc = run_cli(["solve", "--config", str(cfg)])
        assert proc.returncode == 4

    def test_missing_config_exits_2(self):
        proc = run_cli(["solve", "--config", "/nonexistent/x.ini"])
        assert proc.returncode == 2

    def test_bundled_sqrt_config(self, tmp_path):
        config = REPO_ROOT / "configs" / "example42.ini"
        proc = run_cli(["solve", "--config", str(config),
                        "--out", str(tmp_path / "ex42")])
        assert proc.returncode == 0, proc.stderr
        assert "status=ok" in proc.stdout
        diag = (tmp_path / "ex42.diagnostics.txt").read_text()
        residual = float(dict(
            line.split("=") for line in diag.strip().splitlines()
        )["residual_l1"])
        assert residual < 1e-5


class TestVerifyCommand:
    def test_filter_runs_subset(self):
        proc = run_cli(["verify", "--filter", "qgrid", "--seed", "3"])
        assert proc.returncode == 0
        assert "qgrid" in proc.stdout
        assert "qfracops" not in proc.stdout

    def test_seed_determinism_on_subset(self):
        a = run_cli(["verify", "--filter", "qml", "--seed", "11"])
        b = run_cli(["verify", "--filter", "qml", "--seed", "11"])
        assert a.returncode == 0
        assert a.stdout == b.stdout and a.stderr == b.stderr


class TestCsvEmission:
    def test_emitted_csv_parses_bit_exact(self):
        rng = np.random.default_rng(8)
        from qfrac.qgrid import LatticeGrid

        g = LatticeGrid(b=1.0, depth=25, params=QParams(0.7))
        u = GridFunction(g, rng.standard_normal(26) * np.pi)
        buf = io.StringIO(u.to_csv_text())
        back = GridFunction.from_csv(buf, g.params)
        assert np.array_equal(back.values, u.values)

    def test_main_entry_returns_int(self):
        assert main(["verify", "--filter", "no-such-check"]) == 0
