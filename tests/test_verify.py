"""The verify check registry, crash reporting and the helpers checks compare against."""

import math

import numpy as np
import pytest

from qfrac import verify
from qfrac.qcore import QParams, q_pochhammer_fractional, q_pochhammer_infinite
from qfrac.qml import MLSpec
from qfrac.qfracops import rl_integral
from qfrac.qgrid import ZERO, LatticeGrid, sample


def test_check_names_unique_and_not_substrings_of_each_other():
    # --filter and the benchmark select checks by substring
    names = verify.check_names()
    assert len(set(names)) == len(names)
    for a in names:
        for b in names:
            assert a == b or a not in b, f"selecting {a!r} also selects {b!r}"


def test_crashing_check_reported_and_later_checks_still_run(monkeypatch):
    def crashes(rng, thorough):
        raise ZeroDivisionError("boom")

    def fails(rng, thorough):
        raise AssertionError("off by 1")

    def passes(rng, thorough):
        return "fine"

    monkeypatch.setattr(verify, "_REGISTRY", [
        ("demo.crashes", crashes), ("demo.fails", fails), ("demo.passes", passes),
    ])
    report = verify.render_report(verify.run_checks(seed=0))
    assert report.splitlines() == [
        "FAIL demo.crashes: ZeroDivisionError: boom",
        "FAIL demo.fails: off by 1",
        "PASS demo.passes (fine)",
        "1/3 checks passed, 2 FAILED",
    ]


def test_check_draws_do_not_depend_on_registry_position(monkeypatch):
    # each check's random stream is keyed by its name, not by its position
    name = "qcore.gamma-recurrence"
    before = verify.run_checks(seed=3, pattern=name)
    monkeypatch.setattr(verify, "_REGISTRY",
                        [("demo.inserted", lambda rng, thorough: "x"), *verify._REGISTRY])
    after = verify.run_checks(seed=3, pattern=name)
    assert before[0].passed and after == before


def test_classical_limit_row_is_rl_integral_row_zero():
    # the q -> 1 check evaluates only row 0; near q = 1 rl_integral sums full rows, same bits
    g = LatticeGrid(b=1.0, depth=3000, params=QParams(0.999, max_terms=200_000))
    u = sample(g, lambda t: t)
    assert verify._rl_integral_at_b(u, 0.5) == rl_integral(u, ZERO, 0.5).values[0]


def per_term_ml_oracle(spec, x, a, n_terms=500):
    """The series oracle one term at a time: fresh scalar products per term."""
    p = spec.params
    euler = math.log(q_pochhammer_infinite(p, p.q))
    log1q = math.log(1.0 - p.q)
    c = a / x
    total = 0.0
    total_abs = 0.0
    for k in range(n_terms):
        y = spec.alpha * k + spec.beta
        log_gamma = euler - math.log(q_pochhammer_infinite(p, p.q**y)) + (1.0 - y) * log1q
        if k == 0:
            term = math.exp(-log_gamma)
            total += term
            total_abs += abs(term)
            if spec.lam == 0.0:
                break
            continue
        poch = q_pochhammer_fractional(p, c, k * spec.alpha) if c else 1.0
        if poch == 0.0:
            continue
        mag = (k * math.log(abs(spec.lam)) + k * spec.alpha * math.log(x)
               + math.log(abs(poch)))
        sign = (1.0 if spec.lam > 0.0 else -1.0) ** k * (1.0 if poch > 0.0 else -1.0)
        term = sign * math.exp(mag - log_gamma)
        total += term
        total_abs += abs(term)
    return total, total_abs


@pytest.mark.parametrize("q", verify.Q_SET)
def test_array_ml_oracle_matches_per_term_oracle(q):
    rng = np.random.default_rng(int(q * 10))
    p = QParams(q)
    for i in range(12):
        alpha, beta = rng.uniform(0.2, 2.0, size=2)
        x = float(rng.uniform(0.2, 1.0))
        r = [0.0, 0.05, 0.5, 0.9][i % 4] * (-1.0 if i % 3 else 1.0)
        lam = r / (x**alpha * (1.0 - q) ** alpha)
        for a in (0.0, x * q, x * q**5):
            spec = MLSpec(alpha=float(alpha), beta=float(beta), lam=lam, params=p)
            got, got_scale = verify._ml_oracle(spec, x, a)
            want, scale = per_term_ml_oracle(spec, x, a)
            # a cancelled alternating sum is only defined to roundoff of sum |terms|
            assert abs(got_scale - scale) <= 1e-13 * scale
            assert abs(got - want) <= 1e-13 * scale, (i, a, got, want)
