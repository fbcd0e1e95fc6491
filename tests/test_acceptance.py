"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion runs the corresponding registered checks from
:mod:`qfrac.verify` in the thorough profile (full sample counts, per-q
grid depths) at the stated tolerances, which are pinned inside the checks
themselves.  Criterion 11 exercises the CLI verification command twice and
compares reports byte for byte.
"""

import subprocess
import sys

from qfrac.verify import run_checks

SEED = 7


def _run_criterion(number: int, description: str, patterns: list[str]) -> None:
    failures = []
    details = []
    for pattern in patterns:
        for res in run_checks(seed=SEED, pattern=pattern, thorough=True):
            if res.passed:
                details.append(res.detail)
            else:
                failures.append(f"{res.name}: {res.detail}")
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE C{number:02d} {status} - {description}")
    for f in failures:
        print(f"    {f}")
    assert not failures, f"criterion {number} failed: {failures}"


def test_c01_power_basis_integral_identity():
    _run_criterion(
        1,
        "fractional integral power-basis rule, random orders, both anchors, rel < 1e-7",
        ["qfracops.integral-power-identity"],
    )


def test_c02_power_basis_derivative_identity_and_annihilation():
    _run_criterion(
        2,
        "fractional derivative power-basis rule (rel < 1e-6) and integer-offset "
        "annihilation (abs < 1e-8)",
        ["qfracops.derivative-power-identity", "qfracops.derivative-annihilation"],
    )


def test_c03_composition_laws():
    _run_criterion(
        3,
        "semigroup, left inverse, reduced derivative, decomposition, boundedness "
        "at stated tolerances for all q",
        [
            "qfracops.semigroup",
            "qfracops.left-inverse",
            "qfracops.reduced-derivative",
            "qfracops.decomposition",
            "qfracops.boundedness",
        ],
    )


def test_c04_hilfer_reductions():
    _run_criterion(
        4,
        "two-order derivative reduces to RL (mu=0) and Caputo (mu=1, n=1) "
        "within 1e-7 in L1_q",
        ["qfracops.hilfer-reduces-to-rl", "qfracops.hilfer-reduces-to-caputo"],
    )


def test_c05_kernel_annihilation():
    _run_criterion(
        5,
        "initial-term kernel family annihilated, k = 1..n, n in {1, 2}, abs < 1e-7",
        ["qfracops.hilfer-kernel-annihilation"],
    )


def test_c06_equivalence_on_sqrt_example():
    _run_criterion(
        6,
        "Volterra/differential equivalence: both residuals < 1e-5 for the Picard "
        "and the sampled exact solution of the sqrt-rhs example",
        ["solver.example42-picard"],
    )


def test_c07_singular_example_operator():
    _run_criterion(
        7,
        "operator on the singular closed-form solution reproduces its rhs "
        "within 1e-5 relative on clean indices",
        ["solver.example41-operator"],
    )


def test_c08_linear_closed_form_vs_picard():
    _run_criterion(
        8,
        "closed-form linear solution vs Picard within 1e-7 in L1_q and its y(b) vs "
        "the q-Mittag-Leffler series within 1e-9, 10 random admissible problems; "
        "geometric iterate decay within omega + 0.05",
        ["solver.linear-vs-picard"],
    )


def test_c09_mittag_leffler_oracle_and_divergence():
    _run_criterion(
        9,
        "q-Mittag-Leffler matches 500-term brute force within 1e-10 for 50 "
        "random specs; divergence raised exactly at ratio >= 1",
        ["qml.series-oracle", "qml.divergence-boundary"],
    )


def test_c10_classical_limit():
    _run_criterion(
        10,
        "q -> 1 sanity: half-order integral of x at x = 1 within 1% of the "
        "classical value",
        ["solver.classical-limit-integral"],
    )


def test_c11_verification_report_determinism():
    cmd = [sys.executable, "-m", "qfrac.cli", "verify", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.encode() == second.stdout.encode()
    )
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE C11 {status} - verification report byte-identical across "
          f"reruns with a fixed seed, exit 0")
    assert first.returncode == 0, first.stdout + first.stderr
    assert second.returncode == 0
    assert first.stdout.encode() == second.stdout.encode()
