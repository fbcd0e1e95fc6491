"""The verify check registry: check names and crash reporting."""

from qfrac import verify
from qfrac.qcore import QParams
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
