"""The verify check registry: check names and crash reporting."""

from qfrac import verify


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
