"""Acceptance criteria, one test per criterion.

Each test runs its property family at the stated tolerance (all checks
are exact; runtimes are bounded where required) and prints one PASS/FAIL
line.  The underlying runners live in the package so the CLI `suite`
subcommand exercises the same code.
"""
from __future__ import annotations

import pathlib

import pytest

from semiflat.suite import SuiteResult, run_suites

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

_RESULTS: dict[str, SuiteResult] = {}


@pytest.fixture(scope="module")
def results():
    if not _RESULTS:
        for r in run_suites():
            _RESULTS[r.tag] = r
    return _RESULTS


def _check(results, tag: str, number: int, max_seconds: float | None = None):
    r = results[tag]
    mark = "PASS" if r.passed else "FAIL"
    print(f"criterion {number:2d} [{mark}] {tag}: {r.detail} "
          f"({r.checks} checks, {r.seconds:.2f}s)")
    assert r.passed, f"criterion {number} failed: {r.detail}"
    if max_seconds is not None:
        assert r.seconds < max_seconds, \
            f"criterion {number} exceeded its runtime bound: {r.seconds:.2f}s"
    return r


def test_criterion_01_axiom_engine(results):
    r = _check(results, "axioms", 1, max_seconds=1.0)
    assert r.checks >= 20


def test_criterion_02_congruence_oracle(results):
    r = _check(results, "congruence-oracle", 2, max_seconds=30.0)
    assert r.checks >= 50


def test_criterion_03_unit_law(results):
    r = _check(results, "unit-law", 3)
    assert r.checks >= 20  # two directions over at least ten modules


def test_criterion_04_cancellative_universal(results):
    r = _check(results, "cancellative-universal", 4)
    assert r.checks >= 5


def test_criterion_05_adjunction(results):
    r = _check(results, "adjunction", 5)
    assert r.checks >= 5


def test_criterion_06_exactness_suite(results):
    r = _check(results, "exactness", 6, max_seconds=120.0)
    assert r.checks == 101_359


def test_criterion_07_flat_positive(results):
    _check(results, "flat-positive", 7)


def test_criterion_08_flat_negative(results):
    _check(results, "flat-negative", 8)


def test_criterion_09_implication_lattice(results):
    r = _check(results, "implication-lattice", 9, max_seconds=300.0)
    assert r.checks == 13


def test_criterion_10_comparison_maps(results):
    _check(results, "hom-tensor-comparison", 10)


def test_criterion_11_limits(results):
    _check(results, "limits", 11)


def test_criterion_12_cli_golden(capsys):
    from semiflat.cli import main
    cases = [
        (["tensor", "BOOL", "BOOL"], "tensor_bool.json", 0),
        (["ttensor", "SAT3", "SAT3"], "ttensor_sat3.json", 0),
        (["exact", "seq1"], "exact_seq1.json", 1),
        (["flat", "ZMOD2", "--against", "ZMOD4"], "flat_zmod2.json", 1),
        (["suite", "--only", "unit-law,flat-negative"], "suite_subset.json", 0),
    ]
    for argv, fixture, expected_code in cases:
        code = main(argv)
        out = capsys.readouterr().out
        want = (FIXTURES / fixture).read_text(encoding="utf-8")
        assert out == want, f"report for {argv} is not byte-identical"
        assert code == expected_code, f"exit code contract broken for {argv}"
    with capsys.disabled():
        print("criterion 12 [PASS] cli-golden: stored reports match byte-for-byte")


def test_full_suite_report_golden(results, capsys, monkeypatch):
    # the whole `semiflat suite` report, from the results computed above
    import semiflat.cli
    monkeypatch.setattr(semiflat.cli, "run_suites", lambda only=None: list(results.values()))
    code = semiflat.cli.main(["suite"])
    out = capsys.readouterr().out
    assert out == (FIXTURES / "suite_full.json").read_text(encoding="utf-8"), \
        "full suite report is not byte-identical"
    assert code == 0
