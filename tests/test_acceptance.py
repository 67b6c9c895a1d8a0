"""Acceptance gate: every criterion must pass at its stated tolerance.

Each test prints the one-line verdict so the pytest -v log doubles as the
acceptance report.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from cubesquares import acceptance


def _check(fn):
    res = fn()
    tag = "PASS" if res.passed else "FAIL"
    print(f"[{tag}] criterion {res.index:2d} ({res.name}) {res.detail}")
    assert res.passed, res.detail


def test_criterion_01_residue_sets():
    _check(acceptance.criterion_1)


def test_criterion_02_complete_sums():
    _check(acceptance.criterion_2)


def test_criterion_03_orthogonality():
    _check(acceptance.criterion_3)


def test_criterion_04_multiplicativity():
    _check(acceptance.criterion_4)


def test_criterion_05_weight_majorant():
    _check(acceptance.criterion_5)


def test_criterion_06_gauss_sums():
    _check(acceptance.criterion_6)


def test_criterion_07_series_tails():
    _check(acceptance.criterion_7)


def test_criterion_08_oscillatory_routes():
    _check(acceptance.criterion_8)


def test_criterion_09_exact_counts():
    _check(acceptance.criterion_9)


def test_criterion_10_census():
    _check(acceptance.criterion_10)


def test_criterion_11_model_vs_counts():
    _check(acceptance.criterion_11)


def test_criterion_12_certificates():
    _check(acceptance.criterion_12)


def _stub_pass():
    return acceptance.CriterionResult(1, "stub that passes", True, "within tolerance")


def _stub_fail():
    return acceptance.CriterionResult(2, "stub that fails", False, "off by 1e-3")


def test_run_all_prints_each_criterion_and_the_tally(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [_stub_pass, _stub_fail])
    # run_all reads the clock before and after each criterion
    clock = iter([10.0, 11.5, 20.0, 20.25])
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    results = acceptance.run_all()
    assert [(r.index, r.passed, r.elapsed) for r in results] == [(1, True, 1.5), (2, False, 0.25)]
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] criterion  1 (stub that passes) [1.50s] within tolerance",
        "[FAIL] criterion  2 (stub that fails) [0.25s] off by 1e-3",
        "1/2 criteria passed",
    ]


def test_run_acceptance_script_fails_on_a_failed_criterion(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [_stub_pass, _stub_fail])
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_acceptance.py"
    spec = importlib.util.spec_from_file_location("run_acceptance", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 1
    assert capsys.readouterr().out.splitlines()[-1] == "1/2 criteria passed"
