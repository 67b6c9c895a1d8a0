"""Acceptance gate: every criterion must pass at its stated tolerance.

Each test prints the one-line verdict so the pytest -v log doubles as the
acceptance report.
"""

import pytest

from cubesquares import acceptance


def _check(fn):
    res = fn()
    tag = "PASS" if res.passed else "FAIL"
    print(f"[{tag}] criterion {res.index:2d} ({res.name}) [{res.elapsed:.2f}s] {res.detail}")
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
