import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cubesquares import expsums
from cubesquares.errors import VerificationError
from cubesquares.expsums import (
    _sn_row,
    batch_is_exact,
    complete_sum_S,
    complete_sum_S_batch,
    coefficient_Sn,
    coprime_residues,
    gauss_sum_S2,
    phase_sum,
    truncated_singular_series,
)
from cubesquares.params import primes_upto
from cubesquares.residues import t_square_distribution
from cubesquares.w2 import factorize


def test_S_small_values():
    assert abs(complete_sum_S(1, 0) - 1.0) < 1e-12
    assert abs(complete_sum_S(2, 1)) < 1e-9  # cancels exactly


@given(st.integers(min_value=1, max_value=30))
def test_batch_matches_single(q):
    batch = complete_sum_S_batch(q)
    for a in range(q):
        assert abs(batch[a] - complete_sum_S(q, a)) < 1e-9 * q**3


def test_batch_guard():
    with pytest.raises(ValueError):
        complete_sum_S_batch(2**18)
    # 208063^3 < 2^53 <= 208064^3: the one bound the batch and the CLI's --sqa and --Q read
    assert batch_is_exact(208_063) and not batch_is_exact(208_064) and not batch_is_exact(0)


def test_S_brute_force_oracle():
    for q in (9, 12, 25):
        dist = t_square_distribution(q)
        for a in (1, q - 1):
            brute = sum(c * cmath.exp(2j * math.pi * a * m / q) for m, c in enumerate(dist))
            assert abs(complete_sum_S(q, a) - brute) < 1e-9 * q**3


def test_gauss_sum_modulus():
    assert abs(abs(gauss_sum_S2(7, 3)) - math.sqrt(7)) < 1e-12
    for p in (3, 5, 11, 13, 31):
        for a in range(1, p):
            assert abs(abs(gauss_sum_S2(p, a)) - math.sqrt(p)) < 1e-10


def test_coprime_residues():
    assert list(coprime_residues(1)) == [0]
    assert list(coprime_residues(6)) == [1, 5]
    assert len(coprime_residues(30)) == 8


def test_Sn_frozen_values():
    assert coefficient_Sn(1, 36) == pytest.approx(1.0, abs=1e-12)
    assert coefficient_Sn(4, 36) == pytest.approx(-0.5, abs=1e-9)


def test_Sn_multiplicative():
    for q1, q2 in ((2, 3), (4, 9), (5, 8), (7, 9)):
        for n in (0, 5, 36, 64):
            lhs = coefficient_Sn(q1 * q2, n)
            rhs = coefficient_Sn(q1, n) * coefficient_Sn(q2, n)
            assert lhs == pytest.approx(rhs, abs=1e-10)


# The per-(q, n) sum over a that the row's DFT replaced, kept as the oracle.
def _coefficient_Sn_direct(q, n):
    a = coprime_residues(q)
    w4 = (complete_sum_S_batch(q)[a] / float(q) ** 3) ** 4
    phases = np.exp(-2j * np.pi * ((n % q) * a % q) / q)
    return complex(np.sum(w4 * phases)).real


def test_Sn_row_matches_direct_sum():
    worst = max(
        abs(coefficient_Sn(q, n) - _coefficient_Sn_direct(q, n))
        for q in range(1, 201)
        for n in (0, 36, 64, 1001, 193710244)
    )
    assert worst <= 2e-16  # measured 5.6e-17, at q = 7 and n = 36


def test_Sn_row_refuses_planted_imaginary_part(monkeypatch):
    # only a = 1 weighs: the row is e(-n / 7), real at n = 0 and not at n = 1
    planted = np.zeros(7, dtype=np.complex128)
    planted[1] = 7.0**3
    monkeypatch.setattr(expsums, "complete_sum_S_batch", lambda q: planted)
    _sn_row.cache_clear()
    try:
        with pytest.raises(VerificationError, match=r"Sn\(7\) is not near-real at n=1:"):
            coefficient_Sn(7, 0)
    finally:
        _sn_row.cache_clear()


def test_series_frozen_values():
    assert truncated_singular_series(36, 64).value == pytest.approx(0.7124479513717952, rel=1e-12)
    assert truncated_singular_series(64, 64).value == pytest.approx(0.09480776667200626, rel=1e-12)


def test_series_tail_blocks():
    tr = truncated_singular_series(36, 64)
    assert set(tr.tails) == {8, 16, 32}
    assert tr.terms.shape == (65,)
    # value equals the sum of per-q terms
    assert tr.value == pytest.approx(float(tr.terms[1:].sum()), abs=1e-12)


def test_series_requires_positive_Q():
    with pytest.raises(ValueError):
        truncated_singular_series(5, 0)


@pytest.mark.parametrize("n", [0, 36, 64, 1001, 193710244])
def test_series_terms_match_direct_Sn(n):
    # the series multiplies prime-power terms; coefficient_Sn reads q's own row
    terms = truncated_singular_series(n, 1024).terms
    worst = max(abs(terms[q] - coefficient_Sn(q, n)) for q in range(1, 1025))
    assert worst <= 1e-14


# The per-element loops that the array passes replaced, kept as the oracle.
def _phase_sum_loop(residues, weights, q):
    re, im = [], []
    for r, c in zip(residues, weights):
        if c:
            theta = 2.0 * math.pi * (r / q)
            re.append(c * math.cos(theta))
            im.append(c * math.sin(theta))
    return complex(math.fsum(re), math.fsum(im))


def _series_terms_loop(n, Q):
    sn = {}
    terms = np.zeros(Q + 1, dtype=np.float64)
    for q in range(1, Q + 1):
        factors = factorize(q)
        if len(factors) == 1:
            sn[q] = coefficient_Sn(q, n)
        terms[q] = math.prod(sn[p**k] for p, k in factors)
    return terms


def test_gauss_sums_match_loop():
    for p in primes_upto(997)[1:].tolist():
        for a in (1, 2, 3, p - 2, p - 1):
            want = _phase_sum_loop(((a * x * x) % p for x in range(p)), [1] * p, p)
            assert gauss_sum_S2(p, a) == want, (p, a)


def test_complete_sums_match_loop():
    for q in range(1, 61):
        dist = t_square_distribution(q).tolist()
        for a in range(q):
            assert complete_sum_S(q, a) == _phase_sum_loop(((a * m) % q for m in range(q)), dist, q), (q, a)


def test_phase_sum_matches_loop_in_any_order():
    rng = np.random.default_rng(5)
    q = 10**6 + 3
    r = rng.integers(0, q, size=1000)
    # weights over 52 binary orders, so a sum rounded term by term would lose bits
    c = rng.choice(np.array([0, 1, 3, 10**9, 2**52 + 1]), size=1000)
    whole = phase_sum(r, c, q)
    assert whole == _phase_sum_loop(r.tolist(), c.tolist(), q)
    order = rng.permutation(r.size)
    assert phase_sum(r[order], c[order], q) == whole


@pytest.mark.parametrize("n", [0, 36, 1001])
def test_series_terms_match_loop(n):
    tr = truncated_singular_series(n, 1024)
    want = _series_terms_loop(n, 1024)
    assert tr.terms.tobytes() == want.tobytes()
    assert tr.value == math.fsum(want[1:].tolist())
