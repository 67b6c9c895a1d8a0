import hashlib

import pytest
from hypothesis import given, strategies as st

from cubesquares.errors import VerificationError
from cubesquares.localsolve import (
    hensel_certificate,
    local_count_Mn,
    m33_set,
    mod27_square_sets,
    sigma_p,
    two_adic_profile,
    two_adic_valuation,
)
from cubesquares.expsums import coefficient_Sn
from cubesquares.params import primes_upto


def test_m33_sets():
    m27 = m33_set(3, 3)
    assert m27 == frozenset(t for t in range(27) if t % 9 not in (4, 5))
    assert len(m27) == 21
    assert m33_set(2, 3) == frozenset(range(8))


def test_m33_sets_match_brute_force():
    # T over every triple mod q is a sum of three cube residues, the first
    # from a unit; summing the pair set first keeps this under a second
    for p in primes_upto(343).tolist():
        h = 1
        while p**h <= 343:
            q = p**h
            cubes = {pow(x, 3, q) for x in range(q)}
            lead = {pow(x, 3, q) for x in range(q) if x % p}
            pairs = {(b + c) % q for b in cubes for c in cubes}
            assert m33_set(p, h) == {(a + s) % q for a in lead for s in pairs}, q
            h += 1


def test_mod27_square_classes():
    A, B, AB = mod27_square_sets()
    assert A == frozenset({0, 1, 4, 9, 10, 13, 19, 22})
    assert B == frozenset({1, 4, 10, 13, 19, 22})
    assert AB == frozenset(t for t in range(27) if t % 9 in (1, 2, 4, 5, 8))


def test_local_count_frozen():
    assert local_count_Mn(2, 8, 64) == 48413701182379602730811392
    assert local_count_Mn(2, 8, 64) >= 2**72  # positive-density floor at h=8


def test_orthogonality_small():
    for p, h in ((3, 2), (5, 1), (2, 3)):
        for n in range(8):
            lhs = sum(coefficient_Sn(p**l, n) for l in range(h + 1))
            rhs = local_count_Mn(p, h, n) / p ** (11 * h)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_sigma_p_converges():
    e = sigma_p(5, 1)
    assert e.converged
    assert e.value == pytest.approx(0.96, abs=1e-12)
    assert len(e.deltas) >= 1


def _witness_sum(witness, modulus):
    t = [witness[i] ** 3 + witness[i + 1] ** 3 + witness[i + 2] ** 3 for i in range(0, 12, 3)]
    return sum(x * x for x in t) % modulus


def test_certificates_odd_primes():
    for p in (5, 7, 11, 13):
        for n in range(p):
            cert = hensel_certificate(p, n)
            assert cert.condition_checked
            assert cert.modulus % p == 0
            assert _witness_sum(cert.witness, cert.modulus) == n % cert.modulus


def test_certificate_p3():
    for n in range(27):
        cert = hensel_certificate(3, n)
        assert cert.modulus == 27
        assert _witness_sum(cert.witness, 27) == n % 27
        assert cert.condition_checked


def test_certificate_p2():
    for n in (1, 5, 12, 48, 64, 96, 2**9):
        cert = hensel_certificate(2, n)
        assert cert.condition_checked
        assert _witness_sum(cert.witness, cert.modulus) == n % cert.modulus


def _certificate_cases():
    for p in primes_upto(97)[2:].tolist():
        for n in range(p):
            yield p, n
    for n in range(27):
        yield 3, n
    for n in range(1, 3000):
        yield 2, n


def test_certificate_witnesses_frozen():
    # digest of every witness the search produced before it read one cached
    # T-residue table per modulus; a change of search order changes it
    digest = hashlib.sha256()
    count = 0
    for p, n in _certificate_cases():
        cert = hensel_certificate(p, n)
        digest.update(f"{p},{n},{cert.modulus}:{','.join(map(str, cert.witness))};".encode())
        count += 1
    assert count == 4081
    assert digest.hexdigest() == "43e1b0ba79b2a473bc997d866993de92ed4e8250d69cbf6b3944ec6bbb81a374"


def test_certificate_json_shape():
    d = hensel_certificate(7, 3).as_json_dict()
    assert d["p"] == 7
    assert len(d["witness"]) == 12
    assert d["condition_checked"] is True


@given(st.integers(min_value=1, max_value=10**6))
def test_two_adic_profile_verifies(n):
    prof = two_adic_profile(n)
    assert prof.verify()
    assert prof.gamma == two_adic_valuation(n)
    assert prof.euler_floor > 0


def test_two_adic_tamper_detected():
    import dataclasses

    prof = two_adic_profile(48)
    tampered = dataclasses.replace(prof, n=prof.n + 1)
    with pytest.raises(VerificationError):
        tampered.verify()
