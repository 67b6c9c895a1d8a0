import hashlib

import pytest
from hypothesis import given, strategies as st

from cubesquares.cubesieve import BUDGET_ENV
from cubesquares.errors import CapacityError, VerificationError
from cubesquares.localsolve import (
    _default_depth,
    _t_witness_mod_power_of_two,
    _t_witnesses,
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
from cubesquares.residues import distribution_bytes


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


@pytest.mark.parametrize("n", [10**30 + 1, -(10**30 + 1)])
@pytest.mark.parametrize("p, h", [(2, 3), (5, 2)])
def test_local_count_takes_n_past_int64(p, h, n):
    assert local_count_Mn(p, h, n) == local_count_Mn(p, h, n % p**h)


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


def test_default_depth_follows_the_valuation():
    assert [_default_depth(2, n) for n in (1, 4, 8, 32, 2**13 * 15625)] == [4, 6, 7, 9, 17]
    assert _default_depth(2, 2**30) == 20  # 2^20 is the last power of 2 below 2^21
    assert [_default_depth(3, n) for n in (1, 9, 27)] == [4, 6, 7]
    assert _default_depth(97, 97**5) == 3  # 97^4 >= 2^21
    assert _default_depth(2, 0) == _default_depth(97, 0) == 3


@pytest.mark.parametrize(("p", "n"), [(2, 8), (2, 32), (2, 125_000), (2, 500_000), (3, 9), (3, 27)])
def test_sigma_p_converges_by_default_when_p_divides_n(p, n):
    # depth 3 stopped each of these unconverged
    assert not sigma_p(p, n, h_max=3).converged
    assert sigma_p(p, n).converged


@pytest.mark.parametrize(("v", "want"), [(2, 0.89), (3, 0.38), (5, 0.16), (10, 0.033), (12, 0.012)])
def test_sigma_2_falls_with_the_two_adic_valuation(v, want):
    e = sigma_p(2, 2**v * 15625)
    assert e.converged and e.h_used <= v + 4
    assert e.value == pytest.approx(want, rel=0.015)


def test_sigma_p_reserves_only_levels_it_may_reach(monkeypatch):
    # 5 does not divide 6: levels 1 and 2 agree, so level 5^10 (~6 GB) is never reserved
    e = sigma_p(5, 1, h_max=10)
    assert e.converged and e.h_used == 2
    # 3 divides 6n: the levels go on, and level 3^10 is reserved before level 3 runs
    monkeypatch.setenv(BUDGET_ENV, str(distribution_bytes(3**10, 6) - 1))
    with pytest.raises(CapacityError, match=r"mod 3\^10"):
        sigma_p(3, 0, h_max=10)


def test_sigma_p_refuses_a_deepest_level_past_int64():
    # 3^14 >= 2^21 fits the default budget, but T's counts mod 3^14 would pass int64
    with pytest.raises(CapacityError, match=r"mod 3\^14: .*2\^21"):
        sigma_p(3, 0, h_max=14)


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


@pytest.mark.parametrize("h", range(3, 13))
def test_two_adic_witness_lookup_matches_table(h):
    table = _t_witnesses(2**h, True)
    assert [_t_witness_mod_power_of_two(t, h) for t in range(2**h)] == [table[t] for t in range(2**h)]


def test_certificate_p2_large_valuation():
    # h = v_2(n) + 2 = 22: the witness table mod 2^22 would have 2^22 residues
    cert = hensel_certificate(2, 2**20)
    assert cert.modulus == 2**22 and cert.condition_checked
    assert _witness_sum(cert.witness, cert.modulus) == 2**20


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
