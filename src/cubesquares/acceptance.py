"""Acceptance criteria for the package: 12 checks, each printing pass/fail.

Each criterion is a function returning a CriterionResult.  run_all executes
them in order and prints one line per criterion.  Tolerances and scales are
fixed here; they are the contract this package is tested against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .census import run_census, brute_force_representable, witness_for, verify_obstruction_family
from .expsums import (
    complete_sum_S,
    complete_sum_S_batch,
    gauss_sum_S2,
    coefficient_Sn,
    truncated_singular_series,
)
from .generating import eval_h, model_V
from .localsolve import mod27_square_sets, m33_set, local_count_Mn, hensel_certificate
from .mainterm import RnEvaluator, rn_dense_dft
from .oscillatory import osc_integral_v, v_at_zero
from .params import derive_params, primes_upto
from .residues import t_square_distribution
from .scale import Scale
from .w2 import six_full_upto, w2_carrier, w2_scan
from .weights import WeightTable


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(index: int, name: str, passed: bool, detail: str, t0: float) -> CriterionResult:
    return CriterionResult(index, name, passed, detail, time.time() - t0)


def criterion_1() -> CriterionResult:
    # Residue sets mod 27 and mod 8 match their frozen definitions.
    t0 = time.time()
    try:
        A, B, AB = mod27_square_sets()
        m27 = m33_set(3, 3)
        m8 = m33_set(2, 3)
        ok = len(m27) == 21 and m8 == frozenset(range(8)) and len(A) == 8 and len(B) == 6 and len(AB) == 15
        detail = f"|M33(27)|={len(m27)} |M33(8)|={len(m8)} |A|={len(A)} |B|={len(B)} |A+B|={len(AB)}"
    except Exception as exc:  # pragma: no cover - only on regression
        ok, detail = False, f"verification raised: {exc}"
    return _result(1, "residue sets mod 27/8", ok, detail, t0)


def criterion_2() -> CriterionResult:
    # Complete sums S(q, a): batch DFT evaluation vs direct brute force,
    # every q <= 40 and every residue a, absolute error < 1e-6 * q^3.
    t0 = time.time()
    worst = 0.0
    for q in range(1, 41):
        dist = t_square_distribution(q)
        batch = complete_sum_S_batch(q)
        for a in range(q):
            brute = sum(
                dist[m] * complex(math.cos(2 * math.pi * a * m / q), math.sin(2 * math.pi * a * m / q))
                for m in range(q)
            )
            err = abs(batch[a] - brute) / q**3
            worst = max(worst, err)
            single = complete_sum_S(q, a)
            worst = max(worst, abs(single - brute) / q**3)
    ok = worst < 1e-6
    return _result(2, "complete sums S(q,a) vs brute force", ok, f"worst rel err {worst:.2e} over q<=40", t0)


def criterion_3() -> CriterionResult:
    # Orthogonality: sum of Sn(p^l) for l = 0..h equals p^(-11h) * M_n(p^h).
    t0 = time.time()
    worst = 0.0
    cases = 0
    for p, hmax in ((2, 3), (3, 3), (5, 3), (7, 3)):
        for h in range(1, hmax + 1):
            q = p**h
            for n in range(0, 20):
                lhs = sum(coefficient_Sn(p**l, n) for l in range(h + 1))
                rhs = local_count_Mn(p, h, n) / p ** (11 * h)
                err = abs(lhs - rhs) / max(1.0, abs(rhs))
                worst = max(worst, err)
                cases += 1
    ok = worst < 1e-6
    return _result(3, "orthogonality Sn vs local counts", ok, f"worst rel err {worst:.2e} over {cases} cases", t0)


def criterion_4() -> CriterionResult:
    # Multiplicativity: Sn(q1 q2) = Sn(q1) Sn(q2) for coprime pairs, and the
    # w2 carrier is exactly multiplicative on coprime pairs.
    t0 = time.time()
    worst = 0.0
    pairs = 0
    for q1 in range(1, 31):
        for q2 in range(q1, 31):
            if math.gcd(q1, q2) != 1:
                continue
            if pairs >= 100:
                break
            for n in (0, 5, 36):
                lhs = coefficient_Sn(q1 * q2, n)
                rhs = coefficient_Sn(q1, n) * coefficient_Sn(q2, n)
                worst = max(worst, abs(lhs - rhs))
            pairs += 1
    carrier_ok = True
    checked = 0
    for q1 in range(1, 200):
        for q2 in range(q1, 200):
            if checked >= 1000:
                break
            if math.gcd(q1, q2) != 1:
                continue
            if w2_carrier(q1 * q2) != w2_carrier(q1) * w2_carrier(q2):
                carrier_ok = False
            checked += 1
    ok = worst < 1e-9 and carrier_ok
    return _result(
        4,
        "multiplicativity of Sn and w2 carrier",
        ok,
        f"worst |Sn| err {worst:.2e} over {pairs} pairs; carrier exact on {checked} pairs: {carrier_ok}",
        t0,
    )


def criterion_5() -> CriterionResult:
    # Weight majorant: carrier(q) >= q for all q <= 1e5 (so w2(q) <= q^(-1/6)),
    # equality exactly at 6-full q, and decade sums of w2^2 grow slowly.
    t0 = time.time()
    w2sq, majorant_ok, equality = w2_scan(100_000)
    eq_ok = equality == six_full_upto(100_000)
    decade_sums = [float(w2sq[1 : Q + 1].sum()) for Q in (100, 1000, 10_000, 100_000)]
    ratios = [cur / prev for prev, cur in zip(decade_sums, decade_sums[1:])]
    ratio_ok = all(r <= 1.8 for r in ratios)
    ok = majorant_ok and eq_ok and ratio_ok
    detail = f"majorant {majorant_ok}; equality at {len(equality)} 6-full q: {eq_ok}; decade ratios {[f'{r:.3f}' for r in ratios]}"
    return _result(5, "w2 majorant, equality set, tail decay", ok, detail, t0)


def criterion_6() -> CriterionResult:
    # Gauss sums: |S2(p, a)| = sqrt(p) for odd primes p and units a.
    t0 = time.time()
    worst = 0.0
    primes = primes_upto(997)[1:].tolist()
    for p in primes:
        for a in (1, 2, 3, p - 2, p - 1):
            a %= p
            if a == 0:
                continue
            worst = max(worst, abs(abs(gauss_sum_S2(p, a)) - math.sqrt(p)))
    ok = worst < 1e-6
    return _result(6, "Gauss sum modulus sqrt(p)", ok, f"worst err {worst:.2e} over {len(primes)} odd primes", t0)


def criterion_7() -> CriterionResult:
    # Singular series truncation: the dyadic tail past 512 is strictly
    # smaller than 0.7x the tail past 64, for several n.
    t0 = time.time()
    ok = True
    details = []
    for n in (36, 64, 1001):
        tr = truncated_singular_series(n, 1024)
        tail_64, tail_512 = tr.tail(64), tr.tail(512)
        good = tail_512 < 0.7 * tail_64 if tail_64 > 0 else True
        ok = ok and good
        details.append(f"n={n}: S={tr.value:.6f} tail64={tail_64:.2e} tail512={tail_512:.2e}")
    return _result(7, "singular series dyadic tail decay", ok, "; ".join(details), t0)


def criterion_8() -> CriterionResult:
    # Oscillatory integral v(beta): value at 0 equals P^3/2 to 1e-6 relative,
    # and the two independent quadrature routes agree to 1e-4 relative on a
    # grid of beta with |beta| * n <= 10.
    t0 = time.time()
    ok = True
    details = []
    for P in (4, 8, 16):
        pp = derive_params(P**6)
        v0 = osc_integral_v(0.0, pp, method="kernel1d")
        rel0 = abs(v0 - v_at_zero(pp)) / v_at_zero(pp)
        ok = ok and rel0 < 1e-6
        worst = 0.0
        for k in range(1, 6):
            beta = 2 * k / pp.N
            a = osc_integral_v(beta, pp, method="kernel1d")
            b = osc_integral_v(beta, pp, method="cubature3d")
            denom = max(abs(a), abs(b), v_at_zero(pp) * 1e-9)
            worst = max(worst, abs(a - b) / denom)
        ok = ok and worst < 1e-4
        details.append(f"P={P}: v(0) rel {rel0:.1e}, route agreement {worst:.1e}")
    return _result(8, "oscillatory integral two-route agreement", ok, "; ".join(details), t0)


def criterion_9() -> CriterionResult:
    # Exact representation counts: the sparse evaluator and the dense DFT
    # agree exactly on the toy system, including the hand-checked value.
    t0 = time.time()
    ta = WeightTable("a", (3,), (1,))
    tb = WeightTable("b", (3,), (1,))
    ev = RnEvaluator(ta, tb, [2])
    dense = rn_dense_dft(ta, tb, [2])
    mism = sum(1 for n in range(ev.max_n + 1) if ev(n) != dense[n])
    # Hand example: with a = b = {3: 1} and prime 2, the only weighted
    # decomposition of 1170 is 576 + 576 + 9 + 9, so R(1170) = 1.
    hand_ok = ev(1170) == 1 and ev(663_570) == 0
    ok = mism == 0 and hand_ok
    return _result(9, "exact counts: sparse vs dense DFT", ok, f"mismatches {mism}; R(1170)={ev(1170)}", t0)


def criterion_10() -> CriterionResult:
    # Census: bitset pipeline matches brute force to 1e4; at 1e5 the
    # documented exceptional structure holds and the obstruction family
    # verifies through j = 3.
    t0 = time.time()
    c_small = run_census(10_000)
    brute = brute_force_representable(10_000)
    agree = bool(np.array_equal(c_small.representable, brute))
    c = run_census(100_000)
    in_e = bool(c.exceptional[64])
    small_ok = all(not c.representable[n] for n in range(36))
    wit = witness_for(c, 36)
    wit_ok = wit == (3, 3, 3, 3)
    fam_ok = all(verify_obstruction_family(j) for j in range(4))
    ok = agree and in_e and small_ok and wit_ok and fam_ok
    detail = (
        f"bitset==brute@1e4: {agree}; 64 exceptional: {in_e}; n<36 all exceptional: {small_ok}; "
        f"witness(36)={wit}; family j<=3: {fam_ok}; |E(1e5)|={c.E_count}"
    )
    return _result(10, "census vs brute force and obstructions", ok, detail, t0)


def criterion_11() -> CriterionResult:
    # Generating function vs model at the central point, and window mass of
    # exact counts vs the predicted density at a calibrated scale.
    #
    # Part 1: at P = 1e4 the bulk generating function at alpha = 0 equals the
    # model V(0; 1, 0) exactly (both count the same lattice points).
    #
    # Part 2: P = 16 is degenerate (the thin leading interval contains no
    # integer), so the window-mass comparison runs at P = 27, the smallest
    # scale where the thin interval has near-unit length and the prime
    # window holds two primes.  Exact sum of R(n) over [N/2, N] must lie
    # within a factor of 10 of |window| * mean(S(n) * J(n)) sampled on a
    # deterministic stride.
    t0 = time.time()
    big = Scale(10_000**6)
    h0 = eval_h(Fraction(0), big.table_a).real
    v0 = model_V(0.0, 1, 0, big.params, big.c_bulk)
    ratio1 = h0 / abs(v0)
    part1 = 0.99 <= ratio1 <= 1.01

    pp16 = derive_params(16**6)
    degenerate16 = len(list(pp16.leading_range_thin())) == 0

    scale = Scale(27**6)
    lo, hi = scale.N // 2, scale.N
    mass = scale.rn.window_mass(lo, hi)
    pred_mass = scale.predicted_window_mass(lo, hi, samples=32, Q=64)
    ratio2 = mass / pred_mass if pred_mass > 0 else float("inf")
    part2 = pred_mass > 0 and 0.1 <= ratio2 <= 10.0
    ok = part1 and degenerate16 and part2
    detail = (
        f"h(0)/V(0)={ratio1:.6f}; P=16 thin interval empty: {degenerate16}; "
        f"window mass {mass} vs predicted {pred_mass:.1f}, ratio {ratio2:.3f}"
    )
    return _result(11, "generating function vs model, window mass", ok, detail, t0)


def criterion_12() -> CriterionResult:
    # Lifting certificates: for every prime p in 5..97 and every residue n
    # mod p, a verified witness certificate exists.
    t0 = time.time()
    primes = primes_upto(97)[2:].tolist()
    count = 0
    for p in primes:
        for n in range(p):
            cert = hensel_certificate(p, n)
            if not cert.condition_checked:
                return _result(12, "lifting certificates p in 5..97", False, f"unchecked at p={p}, n={n}", t0)
            count += 1
    return _result(12, "lifting certificates p in 5..97", True, f"{count} certificates verified", t0)


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
]


def run_all(verbose: bool = True) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        if verbose:
            tag = "PASS" if res.passed else "FAIL"
            print(f"[{tag}] criterion {res.index:2d} ({res.name}) [{res.elapsed:.1f}s] {res.detail}")
    if verbose:
        n_pass = sum(r.passed for r in results)
        print(f"{n_pass}/{len(results)} criteria passed")
    return results
