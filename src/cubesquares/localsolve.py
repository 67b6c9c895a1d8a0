"""Local solution counts, Euler factors, and p-adic solubility certificates.

M_n(p^h) counts 12-tuples x mod p^h (four triples) with
sum_i T(x_i)^2 = n (mod p^h), T(x) = x1^3 + x2^3 + x3^3.  The Euler factor
at p is the stable value of p^(-11 h) M_n(p^h).  Everything is exact
integer arithmetic until the final division.

Solubility certificates: for p >= 5 a single nonsingular solution mod p
(leading coordinate a unit, T(y_1) a unit) lifts to all powers, giving
M_n(p^h) >= p^(11 (h - 1)).  p = 3 needs the same argument mod 27, and
p = 2 routes through four squares with odd leading square, giving the
floor M_n(2^h) >= 2^(11 h - gamma - 16) when gamma = v_2(n) >= 3 and a
gamma-free floor 2^(-33) on the Euler factor otherwise.

The attainable T residues mod q, each with a first-found witness triple,
come from one cached search per modulus (`_t_witnesses`); `m33_set`, the
certificates for odd p and the 2-adic route all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import VerificationError
from .residues import cyclic_convolve, t_square_distribution

# -- exact counts ------------------------------------------------------------


@lru_cache(maxsize=256)
def _four_fold_square_distribution(q: int) -> tuple[int, ...]:
    d = t_square_distribution(q)
    dd = cyclic_convolve(d, d, q)
    return tuple(cyclic_convolve(dd, dd, q))


def local_count_Mn(p: int, h: int, n: int) -> int:
    """Exact M_n(p^h) via four-fold convolution of the T^2 distribution."""
    if h < 1:
        raise ValueError("h must be >= 1")
    q = p**h
    return _four_fold_square_distribution(q)[n % q]


@dataclass
class EulerFactorEstimate:
    """Normalized counts p^(-11 h) M_n(p^h) for h = 1..h_used."""

    p: int
    n: int
    values: list[float]
    converged: bool
    tol: float

    @property
    def value(self) -> float:
        return self.values[-1]

    @property
    def h_used(self) -> int:
        return len(self.values)

    @property
    def deltas(self) -> list[float]:
        return [abs(b - a) for a, b in zip(self.values, self.values[1:])]


def sigma_p(p: int, n: int, h_max: int = 3) -> EulerFactorEstimate:
    """Euler factor estimate: extend h until the normalized count stabilizes.

    Convergence means two consecutive levels agree within 1e-9 relatively;
    the Hensel floor guarantees this happens at bounded h, but we report
    `converged=False` honestly if h_max stops us first.
    """
    tol = 1e-9
    values: list[float] = []
    prev: Fraction | None = None
    converged = False
    for h in range(1, h_max + 1):
        cur = Fraction(local_count_Mn(p, h, n), p ** (11 * h))
        values.append(float(cur))
        if prev is not None and abs(cur - prev) <= tol * max(1, abs(cur)):
            converged = True
            prev = cur
            break
        prev = cur
    return EulerFactorEstimate(p=p, n=n, values=values, converged=converged, tol=tol)


# -- attainable T residues ---------------------------------------------------


@lru_cache(maxsize=64)
def _t_witnesses(q: int, unit_lead: bool) -> dict[int, tuple[int, int, int]]:
    """First-found (x1, x2, x3) mod q for every attainable T residue, in order found.

    x1 runs over the units mod q when `unit_lead` is set.  The search takes
    the first x per cube, then the first (x2, x3) per pair sum, and stops
    once every residue mod q has a witness.
    """
    cube: dict[int, int] = {}
    lead: dict[int, int] = {}
    for x in range(1, q + 1):
        c = pow(x, 3, q)
        cube.setdefault(c, x)
        if not unit_lead or math.gcd(x, q) == 1:
            lead.setdefault(c, x)
    pair: dict[int, tuple[int, int]] = {}
    for c2, x2 in cube.items():
        for c3, x3 in cube.items():
            pair.setdefault((c2 + c3) % q, (x2, x3))
    rep: dict[int, tuple[int, int, int]] = {}
    for c1, x1 in lead.items():
        for s, (x2, x3) in pair.items():
            rep.setdefault((c1 + s) % q, (x1, x2, x3))
        if len(rep) == q:
            break
    return rep


def m33_set(p: int, h: int) -> frozenset[int]:
    """Residues of T(x) mod p^h with x1 coprime to p (x2, x3 free)."""
    return frozenset(_t_witnesses(p**h, True))


# Frozen regression targets for the mod-27 square classes.  A collects the
# squares of attainable T residues, B the squares of those with T a unit;
# both recomputed from scratch and gated below.
_EXPECTED_M33_27 = frozenset(t for t in range(27) if t % 9 not in (4, 5))
_EXPECTED_A = frozenset({0, 1, 4, 9, 10, 13, 19, 22})
_EXPECTED_B = frozenset({1, 4, 10, 13, 19, 22})
_EXPECTED_AB = frozenset(t for t in range(27) if t % 9 in (1, 2, 4, 5, 8))


def mod27_square_sets() -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """(A, B, A+B) mod 27; raises VerificationError if the recomputation drifts."""
    m33 = m33_set(3, 3)
    A = frozenset((t * t) % 27 for t in m33)
    B = frozenset((t * t) % 27 for t in m33 if t % 3 != 0)
    AB = frozenset((a + b) % 27 for a in A for b in B)
    if m33 != _EXPECTED_M33_27:
        raise VerificationError(f"M33(27) drifted: {sorted(m33)}")
    if A != _EXPECTED_A or B != _EXPECTED_B or AB != _EXPECTED_AB:
        raise VerificationError("mod-27 square classes drifted")
    return A, B, AB


# -- solubility certificates -------------------------------------------------


@dataclass
class HenselCertificate:
    """A verified nonsingular solution mod `modulus` witnessing solubility.

    witness is the 12-tuple (y11, y12, y13, ..., y41, y42, y43);
    condition_checked records that the nonsingularity side conditions
    (unit leading coordinate, and for odd p a unit T(y_1)) were re-verified.
    """

    p: int
    n: int
    modulus: int
    witness: tuple[int, ...]
    condition_checked: bool

    def as_json_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "modulus": self.modulus,
            "witness": list(self.witness),
            "condition_checked": self.condition_checked,
        }


def _t_value(triple: tuple[int, int, int]) -> int:
    return triple[0] ** 3 + triple[1] ** 3 + triple[2] ** 3


@lru_cache(maxsize=64)
def _square_witnesses(q: int):
    """Witness triples by T^2 mod q, first found first: (unit-lead and unit-T
    squares, all squares, and a dict of square-pair sums)."""
    sq_unit: dict[int, tuple[int, int, int]] = {}
    for t, trip in _t_witnesses(q, True).items():
        if math.gcd(t, q) == 1:
            sq_unit.setdefault((t * t) % q, trip)
    sq_all: dict[int, tuple[int, int, int]] = {}
    for t, trip in _t_witnesses(q, False).items():
        sq_all.setdefault((t * t) % q, trip)
    pair_all: dict[int, tuple[tuple[int, int, int], tuple[int, int, int]]] = {}
    for s3, t3 in sq_all.items():
        for s4, t4 in sq_all.items():
            pair_all.setdefault((s3 + s4) % q, (t3, t4))
    return tuple(sq_unit.items()), tuple(sq_all.items()), pair_all


def hensel_certificate(p: int, n: int) -> HenselCertificate:
    """Search a witness mod p (mod 27 / mod 2^k for the small primes).

    The search space is tiny because only T-value classes matter: one
    starred slot (unit leading coordinate, unit T) and three free slots.
    """
    if p == 2:
        return _certificate_mod_power_of_two(n)
    q = 27 if p == 3 else p
    sq_unit, sq_all, pair_all = _square_witnesses(q)
    for s1, t1 in sq_unit:
        for s2, t2 in sq_all:
            rest = pair_all.get((n - s1 - s2) % q)
            if rest is not None:
                witness = (*t1, *t2, *rest[0], *rest[1])
                return HenselCertificate(
                    p=p, n=n, modulus=q, witness=witness,
                    condition_checked=_check_certificate(p, n, q, witness),
                )
    raise VerificationError(f"no nonsingular local solution found for p={p}, n={n}")


def _check_certificate(p: int, n: int, q: int, witness: tuple[int, ...]) -> bool:
    triples = [witness[i : i + 3] for i in range(0, 12, 3)]
    total = sum(_t_value(t) ** 2 for t in triples) % q
    if total != n % q:
        raise VerificationError("certificate does not solve the congruence")
    if witness[0] % p == 0:
        raise VerificationError("leading coordinate of first triple is not a unit")
    if p != 2 and _t_value(triples[0]) % p == 0:
        raise VerificationError("T of first triple is not a unit")
    return True


# -- the prime 2 -------------------------------------------------------------


@dataclass
class TwoAdicProfile:
    """2-adic data for n: gamma = v_2(n), theta = floor((gamma-1)/2) (0 if gamma=0).

    `witness` solves x1^2 + ... + x4^2 = n (mod 2^h) with x1 / 2^theta odd,
    found by descent: strip 2^(2 theta), solve the odd part mod 8, lift bit
    by bit adjusting the leading odd square.  `count_floor_log2` is the
    certified exponent: M_n(2^h) >= 2^(11 h - gamma - 16) for gamma >= 3,
    and the Euler factor obeys sigma_2 >= 2^(-33) for gamma <= 2.
    """

    n: int
    h: int
    gamma: int
    theta: int
    witness: tuple[int, int, int, int]
    euler_floor: float

    def verify(self) -> bool:
        q = 2**self.h
        if sum(x * x for x in self.witness) % q != self.n % q:
            raise VerificationError("2-adic witness does not solve the congruence")
        if (self.witness[0] >> self.theta) % 2 != 1:
            raise VerificationError("leading square is not exactly 2^(2 theta) * odd")
        return True


def two_adic_valuation(n: int) -> int:
    if n <= 0:
        raise ValueError("n must be positive")
    return (n & -n).bit_length() - 1


def two_adic_profile(n: int) -> TwoAdicProfile:
    gamma = two_adic_valuation(n)
    theta = 0 if gamma == 0 else (gamma - 1) // 2
    h = max(gamma + 2, 3)
    m = n >> (2 * theta)
    j0 = h - 2 * theta
    # odd part mod 8: x1 odd contributes 1; squares are {0,1,4} mod 8
    base = None
    for x1 in (1, 3, 5, 7):
        for rest in _three_squares_mod8(m - x1 * x1):
            base = (x1, *rest)
            break
        if base:
            break
    if base is None:
        raise VerificationError(f"no odd-leading four-square solution mod 8 for {m % 8}")
    y = list(base)
    for j in range(3, j0):
        total = sum(v * v for v in y)
        if ((total - m) >> j) & 1:
            # bumping the odd coordinate by 2^(j-1) flips bit j exactly (j >= 3)
            y[0] += 1 << (j - 1)
    witness = tuple((v << theta) % (1 << h) for v in y)
    euler_floor = 2.0 ** (-gamma - 16) if gamma >= 3 else 2.0**-33
    prof = TwoAdicProfile(n=n, h=h, gamma=gamma, theta=theta, witness=witness, euler_floor=euler_floor)
    prof.verify()
    return prof


def _three_squares_mod8(target: int):
    for a in range(8):
        for b in range(8):
            for c in range(8):
                if (a * a + b * b + c * c - target) % 8 == 0:
                    yield (a, b, c)


def _certificate_mod_power_of_two(n: int) -> HenselCertificate:
    """Route the p=2 certificate through the square witness: every T residue
    mod 2^h is attainable with odd leading coordinate (cubing permutes the
    odd residues and y2^3 + y3^3 takes both parities), so convert each
    square root of the four-square witness into a cube triple."""
    prof = two_adic_profile(n)
    q = 2**prof.h
    rep = _t_witnesses(q, True)
    triples = [rep[x % q] for x in prof.witness]
    witness = tuple(v for t in triples for v in t)
    cert = HenselCertificate(p=2, n=n, modulus=q, witness=witness, condition_checked=False)
    cert.condition_checked = _check_certificate(2, n, q, witness)
    return cert
