"""Residue-count distributions mod q and exact cyclic convolution.

The complete exponential sums and local solution counts all reduce to
counting vectors D[t] = #{x mod q : f(x) = t}, f a cube, a sum of cubes,
or a square of such; sums of independent coordinates convolve them
cyclically.  Each is a numpy int64 array (T's counts sum to q^3 < 2^63
for q < 2^21), read-only once cached.  `cyclic_convolve` has one exact
route, a float64 FFT product split into limbs: each input is cut into
w-bit limbs, each limb takes one real FFT of a 5-smooth length L >= 2q - 1,
the limb products of each degree k are summed and inverted once, and the
rounded coefficients are folded mod q and added in at shift w k.
Percival's bound on the FFT's rounding error (Math. Comp. 72 (2003)
387-395) sets w so that no coefficient can be off by 1/4, and every call
measures how far its coefficients lie from integers.  The schoolbook
O(q^2) and big-integer oracles are in tests/test_residues.py.
`distribution_bytes` estimates the work, linear in q, and is reserved
before a distribution is built.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft

from .cubesieve import reserve
from .errors import CapacityError, VerificationError

MAX_MODULUS = 2**21  # the least q with q^3 >= 2^63


def cube_residue_counts(q: int) -> np.ndarray:
    """D[t] = #{x in [0, q) : x^3 = t (mod q)}; sums to q."""
    if q < 1 or q * q >= 2**63:
        raise ValueError("q must satisfy 1 <= q and q^2 < 2^63")
    # x * x and ((x * x) % q) * x stay below q^2 < 2^63, so int64 is exact
    x = np.arange(q, dtype=np.int64)
    t = ((x * x) % q * x) % q
    return np.bincount(t, minlength=q)


def square_pushforward(counts: np.ndarray, q: int) -> np.ndarray:
    """Push a distribution through t -> t^2 (mod q); one exact int64 scatter."""
    t = np.arange(q, dtype=np.int64)
    out = np.zeros(q, dtype=np.int64)
    np.add.at(out, t * t % q, counts)
    return out


def _fft_length(n: int) -> int:
    """The least 5-smooth integer >= n: numpy's FFT takes it in radix 2, 3, 4 and 5 passes."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:
        m = odd
        while m < best:
            if (c := m << ((n - 1) // m).bit_length()) < best:  # the least m 2^e >= n
                best = c
            m *= 3
        odd *= 5
    return best


def _rounding_bound(L: int, terms: int) -> float:
    """Percival's bound on |computed - exact| per coefficient of a length-L FFT product, per unit of |x|_2 |y|_2.

    (1 + e)^(3n) (1 + e sqrt 5)^(3n + 1) (1 + e)^(3n) - 1, with e = 2^-53,
    n = ceil(log2 L) and roots of unity within e of exact (Percival, Math.
    Comp. 72 (2003) 387-395; Brent and Zimmermann, Modern Computer
    Arithmetic, 3.3.2).  Summing `terms` products before the inverse
    transform adds a factor (1 + e)^(terms - 1).  The theorem counts the
    n passes of a radix-2 transform; numpy's radix-3 and -5 passes are not
    covered by it, which is one reason every product is also checked.
    """
    n = (L - 1).bit_length()
    e = 2.0**-53
    return math.expm1((6 * n + terms - 1) * math.log1p(e) + (3 * n + 1) * math.log1p(e * math.sqrt(5)))


def _limb_bits(L: int, a: tuple[float, float, int], b: tuple[float, float, int]) -> int:
    """The widest limb w for which Percival's bound keeps each coefficient of a length-L product within 1/4.

    Each input is given by a bound on its 2-norm, the square root of its
    count of nonzero entries, and the bit length of its largest entry.
    Limb i of a vector lies below both the vector / 2^(w i) and 2^w, entry
    by entry, which bounds its 2-norm without splitting the vector; the
    products of degree k sum to at most min(limbs of a, limbs of b) terms.
    """
    for w in range(max(a[2], b[2]), 1, -1):
        x, y = ([min(norm / 2.0 ** (w * i), (2.0**w - 1) * root) for i in range(-(-bits // w))]
                for norm, root, bits in (a, b))
        degrees = [sum(x[i] * y[k - i] for i in range(len(x)) if 0 <= k - i < len(y))
                   for k in range(len(x) + len(y) - 1)]
        if _rounding_bound(L, min(len(x), len(y))) * max(degrees) < 0.25:
            return w
    return 1


def _limb_stats(v: np.ndarray) -> tuple[float, float, int]:
    """`_limb_bits`' description of v; the float sum of squares is within q 2^-53 of exact, and 2^-20 covers that."""
    f = v.astype(np.float64)
    return math.sqrt(float(f @ f)) * (1 + 2.0**-20), math.sqrt(np.count_nonzero(v)), int(v.max()).bit_length()


def _python_ints(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The object array of hi 2^64 + lo, built once from the two uint64 words.

    A function of its own: tracemalloc looks up the calling line for each
    int, which costs more deep in a long function.
    """
    out = hi.astype(object)
    out <<= 64
    out += lo
    return out


def cyclic_convolve(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact cyclic convolution of non-negative int64 vectors, by a limb-split float64 FFT.

    Each vector must sum below 2^63.  Each is cut into w-bit limbs (w from
    `_limb_bits`), and each limb takes one real FFT of length L >= 2q - 1,
    computed when its first product needs it and freed after its last.
    The products of degree k are summed, inverted once and rounded; a
    coefficient further than 1/4 from an integer, or past 2^52, raises
    VerificationError.  The rounded coefficients are folded mod q and
    added in at shift w k to the result's two 64-bit words, which give
    int64 while total(a) * total(b) < 2^63, else an object array of Python
    ints.  A vector convolved with itself is transformed once.
    """
    if a.shape != (q,) or b.shape != (q,) or a.min() < 0 or b.min() < 0:
        raise ValueError("inputs must be non-negative and of length q")
    total = int(a.sum()) * int(b.sum())
    if total == 0:
        return np.zeros(q, dtype=np.int64)
    L = _fft_length(2 * q - 1)
    stats = (_limb_stats(a),) * 2 if b is a else (_limb_stats(a), _limb_stats(b))
    w = _limb_bits(L, *stats)
    na, nb = (-(-bits // w) for _, _, bits in stats)

    def spectrum(v: np.ndarray, i: int, n: int) -> np.ndarray:
        limb = v >> w * i if i else v
        return rfft(limb if i == n - 1 else limb & (1 << w) - 1, L)

    lo = np.zeros(q, dtype=np.uint64)  # the result mod 2^64
    hi = np.zeros(q, dtype=np.uint64)  # and the rest; below 2^62, as each total is below 2^63
    fa: dict[int, np.ndarray] = {}
    fb = fa if b is a else {}
    for k in range(na + nb - 1):
        if k < na:
            fa[k] = spectrum(a, k, na)
        if k < nb and fb is not fa:
            fb[k] = spectrum(b, k, nb)
        first, last = max(0, k - nb + 1), min(k, na - 1)
        acc = fa[first] * fb[k - first]
        for i in range(first + 1, last + 1):
            acc += fa[i] * fb[k - i]
        fa.pop(k - nb + 1, None)  # limb k - nb + 1 of a, and k - na + 1 of b, meet no later degree
        fb.pop(k - na + 1, None)
        x = irfft(acc, L)
        del acc
        r = np.rint(x)
        x -= r
        err = float(np.abs(x, out=x).max())
        del x
        top = max(r.max(), -r.min())
        if err > 0.25 or top >= 2**52:  # the bound keeps |r| below 2^50; past 2^52 float64 holds no fractions
            raise VerificationError(
                f"FFT product mod {q}, degree {k}: coefficients up to {top:.3g} lie up to {err:.3g} from integers")
        # fold the 2q - 1 coefficients mod q; each sum is an integer within the bound, so float64 holds it
        r[: q - 1] += r[q : 2 * q - 1]
        part = r[:q].astype(np.uint64)
        del r
        shift = w * k
        if shift < 64:
            low = part << shift
            lo += low
            hi += lo < low  # the carry out of the low word
            del low
            if shift:
                hi += part >> 64 - shift
        else:
            hi += part << shift - 64
        del part
    return lo.view(np.int64) if total < 2**63 else _python_ints(lo, hi)


def distribution_bytes(q: int, power: int) -> int:
    """Upper bound on the bytes held while distributions mod q are convolved up to totals q^power.

    The widest convolution multiplies vectors of totals q^ceil(power/2) and
    q^floor(power/2), a square when power is even (T is power 3, the
    two-fold T^2 table power 6).  Its limbs are those `_limb_bits` gives
    the worst vectors of those totals, never fewer than the real ones.
    Throughout, the two inputs and the result's two 64-bit words hold 32
    bytes per residue.  Then the larger of two phases: the limb transforms
    live at once (every limb of a square, twice the smaller count for a
    product) with the degree sum and one product, 8 L bytes each; or, past
    2^63, the Python ints built at the end, at most 56 bytes each, for the
    result and for the one block of at most 2^13 that numpy casts at a time.
    """
    L = _fft_length(2 * q - 1)
    tops = (q ** (power - power // 2), q ** (power // 2))
    w = _limb_bits(L, *((t, math.sqrt(q), t.bit_length()) for t in tops))
    na, nb = (-(-t.bit_length() // w) for t in tops)
    transforms = 8 * L * ((na if power % 2 == 0 else 2 * min(na, nb)) + 2)
    ints = 56 * (q + min(q, 2**13)) if q**power >= 2**63 else 0
    return 32 * q + max(transforms, ints) + 2**13


def reserve_distribution(q: int, power: int, what: str) -> None:
    """Refuse a distribution mod q of totals q^power past the budget, or with q >= 2^21, before allocating."""
    reserve(distribution_bytes(q, power), what)
    if q >= MAX_MODULUS:
        raise CapacityError(f"{what}: T's counts pass int64 for q >= 2^21")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=512)
def t_distribution(q: int) -> np.ndarray:
    """D3[t] = #{(x1, x2, x3) mod q : x1^3 + x2^3 + x3^3 = t}; sums to q^3."""
    reserve_distribution(q, 3, f"T residue distribution mod {q}")
    c = cube_residue_counts(q)
    return _read_only(cyclic_convolve(cyclic_convolve(c, c, q), c, q))


@lru_cache(maxsize=512)
def t_square_distribution(q: int) -> np.ndarray:
    """Counts of T(x)^2 mod q over all triples x; the phase weights of S(q, a)."""
    return _read_only(square_pushforward(t_distribution(q), q))
