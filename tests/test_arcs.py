import math
from fractions import Fraction

from hypothesis import given, strategies as st

from cubesquares.arcs import TAU, ArcDissection


def _oracle_classify(alpha: Fraction, X: float, n: int):
    # smallest q <= X admitting |alpha - a/q| <= X / (q n), a = nearest integer to q alpha
    best = None
    for q in range(1, int(X) + 1):
        a = round(q * alpha)
        if abs(alpha - Fraction(a, q)) <= Fraction(X) / (q * n):
            best = (a, q)
            break
    return best


def test_center_hits():
    hit = ArcDissection(X=2, n=64**6).classify(0.5)
    assert (hit.a, hit.q) == (1, 2)
    assert hit.beta == 0.0
    hit = ArcDissection(X=5, n=10**6).classify(Fraction(1, 3))
    assert (hit.a, hit.q) == (1, 3)


def test_tau_value():
    assert TAU == 18 / 31


@given(
    st.fractions(min_value=0, max_value=1, max_denominator=400).filter(lambda f: f < 1),
    st.integers(min_value=2, max_value=40),
)
def test_classify_matches_oracle(alpha, X):
    n = 10**6
    got = ArcDissection(X=X, n=n).classify(alpha)
    want = _oracle_classify(alpha, X, n)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got.q == want[1]  # a may differ on exact half-way ties
        assert abs(alpha - Fraction(got.a, got.q)) <= Fraction(X) / (got.q * n)


def test_dissection_scales():
    P = 16
    n = P**6
    wide = ArcDissection.wide(P, n)
    assert math.isclose(wide.X, P**0.8)
    narrow = ArcDissection.narrow(P, n)
    assert math.isclose(narrow.X, math.log(P) ** TAU)
    assert wide.half_width(3) == wide.X / (3 * n)


def test_classify_beta_sign():
    # q=2 arc half width is 2 / (2 * 64^6) ~ 1.4e-11, so 1e-12 stays inside
    hit = ArcDissection(X=2, n=64**6).classify(0.5 + 1e-12)
    assert hit is not None and (hit.a, hit.q) == (1, 2) and hit.beta > 0
    hit = ArcDissection(X=2, n=64**6).classify(0.5 - 1e-12)
    assert hit is not None and (hit.a, hit.q) == (1, 2) and hit.beta < 0

