import math

import pytest
from hypothesis import example, given, strategies as st

from cubesquares.errors import DegenerateParamsError
from cubesquares.oscillatory import v_at_zero
from cubesquares.params import derive_params, floor_nth_root
from cubesquares.scale import Scale
from cubesquares.smooth import estimate_c_eta


def test_small_N_rejected():
    for N in (0, 1, 63):
        with pytest.raises(DegenerateParamsError):
            derive_params(N)
    derive_params(64)  # smallest admissible


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=9))
@example(10**30 - 12345, 1)  # the float first guess is off by ~10^13 here
def test_floor_nth_root_exact(n, k):
    r = floor_nth_root(n, k)
    assert r**k <= n
    assert (r + 1) ** k > n


def test_derived_scales_consistent():
    pp = derive_params(16**6)
    assert pp.P == 16
    assert math.isclose(pp.M, 16 ** (2 / 5))
    assert math.isclose(pp.H, 16 ** (9 / 5))
    # thin cube caps: 2*H1^3 = (3/2)*H2^3 = 6*H3^3 = H
    assert math.isclose(2 * pp.H1**3, pp.H)
    assert math.isclose(1.5 * pp.H2**3, pp.H)
    assert math.isclose(6 * pp.H3**3, pp.H)
    assert math.isclose(pp.M**3 * pp.H, pp.P**3)
    assert pp.R == max(2, math.ceil(pp.P**pp.eta))


def test_leading_ranges():
    pp = derive_params(16**6)
    assert list(pp.bulk.leading) == list(range(9, 17))
    assert list(pp.thin.leading) == []  # H1, H2 straddle no integer here
    pp27 = derive_params(27**6)
    assert list(pp27.bulk.leading) == list(range(14, 28))
    assert list(pp27.thin.leading) == [6]


@pytest.mark.parametrize("P, thin_box", [(16, 2), (27, 3), (64, 6)])
def test_family_boxes_and_volumes(P, thin_box):
    pp = derive_params(P**6)
    assert pp.bulk.smooth_box == P
    assert pp.thin.smooth_box == thin_box == math.floor(pp.H3)
    assert pp.bulk.volume == v_at_zero(pp) == P**3 / 2
    assert pp.thin.volume == (pp.H2 - pp.H1) * pp.H3**2


def test_prime_window_and_defaults():
    pp = derive_params(27**6)
    lo, hi = pp.prime_window()
    assert lo == pp.M / 2 and hi == pp.M
    primes = pp.default_primes()
    assert primes == [2, 3]
    for p in primes:
        assert lo < p <= hi


def test_R_override_and_c_eta():
    pp = derive_params(64**6, R_override=7)
    assert pp.R == 7
    scale = Scale(64**6, R=7)
    assert scale.params == pp
    assert scale.c_bulk == estimate_c_eta(pp.P, 7)


def test_frozen_dataclass():
    pp = derive_params(64**6)
    with pytest.raises(Exception):
        pp.P = 1
