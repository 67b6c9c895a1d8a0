import numpy as np

from cubesquares.mainterm import RnEvaluator
from cubesquares.params import derive_params
from cubesquares.scale import Scale
from cubesquares.smooth import estimate_c_eta
from cubesquares.weights import build_weight_table
from test_weights import as_dict

MEMBERS = ("params", "primes", "table_a", "table_b", "rn", "c_bulk", "c_thin")


def test_members_built_once(monkeypatch):
    import cubesquares.scale as scale_module

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("derive_params", "build_weight_table", "RnEvaluator", "estimate_c_eta"):
        monkeypatch.setattr(scale_module, name, counted(getattr(scale_module, name)))
    scale = Scale(27**6)
    first = [getattr(scale, m) for m in MEMBERS]
    assert all(getattr(scale, m) is v for m, v in zip(MEMBERS, first))
    assert sorted(calls) == sorted(
        ["derive_params", "build_weight_table", "build_weight_table", "RnEvaluator", "estimate_c_eta", "estimate_c_eta"]
    )
    assert Scale(27**6).table_a is not scale.table_a  # no cache shared between contexts


def test_members_match_the_chain():
    scale = Scale(27**6)
    pp = derive_params(27**6)
    assert scale.params == pp
    assert scale.primes == pp.default_primes() == [2, 3]
    assert as_dict(scale.table_b) == as_dict(build_weight_table(pp, "b"))
    ev = RnEvaluator(build_weight_table(pp, "a"), scale.table_b, [2, 3])
    assert all(np.array_equal(got, want) for got, want in zip(scale.rn.a, ev.a))  # keys, then counts
    for lo, hi in ((0, ev.max_n), (pp.N // 2, pp.N)):
        assert scale.rn.window_mass(lo, hi) == ev.window_mass(lo, hi) > 0
    assert scale.c_thin == estimate_c_eta(int(pp.H3), pp.R)


def test_c_thin_below_unit_box():
    scale = Scale(2**6)  # H3 < 1: the thin box holds no integer
    assert scale.params.H3 < 1
    assert scale.c_thin == 1.0
    assert len(scale.table_b) == 0
