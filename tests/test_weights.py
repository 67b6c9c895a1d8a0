import json
import tracemalloc

import numpy as np
import pytest

from cubesquares import weights
from cubesquares.cubesieve import BUDGET_ENV
from cubesquares.errors import CapacityError
from cubesquares.params import derive_params
from cubesquares.smooth import enumerate_smooth
from cubesquares.weights import (
    WeightTable,
    build_weight_table,
    load_binary,
    load_csv,
    save_binary,
    save_csv,
    table_bytes,
    table_digest,
)


def _aggregate_oracle(values: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The former aggregation: np.unique with inverse indices, then np.add.at."""
    sup, inv = np.unique(values, return_inverse=True)
    acc = np.zeros(sup.size, dtype=np.int64)
    np.add.at(acc, inv.ravel(), counts.ravel())
    return sup, acc


def _family(pp, role):
    if role == "a":
        return pp.leading_range_main(), pp.P
    return pp.leading_range_thin(), int(np.floor(pp.H3))


def _table_oracle(pp, role) -> WeightTable:
    leading, box = _family(pp, role)
    y1 = np.arange(leading.start, leading.stop, dtype=np.int64)
    if y1.size == 0 or box < 1:
        return WeightTable(role, np.empty(0, np.int64), np.empty(0, np.int64))
    c = enumerate_smooth(box, pp.R).members ** 3
    pair_sup, pair_cnt = _aggregate_oracle(c[:, None] + c[None, :], np.ones((c.size, c.size), np.int64))
    vals = (y1**3)[:, None] + pair_sup[None, :]
    return WeightTable(role, *_aggregate_oracle(vals, np.broadcast_to(pair_cnt[None, :], vals.shape)))


@pytest.mark.parametrize("P", [8, 27, 64, 1000])
@pytest.mark.parametrize("role", ["a", "b"])
def test_table_matches_aggregation_oracle(P, role):
    pp = derive_params(P**6)
    got = build_weight_table(pp, role)
    want = _table_oracle(pp, role)
    assert got.support.dtype == want.support.dtype and got.counts.dtype == want.counts.dtype
    assert np.array_equal(got.support, want.support)
    assert np.array_equal(got.counts, want.counts)
    assert table_digest(got) == table_digest(want)


def test_aggregate_matches_oracle_on_repeats():
    rng = np.random.default_rng(7)
    values = rng.integers(0, 50, size=(40, 25), dtype=np.int64)
    counts = rng.integers(1, 1000, size=25, dtype=np.int64)  # a count of several bits
    want = _aggregate_oracle(values, np.broadcast_to(counts, values.shape))
    got = weights._aggregate(values.copy(), counts)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[1].sum() == 40 * counts.sum()


def test_aggregate_rejects_values_past_the_key():
    # one count bit leaves 62 bits for the value
    with pytest.raises(OverflowError):
        weights._aggregate(np.array([2**62], dtype=np.int64), 1)
    with pytest.raises(OverflowError):
        weights._aggregate(np.array([-1], dtype=np.int64), 1)
    sup, cnt = weights._aggregate(np.array([2**62 - 1, 2**62 - 1], dtype=np.int64), 1)
    assert sup.tolist() == [2**62 - 1] and cnt.tolist() == [2]


def test_build_totals_and_support():
    pp = derive_params(8**6)
    ta = build_weight_table(pp, "a")
    U = len(enumerate_smooth(pp.P, pp.R))
    n1 = len(list(pp.leading_range_main()))
    assert ta.total == n1 * U * U
    # every supported value is a sum of three cubes in the admissible box
    assert ta.support.min() >= (pp.P // 2 + 1) ** 3 + 2
    assert ta.support.max() <= pp.P**3 + 2 * pp.P**3


def test_build_thin_table():
    pp = derive_params(27**6)
    tb = build_weight_table(pp, "b")
    # leading y in {6}, trailing smooth cubes from {1, 2}
    assert tb.as_dict() == {218: 1, 225: 2, 232: 1}
    assert tb.total == 4


def test_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        WeightTable("a", (5, 3), (1, 1))  # unsorted
    with pytest.raises(ValueError):
        WeightTable("a", (3, 3), (1, 1))  # duplicate
    with pytest.raises(ValueError):
        WeightTable("a", (3,), (0,))  # nonpositive count


def test_csv_round_trip(tmp_path):
    t = WeightTable("b", (10, 11, 40), (2, 1, 7))
    p = tmp_path / "t.csv"
    save_csv(t, p)
    text = p.read_text().splitlines()
    assert text[0] == "value,multiplicity"
    back = load_csv(p, role="b")
    assert back.as_dict() == t.as_dict()
    assert table_digest(back) == table_digest(t)


def test_csv_sidecar_matches_binary(tmp_path):
    t = WeightTable("b", (10, 11, 40), (2, 1, 7))
    save_csv(t, tmp_path / "t.csv", meta={"origin": "test"})
    save_binary(t, tmp_path / "t.wcl", meta={"origin": "test"})
    csv_meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    bin_meta = json.loads((tmp_path / "t.wcl.meta.json").read_text())
    assert csv_meta["digest"] == table_digest(load_csv(tmp_path / "t.csv", role="b"))
    assert csv_meta == {**bin_meta, "format": "CSV"}


def test_binary_round_trip(tmp_path):
    t = WeightTable("a", (3, 9, 2**40), (1, 5, 2))
    p = tmp_path / "t.wcl"
    save_binary(t, p, meta={"origin": "test"})
    raw = p.read_bytes()
    assert raw[:4] == b"WCL1"
    back = load_binary(p)
    assert back.role == "a"
    assert back.as_dict() == t.as_dict()


def test_digest_distinguishes_tables():
    t1 = WeightTable("a", (3,), (1,))
    t2 = WeightTable("a", (3,), (2,))
    assert table_digest(t1) != table_digest(t2)
    assert len(table_digest(t1)) == 16


def test_memory_guard_matches_allocation(monkeypatch):
    pp = derive_params(1000**6)
    leading, box = _family(pp, "a")
    c = enumerate_smooth(box, pp.R).members ** 3
    need = table_bytes(len(leading), np.unique(np.add.outer(c, c)).size)
    monkeypatch.setenv(BUDGET_ENV, str(need))
    tracemalloc.start()
    try:
        table = build_weight_table(pp, "a")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) > 0
    # the estimate bounds the allocation and is not far above it
    assert 0.99 * need <= peak <= need
    monkeypatch.setenv(BUDGET_ENV, str(need - 1))
    with pytest.raises(CapacityError):
        build_weight_table(pp, "a")


def test_budget_guard(monkeypatch):
    pp = derive_params(64**6)
    monkeypatch.setenv(BUDGET_ENV, "16")
    with pytest.raises(CapacityError):
        build_weight_table(pp, "a")


def test_multiplicity_lookup():
    t = WeightTable("a", (4, 7), (2, 3))
    assert t.multiplicity(4) == 2
    assert t.multiplicity(5) == 0
    assert len(t) == 2
    assert np.array_equal(t.support, np.array([4, 7]))
