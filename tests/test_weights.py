import hashlib
import json
import math
import struct
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cubesquares import weights
from cubesquares.cubesieve import BUDGET_ENV
from cubesquares.errors import CapacityError
from cubesquares.generating import eval_W, eval_h
from cubesquares.mainterm import RnEvaluator, _square_series
from cubesquares.params import derive_params
from cubesquares.scale import Scale
from cubesquares.smooth import enumerate_smooth
from cubesquares.weights import (
    WeightTable,
    build_weight_table,
    count_bound,
    count_dtype,
    save_binary,
    save_csv,
    table_bytes,
    table_digest,
)


def read_wcl(path) -> WeightTable:
    """The table a `save_binary` record holds: MAGIC, the role byte, the u64 pair count, then (u64 value, u64 count) pairs."""
    raw = Path(path).read_bytes()
    assert raw[:4] == weights.MAGIC
    pairs = np.frombuffer(raw, "<u8", offset=13).reshape(-1, 2)
    assert struct.unpack_from("<Q", raw, 5) == (len(pairs),)
    return WeightTable(raw[4:5].decode("ascii"), pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64))


def read_csv(path) -> WeightTable:
    """The table a `save_csv` file holds, its role taken from the sidecar."""
    path = Path(path)
    role = json.loads(path.with_suffix(path.suffix + ".meta.json").read_text())["role"]
    rows = np.loadtxt(path, delimiter=",", dtype=np.int64, skiprows=1, ndmin=2)
    return WeightTable(role, rows[:, 0], rows[:, 1])


def as_dict(table: WeightTable) -> dict[int, int]:
    """The table as a value -> multiplicity map."""
    return dict(zip(table.support.tolist(), table.counts.tolist()))


def _aggregate_oracle(values: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The former aggregation: np.unique with inverse indices, then np.add.at."""
    sup, inv = np.unique(values, return_inverse=True)
    acc = np.zeros(sup.size, dtype=np.int64)
    np.add.at(acc, inv.ravel(), counts.ravel())
    return sup, acc


def _one_sort_oracle(x, cx, y, cy) -> tuple[np.ndarray, np.ndarray]:
    """The former outer-sum route: every raw sum at once, aggregated by the `np.unique` oracle."""
    return _aggregate_oracle(np.add.outer(x, y), np.multiply.outer(cx, cy))


def _family(pp, role):
    """Leading integers and smooth box of each family, stated here apart from `Params`."""
    if role == "a":
        return range(pp.P // 2 + 1, pp.P + 1), pp.P
    return range(math.floor(pp.H1) + 1, math.floor(pp.H2) + 1), math.floor(pp.H3)


def _table_oracle(pp, role) -> WeightTable:
    leading, box = _family(pp, role)
    y1 = np.arange(leading.start, leading.stop, dtype=np.int64)
    if y1.size == 0 or box < 1:
        return WeightTable(role, np.empty(0, np.int64), np.empty(0, np.int64))
    c = enumerate_smooth(box, pp.R) ** 3
    pair_sup, pair_cnt = _aggregate_oracle(c[:, None] + c[None, :], np.ones((c.size, c.size), np.int64))
    vals = (y1**3)[:, None] + pair_sup[None, :]
    return WeightTable(role, *_aggregate_oracle(vals, np.broadcast_to(pair_cnt[None, :], vals.shape)))


@pytest.mark.parametrize("P", [8, 27, 64, 1000])
@pytest.mark.parametrize("role", ["a", "b"])
def test_table_matches_aggregation_oracle(P, role):
    pp = derive_params(P**6)
    got = build_weight_table(pp, role)
    want = _table_oracle(pp, role)
    assert got.counts.dtype == np.int16  # every largest count here is below 2^15
    assert got.support.dtype == want.support.dtype and got.counts.dtype == want.counts.dtype
    assert np.array_equal(got.support, want.support)
    assert np.array_equal(got.counts, want.counts)
    assert table_digest(got) == table_digest(want)


def test_outer_sum_matches_oracle_on_repeated_inputs():
    rng = np.random.default_rng(7)
    x = np.sort(rng.integers(0, 50, size=40))  # repeated values on both sides
    y = np.sort(rng.integers(0, 50, size=25))
    cx = rng.integers(1, 1000, size=x.size)  # counts of several bits
    cy = rng.integers(1, 1000, size=y.size)
    want = _aggregate_oracle(np.add.outer(x, y), np.multiply.outer(cx, cy))
    got = weights._outer_sum(x, cx, y, cy, "a")
    assert np.array_equal(got.support, want[0])
    assert np.array_equal(got.counts, want[1])
    assert got.total == cx.sum() * cy.sum()


def test_outer_sum_rejects_values_past_the_key():
    # one count bit leaves 62 bits for the value
    one, zero = np.ones(1, np.int64), np.zeros(1, np.int64)
    with pytest.raises(OverflowError):
        weights._outer_sum(np.array([2**62], dtype=np.int64), one, zero, one, "a")
    with pytest.raises(OverflowError):
        weights._outer_sum(np.array([-1], dtype=np.int64), one, zero, one, "a")
    got = weights._outer_sum(np.array([2**62 - 1, 2**62 - 1], dtype=np.int64), np.ones(2, np.int64), zero, one, "a")
    assert got.support.tolist() == [2**62 - 1] and got.counts.tolist() == [2]


def test_build_totals_and_support():
    pp = derive_params(8**6)
    ta = build_weight_table(pp, "a")
    U = len(enumerate_smooth(pp.P, pp.R))
    n1 = len(_family(pp, "a")[0])
    assert ta.total == n1 * U * U
    # every supported value is a sum of three cubes in the admissible box
    assert ta.support.min() >= (pp.P // 2 + 1) ** 3 + 2
    assert ta.support.max() <= pp.P**3 + 2 * pp.P**3


def test_build_thin_table():
    pp = derive_params(27**6)
    tb = build_weight_table(pp, "b")
    # leading y in {6}, trailing smooth cubes from {1, 2}
    assert as_dict(tb) == {218: 1, 225: 2, 232: 1}
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
    back = read_csv(p)
    assert as_dict(back) == as_dict(t)
    assert table_digest(back) == table_digest(t)


def test_csv_takes_the_role_from_its_sidecar(tmp_path):
    t = build_weight_table(derive_params(64**6), "b")
    save_csv(t, tmp_path / "t.csv")
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["role"] == "b" and meta["digest"] == "3d9450148f21d4fe" == table_digest(read_csv(tmp_path / "t.csv"))


def test_csv_sidecar_matches_binary(tmp_path):
    t = WeightTable("b", (10, 11, 40), (2, 1, 7))
    save_csv(t, tmp_path / "t.csv", meta={"origin": "test"})
    save_binary(t, tmp_path / "t.wcl", meta={"origin": "test"})
    csv_meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    bin_meta = json.loads((tmp_path / "t.wcl.meta.json").read_text())
    assert csv_meta["digest"] == table_digest(read_csv(tmp_path / "t.csv"))
    assert csv_meta == {**bin_meta, "format": "CSV"}


def test_binary_round_trip(tmp_path):
    t = WeightTable("a", (3, 9, 2**40), (1, 5, 2))
    p = tmp_path / "t.wcl"
    save_binary(t, p, meta={"origin": "test"})
    raw = p.read_bytes()
    assert raw[:4] == b"WCL1"
    back = read_wcl(p)
    assert back.role == "a"
    assert as_dict(back) == as_dict(t)


def test_digest_distinguishes_tables():
    t1 = WeightTable("a", (3,), (1,))
    t2 = WeightTable("a", (3,), (2,))
    assert table_digest(t1) != table_digest(t2)
    assert len(table_digest(t1)) == 16


@pytest.mark.parametrize("bucket", [weights.BUCKET, 64])
def test_digests_hash_the_counts_as_int64(monkeypatch, bucket):
    # the digests of the tables when their counts were stored as int64; 64 cuts P = 27's 210 counts into four blocks
    monkeypatch.setattr(weights, "BUCKET", bucket)
    assert table_digest(WeightTable("b", (10, 11, 40), (2, 1, 7))) == "ec7dab73e31c6bc5"
    pp = derive_params(27**6)
    assert table_digest(build_weight_table(pp, "a")) == "210c40363a412ba4"
    assert table_digest(build_weight_table(pp, "b")) == "6d98c91f37a4da9b"


def test_count_dtype_is_the_narrowest_that_holds_the_top_count():
    assert count_dtype(0) == count_dtype(2**15 - 1) == np.int16
    assert count_dtype(2**15) == count_dtype(2**31 - 1) == np.int32
    assert count_dtype(2**31) == count_dtype(2**62) == np.int64


def test_tables_store_counts_in_the_dtype_of_their_largest_count():
    c16 = np.array([1, 2], np.int16)
    assert np.shares_memory(WeightTable("a", (3, 5), c16).counts, c16)  # no copy when the dtype already fits
    assert WeightTable("a", (3, 5), (1, 2)).counts.dtype == np.int16
    # the largest count, not the total: 2 (2^15 - 1) passes int16, and its counts stay int16
    tall = WeightTable("a", (3, 5), (2**15 - 1, 2**15 - 1))
    assert tall.counts.dtype == np.int16 and tall.total == 2**16 - 2
    assert WeightTable("a", (3, 5), (2**15, 1)).counts.dtype == np.int32
    wide = WeightTable("a", (3, 5), (2**31, 1))
    assert wide.counts.dtype == np.int64 and wide.total == 2**31 + 1
    with pytest.raises(ValueError):
        WeightTable("a", (3,), (-(2**32) + 1,))  # a wrapped int32 or int16 cast would read it as 1


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize(
    ("cx", "cy", "want"),
    [
        # one value, its count the run sum of two rows, folded into the keys beside an all-ones side
        ((2**30, 2**30 - 1), (1,), np.int32),
        ((2**30, 2**30), (1,), np.int64),
        # neither side all ones: count products, then their run sum
        ((2**14, 2**14 - 1), (2**15, 2**15 + 1), np.int32),
        ((2**14, 2**14 - 1), (2**15, 2**15 + 3), np.int64),
        # the int16 edge: a count bound of 2^15 - 1, then 2^15
        ((2**14, 2**14 - 1), (1,), np.int16),
        ((2**14, 2**14), (1,), np.int32),
    ],
)
def test_outer_sum_counts_at_the_int32_edge(cx, cy, want, dtype):
    # one value takes every raw sum, so its count, the total and the count bound are one number
    total = sum(cx) * sum(cy)
    assert count_bound(sum(cx), sum(cx), sum(cy), sum(cy)) == total and count_dtype(total) == want
    x, y = np.full(len(cx), 3, np.int64), np.full(len(cy), 5, np.int64)
    cx, cy = np.array(cx, dtype), np.array(cy, dtype)
    want_sup, want_cnt = _one_sort_oracle(x, cx, y, cy)
    for args in ((x, cx, y, cy), (y, cy, x, cx)):
        got = weights._outer_sum(*args, "a")
        sup, cnt = got.support, got.counts
        assert cnt.dtype == want and sup.tolist() == [8] and cnt.tolist() == [total]
        assert np.array_equal(sup, want_sup) and np.array_equal(cnt, want_cnt)


def test_outer_sum_sizes_counts_by_the_largest_count_not_the_total():
    # distinct values: total 2^14 * 3 passes int16, but no value collects more than 2^14 = min(3 * 2^14, 1 * 2^14)
    x, cx = np.array([3, 4, 9], np.int64), np.full(3, 2**14, np.int64)
    y, cy = np.array([5], np.int64), np.ones(1, np.int64)
    got = weights._outer_sum(x, cx, y, cy, "a")
    assert got.counts.dtype == np.int16 and got.support.tolist() == [8, 9, 14] and got.counts.tolist() == [2**14] * 3
    # repeated values sum their counts on one side: the bound reads 2 + 3 there
    assert weights._largest_run(np.array([1, 2, 2, 7]), np.array([4, 2, 3, 1])) == 5
    assert weights._largest_run(np.empty(0, np.int64), np.empty(0, np.int64)) == 0


def _widened(table: WeightTable, dtype) -> WeightTable:
    """The same table with its counts stored in `dtype`, as a table with a larger count stores them."""
    wide = WeightTable(table.role, table.support, table.counts)
    wide.counts = table.counts.astype(dtype)
    return wide


def test_readers_agree_on_int32_and_int64_counts(tmp_path):
    scale = Scale(27**6)
    ta, tb, primes, N = scale.table_a, scale.table_b, scale.primes, scale.params.N
    assert ta.counts.dtype == tb.counts.dtype == np.int16
    sides = {"int16": (ta, tb), **{np.dtype(d).name: (_widened(ta, d), _widened(tb, d)) for d in (np.int32, np.int64)}}
    for name, (wa, wb) in sides.items():
        assert wa.counts.dtype == wb.counts.dtype == name
        assert wa.total == ta.total and wb.total == tb.total and table_digest(wa) == table_digest(ta)
        for alpha in (Fraction(0), Fraction(5, 7)):
            assert eval_h(alpha, wa) == eval_h(alpha, ta)
            assert eval_W(alpha, wb, primes) == eval_W(alpha, tb, primes)
        assert RnEvaluator(wa, wb, primes).window_mass(N // 2, N) == 2_737_855
        (tmp_path / name).mkdir()
        save_binary(wa, tmp_path / name / "t.wcl")
        save_csv(wa, tmp_path / name / "t.csv")
    for name in ("t.wcl", "t.wcl.meta.json", "t.csv", "t.csv.meta.json"):
        assert (tmp_path / "int16" / name).read_bytes() == (tmp_path / "int32" / name).read_bytes()
        assert (tmp_path / "int16" / name).read_bytes() == (tmp_path / "int64" / name).read_bytes()


@pytest.mark.parametrize("counts", [(1, 5, 2), (2**31 - 1, 5, 2), (2**31 - 1, 1), (2**15 - 1, 2**15 - 1), (2**15, 1)])
def test_round_trips_keep_the_count_dtype_and_digest(tmp_path, counts):
    t = WeightTable("b", (3, 9, 2**40)[: len(counts)], counts)
    save_binary(t, tmp_path / "t.wcl")
    save_csv(t, tmp_path / "t.csv")
    for back in (read_wcl(tmp_path / "t.wcl"), read_csv(tmp_path / "t.csv")):
        assert back.counts.dtype == t.counts.dtype == count_dtype(max(counts))
        assert table_digest(back) == table_digest(t)


def _guard_need(pp) -> int:
    leading, box = _family(pp, "a")
    c = enumerate_smooth(box, pp.R) ** 3
    pair_sup, pair_cnt = _aggregate_oracle(np.add.outer(c, c), np.ones((c.size, c.size), np.int64))
    return table_bytes(len(leading), pair_sup.size, min(len(leading) * int(pair_cnt.max()), c.size**2))


def test_table_bytes_prices_the_p10000_table_at_six_bytes_per_raw_sum():
    # priced from the pair sums and the leading range alone, without building the 11.4M-entry table
    pp = derive_params(10_000**6)
    leading, box = _family(pp, "a")
    pair_sup, pair_cnt = weights.smooth_cube_pairs(box, pp.R)
    top = count_bound(len(leading), 1, int(pair_cnt.sum()), int(pair_cnt.max()))
    assert top == 4_489 and count_dtype(top) == np.int16
    raw = len(leading) * pair_sup.size
    need = table_bytes(len(leading), pair_sup.size, top)
    # a uint32 low word and an int16 count per raw sum, beside one bucket's scratch and the inputs; 8 bytes
    # per raw sum would add 2 raw, about 23 MB
    assert 6 * raw < need < 6 * raw + (4 << 20)


def _traced_build(pp) -> tuple[WeightTable, int]:
    tracemalloc.start()
    try:
        table = build_weight_table(pp, "a")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return table, peak


def test_memory_guard_matches_allocation(monkeypatch):
    pp = derive_params(1000**6)
    need = _guard_need(pp)
    monkeypatch.setenv(BUDGET_ENV, str(need))
    table, peak = _traced_build(pp)
    assert len(table) > 0
    # the estimate bounds the allocation and is not far above it
    assert 0.99 * need <= peak <= need
    monkeypatch.setenv(BUDGET_ENV, str(need - 1))
    with pytest.raises(CapacityError):
        build_weight_table(pp, "a")


def test_memory_guard_matches_allocation_over_many_buckets(monkeypatch):
    pp = derive_params(2000**6)
    need = _guard_need(pp)
    monkeypatch.setenv(BUDGET_ENV, str(need))
    table, peak = _traced_build(pp)
    assert len(table) > 10 * weights.BUCKET  # over ten buckets of raw sums
    assert 0.99 * need <= peak <= need
    monkeypatch.setenv(BUDGET_ENV, str(need - 1))
    with pytest.raises(CapacityError):
        build_weight_table(pp, "a")


@pytest.mark.parametrize("P", [64, 100, 150, 300])
def test_memory_guard_bounds_small_tables(P):
    # here the fixed per-call term is a large share of the estimate
    pp = derive_params(P**6)
    need = _guard_need(pp)
    table, peak = _traced_build(pp)
    assert len(table) > 0
    assert peak <= need


def test_budget_guard(monkeypatch):
    pp = derive_params(64**6)
    monkeypatch.setenv(BUDGET_ENV, "16")
    with pytest.raises(CapacityError):
        build_weight_table(pp, "a")


def test_budget_guards_the_smooth_pair_table(monkeypatch):
    # R = P = 2000 makes every integer of the box smooth: the 2000^2 pair sums (about 26 MB) are
    # refused before they are allocated
    budget = 10 << 20
    monkeypatch.setenv(BUDGET_ENV, str(budget))
    pp = derive_params(2000**6, R_override=2000)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="'pairs'"):
            build_weight_table(pp, "a")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget


# -- one value range at a time against the one-sort route ------------------------


@pytest.mark.parametrize("P", [8, 27, 64, 1000])
@pytest.mark.parametrize("role", ["a", "b"])
def test_bucketed_table_matches_one_sort(monkeypatch, P, role):
    pp = derive_params(P**6)
    leading, box = _family(pp, role)
    c = enumerate_smooth(box, pp.R) ** 3
    ones = np.ones(c.size, np.int64)
    pair_sup, pair_cnt = _one_sort_oracle(c, ones, c, ones)
    cubes = np.arange(leading.start, leading.stop, dtype=np.int64) ** 3
    want = WeightTable(role, *_one_sort_oracle(cubes, np.ones(cubes.size, np.int64), pair_sup, pair_cnt))
    monkeypatch.setattr(weights, "BUCKET", 300)
    got = build_weight_table(pp, role)
    assert np.array_equal(got.support, want.support) and np.array_equal(got.counts, want.counts)
    assert table_digest(got) == table_digest(want)


@pytest.mark.parametrize("bucket", [1, 7, 50, 300])
def test_outer_sum_matches_one_sort_across_bucket_edges(monkeypatch, bucket):
    rng = np.random.default_rng(bucket)
    # x = y = 0..39 gives each sum s up to 40 raw entries from 40 different
    # rows, more than a bucket holds, so equal sums meet every bucket edge
    span = np.arange(40, dtype=np.int64)
    gappy = np.unique(rng.integers(0, 10**6, size=90))
    cases = [(span, span), (gappy, span), (gappy, gappy[::3].copy()), (span[:1], gappy)]
    monkeypatch.setattr(weights, "BUCKET", bucket)
    for x, y in cases:
        many_x = rng.integers(1, 1000, size=x.size)
        many_y = rng.integers(1, 1000, size=y.size)
        ones_x, ones_y = np.ones(x.size, np.int64), np.ones(y.size, np.int64)
        # all-one counts on either side fold the other side's count into its
        # keys instead of a per-entry product: ones on the long side, the
        # short side and both
        for cx, cy in ((many_x, many_y), (ones_x, many_y), (many_x, ones_y), (ones_x, ones_y)):
            want = _one_sort_oracle(x, cx, y, cy)
            for args in ((x, cx, y, cy), (y, cy, x, cx)):
                got = weights._outer_sum(*args, "a")
                assert np.array_equal(got.support, want[0]) and np.array_equal(got.counts, want[1])
                assert got.total == cx.sum() * cy.sum()


def test_outer_sum_of_an_empty_side(monkeypatch):
    monkeypatch.setattr(weights, "BUCKET", 7)
    empty, three = np.empty(0, np.int64), np.arange(3, dtype=np.int64)
    for x, y in ((empty, three), (three, empty), (empty, empty)):
        got = weights._outer_sum(x, np.ones(x.size, np.int64), y, np.ones(y.size, np.int64), "a")
        assert len(got) == got.high.size == 0 and got.support.dtype == np.int64 and got.counts.dtype == count_dtype(0)


@pytest.mark.parametrize("P", [2, 5])
def test_empty_thin_tables(monkeypatch, P):
    # P = 2 has no thin smooth box, P = 5 an empty thin leading range
    pp = derive_params(P**6)
    monkeypatch.setattr(weights, "BUCKET", 7)
    tb = build_weight_table(pp, "b")
    assert len(tb) == 0 and tb.total == 0
    ev = RnEvaluator(build_weight_table(pp, "a"), tb, [2])
    assert ev.bb[0].size == 0 and ev.total == 0 and ev.window_mass(0, 10**9) == 0


def _oracle_mass(aa, bb, lo, hi) -> int:
    prefix = np.concatenate(([0], np.cumsum(aa[1])))
    inside = prefix[np.searchsorted(aa[0], hi - bb[0], "right")] - prefix[np.searchsorted(aa[0], lo - bb[0])]
    return int(bb[1] @ inside)


@pytest.mark.parametrize("P", [27, 64])
def test_bucketed_rn_matches_one_sort(monkeypatch, P):
    scale = Scale(P**6)
    (ka, ca), (kb, cb) = _square_series(scale.table_a, scale.table_b, scale.primes)
    aa, bb = _one_sort_oracle(ka, ca, ka, ca), _one_sort_oracle(kb, cb, kb, cb)
    N = scale.params.N
    for bucket in (300, 7):  # both cut the sweep into blocks of one t; 7 also builds bb in several buckets
        monkeypatch.setattr(weights, "BUCKET", bucket)
        ev = RnEvaluator(scale.table_a, scale.table_b, scale.primes)
        for (keys, counts), want in ((ev.a, (ka, ca)), (ev.bb, bb)):
            assert np.array_equal(keys, want[0]) and np.array_equal(counts, want[1])
        for lo, hi in ((0, ev.max_n), (N // 2, N), (N // 3, N // 3 + 1000)):
            assert ev.window_mass(lo, hi) == _oracle_mass(aa, bb, lo, hi)


def test_binary_blocks_keep_the_bytes(tmp_path, monkeypatch):
    t = build_weight_table(derive_params(27**6), "a")
    save_binary(t, tmp_path / "one.wcl")
    monkeypatch.setattr(weights, "BUCKET", 64)  # 210 pairs in four blocks
    save_binary(t, tmp_path / "blocks.wcl")
    assert (tmp_path / "blocks.wcl").read_bytes() == (tmp_path / "one.wcl").read_bytes()
    assert table_digest(read_wcl(tmp_path / "blocks.wcl")) == table_digest(t)


def test_csv_blocks_keep_the_bytes(tmp_path, monkeypatch):
    t = build_weight_table(derive_params(27**6), "a")
    save_csv(t, tmp_path / "one.csv")
    monkeypatch.setattr(weights, "BUCKET", 64)  # 210 pairs in four blocks
    save_csv(t, tmp_path / "blocks.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert table_digest(read_csv(tmp_path / "blocks.csv")) == table_digest(t)


@pytest.fixture(scope="module")
def tables_1000_2000():
    return [build_weight_table(derive_params(P**6), "a") for P in (1000, 2000)]


def test_csv_memory_does_not_grow_with_the_table(tmp_path, monkeypatch, tables_1000_2000):
    tables = tables_1000_2000
    monkeypatch.setattr(weights, "BUCKET", 4096)  # both tables span several blocks
    peaks = []
    for t in tables:
        tracemalloc.start()
        try:
            save_csv(t, tmp_path / "t.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(tables[1]) > 30 * len(tables[0]) > 6 * 4096
    assert peaks[1] < 1.1 * peaks[0] and peaks[1] < len(tables[1])


def test_readers_never_form_the_whole_int64_support(tmp_path, monkeypatch):
    # build, h, the digest and both writers take the values one block at a time
    monkeypatch.setattr(weights, "BUCKET", 4096)
    pp = derive_params(1000**6)
    want = build_weight_table(pp, "a")
    h57, digest = eval_h(Fraction(5, 7), want), table_digest(want)
    save_binary(want, tmp_path / "want.wcl")
    save_csv(want, tmp_path / "want.csv")

    support = WeightTable.support.fget

    def whole_support(table):
        # the 55-entry smooth pair table is read whole as the build's input; no table past one block is
        if len(table) > weights.BUCKET:
            raise AssertionError("the whole int64 support was formed")
        return support(table)

    monkeypatch.setattr(WeightTable, "support", property(whole_support))
    table = build_weight_table(pp, "a")
    assert len(table) > 6 * 4096 and table.high.size == 1  # several blocks; values below 2^32
    assert eval_h(Fraction(0), table) == want.total and eval_h(Fraction(5, 7), table) == h57
    assert table_digest(table) == digest
    save_binary(table, tmp_path / "got.wcl")
    save_csv(table, tmp_path / "got.csv")
    for ext in ("wcl", "csv"):
        assert (tmp_path / f"got.{ext}").read_bytes() == (tmp_path / f"want.{ext}").read_bytes()


# -- tables whose values cross 2^32 boundaries ----------------------------------------

_K = 1 << 32
# sums cross 2^32 (reached exactly, and twice: (2^32 - 2) + 2 and 2^32 + 0), 2 * 2^32 and
# 3 * 2^32 (reached exactly by (3 * 2^32 - 1) + 1); no value has the high word 4
_EDGE_X = np.array([0, _K - 2, _K, 2 * _K - 3, 3 * _K - 1, 5 * _K + 9], np.int64)
_EDGE_Y = np.array([0, 1, 2, 3, 4, 7], np.int64)


@pytest.mark.parametrize("bucket", [1, 3, 7, 64])
def test_split_tables_across_high_words_match_the_int64_oracle(tmp_path, monkeypatch, bucket):
    monkeypatch.setattr(weights, "BUCKET", bucket)
    opened = []  # (entry, the segment opens inside its bucket) for each segment after the first

    def mark(hw, base, high, starts):
        before = len(starts)
        mark_segments(hw, base, high, starts)
        opened.extend((i, i > base) for i in starts[max(before, 1) :])

    mark_segments = weights._mark_segments
    rng = np.random.default_rng(bucket)
    cx = rng.integers(1, 1000, size=_EDGE_X.size)
    for cy in (np.ones(_EDGE_Y.size, np.int64), rng.integers(1, 1000, size=_EDGE_Y.size)):
        monkeypatch.setattr(weights, "_mark_segments", mark)
        table = weights._outer_sum(_EDGE_X, cx, _EDGE_Y, cy, "a")
        monkeypatch.setattr(weights, "_mark_segments", mark_segments)
        sup, cnt = _one_sort_oracle(_EDGE_X, cx, _EDGE_Y, cy)
        assert np.array_equal(table.support, sup) and np.array_equal(table.counts, cnt)
        assert table.high.tolist() == [0, 1, 2, 3, 5]
        assert np.array_equal(table.starts, np.searchsorted(sup, table.high << 32))
        assert table.max_value == int(sup[-1])
        assert table_digest(table) == hashlib.sha256(b"a" + sup.tobytes() + cnt.tobytes()).hexdigest()[:16]
        save_binary(table, tmp_path / "t.wcl")
        save_csv(table, tmp_path / "t.csv")
        pairs = np.column_stack((sup, cnt)).astype("<u8")
        head = weights.MAGIC + b"a" + len(sup).to_bytes(8, "little")
        assert (tmp_path / "t.wcl").read_bytes() == head + pairs.tobytes()
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines == ["value,multiplicity", *(f"{v},{c}" for v, c in zip(sup.tolist(), cnt.tolist()))]
        for back in (read_wcl(tmp_path / "t.wcl"), read_csv(tmp_path / "t.csv")):
            for name in ("low", "high", "starts", "counts"):
                assert np.array_equal(getattr(back, name), getattr(table, name))
    if bucket == 64:  # one bucket holds all 36 raw sums
        assert {inside for _, inside in opened} == {True}
    elif bucket == 1:  # a bucket of one value at a time
        assert {inside for _, inside in opened} == {False}
    else:
        assert {inside for _, inside in opened} == {True, False}


def test_split_layout_rejects_bad_segments():
    low, counts = np.array([5, 1, 2], np.uint32), np.ones(3, np.int64)
    assert WeightTable.from_split("a", low, [0, 1], [0, 1], counts).support.tolist() == [5, _K + 1, _K + 2]
    for high, starts in (
        ([0], [0]),  # 5, 1 in one segment: not increasing
        ([1, 0], [0, 1]),  # high words out of order
        ([0, 0], [0, 1]),  # one high word in two segments
        ([0, 1], [1, 2]),  # entry 0 in no segment
        ([0, 1], [0, 3]),  # a segment past the table
        ([0, 1], [0]),  # a high word without a first index
        ([-1, 0], [0, 1]),  # a value below 0
        ([0, 1 << 31], [0, 1]),  # a value at 2^63
    ):
        with pytest.raises(ValueError):
            WeightTable.from_split("a", low, high, starts, counts)
    with pytest.raises(ValueError):
        WeightTable("a", (-1, 3), (1, 1))
