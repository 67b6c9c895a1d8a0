"""Weighted supports of T(y) = y1^3 + y2^3 + y3^3 over the two cube families.

Role "a" reads the family `Params.bulk` and role "b" the family
`Params.thin`: y1 runs over the family's leading integers and y2, y3 over
the R-smooth integers in [1, smooth_box].

The table maps each attained value v = T(y) to its multiplicity, i.e. the
number of ordered triples producing it.  These multiplicities are the
coefficients of the quadratic generating sums evaluated in generating.py.

Both folds (the smooth pair sums, then the leading cube against them) are
outer sums, built one value range at a time by `_outer_sum`, the one
packed-key aggregation of the package (R(n)'s thin self-sum is another of
its calls).  Each range gathers at most BUCKET raw sums at indices formed
without a running sum, packs each with its count into one int64 key and
sorts the keys in cache.  In both folds one side's counts are all 1, so the
other side's count rides in its shifted values and no key takes a count
product.  Each run of equal values gives its end's value and count, and
one `np.add.at` adds the counts of the rare repeated values.

Every outer sum returns a table, which stores each value as its low word
v mod 2^32 (uint32) under a sparse segment index of (high word v >> 32,
first index) pairs, one per distinct high word.  The values at P = 10^4
lie below 2^42 and take 569 high words, so the index is a few KB.
`_TableFill` writes this layout one bucket at a time, and int64 values
exist only in the bucket's scratch.  Readers (`generating`,
`table_digest`, the writers) take int64 values one BUCKET block at a time
from `WeightTable.blocks`; the small pair table and thin self-sum are read
whole, once, by their callers.

Counts are stored in `count_dtype` of the largest count, not the total:
int16 while it is below 2^15, int32 below 2^31, else int64.  The build
knows a bound on it before it allocates, which no count, product or run
sum exceeds, and every reader widens before it computes.  At P = 10^4 the
bulk table has 11.4M entries of total mass 22 445 000, whose largest count
is 8 and bound 4 489, in 6 bytes per entry (uint32 low word, int16 count),
and the build holds those output entries plus one bucket; `table_bytes`
is the estimate of it that each outer sum holds against the memory budget
before it allocates.

Disk formats: a little-endian binary record (magic WCL1) and a CSV with
header ``value,multiplicity``; a JSON sidecar carries provenance fields.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .cubesieve import reserve
from .errors import CapacityError
from .params import Params
from .smooth import enumerate_smooth

MAGIC = b"WCL1"

# Raw sums one bucket of `_outer_sum` gathers at most; also the entries per
# block that `WeightTable.blocks` yields and the writers move through memory.
BUCKET = 1 << 16


def count_dtype(top: int) -> np.dtype:
    """The narrowest of int16, int32 and int64 that holds `top`, the largest count an array can take.

    `top` is the largest count, not the total: a table's counts are sized
    by its largest count, and `_outer_sum`'s by `count_bound`, which every
    count, product and run sum that `_bucket` forms stays within.
    """
    return np.dtype(np.int16 if top < 2**15 else np.int32 if top < 2**31 else np.int64)


def count_bound(sum_x: int, top_x: int, sum_y: int, top_y: int) -> int:
    """The largest count an outer sum x_i + y_j can give one value: min(sum_x top_y, sum_y top_x).

    sum_s is side s's total count and top_s its largest summed count of one
    value (its largest count when its values are distinct).  A value v
    collects cx_i times the summed count of y at v - x_i over the rows i,
    so at most sum_x top_y, and by symmetry sum_y top_x.
    """
    return min(sum_x * top_y, sum_y * top_x)


def _largest_run(v: np.ndarray, c: np.ndarray) -> int:
    """The largest summed count of one value of the sorted v, 0 when v is empty."""
    if v.size == 0:
        return 0
    heads = np.flatnonzero(v[1:] != v[:-1]) + 1
    return int(np.add.reduceat(c, np.concatenate(([0], heads)), dtype=np.int64).max())


class WeightTable:
    """Sorted distinct values in [0, 2^63) with positive multiplicities, for one role.

    The weight tables have the roles "a" and "b", the smooth cube pairs
    "pairs" and R(n)'s thin self-sum "bb".

    A value v is stored as its low word v mod 2^32 in `low` (uint32) under
    a sparse segment index: `high` holds each distinct high word v >> 32 in
    increasing order and `starts` the index of its first entry, so entry i
    of segment s, starts[s] <= i < starts[s + 1], has the value
    high[s] 2^32 + low[i].  The counts are stored in `count_dtype` of the
    largest count, not the total.  With int16 counts a table takes 6 bytes
    per entry and 16 per segment: 569 segments for the 11.4M entries at
    P = 10^4.

    `WeightTable(role, support, counts)` splits a sorted int64 support, and
    `from_split` takes the split arrays as they are.  Readers take the int64
    values BUCKET at a time from `blocks`; `support` builds the whole int64
    array, for small tables and tests.
    """

    def __init__(self, role: str, support, counts):
        v = np.asarray(support, dtype=np.int64)
        high: list[int] = []
        starts: list[int] = []
        _mark_segments(v >> 32, 0, high, starts)
        self._init(role, v.astype(np.uint32), high, starts, counts)

    @classmethod
    def from_split(cls, role: str, low, high, starts, counts) -> WeightTable:
        """The table with low words `low`, segment high words `high` and first indices `starts`, and `counts`."""
        table = cls.__new__(cls)
        table._init(role, low, high, starts, counts)
        return table

    def _init(self, role: str, low, high, starts, counts) -> None:
        self.role = role
        self.low = np.ascontiguousarray(low, dtype=np.uint32)
        self.high = np.asarray(high, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.int64)
        counts = np.asarray(counts)
        if counts.dtype not in (np.int16, np.int32):
            counts = counts.astype(np.int64, copy=False)
        n, k = self.low.size, self.high.size
        if self.low.shape != counts.shape or self.low.ndim != 1:
            raise ValueError("support and counts must be parallel")
        if self.starts.shape != (k,) or (n == 0) != (k == 0):
            raise ValueError("high words and first indices must be parallel, and empty just when the table is")
        if k and (self.starts[0] != 0 or self.starts[-1] >= n or (self.starts[1:] <= self.starts[:-1]).any()):
            raise ValueError("segments must start at entry 0 and at increasing entries of the table")
        if k and (self.high[0] < 0 or self.high[-1] >> 31):
            raise ValueError("values must lie in [0, 2^63)")
        if not _increasing(self.low, self.starts) or (self.high[1:] <= self.high[:-1]).any():
            raise ValueError("support must be strictly increasing")
        if counts.min(initial=1) <= 0:
            raise ValueError("multiplicities must be positive")
        self.counts = np.ascontiguousarray(counts, dtype=count_dtype(int(counts.max(initial=0))))

    @property
    def total(self) -> int:
        """Total mass = number of ordered triples = value of the sum at 0."""
        return int(self.counts.sum())

    def __len__(self) -> int:
        return int(self.low.size)

    @property
    def max_value(self) -> int:
        """The largest value, 0 for an empty table."""
        return int(self.high[-1]) << 32 | int(self.low[-1]) if len(self) else 0

    @property
    def support(self) -> np.ndarray:
        """All values as one new int64 array."""
        return self._values(0, len(self), np.empty(len(self), np.int64))

    def blocks(self):
        """(int64 values, counts) of BUCKET entries at a time; the values fill one reused block."""
        n, step = len(self), BUCKET
        block = np.empty(min(n, step), np.int64)
        for i in range(0, n, step):
            yield self._values(i, min(i + step, n), block), self.counts[i : i + step]

    def _segment(self, s: int) -> tuple[int, int]:
        """The entries starts[s] <= i < end of segment s."""
        end = int(self.starts[s + 1]) if s + 1 < self.starts.size else len(self)
        return int(self.starts[s]), end

    def _values(self, i: int, j: int, out: np.ndarray) -> np.ndarray:
        """The values of entries i <= k < j in out[: j - i], one segment at a time."""
        out = out[: j - i]
        out[:] = self.low[i:j]
        for s in range(max(int(np.searchsorted(self.starts, i, "right")) - 1, 0), self.starts.size):
            a, b = self._segment(s)
            if a >= j:
                break
            out[max(a, i) - i : b - i] += int(self.high[s]) << 32
        return out


def _increasing(low: np.ndarray, starts: np.ndarray) -> bool:
    """Whether the low words increase strictly inside each segment, checked BUCKET entries at a time."""
    for i in range(1, low.size, BUCKET):
        j = min(i + BUCKET, low.size)
        up = low[i:j] > low[i - 1 : j - 1]
        a, b = np.searchsorted(starts, (i, j))
        up[starts[a:b] - i] = True  # a segment's first low word follows the last of a lower high word
        if not up.all():
            return False
    return True


def _mark_segments(hw: np.ndarray, base: int, high: list[int], starts: list[int]) -> None:
    """Append (high word, first index) for each segment that opens in hw, the high words of entries base, base + 1, ....

    The block's first entry opens one unless its word is the last segment's,
    and each later entry whose word differs from the one before opens one.
    """
    if hw.size == 0:
        return
    if not high or high[-1] != hw[0]:
        high.append(int(hw[0]))
        starts.append(base)
    opens = np.flatnonzero(hw[1:] != hw[:-1]) + 1
    high.extend(hw[opens].tolist())
    starts.extend((opens + base).tolist())


class _TableFill:
    """A table of at most n entries filled bucket by bucket in the split layout, its counts in `count_dtype(top)`.

    `top` bounds every count put.  Each bucket's values go in after the
    last bucket's, as their low words and the segments their high words
    open; values out of order or outside [0, 2^63) give a segment index or
    low words that `WeightTable` rejects.
    """

    def __init__(self, n: int, top: int):
        self.low, self.high, self.starts, self.n = np.empty(n, np.uint32), [], [], 0
        self.counts = np.empty(n, count_dtype(top))

    def put(self, values: np.ndarray, counts: np.ndarray) -> None:
        i, j = self.n, self.n + values.size
        self.low[i:j] = values  # the low 32 bits
        _mark_segments(values >> 32, i, self.high, self.starts)
        self.counts[i:j] = counts
        self.n = j

    def table(self, role: str) -> WeightTable:
        """The table of the entries put so far, its arrays trimmed in place."""
        self.low.resize(self.n, refcheck=False)
        self.counts.resize(self.n, refcheck=False)
        return WeightTable.from_split(role, self.low, self.high, self.starts, self.counts)


def _key_bits(lo: int, hi: int, top_count: int) -> int:
    """Bits a count up to `top_count` takes below values in [lo, hi] in one int64 key; the one key-width check."""
    sh = top_count.bit_length()
    if lo < 0:
        raise ValueError(f"outer sum values must be non-negative, got {lo}")
    if hi >> (63 - sh):
        raise CapacityError(f"values to {hi} do not fit an int64 key beside {sh} count bits")
    return sh


def _outer_sum(x: np.ndarray, cx: np.ndarray, y: np.ndarray, cy: np.ndarray, role: str) -> WeightTable:
    """The table, labelled `role`, of the distinct x_i + y_j and the summed cx_i * cy_j of each.

    x and y are sorted non-negative int64 arrays, whose values may repeat,
    and cx, cy their positive integer counts.  The |x| |y| raw sums
    are never formed at once.  The value axis is cut into ranges of at most
    BUCKET raw sums, each range's width scaled from the fill of the one
    before, and `searchsorted` gives each row's part lo_i <= j < hi_i of a
    range.  x is
    the shorter side, so a range costs O(|x|) beyond its raw sums.  Each raw
    sum becomes the int64 key (x_i + y_j) << sh | cx_i * cy_j, and `_bucket`
    reduces a range's keys to int64 values and counts in the bucket's
    scratch, which `_TableFill` puts into the output: preallocated at one
    entry per raw sum, its counts in the `count_dtype` of their
    `count_bound`, and trimmed in place at the end.  Here alone are an outer
    sum's limits checked, before anything is allocated: `_key_bits` fits
    the value range beside one product cx_i * cy_j, and `table_bytes` of
    that size and bound is reserved against the memory budget.  Both
    sides are shifted once.  When one side's counts are all 1, the other side's
    counts are or-ed into its shifted values, and each key's count arrives
    with its terms; only when neither side is all ones does `_bucket`
    multiply cx_i * cy_j per key.  A single value with more than BUCKET raw
    sums is one bucket.
    """
    if x.size > y.size:
        x, cx, y, cy = y, cy, x, cx  # each bucket costs O(rows): take the shorter side
    raw = x.size * y.size
    bottom, top = (int(x[0]) + int(y[0]), int(x[-1]) + int(y[-1])) if raw else (0, 0)
    sh = _key_bits(bottom, top, int(cx.max(initial=0)) * int(cy.max(initial=0)))
    bound = count_bound(int(cx.sum()), _largest_run(x, cx), int(cy.sum()), _largest_run(y, cy))
    reserve(table_bytes(x.size, y.size, bound), f"table {role!r} ({x.size} x {y.size})")
    fill = _TableFill(raw, bound)
    if raw == 0:
        return fill.table(role)
    xs, ys, counts = x << sh, y << sh, None
    if (cy == 1).all():
        xs |= cx  # each key's count is its row's
    elif (cx == 1).all():
        ys |= cy  # each key's count is its gathered entry's
    else:
        counts = cx.astype(fill.counts.dtype, copy=False), cy.astype(fill.counts.dtype, copy=False)
    scratch = _scratch(min(raw, BUCKET), fill.counts.dtype)
    target, span = BUCKET - BUCKET // 16, top + 1 - bottom
    width = span if raw <= BUCKET else max(1, span * target // raw)
    e0, lo = bottom, np.zeros(x.size, np.int64)
    while e0 <= top:
        e1 = min(e0 + width, top + 1)
        hi = np.searchsorted(y, e1 - x)  # row i's sums below e1 are x_i + y[:hi_i]
        m = int((hi - lo).sum())
        if m > BUCKET and e1 - e0 > 1:
            width = max(1, (e1 - e0) * target // m)
            continue
        if m > scratch[0].size:
            scratch = _scratch(m, fill.counts.dtype)
        if m:
            fill.put(*_bucket(xs, ys, counts, lo, hi, sh, [a[:m] for a in scratch]))
        width = max(1, (e1 - e0) * target // m) if m else 2 * (e1 - e0)
        e0, lo = e1, hi
    return fill.table(role)


def _scratch(m: int, dtype) -> list[np.ndarray]:
    """The reused per-bucket arrays: int64 keys, run-end flags, the steps 0, 1, ..., m - 1, int64 values and `dtype` counts."""
    return [np.empty(m, np.int64), np.empty(m, bool), np.arange(m), np.empty(m, np.int64), np.empty(m, dtype)]


def _bucket(xs, ys, counts, lo, hi, sh: int, scratch) -> tuple[np.ndarray, np.ndarray]:
    """Reduce the m keys over lo_i <= j < hi_i to d distinct values and their counts, views of the scratch.

    xs and ys are x << sh and y << sh, one of them already or-ed with its
    counts when `counts` is None; otherwise `counts` is (cx, cy) in the
    count scratch's dtype.  `scratch` is the m-entry key, flag, step, value
    and count arrays.  Row i's part takes
    the y indices lo_i, lo_i + 1, ..., so the indices are the steps plus,
    repeated over the row, lo_i less the row's head offset.  A key is ys at
    its index plus the repeated row's xs, with the products cx_i * cy_j
    or-ed in when `counts` is given.  After the in-place sort,
    equal values form runs, and equal keys are identical pairs, so the sort
    need not be stable.  Each run's end gives the run's value and its own
    count; the counts of the other entries, rare in these
    tables, are added to their runs with one `np.add.at`.  Every count
    product and run sum is at most the `count_bound` that sized the count
    dtype, so it holds them exactly.  The largest allocation is one repeat of
    a row quantity or the run ends, 8m bytes.
    """
    key, last, step, sup, cnt = scratch
    m = key.size
    lens = hi - lo
    rows = np.flatnonzero(lens)
    lens = lens[rows]
    idx = np.add(step, np.repeat(lo[rows] - (np.cumsum(lens) - lens), lens), out=sup)
    np.take(ys, idx, out=key, mode="clip")
    key += np.repeat(xs[rows], lens)
    if counts is not None:
        cx, cy = counts
        np.take(cy, idx, out=cnt, mode="clip")
        cnt *= np.repeat(cx[rows], lens)
        key |= cnt
    key.sort()
    val = np.right_shift(key, sh, out=sup)
    last[-1] = True
    np.not_equal(val[1:], val[:-1], out=last[:-1])
    ends = np.flatnonzero(last)
    d, mask = ends.size, (1 << sh) - 1
    run = np.take(key, ends, out=sup[:d], mode="clip")
    cnt[:d] = run  # an int16 or int32 cnt keeps each key's low 16 or 32 bits, and the count is in its low sh <= 15 or 31
    cnt[:d] &= mask
    run >>= sh
    if d < m:
        inner = np.flatnonzero(np.logical_not(last, out=last))
        rest = (key[inner] & mask).astype(cnt.dtype)  # an add.at that casts takes larger buffers
        np.add.at(cnt[:d], np.searchsorted(ends, inner), rest)
    return run, cnt[:d]


def build_weight_table(params: Params, role: str) -> WeightTable:
    """Aggregate T over the requested family into value -> multiplicity.

    The two smooth coordinates are folded first (pair-sum support with
    counts), then crossed with the leading cube range, which keeps the
    intermediate at |leading| * |pair support| instead of |leading| * |smooth|^2.
    Each fold is an outer sum, which holds its own estimate against the
    memory budget; an empty leading range or smooth box gives an empty table.
    """
    if role not in ("a", "b"):
        raise ValueError(f"role must be 'a' or 'b', got {role!r}")
    family = params.bulk if role == "a" else params.thin
    pair_sup, pair_cnt = smooth_cube_pairs(family.smooth_box, params.R)
    cubes = np.arange(family.leading.start, family.leading.stop, dtype=np.int64) ** 3
    return _outer_sum(cubes, np.ones(cubes.size, np.int64), pair_sup, pair_cnt, role)


def smooth_cube_pairs(box: int, R: int) -> tuple[np.ndarray, np.ndarray]:
    """a^3 + b^3 over R-smooth a, b in [1, box]: the distinct sums and the number of ordered pairs giving each."""
    c = enumerate_smooth(box, R) ** 3
    ones = np.ones(c.size, np.int64)
    pairs = _outer_sum(c, ones, c, ones, "pairs")
    return pairs.support, pairs.counts


def table_bytes(leading: int, pairs: int, top: int) -> int:
    """Upper bound on the bytes `_outer_sum` holds for a `leading` x `pairs` table whose `count_bound` is `top`, inputs included.

    The output is preallocated at one uint32 low word and one
    `count_dtype(top)` count per raw sum: the largest count, not the total,
    sizes it, so an entry takes 4 + 2 = 6 bytes while `top` is below 2^15,
    as at P = 10^4, 8 below 2^31 and 12 beyond.  A bucket of m <= BUCKET
    raw sums adds 34 bytes per entry and one count: the reused key, flag,
    step and value arrays (25) and count scratch, and at most 9m bytes of
    temporaries, one repeat of a row quantity or the run ends (8m) or, as
    the output takes the bucket, its high words and their change flags
    (9m), plus 8 KiB for the buffers of `np.add.at`.  Once the output is
    trimmed, `WeightTable` checks its order one BUCKET block at a time, in
    less than a bucket's scratch.  The inputs with their counts and their
    shifted copies take 24 bytes per entry, and the per-row cut arrays 40
    bytes per row of the shorter side.
    The fixed per-call term, 5 KiB fitted to tracemalloc in a fresh
    process, covers what does not scale with the entries: the array headers
    and numpy's first-use state, which the narrow count loops enlarge.
    """
    raw, width = leading * pairs, count_dtype(top).itemsize
    per_entry = 24 * (leading + pairs) + 40 * min(leading, pairs)
    return (4 + width) * raw + (34 + width) * min(raw, BUCKET) + 2**13 + per_entry + 5 * 2**10


# -- serialization -----------------------------------------------------------


def table_digest(table: WeightTable) -> str:
    """sha256 of the role, the values as int64, then the counts as int64, each fed BUCKET at a time, cut to 16 hex digits.

    Hashing at a fixed width keeps a table's digest whatever layout and
    count dtype store it.  hashlib, which loads OpenSSL, is imported here.
    """
    import hashlib
    h = hashlib.sha256()
    h.update(table.role.encode())
    for values, _ in table.blocks():
        h.update(values)
    n = len(table)
    block = np.empty(min(n, BUCKET), np.int64)
    for i in range(0, n, BUCKET):
        part = block[: min(BUCKET, n - i)]
        part[:] = table.counts[i : i + BUCKET]
        h.update(part)
    return h.hexdigest()[:16]


def _pairs(table: WeightTable, dtype):
    """The table's (value, count) rows, BUCKET at a time, interleaved in one reused two-column block."""
    block = np.empty((min(len(table), BUCKET), 2), dtype)
    for values, counts in table.blocks():
        part = block[: values.size]
        part[:, 0] = values
        part[:, 1] = counts
        yield part


def save_binary(table: WeightTable, path: str | Path, meta: dict | None = None) -> None:
    """MAGIC, role byte, u64 pair count, then (u64 value, u64 count) pairs, interleaved BUCKET pairs at a time."""
    path = Path(path)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(table.role.encode("ascii"))
        f.write(struct.pack("<Q", len(table)))
        for part in _pairs(table, "<u8"):
            f.write(part)
    _write_sidecar(table, path, "WCL1", meta)


def _write_sidecar(table: WeightTable, path: Path, fmt: str, meta: dict | None) -> None:
    sidecar = {"format": fmt, "role": table.role, "pairs": len(table), "digest": table_digest(table)}
    sidecar.update(meta or {})
    path.with_suffix(path.suffix + ".meta.json").write_text(json.dumps(sidecar, indent=2))


def save_csv(table: WeightTable, path: str | Path, meta: dict | None = None) -> None:
    """Header ``value,multiplicity``, then one line per pair; the sidecar is as for `save_binary`.

    Each block of BUCKET pairs is formatted from one `tolist`, so memory
    stays at one block whatever the table's length.
    """
    path = Path(path)
    with open(path, "w") as f:
        f.write("value,multiplicity\n")
        for part in _pairs(table, np.int64):
            f.write("%d,%d\n" * len(part) % tuple(part.ravel().tolist()))
    _write_sidecar(table, path, "CSV", meta)
