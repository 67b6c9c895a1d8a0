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
product.  Each run of equal values writes its end's value and count
straight into the preallocated output, and one `np.add.at` adds the counts
of the rare repeated values.

Counts are stored in `count_dtype(total)`: int32 while the table's total
mass h(0) is below 2^31, else int64.  No count, product or run sum exceeds
the total, and every reader widens before it computes.  At P = 10^4 the
bulk table has 11.4M entries of total mass 22 445 000, and the build holds
the 12-byte output entries (int64 value, int32 count) plus one bucket;
`table_bytes` is the capacity guard's estimate of it.

Disk formats: a little-endian binary record (magic WCL1) and a CSV with
header ``value,multiplicity``; a JSON sidecar carries provenance fields.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .cubesieve import reserve
from .params import Params
from .smooth import enumerate_smooth

MAGIC = b"WCL1"

# Raw sums one bucket of `_outer_sum` gathers at most; also the entries per
# block that `save_binary` and `load_binary` move through memory at a time.
BUCKET = 1 << 16


def count_dtype(total: int) -> np.dtype:
    """The dtype of a table's counts: int32 while its total mass fits int32, else int64.

    Every count, and every product or run sum that `_bucket` forms, is at
    most the total, so the narrow type holds them all exactly.
    """
    return np.dtype(np.int32 if total < 2**31 else np.int64)


@dataclass
class WeightTable:
    """Sorted int64 support + positive multiplicities, stored in `count_dtype` of their sum, for one role."""

    role: str
    support: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.support = np.ascontiguousarray(self.support, dtype=np.int64)
        counts = np.asarray(self.counts)
        if counts.dtype != np.int32:
            counts = counts.astype(np.int64, copy=False)
        if self.support.shape != counts.shape:
            raise ValueError("support and counts must be parallel")
        if not (self.support[1:] > self.support[:-1]).all():
            raise ValueError("support must be strictly increasing")
        if (counts <= 0).any():
            raise ValueError("multiplicities must be positive")
        self.counts = np.ascontiguousarray(counts, dtype=count_dtype(int(counts.sum())))

    @property
    def total(self) -> int:
        """Total mass = number of ordered triples = value of the sum at 0."""
        return int(self.counts.sum())

    def __len__(self) -> int:
        return int(self.support.size)

    def multiplicity(self, v: int) -> int:
        i = int(np.searchsorted(self.support, v))
        if i < self.support.size and int(self.support[i]) == v:
            return int(self.counts[i])
        return 0

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.support.tolist(), self.counts.tolist()))


def _key_bits(lo: int, hi: int, top_count: int) -> int:
    """Bits a count up to `top_count` takes below values in [lo, hi] in one int64 key."""
    sh = top_count.bit_length()
    if lo < 0 or hi >> (63 - sh):
        raise OverflowError(f"values in [{lo}, {hi}] do not fit an int64 key beside {sh} count bits")
    return sh


def _outer_sum(x: np.ndarray, cx: np.ndarray, y: np.ndarray, cy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct x_i + y_j in increasing order and the summed cx_i * cy_j of each.

    x and y are sorted non-negative int64 arrays, whose values may repeat,
    and cx, cy their positive int32 or int64 counts.  The |x| |y| raw sums
    are never formed at once.  The value axis is cut into ranges of at most
    BUCKET raw sums, each range's width scaled from the fill of the one
    before, and `searchsorted` gives each row's part lo_i <= j < hi_i of a
    range.  x is
    the shorter side, so a range costs O(|x|) beyond its raw sums.  Each raw
    sum becomes the int64 key (x_i + y_j) << sh | cx_i * cy_j, and `_bucket`
    reduces a range's keys into the output, which is preallocated at one
    entry per raw sum, its counts in the `count_dtype` of the total
    sum(cx) sum(cy), and trimmed in place at the end.  Both sides are
    shifted once.  When one side's counts are all 1, the other side's
    counts are or-ed into its shifted values, and each key's count arrives
    with its terms; only when neither side is all ones does `_bucket`
    multiply cx_i * cy_j per key.  A single value with more than BUCKET raw
    sums is one bucket.
    """
    if x.size > y.size:
        x, cx, y, cy = y, cy, x, cx  # each bucket costs O(rows): take the shorter side
    raw = x.size * y.size
    sup, cnt = np.empty(raw, np.int64), np.empty(raw, count_dtype(int(cx.sum()) * int(cy.sum())))
    if raw == 0:
        return sup, cnt
    bottom, top = int(x[0]) + int(y[0]), int(x[-1]) + int(y[-1])
    sh = _key_bits(bottom, top, int(cx.max()) * int(cy.max()))
    xs, ys, counts = x << sh, y << sh, None
    if (cy == 1).all():
        xs |= cx  # each key's count is its row's
    elif (cx == 1).all():
        ys |= cy  # each key's count is its gathered entry's
    else:
        counts = cx.astype(cnt.dtype, copy=False), cy.astype(cnt.dtype, copy=False)
    scratch = _scratch(min(raw, BUCKET))
    target, span = BUCKET - BUCKET // 16, top + 1 - bottom
    width = span if raw <= BUCKET else max(1, span * target // raw)
    e0, pos, lo = bottom, 0, np.zeros(x.size, np.int64)
    while e0 <= top:
        e1 = min(e0 + width, top + 1)
        hi = np.searchsorted(y, e1 - x)  # row i's sums below e1 are x_i + y[:hi_i]
        m = int((hi - lo).sum())
        if m > BUCKET and e1 - e0 > 1:
            width = max(1, (e1 - e0) * target // m)
            continue
        if m > scratch[0].size:
            scratch = _scratch(m)
        if m:
            pos += _bucket(xs, ys, counts, lo, hi, sh, [a[:m] for a in scratch], sup[pos:], cnt[pos:])
        width = max(1, (e1 - e0) * target // m) if m else 2 * (e1 - e0)
        e0, lo = e1, hi
    sup.resize(pos, refcheck=False)
    cnt.resize(pos, refcheck=False)
    return sup, cnt


def _scratch(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reused per-bucket arrays: int64 keys, run-end flags and the steps 0, 1, ..., m - 1."""
    return np.empty(m, np.int64), np.empty(m, bool), np.arange(m)


def _bucket(xs, ys, counts, lo, hi, sh: int, scratch, sup: np.ndarray, cnt: np.ndarray) -> int:
    """Reduce the m keys over lo_i <= j < hi_i to d distinct values in sup[:d], cnt[:d]; return d.

    xs and ys are x << sh and y << sh, one of them already or-ed with its
    counts when `counts` is None; otherwise `counts` is (cx, cy) in cnt's
    dtype.  `scratch` is the m-entry key, flag and step arrays, and sup[:m],
    cnt[:m] are free scratch, since m raw sums remain.  Row i's part takes
    the y indices lo_i, lo_i + 1, ..., so the indices are the steps plus,
    repeated over the row, lo_i less the row's head offset.  A key is ys at
    its index plus the repeated row's xs, with the products cx_i * cy_j
    or-ed in when `counts` is given.  After the in-place sort,
    equal values form runs, and equal keys are identical pairs, so the sort
    need not be stable.  The value and count at each run's end are written
    straight to the output; the counts of the other entries, rare in these
    tables, are added to their runs with one `np.add.at`.  Every count
    product and run sum is at most the table's total, so cnt's dtype holds
    it exactly.  The largest allocation is one repeat of a row quantity or
    the run ends, 8m bytes.
    """
    key, last, step = scratch
    m = key.size
    lens = hi - lo
    rows = np.flatnonzero(lens)
    lens = lens[rows]
    idx = np.add(step, np.repeat(lo[rows] - (np.cumsum(lens) - lens), lens), out=sup[:m])
    np.take(ys, idx, out=key, mode="clip")
    key += np.repeat(xs[rows], lens)
    if counts is not None:
        cx, cy = counts
        c = np.take(cy, idx, out=cnt[:m], mode="clip")
        c *= np.repeat(cx[rows], lens)
        key |= c
    key.sort()
    val = np.right_shift(key, sh, out=sup[:m])
    last[-1] = True
    np.not_equal(val[1:], val[:-1], out=last[:-1])
    ends = np.flatnonzero(last)
    d, mask = ends.size, (1 << sh) - 1
    run = np.take(key, ends, out=sup[:d], mode="clip")
    cnt[:d] = run  # an int32 cnt keeps each key's low 32 bits, and the count is in its low sh <= 31
    cnt[:d] &= mask
    run >>= sh
    if d < m:
        inner = np.flatnonzero(np.logical_not(last, out=last))
        rest = (key[inner] & mask).astype(cnt.dtype)  # an add.at that casts takes larger buffers
        np.add.at(cnt[:d], np.searchsorted(ends, inner), rest)
    return d


def build_weight_table(params: Params, role: str) -> WeightTable:
    """Aggregate T over the requested family into value -> multiplicity.

    The two smooth coordinates are folded first (pair-sum support with
    counts), then crossed with the leading cube range, which keeps the
    intermediate at |leading| * |pair support| instead of |leading| * |smooth|^2.
    """
    if role not in ("a", "b"):
        raise ValueError(f"role must be 'a' or 'b', got {role!r}")
    family = params.bulk if role == "a" else params.thin
    leading = family.leading
    if len(leading) == 0 or family.smooth_box < 1:
        return WeightTable(role=role, support=np.empty(0, np.int64), counts=np.empty(0, np.int64))

    pair_sup, pair_cnt = smooth_cube_pairs(family.smooth_box, params.R)
    total = len(leading) * int(pair_cnt.sum())
    reserve(table_bytes(len(leading), pair_sup.size, total), f"weight table role={role} ({len(leading)} x {pair_sup.size})")
    cubes = np.arange(leading.start, leading.stop, dtype=np.int64) ** 3
    return WeightTable(role, *_outer_sum(cubes, np.ones(cubes.size, np.int64), pair_sup, pair_cnt))


def smooth_cube_pairs(box: int, R: int) -> tuple[np.ndarray, np.ndarray]:
    """a^3 + b^3 over R-smooth a, b in [1, box]: the distinct sums and the number of ordered pairs giving each."""
    c = enumerate_smooth(box, R) ** 3
    ones = np.ones(c.size, np.int64)
    return _outer_sum(c, ones, c, ones)


def table_bytes(leading: int, pairs: int, total: int) -> int:
    """Upper bound on the bytes `_outer_sum` holds for a `leading` x `pairs` table of mass `total`, inputs included.

    The output is preallocated at one int64 value and one
    `count_dtype(total)` count per raw sum: 12 bytes while the total fits
    int32, else 16.  A bucket of m <= BUCKET raw sums adds 25 bytes per
    entry: the reused key, flag and step arrays (17) and one 8m-byte repeat
    of a row quantity or of the run ends, plus 8 KiB for the buffers of
    `np.add.at`.  Once the output is trimmed to its d entries, checking its
    order takes one byte per entry.  The inputs with their counts and their
    shifted copies take 24 bytes per entry, and the per-row cut arrays 40
    bytes per row of the shorter side.
    The fixed per-call term, 5 KiB fitted to tracemalloc in a fresh
    process, covers what does not scale with the entries: the array headers
    and numpy's first-use state, which the int32 count loops enlarge.
    """
    raw = leading * pairs
    per_entry = 24 * (leading + pairs) + 40 * min(leading, pairs)
    out = (8 + count_dtype(total).itemsize) * raw
    return out + max(25 * min(raw, BUCKET) + 2**13, raw) + per_entry + 5 * 2**10


# -- serialization -----------------------------------------------------------


def table_digest(table: WeightTable) -> str:
    """sha256 of the role, the support, then the counts as int64 (fed BUCKET at a time), cut to 16 hex digits.

    Hashing the counts at a fixed width keeps a table's digest whatever
    dtype `count_dtype` stores them in.
    """
    h = hashlib.sha256()
    h.update(table.role.encode())
    h.update(table.support)
    n = len(table)
    block = np.empty(min(n, BUCKET), np.int64)
    for i in range(0, n, BUCKET):
        part = block[: min(BUCKET, n - i)]
        part[:] = table.counts[i : i + BUCKET]
        h.update(part)
    return h.hexdigest()[:16]


def _pairs(table: WeightTable, dtype):
    """The table's (value, count) rows, BUCKET at a time, interleaved in one reused two-column block."""
    n = len(table)
    block = np.empty((min(n, BUCKET), 2), dtype)
    for i in range(0, n, BUCKET):
        part = block[: min(BUCKET, n - i)]
        part[:, 0] = table.support[i : i + BUCKET]
        part[:, 1] = table.counts[i : i + BUCKET]
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


class _CountFill:
    """A loader's counts, filled block by block in `count_dtype` of the running total.

    The array starts as int32 and widens to int64 once, when the total
    reaches 2^31.  A count outside [1, 2^31) widens it too: in a valid
    table such a count alone takes the total past int32, and an invalid
    one reaches `WeightTable` unwrapped, which rejects it.
    """

    def __init__(self, n: int):
        self.array, self.total = np.empty(n, count_dtype(0)), 0

    def put(self, i: int, block: np.ndarray) -> None:
        if self.array.dtype != np.int64:
            self.total += int(block.sum())  # exact: the block's counts are below 2^31 unless it widens
            if count_dtype(self.total) == np.int64 or not 1 <= block.min() <= block.max() < 2**31:
                self.array = self.array.astype(np.int64)
        self.array[i : i + block.size] = block


def load_binary(path: str | Path) -> WeightTable:
    """Read a `save_binary` record BUCKET pairs at a time into the table's own arrays."""
    path = Path(path)
    with open(path, "rb") as f:
        head = f.read(13)
        if len(head) < 13:
            raise ValueError(f"{path} is shorter than its 13-byte header")
        if head[:4] != MAGIC:
            raise ValueError(f"{path} has bad magic {head[:4]!r}")
        role = head[4:5].decode("ascii")
        (npairs,) = struct.unpack_from("<Q", head, 5)
        if path.stat().st_size < 13 + 16 * npairs:
            raise ValueError(f"{path} is shorter than its {npairs} pairs")
        support, counts = np.empty(npairs, np.int64), _CountFill(npairs)
        block = np.empty((min(npairs, BUCKET), 2), dtype="<u8")
        for i in range(0, npairs, BUCKET):
            part = block[: min(BUCKET, npairs - i)]
            f.readinto(part)
            support[i : i + BUCKET] = part[:, 0]
            counts.put(i, part[:, 1])
    return WeightTable(role=role, support=support, counts=counts.array)


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


def load_csv(path: str | Path, role: str = "a") -> WeightTable:
    """Parse a `save_csv` file BUCKET lines at a time into the table's own arrays.

    A first pass counts the lines in binary blocks, which bounds the pairs
    and sizes the arrays; blank lines are skipped.
    """
    path = Path(path)
    with open(path, "rb") as f:
        lines = 1 + sum(block.count(b"\n") for block in iter(lambda: f.read(1 << 20), b""))
    support, counts = np.empty(lines, np.int64), _CountFill(lines)
    n = 0
    with open(path) as f:
        header = f.readline().strip()
        if header != "value,multiplicity":
            raise ValueError(f"bad CSV header {header!r}")
        while block := list(islice(f, BUCKET)):
            rows = [line for line in block if not line.isspace()]
            if not rows:
                continue
            part = np.loadtxt(rows, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
            if part.shape[1] != 2:
                raise ValueError(f"{path}: expected value,multiplicity rows, got {part.shape[1]} fields")
            support[n : n + len(part)] = part[:, 0]
            counts.put(n, part[:, 1])
            n += len(part)
    return WeightTable(role=role, support=support[:n], counts=counts.array[:n])
