"""Weighted supports of T(y) = y1^3 + y2^3 + y3^3 over the two cube families.

Role "a" (bulk): y1 in (P/2, P], y2, y3 R-smooth in [1, P].
Role "b" (thin): y1 in (H1, H2], y2, y3 R-smooth in [1, floor(H3)].

The table maps each attained value v = T(y) to its multiplicity, i.e. the
number of ordered triples producing it.  These multiplicities are the
coefficients of the quadratic generating sums evaluated in generating.py.

Both folds (the smooth pair sums, then the leading cube against them) go
through one exact aggregation: each (value, count) pair is packed into an
int64 key, the keys are sorted in place, and the counts of each run of
equal values are summed.  At P = 10^4 the bulk table has 11.4M entries and
the build holds 32 bytes per entry at its peak; `table_bytes` is the
capacity guard's estimate of it.

Disk formats: a little-endian binary record (magic WCL1) and a CSV with
header ``value,multiplicity``; a JSON sidecar carries provenance fields.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cubesieve import CapacityError, memory_budget
from .params import Params
from .smooth import enumerate_smooth

MAGIC = b"WCL1"


@dataclass
class WeightTable:
    """Sorted support + positive multiplicities for one role."""

    role: str
    support: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.support.shape != self.counts.shape:
            raise ValueError("support and counts must be parallel")
        if self.support.size and (np.diff(self.support) <= 0).any():
            raise ValueError("support must be strictly increasing")
        if (self.counts <= 0).any():
            raise ValueError("multiplicities must be positive")

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


def _aggregate(values: np.ndarray, counts) -> tuple[np.ndarray, np.ndarray]:
    """Distinct `values` in increasing order and the summed `counts` of each.

    `values` is a non-negative int64 array that this call overwrites;
    `counts` is positive and broadcasts against it.  Each pair is packed into
    one int64 key, value above count, so a single in-place sort orders the
    pairs by value, and equal values form runs that `np.add.reduceat` sums.
    Equal keys are identical pairs, so the sort need not be stable.  At most
    32 bytes per entry are live at once: the key, the unpacked counts, the
    run starts and the sums.
    """
    if values.size == 0:
        return values.reshape(-1), np.zeros(0, np.int64)
    sh = int(np.max(counts)).bit_length()
    lo, hi = int(values.min()), int(values.max())
    if lo < 0 or hi >> (63 - sh):
        raise OverflowError(f"values in [{lo}, {hi}] do not fit an int64 key beside {sh} count bits")
    values <<= sh
    values |= counts
    key = values.reshape(-1)
    key.sort()
    cnt = key & ((1 << sh) - 1)
    key >>= sh
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    sums = np.add.reduceat(cnt, starts)
    del cnt
    return key[starts], sums


def build_weight_table(params: Params, role: str, budget: int | None = None) -> WeightTable:
    """Aggregate T over the requested family into value -> multiplicity.

    The two smooth coordinates are folded first (pair-sum support with
    counts), then crossed with the leading cube range, which keeps the
    intermediate at |leading| * |pair support| instead of |leading| * |smooth|^2.
    """
    if role not in ("a", "b"):
        raise ValueError(f"role must be 'a' or 'b', got {role!r}")
    if budget is None:
        budget = memory_budget()
    if role == "a":
        leading = params.leading_range_main()
        box = params.P
    else:
        leading = params.leading_range_thin()
        box = int(np.floor(params.H3))
    if len(leading) == 0 or box < 1:
        return WeightTable(role=role, support=np.empty(0, np.int64), counts=np.empty(0, np.int64))

    pair_sup, pair_cnt = smooth_cube_pairs(box, params.R)
    need = table_bytes(len(leading), pair_sup.size)
    if need > budget:
        raise CapacityError(
            f"weight table role={role} needs ~{need} bytes (|leading|={len(leading)}, "
            f"|pairs|={pair_sup.size}) > budget {budget}"
        )
    cubes = np.arange(leading.start, leading.stop, dtype=np.int64) ** 3
    return WeightTable(role, *_aggregate(np.add.outer(cubes, pair_sup), pair_cnt))


def smooth_cube_pairs(box: int, R: int) -> tuple[np.ndarray, np.ndarray]:
    """a^3 + b^3 over R-smooth a, b in [1, box]: the distinct sums and the number of ordered pairs giving each."""
    c = enumerate_smooth(box, R).members ** 3
    return _aggregate(np.add.outer(c, c), 1)


def table_bytes(leading: int, pairs: int) -> int:
    """Upper bound on the bytes `build_weight_table` holds once the pair table is built.

    `_aggregate` peaks at 32 bytes per (leading cube, pair sum) entry.  The
    pair table (16 bytes per pair) and the leading cubes (8 bytes each) stay
    live beside it; 8 more bytes per leading value cover the interpreter's
    own small allocations.
    """
    return 32 * leading * pairs + 16 * (pairs + leading)


# -- serialization -----------------------------------------------------------


def table_digest(table: WeightTable) -> str:
    h = hashlib.sha256()
    h.update(table.role.encode())
    h.update(table.support.tobytes())
    h.update(table.counts.tobytes())
    return h.hexdigest()[:16]


def save_binary(table: WeightTable, path: str | Path, meta: dict | None = None) -> None:
    """MAGIC, role byte, u64 pair count, then (u64 value, u64 count) pairs."""
    path = Path(path)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(table.role.encode("ascii"))
        f.write(struct.pack("<Q", len(table)))
        body = np.empty((len(table), 2), dtype="<u8")
        body[:, 0] = table.support
        body[:, 1] = table.counts
        f.write(body.tobytes())
    sidecar = {"format": "WCL1", "role": table.role, "pairs": len(table), "digest": table_digest(table)}
    sidecar.update(meta or {})
    path.with_suffix(path.suffix + ".meta.json").write_text(json.dumps(sidecar, indent=2))


def load_binary(path: str | Path) -> WeightTable:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"bad magic {raw[:4]!r}")
    role = raw[4:5].decode("ascii")
    (npairs,) = struct.unpack_from("<Q", raw, 5)
    body = np.frombuffer(raw, dtype="<u8", count=2 * npairs, offset=13).reshape(npairs, 2)
    return WeightTable(role=role, support=body[:, 0].astype(np.int64), counts=body[:, 1].astype(np.int64))


def save_csv(table: WeightTable, path: str | Path) -> None:
    with open(path, "w") as f:
        f.write("value,multiplicity\n")
        for v, c in zip(table.support.tolist(), table.counts.tolist()):
            f.write(f"{v},{c}\n")


def load_csv(path: str | Path, role: str = "a") -> WeightTable:
    values, counts = [], []
    with open(path) as f:
        header = f.readline().strip()
        if header != "value,multiplicity":
            raise ValueError(f"bad CSV header {header!r}")
        for line in f:
            if not line.strip():
                continue
            v, c = line.split(",")
            values.append(int(v))
            counts.append(int(c))
    return WeightTable(role=role, support=np.array(values, np.int64), counts=np.array(counts, np.int64))
