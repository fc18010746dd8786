"""Problem instances, generators for the supported problem classes, and
bit-exact JSON serialization.

The file format is JSON with explicit integer arrays: `version`, `n`, `m`,
`mats` (m x n x n), `costs`, optional `prime`, and a free-form `meta` object.
Integer instances (for the multi-prime rational pipeline) simply omit
`prime`; 2x2-partitioned instances replace `mats`/`costs` by the assembled
`blocks` matrix (2n x 2n) plus `block_costs` (n x n).  Absent bipartite cells
are encoded by omission, never by a zero cost: cost 0 is a legal weight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, FormatError, NonPrimeError
from .field_linalg import DEFAULT_PRIME, FieldMatrix, PrimeModulus, mod_matmul

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Instance:
    """A costed symbolic matrix sum_k A_k x_k t^{c_k} over GF(p)."""

    modulus: PrimeModulus
    n: int
    m: int
    mats: tuple[FieldMatrix, ...]
    costs: tuple[int, ...]
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DimensionMismatchError("need n >= 1 and m >= 1")
        if len(self.mats) != self.m or len(self.costs) != self.m:
            raise DimensionMismatchError("mats/costs length must equal m")
        for mat in self.mats:
            if mat.p != self.modulus.p or mat.data.shape != (self.n, self.n):
                raise DimensionMismatchError("coefficient matrices must be n x n over the modulus")
        object.__setattr__(self, "mats", tuple(self.mats))
        object.__setattr__(self, "costs", tuple(int(c) for c in self.costs))
        object.__setattr__(self, "meta", dict(self.meta))

    @property
    def p(self) -> int:
        return self.modulus.p

    @classmethod
    def from_arrays(cls, p: int, mats: Sequence, costs: Sequence[int],
                    meta: Mapping | None = None) -> "Instance":
        ms = tuple(FieldMatrix(p, m) for m in mats)
        if not ms:
            raise DimensionMismatchError("need at least one coefficient matrix")
        n = ms[0].rows
        return cls(PrimeModulus(p), n, len(ms), ms, tuple(costs), meta or {})

    def stack(self) -> np.ndarray:
        return np.stack([m.data for m in self.mats])


@dataclass(frozen=True)
class IntegerInstance:
    """An instance over the integers, destined for per-prime reduction."""

    n: int
    m: int
    mats: tuple[np.ndarray, ...]
    costs: tuple[int, ...]
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DimensionMismatchError("need n >= 1 and m >= 1")
        if len(self.mats) != self.m or len(self.costs) != self.m:
            raise DimensionMismatchError("mats/costs length must equal m")
        fixed = []
        for mat in self.mats:
            arr = np.array([[int(x) for x in row] for row in np.asarray(mat)], dtype=object)
            if arr.shape != (self.n, self.n):
                raise DimensionMismatchError("integer matrices must be n x n")
            arr.flags.writeable = False
            fixed.append(arr)
        object.__setattr__(self, "mats", tuple(fixed))
        object.__setattr__(self, "costs", tuple(int(c) for c in self.costs))
        object.__setattr__(self, "meta", dict(self.meta))

    @property
    def entry_bound(self) -> int:
        """Largest |entry|, floored at 1; the larger of this and any recorded
        meta bound drives the prime budget."""
        recomputed = max((abs(int(x)) for mat in self.mats for x in mat.ravel()), default=0)
        recorded = int(self.meta.get("entry_bound", 0))
        return max(1, recomputed, recorded)

    def reduce_mod(self, p: int) -> Instance:
        return Instance.from_arrays(p, self.mats, self.costs,
                                    {**self.meta, "reduced_mod": p})


@dataclass(frozen=True)
class PartitionedInstance:
    """n x n grid of 2x2 blocks A_ij with one cost per block position."""

    modulus: PrimeModulus
    n: int
    blocks: tuple[tuple[FieldMatrix, ...], ...]
    costs: tuple[tuple[int, ...], ...]
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatchError("need n >= 1")
        if len(self.blocks) != self.n or len(self.costs) != self.n:
            raise DimensionMismatchError("blocks/costs must be n x n grids")
        rows = []
        for i in range(self.n):
            if len(self.blocks[i]) != self.n or len(self.costs[i]) != self.n:
                raise DimensionMismatchError("blocks/costs must be n x n grids")
            for blk in self.blocks[i]:
                if blk.p != self.modulus.p or blk.data.shape != (2, 2):
                    raise DimensionMismatchError("blocks must be 2 x 2 over the modulus")
            rows.append(tuple(self.blocks[i]))
        object.__setattr__(self, "blocks", tuple(rows))
        object.__setattr__(self, "costs", tuple(tuple(int(c) for c in row) for row in self.costs))
        object.__setattr__(self, "meta", dict(self.meta))

    @property
    def p(self) -> int:
        return self.modulus.p

    def assembled(self) -> np.ndarray:
        """The full 2n x 2n matrix with every block in place."""
        out = np.zeros((2 * self.n, 2 * self.n), dtype=np.int64)
        for i in range(self.n):
            for j in range(self.n):
                out[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = self.blocks[i][j].data
        return out

    def edges(self) -> list[tuple[int, int]]:
        """Positions of nonzero blocks, row-major; the term order of to_instance."""
        return [(i, j) for i in range(self.n) for j in range(self.n)
                if not self.blocks[i][j].is_zero()]


# ---------------------------------------------------------------------------
# Generators


def gen_bipartite(weights: Sequence[Sequence[int | None]], p: int = DEFAULT_PRIME,
                  meta: Mapping | None = None) -> Instance:
    """Weighted bipartite instance: one E_ij term per present cell.

    `weights` is an n x n grid; None marks an absent edge.
    """
    n = len(weights)
    mats, costs = [], []
    for i in range(n):
        if len(weights[i]) != n:
            raise DimensionMismatchError("weight grid must be square")
        for j in range(n):
            w = weights[i][j]
            if w is None:
                continue
            e = np.zeros((n, n), dtype=np.int64)
            e[i, j] = 1
            mats.append(e)
            costs.append(int(w))
    if not mats:
        raise DimensionMismatchError("bipartite instance needs at least one present cell")
    base = {"generator": "bipartite",
            "weights": [[None if w is None else int(w) for w in row] for row in weights]}
    base.update(meta or {})
    return Instance.from_arrays(p, mats, costs, base)


def random_bipartite_weights(n: int, seed: int, cost_range: tuple[int, int] = (-10, 10),
                             density: float = 1.0) -> list[list[int | None]]:
    """A random weight grid; each cell is present independently with `density`."""
    rng = np.random.default_rng(seed)
    lo, hi = cost_range
    grid: list[list[int | None]] = []
    for i in range(n):
        row: list[int | None] = []
        for j in range(n):
            present = density >= 1.0 or rng.random() < density
            row.append(int(rng.integers(lo, hi + 1)) if present else None)
        grid.append(row)
    return grid


def gen_rank1(n: int, m: int, seed: int, cost_range: tuple[int, int] = (-10, 10),
              p: int = DEFAULT_PRIME) -> Instance:
    """Matroid-intersection style instance: every term is an outer product u v^T."""
    if m < n:
        raise DimensionMismatchError("rank-1 instances need m >= n")
    rng = np.random.default_rng(seed)
    lo, hi = cost_range
    mats, costs = [], []
    for _ in range(m):
        u = rng.integers(0, p, size=(n, 1))
        v = rng.integers(0, p, size=(1, n))
        mats.append(mod_matmul(u, v, p))
        costs.append(int(rng.integers(lo, hi + 1)))
    return Instance.from_arrays(p, mats, costs, {"generator": "rank1", "seed": seed})


def gen_dense(n: int, m: int, seed: int, cost_range: tuple[int, int] = (-10, 10),
              p: int = DEFAULT_PRIME) -> Instance:
    """Uniformly random coefficient matrices with random costs."""
    rng = np.random.default_rng(seed)
    lo, hi = cost_range
    mats = [rng.integers(0, p, size=(n, n)) for _ in range(m)]
    costs = [int(rng.integers(lo, hi + 1)) for _ in range(m)]
    return Instance.from_arrays(p, mats, costs, {"generator": "dense", "seed": seed})


def gen_integer(n: int, m: int, seed: int, entry_bound: int = 3,
                cost_range: tuple[int, int] = (-10, 10)) -> IntegerInstance:
    """Random integer instance with entries in [-entry_bound, entry_bound]."""
    rng = np.random.default_rng(seed)
    lo, hi = cost_range
    mats = [rng.integers(-entry_bound, entry_bound + 1, size=(n, n)) for _ in range(m)]
    costs = [int(rng.integers(lo, hi + 1)) for _ in range(m)]
    return IntegerInstance(n, m, tuple(mats), tuple(costs),
                           {"generator": "integer", "seed": seed, "entry_bound": entry_bound})


def _random_block_of_rank(rank: int, rng: np.random.Generator, p: int) -> np.ndarray:
    if rank == 0:
        return np.zeros((2, 2), dtype=np.int64)
    if rank == 1:
        while True:
            u = rng.integers(0, p, size=(2, 1))
            v = rng.integers(0, p, size=(1, 2))
            blk = mod_matmul(u, v, p)
            if np.any(blk):
                return blk
    while True:
        blk = rng.integers(0, p, size=(2, 2))
        det = (int(blk[0, 0]) * int(blk[1, 1]) - int(blk[0, 1]) * int(blk[1, 0])) % p
        if det:
            return blk


def gen_2x2(n: int, seed: int, rank_profile: Sequence[Sequence[int]],
            cost_range: tuple[int, int] = (-10, 10), p: int = DEFAULT_PRIME) -> PartitionedInstance:
    """Partitioned instance whose block (i, j) has the prescribed rank in {0, 1, 2}."""
    rng = np.random.default_rng(seed)
    lo, hi = cost_range
    blocks, costs = [], []
    for i in range(n):
        brow, crow = [], []
        for j in range(n):
            rank = int(rank_profile[i][j])
            if rank not in (0, 1, 2):
                raise DimensionMismatchError("rank profile entries must be 0, 1, or 2")
            brow.append(FieldMatrix(p, _random_block_of_rank(rank, rng, p)))
            crow.append(int(rng.integers(lo, hi + 1)))
        blocks.append(tuple(brow))
        costs.append(tuple(crow))
    return PartitionedInstance(PrimeModulus(p), n, tuple(blocks), tuple(costs),
                               {"generator": "partitioned2x2", "seed": seed})


def random_rank_profile(n: int, seed: int, weights: tuple[float, float, float] = (0.15, 0.35, 0.5)):
    """Random 0/1/2 rank grid with the given probabilities."""
    rng = np.random.default_rng(seed)
    return [[int(rng.choice([0, 1, 2], p=weights)) for _ in range(n)] for _ in range(n)]


# ---------------------------------------------------------------------------
# Serialization


def _meta_jsonable(meta: Mapping) -> dict:
    return json.loads(json.dumps(dict(meta)))


def save(inst: Instance | IntegerInstance | PartitionedInstance) -> bytes:
    """Canonical JSON bytes; load(save(x)) == x exactly."""
    if isinstance(inst, Instance):
        doc = {"version": SCHEMA_VERSION, "prime": inst.p, "n": inst.n, "m": inst.m,
               "mats": [mat.data.tolist() for mat in inst.mats],
               "costs": list(inst.costs), "meta": _meta_jsonable(inst.meta)}
    elif isinstance(inst, IntegerInstance):
        doc = {"version": SCHEMA_VERSION, "n": inst.n, "m": inst.m,
               "mats": [mat.tolist() for mat in inst.mats],
               "costs": list(inst.costs), "meta": _meta_jsonable(inst.meta)}
    elif isinstance(inst, PartitionedInstance):
        doc = {"version": SCHEMA_VERSION, "prime": inst.p, "n": inst.n,
               "blocks": inst.assembled().tolist(),
               "block_costs": [list(row) for row in inst.costs],
               "meta": _meta_jsonable(inst.meta)}
    else:
        raise FormatError(f"cannot serialize {type(inst).__name__}")
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _ints(values: Sequence, what: str) -> Sequence:
    """`values` unchanged if every one is a JSON integer; FormatError for a
    float, string or boolean, which conversion would otherwise truncate."""
    if any(type(v) is not int for v in values):
        raise FormatError(f"{what} must hold integers only")
    return values


def _int_array(value, what: str, exact: bool) -> np.ndarray:
    """`value` as an integer array, checked by its dtype rather than per entry.

    numpy reads a JSON true/false among integers as 1/0, which the dtype does
    not show, so `exact` (the file holds such a literal somewhere) checks the
    type of every entry; object arrays (ints beyond int64) are always checked.
    """
    arr = np.array(value)
    if exact or arr.dtype.kind == "O":
        _ints(np.array(value, dtype=object).ravel(), what)
    elif arr.dtype.kind not in "iu":
        raise FormatError(f"{what} must hold integers only")
    return arr


def _check_header(doc: dict, **sizes: int) -> None:
    """FormatError when a size the file states disagrees with its arrays."""
    for key, size in sizes.items():
        if key in doc and _ints([doc[key]], key)[0] != size:
            raise FormatError(f"header {key}={doc[key]} disagrees with the arrays ({size})")


def load(data: bytes) -> Instance | IntegerInstance | PartitionedInstance:
    """Parse instance bytes; raises FormatError / NonPrimeError on bad input,
    including any non-integer number where the format asks for an integer."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"not valid instance JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("instance file must hold a JSON object")
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise FormatError(f"unsupported schema version {version!r}")
    exact = b"true" in data or b"false" in data
    try:
        if "blocks" in doc:
            return _load_partitioned(doc, exact)
        if "prime" in doc:
            p = _ints([doc["prime"]], "prime")[0]
            PrimeModulus(p)  # raises NonPrimeError on composite moduli
            inst = Instance.from_arrays(p, [_int_array(m, "mats", exact) for m in doc["mats"]],
                                        _ints(doc["costs"], "costs"), doc.get("meta", {}))
            _check_header(doc, n=inst.n, m=inst.m)
            return inst
        n, m = _ints([doc["n"], doc["m"]], "n and m")
        inst = IntegerInstance(n, m, tuple(_int_array(mat, "mats", exact) for mat in doc["mats"]),
                               tuple(_ints(doc["costs"], "costs")), doc.get("meta", {}))
        _ints([inst.meta.get("entry_bound", 0)], "meta.entry_bound")  # read by prime_budget
        return inst
    except NonPrimeError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, DimensionMismatchError) as exc:
        raise FormatError(f"malformed instance file: {exc}") from exc


def _load_partitioned(doc: dict, exact: bool) -> PartitionedInstance:
    p = _ints([doc.get("prime", DEFAULT_PRIME)], "prime")[0]
    PrimeModulus(p)
    full = _int_array(doc["blocks"], "blocks", exact)
    if full.ndim != 2 or full.shape[0] != full.shape[1] or full.shape[0] % 2:
        raise FormatError("partitioned blocks must form a square even-sized matrix")
    n = full.shape[0] // 2
    _check_header(doc, n=n)
    blocks = tuple(tuple(FieldMatrix(p, full[2 * i: 2 * i + 2, 2 * j: 2 * j + 2])
                         for j in range(n)) for i in range(n))
    costs = tuple(tuple(_ints(row, "block_costs")) for row in doc["block_costs"])
    return PartitionedInstance(PrimeModulus(p), n, blocks, costs, doc.get("meta", {}))
