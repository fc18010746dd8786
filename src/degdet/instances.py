"""Problem instances, generators for the supported problem classes, and
bit-exact JSON serialization.

Each instance holds its coefficients read-only: `Instance.pencil` (a ConstPencil
of the nonzero residues; `stack` and `mats` are built from it on each read),
`IntegerInstance.mats` (m x n x n Python ints) and `PartitionedInstance.blocks`
(n x n x 2 x 2 residues, `blocks[i, j]` = A_ij).  Equality compares by value.

The file format is JSON with explicit integer arrays: `version`, `n`, `m`,
`costs`, optional `prime`, and a free-form `meta` object.  A field instance
stores its terms in one of two encodings, whichever holds fewer integers:
`entries` (four equal-length lists `term`, `row`, `col`, `value` of the
nonzero residues, sorted by (term, row, col)) when 4E < m n^2 for E entries,
else `mats` (m x n x n); `load` accepts either.  Integer instances (for the
multi-prime rational pipeline) omit `prime` and always store `mats`;
2x2-partitioned instances replace the terms and `costs` by the assembled
`blocks` matrix (2n x 2n) plus `block_costs` (n x n).  Absent bipartite cells
are encoded by omission, never by a zero cost: cost 0 is a legal weight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, FormatError, NonPrimeError
from .field_linalg import DEFAULT_PRIME, FieldMatrix, PrimeModulus, as_residues, mod_matmul
from .ncrank import ConstPencil

SCHEMA_VERSION = 1
_ENTRY_KEYS = ("term", "row", "col", "value")  # a file's `entries` lists, in sort order


class _ArrayFields:
    """Base of the instance dataclasses: read-only arrays, compared by value."""

    def _store(self, costs: tuple, **arrays: np.ndarray) -> None:
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "meta", dict(self.meta))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _same(a, b) -> bool:
    if isinstance(a, ConstPencil):  # the same sizes and entries, in any order
        return (a.n, a.m) == (b.n, b.m) and all(map(np.array_equal, _sorted(a), _sorted(b)))
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def _sorted(pencil: ConstPencil) -> list[np.ndarray]:
    order = np.lexsort((pencil.col, pencil.row, pencil.term))
    return [arr[order] for arr in (pencil.term, pencil.row, pencil.col, pencil.value)]


@dataclass(frozen=True, eq=False)
class Instance(_ArrayFields):
    """A costed symbolic matrix sum_k A_k x_k t^{c_k} over GF(p); `pencil`
    holds A_1..A_m as the nonzero entries of a ConstPencil over the same p."""

    modulus: PrimeModulus
    pencil: ConstPencil
    costs: tuple[int, ...]
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.pencil.p != self.p or len(self.costs) != self.pencil.m:
            raise DimensionMismatchError(f"need a pencil over GF({self.p}) and one cost per term")
        self._store(tuple(int(c) for c in self.costs))

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def m(self) -> int:
        return self.pencil.m

    @property
    def n(self) -> int:
        return self.pencil.n

    @property
    def stack(self) -> np.ndarray:
        """A_1..A_m as one read-only (m, n, n) array, built on each read."""
        return self.pencil.stack

    @property
    def mats(self) -> tuple[FieldMatrix, ...]:
        """A_1..A_m as one FieldMatrix per term, built on each read."""
        return tuple(FieldMatrix(self.p, mat) for mat in self.stack)

    @classmethod
    def from_arrays(cls, p: int, mats: Sequence, costs: Sequence[int],
                    meta: Mapping | None = None) -> "Instance":
        return cls(PrimeModulus(p), ConstPencil(p, mats), costs, meta or {})  # p checked first


@dataclass(frozen=True, eq=False)
class IntegerInstance(_ArrayFields):
    """An instance over the integers, destined for per-prime reduction; `mats`
    is one (m, n, n) object array of Python ints."""

    n: int
    m: int
    mats: np.ndarray
    costs: tuple[int, ...]
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        try:
            arr = np.asarray(self.mats)
        except ValueError as exc:  # numpy refuses an inhomogeneous shape
            raise DimensionMismatchError(f"integer matrices are ragged: {exc}") from exc
        if min(self.n, self.m) < 1 or arr.shape != (self.m, self.n, self.n) \
                or len(self.costs) != self.m:
            raise DimensionMismatchError("need m >= 1 integer n x n matrices, n >= 1, and m costs")
        self._store(tuple(int(c) for c in self.costs),
                    mats=np.vectorize(int, otypes=[object])(arr))

    @property
    def entry_bound(self) -> int:
        """Largest |entry|, floored at 1; the larger of this and any recorded
        meta bound drives the prime budget."""
        recorded = int(self.meta.get("entry_bound", 0))
        return max(1, int(abs(self.mats).max()), recorded)

    def reduce_mod(self, p: int) -> Instance:
        return Instance.from_arrays(p, self._words, self.costs,
                                    {**self.meta, "reduced_mod": p})

    @cached_property
    def _words(self) -> np.ndarray:
        """`mats` as read-only int64 when every entry fits, which reduces mod p
        several times faster than Python ints; else `mats` itself."""
        if int(abs(self.mats).max()) >= 2**63:
            return self.mats
        words = self.mats.astype(np.int64)
        words.flags.writeable = False
        return words


@dataclass(frozen=True, eq=False)
class PartitionedInstance(_ArrayFields):
    """n x n grid of 2x2 blocks A_ij with one cost per block position; `blocks`
    holds them as one (n, n, 2, 2) array, and n is read off its shape."""

    modulus: PrimeModulus
    blocks: np.ndarray
    costs: tuple[tuple[int, ...], ...]
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        arr = as_residues(self.blocks, self.p)
        n = arr.shape[0] if arr.ndim == 4 else 0
        if n < 1 or arr.shape != (n, n, 2, 2) or len(self.costs) != n \
                or any(len(row) != n for row in self.costs):
            raise DimensionMismatchError(f"need (n, n, 2, 2) blocks, n x n costs; got {arr.shape}")
        self._store(tuple(tuple(int(c) for c in row) for row in self.costs), blocks=arr)

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def n(self) -> int:
        return self.blocks.shape[0]

    def assembled(self) -> np.ndarray:
        """The full 2n x 2n matrix with every block in place."""
        return self.blocks.transpose(0, 2, 1, 3).reshape(2 * self.n, 2 * self.n)

    def edges(self) -> list[tuple[int, int]]:
        """Positions of nonzero blocks, row-major; the term order of to_instance."""
        return list(map(tuple, np.argwhere(self.blocks.any(axis=(2, 3))).tolist()))


# ---------------------------------------------------------------------------
# Generators


def gen_bipartite(weights: Sequence[Sequence[int | None]], p: int = DEFAULT_PRIME,
                  meta: Mapping | None = None) -> Instance:
    """Weighted bipartite instance: one E_ij term per present cell.

    `weights` is an n x n grid; None marks an absent edge.
    """
    n = len(weights)
    if any(len(row) != n for row in weights):
        raise DimensionMismatchError("weight grid must be square")
    cells = [(i, j, int(w)) for i, row in enumerate(weights)
             for j, w in enumerate(row) if w is not None]
    if not cells:
        raise DimensionMismatchError("bipartite instance needs at least one present cell")
    rows, cols, costs = zip(*cells)
    base = {"generator": "bipartite",
            "weights": [[None if w is None else int(w) for w in row] for row in weights]}
    base.update(meta or {})
    return Instance(PrimeModulus(p), ConstPencil._wrap(  # p checked first; one unit entry a term
        p, n, len(cells), np.arange(len(cells)), np.array(rows), np.array(cols),
        as_residues([1] * len(cells), p)), costs, base)


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
    blocks = np.zeros((n, n, 2, 2), dtype=object)
    costs = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rank = int(rank_profile[i][j])
            if rank not in (0, 1, 2):
                raise DimensionMismatchError("rank profile entries must be 0, 1, or 2")
            blocks[i, j] = _random_block_of_rank(rank, rng, p)
            costs[i][j] = int(rng.integers(lo, hi + 1))
    return PartitionedInstance(PrimeModulus(p), blocks, costs,
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
               "costs": list(inst.costs), "meta": _meta_jsonable(inst.meta)}
        pencil = inst.pencil
        if 4 * len(pencil.value) < pencil.m * pencil.n ** 2:  # fewer integers than the stack
            doc["entries"] = dict(zip(_ENTRY_KEYS, (arr.tolist() for arr in _sorted(pencil))))
        else:
            doc["mats"] = inst.stack.tolist()
    elif isinstance(inst, IntegerInstance):
        doc = {"version": SCHEMA_VERSION, "n": inst.n, "m": inst.m,
               "mats": inst.mats.tolist(),
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
    type of every entry.  Any dtype but int64 is checked per entry and kept
    as Python ints: ints beyond int64, an empty list (float64), and values in
    [2**63, 2**64), which numpy reads as uint64 (wrapping when cast to int64)
    or, among smaller ints, as float64.
    """
    arr = np.array(value)
    if exact or arr.dtype.kind != "i":
        obj = np.array(value, dtype=object)
        _ints(obj.ravel(), what)
        return arr if arr.dtype.kind == "i" else obj
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
            modulus = PrimeModulus(p)  # raises NonPrimeError on composite moduli
            if "entries" in doc:
                return Instance(modulus, _load_entries(doc, p, exact),
                                _ints(doc["costs"], "costs"), doc.get("meta", {}))
            inst = Instance.from_arrays(p, _int_array(doc["mats"], "mats", exact),
                                        _ints(doc["costs"], "costs"), doc.get("meta", {}))
            _check_header(doc, n=inst.n, m=inst.m)
            return inst
        n, m = _ints([doc["n"], doc["m"]], "n and m")
        inst = IntegerInstance(n, m, _int_array(doc["mats"], "mats", exact),
                               _ints(doc["costs"], "costs"), doc.get("meta", {}))
        _ints([inst.meta.get("entry_bound", 0)], "meta.entry_bound")  # read by prime_budget
        return inst
    except NonPrimeError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, DimensionMismatchError) as exc:
        raise FormatError(f"malformed instance file: {exc}") from exc


def _load_entries(doc: dict, p: int, exact: bool) -> ConstPencil:
    """The pencil of a field file's `entries`, in (term, row, col) order as
    ConstPencil(p, stack) keeps the same terms; FormatError on any bad entry."""
    listed = doc["entries"]
    if "mats" in doc or not isinstance(listed, dict) or set(listed) != set(_ENTRY_KEYS):
        raise FormatError(f"a field file holds mats or entries {list(_ENTRY_KEYS)}, not both")
    n, m = _ints([doc["n"], doc["m"]], "n and m")
    arrays = [_int_array(listed[key], f"entries.{key}", exact) for key in _ENTRY_KEYS]
    if min(n, m) < 1 or any(arr.ndim != 1 or len(arr) != len(arrays[0]) for arr in arrays):
        raise FormatError("entries need n, m >= 1 and four flat lists of one length")
    for key, arr, size in zip(_ENTRY_KEYS, arrays, (m, n, n)):
        if len(arr) and not 0 <= arr.min() <= arr.max() < size:
            raise FormatError(f"entries.{key} must lie in [0, {size})")
    term, row, col = (np.asarray(arr, dtype=np.int64) for arr in arrays[:3])
    order = np.lexsort((col, row, term))
    term, row, col = term[order], row[order], col[order]
    if np.any((np.diff(term) == 0) & (np.diff(row) == 0) & (np.diff(col) == 0)):
        raise FormatError("entries give one (term, row, col) twice")
    return _residue_pencil(p, n, m, term, row, col, arrays[3][order])


def _residue_pencil(p: int, n: int, m: int, term: np.ndarray, row: np.ndarray,
                    col: np.ndarray, values: np.ndarray) -> ConstPencil:
    """The pencil of distinct (term, row, col) cells in their given order, with
    `values` reduced mod p and the cells that vanish dropped."""
    value = as_residues(values, p)
    keep = value != 0
    return ConstPencil._wrap(p, n, m, term[keep], row[keep], col[keep], value[keep])


def _load_partitioned(doc: dict, exact: bool) -> PartitionedInstance:
    p = _ints([doc.get("prime", DEFAULT_PRIME)], "prime")[0]
    PrimeModulus(p)
    full = _int_array(doc["blocks"], "blocks", exact)
    if full.ndim != 2 or full.shape[0] != full.shape[1] or full.shape[0] % 2:
        raise FormatError("partitioned blocks must form a square even-sized matrix")
    n = full.shape[0] // 2
    _check_header(doc, n=n)
    blocks = full.reshape(n, 2, n, 2).transpose(0, 2, 1, 3)
    costs = [_ints(row, "block_costs") for row in doc["block_costs"]]
    return PartitionedInstance(PrimeModulus(p), blocks, costs, doc.get("meta", {}))
