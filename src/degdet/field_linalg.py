"""Exact dense linear algebra over the prime field GF(p).

Residues live in ``[0, p)``.  For moduli below 2**31 the arrays are int64 and
every kernel keeps intermediate products inside int64 (a product of two
residues is below 2**62; sums are reduced before they can accumulate past
2**63).  Larger moduli, up to 62 bits, fall back to object-dtype arrays of
Python integers: correct, but slow, and only expected for explicitly
configured exotic primes.

That choice is made here only: :func:`_dtype_for` names the dtype of a
modulus, :func:`as_residues` makes every residue array and :func:`mod_matmul`
is the one modular product, so no other copy of it can overflow at 62 bits.
So is what an integer is: :func:`as_integers` checks every entry, cost,
weight, degree, modulus, seed and depth a caller hands in.
An int64 product is one ``np.matmul`` when k (p-1)^2 < 2**63 for inner
dimension k, and is split into 16-bit halves of the left operand otherwise.

Array-level kernels (``mod_matmul``, ``mod_rref``, ...) are what the solver
runs, and its certificates hold plain residue arrays.  :class:`FieldMatrix`
is the read-only matrix of ``Instance.mats`` and of the public wrappers
(:func:`rref`, :func:`nullspace`, :func:`column_space`, :func:`preimage`,
:func:`span_union`), each one kernel call: a subspace goes in and comes out
as a ``FieldMatrix`` whose columns are the kernel's canonical basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, NonPrimeError

DEFAULT_PRIME = 2**31 - 1

_INT64_SAFE_MAX = 2**31 - 1  # largest modulus whose residue products fit int64
_SPLIT = 1 << 16
_MAX_INNER_DIM = 1 << 16  # guards the split-multiply accumulation bound

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PROVEN: dict[int, None] = {}  # the last primes is_prime accepted, oldest first


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every integer n < 2**64.  The last
    1024 primes it accepted are remembered, so each is tested once while it stays."""
    n = as_integers(n, "n", 0)
    if n in _PROVEN:
        return True
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    _PROVEN[n] = None
    if len(_PROVEN) > 1024:
        _PROVEN.pop(next(iter(_PROVEN)), None)
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """A validated prime modulus, below 62 bits."""

    p: int

    def __post_init__(self):
        p = as_integers(self.p, "modulus", 0)
        if p < 2 or p >= 2**62:
            raise NonPrimeError(f"modulus must be a prime in [2, 2**62): got {p}")
        if not is_prime(p):
            raise NonPrimeError(f"modulus {p} is not prime")
        object.__setattr__(self, "p", p)


def _dtype_for(p: int):
    return np.int64 if p <= _INT64_SAFE_MAX else object


def as_integers(data, what: str, ndim: int | None = None):
    """`data` (nested sequences or an array) as an integer array, int64 when
    every entry fits, else Python ints; an int64 array comes back as itself.

    Python and numpy integers pass; a float (2.0 too), a boolean, a string,
    None or a ragged nesting raises DimensionMismatchError naming `what`.
    With `ndim` the array needs that many axes, and ndim=0 returns a Python int.
    """
    if ndim == 0 and (type(data) is int or isinstance(data, np.integer)):
        return int(data)
    if isinstance(data, np.ndarray) and data.dtype.kind in "iu":
        wide = data.dtype == np.uint64 and data.size and data.max() >= 2**63
        arr = data.astype(object if wide else np.int64, copy=False)
    else:
        try:
            arr = np.array(data, dtype=object)  # keeps ragged rows as list entries
        except ValueError as exc:  # numpy refuses some inhomogeneous shapes outright
            raise DimensionMismatchError(f"{what} is ragged: {exc}") from exc
        bad = sorted(t.__name__ for t in set(map(type, arr.flat)) - {int}
                     if not issubclass(t, np.integer))
        if bad:
            raise DimensionMismatchError(f"{what} must hold integers only, not {', '.join(bad)}")
        try:
            arr = arr.astype(np.int64)
        except OverflowError:  # an entry beyond int64: every entry as a Python int
            arr = np.array([int(v) for v in arr.flat], dtype=object).reshape(arr.shape)
    if ndim is not None and arr.ndim != ndim:
        raise DimensionMismatchError(f"{what} must have {ndim} axes, not shape {arr.shape}")
    return arr.item() if ndim == 0 else arr


def as_residues(data, p: int) -> np.ndarray:
    """A new array of the residues mod p of `data`, integers of any shape
    (:func:`as_integers`)."""
    arr = data if isinstance(data, np.ndarray) and data.dtype == np.int64 \
        else as_integers(data, "residue data")
    if arr.dtype == object or p > _INT64_SAFE_MAX:
        return np.asarray(arr.astype(object) % p, dtype=_dtype_for(p))
    return arr % p


def mod_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Matrix product mod p with numpy broadcasting over leading axes."""
    if a.dtype != object and b.dtype != object and p <= _INT64_SAFE_MAX:
        if a.shape[-1] * (p - 1) ** 2 < 2**63:  # every sum of products fits int64
            return np.matmul(a, b) % p
        if a.shape[-1] > _MAX_INNER_DIM:
            raise DimensionMismatchError("inner dimension too large for split multiply")
        hi = a >> 16
        lo = a & 0xFFFF
        return (np.matmul(hi, b) % p * _SPLIT + np.matmul(lo, b)) % p
    return np.matmul(a.astype(object), b.astype(object)) % p


def batch_pow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """Elementwise a**e mod p by binary exponentiation (vectorized)."""
    result = np.ones_like(a)
    base = a % p
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


def mod_rref(a: np.ndarray, p: int, transform: bool = False):
    """Reduced row-echelon form over GF(p).

    Returns ``(R, U, rank, pivots)``; ``U`` is None unless ``transform`` is
    set, in which case ``U @ a == R`` and U is invertible.  Pivoting takes the
    first nonzero entry in column order; exact arithmetic needs nothing
    cleverer.
    """
    A = as_residues(a, p)
    rows, cols = A.shape
    if transform:
        A = np.concatenate([A, np.eye(rows, dtype=A.dtype)], axis=1)
    row = 0
    pivots: list[int] = []
    for col in range(cols):
        if row == rows:
            break
        nz = np.nonzero(A[row:, col])[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            A[[row, pr]] = A[[pr, row]]
        inv = pow(int(A[row, col]), -1, p)
        A[row] = A[row] * inv % p
        factors = A[:, col].copy()
        factors[row] = 0
        hit = np.nonzero(factors)[0]
        if hit.size:
            A[hit] = (A[hit] - factors[hit, None] * A[row][None, :]) % p
        pivots.append(col)
        row += 1
    R = A[:, :cols]
    U = A[:, cols:] if transform else None
    return R, U, row, tuple(pivots)


def mod_rank(a: np.ndarray, p: int) -> int:
    return mod_rref(a, p)[2]


def mod_inverse_matrix(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix mod p; raises if singular."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatchError("inverse needs a square matrix")
    R, U, rank, _ = mod_rref(a, p, transform=True)
    if rank != n:
        raise DimensionMismatchError("matrix is singular")
    return U


def mod_nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Columns spanning {x : a @ x == 0}; shape (cols, cols - rank)."""
    R, _, _, pivots = mod_rref(a, p)
    return _rref_kernel(R, pivots, p)


def _rref_kernel(R: np.ndarray, pivots: tuple, p: int) -> np.ndarray:
    """Columns spanning ker R, R reduced with these pivots: each is 1 at its
    free row, which is its last nonzero row, and 0 at the other free rows."""
    free = [c for c in range(R.shape[1]) if c not in pivots]
    basis = np.zeros((R.shape[1], len(free)), dtype=R.dtype)
    basis[free, np.arange(len(free))] = 1
    basis[list(pivots)] = -R[: len(pivots), free] % p
    return basis


def mod_column_space(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical (reduced-echelon) basis of the column space, as columns."""
    a = np.asarray(a)
    if a.shape[1] == 0:
        return a % p
    R, _, rank, _ = mod_rref(a.T, p)
    return R[:rank].T.copy()


def mod_preimage(a: np.ndarray, wbasis: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of {x : a @ x lies in the column span of wbasis}."""
    null = mod_nullspace(np.concatenate([a, wbasis], axis=1), p)
    return mod_column_space(null[: a.shape[1]], p)


# ---------------------------------------------------------------------------
# Public wrappers


@dataclass(frozen=True)
class FieldMatrix:
    """Dense matrix over GF(p); entries are reduced residues, row-major."""

    p: int
    data: np.ndarray

    def __post_init__(self):
        arr = as_residues(self.data, self.p)
        if arr.ndim != 2:
            raise DimensionMismatchError(f"FieldMatrix needs a 2-D array, got ndim={arr.ndim}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldMatrix) and self.p == other.p
                and self.data.shape == other.data.shape
                and bool(np.all(self.data == other.data)))


def rref(M: FieldMatrix) -> tuple[FieldMatrix, FieldMatrix, int]:
    """Reduced row-echelon form with its invertible left transform.

    ``U @ M == R`` with U invertible; the returned rank is the pivot count.
    """
    R, U, rank, _ = mod_rref(M.data, M.p, transform=True)
    return FieldMatrix(M.p, R), FieldMatrix(M.p, U), rank


def nullspace(M: FieldMatrix) -> FieldMatrix:
    """Basis columns of the right nullspace {x : M x = 0} of M."""
    return FieldMatrix(M.p, mod_nullspace(M.data, M.p))


def column_space(M: FieldMatrix) -> FieldMatrix:
    """Canonical basis columns of the column space of M."""
    return FieldMatrix(M.p, mod_column_space(M.data, M.p))


def preimage(M: FieldMatrix, W: FieldMatrix) -> FieldMatrix:
    """Canonical basis columns of {x : M x lies in the span of W's columns}."""
    if W.data.shape[0] != M.data.shape[0]:
        raise DimensionMismatchError("preimage target lives in the wrong ambient space")
    if W.p != M.p:
        raise DimensionMismatchError("preimage operands must share one modulus")
    return FieldMatrix(M.p, mod_preimage(M.data, W.data, M.p))


def span_union(mats: Sequence[FieldMatrix], U: FieldMatrix) -> FieldMatrix:
    """Canonical basis columns of the span of all B_k u, u a column of U."""
    if not mats:
        raise DimensionMismatchError("span_union needs at least one matrix")
    if any(mat.data.shape != (mats[0].data.shape[0], U.data.shape[0]) for mat in mats):
        raise DimensionMismatchError("matrices must share a shape whose columns match U's rows")
    p = U.p
    if any(mat.p != p for mat in mats):
        raise DimensionMismatchError("span_union operands must share one modulus")
    prods = mod_matmul(np.stack([mat.data for mat in mats]), U.data, p)  # every B_k u
    return FieldMatrix(p, mod_column_space(np.concatenate(prods, axis=1), p))
