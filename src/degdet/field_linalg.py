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
    """Deterministic Miller-Rabin, exact for every n < 2**64.  The last 1024
    primes it accepted are remembered, so each is tested once while it stays."""
    if type(n) is int and n in _PROVEN:  # the pow below refuses floats and numpy ints
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
        if not isinstance(self.p, int) or self.p < 2 or self.p >= 2**62:
            raise NonPrimeError(f"modulus must be a prime in [2, 2**62): got {self.p!r}")
        if not is_prime(self.p):
            raise NonPrimeError(f"modulus {self.p} is not prime")


def _dtype_for(p: int):
    return np.int64 if p <= _INT64_SAFE_MAX else object


def as_residues(data, p: int) -> np.ndarray:
    """Coerce nested sequences / arrays of any shape to a reduced residue array mod p.

    A ragged nesting raises :class:`DimensionMismatchError`.
    """
    try:
        arr = np.asarray(data)
    except ValueError as exc:  # numpy refuses an inhomogeneous shape
        raise DimensionMismatchError(f"residue data is ragged: {exc}") from exc
    if arr.dtype == object or p > _INT64_SAFE_MAX:
        return np.asarray(np.vectorize(int, otypes=[object])(arr) % p, dtype=_dtype_for(p))
    return np.asarray(arr, dtype=np.int64) % p


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
