"""Truncated Laurent-coefficient matrix pencils with all degrees <= 0.

A pencil sum_k B_k x_k, B_k = sum_d B_{k,d} t^d over GF(p), is one entry
store: five read-only (E,) arrays giving each nonzero entry of every B_{k,d}
as its term k, degree d, row, column and value, no (k, d, row, column) key
twice.  The solver's four moves return a new pencil.  A certificate update
(row lift / column drop) moves the entries that a unit row of S or a unit
column of T picks to their new row or column, and multiplies only the lines
that meet S's other rows and T's other columns; t -> t^2 and t^-1 on chosen
terms map the degrees, and truncation drops the deep entries.
:func:`leading` keeps the degree-0 entries as a
:class:`~degdet.ncrank.ConstPencil`, the entry store without degrees that
the certificate oracle takes.  :class:`LaurentMatrix` is the per-term view
(:attr:`LaurentPencil.terms`, :meth:`LaurentPencil.from_terms`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, PositiveDegreeError, SizeLimitError
from .field_linalg import _dtype_for, as_residues, mod_matmul
from .ncrank import ConstPencil


@dataclass(frozen=True)
class LaurentMatrix:
    """One pencil term: degree -> n x n coefficient over GF(p)."""

    p: int
    n: int
    coeffs: Mapping[int, np.ndarray]

    def __post_init__(self):
        cleaned: dict[int, np.ndarray] = {}
        for deg, mat in self.coeffs.items():
            if deg > 0:
                raise PositiveDegreeError(f"coefficient stored at positive degree {deg}")
            arr = as_residues(mat, self.p)
            if arr.shape != (self.n, self.n):
                raise DimensionMismatchError(
                    f"coefficient at degree {deg} has shape {arr.shape}, expected {(self.n, self.n)}")
            if np.any(arr):
                arr.flags.writeable = False
                cleaned[deg] = arr
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def _wrap(cls, p: int, n: int, coeffs: dict[int, np.ndarray]) -> "LaurentMatrix":
        # internal fast path: coefficients already reduced, nonzero, readonly
        obj = object.__new__(cls)
        object.__setattr__(obj, "p", p)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "coeffs", coeffs)
        return obj

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    @property
    def depth(self) -> int:
        """Lowest retained degree (0 for the zero term)."""
        return min(self.coeffs, default=0)

    def square_substitute(self) -> "LaurentMatrix":
        """t -> t**2: the coefficient at degree d moves to degree 2d."""
        return LaurentMatrix._wrap(self.p, self.n, {2 * d: m for d, m in self.coeffs.items()})

    def scale_tinv(self) -> "LaurentMatrix":
        """Multiply by t**-1: every degree drops by one."""
        return LaurentMatrix._wrap(self.p, self.n, {d - 1: m for d, m in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentMatrix) or (self.p, self.n) != (other.p, other.n):
            return False
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(bool(np.all(self.coeffs[d] == other.coeffs[d])) for d in self.coeffs)


@dataclass(frozen=True, eq=False)
class LaurentPencil:
    """The full symbolic matrix as an entry store, entries in no fixed order."""

    p: int
    n: int
    m: int
    term: np.ndarray  # (E,) int64 in range(m)
    degree: np.ndarray  # (E,) int64, <= 0
    row: np.ndarray  # (E,) int64 in range(n)
    col: np.ndarray  # (E,) int64 in range(n)
    value: np.ndarray  # (E,) nonzero residues

    @classmethod
    def _wrap(cls, p: int, n: int, m: int, term: np.ndarray, degree: np.ndarray,
              row: np.ndarray, col: np.ndarray, value: np.ndarray) -> "LaurentPencil":
        cls._check_floor(int(degree.min(initial=0)))  # internal fast path
        for arr in (term, degree, row, col, value):
            arr.flags.writeable = False
        return cls(p, n, m, term, degree, row, col, value)

    @staticmethod
    def _check_floor(low: int) -> None:
        # degrees >= -2^61 keep t -> t^2 and t^-1 inside int64; `low` is the lowest
        if low < -2**61:
            raise SizeLimitError("pencil degree below -2^61: costs this large need truncation")

    def _redegree(self, degree: np.ndarray) -> "LaurentPencil":
        # the same entries at the degrees `degree` (internal fast path)
        return self if degree is self.degree else LaurentPencil._wrap(
            self.p, self.n, self.m, self.term, degree, self.row, self.col, self.value)

    @classmethod
    def from_constants(cls, p: int, mats: Sequence, degrees: Sequence[int] | None = None
                       ) -> "LaurentPencil":
        """B_k = mats[k] t^degrees[k] (degree 0 by default); zero entries store nothing."""
        stack = as_residues(mats, p)
        m, n = len(stack), stack.shape[-1]
        degree = np.zeros(m, np.int64) if degrees is None else np.array(degrees, np.int64)
        if stack.shape != (m, n, n) or degree.shape != (m,):
            raise DimensionMismatchError(f"need m n x n matrices and m degrees, got {stack.shape}")
        if np.any(degree > 0):
            raise PositiveDegreeError("coefficient stored at positive degree")
        term, row, col = np.nonzero(stack)
        return cls._wrap(p, n, m, term, degree[term], row, col, stack[term, row, col])

    @classmethod
    def from_terms(cls, p: int, n: int, terms: Sequence[LaurentMatrix]) -> "LaurentPencil":
        """The pencil whose k-th term is terms[k], each over GF(p) and n x n."""
        if any(mat.p != p or mat.n != n for mat in terms):
            raise DimensionMismatchError("pencil terms disagree on modulus or size")
        keys = [(k, d) for k, mat in enumerate(terms) for d in mat.degrees()]
        slabs = [terms[k].coeffs[d] for k, d in keys]
        stack = np.stack(slabs) if slabs else np.zeros((0, n, n), dtype=_dtype_for(p))
        slab, row, col = np.nonzero(stack)
        term, degree = np.array(keys, dtype=np.int64).reshape(-1, 2)[slab].T
        return cls._wrap(p, n, len(terms), term, degree, row, col, stack[slab, row, col])

    @property
    def terms(self) -> tuple[LaurentMatrix, ...]:
        """Per-term read view; each LaurentMatrix holds slabs filled from the entries."""
        (term, degree, _), slab = _line_ids(self.term, self.degree, np.zeros_like(self.row),
                                             self.m, 1)
        slabs = np.zeros((len(term), self.n, self.n), dtype=self.value.dtype)
        slabs[slab, self.row, self.col] = self.value
        slabs.flags.writeable = False
        views: list[dict[int, np.ndarray]] = [{} for _ in range(self.m)]
        for k, d, mat in zip(term.tolist(), degree.tolist(), slabs):
            views[k][d] = mat
        return tuple(LaurentMatrix._wrap(self.p, self.n, view) for view in views)


def _line_ids(term: np.ndarray, degree: np.ndarray, line: np.ndarray, m: int, n: int
              ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """The distinct (term, degree, line) keys, line in range(n), and each entry's
    index among them, by one sort of the keys packed into int64 codes."""
    low = int(degree.min(initial=0))
    levels = None
    if (int(degree.max(initial=0)) - low + 1) * m * n < 2**62:
        level = degree - low
    else:  # degrees too far apart to pack: pack their ranks
        levels, level = np.unique(degree, return_inverse=True)
    codes, ids = np.unique((level * m + term) * n + line, return_inverse=True)
    level, rest = np.divmod(codes, m * n)
    return (rest // n, level + low if levels is None else levels[level], rest % n), ids


def _mix(M: np.ndarray, m: int, term: np.ndarray, degree: np.ndarray, a: np.ndarray,
         b: np.ndarray, value: np.ndarray, p: int) -> tuple[np.ndarray, ...]:
    """Entries of M X for the pencil X with entries (term, degree, a, b, value).

    A row i of M that is a unit vector e_j, and the only one picking j, moves
    the entries at a == j to a == i.  Residues are nonnegative, so a row
    summing to exactly 1 is a unit vector and ``argmax`` finds its 1.  The
    other rows take one :func:`mod_matmul` over the lines (term, degree, b)
    that meet their support, so a certificate of unit picks plus r dense
    rows costs (lines) * n * r multiply-adds.  Moved and multiplied entries
    land on distinct rows, so no key appears twice.
    """
    n = len(M)
    pick = M.argmax(axis=1)
    unit = M.sum(axis=1) == 1
    unit &= np.bincount(pick[unit], minlength=n)[pick] == 1
    to = np.full(n, -1)
    to[pick[unit]] = np.flatnonzero(unit)
    dense = np.flatnonzero(~unit)
    if not dense.size:  # a permutation moves every entry
        return term, degree, to[a], b, value
    moved = to[a] >= 0
    meet = M[dense].any(axis=0)[a]
    (lt, ld, lb), line = _line_ids(term[meet], degree[meet], b[meet], m, n)
    lines = np.zeros((len(lt), n), dtype=value.dtype)
    lines[line, a[meet]] = value[meet]
    prod = mod_matmul(lines, M[dense].T, p)
    g, i = np.nonzero(prod)
    return tuple(np.concatenate(pair) for pair in zip(
        (term[moved], degree[moved], to[a[moved]], b[moved], value[moved]),
        (lt[g], ld[g], dense[i], lb[g], prod[g, i])))


def leading(pencil: LaurentPencil) -> ConstPencil:
    """The constant pencil of the degree-0 entries (zero where a term has none)."""
    top = pencil.degree == 0
    return ConstPencil._wrap(pencil.p, pencil.n, pencil.m, pencil.term[top], pencil.row[top],
                             pencil.col[top], pencil.value[top])


def step_update(pencil: LaurentPencil, S: np.ndarray, T: np.ndarray,
                r: int, s: int) -> LaurentPencil:
    """One certificate step: B_k <- (t on first r rows) S B_k T (t**-1 on first n-s columns).

    S and T are (n, n) residue arrays mod p, as a :class:`~degdet.ncrank.Certificate`
    holds them.  Requires the leading S B_k T to vanish on its upper-right
    r x s block for every k; a nonzero entry there would land at degree +1
    and raises :class:`PositiveDegreeError`.
    """
    n, m, p = pencil.n, pencil.m, pencil.p
    if not (0 <= r <= n and 0 <= s <= n):
        raise DimensionMismatchError(f"block sizes r={r}, s={s} out of range for n={n}")
    if S.shape != (n, n) or T.shape != (n, n):
        raise DimensionMismatchError("S and T must be n x n")
    term, degree, row, col, value = _mix(S, m, pencil.term, pencil.degree, pencil.row,
                                         pencil.col, pencil.value, p)
    # X T mixes the columns of X by the rows of T^T
    term, degree, col, row, value = _mix(T.T, m, term, degree, col, row, value, p)
    # each block's degree shift: +1 upper right, 0 off-diagonal, -1 lower left
    degree = degree + (row < r) - (col < n - s)
    if degree.max(initial=0) > 0:  # only a lifted entry of degree 0 gets here
        raise PositiveDegreeError("certificate zero-block violated: entries would reach degree +1")
    return LaurentPencil._wrap(p, n, m, term, degree, row, col, value)


def square_substitute(pencil: LaurentPencil) -> LaurentPencil:
    """t -> t**2 on every term: every degree doubles."""
    return pencil._redegree(2 * pencil.degree)


def scale_tinv(pencil: LaurentPencil, which: Sequence[int]) -> LaurentPencil:
    """t**-1 times every term k with which[k] == 1 (which is a 0/1 vector over the terms)."""
    bits = np.asarray(which)
    if bits.shape != (pencil.m,) or not ((bits == 0) | (bits == 1)).all():
        raise DimensionMismatchError("which must be a 0/1 vector with one entry per term")
    return pencil._redegree(pencil.degree - (bits == 1)[pencil.term])


def truncate(pencil: LaurentPencil, depth: int) -> LaurentPencil:
    """Remove every coefficient at degree <= -depth from every term."""
    if depth < 0:
        raise DimensionMismatchError("truncation depth must be nonnegative")
    keep = pencil.degree > -depth
    if keep.all():
        return pencil
    return LaurentPencil._wrap(pencil.p, pencil.n, pencil.m, *(
        arr[keep] for arr in (pencil.term, pencil.degree, pencil.row, pencil.col, pencil.value)))
