"""Truncated Laurent-coefficient matrix pencils with all degrees <= 0.

A pencil sum_k B_k x_k, B_k = sum_d B_{k,d} t^d over GF(p), is one slab
store: a read-only (K, n, n) array of the nonzero B_{k,d} and (K,) arrays
naming each slab's term k and degree d, no pair twice.  The solver's four
moves are index operations on it that return a new pencil: certificate
updates (row lift / column drop), t -> t^2, t^-1 on chosen terms, and
truncation of deep slabs.  :func:`leading` gathers the degree-0 slabs as a
:class:`~degdet.ncrank.ConstPencil`, the constant-pencil type the
certificate oracle takes.  :class:`LaurentMatrix` is the per-term view
(:attr:`LaurentPencil.terms`, :meth:`LaurentPencil.from_terms`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, PositiveDegreeError, SizeLimitError
from .field_linalg import _dtype_for, _mod_sandwich, as_residues
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
    def from_constant(cls, p: int, mat, degree: int = 0) -> "LaurentMatrix":
        arr = as_residues(mat, p)
        return cls(p, arr.shape[0], {degree: arr})

    @classmethod
    def _wrap(cls, p: int, n: int, coeffs: dict[int, np.ndarray]) -> "LaurentMatrix":
        # internal fast path: coefficients already reduced, nonzero, readonly
        obj = object.__new__(cls)
        object.__setattr__(obj, "p", p)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "coeffs", coeffs)
        return obj

    @classmethod
    def zero(cls, p: int, n: int) -> "LaurentMatrix":
        return cls(p, n, {})

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    @property
    def depth(self) -> int:
        """Lowest retained degree (0 for the zero term)."""
        return min(self.coeffs, default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def __hash__(self):
        return hash((self.p, self.n, tuple(sorted(self.coeffs))))


@dataclass(frozen=True, eq=False)
class LaurentPencil:
    """The full symbolic matrix as a slab store, slabs in (term, degree) order."""

    p: int
    n: int
    m: int
    coeffs: np.ndarray  # (K, n, n) nonzero residues
    term: np.ndarray  # (K,) int64 in range(m)
    degree: np.ndarray  # (K,) int64, <= 0

    @classmethod
    def _wrap(cls, p: int, n: int, m: int, coeffs: np.ndarray, term: np.ndarray,
              degree: np.ndarray) -> "LaurentPencil":
        # internal fast path; degrees >= -2^61 keep t -> t^2 and t^-1 inside int64
        if degree.size and degree.min() < -2**61:
            raise SizeLimitError("pencil degree below -2^61: costs this large need truncation")
        for arr in (coeffs, term, degree):
            arr.flags.writeable = False
        return cls(p, n, m, coeffs, term, degree)

    @classmethod
    def from_constants(cls, p: int, mats: Sequence, degrees: Sequence[int] | None = None
                       ) -> "LaurentPencil":
        """B_k = mats[k] t^degrees[k] (degree 0 by default); zero matrices store nothing."""
        stack = as_residues(mats, p)
        m, n = len(stack), stack.shape[-1]
        degree = np.zeros(m, np.int64) if degrees is None else np.array(degrees, np.int64)
        if stack.shape != (m, n, n) or degree.shape != (m,):
            raise DimensionMismatchError(f"need m n x n matrices and m degrees, got {stack.shape}")
        if np.any(degree > 0):
            raise PositiveDegreeError("coefficient stored at positive degree")
        live = np.flatnonzero(stack.any(axis=(1, 2)))
        return cls._wrap(p, n, m, stack if len(live) == m else stack[live], live, degree[live])

    @classmethod
    def from_terms(cls, p: int, n: int, terms: Sequence[LaurentMatrix]) -> "LaurentPencil":
        """The pencil whose k-th term is terms[k], each over GF(p) and n x n."""
        if any(mat.p != p or mat.n != n for mat in terms):
            raise DimensionMismatchError("pencil terms disagree on modulus or size")
        keys = [(k, d) for k, mat in enumerate(terms) for d in mat.degrees()]
        slabs = [terms[k].coeffs[d] for k, d in keys]
        coeffs = np.stack(slabs) if slabs else np.zeros((0, n, n), dtype=_dtype_for(p))
        term, degree = np.array(keys, dtype=np.int64).reshape(-1, 2).T
        return cls._wrap(p, n, len(terms), coeffs, term, degree)

    @property
    def terms(self) -> tuple[LaurentMatrix, ...]:
        """Per-term read view; each LaurentMatrix holds the stored slabs, not copies."""
        views: list[dict[int, np.ndarray]] = [{} for _ in range(self.m)]
        for k, d, slab in zip(self.term.tolist(), self.degree.tolist(), self.coeffs):
            views[k][d] = slab
        return tuple(LaurentMatrix._wrap(self.p, self.n, view) for view in views)


def leading(pencil: LaurentPencil) -> ConstPencil:
    """The constant pencil of degree-0 coefficients (zero where a term has none)."""
    stack = np.zeros((pencil.m, pencil.n, pencil.n), dtype=_dtype_for(pencil.p))
    top = pencil.degree == 0
    stack[pencil.term[top]] = pencil.coeffs[top]
    return ConstPencil._wrap(pencil.p, stack)


def step_update(pencil: LaurentPencil, S: np.ndarray, T: np.ndarray,
                r: int, s: int) -> LaurentPencil:
    """One certificate step: B_k <- (t on first r rows) S B_k T (t**-1 on first n-s columns).

    S and T are (n, n) residue arrays mod p, as a :class:`~degdet.ncrank.Certificate`
    holds them.  Requires the leading S B_k T to vanish on its upper-right
    r x s block for every k; a nonzero entry there would land at degree +1
    and raises :class:`PositiveDegreeError`.
    """
    n = pencil.n
    if not (0 <= r <= n and 0 <= s <= n):
        raise DimensionMismatchError(f"block sizes r={r}, s={s} out of range for n={n}")
    if S.shape != (n, n) or T.shape != (n, n):
        raise DimensionMismatchError("S and T must be n x n")
    cut = n - s
    mid = _mod_sandwich(S, pencil.coeffs, T, pencil.p)
    # each slab's four blocks, with the degree shift each one takes
    blocks = ((np.s_[:r], np.s_[cut:], 1), (np.s_[:r], np.s_[:cut], 0),
              (np.s_[r:], np.s_[cut:], 0), (np.s_[r:], np.s_[:cut], -1))
    live = [mid[:, rows, cols].any(axis=(1, 2)) for rows, cols, _ in blocks]
    # sort the target (term, degree) of each nonzero block; equal ones share a slot
    term = np.concatenate([pencil.term[nz] for nz in live])
    degree = np.concatenate([pencil.degree[nz] + shift for nz, (_, _, shift) in zip(live, blocks)])
    if degree.max(initial=0) > 0:  # only a lifted block of a degree-0 slab gets here
        raise PositiveDegreeError("certificate zero-block violated: entries would reach degree +1")
    order = np.lexsort((degree, term))
    term, degree = term[order], degree[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (term[1:] != term[:-1]) | (degree[1:] != degree[:-1])
    where = (np.cumsum(first) - 1)[np.argsort(order)]
    out = np.zeros((int(first.sum()), n, n), dtype=mid.dtype)
    # distinct slabs land in distinct slots, and a slot's four blocks are disjoint
    bounds = np.cumsum([0] + [int(nz.sum()) for nz in live]).tolist()
    for nz, (rows, cols, _), lo, hi in zip(live, blocks, bounds, bounds[1:]):
        out[where[lo:hi], rows, cols] = mid[nz, rows, cols]
    return LaurentPencil._wrap(pencil.p, n, pencil.m, out, term[first], degree[first])


def square_substitute(pencil: LaurentPencil) -> LaurentPencil:
    """t -> t**2 on every term: every degree doubles."""
    return LaurentPencil._wrap(pencil.p, pencil.n, pencil.m, pencil.coeffs, pencil.term,
                               2 * pencil.degree)


def scale_tinv(pencil: LaurentPencil, which: Sequence[int]) -> LaurentPencil:
    """t**-1 times every term k with which[k] == 1 (which is a 0/1 vector over the terms)."""
    bits = np.asarray(which)
    if bits.shape != (pencil.m,) or not ((bits == 0) | (bits == 1)).all():
        raise DimensionMismatchError("which must be a 0/1 vector with one entry per term")
    return LaurentPencil._wrap(pencil.p, pencil.n, pencil.m, pencil.coeffs, pencil.term,
                               pencil.degree - (bits == 1)[pencil.term])


def truncate(pencil: LaurentPencil, depth: int) -> LaurentPencil:
    """Remove every coefficient at degree <= -depth from every term."""
    if depth < 0:
        raise DimensionMismatchError("truncation depth must be nonnegative")
    keep = pencil.degree > -depth
    if keep.all():
        return pencil
    return LaurentPencil._wrap(pencil.p, pencil.n, pencil.m, pencil.coeffs[keep],
                               pencil.term[keep], pencil.degree[keep])
