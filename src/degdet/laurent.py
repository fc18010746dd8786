"""Truncated Laurent-coefficient matrix pencils with all degrees <= 0.

A pencil stores, per symbolic variable, a map from degree d in {0, -1, -2,
...} to an n x n coefficient matrix over GF(p).  Absent degrees are zero.
The only supported mutations are exactly the ones the solver performs:
certificate updates (row lift / column drop), squaring the series variable,
a uniform degree shift, and truncation of deep terms.  Everything returns a
new value; nothing is modified in place.  :func:`leading` reads the degree-0
coefficients as a :class:`~degdet.ncrank.ConstPencil`, the one constant-pencil
type the certificate oracle takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, PositiveDegreeError
from .field_linalg import FieldMatrix, _dtype_for, _mod_sandwich, as_residues
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

    def truncated(self, depth: int) -> "LaurentMatrix":
        """Drop every coefficient at degree <= -depth."""
        if not self.coeffs or self.depth > -depth:
            return self
        return LaurentMatrix._wrap(self.p, self.n,
                                   {d: m for d, m in self.coeffs.items() if d > -depth})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentMatrix) or (self.p, self.n) != (other.p, other.n):
            return False
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(bool(np.all(self.coeffs[d] == other.coeffs[d])) for d in self.coeffs)

    def __hash__(self):
        return hash((self.p, self.n, tuple(sorted(self.coeffs))))


@dataclass(frozen=True)
class LaurentPencil:
    """The full symbolic matrix: one LaurentMatrix per variable."""

    p: int
    n: int
    m: int
    terms: tuple[LaurentMatrix, ...]

    def __post_init__(self):
        if len(self.terms) != self.m:
            raise DimensionMismatchError("term count does not match m")
        for term in self.terms:
            if term.p != self.p or term.n != self.n:
                raise DimensionMismatchError("pencil terms disagree on modulus or size")
        object.__setattr__(self, "terms", tuple(self.terms))

    @classmethod
    def from_constants(cls, p: int, mats: Sequence, degrees: Sequence[int] | None = None) -> "LaurentPencil":
        terms = []
        for k, mat in enumerate(mats):
            deg = 0 if degrees is None else degrees[k]
            terms.append(LaurentMatrix.from_constant(p, mat, deg))
        n = terms[0].n
        return cls(p, n, len(terms), tuple(terms))


def leading(pencil: LaurentPencil) -> ConstPencil:
    """The constant pencil of degree-0 coefficients (zero where a term has none)."""
    stack = np.zeros((pencil.m, pencil.n, pencil.n), dtype=_dtype_for(pencil.p))
    for k, term in enumerate(pencil.terms):
        stack[k] = term.coeffs.get(0, 0)
    return ConstPencil._wrap(pencil.p, stack)


def step_update(pencil: LaurentPencil, S: FieldMatrix, T: FieldMatrix,
                r: int, s: int) -> LaurentPencil:
    """One certificate step: B_k <- (t on first r rows) S B_k T (t**-1 on first n-s columns).

    Requires the leading S B_k T to vanish on its upper-right r x s block for
    every k; a nonzero entry there would land at degree +1 and raises
    :class:`PositiveDegreeError`.
    """
    n = pencil.n
    p = pencil.p
    if not (0 <= r <= n and 0 <= s <= n):
        raise DimensionMismatchError(f"block sizes r={r}, s={s} out of range for n={n}")
    if S.data.shape != (n, n) or T.data.shape != (n, n):
        raise DimensionMismatchError("S and T must be n x n")
    cut = n - s
    per_term_degs = [term.degrees() for term in pencil.terms]
    slabs = [term.coeffs[d] for term, degs in zip(pencil.terms, per_term_degs) for d in degs]
    if not slabs:
        return pencil
    # one batched S @ . @ T over every stored coefficient of every term
    mid_all = _mod_sandwich(S.data, np.stack(slabs), T.data, p)
    K = len(slabs)
    # which of each slab's four blocks are nonzero; a bucket is only made for
    # a nonzero block, and the four blocks a bucket receives are disjoint, so
    # every bucket ends up nonzero
    lifted, kept_top, kept_bottom, dropped = (
        block.reshape(K, -1).any(axis=1).tolist()
        for block in (mid_all[:, :r, cut:], mid_all[:, :r, :cut],
                      mid_all[:, r:, cut:], mid_all[:, r:, :cut]))
    new_terms = []
    offset = 0
    for term, degs in zip(pencil.terms, per_term_degs):
        if not degs:
            new_terms.append(term)
            continue
        target: dict[int, np.ndarray] = {}

        def bucket(deg: int) -> np.ndarray:
            got = target.get(deg)
            if got is None:
                got = np.zeros((n, n), dtype=mid_all.dtype)
                target[deg] = got
            return got

        for k, d in enumerate(degs, offset):
            piece = mid_all[k]
            if lifted[k]:
                if d == 0:
                    raise PositiveDegreeError(
                        "certificate zero-block violated: entries would reach degree +1")
                bucket(d + 1)[:r, cut:] = piece[:r, cut:]
            if kept_top[k]:
                bucket(d)[:r, :cut] = piece[:r, :cut]
            if kept_bottom[k]:
                bucket(d)[r:, cut:] = piece[r:, cut:]
            if dropped[k]:
                bucket(d - 1)[r:, :cut] = piece[r:, :cut]
        offset += len(degs)
        for arr in target.values():
            arr.flags.writeable = False
        new_terms.append(LaurentMatrix._wrap(p, n, target))
    return LaurentPencil(p, n, pencil.m, tuple(new_terms))


def square_substitute(pencil: LaurentPencil) -> LaurentPencil:
    """t -> t**2 on every term."""
    return LaurentPencil(pencil.p, pencil.n, pencil.m,
                         tuple(t.square_substitute() for t in pencil.terms))


def scale_tinv(term: LaurentMatrix) -> LaurentMatrix:
    """t**-1 times one term."""
    return term.scale_tinv()


def truncate(pencil: LaurentPencil, depth: int) -> LaurentPencil:
    """Remove every coefficient at degree <= -depth from every term."""
    if depth < 0:
        raise DimensionMismatchError("truncation depth must be nonnegative")
    return LaurentPencil(pencil.p, pencil.n, pencil.m,
                         tuple(t.truncated(depth) for t in pencil.terms))
