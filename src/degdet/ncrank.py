"""Certificates for problem (R) on constant pencils over GF(p).

Given B = sum_k B_k x_k, the goal is a pair of invertible matrices (S, T)
such that every S B_k T carries a common r x s zero block in its upper-right
corner, minimizing 2n - r - s.  The construction samples substitution points,
keeps a maximum-rank point B, and runs the second Wong sequence

    W_0 = {0},   W_{j+1} = sum_k B_k (preimage of W_j under B)

until it stabilizes.  If the limit stays inside the image of B the shrunk
subspace it exposes yields a certificate whose value equals rank B; whenever
the sequence escapes the image for every sampled max-rank point the
commutative and noncommutative ranks (probably) differ and
:class:`NcRankGapError` is raised.

Only the live terms, those with a nonzero B_k, take part: the substitution
and the Wong sequence run on them alone.  The random point is still drawn
over all m terms and then restricted to the live ones, so B, every subspace
and every certificate are those of the full pencil (a zero B_k adds only
zero columns B_k u, and the reduced-echelon column space ignores them).

Every certificate is verified before it is returned.  Its zero block
S[:r] B_k T[:, n-s:] is checked exactly as the first r rows of S times the
columns B_k u (u spanning T[:, n-s:]) that the last Wong step already
formed, r n m s multiply-adds instead of the 2 m n^3 of forming every
S B_k T; S and T are checked invertible by rank.  :meth:`Certificate.check`
recomputes the whole product and stays the independent verifier.

Singularity comes from the same oracle: on the constant pencil a
certificate of value below n has r + s > n, a shrunk subspace that proves
nc-singularity, and it is verified before it is returned.  The solver uses
exactly that witness.  :func:`is_nc_nonsingular`, a one-sided test by random
substitution of the (n-1)-blow-up (nc-rank is n exactly when a d-fold blow-up
has full commutative rank for d = n - 1), is kept as an independent check;
the solver does not call it.

:class:`ConstPencil` is the one constant-pencil type: the solver's leading
pencils (:func:`degdet.laurent.leading`) and the blow-ups of
:func:`build_blowup` are all of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NcRankGapError
from .field_linalg import (FieldMatrix, _span_columns, as_residues, mod_column_space,
                           mod_contains, mod_matmul, mod_nullspace, mod_preimage, mod_rank,
                           mod_rref)


@dataclass(frozen=True)
class ConstPencil:
    """A constant linear pencil sum_k B_k x_k, stored as an (m, n, n) stack."""

    p: int
    stack: np.ndarray

    def __post_init__(self):
        arr = as_residues(self.stack, self.p)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise DimensionMismatchError(f"pencil stack must be (m, n, n), got {arr.shape}")
        if arr.shape[0] < 1:
            raise DimensionMismatchError("pencil needs at least one term")
        arr.flags.writeable = False
        object.__setattr__(self, "stack", arr)

    @classmethod
    def _wrap(cls, p: int, stack: np.ndarray) -> "ConstPencil":
        # internal fast path: an (m, n, n) stack, already reduced mod p, that
        # nobody writes to (a fresh one, or an Instance's read-only stack)
        stack.flags.writeable = False
        obj = object.__new__(cls)
        object.__setattr__(obj, "p", p)
        object.__setattr__(obj, "stack", stack)
        return obj

    @property
    def m(self) -> int:
        return self.stack.shape[0]

    @property
    def n(self) -> int:
        return self.stack.shape[1]

    def substitute(self, point: np.ndarray) -> np.ndarray:
        """Evaluate sum_k point_k B_k over GF(p)."""
        lam = np.asarray(point, dtype=self.stack.dtype)
        # one product then reduce: products < p**2 fit, the sum of reduced
        # residues stays far below 2**63 for any desk-scale m
        return (lam[:, None, None] * self.stack % self.p).sum(axis=0) % self.p


@dataclass(frozen=True)
class Certificate:
    """An (R) solution: S B_k T has a zero upper-right r x s block for all k."""

    S: FieldMatrix
    T: FieldMatrix
    r: int
    s: int
    value: int

    def check(self, pencil: ConstPencil) -> bool:
        """Machine-check the zero block and invertibility."""
        n = pencil.n
        if self.value != 2 * n - self.r - self.s:
            return False
        if not (self.S.is_invertible() and self.T.is_invertible()):
            return False
        if self.r == 0 or self.s == 0:
            return True
        moved = mod_matmul(mod_matmul(self.S.data, pencil.stack, pencil.p),
                           self.T.data, pencil.p)
        return not np.any(moved[:, : self.r, n - self.s:])


def _complete_basis(cols: np.ndarray, p: int) -> np.ndarray:
    """Columns of the identity completing `cols` to a basis of GF(p)^n."""
    n, k = cols.shape
    eye = np.eye(n, dtype=cols.dtype)
    joint = np.concatenate([cols, eye], axis=1)
    _, _, rank, pivots = mod_rref(joint, p)
    if rank != n:
        raise DimensionMismatchError("could not complete to a basis")
    chosen = [piv - k for piv in pivots if piv >= k]
    return eye[:, chosen]


def _wong_certificate(pencil: ConstPencil, B: np.ndarray, rho: int) -> Certificate | None:
    """Try to build a certificate from substitution point B of rank rho.

    Returns None when the Wong sequence escapes the image of B.  Whenever a
    certificate is returned it is exact: its value both upper-bounds nc-rank
    (validity) and lower-bounds it (equals rank B), so no luck is involved.

    The certificate is verified before it is returned.  Its zero block
    S[:r] B_k T[:, n-s:] is left^T B_k U, checked as left^T times the columns
    B_k u that the last Wong step already formed; S and T are checked
    invertible by rank, and the value against 2n - r - s and rank B.
    """
    p, n = pencil.p, pencil.n
    stack = pencil.stack
    image = mod_column_space(B, p)
    W = np.zeros((n, 0), dtype=stack.dtype)
    U = mod_preimage(B, W, p)
    for _ in range(n + 2):
        flat = _span_columns(stack, U, p)  # every B_k u, u in U
        Wn = mod_column_space(flat, p)
        if not mod_contains(image, Wn, p):
            return None
        if Wn.shape[1] == W.shape[1]:
            break
        W = Wn
        U = mod_preimage(B, W, p)
    else:  # pragma: no cover - monotone dims stabilize within n steps
        raise AssertionError("Wong sequence failed to stabilize")

    # T: last s columns span U;  S: first r rows annihilate sum_k B_k U
    T = np.concatenate([_complete_basis(U, p), U], axis=1)
    left = mod_nullspace(Wn.T, p)  # columns x with x . w = 0 for w in the span
    S = np.concatenate([left, _complete_basis(left, p)], axis=1).T
    r, s = left.shape[1], U.shape[1]
    if (2 * n - r - s != rho or np.any(mod_matmul(left.T, flat, p))
            or mod_rank(S, p) != n or mod_rank(T, p) != n):
        raise AssertionError("constructed certificate failed verification")
    return Certificate(FieldMatrix(p, S), FieldMatrix(p, T), r, s, rho)


def solve_R(pencil: ConstPencil, seed: int) -> Certificate:
    """Solve (R): an exact certificate whose value equals nc-rank(pencil).

    Succeeds whenever the commutative rank equals the noncommutative rank
    (the instance classes in scope); a full-rank substitution short-circuits
    to the degenerate certificate (I, I, 0, n).  Raises
    :class:`NcRankGapError` after 3n samples without a trapped Wong
    sequence.

    Substitution and the Wong sequence run on the live (nonzero) terms
    only; each sample still draws a full-length point over all m terms and
    keeps its live entries, so the random stream and the certificate are
    those of the whole pencil.
    """
    p, n, m = pencil.p, pencil.n, pencil.m
    live = np.flatnonzero(pencil.stack.any(axis=(1, 2)))
    if len(live) < m:
        pencil = ConstPencil._wrap(p, pencil.stack[live])
    rng = np.random.default_rng(seed)
    ident = FieldMatrix.identity(p, n)
    best_rank = -1
    for _ in range(3 * n):
        lam = rng.integers(0, p, size=m)
        B = pencil.substitute(lam[live])
        rank = mod_rank(B, p)
        if rank == n:
            return Certificate(ident, ident, 0, n, n)
        if rank < best_rank:
            continue
        best_rank = rank
        cert = _wong_certificate(pencil, B, rank)
        if cert is not None:
            return cert
    raise NcRankGapError(
        f"no certificate after {3 * n} samples (best substitution rank {best_rank}); "
        "commutative rank is likely below nc-rank")


def build_blowup(pencil: ConstPencil, d: int) -> ConstPencil:
    """The d-fold blow-up: variable x_{k,i,j}, at index (k d + i) d + j, has
    coefficient A_k placed at block (i, j)."""
    if d < 1:
        raise DimensionMismatchError("blow-up order must be >= 1")
    units = np.eye(d * d, dtype=np.int64).reshape(d * d, d, d)
    # np.kron keeps an object stack's dtype, so 62-bit moduli stay exact
    return ConstPencil._wrap(pencil.p, np.stack([np.kron(e, a) for a in pencil.stack
                                                 for e in units]))


def substituted_blowup(pencil: ConstPencil, point: np.ndarray, d: int) -> np.ndarray:
    """Evaluate the d-blow-up at x_{k,i,j} = point[k,i,j] without materializing it.

    Block (i, j) of the result is sum_k point[k,i,j] B_k: one (d^2, m) by
    (m, n^2) product, rearranged into the (n d, n d) block matrix.
    """
    m, n = pencil.m, pencil.n
    points = np.asarray(point).reshape(m, d * d).T
    blocks = mod_matmul(points, pencil.stack.reshape(m, n * n), pencil.p)
    return blocks.reshape(d, d, n, n).transpose(0, 2, 1, 3).reshape(n * d, n * d)


def is_nc_nonsingular(pencil: ConstPencil, seed: int) -> bool:
    """Decide nc-rank == n by a random substitution of the (n-1)-blow-up.

    An independent check that the solver does not call; the solver decides
    singularity with a verified :func:`solve_R` certificate instead.
    One-sided: True is always correct, False may be wrong, chiefly over small
    fields where every substitution can be rank-deficient.  A plain
    substitution of the pencil itself is tried first; full rank there already
    proves nc-nonsingularity and skips the blow-up entirely.
    """
    p, n, m = pencil.p, pencil.n, pencil.m
    rng = np.random.default_rng(seed)
    d = max(1, n - 1)
    B = pencil.substitute(rng.integers(0, p, size=m))
    if mod_rank(B, p) == n:
        return True
    if d == 1:
        return False
    M = substituted_blowup(pencil, rng.integers(0, p, size=(m, d, d)), d)
    return mod_rank(M, p) == n * d
