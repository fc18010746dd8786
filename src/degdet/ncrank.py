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

Singularity comes from the same oracle: on the constant pencil a
certificate of value below n has r + s > n, a shrunk subspace that proves
nc-singularity, and it is verified before it is returned.  The solver uses
exactly that witness.  :func:`is_nc_nonsingular`, a one-sided test by random
substitution of the (n-1)-blow-up (nc-rank is n exactly when a d-fold blow-up
has full commutative rank for d = n - 1), is kept as an independent check;
the solver does not call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, NcRankGapError
from .field_linalg import (_INT64_SAFE_MAX, _SPLIT, FieldMatrix, mod_column_space,
                           mod_matmul, mod_nullspace, mod_rank, mod_rref)


@dataclass(frozen=True)
class ConstPencil:
    """A constant linear pencil sum_k B_k x_k, stored as an (m, n, n) stack."""

    p: int
    stack: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.stack)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise DimensionMismatchError(f"pencil stack must be (m, n, n), got {arr.shape}")
        if arr.shape[0] < 1:
            raise DimensionMismatchError("pencil needs at least one term")
        arr = arr % self.p
        arr.flags.writeable = False
        object.__setattr__(self, "stack", arr)

    @classmethod
    def from_matrices(cls, mats: Sequence[FieldMatrix]) -> "ConstPencil":
        p = mats[0].p
        return cls(p, np.stack([m.data for m in mats]))

    @property
    def m(self) -> int:
        return self.stack.shape[0]

    @property
    def n(self) -> int:
        return self.stack.shape[1]

    def matrices(self) -> tuple[FieldMatrix, ...]:
        return tuple(FieldMatrix(self.p, self.stack[k]) for k in range(self.m))

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
    eye = np.eye(n, dtype=np.int64)
    if cols.dtype == object:
        eye = eye.astype(object)
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
    """
    p, n = pencil.p, pencil.n
    stack = pencil.stack
    image = mod_column_space(B, p)

    def contained(cand: np.ndarray) -> bool:
        if cand.shape[1] == 0:
            return True
        joint = np.concatenate([image, cand], axis=1)
        return mod_rank(joint, p) == image.shape[1]

    def pre(wbasis: np.ndarray) -> np.ndarray:
        combined = np.concatenate([B, wbasis], axis=1)
        null = mod_nullspace(combined, p)
        return mod_column_space(null[:n], p)

    def span(ubasis: np.ndarray) -> np.ndarray:
        if ubasis.shape[1] == 0:
            return ubasis
        prods = mod_matmul(stack, ubasis, p)
        m, _, u = prods.shape
        flat = prods.transpose(1, 0, 2).reshape(n, m * u)
        return mod_column_space(flat, p)

    W = np.zeros((n, 0), dtype=stack.dtype)
    U = pre(W)
    for _ in range(n + 2):
        Wn = span(U)
        if not contained(Wn):
            return None
        if Wn.shape[1] == W.shape[1]:
            break
        W = Wn
        U = pre(W)
    else:  # pragma: no cover - monotone dims stabilize within n steps
        raise AssertionError("Wong sequence failed to stabilize")

    s = U.shape[1]
    r = n - Wn.shape[1]
    # T: last s columns span U;  S: first r rows annihilate sum_k B_k U
    T = np.concatenate([_complete_basis(U, p), U], axis=1)
    left = mod_nullspace(Wn.T, p)  # columns x with x . w = 0 for w in the span
    S = np.concatenate([left, _complete_basis(left, p)], axis=1).T
    cert = Certificate(FieldMatrix(p, S), FieldMatrix(p, T), r, s, 2 * n - r - s)
    if cert.value != rho or not cert.check(pencil):
        raise AssertionError("constructed certificate failed verification")
    return cert


def solve_R(pencil: ConstPencil, seed: int, retries: int | None = None) -> Certificate:
    """Solve (R): an exact certificate whose value equals nc-rank(pencil).

    Succeeds whenever the commutative rank equals the noncommutative rank
    (the instance classes in scope); a full-rank substitution short-circuits
    to the degenerate certificate (I, I, 0, n).  Raises
    :class:`NcRankGapError` after `retries` samples without a trapped Wong
    sequence.
    """
    p, n, m = pencil.p, pencil.n, pencil.m
    if retries is None:
        retries = 3 * n
    if retries < 1:
        raise DimensionMismatchError("retries must be at least 1")
    rng = np.random.default_rng(seed)
    ident = FieldMatrix.identity(p, n)
    best_rank = -1
    for _ in range(retries):
        lam = rng.integers(0, p, size=m)
        B = pencil.substitute(lam)
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
        f"no certificate after {retries} samples (best substitution rank {best_rank}); "
        "commutative rank is likely below nc-rank")


def build_blowup(pencil: ConstPencil, d: int) -> "BlowupPencil":
    """The d-fold blow-up: coefficient of x_{k,i,j} is A_k placed at block (i, j)."""
    if d < 1:
        raise DimensionMismatchError("blow-up order must be >= 1")
    p, n, m = pencil.p, pencil.n, pencil.m
    mats = []
    for k in range(m):
        for i in range(d):
            for j in range(d):
                eij = np.zeros((d, d), dtype=np.int64)
                eij[i, j] = 1
                mats.append(np.kron(eij, np.asarray(pencil.stack[k])))
    return BlowupPencil(p, d, np.stack(mats) if pencil.stack.dtype != object
                        else np.array(mats, dtype=object))


@dataclass(frozen=True)
class BlowupPencil:
    """Arranged blow-up coefficients, variable (k, i, j) at index (k d + i) d + j."""

    p: int
    d: int
    mats: np.ndarray

    @property
    def size(self) -> int:
        return self.mats.shape[1]

    def as_pencil(self) -> ConstPencil:
        return ConstPencil(self.p, self.mats)


def substituted_blowup(pencil: ConstPencil, point: np.ndarray, d: int) -> np.ndarray:
    """Evaluate the d-blow-up at x_{k,i,j} = point[k,i,j] without materializing it."""
    stack = pencil.stack
    n = pencil.n
    if stack.dtype == object or pencil.p > _INT64_SAFE_MAX:
        total = np.zeros((n * d, n * d), dtype=object)
        for k in range(pencil.m):
            total = (total + np.kron(np.asarray(point[k], dtype=object), stack[k])) % pencil.p
        return total
    x = np.asarray(point, dtype=np.int64)
    hi, lo = x >> 16, x & 0xFFFF
    out = (np.einsum("kij,kab->iajb", hi, stack) % pencil.p * _SPLIT
           + np.einsum("kij,kab->iajb", lo, stack)) % pencil.p
    return out.reshape(n * d, n * d)


def is_nc_nonsingular(pencil: ConstPencil, seed: int, attempts: int = 1) -> bool:
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
    for _ in range(max(1, attempts)):
        B = pencil.substitute(rng.integers(0, p, size=m))
        if mod_rank(B, p) == n:
            return True
        if d > 1:
            point = rng.integers(0, p, size=(m, d, d))
            M = substituted_blowup(pencil, point, d)
            if mod_rank(M, p) == n * d:
                return True
    return False
