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

Each sampled B is reduced once, E B = R.  Its rank decides the full-rank
exit, ker B is read off R, and each Wong step gets B^-1(W) and the test of
W against im B from the one product E W.

Every certificate is verified before it is returned.  Its zero block
S[:r] B_k T[:, n-s:] is checked exactly as the first r rows of S times the
columns B_k u (u spanning T[:, n-s:]) that the last Wong step already
formed, r n m s multiply-adds instead of the 2 m n^3 of forming every
S B_k T.  S and T are invertible by construction (echelon bases completed
by unit vectors).  :meth:`Certificate.check` recomputes the whole product,
ranks S and T, and stays the independent verifier.

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
from .field_linalg import (_rref_kernel, _span_columns, as_residues, mod_column_space,
                           mod_matmul, mod_nullspace, mod_rank, mod_rref)


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


@dataclass(frozen=True, eq=False)
class Certificate:
    """An (R) solution: S B_k T has a zero upper-right r x s block for all k.

    S and T are (n, n) residue arrays, read-only and of the stack's dtype as
    :func:`solve_R` returns them; certificates compare by identity.
    """

    S: np.ndarray
    T: np.ndarray
    r: int
    s: int
    value: int

    def check(self, pencil: ConstPencil) -> bool:
        """Machine-check the block sizes, the zero block and invertibility."""
        n, p = pencil.n, pencil.p
        if not (0 <= self.r <= n and 0 <= self.s <= n):
            return False
        if self.value != 2 * n - self.r - self.s:
            return False
        if any(M.shape != (n, n) or mod_rank(M, p) != n for M in (self.S, self.T)):
            return False
        if self.r == 0 or self.s == 0:
            return True
        moved = mod_matmul(mod_matmul(self.S, pencil.stack, p), self.T, p)
        return not np.any(moved[:, : self.r, n - self.s:])


def _unit_completion(cols: np.ndarray, last: bool = False) -> np.ndarray:
    """Unit vectors, of cols' dtype, completing `cols` to a basis of GF(p)^n.

    `cols` must be the identity on the rows of each column's first nonzero
    entry (last, with `last`): a reduced column echelon (nullspace) basis.
    """
    n = cols.shape[0]
    nonzero = cols != 0
    pivots = n - 1 - nonzero[::-1].argmax(axis=0) if last else nonzero.argmax(axis=0)
    keep = np.ones(n, dtype=bool)
    keep[pivots] = False
    return np.eye(n, dtype=cols.dtype)[:, keep]


def _wong_certificate(pencil: ConstPencil, reduced: tuple) -> Certificate | None:
    """Try to build a certificate from ``reduced = mod_rref(B, p, transform=True)``.

    With E B = R of rank rho, every step reads B^-1(W) = ker B + X_W off
    that one reduction: X_W holds (E W)[:rho] at B's pivot rows, and W
    escapes im B, returning None, exactly when (E W)[rho:] is nonzero.  The
    sequence is monotone, so a step that keeps the dimension adds nothing to
    check.  A returned certificate is exact: its value both upper-bounds
    nc-rank (validity) and lower-bounds it (equals rank B).

    It is verified first: the value against 2n - r - s and rank B, and the
    zero block S[:r] B_k T[:, n-s:] as left^T times the columns B_k u that
    the last Wong step already formed.  S and T are invertible by
    construction, through :func:`_unit_completion`.
    """
    p, n = pencil.p, pencil.n
    stack = pencil.stack
    R, E, rho, pivots = reduced
    kernel = _rref_kernel(R, pivots, p)
    U = mod_column_space(kernel, p)
    W = np.zeros((n, 0), dtype=stack.dtype)
    for _ in range(n + 2):
        flat = _span_columns(stack, U, p)  # every B_k u, u in U
        Wn = mod_column_space(flat, p)
        if Wn.shape[1] == W.shape[1]:
            break
        W = Wn
        EW = mod_matmul(E, W, p)
        if np.any(EW[rho:]):  # W escapes im B
            return None
        X = np.zeros_like(EW)
        X[list(pivots)] = EW[:rho]  # B X = W
        U = mod_column_space(np.concatenate([kernel, X], axis=1), p)
    else:  # pragma: no cover - monotone dims stabilize within n steps
        raise AssertionError("Wong sequence failed to stabilize")

    # S: first r rows annihilate sum_k B_k U;  T: last s columns span U
    left = mod_nullspace(Wn.T, p)  # columns x with x . w = 0 for w in the span
    r, s = left.shape[1], U.shape[1]
    if 2 * n - r - s != rho or np.any(mod_matmul(left.T, flat, p)):
        raise AssertionError("constructed certificate failed verification")
    S = np.concatenate([left, _unit_completion(left, last=True)], axis=1).T
    T = np.concatenate([_unit_completion(U), U], axis=1)
    S.flags.writeable = T.flags.writeable = False
    return Certificate(S, T, r, s, rho)


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
    best_rank = -1
    for _ in range(3 * n):
        lam = rng.integers(0, p, size=m)
        reduced = mod_rref(pencil.substitute(lam[live]), p, transform=True)
        rank = reduced[2]
        if rank == n:
            ident = np.eye(n, dtype=pencil.stack.dtype)
            ident.flags.writeable = False
            return Certificate(ident, ident, 0, n, n)
        if rank < best_rank:
            continue
        best_rank = rank
        cert = _wong_certificate(pencil, reduced)
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
