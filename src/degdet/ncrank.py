"""Certificates for problem (R) on constant pencils over GF(p).

Given B = sum_k B_k x_k, the goal is a pair of invertible matrices (S, T)
such that every S B_k T carries a common r x s zero block in its upper-right
corner, minimizing 2n - r - s.  The construction samples substitution points,
keeps a maximum-rank point B, and runs the second Wong sequence

    W_0 = {0},   W_{j+1} = sum_k B_k (preimage of W_j under B)

until it stabilizes.  If the limit stays inside the image of B the shrunk
subspace it exposes yields a certificate whose value equals rank B.  When
the sequence escapes at every sampled point (the commutative rank is below
the nc-rank, or the field is too small), the same sequence runs at points A
of the (n-1)-fold blow-up, whose maximum rank is (n-1) nc-rank (Derksen and
Makam's blow-up regularity); a trapped limit there is F^(n-1) (x) U for a
shrunk subspace U of the pencil itself (Ivanyos, Karpinski, Qiao and Santha
2015), whose certificate has value rank A / (n-1).  Only when the blow-up
points fail too is :class:`NcRankGapError` raised.

The oracle reads the pencil's nonzero entries: a substitution scatters
point_k times each entry of B_k, and a Wong step forms every column B_k u
of the live terms (those with an entry) the same way; a zero B_k adds only
zero columns, which the reduced-echelon column space ignores.  Points are
drawn over all m terms, so every subspace is that of the full pencil.

Each sampled B is reduced once, E B = R, and so is each blow-up point A,
which :func:`substituted_blowup` evaluates from the blow-up's entries.
Its rank decides the full-rank exit, ker B is read off R, and each Wong
step gets B^-1(W) and the test of W against im B from the one product E W.
Every step reduces its subspace U before forming the columns B_k u, so the
limit's reduced basis spans T's last columns, and the first r rows of S are
read off the last step's reduction of those columns.

When every term holds at most one entry, as on bipartite instances (the
generic matrix of a graph, whose certificates are permutations; König
1931), the d = 1 sequence runs on supports: sum_k B_k U is span(e_I) for
the rows I of the entries whose column lies in supp U, so each step reads
E[:, I] and eliminates nothing, and the trapped limit is spanned by unit
vectors, which S and T are made of.  The sample and its one reduction
stay, so every draw and every certificate is the one the span sequence
gives.  Blow-up points and pencils with denser terms run on spans.

A point whose sequence escapes has rank below the maximum at its blow-up
order: if W* leaves im A, then rank A < d nc-rank (Ivanyos, Karpinski, Qiao
and Santha 2015), so no later point of that rank can trap the sequence.
:func:`solve_R` runs it only at points whose rank beats every rank already
tried at that order.

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

:class:`ConstPencil` is the one constant-pencil type, an entry store like
:class:`~degdet.laurent.LaurentPencil` without degrees: an instance's terms,
the solver's leading pencils (:func:`degdet.laurent.leading`) and the
blow-ups of :func:`build_blowup` are all of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NcRankGapError
from .field_linalg import _rref_kernel, as_residues, mod_column_space, mod_matmul, mod_rank, mod_rref


@dataclass(frozen=True, eq=False, init=False)
class ConstPencil:
    """A constant pencil sum_k B_k x_k of m n x n terms over GF(p): the nonzero
    entries as read-only (E,) arrays term, row, col and value, as in
    :class:`~degdet.laurent.LaurentPencil`.  ``ConstPencil(p, stack)`` keeps
    the nonzero entries of a reduced and checked (m, n, n) stack."""

    p: int
    n: int
    m: int
    term: np.ndarray
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray

    def __init__(self, p: int, stack) -> None:
        arr = as_residues(stack, p)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or 0 in arr.shape:
            raise DimensionMismatchError(f"need an (m, n, n) stack, m, n >= 1; got {arr.shape}")
        term, row, col = np.nonzero(arr)
        self._fill(p, arr.shape[1], arr.shape[0], term, row, col, arr[term, row, col])

    @classmethod
    def _wrap(cls, *fields) -> "ConstPencil":
        # internal fast path: p, n, m, then entries reduced, nonzero, no (term, row, col) twice
        obj = object.__new__(cls)
        obj._fill(*fields)
        return obj

    def _fill(self, p, n, m, term, row, col, value) -> None:
        for arr in (term, row, col, value):
            arr.flags.writeable = False
        self.__dict__.update(p=p, n=n, m=m, term=term, row=row, col=col, value=value)

    @property
    def stack(self) -> np.ndarray:
        """The dense read-only (m, n, n) stack, built on each read (desk-scale checks)."""
        stack = np.zeros((self.m, self.n, self.n), dtype=self.value.dtype)
        stack[self.term, self.row, self.col] = self.value
        stack.flags.writeable = False
        return stack

    def substitute(self, point: np.ndarray) -> np.ndarray:
        """Evaluate sum_k point_k B_k over GF(p) by one scatter of the entries."""
        B = np.zeros((self.n, self.n), dtype=self.value.dtype)
        # products < p**2 fit; a cell sums at most m reduced residues
        lam = np.asarray(point, dtype=B.dtype)[self.term]
        np.add.at(B, (self.row, self.col), lam * self.value % self.p)
        return B % self.p


@dataclass(frozen=True, eq=False)
class Certificate:
    """An (R) solution: S B_k T has a zero upper-right r x s block for all k.

    S and T are (n, n) residue arrays, read-only and of the pencil's dtype as
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


def _wong_certificate(pencil: ConstPencil, reduced: tuple, d: int = 1) -> Certificate | None:
    """Try to build a certificate from ``reduced = mod_rref(A, p, transform=True)``,
    A a point of the pencil's d-fold blow-up (:func:`substituted_blowup`).

    At d = 1 a pencil whose terms hold one entry each runs the sequence on
    supports (:func:`_support_certificate`); every other pencil, and every
    blow-up point, runs it on spans (:func:`_span_certificate`).  Both give
    the same escapes and the same certificates.
    """
    counts = np.bincount(pencil.term, minlength=pencil.m)
    if d == 1 and counts.max() <= 1:
        return _support_certificate(pencil, reduced)
    return _span_certificate(pencil, reduced, d, counts)


def _support_certificate(pencil: ConstPencil, reduced: tuple) -> Certificate | None:
    """:func:`_span_certificate` at d = 1 for a pencil whose terms hold one
    entry each, run on index sets without any elimination.

    A single-entry term B_k = v_k e_i e_j^T maps U onto span(e_i) when row j
    of U is nonzero and onto 0 otherwise, so sum_k B_k U = span(e_I), I the
    rows of the entries whose column lies in J = supp U.  The sequence is
    then W = span(e_I), and A^-1(W) = ker A + X_W with X_W = E[:rho, I] at
    A's pivot rows; W escapes im A exactly when E[rho:, I] is nonzero.

    span(e_J) contains U and has the same image, so its discrepancy
    dim - dim sum_k B_k (.) is at least U's.  A U of maximum discrepancy
    therefore has dim U = |J| and is span(e_J): it is spanned by unit
    vectors.  A trapped limit U* = A^-1(W*) has the maximum, n - rho, so
    no span is eliminated and U* is not reduced: T's last s = |J| columns
    are the e_j, j in J, and S's first r = n - |I| rows the e_i, i not in I,
    the unit vectors that the reductions of :func:`_span_certificate` return.
    The field plays no part beyond E, so the path is exact on any GF(p).

    So S and T are permutation matrices, built as such.  Verified as there:
    rho = 2n - r - s, and no entry has its row outside I and its column in J
    (the zero block S[:r] B_k T[:, n-s:]).
    """
    n = pencil.n
    R, E, rho, pivots = reduced
    piv = list(pivots)
    free = np.ones(n, dtype=bool)
    free[piv] = False
    base = free.copy()  # supp ker A: the free columns, and the pivot rows
    base[piv] = R[:rho, free].any(axis=1)  # where R[:rho, free] is nonzero
    I, J = np.zeros(n, dtype=bool), base
    while True:
        grown = np.zeros(n, dtype=bool)
        grown[pencil.row[J[pencil.col]]] = True
        if grown.sum() == I.sum():  # the sequence is monotone: nothing new
            break
        I, EI = grown, E[:, grown] != 0
        if EI[rho:].any():  # W escapes im A
            return None
        J = base.copy()
        J[piv] |= EI[:rho].any(axis=1)  # supp [ker A | X_W]
    r, s = n - int(I.sum()), int(J.sum())
    if 2 * n - r - s != rho or np.any(~I[pencil.row] & J[pencil.col]):
        raise AssertionError("constructed certificate failed verification")
    eye = np.eye(n, dtype=pencil.value.dtype)  # S: rows not in I, then I; T: J last
    S, T = eye[np.argsort(I, kind="stable")], eye[:, np.argsort(J, kind="stable")]
    S.flags.writeable = T.flags.writeable = False
    return Certificate(S, T, r, s, rho)


def _span_certificate(pencil: ConstPencil, reduced: tuple, d: int,
                      counts: np.ndarray) -> Certificate | None:
    """The second Wong sequence on spans at a point A of the d-fold blow-up;
    `counts` holds the pencil's entries per term.

    With E A = R of rank rho, every step reads A^-1(W) = ker A + X_W off
    that one reduction: X_W holds (E W)[:rho] at A's pivot rows, and W
    escapes im A, returning None, exactly when (E W)[rho:] is nonzero.  The
    sequence is monotone, so a step that keeps the dimension adds nothing to
    check.  Every span of the blow-up is F^d (x) W' with W' = sum_k B_k U',
    U' the column space of the n-blocks of the nd-vectors in A^-1(W) (for
    d = 1, A^-1(W) itself), reduced at the top of every step; only the
    preimage works in dimension nd.

    A trapped limit U* = A^-1(W*) is the smallest subspace of maximum
    discrepancy, so it is fixed by GL_d (x) I and equals F^d (x) U'; U'
    proves nc-rank <= rho / d, and rank A <= d nc-rank proves the converse.

    T's last columns are the limit's reduced U', and ``left`` spans the
    annihilator of sum_k B_k U', read off the last reduction of the columns
    B_k u.

    The certificate is verified first: the value against 2n - r - s and
    rho / d, and the zero block S[:r] B_k T[:, n-s:] as left^T times the
    columns B_k u that the last Wong step already formed.  S and T are
    invertible by construction, through :func:`_unit_completion`.
    """
    p, n = pencil.p, pencil.n
    live = np.cumsum(counts > 0)  # live terms up to k
    lives, slot = int(live[-1]), live[pencil.term] - 1  # each entry's index among them
    R, E, rho, pivots = reduced
    kernel = _rref_kernel(R, pivots, p)
    U = kernel
    W = np.zeros((n, 0), dtype=pencil.value.dtype)
    for _ in range(n + 2):
        # U': a reduced basis of the n-blocks of U, in substituted_blowup's block order
        U = mod_column_space(U.reshape(d, n, -1).transpose(1, 0, 2).reshape(n, -1), p)
        # every B_k u, u in U', k live: one scatter of the entries times the rows of U'
        prods = np.zeros((n, lives, U.shape[1]), dtype=U.dtype)
        np.add.at(prods, (pencil.row, slot), pencil.value[:, None] * U[pencil.col] % p)
        flat = prods.reshape(n, -1) % p
        RW, _, dim, wpivots = mod_rref(flat.T, p)  # W' = the span of flat is RW[:dim].T
        if dim == W.shape[1]:
            break
        W = RW[:dim].T
        # E (F^d (x) W), one n-column block of E at a time
        EW = mod_matmul(E.reshape(-1, d, n).transpose(1, 0, 2), W, p)
        EW = EW.transpose(1, 0, 2).reshape(n * d, -1)
        if np.any(EW[rho:]):  # W escapes im A
            return None
        X = np.zeros_like(EW)
        X[list(pivots)] = EW[:rho]  # A X = W
        U = np.concatenate([kernel, X], axis=1)  # spans A^-1(W)
    else:  # pragma: no cover - monotone dims stabilize within n steps
        raise AssertionError("Wong sequence failed to stabilize")

    # S: first r rows annihilate sum_k B_k U;  T: last s columns span U
    left = _rref_kernel(RW[:dim], wpivots, p)  # columns x with x . w = 0 for w in the span
    if d * (2 * n - left.shape[1] - U.shape[1]) != rho or np.any(mod_matmul(left.T, flat, p)):
        raise AssertionError("constructed certificate failed verification")
    return _completed(left, U, rho // d)


def _completed(left: np.ndarray, U: np.ndarray, value: int) -> Certificate:
    """The certificate whose S has first rows left^T and T last columns U, both
    completed by unit vectors: invertible by construction."""
    S = np.concatenate([left, _unit_completion(left, last=True)], axis=1).T
    T = np.concatenate([_unit_completion(U), U], axis=1)
    S.flags.writeable = T.flags.writeable = False
    return Certificate(S, T, left.shape[1], U.shape[1], value)


def solve_R(pencil: ConstPencil, seed: int) -> Certificate:
    """Solve (R): an exact certificate whose value equals nc-rank(pencil).

    Tries 3n substitution points of the pencil, then 3n points of its
    d-fold blow-up, d = n - 1 (from n = 3, where a rank gap can first
    appear).  A full-rank point short-circuits to the degenerate certificate
    (I, I, 0, n); every rank that reached the Wong sequence without
    returning escaped, so a point at or below the best rank seen so far at
    its order cannot trap it and is skipped.  Raises :class:`NcRankGapError`
    when no point gives a certificate.
    """
    p, n, m = pencil.p, pencil.n, pencil.m
    rng = np.random.default_rng(seed)
    orders = (1, n - 1) if n > 2 else (1,)
    for d in orders:
        best_rank = -1
        for _ in range(3 * n):
            if d == 1:
                A = pencil.substitute(rng.integers(0, p, size=m))
            else:
                A = substituted_blowup(pencil, rng.integers(0, p, size=(m, d, d)), d)
            reduced = mod_rref(A, p, transform=True)
            rank = reduced[2]
            if rank == n * d:
                ident = np.eye(n, dtype=pencil.value.dtype)
                ident.flags.writeable = False
                return Certificate(ident, ident, 0, n, n)
            if rank <= best_rank:  # that rank escaped already: below the maximum
                continue
            best_rank = rank
            cert = _wong_certificate(pencil, reduced, d)
            if cert is not None:
                return cert
    raise NcRankGapError(
        f"no certificate after {3 * n} points of each blow-up order in {orders} "
        f"(best rank at order {d}: {best_rank})")


def build_blowup(pencil: ConstPencil, d: int) -> ConstPencil:
    """The d-fold blow-up: variable x_{k,i,j}, at index (k d + i) d + j, has
    coefficient A_k placed at block (i, j)."""
    if d < 1:
        raise DimensionMismatchError("blow-up order must be >= 1")
    n = pencil.n
    i, j = np.divmod(np.arange(d * d), d)  # each entry repeats once per block (i, j)
    return ConstPencil._wrap(pencil.p, n * d, pencil.m * d * d,
                             (pencil.term[:, None] * d * d + i * d + j).ravel(),
                             (pencil.row[:, None] + i * n).ravel(),
                             (pencil.col[:, None] + j * n).ravel(),
                             np.repeat(pencil.value, d * d))


def substituted_blowup(pencil: ConstPencil, point: np.ndarray, d: int) -> np.ndarray:
    """Evaluate the d-blow-up at x_{k,i,j} = point[k,i,j], from the blow-up's
    entries: point[k,i,j] B_k lands in block (i, j), and no dense stack is built."""
    return build_blowup(pencil, d).substitute(np.ravel(point))


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
