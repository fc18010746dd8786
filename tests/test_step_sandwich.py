"""The certificate step: the entry remap, the fused zero-block check.

`step_update` forms S B T on the entry store, moving the entries that unit
rows of S and unit columns of T pick and multiplying only the other lines,
and `_wong_certificate` verifies its zero block from the columns the
Wong sequence already formed.  Both are checked here against the plain
definitions: a reference step built from two full products, and the full
`Certificate.check` on every certificate the oracle hands out.  The oracle's
shortcuts are checked too: the unit-vector completion of S and T, and the
escape test read off the one reduction of B, against a Wong sequence that
eliminates for every preimage, and the skip of points whose rank already
escaped, against the sample loop that runs Wong at every tie.
"""

from collections import Counter

import numpy as np
import pytest

from degdet import (ConstPencil, LaurentMatrix, LaurentPencil, SolveOptions, gen_bipartite,
                    gen_dense, gen_rank1, random_bipartite_weights, solve, solve_R,
                    step_update)
from degdet import laurent, ncrank, solver
from degdet.errors import NcRankGapError, PositiveDegreeError
from degdet.field_linalg import (_dtype_for, _span_columns, as_residues, mod_column_space,
                                 mod_inverse_matrix, mod_matmul, mod_nullspace, mod_preimage,
                                 mod_rank, mod_rref)

PRIMES = [5, 2**31 - 1, 2**61 - 1]  # the last one runs on object arrays


def random_invertible(rng, n, p):
    while True:
        M = as_residues(rng.integers(0, min(p, 2**62), size=(n, n)), p)
        if mod_rank(M, p) == n:
            return M


def wong_shaped(rng, n, r, s, p):
    """S with r dense rows over unit rows, T with s dense columns after unit columns.

    `left` is a nullspace basis and U a reduced column echelon basis, both
    completed by unit vectors as the oracle completes them.
    """
    while True:
        A = as_residues(rng.integers(0, min(p, 2**62), size=(n - r, n)), p)
        U = mod_column_space(as_residues(rng.integers(0, min(p, 2**62), size=(n, s)), p), p)
        if mod_rank(A, p) == n - r and U.shape[1] == s:
            break
    left = mod_nullspace(A, p)
    S = np.concatenate([left, ncrank._unit_completion(left, last=True)], axis=1).T
    T = np.concatenate([ncrank._unit_completion(U), U], axis=1)
    return S, T


def random_pencil(rng, n, m, p, S, T, r, s):
    """Terms with 1-3 stored degrees; degree 0 keeps S B T's r x s block zero."""
    Sinv, Tinv = mod_inverse_matrix(S, p), mod_inverse_matrix(T, p)
    terms = []
    for _ in range(m):
        degs = sorted(rng.choice(5, size=int(rng.integers(1, 4)), replace=False))
        coeffs = {}
        for d in degs:
            Y = as_residues(rng.integers(0, min(p, 2**62), size=(n, n)), p)
            if d == 0:
                Y[:r, n - s:] = 0
                Y = mod_matmul(mod_matmul(Sinv, Y, p), Tinv, p)
            coeffs[-int(d)] = Y
        terms.append(LaurentMatrix(p, n, coeffs))
    return LaurentPencil.from_terms(p, n, terms)


def reference_step(pencil, S, T, r, s):
    """Two full products per coefficient, then the four block moves."""
    n, p, cut = pencil.n, pencil.p, pencil.n - s
    terms = []
    for term in pencil.terms:
        out = {}
        for d, X in term.coeffs.items():
            Y = mod_matmul(mod_matmul(S, X, p), T, p)
            if d == 0 and np.any(Y[:r, cut:]):
                raise PositiveDegreeError("zero block violated")
            for deg, rows, cols in ((d + 1, slice(0, r), slice(cut, n)),
                                    (d, slice(0, r), slice(0, cut)),
                                    (d, slice(r, n), slice(cut, n)),
                                    (d - 1, slice(r, n), slice(0, cut))):
                acc = out.setdefault(deg, np.zeros((n, n), dtype=Y.dtype))
                acc[rows, cols] = Y[rows, cols]
        terms.append(LaurentMatrix(p, n, {d: a for d, a in out.items() if np.any(a)}))
    return LaurentPencil.from_terms(p, n, terms)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", ["wong", "dense"])
def test_step_update_matches_full_products(p, shape):
    rng = np.random.default_rng(p % 1000 + len(shape))
    for n in (1, 2, 4, 5):
        for r in range(n + 1):
            for s in range(n + 1):
                if shape == "wong":
                    S, T = wong_shaped(rng, n, r, s, p)
                else:
                    S, T = random_invertible(rng, n, p), random_invertible(rng, n, p)
                pencil = random_pencil(rng, n, int(rng.integers(1, 4)), p, S, T, r, s)
                got = step_update(pencil, S, T, r, s)
                assert got.terms == reference_step(pencil, S, T, r, s).terms, (n, r, s)



@pytest.mark.parametrize("p", PRIMES)
def test_step_update_matches_full_products_at_degrees_far_apart(p):
    # degrees 2^61 apart do not pack into one int64 line key together with the
    # term and the line, so lines are grouped by the rank of their degree
    rng = np.random.default_rng(p % 1000 + 21)
    n = 3
    S, T = random_invertible(rng, n, p), random_invertible(rng, n, p)
    terms = tuple(LaurentMatrix(p, n, {d: rng.integers(1, min(p, 2**62), size=(n, n))})
                  for d in (-1, -2**61))
    pencil = LaurentPencil.from_terms(p, n, terms)
    assert pencil.terms == terms
    got = step_update(pencil, S, T, 0, n)
    assert got.terms == reference_step(pencil, S, T, 0, n).terms


@pytest.mark.parametrize("p", PRIMES)
def test_step_update_matches_full_products_when_unit_rows_repeat(p):
    # a singular S or T may pick one row or column twice; only a unit line
    # whose pick is its own may move entries, the others are multiplied
    rng = np.random.default_rng(p % 1000 + 23)
    dtype = _dtype_for(p)
    for n in (2, 3, 5):
        for _ in range(10):
            S = np.eye(n, dtype=dtype)[rng.integers(0, n, n)]
            T = np.eye(n, dtype=dtype)[:, rng.integers(0, n, n)]
            ident = np.eye(n, dtype=dtype)
            pencil = random_pencil(rng, n, 3, p, ident, ident, 0, n)
            got = step_update(pencil, S, T, 0, n)
            assert got.terms == reference_step(pencil, S, T, 0, n).terms, (n, S, T)

@pytest.mark.parametrize("p", PRIMES)
def test_step_update_rejects_a_nonzero_block_like_the_reference(p):
    rng = np.random.default_rng(11)
    n, r, s = 4, 2, 3
    S, T = wong_shaped(rng, n, r, s, p)
    X = as_residues(rng.integers(1, min(p, 2**62), size=(n, n)), p)
    pencil = LaurentPencil.from_terms(p, n, (LaurentMatrix(p, n, {0: X}),))
    with pytest.raises(PositiveDegreeError):
        reference_step(pencil, S, T, r, s)
    with pytest.raises(PositiveDegreeError):
        step_update(pencil, S, T, r, s)


def hidden_block_pencil(rng, n, m, r0, s0, p):
    """B_k = P Y_k Q with a common r0 x s0 zero block hidden by random P, Q."""
    Y = rng.integers(0, p, size=(m, n, n))
    Y[:, :r0, n - s0:] = 0
    Pm, Qm = random_invertible(rng, n, p), random_invertible(rng, n, p)
    return ConstPencil(p, mod_matmul(mod_matmul(Pm, Y, p), Qm, p))


def test_tampered_wong_step_fails_verification(monkeypatch):
    p = 2**31 - 1
    rng = np.random.default_rng(3)
    pencil = hidden_block_pencil(rng, 5, 3, 3, 3, p)
    honest = solve_R(pencil, seed=1)
    assert honest.r > 0 and honest.s > 0
    real = ncrank._rref_kernel

    def tampered(R, pivots, q):
        basis = real(R, pivots, q)
        if R.shape[0] != len(pivots):  # ker B, read off all n rows of B's reduction
            return basis
        # `left`, read off the pivot rows of the span's reduction: same shape,
        # full column rank, so S stays invertible: only the zero block can catch it
        return rng.integers(0, q, size=basis.shape)

    monkeypatch.setattr(ncrank, "_rref_kernel", tampered)
    with pytest.raises(AssertionError, match="failed verification"):
        solve_R(pencil, seed=1)


@pytest.mark.parametrize("p", PRIMES)
def test_unit_completion_of_echelon_and_nullspace_bases_is_invertible(p):
    rng = np.random.default_rng(p % 1000 + 7)
    for n in range(1, 7):
        for k in range(n + 1):
            mask = rng.random((n, k)) < 0.6  # sparse inputs vary the pivot rows
            A = as_residues(rng.integers(0, min(p, 2**62), size=(n, k)) * mask, p)
            for cols, last in ((mod_column_space(A, p), False), (mod_nullspace(A.T, p), True)):
                full = np.concatenate([cols, ncrank._unit_completion(cols, last=last)], axis=1)
                assert full.shape == (n, n) and full.dtype == _dtype_for(p)
                assert mod_rank(full, p) == n, (n, k, last)


def reference_wong(pencil, B, rho):
    """T's last s columns by a fresh preimage elimination per step, or None
    when a preimage comes out short of n - rho + dim W (W escapes im B)."""
    p, n = pencil.p, pencil.n
    W = np.zeros((n, 0), dtype=pencil.stack.dtype)
    U = mod_preimage(B, W, p)
    while True:
        Wn = mod_column_space(_span_columns(pencil.stack, U, p), p)
        if Wn.shape[1] == W.shape[1]:
            return U
        W = Wn
        U = mod_preimage(B, W, p)
        if U.shape[1] != n - rho + W.shape[1]:
            return None


@pytest.mark.parametrize("p", [5, 7, 2**61 - 1])
def test_escape_read_off_e_times_w_agrees_with_the_preimage_dimension(p, skew3):
    rng = np.random.default_rng(p % 1000 + 3)
    skew = ConstPencil(p, np.stack([np.array(m) for m in skew3]))
    pencils = [skew] + [hidden_block_pencil(rng, n, 3, r0, s0, p)
                        for n, r0, s0 in ((3, 2, 2), (4, 2, 3), (5, 3, 3), (6, 2, 5))]
    escaped = trapped = 0
    for pencil in pencils:
        for _ in range(12):
            # a sparse point often drops B below the maximum rank, so W escapes
            lam = rng.integers(0, p, size=pencil.m) * (rng.random(pencil.m) < 0.7)
            B = pencil.substitute(lam)
            reduced = mod_rref(B, p, transform=True)
            if reduced[2] == pencil.n:
                continue
            want = reference_wong(pencil, B, reduced[2])
            got = ncrank._wong_certificate(pencil, reduced)
            assert (got is None) == (want is None)
            if got is None:
                escaped += 1
            else:
                trapped += 1
                assert np.array_equal(got.T[:, pencil.n - got.s:], want)
    assert escaped and trapped
    # every substitution of skew3 escapes; a point of its 2-fold blow-up certifies it
    cert = solve_R(skew, seed=0)
    assert cert.value == 3 and cert.check(skew)


# (r, s) of solve_R(hidden_block_pencil(...), seed=n), drawn in this order
# from default_rng(p % 1009); unit-vector completion must not move them
HIDDEN_BLOCK_SHAPES = ((3, 2, 2, 2), (4, 3, 1, 3), (5, 3, 3, 3), (6, 2, 2, 5), (6, 4, 4, 4),
                       (7, 3, 5, 4), (8, 4, 4, 6))
HIDDEN_BLOCK_RS = {
    5: [(3, 1), (0, 4), (3, 3), (2, 5), (4, 4), (5, 4), (4, 6)],
    7: [(2, 2), (0, 4), (3, 3), (4, 3), (4, 4), (5, 4), (4, 6)],
    2**31 - 1: [(2, 2), (0, 4), (3, 3), (2, 5), (4, 4), (5, 4), (4, 6)],
    2**61 - 1: [(2, 2), (0, 4), (3, 3), (2, 5), (4, 4), (5, 4), (4, 6)],
}


@pytest.mark.parametrize("p", sorted(HIDDEN_BLOCK_RS))
def test_hidden_block_pencils_keep_their_certificate_shapes(p):
    rng = np.random.default_rng(p % 1009)
    got = []
    for n, m, r0, s0 in HIDDEN_BLOCK_SHAPES:
        pencil = hidden_block_pencil(rng, n, m, r0, s0, p)
        cert = solve_R(pencil, seed=n)
        assert cert.check(pencil)
        got.append((cert.r, cert.s))
    assert got == HIDDEN_BLOCK_RS[p]


def test_every_oracle_certificate_passes_the_full_check(monkeypatch):
    rng = np.random.default_rng(8)
    seen = []
    real = solver.solve_R

    def recording(pencil, seed):
        cert = real(pencil, seed)
        seen.append((pencil, cert))
        return cert

    monkeypatch.setattr(solver, "solve_R", recording)
    for k in range(4):
        grid = random_bipartite_weights(6, k, (-50, 50), density=0.7)
        solve(gen_bipartite(grid), SolveOptions(seed=k))
        solve(gen_rank1(5, 7, seed=k, cost_range=(-20, 20)), SolveOptions(seed=k))
        solve(gen_dense(4, 5, seed=k, cost_range=(-20, 20)), SolveOptions(seed=k))
    for p in (7, 2**31 - 1, 2**61 - 1):
        for n, r0, s0 in ((3, 2, 2), (5, 3, 3), (6, 2, 5), (6, 4, 4)):
            pencil = hidden_block_pencil(rng, n, 3, r0, s0, p)
            seen.append((pencil, solve_R(pencil, seed=n)))
    assert any(0 < cert.r < pencil.n and 0 < cert.s < pencil.n for pencil, cert in seen)
    for pencil, cert in seen:
        assert cert.check(pencil)


def test_wong_step_update_multiplies_only_the_dense_rows_and_columns(monkeypatch):
    """Unit rows of S and unit columns of T only move entries; the other rows and
    columns take one product each, over lines of length n."""
    p, n = 2**31 - 1, 8
    rng = np.random.default_rng(5)
    const = hidden_block_pencil(rng, n, 4, 4, 6, p)
    cert = solve_R(const, seed=2)
    r, s = cert.r, cert.s
    assert 0 < r < n and 0 < s < n
    terms = tuple(LaurentMatrix(p, n, {0: const.stack[k],
                                       -2: rng.integers(0, p, size=(n, n))})
                  for k in range(const.m))
    pencil = LaurentPencil.from_terms(p, n, terms)
    shapes = []
    real = laurent.mod_matmul

    def recording(a, b, q):
        shapes.append((np.shape(a), np.shape(b)))
        return real(a, b, q)

    monkeypatch.setattr(laurent, "mod_matmul", recording)
    perm = np.eye(n, dtype=np.int64)[rng.permutation(n)]
    step_update(pencil, perm, perm.T, 0, n)
    assert shapes == []  # a permutation certificate is an index remap
    step_update(pencil, cert.S, cert.T, r, s)
    assert len(shapes) == 2
    for (a, b), dense in zip(shapes, (r, s)):  # S's dense rows, then T's dense columns
        assert a[1] == b[0] == n and b[1] <= dense
        assert a[0] <= 2 * const.m * n  # at most one line per (term, degree, row or column)


def reference_solve_R(pencil, seed):
    """solve_R's sample loop before escaped ranks were skipped: a point whose
    rank ties the best rank seen at its blow-up order runs Wong again."""
    p, n, m = pencil.p, pencil.n, pencil.m
    live = np.flatnonzero(pencil.stack.any(axis=(1, 2)))
    if len(live) < m:
        pencil = ConstPencil._wrap(p, pencil.stack[live])
    rng = np.random.default_rng(seed)
    for d in ((1, n - 1) if n > 2 else (1,)):
        best_rank = -1
        for _ in range(3 * n):
            if d == 1:
                A = pencil.substitute(rng.integers(0, p, size=m)[live])
            else:
                A = ncrank.substituted_blowup(pencil, rng.integers(0, p, size=(m, d, d))[live], d)
            reduced = mod_rref(A, p, transform=True)
            rank = reduced[2]
            if rank == n * d:
                ident = np.eye(n, dtype=pencil.stack.dtype)
                return ncrank.Certificate(ident, ident, 0, n, n)
            if rank < best_rank:
                continue
            best_rank = rank
            cert = ncrank._wong_certificate(pencil, reduced, d)
            if cert is not None:
                return cert
    raise NcRankGapError("no certificate")


def oracle_calls_of_the_tiny_corpus():
    """(pencil, seed) of every solve_R call of the n = 5 bipartite solves over
    p = 5, 7 and 11, costs in [-5, 5] at density 0.6, seeds 0..59."""
    calls, real = [], solver.solve_R

    def recording(pencil, seed):
        calls.append((pencil, seed))
        return real(pencil, seed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "solve_R", recording)
        for p in (5, 7, 11):
            for s in range(60):
                grid = random_bipartite_weights(5, s, (-5, 5), 0.6)
                solve(gen_bipartite(grid, p=p), SolveOptions(seed=s))
    return calls


def test_escaped_rank_skips_wong_and_keeps_every_certificate(monkeypatch, skew3):
    # A point whose Wong sequence escapes has rank below the maximum at its
    # blow-up order (Ivanyos, Karpinski, Qiao and Santha 2015), so no later
    # point of that rank can trap it: solve_R skips them, and returns what the
    # old loop returned.
    calls = oracle_calls_of_the_tiny_corpus()
    for p in sorted(HIDDEN_BLOCK_RS):
        rng = np.random.default_rng(p % 1009)
        calls += [(hidden_block_pencil(rng, n, m, r0, s0, p), n)
                  for n, m, r0, s0 in HIDDEN_BLOCK_SHAPES]
    for p in (5, 7, 11, 2**31 - 1):
        skew = ConstPencil(p, np.stack([np.array(m) for m in skew3]))
        calls += [(skew, seed) for seed in range(8)]
    runs, real = [], ncrank._wong_certificate

    def wong(pencil, reduced, d=1):
        cert = real(pencil, reduced, d)
        runs.append((d, reduced[2], cert is not None))
        return cert

    monkeypatch.setattr(ncrank, "_wong_certificate", wong)
    orders = {reference_solve_R: Counter(), solve_R: Counter()}  # Wong runs per order
    for pencil, seed in calls:
        outcomes = []
        for oracle, count in orders.items():
            runs.clear()
            try:
                cert = oracle(pencil, seed)
                outcomes.append((cert.S.tolist(), cert.T.tolist(), cert.r, cert.s, cert.value))
            except NcRankGapError:
                outcomes.append("gap")
            escaped = set()
            for d, rank, trapped in runs:
                assert not (trapped and (d, rank) in escaped), (d, rank)
                if not trapped:
                    escaped.add((d, rank))
            count.update(d for d, _, _ in runs)
        assert outcomes[0] == outcomes[1]
    reference, skipping = orders.values()
    # the skip is taken at both blow-up orders (skew3's is 2)
    assert skipping[1] < reference[1] and skipping[2] < reference[2], (skipping, reference)
