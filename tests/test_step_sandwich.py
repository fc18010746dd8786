"""The certificate step: the gathered sandwich, the fused zero-block check.

`step_update` forms S B T with unit rows of S and unit columns of T taken as
gathers, and `_wong_certificate` verifies its zero block from the columns the
Wong sequence already formed.  Both are checked here against the plain
definitions: a reference step built from two full products, and the full
`Certificate.check` on every certificate the oracle hands out.
"""

import numpy as np
import pytest

from degdet import (ConstPencil, LaurentMatrix, LaurentPencil, SolveOptions, gen_bipartite,
                    gen_dense, gen_rank1, random_bipartite_weights, solve, solve_R,
                    step_update)
from degdet import field_linalg, ncrank, solver
from degdet.errors import PositiveDegreeError
from degdet.field_linalg import as_residues, mod_inverse_matrix, mod_matmul, mod_rank

PRIMES = [5, 2**31 - 1, 2**61 - 1]  # the last one runs on object arrays


def random_invertible(rng, n, p):
    while True:
        M = as_residues(rng.integers(0, min(p, 2**62), size=(n, n)), p)
        if mod_rank(M, p) == n:
            return M


def wong_shaped(rng, n, r, s, p):
    """S with r dense rows over identity picks, T with s dense columns after them."""
    while True:
        left = as_residues(rng.integers(0, min(p, 2**62), size=(n, r)), p)
        U = as_residues(rng.integers(0, min(p, 2**62), size=(n, s)), p)
        if mod_rank(left, p) == r and mod_rank(U, p) == s:
            break
    S = np.concatenate([left, ncrank._complete_basis(left, p)], axis=1).T
    T = np.concatenate([ncrank._complete_basis(U, p), U], axis=1)
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
    real = ncrank.mod_nullspace

    def tampered(a, q):
        left = real(a, q)
        # same shape, full column rank, so S stays invertible: only the zero
        # block can catch it
        return rng.integers(0, q, size=left.shape)

    monkeypatch.setattr(ncrank, "mod_nullspace", tampered)
    with pytest.raises(AssertionError, match="failed verification"):
        solve_R(pencil, seed=1)


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
    """The sandwich must not fall back to two full n x n products per slab."""
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
    real = field_linalg.mod_matmul

    def recording(a, b, q):
        shapes.append((np.shape(a), np.shape(b)))
        return real(a, b, q)

    monkeypatch.setattr(field_linalg, "mod_matmul", recording)
    step_update(pencil, cert.S, cert.T, r, s)
    assert 0 < len(shapes) <= 2
    for a, b in shapes:
        if len(a) == 2:  # rows of S that are not identity picks
            assert a[0] <= r
        else:  # columns of T that are not identity picks
            assert len(b) == 2 and b[1] <= s
