import sys

import numpy as np
import pytest

import degdet.field_linalg as field_linalg
import degdet.solver as solver
from degdet import (DEFAULT_PRIME, ConstPencil, LaurentPencil, SolveOptions, build_blowup,
                    gen_bipartite, is_nc_nonsingular, leading, solve, solve_R)
from degdet.errors import DimensionMismatchError, NcRankGapError
from degdet.field_linalg import mod_rank, mod_rref
from degdet.ncrank import _wong_certificate, substituted_blowup

from conftest import brute_rank_mod, interleaved_pencils, unit_matrix

P = DEFAULT_PRIME


def test_solve_r_identity_pencil():
    for n in (1, 2, 4):
        pen = ConstPencil(P, np.stack([np.eye(n, dtype=int)]))
        cert = solve_R(pen, seed=0)
        assert cert.value == n
        assert (cert.r, cert.s) == (0, n)
        assert np.array_equal(cert.S, np.eye(n, dtype=int))
        assert cert.check(pen)


def test_solve_r_single_unit_matrix():
    pen = ConstPencil(P, np.stack([np.array(unit_matrix(0, 0, 2))]))
    cert = solve_R(pen, seed=1)
    assert cert.value == 1
    assert cert.check(pen)
    # multiple optimal certificates exist; r + s must always be 2n - value
    assert cert.r + cert.s == 3


def test_solve_r_zero_pencil():
    pen = ConstPencil(P, np.zeros((2, 3, 3), dtype=int))
    cert = solve_R(pen, seed=2)
    assert cert.value == 0
    assert cert.check(pen)


def test_solve_r_skew_gap(skew3):
    # every substitution has rank 2, but a 2-fold blow-up point has rank 6
    pen = ConstPencil(P, np.stack([np.array(m) for m in skew3]))
    cert = solve_R(pen, seed=3)
    assert (cert.r, cert.s, cert.value) == (0, 3, 3) and cert.check(pen)


def test_solve_r_value_matches_substitution_rank_on_random():
    rng = np.random.default_rng(4)
    for trial in range(15):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        # random low-rank terms keep the pencil rank below n sometimes
        stack = []
        for _ in range(m):
            r = int(rng.integers(1, n + 1))
            u = rng.integers(0, P, size=(n, r))
            v = rng.integers(0, P, size=(r, n))
            stack.append(u @ v % P)
        pen = ConstPencil(P, np.stack(stack))
        cert = solve_R(pen, seed=trial)
        assert cert.check(pen)
        # weak duality: every substitution rank is bounded by the value
        for _ in range(5):
            lam = rng.integers(0, P, size=m)
            sub = pen.substitute(lam)
            assert brute_rank_mod(sub, P) <= cert.value
        # strong duality on rank == nc-rank instances: the value is attained
        attained = max(brute_rank_mod(pen.substitute(rng.integers(0, P, size=m)), P)
                       for _ in range(8))
        assert attained == cert.value


def test_certificate_zero_block_is_checked():
    pen = ConstPencil(P, np.stack([np.array(unit_matrix(0, 0, 2))]))
    cert = solve_R(pen, seed=5)
    # a zero block past the matrix edge is no certificate; (3, 1, 0) would
    # certify the value 0, below the nc-rank 1
    for r, s, value in ((2, 2, 0), (3, 1, 0), (-1, 3, 2)):
        tampered = type(cert)(cert.S, cert.T, r, s, value)
        assert not tampered.check(pen), (r, s, value)


def test_is_nc_nonsingular_examples(skew3):
    pen = ConstPencil(P, np.stack([np.eye(3, dtype=int)]))
    assert is_nc_nonsingular(pen, seed=0)

    pen = ConstPencil(P, np.stack([np.array(unit_matrix(0, 0, 2))]))
    assert not is_nc_nonsingular(pen, seed=1)

    skew = ConstPencil(P, np.stack([np.array(m) for m in skew3]))
    assert is_nc_nonsingular(skew, seed=2)


def test_skew_blowup_rank_is_six(skew3):
    # the derived fact behind the fixture: rank of the 2-blow-up is 6
    pen = ConstPencil(P, np.stack([np.array(m) for m in skew3]))
    rng = np.random.default_rng(3)
    M = substituted_blowup(pen, rng.integers(0, P, size=(3, 2, 2)), 2)
    assert brute_rank_mod(M, P) == 6


def test_build_blowup_d1_is_identity():
    rng = np.random.default_rng(6)
    stack = rng.integers(0, P, size=(2, 3, 3))
    blow = build_blowup(ConstPencil(P, stack), 1)
    assert blow.stack.shape == (2, 3, 3)
    assert np.array_equal(blow.stack, stack)


def test_build_blowup_identity_d2():
    blow = build_blowup(ConstPencil(P, np.stack([np.eye(2, dtype=int)])), 2)
    assert blow.stack.shape == (4, 4, 4)
    for i in range(2):
        for j in range(2):
            eij = np.zeros((2, 2), dtype=int)
            eij[i, j] = 1
            assert np.array_equal(blow.stack[i * 2 + j], np.kron(eij, np.eye(2, dtype=int)))


def test_build_blowup_block_placement():
    rng = np.random.default_rng(7)
    A = rng.integers(0, P, size=(1, 2, 2))
    blow = build_blowup(ConstPencil(P, A), 2)
    # variable (k=0, i=0, j=1) -> index 1; block row 0, block column 1 holds A
    mat = blow.stack[1]
    assert np.array_equal(mat[0:2, 2:4], A[0])
    assert not mat[0:2, 0:2].any() and not mat[2:4, :].any()


def test_substituted_blowup_matches_explicit():
    rng = np.random.default_rng(8)
    stack = rng.integers(0, P, size=(2, 3, 3))
    pen = ConstPencil(P, stack)
    d = 2
    point = rng.integers(0, P, size=(2, d, d))
    fast = substituted_blowup(pen, point, d)
    slow = np.zeros((6, 6), dtype=object)
    blow = build_blowup(pen, d)
    for idx in range(blow.m):
        k, rem = divmod(idx, d * d)
        i, j = divmod(rem, d)
        slow = (slow + int(point[k, i, j]) * blow.stack[idx]) % P
    assert np.array_equal(fast.astype(object), slow)


def test_solve_r_reproducible():
    rng = np.random.default_rng(9)
    stack = rng.integers(0, P, size=(3, 4, 4))
    pen = ConstPencil(P, stack)
    a = solve_R(pen, seed=42)
    b = solve_R(pen, seed=42)
    assert np.array_equal(a.S, b.S) and np.array_equal(a.T, b.T)
    assert (a.r, a.s) == (b.r, b.s)


@pytest.mark.parametrize("p", [5, P, 2**61 - 1])
def test_build_blowup_is_a_readonly_const_pencil(p):
    rng = np.random.default_rng(p % 89)
    dtype = np.int64 if p <= P else object  # the residue dtype of GF(p) (as_residues)
    pen = ConstPencil(p, rng.integers(0, 5, size=(2, 3, 3)).astype(dtype) * (p // 5))
    d = 2
    blow = build_blowup(pen, d)
    assert isinstance(blow, ConstPencil) and blow.p == p
    assert (blow.m, blow.n) == (2 * d * d, 3 * d)
    assert blow.stack.dtype == pen.stack.dtype == dtype
    assert not blow.stack.flags.writeable
    assert np.array_equal(blow.stack, ConstPencil(p, blow.stack).stack)  # reduced
    point = rng.integers(0, p, size=(2, d, d))
    assert np.array_equal(blow.substitute(point.reshape(-1)),
                          substituted_blowup(pen, point, d))


def test_const_pencil_reduces_an_int64_stack_at_a_62_bit_prime():
    # int64 products of these residues overflow; the pencil must hold Python ints
    big = 2**61 - 1
    a, b = 2**40 + 3, 2**41 + 7
    pen = ConstPencil(big, np.array([[[a, 2 * a], [b, 2 * b]]], dtype=np.int64))
    assert pen.stack.dtype == object
    cert = solve_R(pen, seed=0)
    assert cert.value == 1
    assert cert.check(pen)


@pytest.mark.parametrize("p", [5, P, 2**61 - 1])
def test_const_pencil_refuses_a_ragged_stack(p):
    with pytest.raises(DimensionMismatchError):
        ConstPencil(p, [np.eye(2, dtype=int), np.eye(3, dtype=int)])


@pytest.mark.parametrize("p", [5, P, 2**61 - 1])
def test_wong_certificate_ignores_zero_slabs(p):
    full, part, live = interleaved_pencils(p, seed=p % 97)
    rng = np.random.default_rng(11)
    for _ in range(4):
        lam = rng.integers(0, p, size=full.m)
        B = full.substitute(lam)
        assert np.array_equal(B, part.substitute(lam[live]))
        reduced = mod_rref(B, p, transform=True)
        a, b = _wong_certificate(full, reduced), _wong_certificate(part, reduced)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a.S, b.S) and np.array_equal(a.T, b.T)
            assert (a.r, a.s, a.value) == (b.r, b.s, b.value)


@pytest.mark.parametrize("p", [5, P, 2**61 - 1])
def test_solve_r_on_live_terms_certifies_the_full_pencil(p):
    full, part, _ = interleaved_pencils(p, seed=p % 89)
    cert = solve_R(full, seed=3)
    assert (cert.value, cert.r + cert.s) == (2, 6)
    assert cert.check(full) and cert.check(part)


@pytest.mark.parametrize("p", [5, P, 2**61 - 1])
def test_solve_r_all_zero_leading_pencil_has_value_zero(p):
    # no term has a degree-0 slab, so no term is live
    mats = np.random.default_rng(12).integers(1, 5, size=(3, 4, 4))
    pen = leading(LaurentPencil.from_constants(p, mats, degrees=[-1, -2, -1]))
    assert pen.stack.shape == (3, 4, 4) and not pen.stack.any()
    cert = solve_R(pen, seed=0)
    assert (cert.value, cert.r, cert.s) == (0, 4, 4)
    assert cert.check(pen)


def test_bipartite_n16_solve_stays_under_three_million_matmul_macs(monkeypatch):
    # Every mod_matmul, by any module's name for it, counted from the operand
    # shapes.  Substituting and running Wong on all m = 256 terms of the
    # leading pencil instead of its live ones costs about 30.5 M here.
    real, macs = field_linalg.mod_matmul, []

    def counted(a, b, p):
        out = real(a, b, p)
        macs.append(int(np.prod(out.shape, dtype=np.int64)) * a.shape[-1])
        return out

    for name, module in list(sys.modules.items()):
        if name.startswith("degdet") and getattr(module, "mod_matmul", None) is real:
            monkeypatch.setattr(module, "mod_matmul", counted)
    costs = np.random.default_rng(116).integers(-10**6, 10**6, (16, 16))
    report = solve(gen_bipartite(costs.tolist()), SolveOptions(seed=0))
    assert (report.value, report.oracle_calls) == (13260670, 54)
    assert sum(macs) <= 3_000_000, sum(macs)


def test_bipartite_n16_solve_pencils_store_at_most_m_entries(monkeypatch):
    # The solve of the MAC guard above.  Its certificates are permutations,
    # so every pencil step_update returns keeps the m = 256 nonzero entries
    # of the E_ij terms; a slab store held 256 x 256 cells here.
    real, stored = solver.step_update, []

    def recording(*args):
        out = real(*args)
        stored.append(len(out.value))
        return out

    monkeypatch.setattr(solver, "step_update", recording)
    costs = np.random.default_rng(116).integers(-10**6, 10**6, (16, 16))
    report = solve(gen_bipartite(costs.tolist()), SolveOptions(seed=0))
    assert (report.value, report.oracle_calls) == (13260670, 54)
    assert stored and max(stored) <= 256, max(stored)


@pytest.mark.parametrize("p", [5, P, 2**61 - 1])
def test_certificates_hold_readonly_square_arrays_of_the_stack_dtype(p):
    full, _, _ = interleaved_pencils(p, seed=p % 83)
    wide = ConstPencil(p, np.stack([np.eye(4, dtype=int), np.ones((4, 4), dtype=int)]))
    certs = [solve_R(full, seed=3), solve_R(wide, seed=0)]
    assert [(c.r, c.s) for c in certs] == [(4, 2), (0, 4)]  # a Wong and a degenerate one
    for pen, cert in zip((full, wide), certs):
        for M in (cert.S, cert.T):
            assert isinstance(M, np.ndarray) and M.shape == (4, 4)
            assert M.dtype == pen.stack.dtype and not M.flags.writeable


def test_bipartite_n16_solve_stays_under_140_rref_calls(monkeypatch):
    # Every mod_rref, by any module's name for it, on the solve of the MAC
    # guard above.  Eliminating B once per sample, reading every preimage off
    # that reduction, reducing U once per Wong run and reading `left` off the
    # last span's reduction makes 136 calls here; reducing U and the span's
    # annihilator at every step made 186, and taking each preimage by its own
    # elimination and ranking S and T made 364.
    real, calls = field_linalg.mod_rref, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("degdet") and getattr(module, "mod_rref", None) is real:
            monkeypatch.setattr(module, "mod_rref", counted)
    costs = np.random.default_rng(116).integers(-10**6, 10**6, (16, 16))
    report = solve(gen_bipartite(costs.tolist()), SolveOptions(seed=0))
    assert (report.value, report.oracle_calls) == (13260670, 54)
    assert len(calls) <= 140, len(calls)
