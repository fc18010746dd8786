import numpy as np
import pytest

from degdet import (DEFAULT_PRIME, ConstPencil, LaurentMatrix, LaurentPencil, leading,
                    scale_tinv, square_substitute, step_update, truncate)
from degdet.errors import DimensionMismatchError, PositiveDegreeError
from degdet.field_linalg import mod_inverse_matrix, mod_rank

P = DEFAULT_PRIME
I2 = np.eye(2, dtype=np.int64)

E11 = [[1, 0], [0, 0]]
E12 = [[0, 1], [0, 0]]
E21 = [[0, 0], [1, 0]]
E22 = [[0, 0], [0, 1]]


def pencil(*term_specs, n=2):
    terms = tuple(LaurentMatrix(P, n, {d: np.array(mat) for d, mat in spec.items()})
                  for spec in term_specs)
    return LaurentPencil.from_terms(P, n, terms)


def test_positive_degree_rejected_at_construction():
    with pytest.raises(PositiveDegreeError):
        LaurentMatrix(P, 2, {1: np.array(E11)})


def test_leading_examples():
    pen = pencil({0: np.eye(2, dtype=int)})
    assert leading(pen).stack.tolist() == [np.eye(2, dtype=int).tolist()]

    pen = pencil({-1: E12})
    assert leading(pen).stack.tolist() == [[[0, 0], [0, 0]]]

    pen = pencil({0: E11, -1: E22})
    assert leading(pen).stack.tolist() == [E11]


def test_step_update_lifts_row():
    pen = pencil({-1: E12})
    out = step_update(pen, I2, I2, 1, 1)
    assert out.terms[0].degrees() == (0,)
    assert out.terms[0].coeffs[0].tolist() == E12


def test_step_update_degenerate_certificate_is_identity():
    pen = pencil({0: E11, -1: E22}, {0: E21})
    out = step_update(pen, I2, I2, 0, 2)
    assert out.terms[0] == pen.terms[0]
    assert out.terms[1] == pen.terms[1]


def test_step_update_drops_column():
    pen = pencil({0: E21})
    out = step_update(pen, I2, I2, 1, 1)
    assert out.terms[0].degrees() == (-1,)
    assert out.terms[0].coeffs[-1].tolist() == E21


def test_step_update_on_a_pencil_without_slabs():
    pen = pencil({}, {})
    out = step_update(pen, I2, I2, 1, 1)
    assert out.terms == pen.terms and out.value.shape == (0,)


def test_step_update_refuses_a_non_square_transform():
    pen = pencil({0: E11})
    with pytest.raises(DimensionMismatchError):
        step_update(pen, np.eye(2, 3, dtype=np.int64), I2, 1, 1)
    with pytest.raises(DimensionMismatchError):
        step_update(pen, I2, np.eye(2, 3, dtype=np.int64), 1, 1)


def test_step_update_positive_degree_error():
    # leading E12 sits exactly in the claimed zero block: invalid certificate
    pen = pencil({0: E12})
    with pytest.raises(PositiveDegreeError):
        step_update(pen, I2, I2, 1, 1)


def test_step_update_preserves_nonpositive_degrees_random():
    rng = np.random.default_rng(0)
    n = 3
    ident = np.eye(n, dtype=np.int64)
    for _ in range(30):
        r = int(rng.integers(0, n + 1))
        s = int(rng.integers(0, n + 1))
        coeffs = {}
        for d in range(0, -3, -1):
            mat = rng.integers(0, P, size=(n, n))
            if r and s and d == 0:
                mat[:r, n - s:] = 0  # honor the certificate precondition
            coeffs[d] = mat
        pen = LaurentPencil.from_terms(P, n, (LaurentMatrix(P, n, coeffs),))
        out = step_update(pen, ident, ident, r, s)
        assert all(d <= 0 for d in out.terms[0].degrees())


def test_step_update_invertible_transforms_compose():
    # (r=0, s=n) moves no degree; applying (S, T) then the inverses restores
    # the pencil, witnessing injectivity of the update
    rng = np.random.default_rng(1)
    while True:
        S, T = rng.integers(0, P, size=(2, 2, 2))
        if mod_rank(S, P) == 2 and mod_rank(T, P) == 2:
            break
    pen = pencil({0: [[1, 2], [3, 4]], -2: [[5, 6], [7, 8]]})
    moved = step_update(pen, S, T, 0, 2)
    back = step_update(moved, mod_inverse_matrix(S, P), mod_inverse_matrix(T, P), 0, 2)
    assert back.terms[0] == pen.terms[0]


def test_square_substitute_examples():
    pen = pencil({0: E11})
    assert square_substitute(pen).terms[0].degrees() == (0,)

    pen = pencil({-1: E11})
    assert square_substitute(pen).terms[0].degrees() == (-2,)

    pen = pencil({0: E11, -2: E22})
    assert square_substitute(pen).terms[0].degrees() == (-4, 0)


def test_square_substitute_fixes_leading():
    rng = np.random.default_rng(2)
    coeffs = {0: rng.integers(0, P, size=(2, 2)), -1: rng.integers(0, P, size=(2, 2))}
    pen = pencil(coeffs)
    assert np.array_equal(leading(square_substitute(pen)).stack, leading(pen).stack)


def test_scale_tinv_examples():
    term = LaurentMatrix(P, 2, {0: np.array(E11)})
    zero = LaurentMatrix(P, 2, {})
    both = LaurentMatrix(P, 2, {0: np.array(E11), -1: np.array(E22)})
    assert term.scale_tinv().degrees() == (-1,)
    assert zero.scale_tinv().coeffs == {}
    assert both.scale_tinv().degrees() == (-2, -1)

    # the pencil form shifts exactly the marked terms, as the term form does
    pen = LaurentPencil.from_terms(P, 2, (term, zero, both))
    for which in ((1, 1, 1), (0, 1, 0), (1, 0, 0), (0, 0, 1)):
        got = scale_tinv(pen, which).terms
        want = tuple(t.scale_tinv() if w else t for t, w in zip(pen.terms, which))
        assert got == want, which
    for bad in ((1, 1), (0, 2, 0), (-1, 0, 0), (0.5, 1, 0)):
        with pytest.raises(DimensionMismatchError):
            scale_tinv(pen, bad)


def test_truncate_examples():
    pen = pencil({0: E11, -3: E22})
    out = truncate(pen, 2)
    assert out.terms[0].degrees() == (0,)

    pen = pencil({-1: E11})
    assert truncate(pen, 2).terms[0] == pen.terms[0]

    pen = pencil({0: E11, -1: E22})
    out = truncate(pen, 0)
    assert out.terms[0].coeffs == {}


def test_truncate_idempotent():
    rng = np.random.default_rng(3)
    coeffs = {-d: rng.integers(0, P, size=(2, 2)) for d in range(6)}
    pen = pencil(coeffs)
    once = truncate(pen, 3)
    twice = truncate(once, 3)
    assert once.terms[0] == twice.terms[0]


@pytest.mark.parametrize("p", [5, P, 2**61 - 1])
def test_leading_stack_is_the_stack_of_leading_terms(p):
    rng = np.random.default_rng(p % 97)
    terms = []
    for k in range(5):
        coeffs = {-1: rng.integers(0, 5, size=(3, 3))}
        if k % 2 == 0:  # odd terms have no degree-0 coefficient
            coeffs[0] = rng.integers(0, 5, size=(3, 3))
        terms.append(LaurentMatrix(p, 3, coeffs))
    pen = LaurentPencil.from_terms(p, 3, terms)
    const = leading(pen)
    assert isinstance(const, ConstPencil) and const.p == p
    got = const.stack
    assert got.shape == (5, 3, 3)
    assert got.dtype == (np.int64 if p <= P else object)
    assert not got.flags.writeable
    for k, term in enumerate(terms):
        assert np.array_equal(got[k], term.coeffs.get(0, np.zeros((3, 3), dtype=int)))
    assert np.array_equal(got, ConstPencil(p, got).stack)


def solve_pencils(p):
    """Every pencil the phase loop reads in real bipartite, rank-1 and dense solves."""
    from degdet import SolveOptions, gen_bipartite, gen_dense, gen_rank1, random_bipartite_weights
    from degdet import solver

    seen = []
    real = solver.leading

    def recording(pen):
        seen.append(pen)
        return real(pen)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "leading", recording)
        for k in range(2):
            grid = random_bipartite_weights(4, k, (-20, 20), density=0.8)
            solver.solve(gen_bipartite(grid, p=p), SolveOptions(seed=k))
            solver.solve(gen_rank1(3, 4, seed=k, cost_range=(-20, 20), p=p), SolveOptions(seed=k))
            solver.solve(gen_dense(3, 3, seed=k, cost_range=(-20, 20), p=p), SolveOptions(seed=k))
    return seen


@pytest.mark.parametrize("p", [5, P, 2**61 - 1])
def test_slab_store_invariants_on_solver_pencils(p):
    # invariants of the entry store: five read-only (E,) arrays
    pencils = solve_pencils(p)
    assert len(pencils) > 20
    rng = np.random.default_rng(p % 1009)
    for pen in pencils:
        arrays = (pen.term, pen.degree, pen.row, pen.col, pen.value)
        E = len(pen.value)
        assert all(arr.shape == (E,) and not arr.flags.writeable for arr in arrays)
        assert pen.value.dtype == (np.int64 if p <= P else object)
        assert all(0 < v < p for v in pen.value.tolist())
        keys = set(zip(pen.term.tolist(), pen.degree.tolist(), pen.row.tolist(), pen.col.tolist()))
        assert len(keys) == E
        assert np.all(pen.degree <= 0)
        assert np.all((0 <= pen.term) & (pen.term < pen.m))
        assert np.all((0 <= pen.row) & (pen.row < pen.n) & (0 <= pen.col) & (pen.col < pen.n))
        assert LaurentPencil.from_terms(p, pen.n, pen.terms).terms == pen.terms
        which = rng.integers(0, 2, size=pen.m)
        moved = scale_tinv(pen, which).terms
        for term, before, mark in zip(moved, pen.terms, which):
            assert term == (before.scale_tinv() if mark else before)


def test_degrees_that_would_leave_int64_raise_instead_of_wrapping():
    from degdet import Instance, SolveOptions, gen_dense, solve
    from degdet.errors import SizeLimitError

    deep = LaurentPencil.from_constants(P, [E11], [-2**61])
    with pytest.raises(SizeLimitError):
        square_substitute(deep)
    with pytest.raises(SizeLimitError):
        scale_tinv(deep, [1])
    # costs near 2^63: without truncation the descent's degrees pass -2^61
    base = gen_dense(3, 4, seed=0, cost_range=(-2**20, 2**20))
    inst = Instance.from_arrays(P, [m.data for m in base.mats],
                                [c * 2**43 + 1 for c in base.costs])
    with pytest.raises(SizeLimitError):
        solve(inst, SolveOptions(seed=0, truncation_enabled=False))
    assert solve(inst, SolveOptions(seed=0)).value == -1048063279689105405
    # without scaling the starting degrees are c - max c
    huge = Instance.from_arrays(P, [np.eye(2, dtype=int), np.ones((2, 2), dtype=int)], [2**64, 0])
    with pytest.raises(SizeLimitError):
        solve(huge, SolveOptions(scaling_enabled=False, truncation_enabled=False))
    assert solve(huge, SolveOptions(seed=0)).value == 2**65


@pytest.mark.parametrize("p", [5, P, 2**61 - 1])
def test_from_constants_refuses_a_ragged_stack(p):
    with pytest.raises(DimensionMismatchError):
        LaurentPencil.from_constants(p, [np.eye(2, dtype=int), np.eye(3, dtype=int)])
