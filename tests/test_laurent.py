import numpy as np
import pytest

from degdet import (DEFAULT_PRIME, ConstPencil, FieldMatrix, LaurentMatrix, LaurentPencil,
                    leading, scale_tinv, square_substitute, step_update, truncate)
from degdet.errors import PositiveDegreeError

P = DEFAULT_PRIME
I2 = FieldMatrix.identity(P, 2)

E11 = [[1, 0], [0, 0]]
E12 = [[0, 1], [0, 0]]
E21 = [[0, 0], [1, 0]]
E22 = [[0, 0], [0, 1]]


def pencil(*term_specs, n=2, m=None):
    terms = tuple(LaurentMatrix(P, n, {d: np.array(mat) for d, mat in spec.items()})
                  for spec in term_specs)
    return LaurentPencil(P, n, len(terms) if m is None else m, terms)


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


def test_step_update_positive_degree_error():
    # leading E12 sits exactly in the claimed zero block: invalid certificate
    pen = pencil({0: E12})
    with pytest.raises(PositiveDegreeError):
        step_update(pen, I2, I2, 1, 1)


def test_step_update_preserves_nonpositive_degrees_random():
    rng = np.random.default_rng(0)
    n = 3
    ident = FieldMatrix.identity(P, n)
    for _ in range(30):
        r = int(rng.integers(0, n + 1))
        s = int(rng.integers(0, n + 1))
        coeffs = {}
        for d in range(0, -3, -1):
            mat = rng.integers(0, P, size=(n, n))
            if r and s and d == 0:
                mat[:r, n - s:] = 0  # honor the certificate precondition
            coeffs[d] = mat
        pen = LaurentPencil(P, n, 1, (LaurentMatrix(P, n, coeffs),))
        out = step_update(pen, ident, ident, r, s)
        assert all(d <= 0 for d in out.terms[0].degrees())


def test_step_update_invertible_transforms_compose():
    # (r=0, s=n) moves no degree; applying (S, T) then the inverses restores
    # the pencil, witnessing injectivity of the update
    rng = np.random.default_rng(1)
    while True:
        S = FieldMatrix(P, rng.integers(0, P, size=(2, 2)))
        T = FieldMatrix(P, rng.integers(0, P, size=(2, 2)))
        if S.is_invertible() and T.is_invertible():
            break
    pen = pencil({0: [[1, 2], [3, 4]], -2: [[5, 6], [7, 8]]})
    moved = step_update(pen, S, T, 0, 2)
    back = step_update(moved, S.inverse(), T.inverse(), 0, 2)
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
    term = LaurentMatrix.from_constant(P, E11, 0)
    assert scale_tinv(term).degrees() == (-1,)

    zero = LaurentMatrix.zero(P, 2)
    assert scale_tinv(zero).is_zero()

    both = LaurentMatrix(P, 2, {0: np.array(E11), -1: np.array(E22)})
    assert scale_tinv(both).degrees() == (-2, -1)


def test_truncate_examples():
    pen = pencil({0: E11, -3: E22})
    out = truncate(pen, 2)
    assert out.terms[0].degrees() == (0,)

    pen = pencil({-1: E11})
    assert truncate(pen, 2).terms[0] == pen.terms[0]

    pen = pencil({0: E11, -1: E22})
    out = truncate(pen, 0)
    assert out.terms[0].is_zero()


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
    pen = LaurentPencil(p, 3, 5, tuple(terms))
    const = leading(pen)
    assert isinstance(const, ConstPencil) and const.p == p
    got = const.stack
    assert got.shape == (5, 3, 3)
    assert got.dtype == (np.int64 if p <= P else object)
    assert not got.flags.writeable
    for k, term in enumerate(terms):
        assert np.array_equal(got[k], term.coeffs.get(0, np.zeros((3, 3), dtype=int)))
    assert np.array_equal(got, ConstPencil(p, got).stack)
