import numpy as np
import pytest

from degdet import (DEFAULT_PRIME, FieldMatrix, PrimeModulus, column_space, is_prime,
                    nullspace, preimage, rref, span_union)
from degdet.errors import DimensionMismatchError, NonPrimeError
from degdet.field_linalg import as_residues, mod_matmul, mod_rank

from conftest import brute_rank_mod

P = DEFAULT_PRIME


def eye(p, n):
    return FieldMatrix(p, np.eye(n, dtype=np.int64))


def zeros(p, rows, cols):
    return FieldMatrix(p, np.zeros((rows, cols), dtype=np.int64))


def same_span(a, b, p=P):
    """Whether the columns of a and of b span the same subspace."""
    rank = mod_rank(np.concatenate([a.data, b.data], axis=1), p)
    return mod_rank(a.data, p) == mod_rank(b.data, p) == rank


def test_prime_modulus_validation():
    PrimeModulus(2)
    PrimeModulus(P)
    with pytest.raises(NonPrimeError):
        PrimeModulus(4)
    with pytest.raises(NonPrimeError):
        PrimeModulus(1)
    with pytest.raises(NonPrimeError):
        PrimeModulus(2**62 + 1)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(2, 43):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)


def test_rref_identity():
    R, U, rank = rref(eye(7, 3))
    assert rank == 3
    assert R == eye(7, 3)


def test_rref_zero_matrix():
    _, _, rank = rref(zeros(P, 2, 2))
    assert rank == 0


def test_rref_dependent_rows_mod5():
    M = FieldMatrix(5, [[1, 2], [2, 4]])
    R, U, rank = rref(M)
    assert rank == 1
    assert mod_rank(U.data, 5) == 2
    assert np.array_equal(mod_matmul(U.data, M.data, 5), R.data)


def test_rref_transform_invertible_on_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        M = FieldMatrix(P, rng.integers(0, P, size=(rows, cols)))
        R, U, rank = rref(M)
        assert rref(U)[2] == rows  # U invertible
        assert np.array_equal(mod_matmul(U.data, M.data, P), R.data)
        assert rank == brute_rank_mod(M.data, P)


def test_nullspace_examples():
    assert nullspace(eye(P, 2)).data.shape == (2, 0)
    assert nullspace(zeros(P, 2, 2)).data.shape == (2, 2)
    ns = nullspace(FieldMatrix(5, [[1, 2], [2, 4]]))
    assert ns.data.shape[1] == 1
    assert ns.data[:, 0].tolist() == [3, 1]


def test_rank_nullity_on_random():
    rng = np.random.default_rng(1)
    for _ in range(40):
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        M = FieldMatrix(P, rng.integers(0, P, size=(rows, cols)))
        assert mod_rank(M.data, P) + nullspace(M).data.shape[1] == cols


def test_preimage_full_space_is_full():
    rng = np.random.default_rng(2)
    M = FieldMatrix(P, rng.integers(0, P, size=(3, 4)))
    pre = preimage(M, eye(P, 3))
    assert pre.data.shape[1] == 4


def test_preimage_zero_is_nullspace():
    rng = np.random.default_rng(3)
    M = FieldMatrix(P, rng.integers(0, P, size=(4, 4)))
    pre = preimage(M, zeros(P, 4, 0))
    ns = nullspace(M)
    assert pre.data.shape == ns.data.shape
    assert same_span(pre, ns)


def test_preimage_under_invertible_keeps_dim():
    rng = np.random.default_rng(4)
    while True:
        M = FieldMatrix(P, rng.integers(0, P, size=(4, 4)))
        if mod_rank(M.data, P) == 4:
            break
    W = column_space(FieldMatrix(P, rng.integers(0, P, size=(4, 2))))
    assert preimage(M, W).data.shape[1] == W.data.shape[1]


def test_preimage_of_image_is_full_domain():
    rng = np.random.default_rng(5)
    for _ in range(10):
        M = FieldMatrix(P, rng.integers(0, P, size=(3, 5)))
        img = column_space(M)
        assert preimage(M, img).data.shape[1] == 5


def test_preimage_dimension_mismatch():
    M = eye(P, 3)
    with pytest.raises(DimensionMismatchError):
        preimage(M, eye(P, 2))


def test_span_union_examples():
    U = column_space(FieldMatrix(P, [[1, 0], [0, 1], [0, 0]]))
    out = span_union([eye(P, 3)], U)
    assert out == U

    zero = zeros(P, 3, 3)
    assert span_union([zero, zero], U).data.shape == (3, 0)

    e11 = FieldMatrix(P, [[1, 0], [0, 0]])
    e22 = FieldMatrix(P, [[0, 0], [0, 1]])
    assert span_union([e11, e22], eye(P, 2)).data.shape[1] == 2


def test_span_union_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        span_union([eye(P, 3)], eye(P, 2))
    with pytest.raises(DimensionMismatchError):
        span_union([eye(P, 3), FieldMatrix(P, np.eye(3)[:2])], eye(P, 3))


def test_matmul_against_python_ints():
    rng = np.random.default_rng(6)
    A = rng.integers(0, P, size=(3, 4))
    B = rng.integers(0, P, size=(4, 2))
    got = mod_matmul(A, B, P)
    for i in range(3):
        for j in range(2):
            want = sum(int(A[i, k]) * int(B[k, j]) for k in range(4)) % P
            assert int(got[i, j]) == want


def test_large_prime_object_path():
    big = 2305843009213693951  # 2**61 - 1, a Mersenne prime
    A = as_residues([[big - 1, 2], [3, big - 5]], big)
    B = as_residues([[1, 1], [1, 2]], big)
    got = mod_matmul(A, B, big)
    assert int(got[0, 0]) == (big - 1 + 2) % big
    R, U, rank = rref(FieldMatrix(big, A))
    assert rank == brute_rank_mod(A, big)


def test_operations_deterministic():
    rng = np.random.default_rng(7)
    data = rng.integers(0, P, size=(5, 5))
    a = rref(FieldMatrix(P, data))
    b = rref(FieldMatrix(P, data))
    assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]


def test_fieldmatrix_immutable():
    M = eye(P, 2)
    with pytest.raises(ValueError):
        M.data[0, 0] = 5


P61 = 2**61 - 1  # a Mersenne prime; residues need the object path


@pytest.mark.parametrize("p", [5, P, P61])
def test_as_residues_one_rule_for_every_shape(p):
    rng = np.random.default_rng(3)
    data = rng.integers(-2**40, 2**40, size=(2, 3, 4))
    dtype = np.int64 if p <= P else object
    for arr in (data, data[0], data[0, 0], data[0, 0, 0]):
        got = as_residues(arr, p)
        assert got.shape == np.shape(arr) and got.dtype == dtype
        want = [int(x) % p for x in np.ravel(arr)]
        assert [int(x) for x in np.ravel(got)] == want
        assert np.array_equal(as_residues(np.asarray(arr, dtype=object), p), got)


def test_mod_matmul_broadcasts_object_stacks():
    rng = np.random.default_rng(4)
    a = (rng.integers(0, 2**40, size=(3, 2, 4)).astype(object) * 2**20) % P61
    b = (rng.integers(0, 2**40, size=(3, 4, 5)).astype(object) * 2**20) % P61
    got = mod_matmul(a, b, P61)
    assert got.shape == (3, 2, 5)
    for k in range(3):
        want = [[sum(int(a[k, i, t]) * int(b[k, t, j]) for t in range(4)) % P61
                 for j in range(5)] for i in range(2)]
        assert got[k].tolist() == want
