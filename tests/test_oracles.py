import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import degdet

from degdet import (DEFAULT_PRIME, INFEASIBLE, Instance, gen_bipartite, gen_dense,
                    degdet_blowup, degdet_commutative, hungarian, is_minus_infinity,
                    newton_small, solve)
from degdet.errors import PrecisionUnsupportedError, SizeLimitError
from degdet.oracles import batch_det

from conftest import brute_matching_weight, brute_symbolic_degdet, perm_sign

P = DEFAULT_PRIME


def det_int(mat):
    mat = np.asarray(mat, dtype=object)
    n = mat.shape[0]
    from itertools import permutations
    total = 0
    for perm in permutations(range(n)):
        prod = perm_sign(perm)
        for i in range(n):
            prod *= int(mat[i, perm[i]])
        total += prod
    return total


def test_batch_det_against_expansion():
    rng = np.random.default_rng(0)
    mats = rng.integers(0, P, size=(40, 4, 4))
    got = batch_det(mats, P)
    for idx in range(40):
        assert int(got[idx]) == det_int(mats[idx]) % P


def test_degdet_commutative_scalar():
    inst = Instance.from_arrays(P, [[[4]]], [5])
    assert degdet_commutative(inst, seed=0) == 5


def test_degdet_commutative_skew_vanishes(skew3):
    inst = Instance.from_arrays(P, skew3, [2, 1, 0])
    assert is_minus_infinity(degdet_commutative(inst, seed=1))


def test_degdet_commutative_bipartite_fixture(bipartite_3x3_grid):
    inst = gen_bipartite(bipartite_3x3_grid)
    assert degdet_commutative(inst, seed=2) == 8


def test_degdet_commutative_negative_costs():
    inst = Instance.from_arrays(P, [np.eye(2, dtype=int)], [-3])
    assert degdet_commutative(inst, seed=3) == -6


def test_degdet_commutative_matches_brute_on_random():
    rng = np.random.default_rng(4)
    for trial in range(12):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        inst = gen_dense(n, m, seed=trial + 50, cost_range=(-5, 5))
        want = brute_symbolic_degdet([mat.data for mat in inst.mats], list(inst.costs), P)
        got = degdet_commutative(inst, seed=trial)
        assert got == want


def test_degdet_commutative_precision_guard():
    inst = Instance.from_arrays(101, [np.eye(3, dtype=int)], [1000])
    with pytest.raises(PrecisionUnsupportedError):
        degdet_commutative(inst, seed=0)


def test_degdet_blowup_n1_equals_commutative():
    inst = Instance.from_arrays(P, [[[7]], [[0]]], [3, 9])
    assert degdet_blowup(inst, seed=0) == degdet_commutative(inst, seed=0) == 3


def test_degdet_blowup_skew_is_zero(skew3):
    inst = Instance.from_arrays(P, skew3, [0, 0, 0])
    assert degdet_blowup(inst, seed=1) == 0


def test_degdet_blowup_identity():
    inst = Instance.from_arrays(P, [np.eye(3, dtype=int)], [4])
    assert degdet_blowup(inst, seed=2) == 12


def test_degdet_blowup_agrees_with_solve_on_dense():
    rng = np.random.default_rng(5)
    for trial in range(8):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        inst = gen_dense(n, m, seed=trial + 90, cost_range=(-20, 20))
        assert degdet_blowup(inst, seed=trial) == solve(inst).value


def test_hungarian_examples(bipartite_3x3_grid):
    assert hungarian([[5, None], [None, 7]]) == 12
    assert hungarian(bipartite_3x3_grid) == 8
    assert hungarian([[None, None], [3, 4]]) == INFEASIBLE


def test_hungarian_against_brute_force():
    rng = np.random.default_rng(6)
    for trial in range(40):
        n = int(rng.integers(1, 7))
        grid = [[int(rng.integers(-50, 51)) if rng.random() < 0.75 else None
                 for _ in range(n)] for _ in range(n)]
        assert hungarian(grid) == brute_matching_weight(grid)


def test_hungarian_large_weights_exact():
    grid = [[10**6, 10**6 - 1], [10**6 - 1, 10**6]]
    assert hungarian(grid) == 2 * 10**6


def test_newton_small_two_permutations():
    inst = gen_bipartite([[1, 1], [1, 1]])
    support = newton_small(inst)
    assert support.vertices == {(1, 0, 0, 1), (0, 1, 1, 0)}


def test_newton_small_diagonal_single_vertex():
    inst = gen_bipartite([[3, None], [None, 4]])
    support = newton_small(inst)
    assert support.vertices == {(1, 1)}
    assert support.lp(inst.costs) == 7


def test_newton_small_fixture_lp(bipartite_3x3_grid):
    inst = gen_bipartite(bipartite_3x3_grid)
    support = newton_small(inst)
    assert support.lp(inst.costs) == 8
    for vec in support.vertices:
        assert all(u >= 0 for u in vec)
        assert sum(vec) == inst.n


def test_newton_small_respects_cancellation(skew3):
    inst = Instance.from_arrays(P, skew3, [0, 0, 0])
    support = newton_small(inst)
    assert support.vertices == frozenset()
    assert is_minus_infinity(support.lp(inst.costs))


def test_newton_small_size_limit():
    inst = gen_dense(8, 1, seed=0)
    with pytest.raises(SizeLimitError):
        newton_small(inst)


def test_newton_lp_matches_commutative_degree():
    rng = np.random.default_rng(7)
    for trial in range(8):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        inst = gen_dense(n, m, seed=trial + 800, cost_range=(-6, 6))
        support = newton_small(inst)
        assert support.lp(inst.costs) == degdet_commutative(inst, seed=trial)


def test_degdet_commutative_rejects_object_moduli():
    import numpy as np
    big = 2305843009213693951
    inst = Instance.from_arrays(big, [np.eye(2, dtype=int)], [3])
    with pytest.raises(PrecisionUnsupportedError):
        degdet_commutative(inst, seed=0)


def test_oracle_point_budget_guard():
    inst = gen_bipartite([[10**6, 0], [0, 10**6]])
    with pytest.raises(SizeLimitError):
        degdet_commutative(inst, seed=0)  # 2 * 10**6 + 1 points
    with pytest.raises(SizeLimitError):
        degdet_blowup(gen_dense(4, 2, seed=0, cost_range=(10**5, 10**5 + 5)), seed=0)


def test_degdet_blowup_retry_exhausted(monkeypatch):
    import degdet.oracles as oracles

    inst = gen_dense(3, 2, seed=44, cost_range=(1, 5))
    calls = []
    monkeypatch.setattr(oracles, "degdet_commutative",
                        lambda *a, **k: calls.append(1) or 7)  # never a multiple of d=2
    from degdet.errors import RetryExhaustedError
    with pytest.raises(RetryExhaustedError, match="after 4 retries"):
        oracles.degdet_blowup(inst, seed=0)
    assert len(calls) == oracles.BLOWUP_RETRIES == 4


def test_batch_det_at_a_62_bit_prime_matches_exact_integers():
    big = 2**61 - 1
    mats = np.random.default_rng(0).integers(0, big, size=(4, 3, 3))
    got = batch_det(mats, big)
    assert [int(x) for x in got] == [det_int(mat) % big for mat in mats]


def test_interpolation_oracles_leave_numpy_ma_unimported():
    # a plain np.unique imports numpy.ma on its first call, about 9 ms a process
    code = ("import sys; from degdet import degdet_blowup, degdet_commutative, gen_dense; "
            "inst = gen_dense(3, 4, seed=1); degdet_commutative(inst); degdet_blowup(inst); "
            "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(degdet.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == ["False"]
