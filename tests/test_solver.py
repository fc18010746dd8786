import numpy as np
import pytest

from degdet import (DEFAULT_PRIME, Certificate, Instance,
                    LaurentMatrix, LaurentPencil, MINUS_INFINITY, SolveOptions,
                    gen_bipartite, gen_dense, is_minus_infinity, leading, normalize_costs,
                    run_phase, solve, solve_R, solve_with_final_pencil)
from degdet.errors import DimensionMismatchError, IterationBoundExceededError

from conftest import brute_matching_weight, brute_symbolic_degdet

P = DEFAULT_PRIME


def test_normalize_costs_examples():
    assert normalize_costs([5]) == ((5,), 0)
    assert normalize_costs([0, -3]) == ((4, 1), 4)
    assert normalize_costs([1, 1]) == ((1, 1), 0)


def test_run_phase_already_optimal_takes_one_call():
    pen = LaurentPencil.from_constants(P, [np.eye(2, dtype=int)])
    out, dstar, iters = run_phase(pen, 7, SolveOptions(seed=0))
    assert iters == 1
    assert dstar == 7


def test_run_phase_scalar():
    pen = LaurentPencil.from_constants(P, [np.array([[1]])])
    _, dstar, iters = run_phase(pen, 1, SolveOptions(seed=0))
    assert (dstar, iters) == (1, 1)


def test_run_phase_bipartite_two_steps():
    # {E11 t^0, E22 t^-1}: one lift/drop step, then optimal; dstar moves by
    # n - r - s = -1 (certificate value 1 forces r + s = 3)
    t1 = LaurentMatrix(P, 2, {0: [[1, 0], [0, 0]]})
    t2 = LaurentMatrix(P, 2, {-1: [[0, 0], [0, 1]]})
    pen = LaurentPencil.from_terms(P, 2, (t1, t2))
    out, dstar, iters = run_phase(pen, 2, SolveOptions(seed=0))
    assert iters == 2
    assert dstar == 1
    final = solve_R(leading(out), seed=1)
    assert final.value == 2


def make_instance(mats, costs, p=P):
    return Instance.from_arrays(p, mats, costs)


def test_solve_scalar_example():
    inst = make_instance([[[3]]], [5])
    report = solve(inst)
    assert report.value == 5


def test_solve_identity_diagonal():
    inst = make_instance([np.eye(3, dtype=int)], [4])
    report = solve(inst)
    assert report.value == 12
    assert report.iterations[0] == 1


def test_solve_bipartite_fixture(bipartite_3x3_grid):
    inst = gen_bipartite(bipartite_3x3_grid)
    assert brute_matching_weight(bipartite_3x3_grid) == 8
    assert solve(inst).value == 8


def test_solve_skew_returns_zero_via_fallback(skew3):
    inst = make_instance(skew3, [0, 0, 0])
    report = solve(inst)
    assert report.value == 0
    assert report.used_blowup_fallback
    # while the commutative degree is minus infinity
    assert is_minus_infinity(brute_symbolic_degdet(skew3, [0, 0, 0], P))


def test_solve_singular_is_minus_infinity():
    inst = make_instance([[[0, 0], [0, 0]], [[1, 0], [0, 0]]], [3, 1])
    report = solve(inst)
    assert is_minus_infinity(report.value)
    assert report.phases == 0


def test_solve_matches_brute_symbolic_on_random_dense():
    rng = np.random.default_rng(10)
    for trial in range(15):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        inst = gen_dense(n, m, seed=trial, cost_range=(-6, 6))
        got = solve(inst, SolveOptions(seed=trial)).value
        want = brute_symbolic_degdet([mat.data for mat in inst.mats], list(inst.costs), P)
        assert got == want, (n, m, trial)


def test_phase_zero_iteration_count_is_one():
    rng = np.random.default_rng(11)
    for trial in range(8):
        n = int(rng.integers(2, 5))
        inst = gen_dense(n, int(rng.integers(1, 5)), seed=trial + 100, cost_range=(1, 40))
        report = solve(inst, SolveOptions(seed=trial))
        assert report.iterations[0] == 1
        assert report.phases == len(report.iterations) == len(report.dstar_trace)


def test_iteration_bound_holds_on_corpus():
    rng = np.random.default_rng(12)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        inst = gen_dense(n, m, seed=trial + 200, cost_range=(-50, 50))
        report = solve(inst, SolveOptions(seed=trial))
        if report.used_blowup_fallback:
            continue
        assert all(it <= n * n * m + 1 for it in report.iterations)


def test_scaling_vs_direct_agree():
    rng = np.random.default_rng(13)
    for trial in range(10):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        inst = gen_dense(n, m, seed=trial + 300, cost_range=(-32, 32))
        a = solve(inst, SolveOptions(seed=trial)).value
        b = solve(inst, SolveOptions(seed=trial, scaling_enabled=False)).value
        assert a == b


def test_truncation_on_vs_off_agree():
    rng = np.random.default_rng(14)
    for trial in range(10):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        inst = gen_dense(n, m, seed=trial + 400, cost_range=(-200, 200))
        a = solve(inst, SolveOptions(seed=trial)).value
        b = solve(inst, SolveOptions(seed=trial, truncation_enabled=False)).value
        assert a == b


def test_shift_metamorphic_identity():
    rng = np.random.default_rng(15)
    for trial in range(8):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        inst = gen_dense(n, m, seed=trial + 500, cost_range=(-9, 9))
        base = solve(inst, SolveOptions(seed=trial)).value
        for b in (-4, 6):
            shifted = Instance.from_arrays(P, [mat.data for mat in inst.mats],
                                           [c + b for c in inst.costs])
            other = solve(shifted, SolveOptions(seed=trial)).value
            if is_minus_infinity(base):
                assert is_minus_infinity(other)
            else:
                assert other == base + n * b


def test_monotone_in_costs():
    rng = np.random.default_rng(16)
    for trial in range(8):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        inst = gen_dense(n, m, seed=trial + 600, cost_range=(-9, 9))
        base = solve(inst, SolveOptions(seed=trial)).value
        k = int(rng.integers(0, m))
        bumped_costs = list(inst.costs)
        bumped_costs[k] += int(rng.integers(1, 4))
        bumped = Instance.from_arrays(P, [mat.data for mat in inst.mats], bumped_costs)
        after = solve(bumped, SolveOptions(seed=trial)).value
        assert after >= base


def test_value_upper_bounds_commutative_degree():
    rng = np.random.default_rng(17)
    for trial in range(8):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        inst = gen_dense(n, m, seed=trial + 700, cost_range=(-5, 5))
        got = solve(inst, SolveOptions(seed=trial)).value
        comm = brute_symbolic_degdet([mat.data for mat in inst.mats], list(inst.costs), P)
        assert comm <= got


def test_reproducible_reports():
    inst = gen_dense(3, 3, seed=123, cost_range=(-20, 20))
    a = solve(inst, SolveOptions(seed=9))
    b = solve(inst, SolveOptions(seed=9))
    assert a.value == b.value
    assert a.dstar_trace == b.dstar_trace
    assert a.iterations == b.iterations
    assert a.oracle_calls == b.oracle_calls


@pytest.mark.parametrize("scaling", [True, False], ids=["scaling", "no-scaling"])
def test_phase_raises_at_its_bound(monkeypatch, scaling):
    # an oracle whose certificate (I, I, r=0, s=0) never lets the phase end:
    # the phase raises after exactly its bound of calls, n^2 m + 1 with
    # scaling and the n cmax + n + 10 cap without; without scaling the
    # singularity certificate is one more call
    import degdet.solver as solver

    inst = gen_bipartite([[0, 3], [5, 0]])
    n, m, cmax = inst.n, inst.m, max(normalize_costs(inst.costs)[0])
    calls = []

    def stuck(pencil, seed):
        calls.append(seed)
        ident = np.eye(pencil.n, dtype=np.int64)
        return Certificate(ident, ident, 0, 0, 2 * pencil.n)

    monkeypatch.setattr(solver, "solve_R", stuck)
    with pytest.raises(IterationBoundExceededError):
        solve(inst, SolveOptions(seed=0, scaling_enabled=scaling))
    expected = n * n * m + 1 if scaling else n * cmax + n + 10 + 1
    assert len(calls) == expected


def test_final_pencil_leading_is_nonsingular():
    inst = gen_dense(3, 2, seed=77, cost_range=(1, 9))
    report, pencil = solve_with_final_pencil(inst, SolveOptions(seed=5))
    assert pencil is not None
    cert = solve_R(leading(pencil), seed=1)
    assert cert.value == 3


def test_solve_over_61_bit_prime_object_path():
    big = 2305843009213693951  # 2**61 - 1
    mats = [np.eye(3, dtype=int), np.ones((3, 3), dtype=int)]
    inst = Instance.from_arrays(big, mats, [4, -2])
    small = Instance.from_arrays(P, mats, [4, -2])
    assert solve(inst, SolveOptions(seed=0)).value == solve(small).value == 12


def test_nonpositive_depth_is_refused_at_solve_time_with_truncation_on():
    inst = gen_dense(2, 2, seed=5, cost_range=(-20, 20))
    for scaling in (True, False):
        for depth in (0, -3):
            opts = SolveOptions(scaling_enabled=scaling, truncation_depth=depth)  # no error yet
            with pytest.raises(DimensionMismatchError):
                solve(inst, opts)


def test_no_depth_is_refused_with_truncation_off():
    inst = gen_dense(2, 2, seed=5, cost_range=(-20, 20))
    want = solve(inst).value
    for scaling in (True, False):
        for depth in (-3, 0, 1, 10**9):
            opts = SolveOptions(scaling_enabled=scaling, truncation_enabled=False,
                                truncation_depth=depth)
            assert solve(inst, opts).value == want
