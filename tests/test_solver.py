import numpy as np
import pytest

from degdet import (DEFAULT_PRIME, Certificate, Instance,
                    LaurentMatrix, LaurentPencil, MINUS_INFINITY, SolveOptions,
                    gen_bipartite, gen_dense, gen_integer, is_minus_infinity, leading,
                    normalize_costs, run_phase, solve, solve_R,
                    solve_with_final_pencil)
from degdet.errors import DimensionMismatchError, IterationBoundExceededError

from conftest import brute_matching_weight, brute_symbolic_degdet

P = DEFAULT_PRIME


def test_normalize_costs_examples():
    assert normalize_costs([5]) == ((5,), 0)
    assert normalize_costs([0, -3]) == ((4, 1), 4)
    assert normalize_costs([1, 1]) == ((1, 1), 0)
    assert normalize_costs([-9, 0, 3], live=[1, 2]) == ((1, 1, 4), 1)
    assert normalize_costs([-9, 0], live=[]) == ((1, 1), 0)


@pytest.mark.parametrize("c0", [0, -10**3, -10**10, -2**62, -2**63, -2**70])
def test_a_dead_terms_cost_moves_neither_the_shift_nor_the_phases(c0):
    # the shift is taken over the terms with entries: a term without any
    # cannot change deg Det, so its cost must not widen the scaled costs, and
    # one far below the live costs must not overflow an int64 degree
    mats = [np.zeros((2, 2), dtype=int), np.eye(2, dtype=int), np.array([[0, 1], [1, 0]])]
    inst = Instance.from_arrays(P, mats, [c0, 0, 3])
    report = solve(inst)
    assert (report.value, report.phases, report.shift_applied) == (6, 3, 1)
    assert solve(inst, SolveOptions(scaling_enabled=False)).value == 6


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


def test_run_phase_steps_once_per_missing_degree_of_a_hand_built_pencil(monkeypatch):
    # max degree -3: three oracle calls on the empty leading pencil answer
    # (I, I, n, n), each raising every degree by 1 (each step's truncation at
    # depth 2n = 4 keeps what it keeps), then the identity ends the phase
    import degdet.solver as solver
    from degdet.laurent import step_update, truncate

    t1 = LaurentMatrix(P, 2, {-3: np.eye(2, dtype=int), -5: [[0, 4], [0, 0]]})
    t2 = LaurentMatrix(P, 2, {-4: [[0, 0], [3, 0]], -17: [[0, 0], [0, 6]]})
    pen = LaurentPencil.from_terms(P, 2, (t1, t2))
    leads, certs = [], []

    def recorded(pencil, seed):
        leads.append(pencil.term.size)
        certs.append(solve_R(pencil, seed))
        return certs[-1]

    monkeypatch.setattr(solver, "solve_R", recorded)
    out, dstar, iters = run_phase(pen, 10, SolveOptions(seed=0))
    ident = np.eye(2, dtype=pen.value.dtype)
    for cert in certs[:3]:
        assert (cert.r, cert.s) == (2, 2)
        assert np.array_equal(cert.S, ident) and np.array_equal(cert.T, ident)
    want = pen
    for _ in range(3):
        want = truncate(step_update(want, ident, ident, 2, 2), 4)
    for field in ("term", "degree", "row", "col", "value"):
        assert np.array_equal(getattr(out, field), getattr(want, field)), field
    assert (dstar, iters, leads) == (10 - 3 * 2, 4, [0, 0, 0, 2])


@pytest.mark.parametrize("scaling", [True, False], ids=["scaling", "no-scaling"])
@pytest.mark.parametrize("make, quiet", [
    (lambda: gen_integer(5, 6, 7, 10, (-10**6, 10**6)).reduce_mod(2**31 - 1), 17),
    (lambda: gen_bipartite([[1, 2, None], [3, None, None], [4, None, None]]), 0),
], ids=["integer-n5", "singular"])
def test_the_ith_oracle_call_gets_the_ith_draw(monkeypatch, make, quiet, scaling):
    # every solve_R call, the singularity call first, takes the next draw of
    # the solve's generator, and nothing else draws: not quiet phases
    import degdet.solver as solver

    seeds = []

    def recorded(pencil, seed):
        seeds.append(seed)
        return solve_R(pencil, seed)

    monkeypatch.setattr(solver, "solve_R", recorded)
    report = solve(make(), SolveOptions(seed=3, scaling_enabled=scaling))
    assert report.iterations.count(0) == (quiet if scaling else 0)
    # without scaling, and on a singular instance, the singularity call is extra
    extra = int(not scaling or is_minus_infinity(report.value))
    assert len(seeds) == report.oracle_calls + extra
    rng = np.random.default_rng(np.random.SeedSequence(3))
    assert seeds == [int(rng.integers(0, 2**63)) for _ in seeds]


@pytest.mark.parametrize("make", [
    lambda: gen_dense(3, 3, seed=11, cost_range=(-1000, 1000)),
    lambda: gen_integer(5, 6, 7, 10, (-10**6, 10**6)).reduce_mod(2**31 - 1),
], ids=["dense-3x3", "integer-n5"])
def test_oracle_calls_count_every_solve_R_call(monkeypatch, make):
    # with scaling the singularity call answers phase 0 and counts there;
    # shifts and carried certificates call nothing and count nothing
    import degdet.solver as solver

    seeds = []

    def counted(pencil, seed):
        seeds.append(seed)
        return solve_R(pencil, seed)

    monkeypatch.setattr(solver, "solve_R", counted)
    report = solve(make(), SolveOptions(seed=3))
    assert len(seeds) == report.oracle_calls


def test_integer_n5_solve_stays_under_5_oracle_calls(monkeypatch):
    # 21 phases; all but the first four start from the last one's certified
    # leading pencil, less its odd terms (30 calls before shifts and carried
    # certificates).  The other 17 are quiet: they map the degree array alone
    # and build no pencil, and phase 0 takes the singularity certificate
    # without building its leading pencil (30 leading pencils and 53 pencils
    # built before)
    import degdet.solver as solver

    calls = {"leading": 0, "pencils": 0}
    real_leading, real_wrap = solver.leading, LaurentPencil._wrap.__func__

    def leading(*args):
        calls["leading"] += 1
        return real_leading(*args)

    def wrap(cls, *args):
        calls["pencils"] += 1
        return real_wrap(cls, *args)

    monkeypatch.setattr(solver, "leading", leading)
    monkeypatch.setattr(LaurentPencil, "_wrap", classmethod(wrap))
    inst = gen_integer(5, 6, 7, 10, (-10**6, 10**6)).reduce_mod(2**31 - 1)
    report = solve(inst, SolveOptions(seed=0))
    assert report.phases == 21 and report.oracle_calls <= 4
    assert calls["leading"] <= 4 and calls["pencils"] < report.phases


def test_a_quiet_runs_time_is_split_evenly_over_its_phases(monkeypatch):
    # on a clock that ticks once per read, each run of quiet phases (0 calls,
    # one closed-form update between two phases that descend) takes one tick
    import itertools
    from types import SimpleNamespace

    import degdet.solver as solver

    ticks = itertools.count()
    monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    inst = gen_integer(5, 6, 0, 3, (-2**40, 2**40)).reduce_mod(2**31 - 1)
    report = solve(inst)
    runs = [list(group) for quiet, group in itertools.groupby(
        zip(report.iterations, report.phase_seconds), key=lambda pair: pair[0] == 0) if quiet]
    assert sum(map(len, runs)) > 30 and len(runs) > 1
    assert all(seconds == 1 / len(run) for run in runs for _, seconds in run)


def test_phase_zero_seconds_hold_the_singularity_call(monkeypatch):
    import time

    import degdet.solver as solver

    def slow(pencil, seed):
        time.sleep(0.05)
        return solve_R(pencil, seed)

    monkeypatch.setattr(solver, "solve_R", slow)
    report = solve(gen_dense(3, 3, seed=11, cost_range=(-1000, 1000)), SolveOptions(seed=3))
    assert report.iterations[0] == 1 and report.phase_seconds[0] >= 0.05
    # without scaling the singularity call answers no phase, and phase 0 leaves it out
    report = solve(gen_dense(3, 3, seed=11, cost_range=(-3, 3)), SolveOptions(seed=3,
                   scaling_enabled=False, truncation_enabled=False))
    calls = report.iterations[0]
    assert 0.05 * calls <= report.phase_seconds[0] < 0.05 * (calls + 1)


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


def test_solve_skew_returns_zero_without_fallback(skew3):
    # the commutative rank is 2 < 3 = nc-rank; the blow-up certifies every call
    inst = make_instance(skew3, [0, 0, 0])
    report = solve(inst)
    assert report.value == 0
    assert not report.used_blowup_fallback and report.phases == 1
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
        assert all(it <= n + 1 for it in report.iterations)


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
    # the phase raises after exactly its bound of calls, n + 1 with scaling
    # (in phase 1, as the singularity certificate ends phase 0) and the
    # n cmax + n + 10 cap without; the singularity call is one more
    import degdet.solver as solver

    inst = gen_bipartite([[0, 3], [5, 0]])
    n, cmax = inst.n, max(normalize_costs(inst.costs)[0])
    calls = []

    def stuck(pencil, seed):
        calls.append(seed)
        ident = np.eye(pencil.n, dtype=np.int64)
        return Certificate(ident, ident, 0, 0, 2 * pencil.n)

    monkeypatch.setattr(solver, "solve_R", stuck)
    with pytest.raises(IterationBoundExceededError):
        solve(inst, SolveOptions(seed=0, scaling_enabled=scaling))
    expected = (n + 1 if scaling else n * cmax + n + 10) + 1
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
