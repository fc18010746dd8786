from collections import Counter

import numpy as np
import pytest

from degdet import (DEFAULT_PRIME, MINUS_INFINITY, PartitionedInstance,
                    PrimeModulus, SolveOptions, TwoMatching, degdet_commutative,
                    enumerate_perfect, gen_2x2, is_consistent, is_minus_infinity,
                    leading, random_rank_profile, solve, solve_and_extract,
                    solve_with_final_pencil, to_instance)
from degdet.errors import DimensionMismatchError, SizeLimitError

from conftest import brute_rank_mod

P = DEFAULT_PRIME


def part_from_blocks(blocks, costs):
    return PartitionedInstance(PrimeModulus(P), np.array(blocks), costs)


def doubled(i, j):
    return TwoMatching(((i, j, 2),))


def test_to_instance_shapes():
    part = part_from_blocks([[[[1, 0], [0, 1]]]], [[3]])
    inst = to_instance(part)
    assert inst.m == 1 and inst.n == 2
    assert inst.costs == (3,)

    part = gen_2x2(2, seed=0, rank_profile=[[2, 0], [0, 2]])
    inst = to_instance(part)
    assert inst.m == 2 and inst.n == 4  # only nonzero blocks become terms

    part = gen_2x2(2, seed=1, rank_profile=[[2, 2], [2, 2]])
    inst = to_instance(part)
    assert inst.m == 4 and inst.n == 4


def test_to_instance_rejects_all_zero():
    part = gen_2x2(2, seed=2, rank_profile=[[0, 0], [0, 0]])
    with pytest.raises(DimensionMismatchError):
        to_instance(part)


def test_is_consistent_doubled_edge():
    good = part_from_blocks([[[[1, 2], [3, 5]]]], [[1]])
    assert is_consistent(doubled(0, 0), good, seed=0)

    rank1 = part_from_blocks([[[[1, 2], [2, 4]]]], [[1]])
    assert not is_consistent(doubled(0, 0), rank1, seed=0)


def test_is_consistent_matches_direct_rank_on_cycle():
    # 2x2 grid of rank-1 blocks, simple 4-cycle: rank of the restriction decides
    rng = np.random.default_rng(3)
    for trial in range(10):
        part = gen_2x2(2, seed=trial + 10, rank_profile=[[1, 1], [1, 1]])
        cycle = TwoMatching(((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
        lam = rng.integers(1, P, size=4)
        full = np.zeros((4, 4), dtype=np.int64)
        for idx, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            full[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = part.blocks[i, j] * int(lam[idx]) % P
        direct_rank = brute_rank_mod(full, P)
        assert is_consistent(cycle, part, seed=trial) == (direct_rank == 4)


def test_two_matching_weight_counts_doubles_twice():
    m = TwoMatching(((0, 0, 2), (1, 1, 1), (1, 0, 1)))
    costs = [[3, 0], [7, 11]]
    assert m.weight(costs) == 2 * 3 + 11 + 7


def test_enumerate_perfect_single_block():
    part = part_from_blocks([[[[1, 0], [0, 1]]]], [[3]])
    weight, witness = enumerate_perfect(part)
    assert weight == 6
    assert witness == doubled(0, 0)

    rank1 = part_from_blocks([[[[1, 2], [2, 4]]]], [[5]])
    weight, witness = enumerate_perfect(rank1)
    assert is_minus_infinity(weight) and witness is None


def test_enumerate_matches_solver_on_fixture():
    part = gen_2x2(2, seed=4, rank_profile=[[2, 1], [1, 2]], cost_range=(-5, 5))
    weight, witness = enumerate_perfect(part)
    value = solve(to_instance(part), SolveOptions(seed=0)).value
    assert weight == value
    if witness is not None:
        assert is_consistent(witness, part, seed=9)


def test_solve_and_extract_single_block():
    part = part_from_blocks([[[[1, 0], [0, 1]]]], [[3]])
    value, matching = solve_and_extract(part)
    assert value == 6
    assert matching == doubled(0, 0)


def test_solve_and_extract_diagonal_blocks():
    part = gen_2x2(3, seed=5, rank_profile=[[2, 0, 0], [0, 2, 0], [0, 0, 2]],
                   cost_range=(-4, 4))
    value, matching = solve_and_extract(part, SolveOptions(seed=1))
    expected = 2 * sum(part.costs[i][i] for i in range(3))
    assert value == expected
    assert matching.multiset() == Counter({(i, i): 2 for i in range(3)})


def test_solve_and_extract_minus_infinity_cases():
    part = gen_2x2(2, seed=6, rank_profile=[[0, 0], [0, 0]])
    value, matching = solve_and_extract(part)
    assert is_minus_infinity(value) and matching is None

    # one empty block row forces singularity even with other blocks present
    part = gen_2x2(2, seed=7, rank_profile=[[0, 0], [2, 2]])
    value, matching = solve_and_extract(part)
    assert is_minus_infinity(value) and matching is None


def test_solve_and_extract_cross_checked():
    rng = np.random.default_rng(8)
    for trial in range(12):
        n = int(rng.integers(1, 4))
        profile = random_rank_profile(n, seed=trial, weights=(0.1, 0.3, 0.6))
        part = gen_2x2(n, seed=trial + 100, rank_profile=profile, cost_range=(-6, 6))
        value, matching = solve_and_extract(part, SolveOptions(seed=trial))
        weight, _ = enumerate_perfect(part, seed=trial + 1)
        assert value == weight
        if is_minus_infinity(value):
            assert matching is None
            continue
        assert matching.is_perfect(n)
        assert matching.weight(part.costs) == value
        assert is_consistent(matching, part, seed=trial + 2)
        comm = degdet_commutative(to_instance(part), seed=trial + 3)
        assert comm == value  # deg det == deg Det on partitioned instances


def test_two_matching_validation():
    with pytest.raises(DimensionMismatchError):
        TwoMatching(((0, 0, 3),))
    m = TwoMatching(((0, 1, 1), (0, 0, 1), (1, 0, 1), (1, 1, 1)))
    assert m.is_valid() and m.is_perfect(2)
    overloaded = TwoMatching(((0, 0, 2), (0, 1, 1)))
    assert not overloaded.is_valid()


def test_extraction_failed_on_impossible_value(monkeypatch):
    import dataclasses

    import degdet.partitioned as pt
    from degdet.errors import ExtractionFailedError

    part = gen_2x2(2, seed=33, rank_profile=[[2, 2], [2, 2]], cost_range=(0, 4))

    def fake_solver(inst, opts):
        # the real final pencil with a value no 2-matching can reach
        report, pencil = solve_with_final_pencil(inst, opts)
        return dataclasses.replace(report, value=10**9), pencil

    monkeypatch.setattr(pt, "solve_with_final_pencil", fake_solver)
    with pytest.raises(ExtractionFailedError):
        pt.solve_and_extract(part)


def test_solve_and_extract_at_n6_past_the_enumeration_cap():
    part = gen_2x2(6, seed=4, rank_profile=random_rank_profile(6, seed=4, weights=(0.5, 0.2, 0.3)),
                   cost_range=(-5, 5))
    value, matching = solve_and_extract(part, SolveOptions(seed=4))
    assert matching.is_perfect(6)
    assert matching.weight(part.costs) == value
    assert is_consistent(matching, part, seed=104)
    assert degdet_commutative(to_instance(part), seed=5) == value
    with pytest.raises(SizeLimitError):
        enumerate_perfect(part)


def test_solve_and_extract_at_n7():
    diagonal = [[2 if i == j else 0 for j in range(7)] for i in range(7)]
    part = gen_2x2(7, seed=8, rank_profile=diagonal)
    value, matching = solve_and_extract(part)
    assert value == 2 * sum(part.costs[i][i] for i in range(7))
    assert matching.multiset() == Counter({(i, i): 2 for i in range(7)})

    # the value is decided before any scan, so a singular n = 7 answers too
    empty_row = [[0] * 7] + [[2] * 7 for _ in range(6)]
    value, matching = solve_and_extract(gen_2x2(7, seed=9, rank_profile=empty_row))
    assert is_minus_infinity(value) and matching is None


def test_tight_scan_is_a_subset_of_the_full_scan():
    from degdet.partitioned import _perfect_two_matchings

    for trial in range(6):
        n = 2 + trial % 3
        part = gen_2x2(n, seed=trial + 300, rank_profile=random_rank_profile(n, seed=trial),
                       cost_range=(-3, 3))  # small costs: many pairs tie
        full = list(_perfect_two_matchings(part, set(part.edges())))
        assert all(w == m.weight(part.costs) for w, m in full)
        report, pencil = solve_with_final_pencil(to_instance(part), SolveOptions(seed=trial))
        if is_minus_infinity(report.value):
            continue
        live = np.flatnonzero(leading(pencil).stack.any(axis=(1, 2)))
        tight = {part.edges()[k] for k in live}
        assert set(_perfect_two_matchings(part, tight)) <= set(full)
        value, matching = solve_and_extract(part, SolveOptions(seed=trial))
        assert (value, matching) in full and value == report.value


@pytest.mark.parametrize("n", [8, 12, 16])
def test_solve_and_extract_past_the_old_cap(n):
    part = gen_2x2(n, seed=n, rank_profile=random_rank_profile(n, seed=n),
                   cost_range=(-10**6, 10**6))
    value, matching = solve_and_extract(part, SolveOptions(seed=n))
    assert matching.is_perfect(n)
    assert matching.weight(part.costs) == value
    assert is_consistent(matching, part, seed=n + 100)


def test_solve_and_extract_at_n8_matches_the_commutative_oracle():
    part = gen_2x2(8, seed=3, rank_profile=random_rank_profile(8, seed=3), cost_range=(-5, 5))
    value, matching = solve_and_extract(part, SolveOptions(seed=3))
    assert value == degdet_commutative(to_instance(part), seed=4)
    assert matching.weight(part.costs) == value


def test_equal_costs_return_at_the_first_pair():
    # every block is tight, so only a lazy scan ends before listing 10!^2 pairs
    n, c = 10, 5
    part = gen_2x2(n, seed=0, rank_profile=[[2] * n for _ in range(n)], cost_range=(c, c))
    value, matching = solve_and_extract(part)
    assert value == 2 * n * c
    assert matching.is_perfect(n)


def test_generator_lists_each_union_of_two_allowed_permutations_once():
    from itertools import combinations_with_replacement, permutations

    from degdet.partitioned import _perfect_two_matchings

    rng = np.random.default_rng(12)
    for trial in range(40):
        n = 1 + trial % 5
        part = gen_2x2(n, seed=trial + 500, rank_profile=[[2] * n] * n, cost_range=(-3, 3))
        allowed = {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.7}
        perms = [perm for perm in permutations(range(n))
                 if all((i, perm[i]) in allowed for i in range(n))]
        unions = {TwoMatching(tuple((i, j, mult) for (i, j), mult
                                    in Counter([*enumerate(a), *enumerate(b)]).items()))
                  for a, b in combinations_with_replacement(perms, 2)}
        listed = list(_perfect_two_matchings(part, allowed))
        assert all(w == m.weight(part.costs) for w, m in listed)
        matchings = [m for _, m in listed]
        assert len(matchings) == len(set(matchings)) and set(matchings) == unions


@pytest.mark.parametrize("n, cost_range", [(7, (5, 5)), (8, (5, 5)), (10, (0, 1))],
                         ids=["equal-n7", "equal-n8", "zero-one-n10"])
def test_rank1_grids_need_at_most_n_consistency_checks(monkeypatch, n, cost_range):
    # every block has rank 1, so no doubled edge is consistent, and equal or
    # 0/1 costs tie almost everywhere; the shrunk tight set must still give
    # the witness within n candidate checks
    import degdet.partitioned as pt

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return is_consistent(*args, **kwargs)

    monkeypatch.setattr(pt, "is_consistent", counted)
    for s in range(5):
        calls.clear()
        part = gen_2x2(n, s, [[1] * n] * n, cost_range)
        value, matching = pt.solve_and_extract(part, SolveOptions(seed=s))
        assert matching.is_perfect(n) and matching.weight(part.costs) == value
        assert is_consistent(matching, part, seed=1000 + s)
        assert len(calls) <= n


def test_enumerate_perfect_weighs_before_it_checks_consistency(monkeypatch):
    # a candidate that cannot beat the best weight so far needs no rank test;
    # the (value, witness) pair is the consistency-first loop's, since every
    # check draws the same seed
    import degdet.partitioned as pt

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return is_consistent(*args, **kwargs)

    monkeypatch.setattr(pt, "is_consistent", counted)
    parts = [gen_2x2(4, s, [[2] * 4] * 4, (-5, 5)) for s in (1, 2)]
    parts += [gen_2x2(4, s, random_rank_profile(4, s), (-10**6, 10**6)) for s in (3, 4)]
    for part in parts:
        calls.clear()
        got = pt.enumerate_perfect(part, seed=7)
        best_weight, best, checks = MINUS_INFINITY, None, 0
        for w, matching in pt._perfect_two_matchings(part, set(part.edges())):
            checks += 1
            if is_consistent(matching, part, seed=7) and (
                    is_minus_infinity(best_weight) or w > best_weight):
                best_weight, best = w, matching
        assert got == (best_weight, best)
        assert len(calls) < checks
    calls.clear()
    enumerate_perfect(gen_2x2(5, 1, [[2] * 5] * 5, (-5, 5)))
    assert len(calls) <= 16  # the consistency-first loop makes 6,210 checks
