"""The proven limits of a scaling phase: n + 1 oracle calls and truncation depth 2n.

A phase of a solve makes at most n steps, and an entry dropped at degree
<= -2n never reaches a leading pencil (see the solver docstring).  So the
default depth must give the very reports that no truncation gives, on every
instance family, and no phase may need more than n + 1 calls.
"""

import numpy as np
import pytest

from degdet import (DEFAULT_PRIME, Certificate, Instance, LaurentMatrix, LaurentPencil,
                    SolveOptions, gen_2x2, gen_bipartite, gen_dense, gen_integer, gen_rank1,
                    prime_budget, random_bipartite_weights, random_rank_profile, run_phase,
                    solve, to_instance)
from degdet.errors import DimensionMismatchError, IterationBoundExceededError

from conftest import unit_matrix

P = DEFAULT_PRIME
C = (-10**6, 10**6)


def skew3_gap(seed: int, n: int) -> Instance:
    """The 3 x 3 skew pencil on the top-left diagonal block, a generic block
    on the rest of the diagonal, and single entries above the blocks: a
    leading pencil of nc-rank above its commutative rank."""
    rng = np.random.default_rng(seed)
    mats = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        mats.append(np.array(unit_matrix(i, j, n)) - np.array(unit_matrix(j, i, n)))
    if n > 3:
        rest = np.zeros((n, n), dtype=np.int64)
        rest[3:, 3:] = rng.integers(1, P, (n - 3, n - 3))
        mats.append(rest)
        for i in range(3):
            for j in range(3, n):
                if rng.random() < 0.5:
                    mats.append(np.array(unit_matrix(i, j, n)) * int(rng.integers(1, P)))
    costs = rng.integers(C[0], C[1] + 1, len(mats)).tolist()
    return Instance.from_arrays(P, mats, costs)


def corpus():
    """(label, instance) over every family, n <= 5, costs up to +-10^6."""
    for n in (2, 3, 4, 5):
        yield f"bipartite-{n}", gen_bipartite(random_bipartite_weights(n, n, C))
        yield f"bipartite-sparse-{n}", gen_bipartite(random_bipartite_weights(n, 10 + n, C, 0.6))
        yield f"dense-{n}", gen_dense(n, n + 1, seed=n, cost_range=C)
        yield f"rank1-{n}", gen_rank1(n, 2 * n, seed=n, cost_range=C)
    for n in (1, 2):  # to_instance doubles the size
        part = gen_2x2(n, n, random_rank_profile(n, n), C)
        yield f"partitioned-{n}", to_instance(part)
    for n in (3, 4, 5):
        yield f"skew3-gap-{n}", skew3_gap(n, n)
    for n in (2, 3, 5):
        inst = gen_integer(n, n + 1, n, 10, C)
        for p in prime_budget(inst.n, inst.entry_bound).primes[:2]:
            yield f"integer-{n}-p{p}", inst.reduce_mod(p)


CASES = list(corpus())


@pytest.mark.parametrize("label,inst", CASES, ids=[label for label, _ in CASES])
def test_default_depth_2n_gives_the_untruncated_report(label, inst):
    for seed in (0, 1):
        got = solve(inst, SolveOptions(seed=seed))
        want = solve(inst, SolveOptions(seed=seed, truncation_enabled=False))
        assert (got.value, got.dstar_trace, got.iterations, got.oracle_calls) == (
            want.value, want.dstar_trace, want.iterations, want.oracle_calls), label
        assert all(calls <= inst.n + 1 for calls in got.iterations), label


def test_the_gap_pencils_are_certified_through_the_blow_up(monkeypatch):
    # the corpus reaches leading pencils whose commutative rank is below
    # their nc-rank, which only a blow-up point certifies
    import degdet.ncrank as ncrank

    points, real = [], ncrank.substituted_blowup

    def counted(pencil, point, d):
        points.append(d)
        return real(pencil, point, d)

    monkeypatch.setattr(ncrank, "substituted_blowup", counted)
    for label, inst in CASES:
        if label.startswith("skew3"):
            before = len(points)
            solve(inst)
            assert len(points) > before, label


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_depth_2n_minus_1_is_refused_and_2n_accepted(n):
    inst = gen_dense(n, 2, seed=40 + n, cost_range=C)
    with pytest.raises(DimensionMismatchError, match=f"2n = {2 * n}"):
        solve(inst, SolveOptions(truncation_depth=2 * n - 1))
    assert (solve(inst, SolveOptions(truncation_depth=2 * n)).value
            == solve(inst, SolveOptions(truncation_enabled=False)).value)


@pytest.mark.parametrize("g", [0, 1, 4])
def test_run_phase_bound_is_n_plus_1_plus_the_missing_degrees(monkeypatch, g):
    # a hand-built pencil whose top degree is -g spends g calls before it can
    # descend, so its phase may make n + 1 + g calls, and one that never
    # certifies raises after exactly that many
    import degdet.solver as solver

    pen = LaurentPencil.from_terms(P, 3, (LaurentMatrix(P, 3, {-g: np.eye(3, dtype=int)}),))
    calls = []

    def stuck(pencil, seed):
        calls.append(seed)
        ident = np.eye(pencil.n, dtype=np.int64)
        return Certificate(ident, ident, 0, 0, 2 * pencil.n)

    monkeypatch.setattr(solver, "solve_R", stuck)
    with pytest.raises(IterationBoundExceededError, match=f"bound of {3 + 1 + g} "):
        run_phase(pen, 0, SolveOptions(seed=0))
    assert len(calls) == 3 + 1 + g
