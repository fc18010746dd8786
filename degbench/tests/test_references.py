"""The benchmark's own checks.

The closed-form references (rank-1 top-n sum, skew cost sum, n * c_max) are
compared with the package's independent oracles at desk scale; the exact
integer determinants with a brute-force expansion; and the tracer must patch
every alias of a wrapped function and restore all of them.

    python3 -m pytest -q degbench/tests
"""

from __future__ import annotations

import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import degdet as dd  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

P = dd.DEFAULT_PRIME


def brute_det(rows) -> int:
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        prod = 1
        for i in range(n):
            prod *= int(rows[i][perm[i]])
        total += sign * prod
    return total


@pytest.mark.parametrize("seed", range(8))
def test_exact_determinants(seed):
    rng = np.random.default_rng(seed)
    n = 1 + seed % 5
    mat = rng.integers(-10, 11, size=(n, n)).tolist()
    if seed % 3 == 0 and n > 1:
        mat[1] = mat[0]  # singular on purpose
    assert workloads.det_int(mat) == brute_det(mat)
    assert workloads.det_mod(mat, 101) == brute_det(mat) % 101


@pytest.mark.parametrize("seed", range(5))
def test_rank1_top_sum_equals_commutative_degree(seed):
    inst = dd.gen_rank1(3, 6, seed, (-1000, 1000))
    ref, note = workloads.rank1_reference([m.data for m in inst.mats], inst.costs, 3, P)
    assert ref is not None, note
    assert ref == dd.degdet_commutative(inst, seed=seed)


def test_rank1_reference_refuses_what_it_cannot_certify():
    e = [np.diag([1, 0]), np.diag([0, 1])]
    assert workloads.rank1_reference(e + [e[0]], [5, 3, 3], 2, P)[0] is None  # tie
    assert workloads.rank1_reference([e[0], e[0], e[1]], [5, 4, 1], 2, P)[0] is None
    assert workloads.rank1_reference([e[0], e[0], e[1]], [5, 1, 4], 2, P)[0] == 9


@pytest.mark.parametrize("costs", [(0, 0, 0), (5, 3, 7), (-2, 4, 1)])
def test_skew_sum_equals_blowup(costs):
    inst = dd.Instance.from_arrays(P, workloads.skew3_mats(), costs)
    assert dd.degdet_blowup(inst, seed=1) == sum(costs)


@pytest.mark.parametrize("seed", range(2))
def test_skew_plus_block_equals_blowup(seed):
    rng = np.random.default_rng(seed)
    skew = [int(c) for c in rng.integers(-3, 4, size=3)]
    block = [[int(c) for c in row] for row in rng.integers(-3, 4, size=(2, 2))]
    inst = workloads.skew3_plus_block(dd, skew, block, P)
    assert dd.degdet_blowup(inst, seed=seed) == sum(skew) + dd.hungarian(block)


@pytest.mark.parametrize("seed", range(5))
def test_ncmax_equals_commutative_and_blowup(seed):
    inst = dd.gen_integer(3, 4, seed, entry_bound=3, cost_range=(-100, 100))
    ref, note = workloads.ncmax_reference(inst.mats, inst.costs, inst.n)
    assert ref is not None, note
    reduced = inst.reduce_mod(P)
    assert ref == dd.degdet_commutative(reduced, seed=seed)
    assert ref == dd.degdet_blowup(reduced, seed=seed)


def test_ncmax_reference_refuses_what_it_cannot_certify():
    eye, zero = np.eye(2, dtype=int), np.zeros((2, 2), dtype=int)
    assert workloads.ncmax_reference([eye, eye], [4, 4], 2)[0] is None
    assert workloads.ncmax_reference([zero, eye], [4, 1], 2)[0] is None
    assert workloads.ncmax_reference([zero, eye], [1, 4], 2)[0] == 8


def test_nc_edge_pins_the_tiny_corpus_and_builds_singular_grids():
    a = workloads.build(dd, "nc-edge", 0)
    b = workloads.build(dd, "nc-edge", 1)
    tiny = [(c.cid, dd.instances.save(c.instance)) for c in a if c.cid.startswith("tiny")]
    assert len(tiny) == 180
    assert tiny == [(c.cid, dd.instances.save(c.instance)) for c in b if c.cid.startswith("tiny")]
    for case in a:
        if case.cid.startswith("sparse"):
            assert dd.hungarian(case.data["weights"]) == dd.MINUS_INFINITY
    assert ({c.cid: dd.instances.save(c.instance) for c in a}["sparse-n20-0"]
            != {c.cid: dd.instances.save(c.instance) for c in b}["sparse-n20-0"])


def test_matching_pins_the_cli_and_n24_instance():
    a, b = ({c.cid: dd.instances.save(c.instance) for c in workloads.build(dd, "matching-1e6", seed)}
            for seed in (0, 1))
    for cid in ("bipartite-n16-0", "bipartite-n24-2"):
        assert a[cid] == b[cid]
    for cid in ("bipartite-n20-1", "rank1-n24", "partitioned-n5"):
        assert a[cid] != b[cid]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([range(1, 21)]) == (10, 50.0, 10)
    assert run.tail([range(1, 21), range(21, 41)]) == (20, 50.0, 20)
    assert run.tail([[3.0, 1.0, 2.0], [5.0, 4.0, 0.0], [6.0, 0.0, 0.0]]) == (5.0, 100.0, 0)


def test_tracer_patches_aliases_and_restores_them():
    original = dd.ncrank.solve_R
    inst = dd.Instance.from_arrays(P, [np.eye(3, dtype=int), np.ones((3, 3), dtype=int)], [2, 1])
    tracer = tracing.Tracer()
    tracer.install(dd)
    try:
        assert dd.solver.solve_R is dd.ncrank.solve_R is not original
        report = dd.solver.solve(inst, dd.SolveOptions(seed=0))
    finally:
        tracer.uninstall()
    assert dd.solver.solve_R is original and dd.ncrank.solve_R is original
    metrics, per_instance = tracing.derive(tracer.spans, tracer.extra)
    assert metrics["solver.oracle_calls"] == report.oracle_calls
    assert metrics["ncrank.solve_R.calls"] == report.oracle_calls
    assert metrics["ncrank.samples"] == per_instance[None]["samples"] > 0
    top = sum(t1 - t0 for _, t0, t1, parent, _ in tracer.spans if parent < 0)
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert self_sum == pytest.approx(top)
