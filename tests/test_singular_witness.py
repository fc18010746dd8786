"""Singular instances are decided by a verified certificate, never by luck.

The solver reads nc-singularity off the certificate oracle on the constant
pencil: a verified (S, T) with an r x s zero block and r + s > n proves it.
Over tiny fields the oracle may fail to find either proof; that must surface
as an explicit error, never as a wrong value.
"""

import json
import sys

import numpy as np
import pytest

from degdet import (ConstPencil, DegDetError, SolveOptions, gen_bipartite, gen_rank1, hungarian,
                    is_minus_infinity, random_bipartite_weights, save, solve)
from degdet import ncrank, solver
from degdet.cli import main
from degdet.field_linalg import as_residues

# Bipartite n = 5, density 0.6, costs +-5, seeds 0-59: over p <= 7 a one-sided
# blow-up test used to report some nonsingular instances as -inf.
CORPUS_N = 5
CORPUS_SEEDS = range(60)


def corpus_grid(seed):
    return random_bipartite_weights(CORPUS_N, seed, (-5, 5), 0.6)


def assert_witnessed(inst, report):
    cert = report.singular_certificate
    assert cert is not None
    assert cert.r + cert.s > inst.n
    assert cert.value < inst.n
    assert cert.check(ConstPencil(inst.p, inst.stack))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tiny_field_corpus_right_value_or_error(p):
    solved = singular = 0
    for seed in CORPUS_SEEDS:
        grid = corpus_grid(seed)
        inst = gen_bipartite(grid, p=p)
        try:
            report = solve(inst, SolveOptions(seed=seed))
        except DegDetError:
            continue
        solved += 1
        assert report.value == hungarian(grid), f"p={p} seed={seed}"
        if is_minus_infinity(report.value):
            singular += 1
            assert_witnessed(inst, report)
        else:
            assert report.singular_certificate is None
    assert solved > 0 and singular > 0


def sparse_singular_grid(n, seed):
    """About a fifth of the cells, redrawn until no perfect matching exists."""
    attempt = 0
    while True:
        rng = np.random.default_rng([seed, attempt])
        grid = [[None] * n for _ in range(n)]
        for idx in rng.choice(n * n, size=n * n // 5, replace=False):
            grid[idx // n][idx % n] = int(rng.integers(-10**6, 10**6 + 1))
        if is_minus_infinity(hungarian(grid)):
            return grid
        attempt += 1


def test_sparse_singular_skips_the_blowup(monkeypatch):
    def no_blowup(*args, **kwargs):
        raise AssertionError("the solver evaluated a blow-up")

    monkeypatch.setattr(ncrank, "substituted_blowup", no_blowup)
    inst = gen_bipartite(sparse_singular_grid(12, 3))
    report = solve(inst, SolveOptions(seed=1))
    assert is_minus_infinity(report.value)
    assert_witnessed(inst, report)
    assert (report.phases, report.oracle_calls, report.used_blowup_fallback) == (0, 0, False)


def test_cli_prints_witness_sizes(capsys, tmp_path):
    grid = [[1, 2, None], [3, 4, None], [5, 6, None]]
    path = tmp_path / "sing.json"
    path.write_bytes(save(gen_bipartite(grid)))
    assert main(["solve", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "-inf"
    witness = doc["singular_certificate"]
    assert witness["r"] + witness["s"] > 3

    path.write_bytes(save(gen_bipartite([[1, None], [None, 2]])))
    assert main(["solve", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["singular_certificate"] is None


def test_phase_zero_starts_from_the_singularity_pencils_entries(monkeypatch):
    # one np.nonzero of the instance stack feeds the singularity call and
    # phase 0, and no as_residues call of a solve copies a 3-D stack
    insts = [gen_bipartite([[1, 2], [None, 3]]), gen_rank1(4, 6, seed=2, cost_range=(-9, 9))]
    pencils, phases, ndims = [], [], []
    real_solve_R, real_phase, real_residues = solver.solve_R, solver._run_phase, as_residues

    def solve_R(pencil, seed):
        pencils.append(pencil)
        return real_solve_R(pencil, seed)

    def run_phase(pencil, *args):
        phases.append(pencil)
        return real_phase(pencil, *args)

    def residues(data, p):
        ndims.append(np.ndim(data))
        return real_residues(data, p)

    monkeypatch.setattr(solver, "solve_R", solve_R)
    monkeypatch.setattr(solver, "_run_phase", run_phase)
    for name, module in list(sys.modules.items()):
        if name.startswith("degdet") and getattr(module, "as_residues", None) is real_residues:
            monkeypatch.setattr(module, "as_residues", residues)
    for inst in insts:
        pencils.clear()
        phases.clear()
        assert not is_minus_infinity(solver.solve(inst).value)
        for field in ("term", "row", "col", "value"):
            assert np.shares_memory(getattr(phases[0], field), getattr(pencils[0], field))
    assert ndims and max(ndims) < 3
