"""Rank-gap pencils (commutative rank below nc-rank) are certified, not deferred.

The oracle answers a gap pencil from a point of its (n-1)-fold blow-up, so
the solver never calls the interpolating blow-up oracle and keeps its log C
phase count on these instances.
"""

import json

import numpy as np
import pytest

from degdet import (DEFAULT_PRIME, ConstPencil, Instance, SolveOptions, degdet_blowup,
                    is_minus_infinity, ncrank, normalize_costs, oracles, save, solve, solve_R,
                    solver)
from degdet.cli import main
from degdet.errors import NcRankGapError

from conftest import unit_matrix

P = DEFAULT_PRIME


def skew3_arrays(size=3):
    """The 3x3 skew pencil, in the upper-left corner of size x size matrices."""
    out = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        mat = np.zeros((size, size), dtype=np.int64)
        mat[i, j], mat[j, i] = 1, -1
        out.append(mat)
    return out


def skew3_with_block(costs):
    """skew3 (+) a 2x2 bipartite block: seven terms, constant pencil of rank gap 1."""
    block = [np.array(unit_matrix(3 + i, 3 + j, 5)) for i in range(2) for j in range(2)]
    return Instance.from_arrays(P, skew3_arrays(5) + block, costs)


def skew3_plus_identity(costs):
    return Instance.from_arrays(P, skew3_arrays() + [np.eye(3, dtype=int)], costs)


def gap_corpus():
    rng = np.random.default_rng(2020)
    insts = [skew3_with_block([int(c) for c in rng.integers(-8, 9, 7)]) for _ in range(20)]
    insts += [skew3_plus_identity([int(c) for c in rng.integers(-8, 9, 4)]) for _ in range(10)]
    return insts


@pytest.mark.parametrize("scaling", [True, False])
def test_gap_instances_equal_the_blowup_oracle(scaling):
    for k, inst in enumerate(gap_corpus()):
        report = solve(inst, SolveOptions(seed=k, scaling_enabled=scaling))
        assert report.value == degdet_blowup(inst, seed=k), k
        assert not report.used_blowup_fallback and report.phases >= 1


@pytest.mark.parametrize("shift", [0, 7])
def test_gap_instances_at_a_million_keep_the_log_c_phase_count(shift):
    # shifting every cost by `shift` adds n * shift to deg Det
    skew = Instance.from_arrays(P, skew3_arrays(), [c + shift for c in (10**6, 3, 7)])
    block = skew3_with_block([c + shift for c in (10**6, 3, 7, 10**6, -10**6, 5, 7)])
    for inst, value in ((skew, 1000010 + 3 * shift), (block, 2000017 + 5 * shift)):
        report = solve(inst)
        shifted, _ = normalize_costs(inst.costs)
        assert report.value == value
        assert report.phases <= (max(shifted) - 1).bit_length() + 1


def constant_pencil(block):
    """skew3 (+) one 2x2 term `block`: commutative rank 2 + rank(block) < nc-rank."""
    extra = np.zeros((5, 5), dtype=np.int64)
    extra[3:, 3:] = block
    return skew3_arrays(5) + [extra]


def test_deficient_constant_pencils_get_exact_certificates():
    rank1 = ConstPencil(P, np.stack(constant_pencil([[1, 0], [0, 0]])))
    cert = solve_R(rank1, seed=0)
    assert (cert.r, cert.s, cert.value) == (5, 1, 4) and cert.check(rank1)

    zero = constant_pencil([[0, 0], [0, 0]])
    cert = solve_R(ConstPencil(P, np.stack(zero)), seed=0)
    assert (cert.r, cert.s, cert.value) == (5, 2, 3)
    # the singular instance is -inf with that witness
    report = solve(Instance.from_arrays(P, zero, [4, 9, -2, 1]))
    witness = report.singular_certificate
    assert is_minus_infinity(report.value) and (witness.r, witness.s) == (5, 2)
    assert witness.check(ConstPencil(P, np.stack(zero)))


def test_solve_never_calls_the_blowup_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve called degdet_blowup")

    monkeypatch.setattr(oracles, "degdet_blowup", refuse)
    for k, inst in enumerate(gap_corpus()[::5]):
        for scaling in (True, False):
            assert isinstance(solve(inst, SolveOptions(seed=k, scaling_enabled=scaling)).value,
                              int)


def test_every_solve_r_call_is_an_oracle_call(monkeypatch):
    # the blow-up certificate comes from a private helper, so wrapping the
    # public solve_R under every name it has counts exactly the oracle calls
    real, calls = ncrank.solve_R, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(ncrank, "solve_R", counted)
    monkeypatch.setattr(solver, "solve_R", counted)
    report = solve(skew3_plus_identity([10, 3, 7, -5]), SolveOptions(seed=1))
    assert (report.value, report.phases, report.oracle_calls) == (20, 5, 10)
    assert len(calls) == report.oracle_calls


def test_a_blowup_that_never_certifies_raises(monkeypatch, capsys, tmp_path):
    def zeros(pencil, point, d):
        return np.zeros((pencil.n * d, pencil.n * d), dtype=pencil.stack.dtype)

    monkeypatch.setattr(ncrank, "substituted_blowup", zeros)
    inst = Instance.from_arrays(P, skew3_arrays(), [4, 9, -2])
    with pytest.raises(NcRankGapError):
        solve_R(ConstPencil(P, inst.stack), seed=0)
    with pytest.raises(NcRankGapError):
        solve(inst)
    path = tmp_path / "skew3.json"
    path.write_bytes(save(inst))
    assert main(["solve", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "NcRankGapError"
