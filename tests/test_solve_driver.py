"""The descent driver: gap accounting, unsafe truncation depths, golden reports."""

import numpy as np
import pytest

from degdet import (DEFAULT_PRIME, Instance, IntegerInstance, SolveOptions, gen_bipartite,
                    gen_dense, gen_rank1, random_bipartite_weights, run_phase, solve,
                    solve_rational, solve_with_final_pencil)
from degdet.errors import DimensionMismatchError
from degdet.laurent import LaurentPencil

from conftest import unit_matrix

P = DEFAULT_PRIME


def skew3_arrays():
    return [np.array(unit_matrix(i, j, 3)) - np.array(unit_matrix(j, i, 3))
            for i, j in ((0, 1), (0, 2), (1, 2))]


# -- a rank gap that cuts a phase short ------------------------------------

def gap_probe() -> Instance:
    """skew3 plus an identity term: the gap appears only once t^-5 I drops out."""
    return Instance.from_arrays(P, skew3_arrays() + [np.eye(3, dtype=int)], [10, 3, 7, -5])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gap_after_first_phase_with_scaling(seed):
    # the gap pencils from phase 1 on are certified by the blow-up, so the
    # descent keeps its ceil(log2 C) + 1 phases
    report, pencil = solve_with_final_pencil(gap_probe(), SolveOptions(seed=seed))
    assert report.value == 20 and not report.used_blowup_fallback and pencil is not None
    assert (report.phases, report.iterations, report.oracle_calls) == (5, (1, 1, 2, 3, 3), 10)
    assert report.dstar_trace == (3, 6, 11, 20, 38) and len(report.phase_seconds) == 5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gap_mid_descent_counts_the_cut_phase(seed):
    # the gap that appears mid-phase no longer cuts the phase short: the one
    # phase finishes after 11 oracle calls
    report = solve(gap_probe(), SolveOptions(seed=seed, scaling_enabled=False))
    assert report.value == 20 and not report.used_blowup_fallback
    assert (report.phases, report.iterations, report.oracle_calls) == (1, (11,), 11)
    assert report.dstar_trace == (38,) and len(report.phase_seconds) == 1


# -- truncation depths that are not proven safe ----------------------------

def test_depth_below_2n_is_refused_with_scaling():
    # truncating this instance at depth 2 or 3 drops a coefficient that
    # matters: the descent then ends at 241 instead of 296, with no error
    inst = gen_bipartite(random_bipartite_weights(2, 0, (-1000, 1000)))
    safe = 2 * 2
    for depth in (0, -1, 2, safe - 1):
        with pytest.raises(DimensionMismatchError, match="2n = 4"):
            solve(inst, SolveOptions(seed=0, truncation_depth=depth))
    for depth in (safe, safe + 1):
        assert solve(inst, SolveOptions(seed=0, truncation_depth=depth)).value == 296


def test_any_explicit_depth_is_refused_without_scaling():
    inst = gen_dense(2, 2, seed=5, cost_range=(-20, 20))
    for depth in (5, 2 * 4 * 2, 10**6):
        with pytest.raises(DimensionMismatchError):
            solve(inst, SolveOptions(scaling_enabled=False, truncation_depth=depth))
    # a depth that truncation never uses is harmless
    assert solve(inst, SolveOptions(scaling_enabled=False, truncation_enabled=False,
                                    truncation_depth=5)).value == solve(inst).value


def test_unsafe_depth_refused_by_run_phase_and_rational():
    pen = LaurentPencil.from_constants(P, [np.eye(2, dtype=int)])
    with pytest.raises(DimensionMismatchError):
        run_phase(pen, 2, SolveOptions(truncation_depth=3))
    integer = IntegerInstance(1, 1, (np.array([[2]]),), (4,))
    with pytest.raises(DimensionMismatchError):
        solve_rational(integer, SolveOptions(truncation_depth=1))


# -- golden reports ---------------------------------------------------------

CASES = {
    "dense-3x3": lambda: gen_dense(3, 3, seed=11, cost_range=(-1000, 1000)),
    "dense-2x4": lambda: gen_dense(2, 4, seed=12, cost_range=(-50, 50)),
    "bipartite-4": lambda: gen_bipartite(random_bipartite_weights(4, 3, (-300, 300), 0.7)),
    "bipartite-3": lambda: gen_bipartite(random_bipartite_weights(3, 4, (-20, 20))),
    "tiny-p5": lambda: gen_bipartite(random_bipartite_weights(4, 72, (-5, 5), 0.6), p=5),
    "tiny-p7": lambda: gen_bipartite(random_bipartite_weights(4, 73, (-5, 5), 0.6), p=7),
    "rank1": lambda: gen_rank1(3, 4, seed=2, cost_range=(-100, 100)),
    "skew3": lambda: Instance.from_arrays(P, skew3_arrays(), [4, 9, -2]),
    "singular": lambda: Instance.from_arrays(P, [[[0, 0], [0, 0]], [[1, 0], [0, 0]]], [3, 1]),
}

OPTIONS = {
    "default": SolveOptions(seed=3),
    "noscale": SolveOptions(seed=3, scaling_enabled=False),
    "notrunc": SolveOptions(seed=3, truncation_enabled=False),
}

# (value, dstar_trace, iterations, phases, oracle_calls, shift_applied,
#  used_blowup_fallback, witness (r, s), len(phase_seconds)) and the degrees
# of each term of the final pencil (None when there is none)
GOLDEN = {
    ("dense-3x3", "default"): (
        (2136, (3, 6, 9, 18, 36, 69, 135, 270, 540, 1080, 2157, 4311),
         (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 12, 2, 725, False, None, 12),
        ((), (0,), ())),
    ("dense-3x3", "noscale"): (
        (2136, (4311,), (1,), 1, 1, 725, False, None, 1), ((-1162,), (0,), (-1436,))),
    ("dense-3x3", "notrunc"): (
        (2136, (3, 6, 9, 18, 36, 69, 135, 270, 540, 1080, 2157, 4311),
         (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 12, 2, 725, False, None, 12),
        ((-1162,), (0,), (-1436,))),
    ("dense-2x4", "default"): (
        (80, (2, 4, 6, 10, 20, 38, 76, 150), (1, 1, 0, 0, 1, 0, 0, 0), 8, 3, 35, False,
         None, 8),
        ((), (0,), (), ())),
    ("dense-2x4", "noscale"): (
        (80, (150,), (1,), 1, 1, 35, False, None, 1), ((-74,), (0,), (-59,), (-4,))),
    ("dense-2x4", "notrunc"): (
        (80, (2, 4, 6, 10, 20, 38, 76, 150), (1, 1, 0, 0, 1, 0, 0, 0), 8, 3, 35, False,
         None, 8),
        ((-74,), (0,), (-59,), (-4,))),
    ("bipartite-4", "default"): (
        (252, (4, 5, 8, 12, 22, 42, 82, 162, 320, 637, 1272),
         (1, 2, 3, 4, 2, 2, 3, 2, 3, 2, 3), 11, 27, 255, False, None, 11),
        ((0,), (0,), (), (), (0,), (), (), (0,), (), (), (), (-1,), (), (0,))),
    ("bipartite-4", "noscale"): (
        (252, (1272,), (470,), 1, 470, 255, False, None, 1),
        ((-43,), (0,), (-84,), (-189,), (0,), (0,), (-49,), (0,), (-173,), (0,),
         (-62,), (0,), (-398,), (0,))),
    ("bipartite-4", "notrunc"): (
        (252, (4, 5, 8, 12, 22, 42, 82, 162, 320, 637, 1272),
         (1, 2, 3, 4, 2, 2, 3, 2, 3, 2, 3), 11, 27, 255, False, None, 11),
        ((0,), (0,), (-51,), (-178,), (0,), (-32,), (-48,), (0,), (-184,), (-10,),
         (-52,), (-1,), (-431,), (0,))),
    ("bipartite-3", "default"): (
        (57, (3, 6, 9, 15, 29, 56, 111), (1, 1, 0, 0, 2, 2, 2), 7, 8, 18, False, None, 7),
        ((), (0,), (-4,), (), (0,), (0,), (0,), (), ())),
    ("bipartite-3", "noscale"): (
        (57, (111,), (3,), 1, 3, 18, False, None, 1),
        ((-10,), (0,), (-4,), (-19,), (0,), (0,), (0,), (-35,), (-22,))),
    ("bipartite-3", "notrunc"): (
        (57, (3, 6, 9, 15, 29, 56, 111), (1, 1, 0, 0, 2, 2, 2), 7, 8, 18, False, None, 7),
        ((-10,), (0,), (-4,), (-19,), (0,), (0,), (0,), (-35,), (-22,))),
    ("tiny-p5", "default"): (
        (1, (4, 4, 5, 10, 17), (1, 3, 3, 1, 2), 5, 10, 4, False, None, 5),
        ((0,), (-6,), (0,), (-2,), (), (-2,), (), (0,), (0,), (0,))),
    ("tiny-p5", "noscale"): (
        (1, (17,), (14,), 1, 14, 4, False, None, 1),
        ((0,), (-6,), (0,), (0,), (-8,), (0,), (-12,), (0,), (0,), (0,))),
    ("tiny-p5", "notrunc"): (
        (1, (4, 4, 5, 10, 17), (1, 3, 3, 1, 2), 5, 10, 4, False, None, 5),
        ((0,), (-6,), (0,), (-2,), (-10,), (-2,), (-16,), (0,), (0,), (0,))),
    ("tiny-p7", "default"): (("-inf", (), (), 0, 0, 6, False, (4, 1), 0), None),
    ("tiny-p7", "noscale"): (("-inf", (), (), 0, 0, 6, False, (4, 1), 0), None),
    ("tiny-p7", "notrunc"): (("-inf", (), (), 0, 0, 6, False, (4, 1), 0), None),
    ("rank1", "default"): (
        (-15, (3, 4, 7, 13, 24, 46, 89, 177), (1, 2, 2, 2, 2, 2, 0, 2), 8, 13, 64, False,
         None, 8),
        ((0,), (), (0,), (0,))),
    ("rank1", "noscale"): (
        (-15, (177,), (74,), 1, 74, 64, False, None, 1),
        ((-44, 0), (-97, -53, -24), (-73, -29, 0), (0,))),
    ("rank1", "notrunc"): (
        (-15, (3, 4, 7, 13, 24, 46, 89, 177), (1, 2, 2, 2, 2, 2, 0, 2), 8, 13, 64, False,
         None, 8),
        ((-44, 0), (-97, -53, -24), (-73, -29, 0), (0,))),
    ("skew3", "default"): (
        (11, (3, 4, 6, 11, 20), (1, 3, 3, 2, 3), 5, 12, 3, False, None, 5),
        ((0,), (0,), (0,))),
    ("skew3", "noscale"): ((11, (20,), (17,), 1, 17, 3, False, None, 1), ((0,), (0,), (0,))),
    ("skew3", "notrunc"): (
        (11, (3, 4, 6, 11, 20), (1, 3, 3, 2, 3), 5, 12, 3, False, None, 5),
        ((0,), (0,), (0,))),
    ("singular", "default"): (("-inf", (), (), 0, 0, 0, False, (2, 1), 0), None),
    ("singular", "noscale"): (("-inf", (), (), 0, 0, 0, False, (2, 1), 0), None),
    ("singular", "notrunc"): (("-inf", (), (), 0, 0, 0, False, (2, 1), 0), None),
}


def test_reports_match_golden_records():
    for (case, option), (want_report, want_degrees) in GOLDEN.items():
        report, pencil = solve_with_final_pencil(CASES[case](), OPTIONS[option])
        witness = report.singular_certificate
        got = (report.value if isinstance(report.value, int) else "-inf",
               report.dstar_trace, report.iterations, report.phases, report.oracle_calls,
               report.shift_applied, report.used_blowup_fallback,
               None if witness is None else (witness.r, witness.s),
               len(report.phase_seconds))
        degrees = None if pencil is None else tuple(tuple(t.degrees()) for t in pencil.terms)
        assert (got, degrees) == (want_report, want_degrees), (case, option)
