"""A run of quiet scaling phases in one closed-form degree update.

`solver._advance` maps the degree array over the quiet run at the head of a
table of t^-1 bits in one update.  The reference here is the per-phase loop
it replaced: d <- 2d - o_j, the -2^61 check and truncation, then + b_j while
the bits on K agree.  Driving `_advance` until the next phase descends or the
table ends must give the same entries in the same order, the same degrees,
the same b_j, and the same SizeLimitError after the same phases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degdet import LaurentPencil
from degdet.errors import SizeLimitError
from degdet.solver import _advance


def reference(pencil, odd, K, depth, bs):
    """The per-phase loop; appends each quiet phase's b to `bs`."""
    arrays = [pencil.term, pencil.degree, pencil.row, pencil.col, pencil.value]
    for row in odd.astype(np.int64):
        arrays[1] = 2 * arrays[1] - row[arrays[0]]
        if arrays[1].size and arrays[1].min() < -2**61:
            raise SizeLimitError("below -2^61")
        if depth is not None:
            keep = arrays[1] > -depth
            arrays = [arr[keep] for arr in arrays]
        if len(set(row[K].tolist())) > 1:
            break  # this phase descends: its degrees before the descent
        arrays[1] = arrays[1] + row[K[0]]
        bs.append(int(row[K[0]]))
    return arrays


def closed(pencil, odd, K, depth, bs):
    """`_advance` until a phase that descends or the end of the table."""
    degree, theta = pencil.degree, 0
    while theta < len(odd):
        pencil, degree, b = _advance(pencil, degree, odd[theta:], K, depth)
        bs.extend(b.tolist())
        if not b.size:
            break
        theta += b.size
    return [pencil.term, degree, pencil.row, pencil.col, pencil.value]


def outcome(run, pencil, odd, K, depth):
    bs = []
    try:
        arrays = run(pencil, odd, K, depth, bs)
    except SizeLimitError:
        return "SizeLimitError", bs
    return [arr.tolist() for arr in arrays], bs


def state(n, m, K, degrees, seed=0):
    """A pencil with every (term, row, col) entry at the given degrees; the
    entries at degree 0 must lie in K, as after a phase that descends."""
    term, row, col = (a.ravel() for a in np.indices((m, n, n)))
    value = np.random.default_rng(seed).integers(1, 7, term.size)
    degree = np.asarray(degrees, np.int64)
    assert not np.isin(term[degree == 0], K, invert=True).any()
    return LaurentPencil._wrap(7, n, m, term, degree, row, col, value)


@st.composite
def runs(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K = np.flatnonzero(rng.permutation(m) < draw(st.integers(1, m)))
    term = np.repeat(np.arange(m), n * n)
    low = draw(st.sampled_from([1, 8, 40, 2**20, 2**50, 2**58, 2**61]))
    degree = -rng.integers(0, low, term.size, endpoint=True)
    degree[(degree == 0) & ~np.isin(term, K)] = -1
    rows = draw(st.integers(1, 70))
    odd = rng.integers(0, 2, (rows, m)).astype(np.uint8)
    quiet = rng.random(rows) < draw(st.sampled_from([0.5, 0.9, 1.0]))
    odd[np.ix_(quiet, K)] = rng.integers(0, 2, (int(quiet.sum()), 1))
    depth = draw(st.sampled_from([None, 2, 3, 8, 50, 2**40, 2**61]))
    return state(n, m, K, degree, draw(st.integers(0, 9))), odd, K, depth


@settings(max_examples=400, deadline=None)
@given(runs())
def test_closed_form_runs_match_the_per_phase_loop(case):
    assert outcome(closed, *case) == outcome(reference, *case)


def quiet_table(rows, bits):
    """`rows` phases of the bits per term, all quiet on K = [0]."""
    return np.tile(np.array(bits, np.uint8), (rows, 1))


@pytest.mark.parametrize("b, depth", [(0, 15), (1, 9)])
def test_a_truncation_on_the_runs_last_phase(b, depth):
    # term 1 at degree -1 with bit 1 reaches -depth exactly, before adding b, at
    # the third phase, the last of the table (so the run ends at phase N): with
    # b = 0 at -3, -7, -15, with b = 1 at -3, -5, -9 (adding 1 after each)
    pencil = state(1, 2, [0], [0, -1])
    K = np.array([0])
    for rows, kept in ((2, [0, 1]), (3, [0])):
        odd = quiet_table(rows, [b, 1])
        got = outcome(closed, pencil, odd, K, depth)
        assert got == outcome(reference, pencil, odd, K, depth)
        assert got[0][0] == kept and got[1] == [b] * rows
        assert _advance(pencil, pencil.degree, odd, K, depth)[2].size == rows  # one update


@pytest.mark.parametrize("depth", [None, 2**61])
def test_a_run_near_the_floor_raises_after_the_same_phases(depth):
    # -2^59 at bit 1: -2^60 - 1, then -2^61 - 3 raises at the second phase;
    # the cap 2^L (1 - min d) <= 2^60 makes each of these runs one phase
    K = np.array([0])
    pencil = state(1, 2, [0], [0, -2**59])
    odd = quiet_table(5, [1, 1])
    got = outcome(closed, pencil, odd, K, depth)
    assert got == outcome(reference, pencil, odd, K, depth) == ("SizeLimitError", [1])
    assert _advance(pencil, pencil.degree, odd, K, depth)[2].size == 1


def test_a_run_is_capped_below_2_to_the_60():
    K = np.array([0])
    odd = quiet_table(10, [0, 0])
    for low, cap in ((-1, 10), (-2**50, 9), (-2**57 + 1, 3), (-2**58, 1)):
        pencil = state(1, 2, [0], [0, low])
        assert _advance(pencil, pencil.degree, odd, K, None)[2].size == cap
        assert outcome(closed, pencil, odd, K, None) == outcome(reference, pencil, odd, K, None)


def test_a_phase_that_descends_is_mapped_alone():
    K = np.array([0, 1])
    pencil = state(1, 2, [0, 1], [0, -3])
    odd = np.array([[1, 0], [0, 0]], np.uint8)  # K's bits disagree at once
    got_pencil, degree, b = _advance(pencil, pencil.degree, odd, K, None)
    assert got_pencil is pencil and b.size == 0 and degree.tolist() == [-1, -6]
