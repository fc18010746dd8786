"""One rule for integer input: every constructor, generator and option takes
Python or numpy integers and refuses a float, a boolean, a string or None
with DimensionMismatchError, instead of truncating it."""

import numpy as np
import pytest

from degdet import (Instance, IntegerInstance, LaurentMatrix, LaurentPencil,
                    PartitionedInstance, PrimeModulus, SolveOptions, gen_bipartite,
                    gen_integer, hungarian, is_prime, normalize_costs, run_phase, solve,
                    solve_rational)
from degdet.errors import DimensionMismatchError
from degdet.field_linalg import as_integers, as_residues

P = 2**31 - 1
NOT_INTEGERS = [1.5, 2.0, True, "3", None]


def _routes(bad):
    """Each route an integer takes into the package, with `bad` in one slot."""
    return {
        "entries": lambda: Instance.from_arrays(7, [[[bad, 0], [0, 2]]], [3]),
        "costs": lambda: Instance.from_arrays(7, [[[1, 0], [0, 2]]], [bad]),
        "integer entries": lambda: IntegerInstance(2, 1, [[[1, bad], [0, 2]]], [3]),
        "integer costs": lambda: IntegerInstance(2, 1, [[[1, 0], [0, 2]]], [bad]),
        "entry bound": lambda: IntegerInstance(1, 1, [[[1]]], [0], {"entry_bound": bad}),
        "block entries": lambda: PartitionedInstance(
            PrimeModulus(7), [[[[1, 0], [0, bad]]]], [[0]]),
        "block costs": lambda: PartitionedInstance(
            PrimeModulus(7), [[[[1, 0], [0, 1]]]], [[bad]]),
        "weights": lambda: gen_bipartite([[1, None], [None, bad]]),
        "degrees": lambda: LaurentPencil.from_constants(7, [[[1]]], [bad]),
        "degree keys": lambda: LaurentMatrix(7, 1, {bad: [[1]]}),
        "normalize_costs": lambda: normalize_costs([1, bad]),
        "hungarian": lambda: hungarian([[bad, 2], [3, 4]]),
        "modulus": lambda: PrimeModulus(bad),
        "is_prime": lambda: is_prime(bad),
        "rational seed": lambda: solve_rational(gen_integer(2, 2, 1), SolveOptions(seed=bad)),
    }


@pytest.mark.parametrize("route, bad", [
    (route, bad) for route in _routes(0) for bad in NOT_INTEGERS
    if not (bad is None and route in ("weights", "hungarian"))])  # None: an absent cell
def test_every_route_refuses_what_is_not_an_integer(route, bad):
    with pytest.raises(DimensionMismatchError):
        _routes(bad)[route]()


def test_the_truncating_examples_are_refused():
    # each of these used to answer with the value cut to an integer
    with pytest.raises(DimensionMismatchError, match="float"):
        solve(Instance.from_arrays(7, [[[1.5, 0], [0, 2.7]]], [3]))
    with pytest.raises(DimensionMismatchError, match="weights"):
        gen_bipartite([[1.7, None], [None, 2.2]])
    with pytest.raises(DimensionMismatchError, match="weights"):
        hungarian([[1.5, 2], [3, 4.5]])
    with pytest.raises(DimensionMismatchError, match="costs"):
        normalize_costs([1.5, 2.7])
    with pytest.raises(DimensionMismatchError, match="degrees"):
        LaurentPencil.from_constants(7, [[[1]]], [-1.5])


@pytest.mark.parametrize("data", [[[1, 2], [3]], [[[1, 0], [0, 2]], [[1, 0], [0]]],
                                  [np.zeros((2, 2), int), np.zeros((2, 3), int)]],
                         ids=["rows", "slabs", "arrays"])
def test_a_ragged_nesting_is_refused_by_name(data):
    with pytest.raises(DimensionMismatchError, match="mats"):
        as_integers(data, "mats")


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64])
def test_numpy_integers_of_every_width_pass(dtype):
    arr = np.array([[[1, 0], [0, 2]]], dtype=dtype)
    assert Instance.from_arrays(7, arr, [dtype(3)]).stack.tolist() == [[[1, 0], [0, 2]]]
    assert gen_bipartite(arr[0].tolist()).costs == (1, 0, 0, 2)
    assert hungarian(arr[0]) == 3 and normalize_costs(arr[0, 0]) == ((2, 1), 1)


def test_integers_beyond_int64_keep_their_exact_residues():
    big = 2**70 + 3
    inst = IntegerInstance(1, 2, [[[big]], [[-big]]], [0, 1])
    assert inst.mats.dtype == object and inst.entry_bound == big
    assert inst.reduce_mod(P).stack.ravel().tolist() == [big % P, -big % P]
    top = np.uint64(2**64 - 1)
    for mats in ([[[top]]], np.array([[[top]]], dtype=np.uint64)):
        assert Instance.from_arrays(P, mats, [0]).stack.ravel().tolist() == [(2**64 - 1) % P]
    assert as_residues(np.array([2**64 - 1], dtype=np.uint64), 2**61 - 1).tolist() == [
        (2**64 - 1) % (2**61 - 1)]


def test_the_gate_keeps_int64_and_falls_back_to_python_ints():
    assert as_integers([1, -2**63, 2**63 - 1], "x").dtype == np.int64
    wide = as_integers([1, np.uint64(2**63)], "x")
    assert wide.dtype == object and wide.tolist() == [1, 2**63]
    assert all(type(v) is int for v in wide)
    five = as_integers(np.int32(5), "x", 0)
    assert five == 5 and type(five) is int
    with pytest.raises(DimensionMismatchError, match="x"):
        as_integers([5], "x", 0)


def test_numpy_integers_are_moduli_and_floats_are_not():
    assert is_prime(np.int64(97)) and not is_prime(np.int64(91))
    assert PrimeModulus(np.int64(2**31 - 1)).p == 2**31 - 1
    assert type(PrimeModulus(np.int64(2**31 - 1)).p) is int
    with pytest.raises(DimensionMismatchError):
        is_prime(7.0)


def test_an_int64_array_handed_to_an_integer_instance_stays_writeable():
    mats = np.array([[[1, 2], [3, 4]]], dtype=np.int64)
    inst = IntegerInstance(2, 1, mats, [0])
    mats[0, 0, 0] = 9
    assert mats.flags.writeable and not inst.mats.flags.writeable
    assert inst.mats[0, 0, 0] == 1


@pytest.mark.parametrize("opts", [SolveOptions(seed=1.5), SolveOptions(seed=-1),
                                  SolveOptions(seed=True), SolveOptions(seed="3"),
                                  SolveOptions(truncation_depth=6.5),
                                  SolveOptions(truncation_depth=True)],
                         ids=["seed-float", "seed-negative", "seed-bool", "seed-str",
                              "depth-float", "depth-bool"])
def test_solve_options_take_integers_only(opts):
    inst = gen_bipartite([[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatchError):
        solve(inst, opts)
    pencil = LaurentPencil.from_constants(P, [[[1, 0], [0, 1]]])
    with pytest.raises(DimensionMismatchError):
        run_phase(pencil, 0, opts)


def test_numpy_integer_options_solve_as_their_python_values():
    inst = gen_bipartite([[1, 2], [3, 4]])
    runs = [solve(inst, SolveOptions(seed=seed, truncation_depth=depth))
            for seed, depth in ((3, 8), (np.int64(3), np.int32(8)))]
    assert len({(r.value, r.dstar_trace, r.iterations) for r in runs}) == 1
