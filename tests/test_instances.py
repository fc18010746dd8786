import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from degdet import (DEFAULT_PRIME, ConstPencil, Instance, IntegerInstance, MINUS_INFINITY,
                    PartitionedInstance, PrimeModulus, SolveOptions, build_blowup,
                    degdet_blowup, gen_2x2, gen_bipartite, gen_dense, gen_integer, gen_rank1,
                    hungarian, is_minus_infinity, load, random_bipartite_weights,
                    random_rank_profile, save, solve, to_instance)
from degdet.errors import DimensionMismatchError, FormatError, NonPrimeError
from degdet.field_linalg import mod_rank

P = DEFAULT_PRIME


def test_gen_bipartite_diagonal_forced_matching():
    inst = gen_bipartite([[5, None], [None, 7]])
    assert inst.m == 2
    assert solve(inst).value == 12


def test_gen_bipartite_fixture_value(bipartite_3x3_grid):
    inst = gen_bipartite(bipartite_3x3_grid)
    assert inst.m == 9
    assert solve(inst).value == 8


def test_gen_bipartite_single_cell_is_singular():
    inst = gen_bipartite([[1, None], [None, None]])
    assert is_minus_infinity(solve(inst).value)


def test_gen_bipartite_rejects_empty():
    with pytest.raises(DimensionMismatchError):
        gen_bipartite([[None, None], [None, None]])


def test_gen_bipartite_cost_zero_is_present():
    inst = gen_bipartite([[0, None], [None, 0]])
    assert inst.m == 2
    assert solve(inst).value == 0


def test_gen_rank1_scalar_case():
    inst = gen_rank1(1, 4, seed=3, cost_range=(-5, 5))
    expected = max((c for mat, c in zip(inst.stack, inst.costs) if mat.any()),
                   default=MINUS_INFINITY)
    assert solve(inst).value == expected


def test_gen_rank1_diagonal_construction():
    # u_k = v_k = e_k gives a diagonal instance with value sum(c)
    n = 3
    mats = []
    for k in range(n):
        m = np.zeros((n, n), dtype=int)
        m[k, k] = 1
        mats.append(m)
    inst = Instance.from_arrays(P, mats, [2, 5, 9])
    assert solve(inst).value == 16


def test_gen_rank1_requires_m_at_least_n():
    with pytest.raises(DimensionMismatchError):
        gen_rank1(3, 2, seed=0)


def test_gen_rank1_terms_have_rank_at_most_one():
    inst = gen_rank1(3, 5, seed=8)
    assert all(mod_rank(mat.data, inst.p) <= 1 for mat in inst.mats)


def test_gen_rank1_cross_checked_against_blowup():
    inst = gen_rank1(3, 5, seed=21, cost_range=(-7, 7))
    assert solve(inst, SolveOptions(seed=1)).value == degdet_blowup(inst, seed=2)


def test_gen_2x2_single_nonsingular_block():
    part = gen_2x2(1, seed=0, rank_profile=[[2]], cost_range=(3, 3))
    from degdet import to_instance
    assert solve(to_instance(part)).value == 6


def test_gen_2x2_all_zero_blocks_singular():
    part = gen_2x2(2, seed=1, rank_profile=[[0, 0], [0, 0]])
    assert part.edges() == []


def test_gen_2x2_respects_rank_profile():
    profile = [[0, 1], [2, 1]]
    part = gen_2x2(2, seed=5, rank_profile=profile)
    for i in range(2):
        for j in range(2):
            assert mod_rank(part.blocks[i, j], P) == profile[i][j]


def test_generator_determinism():
    a = gen_dense(3, 4, seed=9)
    b = gen_dense(3, 4, seed=9)
    assert save(a) == save(b)
    ga = random_bipartite_weights(4, seed=2, density=0.6)
    gb = random_bipartite_weights(4, seed=2, density=0.6)
    assert ga == gb


def test_bipartite_solve_equals_hungarian_class_property():
    rng = np.random.default_rng(10)
    for trial in range(6):
        n = int(rng.integers(2, 6))
        grid = random_bipartite_weights(n, seed=trial, cost_range=(-9, 9),
                                        density=0.8)
        if all(w is None for row in grid for w in row):
            continue
        inst = gen_bipartite(grid)
        assert solve(inst, SolveOptions(seed=trial)).value == hungarian(grid)


def test_save_load_roundtrip_all_generators():
    part = gen_2x2(2, seed=4, rank_profile=random_rank_profile(2, seed=4))
    insts = [
        gen_bipartite([[1, None], [2, 0]]),
        gen_bipartite([[1, None], [2, 0]], p=2**61 - 1),  # object residues
        gen_rank1(2, 3, seed=1),
        gen_dense(3, 2, seed=2),
        gen_integer(2, 2, seed=3, entry_bound=4),
        part,
        to_instance(part),  # entries built from the blocks
    ]
    for inst in insts:
        data = save(inst)
        again = load(data)
        assert type(again) is type(inst)
        assert save(again) == data
        assert again == inst


def test_instance_equality_ignores_entry_order():
    blow = build_blowup(gen_dense(3, 4, seed=9).pencil, 2)  # entries in blow-up order
    sorted_blow = ConstPencil(P, blow.stack)  # the same entries in (term, row, col) order
    assert not np.array_equal(blow.term, sorted_blow.term)
    costs = list(range(blow.m))
    assert Instance(PrimeModulus(P), blow, costs) == Instance(PrimeModulus(P), sorted_blow, costs)
    assert Instance(PrimeModulus(P), blow, costs) != Instance(PrimeModulus(P), blow, costs[::-1])
    assert gen_dense(3, 4, seed=10) != gen_dense(3, 4, seed=9)


def test_bipartite_solve_holds_entries_not_a_dense_stack():
    # n = 40, m = 1600 terms: a dense (m, n, n) int64 stack alone would be 20 MB
    weights = np.random.default_rng(140).integers(-10**6, 10**6, (40, 40)).tolist()
    tracemalloc.start()
    try:
        report = solve(gen_bipartite(weights), SolveOptions(seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.value == hungarian(weights)
    assert peak <= 8 * 2**20


def test_roundtrip_preserves_exact_values():
    inst = gen_dense(2, 2, seed=6, cost_range=(-1000, 1000))
    again = load(save(inst))
    assert isinstance(again, Instance)
    assert again.costs == inst.costs
    assert all(a == b for a, b in zip(again.mats, inst.mats))


def test_load_truncated_file_errors():
    data = save(gen_dense(2, 2, seed=7))
    with pytest.raises(FormatError):
        load(data[: len(data) // 2])


def test_load_rejects_non_prime_modulus():
    doc = json.loads(save(gen_dense(2, 2, seed=8)))
    doc["prime"] = 4
    with pytest.raises(NonPrimeError):
        load(json.dumps(doc).encode())


def test_load_rejects_bad_version():
    doc = json.loads(save(gen_dense(2, 2, seed=9)))
    doc["version"] = 99
    with pytest.raises(FormatError):
        load(json.dumps(doc).encode())


def test_load_rejects_garbage():
    with pytest.raises(FormatError):
        load(b"not json at all {{{")
    with pytest.raises(FormatError):
        load(json.dumps([1, 2, 3]).encode())


def test_integer_instance_entry_bound():
    inst = gen_integer(2, 3, seed=11, entry_bound=5)
    assert inst.entry_bound >= 1
    assert all(abs(int(x)) <= 5 for mat in inst.mats for x in mat.ravel())
    # recorded metadata and recomputation take the max
    bumped = IntegerInstance(inst.n, inst.m, inst.mats, inst.costs,
                             {**inst.meta, "entry_bound": 100})
    assert bumped.entry_bound == 100


@pytest.mark.parametrize("top", [2**63 - 1, -(2**63 - 1), 2**63, -2**63, 3**60])
@pytest.mark.parametrize("p", [2, 5, P, 2**61 - 1])
def test_integer_reduce_mod_gives_the_residues_of_the_python_ints(top, p):
    # entries that fit int64 are reduced as int64, wider ones as Python ints;
    # either way the residues are the exact ones
    mats = np.array([[[top, -7], [0, 10**12]], [[1, -1], [-(top // 3), 5]]], dtype=object)
    inst = IntegerInstance(2, 2, mats, [0, 1])
    assert (inst.mats.dtype == np.int64) == (-2**63 <= top < 2**63)
    want = [[[int(x) % p for x in row] for row in mat] for mat in mats.tolist()]
    assert inst.reduce_mod(p).stack.tolist() == want


def test_partitioned_file_uses_blocks_schema():
    part = gen_2x2(2, seed=12, rank_profile=[[2, 1], [1, 2]])
    doc = json.loads(save(part))
    assert "blocks" in doc and "block_costs" in doc and "mats" not in doc
    assert len(doc["blocks"]) == 4
    again = load(save(part))
    assert isinstance(again, PartitionedInstance)


def test_instance_validates_shapes():
    with pytest.raises(DimensionMismatchError):
        Instance.from_arrays(P, [np.zeros((2, 3), dtype=int)], [1])
    with pytest.raises(DimensionMismatchError):
        Instance(PrimeModulus(P), ConstPencil(P, np.eye(2, dtype=int)[None]), (1, 2))


def test_instance_rejects_empty():
    with pytest.raises(DimensionMismatchError):
        Instance.from_arrays(P, [], [])


def _tampered(inst, edit):
    doc = json.loads(save(inst))
    edit(doc)
    return json.dumps(doc).encode()


def _set_entry(key, *index, value):
    def edit(doc):
        target = doc[key]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = value
    return edit


@pytest.mark.parametrize("bad", [0.5, 2.0, "3", None, True])
def test_load_rejects_non_integer_mats_entry(bad):
    data = _tampered(gen_dense(2, 2, seed=20), _set_entry("mats", 1, 0, 1, value=bad))
    with pytest.raises(FormatError):
        load(data)


@pytest.mark.parametrize("bad", [3.7, 3.0, "3", True])
def test_load_rejects_non_integer_cost(bad):
    data = _tampered(gen_dense(2, 2, seed=21), _set_entry("costs", 0, value=bad))
    with pytest.raises(FormatError):
        load(data)


@pytest.mark.parametrize("bad", [2.2, "1", True])
def test_load_rejects_non_integer_block_entry(bad):
    part = gen_2x2(2, seed=22, rank_profile=[[2, 1], [1, 2]])
    with pytest.raises(FormatError):
        load(_tampered(part, _set_entry("blocks", 0, 3, value=bad)))


@pytest.mark.parametrize("bad", [2.5, "4", False])
def test_load_rejects_non_integer_block_cost(bad):
    part = gen_2x2(2, seed=23, rank_profile=[[2, 1], [1, 2]])
    with pytest.raises(FormatError):
        load(_tampered(part, _set_entry("block_costs", 1, 0, value=bad)))


@pytest.mark.parametrize("bad", [2.5, "2", None, False])
def test_load_rejects_non_integer_integer_instance_entry(bad):
    inst = gen_integer(2, 2, seed=24, entry_bound=3)
    with pytest.raises(FormatError):
        load(_tampered(inst, _set_entry("mats", 0, 1, 1, value=bad)))


@pytest.mark.parametrize("bad", ["x", [1], 2.5, None, True])
def test_load_rejects_a_non_integer_entry_bound(bad):
    # the prime budget reads meta.entry_bound, so a bad one must fail at load
    inst = gen_integer(2, 2, seed=26, entry_bound=3)
    with pytest.raises(FormatError):
        load(_tampered(inst, _set_entry("meta", "entry_bound", value=bad)))
    assert load(save(inst)).meta["entry_bound"] == 3


def test_load_keeps_integers_beyond_int64():
    # entries too large for int64 arrive as Python ints and still load exactly
    inst = IntegerInstance(1, 1, (np.array([[2**70]], dtype=object),), (3,))
    again = load(save(inst))
    assert int(again.mats[0][0, 0]) == 2**70 and again.costs == (3,)


def test_load_accepts_booleans_in_meta():
    inst = gen_dense(2, 2, seed=25)
    again = load(save(Instance.from_arrays(P, [m.data for m in inst.mats], inst.costs,
                                           {"flag": True, "other": False})))
    assert again.meta == {"flag": True, "other": False}
    assert again.costs == inst.costs and all(a == b for a, b in zip(again.mats, inst.mats))


# sha256 of save() for one file of each kind, pinned so that the bytes of
# the format never change by accident
SAVE_DIGESTS = {
    "field-2^61-1": "ff0fff7c9fe5f8335c340b7c90fa41cc8df19ef4dfb36d3fa59b4620ce1cd6cb",
    "field-int64": "69202d7b24a1c84a9ecc886c66ee889febb637ffd7d17be104979b0be985fbfb",
    "integer-2^70": "4ab0782f7bfc0972207399edcdcc792fc6101d34e56390a12944481cbd33a24d",
    "partitioned": "c27defbf9d1e3a211b3ea44563e51a2d9a0ff2fef0fad96d568c4a91798db596",
    "field-entries-2^61-1": "13859d3911330145941b72ff45768c62cda9bd4430ee443dc334ce671ad05969",
}


def _save_digest_cases():
    big = 2**61 - 1
    return {
        "field-2^61-1": Instance.from_arrays(
            big, [[[big - 1, 1], [3, 2**40]], [[0, 5], [7, 2**60]]], [3, -4], {"note": "big"}),
        "field-int64": gen_dense(3, 4, seed=11),
        "integer-2^70": IntegerInstance(
            2, 2, (np.array([[2**70, -3], [0, 1]], dtype=object), np.array([[1, 2], [3, -4]])),
            (5, -1), {"generator": "integer"}),
        "partitioned": gen_2x2(3, 4, random_rank_profile(3, 4)),
        "field-entries-2^61-1": gen_bipartite([[3, -1, None], [0, 7, 2], [5, -4, 1]], p=2**61 - 1),
    }


@pytest.mark.parametrize("name", sorted(SAVE_DIGESTS))
def test_save_bytes_are_pinned(name):
    data = save(_save_digest_cases()[name])
    assert hashlib.sha256(data).hexdigest() == SAVE_DIGESTS[name]
    assert save(load(data)) == data


def _encoding(inst) -> str:
    doc = json.loads(save(inst))
    return "entries" if "entries" in doc else "mats"


def test_field_files_take_the_encoding_with_fewer_integers():
    # entries hold 4 integers per nonzero residue, mats m n^2 cells
    assert _encoding(gen_dense(3, 4, seed=11)) == "mats"
    assert _encoding(gen_rank1(3, 4, seed=0)) == "mats"
    assert _encoding(gen_bipartite([[1, 2], [3, 4]])) == "mats"  # 4 * 4 == 4 * 2^2
    for n in (3, 5, 12):
        assert _encoding(gen_bipartite(random_bipartite_weights(n, seed=n))) == "entries"
    assert _encoding(gen_bipartite([[1, None, 2], [None, 3, None], [4, None, 5]])) == "entries"


@pytest.mark.parametrize("p", [P, 2**61 - 1, 5])
def test_entries_load_as_the_arrays_of_the_dense_loader(p):
    inst = gen_bipartite(random_bipartite_weights(6, seed=3, density=0.7), p=p)
    data = save(inst)
    dense = ConstPencil(p, inst.stack)  # what loading the mats file keeps
    loaded = load(data).pencil
    for name in ("term", "row", "col", "value"):
        got, want = getattr(loaded, name), getattr(dense, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert (loaded.n, loaded.m) == (dense.n, dense.m)

    def reverse(doc):  # a file may list its entries in any order
        doc["entries"] = {key: listed[::-1] for key, listed in doc["entries"].items()}
    assert all(np.array_equal(getattr(load(_tampered(inst, reverse)).pencil, name),
                              getattr(dense, name)) for name in ("term", "row", "col", "value"))


def test_an_all_zero_pencil_saves_empty_entries():
    inst = Instance.from_arrays(P, [[[0, P], [0, 0]]], [5])
    assert json.loads(save(inst))["entries"] == {"term": [], "row": [], "col": [], "value": []}
    assert load(save(inst)) == inst and save(load(save(inst))) == save(inst)


def _as_mats_file(inst) -> bytes:
    """The file of a field instance in the dense encoding, as older saves wrote it."""
    doc = json.loads(save(inst))
    doc.pop("entries")
    doc["mats"] = inst.stack.tolist()
    return json.dumps(doc).encode()


def test_a_dense_file_of_a_sparse_instance_still_loads():
    for inst in (gen_bipartite(random_bipartite_weights(5, seed=8, density=0.8)),
                 gen_bipartite([[1, None, 2], [3, 4, 5], [None, 6, 7]], p=P61)):
        again = load(_as_mats_file(inst))
        assert again == inst
        assert save(again) == save(inst)  # and re-saves as entries


def _bipartite_file(edit) -> bytes:
    return _tampered(gen_bipartite([[1, 2, None], [3, 4, 5], [None, 6, 7]]), edit)


def _set_listed(key, index, value):
    return lambda doc: doc["entries"][key].__setitem__(index, value)


def _repeat_first_cell(doc):
    for key in ("term", "row", "col"):
        doc["entries"][key][-1] = doc["entries"][key][0]


def _no_entries(**sizes):
    return lambda doc: doc.update(entries={key: [] for key in doc["entries"]}, **sizes)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["entries"]["row"].pop(),
    lambda doc: doc["entries"]["value"].append(1),
    _set_listed("term", 2, -1), _set_listed("term", 2, 7),
    _set_listed("row", 0, -1), _set_listed("row", 0, 3),
    _set_listed("col", 6, -2), _set_listed("col", 6, 3),
    _repeat_first_cell,
    lambda doc: doc.pop("n"), lambda doc: doc.pop("m"),
    lambda doc: doc.update(n=2), lambda doc: doc.update(n=0),
    lambda doc: doc.update(m=6), lambda doc: doc.update(m=8), lambda doc: doc.update(m=0),
    lambda doc: doc.update(n=3.0), lambda doc: doc.update(m=True),
    lambda doc: doc.update(mats=[[[0] * 3] * 3] * 7),
    lambda doc: doc["entries"].pop("value"),
    lambda doc: doc["entries"].update(degree=[0] * 7),
    lambda doc: doc.update(entries=[]),
    lambda doc: doc["entries"].update(row=[[0]] * 7),
    _no_entries(n=0), _no_entries(m=0, costs=[]),
], ids=["short-row", "long-value", "term-neg", "term-m", "row-neg", "row-n", "col-neg",
        "col-n", "repeated-cell", "no-n", "no-m", "n-small", "n-0", "m-small", "m-large",
        "m-0", "n-float", "m-bool", "mats-too", "no-value", "extra-key", "not-an-object",
        "nested-row", "empty-n-0", "empty-m-0"])
def test_load_rejects_a_bad_entries_file(edit):
    with pytest.raises(FormatError):
        load(_bipartite_file(edit))


@pytest.mark.parametrize("key", ["term", "row", "col", "value"])
@pytest.mark.parametrize("bad", [1.5, 1.0, "1", True, False, None])
@pytest.mark.parametrize("index", [0, 6])
def test_load_rejects_a_non_integer_in_entries(key, bad, index):
    with pytest.raises(FormatError):
        load(_bipartite_file(_set_listed(key, index, bad)))


def test_entry_values_load_reduced_and_zero_residues_as_no_entry():
    def edit(doc):
        doc["entries"]["value"][:3] = [P + 2, 2 * P, 2**63]
    again = load(_bipartite_file(edit))
    assert (again.pencil.term.tolist(), again.pencil.value.tolist()) == (
        [0, 2, 3, 4, 5, 6], [2, 2**63 % P, 1, 1, 1, 1])
    assert again == Instance.from_arrays(P, again.stack, again.costs, again.meta)


def test_integers_from_2_63_to_2_64_load_as_their_own_residues():
    # numpy reads them as uint64, or as float64 beside smaller ints
    for big in (2**63, 2**64 - 1):
        doc = json.loads(save(gen_dense(1, 2, seed=0, p=5)))
        doc["mats"] = [[[big]], [[3]]]
        assert load(json.dumps(doc).encode()).stack.ravel().tolist() == [big % 5, 3]
        doc["mats"] = [[[big]], [[big]]]
        assert load(json.dumps(doc).encode()).stack.ravel().tolist() == [big % 5] * 2


def test_saving_and_loading_a_bipartite_file_builds_no_dense_stack():
    # n = 40: the dense file holds 2.56 M cells, its entries 6,400 integers
    weights = np.random.default_rng(140).integers(-10**6, 10**6, (40, 40)).tolist()
    tracemalloc.start()
    try:
        inst = gen_bipartite(weights)
        again = load(save(inst))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == inst
    assert peak <= 4 * 2**20


P61 = 2**61 - 1


def test_gen_rank1_terms_have_rank_one_at_a_62_bit_prime():
    inst = gen_rank1(3, 4, seed=0, p=P61)
    assert [mod_rank(mat.data, P61) for mat in inst.mats] == [1] * 4


def test_gen_2x2_respects_rank_profile_at_a_62_bit_prime():
    profile = [[0, 1, 2], [1, 1, 2], [2, 1, 0]]
    part = gen_2x2(3, seed=5, rank_profile=profile, p=P61)
    assert [[mod_rank(blk, P61) for blk in row] for row in part.blocks] == profile


@pytest.mark.parametrize("inst, changes", [
    (gen_dense(2, 2, seed=26), {"n": 3, "m": 9}),
    (gen_2x2(1, seed=27, rank_profile=[[2]]), {"n": 4}),
    (gen_integer(2, 2, seed=28, entry_bound=3), {"m": 5, "costs": [1, 2, 3]}),
    (gen_integer(2, 1, seed=29, entry_bound=3), {"m": 0, "mats": [], "costs": []}),
], ids=["field", "partitioned", "integer-m-5", "integer-m-0"])
def test_load_rejects_a_header_that_disagrees_with_the_arrays(inst, changes):
    with pytest.raises(FormatError):
        load(_tampered(inst, lambda doc: doc.update(changes)))


def _one_of_each_kind():
    return {
        "field": gen_bipartite([[1, None], [2, 0]]),
        "integer": gen_integer(3, 4, 1),
        "partitioned": gen_2x2(2, seed=4, rank_profile=[[2, 1], [0, 2]]),
    }


@pytest.mark.parametrize("kind", ["field", "integer", "partitioned"])
def test_load_of_save_equals_the_instance(kind):
    inst = _one_of_each_kind()[kind]
    assert load(save(inst)) == inst
    assert not load(save(inst)) != inst


def _changed(inst, what):
    """A copy of `inst` with one residue, one cost or the meta changed."""
    doc = json.loads(save(inst))
    key = "blocks" if "blocks" in doc else "mats"
    if what == "residue":
        cell = doc[key][0] if key == "blocks" else doc[key][0][0]
        cell[0] += 1
    elif what == "cost":
        costs = doc["block_costs"][0] if key == "blocks" else doc["costs"]
        costs[0] += 1
    else:
        doc["meta"]["extra"] = 1
    return load(json.dumps(doc).encode())


@pytest.mark.parametrize("what", ["residue", "cost", "meta"])
@pytest.mark.parametrize("kind", ["field", "integer", "partitioned"])
def test_instances_differ_when_one_entry_differs(kind, what):
    inst = _one_of_each_kind()[kind]
    other = _changed(inst, what)
    assert other != inst and not other == inst


def test_ragged_integer_matrices_raise_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        IntegerInstance(2, 1, ([[1, 2], [3]],), (1,))


@pytest.mark.parametrize("kind, name", [("field", "stack"), ("integer", "mats"),
                                        ("partitioned", "blocks")])
def test_the_coefficient_array_is_read_only(kind, name):
    arr = getattr(_one_of_each_kind()[kind], name)
    with pytest.raises(ValueError):
        arr[0, 0, 0] = 1


def test_per_term_matrices_are_the_stack_slabs():
    inst = gen_dense(3, 4, seed=30)
    assert inst.stack.shape == (4, 3, 3)
    for k, mat in enumerate(inst.mats):
        assert np.array_equal(mat.data, inst.stack[k])
