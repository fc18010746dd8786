"""Guards on the public surface: a new knob, a new public name or a stale doc fails here."""

import argparse
import ast
import dataclasses
import re
from pathlib import Path

import pytest

import degdet
from degdet import (ConstPencil, FieldMatrix, Instance, LaurentMatrix, LaurentPencil,
                    SolveOptions, cli, gen_2x2, gen_bipartite, gen_integer, gen_rank1,
                    is_minus_infinity, solve, solve_and_extract, solve_rational_report)

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "AllPrimesFailedError", "Certificate", "ConstPencil", "DEFAULT_PRIME", "DegDetError",
    "DimensionMismatchError", "ExtractionFailedError", "FieldMatrix", "FormatError",
    "INFEASIBLE", "Instance", "IntegerInstance", "IterationBoundExceededError",
    "LaurentMatrix", "LaurentPencil", "MINUS_INFINITY", "MinusInfinity", "NcRankGapError",
    "NewtonSupport", "NonPrimeError", "PartitionedInstance", "PositiveDegreeError",
    "PrecisionUnsupportedError", "PrimeBudget", "PrimeModulus", "RationalReport",
    "RetryExhaustedError", "SizeLimitError", "SolveOptions", "SolveReport", "TwoMatching",
    "bound_log2", "build_blowup", "column_space", "degdet_blowup", "degdet_commutative",
    "enumerate_perfect", "first_primes", "gen_2x2", "gen_bipartite", "gen_dense",
    "gen_integer", "gen_rank1", "hungarian", "is_consistent",
    "is_minus_infinity", "is_nc_nonsingular", "is_prime", "leading", "load",
    "newton_small", "normalize_costs", "nullspace", "preimage", "prime_budget",
    "random_bipartite_weights", "random_rank_profile", "rref", "run_phase", "save",
    "scale_tinv", "solve", "solve_R", "solve_and_extract", "solve_rational",
    "solve_rational_report", "solve_with_final_pencil", "span_union",
    "square_substitute", "step_update", "to_instance", "truncate",
]


def test_solve_options_are_the_four_settings():
    assert [f.name for f in dataclasses.fields(SolveOptions)] == [
        "seed", "scaling_enabled", "truncation_enabled", "truncation_depth"]


def test_instance_holds_its_terms_as_one_pencil():
    # a dense (m, n, n) field would put the stack back in every instance
    assert [f.name for f in dataclasses.fields(Instance)] == ["modulus", "pencil", "costs", "meta"]


def test_public_names_are_the_snapshot():
    # adding or removing a public name is a deliberate edit of this list
    assert len(PUBLIC_NAMES) == 72
    assert degdet.__all__ == PUBLIC_NAMES


def _public_members(cls) -> list:
    fields = {field.name for field in dataclasses.fields(cls)}
    return sorted(fields | {name for name in dir(cls) if not name.startswith("_")})


def test_wrapper_members_are_the_snapshot():
    # the wrapper layer the solver never runs; growing it back is a deliberate edit
    assert _public_members(FieldMatrix) == ["data", "p"]
    assert _public_members(LaurentMatrix) == [
        "coeffs", "degrees", "depth", "n", "p", "scale_tinv", "square_substitute"]


def _solve_runs():
    """Five solve paths and their results: bipartite, rank-1, singular,
    partitioned with its 2-matching, and rational."""
    part = gen_2x2(3, seed=4, rank_profile=[[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    runs = (
        lambda: solve(gen_bipartite([[3, -1, 4], [1, -5, 9], [2, 6, -5]])).value,
        lambda: solve(gen_rank1(3, 4, seed=8)).value,
        lambda: solve(gen_bipartite([[1, 2, 3], [4, None, None], [5, None, None]])).value,
        lambda: solve_and_extract(part),
        lambda: solve_rational_report(gen_integer(2, 3, seed=11, entry_bound=5)).value,
    )
    expected = [run() for run in runs]
    assert expected[0] == 18 and is_minus_infinity(expected[2])
    assert expected[3][1] is not None
    return runs, expected


def refuse(*args, **kwargs):
    raise AssertionError("a solve path reached a refused member")


def test_solve_paths_never_build_the_wrapper_layer(monkeypatch):
    runs, expected = _solve_runs()

    monkeypatch.setattr(FieldMatrix, "__post_init__", refuse)
    monkeypatch.setattr(LaurentMatrix, "__post_init__", refuse)
    monkeypatch.setattr(LaurentMatrix, "_wrap", refuse)
    monkeypatch.setattr(LaurentPencil, "terms", property(refuse))
    monkeypatch.setattr(LaurentPencil, "from_terms", refuse)
    with pytest.raises(AssertionError):  # the guard itself is live
        FieldMatrix(2, [[1]])
    assert [run() for run in runs] == expected


def test_solve_paths_never_build_a_dense_constant_pencil(monkeypatch):
    # the oracle, the leading pencils and the 2-matching extraction read the
    # entries; only the desk-scale verifiers build ConstPencil.stack
    runs, expected = _solve_runs()
    monkeypatch.setattr(ConstPencil, "stack", property(refuse))
    with pytest.raises(AssertionError):  # the guard itself is live
        ConstPencil(2, [[[1]]]).stack
    assert [run() for run in runs] == expected


def test_readme_flags_are_the_registered_ones_per_subcommand():
    text = " ".join(README.read_text().split())
    section = re.search(r"Each subcommand takes exactly these flags: (.*?) For `gen`", text)
    listed = {name: re.findall(r"`(--[\w-]+)`", flags)
              for name, flags in re.findall(r"- `(\w+)`: (.*?\.)(?= - `| ?$)",
                                            section.group(1))}
    parser = cli.build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    registered = {name: [opt for action in sub._actions for opt in action.option_strings
                         if opt not in ("-h", "--help")]
                  for name, sub in subparsers.choices.items()}
    assert listed == registered


def test_private_kernel_names_imported_elsewhere_are_the_snapshot():
    # the int64/object choice lives in field_linalg; reaching into more of its
    # internals from another module is a deliberate edit of this set
    reached = set()
    for path in Path(degdet.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "field_linalg":
                reached |= {alias.name for alias in node.names if alias.name.startswith("_")}
    assert reached == {"_dtype_for", "_rref_kernel"}


def _module_trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(degdet.__file__).parent.glob("*.py"))}


def _read_names(tree) -> set:
    """Every name the code reads, as a variable or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_import_is_used():
    # a deleted code path must take its imports with it
    unused = []
    for module, tree in _module_trees().items():
        if module == "__init__":
            continue
        used = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert unused == []


def test_every_private_module_name_is_referenced():
    # ...and its private helpers
    trees = _module_trees()
    referenced = set().union(*(_read_names(tree) for tree in trees.values()))
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
    orphans = [f"{module}: {name}" for module, name in defined
               if name.startswith("_") and not name.startswith("__") and name not in referenced]
    assert orphans == []


def test_readme_library_example_runs_and_prints_two(capsys):
    # doc drift in Instance.from_arrays or solve fails here
    block = re.search(r"## Library example\s*```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "2"
