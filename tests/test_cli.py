import hashlib
import json

import numpy as np
import pytest

from degdet import Certificate, cli, instances, partitioned, solve
from degdet.cli import main
from degdet.errors import ExtractionFailedError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def gen_file(capsys, tmp_path, *extra):
    path = tmp_path / "inst.json"
    code, out = run_cli(capsys, "gen", *extra, "--out", str(path))
    assert code == 0
    doc = json.loads(out)
    assert "digest" in doc
    return path, doc["digest"]


def test_gen_bipartite_file(capsys, tmp_path):
    path, digest = gen_file(capsys, tmp_path, "bipartite", "--n", "3", "--seed", "1")
    assert path.exists()
    assert len(digest) == 64


def test_gen_rank1_large_costs(capsys, tmp_path):
    path, _ = gen_file(capsys, tmp_path, "rank1", "--n", "3", "--m", "5",
                       "--cmax", "1000000")
    assert path.exists()


def test_gen_unknown_generator_exits_2(capsys, tmp_path):
    code = main(["gen", "nonsense", "--n", "3"])
    assert code == 2


def test_solve_reports_value(capsys, tmp_path):
    path, digest = gen_file(capsys, tmp_path, "bipartite", "--n", "3", "--seed", "1")
    code, out = run_cli(capsys, "solve", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["digest"] == digest
    assert isinstance(doc["value"], int)
    assert doc["iterations"][0] == 1


def test_solve_identity_fixture(capsys, tmp_path):
    from degdet import Instance, save
    import numpy as np
    path = tmp_path / "ident.json"
    path.write_bytes(save(Instance.from_arrays(2**31 - 1, [np.eye(3, dtype=int)], [4])))
    code, out = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert json.loads(out)["value"] == 12


def test_solve_singular_prints_minus_inf(capsys, tmp_path):
    from degdet import gen_bipartite, save
    path = tmp_path / "sing.json"
    path.write_bytes(save(gen_bipartite([[1, None], [None, None]])))
    code, out = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert json.loads(out)["value"] == "-inf"



@pytest.mark.parametrize("command", ["solve", "verify"])
def test_singular_witness_printed_by_the_cli_passes_the_certificate_check(
        capsys, tmp_path, command):
    import numpy as np
    from degdet import Certificate, ConstPencil
    path, _ = gen_file(capsys, tmp_path, "bipartite", "--n", "5", "--density", "0.4",
                       "--seed", "3")
    code, out = run_cli(capsys, command, str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "-inf"
    witness = doc["singular_certificate"]
    inst = instances.load(path.read_bytes())
    assert 0 < witness["r"] < inst.n and 0 < witness["s"] < inst.n
    assert witness["r"] + witness["s"] > inst.n
    cert = Certificate(np.array(witness["S"]), np.array(witness["T"]), witness["r"],
                       witness["s"], 2 * inst.n - witness["r"] - witness["s"])
    assert cert.check(ConstPencil(inst.p, inst.stack))

def test_solve_deterministic_reports(capsys, tmp_path):
    path, _ = gen_file(capsys, tmp_path, "dense", "--n", "3", "--m", "3", "--seed", "5")
    _, out1 = run_cli(capsys, "solve", str(path), "--seed", "3")
    _, out2 = run_cli(capsys, "solve", str(path), "--seed", "3")
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timing"), d2.pop("timing")
    assert d1 == d2


def test_verify_bipartite_agrees(capsys, tmp_path):
    path, _ = gen_file(capsys, tmp_path, "bipartite", "--n", "3", "--seed", "2")
    code, out = run_cli(capsys, "verify", str(path),
                        "--oracle", "hungarian,commutative,newton")
    assert code == 0
    doc = json.loads(out)
    assert all(entry["agree"] for entry in doc["oracles"])


def test_verify_corrupted_solver_exits_3(capsys, tmp_path, monkeypatch):
    path, _ = gen_file(capsys, tmp_path, "bipartite", "--n", "3", "--seed", "2")
    monkeypatch.setattr(cli, "_solve_any", lambda inst, opts: {"value": 123456789})
    code, out = run_cli(capsys, "verify", str(path), "--oracle", "hungarian")
    assert code == 3
    doc = json.loads(out)
    assert not doc["oracles"][0]["agree"]


def test_verify_partitioned_enumeration(capsys, tmp_path):
    path, _ = gen_file(capsys, tmp_path, "partitioned2x2", "--n", "2", "--seed", "4")
    code, out = run_cli(capsys, "verify", str(path),
                        "--oracle", "enumerate2x2,commutative,blowup")
    assert code == 0


def test_solve_integer_instance_routes_to_rational(capsys, tmp_path):
    path, _ = gen_file(capsys, tmp_path, "dense", "--n", "2", "--m", "3",
                       "--seed", "5", "--integer")
    code, out = run_cli(capsys, "solve", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "rational"
    assert "per_prime" in doc


def test_missing_file_exits_2(capsys, tmp_path):
    code = main(["solve", str(tmp_path / "absent.json")])
    assert code == 2


def test_selftest_passes(capsys):
    code, out = run_cli(capsys, "selftest")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert [check["name"] for check in doc["checks"]] == [
        "nconvex_linear", "nconvex_max_pair", "nconvex_combination",
        "nconvex_counterexample", "normal_path_lengths", "rank_nullity",
        "certificate_valid"]


def test_solve_flags_no_scaling_and_truncate_depth(capsys, tmp_path):
    path, _ = gen_file(capsys, tmp_path, "dense", "--n", "3", "--m", "3",
                       "--seed", "7", "--cmin", "-30", "--cmax", "30")
    _, out_default = run_cli(capsys, "solve", str(path))
    code, out_direct = run_cli(capsys, "solve", str(path), "--no-scaling")
    assert code == 0
    assert json.loads(out_default)["value"] == json.loads(out_direct)["value"]


def test_solve_prime_override(capsys, tmp_path):
    path, _ = gen_file(capsys, tmp_path, "bipartite", "--n", "2", "--seed", "3",
                       "--cmin", "1", "--cmax", "5")
    code, out = run_cli(capsys, "solve", str(path), "--prime", "101")
    assert code == 0
    base = json.loads(run_cli(capsys, "solve", str(path))[1])["value"]
    assert json.loads(out)["value"] == base  # bipartite degree is field-independent


def test_gen_bipartite_writes_entries_that_solve_and_verify_agree_on(capsys, tmp_path):
    path, digest = gen_file(capsys, tmp_path, "bipartite", "--n", "12", "--seed", "1")
    doc = json.loads(path.read_bytes())
    assert "entries" in doc and "mats" not in doc
    code, out = run_cli(capsys, "solve", str(path))
    solved = json.loads(out)
    assert code == 0 and solved["digest"] == digest
    code, out = run_cli(capsys, "verify", str(path), "--oracle", "hungarian")
    verified = json.loads(out)
    assert code == 0 and verified["oracles"][0]["agree"]
    assert verified["value"] == verified["oracles"][0]["value"] == solved["value"]


def _dense_route(inst, q):
    return instances.Instance.from_arrays(q, inst.stack, inst.costs, inst.meta)


@pytest.mark.parametrize("make", [
    lambda: instances.gen_bipartite(instances.random_bipartite_weights(4, seed=6, density=0.8)),
    lambda: instances.Instance.from_arrays(  # 101 and 303 vanish mod 101
        instances.DEFAULT_PRIME, [[[101, 1], [2, 3]], [[303, 202 + 5], [0, 7]]], [4, -2],
        {"note": "dense"}),
], ids=["bipartite", "dense-with-a-vanishing-residue"])
def test_prime_reduces_entries_as_the_dense_route_does(capsys, tmp_path, make):
    inst, q = make(), 101
    path = tmp_path / "inst.json"
    path.write_bytes(instances.save(inst))
    reduced, expected = cli._reduce_to(instances.load(path.read_bytes()), q), _dense_route(inst, q)
    for name in ("term", "row", "col", "value"):
        got, want = getattr(reduced.pencil, name), getattr(expected.pencil, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert reduced == expected
    code, out = run_cli(capsys, "solve", str(path), "--prime", str(q))
    report = json.loads(out)
    assert code == 0
    assert report["digest"] == hashlib.sha256(instances.save(expected)).hexdigest()
    assert report["value"] == solve(expected).value


def test_solve_prime_applies_to_partitioned_files(capsys, tmp_path):
    path, digest = gen_file(capsys, tmp_path, "partitioned2x2", "--n", "3", "--seed", "4")
    doc = json.loads(path.read_bytes())
    doc["prime"] = 101
    doc["blocks"] = [[x % 101 for x in row] for row in doc["blocks"]]
    expected = instances.load(json.dumps(doc).encode())
    for command in ("solve", "verify"):
        code, out = run_cli(capsys, command, str(path), "--prime", "101")
        assert code == 0
        report = json.loads(out)
        assert report["digest"] != digest
        assert report["digest"] == hashlib.sha256(instances.save(expected)).hexdigest()
        assert report["value"] == solve(partitioned.to_instance(expected)).value
    assert run_cli(capsys, "solve", str(path), "--prime", "8")[0] == 1


def test_solve_prints_the_two_matching_of_a_partitioned_file(capsys, tmp_path):
    path, _ = gen_file(capsys, tmp_path, "partitioned2x2", "--n", "4", "--seed", "1")
    code, out = run_cli(capsys, "solve", str(path))
    report = json.loads(out)
    assert code == 0 and report["mode"] == "partitioned"
    part = instances.load(path.read_bytes())
    value, matching = partitioned.solve_and_extract(part)
    edges = report["two_matching"]
    assert report["value"] == value == 6 and edges == sorted(edges)
    assert edges == [[[i, j], mult] for i, j, mult in matching.edges]
    witness = partitioned.TwoMatching(tuple((i, j, mult) for (i, j), mult in edges))
    assert witness.is_perfect(4) and witness.weight(part.costs) == value
    assert partitioned.is_consistent(witness, part)


def test_a_failed_witness_keeps_the_solved_value(capsys, tmp_path, monkeypatch):
    path, _ = gen_file(capsys, tmp_path, "partitioned2x2", "--n", "4", "--seed", "1")

    def unlucky(*args):
        raise ExtractionFailedError("no consistent 2-matching of weight 6 was found")

    monkeypatch.setattr(partitioned, "extract_witness", unlucky)
    for command in ("solve", "verify"):
        code, out = run_cli(capsys, command, str(path))
        report = json.loads(out)
        assert code == 0 and report["value"] == 6 and report["dstar_trace"]
        assert report["two_matching"] is None and "weight 6" in report["witness_error"]
    assert report["oracles"]


def test_solve_prime_refused_on_integer_files(capsys, tmp_path):
    path, _ = gen_file(capsys, tmp_path, "dense", "--n", "2", "--m", "3",
                       "--seed", "5", "--integer")
    for command in ("solve", "verify"):
        assert main([command, str(path), "--prime", "101"]) == 2
        assert "rational pipeline picks its own primes" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("solve", "FILE"), ("verify", "FILE"),
                                  ("gen", "dense", "--n", "2"), ("selftest",)])
def test_negative_seed_is_a_usage_error(capsys, tmp_path, argv):
    path, _ = gen_file(capsys, tmp_path, "dense", "--n", "2", "--seed", "1")
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    assert main([*argv, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "argument --seed: must be non-negative" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_help_lists_no_removed_flags(capsys):
    for command in ("solve", "verify"):
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert "--seed" in text
        assert "--truncate-depth" not in text and "--inject-value" not in text


def test_gen_refuses_solve_flags(capsys, tmp_path):
    out = tmp_path / "g.json"
    for flag in ("--no-scaling", "--no-truncate"):
        assert main(["gen", "dense", "--n", "2", flag, "--out", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_gen_integer_needs_the_dense_generator(capsys, tmp_path):
    out = tmp_path / "g.json"
    for generator in ("bipartite", "rank1", "partitioned2x2"):
        assert main(["gen", generator, "--n", "2", "--integer", "--out", str(out)]) == 2
        assert "dense generator only" in capsys.readouterr().err
    assert not out.exists()


def test_gen_integer_refuses_a_prime(capsys, tmp_path):
    out = tmp_path / "g.json"
    assert main(["gen", "dense", "--n", "2", "--integer", "--prime", "101",
                 "--out", str(out)]) == 2
    assert "--prime" in capsys.readouterr().err
    assert not out.exists()


def test_out_holds_the_printed_report(capsys, tmp_path):
    path, _ = gen_file(capsys, tmp_path, "bipartite", "--n", "3", "--seed", "2")
    report = tmp_path / "report.json"
    for argv in (["solve", str(path)], ["verify", str(path), "--oracle", "hungarian"]):
        code, out = run_cli(capsys, *argv, "--out", str(report))
        assert code == 0
        assert report.read_text() == out.rstrip("\n")
        assert json.loads(out)["command"] == argv[0]
    assert json.loads(out)["oracles"][0]["agree"] is True


def test_verify_checks_an_integer_file_with_every_field_oracle(capsys, tmp_path):
    path, _ = gen_file(capsys, tmp_path, "dense", "--n", "3", "--m", "4", "--seed", "2",
                       "--integer")
    code, out = run_cli(capsys, "verify", str(path), "--oracle", "commutative,blowup,newton")
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "rational"
    assert [o["oracle"] for o in report["oracles"]] == ["commutative", "blowup", "newton"]
    assert all(o["agree"] and o["value"] == report["value"] for o in report["oracles"])


def test_verify_unknown_oracle_is_a_usage_error_before_solving(capsys, tmp_path, monkeypatch):
    path, _ = gen_file(capsys, tmp_path, "bipartite", "--n", "3", "--seed", "2")

    def never(*args):
        raise AssertionError("solved before the oracle names were checked")

    monkeypatch.setattr(cli, "_solve_any", never)
    assert main(["verify", str(path), "--oracle", "hungarian,bogus"]) == 2
    assert "unknown oracle 'bogus'" in capsys.readouterr().err


def test_verify_skips_empty_oracle_entries(capsys, tmp_path):
    path, _ = gen_file(capsys, tmp_path, "bipartite", "--n", "3", "--seed", "2")
    code, out = run_cli(capsys, "verify", str(path), "--oracle", "hungarian,,commutative,")
    assert code == 0
    assert [o["oracle"] for o in json.loads(out)["oracles"]] == ["hungarian", "commutative"]


def _gen_refused(capsys, tmp_path, *argv):
    out = tmp_path / "g.json"
    code = main(["gen", *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert not out.exists()
    return code, err


def test_gen_refuses_m_off_rank1_and_dense(capsys, tmp_path):
    for generator in ("bipartite", "partitioned2x2"):
        code, err = _gen_refused(capsys, tmp_path, generator, "--n", "3", "--m", "7")
        assert code == 2 and "--m applies" in err


def test_gen_refuses_density_off_bipartite(capsys, tmp_path):
    for generator in ("rank1", "dense", "partitioned2x2"):
        code, err = _gen_refused(capsys, tmp_path, generator, "--n", "3", "--density", "0.1")
        assert code == 2 and "--density applies" in err


def test_gen_refuses_entry_bound_without_integer(capsys, tmp_path):
    for generator in ("bipartite", "dense"):
        code, err = _gen_refused(capsys, tmp_path, generator, "--n", "3",
                                 "--entry-bound", "9")
        assert code == 2 and "--entry-bound applies" in err


def test_gen_defaults_write_the_library_defaults(capsys, tmp_path):
    cases = [
        (("bipartite", "--n", "4", "--seed", "3"),
         instances.gen_bipartite(instances.random_bipartite_weights(4, 3))),
        (("dense", "--n", "3", "--m", "4", "--seed", "2", "--integer"),
         instances.gen_integer(3, 4, 2)),
    ]
    for argv, inst in cases:
        _, digest = gen_file(capsys, tmp_path, *argv)
        assert digest == hashlib.sha256(instances.save(inst)).hexdigest()


def test_gen_refuses_out_of_range_sizes_and_bounds(capsys, tmp_path):
    for argv, phrase in [(("--n", "-1"), "--n and --m"), (("--n", "2", "--m", "0"), "--n and --m"),
                         (("--n", "2", "--cmin", "5", "--cmax", "1"), "--cmin"),
                         (("--n", "2", "--integer", "--entry-bound", "-3"), "--entry-bound")]:
        code, err = _gen_refused(capsys, tmp_path, "dense", *argv)
        assert code == 2 and phrase in err, argv


def test_solve_a_directory_exits_2(capsys, tmp_path):
    code = main(["solve", str(tmp_path)])
    assert code == 2 and "error:" in capsys.readouterr().err


def test_solve_reports_a_non_integer_entry_bound_as_a_format_error(capsys, tmp_path):
    path, _ = gen_file(capsys, tmp_path, "dense", "--n", "2", "--m", "2", "--integer")
    for bad in ("x", [1]):
        doc = json.loads(path.read_text())
        doc["meta"]["entry_bound"] = bad
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "solve", str(path))
        report = json.loads(out)
        assert code == 1 and report["error"] == "FormatError", bad
        assert "entry_bound" in report["message"]


def _refused_before_solving(capsys, monkeypatch, path, oracle):
    def never(*args):
        raise AssertionError("solved before the oracles were checked against the file")

    monkeypatch.setattr(cli, "_solve_any", never)
    code = main(["verify", str(path), "--oracle", oracle])
    return code, capsys.readouterr()


def test_verify_enumerate2x2_on_a_bipartite_file_is_a_usage_error(capsys, tmp_path, monkeypatch):
    path, _ = gen_file(capsys, tmp_path, "bipartite", "--n", "3", "--seed", "2")
    code, captured = _refused_before_solving(capsys, monkeypatch, path, "hungarian,enumerate2x2")
    assert code == 2 and captured.out == ""
    assert "enumerate2x2 needs a partitioned instance file" in captured.err


def test_verify_hungarian_on_a_partitioned_file_is_a_usage_error(capsys, tmp_path, monkeypatch):
    path, _ = gen_file(capsys, tmp_path, "partitioned2x2", "--n", "2", "--seed", "4")
    code, captured = _refused_before_solving(capsys, monkeypatch, path, "hungarian")
    assert code == 2 and captured.out == ""
    assert "hungarian needs a bipartite field or integer instance file" in captured.err


def test_verify_hungarian_on_a_dense_file_is_a_solver_error(capsys, tmp_path):
    path, _ = gen_file(capsys, tmp_path, "dense", "--n", "3", "--seed", "2")
    code, out = run_cli(capsys, "verify", str(path), "--oracle", "hungarian")
    report = json.loads(out)
    assert code == 1 and "not bipartite-shaped" in report["message"]


def test_verify_keeps_the_comparisons_made_before_an_oracle_error(capsys, tmp_path):
    # newton is capped at n = 7: its SizeLimitError exits 1, and hungarian's
    # agreeing comparison, made first, stays in the report
    path, _ = gen_file(capsys, tmp_path, "bipartite", "--n", "8", "--seed", "1")
    code, out = run_cli(capsys, "verify", str(path), "--oracle", "hungarian,newton")
    report = json.loads(out)
    assert code == 1 and report["error"] == "SizeLimitError"
    assert report["oracles"] == [{"oracle": "hungarian", "value": report["value"], "agree": True}]


def test_a_partitioned_file_without_a_nonzero_block_solves_to_minus_infinity(capsys, tmp_path):
    part = instances.gen_2x2(2, seed=1, rank_profile=[[0, 0], [0, 0]])
    assert partitioned.solve_and_extract(part) == (partitioned.MINUS_INFINITY, None)
    path = tmp_path / "zero.json"
    path.write_bytes(instances.save(part))
    code, out = run_cli(capsys, "solve", str(path))
    report = json.loads(out)
    assert code == 0 and report["mode"] == "partitioned"
    assert report["value"] == "-inf" and report["two_matching"] is None
    witness = report["singular_certificate"]  # the zero matrix's: r = s = n = 4
    cert = Certificate(np.array(witness["S"]), np.array(witness["T"]), witness["r"],
                       witness["s"], 8 - witness["r"] - witness["s"])
    assert (cert.r, cert.s) == (4, 4) and cert.check(partitioned.to_instance(part).pencil)
    names = ["commutative", "blowup", "newton", "enumerate2x2"]
    code, out = run_cli(capsys, "verify", str(path), "--oracle", ",".join(names))
    report = json.loads(out)
    assert code == 0 and report["value"] == "-inf"
    assert report["oracles"] == [{"oracle": name, "value": "-inf", "agree": True}
                                 for name in names]
