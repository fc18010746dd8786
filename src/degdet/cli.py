"""Command-line front end: generate, solve, verify, selftest.

Reports are JSON on stdout with stable key order; diagnostics go to stderr.
Exit codes: 0 success / all oracles agree, 1 solver error, 2 usage error,
3 verification disagreement.  Timing fields are excluded from the
determinism contract.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import instances, nconvex, oracles, partitioned, rational
from .errors import DegDetError, ExtractionFailedError
from .field_linalg import DEFAULT_PRIME, PrimeModulus, mod_nullspace, mod_rref
from .infinity import MINUS_INFINITY, is_minus_infinity
from .instances import Instance, IntegerInstance, PartitionedInstance
from .ncrank import ConstPencil, solve_R
from .solver import SolveOptions, SolveReport, solve_with_final_pencil

EXIT_OK = 0
EXIT_SOLVER_ERROR = 1
EXIT_USAGE = 2
EXIT_DISAGREE = 3

ORACLES = ("hungarian", "commutative", "blowup", "enumerate2x2", "newton")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _emit(doc: dict, out: Path | None = None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2)
    if out is not None:
        out.write_text(text)
    print(text)


def _jsonable_value(value) -> int | str:
    return "-inf" if is_minus_infinity(value) else int(value)


def _solve_options(args) -> SolveOptions:
    return SolveOptions(
        seed=args.seed,
        scaling_enabled=not args.no_scaling,
        truncation_enabled=not args.no_truncate,
    )


def _seed(text: str) -> int:
    """argparse type of --seed: numpy takes non-negative seeds only."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


def _add_common(parser: argparse.ArgumentParser, solving: bool) -> None:
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--prime", type=int, default=None)
    if solving:
        parser.add_argument("--no-scaling", action="store_true")
        parser.add_argument("--no-truncate", action="store_true")
    parser.add_argument("--out", type=Path, default=None)


def cmd_gen(args) -> int:
    if args.integer and args.generator != "dense":
        raise UsageError("--integer applies to the dense generator only")
    if args.integer and args.prime is not None:
        raise UsageError("--integer writes an instance without a prime; drop --prime")
    if args.m is not None and args.generator not in ("rank1", "dense"):
        raise UsageError("--m applies to the rank1 and dense generators only")
    if args.density is not None and args.generator != "bipartite":
        raise UsageError("--density applies to the bipartite generator only")
    if args.entry_bound is not None and not args.integer:
        raise UsageError("--entry-bound applies to --integer instances only")
    if args.n < 1 or (args.m is not None and args.m < 1):
        raise UsageError("--n and --m must be at least 1")
    if args.cmin > args.cmax:
        raise UsageError("--cmin must not exceed --cmax")
    if args.entry_bound is not None and args.entry_bound < 0:
        raise UsageError("--entry-bound must not be negative")
    p = args.prime if args.prime is not None else DEFAULT_PRIME
    cost_range = (args.cmin, args.cmax)
    if args.generator == "bipartite":
        density = args.density if args.density is not None else 1.0
        grid = instances.random_bipartite_weights(args.n, args.seed, cost_range, density)
        inst = instances.gen_bipartite(grid, p=p)
    elif args.generator == "rank1":
        m = args.m if args.m is not None else 2 * args.n
        inst = instances.gen_rank1(args.n, m, args.seed, cost_range, p=p)
    elif args.generator == "dense":
        m = args.m if args.m is not None else args.n + 1
        if args.integer:
            bound = args.entry_bound if args.entry_bound is not None else 3
            inst = instances.gen_integer(args.n, m, args.seed, bound, cost_range)
        else:
            inst = instances.gen_dense(args.n, m, args.seed, cost_range, p=p)
    else:  # partitioned2x2; argparse choices admit no other
        profile = instances.random_rank_profile(args.n, args.seed)
        inst = instances.gen_2x2(args.n, args.seed, profile, cost_range, p=p)
    payload = instances.save(inst)
    out = args.out if args.out is not None else Path(f"{args.generator}-n{args.n}-s{args.seed}.json")
    out.write_bytes(payload)
    _emit({"command": "gen", "generator": args.generator, "path": str(out),
           "digest": _digest(payload)})
    return EXIT_OK


class UsageError(Exception):
    """A command line that cannot apply to its input (exit code 2)."""


def _load_instance(path: Path, prime: int | None):
    inst = instances.load(path.read_bytes())
    if prime is not None:
        inst = _reduce_to(inst, prime)
    return inst, _digest(instances.save(inst))


def _reduce_to(inst, p: int):
    """The field or partitioned instance with its residues reduced modulo p."""
    if isinstance(inst, Instance):  # the pencil's entries, less those that vanish mod p
        pencil = inst.pencil
        return Instance(PrimeModulus(p), instances._residue_pencil(  # p checked first
            p, pencil.n, pencil.m, pencil.term, pencil.row, pencil.col, pencil.value),
            inst.costs, inst.meta)
    if isinstance(inst, PartitionedInstance):
        return PartitionedInstance(PrimeModulus(p), inst.blocks, inst.costs, inst.meta)
    raise UsageError("--prime does not apply to an integer instance: "
                     "the rational pipeline picks its own primes")


def _solve_any(inst, opts: SolveOptions) -> dict:
    started, timing = time.perf_counter(), {}
    if isinstance(inst, IntegerInstance):
        rep = rational.solve_rational_report(inst, opts)
        body = {
            "mode": "rational",
            "value": _jsonable_value(rep.value),
            "primes": list(rep.budget.primes),
            "per_prime": [
                {"prime": o.prime,
                 "value": None if o.value is None else _jsonable_value(o.value),
                 "skipped": o.skipped, "reason": o.reason}
                for o in rep.outcomes],
        }
    else:
        if isinstance(inst, PartitionedInstance) and not inst.edges():
            # no nonzero block: the zero matrix, as solve_and_extract answers it
            rep, pencil = SolveReport(MINUS_INFINITY, (), (), 0, 0, 0), None
        else:
            rep, pencil = solve_with_final_pencil(_as_field_instance(inst), opts)
        witness = rep.singular_certificate
        body = {
            "mode": "field",
            "value": _jsonable_value(rep.value),
            "dstar_trace": list(rep.dstar_trace),
            "iterations": list(rep.iterations),
            "phases": rep.phases,
            "oracle_calls": rep.oracle_calls,
            "shift_applied": rep.shift_applied,
            "used_blowup_fallback": rep.used_blowup_fallback,
            "singular_certificate": (None if witness is None else
                                     {"r": witness.r, "s": witness.s,
                                      "S": witness.S.tolist(), "T": witness.T.tolist()}),
        }
        if isinstance(inst, PartitionedInstance):  # solve_and_extract's witness, sorted
            body["mode"], body["two_matching"] = "partitioned", None
            try:
                matching = partitioned.extract_witness(inst, rep.value, pencil, opts)
                body["two_matching"] = matching and [[[i, j], k] for i, j, k in matching.edges]
            except ExtractionFailedError as exc:  # the value stands without a witness
                body["witness_error"] = str(exc)
        timing["phases_s"] = list(rep.phase_seconds)
    body["timing"] = {"total_s": time.perf_counter() - started, **timing}
    return body


def _oracle_names(spec: str, inst) -> list[str]:
    """The names of a comma list, empty entries skipped; an unknown name, or one
    that cannot run on this kind of file, is a usage error."""
    names = [name.strip() for name in spec.split(",") if name.strip()]
    for name in names:
        if name not in ORACLES:
            raise UsageError(f"unknown oracle {name!r}; choose from {', '.join(ORACLES)}")
    if "enumerate2x2" in names and not isinstance(inst, PartitionedInstance):
        raise UsageError("enumerate2x2 needs a partitioned instance file")
    if "hungarian" in names and isinstance(inst, PartitionedInstance):
        raise UsageError("hungarian needs a bipartite field or integer instance file")
    return names


def _oracle_value(name: str, inst, seed: int):
    if isinstance(inst, IntegerInstance):
        # as in degdet.rational: each per-prime value is a lower bound, and the
        # budget's product exceeds L, which bounds det A and its (n-1)-blow-up
        primes = rational.prime_budget(inst.n, inst.entry_bound).primes
        return max(_oracle_value(name, inst.reduce_mod(q), seed) for q in primes)
    if name == "hungarian":
        weights = _bipartite_weights_of(inst)
        return oracles.hungarian(weights)
    if name == "commutative":
        return oracles.degdet_commutative(_as_field_instance(inst), seed=seed)
    if name == "blowup":
        return oracles.degdet_blowup(_as_field_instance(inst), seed=seed)
    if name == "enumerate2x2":
        value, _ = partitioned.enumerate_perfect(inst, seed=seed)
        return value
    field_inst = _as_field_instance(inst)  # "newton", the one name left
    return oracles.newton_small(field_inst).lp(field_inst.costs)


def _as_field_instance(inst) -> Instance:
    return partitioned.to_instance(inst) if isinstance(inst, PartitionedInstance) else inst


def _bipartite_weights_of(inst: Instance) -> list:
    """Recover the weight grid of a bipartite-shaped instance from its terms."""
    pen = inst.pencil
    if np.any(np.bincount(pen.term, minlength=inst.m) != 1) or np.any(pen.value != 1):
        raise DegDetError("instance is not bipartite-shaped (one unit entry per term)")
    grid: list[list[int | None]] = [[None] * inst.n for _ in range(inst.n)]
    for k, i, j in zip(pen.term.tolist(), pen.row.tolist(), pen.col.tolist()):
        if grid[i][j] is not None:
            raise DegDetError("instance is not bipartite-shaped (duplicate cell)")
        grid[i][j] = inst.costs[k]
    return grid


def cmd_run(args) -> int:
    """`solve`, and for `verify` the oracle comparisons too; --out gets the report."""
    inst, digest = _load_instance(args.instance, args.prime)
    names = _oracle_names(args.oracle, inst) if args.command == "verify" else []
    report = {"command": args.command, "instance": str(args.instance), "digest": digest,
              "seed": args.seed}
    code = EXIT_OK
    try:
        report.update(_solve_any(inst, _solve_options(args)))
        if args.command == "verify":
            report["oracles"] = comparisons = []  # an oracle's error keeps those before it
            for name in names:
                value = _jsonable_value(_oracle_value(name, inst, args.seed + 1))
                agree = value == report["value"]
                if not agree:
                    code = EXIT_DISAGREE
                comparisons.append({"oracle": name, "value": value, "agree": agree})
    except DegDetError as exc:
        report["error"] = type(exc).__name__
        report["message"] = str(exc)
        code = EXIT_SOLVER_ERROR
    _emit(report, args.out)
    return code


def cmd_selftest(args) -> int:
    rng = np.random.default_rng(args.seed)
    checks: list[tuple[str, bool]] = []

    dim = 4
    pairs = nconvex.sample_pairs(dim, seed=args.seed, count=500, box=(-6, 6))
    linear = nconvex.linear_function(dim, [1.5, -2.0, 0.0, 3.0], 1.0)
    maxf = nconvex.max_pair_function(dim, 0, 2)
    combo = nconvex.nonneg_combination([linear, maxf], [2.0, 3.0])
    checks.append(("nconvex_linear", nconvex.check_on_samples(linear, pairs)))
    checks.append(("nconvex_max_pair", nconvex.check_on_samples(maxf, pairs)))
    checks.append(("nconvex_combination", nconvex.check_on_samples(combo, pairs)))
    bad = nconvex.DiscreteFunction(1, lambda x: -abs(x[0]))
    checks.append(("nconvex_counterexample",
                   not nconvex.check_pair(bad, (-1,), (1,))))
    checks.append(("normal_path_lengths", all(
        len(nconvex.normal_path(x, y)) == max(abs(a - b) for a, b in zip(x, y)) + 1
        for x, y in pairs[:200])))

    p = DEFAULT_PRIME
    ok_rank = True
    for _ in range(20):
        mat = rng.integers(0, p, size=(5, 7))
        ok_rank &= mod_rref(mat, p)[2] + mod_nullspace(mat, p).shape[1] == 7
    checks.append(("rank_nullity", ok_rank))

    pencil = ConstPencil(p, rng.integers(0, p, size=(3, 4, 4)))
    checks.append(("certificate_valid", solve_R(pencil, seed=args.seed).check(pencil)))

    ok = all(flag for _, flag in checks)
    _emit({"command": "selftest", "ok": ok,
           "checks": [{"name": name, "ok": flag} for name, flag in checks]})
    return EXIT_OK if ok else EXIT_SOLVER_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="degdet",
                                     description="deg Det solver and verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("generator", choices=["bipartite", "rank1", "dense", "partitioned2x2"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, default=None)
    gen.add_argument("--cmin", type=int, default=-10)
    gen.add_argument("--cmax", type=int, default=10)
    gen.add_argument("--density", type=float, default=None)
    gen.add_argument("--integer", action="store_true",
                     help="emit an integer instance for the rational pipeline")
    gen.add_argument("--entry-bound", type=int, default=None)
    _add_common(gen, solving=False)
    gen.set_defaults(func=cmd_gen)

    slv = sub.add_parser("solve", help="solve an instance file")
    slv.add_argument("instance", type=Path)
    _add_common(slv, solving=True)
    slv.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="solve and cross-check against oracles")
    ver.add_argument("instance", type=Path)
    ver.add_argument("--oracle", default="commutative",
                     help="comma list: " + ",".join(ORACLES))
    _add_common(ver, solving=True)
    ver.set_defaults(func=cmd_run)

    selftest = sub.add_parser("selftest", help="run the invariant suites")
    selftest.add_argument("--seed", type=_seed, default=0)
    selftest.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DegDetError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True), file=sys.stdout)
        return EXIT_SOLVER_ERROR
    except (OSError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
