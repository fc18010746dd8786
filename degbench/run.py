#!/usr/bin/env python3
"""Run one deg-Det benchmark workload and print its metrics.

    python3 degbench/run.py --workload matching-1e6 --seed 0 --seconds 40 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` next
to this directory, and nothing else.  One caller, one solve at a time (a
closed loop), in this single process.  With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric; with
``--trace 1`` it holds the per-layer metrics of a traced pass together with
the tracing overhead against untraced passes of the same run.  Details and
per-instance records go to ``.degbench/results/``.  See README.md here.
"""

from __future__ import annotations

import os

# Pin BLAS / OpenMP pools before numpy loads; subprocesses inherit the pins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".degbench"
SETUP_REPS = 5
CLI_REPS = 5
SUBPROCESS_TIMEOUT = 120
CAL_LOOPS = 40_000
CAL_EVERY_S = 0.25
CAL_SHARE = 0.1
CAL_WINDOW_S = 1.0
SETUP_BURST_S = 0.05
# The calibration loop's time at the reference speed to which end-to-end times
# are scaled: its median on the 2-vCPU Xeon box of baseline/NOTES.md when the
# host was quiet.
CAL_REF_S = 0.0025


def median(values):
    return statistics.median(values) if values else 0.0


def tail(passes) -> tuple[float, float, int]:
    """The highest percentile of one pass with at least ten solves beyond it.

    ``passes`` holds each pass's solve times.  The percentile is fixed by the
    number of solves in one pass, (n - 10) / n, and read off all passes'
    solves pooled, so more passes only add samples.  Returns (value,
    percentile, samples beyond).  Below eleven solves per pass there is no
    such percentile: the median over passes of the pass maximum is returned
    with zero beyond.
    """
    n = len(passes[0])
    if n < 11:
        return median([max(p) for p in passes]), 100.0, 0
    xs = sorted(s for p in passes for s in p)
    k = len(passes) * (n - 10)
    return xs[k - 1], 100.0 * (n - 10) / n, len(xs) - k


def machine(numpy_version: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform(),
            "threads_pinned": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}


class HostSpeed:
    """The host's speed for interpreted code, sampled all through a run.

    On a shared host the same solve runs 20-60 % slower while neighbours are
    busy, for seconds to minutes at a time, so two runs of identical work can
    differ by more than any useful bound.  A fixed pure-Python loop slows
    down with the solver's interpreted code.  The run times it in bursts
    between solves and around each CLI run and set-up, and scaled() turns a
    time measured then into seconds at the reference speed: it multiplies it
    by CAL_REF_S over the median loop time within CAL_WINDOW_S of it.
    """

    def __init__(self):
        self.samples = []
        self.at = []
        self.last = perf_counter()

    def burst(self, seconds: float) -> None:
        """Time the loop, at least once, until `seconds` have passed."""
        end = perf_counter() + seconds
        while True:
            t0 = perf_counter()
            acc = 0
            for i in range(CAL_LOOPS):
                acc += i * i % 7
            self.last = perf_counter()
            self.samples.append(self.last - t0)
            self.at.append(t0)
            if self.last >= end:
                return

    def burst_if_due(self) -> None:
        """A burst of CAL_SHARE of the time since the last one, once CAL_EVERY_S has passed."""
        gap = perf_counter() - self.last
        if gap >= CAL_EVERY_S:
            self.burst(CAL_SHARE * gap)

    def scaled(self, at: float, seconds: float) -> float:
        """`seconds` measured from `at`, at the reference speed."""
        lo = bisect.bisect_left(self.at, at - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.at, at + seconds + CAL_WINDOW_S)
        return seconds * CAL_REF_S / median(self.samples[lo:hi])


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def jsonable(value):
    return "-inf" if type(value).__name__ == "MinusInfinity" else int(value)


# ---------------------------------------------------------------------------
# Set-up: import, generation, save/load round trip


def setup_once(dd, workloads, name: str, seed: int, folder: Path):
    """One full set-up; returns (timings, loaded cases, saved bytes per case)."""
    t0 = start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import degdet.cli"], cwd=ROOT, env=_env(),
                          capture_output=True, timeout=SUBPROCESS_TIMEOUT)
    t_import = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import degdet.cli failed: {proc.stderr.decode()[-500:]}")
    t0 = perf_counter()
    cases = workloads.build(dd, name, seed)
    t_gen = perf_counter() - t0
    t0 = perf_counter()
    saved = {}
    for case in cases:
        saved[case.cid] = dd.instances.save(case.instance)
        (folder / f"{case.cid}.json").write_bytes(saved[case.cid])
    t_save = perf_counter() - t0
    t0 = perf_counter()
    for case in cases:
        case.instance = dd.instances.load((folder / f"{case.cid}.json").read_bytes())
    t_load = perf_counter() - t0
    timings = {"import_s": t_import, "gen_s": t_gen, "save_s": t_save, "load_s": t_load,
               "total_s": t_import + t_gen + t_save + t_load, "at": start}
    return timings, cases, saved


# ---------------------------------------------------------------------------
# Solving and checking


def solve_case(dd, case):
    """Solve through the public entry point; returns (value, record)."""
    opts = dd.solver.SolveOptions(seed=case.solve_seed)
    if case.kind == "field":
        rep = dd.solver.solve(case.instance, opts)
        return jsonable(rep.value), {"dstar_trace": list(rep.dstar_trace),
                                     "iterations": list(rep.iterations),
                                     "oracle_calls": rep.oracle_calls}
    if case.kind == "partitioned":
        value, matching = dd.partitioned.solve_and_extract(case.instance, opts)
        witness = None if matching is None else sorted(
            [list(edge), mult] for edge, mult in matching.multiset().items())
        return jsonable(value), {"witness": witness}
    rep = dd.rational.solve_rational_report(case.instance, opts)
    return jsonable(rep.value), {
        "primes": len(rep.budget.primes),
        "skipped": sum(1 for o in rep.outcomes if o.skipped),
        "per_prime": [None if o.value is None else jsonable(o.value) for o in rep.outcomes]}


def witness_ok(case, value, record) -> bool:
    """A 2-matching witness must be perfect and weigh the returned value."""
    if case.kind != "partitioned" or value == "-inf":
        return True
    witness = record["witness"]
    if witness is None:
        return False
    n = case.instance.n
    rows, cols, weight = [0] * n, [0] * n, 0
    for (i, j), mult in witness:
        rows[i] += mult
        cols[j] += mult
        weight += mult * case.instance.costs[i][j]
    return rows == [2] * n and cols == [2] * n and weight == value


def outcome(case, value, record, error) -> str:
    if error is not None:
        return "error"
    if case.reference is None:
        return "unchecked"
    if value != case.reference or not witness_ok(case, value, record):
        return "wrong"
    return "ok"


class CliRuns:
    """`degdet solve <file>` subprocesses, spread evenly over the measuring window.

    A run is due at each of CLI_REPS evenly spaced times of the window; the
    pass loop starts the due ones between two untraced solves, so their
    medians see the same stretch of machine time as the solves do.
    """

    def __init__(self, case, path: Path, budget: float, host):
        self.cmd = [sys.executable, "-m", "degdet.cli", "solve", str(path),
                    "--seed", str(case.solve_seed)]
        self.due = [budget * (k + 0.5) / CLI_REPS for k in range(CLI_REPS)]
        self.host = host
        self.times, self.at, self.values = [], [], []

    def run_due(self, elapsed: float) -> None:
        while len(self.times) < len(self.due) and elapsed >= self.due[len(self.times)]:
            self.run_once()

    def run_once(self) -> None:
        self.host.burst_if_due()
        t0 = perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, env=_env(), capture_output=True,
                              timeout=SUBPROCESS_TIMEOUT)
        self.times.append(perf_counter() - t0)
        self.at.append(t0)
        self.host.burst_if_due()
        try:
            self.values.append(json.loads(proc.stdout)["value"] if proc.returncode == 0 else None)
        except (json.JSONDecodeError, KeyError):
            self.values.append(None)

    def finish(self) -> None:
        while len(self.times) < CLI_REPS:
            self.run_once()


def run_pass(dd, cases, start: float, host, cli=None, tracer=None):
    """Solve every case once; a failing solve is recorded, not fatal.

    The pass's wall time is the sum of its solve times, so CLI runs and host
    speed bursts between solves are not part of it.
    """
    gc.collect()
    rows = []
    for case in cases:
        host.burst_if_due()
        if cli is not None:
            cli.run_due(perf_counter() - start)
        if tracer is not None:
            tracer.instance = case.cid
        t0 = perf_counter()
        try:
            value, record = solve_case(dd, case)
            error = None
        except Exception as exc:  # the benchmark must keep measuring the other cases
            value, record, error = None, {}, f"{type(exc).__name__}: {exc}"
        rows.append({"cid": case.cid, "at": t0, "seconds": perf_counter() - t0, "value": value,
                     "record": record, "error": error,
                     "outcome": outcome(case, value, record, error)})
    host.burst_if_due()
    return sum(row["seconds"] for row in rows), rows


def run_passes(dd, cases, budget: float, host, cli):
    """Whole untraced passes while one more is expected to end within `budget`."""
    walls, passes = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        wall, rows = run_pass(dd, cases, start, host, cli)
        walls.append(wall)
        passes.append(rows)
        if perf_counter() - start + (perf_counter() - t0) > budget:
            cli.finish()
            return walls, passes


def run_traced(dd, tracing, cases, budget: float, host, cli):
    """Untraced and traced passes in turn, so drift hits both sides alike.

    The tracer is installed only around each traced pass and removed after
    it, so the untraced passes run the unpatched code, and the CLI runs only
    between untraced solves.  Returns the last pass's tracer, whose spans are
    written out.
    """
    walls, passes, traced_walls, traced = [], [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        wall, rows = run_pass(dd, cases, start, host, cli)
        walls.append(wall)
        passes.append(rows)
        tracer = tracing.Tracer()
        tracer.install(dd)
        try:
            wall, rows = run_pass(dd, cases, start, host, tracer=tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        traced.append((rows, *tracing.derive(tracer.spans, tracer.extra)))
        if perf_counter() - start + (perf_counter() - t0) > budget:
            cli.finish()
            return walls, passes, traced_walls, traced, tracer


def fingerprint(row) -> str:
    return json.dumps([row["value"], row["record"], row["error"]], sort_keys=True)


# ---------------------------------------------------------------------------
# Metrics


def repeatability_problems(all_rows, traced) -> list[str]:
    """Every instance must give the same record in every pass of one seed."""
    problems = []
    first = {row["cid"]: fingerprint(row) for row in all_rows[0]}
    for rows in all_rows[1:]:
        problems += [f"{row['cid']} differs between passes" for row in rows
                     if fingerprint(row) != first[row["cid"]]]
    if any(t[2] != traced[0][2] for t in traced[1:]):
        problems.append("traced counts differ between passes")
    return problems


def end_to_end(passes, setups, cli, scale) -> dict:
    """The end-to-end metrics, each time converted by scale(at, seconds)."""
    seconds = [[scale(row["at"], row["seconds"]) for row in rows] for rows in passes]
    tail_s = tail(seconds)
    outcomes = [row["outcome"] for rows in passes for row in rows]
    return {
        "wall_s": (median([sum(pass_s) for pass_s in seconds]), "s"),
        "solve_s.p50": (median([s for pass_s in seconds for s in pass_s]), "s"),
        "solve_s.tail": (tail_s[0], "s"),
        "ok_share": (outcomes.count("ok") / len(outcomes), "share"),
        "setup_s": (median([scale(s["at"], s["total_s"]) for s in setups]), "s"),
        "cli_solve_s": (median([scale(a, t) for a, t in zip(cli.at, cli.times)]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, tail_s


def per_layer(tracing, traced, traced_walls, walls, setups, reference_s, cli_overhead_s,
              host) -> dict:
    """Medians over traced passes, plus set-up, CLI, trace-overhead and host figures.

    These times are raw, not scaled to the reference speed; host.calib_s
    gives the run's calibration loop time to compare them by.
    """
    layer = {k: median([t[1][k] for t in traced]) for k in traced[0][1]}
    traced_wall = median(traced_walls)
    self_sum = sum(layer[f"{name}.self_s"] for name in tracing.LAYERS)
    layer.update({
        "oracles.reference_s": reference_s,
        "instances.load_s": median([s["load_s"] for s in setups]),
        "instances.save_s": median([s["save_s"] for s in setups]),
        "cli.import_s": median([s["import_s"] for s in setups]),
        "cli.overhead_s": cli_overhead_s,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": median(walls),
        "trace.overhead_s": traced_wall - median(walls),
        "trace.residual_s": traced_wall - self_sum,
        "host.calib_s": median(host.samples),
    })
    return {k: (v, unit_of(k)) for k, v in layer.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".p50"):
        return "s"
    if name.endswith("share") or name.endswith("ratio") or name.endswith("ratio.max"):
        return "share"
    if name.endswith(".gmac"):
        return "Gmac"
    return "count"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "degdet" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'degdet'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import numpy

    import degdet as dd
    if not Path(dd.__file__).resolve().is_relative_to(SRC):
        print(f"error: degdet was imported from {dd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    label = f"{args.workload}-s{args.seed}"
    folder = WORK / "instances" / label
    results_dir = WORK / "results"
    folder.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)

    # -- set-up, several times; the last one's loaded instances are solved
    setups = []
    host = HostSpeed()
    for _ in range(SETUP_REPS):
        host.burst(SETUP_BURST_S)
        timings, cases, saved = setup_once(dd, workloads, args.workload, args.seed, folder)
        setups.append(timings)
    host.burst(SETUP_BURST_S)
    problems = [f"save/load round trip changed {c.cid}" for c in cases
                if dd.instances.save(c.instance) != saved[c.cid]]
    t0 = perf_counter()
    workloads.attach_references(dd, cases)
    reference_s = perf_counter() - t0

    # -- measured passes, with the CLI subprocesses (always untraced) among them
    cli_case = next(c for c in cases if c.cid == workloads.CLI_CASE[args.workload])
    cli_path = folder / f"{cli_case.cid}.json"
    cli = CliRuns(cli_case, cli_path, args.seconds, host)
    traced_walls, traced, spans_path = [], [], None
    if not args.trace:
        walls, passes = run_passes(dd, cases, args.seconds, host, cli)
    else:
        walls, passes, traced_walls, traced, tracer = run_traced(dd, tracing, cases,
                                                                 args.seconds, host, cli)
        spans_path = results_dir / f"{label}-spans.tsv.gz"
        tracer.write_spans(spans_path)

    # cli.overhead_s: the CLI's median minus the in-process load and solve of the same file
    cli_s = median(cli.times)
    t0 = perf_counter()
    dd.instances.load(cli_path.read_bytes())
    cli_load_s = perf_counter() - t0
    cli_rows = [row for rows in passes for row in rows if row["cid"] == cli_case.cid]
    cli_overhead_s = cli_s - cli_load_s - median([row["seconds"] for row in cli_rows])
    if any(v != cli_rows[0]["value"] for v in cli.values):
        problems.append(f"CLI values {cli.values} differ from in-process {cli_rows[0]['value']}")
    all_rows = passes + [rows for rows, *_ in traced]
    problems += repeatability_problems(all_rows, traced)

    outcomes = [row["outcome"] for rows in all_rows for row in rows]
    counts = {o: outcomes.count(o) for o in ("ok", "wrong", "error", "unchecked")}
    attempted, failed = len(outcomes), counts["wrong"] + counts["error"]
    e2e, tail_s = end_to_end(passes, setups, cli, host.scaled)
    e2e_raw, _ = end_to_end(passes, setups, cli, lambda at, seconds: seconds)
    layers = (per_layer(tracing, traced, traced_walls, walls, setups, reference_s, cli_overhead_s,
                        host) if args.trace else {})
    metrics = layers if args.trace else e2e
    failures = sorted({(row["cid"], row["outcome"], row["error"] or f"value {row['value']}")
                       for rows in all_rows for row in rows if row["outcome"] in ("error", "wrong")})
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(numpy.__version__),
        "correct": not problems, "problems": problems, "outcomes": counts,
        "failures": [list(f) for f in failures],
        "tail": {"percentile": tail_s[1], "beyond": tail_s[2], "samples_per_pass": len(cases)},
        "cli_times": cli.times,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "end_to_end_raw": {k: v for k, (v, _) in e2e_raw.items()},
        "host": {"calib_s": median(host.samples), "calib_samples": host.samples,
                 "calib_at": host.at, "cli_at": cli.at,
                 "solve_at": [[row["at"] for row in rows] for rows in passes]},
        "per_layer": {k: v for k, (v, _) in layers.items()},
        "setups": setups, "pass_walls": walls, "traced_pass_walls": traced_walls,
        "cases": [{"cid": c.cid, "kind": c.kind, "reference": c.reference,
                   "ref_note": c.ref_note} for c in cases],
        "per_instance": {row["cid"]: {
            "seconds": [r["seconds"] for rows in passes for r in rows if r["cid"] == row["cid"]],
            "value": row["value"], "record": row["record"], "outcome": row["outcome"],
            **({"traced": traced[0][2].get(row["cid"], {})} if traced else {})}
            for row in all_rows[0]},
        "spans_file": None if spans_path is None else str(spans_path.relative_to(ROOT)),
    }
    (results_dir / f"{label}-t{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))

    print(f"# {args.workload} seed={args.seed} passes={len(walls)} untraced + "
          f"{len(traced_walls)} traced, cases={len(cases)}, "
          f"machine={report['machine']['cpu']} x{report['machine']['nproc']}")
    print(f"# failed_share = {failed}/{attempted} "
          f"(wrong {counts['wrong']}, error {counts['error']}, unchecked {counts['unchecked']})")
    for cid, kind, why in failures:
        print(f"#   {kind}: {cid}: {why[:160]}")
    print(f"# solve_s.tail = p{tail_s[1]:.1f} of {len(cases)} solves per pass, over "
          f"{len(walls)} passes: {tail_s[2]} beyond")
    for problem in problems:
        print(f"# PROBLEM: {problem}")
    print(f"# host: calibration loop median {median(host.samples) * 1e3:.3f} ms over "
          f"{len(host.samples)} loops, reference {CAL_REF_S * 1e3:.3f} ms")
    for k, (v, unit) in metrics.items():
        raw = f" (raw {e2e_raw[k][0]:.6g})" if not args.trace and unit == "s" else ""
        print(f"{k} = {v:.6g} {unit}{raw}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
