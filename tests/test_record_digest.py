"""Pinned solve records: a digest of every record a fixed corpus of solves gives.

A record is each solve's value, D* trace, oracle calls per phase and in
total, and its final pencil's entries, or the type of the error it raises.
The digest was taken before phases whose leading pencil cannot change stopped
building pencils, so a faster solver must give the very same records.  A
second, quiet-heavy corpus was pinned before each run of quiet phases was
mapped in one closed-form degree update.  When the default truncation depth
fell from 2 n^2 m to 2n the first digest was re-pinned: only the final
pencils of 53 tiny-field solves at the default depth lost entries at degree
<= -2n; every value, D* trace and call count stayed the same.
"""

import hashlib
import json
from collections import Counter

import numpy as np

from degdet import (Instance, SolveOptions, gen_bipartite, gen_dense, gen_integer, gen_rank1,
                    prime_budget, random_bipartite_weights, solve, solve_with_final_pencil)
from degdet.errors import DegDetError

OPTIONS = {"default": {}, "notrunc": {"truncation_enabled": False},
           "depth2^61": {"truncation_depth": 2**61}}


def corpus():
    """(label, instance, solve seed) of every solve the digest covers."""
    for s in (7, 1, 2, 3):  # the rational-1e6 instances at workload seed 0
        inst = gen_integer(5, 6, s, 10, (-10**6, 10**6))
        for p in prime_budget(inst.n, inst.entry_bound).primes:
            yield f"integer-{s}-p{p}", inst.reduce_mod(p), 0
    for bits in (40, 62):
        yield f"dense-3x4-2^{bits}", gen_dense(3, 4, seed=0, cost_range=(-2**bits, 2**bits)), 0
    yield "rank1-4x8", gen_rank1(4, 8, seed=0, cost_range=(-10**6, 10**6)), 0
    yield "bipartite-6", gen_bipartite(random_bipartite_weights(6, 0, (-10**6, 10**6))), 0
    for p in (3, 5):  # the tiny-field corpus, NcRankGapErrors included
        for s in range(60):
            yield f"tiny-p{p}-s{s}", gen_bipartite(random_bipartite_weights(5, s, (-5, 5), 0.6),
                                                   p=p), s


def record(inst, opts: SolveOptions):
    try:
        report, pencil = solve_with_final_pencil(inst, opts)
    except DegDetError as exc:
        return type(exc).__name__
    entries = None if pencil is None else [
        getattr(pencil, f).tolist() for f in ("term", "degree", "row", "col", "value")]
    return [str(report.value), report.dstar_trace, report.iterations, report.oracle_calls,
            entries]


def quiet_corpus():
    """Integer instances, n = 2..5 at costs of +-2^40, reduced at their budgets'
    primes: about 41 phases a solve, most of them in runs of quiet phases."""
    for n in range(2, 6):
        for s in range(4):
            inst = gen_integer(n, n + 1, s, 3, (-2**40, 2**40))
            for p in prime_budget(inst.n, inst.entry_bound).primes:
                yield f"integer-n{n}-s{s}-p{p}", inst.reduce_mod(p), s


def records(cases=corpus) -> dict:
    return {f"{label}/{name}": record(inst, SolveOptions(seed=seed, **kw))
            for label, inst, seed in cases() for name, kw in OPTIONS.items()}


def digest(recs: dict) -> str:
    return hashlib.sha256(json.dumps(recs, sort_keys=True).encode()).hexdigest()


PINNED = "929d123d05d79cb63e4ec1e199fbad995d1a80bcb0b8b6486c9775ca8643b446"


def test_records_match_the_pinned_digest():
    recs = records()
    assert len(recs) == 3 * (4 * 8 + 4 + 2 * 60)
    # ten tiny-field grids at p = 3 find no certificate, and costs of 2^62
    # leave int64 unless truncated at the default depth
    errors = Counter(rec for rec in recs.values() if isinstance(rec, str))
    assert errors == {"NcRankGapError": 30, "SizeLimitError": 2}
    assert digest(recs) == PINNED


QUIET_PINNED = "a892ab697dce941ae71c5545fca482bf99d12431e9d33e1f71499a45bb24e515"


def test_quiet_run_records_match_their_pinned_digest():
    recs = records(quiet_corpus)
    assert len(recs) == 3 * 56
    calls = [c for rec in recs.values() for c in rec[2]]  # no solve raises
    assert len(calls) == 6993 and calls.count(0) == 6444
    assert digest(recs) == QUIET_PINNED


def test_quiet_run_oracle_seeds_match_their_pinned_digest(monkeypatch):
    # a quiet phase draws 1 + b seeds that no call uses, so every later call
    # keeps the seed it had when quiet phases drew them one phase at a time
    import degdet.solver as solver

    seeds, real = [], solver.solve_R

    def recorded(pencil, seed):
        seeds.append(seed)
        return real(pencil, seed)

    monkeypatch.setattr(solver, "solve_R", recorded)
    records(quiet_corpus)
    assert len(seeds) == 615
    assert digest(seeds) == "3da890d579917cbc3459104fb648055213dece3a87f7232cec49f9c827d42d4c"


def test_every_oracle_call_gets_a_nonempty_pencil(monkeypatch):
    # no leading pencil of a solve is empty (see the solver docstring): not in
    # either pinned corpus, nor where the top cost sits on a term without
    # entries, which sets no cost scale, at any gap and in either mode
    import degdet.solver as solver

    sizes, real = [], solver.solve_R

    def recorded(pencil, seed):
        sizes.append(pencil.term.size)
        return real(pencil, seed)

    monkeypatch.setattr(solver, "solve_R", recorded)
    records()
    records(quiet_corpus)
    mats = [np.zeros((2, 2), dtype=int), np.eye(2, dtype=int)]
    for gap in (10**3, 10**10, 2**61 + 5):
        for scaling in (True, False):
            report = solve(Instance.from_arrays(2**31 - 1, mats, [gap, 0]),
                           SolveOptions(scaling_enabled=scaling, truncation_enabled=False))
            assert (report.value, report.phases, report.oracle_calls) == (0, 1, 1)
    assert len(sizes) > 1000 and min(sizes) > 0
