"""The deg-Det solver: descent on certificates with cost scaling and truncation.

The driver keeps the problem in coefficient-updating form.  A phase runs the
plain descent loop: solve (R) for the leading pencil, and while the optimum
is below n, lift the certified rows by t and drop the complementary columns
by t^-1, accumulating n - r - s into the running degree count D*.

One driver runs phases theta = 0..N on the costs c_k (shifted so that the
live terms' are >= 1, the others clamped to 1) scaled down by 2^N: A_k
starts at degree ceil(c_k / 2^N) - max_j ceil(c_j / 2^N) and D* at n max_j
ceil(c_j / 2^N), j over the live terms (those with entries; no other term
can change deg Det).  Between phases the scaled costs double (minus an
occasional 1 per variable), realized on the pencil as B_k(t^2), optionally
times t^-1, with D* doubling.  With scaling N =
ceil(log2 max c): phase 0 is the constant pencil at degree 0, which the
singularity certificate ends.  The pseudo-polynomial mode is N = 0.

No oracle call is made whose answer the degrees alone decide; a call on a
pencil certified earlier in the solve still runs, so a later phase can
recompute an earlier phase's answer.  No leading pencil is empty: phase 0's
holds the top live terms, a phase that descends keeps K's bit-0 terms at
degree 0 (K, the last certified leading pencil's terms), and a step by an
optimal certificate (S, T, r, s) of a nonempty B cannot leave S B T only in
its lower-left block, or (r, n) and (n, s) would be zero blocks too, forcing
r = s = n and B = 0.  Between phases the degree-0 entries of term k go to -b_k,
b_k in {0, 1}, entries at degree <= -1 stay there, and truncation keeps their
order; where b_k is one value b on K, the phase is quiet: shifted by b, that
pencil leads again and its certificate ends the phase with 0 calls.  A run of
L quiet phases moves only the degrees, d_L = 2^L d_0 - sum_j 2^(L-j)
(odd_j - b_j) (see _descend).  A skipped call counts 0 but keeps its random
draw, so other calls keep seeds.

With scaling enabled every phase provably needs at most n^2 m + 1 oracle
calls, and coefficients deeper than 2 n^2 m can never influence the output;
both facts are enforced at runtime (a phase that reaches the first raises
IterationBoundExceededError, and the second is the default truncation
depth).  Without scaling neither holds: the one phase raises at a safety cap
of n max c + n + 10 calls instead, and no truncation depth is accepted.

Singularity is decided by the same certificate oracle on the constant pencil
sum_k A_k x_k before any phase runs: a verified certificate with r + s > n is
a shrunk-subspace proof that deg Det is -infinity, and the report carries it
as the witness.

A leading pencil whose commutative rank is below its nc-rank needs no
special case: the oracle certifies it from a point of the pencil's
(n-1)-fold blow-up, so such instances keep the log C phase count.  An oracle
call that finds no certificate at all (over a tiny field every point can
fall short) raises NcRankGapError out of the solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, IterationBoundExceededError, SizeLimitError
from .infinity import MINUS_INFINITY, MinusInfinity
from .instances import Instance
from .laurent import LaurentPencil, leading, step_update, truncate
from .ncrank import Certificate, ConstPencil, solve_R


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for one solve; identical options and instance give identical runs."""

    seed: int = 0
    scaling_enabled: bool = True
    truncation_enabled: bool = True
    # None: 2 n^2 m with scaling, off without; with truncation on, an explicit
    # depth needs scaling and at least 2 n^2 m (see _limits)
    truncation_depth: int | None = None


@dataclass(frozen=True)
class SolveReport:
    value: int | MinusInfinity
    dstar_trace: tuple[int, ...]
    iterations: tuple[int, ...]  # oracle calls per phase; 0 when every call is skipped
    phases: int
    oracle_calls: int
    shift_applied: int
    used_blowup_fallback: bool = False  # always False: gaps are certified, not deferred
    phase_seconds: tuple[float, ...] = ()  # timing only; see solve_with_final_pencil
    # the constant pencil's certificate (r + s > n) when value is -inf, else None
    singular_certificate: Certificate | None = None


class _Limits(NamedTuple):
    depth: int | None  # truncation depth; None keeps every coefficient
    bound: int  # oracle calls after which an unfinished phase raises


def _limits(opts: SolveOptions, n: int, m: int, cmax: int) -> _Limits:
    """The options resolved for an n x n, m-term pencil with largest cost cmax >= 1.

    With scaling the proven per-phase bound n^2 m + 1 applies and truncation
    defaults to depth 2 n^2 m.  Without scaling there is no truncation, the
    phase cap is n cmax + n + 10 calls (D* falls by >= 1 per step from n cmax
    to an optimum >= n, so reaching it means a bug), and cmax > 2^61 raises
    SizeLimitError (pencil degrees are int64).  With truncation on, an
    explicit depth below 2 n^2 m (zero and negative depths included), or any
    explicit depth without scaling, could silently change the value, so it
    raises DimensionMismatchError; with truncation off the depth is unused.
    """
    safe = 2 * n * n * m
    depth = None
    if opts.truncation_enabled:
        depth = opts.truncation_depth
        if depth is None:
            depth = safe if opts.scaling_enabled else None
        elif depth < safe or not opts.scaling_enabled:
            raise DimensionMismatchError(
                f"truncation_depth={depth} is not proven safe: it needs scaling "
                f"and a depth of at least 2 n^2 m = {safe}")
    if not opts.scaling_enabled and cmax > 2**61:
        raise SizeLimitError(f"without scaling the costs must span at most 2^61, not {cmax}")
    bound = n * n * m + 1 if opts.scaling_enabled else n * cmax + n + 10
    return _Limits(depth, bound)


def normalize_costs(costs: Sequence[int], live: Sequence[int] | None = None
                    ) -> tuple[tuple[int, ...], int]:
    """Shift costs by b so the `live` terms' costs (all by default) are >= 1,
    and clamp any other term's shifted cost up to 1; deg Det recovers as
    value(shifted) - n*b.  :func:`solve` passes the terms with entries: no
    other term can change deg Det, and the clamp keeps its degree at 0."""
    pool = costs if live is None else [costs[k] for k in live]
    b = max(0, 1 - int(min(pool, default=1)))
    return tuple(max(int(c) + b, 1) for c in costs), b


def _run_phase(pencil: LaurentPencil, dstar: int, rng: np.random.Generator, lim: _Limits
               ) -> tuple[LaurentPencil, int, int, np.ndarray]:
    """Descent until the leading pencil, nonempty in a solve, certifies optimum n.

    Returns the pencil, D*, the oracle calls and the sorted terms of the
    terminating leading pencil.  A phase whose `lim.bound`-th oracle call does
    not certify optimum n raises IterationBoundExceededError.
    """
    n, calls = pencil.n, 0
    while True:
        lead = leading(pencil)
        cert = solve_R(lead, int(rng.integers(0, 2**63)))
        calls += 1
        if cert.value == n:
            terms = np.flatnonzero(np.bincount(lead.term, minlength=pencil.m))
            return pencil, dstar, calls, terms
        if calls >= lim.bound:
            raise IterationBoundExceededError(
                f"phase reached its bound of {lim.bound} oracle calls without terminating")
        pencil = step_update(pencil, cert.S, cert.T, cert.r, cert.s)
        if lim.depth is not None:
            pencil = truncate(pencil, lim.depth)
        dstar += n - cert.r - cert.s


def run_phase(pencil: LaurentPencil, dstar: int, opts: SolveOptions | None = None
              ) -> tuple[LaurentPencil, int, int]:
    """One descent phase on an explicit pencil (test / driver entry point).

    A hand-built pencil may lack degree-0 entries, unlike a solve's: each
    missing degree costs one oracle call, (I, I, n, n), raising every degree by 1.
    """
    opts = opts or SolveOptions()
    rng = np.random.default_rng(opts.seed)
    # the no-scaling cap of a solve whose cost-1 term sits at the lowest degree
    cmax = 1 - int(pencil.degree.min(initial=0))
    lim = _limits(opts, pencil.n, pencil.m, cmax)
    return _run_phase(pencil, dstar, rng, lim)[:3]


def solve(inst: Instance, opts: SolveOptions | None = None) -> SolveReport:
    """deg Det of the instance (MINUS_INFINITY when nc-singular)."""
    report, _ = solve_with_final_pencil(inst, opts)
    return report


def solve_with_final_pencil(inst: Instance, opts: SolveOptions | None = None
                            ) -> tuple[SolveReport, LaurentPencil | None]:
    """Like :func:`solve`, additionally returning the final pencil.

    The pencil is None when the instance is nc-singular.  Tests read it (the
    golden records), and :func:`partitioned.solve_and_extract` reads its
    tight terms.

    The certificate of the instance's constant pencil `inst.pencil` decides
    singularity, and every phase-0 entry array is one of its arrays.  With
    scaling phase 0 is that pencil at degree 0, so the certificate ends it and
    is its one call; without scaling it is an extra call, not counted in
    `oracle_calls` nor in `phase_seconds[0]`, which with scaling includes
    it.  Every oracle call is answered by a verified certificate or raises
    NcRankGapError.
    """
    opts = opts or SolveOptions()
    n = inst.n
    rng = np.random.default_rng(np.random.SeedSequence(opts.seed))
    rng.integers(0, 2**63)  # unused draw: keeps the scaling path's seeds as in 0.1.0
    live = np.flatnonzero(np.bincount(inst.pencil.term, minlength=inst.m))
    shifted, b = normalize_costs(inst.costs, live.tolist())
    cmax = max((shifted[k] for k in live.tolist()), default=1)  # of the terms with entries
    lim = _limits(opts, n, inst.m, cmax)

    pencil = witness = None
    done: list[tuple[int, int, float]] = []  # (D*, oracle calls, seconds) per phase
    t0 = time.perf_counter()
    cert = solve_R(inst.pencil, int(rng.integers(0, 2**63)))
    if cert.value < n:
        value, witness = MINUS_INFINITY, cert
    else:
        t0 = t0 if opts.scaling_enabled else time.perf_counter()  # only then is it phase 0
        pencil, done = _descend(inst.pencil, shifted, cmax, live, opts, rng, lim, t0)
        value = done[-1][0] - n * b
    dstars, calls, seconds = zip(*done) if done else ((), (), ())
    report = SolveReport(value, dstars, calls, len(done), sum(calls), b,
                         phase_seconds=seconds, singular_certificate=witness)
    return report, pencil


def _descend(const: ConstPencil, shifted: tuple[int, ...], cmax: int, live: np.ndarray,
             opts: SolveOptions, rng: np.random.Generator, lim: _Limits, t0: float
             ) -> tuple[LaurentPencil, list[tuple[int, int, float]]]:
    """Phases theta = 0..N on the costs scaled by 2^-N (see the module docstring).

    Returns the final pencil and (D*, oracle calls, seconds) per phase, phase
    0's counted from t0; `cmax` is the `live` terms' largest cost, and with
    scaling the singularity certificate ends phase 0 (n top, 1 call, K =
    live).  Phase theta >= 1 maps B_k(t) to B_k(t^2) t^-odd[theta, k] on the
    degree array alone, d <- 2d - o, o = odd[theta, term], with a pencil's
    -2^61 check and truncation.  K, the last certified leading pencil's terms,
    changes only when a phase descends, so the quiet run ahead (phases j =
    1..L with odd[theta + j, K] one value b_j, added after the map) ends at
    d_L = 2^L d_0 - sum_j 2^(L-j) (o_j - b_j), which _advance computes at
    once.  Degree-0 entries are in K and stay at 0, and one at d <= -1 stays
    there (2d - o + b <= -1), so that pencil leads the run.  An entry phase j
    drops (d_j - b_j <= -depth) has d_{j+1} - b_{j+1} <= 2 - 2 depth <=
    -depth, as depth >= 2 n^2 m >= 2, so one mask after the run keeps the same
    entries in the same order.  1 - d at most doubles per phase, so with L
    capped at 2^L (1 - min d_0) <= 2^60 no -2^61 check can fire; near the
    floor a run is one phase.  A run draws its sum_j (1 + b_j) seeds at once,
    the same stream, and records D* <- 2 D* - n b_j, 0 calls and an even time
    share per phase.
    """
    n, m = const.n, const.m
    N = (cmax - 1).bit_length() if opts.scaling_enabled else 0  # ceil(log2 cmax) for cmax >= 1
    scale = 1 << N
    top = -(-cmax // scale)  # ceil(cmax / scale); terms without entries clamp to degree 0
    degree = np.array([min(-(-c // scale) - top, 0) for c in shifted], dtype=np.int64)
    pencil = LaurentPencil._wrap(const.p, n, m, const.term, degree[const.term],
                                 const.row, const.col, const.value)
    pencil, dstar, calls, K = ((pencil, n * top, 1, live) if opts.scaling_enabled
                               else _run_phase(pencil, n * top, rng, lim))
    done = [(dstar, calls, time.perf_counter() - t0)]
    # odd[theta, k] = ceil(c_k / 2^(N - theta)) mod 2 = 1 - bit N - theta of c_k - 1, read
    # exactly off its bytes (with scaling a live c_k - 1 < scale; without, only row 0 exists)
    raw = b"".join(((c - 1) % scale).to_bytes(N // 8 + 1, "little") for c in shifted)
    odd = 1 - np.unpackbits(np.frombuffer(raw, np.uint8).reshape(m, -1), axis=1,
                            bitorder="little")[:, N::-1].T
    degree, theta = pencil.degree, 0
    while theta < N:
        t0 = time.perf_counter()
        pencil, degree, b = _advance(pencil, degree, odd[theta + 1:], K, lim.depth)
        if b.size:  # quiet: b_j on every term of the last certified leading pencil
            rng.integers(0, 2**63, size=b.size + int(b.sum()))
            seconds = (time.perf_counter() - t0) / b.size
            for bj in b.tolist():
                dstar = 2 * dstar - n * bj
                done.append((dstar, 0, seconds))
        else:
            pencil, dstar, calls, K = _run_phase(pencil._redegree(degree), 2 * dstar, rng, lim)
            degree = pencil.degree
            done.append((dstar, calls, time.perf_counter() - t0))
        theta += max(b.size, 1)
    return pencil._redegree(degree), done


def _advance(pencil: LaurentPencil, degree: np.ndarray, odd: np.ndarray, K: np.ndarray,
             depth: int | None) -> tuple[LaurentPencil, np.ndarray, np.ndarray]:
    """Map `degree`, `pencil`'s degrees, over the quiet run at the head of `odd`
    (see _descend); return the truncated pencil, its degrees and the run's b_j,
    or, when the next phase descends, its degrees before the descent and no b."""
    on = odd[0, K]
    if (on == on[0]).all():  # a quiet run, as long as the bits on K agree
        on = odd[:max(60 - (-int(degree.min(initial=0))).bit_length(), 1), K]
        quiet = (on == on[:, :1]).all(axis=1)
        b = on[:len(quiet) if quiet.all() else int(quiet.argmin()), 0]
        w = 1 << np.arange(b.size - 1, -1, -1)  # int64 2^(L-j): the uint8 bits cannot wrap
        degree = degree * (2 * w[0]) - (w @ odd[:b.size] - w @ b)[pencil.term]
    else:  # the next phase descends: map it alone
        b, degree = on[:0], 2 * degree - odd[0, pencil.term]
    cut = int(b[-1]) if b.size else 0  # the last phase truncates before adding b_L
    LaurentPencil._check_floor(low := int(degree.min(initial=0)) - cut)
    if depth is not None and low <= -depth:
        pencil = truncate(pencil._redegree(degree), depth - cut)
        degree = pencil.degree
    return pencil, degree, b
