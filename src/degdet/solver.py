"""The deg-Det solver: descent on certificates with cost scaling and truncation.

The driver keeps the problem in coefficient-updating form.  A phase runs the
plain descent loop: solve (R) for the leading pencil, and while the optimum
is below n, lift the certified rows by t and drop the complementary columns
by t^-1, accumulating n - r - s into the running degree count D*.

One driver runs phases theta = 0..N on the costs c_k (shifted to be >= 1)
scaled down by 2^N: A_k starts at degree ceil(c_k / 2^N) - max_j ceil(c_j /
2^N) and D* at n max_j ceil(c_j / 2^N).  Between phases the scaled costs
double (minus an occasional 1 per variable), realized on the pencil as
B_k(t^2), optionally times t^-1, with D* doubling.  With scaling
N = ceil(log2 max c), so phase 0 starts on the constant pencil; the
pseudo-polynomial mode is N = 0, one phase on the unscaled costs.

No oracle call is made whose answer is known.  An all-zero leading pencil is
shifted by -max degree in one move.  Between phases the entries at degree 0
of term k go to -b_k, b_k in {0, 1}, while entries at degree <= -1 stay
there, and truncation drops them in the same order; so where b_k is one value
b on the terms of the last certified leading pencil, the phase is quiet: after
a shift by b that pencil leads again, its certificate ends the phase with 0
calls, and only the degree array moves.  A skipped call counts 0 in
`iterations` but keeps its random draw, so every other call keeps its seed.

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


def normalize_costs(costs: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Shift costs to be >= 1; deg Det recovers as value(shifted) - n*b."""
    b = max(0, 1 - min(costs))
    return tuple(int(c) + b for c in costs), b


def _ceil_div(a: int, d: int) -> int:
    return -(-a // d)


def _run_phase(pencil: LaurentPencil, dstar: int, rng: np.random.Generator, lim: _Limits,
               first: Certificate | None = None) -> tuple[LaurentPencil, int, int, np.ndarray]:
    """Descent until the leading pencil certifies optimum n.

    Returns the pencil, D*, the oracle calls and the sorted terms of the
    terminating leading pencil.  `first`, the certificate of a pencil all at
    degree 0 (phase 0 with scaling), answers the first call, which counts but
    draws no seed; a later phase starts on a strict subset of the last
    certified leading pencil (quiet ones never run here, see _descend).  A
    leading pencil with no entries is shifted by k = -max degree in one move,
    counting none of the k calls, which could only answer (I, I, n, n), but
    drawing their seeds.  A phase whose `lim.bound`-th oracle call does not
    certify optimum n raises IterationBoundExceededError.
    """
    n, calls = pencil.n, 0
    while True:
        if first is not None:
            lead, cert, first = pencil, first, None
        else:
            lead = leading(pencil)
            if not lead.term.size and pencil.term.size:
                k = -int(pencil.degree.max())
                rng.integers(0, 2**63, size=k)
                if lim.depth is not None:  # what the first of the k steps' truncations keeps
                    pencil = truncate(pencil, lim.depth + 1)
                pencil = pencil._redegree(pencil.degree + k)
                dstar -= n * k
                continue
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
    """One descent phase on an explicit pencil (test / driver entry point)."""
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
    scaling phase 0 is that pencil, whose one oracle call the certificate
    answers; without scaling it is an extra call, not counted in
    `oracle_calls` nor in `phase_seconds[0]`, which with scaling includes
    it.  Every oracle call is answered by a verified certificate or raises
    NcRankGapError.
    """
    opts = opts or SolveOptions()
    n = inst.n
    rng = np.random.default_rng(np.random.SeedSequence(opts.seed))
    rng.integers(0, 2**63)  # unused draw: keeps the scaling path's seeds as in 0.1.0
    shifted, b = normalize_costs(inst.costs)
    lim = _limits(opts, n, inst.m, max(shifted))

    pencil = witness = None
    done: list[tuple[int, int, float]] = []  # (D*, oracle calls, seconds) per phase
    t0 = time.perf_counter()
    cert = solve_R(inst.pencil, int(rng.integers(0, 2**63)))
    if cert.value < n:
        value, witness = MINUS_INFINITY, cert
    else:
        t0 = t0 if opts.scaling_enabled else time.perf_counter()  # only then is it phase 0
        pencil, done = _descend(inst.pencil, shifted, opts, rng, lim, cert, t0)
        value = done[-1][0] - n * b
    dstars, calls, seconds = zip(*done) if done else ((), (), ())
    report = SolveReport(value, dstars, calls, len(done), sum(calls), b,
                         phase_seconds=seconds, singular_certificate=witness)
    return report, pencil


def _descend(const: ConstPencil, shifted: tuple[int, ...], opts: SolveOptions,
             rng: np.random.Generator, lim: _Limits, cert: Certificate, t0: float
             ) -> tuple[LaurentPencil, list[tuple[int, int, float]]]:
    """Phases theta = 0..N on the costs scaled by 2^-N (see the module docstring).

    Returns the final pencil and (D*, oracle calls, seconds) per phase, phase
    0's counted from t0; with scaling `cert` answers phase 0, `const` at
    degree 0.  Phase theta >= 1 maps B_k(t) to B_k(t^2) t^-odd[theta, k] on
    the degree array alone, with a pencil's -2^61 check and truncation; a
    quiet phase adds b and runs no descent (the shift's truncation at depth
    + 1 drops nothing, as entries at degree <= -1 stay there).
    """
    n, m = const.n, const.m
    cmax = max(shifted)
    N = (cmax - 1).bit_length() if opts.scaling_enabled else 0  # ceil(log2 cmax) for cmax >= 1
    scale = 1 << N
    top = _ceil_div(cmax, scale)
    degree = np.array([_ceil_div(c, scale) - top for c in shifted], dtype=np.int64)
    pencil = LaurentPencil._wrap(const.p, n, m, const.term, degree[const.term],
                                 const.row, const.col, const.value)
    pencil, dstar, calls, K = _run_phase(pencil, n * top, rng, lim,
                                         cert if opts.scaling_enabled else None)
    done = [(dstar, calls, time.perf_counter() - t0)]
    # odd[theta, k] = ceil(c_k / 2^(N - theta)) mod 2 = 1 - bit N - theta of c_k - 1, read
    # exactly off its bytes (with scaling c_k - 1 < scale; without, only row 0, unused, exists)
    raw = b"".join(((c - 1) % scale).to_bytes(N // 8 + 1, "little") for c in shifted)
    odd = 1 - np.unpackbits(np.frombuffer(raw, np.uint8).reshape(m, -1), axis=1,
                            bitorder="little")[:, N::-1].T
    degree = pencil.degree
    for theta in range(1, N + 1):
        t0 = time.perf_counter()
        degree = 2 * degree - odd[theta, pencil.term]
        LaurentPencil._check_floor(low := int(degree.min(initial=0)))
        if lim.depth is not None and low <= -lim.depth:
            pencil = truncate(pencil._redegree(degree), lim.depth)
            degree = pencil.degree
        on = odd[theta, K]
        b = int(on.max(initial=0))
        if (on == b).all():  # quiet: b on every term of the last certified leading pencil
            rng.integers(0, 2**63, size=1 + b)
            degree = degree + b if b else degree
            dstar, calls = 2 * dstar - n * b, 0
        else:
            pencil, dstar, calls, K = _run_phase(pencil._redegree(degree), 2 * dstar, rng, lim)
            degree = pencil.degree
        done.append((dstar, calls, time.perf_counter() - t0))
    return pencil._redegree(degree), done
