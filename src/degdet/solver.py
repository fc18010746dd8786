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
from .laurent import LaurentPencil, leading, scale_tinv, square_substitute, step_update, truncate
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
    iterations: tuple[int, ...]
    phases: int
    oracle_calls: int
    shift_applied: int
    used_blowup_fallback: bool = False  # always False: gaps are certified, not deferred
    phase_seconds: tuple[float, ...] = ()  # timing only; excluded from determinism
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


def _run_phase(pencil: LaurentPencil, dstar: int, rng: np.random.Generator,
               lim: _Limits, first: Certificate | None = None
               ) -> tuple[LaurentPencil, int, int]:
    """Descent until the leading pencil certifies optimum n.

    Returns the pencil, D* and the oracle calls, the terminating one
    included.  A phase whose `lim.bound`-th oracle call does not certify
    optimum n raises IterationBoundExceededError.  `first`, when given, is a
    certificate already found for the starting leading pencil and answers
    the first oracle call.
    """
    n = pencil.n
    calls = 0
    while True:
        if first is not None:
            cert, first = first, None
        else:
            cert = solve_R(leading(pencil), int(rng.integers(0, 2**63)))
        calls += 1
        if cert.value == n:
            return pencil, dstar, calls
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
    return _run_phase(pencil, dstar, rng, lim)


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

    The certificate of the constant pencil decides singularity; that pencil
    holds the nonzero entries of the instance's stack, found once, and every
    phase-0 entry array is one of its arrays.  With scaling phase 0 is that
    pencil, so the certificate also answers its first oracle call; without
    scaling it is an extra call, not counted in `oracle_calls`.  Every
    oracle call, rank-gap pencils included, is answered by a verified
    certificate or raises NcRankGapError out of the solve.
    """
    opts = opts or SolveOptions()
    n = inst.n
    rng = np.random.default_rng(np.random.SeedSequence(opts.seed))
    rng.integers(0, 2**63)  # unused draw: keeps the scaling path's seeds as in 0.1.0
    shifted, b = normalize_costs(inst.costs)
    lim = _limits(opts, n, inst.m, max(shifted))

    pencil = witness = None
    done: list[tuple[int, int, float]] = []  # (D*, oracle calls, seconds) per phase
    term, row, col = np.nonzero(inst.stack)
    const = ConstPencil._wrap(inst.p, n, inst.m, term, row, col, inst.stack[term, row, col])
    cert = solve_R(const, int(rng.integers(0, 2**63)))
    if cert.value < n:
        value, witness = MINUS_INFINITY, cert
    else:
        pencil, done = _descend(const, shifted, opts, rng, lim, cert)
        value = done[-1][0] - n * b
    dstars, calls, seconds = zip(*done) if done else ((), (), ())
    report = SolveReport(value, dstars, calls, len(done), sum(calls), b,
                         phase_seconds=seconds, singular_certificate=witness)
    return report, pencil


def _descend(const: ConstPencil, shifted: tuple[int, ...], opts: SolveOptions,
             rng: np.random.Generator, lim: _Limits, first: Certificate
             ) -> tuple[LaurentPencil, list[tuple[int, int, float]]]:
    """Phases theta = 0..N on the costs scaled by 2^-N (see the module docstring).

    Returns the final pencil and (D*, oracle calls, seconds) per phase.

    Phase 0 is `const`'s entries at the scaled degrees; with scaling it is
    `const`, whose certificate `first` answers the first oracle call.
    """
    n = const.n
    cmax = max(shifted)
    if opts.scaling_enabled:
        num_doublings = (cmax - 1).bit_length()  # ceil(log2 cmax) for cmax >= 1
    else:
        num_doublings, first = 0, None
    scale = 1 << num_doublings
    top = _ceil_div(cmax, scale)
    degree = np.array([_ceil_div(c, scale) - top for c in shifted], dtype=np.int64)
    pencil = LaurentPencil._wrap(const.p, n, const.m, const.term, degree[const.term],
                                 const.row, const.col, const.value)
    dstar = n * top
    done = []
    for theta in range(num_doublings + 1):
        if theta:
            # B_k(t^2), times t^-1 where the doubled scaled cost 2 ceil(c/2den)
            # exceeds ceil(c/den), i.e. where ceil(c/den) is odd
            den = 1 << (num_doublings - theta)
            pencil = scale_tinv(square_substitute(pencil), _ceil_div(np.array(shifted), den) % 2)
            if lim.depth is not None:
                pencil = truncate(pencil, lim.depth)
            dstar *= 2
        t0 = time.perf_counter()
        pencil, dstar, calls = _run_phase(pencil, dstar, rng, lim, first)
        done.append((dstar, calls, time.perf_counter() - t0))
        first = None
    return pencil, done
