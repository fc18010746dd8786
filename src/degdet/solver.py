"""The deg-Det solver: descent on certificates with cost scaling and truncation.

The driver keeps the problem in coefficient-updating form.  A phase runs the
plain descent loop: solve (R) for the leading pencil, and while the optimum
is below n, lift the certified rows by t and drop the complementary columns
by t^-1, accumulating n - r - s into the running degree count D*.  Between
phases the scaled costs double (minus an occasional 1 per variable), realized
on the pencil as B_k(t^2), optionally times t^-1, with D* doubling.

With scaling enabled every phase provably needs at most n^2 m + 1 oracle
calls, and coefficients deeper than 2 n^2 m can never influence the output;
both facts are enforced at runtime (the first as a configurable assertion,
the second as the default truncation depth).

Singularity is decided by the same certificate oracle on the constant pencil
sum_k A_k x_k before any phase runs: a verified certificate with r + s > n is
a shrunk-subspace proof that deg Det is -infinity, and the report carries it
as the witness.

If the leading pencil ever has commutative rank strictly below its nc-rank,
the certificate oracle cannot make progress (NcRankGapError); the driver then
defers the whole value computation to the blow-up oracle and flags this in
the report.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, IterationBoundExceededError, NcRankGapError
from .infinity import MINUS_INFINITY, MinusInfinity, is_minus_infinity
from .instances import Instance
from .laurent import LaurentMatrix, LaurentPencil, step_update, truncate
from .ncrank import Certificate, ConstPencil, solve_R


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for one solve; identical options and instance give identical runs."""

    seed: int = 0
    scaling_enabled: bool = True
    truncation_enabled: bool = True
    truncation_depth: int | None = None  # None: 2 n^2 m with scaling, off without
    max_phase_iterations: int | None = None
    oracle_retries: int | None = None  # None: 3 n samples per oracle call
    enforce_iteration_bound: bool = True  # False downgrades the bound to a warning

    def __post_init__(self):
        if self.truncation_depth is not None and self.truncation_depth < 1:
            raise DimensionMismatchError("truncation_depth must be >= 1 when set")


@dataclass(frozen=True)
class SolveReport:
    value: int | MinusInfinity
    dstar_trace: tuple[int, ...]
    iterations: tuple[int, ...]
    phases: int
    oracle_calls: int
    shift_applied: int
    used_blowup_fallback: bool = False
    phase_seconds: tuple[float, ...] = ()  # timing only; excluded from determinism
    # the constant pencil's certificate (r + s > n) when value is -inf, else None
    singular_certificate: Certificate | None = None


class _Limits(NamedTuple):
    retries: int
    depth: int | None
    bound: int | None


def _limits(opts: SolveOptions, n: int, m: int) -> _Limits:
    """The options with their defaults resolved for an n x n, m-term pencil.

    Retries default to 3 n samples per oracle call.  With scaling the proven
    per-phase bound n^2 m + 1 applies and truncation defaults to depth 2 n^2 m;
    without scaling there is no bound and truncation needs an explicit depth.
    """
    retries = opts.oracle_retries if opts.oracle_retries is not None else 3 * n
    depth = None
    if opts.truncation_enabled:
        depth = opts.truncation_depth
        if depth is None and opts.scaling_enabled:
            depth = 2 * n * n * m
    bound = n * n * m + 1 if opts.scaling_enabled else None
    return _Limits(retries, depth, bound)


def normalize_costs(costs: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Shift costs to be >= 1; deg Det recovers as value(shifted) - n*b."""
    b = max(0, 1 - min(costs))
    return tuple(int(c) + b for c in costs), b


def _ceil_div(a: int, d: int) -> int:
    return -(-a // d)


def _initial_pencil(inst: Instance) -> LaurentPencil:
    terms = tuple(LaurentMatrix.from_constant(inst.p, mat.data) for mat in inst.mats)
    return LaurentPencil(inst.p, inst.n, inst.m, terms)


def _run_phase(pencil: LaurentPencil, dstar: int, rng: np.random.Generator,
               lim: _Limits, hard_limit: int | None, warn_only: bool,
               counter: dict, first: Certificate | None = None
               ) -> tuple[LaurentPencil, int, int]:
    """Descent until the leading pencil certifies optimum n.

    `lim.bound` is the proven per-phase limit (n^2 m + 1); `hard_limit` is an
    unconditional stop.  `first`, when given, is a certificate already found
    for the starting leading pencil and answers the first oracle call.  Every
    oracle call is counted, the terminating one included.
    """
    n = pencil.n
    bound = lim.bound
    iters = 0
    while True:
        if first is not None:
            cert, first = first, None
        else:
            const = ConstPencil(pencil.p, pencil.leading_stack())
            cert = solve_R(const, int(rng.integers(0, 2**63)), lim.retries)
        iters += 1
        counter["oracle_calls"] = counter.get("oracle_calls", 0) + 1
        if cert.value == n:
            return pencil, dstar, iters
        if bound is not None and iters >= bound:
            msg = (f"phase exceeded the proven oracle-call bound {bound} "
                   f"(n^2 m + 1) without terminating")
            if warn_only:
                warnings.warn(msg, RuntimeWarning)
                bound = None
            else:
                raise IterationBoundExceededError(msg)
        if hard_limit is not None and iters >= hard_limit:
            raise IterationBoundExceededError(
                f"phase exceeded max_phase_iterations={hard_limit}")
        pencil = step_update(pencil, cert.S, cert.T, cert.r, cert.s)
        if lim.depth is not None:
            pencil = truncate(pencil, lim.depth)
        dstar += n - cert.r - cert.s


def run_phase(pencil: LaurentPencil, dstar: int, opts: SolveOptions | None = None
              ) -> tuple[LaurentPencil, int, int]:
    """One descent phase on an explicit pencil (test / driver entry point)."""
    opts = opts or SolveOptions()
    rng = np.random.default_rng(opts.seed)
    lim = _limits(opts, pencil.n, pencil.m)
    return _run_phase(pencil, dstar, rng, lim, opts.max_phase_iterations,
                      not opts.enforce_iteration_bound, {})


def solve(inst: Instance, opts: SolveOptions | None = None) -> SolveReport:
    """deg Det of the instance (MINUS_INFINITY when nc-singular)."""
    report, _ = solve_with_final_pencil(inst, opts)
    return report


def solve_with_final_pencil(inst: Instance, opts: SolveOptions | None = None
                            ) -> tuple[SolveReport, LaurentPencil | None]:
    """Like :func:`solve`, additionally returning the final pencil.

    The pencil is None when the instance is nc-singular or when the value had
    to come from the blow-up fallback.

    The certificate of the constant pencil decides singularity.  With scaling
    the first phase starts on that same pencil, so the certificate also
    answers the first phase's first oracle call; without scaling it is an
    extra call, not counted in `oracle_calls`.
    """
    opts = opts or SolveOptions()
    n = inst.n
    rng = np.random.default_rng(np.random.SeedSequence(opts.seed))
    rng.integers(0, 2**63)  # unused draw: keeps the scaling path's seeds as in 0.1.0
    lim = _limits(opts, n, inst.m)
    shifted, b = normalize_costs(inst.costs)

    counter: dict = {}
    trace: list[int] = []
    iterations: list[int] = []
    seconds: list[float] = []
    try:
        cert = solve_R(ConstPencil(inst.p, inst.stack()), int(rng.integers(0, 2**63)),
                       lim.retries)
        if cert.value < n:
            return SolveReport(MINUS_INFINITY, (), (), 0, 0, b,
                               singular_certificate=cert), None
        if opts.scaling_enabled:
            value, pencil = _solve_scaling(inst, shifted, opts, rng, lim, cert,
                                           counter, trace, iterations, seconds)
        else:
            value, pencil = _solve_direct(inst, shifted, opts, rng, lim,
                                          counter, trace, iterations, seconds)
    except NcRankGapError:
        # The constant or a leading pencil hit a commutative/noncommutative
        # rank gap that resampling cannot fix; defer the value to the blow-up
        # oracle.
        from .oracles import degdet_blowup

        value = degdet_blowup(inst, seed=int(rng.integers(0, 2**63)))
        return SolveReport(value, tuple(trace), tuple(iterations), len(iterations),
                           counter.get("oracle_calls", 0), b, used_blowup_fallback=True,
                           phase_seconds=tuple(seconds)), None
    value = value - n * b if not is_minus_infinity(value) else value
    report = SolveReport(value, tuple(trace), tuple(iterations), len(iterations),
                         counter.get("oracle_calls", 0), b, phase_seconds=tuple(seconds))
    return report, pencil


def _solve_scaling(inst: Instance, shifted: tuple[int, ...], opts: SolveOptions,
                   rng: np.random.Generator, lim: _Limits, first: Certificate,
                   counter: dict, trace: list, iterations: list, seconds: list):
    n, m = inst.n, inst.m
    cmax = max(shifted)
    num_doublings = (cmax - 1).bit_length()  # ceil(log2 cmax) for cmax >= 1
    pencil = _initial_pencil(inst)
    dstar = n
    for theta in range(num_doublings + 1):
        t0 = time.perf_counter()
        pencil, dstar, iters = _run_phase(pencil, dstar, rng, lim, opts.max_phase_iterations,
                                          not opts.enforce_iteration_bound, counter,
                                          first if theta == 0 else None)
        seconds.append(time.perf_counter() - t0)
        iterations.append(iters)
        trace.append(dstar)
        if theta == num_doublings:
            break
        den_now = 1 << (num_doublings - theta)
        den_next = den_now >> 1
        new_terms = []
        for k, term in enumerate(pencil.terms):
            c_now = _ceil_div(shifted[k], den_now)
            c_next = _ceil_div(shifted[k], den_next)
            sub = term.square_substitute()
            if c_next == 2 * c_now - 1:
                sub = sub.scale_tinv()
            elif c_next != 2 * c_now:  # pragma: no cover - arithmetic impossibility
                raise AssertionError("scaled cost moved by more than one")
            new_terms.append(sub)
        pencil = LaurentPencil(inst.p, n, m, tuple(new_terms))
        if lim.depth is not None:
            pencil = truncate(pencil, lim.depth)
        dstar *= 2
    return dstar, pencil


def _solve_direct(inst: Instance, shifted: tuple[int, ...], opts: SolveOptions,
                  rng: np.random.Generator, lim: _Limits, counter: dict,
                  trace: list, iterations: list, seconds: list):
    """Pseudo-polynomial mode: encode t^{c_k} directly as coefficient degrees.

    Placing A_k at degree c_k - max_j c_j keeps every degree nonpositive; the
    uniform shift is paid back through the starting value D* = n * max_j c_j.
    """
    n, m = inst.n, inst.m
    cmax = max(shifted)
    degrees = [c - cmax for c in shifted]
    terms = tuple(LaurentMatrix.from_constant(inst.p, mat.data, deg)
                  for mat, deg in zip(inst.mats, degrees))
    pencil = LaurentPencil(inst.p, n, m, terms)
    dstar = n * cmax
    # D* descends by at least 1 per step from n*cmax and never passes the
    # optimum, which is >= n for costs >= 1; anything past this is a bug.
    limit = opts.max_phase_iterations if opts.max_phase_iterations is not None \
        else n * cmax + n + 10
    t0 = time.perf_counter()
    pencil, dstar, iters = _run_phase(pencil, dstar, rng, lim, limit,
                                      not opts.enforce_iteration_bound, counter)
    seconds.append(time.perf_counter() - t0)
    iterations.append(iters)
    trace.append(dstar)
    return dstar, pencil
