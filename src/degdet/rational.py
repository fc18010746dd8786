"""deg Det over the rationals by reduction to GF(p) for a few word-size primes.

Every per-prime value lower-bounds the rational one, and the coefficient
bound L = (nd)^{2nd} D^{nd} (d = n - 1, floored at 1) guarantees that some
prime of a set whose product exceeds L attains it, since the max-weight
expansion coefficient cannot vanish modulo all of them at once.  The primes
are taken downward from 2**31 - 1 until their exact product reaches 2**ell
> L, about log2 L / 31 of them (the standard multi-modular choice, von zur
Gathen & Gerhard, Modern Computer Algebra, ch. 5).  A prime whose solve
raises NcRankGapError, the one error sampling luck can cost a solve (over a
small field every point can fall short), is skipped with a recorded reason.
Any other error propagates: an IterationBoundExceededError, for one, breaks
the proven per-phase bound and means a bug.  A skip never inflates the
maximum, but it leaves the solved primes' product short of 2**ell, so the
walk goes on downward past the budget until the solved product reaches 2**ell
again; once as many primes have been skipped as the budget holds,
:class:`AllPrimesFailedError` is raised.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count

from .errors import AllPrimesFailedError, DimensionMismatchError, NcRankGapError
from .field_linalg import as_integers, is_prime
from .infinity import MinusInfinity
from .instances import IntegerInstance
from .solver import SolveOptions, solve


def bound_log2(n: int, entry_bound: int) -> int:
    """An exponent ell with 2**ell strictly above (nd)^{2nd} D^{nd}, d = max(1, n-1).

    Computed exactly on big integers as ceil(log2 L) + 1; overshooting by one
    only adds a prime, which is always safe.
    """
    if n < 1 or entry_bound < 1:
        raise DimensionMismatchError("need n >= 1 and entry_bound >= 1")
    d = max(1, n - 1)
    L = (n * d) ** (2 * n * d) * entry_bound ** (n * d)
    return (L - 1).bit_length() + 1  # (L - 1).bit_length() == ceil(log2 L) for L >= 1


def first_primes(ell: int) -> list[int]:
    """The ell smallest primes, by a growing sieve of Eratosthenes."""
    if ell < 1:
        raise DimensionMismatchError("need at least one prime")
    limit = 16
    while True:
        sieve = bytearray([1]) * limit
        sieve[0:2] = b"\x00\x00"
        for i in range(2, int(limit ** 0.5) + 1):
            if sieve[i]:
                sieve[i * i:: i] = b"\x00" * len(sieve[i * i:: i])
        primes = [i for i in range(limit) if sieve[i]]
        if len(primes) >= ell:
            return primes[:ell]
        limit *= 2


@dataclass(frozen=True)
class PrimeBudget:
    d: int
    ell: int  # bit bound: 2**ell > L
    primes: tuple[int, ...]  # primes below 2**31, descending, product >= 2**ell


def prime_budget(n: int, entry_bound: int) -> PrimeBudget:
    d = max(1, n - 1)
    ell = max(1, bound_log2(n, entry_bound))
    primes, product = [], 1
    for q in _word_primes():
        if product.bit_length() > ell:
            break
        primes.append(q)
        product *= q
    return PrimeBudget(d, ell, tuple(primes))


_WORD_PRIMES = [2**31 - 1]  # the odd primes below 2**31 found so far, descending


def _word_primes():
    """Every odd prime below 2**31, descending; each candidate is tested once per process."""
    for idx in count():
        q = _WORD_PRIMES[-1]
        while idx == len(_WORD_PRIMES) and q > 3:  # the next prime below the last one found
            q -= 2
            if is_prime(q):
                _WORD_PRIMES.append(q)
        if idx == len(_WORD_PRIMES):
            return
        yield _WORD_PRIMES[idx]


@dataclass(frozen=True)
class PrimeOutcome:
    prime: int
    value: int | MinusInfinity | None
    skipped: bool = False
    reason: str = ""


@dataclass(frozen=True)
class RationalReport:
    value: int | MinusInfinity
    budget: PrimeBudget
    outcomes: tuple[PrimeOutcome, ...]


def solve_rational(inst: IntegerInstance, opts: SolveOptions | None = None
                   ) -> int | MinusInfinity:
    """max over the prime budget of deg Det of the reduced instance."""
    return solve_rational_report(inst, opts).value


def solve_rational_report(inst: IntegerInstance, opts: SolveOptions | None = None
                          ) -> RationalReport:
    """Solve modulo the budget's primes, and below them while skips leave the
    solved primes' product short of 2**ell; the value is the maximum."""
    opts = opts or SolveOptions()
    budget = prime_budget(inst.n, inst.entry_bound)
    outcomes: list[PrimeOutcome] = []
    best: int | MinusInfinity | None = None
    solved_product, skipped = 1, 0
    for idx, p in enumerate(_word_primes()):
        if solved_product.bit_length() > budget.ell:
            break
        if skipped == len(budget.primes):
            raise AllPrimesFailedError(
                f"{skipped} primes skipped, as many as the budget holds: " +
                "; ".join(f"p={o.prime} ({o.reason})" for o in outcomes if o.skipped))
        seed = (as_integers(opts.seed, "seed", 0) * 0x9E3779B1 + idx * 0x85EBCA77 + p) % (2**63)
        per_prime = replace(opts, seed=seed)
        try:
            reduced = inst.reduce_mod(p)
            value = solve(reduced, per_prime).value
        except NcRankGapError as exc:
            outcomes.append(PrimeOutcome(p, None, skipped=True,
                                         reason=f"{type(exc).__name__}: {exc}"))
            skipped += 1
            continue
        outcomes.append(PrimeOutcome(p, value))
        solved_product *= p
        if best is None or value > best:
            best = value
    return RationalReport(best, budget, tuple(outcomes))
