"""deg Det over the rationals by reduction to GF(p) for the first few primes.

Every per-prime value lower-bounds the rational one, and the coefficient
bound L = (nd)^{2nd} D^{nd} (d = n - 1, floored at 1) guarantees that some
prime among the first ceil(log2 L) + 1 attains it, since the max-weight
expansion coefficient cannot vanish modulo all of them at once.  The +1 keeps
the prime product strictly above L even when L is a power of two.

Tiny primes can starve the randomized certificate oracle; such primes retry
with a larger sample budget, then fall back to the blow-up oracle, and are
skipped (with a recorded reason) when even that needs more evaluation points
than the field holds.  A skip can only lose a lower bound, never inflate the
maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import (AllPrimesFailedError, DimensionMismatchError,
                     IterationBoundExceededError, PrecisionUnsupportedError,
                     RetryExhaustedError)
from .infinity import MinusInfinity
from .instances import IntegerInstance
from .solver import SolveOptions, _limits, solve


def bound_log2(n: int, entry_bound: int) -> int:
    """An exponent ell with 2**ell strictly above (nd)^{2nd} D^{nd}, d = max(1, n-1).

    Computed exactly on big integers as ceil(log2 L) + 1; overshooting by one
    only adds a prime, which is always safe.
    """
    if n < 1 or entry_bound < 1:
        raise DimensionMismatchError("need n >= 1 and entry_bound >= 1")
    d = max(1, n - 1)
    L = (n * d) ** (2 * n * d) * entry_bound ** (n * d)
    return _ceil_log2(L) + 1


def _ceil_log2(value: int) -> int:
    if value < 1:
        raise DimensionMismatchError("log2 of a nonpositive value")
    bits = value.bit_length()
    return bits - 1 if value == 1 << (bits - 1) else bits


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
    ell: int
    primes: tuple[int, ...]


def prime_budget(n: int, entry_bound: int) -> PrimeBudget:
    d = max(1, n - 1)
    ell = max(1, bound_log2(n, entry_bound))
    return PrimeBudget(d, ell, tuple(first_primes(ell)))


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
    opts = opts or SolveOptions()
    budget = prime_budget(inst.n, inst.entry_bound)
    outcomes: list[PrimeOutcome] = []
    best: int | MinusInfinity | None = None
    base_retries = _limits(opts, inst.n, inst.m).retries
    for idx, p in enumerate(budget.primes):
        seed = (opts.seed * 0x9E3779B1 + idx * 0x85EBCA77 + p) % (2**63)
        retries = base_retries * max(1, -(-32 // p))  # more samples for tiny fields
        per_prime = replace(opts, seed=seed, oracle_retries=retries)
        try:
            reduced = inst.reduce_mod(p)
            value = solve(reduced, per_prime).value
        except (PrecisionUnsupportedError, RetryExhaustedError,
                IterationBoundExceededError) as exc:
            outcomes.append(PrimeOutcome(p, None, skipped=True,
                                         reason=f"{type(exc).__name__}: {exc}"))
            continue
        outcomes.append(PrimeOutcome(p, value))
        if best is None or value > best:
            best = value
    if best is None:
        raise AllPrimesFailedError(
            "every prime in the budget was skipped: " +
            "; ".join(f"p={o.prime} ({o.reason})" for o in outcomes))
    return RationalReport(best, budget, tuple(outcomes))
