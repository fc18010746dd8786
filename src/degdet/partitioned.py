"""2x2-partitioned matrices and maximum-weight consistent 2-matchings.

A perfect 2-matching (every left and right node incident to exactly two edge
slots) is a disjoint union of cycles, doubled edges included.  It is
consistent with a partitioned matrix when the rank of the matrix restricted
to its support equals its multiset size; for perfect matchings that means the
restriction stays nonsingular.  deg Det of the partitioned matrix is the
maximum weight of a consistent perfect 2-matching, so once the solver has the
value, the witness is the first perfect 2-matching that weighs the value and
passes :func:`is_consistent`.  That scan lists pairs of perfect matchings and
is capped at n = 6.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, ExtractionFailedError, SizeLimitError
from .field_linalg import mod_rank
from .infinity import MINUS_INFINITY, MinusInfinity, is_minus_infinity
from .instances import Instance, PartitionedInstance
from .solver import SolveOptions, solve

#: largest n that :func:`enumerate_perfect` enumerates
ENUMERATION_SIZE_LIMIT = 5
#: largest n whose perfect 2-matchings :func:`solve_and_extract` scans
EXTRACTION_SIZE_LIMIT = 6


@dataclass(frozen=True)
class TwoMatching:
    """A multiset of bipartite edges with multiplicities in {1, 2}."""

    edges: tuple[tuple[int, int, int], ...]  # (row, col, multiplicity), sorted

    def __post_init__(self):
        norm = tuple(sorted((int(i), int(j), int(mult)) for (i, j, mult) in self.edges))
        for (_, _, mult) in norm:
            if mult not in (1, 2):
                raise DimensionMismatchError("edge multiplicities must be 1 or 2")
        object.__setattr__(self, "edges", norm)

    @classmethod
    def from_multiset(cls, counter: Counter) -> "TwoMatching":
        return cls(tuple((i, j, mult) for (i, j), mult in counter.items()))

    def multiset(self) -> Counter:
        return Counter({(i, j): mult for (i, j, mult) in self.edges})

    def size(self) -> int:
        return sum(mult for (_, _, mult) in self.edges)

    def support(self) -> set:
        return {(i, j) for (i, j, _) in self.edges}

    def degrees(self) -> tuple[Counter, Counter]:
        rows: Counter = Counter()
        cols: Counter = Counter()
        for (i, j, mult) in self.edges:
            rows[i] += mult
            cols[j] += mult
        return rows, cols

    def is_valid(self) -> bool:
        rows, cols = self.degrees()
        return all(v <= 2 for v in rows.values()) and all(v <= 2 for v in cols.values())

    def is_perfect(self, n: int) -> bool:
        rows, cols = self.degrees()
        return (self.size() == 2 * n
                and all(rows.get(i, 0) == 2 for i in range(n))
                and all(cols.get(j, 0) == 2 for j in range(n)))

    def weight(self, costs: Sequence[Sequence[int]]) -> int:
        """Doubled edges pay their cost twice."""
        return sum(mult * costs[i][j] for (i, j, mult) in self.edges)


def to_instance(part: PartitionedInstance) -> Instance:
    """Embed each nonzero block at its position; term order is row-major."""
    n2 = 2 * part.n
    edges = part.edges()
    if not edges:
        raise DimensionMismatchError("partitioned instance has no nonzero block")
    stack = np.zeros((len(edges), n2, n2), dtype=part.blocks.dtype)
    for k, (i, j) in enumerate(edges):
        stack[k, 2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = part.blocks[i, j]
    costs = [part.costs[i][j] for (i, j) in edges]
    return Instance.from_arrays(part.p, stack, costs,
                                {"generator": "partitioned2x2-embedded",
                                 "edges": [list(e) for e in edges]})


def is_consistent(matching: TwoMatching, part: PartitionedInstance, seed: int = 0) -> bool:
    """|M| == rank(A restricted to M), by one random substitution.

    A random substitution can only undershoot the symbolic rank, and it does
    so with probability at most 2n/p; the answer is wrong only on that
    unlucky undershoot.
    """
    if not matching.is_valid():
        return False
    rng = np.random.default_rng(seed)
    acc = np.zeros((2 * part.n, 2 * part.n), dtype=np.int64)
    for (i, j) in matching.support():
        lam = int(rng.integers(1, part.p))
        acc[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = part.blocks[i, j] * lam % part.p
    return mod_rank(acc, part.p) == matching.size()


def _perfect_two_matchings(part: PartitionedInstance, weight: int | None = None
                           ) -> Iterator[tuple[int, TwoMatching]]:
    """(weight, matching) per perfect 2-matching (pairs of perfect matchings,
    deduplicated as multisets) in a fixed order.  With `weight`, a pair that
    misses it is skipped unbuilt; duplicates weigh alike, so dedup is kept."""
    n, costs, allowed = part.n, part.costs, set(part.edges())
    perms = [perm for perm in permutations(range(n))
             if all((i, perm[i]) in allowed for i in range(n))]
    weights = [sum(costs[i][perm[i]] for i in range(n)) for perm in perms]
    seen = set()
    for a in range(len(perms)):
        for b in range(a, len(perms)):
            total = weights[a] + weights[b]
            if weight is not None and total != weight:
                continue
            counter: Counter = Counter()
            for i in range(n):
                counter[(i, perms[a][i])] += 1
                counter[(i, perms[b][i])] += 1
            matching = TwoMatching.from_multiset(counter)
            if matching.edges not in seen:
                seen.add(matching.edges)
                yield total, matching


def enumerate_perfect(part: PartitionedInstance, seed: int = 0
                      ) -> tuple[int | MinusInfinity, TwoMatching | None]:
    """Exhaustive maximum-weight perfect consistent 2-matching (desk scale)."""
    if part.n > ENUMERATION_SIZE_LIMIT:
        raise SizeLimitError(f"enumeration is capped at n={ENUMERATION_SIZE_LIMIT}")
    best_weight: int | MinusInfinity = MINUS_INFINITY
    best = None
    for w, matching in _perfect_two_matchings(part):
        if is_consistent(matching, part, seed=seed) and (
                is_minus_infinity(best_weight) or w > best_weight):
            best_weight, best = w, matching
    return best_weight, best


def solve_and_extract(part: PartitionedInstance, opts: SolveOptions | None = None
                      ) -> tuple[int | MinusInfinity, TwoMatching | None]:
    """deg det (= deg Det) of the weighted partitioned matrix together with a
    maximum-weight perfect consistent 2-matching witnessing it.

    The witness is the first perfect 2-matching that weighs the solver's value
    and passes :func:`is_consistent`, which can only undershoot; so a returned
    witness is valid, and an unlucky substitution on every optimal matching
    raises ExtractionFailedError.  A finite value with n > 6 raises
    SizeLimitError; an nc-singular instance returns (-inf, None) at any n.
    """
    opts = opts or SolveOptions()
    if not part.edges():
        return MINUS_INFINITY, None
    value = solve(to_instance(part), opts).value
    if is_minus_infinity(value):
        return MINUS_INFINITY, None
    if part.n > EXTRACTION_SIZE_LIMIT:
        raise SizeLimitError(f"witness extraction is capped at n={EXTRACTION_SIZE_LIMIT}")
    rng = np.random.default_rng(np.random.SeedSequence((opts.seed, 0x2A)))
    for _, matching in _perfect_two_matchings(part, value):
        if is_consistent(matching, part, seed=int(rng.integers(0, 2**63))):
            return value, matching
    raise ExtractionFailedError(f"no consistent 2-matching of weight {value} was found")
