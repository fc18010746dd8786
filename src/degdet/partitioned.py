"""2x2-partitioned matrices and maximum-weight consistent 2-matchings.

A perfect 2-matching (every left and right node incident to exactly two edge
slots) is a disjoint union of cycles, doubled edges included.  It is
consistent with a partitioned matrix when the rank of the matrix restricted
to its support equals its multiset size; for perfect matchings that means the
restriction stays nonsingular.  deg Det of the partitioned matrix is the
maximum weight of a consistent perfect 2-matching, so once the solver has the
value, the witness is the first perfect 2-matching that weighs the value and
passes :func:`is_consistent`.  Some optimal one uses only the blocks tight in
the solver's final pencil, so that sparse graph is all the scan reads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, ExtractionFailedError, SizeLimitError
from .field_linalg import mod_rank
from .infinity import MINUS_INFINITY, MinusInfinity, is_minus_infinity
from .instances import Instance, PartitionedInstance
from .laurent import leading
from .solver import SolveOptions, solve_with_final_pencil

#: largest n that :func:`enumerate_perfect` enumerates
ENUMERATION_SIZE_LIMIT = 5


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


def _perfect_matchings(n: int, allowed: set, perm: tuple[int, ...] = ()
                       ) -> Iterator[tuple[int, ...]]:
    """Each perfect matching on the `allowed` cells that extends `perm`, as its
    column tuple in lexicographic order, by backtracking row by row."""
    if len(perm) == n:
        yield perm
    for j in sorted(j for (i, j) in allowed if i == len(perm)):
        if j not in perm:
            yield from _perfect_matchings(n, allowed, perm + (j,))


def _perfect_two_matchings(part: PartitionedInstance, allowed: set
                           ) -> Iterator[tuple[int, TwoMatching]]:
    """(weight, matching) per perfect 2-matching on the `allowed` cells.  Lazy:
    each new perfect matching is paired with every earlier one and itself, and
    the pairs are deduplicated as multisets."""
    perms: list[tuple[int, ...]] = []
    seen = set()
    for perm in _perfect_matchings(part.n, allowed):
        perms.append(perm)
        for prev in perms:
            matching = TwoMatching.from_multiset(Counter([*enumerate(perm), *enumerate(prev)]))
            if matching.edges not in seen:
                seen.add(matching.edges)
                yield matching.weight(part.costs), matching


def enumerate_perfect(part: PartitionedInstance, seed: int = 0
                      ) -> tuple[int | MinusInfinity, TwoMatching | None]:
    """Exhaustive maximum-weight perfect consistent 2-matching (desk scale)."""
    if part.n > ENUMERATION_SIZE_LIMIT:
        raise SizeLimitError(f"enumeration is capped at n={ENUMERATION_SIZE_LIMIT}")
    best_weight: int | MinusInfinity = MINUS_INFINITY
    best = None
    for w, matching in _perfect_two_matchings(part, set(part.edges())):
        if is_consistent(matching, part, seed=seed) and (
                is_minus_infinity(best_weight) or w > best_weight):
            best_weight, best = w, matching
    return best_weight, best


def solve_and_extract(part: PartitionedInstance, opts: SolveOptions | None = None
                      ) -> tuple[int | MinusInfinity, TwoMatching | None]:
    """deg det (= deg Det) of the weighted partitioned matrix together with a
    maximum-weight perfect consistent 2-matching witnessing it.

    The witness is the first perfect 2-matching on the tight blocks (a nonzero
    degree-0 slab in the final pencil) that weighs the solver's value and
    passes :func:`is_consistent`, which can only undershoot; so a returned
    witness is valid, and an unlucky substitution on every optimal matching
    raises ExtractionFailedError.  An nc-singular instance returns (-inf, None).
    """
    opts = opts or SolveOptions()
    edges = part.edges()
    if not edges:
        return MINUS_INFINITY, None
    report, pencil = solve_with_final_pencil(to_instance(part), opts)
    if is_minus_infinity(value := report.value):
        return MINUS_INFINITY, None
    tight = {edges[k] for k in np.flatnonzero(leading(pencil).stack.any(axis=(1, 2)))}
    rng = np.random.default_rng(np.random.SeedSequence((opts.seed, 0x2A)))
    for weight, matching in _perfect_two_matchings(part, tight):
        if weight == value and is_consistent(matching, part, seed=int(rng.integers(0, 2**63))):
            return value, matching
    raise ExtractionFailedError(f"no consistent 2-matching of weight {value} was found")
