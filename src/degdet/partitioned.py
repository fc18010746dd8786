"""2x2-partitioned matrices and maximum-weight consistent 2-matchings.

A perfect 2-matching (every left and right node incident to exactly two edge
slots) is a disjoint union of cycles, doubled edges included.  It is
consistent with a partitioned matrix when the rank of the matrix restricted
to its support equals its multiset size; for perfect matchings that means the
restriction stays nonsingular.  The solver's final leading pencil always
contains such a matching, and restricting the original matrix to it preserves
the optimal degree, so a per-cycle simplification (double the heavier side of
the cycle when its blocks all have rank 2) recovers a maximum-weight
consistent 2-matching of the original instance.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, ExtractionFailedError, SizeLimitError
from .field_linalg import mod_rank
from .infinity import MINUS_INFINITY, MinusInfinity, is_minus_infinity
from .instances import Instance, PartitionedInstance
from .laurent import leading
from .solver import SolveOptions, solve_with_final_pencil

log = logging.getLogger(__name__)

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
    mats, costs = [], []
    for (i, j) in edges:
        big = np.zeros((n2, n2), dtype=np.int64)
        big[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = part.blocks[i][j].data
        mats.append(big)
        costs.append(part.costs[i][j])
    return Instance.from_arrays(part.p, mats, costs,
                                {"generator": "partitioned2x2-embedded",
                                 "edges": [list(e) for e in edges]})


def _support_rank(part: PartitionedInstance, support: Iterable[tuple[int, int]],
                  rng: np.random.Generator) -> int:
    """Substitution rank of the matrix restricted to the given block support."""
    n2 = 2 * part.n
    acc = np.zeros((n2, n2), dtype=np.int64)
    for (i, j) in set(support):
        lam = int(rng.integers(1, part.p))
        acc[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = part.blocks[i][j].data * lam % part.p
    return mod_rank(acc, part.p)


def is_consistent(matching: TwoMatching, part: PartitionedInstance, seed: int = 0) -> bool:
    """|M| == rank(A restricted to M), by one random substitution.

    A random substitution can only undershoot the symbolic rank, and it does
    so with probability at most 2n/p; the answer is wrong only on that
    unlucky undershoot.
    """
    if not matching.is_valid():
        return False
    rng = np.random.default_rng(seed)
    return _support_rank(part, matching.support(), rng) == matching.size()


def _perfect_two_matchings(n: int, allowed: set) -> list[TwoMatching]:
    """All perfect 2-matchings over the allowed edge set (pairs of perfect
    matchings, deduplicated as multisets)."""
    perms = [perm for perm in permutations(range(n))
             if all((i, perm[i]) in allowed for i in range(n))]
    seen = set()
    out: list[TwoMatching] = []
    for a in range(len(perms)):
        for b in range(a, len(perms)):
            counter: Counter = Counter()
            for i in range(n):
                counter[(i, perms[a][i])] += 1
                counter[(i, perms[b][i])] += 1
            matching = TwoMatching.from_multiset(counter)
            if matching.edges not in seen:
                seen.add(matching.edges)
                out.append(matching)
    return out


def enumerate_perfect(part: PartitionedInstance, seed: int = 0
                      ) -> tuple[int | MinusInfinity, TwoMatching | None]:
    """Exhaustive maximum-weight perfect consistent 2-matching (desk scale)."""
    if part.n > ENUMERATION_SIZE_LIMIT:
        raise SizeLimitError(f"enumeration is capped at n={ENUMERATION_SIZE_LIMIT}")
    allowed = set(part.edges())
    best_weight: int | MinusInfinity = MINUS_INFINITY
    best = None
    for matching in _perfect_two_matchings(part.n, allowed):
        if not is_consistent(matching, part, seed=seed):
            continue
        w = matching.weight(part.costs)
        if is_minus_infinity(best_weight) or w > best_weight:
            best_weight, best = w, matching
    return best_weight, best


def _pencil_support_rank(stack: np.ndarray, keep: Iterable[int], p: int,
                         rng: np.random.Generator) -> int:
    acc = np.zeros(stack.shape[1:], dtype=np.int64)
    for k in keep:
        lam = int(rng.integers(1, p))
        acc = (acc + stack[k] * lam) % p
    return mod_rank(acc, p)


def _cycles_of(matching: TwoMatching) -> list[list[tuple[int, int]]]:
    """Split a perfect 2-matching into cycles; a doubled edge is a 2-cycle
    reported as a single-edge cycle."""
    multiset = matching.multiset()
    doubled = [[(i, j)] for (i, j), mult in multiset.items() if mult == 2]
    simple = {edge for edge, mult in multiset.items() if mult == 1}
    cycles = list(doubled)
    # remaining edges form disjoint simple cycles alternating rows/columns
    adj_row: dict[int, list[int]] = {}
    adj_col: dict[int, list[int]] = {}
    for (i, j) in simple:
        adj_row.setdefault(i, []).append(j)
        adj_col.setdefault(j, []).append(i)
    unused = set(simple)
    while unused:
        cur_i, cur_j = min(unused)
        cycle = [(cur_i, cur_j)]
        unused.discard((cur_i, cur_j))
        while True:
            # leave by the other edge on the current column, then on its row
            col_next = [r for r in adj_col[cur_j] if r != cur_i and (r, cur_j) in unused]
            if not col_next:
                break
            cur_i = col_next[0]
            cycle.append((cur_i, cur_j))
            unused.discard((cur_i, cur_j))
            row_next = [c for c in adj_row[cur_i] if c != cur_j and (cur_i, c) in unused]
            if not row_next:
                break
            cur_j = row_next[0]
            cycle.append((cur_i, cur_j))
            unused.discard((cur_i, cur_j))
        cycles.append(cycle)
    return cycles


def _cycle_matchings(cycle: list[tuple[int, int]]) -> tuple[list, list]:
    """The two alternating perfect matchings of a simple cycle (edge lists)."""
    return cycle[0::2], cycle[1::2]


def _simplify_cycles(matching: TwoMatching, part: PartitionedInstance,
                     rng: np.random.Generator) -> TwoMatching:
    """Per cycle, pick the heaviest of: the cycle itself, or either alternating
    matching doubled; doubling is only allowed over all-rank-2 blocks, and
    keeping the cycle requires its restriction to stay full rank."""
    ranks = {(i, j): part.blocks[i][j].rank() for (i, j) in matching.support()}
    out: Counter = Counter()
    for cycle in _cycles_of(matching):
        if len(cycle) == 1:
            out[cycle[0]] += 2
            continue
        half_a, half_b = _cycle_matchings(cycle)
        candidates = []
        for half in (half_a, half_b):
            if all(ranks[e] == 2 for e in half):
                candidates.append((2 * sum(part.costs[i][j] for (i, j) in half),
                                   Counter({e: 2 for e in half})))
        whole_weight = sum(part.costs[i][j] for (i, j) in cycle)
        if _support_rank(part, cycle, rng) == len(cycle):
            candidates.append((whole_weight, Counter({e: 1 for e in cycle})))
        if not candidates:
            # cannot happen for a matching taken from a nonsingular pencil;
            # keep the cycle and let the caller's validation decide
            candidates.append((whole_weight, Counter({e: 1 for e in cycle})))
        candidates.sort(key=lambda t: t[0], reverse=True)
        out += candidates[0][1]
    return TwoMatching.from_multiset(out)


def solve_and_extract(part: PartitionedInstance, opts: SolveOptions | None = None
                      ) -> tuple[int | MinusInfinity, TwoMatching | None]:
    """deg det (= deg Det) of the weighted partitioned matrix together with a
    maximum-weight perfect consistent 2-matching witnessing it."""
    opts = opts or SolveOptions()
    if not part.edges():
        return MINUS_INFINITY, None
    inst = to_instance(part)
    report, pencil = solve_with_final_pencil(inst, opts)
    value = report.value
    if is_minus_infinity(value):
        return MINUS_INFINITY, None
    rng = np.random.default_rng(np.random.SeedSequence((opts.seed, 0x2A)))
    edges = part.edges()
    matching = None
    if pencil is not None:
        matching = _extract_from_pencil(part, leading(pencil).stack, edges, rng)
    if matching is not None:
        simplified = _simplify_cycles(matching, part, rng)
        if (simplified.weight(part.costs) == value
                and is_consistent(simplified, part, seed=int(rng.integers(0, 2**63)))):
            return value, simplified
        log.warning("pencil extraction produced a non-optimal matching; "
                    "falling back to enumeration")
    best_weight, witness = enumerate_perfect(part, seed=opts.seed)
    if best_weight != value or witness is None:
        raise ExtractionFailedError(
            f"no consistent 2-matching of weight {value} exists; enumeration found {best_weight}")
    return value, witness


def _extract_from_pencil(part: PartitionedInstance, stack: np.ndarray,
                         edges: list, rng: np.random.Generator) -> TwoMatching | None:
    """First perfect 2-matching whose support keeps the final leading pencil
    nonsingular under a random substitution."""
    n = part.n
    if n > 6:
        raise SizeLimitError("extraction enumeration is capped at n=6")
    index_of = {edge: k for k, edge in enumerate(edges)}
    allowed = set(edges)
    for matching in _perfect_two_matchings(n, allowed):
        keep = [index_of[e] for e in matching.support()]
        if _pencil_support_rank(stack, keep, part.p, rng) == 2 * n:
            return matching
    return None
