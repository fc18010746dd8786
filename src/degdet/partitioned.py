"""2x2-partitioned matrices and maximum-weight consistent 2-matchings.

A perfect 2-matching (every left and right node incident to exactly two edge
slots) is a disjoint union of cycles, doubled edges included.  It is
consistent with a partitioned matrix when the rank of the matrix restricted
to its support equals its multiset size.  deg Det of the partitioned matrix
is the maximum weight of a consistent perfect 2-matching, so the witness for
the solver's value is a perfect 2-matching that weighs it and passes
:func:`is_consistent`.  The scan lists each perfect 2-matching once, on the
blocks tight in the final pencil PAQ, shrunk first: dropping blocks while a
substitution of the other degree-0 coefficients stays full rank leaves PA'Q
proper, so deg Det A' = deg Det A.  It is still exponential in the number of
tight 2-matchings at worst; no polynomial bound is claimed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, ExtractionFailedError, SizeLimitError
from .field_linalg import mod_rank
from .infinity import MINUS_INFINITY, MinusInfinity, is_minus_infinity
from .instances import Instance, PartitionedInstance
from .laurent import LaurentPencil, leading
from .ncrank import ConstPencil
from .solver import SolveOptions, solve_with_final_pencil

#: largest n that :func:`enumerate_perfect` enumerates
ENUMERATION_SIZE_LIMIT = 5


@dataclass(frozen=True)
class TwoMatching:
    """A multiset of bipartite edges with multiplicities in {1, 2}."""

    edges: tuple[tuple[int, int, int], ...]  # (row, col, multiplicity), sorted

    def __post_init__(self):
        norm = tuple(sorted((int(i), int(j), int(mult)) for (i, j, mult) in self.edges))
        if any(mult not in (1, 2) for (_, _, mult) in norm):
            raise DimensionMismatchError("edge multiplicities must be 1 or 2")
        object.__setattr__(self, "edges", norm)

    def multiset(self) -> Counter:
        return Counter({(i, j): mult for (i, j, mult) in self.edges})

    def size(self) -> int:
        return sum(mult for (_, _, mult) in self.edges)

    def support(self) -> set:
        return {(i, j) for (i, j, _) in self.edges}

    def degrees(self) -> tuple[Counter, Counter]:
        rows, cols = Counter(), Counter()
        for (i, j, mult) in self.edges:
            rows[i] += mult
            cols[j] += mult
        return rows, cols

    def is_valid(self) -> bool:
        rows, cols = self.degrees()
        return all(v <= 2 for v in rows.values()) and all(v <= 2 for v in cols.values())

    def is_perfect(self, n: int) -> bool:
        full = Counter(dict.fromkeys(range(n), 2))
        return self.degrees() == (full, full)

    def weight(self, costs: Sequence[Sequence[int]]) -> int:
        """Doubled edges pay their cost twice."""
        return sum(mult * costs[i][j] for (i, j, mult) in self.edges)


def to_instance(part: PartitionedInstance) -> Instance:
    """Embed each nonzero block at its position; term order is row-major."""
    edges = part.edges()
    if not edges:
        raise DimensionMismatchError("partitioned instance has no nonzero block")
    i, j = np.array(edges).T
    k, a, b = np.nonzero(part.blocks[i, j])  # term k is block edges[k], entry (a, b) of it
    pencil = ConstPencil._wrap(part.p, 2 * part.n, len(edges), k, 2 * i[k] + a, 2 * j[k] + b,
                               part.blocks[i[k], j[k], a, b])
    return Instance(part.modulus, pencil, [part.costs[r][c] for r, c in edges],
                    {"generator": "partitioned2x2-embedded", "edges": [list(e) for e in edges]})


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


def _perfect_two_matchings(part: PartitionedInstance, allowed: set
                           ) -> Iterator[tuple[int, TwoMatching]]:
    """(weight, matching) per perfect 2-matching on the `allowed` cells, each
    once.  Lazy backtracking row by row: a row takes two distinct allowed
    columns (tried first) or one allowed column twice, and no column is filled
    past two, so the n rows' 2n slots fill every column exactly twice."""
    rows = [sorted(j for (i, j) in allowed if i == row) for row in range(part.n)]

    def extend(row: int, fill: Counter, edges: tuple) -> Iterator[tuple[int, TwoMatching]]:
        if row == part.n:
            matching = TwoMatching(edges)
            yield matching.weight(part.costs), matching
            return
        for a, b in [*combinations(rows[row], 2), *zip(rows[row], rows[row])]:
            if fill[a] + (a == b) < 2 and fill[b] < 2:
                picked = ((row, a, 2),) if a == b else ((row, a, 1), (row, b, 1))
                yield from extend(row + 1, fill + Counter((a, b)), edges + picked)

    return extend(0, Counter(), ())


def enumerate_perfect(part: PartitionedInstance, seed: int = 0
                      ) -> tuple[int | MinusInfinity, TwoMatching | None]:
    """Exhaustive maximum-weight perfect consistent 2-matching (desk scale)."""
    if part.n > ENUMERATION_SIZE_LIMIT:
        raise SizeLimitError(f"enumeration is capped at n={ENUMERATION_SIZE_LIMIT}")
    best_weight: int | MinusInfinity = MINUS_INFINITY
    best = None
    for w, matching in _perfect_two_matchings(part, set(part.edges())):
        if (is_minus_infinity(best_weight) or w > best_weight) and is_consistent(
                matching, part, seed=seed):
            best_weight, best = w, matching
    return best_weight, best


def solve_and_extract(part: PartitionedInstance, opts: SolveOptions | None = None
                      ) -> tuple[int | MinusInfinity, TwoMatching | None]:
    """deg det (= deg Det) of the weighted partitioned matrix together with a
    maximum-weight perfect consistent 2-matching witnessing it.

    The witness is the first perfect 2-matching on the shrunk tight blocks,
    else on all tight blocks, that weighs the value and passes
    :func:`is_consistent`, which can only undershoot; so a returned witness is
    valid, and an unlucky substitution on every optimal matching raises
    ExtractionFailedError.  An nc-singular instance returns (-inf, None).
    """
    opts = opts or SolveOptions()
    if not part.edges():
        return MINUS_INFINITY, None
    report, pencil = solve_with_final_pencil(to_instance(part), opts)
    return report.value, extract_witness(part, report.value, pencil, opts)


def extract_witness(part: PartitionedInstance, value: int | MinusInfinity,
                    pencil: LaurentPencil | None, opts: SolveOptions) -> TwoMatching | None:
    """The witness of :func:`solve_and_extract`, from its solve's value and final pencil."""
    if is_minus_infinity(value):
        return None
    edges, p = part.edges(), part.p
    # the tight blocks (a degree-0 entry), in term order, less each one whose
    # removal keeps a random substitution of the remaining ones full rank
    top = leading(pencil)
    tight = np.flatnonzero(np.bincount(top.term, minlength=pencil.m))
    cells = [edges[k] for k in tight]
    lam = np.random.default_rng(np.random.SeedSequence((opts.seed, 0x2B))).integers(1, p, len(cells))
    terms = [top.substitute(c * (np.arange(pencil.m) == k)) for c, k in zip(lam, tight)]
    acc, kept = sum(terms) % p, []
    for cell, term in zip(cells, terms):
        if mod_rank(rest := (acc - term) % p, p) == pencil.n:
            acc = rest
        else:
            kept.append(cell)
    rng = np.random.default_rng(np.random.SeedSequence((opts.seed, 0x2A)))
    for allowed in (set(kept), set(cells)):
        for weight, matching in _perfect_two_matchings(part, allowed):
            if weight == value and is_consistent(matching, part, seed=int(rng.integers(0, 2**63))):
                return matching
    raise ExtractionFailedError(f"no consistent 2-matching of weight {value} was found")
