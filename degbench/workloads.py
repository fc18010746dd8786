"""The benchmark's workloads: instances made from a seed, each with a reference.

Every case carries an independent reference for its value.  The references
are either a different algorithm (Hungarian matching, exhaustive 2-matching
enumeration) or a closed form that this file certifies with its own exact
integer arithmetic (Python ints, none of the package's GF(p) kernels).  A
closed form that cannot be certified leaves the case unchecked, never passed.

The package is passed in as the module object ``dd``, which the caller
imports from the checkout's ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

COST = 10**6
MATCHING_SIZES = (16, 20, 24)
RANK1_N, RANK1_M = 24, 48
PARTITIONED_N = 5
RATIONAL_N, RATIONAL_M, RATIONAL_ENTRY_BOUND = 5, 6, 10
RATIONAL_INSTANCES = 4
SPARSE_SIZES = (20, 20, 24, 24)
SPARSE_DENSITY = 0.13
GAP_COST = 100
# The repro corpus of ROADMAP's "no answer without a witness" item, pinned: its
# seeds are the defect's witnesses and must not follow the workload seed
# (re-seeding would hide the failures).
TINY_PRIMES = (5, 7, 11)
TINY_SEEDS = range(60)
TINY_N, TINY_DENSITY, TINY_COST = 5, 0.6, 5

WORKLOADS = ("matching-1e6", "rational-1e6", "nc-edge")
# The instance the CLI subprocess also solves is pinned, so that cli_solve_s
# follows the CLI path rather than how hard that seed's instance happens to be.
PINNED_SEED = 7


@dataclass
class Case:
    """One instance to solve, with its reference value.

    ``kind`` selects the public entry point: ``field`` (solver.solve),
    ``partitioned`` (partitioned.solve_and_extract) or ``rational``
    (rational.solve_rational_report).  ``reference`` is an int, the string
    ``"-inf"``, or None when the closed form could not be certified.
    """

    cid: str
    kind: str
    instance: object
    solve_seed: int
    reference: object = None
    ref_note: str = ""
    data: dict = field(default_factory=dict)


def skew3_mats() -> list[np.ndarray]:
    """The 3x3 skew pencil: commutative rank 2 everywhere, nc-rank 3."""
    out = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        m = np.zeros((3, 3), dtype=np.int64)
        m[a, b], m[b, a] = 1, -1
        out.append(m)
    return out


def skew3_plus_block(dd, skew_costs, block_weights, p):
    """skew3 (+) a 2x2 bipartite block: deg Det adds over the diagonal blocks."""
    mats, costs = [], []
    for mat, c in zip(skew3_mats(), skew_costs):
        big = np.zeros((5, 5), dtype=np.int64)
        big[:3, :3] = mat
        mats.append(big)
        costs.append(int(c))
    for i in range(2):
        for j in range(2):
            big = np.zeros((5, 5), dtype=np.int64)
            big[3 + i, 3 + j] = 1
            mats.append(big)
            costs.append(int(block_weights[i][j]))
    return dd.instances.Instance.from_arrays(p, mats, costs, {"generator": "skew3+block"})


# ---------------------------------------------------------------------------
# Exact integer arithmetic for the closed-form references


def det_int(rows) -> int:
    """Determinant of a square integer matrix (Bareiss, exact)."""
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def det_mod(rows, p: int) -> int:
    """Determinant mod p by Gaussian elimination on Python ints."""
    a = [[int(x) % p for x in row] for row in rows]
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k] % p
        inv = pow(a[k][k], p - 2, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det % p


def rank1_reference(mats, costs, n: int, p: int):
    """Top-n cost sum, certified when the top-n set is unique and nonsingular.

    For rank-1 terms u_k v_k^T, Cauchy-Binet makes the coefficient of
    prod_{k in S} x_k in det equal to det(sum_{k in S} A_k) for |S| = n, so
    the unique top set gives the top degree exactly when that determinant
    is nonzero; no common base can weigh more than the top-n sum.
    """
    order = sorted(range(len(costs)), key=lambda k: costs[k], reverse=True)
    if len(costs) > n and costs[order[n - 1]] == costs[order[n]]:
        return None, "tie at the top-n boundary"
    top = order[:n]
    total = sum(np.asarray(mats[k], dtype=object) for k in top)
    if det_mod(total.tolist(), p) == 0:
        return None, "top-n set is singular"
    return sum(costs[k] for k in top), "top-n cost sum"


def ncmax_reference(mats, costs, n: int):
    """n * c_max over Q, certified when c_max is unique and A_top is nonsingular.

    The monomial x_top^n t^{n c_max} then has coefficient det(A_top) != 0 and
    no other monomial reaches its degree, while no entry exceeds c_max.
    """
    cmax = max(costs)
    if list(costs).count(cmax) != 1:
        return None, "maximum cost not unique"
    if det_int(mats[list(costs).index(cmax)]) == 0:
        return None, "top-cost matrix is singular over Z"
    return n * cmax, "n * c_max"


# ---------------------------------------------------------------------------
# Workload builders


def _matching(dd, seed: int) -> list[Case]:
    I = dd.instances
    cases = []
    for k, n in enumerate(MATCHING_SIZES):
        # The CLI instance and the n = 24 instance are those of seed 7: the
        # n = 24 solve is the slowest and sets solve_s.tail, and its
        # oracle-call count varies from 48 to 71 with the seed.
        if k == 0:
            s = PINNED_SEED
        else:
            s = 1000 * (PINNED_SEED if n == MATCHING_SIZES[-1] else seed) + 100 + k
        grid = I.random_bipartite_weights(n, s, (-COST, COST))
        cases.append(Case(f"bipartite-n{n}-{k}", "field", I.gen_bipartite(grid), s,
                          data={"weights": grid}))
    s = 1000 * seed + 1
    cases.append(Case(f"rank1-n{RANK1_N}", "field",
                      I.gen_rank1(RANK1_N, RANK1_M, s, (-COST, COST)), s))
    s = 1000 * seed + 2
    profile = I.random_rank_profile(PARTITIONED_N, s)
    cases.append(Case(f"partitioned-n{PARTITIONED_N}", "partitioned",
                      I.gen_2x2(PARTITIONED_N, s, profile, (-COST, COST)), s))
    return cases


def _rational(dd, seed: int) -> list[Case]:
    seeds = [PINNED_SEED] + [1000 * seed + k for k in range(1, RATIONAL_INSTANCES)]
    return [Case(f"integer-{k}", "rational",
                 dd.instances.gen_integer(RATIONAL_N, RATIONAL_M, s,
                                          RATIONAL_ENTRY_BOUND, (-COST, COST)), s)
            for k, s in enumerate(seeds)]


def _sparse_singular_grid(dd, n: int, seed: int):
    """Exactly round(density n^2) random cells, redrawn until no perfect matching.

    A fixed cell count fixes the number of terms, which the blow-up rank test
    scales with; the redraw is part of the workload's definition.
    """
    cells = round(SPARSE_DENSITY * n * n)
    attempt = 0
    while True:
        rng = np.random.default_rng([seed, attempt])
        grid = [[None] * n for _ in range(n)]
        for idx in rng.choice(n * n, size=cells, replace=False):
            grid[idx // n][idx % n] = int(rng.integers(-COST, COST + 1))
        if dd.oracles.hungarian(grid) == dd.MINUS_INFINITY:
            return grid
        attempt += 1


def _nc_edge(dd, seed: int) -> list[Case]:
    I = dd.instances
    P = dd.DEFAULT_PRIME
    cases = []
    for k, n in enumerate(SPARSE_SIZES):
        s = 1000 * seed + 200 + k
        grid = _sparse_singular_grid(dd, n, s)
        cases.append(Case(f"sparse-n{n}-{k}", "field", I.gen_bipartite(grid), s,
                          data={"weights": grid}))
    for label, costs in (("skew3-1e3", (10**3, 3, 7)), ("skew3-1e6", (10**6, 3, 7))):
        cases.append(Case(label, "field", I.Instance.from_arrays(P, skew3_mats(), costs),
                          PINNED_SEED, data={"skew_costs": costs}))
    # The costs span exactly [-GAP_COST, GAP_COST], so the blow-up fallback
    # interpolates through the same number of points for every seed.
    rng = np.random.default_rng(1000 * seed + 3)
    skew_costs = [int(c) for c in rng.permutation(
        [GAP_COST, -GAP_COST, int(rng.integers(-GAP_COST, GAP_COST + 1))])]
    block = [[int(c) for c in row] for row in rng.integers(-GAP_COST, GAP_COST + 1, size=(2, 2))]
    cases.append(Case("skew3+block", "field", skew3_plus_block(dd, skew_costs, block, P),
                      1000 * seed + 3, data={"skew_costs": skew_costs, "weights": block}))
    tiny = []
    for p in TINY_PRIMES:
        for s in TINY_SEEDS:
            grid = I.random_bipartite_weights(TINY_N, s, (-TINY_COST, TINY_COST), TINY_DENSITY)
            tiny.append(Case(f"tiny-p{p}-s{s}", "field", I.gen_bipartite(grid, p=p), s,
                             data={"weights": grid}))
    # A share of the tiny solves after each larger one, so that the tiny solves,
    # which set solve_s.p50 and solve_s.tail, are spread over the whole pass.
    step = len(cases)
    return [c for k, big in enumerate(cases) for c in [big] + tiny[k::step]]


_BUILDERS = {"matching-1e6": _matching, "rational-1e6": _rational, "nc-edge": _nc_edge}

# The case whose file the CLI subprocess solves, per workload; each is pinned.
CLI_CASE = {"matching-1e6": "bipartite-n16-0", "rational-1e6": "integer-0",
            "nc-edge": "skew3-1e3"}


def build(dd, workload: str, seed: int) -> list[Case]:
    """The workload's cases for this seed, without references."""
    return _BUILDERS[workload](dd, seed)


def attach_references(dd, cases: list[Case]) -> None:
    """Fill in every case's reference from the generation data."""
    for case in cases:
        inst = case.instance
        if "skew_costs" in case.data:
            ref = sum(case.data["skew_costs"])
            if "weights" in case.data:
                ref += dd.oracles.hungarian(case.data["weights"])
            case.reference, case.ref_note = ref, "skew cost sum (+ Hungarian block)"
        elif "weights" in case.data:
            case.reference = dd.oracles.hungarian(case.data["weights"])
            case.ref_note = "Hungarian"
        elif case.kind == "partitioned":
            case.reference = dd.partitioned.enumerate_perfect(inst, seed=case.solve_seed)[0]
            case.ref_note = "exhaustive 2-matching enumeration"
        elif case.kind == "rational":
            case.reference, case.ref_note = ncmax_reference(inst.mats, inst.costs, inst.n)
        else:
            case.reference, case.ref_note = rank1_reference(
                [m.data for m in inst.mats], inst.costs, inst.n, inst.p)
        if dd.is_minus_infinity(case.reference):
            case.reference = "-inf"
