"""Independent computations of deg det / deg Det used to cross-check the solver.

Four routes, none of which share code with the main descent loop:

* evaluation/interpolation of the commutative determinant degree after a
  random scalar substitution (geometric evaluation points, Newton form);
* the blow-up reduction deg Det = deg det(blow-up) / d at d = n - 1;
* an exact maximum-weight perfect-matching solver for bipartite instances;
* the full permutation expansion of det A at desk scale, which yields the
  exponent support and its linear-optimization value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

import numpy as np

from .errors import (DimensionMismatchError, PrecisionUnsupportedError,
                     RetryExhaustedError, SizeLimitError)
from .field_linalg import as_residues, batch_pow, mod_matmul
from .infinity import MINUS_INFINITY, MinusInfinity, is_minus_infinity
from .instances import Instance
from .ncrank import build_blowup

#: A bipartite instance with no perfect matching has deg Det = -infinity,
#: so the two outcomes share the one distinguished value.
INFEASIBLE = MINUS_INFINITY

#: random substitutions per interpolation; the largest degree found wins
TRIALS = 3
#: most evaluation points one interpolation may take (desk-scale costs)
POINT_BUDGET = 500_000
#: reseeded blow-up interpolations before RetryExhaustedError
BLOWUP_RETRIES = 4
#: largest n that :func:`newton_small` expands
NEWTON_SIZE_LIMIT = 7


def batch_det(mats: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a (B, k, k) stack, eliminated in lockstep."""
    A = as_residues(mats, p)
    nbatch, k, _ = A.shape
    det = np.ones(nbatch, dtype=A.dtype)
    for col in range(k):
        nz = A[:, col:, col] != 0
        has = nz.any(axis=1)
        det[~has] = 0
        rel = np.argmax(nz, axis=1)
        piv = col + rel
        need = np.nonzero((piv != col) & has)[0]
        if need.size:
            tmp = A[need, col].copy()
            A[need, col] = A[need, piv[need]]
            A[need, piv[need]] = tmp
            det[need] = (p - det[need]) % p
        pivvals = A[:, col, col].copy()
        det = det * pivvals % p
        if col + 1 < k:
            inv = batch_pow(pivvals, p - 2, p)
            factors = A[:, col + 1:, col] * inv[:, None] % p
            A[:, col + 1:, col:] = (A[:, col + 1:, col:]
                                    - factors[:, :, None] * A[:, col, None, col:]) % p
    return det


def _geometric_base(p: int, npts: int, rng: np.random.Generator) -> int:
    """An element g whose first npts powers 1, g, g^2, ... are distinct."""
    candidates = [3, 5, 6, 7, 10, 11, 12, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29]
    candidates += [int(rng.integers(2, p - 1)) for _ in range(20)]
    for g in candidates:
        if g % p in (0, 1):
            continue
        val = 1
        for _ in range(1, npts):
            val = val * g % p
            if val == 1:  # order of g is below npts
                break
        else:  # g^i = g^j with i < j < npts would give g^(j-i) = 1
            return g % p
    raise PrecisionUnsupportedError(
        f"found no evaluation base with {npts} distinct powers mod {p}")


def _newton_degree_geometric(g: int, values: np.ndarray, p: int) -> int | None:
    """Degree of the interpolant through (g^j, values[j]); None if identically 0.

    In Newton form the top nonzero coefficient index is the degree, and the
    geometric nodes collapse every divided-difference denominator to
    g^{j-level} (g^level - 1).
    """
    npts = values.shape[0]
    coef = as_residues(values, p)
    if npts > 1:
        inv_g = pow(g, p - 2, p)
        inv_gpow = np.empty(npts, dtype=np.int64)
        inv_gpow[0] = 1
        for j in range(1, npts):
            inv_gpow[j] = inv_gpow[j - 1] * inv_g % p
        glevels = np.empty(npts - 1, dtype=np.int64)
        acc = 1
        for lvl in range(1, npts):
            acc = acc * g % p
            glevels[lvl - 1] = acc
        denom_inv = batch_pow((glevels - 1) % p, p - 2, p)
        for lvl in range(1, npts):
            scale = inv_gpow[: npts - lvl] * denom_inv[lvl - 1] % p
            coef[lvl:] = (coef[lvl:] - coef[lvl - 1: npts - 1]) * scale % p
    nz = np.nonzero(coef)[0]
    return None if nz.size == 0 else int(nz[-1])


def degdet_commutative(inst: Instance, seed: int = 0) -> int | MinusInfinity:
    """deg det after substituting random scalars for the symbolic variables.

    Each of the TRIALS substitutions can only undershoot the symbolic deg
    det; their maximum equals it with high probability.  Requires p > n*C + 1
    evaluation headroom once costs are shifted nonnegative.  POINT_BUDGET
    turns a cost range this oracle cannot handle at desk scale into an error
    instead of an hours-long interpolation.
    """
    p, n, m = inst.p, inst.n, inst.m
    b = max(0, -min(inst.costs))
    cshift = [c + b for c in inst.costs]
    cmax = max(cshift)
    npts = n * cmax + 1
    if p <= npts + 1:
        raise PrecisionUnsupportedError(
            f"modulus {p} too small for {npts} evaluation points")
    if npts > POINT_BUDGET:
        raise SizeLimitError(
            f"interpolation needs {npts} points, over the budget of {POINT_BUDGET}; "
            "this oracle is meant for desk-scale costs")
    rng = np.random.default_rng(seed)
    g = _geometric_base(p, npts, rng)
    stack = inst.stack
    if stack.dtype == object:
        raise PrecisionUnsupportedError("interpolation oracle supports int64 moduli only")
    ratios = np.array([pow(g, c, p) for c in cshift], dtype=np.int64)
    powers = np.empty((npts, m), dtype=np.int64)
    powers[0] = 1
    for j in range(1, npts):
        powers[j] = powers[j - 1] * ratios % p
    best: int | MinusInfinity = MINUS_INFINITY
    for _ in range(TRIALS):
        lam = rng.integers(0, p, size=m)
        scaled = lam[:, None, None] * stack % p
        evals = mod_matmul(powers, scaled.reshape(m, n * n), p).reshape(npts, n, n)
        dets = batch_det(evals, p)
        deg = _newton_degree_geometric(g, dets, p)
        if deg is not None:
            shifted_deg = deg - n * b
            if is_minus_infinity(best) or shifted_deg > best:
                best = shifted_deg
    return best


def degdet_blowup(inst: Instance, seed: int = 0) -> int | MinusInfinity:
    """deg Det through the d-blow-up at d = max(1, n-1).

    Every blow-up variable inherits the cost of its parent; the blow-up's
    commutative degree is an exact multiple of d, so a non-multiple signals
    an unlucky substitution and triggers a reseeded retry, BLOWUP_RETRIES in
    all.
    """
    n = inst.n
    d = max(1, n - 1)
    if d == 1:
        return degdet_commutative(inst, seed=seed)
    costs = [c for c in inst.costs for _ in range(d * d)]
    blow_inst = Instance(inst.modulus, build_blowup(inst.pencil, d), costs,
                         {"blowup_of": dict(inst.meta), "d": d})
    seeds = np.random.SeedSequence(seed).spawn(BLOWUP_RETRIES)
    last = None
    for child in seeds:
        value = degdet_commutative(blow_inst, seed=child.generate_state(1)[0].item())
        if is_minus_infinity(value):
            return MINUS_INFINITY
        if value % d == 0:
            return value // d
        last = value
    raise RetryExhaustedError(
        f"blow-up degree {last} not a multiple of d={d} after {BLOWUP_RETRIES} retries")


def hungarian(weights: Sequence[Sequence[int | None]]) -> int | MinusInfinity:
    """Exact maximum-weight perfect matching; INFEASIBLE when none exists.

    Shortest-augmenting-path assignment with integer potentials; absent cells
    become a forbidden cost large enough that any all-present assignment wins,
    so feasibility drops out of the optimal support.
    """
    n = len(weights)
    if n == 0 or any(len(row) != n for row in weights):
        raise DimensionMismatchError("weights must form a nonempty square grid")
    wmax = max((abs(w) for row in weights for w in row if w is not None), default=0)
    big = (2 * wmax + 1) * (n + 1) + 1
    inf = big * (n + 2)
    a = [[0] * (n + 1)]
    for i in range(n):
        a.append([0] + [big if weights[i][j] is None else -int(weights[i][j])
                        for j in range(n)])
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row assigned to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = a[i0][j] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    total = 0
    for j in range(1, n + 1):
        i = match[j]
        if weights[i - 1][j - 1] is None:
            return INFEASIBLE
        total += a[i][j]
    return -total


@dataclass(frozen=True)
class NewtonSupport:
    """Exponent vectors of det A (after GF(p) cancellation) and their LP value."""

    m: int
    n: int
    vertices: frozenset

    def lp(self, costs: Sequence[int]) -> int | MinusInfinity:
        if len(costs) != self.m:
            raise DimensionMismatchError("cost vector length must equal m")
        if not self.vertices:
            return MINUS_INFINITY
        return max(sum(c * u for c, u in zip(costs, vec)) for vec in self.vertices)


def newton_small(inst: Instance) -> NewtonSupport:
    """Exponent support of det(sum_k A_k x_k) by full permutation expansion.

    Coefficients are tracked over GF(p), so cancellations are respected.
    Limited to n <= NEWTON_SIZE_LIMIT = 7 (the expansion has n! products).
    """
    p, n, m, pen = inst.p, inst.n, inst.m, inst.pencil
    if n > NEWTON_SIZE_LIMIT:
        raise SizeLimitError(f"newton_small is capped at n={NEWTON_SIZE_LIMIT}, got {n}")
    entries = [[{} for _ in range(n)] for _ in range(n)]  # entries[i][j] = {k: A_k[i, j]}
    for k, i, j, val in zip(*(arr.tolist() for arr in (pen.term, pen.row, pen.col, pen.value))):
        entries[i][j][k] = val
    total: dict[tuple[int, ...], int] = {}
    zero_exp = (0,) * m
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        poly = {zero_exp: 1}
        for i in range(n):
            linear = entries[i][perm[i]]
            if not linear:
                poly = {}
                break
            nxt: dict[tuple[int, ...], int] = {}
            for mono, coeff in poly.items():
                for k, val in linear.items():
                    key = mono[:k] + (mono[k] + 1,) + mono[k + 1:]
                    nxt[key] = (nxt.get(key, 0) + coeff * val) % p
            poly = {mo: c for mo, c in nxt.items() if c}
        for mono, coeff in poly.items():
            acc = (total.get(mono, 0) + sign * coeff) % p
            if acc:
                total[mono] = acc
            else:
                total.pop(mono, None)
    return NewtonSupport(m, n, frozenset(total))


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
