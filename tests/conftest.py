"""Shared fixtures and independent brute-force oracles.

The oracles here are deliberately written from scratch (pure Python, no
package kernels) so that agreement with the library is a real cross-check:
permutation-expansion determinant degrees, Gaussian rank, and exhaustive
matching enumeration.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from degdet import DEFAULT_PRIME, MINUS_INFINITY, ConstPencil

P = DEFAULT_PRIME


def perm_sign(perm) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def brute_rank_mod(rows, p) -> int:
    """Rank over GF(p) by textbook elimination on Python ints."""
    mat = [[int(x) % p for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if mat[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def brute_symbolic_degdet(mats, costs, p):
    """deg det of sum_k A_k x_k t^{c_k} by full permutation expansion.

    Tracks x-monomials with GF(p) coefficients so cancellations are exact.
    Exponential in n; for small fixtures only.
    """
    m = len(mats)
    n = len(mats[0])
    zero_mono = (0,) * m
    acc: dict = {}
    for perm in permutations(range(n)):
        sign = perm_sign(perm)
        poly = {(0, zero_mono): 1}
        for i in range(n):
            entries = [(k, int(mats[k][i][perm[i]]) % p) for k in range(m)
                       if int(mats[k][i][perm[i]]) % p]
            if not entries:
                poly = {}
                break
            nxt: dict = {}
            for (tdeg, mono), coeff in poly.items():
                for k, val in entries:
                    key = (tdeg + costs[k], mono[:k] + (mono[k] + 1,) + mono[k + 1:])
                    nxt[key] = (nxt.get(key, 0) + coeff * val) % p
            poly = {kk: v for kk, v in nxt.items() if v}
        for key, coeff in poly.items():
            total = (acc.get(key, 0) + sign * coeff) % p
            if total:
                acc[key] = total
            else:
                acc.pop(key, None)
    degrees = [tdeg for (tdeg, _mono) in acc]
    return max(degrees) if degrees else MINUS_INFINITY


def brute_matching_weight(grid):
    """Max-weight perfect matching by permutation enumeration; None = absent."""
    n = len(grid)
    best = None
    for perm in permutations(range(n)):
        if any(grid[i][perm[i]] is None for i in range(n)):
            continue
        w = sum(grid[i][perm[i]] for i in range(n))
        if best is None or w > best:
            best = w
    return MINUS_INFINITY if best is None else best


def unit_matrix(i, j, n):
    out = [[0] * n for _ in range(n)]
    out[i][j] = 1
    return out


def interleaved_pencils(p, seed):
    """Three terms u_k v of nc-rank 2 with zero slabs between them, and their live part."""
    rng = np.random.default_rng(seed)
    n = 4
    v = rng.integers(0, p, size=(2, n)).astype(object)
    live = [rng.integers(0, p, size=(n, 2)).astype(object) @ v % p for _ in range(3)]
    zero = np.zeros((n, n), dtype=int)
    full = ConstPencil(p, np.stack([zero, live[0], zero, zero, live[1], live[2], zero]))
    return full, ConstPencil(p, np.stack(live)), [1, 4, 5]


@pytest.fixture
def skew3():
    """The 3x3 skew pencil: commutative rank 2 everywhere, nc-rank 3."""
    def minus(a, b):
        return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]

    return [minus(unit_matrix(0, 1, 3), unit_matrix(1, 0, 3)),
            minus(unit_matrix(0, 2, 3), unit_matrix(2, 0, 3)),
            minus(unit_matrix(1, 2, 3), unit_matrix(2, 1, 3))]


@pytest.fixture
def bipartite_3x3_grid():
    return [[3, 1, 0], [1, 2, 1], [0, 1, 3]]
