"""Discrete convexity toolkit on the integer lattice.

The one-step operator moves every coordinate of x one unit toward y; the
far-step operator moves only the coordinates realizing the l-infinity
distance.  A function is N-convex when, for every pair, the sum f(x) + f(y)
dominates the sum over both one-step images and over both far-step images.
These checks, together with the penalized linear objective used in the
sensitivity argument, are primarily a property-testing surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError

Point = tuple[int, ...]

INF = math.inf
#: steepest-descent moves before descend_to_minimizer gives up
MAX_DESCENT_MOVES = 10_000


def _check_dims(x: Point, y: Point):
    if len(x) != len(y):
        raise DimensionMismatchError(f"dimension mismatch: {len(x)} vs {len(y)}")
    if len(x) == 0:
        raise DimensionMismatchError("points must have positive dimension")


def step_to(x: Point, y: Point) -> Point:
    """x moved one unit toward y in every differing coordinate."""
    _check_dims(x, y)
    return tuple(xi + (1 if yi > xi else -1 if yi < xi else 0) for xi, yi in zip(x, y))


def far_step(x: Point, y: Point) -> Point:
    """One step from y back toward x, moving only coordinates at full distance.

    Equals the next-to-last point of the normal path from x to y; undefined
    for x == y.
    """
    _check_dims(x, y)
    d = max(abs(a - b) for a, b in zip(x, y))
    if d == 0:
        raise DimensionMismatchError("far_step is undefined for equal points")
    return tuple(yi + (1 if xi - yi == d else -1 if xi - yi == -d else 0)
                 for xi, yi in zip(x, y))


def normal_path(x: Point, y: Point) -> list[Point]:
    """The sequence x, x -> y, x ->^2 y, ..., y; length is linf(x, y) + 1."""
    _check_dims(x, y)
    path = [x]
    cur = x
    while cur != y:
        cur = step_to(cur, y)
        path.append(cur)
    return path


@dataclass(frozen=True)
class DiscreteFunction:
    """A total function on Z^dimension with values in R plus infinity."""

    dimension: int
    fn: Callable[[Point], float]

    def __call__(self, x: Point) -> float:
        if len(x) != self.dimension:
            raise DimensionMismatchError(
                f"point has dimension {len(x)}, function expects {self.dimension}")
        return self.fn(tuple(int(v) for v in x))


def check_pair(f: DiscreteFunction, x: Point, y: Point) -> bool:
    """Both N-convexity inequalities at the pair (x, y).

    Infinity is absorbing: a right side of infinity forces the left to be
    infinity too, and two infinities count as satisfied.
    """
    _check_dims(x, y)
    lhs = f(x) + f(y)
    if lhs >= INF:
        return True
    if f(step_to(x, y)) + f(step_to(y, x)) > lhs:
        return False
    if x != y:
        if f(far_step(y, x)) + f(far_step(x, y)) > lhs:
            return False
    return True


def sample_pairs(dimension: int, seed: int, count: int = 10_000,
                 box: tuple[int, int] = (-8, 8)) -> list[tuple[Point, Point]]:
    """Seeded uniform pairs inside the given coordinate box."""
    rng = np.random.default_rng(seed)
    lo, hi = box
    pts = rng.integers(lo, hi + 1, size=(count, 2, dimension))
    return [(tuple(int(v) for v in a), tuple(int(v) for v in b)) for a, b in pts]


def check_on_samples(f: DiscreteFunction, pairs: Iterable[tuple[Point, Point]]) -> bool:
    return all(check_pair(f, x, y) for x, y in pairs)


# -- stock function builders ------------------------------------------------


def linear_function(dimension: int, a: Sequence[float], b: float = 0.0) -> DiscreteFunction:
    a = tuple(a)
    return DiscreteFunction(dimension, lambda x: sum(ai * xi for ai, xi in zip(a, x)) + b)


def max_pair_function(dimension: int, i: int, j: int) -> DiscreteFunction:
    """x -> max(x_i + x_j, 0)."""
    return DiscreteFunction(dimension, lambda x: max(x[i] + x[j], 0))


def nonneg_combination(fs: Sequence[DiscreteFunction], weights: Sequence[float]) -> DiscreteFunction:
    if any(w < 0 for w in weights):
        raise DimensionMismatchError("combination weights must be nonnegative")
    dim = fs[0].dimension
    return DiscreteFunction(dim, lambda x: sum(w * f(x) for f, w in zip(fs, weights)))


def transformed(f: DiscreteFunction, translation: Point | None = None,
                swap: tuple[int, int] | None = None,
                negate_coord: int | None = None) -> DiscreteFunction:
    """f composed with a translation, a coordinate swap, or a sign change."""
    dim = f.dimension

    def apply(x: Point) -> float:
        z = list(x)
        if negate_coord is not None:
            z[negate_coord] = -z[negate_coord]
        if swap is not None:
            i, j = swap
            z[i], z[j] = z[j], z[i]
        if translation is not None:
            z = [zi + ti for zi, ti in zip(z, translation)]
        return f(tuple(z))

    return DiscreteFunction(dim, apply)


# -- the sensitivity barrier --------------------------------------------------


@dataclass(frozen=True)
class BarrierSpec:
    """Penalized objective on Z^n x Z^n: minus the coordinate sums, plus
    penalty * max(x_i + y_j + c, 0) for every listed constraint (i, j, k, c).

    The k component only labels which variable the constraint came from; the
    evaluated value ignores it.
    """

    n: int
    penalty: float
    constraints: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        if self.penalty <= 0:
            raise DimensionMismatchError("penalty must be positive")
        for (i, j, _, _) in self.constraints:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise DimensionMismatchError("constraint indices out of range")
        object.__setattr__(self, "constraints",
                           tuple((int(i), int(j), int(k), int(c))
                                 for (i, j, k, c) in self.constraints))


def barrier(spec: BarrierSpec) -> DiscreteFunction:
    """The barrier as a function of the concatenated point (x, y) in Z^{2n}."""
    n = spec.n

    def h(z: Point) -> float:
        x, y = z[:n], z[n:]
        value = -sum(x) - sum(y)
        for (i, j, _, c) in spec.constraints:
            value += spec.penalty * max(x[i] + y[j] + c, 0)
        return value

    return DiscreteFunction(2 * n, h)


def descend_to_minimizer(f: DiscreteFunction, start: Point) -> Point:
    """Steepest descent over the full {-1, 0, 1}^d neighborhood.

    For the barrier family (linear plus penalized max terms, an L-natural
    shape after flipping y) this local optimality is global.
    """
    dim = f.dimension
    moves = [m for m in product((-1, 0, 1), repeat=dim) if any(m)]
    cur = tuple(start)
    cur_val = f(cur)
    for _ in range(MAX_DESCENT_MOVES):
        best, best_val = None, cur_val
        for mv in moves:
            cand = tuple(c + d for c, d in zip(cur, mv))
            val = f(cand)
            if val < best_val:
                best, best_val = cand, val
        if best is None:
            return cur
        cur, cur_val = best, best_val
    raise DimensionMismatchError("descent failed to converge")
