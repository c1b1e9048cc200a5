"""Mixed forward differences with per-axis steps, plus integral cross-checks.

The closed stencil sum is the production path. An iterated-integral
identity evaluated by Gauss-Legendre quadrature is kept as an independent
route to the same quantity; the tests hold a literal one-difference-at-a-time
form as a third (tests/iterated_difference.py).
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from math import comb, factorial, inf, prod
from typing import Callable

import numpy as np

from .bernstein import _blockwise
from .multiindex import _check_budget, _table_cache, as_index

@dataclass(frozen=True)
class ScalarField:
    """Deterministic scalar function on points of R^d.

    The evaluator receives an ndarray whose last axis holds the d
    coordinates and returns values of the leading shape, so a block of
    stencils or lattice points evaluates in one call. It is pointwise: each
    value depends on its own point only, which is what lets build_model,
    delta_mixed and the quadrature hand it their points in blocks of any
    split and get the same values as from one call.
    """

    evaluator: Callable[[np.ndarray], "np.ndarray | float"]

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class DiffSpec:
    """A mixed-difference request: per-axis orders and positive step sizes."""

    order: tuple[int, ...]
    steps: tuple[float, ...]

    def __post_init__(self):
        order = as_index(self.order)
        steps = tuple(self.steps)
        if any(isinstance(z, (bool, np.bool_)) for z in steps):
            raise ValueError(f"steps must be real numbers, not bools: {steps!r}")
        steps = tuple(float(z) for z in steps)
        if len(steps) != len(order):
            raise ValueError("order and steps must have the same dimension")
        if not all(0 < z < inf for z in steps):
            raise ValueError("steps must be positive and finite")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "steps", steps)

    @property
    def dim(self) -> int:
        return len(self.order)


@_table_cache
def _stencil(order):
    """Offsets m <= order componentwise with signed binomial-product weights,
    cached per order and read-only."""
    axes = [np.arange(k + 1, dtype=np.int64) for k in order]
    mesh = np.meshgrid(*axes, indexing="ij")
    offsets = np.stack(mesh, axis=-1).reshape(-1, len(order))
    weight = np.ones(offsets.shape[0])
    for i, k in enumerate(order):
        row = np.array([comb(k, m) for m in range(k + 1)], dtype=np.float64)
        weight *= row[offsets[:, i]]
    parity = (sum(order) - offsets.sum(axis=1)) % 2
    return offsets, np.where(parity == 0, weight, -weight)


def delta_mixed(f, x, spec: DiffSpec):
    """Mixed forward difference as the alternating-sign closed stencil sum.

    Accepts a single point of shape (d,) or a batch of shape (..., d). f
    receives the stencil points of blocks of the batch's first axis, shaped
    like the batch with a stencil axis before the last, or a single point's
    (stencil, d) array, in blocks of its rows past the chunk budget; f must
    be pointwise. The weighted sum runs once over every value. A NaN or
    infinite coordinate is a ValueError.
    """
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim == 0 or pts.shape[-1] != spec.dim:
        raise ValueError("point dimension does not match the difference spec")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point has a non-finite coordinate")
    offsets, weights = _stencil(spec.order)
    shift = offsets * np.asarray(spec.steps)
    if pts.ndim == 1:  # the rows are the point's stencil points
        shape, per_row, points = weights.shape, spec.dim, lambda rows: pts + shift[rows]
    else:
        shape, per_row = pts.shape[:-1] + weights.shape, prod(pts.shape[1:]) * weights.size
        points = lambda rows: pts[rows][..., None, :] + shift
    wrong = lambda got, want: f"f returned shape {got} for stencil values of {want}"
    vals = _blockwise(f, shape, per_row, points, wrong)
    out = vals @ weights
    return float(out) if np.ndim(out) == 0 else out


def _chain_kernel(offsets, z, k):
    """Density collapsing one axis chain of nested ranges to a single integral.

    Equals z^(k-1) times the k-fold uniform-sum density at offsets/z;
    piecewise polynomial with breakpoints at integer multiples of z.
    """
    u = offsets / z
    acc = np.zeros_like(u)
    for m in range(k):
        acc += (-1.0) ** m * comb(k, m) * np.clip(u - m, 0.0, None) ** (k - 1)
    return z ** (k - 1) * acc / factorial(k - 1)


@_table_cache
def _gauss_rule(quad_points: int):
    """Nodes and weights of the quad_points-node Gauss-Legendre rule on
    [-1, 1], cached and read-only."""
    return np.polynomial.legendre.leggauss(quad_points)


def _axis_rule(x0, z, k, quad_points):
    """Quadrature nodes/weights for one axis of the collapsed nested integral.

    Order zero means no integration on the axis: a single node at x0 with
    weight one.
    """
    if k == 0:
        return np.array([x0]), np.array([1.0])
    t, wt = _gauss_rule(quad_points)
    nodes, weights = [], []
    for piece in range(k):
        left = x0 + piece * z
        mid = left + (t + 1.0) * (z / 2.0)
        nodes.append(mid)
        weights.append(wt * (z / 2.0) * _chain_kernel(mid - x0, z, k))
    return np.concatenate(nodes), np.concatenate(weights)


def difference_integral_check(f, df, x, spec: DiffSpec, quad_points: int = 32):
    """Compare a mixed difference of f with the iterated integral of df.

    df must evaluate the mixed partial of f of the spec's order. The nested
    one-dimensional ranges (k_i levels on axis i, each of width z_i) are
    integrated axis by axis after collapsing every chain to one kernel-
    weighted integral; quadrature is composite Gauss-Legendre with
    quad_points nodes per unit range, an int: a bool or a float such as 32.0
    is a TypeError. Returns (lhs, rhs) so the caller can assert
    |lhs - rhs| against its own tolerance.

    The node grid holds prod_i (k_i quad_points or 1) nodes, each with a
    weight, a value of df and their product; with the q x q companion
    matrix of the Gauss-Legendre rule, past MEMORY_BUDGET that is a
    SizeError naming the node count, raised before f is called. df receives
    the nodes one block of the first axis at a time, and must be pointwise,
    one value per node; another shape is a ValueError naming both shapes.
    """
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim != 1 or pts.size != spec.dim:
        raise ValueError("expected a single point matching the spec dimension")
    if isinstance(quad_points, bool) or not isinstance(quad_points, numbers.Integral):
        raise TypeError(f"quad_points must be an integer, got {quad_points!r}")
    quad_points = int(quad_points)
    if quad_points < 1:
        raise ValueError("quad_points must be positive")
    nodes = prod(k * quad_points if k else 1 for k in spec.order)
    need = 24 * nodes + 8 * quad_points**2
    what = "a quadrature grid of {:,} nodes at {:,} points per unit range needs {} GiB"
    _check_budget(what, (nodes, quad_points), need)
    lhs = delta_mixed(f, pts, spec)
    rules = [
        _axis_rule(pts[i], spec.steps[i], spec.order[i], quad_points)
        for i in range(spec.dim)
    ]
    axes = [r[0] for r in rules]
    weights = functools.reduce(np.multiply, np.ix_(*[r[1] for r in rules]))
    points = lambda rows: np.stack(np.broadcast_arrays(*np.ix_(axes[0][rows], *axes[1:])), axis=-1)
    wrong = lambda got, want: f"df returned shape {got} for node values of {want}"
    vals = _blockwise(df, weights.shape, prod(weights.shape[1:]) * spec.dim, points, wrong)
    rhs = float(np.sum(weights * vals))
    return float(lhs), rhs
