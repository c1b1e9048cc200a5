"""Mixed forward differences with per-axis steps, plus integral cross-checks.

The closed stencil sum is the production path. A literal one-difference-at-a-
time form and an iterated-integral identity evaluated by Gauss-Legendre
quadrature are kept as independent routes to the same quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Callable

import numpy as np

from .multiindex import as_index, modulus

@dataclass(frozen=True)
class ScalarField:
    """Deterministic scalar function on points of R^d.

    The evaluator receives an ndarray whose last axis holds the d
    coordinates and returns values of the leading shape, so whole stencils
    and sample lattices evaluate in one call.
    """

    evaluator: Callable[[np.ndarray], "np.ndarray | float"]

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=np.float64))


def _evaluate(f, pts: np.ndarray) -> np.ndarray:
    return np.asarray(f(pts), dtype=np.float64)


@dataclass(frozen=True)
class DiffSpec:
    """A mixed-difference request: per-axis orders and positive step sizes."""

    order: tuple[int, ...]
    steps: tuple[float, ...]

    def __post_init__(self):
        order = as_index(self.order)
        steps = tuple(float(z) for z in self.steps)
        if len(steps) != len(order):
            raise ValueError("order and steps must have the same dimension")
        if any(z <= 0 for z in steps):
            raise ValueError("steps must be positive")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "steps", steps)

    @property
    def dim(self) -> int:
        return len(self.order)


def _stencil(order):
    """Offsets m <= order componentwise with signed binomial-product weights."""
    axes = [np.arange(k + 1, dtype=np.int64) for k in order]
    mesh = np.meshgrid(*axes, indexing="ij")
    offsets = np.stack(mesh, axis=-1).reshape(-1, len(order))
    weight = np.ones(offsets.shape[0])
    for i, k in enumerate(order):
        row = np.array([comb(k, m) for m in range(k + 1)], dtype=np.float64)
        weight *= row[offsets[:, i]]
    parity = (modulus(order) - offsets.sum(axis=1)) % 2
    return offsets, np.where(parity == 0, weight, -weight)


def delta_mixed(f, x, spec: DiffSpec):
    """Mixed forward difference as the alternating-sign closed stencil sum.

    Accepts a single point of shape (d,) or a batch of shape (..., d).
    """
    pts = np.asarray(x, dtype=np.float64)
    if pts.shape[-1] != spec.dim:
        raise ValueError("point dimension does not match the difference spec")
    offsets, weights = _stencil(spec.order)
    steps = np.asarray(spec.steps)
    stencil_pts = pts[..., None, :] + offsets * steps
    vals = _evaluate(f, stencil_pts)
    out = vals @ weights
    return float(out) if np.ndim(out) == 0 else out


def delta_mixed_iterated(f, x, spec: DiffSpec, axis_sequence=None):
    """Reference form applying one single-axis difference at a time.

    Exponential in the total order; retained as an independent check of the
    closed stencil and of operator commutativity. axis_sequence lists the
    axes in application order and must realize spec.order as a multiset.
    """
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim != 1:
        raise ValueError("iterated form handles a single point")
    if axis_sequence is None:
        axis_sequence = [i for i, k in enumerate(spec.order) for _ in range(k)]
    seq = [int(a) for a in axis_sequence]
    if [seq.count(i) for i in range(spec.dim)] != list(spec.order):
        raise ValueError("axis sequence does not realize the requested order")

    def recurse(point, depth):
        if depth == len(seq):
            return float(_evaluate(f, point))
        ax = seq[depth]
        bumped = point.copy()
        bumped[ax] += spec.steps[ax]
        return recurse(bumped, depth + 1) - recurse(point, depth + 1)

    return recurse(pts, 0)


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


def _axis_rule(x0, z, k, quad_points):
    """Quadrature nodes/weights for one axis of the collapsed nested integral.

    Order zero means no integration on the axis: a single node at x0 with
    weight one.
    """
    if k == 0:
        return np.array([x0]), np.array([1.0])
    t, wt = np.polynomial.legendre.leggauss(quad_points)
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
    quad_points nodes per unit range. Returns (lhs, rhs) so the caller can
    assert |lhs - rhs| against its own tolerance.
    """
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim != 1 or pts.size != spec.dim:
        raise ValueError("expected a single point matching the spec dimension")
    if quad_points < 1:
        raise ValueError("quad_points must be positive")
    lhs = delta_mixed(f, pts, spec)
    rules = [
        _axis_rule(pts[i], spec.steps[i], spec.order[i], quad_points)
        for i in range(spec.dim)
    ]
    grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    eval_pts = np.stack(grids, axis=-1)
    weights = np.ones(grids[0].shape)
    for w in np.meshgrid(*[r[1] for r in rules], indexing="ij"):
        weights = weights * w
    rhs = float(np.sum(weights * _evaluate(df, eval_pts)))
    return float(lhs), rhs
