"""The mixed forward difference one single-axis difference at a time: a
reference that the tests hold the package's closed stencil sum
(mvbernstein.delta_mixed) against, and by which they check that the
differences commute."""

from __future__ import annotations

import numpy as np

from mvbernstein.finite_diff import DiffSpec
from mvbernstein.multiindex import _integer


def delta_mixed_iterated(f, x, spec: DiffSpec, axis_sequence=None):
    """Reference form applying one single-axis difference at a time.

    Exponential in the total order; retained as an independent check of the
    closed stencil and of operator commutativity. axis_sequence lists the
    axes in application order and must realize spec.order as a multiset.
    """
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim != 1 or pts.size != spec.dim:
        raise ValueError("iterated form handles a single point matching the spec dimension")
    if axis_sequence is None:
        axis_sequence = [i for i, k in enumerate(spec.order) for _ in range(k)]
    seq = [_integer(a, "axis") for a in axis_sequence]
    if [seq.count(i) for i in range(spec.dim)] != list(spec.order):
        raise ValueError("axis sequence does not realize the requested order")

    def recurse(point, depth):
        if depth == len(seq):
            return float(np.asarray(f(point), dtype=np.float64))
        ax = seq[depth]
        bumped = point.copy()
        bumped[ax] += spec.steps[ax]
        return recurse(bumped, depth + 1) - recurse(point, depth + 1)

    return recurse(pts, 0)
