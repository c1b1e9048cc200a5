"""Samplers and a Monte Carlo estimator mirroring the deterministic evaluators.

The order-k partial of a kind's polynomial is an expectation over vectors
of scaled counts drawn per simplex block at its trial count n - |k_b|: a
1-wide block (a cube axis) gives a binomial count, a w-wide block the
first w counts of a multinomial over w+1 categories. At order 0, the
value, the expectation is of f, otherwise of f's scaled mixed
differences. One estimator serves both, mc_eval and mc_deriv being its
entry points. All streams come from a counter-based Philox generator
keyed by (seed, operation tag).

Every draw lands on a lattice: its count vector lies in the box of
(t_i + 1) values per axis, t_i being axis i's trial count. When that box
has no more entries than there are draws, f, each stencil sum or each
deviation of lln_diagnostic is made once per lattice point the draws
hit, and each draw takes its point's value; past that box rule, once per
draw. f is pointwise, as a ScalarField is and as build_model already
requires, and a hit point is bit-equal to its draws' points, so both
routes give each draw the same value and every report is the same, bit
for bit. One exception lies in BLAS: OpenBLAS can round a sum of 8 or
more stencil values by the row it has in the batch, so at such orders
the per-draw route may give one point's draws values a last bit apart,
where the lattice route gives each the point's one value.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import bernstein
from .bernstein import (
    Kind,
    _blockwise,
    _check_model,
    _point_order,
    _prepare_points,
    _reduced_degrees,
    _scale,
    _slices,
    _widths,
    derivative,
)
from .finite_diff import DiffSpec, delta_mixed
from .multiindex import _check_budget, _degree, _degrees, _integer, as_index

# Spread below these levels is roundoff, not sampling variance: the integrand
# is constant (often zero) in exact arithmetic and the estimate is reported
# with zero standard error. The absolute floor covers annihilated derivatives
# whose values hover around zero at the noise scale of the stencil.
_NEAR_CONSTANT_REL = 1e-10
_NEAR_CONSTANT_ABS = 1e-9


@dataclass(frozen=True)
class McReport:
    """Monte Carlo estimate, its standard error, and a deterministic reference."""

    estimate: float
    std_error: float
    samples: int
    reference: float | None = None


def z_score(report: McReport) -> float:
    """(estimate - reference) / std_error, 0 for exact zero-variance agreement."""
    if not isinstance(report, McReport):
        raise TypeError(f"report must be an McReport, not {type(report).__name__}")
    if report.reference is None:
        raise ValueError("report carries no reference value")
    diff = report.estimate - report.reference
    if report.std_error == 0.0:
        if abs(diff) <= 1e-12 + 1e-9 * abs(report.reference):
            return 0.0
        return math.inf if diff > 0 else -math.inf
    return diff / report.std_error


def _stream(seed: int, tag: str) -> np.random.Generator:
    """Philox stream derived deterministically from a seed and an operation tag."""
    seed = _integer(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    key = zlib.crc32(tag.encode("utf8"))
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    return np.random.Generator(np.random.Philox(ss))


def _single_point(x, kind: Kind, d: int | None = None):
    """The one (d,) point of x, clamped onto the kind's domain; a batch of
    several points raises instead of being cut to its first row. With d
    None the point sets the dimension."""
    P, _ = _prepare_points(x, kind, d)
    if P.shape[0] != 1:
        raise ValueError(f"expected a single point, got {P.shape[0]} points")
    return P[0]


def _multinomial_projection(n: int, p: np.ndarray, rng: np.random.Generator, m: int):
    """m draws of the first w counts of n trials over w+1 categories with
    probabilities (p, 1-|p|), p a point of the w-simplex, as an (m, w) array.

    Drawn as sequential conditional binomials: category i receives a
    binomial share of the remaining trials with the renormalized
    probability p_i / remaining mass.
    """
    remaining = np.full(m, n, dtype=np.int64)
    mass = 1.0
    counts = np.zeros((m, p.size), dtype=np.int64)
    for i in range(p.size):
        if p[i] <= 0.0:
            cond = 0.0
        elif mass <= p[i]:
            cond = 1.0
        else:
            cond = p[i] / mass
        counts[:, i] = rng.binomial(remaining, cond)
        remaining -= counts[:, i]
        mass = max(mass - p[i], 0.0)
    return counts


def _sample_count(samples) -> int:
    """The number of draws as an int of at least 1, or a ValueError naming it."""
    m = _integer(samples, "sample count")
    if m < 1:
        raise ValueError("at least one sample is required")
    return m


def _lattice_box(trials, samples: int):
    """The box the draws' count vectors lie in, t_i + 1 values on axis i for
    trial counts t_i; None when it has more entries than there are draws,
    where evaluating per draw is the cheaper route (the box rule)."""
    box = tuple(int(t) + 1 for t in trials)
    return box if math.prod(box) <= samples else None


def _lattice_bytes(samples: int, box, stencil: int) -> int:
    """Bytes the lattice route takes beside the draws. Per draw: its key,
    then its row of the hit points, its gathered value and a temporary of
    _summarize. Per entry of the box: its hit count and flag, and its row
    number (a cumulative sum and its shift); once hit, its key, its count
    vector three times (decoded, stacked, scaled), its stencil values,
    their sum and its scaled value. And once, f's block of stencil points
    with the arrays f makes from it, which the chunk budget bounds."""
    entries = math.prod(box)
    block = 8 * min(bernstein._CHUNK_FLOATS, 8 * entries * stencil * len(box))
    return samples * 24 + entries * 8 * (7 + 3 * len(box) + stencil) + block


def _factors(kind: Kind, d: int) -> tuple[tuple[int, ...], ...]:
    """The kind's block widths grouped into the factors _draw_points draws
    in one call each: a mixed kind's block, then its cube axes; any other
    kind whole. That keeps each kind's draw stream as it was when each kind
    had its own sampler, so cube and mixed(1), alike in widths, draw apart."""
    widths = _widths(kind, d)
    split = 1 if kind.name == "mixed" else len(widths)
    return tuple(factor for factor in (widths[:split], widths[split:]) if factor)


def _draw_points(factors, trials, n: int, p, rng, m: int, stencil: int):
    """The points counts / n, n the model degree, that m draws of count
    vectors ask a value at, and the index giving each draw its point's row.

    trials holds each axis's trial count. Each factor of blocks draws in
    one call: a run of 1-wide blocks as independent binomials, a wider
    block as a multinomial projection. A 1-wide block drawn either way
    gives the same counts from the same stream. Past the box rule of
    _lattice_box every draw is its own point. Within it each draw's count
    vector gets its key in the box in mixed radix, and the points are the
    box's entries the draws hit, in key order, decoded from their keys:
    each is made by the same division as its draws' points, so it is
    bit-equal to them. The counts and one factor's draw, or their scaled
    copy, take m * d * 16 bytes. The work on the points is counted from
    the stencil, f's values per point (1 for a value or a deviation): per
    draw, its stencil values and three floats more, with one block of
    points and the arrays f makes from it; on the lattice route, as
    _lattice_bytes. Past MEMORY_BUDGET that is a SizeError naming m and
    both sizes, raised before anything is drawn.
    """
    box = _lattice_box(trials, m)
    extra = m * 8 * (stencil + 3) + 8 * bernstein._CHUNK_FLOATS if box is None else _lattice_bytes(m, box, stencil)
    draws = m * p.size * 16
    what = "{:,} Monte Carlo samples on {} axes draw {} GiB and take {} GiB more to evaluate"
    _check_budget(what, (m, p.size), draws, extra)
    counts = np.empty((m, p.size), dtype=np.int64)
    for factor, cols in zip(factors, _slices([sum(f) for f in factors])):
        if max(factor) == 1:
            counts[:, cols] = rng.binomial(trials[cols], p[cols], size=(m, cols.stop - cols.start))
        else:
            counts[:, cols] = _multinomial_projection(trials[cols.start], p[cols], rng, m)
    if box is None:
        return counts / float(n), slice(None)
    keys = np.ravel_multi_index(counts.T, box)
    del counts
    seen = np.bincount(keys, minlength=math.prod(box)) > 0
    np.take(np.cumsum(seen) - 1, keys, out=keys)
    hit = np.flatnonzero(seen)
    if hit.size == 1 < m:
        # numpy takes a product with one row (a stencil sum, or an f that
        # uses @) as a dot product and with more as a matrix-vector
        # product, which can round apart: a lone hit point goes on as two
        # rows, as its draws would
        hit = np.repeat(hit, 2)
    return np.stack(np.unravel_index(hit, box), axis=1) / float(n), keys


def _pointwise(g, points: np.ndarray, m: int) -> np.ndarray:
    """g at the points, a block of rows at a time, one value per row."""
    wrong = lambda got, want: (
        f"f returned shape {got} for sample values of ({m},): handed {want[0]} points, it owes one value each"
    )
    return _blockwise(g, points.shape[:1], points.shape[1], lambda rows: points[rows], wrong)


def _summarize(vals: np.ndarray, samples: int, reference: float) -> McReport:
    vmin = float(vals.min())
    vmax = float(vals.max())
    if vmin == vmax:
        return McReport(vmin, 0.0, samples, reference)
    spread = vmax - vmin
    if spread <= _NEAR_CONSTANT_REL * max(abs(vmin), abs(vmax)) or spread <= (
        _NEAR_CONSTANT_ABS * max(1.0, abs(reference))
    ):
        return McReport(float(vals.mean()), 0.0, samples, reference)
    std = float(vals.std(ddof=1) / math.sqrt(samples)) if samples >= 2 else 0.0
    return McReport(float(vals.mean()), std, samples, reference)


def _estimate(tag: str, kind: Kind, f, order, n: int, x, samples: int, seed: int) -> McReport:
    """The order-k partial of the kind's polynomial of f at x, drawn from
    the stream of (seed, tag), with the closed form as reference: f's mean
    at order 0, the value, and the scaled stencil sums' mean otherwise.
    order None is order 0 on the axes of x. The reference's model past
    MEMORY_BUDGET is a SizeError, raised before anything is drawn."""
    n = _degree(n)
    m = _sample_count(samples)
    p = _single_point(x, kind, None if order is None else len(order))
    d = p.size
    order = order or (0,) * d
    factors = _factors(kind, d)
    widths = sum(factors, ())
    degrees = _reduced_degrees(widths, order, n)
    if degrees is None:
        return McReport(0.0, 0.0, m, 0.0)
    _check_model(kind, n, d)
    rng = _stream(seed, tag)
    stencil = math.prod(ki + 1 for ki in order)
    points, index = _draw_points(factors, np.repeat(degrees, widths), n, p, rng, m, stencil)
    if stencil == 1:
        vals = _pointwise(f, points, m)
    else:
        spec = DiffSpec(order, (1.0 / n,) * d)
        vals = _scale(widths, order, n) * np.asarray(delta_mixed(f, points, spec), dtype=np.float64)
    reference = float(derivative(kind, f, order, n, p))
    return _summarize(vals[index], m, reference)


def mc_eval(kind: Kind, f, n: int, x, samples: int, seed: int) -> McReport:
    """Monte Carlo value estimate, the mean of f over `samples` draws of
    scaled count vectors, with the deterministic value as reference.

    f gets its points in blocks of rows and must return one value per row,
    each from its own point only; another shape is a ValueError naming
    both shapes. A non-integral sample count or seed is a ValueError too.
    """
    return _estimate("mc_eval", kind, f, None, n, x, samples, seed)


def mc_deriv(kind: Kind, f, k, n: int, x, samples: int, seed: int) -> McReport:
    """Monte Carlo derivative estimate, the mean over `samples` draws of the
    scaled stencil sum of delta_mixed at each, with the closed form as
    reference. Draws use each block's reduced trial count n - |k_b|, so
    every stencil stays inside the domain. Orders that annihilate the
    polynomial give a zero-variance zero.
    """
    order = as_index(k)
    _point_order(order, x)
    return _estimate("mc_deriv", kind, f, order, n, x, samples, seed)


def lln_diagnostic(kind: Kind, n_list, x, samples: int, seed: int):
    """Mean l1 deviation of scaled count vectors from x, one row per degree;
    an empty degree list, or a single number for one, is a ValueError, and
    so is a degree past 2**63 - 1, the largest trial count numpy draws."""
    m = _sample_count(samples)
    degrees = _degrees(n_list)
    if max(degrees) >= 2**63:
        raise ValueError(f"degree {max(degrees)} is past 2**63 - 1, the largest trial count numpy draws")
    p = _single_point(x, kind)
    d = p.size
    factors = _factors(kind, d)
    rng = _stream(seed, "lln")
    out = []
    for n in degrees:
        points, index = _draw_points(factors, np.full(d, n), n, p, rng, m, 1)
        dev = _pointwise(lambda P: np.abs(P - p).sum(axis=1), points, m)
        out.append((n, float(dev[index].mean())))
    return out
