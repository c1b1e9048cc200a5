"""Samplers and Monte Carlo estimators mirroring the deterministic evaluators.

The value of a kind's polynomial is the expectation of f at a vector of
scaled counts drawn per simplex block: a 1-wide block (a cube axis) gives
a binomial count, a w-wide block the first w counts of a multinomial over
w+1 categories. Derivatives replace f by its scaled mixed differences
drawn at reduced trial counts. All streams come from a counter-based
Philox generator keyed by (seed, operation tag).

Every draw lands on a lattice: its count vector lies in the box of
(t_i + 1) values per axis, t_i being axis i's trial count. When that box
has no more entries than there are draws, f, or each stencil sum, is
evaluated once per lattice point the draws hit, and each draw takes its
point's value; past that box rule, once per draw. f is pointwise, as a
ScalarField is and as build_model already requires, and a hit point is
bit-equal to its draws' points, so both routes give each draw the same
value and every report is the same, bit for bit. One exception lies in
BLAS: OpenBLAS can round a sum of 8 or more stencil values by the row it
has in the batch, so at such orders the per-draw route may give one
point's draws values a last bit apart, where the lattice route gives each
the point's one value.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .bernstein import (
    CUBE,
    MEMORY_BUDGET,
    SIMPLEX,
    Kind,
    SizeError,
    _CHUNK_FLOATS,
    _blocks,
    _point_blocks,
    _prepare_points,
    _reduced_degrees,
    _scale,
    _slices,
    build_model,
    derivative,
    evaluate,
)
from .finite_diff import DiffSpec, delta_mixed
from .multiindex import _degree, _integer, as_index

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
    if report.reference is None:
        raise ValueError("report carries no reference value")
    diff = report.estimate - report.reference
    if report.std_error == 0.0:
        if abs(diff) <= 1e-12 + 1e-9 * abs(report.reference):
            return 0.0
        return math.inf if diff > 0 else -math.inf
    return diff / report.std_error


def make_stream(seed: int, tag: str) -> np.random.Generator:
    """Philox stream derived deterministically from a seed and an operation tag."""
    seed = _integer(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    key = zlib.crc32(tag.encode("utf8"))
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    return np.random.Generator(np.random.Philox(ss))


def _single_point(x, kind: Kind, d: int):
    """The one (d,) point of x, clamped onto the kind's domain; a batch of
    several points raises instead of being cut to its first row."""
    P, _ = _prepare_points(x, kind, d)
    if P.shape[0] != 1:
        raise ValueError(f"expected a single point, got {P.shape[0]} points")
    return P[0]


def sample_binomial_vector(n, x, rng: np.random.Generator, size: int | None = None):
    """Independent per-axis binomial counts with success probabilities x.

    n may be a scalar or a per-axis array of trial counts. With size=None a
    single (d,) draw is returned, otherwise a (size, d) array.
    """
    p = _single_point(x, CUBE, np.shape(x)[-1])
    trials = np.array([_integer(t, "trial count") for t in np.ravel(n).tolist()], dtype=np.int64)
    if np.any(trials < 0):
        raise ValueError("trial counts must be non-negative")
    shape = (p.size,) if size is None else (_integer(size, "sample size"), p.size)
    return rng.binomial(trials.reshape(np.shape(n)), p, size=shape)


def sample_multinomial_projection(n, x, rng: np.random.Generator, size: int | None = None):
    """First d counts of n trials over d+1 categories with probabilities (x, 1-|x|).

    Drawn as sequential conditional binomials: category i receives a
    binomial share of the remaining trials with the renormalized
    probability x_i / remaining mass.
    """
    p = _single_point(x, SIMPLEX, np.shape(x)[-1])
    n = _integer(n, "trial count")
    if n < 0:
        raise ValueError("trial count must be non-negative")
    m = 1 if size is None else _integer(size, "sample size")
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
    return counts[0] if size is None else counts


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
    block = 8 * min(_CHUNK_FLOATS, 8 * entries * stencil * len(box))
    return samples * 24 + entries * 8 * (7 + 3 * len(box) + stencil) + block


def _draw_points(factors, trials, n: int, p, rng, m: int, box, extra: int):
    """The points counts / n, n the model degree, that m draws of count
    vectors ask a value at, and the row of them each draw takes, None for
    one row per draw.

    trials holds each axis's trial count. Each factor of blocks draws in
    one call: a run of 1-wide blocks as independent binomials, a wider
    block as a multinomial projection. A 1-wide block drawn either way
    gives the same counts from the same stream. Without a box, every draw
    is its own point. With the box of _lattice_box, each draw's count
    vector gets its key in the box in mixed radix, and the points are the
    box's entries the draws hit, in key order, decoded from their keys:
    each is made by the same division as its draws' points, so it is
    bit-equal to them. The counts and one factor's draw, or their scaled
    copy, take m * d * 16 bytes, and the caller's work on them extra bytes
    more; past MEMORY_BUDGET that is a SizeError naming m and both sizes,
    raised before anything is drawn.
    """
    draws = m * p.size * 16
    if draws + extra > MEMORY_BUDGET:
        raise SizeError(
            f"{m:,} Monte Carlo samples on {p.size} axes draw {draws / 2**30:,.1f} GiB "
            f"and take {extra / 2**30:,.1f} GiB more to evaluate, "
            f"past the {MEMORY_BUDGET / 2**30:g} GiB budget"
        )
    counts = np.empty((m, p.size), dtype=np.int64)
    for factor, cols in zip(factors, _slices([sum(f) for f in factors])):
        if max(factor) == 1:
            counts[:, cols] = sample_binomial_vector(trials[cols], p[cols], rng, size=m)
        else:
            counts[:, cols] = sample_multinomial_projection(trials[cols.start], p[cols], rng, size=m)
    if box is None:
        return counts / float(n), None
    keys = counts[:, 0].copy()
    for i in range(1, p.size):
        keys *= box[i]
        keys += counts[:, i]
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


def mc_eval(kind: Kind, f, n: int, x, samples: int, seed: int) -> McReport:
    """Monte Carlo value estimate with the deterministic value as reference.

    The estimate is the mean of f over `samples` draws of scaled count
    vectors. Within the box rule f is called once per lattice point the
    draws hit, and each draw counts its point's value; past it, once per
    draw. f gets its points in blocks of rows and must return one value per
    row, each from its own point only; another shape is a ValueError naming
    both shapes. A non-integral sample count or seed is a ValueError too.
    """
    n = _degree(n)
    m = _sample_count(samples)
    d = np.shape(x)[-1]
    p = _single_point(x, kind, d)
    rng = make_stream(seed, "mc_eval")
    trials = np.full(d, n)
    box = _lattice_box(trials, m)
    # per draw, beside the draws: its value and a temporary of _summarize;
    # and once, a block of points with the arrays f makes from it
    extra = m * 8 * 2 + 8 * _CHUNK_FLOATS if box is None else _lattice_bytes(m, box, 1)
    points, index = _draw_points(_blocks(kind, d), trials, n, p, rng, m, box, extra)
    vals = np.empty(points.shape[0])
    for rows in _point_blocks(*points.shape):
        out = np.asarray(f(points[rows]), dtype=np.float64)
        if out.shape != vals[rows].shape:
            raise ValueError(
                f"f returned shape {out.shape} for sample values of ({m},): "
                f"handed {vals[rows].size} points, it owes one value each"
            )
        vals[rows] = out
    if index is not None:
        vals = vals[index]
    reference = float(evaluate(build_model(f, kind, n, d), p))
    return _summarize(vals, m, reference)


def mc_deriv(kind: Kind, f, k, n: int, x, samples: int, seed: int) -> McReport:
    """Monte Carlo derivative estimate with the closed form as reference.

    Draws use each block's reduced trial count n - |k_b| so every
    difference stencil stays inside the domain, and the estimate is the
    mean over `samples` draws of the scaled stencil sum at each. Within the
    box rule each stencil sum is made once per lattice point the draws hit,
    by delta_mixed, and each draw counts its point's sum; past it, once per
    draw. Orders that annihilate the polynomial give a zero-variance zero.
    """
    order = as_index(k)
    n = _degree(n)
    m = _sample_count(samples)
    d = len(order)
    p = _single_point(x, kind, d)
    factors = _blocks(kind, d)
    widths = sum(factors, ())
    degrees = _reduced_degrees(widths, order, n)
    if degrees is None:
        return McReport(0.0, 0.0, m, 0.0)
    rng = make_stream(seed, "mc_deriv")
    trials = np.repeat(degrees, widths)
    box = _lattice_box(trials, m)
    # per draw, beside the draws: its stencil values, then its difference,
    # the scaled difference and a temporary of _summarize; and once, a block
    # of stencil points with the arrays f makes from it, which the chunk
    # budget bounds
    stencil = math.prod(ki + 1 for ki in order)
    extra = m * 8 * (stencil + 3) + 8 * _CHUNK_FLOATS if box is None else _lattice_bytes(m, box, stencil)
    points, index = _draw_points(factors, trials, n, p, rng, m, box, extra)
    spec = DiffSpec(order, (1.0 / n,) * d)
    vals = _scale(widths, order, n) * np.asarray(delta_mixed(f, points, spec), dtype=np.float64)
    if index is not None:
        vals = vals[index]
    reference = float(derivative(kind, f, order, n, p))
    return _summarize(vals, m, reference)


def lln_diagnostic(kind: Kind, n_list, x, samples: int, seed: int):
    """Mean l1 deviation of scaled count vectors from x, one row per degree."""
    m = _sample_count(samples)
    d = np.shape(x)[-1]
    p = _single_point(x, kind, d)
    factors = _blocks(kind, d)
    rng = make_stream(seed, "lln")
    # per sample, beside the draws: its deviation; and once, a block's
    # differences from x, which the chunk budget bounds
    extra = m * 8 + 8 * _CHUNK_FLOATS
    out = []
    for n in map(_degree, n_list):
        args, _ = _draw_points(factors, np.full(d, n), n, p, rng, m, None, extra)
        dev = np.empty(m)
        for rows in _point_blocks(*args.shape):
            dev[rows] = np.abs(args[rows] - p).sum(axis=1)
        out.append((n, float(dev.mean())))
    return out
