"""Samplers and Monte Carlo estimators mirroring the deterministic evaluators.

The value of a kind's polynomial is the expectation of f at a vector of
scaled counts drawn per simplex block: a 1-wide block (a cube axis) gives
a binomial count, a w-wide block the first w counts of a multinomial over
w+1 categories. Derivatives replace f by its scaled mixed differences
drawn at reduced trial counts. All streams come from a counter-based
Philox generator keyed by (seed, operation tag).
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
    _prepare_points,
    _reduced_degrees,
    _scale,
    _slices,
    build_model,
    derivative,
    evaluate,
)
from .finite_diff import DiffSpec, delta_mixed
from .multiindex import _degree, as_index

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
    seed = int(seed)
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
    trials = np.asarray(n, dtype=np.int64)
    if np.any(trials < 0):
        raise ValueError("trial counts must be non-negative")
    shape = (p.size,) if size is None else (int(size), p.size)
    return rng.binomial(trials, p, size=shape)


def sample_multinomial_projection(n, x, rng: np.random.Generator, size: int | None = None):
    """First d counts of n trials over d+1 categories with probabilities (x, 1-|x|).

    Drawn as sequential conditional binomials: category i receives a
    binomial share of the remaining trials with the renormalized
    probability x_i / remaining mass.
    """
    p = _single_point(x, SIMPLEX, np.shape(x)[-1])
    n = int(n)
    if n < 0:
        raise ValueError("trial count must be non-negative")
    m = 1 if size is None else int(size)
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


def _draw_scaled_args(factors, trials, n: int, p, rng, m: int, extra: int = 0):
    """(m, d) matrix of count vectors divided by the model degree n.

    trials holds each axis's trial count. Each factor of blocks draws in
    one call: a run of 1-wide blocks as independent binomials, a wider
    block as a multinomial projection. A 1-wide block drawn either way
    gives the same counts from the same stream. The counts and their scaled
    copy take m * d * 16 bytes, and the caller's work on them extra bytes
    more; past MEMORY_BUDGET that is a SizeError naming m, raised before
    anything is drawn.
    """
    need = m * p.size * 16 + extra
    if need > MEMORY_BUDGET:
        raise SizeError(
            f"{m:,} Monte Carlo samples on {p.size} axes draw {need / 2**30:,.1f} GiB, "
            f"past the {MEMORY_BUDGET / 2**30:g} GiB budget"
        )
    args = np.empty((m, p.size))
    for factor, cols in zip(factors, _slices([sum(f) for f in factors])):
        if max(factor) == 1:
            counts = sample_binomial_vector(trials[cols], p[cols], rng, size=m)
        else:
            counts = sample_multinomial_projection(trials[cols.start], p[cols], rng, size=m)
        np.divide(counts, float(n), out=args[:, cols])
    return args


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
    """Monte Carlo value estimate with the deterministic value as reference."""
    n = _degree(n)
    if samples < 1:
        raise ValueError("at least one sample is required")
    d = np.shape(x)[-1]
    p = _single_point(x, kind, d)
    rng = make_stream(seed, "mc_eval")
    args = _draw_scaled_args(_blocks(kind, d), np.full(d, n), n, p, rng, int(samples))
    vals = np.asarray(f(args), dtype=np.float64)
    reference = float(evaluate(build_model(f, kind, n, d), p))
    return _summarize(vals, int(samples), reference)


def mc_deriv(kind: Kind, f, k, n: int, x, samples: int, seed: int) -> McReport:
    """Monte Carlo derivative estimate with the closed form as reference.

    Draws use each block's reduced trial count n - |k_b| so every
    difference stencil stays inside the domain. Orders that annihilate the
    polynomial give a zero-variance zero.
    """
    order = as_index(k)
    n = _degree(n)
    if samples < 1:
        raise ValueError("at least one sample is required")
    d = len(order)
    p = _single_point(x, kind, d)
    factors = _blocks(kind, d)
    widths = sum(factors, ())
    degrees = _reduced_degrees(widths, order, n)
    if degrees is None:
        return McReport(0.0, 0.0, int(samples), 0.0)
    rng = make_stream(seed, "mc_deriv")
    trials = np.repeat(degrees, widths)
    # per sample, beside the draws: its stencil values, then its difference,
    # the scaled difference and a temporary of _summarize; and once, a block
    # of stencil points with the arrays f makes from it, which the chunk
    # budget bounds
    stencil = math.prod(ki + 1 for ki in order)
    extra = int(samples) * 8 * (stencil + 3) + 8 * _CHUNK_FLOATS
    args = _draw_scaled_args(factors, trials, n, p, rng, int(samples), extra)
    spec = DiffSpec(order, (1.0 / n,) * d)
    vals = _scale(widths, order, n) * np.asarray(delta_mixed(f, args, spec), dtype=np.float64)
    reference = float(derivative(kind, f, order, n, p))
    return _summarize(vals, int(samples), reference)


def lln_diagnostic(kind: Kind, n_list, x, samples: int, seed: int):
    """Mean l1 deviation of scaled count vectors from x, one row per degree."""
    d = np.shape(x)[-1]
    p = _single_point(x, kind, d)
    factors = _blocks(kind, d)
    rng = make_stream(seed, "lln")
    rows = []
    for n in map(_degree, n_list):
        args = _draw_scaled_args(factors, np.full(d, n), n, p, rng, int(samples))
        rows.append((n, float(np.abs(args - p).sum(axis=1).mean())))
    return rows
