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

The count vectors are the draws Generator.binomial makes, one for one,
made without its per-draw set-up, which it redoes whenever (n, p)
changes from one draw to the next. numpy inverts one uniform by
sequential search when n min(p, 1 - p) <= 30, and _binomial replays that
walk on the uniforms it takes from rng.random, by numpy's comparisons and
subtractions, over masses made once per (n, p). The walk is monotone in
its uniform, so a bucket of uniforms whose ends draw alike draws alike
throughout and is looked up; only the rest walk. Where numpy uses BTPE, a
rejection sampler, or a walk restarts on a second uniform, rng.binomial
draws, from the state saved before. Each draw and the stream left behind
are numpy's, so every report is as it was.
"""

from __future__ import annotations

import functools
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


# _invert's tables, at most _GROUPS a call, of 8 KiB each. A uniform's bucket
# is its top _BUCKET_BITS bits; _EDGES are each bucket's first uniform, then
# random()'s last. A bucket whose uniforms draw apart holds _AMBIGUOUS.
_GROUPS = 64
_BUCKET_BITS = 10
_EDGES = np.append(np.arange(2**_BUCKET_BITS) / 2**_BUCKET_BITS, 1.0 - 2**-53)
_AMBIGUOUS = -2


@functools.cache
def _walks_from_log1p() -> bool:
    """Whether this numpy starts its inversion walk at exp(n log1p(-p)),
    as numpy 2 does, rather than at exp(n log(1 - p)), as older releases
    did. At n = 5e10, p = 5e-17 the first is below 1 - 2^-53, and the
    second is 1, since 1 - p rounds to 1; so numpy's draw on the uniform
    1 - 2^-53, set as the next output Philox has buffered, is 0 only when
    it takes the second."""
    rng = np.random.Generator(np.random.Philox(0))
    state = rng.bit_generator.state
    state["buffer"][-1], state["buffer_pos"] = 2**64 - 1, 3
    rng.bit_generator.state = state
    return rng.binomial(50_000_000_000, 5e-17) > 0


def _masses(n: int, p: float) -> list[float]:
    """The masses px_0..px_bound of numpy's inversion walk for Binomial(n, p),
    p <= 1/2, as random_binomial_inversion makes them, in Python floats:
    px_0 = exp(n log1p(-p)) or exp(n log q), q = 1 - p (_walks_from_log1p),
    px_x = ((n - x + 1) p px_(x-1)) / (x q), bound = min(n, np + 10 sqrt(np q + 1))."""
    q = 1.0 - p
    mass = [math.exp(n * (math.log1p(-p) if _walks_from_log1p() else math.log(q)))]
    np_ = n * p
    cap = np_ + 10.0 * math.sqrt(np_ * q + 1)
    for x in range(1, (n if n < cap else int(cap)) + 1):
        mass.append(((n - x + 1) * p * mass[-1]) / (x * q))
    return mass


def _walk(u: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """The steps of numpy's inversion walk from each uniform of u, (m,), over
    the masses, (steps,) or a row per uniform, (m, steps); all of them where
    numpy restarts. numpy steps and takes px from U while U > px; here each
    walk takes every step by numpy's comparison and subtraction, as a stopped
    one holds U <= 0 <= px and steps no more. An inf pad stops a row."""
    x, u = np.zeros(u.shape, dtype=np.int64), u.copy()
    for px in mass.T:
        x += u > px
        u -= px
    return x


def _inversion_table(n: int, p: float):
    """Binomial(n, p) by inversion as tables: the walk's masses, the draw
    after each number of steps, and per bucket of uniforms its one draw.
    After x steps the draw is x, or n - x for p > 1/2, where numpy walks at
    1 - p; after every step it is -1, a restart. Each residual of the walk
    is monotone in its uniform, so its steps are too: a bucket whose first
    uniform draws as the next bucket's does (_EDGES) holds that one draw.
    """
    flip = p > 0.5
    mass = np.array(_masses(n, 1.0 - p if flip else p))
    draws = np.arange(mass.size + 1, dtype=np.int64)
    if flip:
        draws = n - draws
    draws[-1] = -1
    ends = draws[_walk(_EDGES, mass)]
    return mass, draws, np.where(ends[:-1] == ends[1:], ends[:-1], _AMBIGUOUS)


def _binomial(n, p, rng, out, tables: dict):
    """out[...] = rng.binomial(n, p, size=out.shape), draw for draw, with
    rng left where that call leaves it. out is an int64 (rows, w) array,
    n holds one trial count per column, (w,), or per row, (rows, 1), and
    p one probability per column, (w,). tables maps each (n, p) to its
    _inversion_table, made on first use; one dict serves one draw of
    counts, as the next is at another point.

    numpy draws in row-major order, each draw at its own (n, p): 0 and no
    uniform at n = 0 or p = 0; by BTPE, a rejection sampler, when
    n min(p, 1 - p) > 30; else by walking from one uniform (_walk). _invert
    replays the walks; where numpy would use BTPE or restart a walk,
    rng.binomial draws instead, from the state before.
    """
    state = rng.bit_generator.state
    if not _invert(n, p, rng, out, tables):
        rng.bit_generator.state = state
        out[...] = rng.binomial(n, p, size=out.shape)


def _invert(n, p, rng, out, tables: dict) -> bool:
    """Make _binomial's draws when each is by inversion; False otherwise.

    The draws take their uniforms from one rng.random call, which reads
    the stream as they do. A group is a column, or a trial count, numbered
    from 0, and a draw's bucket in its group's direct table
    (_inversion_table) gives its value. The uniforms of ambiguous buckets
    walk in one _walk call, each over its group's masses, the groups'
    rows padded with inf to one length. More than _GROUPS groups, or
    trial counts spanning _GROUPS values or more, are False too.
    """
    rows, w = out.shape
    if n.ndim == 1:
        live = [j for j in range(w) if n[j] > 0 and p[j] != 0.0]
        pairs = [(int(n[j]), float(p[j])) for j in live]
        group = np.arange(len(live))
        where, size, full = (slice(None), live), (rows, len(live)), len(live) == w
    else:
        live = np.flatnonzero(n[:, 0]) if p[0] != 0.0 else np.zeros(0, dtype=np.intp)
        where, size, full = (slice(None) if live.size == rows else live, 0), live.size, live.size == rows
        least = int(n[where].min()) if size else 0
        group = n[where]
        group = group - least
        if size and group.max() >= _GROUPS:
            return False
        seen = np.bincount(group) > 0
        pairs = [(int(g) + least, float(p[0])) for g in np.flatnonzero(seen)]
        if not seen.all():
            group = (np.cumsum(seen) - 1)[group]
    if len(pairs) > _GROUPS or any((pg if pg <= 0.5 else 1.0 - pg) * ng > 30.0 for ng, pg in pairs):
        return False
    if not full:
        out[...] = 0
    if not pairs:
        return True
    for pair in pairs:
        if pair not in tables:
            tables[pair] = _inversion_table(*pair)
    found = [tables[pair] for pair in pairs]
    u = rng.random(size)
    bucket = (u * 2**_BUCKET_BITS).astype(np.int64)
    bucket += group << _BUCKET_BITS
    draws = np.concatenate([direct for _, _, direct in found])[bucket]
    del bucket
    split = np.flatnonzero(draws == _AMBIGUOUS)
    if split.size:
        masses = np.full((len(found), max(mass.size for mass, _, _ in found)), np.inf)
        for row, (mass, _, _) in zip(masses, found):
            row[: mass.size] = mass
        g = group[split % group.size]
        starts = np.cumsum([0] + [values.size for _, values, _ in found])[g]
        np.put(draws, split, np.concatenate([v for _, v, _ in found])[starts + _walk(u.ravel()[split], masses[g])])
    if draws.min() < 0:
        return False
    out[where] = draws
    return True


def _row_chunks(m: int, w: int) -> list[slice]:
    """The slices of m rows of w draws each that _binomial draws at once:
    at most _CHUNK_FLOATS / 32 draws and a quarter of the rows each. A
    chunk's working arrays, at most seven of its rows or three of its
    draws, then stay within the counts' own bytes, and below 2 MiB."""
    rows = max(1, min(bernstein._CHUNK_FLOATS // 32 // w, -(-m // 4)))
    return [slice(lo, lo + rows) for lo in range(0, m, rows)]


def _multinomial_projection(n: int, p: np.ndarray, rng: np.random.Generator, out: np.ndarray, tables: dict):
    """Draws of the first w counts of n trials over w+1 categories with
    probabilities (p, 1-|p|), p a point of the w-simplex, into the rows of
    out, an int64 (m, w) array, which it returns; tables as _binomial's.

    Drawn as sequential conditional binomials: category i receives a
    binomial share of the remaining trials with the renormalized
    probability p_i / remaining mass, for every row before the next
    category, a chunk of rows at a time.
    """
    mass = 1.0
    for i in range(p.size):
        if p[i] <= 0.0:
            cond = 0.0
        elif mass <= p[i]:
            cond = 1.0
        else:
            cond = p[i] / mass
        for rows in _row_chunks(out.shape[0], 1):
            remaining = n - out[rows, :i].sum(axis=1, keepdims=True)
            _binomial(remaining, np.array([cond]), rng, out[rows, i : i + 1], tables)
        mass = max(mass - p[i], 0.0)
    return out


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


def _check_draws(trials, m: int, d: int, stencil: int):
    """Refuse m draws of count vectors on d axes with these trial counts
    past MEMORY_BUDGET, naming m and both sizes, before anything is drawn;
    else return their box (_lattice_box). The counts take m * d * 8 bytes,
    and the working arrays of a chunk of draws, or the counts' scaled copy,
    at most as much again: m * d * 16 bytes. The work on the points is
    counted from the stencil, f's values per point (1 for a value or a
    deviation): per draw, its stencil values and three floats more, with
    one block of points and the arrays f makes from it; on the lattice
    route, as _lattice_bytes."""
    box = _lattice_box(trials, m)
    extra = m * 8 * (stencil + 3) + 8 * bernstein._CHUNK_FLOATS if box is None else _lattice_bytes(m, box, stencil)
    what = "{:,} Monte Carlo samples on {} axes draw {} GiB and take {} GiB more to evaluate"
    _check_budget(what, (m, d), m * d * 16, extra)
    return box


def _draw_points(factors, trials, n: int, p, rng, m: int, box):
    """The points counts / n, n the model degree, that m draws of count
    vectors ask a value at, and the index giving each draw its point's row.

    trials holds each axis's trial count. Each factor of blocks draws as
    one rng.binomial call over all m draws would, a chunk of rows at a
    time (_row_chunks): a run of 1-wide blocks as independent binomials, a
    wider block as a multinomial projection. A 1-wide block drawn either
    way gives the same counts from the same stream. Past the box rule of
    _lattice_box every draw is its own point. Within it each draw's count
    vector gets its key in the box in mixed radix, and the points are the
    box's entries the draws hit, in key order, decoded from their keys:
    each is made by the same division as its draws' points, so it is
    bit-equal to them. box is the draws' box, as _check_draws returns it.
    """
    counts = np.empty((m, p.size), dtype=np.int64)
    tables = {}
    for factor, cols in zip(factors, _slices([sum(f) for f in factors])):
        if max(factor) == 1:
            for rows in _row_chunks(m, cols.stop - cols.start):
                _binomial(trials[cols], p[cols], rng, counts[rows, cols], tables)
        else:
            _multinomial_projection(int(trials[cols.start]), p[cols], rng, counts[:, cols], tables)
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
    MEMORY_BUDGET is a SizeError, raised before anything is drawn and after
    the draws' own check (_check_draws)."""
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
    stencil = math.prod(ki + 1 for ki in order)
    trials = np.repeat(degrees, widths)
    box = _check_draws(trials, m, d, stencil)
    _check_model(kind, n, d)
    rng = _stream(seed, tag)
    points, index = _draw_points(factors, trials, n, p, rng, m, box)
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
        trials = np.full(d, n)
        points, index = _draw_points(factors, trials, n, p, rng, m, _check_draws(trials, m, d, 1))
        dev = _pointwise(lambda P: np.abs(P - p).sum(axis=1), points, m)
        out.append((n, float(dev[index].mean())))
    return out
