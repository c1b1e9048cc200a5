"""Bernstein approximation on products of simplex blocks.

Every domain kind is a product of simplex blocks: the unit cube is d blocks
one axis wide, the unit simplex one block over all d axes, and a mixed kind
a d1-wide block times 1-wide blocks over the remaining axes. A model stores
the samples f(j/n) over the kind's lattice, the lexicographic product of
the block lattices.

Evaluation works in collapsed (Duffy, or Stroud conical-product)
coordinates. Inside a block, t_a = x_a / r_{a-1} and 1 - t_a = r_a / r_{a-1},
where r_a = 1 - x_1 - ... - x_a is the block's running remainder, and the
multinomial basis function of index j factors into 1-D binomial weights
C(n_a, j_a) t_a^j_a (1 - t_a)^(n_a - j_a), with n_a = n - j_1 - ... - j_{a-1}.
A cube axis is an axis whose degree never varies. The lattice tensor is
contracted one axis at a time, last axis first. A one-degree axis, and a
varying-degree axis summed by a gather, a multiply and a segment sum over
contiguous child rows while that moves few floats, weigh by binomial rows
computed in log space (one exp each, with exact log-binomials, so no
degree overflows them), exact at t = 0 and t = 1 (0^0 = 1). Past that
size rule, the last axis, whose coefficients all points share, has each
parent row's polynomial along it rewritten in the basis of the axis's top
degree n (degree elevation, exact, once per call), and is one BLAS product
with a single degree-n table of those rows. Every other varying-degree
axis takes, per degree q, one product of its child rows with power tables
of t^j and (1 - t)^i built by repeated multiplication, with no exp: the
binomials C(q, j) / 2^e_q, scaled into (0, 1] by a power of two, are
folded into the rows beforehand and 2^e_q multiplies each degree's sum.
That is exact to rounding up to a degree bound of 900 (_POWER_DEGREE_LIMIT),
past which such a lattice is refused. Past the rule a point so takes
n + 1 exps per axis of one degree and on the last axis, and none on the
others; within it, (n + 1)(n + 2) / 2 per varying-degree axis.

Values and mixed partial derivatives take one path: per-block forward
differences of the model's samples, each a pair of gathers from the
degree-p lattice onto the degree p - 1 lattice, contracted with the basis
of the reduced degrees (order 0 is the value). An independent oracle
differentiates the basis functions instead, by the Leibniz rule over
per-axis power tables, with its own contraction, and never touches the
difference path or the collapsed coordinates.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .multiindex import _degree, _log_binomial_row, _simplex_rows, as_index

# Points this far outside the boundary are clamped; farther out is an error.
CLAMP_TOL = 1e-12

# The one chunk budget: every array that grows with points times lattice
# rows, or with rows times coordinates, is made one chunk at a time and stays
# below this many floats. Points handed to f take an eighth of it, which
# leaves the rest to the arrays f makes from them.
_CHUNK_FLOATS = 2**20

# model_lattice, and so build_model, refuses a model whose working set,
# estimated as L * (12 d + 8) bytes, exceeds this many bytes. The estimate
# counts the float points whole, though f sees them a block at a time, so it
# is above the L * (4 d + 8) bytes of the int32 lattice and the samples.
# Monte Carlo draws and quadrature grids are refused too.
MEMORY_BUDGET = 2**30


class DomainError(ValueError):
    """A point lies outside the model domain by more than the clamp tolerance."""


class SizeError(ValueError):
    """A request's working set exceeds MEMORY_BUDGET; raised before it is allocated."""


@dataclass(frozen=True)
class Kind:
    """Domain kind tag; mixed kinds carry the width d1 of the simplex block."""

    name: str
    d1: int | None = None


CUBE = Kind("cube")
SIMPLEX = Kind("simplex")


def mixed(d1: int) -> Kind:
    """Mixed domain: a d1-simplex times a cube over the remaining axes."""
    if int(d1) != d1:
        raise ValueError(f"block width {d1!r} is not an integer")
    d1 = int(d1)
    if d1 < 1:
        raise ValueError("the simplex block needs at least one axis")
    return Kind("mixed", d1)


def _check_kind(kind: Kind, d: int):
    if not isinstance(kind, Kind):
        raise TypeError("kind must be a Kind")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if kind.name in ("cube", "simplex"):
        if kind.d1 is not None:
            raise ValueError(f"{kind.name} kind does not take a block width")
    elif kind.name == "mixed":
        if kind.d1 is None or not 1 <= kind.d1 <= d:
            raise ValueError("mixed kind needs 1 <= d1 <= dim")
    else:
        raise ValueError(f"unknown kind {kind.name!r}")


def _blocks(kind: Kind, d: int) -> tuple[tuple[int, ...], ...]:
    """The kind's simplex block widths on d axes, grouped into factors.

    A factor is one simplex block or a run of cube axes, each a 1-wide
    block. Only the Monte Carlo sampler reads the grouping: it draws each
    factor in one call, which keeps every kind's draw stream as it was when
    each kind had its own sampler. This is the one place that turns a Kind
    into structure.
    """
    _check_kind(kind, d)
    if kind.name == "cube":
        return ((1,) * d,)
    if kind.name == "simplex":
        return ((d,),)
    cube_axes = (1,) * (d - kind.d1)
    return ((kind.d1,), cube_axes) if cube_axes else ((kind.d1,),)


def _widths(kind: Kind, d: int) -> tuple[int, ...]:
    """Block widths of the kind in axis order: cube (1,)*d, simplex (d,)."""
    return sum(_blocks(kind, d), ())


def _slices(widths) -> list[slice]:
    """The coordinate axes of each block."""
    ends = itertools.accumulate(widths)
    return [slice(end - w, end) for w, end in zip(widths, ends)]


def _reduced_degrees(widths, order, n: int):
    """Per-block degrees n - |k_b| of the order-k derivative; None if it vanishes."""
    degrees = tuple(n - sum(order[s]) for s in _slices(widths))
    return None if min(degrees) < 0 else degrees


def _prepare_points(x, kind: Kind, d: int):
    """Validate and clamp evaluation points; returns ((m, d) array, single?).

    Each block's coordinate sum may exceed 1 by CLAMP_TOL and is then
    scaled back onto 1.
    """
    widths = _widths(kind, d)
    P = np.asarray(x, dtype=np.float64)
    single = P.ndim == 1
    if single:
        P = P[None, :]
    if P.ndim != 2:
        raise ValueError("points must be a (d,) vector or an (m, d) array")
    if P.shape[1] != d:
        raise ValueError(f"point dimension {P.shape[1]} does not match domain dimension {d}")
    P = P.copy()
    if not np.all(np.isfinite(P)):
        raise DomainError("point has a non-finite coordinate")
    if np.any(P < -CLAMP_TOL):
        raise DomainError(f"coordinate {P.min()} is negative beyond tolerance")
    P[P < 0] = 0.0
    if len(widths) == d:
        sums = P  # a 1-wide block's sum is its coordinate
    else:
        sums = np.add.reduceat(P, [s.start for s in _slices(widths)], axis=1)
    if (sums > 1.0).any():
        if (sums > 1.0 + CLAMP_TOL).any():
            raise DomainError(f"block coordinate sum {sums.max()} exceeds 1 beyond tolerance")
        P /= np.repeat(np.maximum(sums, 1.0), widths, axis=1)
    return P, single


class _Fresh(np.ndarray):
    """A float64 sample array that nothing else holds, as build_model and
    parse_model make it: a model built on it takes it over without a copy."""


@dataclass(frozen=True)
class BernsteinModel:
    """Sampled values f(j/n) over the lattice of (kind, degree, dim)."""

    kind: Kind
    degree: int
    dim: int
    samples: np.ndarray

    def __post_init__(self):
        _check_kind(self.kind, self.dim)
        object.__setattr__(self, "degree", _degree(self.degree))
        # a caller's array is copied, so that changing it later leaves the
        # model as it was; a _Fresh one is taken over
        if type(self.samples) is _Fresh:
            arr = self.samples.view(np.ndarray)
        else:
            arr = np.array(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("samples must be a flat array in lattice order")
        expected = model_size(self.kind, self.degree, self.dim)
        if arr.size != expected:
            raise ValueError(f"expected {expected} samples, got {arr.size}")
        if not np.isfinite(arr).all():
            at = np.argmax(~np.isfinite(arr))
            idx = tuple(int(v) for v in model_lattice(self.kind, self.degree, self.dim)[at])
            raise ValueError(f"sample at lattice index {idx} is not finite: {arr[at]}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)


@functools.lru_cache(maxsize=64)
def _lattice(n: int, w: int) -> np.ndarray:
    """Lattice of one w-wide simplex block at degree n, read-only, lexicographic.

    Entries are at most n, so they are int32; the rank and index arithmetic
    widens to int64 through its sums and its int64 tables.
    """
    J = _simplex_rows(n, w)
    J.setflags(write=False)
    return J


def _sizes(widths, degrees) -> tuple[int, ...]:
    """Lattice size of each block at its degree."""
    return tuple(math.comb(deg + w, w) for w, deg in zip(widths, degrees))


def _product_lattice(widths, degrees) -> np.ndarray:
    """Product of the block lattices at their degrees, lexicographic.

    The rows fill one (L_0, L_1, ..., d) array: block b's lattice is
    broadcast along axis b into its own columns.
    """
    lattices = [_lattice(deg, w) for w, deg in zip(widths, degrees)]
    sizes = [J.shape[0] for J in lattices]
    out = np.empty((*sizes, sum(widths)), dtype=lattices[0].dtype)
    for b, (J, cols) in enumerate(zip(lattices, _slices(widths))):
        shape = [1] * len(sizes) + [J.shape[1]]
        shape[b] = J.shape[0]
        out[..., cols] = J.reshape(shape)
    return out.reshape(-1, sum(widths))


def model_size(kind: Kind, n: int, d: int) -> int:
    """Sample count L of the kind's degree-n lattice on d axes. An integral
    float degree such as 2.0 counts as 2; 2.5 or -1 is a ValueError."""
    return _model_size(kind, _degree(n, 0), d)


@functools.lru_cache(maxsize=256, typed=True)
def _model_size(kind: Kind, n: int, d: int) -> int:
    # cached: every build reads it twice, for the memory budget and for the
    # sample count
    widths = _widths(kind, d)
    return math.prod(_sizes(widths, (n,) * len(widths)))


def model_lattice(kind: Kind, n: int, d: int) -> np.ndarray:
    """The sample lattice of the kind, lexicographic on full index tuples, as
    an (L, d) int32 array. The degree is normalized as model_size does it.
    Past MEMORY_BUDGET it is a SizeError, raised before anything the size of
    the lattice is allocated."""
    n = _degree(n, 0)
    size = model_size(kind, n, d)
    need = size * (12 * d + 8)
    if need > MEMORY_BUDGET:
        name = kind.name if kind.d1 is None else f"mixed({kind.d1})"
        raise SizeError(
            f"a {name} model at n = {n}, d = {d} has {size:,} samples, a working set of "
            f"{need / 2**30:,.1f} GiB, past the {MEMORY_BUDGET / 2**30:g} GiB budget"
        )
    widths = _widths(kind, d)
    return _product_lattice(widths, (n,) * len(widths))


def build_model(f, kind: Kind, n: int, d: int) -> BernsteinModel:
    """Sample f over the lattice points j/n in canonical order.

    f is called on blocks of lattice rows, (rows, d) arrays, and returns one
    value per row, each from its own point only, as a ScalarField does. If a
    block call fails or returns a wrong shape, a RuntimeWarning names the
    failure and f is called once per point of the whole lattice instead. A
    NaN or infinite sample is a ValueError naming its lattice index. A model
    past MEMORY_BUDGET is a SizeError, raised before anything the size of
    the lattice is allocated.
    """
    n = _degree(n)
    vals = _sample(f, model_lattice(kind, n, d), n)
    return BernsteinModel(kind=kind, degree=n, dim=int(d), samples=vals.view(_Fresh))


def _point_blocks(rows: int, floats_per_row: int):
    """Slices of `rows` rows of floats_per_row point coordinates each, so that
    a block's points fill at most an eighth of _CHUNK_FLOATS: the blocks in
    which f is handed points."""
    step = max(1, _CHUNK_FLOATS // (8 * floats_per_row))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _sample(f, lattice: np.ndarray, n: int) -> np.ndarray:
    """f at the points lattice / n, one block of rows at a time."""
    vals = np.empty(lattice.shape[0])
    try:
        for rows in _point_blocks(*lattice.shape):
            out = np.asarray(f(lattice[rows] / float(n)), dtype=np.float64)
            if out.shape != vals[rows].shape:
                raise ValueError("batch evaluator returned a wrong shape")
            vals[rows] = out
    except Exception as err:
        warnings.warn(
            f"batch evaluation of f failed ({type(err).__name__}: {err}); "
            f"sampling {lattice.shape[0]} lattice points one at a time",
            RuntimeWarning,
            stacklevel=3,
        )
        for i, j in enumerate(lattice):
            try:
                vals[i] = float(f(j / float(n)))
            except Exception as err:
                idx = tuple(int(v) for v in j)
                raise RuntimeError(f"evaluator failed at lattice index {idx}") from err
    return vals


# ---------------------------------------------------------------------------
# collapsed coordinates and the per-axis contraction

# A varying-degree axis is summed out by a gather, a multiply and a segment
# sum while that moves at most this many floats per degree of the axis;
# past that, the shared last axis by degree elevation and one BLAS product,
# and any other axis by one product per degree against power tables: both
# have a fixed cost per degree but a far lower cost per float.
_GATHER_FLOATS_PER_DEGREE = 2048

# The power tables of a varying-degree axis other than the last are exact to
# rounding only up to this degree, and a higher one is refused. With q <= 900
# a basis weight w = C(q, j) t^j (1 - t)^(q - j) of at least 2^-100 has every
# factor the sum multiplies, t^j, (1 - t)^(q - j) and their product with the
# folded binomial C(q, j) / 2^e_q >= 2^-q (that is w / 2^e_q), at or above
# 2^-1000, inside the normal range; smaller weights count for less than the
# sum's rounding. The default MEMORY_BUDGET keeps such axes at n <= 527.
_POWER_DEGREE_LIMIT = 900


@functools.lru_cache(maxsize=64)
def _weight_rows(degrees: tuple[int, ...]):
    """Exponents and log-coefficients of the binomial rows of each degree.

    Rows run over (p, j) for p in degrees and j = 0..p, degree by degree:
    the (K, 3) array of (j, p - j, ln C(p, j)), and the exact rows at t = 0
    (j = 0) and at t = 1 (j = p). ln C(p, j) is the log of the exact
    integer, from _log_binomial_row's cached rows. The arrays are cached and
    read-only.
    """
    top = np.repeat(degrees, [p + 1 for p in degrees])
    j = np.concatenate([np.arange(p + 1) for p in degrees])
    logc = np.concatenate([_log_binomial_row(p) for p in degrees])
    out = (np.stack([j, top - j, logc], axis=1), (j == 0) * 1.0, (j == top) * 1.0)
    for arr in out:
        arr.setflags(write=False)
    return out


def _binomial_table(degrees, t: np.ndarray) -> np.ndarray:
    """C(p, j) t^j (1 - t)^(p - j) for every (p, j) of _weight_rows, one
    column per t.

    One (K, 3) @ (3, m) product with (ln t, ln(1 - t), 1), then exp, so no
    degree overflows; exact at t = 0 and t = 1, where 0^0 = 1.
    """
    rows, at0, at1 = _weight_rows(degrees)
    inner = (t > 0.0) & (t < 1.0)
    edge = not inner.all()
    ti = np.where(inner, t, 0.5) if edge else t
    logs = np.empty((3, t.size))
    np.log(ti, out=logs[0])
    np.log1p(-ti, out=logs[1])
    logs[2] = 1.0
    W = rows @ logs
    np.exp(W, out=W)
    if edge:
        W[:, t == 0.0] = at0[:, None]
        W[:, t == 1.0] = at1[:, None]
    return W


def _folded_binomials(top: int):
    """C(q, j) / 2^e_q for q = 0..top and j = 0..q, in the order of
    _weight_rows, and 2^e_q per q, the smallest power of two at or above
    max_j C(q, j). Each folded binomial is the quotient of exact integers,
    rounded once, in [2^-q, 1]; 2^e_q is exact."""
    folds, scales, row = [], [], [1]
    for q in range(top + 1):
        scale = 1 << (row[q // 2] - 1).bit_length()
        folds += [c / scale for c in row]
        scales.append(float(scale))
        row = [1, *map(int.__add__, row, row[1:]), 1]  # Pascal's rule: row q + 1
    return np.array(folds), scales


def _powers(t: np.ndarray, top: int) -> np.ndarray:
    """The tables t^j and (1 - t)^j for j = 0..top, (2, top + 1, m), by
    repeated multiplication: exact at t = 0 and t = 1, where 0^0 = 1."""
    P = np.empty((2, top + 1, t.size))
    P[:, 0] = 1.0
    if top:
        base = P[:, 1]
        base[0] = t
        np.subtract(1.0, t, out=base[1])
        for j in range(2, top + 1):
            np.multiply(P[:, j - 1], base, out=P[:, j])
    return P


def _collapsed(P: np.ndarray, widths) -> np.ndarray:
    """Collapsed coordinates of the points P, one row per axis.

    In a block, t_a = x_a / r_{a-1} with r_{a-1} = 1 - x_1 - ... - x_{a-1},
    clipped to 1. Where r_{a-1} = 0, t_a = 0: the axis before took t = 1,
    so every basis function alive there has degree 0 on axis a. A 1-wide
    block's t is its coordinate.
    """
    T = np.array(P.T, order="C")
    for s in _slices(widths):
        if s.stop - s.start > 1:
            x = P[:, s]
            r = np.maximum(1.0 - np.cumsum(x[:, :-1], axis=1), 0.0)
            t = np.divide(x[:, 1:], r, out=np.zeros_like(r), where=r > 0.0)
            T[s.start + 1 : s.stop] = np.minimum(t, 1.0).T
    return T


class _Axis(NamedTuple):
    """One step of the contraction: sums out lattice axis `col`.

    An axis with one degree has the same children under every parent and
    is a reshape. Otherwise `index` holds the weight row of each child row,
    `starts` the first child row of each parent row, `parents` the parent
    rows sorted by the degree of their children, and `bounds[q]` where
    degree q begins in that order. A varying-degree axis other than the
    last also holds, for its power-table sum, the folded binomial
    C(q, j) / 2^e_q of each child row (`fold`) and, per degree q that has
    parents, `steps`: (q, child rows, parent rows, 2^e_q), each row selector
    a slice where its rows are contiguous.
    """

    col: int
    degrees: tuple[int, ...]
    index: np.ndarray | None = None
    starts: np.ndarray | None = None
    parents: np.ndarray | None = None
    bounds: np.ndarray | None = None
    fold: np.ndarray | None = None
    steps: tuple = ()


def _check_power_degrees(widths, degrees):
    """Refuses a lattice with a varying-degree axis other than the last past
    _POWER_DEGREE_LIMIT, before any plan or table is made."""
    if max(degrees) <= _POWER_DEGREE_LIMIT:
        return
    d = sum(widths)
    for s, n_b in zip(_slices(widths), degrees):
        # the block's varying-degree axes are s.start + 1 .. s.stop - 1
        if s.start + 1 < min(s.stop, d - 1) and n_b > _POWER_DEGREE_LIMIT:
            raise ValueError(
                f"degree {n_b} of a {s.stop - s.start}-wide block is past the degree bound "
                f"{_POWER_DEGREE_LIMIT} of the power tables that sum its varying-degree axes"
            )


def _power_steps(starts, parents, bounds, scales) -> tuple:
    """The steps of a power-table sum: per degree q that has parents,
    (q, child rows, parent rows, scales[q]). A degree's parents are
    increasing; when they are consecutive, so are their children, and both
    selectors are slices, so that indexing by them makes views. Otherwise
    they are read-only index arrays."""
    order, first = parents.tolist(), starts.tolist()
    steps = []
    for q, (lo, hi) in enumerate(zip(bounds.tolist(), bounds[1:].tolist())):
        if lo == hi:
            continue
        a, b = order[lo], order[hi - 1]
        if b - a == hi - lo - 1:
            kids, rows = slice(first[a], first[a] + (hi - lo) * (q + 1)), slice(a, b + 1)
        else:
            rows = parents[lo:hi].copy()
            kids = starts[rows, None] + np.arange(q + 1)
            rows.setflags(write=False)
            kids.setflags(write=False)
        steps.append((q, kids, rows, scales[q]))
    return tuple(steps)


@functools.lru_cache(maxsize=32)
def _plan(widths: tuple[int, ...], degrees: tuple[int, ...]):
    """Index arrays of the per-axis contraction of the (widths, degrees) lattice.

    Level a of the lattice holds the distinct prefixes (j_1, ..., j_a) of its
    rows, in lexicographic order, so the children of each level a - 1 row
    are contiguous. Returns the axes last first, and the largest row count
    of an intermediate level or of one degree's weight rows, which sizes
    point chunks.
    """
    J = _product_lattice(widths, degrees)
    d = J.shape[1]
    # the first column in which each row differs from the row before it
    change = np.concatenate([[0], np.argmax(J[1:] != J[:-1], axis=1)])
    firsts = [np.flatnonzero(change < a) if a else np.zeros(1, np.intp) for a in range(d + 1)]
    axes = []
    for s, n_b in zip(_slices(widths), degrees):
        axes.append(_Axis(s.start, (n_b,)))
        for c in range(s.start + 1, s.stop):
            if n_b == 0:
                axes.append(_Axis(c, (0,)))
                continue
            kids = firsts[c + 1]
            p = n_b - J[kids, s.start:c].sum(axis=1)
            starts = np.searchsorted(kids, firsts[c])
            index = p * (p + 1) // 2 + J[kids, c]
            parents = np.argsort(p[starts], kind="stable")
            bounds = np.searchsorted(p[starts][parents], np.arange(n_b + 2))
            axis = _Axis(c, tuple(range(n_b + 1)), index, starts, parents, bounds)
            if c < d - 1:
                folds, scales = _folded_binomials(n_b)
                axis = axis._replace(fold=folds[index], steps=_power_steps(starts, parents, bounds, scales))
            axes.append(axis)
    for ax in axes:
        for arr in (ax.index, ax.starts, ax.parents, ax.bounds, ax.fold):
            if arr is not None:
                arr.setflags(write=False)
    width = max(max(f.size for f in firsts[:-1]), max(degrees) + 1)
    return tuple(reversed(axes)), width


def _gathers(axis: _Axis, m: int) -> bool:
    """Whether the varying-degree axis is summed at m points by a gather."""
    return m * axis.index.size <= _GATHER_FLOATS_PER_DEGREE * len(axis.degrees)


def _sum_axis(V: np.ndarray, axis: _Axis, t: np.ndarray, power: bool) -> np.ndarray:
    """Sums out one axis of the lattice-major data V, (rows, points), at the
    axis's collapsed coordinates t; V may be one column that every point
    shares.

    A one-degree axis, and a varying-degree axis within the gather rule,
    weigh V by binomial rows made in log space (_binomial_table): n + 1
    exps per point on a one-degree axis, (n + 1)(n + 2) / 2 on a varying
    one. A varying-degree axis past the rule (power) takes no exp: it sums
    each degree q by one three-operand product of its child rows with the
    tables t^j and (1 - t)^(q - j) (_powers, 2n multiplications per
    point), and scales each sum back by the exact 2^e_q. The child rows of
    V must already hold their folded binomials C(q, j) / 2^e_q (the axis's
    `fold`), which lie in [2^-q, 1]: no product exceeds its row of V, so
    nothing overflows, and up to _POWER_DEGREE_LIMIT every product that
    counts stays in the normal range (see there), so nothing that counts
    underflows.
    """
    m = t.size
    if axis.index is None:
        W = _binomial_table(axis.degrees, t)
        return np.einsum("rjm,jm->rm", V.reshape(-1, W.shape[0], m), W)
    if not power:
        G = _binomial_table(axis.degrees, t)[axis.index]
        G *= V
        return np.add.reduceat(G, axis.starts, axis=0)
    tj, ti = _powers(t, axis.degrees[-1])
    out = np.empty((axis.starts.size, m))
    for q, kids, parents, scale in axis.steps:
        part = np.einsum("pjm,jm,jm->pm", V[kids].reshape(-1, q + 1, m), tj[: q + 1], ti[q::-1])
        part *= scale
        out[parents] = part
    return out


def _elevate(coef: np.ndarray, axis: _Axis) -> np.ndarray:
    """Each parent row's polynomial along a varying-degree axis, rewritten in
    the basis of the axis's top degree N: (parents, N + 1) coefficients.

    Degree elevation is exact: the degree-q basis function j is
    (q + 1 - j) / (q + 1) times the degree-(q + 1) function j plus
    (j + 1) / (q + 1) times function j + 1. So row j of E_q, that function's
    coefficients in the degree-N basis, is this convex combination of rows
    of E_{q + 1}, from E_N = I down; in closed form it is
    C(q, j) C(N - q, i - j) / C(N, i) over i. Convex steps keep it within a
    few ulps of that at every degree, and overflow nowhere.
    """
    N = axis.degrees[-1]
    p = np.arange(1, N + 1)[:, None]  # q + 1 for q = 0..N-1
    j = np.arange(N + 1)
    stay, step = (p - j) / p, (j + 1) / p
    E = np.eye(N + 1)
    out = np.empty((axis.starts.size, N + 1))
    for q in reversed(axis.degrees):
        if q < N:
            E = stay[q, : q + 1, None] * E[:-1] + step[q, : q + 1, None] * E[1:]
        parents = axis.parents[axis.bounds[q] : axis.bounds[q + 1]]
        out[parents] = coef[axis.starts[parents, None] + np.arange(q + 1)] @ E
    return out


def _contract_collapsed(coef: np.ndarray, P: np.ndarray, widths, plan) -> np.ndarray:
    """Values at points P of the flat coefficients coef over the lattice of `plan`.

    Data is lattice-major, (rows, points). The last axis's coefficients are
    shared by every point. If that axis takes the degrees 0..N and a chunk
    of points is past the gather rule, they are elevated to degree N once
    per call, and each chunk sums the axis by one BLAS product with the
    degree-N binomial table, as it does a one-degree axis. A power-table
    axis (_sum_axis) that reads those shared rows has its folded binomials
    multiplied into them once per call: a factor per row commutes with the
    elevation and the product. Points go in chunks, so that no level or
    table exceeds _CHUNK_FLOATS; every chunk applies the gather rule at the
    call's chunk size, so that all of them, the last one too, take the same
    arithmetic.
    """
    axes, width = plan
    T = _collapsed(P, widths)
    m = T.shape[1]
    step = max(1, _CHUNK_FLOATS // width)
    chunk = min(m, step)
    last, rest = axes[0], axes[1:]
    top = last.degrees[-1]
    if last.index is None:
        shared = coef.reshape(-1, top + 1)
    elif not _gathers(last, chunk):
        shared = _elevate(coef, last)
    else:
        shared = None
    out = np.empty(m)
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        powers = [axis.index is not None and not _gathers(axis, chunk) for axis in rest]
        t = T[last.col, lo:hi]
        if shared is None:
            V = _sum_axis(coef[:, None], last, t, False)
        else:
            if lo == 0 and powers and powers[0]:
                shared = shared * rest[0].fold[:, None]
            V = shared @ _binomial_table((top,), t)
        for i, (axis, power) in enumerate(zip(rest, powers)):
            if power and (i or shared is None):  # rows not folded with the shared ones
                V *= axis.fold[:, None]
            V = _sum_axis(V, axis, T[axis.col, lo:hi], power)
        out[lo:hi] = V[0]
    return out


# ---------------------------------------------------------------------------
# lattice differences


def _falling(n: int, k: int) -> float:
    out = 1.0
    for m in range(k):
        out *= n - m
    return out


def _scale(widths, order, n: int) -> float:
    """prod_b n(n-1)...(n-|k_b|+1), the factor of the order-k differences."""
    return math.prod(_falling(n, sum(order[s])) for s in _slices(widths))


def _rank(J: np.ndarray, n: int) -> np.ndarray:
    """Row numbers of the index rows J in _lattice(n, w), with w = J.shape[1].

    The rows before j are counted axis by axis: at axis a (from 1), with the
    budget p_a = n - j_1 - ... - j_{a-1} and r_a = w - a + 1, the rows that
    share j's first a - 1 entries and have a smaller entry a number
    C(p_a + r_a, r_a) - C(p_a - j_a + r_a, r_a).
    """
    w = J.shape[1]
    # T[p, r] = C(p + r, r) by the exact step T[p, r - 1] (p + r) / r; no
    # product exceeds w times the size of _lattice(n, w)
    assert math.comb(n + w, w) * w < 2**63
    T = np.ones((n + 1, w + 1), dtype=np.int64)
    for r in range(1, w + 1):
        T[:, r] = T[:, r - 1] * np.arange(r, n + r + 1) // r
    budget = n - np.cumsum(J, axis=1) + J
    r = np.arange(w, 0, -1)
    return (T[budget, r] - T[budget - J, r]).sum(axis=1)


@functools.lru_cache(maxsize=64)
def _diff_rows(n: int, w: int, i: int):
    """Where the first difference along axis i of the degree-n lattice reads.

    For j over _lattice(n - 1, w): the row numbers of j + e_i in
    _lattice(n, w), and the mask of the rows of _lattice(n, w) that are the
    j themselves, since the rows with |j| < n are the degree n - 1 lattice
    in its order (a mask is an eighth the size of row numbers). Every such
    stencil lies on the degree-n lattice, since |j| + 1 <= n. The arrays
    are cached and read-only.
    """
    L = _lattice(n, w)
    lower = L.sum(axis=1) < n
    out = (_rank(L[lower] + (np.arange(w) == i), n), lower)
    for arr in out:
        arr.setflags(write=False)
    return out


def _block_diff(T: np.ndarray, axis: int, n: int, order) -> np.ndarray:
    """Order-k_b forward differences of the block whose lattice lies along `axis`.

    Each first difference c(j + e_i) - c(j) takes the block's lattice from
    degree p to degree p - 1 by two gathers of lattice rows, so memory stays
    with the lattice.
    """
    w = len(order)
    for i, k in enumerate(order):
        for _ in range(k):
            up, lower = _diff_rows(n, w, i)
            T = T.take(up, axis) - T.compress(lower, axis)
            n -= 1
    return T


def _differences(model: BernsteinModel, order) -> np.ndarray:
    """Per-block order-k differences of the model's samples, one tensor axis per block."""
    n = model.degree
    widths = _widths(model.kind, model.dim)
    T = model.samples.reshape(_sizes(widths, (n,) * len(widths)))
    for axis, cols in enumerate(_slices(widths)):
        T = _block_diff(T, axis, n, order[cols])
    return T


# ---------------------------------------------------------------------------
# values and closed-form derivatives


def _partial(model: BernsteinModel, order, x):
    """The order-k partial of the model's polynomial at x, as `derivative`
    describes it; order 0 is the value."""
    n = model.degree
    widths = _widths(model.kind, model.dim)
    P, single = _prepare_points(x, model.kind, model.dim)
    degrees = _reduced_degrees(widths, order, n)
    if degrees is None:
        out = np.zeros(P.shape[0])
    else:
        _check_power_degrees(widths, degrees)
        # the plan's cached arrays are allocated before the differences'
        # temporaries, so they do not split the memory those free for reuse
        plan = _plan(widths, degrees)
        coef = _differences(model, order).reshape(-1)
        out = _scale(widths, order, n) * _contract_collapsed(coef, P, widths, plan)
    return float(out[0]) if single else out


def evaluate(model: BernsteinModel, x):
    """Value of the model's Bernstein polynomial at x, a (d,) point or (m, d) batch."""
    return _partial(model, (0,) * model.dim, x)


def derivative(kind: Kind, f, k, n: int, x):
    """Mixed partial of order k of the kind's polynomial of f, evaluated at x.

    f is sampled by build_model, with its pointwise fallback and its check
    for non-finite samples. The partial is the sum, over the lattice of
    degree n - |k_b| in each block b, of the step-1/n mixed differences of
    the samples against the basis of the reduced degrees, scaled by
    n(n-1)...(n-|k_b|+1) per block. Orders with |k_b| > n in some block
    give 0. For a mixed kind the polynomial identity is exact, but uniform
    convergence of these derivatives carries no guarantee and is only
    explored by the verification harness.
    """
    order = as_index(k)
    return _partial(build_model(f, kind, n, len(order)), order, x)


# ---------------------------------------------------------------------------
# differentiated-basis oracle


@functools.lru_cache(maxsize=32)
def _exact_multinomial_simplex(n: int, d: int) -> np.ndarray:
    # integer-exact coefficients keep the oracle's terms correct to one
    # rounding each; the log-space route would cap agreement near 1e-14
    J = _lattice(n, d)
    out = np.empty(J.shape[0])
    for i, row in enumerate(J):
        rem = n
        c = 1
        for v in row:
            c *= math.comb(rem, int(v))
            rem -= int(v)
        out[i] = float(c)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _oracle_degree_limit(w: int) -> int:
    """The largest degree at which every C(n; j) of a w-wide block is a finite
    float. The largest C(n; j) is the one whose w + 1 parts (j and n - |j|)
    are as equal as possible."""

    def fits(n):
        q, r = divmod(n, w + 1)
        top = math.factorial(n) // (math.factorial(q + 1) ** r * math.factorial(q) ** (w + 1 - r))
        return top <= sys.float_info.max

    lo, hi = 0, 1100  # C(1100, 550) alone is past the float range
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def _block_weights(n: int, order, P: np.ndarray) -> np.ndarray:
    """Order-k partials of one block's degree-n basis at points P, (L_b, points).

    The basis function of index j is C(n; j) x^j r^q, with r = 1 - |x| and
    q = n - |j|. Since dr/dx_i = -1, the Leibniz rule gives its order-k
    partial as the sum over l <= k of
    prod_i C(k_i, l_i) (j_i)_{l_i} x_i^(j_i - l_i) * (-1)^s (q)_s r^(q - s),
    with s = |k| - |l| and (a)_m the falling factorial. The powers are
    gathered from one table per axis and one for r, whose last row is
    zero: a negative exponent comes with a zero falling factorial. C(n; j)
    multiplies the sum last, so that no term overflows where it fits a
    float.
    """
    J = _lattice(n, P.shape[1])
    q = n - J.sum(axis=1)
    r = np.maximum(1.0 - P.sum(axis=1), 0.0)
    tables = []
    for base in (*P.T, r):
        table = np.zeros((n + 2, base.size))
        table[:-1] = base ** np.arange(n + 1)[:, None]
        tables.append(table)
    W = np.zeros((J.shape[0], P.shape[0]))
    for low in itertools.product(*(range(k + 1) for k in order)):
        s = sum(order) - sum(low)
        c = np.full(J.shape[0], (-1.0) ** s) * _falling(q, s)
        term = tables[-1][np.maximum(q - s, -1)]
        for i, l in enumerate(low):
            c = c * (math.comb(order[i], l) * _falling(J[:, i], l))
            term *= tables[i][np.maximum(J[:, i] - l, -1)]
        term *= c[:, None]
        W += term
    W *= _exact_multinomial_simplex(n, P.shape[1])[:, None]
    return W


def oracle_deriv(f, kind: Kind, k, n: int, x):
    """Derivative of the same polynomial via differentiated basis functions.

    Independent of the difference-based path: it consumes the original
    samples f(j/n) on the full lattice and analytic derivatives of each
    block's basis. Block 0's weights meet the samples, shaped (L_0, L / L_0),
    in one BLAS product; each further block's weights then multiply the
    rows in lattice order and are summed out. Points go in chunks, so that
    no array exceeds _CHUNK_FLOATS. Intended as a cross-check, not as the
    production evaluator. The exact coefficients C(n; j) must be finite
    floats, which bounds the degree (_oracle_degree_limit); a higher degree
    is a ValueError before f is sampled.
    """
    order = as_index(k)
    d = len(order)
    n = _degree(n)
    widths = _widths(kind, d)
    limit = _oracle_degree_limit(max(widths))
    if n > limit:
        raise ValueError(
            f"oracle_deriv's degree limit on a {max(widths)}-wide block is {limit}, "
            f"where the coefficients C(n; j) still fit a float; got n = {n}"
        )
    model = build_model(f, kind, n, d)
    P, single = _prepare_points(x, kind, d)
    out = np.zeros(P.shape[0])
    if _reduced_degrees(widths, order, n) is not None:
        cols = _slices(widths)
        S = model.samples.reshape(math.comb(n + widths[0], n), -1)
        # per point, block 0's weights hold L_0 rows and its power tables
        # (w_0 + 1)(n + 2); the product with the samples holds L / L_0
        rows = max(S.shape[0] + (widths[0] + 1) * (n + 2), S.shape[1])
        step = max(1, _CHUNK_FLOATS // rows)
        for lo in range(0, P.shape[0], step):
            pts = P[lo : lo + step]
            # the other blocks' weights are made first, so that no block's
            # temporaries live beside the product, the largest array
            rest = [_block_weights(n, order[s], pts[:, s]) for s in cols[1:]]
            t = functools.reduce(
                lambda t, Wb: np.einsum("jm,jrm->rm", Wb, t.reshape(Wb.shape[0], -1, t.shape[1])),
                rest,
                S.T @ _block_weights(n, order[cols[0]], pts[:, cols[0]]),
            )
            out[lo : lo + step] = t[0]
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# separable grid paths (tensor-product grids on the cube)


def _grid_contract(coef: np.ndarray, mats) -> np.ndarray:
    """Sum out lattice axis i of coef against the weight table mats[i], one
    axis at a time; the grid axes take the lattice axes' places, in order."""
    for W in mats:
        coef = np.tensordot(coef, W, axes=(0, 0))
    return coef


def _grid_partial(model: BernsteinModel, order, axes) -> np.ndarray:
    """The order-k partial of a cube model over a tensor-product grid; order 0 is the value."""
    if model.kind != CUBE:
        raise ValueError("model kind is not cube")
    n, d = model.degree, model.dim
    widths = _widths(CUBE, d)
    cols = _grid_axes(axes, d)
    degrees = _reduced_degrees(widths, order, n)
    if degrees is None:
        return np.zeros(tuple(c.size for c in cols))
    mats = [_binomial_table((deg,), c) for deg, c in zip(degrees, cols)]
    return _scale(widths, order, n) * _grid_contract(_differences(model, order), mats)


def eval_cube_grid(model: BernsteinModel, axes) -> np.ndarray:
    """Evaluate a cube model over a tensor-product grid, one array per axis.

    Returns the value tensor indexed like meshgrid(*axes, indexing="ij").
    Far cheaper than pointwise evaluation on full grids.
    """
    return _grid_partial(model, (0,) * model.dim, axes)


def deriv_cube_grid(f, k, n: int, axes) -> np.ndarray:
    """Closed-form cube derivative over a tensor-product grid; f is sampled by build_model."""
    order = as_index(k)
    return _grid_partial(build_model(f, CUBE, n, len(order)), order, axes)


def _grid_axes(axes, d):
    cols = [np.asarray(a, dtype=np.float64) for a in axes]
    if len(cols) != d:
        raise ValueError("one coordinate array per axis is required")
    out = []
    for c in cols:
        c2, _ = _prepare_points(c[:, None], CUBE, 1)
        out.append(c2[:, 0])
    return out


# ---------------------------------------------------------------------------
# serialization


def dump_model(model: BernsteinModel) -> str:
    """Text form: header "kind n d [d1 d2]", then one sample per line, each
    with 17 significant digits ("%.17g", the digits of format(v, ".17g")),
    so that parse_model reads back the same float. The samples are
    formatted in one pass."""
    head = f"{model.kind.name} {model.degree} {model.dim}"
    if model.kind.name == "mixed":
        head += f" {model.kind.d1} {model.dim - model.kind.d1}"
    return f"{head}\n" + ("%.17g\n" * model.samples.size) % tuple(model.samples.tolist())


def parse_model(text: str) -> BernsteinModel:
    """Model from its text form: the header, then one sample per line.

    An ASCII text whose sample lines fill at least _BULK_BYTES, with its
    header on the first line and every sample line in dump_model's grammar
    (-?D+(.D+)?([eE][+-]?D+)?, lines ended by "\n" alone, none blank), has
    its samples converted in bulk (_read_plain): each is the float nearest
    its decimal value, as float() gives it, and a line whose rounding the
    bulk arithmetic cannot decide is read by float() itself. Any other text
    is read as before (_read_lines): blank and whitespace-only lines are
    skipped anywhere, any line break str.splitlines knows (CRLF among them)
    ends a line, and the sample lines go through one np.loadtxt call.
    Either way a line that is not one number is a ValueError naming the
    line.
    """
    eol = text.find("\n")
    head = text[:eol]
    samples = None
    # str.isascii is O(1); a printable first line holds no other line break
    if eol >= 0 and len(text) - eol > _BULK_BYTES and text.isascii() and head.isprintable() and head.strip():
        samples = _read_plain(text.encode("ascii"), eol + 1)
    if samples is None:
        lines = text.splitlines()
        at = next((i for i, ln in enumerate(lines) if ln.strip()), None)
        if at is None:
            raise ValueError("empty model text")
        head = lines[at]
    head = head.split()
    if head[0] in ("cube", "simplex"):
        if len(head) != 3:
            raise ValueError("header must be 'kind n d'")
        kind = CUBE if head[0] == "cube" else SIMPLEX
        n, d = int(head[1]), int(head[2])
    elif head[0] == "mixed":
        if len(head) != 5:
            raise ValueError("mixed header must be 'mixed n d d1 d2'")
        n, d, d1, d2 = (int(v) for v in head[1:])
        if d1 + d2 != d:
            raise ValueError("mixed header blocks do not sum to the dimension")
        kind = mixed(d1)
    else:
        raise ValueError(f"unknown kind {head[0]!r} in model header")
    if samples is None:
        samples = _read_lines(lines, at + 1)
    return BernsteinModel(kind=kind, degree=n, dim=d, samples=samples.view(_Fresh))


def _read_lines(lines, start: int) -> np.ndarray:
    """The samples of lines[start:], blank and whitespace-only lines
    skipped, by one np.loadtxt call."""
    rest = lines[start:]
    # np.loadtxt warns on text with no data, so blank lines alone skip it
    if not any(ln.strip() for ln in rest):
        return np.empty(0)
    try:
        samples = np.loadtxt(rest, dtype=np.float64, comments=None, ndmin=2)
    except ValueError as err:
        raise _sample_line_error(lines, start) from err
    if samples.shape[1] != 1:
        raise _sample_line_error(lines, start)
    return samples.reshape(-1)


# Classes of the bytes of a sample line other than digits (class 0). A "+"
# or "-" right after an exponent mark becomes _XSIGN; every other "+" and any
# byte outside the grammar stay in classes no pair of _PAIRS takes.
_NL, _MINUS, _PLUS, _DOT, _EXP, _XSIGN, _BAD = range(1, 8)

# The grammar as the pairs (a, b, digits between) of consecutive non-digit
# bytes that its lines make; the text starts after a virtual "\n".
_PAIRS = (
    (_NL, _MINUS, 0), (_NL, _DOT, 1), (_NL, _EXP, 1), (_NL, _NL, 1),
    (_MINUS, _DOT, 1), (_MINUS, _EXP, 1), (_MINUS, _NL, 1),
    (_DOT, _EXP, 1), (_DOT, _NL, 1),
    (_EXP, _XSIGN, 0), (_EXP, _NL, 1), (_XSIGN, _NL, 1),
)

# 10^q for |q| <= _POW10_RANGE sits in a table. With 1 <= M < 10^18, every
# M * 10^q then lies in [10^-270, 10^288], inside [2^-897, 2^957], so each
# product and rounding error below stays normal or, for the table's low
# parts, negligible.
_POW10_RANGE = 270
# Below this many bytes of samples (~1,600 lines of "%.17g") the bulk
# reader's fixed cost, some 60 numpy calls per piece, is more than it saves
# over np.loadtxt: on the benchmark's point workload a 289-line model loaded
# 0.2 ms slower in bulk, a 969-line one as fast, a 2,197-line one 0.2 ms
# faster.
_BULK_BYTES = 2**15
# Pieces of this many bytes (~13,000 lines) keep every per-line float64
# array near 100 KiB, below the 128 KiB past which malloc maps fresh pages
# on each allocation; a 20,349-line model read in one piece loaded ~2 ms
# slower.
_PIECE_BYTES = 2**18
# e/E end a token: the mantissa digits and the exponent are read as integers
_TOKENS = bytes.maketrans(b"eE", b"\n\n")


@functools.cache
def _reader_tables():
    """Byte classes, accepted pair codes (a << 4 | b << 1 | digits between),
    and the rows hi, hi1, hi2, lo over q = -_POW10_RANGE..._POW10_RANGE:
    10^q = hi + lo, both rounded to nearest from the exact value, and hi =
    hi1 + hi2, halves of 26 bits (Veltkamp) for an exact product; all
    read-only."""
    byte_class = np.full(256, _BAD, dtype=np.uint8)
    for char, cls in ((b"\n", _NL), (b"-", _MINUS), (b"+", _PLUS), (b".", _DOT), (b"e", _EXP), (b"E", _EXP)):
        byte_class[char[0]] = cls
    pair_ok = np.zeros(128, dtype=bool)
    pair_ok[[a << 4 | b << 1 | digits for a, b, digits in _PAIRS]] = True
    hi, lo = [], []
    for q in range(-_POW10_RANGE, _POW10_RANGE + 1):
        if q >= 0:
            exact = 10**q
            hi.append(float(exact))
            lo.append(float(exact - int(hi[-1])))
        else:
            # hi = num / den exactly; int / int is correctly rounded
            exact = 10**-q
            hi.append(1 / exact)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * exact) / (den * exact))
    hi, lo = np.array(hi), np.array(lo)
    big = hi * 134217729.0
    hi1 = big - (big - hi)
    tables = byte_class, pair_ok, np.stack([hi, hi1, hi - hi1, lo])
    for table in tables:
        table.setflags(write=False)
    return tables


def _read_plain(raw: bytes, start: int = 0):
    """The samples of the lines of raw[start:] when all are in dump_model's
    grammar, each the float nearest its decimal value; None otherwise, and
    parse_model then reads the text line by line. The lines are read in
    pieces of about _PIECE_BYTES."""
    if raw[-1:] != b"\n":
        raw += b"\n"
    out = np.empty(raw.count(b"\n", start))
    done = 0
    while start < len(raw):
        stop = raw.find(b"\n", start + _PIECE_BYTES) + 1 or len(raw)
        vals = _read_piece(raw[start:stop])
        if vals is None:
            return None
        out[done : done + vals.size] = vals
        done += vals.size
        start = stop
    return out


def _read_piece(raw: bytes):
    """_read_plain on whole lines, raw ending in "\n".

    Every line's significant digits are read as one integer M, with a
    decimal exponent q (np.fromstring on the text with "." dropped and e/E
    made line breaks), and M * 10^q is rounded by an error-free
    double-double product over the table of 10^q (Dekker 1971). A line
    whose rounding that cannot decide, or that is out of its range, is
    read by float().
    """
    byte_class, pair_ok, pow10 = _reader_tables()
    byte = np.frombuffer(raw, dtype=np.uint8)
    at = np.flatnonzero(byte - 48 > 9)
    cls = byte_class[byte[at]]
    # cls[-1] is the last "\n", so every exponent mark has a successor
    sign = np.flatnonzero(cls == _EXP) + 1
    sign = sign[(at[sign] == at[sign - 1] + 1) & ((cls[sign] == _MINUS) | (cls[sign] == _PLUS))]
    cls[sign] = _XSIGN
    code = cls << 1
    code[0] |= _NL << 4 | (at[0] > 0)
    code[1:] |= cls[:-1] << 4
    code[1:] |= np.diff(at) > 1
    if not pair_ok[code].all():
        return None

    # The grammar holds, so line i's marks come in the order "-", ".",
    # exponent mark, exponent sign, from first[i] to its "\n" at ends[i].
    ends = np.flatnonzero(cls == _NL)
    first = np.empty_like(ends)
    first[0] = 0
    first[1:] = ends[:-1] + 1
    minus = cls[first] == _MINUS
    dot = first + minus
    has_dot = cls[dot] == _DOT
    e_lines = np.flatnonzero(cls[dot + has_dot] == _EXP)
    tok = np.fromstring(raw.translate(_TOKENS, b"."), dtype=np.int64, sep="\n")
    if tok.size != ends.size + e_lines.size:
        return None
    # line i's tokens are its digits, then its exponent if it has one
    xtok = e_lines + np.arange(1, e_lines.size + 1)
    M = np.delete(tok, xtok)
    # the digits after a "." run up to the next mark
    q = np.where(has_dot, at[dot] + 1 - at.take(dot + 1, mode="clip"), 0)
    q[e_lines] += tok[xtok]
    row = q + _POW10_RANGE
    # the parse saturates, so an overflowing M or exponent lands outside
    # these bounds
    ok = (row.view(np.uint64) <= 2 * _POW10_RANGE) & (M < 10**18) & (M > -(10**18))
    row[~ok] = 0
    M[~ok] = 0
    M = np.abs(M)
    a = M.astype(np.float64)
    b = (M - a.astype(np.int64)).astype(np.float64)  # M = a + b exactly, |b| <= 64
    a[~ok] = np.nan
    h, h1, h2, lo = pow10[:, row]
    big = a * 134217729.0
    a1 = big - (big - a)
    a2 = a - a1
    p = a * h
    # TwoProduct (Dekker 1971): p + err = a * h exactly
    err = a2 * h2 - (((p - a1 * h1) - a2 * h1) - a1 * h2)
    t = err + (a * lo + b * h)
    r = p + t
    r_err = t - (r - p)  # Fast2Sum, |t| < |p|: r + r_err = p + t exactly
    # Error bound. With u = 2^-53, A = |a h| and 10^q = h + lo + eta, where
    # |eta| <= u |lo| <= u^2 |h| (1 + u), the value is
    #   M 10^q = a h + a lo + b h + b lo + M eta.
    # t drops b lo and M eta (u^2 A each) and rounds a lo, b h, their sum
    # and err plus that sum (u^2 A, u^2 A, 2 u^2 A, 3 u^2 A), so
    # |M 10^q - (p + t)| <= 9 u^2 A (1 + 4u) < 2^-102 r. A low part of the
    # table that is subnormal adds at most 2^-1074 M < 2^-115 r. So M 10^q
    # is within |r_err| + 2^-100 r of r, and r is its rounding to nearest
    # when that is below half the gap between r and its lower neighbour,
    # the smaller of r's two gaps. Half that gap is at least 2^-54 r, so
    # |r_err| < (1/2 - 2^-46) gap suffices. Ties and anything nearer a
    # midpoint fail it and go to float().
    fine = (np.abs(r_err) < (r - np.nextafter(r, 0)) * (0.5 - 2.0**-46)) | (a == 0)
    r[minus] = -r[minus]  # -0 too
    for i in np.flatnonzero(~fine).tolist():
        start = at[ends[i - 1]] + 1 if i else 0
        r[i] = float(raw[start : at[ends[i]]])
    return r


def _sample_line_error(lines, start: int) -> ValueError:
    """The error naming the first sample line, from lines[start] on, that is
    not one number as np.loadtxt reads it: one field, ASCII, that float()
    takes without digit-group underscores. Runs only once the text has
    failed to load."""
    for no, line in enumerate(lines[start:], start + 1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) == 1 and fields[0].isascii() and "_" not in fields[0]:
            try:
                float(fields[0])
                continue
            except ValueError:
                pass
        return ValueError(f"line {no}: {line!r} is not one number")
    return ValueError("a sample line is not one number")


def save_model(model: BernsteinModel, path):
    with open(path, "w", encoding="utf8") as fh:
        fh.write(dump_model(model))


def load_model(path) -> BernsteinModel:
    with open(path, "r", encoding="utf8") as fh:
        return parse_model(fh.read())
