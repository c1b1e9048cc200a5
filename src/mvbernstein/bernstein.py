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
degree n (degree elevation, exact, once per model for a value and once per
call for a derivative), and is one BLAS product with a single degree-n
table of those rows. A caller whose points share few last collapsed
coordinates, as a grid's points do, may have that product, and a
one-degree last axis's, taken once per distinct coordinate and gathered
per point. Every other varying-degree axis takes, per degree q, one
product of its child rows with power tables of t^j and (1 - t)^i built by
repeated multiplication, with no exp: the
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

from .multiindex import (
    _TABLE_BYTES,
    _check_budget,
    _degree,
    _integer,
    _log_binomial_row,
    _simplex_rows,
    _table_cache,
    as_index,
)

# Points this far outside the boundary are clamped; farther out is an error.
CLAMP_TOL = 1e-12

# The one chunk budget: every array that grows with points times lattice
# rows, or with rows times coordinates, is made one chunk at a time
# (_chunks) and stays below this many floats. Points handed to f take an
# eighth of it (_blockwise), which leaves the rest to the arrays f makes
# from them.
_CHUNK_FLOATS = 2**20


class DomainError(ValueError):
    """A point lies outside the model domain by more than the clamp tolerance."""


@dataclass(frozen=True)
class Kind:
    """Domain kind tag; mixed kinds carry the width d1 of the simplex block,
    a positive integer. Any other name or width is refused here, and a width
    above the dimension where the kind meets one."""

    name: str
    d1: int | None = None

    def __post_init__(self):
        if self.name not in ("cube", "simplex", "mixed"):
            raise ValueError(f"unknown kind {self.name!r}")
        if self.name != "mixed":
            if self.d1 is not None:
                raise ValueError(f"{self.name} kind does not take a block width")
            return
        d1 = _integer(self.d1, "block width")
        if d1 < 1:
            raise ValueError("the simplex block needs at least one axis")
        object.__setattr__(self, "d1", d1)


CUBE = Kind("cube")
SIMPLEX = Kind("simplex")


def mixed(d1: int) -> Kind:
    """Mixed domain: a d1-simplex times a cube over the remaining axes."""
    return Kind("mixed", d1)


def _widths(kind: Kind, d: int) -> tuple[int, ...]:
    """Block widths of the kind on d axes, in axis order: cube (1,)*d, simplex
    (d,), mixed(d1) (d1, 1, ..., 1). The one check of a kind against d."""
    if not isinstance(kind, Kind):
        raise TypeError("kind must be a Kind")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if kind.name == "cube":
        return (1,) * d
    if kind.name == "simplex":
        return (d,)
    if kind.d1 > d:
        raise ValueError("mixed kind needs 1 <= d1 <= dim")
    return (kind.d1,) + (1,) * (d - kind.d1)


def _slices(widths) -> list[slice]:
    """The coordinate axes of each block."""
    ends = itertools.accumulate(widths)
    return [slice(end - w, end) for w, end in zip(widths, ends)]


def _reduced_degrees(widths, order, n: int):
    """Per-block degrees n - |k_b| of the order-k derivative; None if it vanishes."""
    degrees = tuple(n - sum(order[s]) for s in _slices(widths))
    return None if min(degrees) < 0 else degrees


def _point_order(order, x):
    """Refuse, naming both lengths, an order not as long as the points x are wide."""
    shape = np.shape(x)
    if len(shape) in (1, 2) and shape[-1] != len(order):
        raise ValueError(f"order {order} has length {len(order)}, but the point has {shape[-1]} coordinates")


def _prepare_points(x, kind: Kind, d: int | None = None):
    """Validate and clamp evaluation points; returns ((m, d) array, single?).

    With d None the points set the dimension. Each block's coordinate sum
    may exceed 1 by CLAMP_TOL and is then scaled back onto 1.
    """
    P = np.asarray(x, dtype=np.float64)
    single = P.ndim == 1
    if single:
        P = P[None, :]
    if P.ndim != 2:
        raise ValueError("points must be a (d,) vector or an (m, d) array")
    d = P.shape[1] if d is None else d
    widths = _widths(kind, d)
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
    """A view of a flat float64 sample array that owns its data and that
    nothing else holds, as build_model and parse_model make it: a model
    built on it takes that array over without a copy."""


@dataclass(frozen=True)
class BernsteinModel:
    """Sampled values f(j/n) over the lattice of (kind, degree, dim).

    The samples are read-only and own their data (no writable base holds
    them). A model whose last axis varies in degree (a simplex, or a mixed
    kind whose block spans every axis) keeps the elevated rows of its
    samples (_elevated), made by its first `evaluate` batch past the gather
    rule: at most d L floats, read-only, freed with the model, and made
    again if the samples change in place.
    """

    kind: Kind
    degree: int
    dim: int
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "dimension"))
        _widths(self.kind, self.dim)
        object.__setattr__(self, "degree", _degree(self.degree))
        # a caller's array is copied, so that changing it later leaves the
        # model as it was; a _Fresh one's array is taken over
        if type(self.samples) is _Fresh:
            arr = self.samples.base
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

    def __getstate__(self):
        # a pickle or copy leaves the kept rows behind; its first batch remakes them
        state = dict(vars(self))
        state.pop("_elevated", None)
        return state


@_table_cache
def _lattice(n: int, w: int) -> np.ndarray:
    """Lattice of one w-wide simplex block at degree n, read-only, lexicographic.

    Entries are at most n, so they are int32; the index arithmetic on them
    widens to int64 through its sums.
    """
    return _simplex_rows(n, w)


def _sizes(widths, degrees) -> tuple[int, ...]:
    """Lattice size of each block at its degree."""
    return tuple(math.comb(deg + w, w) for w, deg in zip(widths, degrees))


def _product_lattice(widths, degrees, block=_lattice) -> np.ndarray:
    """Product of the block lattices at their degrees, lexicographic.

    The rows fill one (L_0, L_1, ..., d) array: block b's lattice, made by
    block(n_b, w_b), is broadcast along axis b into its own columns. A
    single block's lattice is the one block makes: by default the cached,
    read-only one itself.
    """
    lattices = [block(deg, w) for w, deg in zip(widths, degrees)]
    if len(lattices) == 1:
        return lattices[0]
    sizes = [J.shape[0] for J in lattices]
    out = np.empty((*sizes, sum(widths)), dtype=lattices[0].dtype)
    for b, (J, cols) in enumerate(zip(lattices, _slices(widths))):
        shape = [1] * len(sizes) + [J.shape[1]]
        shape[b] = J.shape[0]
        out[..., cols] = J.reshape(shape)
    return out.reshape(-1, sum(widths))


def model_size(kind: Kind, n: int, d: int) -> int:
    """Sample count L of the kind's degree-n lattice on d axes. An integral
    float n or d such as 2.0 counts as 2; 2.5 or -1 is a ValueError."""
    return _model_size(kind, _degree(n, 0), _integer(d, "dimension"))


@functools.lru_cache(maxsize=256, typed=True)
def _model_size(kind: Kind, n: int, d: int) -> int:
    # cached: every build reads it twice, for the memory budget and for the
    # sample count
    widths = _widths(kind, d)
    return math.prod(_sizes(widths, (n,) * len(widths)))


def model_lattice(kind: Kind, n: int, d: int) -> np.ndarray:
    """The sample lattice of the kind, lexicographic on full index tuples, as
    an (L, d) int32 array, read-only; for a kind of one block, the table
    cache's own block lattice.
    The degree and dimension are normalized as model_size does it.
    Past MEMORY_BUDGET it is a SizeError, raised before anything the size of
    the lattice is allocated."""
    n = _degree(n, 0)
    d = _integer(d, "dimension")
    _check_model(kind, n, d)
    widths = _widths(kind, d)
    return _product_lattice(widths, (n,) * len(widths))


def _check_model(kind: Kind, n: int, d: int) -> int:
    """Refuse a model past MEMORY_BUDGET, naming the kind, n, d and its size;
    else return its estimate in bytes: L (4 d + 8) for the int32 lattice and
    the samples, 8 d L for the float points, counted whole though f sees
    them a block at a time, and f's block, at most an eighth of
    _CHUNK_FLOATS (_blockwise), with the arrays f makes from it:
    _CHUNK_FLOATS floats, or 8 d L where that is less, so that a small
    model does not gain 8 MiB."""
    size = _model_size(kind, n, d)
    need = size * (12 * d + 8) + 8 * min(_CHUNK_FLOATS, 8 * d * size)
    name = kind.name if kind.d1 is None else f"mixed({kind.d1})"
    what = "a {} model at n = {}, d = {} has {:,} samples, a working set of {} GiB"
    _check_budget(what, (name, n, d, size), need)
    return need


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
    d = _integer(d, "dimension")
    vals = _sample(f, model_lattice(kind, n, d), n)
    return BernsteinModel(kind=kind, degree=n, dim=d, samples=vals.view(_Fresh))


@_table_cache
def _multiples(n: int, w: int, s: int) -> np.ndarray:
    """The rows of _lattice(n, w) whose entries are all multiples of s, as
    a mask, cached and read-only. They are s times the rows of
    _lattice(n // s, w), in its order, since j -> s j keeps lexicographic
    order."""
    return (_lattice(n, w) % s == 0).all(axis=1)


def _coarser(model: BernsteinModel, n: int) -> BernsteinModel:
    """The model of the same f at a degree n that divides the model's,
    its samples read from the model's: the point j / n and the point
    (N / n) j / N are the same double, each the correctly rounded quotient
    of one rational. So for f pointwise, as a ScalarField is, the model is
    the one build_model would sample. Each block's rows are picked along
    its own tensor axis: a 1-wide block's are every (N / n)-th, a view."""
    N = model.degree
    widths = _widths(model.kind, model.dim)
    samples = model.samples.reshape(_sizes(widths, (N,) * len(widths)))
    for axis, w in enumerate(widths):
        pick = slice(None, None, N // n) if w == 1 else _multiples(N, w, N // n)
        samples = samples[(slice(None),) * axis + (pick,)]
    return BernsteinModel(model.kind, n, model.dim, samples.flatten().view(_Fresh))


def _chunks(rows: int, floats_per_row: int, share: int = 1) -> list[slice]:
    """Slices of `rows` rows of floats_per_row floats each, so that a chunk
    holds at most _CHUNK_FLOATS / share floats, or one row: the chunks of
    points of the contraction and the oracle, and at share 8 f's blocks."""
    step = max(1, _CHUNK_FLOATS // (share * floats_per_row))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _blockwise(f, shape, floats_per_row: int, points, wrong) -> np.ndarray:
    """f's values as a float64 array of `shape`, filled one block of its
    first axis at a time: f gets points(rows), rows of floats_per_row
    coordinates each that fill at most an eighth of _CHUNK_FLOATS, and owes
    the block's shape; another shape is a ValueError of the text
    wrong(f's shape, the block's shape)."""
    vals = np.empty(shape)
    for rows in _chunks(shape[0], floats_per_row, 8):
        out = np.asarray(f(points(rows)), dtype=np.float64)
        if out.shape != vals[rows].shape:
            raise ValueError(wrong(out.shape, vals[rows].shape))
        vals[rows] = out
    return vals


def _sample(f, lattice: np.ndarray, n: int) -> np.ndarray:
    """f at the points lattice / n, one block of rows at a time."""
    points = lambda rows: lattice[rows] / float(n)
    wrong = lambda *_: "batch evaluator returned a wrong shape"
    try:
        return _blockwise(f, lattice.shape[:1], lattice.shape[1], points, wrong)
    except Exception as err:
        warnings.warn(
            f"batch evaluation of f failed ({type(err).__name__}: {err}); "
            f"sampling {lattice.shape[0]} lattice points one at a time",
            RuntimeWarning,
            stacklevel=3,
        )
    vals = np.empty(lattice.shape[0])
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


@_table_cache
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
    return np.stack([j, top - j, logc], axis=1), (j == 0) * 1.0, (j == top) * 1.0


def _binomial_table(weights, t: np.ndarray) -> np.ndarray:
    """C(p, j) t^j (1 - t)^(p - j) for every (p, j) of `weights`, the
    tables _weight_rows makes, one column per t.

    One (K, 3) @ (3, m) product with (ln t, ln(1 - t), 1), then exp, so no
    degree overflows; exact at t = 0 and t = 1, where 0^0 = 1.
    """
    rows, at0, at1 = weights
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

    Every axis holds the _weight_rows tables of its `degrees` in
    `weights`, so that a call looks up none. An axis with one degree has
    the same children under every parent and is a reshape. Otherwise
    `index` holds the weight row of each child row (int32, since no
    lattice has 2^31 rows) and `starts` the first child row of each
    parent row. A varying-degree axis other than the last also
    holds, for its power-table sum, the folded binomial C(q, j) / 2^e_q of
    each child row (`fold`) and, per degree q that has parents, `steps`:
    (q, child rows, parent rows, 2^e_q). The last axis holds, for its
    elevation, the same selectors per degree, (q, child rows, parent rows),
    in `runs`. Each row selector is a slice where its rows are contiguous,
    else an index array (_runs).
    """

    col: int
    degrees: tuple[int, ...]
    weights: tuple
    index: np.ndarray | None = None
    starts: np.ndarray | None = None
    fold: np.ndarray | None = None
    steps: tuple = ()
    runs: tuple = ()


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


def _runs(starts, q_of) -> tuple:
    """Per degree q that has parents, (q, child rows, parent rows), where
    q_of holds each parent row's child degree. A degree's parents are
    increasing; when they are consecutive, so are their children, and both
    selectors are slices, so that indexing by them makes views. Otherwise
    they are index arrays, the parents' first child rows standing for
    their children (see _children)."""
    parents = np.argsort(q_of, kind="stable")
    bounds = np.searchsorted(q_of[parents], np.arange(q_of.max() + 2)).tolist()
    order, first = parents.tolist(), starts.tolist()
    runs = []
    for q, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if lo == hi:
            continue
        a, b = order[lo], order[hi - 1]
        if b - a == hi - lo - 1:
            kids, rows = slice(first[a], first[a] + (hi - lo) * (q + 1)), slice(a, b + 1)
        else:
            rows = parents[lo:hi].copy()
            kids = starts[rows]
        runs.append((q, kids, rows))
    return tuple(runs)


def _children(kids, q: int):
    """The child rows of a run of _runs at degree q: its slice, or the
    (parents, q + 1) rows that follow each first child row."""
    return kids if isinstance(kids, slice) else kids[:, None] + np.arange(q + 1)


@_table_cache
def _plan(widths: tuple[int, ...], degrees: tuple[int, ...]):
    """Index arrays of the per-axis contraction of the (widths, degrees) lattice.

    Level a of the lattice holds the distinct prefixes (j_1, ..., j_a) of its
    rows, in lexicographic order, so the children of each level a - 1 row
    are contiguous. Returns the axes last first, and the largest row count
    of an intermediate level or of one degree's weight rows, which sizes
    point chunks. Its lattice is made afresh, not kept in the table cache:
    only this call reads it, and at a derivative's reduced degrees a kept
    copy would crowd out the tables that later calls read. So are its
    axes' weight rows, one table per distinct degree tuple, so that the
    cache counts their bytes once, with the plan.
    """
    weight_rows = functools.cache(_weight_rows.__wrapped__)
    J = _product_lattice(widths, degrees, _simplex_rows)
    d = J.shape[1]
    # the first column in which each row differs from the row before it
    change = np.concatenate([[0], np.argmax(J[1:] != J[:-1], axis=1)])
    firsts = [np.flatnonzero(change < a) if a else np.zeros(1, np.intp) for a in range(d + 1)]
    axes = []
    for s, n_b in zip(_slices(widths), degrees):
        axes.append(_Axis(s.start, (n_b,), weight_rows((n_b,))))
        for c in range(s.start + 1, s.stop):
            if n_b == 0:
                axes.append(_Axis(c, (0,), weight_rows((0,))))
                continue
            kids = firsts[c + 1]
            p = n_b - J[kids, s.start:c].sum(axis=1)
            starts = np.searchsorted(kids, firsts[c])
            index = (p * (p + 1) // 2 + J[kids, c]).astype(np.int32)
            runs = _runs(starts, p[starts])
            varying = tuple(range(n_b + 1))
            axis = _Axis(c, varying, weight_rows(varying), index, starts)
            if c < d - 1:
                folds, scales = _folded_binomials(n_b)
                steps = tuple((q, kids, rows, scales[q]) for q, kids, rows in runs)
                axis = axis._replace(fold=folds[index], steps=steps)
            else:
                axis = axis._replace(runs=runs)
            axes.append(axis)
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
        W = _binomial_table(axis.weights, t)
        return np.einsum("rjm,jm->rm", V.reshape(-1, W.shape[0], m), W)
    if not power:
        G = _binomial_table(axis.weights, t).take(axis.index, axis=0)
        G *= V
        return np.add.reduceat(G, axis.starts, axis=0)
    tj, ti = _powers(t, axis.degrees[-1])
    out = np.empty((axis.starts.size, m))
    for q, kids, parents, scale in axis.steps:
        part = np.einsum("pjm,jm,jm->pm", V[_children(kids, q)].reshape(-1, q + 1, m), tj[: q + 1], ti[q::-1])
        part *= scale
        out[parents] = part
    return out


def _elevation_steps(N: int):
    """The elevation matrices E_q of _elevate for q = N, N - 1, ..., 0, each
    (q + 1, N + 1), made one from the last: E_N = I, then the convex step."""
    p = np.arange(1, N + 1)[:, None]  # q + 1 for q = 0..N-1
    j = np.arange(N + 1)
    stay, step = (p - j) / p, (j + 1) / p
    E = np.eye(N + 1)
    yield E
    for q in range(N - 1, -1, -1):
        E = stay[q, : q + 1, None] * E[:-1] + step[q, : q + 1, None] * E[1:]
        yield E


@_table_cache
def _elevations(N: int) -> tuple[np.ndarray, ...]:
    """The whole stack E_N, ..., E_0 of _elevation_steps, cached and read-only:
    8 (N + 1)^2 (N + 2) / 2 bytes."""
    return tuple(_elevation_steps(N))


def _elevate(coef: np.ndarray, axis: _Axis) -> np.ndarray:
    """Each parent row's polynomial along a varying-degree axis, rewritten in
    the basis of the axis's top degree N: (parents, N + 1) coefficients.

    Degree elevation is exact: the degree-q basis function j is
    (q + 1 - j) / (q + 1) times the degree-(q + 1) function j plus
    (j + 1) / (q + 1) times function j + 1. So row j of E_q, that function's
    coefficients in the degree-N basis, is this convex combination of rows
    of E_{q + 1}, from E_N = I down; in closed form it is
    C(q, j) C(N - q, i - j) / C(N, i) over i. Convex steps keep it within a
    few ulps of that at every degree, and overflow nowhere. The stack of
    every E_q is made once and kept in the table cache while it fills at
    most a quarter of the cache's budget (N <= 100 at 16 MiB); a larger one
    is made one matrix at a time on every call, and never held whole. Both
    take the same steps, so the result is the same to the bit.
    """
    N = axis.degrees[-1]
    whole = 4 * (N + 1) ** 2 * (N + 2) <= _TABLE_BYTES // 4
    out = np.empty((axis.starts.size, N + 1))
    # the last axis of a block has parents at every degree 0..N
    for (q, kids, rows), E in zip(reversed(axis.runs), _elevations(N) if whole else _elevation_steps(N)):
        out[rows] = coef[_children(kids, q)].reshape(-1, q + 1) @ E
    return out


def _elevated(coef: np.ndarray, axis: _Axis, model: BernsteinModel | None) -> np.ndarray:
    """_elevate's rows of coef; when coef is the samples of `model`, the rows
    kept on the model, made on its first call and read on every later one.

    The rows are read-only and stored beside a hash of the samples' bytes,
    so that samples changed in place since (made writable again) are
    elevated afresh. They are an attribute of the model, not a field, and
    go with it; no table cache holds them.
    """
    if model is None:
        return _elevate(coef, axis)
    key = hash(model.samples.tobytes())
    kept = getattr(model, "_elevated", None)
    if kept is None or kept[0] != key:
        rows = _elevate(coef, axis)
        rows.setflags(write=False)
        kept = (key, rows)
        object.__setattr__(model, "_elevated", kept)
    return kept[1]


def _contract_collapsed(coef: np.ndarray, T: np.ndarray, plan, model=None, distinct=None) -> np.ndarray:
    """Values of the flat coefficients coef over the lattice of `plan` at
    the points whose collapsed coordinates are T, one row per axis
    (_collapsed).

    Data is lattice-major, (rows, points). The last axis's coefficients are
    shared by every point. If that axis takes the degrees 0..N and the
    call's chunks are past the gather rule, they are elevated to degree N
    once per call, or once per model when coef is the samples of `model`
    (_elevated), and each chunk sums the axis by one BLAS product with the
    degree-N binomial table, as it does a one-degree axis. Points go in
    chunks, so that no level or table exceeds _CHUNK_FLOATS. The gather
    rule is read once per axis at the call's chunk size, so every chunk,
    the last one too, takes the same arithmetic. A power-table axis
    (_sum_axis) multiplies its folded binomials into its child rows; when
    those are the shared rows, that is done once per call, since a factor
    per row commutes with the elevation and the product.

    A caller whose points repeat their last collapsed coordinate, as a
    grid's do, may hand in distinct = (u, inv): the distinct values u of
    T's last row and each point's index into them. Where the shared rows
    sum the last axis, and u fits in one chunk and is at most a quarter of
    the points, their product with the table at u is taken once per call,
    no more floats than a chunk's, and each chunk gathers its points'
    columns of it: the axis then costs a product per distinct value, not
    per point, and every other decision is the one the call makes without
    u. The gather copies a column per point, so it pays only on few
    distinct values: a simplex d=2 grid, about half of whose points have
    a t_2 of their own, gained nothing by it, and the other kinds' grids
    have at most a fifth. A BLAS product may round a column apart by its
    place among the product's columns, the table's (K, 3) product too, so
    a gathered value may differ from the per-point one in its last bits,
    within the rounding of the sums.
    """
    axes, width = plan
    m = T.shape[1]
    chunks = _chunks(m, width)
    chunk = chunks[0].stop if chunks else 0
    last, rest = axes[0], axes[1:]
    top = last.degrees[-1]
    if last.index is None:
        shared, weights = coef.reshape(-1, top + 1), last.weights
    elif not _gathers(last, chunk):
        shared, weights = _elevated(coef, last, model), _weight_rows((top,))
    else:
        shared = None
    powers = [axis.index is not None and not _gathers(axis, chunk) for axis in rest]
    folds = [axis.fold[:, None] if power else None for axis, power in zip(rest, powers)]
    if shared is not None and powers[:1] == [True]:
        shared, folds[0] = shared * folds[0], None
    summed = None
    if shared is not None and distinct is not None and distinct[0].size <= min(chunk, m // 4):
        u, inv = distinct
        summed = shared @ _binomial_table(weights, u)
    out = np.empty(m)
    for cols in chunks:
        if summed is not None:
            # take, not [:, inv[cols]], keeps V C-contiguous for the einsums
            V = summed.take(inv[cols], axis=1)
        elif shared is None:
            V = _sum_axis(coef[:, None], last, T[last.col, cols], False)
        else:
            V = shared @ _binomial_table(weights, T[last.col, cols])
        for axis, power, fold in zip(rest, powers, folds):
            if fold is not None:
                V *= fold
            V = _sum_axis(V, axis, T[axis.col, cols], power)
        out[cols] = V[0]
    return out


def _contraction_bytes(widths, n: int, m: int) -> int:
    """Bytes that _contract_collapsed holds at once, besides its coefficients
    and output, at m points on the lattice of `widths` at degree n or below.

    Its widest level, the last axis's parent rows, has L w / (n + w) rows
    for a last block w axes wide, and at least n + 1 rows are counted, as
    _plan sizes chunks. Per point of a chunk that counts 3 floats a row of
    that level: the product with the last axis's table at the distinct
    coordinates, held through every chunk, and a level before and after an
    axis is summed; and 3 (n + 1) floats for an axis's weight or power
    tables. An axis summed by a gather holds its weight table and the
    gathered rows, each at most _GATHER_FLOATS_PER_DEGREE (n + 1) floats.
    """
    w = widths[-1]
    size = math.prod(_sizes(widths, (n,) * len(widths)))
    width = max(size // math.comb(n + w, w) * math.comb(n + w - 1, w - 1), n + 1)
    chunk = min(m, max(1, _CHUNK_FLOATS // width))
    return 8 * (chunk * (3 * width + 3 * (n + 1)) + 2 * _GATHER_FLOATS_PER_DEGREE * (n + 1))


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


@_table_cache
def _diff_rows(n: int, w: int, i: int):
    """Where the first difference along axis i of the degree-n lattice reads:
    two selectors of rows of _lattice(n, w), each a slice where its rows
    are consecutive (both of a 1-wide block, whose lattice is 0, ..., n),
    so that it selects a view, and a mask of one byte a row otherwise.

    For j over _lattice(n - 1, w), the rows j are those with |j| < n, and
    the rows j + e_i those with an i-th entry of at least 1. Both come in
    the order of their j: the rows with |j| < n are the degree n - 1
    lattice in its order, and adding e_i to every row keeps lexicographic
    order. Every such stencil lies on the degree-n lattice, since
    |j| + 1 <= n. The masks are cached and read-only; the lattice is made
    afresh, as _plan makes its own.
    """
    L = _simplex_rows(n, w)
    return tuple(_selector(mask) for mask in (L[:, i] > 0, L.sum(axis=1) < n))


def _selector(mask: np.ndarray):
    """The rows of a mask as a slice where they are consecutive, else the mask."""
    rows = np.flatnonzero(mask)
    return slice(int(rows[0]), int(rows[-1]) + 1) if rows[-1] - rows[0] == rows.size - 1 else mask


def _block_diff(T: np.ndarray, axis: int, n: int, order) -> np.ndarray:
    """Order-k_b forward differences of the block whose lattice lies along `axis`.

    Each first difference c(j + e_i) - c(j) takes the block's lattice from
    degree p to degree p - 1 by reading two selections of lattice rows
    (_diff_rows): views where they are slices, so that the difference is
    the one new array, and masked gathers otherwise. Memory stays with the
    lattice.
    """
    w = len(order)
    at = (slice(None),) * axis
    for i, k in enumerate(order):
        for _ in range(k):
            up, lower = _diff_rows(n, w, i)
            T = T[at + (up,)] - T[at + (lower,)]
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
    describes it; order 0 is the value, whose coefficients are the model's
    samples, so the model keeps their elevated rows (_elevated)."""
    P, single = _prepare_points(x, model.kind, model.dim)
    out = _partial_at(model, order, P)
    return float(out[0]) if single else out


def _partial_at(model: BernsteinModel, order, P: np.ndarray, T: np.ndarray | None = None,
                distinct=None) -> np.ndarray:
    """_partial at the prepared points P (_prepare_points), whose collapsed
    coordinates T a caller that reuses them hands in; else they are made
    here, after the differences, so that they never live beside those.
    distinct, the distinct values of T's last row and each point's index
    into them, goes to _contract_collapsed."""
    n = model.degree
    widths = _widths(model.kind, model.dim)
    degrees = _reduced_degrees(widths, order, n)
    if degrees is None:
        return np.zeros(P.shape[0])
    _check_power_degrees(widths, degrees)
    # the plan's cached arrays are allocated before the differences'
    # temporaries, so they do not split the memory those free for reuse
    plan = _plan(widths, degrees)
    coef = _differences(model, order).reshape(-1)
    if T is None:
        T = _collapsed(P, widths)
    return _scale(widths, order, n) * _contract_collapsed(coef, T, plan, None if any(order) else model, distinct)


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
    give 0. The partial is the Bernstein operator of the reduced degrees,
    which is positive and fixes constants, applied to the scaled
    differences; for f in C^k these converge uniformly to the k-th partial
    of f, since every stencil lies in its block. So the paper's result,
    uniform convergence of the partials, holds on every kind, each a
    product of simplex blocks.
    """
    order = as_index(k)
    _point_order(order, x)
    return _partial(build_model(f, kind, n, len(order)), order, x)


# ---------------------------------------------------------------------------
# differentiated-basis oracle


@_table_cache
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

    Past MEMORY_BUDGET it is a SizeError, raised before f is sampled: a
    model past it is refused as build_model refuses it, and so is the
    model's estimate (_check_model) plus the oracle's, in floats: per
    point, its prepared coordinates and its value, d + 1; per point of a
    chunk, three a row of every block's lattice (a block's weights, with
    the term and the gathered powers beside them while they are made, or
    the weights of the blocks made before), the power tables and their
    bases, (d + 2)(n + 2) + 2, and 2 L / L_0 for the product with the
    samples and its sums over the other blocks; and 8 a row of every
    block's lattice for the vectors of exponents and coefficients.
    """
    order = as_index(k)
    _point_order(order, x)
    d = len(order)
    n = _degree(n)
    widths = _widths(kind, d)
    limit = _oracle_degree_limit(max(widths))
    if n > limit:
        raise ValueError(
            f"oracle_deriv's degree limit on a {max(widths)}-wide block is {limit}, "
            f"where the coefficients C(n; j) still fit a float; got n = {n}"
        )
    sizes = _sizes(widths, (n,) * len(widths))
    # the samples as (L_0, L / L_0): per point, block 0's weights hold L_0
    # rows and its power tables (w_0 + 1)(n + 2); the product with the
    # samples holds L / L_0
    shape = (sizes[0], math.prod(sizes[1:]))
    rows = max(shape[0] + (widths[0] + 1) * (n + 2), shape[1])
    m = math.prod(np.shape(x)[:-1])
    step = min(m, max(1, _CHUNK_FLOATS // rows))
    per_point = 3 * sum(sizes) + (d + 2) * (n + 2) + 2 + 2 * shape[1]
    need = 8 * (m * (d + 1) + step * per_point + 8 * sum(sizes))
    what = "oracle_deriv at n = {}, d = {} on {:,} points has a working set of {} GiB for its model and {} GiB more"
    _check_budget(what, (n, d, m), _check_model(kind, n, d), need)
    model = build_model(f, kind, n, d)
    P, single = _prepare_points(x, kind, d)
    out = np.zeros(P.shape[0])
    if _reduced_degrees(widths, order, n) is not None:
        cols = _slices(widths)
        S = model.samples.reshape(shape)
        for chunk in _chunks(P.shape[0], rows):
            pts = P[chunk]
            # the other blocks' weights are made first, so that no block's
            # temporaries live beside the product, the largest array
            rest = [_block_weights(n, order[s], pts[:, s]) for s in cols[1:]]
            t = functools.reduce(
                lambda t, Wb: np.einsum("jm,jrm->rm", Wb, t.reshape(Wb.shape[0], -1, t.shape[1])),
                rest,
                S.T @ _block_weights(n, order[cols[0]], pts[:, cols[0]]),
            )
            out[chunk] = t[0]
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# separable grid paths (tensor-product grids on the cube)


def _grid_contract(coef: np.ndarray, mats) -> np.ndarray:
    """Sum out lattice axis i of coef against the weight table mats[i], one
    axis at a time; the grid axes take the lattice axes' places, in order."""
    for W in mats:
        coef = np.tensordot(coef, W, axes=(0, 0))
    return coef


def _grid_partial(model: BernsteinModel, order, cols) -> np.ndarray:
    """The order-k partial of a cube model over the tensor-product grid of
    the prepared axes cols (_grid_axes); order 0 is the value.

    Axes that are one array share their weight table at each reduced
    degree. Past MEMORY_BUDGET it is a SizeError, raised before anything
    the size of the grid is allocated. Level a of the contraction has the
    grid axes before a and the lattice axes from a on; a step holds a
    level, its transposed copy and the next level, at most 3 floats an
    entry of the largest. The differences take at most 5 floats a sample,
    and the weights n + 6 floats a grid point of each axis while they are
    made.
    """
    n, d = model.degree, model.dim
    widths = _widths(CUBE, d)
    sizes = [c.size for c in cols]
    levels = [math.prod(sizes[:a]) * (n + 1) ** (d - a) for a in range(d + 1)]
    need = 8 * (max(5 * levels[0], 3 * max(levels)) + (n + 6) * sum(sizes))
    _check_budget("a cube model at n = {}, d = {} on a grid of {:,} points has a working set of {} GiB",
                  (n, d, levels[-1]), need)
    degrees = _reduced_degrees(widths, order, n)
    if degrees is None:
        return np.zeros(sizes)
    tables = {}
    for deg, c in zip(degrees, cols):
        if (deg, id(c)) not in tables:
            tables[deg, id(c)] = _binomial_table(_weight_rows((deg,)), c)
    mats = [tables[deg, id(c)] for deg, c in zip(degrees, cols)]
    return _scale(widths, order, n) * _grid_contract(_differences(model, order), mats)


def eval_cube_grid(model: BernsteinModel, axes) -> np.ndarray:
    """Evaluate a cube model over a tensor-product grid, one array per axis.

    Returns the value tensor indexed like meshgrid(*axes, indexing="ij").
    Far cheaper than pointwise evaluation on full grids.
    """
    if model.kind != CUBE:
        raise ValueError("model kind is not cube")
    return _grid_partial(model, (0,) * model.dim, _grid_axes(axes, model.dim))


def deriv_cube_grid(f, k, n: int, axes) -> np.ndarray:
    """Closed-form cube derivative over a tensor-product grid; f is sampled by build_model."""
    order = as_index(k)
    axes = list(axes)
    if len(axes) != len(order):
        raise ValueError(f"order {order} has length {len(order)}, but {len(axes)} axes were given")
    return _grid_partial(build_model(f, CUBE, n, len(order)), order, _grid_axes(axes, len(order)))


def _grid_axes(axes, d):
    """The d coordinate arrays of a grid, each validated and clamped as
    one-coordinate cube points."""
    cols = [np.asarray(a, dtype=np.float64) for a in axes]
    if len(cols) != d:
        raise ValueError("one coordinate array per axis is required")
    out = []
    for c in cols:
        if c.ndim != 1:
            raise ValueError("each coordinate array must be one-dimensional")
        c2, _ = _prepare_points(c[:, None], CUBE, 1)
        out.append(c2[:, 0])
    return out


# ---------------------------------------------------------------------------
# serialization


def dump_model(model: BernsteinModel) -> str:
    """Text form: header "kind n d" ("mixed n d d1 d2" for a mixed kind),
    then one sample per line as float.hex writes it (0x1.921fb54442d18p+1
    for pi), exact for every finite double, -0.0 and subnormals included,
    though the samples no longer read as decimals. The samples are
    formatted in one pass."""
    head = f"{model.kind.name} {model.degree} {model.dim}"
    if model.kind.name == "mixed":
        head += f" {model.kind.d1} {model.dim - model.kind.d1}"
    return f"{head}\n" + "\n".join(map(float.hex, model.samples.tolist())) + "\n"


def parse_model(text: str) -> BernsteinModel:
    """Model from its text form: the header, then one sample per line.

    Blank and whitespace-only lines are skipped anywhere, and any line break
    str.splitlines knows (CRLF among them) ends a line. The first sample
    line sets the form of the text: if it holds "0x", every sample line is
    read by float.fromhex, as dump_model writes it; otherwise by float(),
    as decimal texts such as "%.17g" lines are, in up to twice the time.
    A sample line of the other form is refused, never converted:
    float.fromhex reads "1.5" as 1.3125. Each sample line must be one
    number of the text's form, ASCII, without digit-group underscores; the
    first that is not is a ValueError naming the line (_read_lines).
    """
    lines = text.splitlines()
    at = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if at is None:
        raise ValueError("empty model text")
    head = lines[at].split()
    try:
        sizes = [int(v) for v in head[1:]]
    except ValueError:
        raise ValueError(f"model header {' '.join(head)!r} has a size that is not an integer") from None
    if head[0] in ("cube", "simplex"):
        if len(head) != 3:
            raise ValueError("header must be 'kind n d'")
        kind = CUBE if head[0] == "cube" else SIMPLEX
        n, d = sizes
    elif head[0] == "mixed":
        if len(head) != 5:
            raise ValueError("mixed header must be 'mixed n d d1 d2'")
        n, d, d1, d2 = sizes
        if d1 + d2 != d:
            raise ValueError("mixed header blocks do not sum to the dimension")
        kind = mixed(d1)
    else:
        raise ValueError(f"unknown kind {head[0]!r} in model header")
    first = next((ln for ln in itertools.islice(lines, at + 1, None) if ln.strip()), "")
    hexed = "0x" in first
    # the loop would take every line that converts, but float() also takes
    # digit groups and non-ASCII digits, and float.fromhex a line without
    # "0x": a line it takes holds at most one "0x", and a valid header none
    whole = text.isascii() and "_" not in text
    if hexed:
        whole = whole and text.count("0x") == len(lines) - at - 1
    samples = _read_lines(lines, at + 1, float.fromhex if hexed else float, whole)
    return BernsteinModel(kind=kind, degree=n, dim=d, samples=samples.view(_Fresh))


def _read_lines(lines, start: int, convert, whole: bool) -> np.ndarray:
    """The samples of lines[start:], each line read by convert, float.fromhex
    or float. With whole, the lines go through convert in one pass, and the
    loop below runs only if one of them fails: it skips blank and
    whitespace-only lines, and every other line must be one number of
    convert's form (holding "0x" for float.fromhex, not for float), ASCII,
    without digit-group underscores; the first that is not is a ValueError
    naming it."""
    if whole:
        try:
            return np.fromiter(map(convert, itertools.islice(lines, start, None)), np.float64, len(lines) - start)
        except (ValueError, OverflowError):
            pass
    samples = []
    for no, line in enumerate(lines[start:], start + 1):
        field = line.strip()
        if not field:
            continue
        try:
            # neither reader takes a field with whitespace inside, and float()
            # none with "0x"
            if field.isascii() and "_" not in field and (convert is float or "0x" in field):
                samples.append(convert(field))
                continue
        except (ValueError, OverflowError):
            pass
        raise ValueError(f"line {no}: {line!r} is not one {'number' if convert is float else 'hex float'}")
    return np.array(samples, dtype=np.float64)


def save_model(model: BernsteinModel, path):
    with open(path, "w", encoding="utf8") as fh:
        fh.write(dump_model(model))


def load_model(path) -> BernsteinModel:
    with open(path, "r", encoding="utf8") as fh:
        return parse_model(fh.read())
