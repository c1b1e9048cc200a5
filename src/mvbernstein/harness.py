"""Test-function corpus, sup-norm error grids, and convergence tables."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .bernstein import (
    CUBE,
    SIMPLEX,
    Kind,
    _blockwise,
    _check_model,
    _chunks,
    _coarser,
    _collapsed,
    _contraction_bytes,
    _grid_axes,
    _grid_partial,
    _partial_at,
    _prepare_points,
    _reduced_degrees,
    _slices,
    _widths,
    build_model,
    model_lattice,
)
from .finite_diff import ScalarField
from .multiindex import _check_budget, _degrees, _integer, as_index

# Rows whose sup error sits at roundoff carry no rate information.
RATE_FLOOR = 1e-13

CORPUS_NAMES = ("const1", "affine", "quad", "prodlin", "sincos", "expsum")

# every builtin has closed-form mixed partials of any order; registering past
# order four keeps deep mixed differences checkable against analytic values
CORPUS_SMOOTHNESS = 6


@dataclass(frozen=True)
class FunctionSpec:
    """A corpus entry: evaluator plus analytic mixed partials up to |k| <= smoothness."""

    name: str
    dim: int
    smoothness: int
    value: ScalarField
    partial: Mapping[tuple, ScalarField]

    def partial_field(self, k) -> ScalarField:
        key = as_index(k)
        if len(key) != self.dim:
            raise ValueError("order dimension does not match the function")
        if key not in self.partial:
            raise ValueError(
                f"no analytic partial of order {key} registered for {self.name!r}"
            )
        return self.partial[key]


def _const_field(dim, c):
    return ScalarField(lambda x: np.full(x.shape[:-1], float(c)))


def _affine_coeffs(dim):
    return np.array([(i + 1) / (dim + 1) for i in range(dim)]), 1.0 / 3.0


def _coordinate_sum(x):
    """x.sum(axis=-1) bit for bit, sign of zero and type included, from one
    numpy call per coordinate rather than one reduction per row. Below 8
    coordinates numpy adds them left to right onto its identity 0.0, as
    here; from 8 on its pairwise blocks decide, so numpy sums itself."""
    d = x.shape[-1]
    if d >= 8:
        return x.sum(axis=-1)
    out = x[..., 0] + 0.0
    for i in range(1, d):
        out += x[..., i]
    return out


def _make_partial(name, dim, k):
    total = sum(k)
    if name == "const1":
        return _const_field(dim, 1.0 if total == 0 else 0.0)
    if name == "affine":
        a, b = _affine_coeffs(dim)
        if total == 0:
            return ScalarField(lambda x: x @ a + b)
        if total == 1:
            return _const_field(dim, a[k.index(1)])
        return _const_field(dim, 0.0)
    if name == "quad":
        if total == 0:
            return ScalarField(lambda x: _coordinate_sum(x**2))
        if total == 1:
            axis = k.index(1)
            return ScalarField(lambda x, i=axis: 2.0 * x[..., i])
        if total == 2 and max(k) == 2:
            return _const_field(dim, 2.0)
        return _const_field(dim, 0.0)
    if name == "prodlin":
        if max(k) >= 2:
            return _const_field(dim, 0.0)
        keep = [i for i in range(dim) if k[i] == 0]

        def ev(x, keep=tuple(keep)):
            out = np.ones(x.shape[:-1])
            for i in keep:
                out = out * x[..., i]
            return out

        return ScalarField(ev)
    if name == "sincos":
        # odd axes carry sin(pi x), even axes cos(pi x), counted from axis 1
        shifts = np.asarray(k, dtype=np.float64) * (np.pi / 2.0)
        scale = np.pi ** total

        def ev(x, shifts=shifts, scale=scale):
            out = np.full(x.shape[:-1], scale)
            for i in range(shifts.size):
                phase = np.pi * x[..., i] + shifts[i]
                out = out * (np.sin(phase) if i % 2 == 0 else np.cos(phase))
            return out

        return ScalarField(ev)
    if name == "expsum":
        factor = (1.0 / dim) ** total
        # x.mean(axis=-1) bit for bit: mean divides the same sum by d
        return ScalarField(lambda x, c=factor: c * np.exp(_coordinate_sum(x) / x.shape[-1]))
    raise ValueError(f"unknown corpus function {name!r}")


class _Partials(Mapping):
    """The analytic partials of one corpus function, keyed by the orders k
    with |k| <= smoothness in lexicographic order; each partial is made the
    first time it is looked up, then kept. Read-only."""

    def __init__(self, name: str, dim: int, smoothness: int):
        self._name, self._dim, self._smoothness = name, dim, smoothness
        self._made = {}

    def _key(self, k):
        """k as a tuple of ints if it is one of the orders, else None."""
        if not isinstance(k, tuple) or len(k) != self._dim:
            return None
        try:
            key = as_index(k)
        except (TypeError, ValueError, OverflowError):
            return None
        return key if key == k and sum(key) <= self._smoothness else None

    def __getitem__(self, k):
        key = self._key(k)
        if key is None:
            raise KeyError(k)
        if key not in self._made:
            # setdefault keeps the first partial made, should two threads race
            self._made.setdefault(key, _make_partial(self._name, self._dim, key))
        return self._made[key]

    def __contains__(self, k):
        return self._key(k) is not None

    def __iter__(self):
        return map(tuple, model_lattice(SIMPLEX, self._smoothness, self._dim).tolist())

    def __len__(self):
        return math.comb(self._smoothness + self._dim, self._dim)


def corpus_member(name: str, dim: int) -> FunctionSpec:
    """One corpus entry with partials registered for all |k| <= CORPUS_SMOOTHNESS.

    `partial` is a read-only mapping that makes each analytic partial the
    first time it is looked up, so a request pays only for the partials it
    reads.
    """
    if name not in CORPUS_NAMES:
        raise ValueError(
            f"unknown function {name!r}; available: {', '.join(CORPUS_NAMES)}"
        )
    dim = _integer(dim, "dimension")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    partial = _Partials(name, dim, CORPUS_SMOOTHNESS)
    value = partial[(0,) * dim]
    return FunctionSpec(name, dim, CORPUS_SMOOTHNESS, value, partial)


@dataclass(frozen=True)
class GridSpec:
    """Deterministic evaluation grid: per-axis uniform points inset from the boundary."""

    kind: Kind
    points_per_axis: int = 33
    inset: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, Kind):
            raise TypeError("kind must be a Kind")
        object.__setattr__(self, "points_per_axis", _integer(self.points_per_axis, "points per axis"))
        if self.points_per_axis < 2:
            raise ValueError("at least two points per axis are required")
        if not 0.0 <= self.inset < 0.5:
            raise ValueError("inset must lie in [0, 0.5)")


def grid_axis(grid: GridSpec) -> np.ndarray:
    return np.linspace(grid.inset, 1.0 - grid.inset, grid.points_per_axis)


def grid_points(grid: GridSpec, dim: int) -> np.ndarray:
    """Full grid as an (m, d) array; each simplex block filters the cube grid.

    A block keeps the points whose coordinate sum is at most 1 - inset.
    For a 1-wide block that holds for every point of the axis. Past
    MEMORY_BUDGET it is a SizeError, raised before the grid is made: the
    axes' meshgrid and its stacked copy take 2 d floats a point, and a
    block's filter (its sums, its mask and the points it keeps) at most 2
    floats a point more beside the points.
    """
    dim = _integer(dim, "dimension")
    widths = _widths(grid.kind, dim)
    size = grid.points_per_axis**dim
    _check_budget("a grid of {:,} points on {} axes has a working set of {} GiB", (size, dim),
                  8 * size * (2 * dim + 2))
    axis = grid_axis(grid)
    pts = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    for cols in _slices(widths):
        if cols.stop - cols.start > 1:
            pts = pts[_coordinate_sum(pts[:, cols]) <= 1.0 - grid.inset]
    return pts


def _check_grid(grid: GridSpec, w: int) -> None:
    """Refuse a grid on which a w-wide block keeps no point. Its least
    coordinate sum is its corner's, every coordinate at the inset where
    grid_axis starts, since a rounded sum grows with its terms."""
    if w > 1 and not _coordinate_sum(np.full(w, grid.inset)) <= 1.0 - grid.inset:
        raise ValueError(
            f"a grid of {grid.points_per_axis} points per axis at inset {grid.inset!r} keeps "
            f"no point of a {w}-wide simplex block: its corner sums past 1 - inset"
        )


def sup_error(kind: Kind, spec: FunctionSpec, k, n: int, grid: GridSpec) -> float:
    """Max over the grid of |approximation derivative - analytic partial|.

    f is sampled once, at n; convergence_table's rows are this at each of
    its degrees, bit for bit, though it samples f at its top degree only.
    When every block is one axis wide the kind's polynomial is the cube's,
    and the separable tensor-grid path evaluates it, with the analytic
    partial taken from the grid's axes one block of the first axis at a
    time: that route is refused on the grid path's estimate alone.
    """
    return _sup_errors(kind, spec, as_index(k), [n], grid)[0]


def _sup_errors(kind: Kind, spec: FunctionSpec, order, degrees, grid: GridSpec) -> list[float]:
    """sup_error at each of the increasing degrees, with f sampled as
    convergence_table states (_coarser) and the analytic partial on the
    grid made once; an order of the wrong length is refused by
    partial_field, and a grid that keeps no point by _check_grid, before
    f is called. The top degree goes first, so that its route, the
    largest, refuses a grid past the budget before the analytic partial
    is made; a table on the grid's points is refused on one estimate
    (_check_points) before f is called or the grid is made. A partial
    that is not finite somewhere on the grid is a ValueError naming the
    order and the first such point.

    What each degree's route would prepare again is prepared once, as the
    route prepares it: the grid's one axis (_grid_axes), which every axis
    shares, so that each degree makes one weight table per reduced
    degree, and each row is that route's own, bit for bit; or the grid's
    points (_prepare_points), their collapsed coordinates, and the
    distinct values of the last one with each point's index into them.
    Where those are few, each degree sums the shared last axis once per
    distinct value, not per point (_contract_collapsed): a grid of 17
    points an axis on 3 axes has 81 such values among its 969 simplex
    points, and 17 among its 2,601 mixed(2) points. A row may then differ
    from the per-point route's in its last bits, within the rounding of
    the sums."""
    if grid.kind != kind:
        raise ValueError("grid kind does not match the model kind")
    field = spec.partial_field(order)
    d = spec.dim
    widths = _widths(kind, d)
    # kinds have at most one block wider than one axis
    wide = max(widths)
    _check_grid(grid, wide)
    cube = wide == 1
    # a kind of 1-wide blocks has the cube's lattice and polynomial
    model_kind = CUBE if cube else kind
    if not cube:
        _check_points(kind, grid, d, degrees[-1])
    top = build_model(spec.value, model_kind, degrees[-1], d)
    if cube:
        axes = _grid_axes([grid_axis(grid)], 1) * d
        shape, per_row = (grid.points_per_axis,) * d, d * grid.points_per_axis ** (d - 1)
        points = lambda rows: np.stack(np.broadcast_arrays(*np.ix_(axes[0][rows], *axes[1:])), axis=-1)
        route = lambda model: _grid_partial(model, order, axes)
    else:
        pts = grid_points(grid, d)
        P, _ = _prepare_points(pts, kind, d)
        T = _collapsed(P, widths)
        distinct = np.unique(T[-1], return_inverse=True)
        shape, per_row, points = pts.shape[:1], d, lambda rows: pts[rows]
        route = lambda model: _partial_at(model, order, P, T, distinct)
    wrong = lambda got, want: f"the partial returned shape {got} for grid values of {want}"
    N, errors = top.degree, []
    for n in reversed(degrees):
        if n == N:
            model = top
        elif N % n == 0:
            model = _coarser(top, n)
        else:
            model = build_model(spec.value, model_kind, n, d)
        vals = route(model)
        if not errors:
            ref = _blockwise(field, shape, per_row, points, wrong)
            _check_finite(ref, order, points)
        errors.append(_max_error(vals, ref))
    return errors[::-1]


def _check_points(kind: Kind, grid: GridSpec, d: int, n: int) -> None:
    """Refuse sup errors on the grid's points at top degree n past
    MEMORY_BUDGET, before f is called or the grid is made: the model's
    estimate (_check_model) plus, per point of the whole cube grid,
    grid_points' working set (2 d + 2 floats), the kept points, their
    prepared copy and collapsed coordinates (3 d floats), the distinct last
    coordinates, each point's index into them, the analytic partial and the
    route's values and their scaled copy (5 floats), and the contraction's
    chunks (_contraction_bytes)."""
    size = grid.points_per_axis**d
    need = 8 * size * (5 * d + 7) + _contraction_bytes(_widths(kind, d), n, size)
    what = ("a convergence table at n = {} on a grid of {:,} points on {} axes has a working set "
            "of {} GiB for its model and {} GiB more")
    _check_budget(what, (n, size, d), _check_model(kind, n, d), need)


def _check_finite(ref: np.ndarray, order, points) -> None:
    """Refuse analytic partial values ref on the grid that are not all
    finite, naming the order and the first such grid point: points(rows)
    gives the points of rows of ref's first axis."""
    if not np.isfinite(ref).all():
        at = np.unravel_index(np.argmax(~np.isfinite(ref)), ref.shape)
        point = tuple(float(v) for v in points(slice(at[0], at[0] + 1))[(0, *at[1:])])
        raise ValueError(f"the partial of order {order} is not finite at grid point {point}: {ref[at]}")


def _max_error(vals: np.ndarray, ref: np.ndarray) -> float:
    """max |vals - ref|, one block of the first axis at a time, so that no
    difference the size of the grid is made."""
    blocks = _chunks(ref.shape[0], ref.size // ref.shape[0], 8)
    return float(np.max([np.max(np.abs(vals[rows] - ref[rows])) for rows in blocks]))


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup errors over increasing degrees with a fitted log-log rate."""

    function: str
    kind: Kind
    k: tuple[int, ...]
    rows: tuple[tuple[int, float], ...]
    fitted_rate: float | None


def _min_degree(kind: Kind, order) -> int:
    """Smallest degree at which the derivative keeps degree >= 1 in every block."""
    # at degree |k| no block is annihilated, and block b keeps |k| - |k_b|
    top = sum(order)
    return top + 1 - min(_reduced_degrees(_widths(kind, len(order)), order, top))


def convergence_table(kind: Kind, spec: FunctionSpec, k, n_list, grid: GridSpec) -> ConvergenceReport:
    """One sup_error row per degree, plus the least-squares slope in log-log.

    f is sampled once, at the top degree N, before any other degree; each
    degree that divides N reads its samples from that model, and any other
    degree samples f itself. That rests on f being pointwise, the
    ScalarField contract: the rows are those of sup_error at each degree,
    bit for bit, and a top degree past MEMORY_BUDGET is refused before f
    is called.
    """
    order = as_index(k)
    if len(order) != spec.dim:
        raise ValueError("order dimension does not match the function")
    degrees = _degrees(n_list)
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("degrees must be strictly increasing")
    floor = _min_degree(kind, order)
    if degrees[0] < floor:
        raise ValueError(f"degrees must be at least {floor} for this order")
    rows = tuple(zip(degrees, _sup_errors(kind, spec, order, degrees, grid)))
    kept = [(n, e) for n, e in rows if e >= RATE_FLOOR]
    if len(kept) >= 2:
        ln_n = np.log([n for n, _ in kept])
        ln_e = np.log([e for _, e in kept])
        rate = float(np.polyfit(ln_n, ln_e, 1)[0])
    else:
        rate = None
    return ConvergenceReport(
        function=spec.name, kind=kind, k=order, rows=rows, fitted_rate=rate
    )
