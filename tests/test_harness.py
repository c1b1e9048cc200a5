import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvbernstein as mv
from mvbernstein import bernstein, harness, multiindex
from mvbernstein.cli import _report_csv, _report_json
from mvbernstein.harness import (
    CORPUS_NAMES,
    GridSpec,
    _coordinate_sum,
    _make_partial,
    convergence_table,
    corpus_member,
    grid_axis,
    grid_points,
    sup_error,
)

# errors below this sit at roundoff; monotonicity is only meaningful above it
NOISE_FLOOR = 1e-12


class TestCorpus:
    def test_names_and_shape(self):
        members = [corpus_member(name, d) for d in (1, 2, 3) for name in CORPUS_NAMES]
        assert {m.name for m in members} == set(CORPUS_NAMES)
        assert {m.dim for m in members} == {1, 2, 3}
        assert all(m.smoothness >= 4 for m in members)

    def test_partials_complete_to_registered_order(self):
        spec = corpus_member("expsum", 3)
        count = sum(1 for k in spec.partial)
        assert spec.smoothness >= 4
        assert count == math.comb(spec.smoothness + 3, 3)
        assert all(sum(k) <= spec.smoothness for k in spec.partial)

    def test_zero_partial_is_value(self):
        for name in CORPUS_NAMES:
            spec = corpus_member(name, 2)
            pts = np.random.default_rng(0).random((10, 2)) / 2
            assert np.array_equal(spec.value(pts), spec.partial_field((0, 0))(pts))

    def test_const1_partials(self):
        spec = corpus_member("const1", 2)
        pts = np.random.default_rng(1).random((5, 2))
        assert np.all(spec.partial_field((1, 0))(pts) == 0.0)
        assert np.all(spec.value(pts) == 1.0)

    def test_quad_second_partial(self):
        spec = corpus_member("quad", 3)
        pts = np.random.default_rng(2).random((5, 3))
        assert np.all(spec.partial_field((2, 0, 0))(pts) == 2.0)
        assert np.all(spec.partial_field((1, 1, 0))(pts) == 0.0)

    def test_sincos_first_partial_at_zero(self):
        spec = corpus_member("sincos", 1)
        got = spec.partial_field((1,))(np.array([0.0]))
        assert got == pytest.approx(math.pi, rel=1e-14)

    def test_sincos_partials_by_finite_differences(self):
        spec = corpus_member("sincos", 2)
        x = np.array([0.23, 0.41])
        h = 1e-5
        for k in [(1, 0), (0, 1), (1, 1), (2, 0)]:
            dspec = mv.DiffSpec(k, (h, h))
            approx = mv.delta_mixed(spec.value, x, dspec) / h ** sum(k)
            exact = float(spec.partial_field(k)(x + np.array(k) * h / 2))
            # forward differences carry O(h) bias; compare loosely at midpoint
            assert approx == pytest.approx(exact, rel=5e-4, abs=5e-4)

    def test_expsum_partial_scaling(self):
        spec = corpus_member("expsum", 2)
        x = np.array([0.3, 0.5])
        base = float(spec.value(x))
        assert spec.partial_field((2, 1))(x) == pytest.approx(base / 8, rel=1e-14)

    def test_prodlin_partials(self):
        spec = corpus_member("prodlin", 3)
        x = np.array([0.2, 0.5, 0.7])
        assert spec.partial_field((1, 1, 0))(x) == pytest.approx(0.7)
        assert spec.partial_field((2, 0, 0))(x) == 0.0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="available"):
            corpus_member("cubic", 2)

    def test_missing_partial(self):
        spec = corpus_member("quad", 2)
        with pytest.raises(ValueError, match="no analytic partial"):
            spec.partial_field((spec.smoothness + 1, 0))

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_partials_are_a_lazy_read_only_mapping(self, name, dim):
        spec = corpus_member(name, dim)
        orders = [tuple(row) for row in mv.model_lattice(mv.SIMPLEX, 6, dim).tolist()]
        assert list(spec.partial) == orders
        assert len(spec.partial) == math.comb(6 + dim, dim)
        assert orders[-1] in spec.partial
        top = (7,) + (0,) * (dim - 1)
        for bad in [(0,) * (dim + 1), (-1,) + (0,) * (dim - 1), top]:
            assert bad not in spec.partial
        pts = np.random.default_rng(dim).random((7, dim)) / dim
        for k in orders:
            got = spec.partial[k]
            assert spec.partial[k] is got
            assert np.array_equal(got(pts), _make_partial(name, dim, k)(pts))

    def test_member_makes_only_the_value(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _make_partial(*args)

        monkeypatch.setattr(harness, "_make_partial", counted)
        spec = corpus_member("sincos", 5)
        assert calls == [("sincos", 5, (0,) * 5)]
        spec.partial_field((1, 0, 0, 2, 0))
        assert len(calls) == 2


def _reference_field(name, dim, k):
    """quad's and expsum's fields as they were written before their sums
    went column by column: one numpy reduction, or mean, per call."""
    total = sum(k)
    if name == "expsum":
        return lambda x, c=(1.0 / dim) ** total: c * np.exp(x.mean(axis=-1))
    if total == 0:
        return lambda x: (x**2).sum(axis=-1)
    if total == 1:
        return lambda x, i=k.index(1): 2.0 * x[..., i]
    return lambda x, c=2.0 if max(k) == 2 else 0.0: np.full(x.shape[:-1], c)


def _same_bits(got, want):
    """Equal in type, shape and every bit, so the sign of a zero counts."""
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


@st.composite
def coordinate_blocks(draw):
    """A float64 block with d = 1..12 coordinates on its last axis, of
    leading shape (rows,), (a, b), () or (0,); its entries are lattice
    points j/n, reals across magnitudes and -0.0. Some blocks are columns
    of a wider array, as a block's columns are in grid_points."""
    d = draw(st.integers(1, 12))
    lead = draw(st.one_of(st.tuples(st.integers(1, 6)), st.tuples(st.integers(1, 3), st.integers(1, 3)),
                          st.just(()), st.just((0,))))
    lattice = st.builds(lambda n, j: min(j, n) / n, st.integers(1, 64), st.integers(0, 64))
    real = st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-12, 12))
    entry = st.one_of(lattice, real, st.just(-0.0), st.just(0.0))
    size = math.prod(lead) * d
    x = np.array(draw(st.lists(entry, min_size=size, max_size=size)), dtype=np.float64).reshape(lead + (d,))
    if draw(st.booleans()):
        wide = np.zeros(lead + (d + 2,))
        wide[..., 1 : d + 1] = x
        x = wide[..., 1 : d + 1]
    return x


@given(coordinate_blocks())
@settings(max_examples=300, deadline=None)
def test_coordinate_sum_is_numpys_sum_bit_for_bit(x):
    assert _same_bits(_coordinate_sum(x), x.sum(axis=-1))


@given(coordinate_blocks(), st.sampled_from(["quad", "expsum"]))
@settings(max_examples=150, deadline=None)
def test_quad_and_expsum_fields_keep_their_bits(x, name):
    d = x.shape[-1]
    spec = corpus_member(name, d)
    with np.errstate(over="ignore"):
        for k in mv.model_lattice(mv.SIMPLEX, 2, d).tolist():
            k = tuple(k)
            assert _same_bits(spec.partial[k](x), _reference_field(name, d, k)(x)), k


class TestGrids:
    def test_axis_and_determinism(self):
        g = GridSpec(mv.CUBE, 5, 0.0)
        assert np.array_equal(grid_axis(g), np.linspace(0, 1, 5))
        assert np.array_equal(grid_points(g, 2), grid_points(g, 2))

    def test_simplex_filters_cube(self):
        g = GridSpec(mv.SIMPLEX, 5, 0.0)
        pts = grid_points(g, 2)
        assert np.all(pts.sum(axis=1) <= 1.0)
        full = GridSpec(mv.CUBE, 5, 0.0)
        assert pts.shape[0] < grid_points(full, 2).shape[0]

    def test_inset(self):
        g = GridSpec(mv.CUBE, 4, 0.1)
        pts = grid_points(g, 1)
        assert pts.min() == pytest.approx(0.1)
        assert pts.max() == pytest.approx(0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(mv.CUBE, 1, 0.0)
        with pytest.raises(ValueError):
            GridSpec(mv.CUBE, 5, 0.5)
        # a kind name is not a Kind: refused when made, not by convergence_table
        with pytest.raises(TypeError, match="^kind must be a Kind$"):
            GridSpec("cube", 5)

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_sizes_are_integers(self, bad):
        with pytest.raises(ValueError, match=f"points per axis {bad!r} is not an integer"):
            GridSpec(mv.CUBE, bad)
        with pytest.raises(ValueError, match=f"dimension {bad!r} is not an integer"):
            grid_points(GridSpec(mv.CUBE, 3), bad)
        with pytest.raises(ValueError, match=f"dimension {bad!r} is not an integer"):
            corpus_member("quad", bad)

    def test_integral_float_sizes_are_taken(self):
        g = GridSpec(mv.CUBE, 3.0)
        assert g.points_per_axis == 3 and grid_points(g, 2.0).shape == (9, 2)
        assert corpus_member("quad", 2.0).dim == 2

    def test_mixed_grid(self):
        g = GridSpec(mv.mixed(2), 4, 0.0)
        pts = grid_points(g, 3)
        assert np.all(pts[:, :2].sum(axis=1) <= 1.0)


class TestSupError:
    def test_affine_floor(self):
        spec = corpus_member("affine", 2)
        g = GridSpec(mv.CUBE, 9, 0.0)
        for k in [(0, 0), (1, 0), (0, 1)]:
            assert sup_error(mv.CUBE, spec, k, 12, g) <= 1e-10

    def test_const_floor(self):
        spec = corpus_member("const1", 2)
        g = GridSpec(mv.SIMPLEX, 9, 0.0)
        assert sup_error(mv.SIMPLEX, spec, (0, 0), 10, g) <= 1e-12

    def test_quad_closed_form_maximum(self):
        # error of the degree-n fit of x^2 is x(1-x)/n, peaking at 1/4n
        spec = corpus_member("quad", 1)
        g = GridSpec(mv.CUBE, 33, 0.0)
        got = sup_error(mv.CUBE, spec, (0,), 10, g)
        assert got == pytest.approx(0.025, abs=1e-9)

    def test_grid_kind_must_match(self):
        spec = corpus_member("quad", 2)
        with pytest.raises(ValueError):
            sup_error(mv.CUBE, spec, (0, 0), 8, GridSpec(mv.SIMPLEX, 5, 0.0))

    @pytest.mark.parametrize("kind, d", [(mv.SIMPLEX, 2), (mv.mixed(2), 3), (mv.SIMPLEX, 3)])
    def test_a_grid_that_keeps_no_point_is_refused_before_f(self, kind, d):
        # the wide block's least point sums past 1 - 0.34: 0.68 on 2 axes, 1.02 on 3
        spec, rows = _counted(corpus_member("quad", d))
        g = GridSpec(kind, 5, 0.34)
        w = max(harness._widths(kind, d))
        message = f"a grid of 5 points per axis at inset 0.34 keeps no point of a {w}-wide simplex block"
        with pytest.raises(ValueError, match=message):
            sup_error(kind, spec, (0,) * d, 4, g)
        with pytest.raises(ValueError, match=message):
            convergence_table(kind, spec, (0,) * d, (2, 4), g)
        assert rows == []

    def test_a_grid_that_keeps_its_corner_alone_is_taken(self):
        # at inset 1/3 the corner sums to 0.666...6 <= 1 - 1/3, the next point past it
        g = GridSpec(mv.SIMPLEX, 5, 1 / 3)
        assert grid_points(g, 2).tolist() == [[1 / 3, 1 / 3]]
        assert sup_error(mv.SIMPLEX, corpus_member("quad", 2), (0, 0), 4, g) == pytest.approx(1 / 9)

    def test_cube_fast_path_matches_pointwise(self):
        spec = corpus_member("sincos", 2)
        g = GridSpec(mv.CUBE, 7, 0.0)
        fast = sup_error(mv.CUBE, spec, (1, 1), 9, g)
        pts = grid_points(g, 2)
        slow = float(
            np.max(
                np.abs(
                    mv.derivative(mv.CUBE, spec.value, (1, 1), 9, pts)
                    - spec.partial_field((1, 1))(pts)
                )
            )
        )
        assert fast == pytest.approx(slow, rel=1e-12)


class TestConvergenceTable:
    def test_quad_one_dimension_rate(self):
        spec = corpus_member("quad", 1)
        g = GridSpec(mv.CUBE, 33, 0.0)
        rep = convergence_table(mv.CUBE, spec, (0,), (10, 20, 40, 80), g)
        errors = [e for _, e in rep.rows]
        assert errors == pytest.approx([0.025, 0.0125, 0.00625, 0.003125], abs=1e-9)
        assert rep.fitted_rate == pytest.approx(-1.0, abs=1e-3)

    def test_affine_rate_not_applicable(self):
        spec = corpus_member("affine", 2)
        g = GridSpec(mv.SIMPLEX, 9, 0.0)
        rep = convergence_table(mv.SIMPLEX, spec, (1, 0), (8, 16), g)
        assert rep.fitted_rate is None

    def test_sincos_cross_derivative_bracket(self):
        spec = corpus_member("sincos", 2)
        g = GridSpec(mv.CUBE, 33, 0.0)
        rep = convergence_table(mv.CUBE, spec, (1, 1), (8, 16, 32, 64), g)
        errors = [e for _, e in rep.rows]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert -1.4 <= rep.fitted_rate <= -0.6

    def test_grid_and_partial_are_made_once_per_table(self, monkeypatch):
        base = corpus_member("sincos", 3)
        k = (1, 0, 0)
        targets = []

        def target(x):
            targets.append(x.shape)
            return base.partial[k](x)

        spec = harness.FunctionSpec("sincos", 3, base.smoothness, base.value, {k: target})
        g = GridSpec(mv.SIMPLEX, 9, 0.0)
        degrees = (4, 8, 16)
        want = [sup_error(mv.SIMPLEX, spec, k, n, g) for n in degrees]
        grids, real = [], harness.grid_points
        monkeypatch.setattr(harness, "grid_points", lambda *a: grids.append(a) or real(*a))
        targets.clear()
        rep = convergence_table(mv.SIMPLEX, spec, k, degrees, g)
        assert rep.rows == tuple(zip(degrees, want))
        assert len(grids) == 1 and len(targets) == 1

    def test_degree_preconditions(self):
        spec = corpus_member("quad", 2)
        g = GridSpec(mv.SIMPLEX, 9, 0.0)
        with pytest.raises(ValueError):
            convergence_table(mv.SIMPLEX, spec, (1, 1), (2, 4), g)
        with pytest.raises(ValueError):
            convergence_table(mv.SIMPLEX, spec, (0, 0), (8, 8), g)

    def test_rejects_non_integral_and_empty_degree_lists(self):
        spec = corpus_member("quad", 1)
        g = GridSpec(mv.CUBE, 9, 0.0)
        with pytest.raises(ValueError, match="not an integer"):
            convergence_table(mv.CUBE, spec, (0,), [4.5, 8], g)
        with pytest.raises(ValueError, match="at least one degree"):
            convergence_table(mv.CUBE, spec, (0,), [], g)
        with pytest.raises(ValueError, match="degree list 4 is not a sequence of degrees"):
            convergence_table(mv.CUBE, spec, (0,), 4, g)

    @pytest.mark.parametrize("kind", [mv.CUBE, mv.SIMPLEX])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_monotone_convergence_across_corpus(self, kind, dim):
        g = GridSpec(kind, 17, 0.0)
        orders = [(0,) * dim, (1,) + (0,) * (dim - 1)]
        if dim == 2:
            orders += [(1, 1), (2, 0)]
        for name in CORPUS_NAMES:
            spec = corpus_member(name, dim)
            for k in orders:
                rep = convergence_table(kind, spec, k, (8, 16, 32, 64), g)
                floored = [max(e, NOISE_FLOOR) for _, e in rep.rows]
                assert all(
                    b <= a for a, b in zip(floored, floored[1:])
                ), f"{name} {kind.name} {k}: {rep.rows}"


# every kind the convergence tables run on, each with a small grid
ONE_SAMPLING_KINDS = [
    (mv.CUBE, 2, 9), (mv.CUBE, 3, 5), (mv.SIMPLEX, 2, 9), (mv.SIMPLEX, 3, 5),
    (mv.mixed(1), 2, 9), (mv.mixed(1), 3, 5), (mv.mixed(2), 3, 5),
]
KIND_IDS = ["cube2", "cube3", "simplex2", "simplex3", "mixed1-2", "mixed1-3", "mixed2-3"]


def _counted(spec):
    """spec with its value wrapped to record the rows of each call."""
    rows = []

    def value(x):
        rows.append(x.shape[0])
        return spec.value(x)

    return dataclasses.replace(spec, value=mv.ScalarField(value)), rows


def _peak_bytes(call):
    """tracemalloc's peak over call(), after a first call has filled the caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneSampling:
    """A table samples f at its top degree N only; each degree that divides
    N reads its samples from that model."""

    @pytest.mark.parametrize("kind, d, points", ONE_SAMPLING_KINDS, ids=KIND_IDS)
    @pytest.mark.parametrize("degrees", [(4, 8, 16), (3, 4, 6, 12), (3, 5, 10, 11)],
                             ids=["nested", "divisors", "non-nested"])
    def test_rows_equal_per_degree_sup_errors(self, kind, d, points, degrees):
        g = GridSpec(kind, points, 0.0)
        spec = corpus_member("sincos", d)
        for k in mv.model_lattice(mv.SIMPLEX, 2, d).tolist():
            rep = convergence_table(kind, spec, k, degrees, g)
            assert rep.rows == tuple((n, sup_error(kind, spec, k, n, g)) for n in degrees), k

    @pytest.mark.parametrize("kind, d, points", ONE_SAMPLING_KINDS, ids=KIND_IDS)
    def test_f_sees_the_top_lattice_only(self, kind, d, points):
        spec, rows = _counted(corpus_member("expsum", d))
        g = GridSpec(kind, points, 0.0)
        convergence_table(kind, spec, (1,) + (0,) * (d - 1), (2, 4, 8, 16), g)
        assert sum(rows) == mv.model_size(kind, 16, d)
        # a degree that does not divide the top one samples f itself
        rows.clear()
        convergence_table(kind, spec, (0,) * d, (3, 4, 6, 8), g)
        assert sum(rows) == mv.model_size(kind, 8, d) + mv.model_size(kind, 3, d) + mv.model_size(kind, 6, d)

    @pytest.mark.parametrize("kind, d, points", ONE_SAMPLING_KINDS, ids=KIND_IDS)
    def test_top_degree_past_the_budget_calls_no_f(self, kind, d, points, monkeypatch):
        spec, rows = _counted(corpus_member("quad", d))
        g = GridSpec(kind, points, 0.0)
        # every degree but the top one fits
        monkeypatch.setattr(multiindex, "MEMORY_BUDGET", mv.model_size(kind, 8, d) * (12 * d + 8))
        with pytest.raises(mv.SizeError, match=" at n = 40, "):
            convergence_table(kind, spec, (0,) * d, (4, 8, 40), g)
        assert rows == []

    def test_non_finite_sample_is_refused_by_the_top_build(self):
        # 1/64 lies on the top lattice only
        spec, rows = _counted(dataclasses.replace(
            corpus_member("quad", 2),
            value=mv.ScalarField(lambda x: np.where(x[..., 0] == 1 / 64, np.nan, x[..., 1])),
        ))
        with pytest.raises(ValueError, match=r"sample at lattice index \(1, 0\) is not finite"):
            convergence_table(mv.CUBE, spec, (0, 0), (8, 16, 32, 64), GridSpec(mv.CUBE, 5, 0.0))
        assert sum(rows) == mv.model_size(mv.CUBE, 64, 2)

    @pytest.mark.parametrize(
        "kind, d, points",
        [(mv.CUBE, 3, 17), (mv.SIMPLEX, 3, 17), (mv.mixed(1), 2, 33), (mv.mixed(2), 3, 9)],
        ids=["cube3", "simplex3", "mixed1-2", "mixed2-3"],
    )
    def test_table_peak_is_the_top_degree_and_its_model(self, kind, d, points):
        spec = corpus_member("sincos", d)
        g = GridSpec(kind, points, 0.0)
        k = (1,) + (0,) * (d - 1)
        table = _peak_bytes(lambda: convergence_table(kind, spec, k, (8, 16, 32, 64), g))
        top = _peak_bytes(lambda: sup_error(kind, spec, k, 64, g))
        assert table <= top + 8 * mv.model_size(kind, 64, d)


def _counting(monkeypatch, name):
    """Wrap bernstein's `name`, and the harness's import of it if it has one,
    to record one entry per call; returns the record."""
    calls, real = [], getattr(bernstein, name)
    counted = lambda *args: calls.append(args) or real(*args)
    for module in (bernstein, harness):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


class TestPreparedOnce:
    """A table prepares its grid once: one weight table per distinct
    (reduced degree, axis), one set of collapsed coordinates. It clamps
    nothing, since the grid's axis and points lie in the domain."""

    @pytest.mark.parametrize("k, tables", [((0, 0, 0), 4), ((1, 0, 0), 8)])
    def test_cube_table_makes_each_weight_table_once(self, k, tables, monkeypatch):
        prepared = _counting(monkeypatch, "_prepare_points")
        weights = _counting(monkeypatch, "_binomial_table")
        convergence_table(mv.CUBE, corpus_member("sincos", 3), k, (8, 16, 32, 64), GridSpec(mv.CUBE, 17))
        # each of 4 degrees checked 3 axes and made 3 tables before
        assert len(prepared) == 0
        assert len(weights) == tables

    def test_simplex_table_collapses_its_points_once(self, monkeypatch):
        prepared = _counting(monkeypatch, "_prepare_points")
        collapsed = _counting(monkeypatch, "_collapsed")
        convergence_table(mv.SIMPLEX, corpus_member("sincos", 3), (1, 0, 0), (8, 16, 32, 64),
                          GridSpec(mv.SIMPLEX, 17))
        assert len(prepared) == 0
        assert len(collapsed) == 1

    @pytest.mark.parametrize("kind, d, points", ONE_SAMPLING_KINDS, ids=KIND_IDS)
    @pytest.mark.parametrize("degrees", [(4, 8, 16), (3, 4, 6, 12), (3, 5, 10, 11)],
                             ids=["nested", "divisors", "non-nested"])
    def test_rows_are_the_public_routes_bit_for_bit(self, kind, d, points, degrees):
        # these routes sample f at each degree, and derivative prepares its points on each call
        g = GridSpec(kind, points, 0.0)
        spec = corpus_member("sincos", d)
        if max(harness._widths(kind, d)) == 1:
            axes = [grid_axis(g)] * d
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            route = lambda k, n: bernstein._grid_partial(mv.build_model(spec.value, mv.CUBE, n, d), k, axes)
        else:
            pts = grid_points(g, d)
            route = lambda k, n: mv.derivative(kind, spec.value, k, n, pts)
        for k in mv.model_lattice(mv.SIMPLEX, 2, d).tolist():
            rep = convergence_table(kind, spec, k, degrees, g)
            want = tuple((n, float(np.max(np.abs(route(k, n) - spec.partial_field(k)(pts))))) for n in degrees)
            assert rep.rows == want, k


class TestNonFinitePartial:
    @pytest.mark.parametrize("kind", [mv.CUBE, mv.SIMPLEX, mv.mixed(1)], ids=["cube", "simplex", "mixed1"])
    def test_a_non_finite_analytic_partial_is_refused(self, kind):
        # NaN where x0 > 0.9: on a 9-point grid, first at x0 = 1
        base = corpus_member("quad", 2)
        partial = base.partial[(1, 0)]
        field = mv.ScalarField(lambda x: np.where(x[..., 0] > 0.9, np.nan, partial(x)))
        spec = dataclasses.replace(base, partial={(1, 0): field})
        g = GridSpec(kind, 9)
        message = re.escape("the partial of order (1, 0) is not finite at grid point (1.0, 0.0): nan")
        with pytest.raises(ValueError, match=message):
            convergence_table(kind, spec, (1, 0), (4, 8, 16), g)
        with pytest.raises(ValueError, match=message):
            sup_error(kind, spec, (1, 0), 8, g)


class TestReports:
    def test_json_fields(self):
        spec = corpus_member("quad", 1)
        rep = convergence_table(
            mv.CUBE, spec, (0,), (10, 20), GridSpec(mv.CUBE, 9, 0.0)
        )
        payload = _report_json(rep)
        assert set(payload) == {"function", "kind", "k", "rows", "fitted_rate"}
        json.dumps(payload)

    def test_csv_layout(self):
        spec = corpus_member("quad", 1)
        rep = convergence_table(
            mv.CUBE, spec, (0,), (10, 20), GridSpec(mv.CUBE, 9, 0.0)
        )
        lines = _report_csv(rep).splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert len(comments) == 4
        assert lines[4] == "n,sup_error"
        n, err = lines[5].split(",")
        assert int(n) == 10 and float(err) > 0


def _per_point(monkeypatch):
    """Make the tables' point route sum the last axis per point, as
    _partial_at does when no distinct coordinates are handed in."""
    real = harness._partial_at
    monkeypatch.setattr(harness, "_partial_at", lambda model, order, P, T, distinct: real(model, order, P, T))


def _hex_rows(report):
    rate = None if report.fitted_rate is None else report.fitted_rate.hex()
    return [(n, e.hex()) for n, e in report.rows], rate


E1_2, E1_3 = [(0, 0), (1, 0), (1, 1)], [(0, 0, 0), (1, 0, 0), (1, 1, 1)]
C7_2, C7_3 = [(0, 0), (1, 0), (1, 1), (2, 0)], [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (1, 1, 1)]
ALL_2, ALL_3 = ([tuple(k) for k in mv.model_lattice(mv.SIMPLEX, 2, d).tolist()] for d in (2, 3))
TEN = ((4, 8, 16), (3, 4, 6, 12), (3, 5, 10, 11))
TOP = (8, 16, 32, 64)
CI = ((4, 8, 16), (4,), (8,), (16,))

# every non-cube table that the tests, the benchmark (verify and its smoke
# set-up) and CI's converge and summary steps run: (kind, d, points per
# axis, inset, functions, orders, degree lists); a degree list below an
# order's least degree is left out
TABLE_SHAPES = [
    (mv.SIMPLEX, 2, 33, 0.0, ("sincos", "expsum"), C7_2, (TOP,)),
    (mv.SIMPLEX, 3, 17, 0.0, ("sincos", "expsum"), C7_3, (TOP,)),
    (mv.SIMPLEX, 2, 17, 0.0, CORPUS_NAMES, C7_2, (TOP,)),
    (mv.SIMPLEX, 2, 9, 0.0, ("sincos",), ALL_2, TEN + CI + ((8, 16),)),
    (mv.SIMPLEX, 2, 9, 0.0, ("expsum", "affine"), [(1, 0)], ((8, 16, 32), (8, 16))),
    (mv.SIMPLEX, 2, 9, 0.0, ("const1",), [(0, 0)], ((10,),)),
    (mv.SIMPLEX, 2, 5, 1 / 3, ("quad",), [(0, 0)], ((4,),)),
    (mv.SIMPLEX, 2, 5, 0.0, ("sincos",), E1_2, (TOP, tuple(range(2, 42)))),
    (mv.SIMPLEX, 3, 5, 0.0, ("sincos",), ALL_3 + [(1, 1, 1)], TEN + (TOP,)),
    (mv.SIMPLEX, 3, 9, 0.0, ("sincos",), [(1, 0, 0)], ((4, 8, 16),)),
    (mv.SIMPLEX, 2, 3, 0.0, ("sincos",), [(1, 0)], ((2, 3),)),
    (mv.SIMPLEX, 3, 3, 0.0, ("sincos",), [(1, 0, 0)], ((2, 3),)),
    (mv.mixed(2), 3, 9, 0.0, ("sincos",), [(0, 1, 1)], CI),
    (mv.mixed(2), 3, 9, 0.0, ("sincos",), [(1, 0, 0)], (TOP,)),
    (mv.mixed(2), 3, 5, 0.0, ("sincos",), ALL_3, TEN),
    (mv.mixed(2), 3, 5, 0.0, ("expsum",), [(0, 0, 0), (1, 0, 0)], ((2, 4, 8, 16), (3, 4, 6, 8))),
    (mv.mixed(2), 3, 17, 0.0, ("sincos",), [(0, 0, 0)], (TOP,)),
]


class TestDistinctLastCoordinate:
    """A table on the grid's points sums the last axis at the distinct values
    of its last collapsed coordinate, and gathers each point's column."""

    @pytest.mark.parametrize("kind, d, points, inset, names, orders, lists", TABLE_SHAPES)
    def test_rows_are_the_per_point_routes_bit_for_bit(self, kind, d, points, inset, names, orders, lists,
                                                       monkeypatch):
        # BLAS products are not bit-stable under every change of their
        # columns, so equality is pinned on each table that is run, not
        # claimed for every grid (see the property below)
        g = GridSpec(kind, points, inset)
        cases = [(name, k, n_list) for name in names for k in orders for n_list in lists
                 if n_list[0] >= harness._min_degree(kind, k)]
        got = [_hex_rows(convergence_table(kind, corpus_member(name, d), k, n_list, g)) for name, k, n_list in cases]
        _per_point(monkeypatch)
        want = [_hex_rows(convergence_table(kind, corpus_member(name, d), k, n_list, g)) for name, k, n_list in cases]
        assert got == want

    @pytest.mark.parametrize("kind, d, points, columns", [(mv.SIMPLEX, 3, 17, 81), (mv.mixed(2), 3, 17, 17),
                                                          (mv.SIMPLEX, 2, 33, 561)],
                             ids=["simplex3", "mixed2-3", "simplex2"])
    def test_the_top_degree_sums_the_last_axis_once_per_distinct_coordinate(self, kind, d, points, columns,
                                                                            monkeypatch):
        # grid 17 on 3 axes keeps 969 simplex points and 2,601 mixed(2)
        # points; per point, the last axis's table at n = 64 had a column
        # for each of them. The 561 simplex d=2 points of grid 33 have 325
        # distinct t_2, more than a quarter of them, and keep a column each
        g = GridSpec(kind, points)
        tables = _counting(monkeypatch, "_binomial_table")
        convergence_table(kind, corpus_member("sincos", d), (0,) * d, (8, 16, 32, 64), g)
        taken = sum(t.size for weights, t in tables if weights[0].shape[0] == 65)
        # the first axis, one degree wide, takes a column per point
        assert taken - grid_points(g, d).shape[0] == columns

    def test_distinct_coordinates_leave_every_other_route_as_it_was(self, monkeypatch):
        # evaluate, derivative and the cube grid route hand in none
        calls = []
        real = bernstein._contract_collapsed
        monkeypatch.setattr(bernstein, "_contract_collapsed",
                            lambda *args: calls.append(args[4] if len(args) > 4 else None) or real(*args))
        spec = corpus_member("sincos", 3)
        x = grid_points(GridSpec(mv.SIMPLEX, 9), 3)
        mv.evaluate(mv.build_model(spec.value, mv.SIMPLEX, 8, 3), x)
        mv.derivative(mv.mixed(2), spec.value, (1, 0, 0), 8, x)
        bernstein._grid_partial(mv.build_model(spec.value, mv.CUBE, 8, 3), (0, 0, 0),
                                [grid_axis(GridSpec(mv.CUBE, 5))] * 3)
        assert calls == [None, None]


@st.composite
def point_tables(draw):
    """A non-cube kind on d <= 4 axes, a grid that keeps points, an order
    with |k| <= 2 and an increasing degree list from the order's least
    degree, whose lower degrees need not divide the top one."""
    d = draw(st.integers(2, 4))
    kind = draw(st.sampled_from([mv.SIMPLEX] + [mv.mixed(d1) for d1 in range(2, d + 1)]))
    inset = draw(st.floats(0.0, 0.25))
    g = GridSpec(kind, draw(st.integers(3, 17)), inset)
    w = max(harness._widths(kind, d))
    if not _coordinate_sum(np.full(w, inset)) <= 1.0 - inset:
        g = GridSpec(kind, g.points_per_axis, 0.0)
    k = draw(st.sampled_from([tuple(row) for row in mv.model_lattice(mv.SIMPLEX, 2, d).tolist()]))
    least = harness._min_degree(kind, k)
    degrees = draw(st.lists(st.integers(least, least + (24 if d < 4 else 10)), min_size=1, max_size=4, unique=True))
    return kind, d, g, k, sorted(degrees), draw(st.sampled_from(CORPUS_NAMES))


@given(point_tables())
@settings(max_examples=60, deadline=None)
def test_rows_are_within_the_rounding_of_the_per_point_route(case):
    # Bit-equality with the per-point route holds on the shapes above, but
    # not on every grid: a BLAS product may round a column apart by where
    # it falls among the product's columns, and both the last axis's table
    # and its product now take fewer. What holds is the rounding bound. A
    # value is a positive combination of the last axis's sums, each of
    # n + 1 terms at most max |coef| scale with weights summing to 1, and
    # each weight exp of three terms, whose rounding is at most 6 eps times
    # 2 ln C(n, j) + |ln w|: 16 d (n + 1) eps scale max |coef| bounds the
    # gap between two orders of those sums, and the rows move by no more.
    kind, d, g, k, degrees, name = case
    spec = corpus_member(name, d)
    widths = harness._widths(kind, d)
    got = harness._sup_errors(kind, spec, k, degrees, g)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _per_point(monkeypatch)
        want = harness._sup_errors(kind, spec, k, degrees, g)
    eps = np.finfo(np.float64).eps
    for n, a, b in zip(degrees, got, want):
        if bernstein._reduced_degrees(widths, k, n) is None:
            assert a == b
            continue
        coef = bernstein._differences(mv.build_model(spec.value, kind, n, d), k)
        bound = 16 * d * (n + 1) * eps * bernstein._scale(widths, k, n) * np.abs(coef).max()
        assert abs(a - b) <= bound + 2 * eps * max(a, b), (n, a.hex(), b.hex())


def _cold_tables():
    """Empty every table the package caches, so that a call makes its own."""
    for module in (bernstein, multiindex):
        for value in list(vars(module).values()):
            if hasattr(value, "cache_clear") and hasattr(value, "__wrapped__"):
                value.cache_clear()


def _table_estimates(monkeypatch):
    """Record the working set each table on the grid's points checks."""
    estimates, check = [], harness._check_budget

    def recorded(what, args, *parts):
        if what.startswith("a convergence table"):
            estimates.append(sum(parts))
        return check(what, args, *parts)

    monkeypatch.setattr(harness, "_check_budget", recorded)
    return estimates


class TestPointRouteBudget:
    """A table on the grid's points checks one estimate, its model's and
    the route's, before f is called or the grid is made."""

    # order e1 at n = 8, 16, 32 with no table cached: grid_points' and the
    # model's estimates alone are 2.2 / 1.5, 2.2 / 4.2 and 3.0 / 0.09 MiB
    @pytest.mark.parametrize("kind, d, points", [(mv.SIMPLEX, 3, 33), (mv.mixed(2), 3, 33), (mv.SIMPLEX, 2, 257)],
                             ids=["simplex3-grid33", "mixed2-3-grid33", "simplex2-grid257"])
    def test_the_estimate_bounds_the_peak_and_refuses_before_it_allocates(self, kind, d, points, monkeypatch):
        spec, rows = _counted(corpus_member("sincos", d))
        g = GridSpec(kind, points)
        table = lambda: convergence_table(kind, spec, (1,) + (0,) * (d - 1), (8, 16, 32), g)
        estimates = _table_estimates(monkeypatch)
        table()
        _cold_tables()
        tracemalloc.start()
        try:
            table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimates[-1]
        # a budget at the measured peak refuses the table by name
        rows.clear()
        monkeypatch.setattr(multiindex, "MEMORY_BUDGET", peak)
        tracemalloc.start()
        try:
            with pytest.raises(mv.SizeError, match=f"^a convergence table at n = 32 on a grid of {points**d:,} points "
                                                   f"on {d} axes has a working set of "):
                table()
            refused = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert refused < 2**20
        assert rows == []


@given(point_tables())
@settings(max_examples=30, deadline=None)
def test_the_estimate_bounds_the_peak_of_a_point_table(case):
    kind, d, g, k, degrees, name = case
    spec = corpus_member(name, d)
    with pytest.MonkeyPatch.context() as monkeypatch:
        estimates = _table_estimates(monkeypatch)
        peak = _peak_bytes(lambda: convergence_table(kind, spec, k, degrees, g))
    assert peak <= estimates[-1]
