import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvbernstein.finite_diff import (
    DiffSpec,
    ScalarField,
    _axis_rule,
    _stencil,
    delta_mixed,
    delta_mixed_iterated,
    difference_integral_check,
)


def poly2(x):
    # smooth test function with non-trivial mixed structure
    return (
        x[..., 0] ** 3 * x[..., 1] ** 2
        + 2.0 * x[..., 0] * x[..., 1]
        + 0.5 * x[..., 1] ** 3
    )


def nested_quadrature(df, x, order, steps, q=8):
    """Literal nested Gauss-Legendre over every range, exponential cost."""
    t, wt = np.polynomial.legendre.leggauss(q)
    d = len(order)
    inner = np.array(x, dtype=float)

    def next_axis(ax):
        if ax == d:
            return float(df(inner.copy()))
        return integrate_axis(ax, 0, x[ax])

    def integrate_axis(ax, level, lower):
        if level == order[ax]:
            inner[ax] = lower
            return next_axis(ax + 1)
        total = 0.0
        for node, w in zip(t, wt):
            xi = lower + (node + 1.0) * steps[ax] / 2.0
            total += w * steps[ax] / 2.0 * integrate_axis(ax, level + 1, xi)
        return total

    return next_axis(0)


class TestDiffSpec:
    def test_validation(self):
        spec = DiffSpec((1, 2), (0.1, 0.2))
        assert spec.dim == 2
        with pytest.raises(ValueError):
            DiffSpec((1, 2), (0.1,))
        with pytest.raises(ValueError):
            DiffSpec((1,), (0.0,))
        with pytest.raises(ValueError):
            DiffSpec((-1,), (0.1,))

    @pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf])
    def test_non_finite_steps_are_refused(self, z):
        # nan <= 0 is False, so a NaN step used to pass and give a NaN difference
        with pytest.raises(ValueError, match="steps must be positive and finite"):
            DiffSpec((1,), (z,))


class TestDeltaAxis:
    """First differences along one axis, as stencils of order e_i."""

    def test_square(self):
        f = lambda x: x[..., 0] ** 2
        got = delta_mixed(f, np.array([0.5]), DiffSpec((1,), (0.25,)))
        assert got == pytest.approx(0.3125, abs=1e-15)

    def test_constant(self):
        f = lambda x: np.full(x.shape[:-1], 3.5)
        assert delta_mixed(f, np.array([0.2, 0.7]), DiffSpec((0, 1), (0.3, 0.3))) == 0.0

    def test_independent_axis(self):
        f = lambda x: x[..., 1]
        assert delta_mixed(f, np.array([0.3, 0.4]), DiffSpec((1, 0), (0.1, 0.1))) == 0.0

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError, match="point dimension"):
            delta_mixed(lambda x: x[..., 0], np.array([0.1]), DiffSpec((0, 1), (0.1, 0.1)))


class TestDeltaMixed:
    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_a_non_finite_point_is_refused(self, c):
        # the stencil sum of a NaN point would be NaN, where every evaluator refuses it
        spec = DiffSpec((1, 0), (0.1, 0.1))
        for x in ([c, 0.2], [[0.1, 0.2], [0.3, c]]):
            with pytest.raises(ValueError, match="point has a non-finite coordinate"):
                delta_mixed(lambda p: p.sum(-1), x, spec)

    @pytest.mark.parametrize(
        "x, shape, want",
        [([0.3, 0.4], "()", "(4,)"), ([[0.3, 0.4], [0.1, 0.2], [0.5, 0.1]], "(4,)", "(3, 4)")],
        ids=["point", "batch"],
    )
    def test_wrong_shape_of_f_is_an_error(self, x, shape, want):
        # f sums over its stencil points instead of giving one value each
        f = lambda p: p[..., 0].sum(axis=0)
        with pytest.raises(ValueError, match=re.escape(f"f returned shape {shape} for stencil values of {want}")):
            delta_mixed(f, x, DiffSpec((1, 1), (0.1, 0.1)))

    def test_second_difference_of_square(self):
        f = lambda x: x[..., 0] ** 2
        got = delta_mixed(f, np.array([0.0]), DiffSpec((2,), (0.5,)))
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_cross_difference_of_product(self):
        f = lambda x: x[..., 0] * x[..., 1]
        spec = DiffSpec((1, 1), (0.2, 0.3))
        for x in (np.array([0.0, 0.0]), np.array([0.4, 0.1])):
            assert delta_mixed(f, x, spec) == pytest.approx(0.06, abs=1e-15)

    def test_zero_order_is_identity(self):
        x = np.array([0.3, 0.6])
        got = delta_mixed(poly2, x, DiffSpec((0, 0), (1.0, 1.0)))
        assert got == pytest.approx(float(poly2(x)), abs=0)

    def test_batch_matches_scalar(self):
        spec = DiffSpec((1, 2), (0.1, 0.2))
        pts = np.random.default_rng(1).random((7, 2))
        batch = delta_mixed(poly2, pts, spec)
        singles = [delta_mixed(poly2, p, spec) for p in pts]
        assert np.allclose(batch, singles, rtol=1e-14, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            delta_mixed(poly2, np.array([0.1]), DiffSpec((1, 1), (0.1, 0.1)))

    def test_stencil_equals_iterated(self):
        rng = np.random.default_rng(2)
        for order in [(1,), (3,), (2, 1), (1, 1, 2)]:
            spec = DiffSpec(order, tuple(0.1 + 0.2 * rng.random(len(order))))
            x = rng.random(len(order))
            f = lambda p: np.exp(p.sum(axis=-1) / 3.0) + (p**2).sum(axis=-1)
            a = delta_mixed(f, x, spec)
            b = delta_mixed_iterated(f, x, spec)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-14)

    @given(st.permutations([0, 0, 1, 2, 2, 2]))
    @settings(max_examples=30, deadline=None)
    def test_commutes_over_axis_permutations(self, seq):
        spec = DiffSpec((2, 1, 3), (0.15, 0.1, 0.05))
        x = np.array([0.2, 0.3, 0.1])

        def f(p):
            return np.sin(p[..., 0] + 2 * p[..., 1]) * np.exp(p[..., 2])

        base = delta_mixed_iterated(f, x, spec)
        permuted = delta_mixed_iterated(f, x, spec, axis_sequence=seq)
        scale = max(1.0, abs(base))
        assert abs(base - permuted) <= 1e-12 * scale

    def test_linearity(self):
        spec = DiffSpec((1, 2), (0.2, 0.1))
        x = np.array([0.3, 0.4])
        g = lambda p: np.cos(p[..., 0] * p[..., 1])
        lhs = delta_mixed(lambda p: 2.5 * poly2(p) - 1.5 * g(p), x, spec)
        rhs = 2.5 * delta_mixed(poly2, x, spec) - 1.5 * delta_mixed(g, x, spec)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_annihilates_low_degree(self):
        # degree in axis 0 is 2 < 3, so a (3, 1) difference vanishes
        f = lambda p: p[..., 0] ** 2 * p[..., 1]
        got = delta_mixed(f, np.array([0.4, 0.2]), DiffSpec((3, 1), (0.3, 0.2)))
        assert abs(got) <= 1e-12

    def test_stencil_is_made_once_per_order(self):
        spec, x = DiffSpec((1, 1), (0.1, 0.2)), np.array([0.3, 0.4])
        first = delta_mixed(poly2, x, spec)
        misses = _stencil.cache_info().misses
        assert delta_mixed(poly2, x, spec) == first
        assert _stencil.cache_info().misses == misses
        for got, want in zip(_stencil((1, 1)), _stencil.__wrapped__((1, 1))):
            assert np.array_equal(got, want) and not got.flags.writeable


class TestIntegralIdentity:
    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_a_non_finite_point_is_refused(self, c):
        spec = DiffSpec((1,), (0.1,))
        with pytest.raises(ValueError, match="point has a non-finite coordinate"):
            difference_integral_check(lambda x: x[..., 0] ** 2, lambda x: 2 * x[..., 0], np.array([c]), spec)

    def test_axis_rule_total_mass(self):
        # the collapsed kernel must integrate to z^k
        for k in (1, 2, 3):
            for z in (0.1, 0.5):
                _, w = _axis_rule(0.3, z, k, 16)
                assert w.sum() == pytest.approx(z**k, rel=1e-13)

    def test_product_two_axes(self):
        f = lambda x: x[..., 0] * x[..., 1]
        df = lambda x: np.ones(x.shape[:-1])
        lhs, rhs = difference_integral_check(
            f, df, np.array([0.1, 0.2]), DiffSpec((1, 1), (0.3, 0.4))
        )
        assert lhs == pytest.approx(0.12, abs=1e-15)
        assert rhs == pytest.approx(0.12, abs=1e-13)

    @pytest.mark.parametrize(
        "df, shape",
        [(lambda x: np.ones(x.shape[:-1]).sum(), "()"), (lambda x: x[..., 0].sum(axis=0), "(32,)")],
        ids=["scalar", "sum-over-nodes"],
    )
    def test_wrong_shape_of_df_is_an_error(self, df, shape):
        # unchecked, the scalar was broadcast over the 32 x 32 nodes and gave
        # rhs 10.24 against a difference of 0.01
        f = lambda x: x[..., 0] * x[..., 1]
        with pytest.raises(ValueError, match=re.escape(f"df returned shape {shape} for node values of (32, 32)")):
            difference_integral_check(f, df, np.array([0.3, 0.4]), DiffSpec((1, 1), (0.1, 0.1)))

    def test_zero_order_is_identity(self):
        lhs, rhs = difference_integral_check(
            poly2, poly2, np.array([0.3, 0.7]), DiffSpec((0, 0), (0.1, 0.1))
        )
        assert lhs == rhs == pytest.approx(float(poly2(np.array([0.3, 0.7]))), abs=0)

    def test_cubic_second_order(self):
        f = lambda x: x[..., 0] ** 3
        df = lambda x: 6.0 * x[..., 0]
        lhs, rhs = difference_integral_check(f, df, np.array([0.0]), DiffSpec((2,), (0.5,)))
        assert lhs == pytest.approx(0.75, abs=1e-14)
        assert rhs == pytest.approx(0.75, abs=1e-13)

    CASES = [
        (
            (2,),
            (0.4,),
            np.array([0.2]),
            lambda x: np.sin(x[..., 0]) + x[..., 0] ** 3,
            lambda x: -np.sin(x[..., 0]) + 6 * x[..., 0],
        ),
        (
            (1, 1),
            (0.3, 0.2),
            np.array([0.1, 0.5]),
            lambda x: np.sin(x[..., 0]) * np.cos(x[..., 1]),
            lambda x: -np.cos(x[..., 0]) * np.sin(x[..., 1]),
        ),
        (
            (2, 1),
            (0.25, 0.3),
            np.array([0.3, 0.4]),
            lambda x: np.exp(x[..., 0]) * x[..., 1] ** 2,
            lambda x: np.exp(x[..., 0]) * 2 * x[..., 1],
        ),
    ]

    @pytest.mark.parametrize("order,steps,x,f,df", CASES)
    def test_matches_literal_nested_quadrature(self, order, steps, x, f, df):
        lhs, rhs = difference_integral_check(f, df, x, DiffSpec(order, steps))
        literal = nested_quadrature(df, x, order, steps)
        assert rhs == pytest.approx(literal, rel=1e-10, abs=1e-12)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_polynomial_tolerance(self):
        f = lambda x: x[..., 0] ** 4 * x[..., 1]
        df = lambda x: 12.0 * x[..., 0] ** 2 * x[..., 1]
        lhs, rhs = difference_integral_check(
            f, df, np.array([0.2, 0.3]), DiffSpec((2, 0), (0.25, 0.1))
        )
        assert abs(lhs - rhs) <= 1e-8

    def test_transcendental_tolerance(self):
        f = lambda x: np.exp(x[..., 0] + 0.5 * x[..., 1])
        df = lambda x: 0.5 * np.exp(x[..., 0] + 0.5 * x[..., 1])
        lhs, rhs = difference_integral_check(
            f, df, np.array([0.1, 0.2]), DiffSpec((1, 1), (0.25, 0.25)), quad_points=32
        )
        assert abs(lhs - rhs) <= 1e-6


    def test_quad_points_must_be_an_integer(self):
        # a float such as 32.0 would otherwise share the cached rule of 32,
        # and True would be the one-point rule
        calls = []
        f = lambda x: calls.append(x) or np.exp(x[..., 0] + 0.5 * x[..., 1])
        df = lambda x: 0.5 * np.exp(x[..., 0] + 0.5 * x[..., 1])
        args = (f, df, np.array([0.1, 0.2]), DiffSpec((1, 1), (0.25, 0.25)))
        for bad in (True, np.True_, 32.0, "32"):
            with pytest.raises(TypeError, match="quad_points must be an integer"):
                difference_integral_check(*args, quad_points=bad)
        assert calls == []
        assert difference_integral_check(*args, quad_points=np.int64(7)) == difference_integral_check(
            *args, quad_points=7
        )


class TestScalarField:
    def test_wraps_callable_and_casts(self):
        field = ScalarField(lambda x: x[..., 0] + 1.0)
        assert field([1, 2]) == pytest.approx(2.0)
