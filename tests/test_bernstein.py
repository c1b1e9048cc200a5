import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvbernstein as mv
from mvbernstein import bernstein
from mvbernstein.bernstein import (
    _diff_rows,
    _falling,
    _lattice,
    _prepare_points,
    _product_lattice,
    _rank,
    _weight_rows,
)
from mvbernstein.multiindex import _log_binomial_row


def brute_cube_value(f, n, x):
    """Direct tensor-product sum with exact integer binomials."""
    d = len(x)
    total = 0.0
    for j in itertools.product(range(n + 1), repeat=d):
        w = 1.0
        for ji, xi in zip(j, x):
            w *= math.comb(n, ji) * xi**ji * (1 - xi) ** (n - ji)
        total += w * f(np.array(j) / n)
    return total


def brute_simplex_value(f, n, x):
    d = len(x)
    s = sum(x)
    total = 0.0
    for j in itertools.product(range(n + 1), repeat=d):
        if sum(j) > n:
            continue
        c = math.factorial(n)
        for ji in j:
            c //= math.factorial(ji)
        c //= math.factorial(n - sum(j))
        w = c * (1 - s) ** (n - sum(j))
        for ji, xi in zip(j, x):
            w *= xi**ji
        total += w * f(np.array(j) / n)
    return total


def classical_1d_value(f, n, x):
    return sum(
        f(np.array([j / n])) * math.comb(n, j) * x**j * (1 - x) ** (n - j)
        for j in range(n + 1)
    )


def classical_1d_deriv(f, n, k, x):
    """Direct one-dimensional derivative formula with recursive differences."""

    def delta(j, order):
        if order == 0:
            return f(np.array([j / n]))
        return delta(j + 1, order - 1) - delta(j, order - 1)

    if k > n:
        return 0.0
    scale = 1.0
    for m in range(k):
        scale *= n - m
    return scale * sum(
        delta(j, k) * math.comb(n - k, j) * x**j * (1 - x) ** (n - k - j)
        for j in range(n - k + 1)
    )


def x0sq(x):
    return x[..., 0] ** 2


def prodxy(x):
    return x[..., 0] * x[..., 1]


def scalar_only_sum(x):
    if x.ndim > 1:
        raise TypeError("no batches")
    return float(x.sum())


class TestBuildModel:
    def test_constant_samples(self):
        m = mv.build_model(lambda x: np.ones(x.shape[:-1]), mv.CUBE, 2, 1)
        assert m.samples.tolist() == [1.0, 1.0, 1.0]

    def test_linear_samples(self):
        m = mv.build_model(lambda x: x[..., 0], mv.CUBE, 2, 1)
        assert m.samples.tolist() == [0.0, 0.5, 1.0]

    def test_simplex_lattice_order(self):
        m = mv.build_model(lambda x: x[..., 0] + x[..., 1], mv.SIMPLEX, 1, 2)
        # lattice (0,0), (0,1), (1,0)
        assert m.samples.tolist() == [0.0, 1.0, 1.0]

    def test_failure_reports_lattice_index(self):
        def bad(x):
            if x.ndim == 1 and x[0] > 0.9:
                raise ArithmeticError("boom")
            if x.ndim > 1:
                raise TypeError("no batches")
            return 1.0

        with pytest.warns(RuntimeWarning, match="TypeError: no batches"):
            with pytest.raises(RuntimeError, match=r"lattice index \(2,\)"):
                mv.build_model(bad, mv.CUBE, 2, 1)

    def test_pointwise_fallback_warns(self):
        with pytest.warns(RuntimeWarning, match="TypeError: no batches"):
            model = mv.build_model(scalar_only_sum, mv.CUBE, 40, 2)
        assert model.samples.size == 41 * 41

    @pytest.mark.parametrize(
        "scalar_f, batch_f",
        [
            (scalar_only_sum, lambda x: x.sum(-1)),
            (lambda x: 2.0, lambda x: np.full(x.shape[:-1], 2.0)),
        ],
        ids=["scalar-only", "constant"],
    )
    def test_every_derivative_route_falls_back_pointwise(self, scalar_f, batch_f):
        x = np.array([[0.2, 0.3], [0.0, 0.5]])
        routes = [
            lambda f: mv.derivative(mv.SIMPLEX, f, (1, 0), 6, x),
            lambda f: mv.derivative(mv.CUBE, f, (0, 2), 6, x),
            lambda f: mv.oracle_deriv(f, mv.mixed(1), (1, 1), 6, x),
            lambda f: mv.deriv_cube_grid(f, (1, 0), 6, [[0.1, 0.6], [0.0, 1.0, 0.4]]),
        ]
        for route in routes:
            with pytest.warns(RuntimeWarning, match="one at a time"):
                got = route(scalar_f)
            assert np.array_equal(got, route(batch_f))

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            mv.build_model(x0sq, mv.CUBE, 0, 1)

    def test_rejects_non_integral_degree(self):
        x = np.array([0.2, 0.3])
        with pytest.raises(ValueError, match="not an integer"):
            mv.build_model(x0sq, mv.CUBE, 2.7, 2)
        with pytest.raises(ValueError, match="not an integer"):
            mv.derivative(mv.CUBE, x0sq, (1, 0), 2.7, x)
        with pytest.raises(ValueError, match="not an integer"):
            mv.mixed(1.5)
        assert mv.build_model(x0sq, mv.CUBE, 2.0, 2).degree == 2

    def test_model_rejects_non_finite_samples(self):
        with pytest.raises(ValueError, match=r"lattice index \(1,\)"):
            mv.parse_model("cube 1 1\n0\nnan\n")
        with pytest.raises(ValueError, match=r"lattice index \(1, 0\)"):
            mv.BernsteinModel(mv.SIMPLEX, 1, 2, [0.0, 1.0, np.inf])

    @pytest.mark.parametrize("kind", [mv.CUBE, mv.SIMPLEX, mv.mixed(1)])
    def test_non_finite_samples_name_lattice_index(self, kind):
        def f(x):
            return np.where(x[..., 0] > 0.9, np.nan, x.sum(-1))

        x = np.array([0.1, 0.1])
        # (10, 0) is the first lattice index in lexicographic order with j_0 / n > 0.9
        with pytest.raises(ValueError, match=r"lattice index \(10, 0\)"):
            mv.build_model(f, kind, 10, 2)
        with pytest.raises(ValueError, match=r"lattice index \(10, 0\)"):
            mv.derivative(kind, f, (1, 0), 10, x)
        with pytest.raises(ValueError, match=r"lattice index \(10, 0\)"):
            mv.oracle_deriv(f, kind, (1, 0), 10, x)


class TestEvalCube:
    def test_affine_reproduction(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            a = rng.uniform(-1, 1, d)
            b = float(rng.uniform(-1, 1))
            f = lambda x, a=a, b=b: x @ a + b
            n = int(rng.integers(1, 51))
            model = mv.build_model(f, mv.CUBE, n, d)
            x = rng.random(d)
            assert mv.evaluate(model, x) == pytest.approx(float(f(x)), abs=1e-12)

    def test_square_closed_form_and_brute_force(self):
        for n in (1, 4, 20, 75):
            model = mv.build_model(x0sq, mv.CUBE, n, 1)
            for x in (0.0, 0.31, 0.5, 1.0):
                got = mv.evaluate(model, np.array([x]))
                closed = x**2 + x * (1 - x) / n
                assert got == pytest.approx(closed, abs=1e-12)
                if n <= 20:
                    assert got == pytest.approx(brute_cube_value(x0sq, n, [x]), abs=1e-12)

    def test_origin_takes_single_term(self):
        model = mv.build_model(lambda x: np.cos(x.sum(-1)), mv.CUBE, 7, 2)
        assert mv.evaluate(model, np.zeros(2)) == 1.0

    def test_brute_force_2d(self):
        f = lambda x: np.sin(x[..., 0]) * (1 + x[..., 1] ** 2)
        model = mv.build_model(f, mv.CUBE, 6, 2)
        x = [0.23, 0.77]
        assert mv.evaluate(model, np.array(x)) == pytest.approx(
            brute_cube_value(f, 6, x), rel=1e-13
        )

    def test_domain_error_and_clamp(self):
        model = mv.build_model(x0sq, mv.CUBE, 3, 1)
        assert mv.evaluate(model, np.array([1.0 + 9e-13])) == pytest.approx(1.0)
        with pytest.raises(mv.DomainError):
            mv.evaluate(model, np.array([1.01]))
        with pytest.raises(mv.DomainError):
            mv.evaluate(model, np.array([-0.01]))


class TestEvalSimplex:
    def test_matches_classical_1d(self):
        rng = np.random.default_rng(4)
        f = lambda x: np.sin(3 * x[..., 0]) + x[..., 0] ** 2
        for n in (1, 7, 33):
            model = mv.build_model(f, mv.SIMPLEX, n, 1)
            for x in rng.random(5):
                assert mv.evaluate(model, np.array([x])) == pytest.approx(
                    classical_1d_value(f, n, x), abs=1e-12
                )

    def test_affine_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            a = rng.uniform(-1, 1, d)
            b = float(rng.uniform(-1, 1))
            f = lambda x, a=a, b=b: x @ a + b
            n = int(rng.integers(1, 51))
            model = mv.build_model(f, mv.SIMPLEX, n, d)
            x = rng.random(d)
            x = x * rng.random() / x.sum()
            assert mv.evaluate(model, x) == pytest.approx(float(f(x)), abs=1e-12)

    def test_corner_is_exact(self):
        f = lambda x: np.exp(x[..., 0] - x[..., 1])
        model = mv.build_model(f, mv.SIMPLEX, 9, 2)
        corner = np.array([1.0, 0.0])
        assert mv.evaluate(model, corner) == float(f(corner))

    def test_brute_force_2d(self):
        f = lambda x: np.exp(x[..., 0]) * (1 + x[..., 1])
        model = mv.build_model(f, mv.SIMPLEX, 5, 2)
        x = [0.3, 0.45]
        assert mv.evaluate(model, np.array(x)) == pytest.approx(
            brute_simplex_value(f, 5, x), rel=1e-13
        )

    def test_sum_constraint(self):
        model = mv.build_model(prodxy, mv.SIMPLEX, 4, 2)
        with pytest.raises(mv.DomainError):
            mv.evaluate(model, np.array([0.7, 0.7]))
        # a sum barely over 1 gets rescaled onto the boundary
        assert np.isfinite(mv.evaluate(model, np.array([0.5, 0.5 + 5e-13])))


class TestEvalMixed:
    def test_degenerate_blocks(self):
        f = lambda x: np.exp(x[..., 0]) + x[..., 1] ** 2
        pts = np.random.default_rng(6).random((20, 2)) / 2
        simplex_model = mv.build_model(f, mv.SIMPLEX, 8, 2)
        full_mixed = mv.build_model(f, mv.mixed(2), 8, 2)
        assert np.allclose(
            mv.evaluate(full_mixed, pts), mv.evaluate(simplex_model, pts), atol=1e-12
        )
        cube_model = mv.build_model(f, mv.CUBE, 8, 2)
        thin_mixed = mv.build_model(f, mv.mixed(1), 8, 2)
        assert np.allclose(
            mv.evaluate(thin_mixed, pts), mv.evaluate(cube_model, pts), atol=1e-12
        )

    def test_affine_exact(self):
        a = np.array([0.4, -0.2, 0.9])
        f = lambda x: x @ a + 0.1
        model = mv.build_model(f, mv.mixed(2), 10, 3)
        x = np.array([0.2, 0.3, 0.8])
        assert mv.evaluate(model, x) == pytest.approx(float(f(x)), abs=1e-12)

    def test_domain_split(self):
        model = mv.build_model(lambda x: x.sum(-1), mv.mixed(2), 4, 3)
        # simplex block must satisfy the sum constraint, cube block must not
        assert np.isfinite(mv.evaluate(model, np.array([0.5, 0.4, 0.99])))
        with pytest.raises(mv.DomainError):
            mv.evaluate(model, np.array([0.6, 0.6, 0.5]))


class TestDerivCube:
    def test_linear_slope(self):
        f = lambda x: x[..., 0]
        for n in (1, 5, 40):
            got = mv.derivative(mv.CUBE, f, (1,), n, np.array([0.37]))
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_square_second_derivative(self):
        for n in (2, 10, 64):
            got = mv.derivative(mv.CUBE, x0sq, (2,), n, np.array([0.3]))
            assert got == pytest.approx(2.0 * (n - 1) / n, abs=1e-11)

    def test_zero_order_matches_eval(self):
        f = lambda x: np.sin(x[..., 0] + x[..., 1] ** 2)
        model = mv.build_model(f, mv.CUBE, 9, 2)
        pts = np.random.default_rng(7).random((10, 2))
        assert np.allclose(
            mv.derivative(mv.CUBE, f, (0, 0), 9, pts), mv.evaluate(model, pts), atol=1e-13
        )

    def test_order_above_degree_is_zero(self):
        assert mv.derivative(mv.CUBE, x0sq, (4,), 3, np.array([0.5])) == 0.0

    def test_stencil_containment(self):
        # every difference argument (j + m)/n must stay inside the cube
        n, order = 6, (2, 1)
        for j in itertools.product(range(n - order[0] + 1), range(n - order[1] + 1)):
            for m in itertools.product(range(order[0] + 1), range(order[1] + 1)):
                pt = (np.array(j) + np.array(m)) / n
                assert np.all(pt <= 1.0) and np.all(pt >= 0.0)


class TestDerivSimplex:
    def test_affine_coefficient(self):
        f = lambda x: x[..., 0] + 2.0 * x[..., 1]
        for n in (1, 8, 30):
            got = mv.derivative(mv.SIMPLEX, f, (0, 1), n, np.array([0.2, 0.5]))
            assert got == pytest.approx(2.0, abs=1e-12)

    def test_zero_order_matches_eval(self):
        f = lambda x: np.exp(-x.sum(-1))
        model = mv.build_model(f, mv.SIMPLEX, 7, 2)
        pts = np.random.default_rng(8).random((10, 2)) / 2
        assert np.allclose(
            mv.derivative(mv.SIMPLEX, f, (0, 0), 7, pts), mv.evaluate(model, pts), atol=1e-13
        )

    def test_product_cross_derivative_constant(self):
        for n in (2, 8, 21):
            pts = np.random.default_rng(9).random((5, 2)) / 2
            got = mv.derivative(mv.SIMPLEX, prodxy, (1, 1), n, pts)
            assert np.allclose(got, (n - 1) / n, atol=1e-12)

    def test_matches_classical_1d(self):
        f = lambda x: np.exp(x[..., 0]) + np.sin(2 * x[..., 0])
        rng = np.random.default_rng(10)
        for n in (4, 17, 50):
            for k in range(0, 5):
                if k > n:
                    continue
                x = float(rng.random())
                got = mv.derivative(mv.SIMPLEX, f, (k,), n, np.array([x]))
                want = classical_1d_deriv(f, n, k, x)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_order_above_degree_is_zero(self):
        assert mv.derivative(mv.SIMPLEX, prodxy, (2, 2), 3, np.array([0.1, 0.1])) == 0.0


class TestDerivMixed:
    def test_product_rule_value(self):
        g = lambda x: x[..., 0] * x[..., 1] + x[..., 2]
        for n in (2, 12):
            got = mv.derivative(mv.mixed(2), g, (1, 1, 0), n, np.array([0.2, 0.3, 0.7]))
            assert got == pytest.approx((n - 1) / n, abs=1e-12)

    def test_degenerate_blocks_match_pure_kinds(self):
        f = lambda x: np.sin(x[..., 0]) * np.cos(x[..., 1])
        pts = np.random.default_rng(11).random((6, 2)) / 2
        a = mv.derivative(mv.mixed(2), f, (1, 1), 9, pts)
        b = mv.derivative(mv.SIMPLEX, f, (1, 1), 9, pts)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-13)
        c = mv.derivative(mv.mixed(1), f, (1, 1), 9, pts)
        d = mv.derivative(mv.CUBE, f, (1, 1), 9, pts)
        assert np.allclose(c, d, rtol=1e-12, atol=1e-13)


class TestOracle:
    def test_cube_example(self):
        got = mv.oracle_deriv(x0sq, mv.CUBE, (2,), 10, np.array([0.3]))
        assert got == pytest.approx(1.8, rel=1e-12)

    def test_simplex_example(self):
        got = mv.oracle_deriv(prodxy, mv.SIMPLEX, (1, 1), 8, np.array([0.2, 0.3]))
        assert got == pytest.approx(0.875, rel=1e-12)

    def test_zero_order_equals_eval(self):
        f = lambda x: np.exp(x[..., 0] * x[..., 1])
        pts = np.random.default_rng(12).random((8, 2)) / 2
        cube_model = mv.build_model(f, mv.CUBE, 6, 2)
        assert np.allclose(
            mv.oracle_deriv(f, mv.CUBE, (0, 0), 6, pts),
            mv.evaluate(cube_model, pts),
            rtol=1e-13,
        )
        simplex_model = mv.build_model(f, mv.SIMPLEX, 6, 2)
        assert np.allclose(
            mv.oracle_deriv(f, mv.SIMPLEX, (0, 0), 6, pts),
            mv.evaluate(simplex_model, pts),
            rtol=1e-13,
        )

    @pytest.mark.parametrize("kind", [mv.CUBE, mv.SIMPLEX])
    def test_agrees_with_difference_path(self, kind):
        f = lambda x: np.sin(np.pi * x[..., 0]) * np.exp(x[..., 1] / 2)
        rng = np.random.default_rng(13)
        for n in (5, 18, 42):
            for order in [(1, 0), (0, 2), (1, 1), (2, 1)]:
                pts = rng.random((6, 2))
                if kind.name == "simplex":
                    pts = pts / 2
                a = mv.derivative(kind, f, order, n, pts)
                b = mv.oracle_deriv(f, kind, order, n, pts)
                scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
                assert np.all(np.abs(a - b) <= 1e-9 * scale)

    def test_mixed_oracle_agrees(self):
        g = lambda x: np.exp(x[..., 0]) * x[..., 1] * np.sin(x[..., 2])
        pts = np.random.default_rng(14).random((5, 3))
        pts[:, :2] /= 2
        for order in [(1, 0, 0), (1, 1, 1), (0, 1, 2)]:
            a = mv.derivative(mv.mixed(2), g, order, 11, pts)
            b = mv.oracle_deriv(g, mv.mixed(2), order, 11, pts)
            scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
            assert np.all(np.abs(a - b) <= 1e-9 * scale)

    def test_degree_limit_is_an_error_before_sampling(self):
        # C(1030, 515) is past the float range, C(1029, 514) is not
        def f(x):
            raise AssertionError("f was sampled")

        with pytest.raises(ValueError, match="degree limit on a 1-wide block is 1029"):
            mv.oracle_deriv(f, mv.CUBE, (1,), 1030, np.array([0.37]))

    def test_agrees_below_the_degree_limit(self):
        f = lambda x: np.sin(3.0 * x[..., 0])
        x = np.array([[0.37], [0.0], [0.5], [1.0]])
        for k in [(0,), (1,), (2,)]:
            a = mv.derivative(mv.CUBE, f, k, 1000, x)
            b = mv.oracle_deriv(f, mv.CUBE, k, 1000, x)
            # criterion 3's measure and tolerance
            scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
            assert np.all(np.abs(a - b) <= 1e-9 * scale)


def expanded_basis(n, j):
    """C(n; j) x^j (1 - |x|)^q, q = n - |j|, as {exponents: integer coefficient}."""
    q = n - sum(j)
    lead = math.factorial(n) // math.prod(math.factorial(v) for v in (*j, q))
    poly = {}
    for a in itertools.product(range(q + 1), repeat=len(j)):
        if sum(a) <= q:
            c = math.factorial(q) // math.prod(math.factorial(v) for v in (*a, q - sum(a)))
            e = tuple(u + v for u, v in zip(j, a))
            poly[e] = poly.get(e, 0) + (-1) ** sum(a) * lead * c
    return poly


def power_rule_value(poly, k, x):
    """The order-k partial of the polynomial at the point x, in exact arithmetic."""
    total = Fraction(0)
    for e, c in poly.items():
        if all(ei >= ki for ei, ki in zip(e, k)):
            term = Fraction(c)
            for ei, ki, xi in zip(e, k, x):
                term *= math.perm(ei, ki) * xi ** (ei - ki)
            total += term
    return total


class TestOracleExact:
    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_basis_partials_match_exact_power_rule(self, w):
        # dyadic points convert to floats exactly: interior, a zero face,
        # the |x| = 1 face and two vertices
        half = [Fraction(1, 2 ** (i + 1)) for i in range(w - 1)]
        points = [
            [Fraction(1, 8), Fraction(1, 4), Fraction(3, 16)][:w],
            [Fraction(0), Fraction(3, 8), Fraction(1, 4)][:w],
            half + [1 - sum(half)],
            [Fraction(0)] * w,
            [Fraction(1)] + [Fraction(0)] * (w - 1),
        ]
        P = np.array(points, dtype=np.float64)
        orders = [tuple(int(v) for v in k) for k in mv.model_lattice(mv.SIMPLEX, 3, w)]
        for n in range(1, 6):
            for j in mv.model_lattice(mv.SIMPLEX, n, w):
                indicator = lambda x, n=n, j=j: np.all(np.rint(x * n) == j, axis=-1) * 1.0
                poly = expanded_basis(n, tuple(int(v) for v in j))
                for k in orders:
                    got = mv.oracle_deriv(indicator, mv.SIMPLEX, k, n, P)
                    want = np.array([float(power_rule_value(poly, k, x)) for x in points])
                    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), (n, j, k)


class TestPartitionOfUnity:
    @given(
        st.integers(1, 3),
        st.integers(1, 25),
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_cube_weights_sum_to_one(self, d, n, coords):
        one = lambda x: np.ones(x.shape[:-1])
        model = mv.build_model(one, mv.CUBE, n, d)
        x = np.array(coords[:d])
        assert mv.evaluate(model, x) == pytest.approx(1.0, abs=1e-12)

    @given(
        st.integers(1, 3),
        st.integers(1, 25),
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_simplex_weights_sum_to_one(self, d, n, coords):
        one = lambda x: np.ones(x.shape[:-1])
        model = mv.build_model(one, mv.SIMPLEX, n, d)
        x = np.array(coords[:d])
        if x.sum() > 1.0:
            x = x / x.sum()
        assert mv.evaluate(model, x) == pytest.approx(1.0, abs=1e-12)

    def test_derivatives_of_constant_vanish(self):
        one = lambda x: np.ones(x.shape[:-1])
        pts = np.random.default_rng(15).random((10, 2)) / 2
        for order in [(1, 0), (1, 1), (2, 0), (2, 2)]:
            assert np.all(np.abs(mv.derivative(mv.CUBE, one, order, 12, pts)) <= 1e-10)
            assert np.all(np.abs(mv.derivative(mv.SIMPLEX, one, order, 12, pts)) <= 1e-10)
            assert np.all(np.abs(mv.derivative(mv.mixed(1), one, order, 12, pts)) <= 1e-10)


class TestDegreeConsistency:
    def test_eval_cube_is_polynomial_1d(self):
        f = lambda x: np.exp(x[..., 0])
        n = 12
        model = mv.build_model(f, mv.CUBE, n, 1)
        # interpolate through n+1 Chebyshev points, then compare at fresh points
        nodes = 0.5 + 0.5 * np.cos(np.pi * np.arange(n + 1) / n)
        vals = mv.evaluate(model, nodes[:, None])
        coeffs = np.polynomial.chebyshev.chebfit(nodes, vals, n)
        fresh = np.random.default_rng(16).random(20)
        direct = mv.evaluate(model, fresh[:, None])
        interp = np.polynomial.chebyshev.chebval(fresh, coeffs)
        assert np.allclose(direct, interp, atol=1e-9)

    def test_eval_cube_is_polynomial_2d(self):
        f = lambda x: np.sin(x[..., 0] + 2 * x[..., 1])
        n = 8
        model = mv.build_model(f, mv.CUBE, n, 2)
        nodes = 0.5 + 0.5 * np.cos(np.pi * np.arange(n + 1) / n)
        grid = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), -1).reshape(-1, 2)
        vals = mv.evaluate(model, grid).reshape(n + 1, n + 1)
        vander = np.polynomial.chebyshev.chebvander(nodes, n)
        coeffs = np.linalg.solve(vander, np.linalg.solve(vander, vals.T).T)
        fresh = np.random.default_rng(17).random((30, 2))
        direct = mv.evaluate(model, fresh)
        interp = np.array(
            [
                np.polynomial.chebyshev.chebval2d(p[0], p[1], coeffs)
                for p in fresh
            ]
        )
        assert np.allclose(direct, interp, atol=1e-9)


class TestGridPaths:
    def test_eval_grid_matches_pointwise(self):
        f = lambda x: np.sin(x[..., 0]) * x[..., 1] ** 2
        model = mv.build_model(f, mv.CUBE, 10, 2)
        axes = [np.linspace(0, 1, 9), np.linspace(0, 1, 7)]
        grid_vals = mv.eval_cube_grid(model, axes)
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2)
        assert np.allclose(grid_vals.reshape(-1), mv.evaluate(model, pts), atol=1e-12)

    def test_deriv_grid_matches_pointwise(self):
        f = lambda x: np.exp(x[..., 0]) * np.cos(x[..., 1])
        axes = [np.linspace(0, 1, 6), np.linspace(0, 1, 5)]
        grid_vals = mv.deriv_cube_grid(f, (1, 2), 9, axes)
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2)
        assert np.allclose(
            grid_vals.reshape(-1), mv.derivative(mv.CUBE, f, (1, 2), 9, pts), atol=1e-12
        )


class TestSerialization:
    @pytest.mark.parametrize(
        "kind,d", [(mv.CUBE, 2), (mv.SIMPLEX, 3), (mv.mixed(2), 3)]
    )
    def test_round_trip(self, kind, d, tmp_path):
        f = lambda x: np.exp(x.sum(-1) / 3) + 1 / 3
        model = mv.build_model(f, kind, 5, d)
        path = tmp_path / "model.txt"
        mv.save_model(model, path)
        loaded = mv.load_model(path)
        assert loaded.kind == model.kind
        assert loaded.degree == model.degree
        assert loaded.dim == model.dim
        assert np.array_equal(loaded.samples, model.samples)

    def test_header_format(self):
        model = mv.build_model(lambda x: x.sum(-1), mv.mixed(1), 3, 2)
        text = mv.dump_model(model)
        assert text.splitlines()[0] == "mixed 3 2 1 1"
        assert len(text.splitlines()) == 1 + model.samples.size

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError):
            mv.parse_model("pyramid 3 2\n0\n")
        with pytest.raises(ValueError):
            mv.parse_model("mixed 3 2 2 1\n0\n")

    def test_17_digit_round_trip(self):
        vals = np.array([1 / 3, math.pi / 7, 1e-17, 2**-40])
        model = mv.BernsteinModel(mv.CUBE, 3, 1, vals)
        again = mv.parse_model(mv.dump_model(model))
        assert np.array_equal(again.samples, vals)

    EDGE_VALUES = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.2250738585072009e-308,
        1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, -2 / 3, 1e-17, 0.1, 1.0,
        2**53 + 2.0, 9007199254740993.0, 123456789012345680.0,
    ]

    @staticmethod
    def random_values(rng, size):
        """Finite doubles across the whole exponent range, subnormals included."""
        bits = rng.integers(0, 2**63, size, dtype=np.uint64)
        bits |= rng.integers(0, 2, size, dtype=np.uint64) << 63
        vals = bits.view(np.float64)
        return vals[np.isfinite(vals)]

    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(90)
        vals = np.concatenate([self.EDGE_VALUES, self.random_values(rng, 5000)])
        scaled = rng.standard_normal(2000) * 10.0 ** rng.integers(-30, 30, 2000)
        vals = np.concatenate([vals, scaled])
        for chunk in np.array_split(vals, 10):
            model = mv.BernsteinModel(mv.CUBE, chunk.size - 1, 1, chunk)
            again = mv.parse_model(mv.dump_model(model))
            assert np.array_equal(again.samples.view(np.uint64), chunk.view(np.uint64))

    def test_dump_matches_per_value_format(self):
        rng = np.random.default_rng(91)
        vals = np.concatenate([self.EDGE_VALUES, self.random_values(rng, 3000)])
        for kind, d, n in [(mv.CUBE, 1, vals.size - 1), (mv.SIMPLEX, 2, 2), (mv.mixed(2), 3, 2)]:
            samples = vals[: mv.model_size(kind, n, d)]
            model = mv.BernsteinModel(kind, n, d, samples)
            head = mv.dump_model(model).split("\n", 1)[0]
            lines = [head, *(format(float(v), ".17g") for v in samples)]
            want = "".join(f"{line}\n" for line in lines)
            assert mv.dump_model(model) == want

    def test_blank_lines_and_crlf_load(self):
        model = mv.BernsteinModel(mv.SIMPLEX, 1, 2, [0.5, -0.0, 1e-300])
        text = mv.dump_model(model)
        spaced = "\n \t\n" + text.replace("\n", "\n\n  \n", 2) + "\n\n"
        for variant in (spaced, text.replace("\n", "\r\n"), spaced.replace("\n", "\r\n")):
            again = mv.parse_model(variant)
            assert again.kind == model.kind and again.degree == 1 and again.dim == 2
            assert np.array_equal(again.samples.view(np.uint64), model.samples.view(np.uint64))

    @pytest.mark.parametrize(
        "text,line,bad",
        [
            ("cube 1 1\n0\n1 2\n", 3, "1 2"),
            ("cube 1 1\n0.5 0.25\n1 2\n", 2, "0.5 0.25"),
            ("\ncube 1 1\n0\n\n  \nabc\n", 6, "abc"),
            ("cube 1 1\r\n0\r\n1e5x\r\n", 3, "1e5x"),
            ("cube 1 1\n1_0\n2\n", 2, "1_0"),
        ],
    )
    def test_bad_sample_line_is_named(self, text, line, bad):
        with pytest.raises(ValueError, match=f"^line {line}: '{bad}' is not one number$"):
            mv.parse_model(text)

    @pytest.mark.parametrize("text", ["cube 2 1\n", "cube 2 1\n\n  \n", "cube 2 1\n1\n2\n"])
    def test_missing_samples_name_the_count(self, text):
        with pytest.raises(ValueError, match=r"expected 3 samples, got \d$"):
            mv.parse_model(text)

    @pytest.mark.parametrize("text", ["", "\n  \n\r\n"])
    def test_empty_text(self, text):
        with pytest.raises(ValueError, match="empty model text"):
            mv.parse_model(text)


def _as_floats(lines):
    """float() of each line, as uint64 bit patterns."""
    return np.array([float(line) for line in lines]).view(np.uint64)


def _bulk(lines):
    """The bulk reader on lines, as uint64 bit patterns."""
    got = bernstein._read_plain("".join(f"{line}\n" for line in lines).encode())
    assert got is not None
    return got.view(np.uint64)


def _padded(lines, at=500):
    """A cube model text of 2,049 samples with `lines` placed at sample line
    `at` (1-based text line at + 1) and "%.17g" lines of 1/3 + j around them:
    past _BULK_BYTES, so parse_model tries the bulk reader first."""
    vals = [format(1 / 3 + j, ".17g") for j in range(2049 - len(lines))]
    body = vals[: at - 1] + list(lines) + vals[at - 1 :]
    text = "cube 2048 1\n" + "".join(f"{line}\n" for line in body)
    assert len(text) > bernstein._BULK_BYTES
    return text, body


class TestBulkReader:
    """parse_model's bulk reader gives every value bit for bit as float()
    does; every text outside dump_model's grammar goes line by line through
    np.loadtxt, with its values and errors."""

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_dumped_doubles(self, vals):
        lines = [format(v, ".17g") for v in vals]
        assert np.array_equal(_bulk(lines), _as_floats(lines))

    # sign, up to 19 significant digits with a "." after the first `point` of
    # them (none when point >= len), and an optional exponent of 1-3 digits
    DECIMALS = st.builds(
        lambda minus, digits, point, exp: "-" * minus + digits[:point] + "." * (point < len(digits))
        + digits[point:] + exp,
        st.booleans(), st.text("0123456789", min_size=1, max_size=19), st.integers(1, 19),
        st.just("") | st.builds("".join, st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
                                                   st.text("0123456789", min_size=1, max_size=3))),
    )

    @given(st.lists(DECIMALS, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_decimal_strings_of_up_to_19_digits(self, lines):
        assert np.array_equal(_bulk(lines), _as_floats(lines))

    @pytest.mark.parametrize(
        "line",
        [
            "9007199254740993", "-9007199254740995", "0", "-0", "-0.0e-7", "0e99999",
            "4.9406564584124654e-324", "1.7976931348623157e308", "2.2250738585072011e-308",
            # the integer parse saturates: more than 18 digits or a huge exponent
            "99999999999999999999999", "-9223372036854775808", "0.0000000000000000000012345",
            "1e99999999999999999999999", "-1e-99999999999999999999999", "1e-400", "123456789012345678",
        ],
    )
    def test_ties_extremes_and_long_lines(self, line):
        lines = ["0.5", line, "-1.25e-3"]
        assert np.array_equal(_bulk(lines), _as_floats(lines))

    def test_parse_model_reads_every_exponent_in_bulk(self, monkeypatch):
        rng = np.random.default_rng(92)
        vals = np.concatenate([TestSerialization.EDGE_VALUES, TestSerialization.random_values(rng, 6000)])
        vals = np.concatenate([vals, rng.standard_normal(3000) * 10.0 ** rng.integers(-30, 30, 3000)])
        model = mv.BernsteinModel(mv.CUBE, vals.size - 1, 1, vals)
        text = mv.dump_model(model)
        loadtxt = lambda *args, **kw: pytest.fail("the text left the bulk reader")
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        again = mv.parse_model(text)
        assert np.array_equal(again.samples.view(np.uint64), vals.view(np.uint64))
        assert not again.samples.flags.writeable

    @pytest.mark.parametrize(
        "odd,value",
        [(" 1.5", 1.5), ("1.5 ", 1.5), ("+1", 1.0), (".5", 0.5), ("5.", 5.0), ("1E5", 1e5), ("1e+05", 1e5),
         ("1_0", None), ("1 2", None), ("abc", None), ("1e5x", None), ("1.\u0663", None)],
    )
    def test_lines_outside_the_grammar_go_line_by_line(self, odd, value):
        text, body = _padded([odd])
        if value is None:
            with pytest.raises(ValueError, match=f"^line 501: '{odd}' is not one number$"):
                mv.parse_model(text)
        else:
            body[499] = str(value)
            assert np.array_equal(mv.parse_model(text).samples.view(np.uint64), _as_floats(body))

    def test_infinite_line_is_refused(self):
        text, _ = _padded(["inf"])
        with pytest.raises(ValueError, match=r"sample at lattice index \(499,\) is not finite: inf"):
            mv.parse_model(text)

    @pytest.mark.parametrize(
        "change",
        [lambda t: t.replace("\n", "\r\n"), lambda t: t.replace("\n", "\n\n", 3), lambda t: "\n \n" + t,
         lambda t: t.replace("\n", "\t\n", 1), lambda t: t[:-1]],
        ids=["crlf", "blank-lines", "leading-blank", "header-tab", "no-last-break"],
    )
    def test_texts_outside_the_grammar_go_line_by_line(self, change):
        text, body = _padded(["-0", "1E5"])
        again = mv.parse_model(change(text))
        assert again.kind == mv.CUBE and again.degree == 2048 and again.dim == 1
        assert np.array_equal(again.samples.view(np.uint64), _as_floats(body))

    @pytest.mark.parametrize("body", ["1.\n", ".5\n", "+1\n", "1-2\n", " 1\n", "1\n\n2\n", "1e\n",
                                      "1e+\n", "--1\n", "1.2.3\n", "1e5e5\n", "1e5.3\n", "-\n", "1\r\n",
                                      "inf\n", "1_0\n", "-e5\n", "1e+-5\n", "1+\n", "1e5-\n", "-.5\n", "\n"])
    def test_reader_declines_every_other_line(self, body):
        assert bernstein._read_plain(body.encode()) is None


class TestModelSamples:
    def test_callers_array_is_copied(self):
        vals = np.array([0.0, 0.5, 1.0])
        model = mv.BernsteinModel(mv.CUBE, 2, 1, vals)
        vals[0] = 7.0
        assert model.samples.tolist() == [0.0, 0.5, 1.0]
        assert not model.samples.flags.writeable
        assert vals.flags.writeable

    def test_build_hands_its_samples_over(self):
        # 2^20 + 1 samples (8 MiB) and their int32 lattice (4 MiB): a copy of
        # the samples after the lattice is freed peaked at 17 MiB
        f = lambda x: x[..., 0]
        n = 2**20
        peak = _peak_bytes(lambda: mv.build_model(f, mv.CUBE, n, 1))
        assert peak < 15 * 2**20
        model = mv.build_model(f, mv.CUBE, n, 1)
        assert not model.samples.flags.writeable
        assert model.samples[-1] == 1.0


class TestMemoryBudget:
    def test_cold_simplex_build_stays_under_its_estimate(self):
        # 324,632 samples on 5 axes: the estimate is 21.1 MiB; a lattice grown
        # as int64 rows by hstack, then cast to int32, peaked at 29.4 MiB
        f = mv.corpus_member("expsum", 5).value
        n, d = 30, 5
        bernstein._lattice.cache_clear()
        tracemalloc.start()
        try:
            mv.build_model(f, mv.SIMPLEX, n, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mv.model_size(mv.SIMPLEX, n, d) * (12 * d + 8)

    def test_refused_lattice_allocates_almost_nothing(self):
        tracemalloc.start()
        try:
            match = r"cube model at n = 200, d = 5 has 328,080,401,001 samples"
            with pytest.raises(mv.SizeError, match=match):
                mv.model_lattice(mv.CUBE, 200, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert mv.model_lattice(mv.CUBE, 0, 5).tolist() == [[0] * 5]

    def test_refused_build_allocates_almost_nothing(self):
        calls = []
        f = lambda x: calls.append(x) or x[..., 0]
        tracemalloc.start()
        try:
            match = r"cube model at n = 200, d = 5 has 328,080,401,001 samples"
            with pytest.raises(mv.SizeError, match=match):
                mv.build_model(f, mv.CUBE, 200, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert not calls

    @pytest.mark.parametrize(
        "kind,n,d,name", [(mv.mixed(2), 300, 4, "mixed(2)"), (mv.CUBE, 200, 5, "cube")]
    )
    def test_every_route_that_samples_f_is_refused(self, kind, n, d, name):
        f = lambda x: x[..., 0]
        x = np.full(d, 0.1)
        k = (1,) + (0,) * (d - 1)
        size = mv.model_size(kind, n, d)
        assert size * (12 * d + 8) > mv.MEMORY_BUDGET
        routes = [
            lambda: mv.build_model(f, kind, n, d),
            lambda: mv.derivative(kind, f, k, n, x),
            lambda: mv.oracle_deriv(f, kind, k, n, x),
            lambda: mv.mc_eval(kind, f, n, x, 10, 0),
            lambda: mv.mc_deriv(kind, f, k, n, x, 10, 0),
        ]
        if kind == mv.CUBE:
            routes.append(lambda: mv.deriv_cube_grid(f, k, n, [np.array([0.5])] * d))
        match = re.escape(f"{name} model at n = {n}, d = {d} has {size:,} samples")
        for call in routes:
            with pytest.raises(mv.SizeError, match=match):
                call()


    @pytest.mark.parametrize(
        "route, match",
        [
            (lambda f: mv.mc_eval(mv.CUBE, f, 4, np.array([0.3, 0.4]), 10**12, 1),
             "1,000,000,000,000 Monte Carlo samples on 2 axes"),
            (lambda f: mv.mc_deriv(mv.mixed(1), f, (1, 1), 4, np.array([0.3, 0.4]), 10**12, 1),
             "1,000,000,000,000 Monte Carlo samples on 2 axes"),
            (lambda f: mv.lln_diagnostic(mv.SIMPLEX, (4,), np.array([0.3, 0.4]), 10**12, 1),
             "1,000,000,000,000 Monte Carlo samples on 2 axes"),
            # 400 points per unit range: 800^3 nodes, 12.3 GB with their weights and values
            (lambda f: mv.difference_integral_check(f, f, np.array([0.1, 0.2, 0.3]),
                                                    mv.DiffSpec((2, 2, 2), (0.1,) * 3), 400),
             "quadrature grid of 512,000,000 nodes"),
            # a Gauss-Legendre rule of 20,000 nodes has a 3.2 GB companion matrix
            (lambda f: mv.difference_integral_check(f, f, np.array([0.1]), mv.DiffSpec((1,), (0.1,)),
                                                    20_000),
             "quadrature grid of 20,000 nodes"),
        ],
        ids=["mc_eval", "mc_deriv", "lln_diagnostic", "quadrature-grid", "quadrature-rule"],
    )
    def test_sampling_routes_refuse_before_they_allocate(self, route, match):
        calls = []
        f = lambda x: calls.append(x) or x[..., 0]
        tracemalloc.start()
        try:
            with pytest.raises(mv.SizeError, match=match):
                route(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert not calls


def _peak_bytes(call):
    """tracemalloc's peak over call(), after a first call has filled the caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkBudget:
    """Arrays that grow with points times lattice rows, or with rows times
    coordinates, are made one chunk at a time under bernstein._CHUNK_FLOATS,
    and the split leaves every output as it is, bit for bit."""

    @staticmethod
    def sampled():
        """Outputs of the routes that hand f its points in blocks; each block
        does the same elementwise arithmetic, and every sum runs once."""
        f3 = mv.corpus_member("sincos", 3)
        f2 = mv.corpus_member("expsum", 2)
        X = np.random.default_rng(64).uniform(0.0, 0.9, (1000, 2))
        x3 = np.array([0.2, 0.3, 0.1])
        report = mv.mc_deriv(mv.mixed(1), f2.value, (1, 1), 12, np.array([0.3, 0.4]), 10_000, 5)
        return [
            mv.build_model(f3.value, mv.CUBE, 20, 3).samples,
            mv.build_model(f2.value, mv.SIMPLEX, 64, 2).samples,
            mv.delta_mixed(f2.value, X, mv.DiffSpec((2, 1), (0.05, 0.1))),
            mv.delta_mixed(f2.value, X.reshape(10, 100, 2), mv.DiffSpec((1, 1), (0.05, 0.1))),
            np.array(mv.difference_integral_check(
                f3.value, f3.partial_field((2, 2, 2)), x3, mv.DiffSpec((2, 2, 2), (0.1,) * 3), 8)),
            np.array([report.estimate, report.std_error, report.reference]),
        ]

    def test_blocks_of_points_leave_every_sample_unchanged(self, monkeypatch):
        whole = self.sampled()  # one block per route
        monkeypatch.setattr(bernstein, "_CHUNK_FLOATS", 2**13)  # 5 to 80 blocks
        for a, b in zip(whole, self.sampled(), strict=True):
            assert a.tobytes() == b.tobytes()

    def test_the_n64_simplex_grid_splits_without_changing_a_bit(self, monkeypatch):
        # verify's simplex d = 3 grid, 969 points, goes in chunks of 488 at
        # n = 64. BLAS products are not bit-stable under every split of their
        # columns (OpenBLAS sizes its last blocks by the total), so this
        # checks the split the budget makes against one chunk, not tiny ones.
        spec = mv.corpus_member("sincos", 3)
        grid = mv.grid_points(mv.GridSpec(mv.SIMPLEX, 17), 3)
        orders = [(1, 0, 0), (1, 1, 1)]
        model = mv.build_model(spec.value, mv.SIMPLEX, 64, 3)

        def outputs():
            derivs = [mv.derivative(mv.SIMPLEX, spec.value, k, 64, grid) for k in orders]
            return [mv.evaluate(model, grid)] + derivs

        chunked = outputs()
        monkeypatch.setattr(bernstein, "_CHUNK_FLOATS", 2**22)
        for a, b in zip(chunked, outputs(), strict=True):
            assert a.tobytes() == b.tobytes()

    def test_every_chunk_of_a_call_takes_one_rule(self, monkeypatch):
        # simplex d = 3, n = 64 takes 1,000 points in chunks of 488, 488 and
        # 24; 24 points alone are within the middle axis's gather rule
        model = mv.build_model(mv.corpus_member("sincos", 3).value, mv.SIMPLEX, 64, 3)
        X = np.random.default_rng(7).dirichlet(np.ones(4), 1000)[:, :3]
        rule, seen = bernstein._gathers, []

        def spy(axis, m):
            seen.append((axis.col, rule(axis, m)))
            return seen[-1][1]

        monkeypatch.setattr(bernstein, "_gathers", spy)
        mv.evaluate(model, X)
        assert seen == [(2, False)] + [(1, False)] * 3

    def test_build_holds_one_block_of_points(self):
        # cube d = 3, n = 64: L = 274,625 rows; whole, the float points would
        # be 6.6 MB beside the 3.3 MB int32 lattice and the 2.2 MB of samples
        f = lambda x: np.sin(x.sum(-1))
        assert _peak_bytes(lambda: mv.build_model(f, mv.CUBE, 64, 3)) < 9 * 2**20

    def test_stencils_go_in_blocks(self):
        # 300,000 base points and a 4-point stencil on 2 axes: whole, the
        # stencil points would be 19.2 MB beside the 9.6 MB of values
        f = lambda x: np.sin(x.sum(-1))
        X = np.random.default_rng(65).uniform(0.0, 0.9, (300_000, 2))
        spec = mv.DiffSpec((1, 1), (0.01, 0.01))
        assert _peak_bytes(lambda: mv.delta_mixed(f, X, spec)) < 14 * 2**20

    def test_quadrature_nodes_go_in_blocks(self):
        # (2, 2, 2) at 32 points per unit range: 262,144 nodes; their weights,
        # values and products are 2.1 MB each, the nodes whole 6.3 MB
        spec = mv.corpus_member("sincos", 3)
        x = np.array([0.2, 0.3, 0.1])
        diff = mv.DiffSpec((2, 2, 2), (0.1,) * 3)
        df = spec.partial_field((2, 2, 2))
        assert _peak_bytes(lambda: mv.difference_integral_check(spec.value, df, x, diff, 32)) < 8 * 2**20


class TestLargeDegree:
    def test_a_degree_scan_keeps_its_log_binomial_rows(self):
        # an in-order scan longer than the row cache evicts every row before
        # its next use, so each rebuild of the weight rows misses them all
        degrees = tuple(range(301))
        _weight_rows(degrees)
        _weight_rows.cache_clear()
        misses = _log_binomial_row.cache_info().misses
        _weight_rows(degrees)
        assert _log_binomial_row.cache_info().misses == misses

    def test_no_overflow_at_degree_256(self):
        model = mv.build_model(x0sq, mv.CUBE, 256, 1)
        x = np.array([0.37])
        got = mv.evaluate(model, x)
        assert got == pytest.approx(0.37**2 + 0.37 * 0.63 / 256, abs=1e-12)
        deriv = mv.derivative(mv.CUBE, x0sq, (2,), 256, x)
        assert deriv == pytest.approx(2 * 255 / 256, abs=1e-10)

    def test_simplex_degree_256(self):
        f = lambda x: x[..., 0] - 0.5 * x[..., 1] + 0.25
        model = mv.build_model(f, mv.SIMPLEX, 256, 2)
        x = np.array([0.3, 0.45])
        assert mv.evaluate(model, x) == pytest.approx(float(f(x)), abs=1e-11)

    # interior, face, vertex and near-vertex points (coordinates ~1e-300) per case
    HIGH_DEGREE = [
        (mv.SIMPLEX, 2, 300, [[0.3, 0.45], [0.0, 0.6], [0.4, 0.6], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                              [1e-300, 3e-300], [1.0 - 2**-52, 1e-300], [2e-300, 1.0 - 2**-52]]),
        (mv.SIMPLEX, 3, 120, [[0.2, 0.3, 0.1], [0.5, 0.0, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                              [1e-300, 1e-300, 1e-300], [1.0 - 2**-52, 1e-300, 1e-300], [0.5, 0.5, 1e-300]]),
        (mv.mixed(2), 3, 100, [[0.2, 0.3, 0.6], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.3, 0.7, 1e-300],
                               [1e-300, 1e-300, 1.0 - 2**-53], [1e-300, 1.0, 0.5]]),
        (mv.CUBE, 1, 2000, [[0.37], [0.0], [1.0], [1e-300], [1.0 - 2**-53], [0.5]]),
    ]

    @pytest.mark.parametrize("kind, d, n, points", HIGH_DEGREE)
    def test_affine_reproduction_and_unity_at_high_degree(self, kind, d, n, points):
        # log-space weight rows neither overflow nor underflow at these degrees
        coef = np.array([0.7, -1.3, 0.4])[:d]
        affine = lambda x: 0.25 + x @ coef
        one = lambda x: np.ones(x.shape[:-1])
        X = np.array(points)
        for f in (affine, one):
            got = mv.evaluate(mv.build_model(f, kind, n, d), X)
            assert np.all(np.abs(got - f(X)) <= 1e-12), got - f(X)

    # (d, n, m): a few points, fewer than n / 2, send the last axis past the
    # gather rule, so it is elevated to degree n for them
    @pytest.mark.parametrize("d, n, m", [(5, 16, 6), (3, 29, 14), (2, 300, 40)])
    def test_small_batches_match_single_points(self, d, n, m):
        f = lambda x: np.sin(np.pi * x[..., 0]) * np.exp(x[..., -1]) + x.sum(-1) ** 2
        model = mv.build_model(f, mv.SIMPLEX, n, d)
        X = np.random.default_rng(63).dirichlet(np.ones(d + 1), m)[:, :d]
        X[0, 0] = 0.0
        X[1] = np.eye(d)[-1]
        single = np.array([mv.evaluate(model, x) for x in X])
        assert np.all(np.abs(mv.evaluate(model, X) - single) <= 1e-13 * np.maximum(1.0, np.abs(single)))

    @pytest.mark.parametrize("kind, d, n, points", HIGH_DEGREE[:3])
    def test_affine_reproduction_and_unity_in_batches(self, kind, d, n, points):
        # 3,000 points send every varying-degree axis past the gather rule:
        # the last axis is elevated to degree n, the others weighed degree by degree
        rng = np.random.default_rng(61)
        widths = [kind.d1, 1] if kind.name == "mixed" else [d]
        interior = np.hstack([rng.dirichlet(np.ones(w + 1), 1500)[:, :w] for w in widths])
        faces = np.hstack([rng.dirichlet(np.ones(w + 1), 1500)[:, :w] for w in widths])
        faces[np.arange(750), rng.integers(0, d, 750)] = 0.0  # a zero coordinate
        faces[750:, : widths[0]] /= faces[750:, : widths[0]].sum(axis=1, keepdims=True)  # block sum 1
        X = np.vstack([points, interior, faces])[:3000]
        coef = np.array([0.7, -1.3, 0.4])[:d]
        affine = lambda x: 0.25 + x @ coef
        one = lambda x: np.ones(x.shape[:-1])
        for f in (affine, one):
            got = mv.evaluate(mv.build_model(f, kind, n, d), X)
            assert np.all(np.abs(got - f(X)) <= 1e-12), np.abs(got - f(X)).max()


class TestPowerTables:
    """Varying-degree axes other than the last, summed past the gather rule:
    folded binomials in the rows, t^j and (1 - t)^i from power tables."""

    @staticmethod
    def points(widths, m, seed):
        rng = np.random.default_rng(seed)
        X = np.hstack([rng.dirichlet(np.ones(w + 1), m)[:, :w] for w in widths])
        X[: m // 4, rng.integers(0, sum(widths), m // 4)] = 0.0  # a zero coordinate
        X[m // 4 : m // 2, : widths[0]] /= X[m // 4 : m // 2, : widths[0]].sum(axis=1, keepdims=True)
        corners = [np.vstack([np.zeros(w), np.eye(w)]) for w in widths]
        vertices = [np.concatenate(c) for c in itertools.product(*corners)]
        near = np.full(sum(widths), 1e-300)
        return np.vstack([X, vertices, near])

    @pytest.mark.parametrize("kind, widths, n", [(mv.SIMPLEX, (3,), 64), (mv.mixed(2), (2, 1), 40)])
    @pytest.mark.parametrize("scale", [1e300, 1e-250])
    def test_scaled_samples_stay_finite_and_match_single_points(self, kind, widths, n, scale, monkeypatch):
        f = lambda x: np.sin(np.pi * x[..., 0]) * np.exp(0.5 * x[..., -1]) + x.sum(-1) ** 2 - 1.0
        base = mv.build_model(f, kind, n, 3)
        model = mv.BernsteinModel(kind, n, 3, base.samples * scale)
        X = self.points(widths, 600, n)
        powers, rule = [], bernstein._sum_axis
        monkeypatch.setattr(bernstein, "_sum_axis", lambda V, axis, t, power: powers.append(power) or rule(V, axis, t, power))
        for k in [(0, 0, 0), (1, 1, 0)]:
            powers.clear()
            batch = bernstein._partial(model, k, X) / scale
            assert True in powers  # the middle axis went past the gather rule
            single = np.array([bernstein._partial(model, k, x) for x in X]) / scale
            assert np.all(np.isfinite(batch))
            assert np.all(np.abs(batch - single) <= 1e-13 * np.maximum(1.0, np.abs(single)))

    @pytest.mark.parametrize("kind, n", [(mv.SIMPLEX, 29), (mv.mixed(2), 20)])
    def test_benchmark_kinds_read_their_rows_as_slices(self, kind, n):
        axes = bernstein._plan(bernstein._widths(kind, 3), (n,) * len(bernstein._widths(kind, 3)))[0]
        steps = [step for axis in axes for step in axis.steps]
        assert len(steps) == n + 1
        assert all(isinstance(kids, slice) and isinstance(parents, slice) for _, kids, parents, _ in steps)

    def test_folded_binomials_are_exact_quotients(self):
        folds, scales = bernstein._folded_binomials(60)
        at = 0
        for q, scale in enumerate(scales):
            row = [math.comb(q, j) for j in range(q + 1)]
            assert scale == 2.0 ** (max(row) - 1).bit_length() >= max(row) > scale / 2
            assert folds[at : at + q + 1].tolist() == [c / int(scale) for c in row]
            at += q + 1

    @pytest.mark.parametrize("kind", [mv.SIMPLEX, mv.mixed(2)])
    def test_degree_past_the_bound_is_refused_before_the_plan(self, kind):
        # a model of this degree holds over 10^8 samples, so a stand-in
        # without samples asks for it; the refusal comes before they are read
        model = object.__new__(mv.BernsteinModel)
        for name, value in dict(kind=kind, degree=901, dim=3, samples=None).items():
            object.__setattr__(model, name, value)
        plans = bernstein._plan.cache_info()
        for x in (np.full(3, 0.2), np.full((50, 3), 0.2)):
            with pytest.raises(ValueError, match="degree 901 .* past the degree bound 900"):
                mv.evaluate(model, x)
        assert bernstein._plan.cache_info() == plans


class TestLatticeDifferences:
    def test_rank_numbers_the_lattice_rows(self):
        wide = [(2, 60), (3, 40)]  # (n, w): blocks far wider than their degree
        for n, w in [(n, w) for w in range(1, 6) for n in range(9)] + wide:
            J = mv.model_lattice(mv.SIMPLEX, n, w)
            assert np.array_equal(_rank(J, n), np.arange(J.shape[0]))

    def test_rank_table_follows_the_lattice(self):
        # the int64 table and the rank arithmetic are a few arrays of the lattice length
        n = 10**5
        _lattice(n, 1)  # the lattice itself is cached
        tracemalloc.start()
        try:
            _diff_rows.__wrapped__(n, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 8 * (n + 1)

    def test_single_point_memory_follows_the_lattice(self):
        # L = 20,349 samples; a dense (n+1)^5 box of the block would be 1.4M floats
        f = lambda x: np.sin(x.sum(-1))
        x = np.full(5, 0.1)
        mv.derivative(mv.SIMPLEX, f, (1, 1, 0, 0, 0), 16, x)  # fills the caches
        tracemalloc.start()
        try:
            mv.derivative(mv.SIMPLEX, f, (1, 1, 0, 0, 0), 16, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_simplex_batch_memory_has_no_all_degree_table(self):
        # a table of every degree's weight rows would be 465 x 2,000 floats (7.4 MB)
        f = lambda x: np.sin(x.sum(-1))
        model = mv.build_model(f, mv.SIMPLEX, 29, 3)
        X = np.random.default_rng(62).dirichlet(np.ones(4), 2000)[:, :3]
        mv.evaluate(model, X)  # fills the caches
        tracemalloc.start()
        try:
            mv.evaluate(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11 * 10**6

    def test_lattices_are_int32(self):
        assert _lattice(16, 5).dtype == np.int32
        assert mv.model_lattice(mv.mixed(2), 4, 3).dtype == np.int32

    def test_warm_build_holds_half_width_indices(self):
        # L = 20,349 rows of 5 indices: 0.41 MB as int32, 0.81 MB as int64,
        # beside the 0.81 MB of sample points
        f = lambda x: np.sin(x.sum(-1))
        mv.build_model(f, mv.SIMPLEX, 16, 5)  # fills the caches
        tracemalloc.start()
        try:
            mv.build_model(f, mv.SIMPLEX, 16, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.7 * 2**20


class TestHelpers:
    def test_product_lattice_is_lexicographic(self):
        # the degree-1 and degree-2 lattices of two 1-wide blocks
        got = [tuple(r) for r in _product_lattice((1, 1), (1, 2))]
        assert got == sorted(got) and len(got) == 6

    def test_falling_factorial(self):
        assert _falling(10, 3) == 720.0
        assert _falling(5, 0) == 1.0

    def test_prepare_points_shapes(self):
        P, single = _prepare_points(np.array([0.1, 0.2]), mv.CUBE, 2)
        assert single and P.shape == (1, 2)
        with pytest.raises(ValueError):
            _prepare_points(np.zeros((2, 3)), mv.CUBE, 2)

    def test_simplex_weights_boundary(self):
        J = [tuple(int(v) for v in row) for row in mv.model_lattice(mv.SIMPLEX, 2, 2)]
        # the model with samples e_i evaluates to basis function i
        w = {}
        for i, j in enumerate(J):
            e = np.zeros(len(J))
            e[i] = 1.0
            w[j] = mv.evaluate(mv.BernsteinModel(mv.SIMPLEX, 2, 2, e), np.array([1.0, 0.0]))
        # only the (2, 0) lattice point survives at the corner
        order = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
        assert [w[j] for j in order] == [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
