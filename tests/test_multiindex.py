import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvbernstein.multiindex import (
    LatticeKind,
    _degree,
    as_index,
    enumerate_lattice,
    lattice_size,
    log_binomial,
    log_factorial,
    log_multinomial,
    modulus,
)


def exact_multinomial(n, j):
    # arbitrary-width integer oracle
    out = math.factorial(n)
    for e in j:
        out //= math.factorial(e)
    return out // math.factorial(n - sum(j))


class TestModulus:
    def test_examples(self):
        assert modulus((0, 0, 0)) == 0
        assert modulus((1, 2, 3)) == 6
        assert modulus((5, 0)) == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            modulus((1, -1))

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            as_index((1.5,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_index(())


class TestDegree:
    @pytest.mark.parametrize("n", [2.7, 4.5, 1.5, 0.5])
    def test_rejects_fractional(self, n):
        with pytest.raises(ValueError, match="not an integer"):
            _degree(n)

    @pytest.mark.parametrize("n", [0, -3, 0.0])
    def test_rejects_non_positive(self, n):
        with pytest.raises(ValueError, match="positive"):
            _degree(n)

    def test_integral_values_become_ints(self):
        for n in (3, 3.0, np.int64(3), np.float64(3.0)):
            assert _degree(n) == 3 and type(_degree(n)) is int


class TestLogCoefficients:
    def test_multinomial_example(self):
        # 4! / (1! 2! 1!) = 12
        assert log_multinomial(4, (1, 2)) == pytest.approx(math.log(12), rel=1e-14)

    def test_multinomial_trivial(self):
        assert log_multinomial(7, (0, 0, 0)) == 0.0
        assert log_multinomial(5, (5,)) == 0.0

    def test_multinomial_precondition(self):
        with pytest.raises(ValueError):
            log_multinomial(3, (2, 2))

    def test_binomial_examples(self):
        assert log_binomial(10, 3) == pytest.approx(math.log(120), rel=1e-14)
        assert log_binomial(6, 0) == 0.0
        assert log_binomial(6, 6) == 0.0

    def test_binomial_precondition(self):
        with pytest.raises(ValueError):
            log_binomial(4, 5)

    @pytest.mark.parametrize("d", [2, 3])
    def test_multinomial_matches_exact_integers(self, d):
        degrees = range(31) if d == 2 else range(0, 31, 5)
        for n in degrees:
            lattice = enumerate_lattice(LatticeKind.SIMPLEX, n, d)
            got = np.exp(log_multinomial(n, lattice)) if n else np.ones(1)
            for row, g in zip(lattice, np.atleast_1d(got)):
                exact = exact_multinomial(n, tuple(row))
                assert g == pytest.approx(exact, rel=1e-12)

    def test_binomial_matches_math_comb(self):
        for n in (0, 1, 7, 33, 60):
            j = np.arange(n + 1)
            got = np.exp(np.atleast_1d(log_binomial(n, j)))
            want = np.array([math.comb(n, v) for v in j], dtype=float)
            assert np.allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("n", [300, 2_000, 10_000])
    def test_binomial_is_the_log_of_the_exact_integer(self, n):
        j = np.arange(n + 1)
        # the exact integers C(n, j), by C(n, j + 1) = C(n, j) (n - j) / (j + 1)
        exact = [1]
        for v in range(n):
            exact.append(exact[-1] * (n - v) // (v + 1))
        for v in (0, 1, n // 3, n // 2, n):
            assert exact[v] == math.comb(n, v)
        want = np.array([math.log(c) for c in exact])
        assert np.all(np.abs(log_binomial(n, j) - want) <= 4 * np.spacing(want))
        # sums of logs of exact sequential binomial factors
        for row in [(n // 3, n // 2), (1, n - 1, 0), (n // 7, n // 5, n // 3)]:
            want = math.log(exact_multinomial(n, row))
            assert abs(log_multinomial(n, row) - want) <= 8 * np.spacing(want)

    def test_multinomial_no_overflow_at_large_degree(self):
        val = log_multinomial(10_000, (3000, 4000))
        assert np.isfinite(val) and val > 0

    def test_log_factorial_large_degree(self):
        # must stay finite and accurate far past the float factorial overflow
        val = log_factorial(10_000)
        assert np.isfinite(val)
        # Stirling with correction terms as an independent reference
        n = 10_000.0
        stirling = n * math.log(n) - n + 0.5 * math.log(2 * math.pi * n) + 1 / (12 * n)
        assert val == pytest.approx(stirling, rel=1e-12)


class TestLattices:
    def test_cube_example(self):
        got = enumerate_lattice(LatticeKind.CUBE, 1, 2)
        assert [tuple(r) for r in got] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_simplex_counts(self):
        got = enumerate_lattice(LatticeKind.SIMPLEX, 2, 2)
        assert got.shape[0] == math.comb(4, 2) == 6

    def test_simplex_degree_zero(self):
        got = enumerate_lattice(LatticeKind.SIMPLEX, 0, 3)
        assert [tuple(r) for r in got] == [(0, 0, 0)]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", list(range(13)))
    def test_cardinalities_match_closed_forms(self, n, d):
        cube = enumerate_lattice(LatticeKind.CUBE, n, d)
        simplex = enumerate_lattice(LatticeKind.SIMPLEX, n, d)
        assert cube.shape[0] == (n + 1) ** d == lattice_size(LatticeKind.CUBE, n, d)
        assert simplex.shape[0] == math.comb(n + d, d) == lattice_size(LatticeKind.SIMPLEX, n, d)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", list(range(7)))
    def test_simplex_equals_filtered_cube_in_order(self, n, d):
        brute = [
            j
            for j in itertools.product(range(n + 1), repeat=d)
            if sum(j) <= n
        ]
        got = [tuple(r) for r in enumerate_lattice(LatticeKind.SIMPLEX, n, d)]
        assert got == brute  # itertools.product is lexicographic

    def test_lexicographic_order_and_uniqueness(self):
        for kind in LatticeKind:
            rows = [tuple(r) for r in enumerate_lattice(kind, 4, 3)]
            assert rows == sorted(set(rows))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            enumerate_lattice(LatticeKind.CUBE, 3, 0)


class TestTotalProbability:
    @given(st.floats(0.0, 1.0), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_binomial_weights_sum_to_one(self, x, n):
        j = np.arange(n + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.array(
                [math.comb(n, v) * x**v * (1 - x) ** (n - v) for v in j]
            )
        assert np.nansum(w) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_multinomial_weights_sum_to_one(self, d):
        rng = np.random.default_rng(0)
        for n in (1, 5, 12, 25):
            lattice = enumerate_lattice(LatticeKind.SIMPLEX, n, d)
            x = rng.random(d)
            x = 0.9 * x / x.sum()  # interior point
            coef = np.exp(log_multinomial(n, lattice))
            powers = np.prod(x ** lattice, axis=1)
            tail = (1 - x.sum()) ** (n - lattice.sum(axis=1))
            assert float(np.sum(coef * powers * tail)) == pytest.approx(1.0, abs=1e-12)
