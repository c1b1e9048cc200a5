import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvbernstein as mv
from mvbernstein.bernstein import _exact_multinomial_simplex, _model_size
from mvbernstein.multiindex import _degree, _log_binomial_row, _simplex_rows, as_index


def exact_multinomial(n, j):
    # arbitrary-width integer oracle
    out = math.factorial(n)
    for e in j:
        out //= math.factorial(e)
    return out // math.factorial(n - sum(j))


class TestModulus:
    """The modulus |k| of an order is sum(as_index(k)); as_index refuses the
    indices that have none."""

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="multi-index entry -1 is negative"):
            as_index((1, -1))

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
    """The log-binomial rows the weights read, and the oracle's exact
    multinomial coefficients C(n; j), one per row of a simplex block."""

    def test_multinomial_example(self):
        # 4! / (1! 2! 1!) = 12, at row (1, 2) of the degree-4 block
        rows = [tuple(r) for r in mv.model_lattice(mv.SIMPLEX, 4, 2).tolist()]
        assert _exact_multinomial_simplex(4, 2)[rows.index((1, 2))] == 12.0

    def test_multinomial_trivial(self):
        assert _exact_multinomial_simplex(7, 3)[0] == 1.0
        assert _exact_multinomial_simplex(5, 1)[-1] == 1.0

    def test_binomial_examples(self):
        assert _log_binomial_row(10)[3] == pytest.approx(math.log(120), rel=1e-14)
        assert _log_binomial_row(6)[0] == 0.0
        assert _log_binomial_row(6)[6] == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_multinomial_matches_exact_integers(self, d):
        degrees = range(31) if d == 2 else range(0, 31, 5)
        for n in degrees:
            lattice = mv.model_lattice(mv.SIMPLEX, n, d)
            got = _exact_multinomial_simplex(n, d)
            assert got.shape == (lattice.shape[0],)
            for row, g in zip(lattice.tolist(), got):
                exact = exact_multinomial(n, tuple(row))
                assert g == pytest.approx(exact, rel=1e-12)

    def test_binomial_matches_math_comb(self):
        for n in (0, 1, 7, 33, 60):
            got = np.exp(_log_binomial_row(n))
            want = np.array([math.comb(n, v) for v in range(n + 1)], dtype=float)
            assert np.allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("n", [300, 2_000, 10_000])
    def test_binomial_is_the_log_of_the_exact_integer(self, n):
        # the exact integers C(n, j), by C(n, j + 1) = C(n, j) (n - j) / (j + 1)
        exact = [1]
        for v in range(n):
            exact.append(exact[-1] * (n - v) // (v + 1))
        for v in (0, 1, n // 3, n // 2, n):
            assert exact[v] == math.comb(n, v)
        # bit for bit math.log of each exact integer
        want = np.array([math.log(c) for c in exact])
        assert np.array_equal(_log_binomial_row(n).view(np.uint64), want.view(np.uint64))

    def test_binomial_row_takes_linear_memory(self):
        # keeping every integer C(n, j) peaked at 38 MiB at n = 2 * 10^4;
        # the row itself is 156 KiB
        n = 20_000
        tracemalloc.start()
        try:
            _log_binomial_row.__wrapped__(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestLattices:
    """The model lattices, whose simplex blocks _simplex_rows builds."""

    def test_cube_example(self):
        got = mv.model_lattice(mv.CUBE, 1, 2)
        assert [tuple(r) for r in got.tolist()] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_simplex_counts(self):
        got = mv.model_lattice(mv.SIMPLEX, 2, 2)
        assert got.shape[0] == math.comb(4, 2) == 6

    def test_simplex_degree_zero(self):
        got = mv.model_lattice(mv.SIMPLEX, 0, 3)
        assert [tuple(r) for r in got.tolist()] == [(0, 0, 0)]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", list(range(13)))
    def test_cardinalities_match_closed_forms(self, n, d):
        cube = mv.model_lattice(mv.CUBE, n, d)
        simplex = mv.model_lattice(mv.SIMPLEX, n, d)
        assert cube.shape[0] == (n + 1) ** d == mv.model_size(mv.CUBE, n, d)
        assert simplex.shape[0] == math.comb(n + d, d) == mv.model_size(mv.SIMPLEX, n, d)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", list(range(7)))
    def test_simplex_equals_filtered_cube_in_order(self, n, d):
        brute = [
            j
            for j in itertools.product(range(n + 1), repeat=d)
            if sum(j) <= n
        ]
        got = [tuple(r) for r in mv.model_lattice(mv.SIMPLEX, n, d).tolist()]
        assert got == brute  # itertools.product is lexicographic

    @pytest.mark.parametrize("n, d", [(0, 5), (1, 6), (7, 5), (3, 7)])
    def test_simplex_rows_are_int32_and_lexicographic(self, n, d):
        brute = [j for j in itertools.product(range(n + 1), repeat=d) if sum(j) <= n]
        got = _simplex_rows(n, d)
        assert got.dtype == np.int32 and got.shape == (math.comb(n + d, d), d)
        assert [tuple(r) for r in got.tolist()] == brute

    def test_lexicographic_order_and_uniqueness(self):
        for kind in (mv.CUBE, mv.SIMPLEX, mv.mixed(2)):
            rows = [tuple(r) for r in mv.model_lattice(kind, 4, 3).tolist()]
            assert rows == sorted(set(rows))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            mv.model_lattice(mv.CUBE, 3, 0)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError, match="non-negative"):
            mv.model_lattice(mv.SIMPLEX, -1, 2)

    def test_integral_float_degrees_share_one_count(self):
        # build_model takes 2.0; the enumerator and the counter take it too,
        # and the counter's cache keeps one entry for 2 and 2.0
        assert np.array_equal(mv.model_lattice(mv.CUBE, 2.0, 2), mv.model_lattice(mv.CUBE, 2, 2))
        assert mv.model_lattice(mv.CUBE, 0, 2).tolist() == [[0, 0]]
        _model_size.cache_clear()
        sizes = [mv.model_size(mv.CUBE, n, 2) for n in (2, 2.0, np.float64(2.0), np.int64(2))]
        assert sizes == [9] * 4 and all(type(v) is int for v in sizes)
        assert _model_size.cache_info().currsize == 1
        assert mv.model_size(mv.SIMPLEX, 0.0, 3) == 1

    @pytest.mark.parametrize(
        "n, match", [(2.5, r"degree 2\.5 is not an integer"), (-1, "degree -1 must be non-negative")]
    )
    def test_bad_degrees_are_named(self, n, match):
        for call in (mv.model_lattice, mv.model_size):
            with pytest.raises(ValueError, match=match):
                call(mv.CUBE, n, 2)



class TestBools:
    """A bool is refused where an integer is asked for, not taken for 0 or 1."""

    def test_degrees_orders_and_widths(self):
        f = mv.corpus_member("sincos", 2).value
        x = np.array([0.3, 0.4])
        with pytest.raises(ValueError, match="degree True is not an integer"):
            mv.derivative(mv.CUBE, f, (1, 0), True, x)
        with pytest.raises(ValueError, match=r"degree (np\.)?False_? is not an integer"):
            mv.model_size(mv.CUBE, np.False_, 2)
        with pytest.raises(ValueError, match="multi-index entry True is not an integer"):
            as_index((True, 0))
        with pytest.raises(ValueError, match="block width True is not an integer"):
            mv.mixed(True)
        assert _degree(np.int64(3)) == 3 and mv.mixed(2.0) == mv.mixed(2)


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
            lattice = mv.model_lattice(mv.SIMPLEX, n, d)
            x = rng.random(d)
            x = 0.9 * x / x.sum()  # interior point
            coef = _exact_multinomial_simplex(n, d)
            powers = np.prod(x ** lattice, axis=1)
            tail = (1 - x.sum()) ** (n - lattice.sum(axis=1))
            assert float(np.sum(coef * powers * tail)) == pytest.approx(1.0, abs=1e-12)
