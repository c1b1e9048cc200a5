import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mvbernstein as mv
from mvbernstein import bernstein, stochastic
from mvbernstein.stochastic import _summarize, make_stream


def wilson_hilferty_chi2_quantile(df, z):
    # chi-square quantile approximation, adequate for a coarse gate
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


Z_1E6 = 4.7534243088229  # standard normal quantile at 1 - 1e-6


def x0sq(x):
    return x[..., 0] ** 2


class TestStreams:
    def test_reproducible(self):
        a = make_stream(42, "mc_eval").integers(0, 1 << 30, 5)
        b = make_stream(42, "mc_eval").integers(0, 1 << 30, 5)
        assert np.array_equal(a, b)

    def test_tags_give_distinct_streams(self):
        a = make_stream(42, "mc_eval").integers(0, 1 << 30, 5)
        b = make_stream(42, "mc_deriv").integers(0, 1 << 30, 5)
        assert not np.array_equal(a, b)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            make_stream(-1, "mc_eval")


class TestBinomialVector:
    def test_degenerate_probabilities(self):
        rng = make_stream(0, "test")
        draws = mv.sample_binomial_vector(9, np.array([0.0, 1.0]), rng, size=50)
        assert np.all(draws[:, 0] == 0)
        assert np.all(draws[:, 1] == 9)

    def test_mean_within_four_sigma(self):
        rng = make_stream(1, "test")
        n, p, m = 100, 0.3, 10_000
        draws = mv.sample_binomial_vector(n, np.array([p]), rng, size=m)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(draws.mean() - n * p) <= 4 * sigma / math.sqrt(m)

    def test_single_draw_shape(self):
        rng = make_stream(2, "test")
        draw = mv.sample_binomial_vector(5, np.array([0.5, 0.5]), rng)
        assert draw.shape == (2,)


class TestMultinomialProjection:
    def test_zero_vector_at_origin(self):
        rng = make_stream(3, "test")
        draws = mv.sample_multinomial_projection(7, np.array([0.0, 0.0]), rng, size=20)
        assert np.all(draws == 0)

    def test_corner_concentrates(self):
        rng = make_stream(4, "test")
        draws = mv.sample_multinomial_projection(7, np.array([0.0, 1.0]), rng, size=20)
        assert np.all(draws[:, 0] == 0)
        assert np.all(draws[:, 1] == 7)

    def test_modulus_bounded_by_trials(self):
        rng = make_stream(5, "test")
        draws = mv.sample_multinomial_projection(12, np.array([0.5, 0.4]), rng, size=200)
        assert draws.sum(axis=1).max() <= 12

    def test_marginal_means_within_four_sigma(self):
        rng = make_stream(6, "test")
        n, m = 50, 10_000
        x = np.array([0.2, 0.5])
        draws = mv.sample_multinomial_projection(n, x, rng, size=m)
        for i in range(2):
            sigma = math.sqrt(n * x[i] * (1 - x[i]))
            assert abs(draws[:, i].mean() - n * x[i]) <= 4 * sigma / math.sqrt(m)

    def test_marginals_are_binomial_chi_square(self):
        # goodness of fit of each component against its binomial law
        rng = make_stream(7, "test")
        n, m = 12, 100_000
        x = np.array([0.3, 0.45])
        draws = mv.sample_multinomial_projection(n, x, rng, size=m)
        for i in range(2):
            pmf = np.array(
                [math.comb(n, v) * x[i] ** v * (1 - x[i]) ** (n - v) for v in range(n + 1)]
            )
            expected = m * pmf
            observed = np.bincount(draws[:, i], minlength=n + 1).astype(float)
            # merge sparse tail bins so the chi-square approximation holds
            keep = expected >= 5.0
            obs, exp = observed[keep], expected[keep]
            if not np.all(keep):
                obs = np.append(obs, observed[~keep].sum())
                exp = np.append(exp, expected[~keep].sum())
            stat = float(((obs - exp) ** 2 / exp).sum())
            assert stat <= wilson_hilferty_chi2_quantile(len(exp) - 1, Z_1E6)


class TestMcEval:
    def test_constant_exact(self):
        f = lambda x: np.full(x.shape[:-1], 2.5)
        r = mv.mc_eval(mv.CUBE, f, 10, np.array([0.4]), 1000, 0)
        assert r.estimate == 2.5 and r.std_error == 0.0
        assert mv.z_score(r) == 0.0

    def test_corner_exact_zero_variance(self):
        f = lambda x: np.exp(x[..., 0] - x[..., 1])
        for kind in (mv.CUBE, mv.SIMPLEX):
            r = mv.mc_eval(kind, f, 8, np.array([1.0, 0.0]), 500, 3)
            assert r.std_error == 0.0
            assert r.estimate == r.reference
            assert mv.z_score(r) == 0.0

    def test_square_agrees_with_deterministic(self):
        r = mv.mc_eval(mv.CUBE, x0sq, 20, np.array([0.4]), 100_000, 11)
        assert r.reference == pytest.approx(0.4**2 + 0.4 * 0.6 / 20, abs=1e-12)
        assert abs(mv.z_score(r)) <= 5.0

    def test_mixed_kind(self):
        f = lambda x: x[..., 0] * x[..., 1] + x[..., 2]
        r = mv.mc_eval(mv.mixed(2), f, 15, np.array([0.2, 0.3, 0.6]), 50_000, 5)
        assert abs(mv.z_score(r)) <= 5.0

    def test_reproducible_reports(self):
        a = mv.mc_eval(mv.SIMPLEX, x0sq, 12, np.array([0.3]), 5000, 9)
        b = mv.mc_eval(mv.SIMPLEX, x0sq, 12, np.array([0.3]), 5000, 9)
        assert a == b

    def test_different_seeds_differ(self):
        a = mv.mc_eval(mv.CUBE, x0sq, 12, np.array([0.3]), 5000, 9)
        b = mv.mc_eval(mv.CUBE, x0sq, 12, np.array([0.3]), 5000, 10)
        assert a.estimate != b.estimate

    @pytest.mark.parametrize(
        "f, shape",
        [(lambda x: float(np.sum(x)), "()"), (lambda x: np.sum(x, axis=0), "(2,)")],
        ids=["scalar", "sum-over-draws"],
    )
    def test_wrong_shape_of_f_is_an_error(self, f, shape):
        # unchecked, these gave 697.5 with std_error 0.0 and 348.75 +- 2.3,
        # against a reference of 0.70
        with pytest.raises(ValueError, match=re.escape(f"f returned shape {shape} for sample values of (1000,)")):
            mv.mc_eval(mv.CUBE, f, 8, [0.3, 0.4], 1000, 1)

    def test_blocks_of_draws_leave_the_report_unchanged(self, monkeypatch):
        f = mv.corpus_member("sincos", 2).value
        call = lambda: mv.mc_eval(mv.SIMPLEX, f, 8, np.array([0.3, 0.4]), 20_000, 4)
        whole = call()  # one block
        monkeypatch.setattr(bernstein, "_CHUNK_FLOATS", 2**13)  # 40 blocks
        assert call() == whole


class TestMcDeriv:
    def test_affine_zero_variance(self):
        f = lambda x: 0.7 * x[..., 0] - 0.2 * x[..., 1] + 0.1
        r = mv.mc_deriv(mv.CUBE, f, (1, 0), 20, np.array([0.4, 0.6]), 2000, 1)
        assert r.std_error == 0.0
        assert r.estimate == pytest.approx(0.7, abs=1e-12)
        assert mv.z_score(r) == 0.0

    def test_square_second_order_zero_variance(self):
        r = mv.mc_deriv(mv.CUBE, x0sq, (2,), 20, np.array([0.4]), 2000, 2)
        assert r.std_error == 0.0
        assert r.estimate == pytest.approx(2 * 19 / 20, abs=1e-10)
        assert mv.z_score(r) == 0.0

    def test_sin_agrees_with_deterministic(self):
        f = lambda x: np.sin(np.pi * x[..., 0])
        r = mv.mc_deriv(mv.CUBE, f, (1,), 40, np.array([0.25]), 100_000, 3)
        want = mv.derivative(mv.CUBE, f, (1,), 40, np.array([0.25]))
        assert r.reference == pytest.approx(want, rel=1e-13)
        assert abs(mv.z_score(r)) <= 5.0

    def test_simplex_route(self):
        f = lambda x: np.exp(x[..., 0]) * (1 + x[..., 1])
        r = mv.mc_deriv(mv.SIMPLEX, f, (1, 1), 30, np.array([0.2, 0.3]), 100_000, 4)
        assert abs(mv.z_score(r)) <= 5.0

    def test_order_above_degree(self):
        r = mv.mc_deriv(mv.SIMPLEX, x0sq, (5,), 4, np.array([0.3]), 100, 0)
        assert r == mv.McReport(0.0, 0.0, 100, 0.0)

    def test_mixed_kind(self):
        g = lambda x: x[..., 0] * np.sin(x[..., 1])
        r = mv.mc_deriv(mv.mixed(1), g, (1, 1), 25, np.array([0.4, 0.7]), 50_000, 6)
        assert abs(mv.z_score(r)) <= 5.0

    @pytest.mark.parametrize("k", [(1, 0), (1, 1), (2, 2)])
    def test_refusal_estimate_bounds_the_peak(self, k, monkeypatch):
        # 100,000 samples on 2 axes: the draws are 3.05 MiB, the (2, 2)
        # stencil values 6.9 MiB more
        f = mv.corpus_member("expsum", 2).value
        call = lambda: mv.mc_deriv(mv.CUBE, f, k, 8, np.array([0.3, 0.4]), 100_000, 1)
        call()  # fills the caches
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a budget of the measured peak refuses the call: the estimate is above it
        monkeypatch.setattr(stochastic, "MEMORY_BUDGET", peak)
        with pytest.raises(mv.SizeError, match="100,000 Monte Carlo samples on 2 axes"):
            call()
        # and it is not far above it
        monkeypatch.setattr(stochastic, "MEMORY_BUDGET", 4 * peak)
        call()


def _counting(f, seen):
    """f, recording the number of points of every call in seen."""
    def wrapped(x):
        seen.append(math.prod(np.shape(x)[:-1]))
        return f(x)
    return wrapped


@st.composite
def mc_cases(draw):
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from([mv.CUBE, mv.SIMPLEX] + [mv.mixed(d1) for d1 in range(1, d + 1)]))
    n = draw(st.integers(1, 12))
    k = draw(st.sampled_from([tuple(row) for row in mv.model_lattice(mv.SIMPLEX, 2, d).tolist()]))
    name = draw(st.sampled_from(mv.CORPUS_NAMES))
    # 0 and 1 coordinates put the point on a face, where the draws pile up
    coord = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    x = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
    widths = [d] if kind == mv.SIMPLEX else [1] * d if kind == mv.CUBE else [kind.d1] + [1] * (d - kind.d1)
    lo = 0
    for w in widths:
        x[lo : lo + w] /= max(1.0, x[lo : lo + w].sum())
        lo += w
    samples = draw(st.sampled_from([1, 2, 3, 50, 400, 3000]))
    seed = draw(st.integers(0, 2**32 - 1))
    return kind, d, n, k, name, x, samples, seed


class TestLatticeRoute:
    """Within the box rule f, and each stencil sum, is evaluated once per
    lattice point the draws hit; every report is the per-draw route's."""

    @staticmethod
    def report(case):
        kind, d, n, k, name, x, samples, seed = case
        f = mv.corpus_member(name, d).value
        if sum(k) == 0:
            return mv.mc_eval(kind, f, n, x, samples, seed)
        return mv.mc_deriv(kind, f, k, n, x, samples, seed)

    @given(mc_cases())
    @settings(max_examples=150, deadline=None)
    # every draw at one point: numpy would sum the stencil of one row as a
    # dot product, and of the draws' rows by a matrix-vector product
    @example((mv.mixed(1), 2, 1, (1, 1), "affine", np.array([0.3, 0.4]), 1000, 7))
    @example((mv.mixed(2), 3, 1, (0, 1, 1), "affine", np.array([0.2, 0.3, 0.4]), 1000, 7))
    def test_reports_equal_the_per_draw_routes_bit_for_bit(self, case):
        lattice = self.report(case)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stochastic, "_lattice_box", lambda trials, samples: None)
            per_draw = self.report(case)
        assert [float(v).hex() for v in (lattice.estimate, lattice.std_error, lattice.reference)] == [
            float(v).hex() for v in (per_draw.estimate, per_draw.std_error, per_draw.reference)
        ]
        assert lattice.samples == per_draw.samples

    @pytest.mark.parametrize("k", [(0, 0), (1, 0), (1, 1)])
    def test_f_sees_at_most_the_box(self, k):
        # 20,000 draws at n = 8 on 2 axes hit at most the (9 - k_1) x (9 - k_2)
        # count vectors of the box; the first call of f is the estimate's,
        # the rest are the reference's
        seen = []
        f = _counting(mv.corpus_member("sincos", 2).value, seen)
        x = np.array([0.3, 0.4])
        if sum(k) == 0:
            mv.mc_eval(mv.CUBE, f, 8, x, 20_000, 3)
        else:
            mv.mc_deriv(mv.CUBE, f, k, 8, x, 20_000, 3)
        stencil = math.prod(ki + 1 for ki in k)
        assert seen[0] <= (9 - k[0]) * (9 - k[1]) * stencil

    def test_past_the_box_rule_f_runs_per_draw(self):
        # at n = 300 the box has 301^2 = 90,601 entries, more than the draws
        seen = []
        f = _counting(mv.corpus_member("sincos", 2).value, seen)
        mv.mc_eval(mv.CUBE, f, 300, np.array([0.3, 0.4]), 1000, 3)
        assert seen[0] == 1000
        assert stochastic._lattice_box(np.full(2, 300), 1000) is None
        assert stochastic._lattice_box(np.full(2, 300), 90_601) == (301, 301)

    @pytest.mark.parametrize("k", [None, (1, 0)])
    def test_per_draw_estimate_bounds_the_peak(self, k, monkeypatch):
        # at n = 320 the box has 321^2 = 103,041 entries, more than the
        # 100,000 draws
        f = mv.corpus_member("expsum", 2).value
        x = np.array([0.3, 0.4])
        if k is None:
            call = lambda: mv.mc_eval(mv.CUBE, f, 320, x, 100_000, 1)
        else:
            call = lambda: mv.mc_deriv(mv.CUBE, f, k, 320, x, 100_000, 1)
        call()  # fills the caches
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(stochastic, "MEMORY_BUDGET", peak)
        with pytest.raises(mv.SizeError, match="100,000 Monte Carlo samples on 2 axes"):
            call()
        monkeypatch.setattr(stochastic, "MEMORY_BUDGET", 4 * peak)
        call()


class TestIntegralArguments:
    """A count or a seed that is not an integer is a ValueError naming it,
    not cut to an integer; an integral float such as 10.0 is taken."""

    SINCOS = mv.corpus_member("sincos", 2).value
    X = np.array([0.3, 0.4])

    def test_mc_eval(self):
        with pytest.raises(ValueError, match=r"sample count 2\.5 is not an integer"):
            mv.mc_eval(mv.CUBE, self.SINCOS, 8, self.X, 2.5, 1)
        with pytest.raises(ValueError, match=r"seed 1\.5 is not an integer"):
            mv.mc_eval(mv.CUBE, self.SINCOS, 8, self.X, 10, 1.5)
        assert mv.mc_eval(mv.CUBE, self.SINCOS, 8, self.X, 10.0, 1.0) == mv.mc_eval(
            mv.CUBE, self.SINCOS, 8, self.X, 10, 1
        )

    def test_mc_deriv(self):
        with pytest.raises(ValueError, match=r"sample count 2\.5 is not an integer"):
            mv.mc_deriv(mv.CUBE, self.SINCOS, (1, 0), 8, self.X, 2.5, 1)
        with pytest.raises(ValueError, match=r"seed 1\.5 is not an integer"):
            mv.mc_deriv(mv.CUBE, self.SINCOS, (1, 0), 8, self.X, 10, 1.5)
        assert mv.mc_deriv(mv.CUBE, self.SINCOS, (1, 0), 8, self.X, 10.0, 1).samples == 10

    def test_lln_diagnostic(self):
        with pytest.raises(ValueError, match=r"sample count 2\.5 is not an integer"):
            mv.lln_diagnostic(mv.CUBE, (8,), self.X, 2.5, 1)
        with pytest.raises(ValueError, match="at least one sample"):
            mv.lln_diagnostic(mv.CUBE, (8,), self.X, 0, 1)

    def test_make_stream(self):
        with pytest.raises(ValueError, match=r"seed 1\.5 is not an integer"):
            make_stream(1.5, "mc_eval")
        a = make_stream(7.0, "mc_eval").integers(0, 1 << 30, 5)
        assert np.array_equal(a, make_stream(7, "mc_eval").integers(0, 1 << 30, 5))

    def test_sample_binomial_vector(self):
        rng = make_stream(0, "test")
        with pytest.raises(ValueError, match=r"trial count 3\.5 is not an integer"):
            mv.sample_binomial_vector(3.5, self.X, rng, size=4)
        with pytest.raises(ValueError, match=r"trial count 2\.5 is not an integer"):
            mv.sample_binomial_vector(np.array([3.0, 2.5]), self.X, rng, size=4)
        with pytest.raises(ValueError, match=r"sample size 4\.5 is not an integer"):
            mv.sample_binomial_vector(3, self.X, rng, size=4.5)
        assert mv.sample_binomial_vector(np.array([3.0, 4.0]), self.X, rng, size=4.0).shape == (4, 2)

    def test_sample_multinomial_projection(self):
        rng = make_stream(0, "test")
        with pytest.raises(ValueError, match=r"trial count 3\.5 is not an integer"):
            mv.sample_multinomial_projection(3.5, self.X, rng, size=4)
        with pytest.raises(ValueError, match=r"sample size 4\.5 is not an integer"):
            mv.sample_multinomial_projection(3, self.X, rng, size=4.5)
        assert mv.sample_multinomial_projection(3.0, self.X, rng, size=4.0).max() <= 3


class TestLln:
    def test_corner_deviation_zero(self):
        rows = mv.lln_diagnostic(mv.CUBE, (10, 100), np.array([0.0, 1.0]), 500, 0)
        assert all(dev == 0.0 for _, dev in rows)

    def test_deviation_decreases(self):
        rows = mv.lln_diagnostic(mv.SIMPLEX, (25, 400), np.array([0.3, 0.4]), 10_000, 1)
        assert rows[1][1] < rows[0][1]

    def test_half_normal_scale_1d(self):
        # CLT: mean |count/n - x| near sqrt(2/(pi n)) * sqrt(x(1-x))
        rows = mv.lln_diagnostic(mv.CUBE, (10_000,), np.array([0.5]), 10_000, 2)
        want = math.sqrt(2 / (math.pi * 10_000)) * 0.5
        assert rows[0][1] == pytest.approx(want, rel=0.1)

    def test_rejects_non_integral_degree(self):
        with pytest.raises(ValueError, match="not an integer"):
            mv.lln_diagnostic(mv.CUBE, (10, 20.5), np.array([0.5]), 10, 0)


@pytest.mark.parametrize("route", ["mc_eval", "lln_diagnostic"])
def test_value_routes_refusal_estimate_bounds_the_peak(route, monkeypatch):
    # 100,000 samples on 2 axes: the draws are 3.05 MiB; f, or the
    # deviations from x, see them a block at a time
    f = mv.corpus_member("expsum", 2).value
    x = np.array([0.3, 0.4])
    calls = {
        "mc_eval": lambda: mv.mc_eval(mv.CUBE, f, 8, x, 100_000, 1),
        "lln_diagnostic": lambda: mv.lln_diagnostic(mv.CUBE, (8, 64), x, 100_000, 1),
    }
    call = calls[route]
    call()  # fills the caches
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a budget of the measured peak refuses the call: the estimate is above it
    monkeypatch.setattr(stochastic, "MEMORY_BUDGET", peak)
    with pytest.raises(mv.SizeError, match="100,000 Monte Carlo samples on 2 axes"):
        call()
    # and it is not far above it
    monkeypatch.setattr(stochastic, "MEMORY_BUDGET", 4 * peak)
    call()


def test_lln_rows_are_unchanged_by_blocks(monkeypatch):
    call = lambda: mv.lln_diagnostic(mv.mixed(1), (5, 50), np.array([0.3, 0.4]), 20_000, 2)
    whole = call()  # one block
    monkeypatch.setattr(bernstein, "_CHUNK_FLOATS", 2**13)  # 40 blocks
    assert call() == whole


class TestSinglePoint:
    POINTS = np.array([[0.1, 0.2], [0.9, 0.9]])

    def test_mc_routes_reject_batches(self):
        sincos = mv.corpus_member("sincos", 2).value
        with pytest.raises(ValueError, match="single point"):
            mv.mc_eval(mv.CUBE, sincos, 10, self.POINTS, 100, 0)
        with pytest.raises(ValueError, match="single point"):
            mv.mc_deriv(mv.CUBE, sincos, (1, 0), 10, self.POINTS, 100, 0)
        with pytest.raises(ValueError, match="single point"):
            mv.lln_diagnostic(mv.CUBE, (10,), self.POINTS, 100, 0)

    def test_samplers_reject_batches(self):
        rng = make_stream(0, "test")
        with pytest.raises(ValueError, match="single point"):
            mv.sample_binomial_vector(5, self.POINTS, rng, size=3)
        with pytest.raises(ValueError, match="single point"):
            mv.sample_multinomial_projection(5, self.POINTS / 2, rng, size=3)

    def test_one_row_batch_is_a_point(self):
        sincos = mv.corpus_member("sincos", 2).value
        a = mv.mc_eval(mv.CUBE, sincos, 10, self.POINTS[:1], 100, 0)
        b = mv.mc_eval(mv.CUBE, sincos, 10, self.POINTS[0], 100, 0)
        assert a == b


class TestSummarize:
    def test_near_constant_collapses(self):
        base = 1.9
        vals = base + np.random.default_rng(0).uniform(-1e-13, 1e-13, 100)
        r = _summarize(vals, 100, base)
        assert r.std_error == 0.0

    def test_genuine_spread_kept(self):
        vals = np.random.default_rng(0).normal(0.0, 1.0, 100)
        r = _summarize(vals, 100, 0.0)
        assert r.std_error > 0.0

    def test_z_score_infinite_on_bad_zero_variance(self):
        r = mv.McReport(estimate=1.0, std_error=0.0, samples=10, reference=2.0)
        assert mv.z_score(r) == -math.inf
