import math
import tracemalloc

import numpy as np
import pytest

import mvbernstein as mv
from mvbernstein import stochastic
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
