import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mvbernstein as mv
from mvbernstein import bernstein, multiindex, stochastic
from mvbernstein.stochastic import _multinomial_projection, _stream, _summarize


def wilson_hilferty_chi2_quantile(df, z):
    # chi-square quantile approximation, adequate for a coarse gate
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


Z_1E6 = 4.7534243088229  # standard normal quantile at 1 - 1e-6


def x0sq(x):
    return x[..., 0] ** 2


class TestStreams:
    def test_reproducible(self):
        a = _stream(42, "mc_eval").integers(0, 1 << 30, 5)
        b = _stream(42, "mc_eval").integers(0, 1 << 30, 5)
        assert np.array_equal(a, b)

    def test_tags_give_distinct_streams(self):
        a = _stream(42, "mc_eval").integers(0, 1 << 30, 5)
        b = _stream(42, "mc_deriv").integers(0, 1 << 30, 5)
        assert not np.array_equal(a, b)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            _stream(-1, "mc_eval")


def projection(n, p, rng, m):
    """m draws of _multinomial_projection, made into a fresh (m, w) array."""
    return _multinomial_projection(n, p, rng, np.empty((m, p.size), dtype=np.int64), {})


class TestMultinomialProjection:
    def test_zero_vector_at_origin(self):
        rng = _stream(3, "test")
        draws = projection(7, np.array([0.0, 0.0]), rng, 20)
        assert np.all(draws == 0)

    def test_corner_concentrates(self):
        rng = _stream(4, "test")
        draws = projection(7, np.array([0.0, 1.0]), rng, 20)
        assert np.all(draws[:, 0] == 0)
        assert np.all(draws[:, 1] == 7)

    def test_modulus_bounded_by_trials(self):
        rng = _stream(5, "test")
        draws = projection(12, np.array([0.5, 0.4]), rng, 200)
        assert draws.sum(axis=1).max() <= 12

    def test_marginal_means_within_four_sigma(self):
        rng = _stream(6, "test")
        n, m = 50, 10_000
        x = np.array([0.2, 0.5])
        draws = projection(n, x, rng, m)
        for i in range(2):
            sigma = math.sqrt(n * x[i] * (1 - x[i]))
            assert abs(draws[:, i].mean() - n * x[i]) <= 4 * sigma / math.sqrt(m)

    def test_marginals_are_binomial_chi_square(self):
        # goodness of fit of each component against its binomial law
        rng = _stream(7, "test")
        n, m = 12, 100_000
        x = np.array([0.3, 0.45])
        draws = projection(n, x, rng, m)
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


def numpy_walk(u: float, n: int, p: float):
    """numpy's random_binomial_inversion on one uniform u, step by step in
    Python floats, for p <= 1/2: the draw, or bound + 1 where it restarts."""
    q = 1.0 - p
    px = math.exp(n * (math.log1p(-p) if stochastic._walks_from_log1p() else math.log(q)))
    np_ = n * p
    cap = np_ + 10.0 * math.sqrt(np_ * q + 1)
    bound = n if n < cap else int(cap)
    x = 0
    while u > px:
        x += 1
        if x > bound:
            return x
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
    return x


def stream_at(*uniforms):
    """A generator whose next random() calls give these multiples of 2^-53,
    at most four, set as the outputs Philox has buffered; then its stream."""
    rng = np.random.Generator(np.random.Philox(0))
    state = rng.bit_generator.state
    state["buffer"][4 - len(uniforms) :] = [int(u * 2**53) << 11 for u in uniforms]
    state["buffer_pos"] = 4 - len(uniforms)
    rng.bit_generator.state = state
    return rng


PROBABILITIES = [0.0, 5e-324, 1e-300, 0.5, 1.0 - 2**-53, 1.0]


@st.composite
def binomial_calls(draw):
    """Arguments of stochastic._binomial in either of its shapes: one trial
    count and probability per column, or per-row trial counts and one
    probability."""
    m = draw(st.one_of(st.integers(1, 40), st.integers(1, 3000)))
    rows = draw(st.booleans())
    w = 1 if rows else draw(st.integers(1, 3))
    p = np.array(draw(st.lists(st.one_of(st.sampled_from(PROBABILITIES), st.floats(0.0, 1.0)), min_size=w, max_size=w)))
    top = draw(st.one_of(st.integers(0, 200), st.sampled_from([2000, 2**40])))
    if rows:
        spread = draw(st.integers(0, 200))
        counts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(max(top - spread, 0), top + 1, (m, 1))
    else:
        counts = np.array(draw(st.lists(st.integers(0, top), min_size=w, max_size=w)), dtype=np.int64)
    return counts, p, (m, w), draw(st.integers(0, 2**64 - 1))


class TestBinomialSampler:
    """stochastic._binomial makes Generator.binomial's draws from its stream."""

    @given(binomial_calls())
    @settings(max_examples=400, deadline=None)
    @example((np.array([12, 12]), np.array([0.3, 0.8]), (5000, 2), 5))
    @example((np.array([200, 90, 1]), np.array([0.2, 0.7, 1.0]), (300, 3), 6))
    @example((np.array([[0], [5], [0], [40]]), np.array([0.9]), (4, 1), 7))
    def test_draws_equal_numpys_and_leave_the_stream_where_it_does(self, call):
        n, p, shape, seed = call
        ours, theirs = _stream(seed, "binomial"), _stream(seed, "binomial")
        out = np.full(shape, -7, dtype=np.int64)
        stochastic._binomial(n, p, ours, out, {})
        assert np.array_equal(out, theirs.binomial(n, p, size=shape))
        assert ours.random() == theirs.random()

    @given(st.integers(1, 10**12), st.floats(0.0, 0.5), st.integers(0, 2**64 - 1))
    @settings(max_examples=300, deadline=None)
    @example(12, 0.3, 0)
    @example(1, 0.5, 0)
    @example(10**12, 3e-11, 0)
    def test_every_threshold_is_exact(self, n, p, seed):
        # the walk returns at most x at b_x and more at the next double
        # above it; past the last threshold it restarts
        p = min(p, 30.0 / n)
        b = stochastic._thresholds(n, p)
        for x, t in enumerate(b):
            assert numpy_walk(t, n, p) <= x < numpy_walk(math.nextafter(t, math.inf), n, p)
        # and a uniform's draw is the number of thresholds below it
        for u in np.random.default_rng(seed).random(50).tolist():
            assert numpy_walk(u, n, p) == sum(u > t for t in b)

    @given(st.integers(1, 10**12), st.floats(0.0, 1.0), st.booleans())
    @settings(max_examples=150, deadline=None)
    @example(12, 0.3, False)
    @example(3, 0.7, False)
    @example(50_000_000_000, 5e-17, True)
    @example(10**12, 5.174271020687904e-14, False)
    def test_draws_either_side_of_every_threshold_are_numpys(self, n, p, rows):
        # the uniforms k 2^-53 and (k + 1) 2^-53 either side of a threshold
        # key: numpy's own draw on each, with a restart past the last one
        # drawing again on the uniform 1/2
        if min(p, 1.0 - p) * n > 30.0:
            p = 30.0 / n
        keys, _, _ = stochastic._inversion_keys(n, p)
        for k in sorted({u for key in keys[:-1].tolist() for u in (key - 2, key - 1) if 0 <= u < 2**53}):
            ours, theirs = stream_at(k * 2.0**-53, 0.5), stream_at(k * 2.0**-53, 0.5)
            out = np.empty((1, 1), dtype=np.int64)
            stochastic._binomial(np.array([[n]] if rows else [n]), np.array([p]), ours, out, {})
            assert out[0, 0] == theirs.binomial(n, p)
            assert ours.random() == theirs.random()

    @pytest.mark.parametrize("rows", [False, True])
    def test_a_restart_hands_the_draws_to_numpy(self, rows, monkeypatch):
        # every walk restarting: numpy draws from the saved state
        n, p = (np.array([[3], [9], [0], [12]] * 50), np.array([0.3])) if rows else (np.array([12, 5]), np.array([0.3, 0.6]))
        shape = (200, 1) if rows else (200, 2)
        keys = stochastic._inversion_keys

        def restarting(n, p):
            table, draws, direct = keys(n, p)
            return table, np.full_like(draws, -1), np.full_like(direct, -1)

        monkeypatch.setattr(stochastic, "_inversion_keys", restarting)
        ours, theirs = _stream(4, "binomial"), _stream(4, "binomial")
        out = np.empty(shape, dtype=np.int64)
        stochastic._binomial(n, p, ours, out, {})
        assert np.array_equal(out, theirs.binomial(n, p, size=shape))
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("span, numpy_draws", [(stochastic._GROUPS - 1, False), (stochastic._GROUPS, True)])
    def test_numpy_draws_trial_counts_of_too_wide_a_span(self, span, numpy_draws, monkeypatch):
        # every count at n p < 30; from a span of _GROUPS on, numpy draws
        n, p = np.arange(1, span + 2).repeat(3).reshape(-1, 1), np.array([1e-3])
        calls = []
        keys = stochastic._inversion_keys
        monkeypatch.setattr(stochastic, "_inversion_keys", lambda *a: calls.append(a) or keys(*a))
        ours, theirs = _stream(5, "binomial"), _stream(5, "binomial")
        out = np.empty(n.shape, dtype=np.int64)
        stochastic._binomial(n, p, ours, out, {})
        assert (not calls) == numpy_draws
        assert np.array_equal(out, theirs.binomial(n, p, size=n.shape))
        assert ours.random() == theirs.random()


class TestPinnedDraws:
    """Monte Carlo reports pinned to the values their draws gave when each
    was made by Generator.binomial, so that a changed stream fails here."""

    X = np.array([0.2, 0.3, 0.1])

    @pytest.mark.parametrize(
        "kind, estimate, std_error",
        [
            (mv.CUBE, "0x1.6c430927743b5p-4", "0x1.b567724e26110p-11"),
            (mv.mixed(1), "0x1.658ccbc1b1725p-4", "0x1.b26162f8d69a1p-11"),
            (mv.SIMPLEX, "0x1.9008f564ff2b7p-4", "0x1.cba293e0a2cdcp-11"),
        ],
        ids=["cube", "mixed1", "simplex"],
    )
    def test_mc_eval(self, kind, estimate, std_error):
        r = mv.mc_eval(kind, mv.corpus_member("sincos", 3).value, 12, self.X, 20_000, 5)
        assert (r.estimate.hex(), r.std_error.hex()) == (estimate, std_error)

    def test_mc_deriv(self):
        r = mv.mc_deriv(mv.CUBE, mv.corpus_member("sincos", 3).value, (1, 1, 0), 12, self.X, 20_000, 5)
        assert (r.estimate.hex(), r.std_error.hex()) == ("-0x1.a22d06416261fp+0", "0x1.76ff500596c93p-7")


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


class TestDrawGrouping:
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_each_kind_draws_its_factors(self, d):
        # one rng call per factor: the cube's axes together, a simplex whole,
        # a mixed kind's block, then its cube axes together
        assert stochastic._factors(mv.CUBE, d) == ((1,) * d,)
        assert stochastic._factors(mv.SIMPLEX, d) == ((d,),)
        assert stochastic._factors(mv.mixed(1), d) == (((1,), (1,) * (d - 1)) if d > 1 else ((1,),))
        assert stochastic._factors(mv.mixed(d), d) == ((d,),)

    def test_cube_and_mixed_one_differ_only_in_draws_and_header(self):
        # alike in their widths, so in samples and values; the grouping of
        # their draws, and their model text, tell them apart
        f = mv.corpus_member("sincos", 3).value
        cube, mixed = (mv.build_model(f, kind, 12, 3) for kind in (mv.CUBE, mv.mixed(1)))
        assert cube.samples.tobytes() == mixed.samples.tobytes()
        X = np.random.default_rng(3).uniform(0.0, 1.0, (300, 3))
        assert mv.evaluate(cube, X).tobytes() == mv.evaluate(mixed, X).tobytes()
        x = np.array([0.2, 0.3, 0.1])
        a, b = (mv.mc_eval(kind, f, 12, x, 20_000, 5) for kind in (mv.CUBE, mv.mixed(1)))
        assert a.reference == b.reference
        assert a.estimate != b.estimate
        assert mv.dump_model(cube).split("\n", 1)[0] == "cube 12 3"
        assert mv.dump_model(mixed).split("\n", 1)[0] == "mixed 12 3 1 2"


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
        monkeypatch.setattr(multiindex, "MEMORY_BUDGET", peak)
        with pytest.raises(mv.SizeError, match="100,000 Monte Carlo samples on 2 axes"):
            call()
        # and it is not far above it
        monkeypatch.setattr(multiindex, "MEMORY_BUDGET", 4 * peak)
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

    @given(mc_cases())
    @settings(max_examples=100, deadline=None)
    @example((mv.SIMPLEX, 2, 8, (0, 0), "affine", np.array([0.3, 0.4]), 3000, 7))
    def test_lln_rows_equal_the_per_draw_routes_bit_for_bit(self, case):
        kind, d, n, _, _, x, samples, seed = case
        # 40 puts a 2-axis box past the rule for up to 1,680 draws
        call = lambda: mv.lln_diagnostic(kind, (1, n, 40), x, samples, seed)
        lattice = call()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stochastic, "_lattice_box", lambda trials, samples: None)
            per_draw = call()
        assert [(n, dev.hex()) for n, dev in lattice] == [(n, dev.hex()) for n, dev in per_draw]

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
        monkeypatch.setattr(multiindex, "MEMORY_BUDGET", peak)
        with pytest.raises(mv.SizeError, match="100,000 Monte Carlo samples on 2 axes"):
            call()
        monkeypatch.setattr(multiindex, "MEMORY_BUDGET", 4 * peak)
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
            _stream(1.5, "mc_eval")
        a = _stream(7.0, "mc_eval").integers(0, 1 << 30, 5)
        assert np.array_equal(a, _stream(7, "mc_eval").integers(0, 1 << 30, 5))


class TestPointShapes:
    """A scalar point is refused with the message every route gives for a
    malformed point, before anything is drawn; it used to be an IndexError
    where the point set the dimension."""

    SINCOS = mv.corpus_member("sincos", 2).value

    def test_a_scalar_point_is_named(self):
        calls = [
            lambda: mv.mc_eval(mv.CUBE, self.SINCOS, 4, 0.3, 10, 1),
            lambda: mv.lln_diagnostic(mv.CUBE, [4], 0.3, 10, 1),
            lambda: mv.mc_deriv(mv.CUBE, self.SINCOS, (1, 0), 4, 0.3, 10, 1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"points must be a \(d,\) vector or an \(m, d\) array"):
                call()

    def test_the_point_still_sets_the_dimension(self):
        x = np.array([0.3, 0.4, 0.1])
        assert mv.mc_eval(mv.SIMPLEX, lambda P: P.sum(-1), 4, x, 50, 1).reference == pytest.approx(0.8)
        assert [n for n, _ in mv.lln_diagnostic(mv.mixed(2), [4, 8], x, 50, 1)] == [4, 8]

    def test_lln_refuses_an_empty_degree_list(self):
        with pytest.raises(ValueError, match="at least one degree is required"):
            mv.lln_diagnostic(mv.CUBE, [], np.array([0.3, 0.4]), 10, 1)

    def test_bool_counts_and_seeds_are_refused(self):
        x = np.array([0.3, 0.4])
        with pytest.raises(ValueError, match="sample count True is not an integer"):
            mv.mc_eval(mv.CUBE, self.SINCOS, 4, x, True, 1)
        with pytest.raises(ValueError, match="seed False is not an integer"):
            mv.mc_deriv(mv.CUBE, self.SINCOS, (1, 0), 4, x, 10, False)


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


@pytest.mark.parametrize("n", [2**62, 2**63, 10**20])
def test_degrees_past_the_budget_are_refused_before_f(n):
    # past 2**63 - 1 numpy's draws raised a TypeError naming no argument,
    # and at 2**62 mc_eval called f on its draws before the reference's
    # model was refused
    calls = []
    f = lambda x: calls.append(x) or x[..., 0]
    x = np.array([0.3, 0.4])
    match = re.escape(f"a cube model at n = {n}, d = 2 has ")
    with pytest.raises(mv.SizeError, match=match):
        mv.mc_eval(mv.CUBE, f, n, x, 100, 1)
    with pytest.raises(mv.SizeError, match=match):
        mv.mc_deriv(mv.CUBE, f, (0, 1), n, x, 100, 1)
    assert not calls
    if n < 2**63:
        assert mv.lln_diagnostic(mv.CUBE, (n,), x, 100, 1)[0][0] == n
    else:
        with pytest.raises(ValueError, match=re.escape(f"degree {n} is past 2**63 - 1")):
            mv.lln_diagnostic(mv.CUBE, (4, n), x, 100, 1)


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
    monkeypatch.setattr(multiindex, "MEMORY_BUDGET", peak)
    with pytest.raises(mv.SizeError, match="100,000 Monte Carlo samples on 2 axes"):
        call()
    # and it is not far above it
    monkeypatch.setattr(multiindex, "MEMORY_BUDGET", 4 * peak)
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

    def test_z_score_needs_a_reference(self):
        with pytest.raises(ValueError, match="^report carries no reference value$"):
            mv.z_score(mv.McReport(estimate=1.0, std_error=0.1, samples=10))

    def test_z_score_infinite_on_bad_zero_variance(self):
        r = mv.McReport(estimate=1.0, std_error=0.0, samples=10, reference=2.0)
        assert mv.z_score(r) == -math.inf
