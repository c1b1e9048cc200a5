"""Properties that pit the routes against each other on random kinds,
degrees, orders and points, boundary points included."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import mvbernstein as mv
from mvbernstein import bernstein


def block_widths(kind, d):
    if kind == mv.CUBE:
        return [1] * d
    if kind == mv.SIMPLEX:
        return [d]
    return [kind.d1] + [1] * (d - kind.d1)


@st.composite
def cases(draw):
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from([mv.CUBE, mv.SIMPLEX] + [mv.mixed(d1) for d1 in range(1, d + 1)]))
    n = draw(st.integers(1, 8))
    k = draw(st.sampled_from([tuple(row) for row in mv.model_lattice(mv.SIMPLEX, 2, d).tolist()]))
    # 0 and 1 coordinates give vertices; a block sum above 1 is scaled onto a face
    coord = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    x = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
    lo = 0
    for w in block_widths(kind, d):
        s = x[lo : lo + w].sum()
        if s > 1.0:
            x[lo : lo + w] /= s
        lo += w
    return kind, d, n, k, x


def f(x):
    return np.sin(np.pi * x[..., 0]) * np.exp(0.5 * x[..., -1]) + x.sum(-1) ** 2


def close(a, b):
    # criterion 3's measure and tolerance
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


@given(cases())
@settings(max_examples=150, deadline=None)
def test_closed_form_matches_oracle(case):
    kind, d, n, k, x = case
    assert close(mv.derivative(kind, f, k, n, x), mv.oracle_deriv(f, kind, k, n, x))


@given(cases())
@settings(max_examples=100, deadline=None)
def test_evaluate_matches_oracle_at_order_zero(case):
    kind, d, n, _, x = case
    model = mv.build_model(f, kind, n, d)
    assert close(mv.evaluate(model, x), mv.oracle_deriv(f, kind, (0,) * d, n, x))


@given(cases())
@settings(max_examples=60, deadline=None)
def test_lattice_is_sorted_product_of_block_lattices(case):
    kind, d, n, _, _ = case
    # each block's lattice from a filtered product, independent of the package
    parts = [
        [j for j in itertools.product(range(n + 1), repeat=w) if sum(j) <= n]
        for w in block_widths(kind, d)
    ]
    want = sorted(sum(rows, ()) for rows in itertools.product(*parts))
    got = [tuple(int(v) for v in row) for row in mv.model_lattice(kind, n, d)]
    assert got == want
    assert mv.model_size(kind, n, d) == len(want)


@given(cases())
@settings(max_examples=60, deadline=None)
def test_model_text_round_trip_is_bit_exact(case):
    kind, d, n, _, _ = case
    model = mv.build_model(f, kind, n, d)
    again = mv.parse_model(mv.dump_model(model))
    assert again.kind == kind and again.degree == n and again.dim == d
    assert again.samples.tobytes() == model.samples.tobytes()


def batch_size(kind, d, n, k):
    """At least 300 points, and enough that every varying-degree axis of the
    contraction leaves the gather branch that single points take."""
    widths = bernstein._widths(kind, d)
    degrees = bernstein._reduced_degrees(widths, k, n)
    axes = bernstein._plan(widths, degrees)[0] if degrees else ()
    need = [bernstein._GATHER_FLOATS_PER_DEGREE * len(ax.degrees) // ax.index.size + 1
            for ax in axes if ax.index is not None]
    return max([300] + need)


@st.composite
def batch_cases(draw):
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from([mv.CUBE, mv.SIMPLEX] + [mv.mixed(d1) for d1 in range(1, d + 1)]))
    n = draw(st.integers(1, 8))
    k = draw(st.sampled_from([tuple(row) for row in mv.model_lattice(mv.SIMPLEX, 2, d).tolist()]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = batch_size(kind, d, n, k)
    widths = block_widths(kind, d)
    # random points, then faces (a zero coordinate, or a block sum of 1),
    # then every vertex of the product of the blocks
    X = np.hstack([rng.dirichlet(np.ones(w + 1), m)[:, :w] for w in widths])
    X[: m // 4, rng.integers(0, d)] = 0.0
    lo = 0
    for w in widths:
        X[m // 4 : m // 2, lo : lo + w] /= X[m // 4 : m // 2, lo : lo + w].sum(axis=1, keepdims=True)
        lo += w
    corners = [np.vstack([np.zeros(w), np.eye(w)]) for w in widths]
    vertices = np.array([np.concatenate(c) for c in itertools.product(*corners)])
    return kind, d, n, k, np.vstack([X, vertices])


@given(batch_cases())
@settings(max_examples=40, deadline=None)
def test_batches_match_single_points_and_oracle(case):
    kind, d, n, k, X = case
    model = mv.build_model(f, kind, n, d)
    batch = bernstein._partial(model, k, X)
    single = np.array([bernstein._partial(model, k, x) for x in X])
    assert np.all(np.abs(batch - single) <= 1e-13 * np.maximum(1.0, np.abs(single)))
    oracle = mv.oracle_deriv(f, kind, k, n, X)
    assert np.all(np.abs(batch - oracle) <= 1e-9 * np.maximum(1.0, np.maximum(np.abs(batch), np.abs(oracle))))
