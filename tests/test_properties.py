"""Properties that pit the routes against each other on random kinds,
degrees, orders and points, boundary points included; and the entry
points' contracts: a malformed argument is refused by name."""

import itertools
import os
import types

import numpy as np
import pytest
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


# ---------------------------------------------------------------------------
# entry-point contracts

def G(x):
    return x.sum(-1)


X = np.array([0.2, 0.3])
MODEL = mv.build_model(G, mv.CUBE, 3, 2)
QUAD = mv.corpus_member("quad", 2)
GRID = mv.GridSpec(mv.CUBE, 3)
SPEC = mv.DiffSpec((1, 0), (0.1, 0.1))

# one malformed argument of each family
FAMILIES = {
    "bool": st.sampled_from([True, False, np.True_, np.False_]),
    "fractional": st.floats(0.0, 40.0).filter(lambda v: not v.is_integer()),
    "non-finite": st.sampled_from([np.nan, np.inf, -np.inf]),
    "order length": st.sampled_from([1, 3, 4]).map(lambda m: (1,) + (0,) * (m - 1)),
    "scalar point": st.floats(0.0, 1.0),
    "scalar degree list": st.one_of(st.integers(1, 40), st.floats(1.0, 40.0)),
    "non-report": st.one_of(st.none(), st.text(max_size=4), st.tuples(st.floats(), st.floats(), st.integers())),
    "non-model": st.one_of(st.none(), st.text(max_size=4), st.lists(st.floats(), max_size=3), st.just(mv.CUBE)),
}
NUMBERS = ("bool", "fractional", "non-finite")


def steps(order):
    return mv.DiffSpec(order, (0.1,) * len(order))


# what a message names: the degree, a point, the order's length
DEGREE = "^degree "
DEGREE_LIST = "^degree list .* is not a sequence of degrees"
POINTS = r"^points must be a \(d,\) vector"
NON_FINITE = "^point has a non-finite coordinate"
ORDER = "^order .* has length"
ENTRY = "^multi-index entry "
SINGLE = "a single point matching the spec dimension"
NON_MODEL = "^model must be a BernsteinModel, not "
S, M1, M2 = mv.SIMPLEX, mv.mixed(1), mv.mixed(2)
M2_GRID = mv.GridSpec(M2, 3)

# entry point -> [(families, what the message names, call with the bad value)]
CONTRACTS = {
    "Kind": [
        (NUMBERS, "^block width ", lambda v: mv.Kind("mixed", v)),
        (NUMBERS, "^cube kind does not take a block width", lambda v: mv.Kind("cube", v)),
        (NUMBERS, "^unknown kind ", mv.Kind),
    ],
    "BernsteinModel": [
        (NUMBERS, DEGREE, lambda v: mv.BernsteinModel(mv.CUBE, v, 1, np.zeros(2))),
        (NUMBERS, "^dimension ", lambda v: mv.BernsteinModel(mv.CUBE, 1, v, np.zeros(2))),
        (("non-finite",), "^sample at lattice index", lambda v: mv.BernsteinModel(mv.CUBE, 1, 1, [0.0, v])),
    ],
    "build_model": [
        (NUMBERS, DEGREE, lambda v: mv.build_model(G, mv.CUBE, v, 2)),
        (NUMBERS, "^dimension ", lambda v: mv.build_model(G, mv.CUBE, 3, v)),
    ],
    "model_lattice": [
        (NUMBERS, DEGREE, lambda v: mv.model_lattice(S, v, 2)),
        (NUMBERS, "^dimension ", lambda v: mv.model_lattice(S, 3, v)),
    ],
    "model_size": [
        (NUMBERS, DEGREE, lambda v: mv.model_size(M1, v, 2)),
        (NUMBERS, "^dimension ", lambda v: mv.model_size(M1, 3, v)),
    ],
    "mixed": [(NUMBERS, "^block width ", mv.mixed)],
    "parse_model": [(NUMBERS, "^model header ", lambda v: mv.parse_model(f"cube {v!r} 1\n0\n1\n"))],
    "evaluate": [
        (("scalar point",), POINTS, lambda v: mv.evaluate(MODEL, v)),
        (("non-finite",), NON_FINITE, lambda v: mv.evaluate(MODEL, [0.1, v])),
        (("non-model",), NON_MODEL, lambda v: mv.evaluate(v, X)),
    ],
    "dump_model": [(("non-model",), NON_MODEL, mv.dump_model)],
    # the null device, so that a refusal that comes too late writes nowhere
    "save_model": [(("non-model",), NON_MODEL, lambda v: mv.save_model(v, os.devnull))],
    "derivative": [
        (NUMBERS, DEGREE, lambda v: mv.derivative(S, G, (1, 0), v, X)),
        (("bool", "fractional"), ENTRY, lambda v: mv.derivative(S, G, (v, 0), 3, X)),
        (("order length",), ORDER, lambda v: mv.derivative(S, G, v, 3, X)),
        (("scalar point",), POINTS, lambda v: mv.derivative(S, G, (1, 0), 3, v)),
        (("non-finite",), NON_FINITE, lambda v: mv.derivative(S, G, (1, 0), 3, [v, 0.1])),
    ],
    "oracle_deriv": [
        (NUMBERS, DEGREE, lambda v: mv.oracle_deriv(G, M1, (1, 0), v, X)),
        (("bool", "fractional"), ENTRY, lambda v: mv.oracle_deriv(G, M1, (v, 0), 3, X)),
        (("order length",), ORDER, lambda v: mv.oracle_deriv(G, M1, v, 3, X)),
        (("scalar point",), POINTS, lambda v: mv.oracle_deriv(G, M1, (1, 0), 3, v)),
        (("non-finite",), NON_FINITE, lambda v: mv.oracle_deriv(G, M1, (1, 0), 3, [v, 0.1])),
    ],
    "DiffSpec": [
        (("bool", "fractional"), ENTRY, lambda v: mv.DiffSpec((v,), (0.1,))),
        (("non-finite",), "^steps must be positive and finite", lambda v: mv.DiffSpec((1,), (v,))),
        (("bool",), "^steps must be real numbers, not bools", lambda v: mv.DiffSpec((1,), (v,))),
        (("order length",), "^order and steps", lambda v: mv.DiffSpec(v, (0.1, 0.1))),
    ],
    "delta_mixed": [
        (("scalar point",), "^point dimension does not match", lambda v: mv.delta_mixed(G, v, SPEC)),
        (("order length",), "^point dimension does not match", lambda v: mv.delta_mixed(G, X, steps(v))),
        (("non-finite",), NON_FINITE, lambda v: mv.delta_mixed(G, [v, 0.2], SPEC)),
    ],
    "difference_integral_check": [
        (NUMBERS, "^quad_points must be an int", lambda v: mv.difference_integral_check(G, G, X, SPEC, v)),
        (("non-finite",), NON_FINITE, lambda v: mv.difference_integral_check(G, G, [v, 0.1], SPEC)),
        (("scalar point",), SINGLE, lambda v: mv.difference_integral_check(G, G, v, SPEC)),
        (("order length",), SINGLE, lambda v: mv.difference_integral_check(G, G, X, steps(v))),
    ],
    "corpus_member": [(NUMBERS, "^dimension ", lambda v: mv.corpus_member("sincos", v))],
    "GridSpec": [
        (("non-report", "scalar point"), "^kind must be a Kind", lambda v: mv.GridSpec(v, 3)),
        (NUMBERS, "^points per axis ", lambda v: mv.GridSpec(mv.CUBE, v)),
        (("bool", "non-finite"), "^inset ", lambda v: mv.GridSpec(mv.CUBE, 3, v)),
    ],
    "grid_points": [(NUMBERS, "^dimension ", lambda v: mv.grid_points(GRID, v))],
    "sup_error": [
        (NUMBERS, DEGREE, lambda v: mv.sup_error(mv.CUBE, QUAD, (1, 0), v, GRID)),
        (("order length",), "^order dimension", lambda v: mv.sup_error(M2, QUAD, v, 3, M2_GRID)),
    ],
    "convergence_table": [
        (NUMBERS, DEGREE, lambda v: mv.convergence_table(mv.CUBE, QUAD, (1, 0), [v, 8], GRID)),
        (("order length",), "^order dimension", lambda v: mv.convergence_table(M2, QUAD, v, [4], M2_GRID)),
        (("scalar degree list",), DEGREE_LIST, lambda v: mv.convergence_table(mv.CUBE, QUAD, (0, 0), v, GRID)),
    ],
    "as_index": [
        (NUMBERS, ENTRY, lambda v: mv.as_index((1, v))),
        (("scalar point",), "^multi-index must be a sequence", mv.as_index),
    ],
    "mc_eval": [
        (NUMBERS, DEGREE, lambda v: mv.mc_eval(mv.CUBE, G, v, X, 10, 1)),
        (NUMBERS, "^sample count ", lambda v: mv.mc_eval(mv.CUBE, G, 3, X, v, 1)),
        (NUMBERS, "^seed ", lambda v: mv.mc_eval(mv.CUBE, G, 3, X, 10, v)),
        (("scalar point",), POINTS, lambda v: mv.mc_eval(mv.CUBE, G, 3, v, 10, 1)),
        (("non-finite",), NON_FINITE, lambda v: mv.mc_eval(mv.CUBE, G, 3, [0.1, v], 10, 1)),
    ],
    "mc_deriv": [
        (NUMBERS, DEGREE, lambda v: mv.mc_deriv(S, G, (1, 0), v, X, 10, 1)),
        (NUMBERS, "^sample count ", lambda v: mv.mc_deriv(S, G, (1, 0), 3, X, v, 1)),
        (NUMBERS, "^seed ", lambda v: mv.mc_deriv(S, G, (1, 0), 3, X, 10, v)),
        (("order length",), ORDER, lambda v: mv.mc_deriv(S, G, v, 3, X, 10, 1)),
        (("scalar point",), POINTS, lambda v: mv.mc_deriv(S, G, (1, 0), 3, v, 10, 1)),
        (("non-finite",), NON_FINITE, lambda v: mv.mc_deriv(S, G, (1, 0), 3, [v, 0.1], 10, 1)),
    ],
    "lln_diagnostic": [
        (NUMBERS, DEGREE, lambda v: mv.lln_diagnostic(mv.CUBE, [4, v], X, 10, 1)),
        (("scalar degree list",), DEGREE_LIST, lambda v: mv.lln_diagnostic(mv.CUBE, v, X, 10, 1)),
        (NUMBERS, "^sample count ", lambda v: mv.lln_diagnostic(mv.CUBE, [4], X, v, 1)),
        (NUMBERS, "^seed ", lambda v: mv.lln_diagnostic(mv.CUBE, [4], X, 10, v)),
        (("scalar point",), POINTS, lambda v: mv.lln_diagnostic(mv.CUBE, [4], v, 10, 1)),
        (("non-finite",), NON_FINITE, lambda v: mv.lln_diagnostic(mv.CUBE, [4], [v, 0.1], 10, 1)),
    ],
    "z_score": [(("non-report",) + NUMBERS, "^report must be an McReport", mv.z_score)],
}

# public names that take no argument these families could spoil: constants,
# exception types, plain records, and the route that takes a path
NOT_ENTRY_POINTS = {
    "CLAMP_TOL", "CUBE", "MEMORY_BUDGET", "SIMPLEX", "CORPUS_NAMES", "DomainError", "SizeError",
    "McReport", "ConvergenceReport", "FunctionSpec", "ScalarField",
    "load_model",
}
CASES = [
    (entry, family, names, call)
    for entry, contracts in CONTRACTS.items()
    for families, names, call in contracts
    for family in families
]


def test_every_public_name_is_an_entry_point_or_set_aside():
    public = {a for a, v in vars(mv).items() if not a.startswith("_") and not isinstance(v, types.ModuleType)}
    assert set(CONTRACTS) | NOT_ENTRY_POINTS == public
    assert not set(CONTRACTS) & NOT_ENTRY_POINTS


@given(st.data())
@settings(max_examples=600, deadline=None)
def test_a_malformed_argument_is_refused_by_name(data):
    entry, family, names, call = data.draw(st.sampled_from(CASES), label="case")
    bad = data.draw(FAMILIES[family], label=family)
    with pytest.raises((ValueError, TypeError), match=names):
        call(bad)
