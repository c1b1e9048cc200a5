"""End-to-end gates for the whole package. Each test prints one PASS/FAIL
line so the suite doubles as a checklist run (pytest -s or -v)."""

import itertools
import math

import numpy as np

import mvbernstein as mv
from mvbernstein.cli import run
from mvbernstein.harness import CORPUS_NAMES, GridSpec, convergence_table, corpus_member


def gate(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def random_point(kind, d, rng):
    while True:
        x = rng.random(d)
        if kind.name == "cube":
            return x
        if kind.name == "simplex" and x.sum() <= 1.0:
            return x
        if kind.name == "mixed" and x[: kind.d1].sum() <= 1.0:
            return x


def kinds_for(d, rng):
    out = [mv.CUBE, mv.SIMPLEX]
    if d >= 2:
        out.append(mv.mixed(int(rng.integers(1, d))))
    else:
        out.append(mv.mixed(1))
    return out


def test_criterion_01_affine_exactness():
    rng = np.random.default_rng(101)
    worst_eval = 0.0
    worst_deriv = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        a = rng.uniform(-1.0, 1.0, d)
        b = float(rng.uniform(-1.0, 1.0))
        f = lambda x, a=a, b=b: x @ a + b
        n = int(rng.integers(1, 51))
        for kind in kinds_for(d, rng):
            x = random_point(kind, d, rng)
            model = mv.build_model(f, kind, n, d)
            worst_eval = max(worst_eval, abs(mv.evaluate(model, x) - float(f(x))))
            for axis in range(d):
                k = tuple(1 if i == axis else 0 for i in range(d))
                got = mv.derivative(kind, f, k, n, x)
                worst_deriv = max(worst_deriv, abs(got - a[axis]))
    gate(
        "criterion 1: affine exactness",
        worst_eval <= 1e-12 and worst_deriv <= 1e-10,
        f"max eval err {worst_eval:.2e}, max deriv err {worst_deriv:.2e}",
    )


def test_criterion_02_quadratic_closed_form():
    f = lambda x: x[..., 0] ** 2
    xs = np.linspace(0.0, 1.0, 100)[:, None]
    worst_eval = 0.0
    worst_deriv = 0.0
    for n in range(1, 101):
        model = mv.build_model(f, mv.CUBE, n, 1)
        got = mv.evaluate(model, xs)
        closed = xs[:, 0] ** 2 + xs[:, 0] * (1 - xs[:, 0]) / n
        worst_eval = max(worst_eval, float(np.max(np.abs(got - closed))))
        deriv = mv.derivative(mv.CUBE, f, (2,), n, xs)
        worst_deriv = max(
            worst_deriv, float(np.max(np.abs(deriv - 2.0 * (n - 1) / n)))
        )
    gate(
        "criterion 2: quadratic closed form",
        worst_eval <= 1e-12 and worst_deriv <= 1e-10,
        f"max eval err {worst_eval:.2e}, max deriv err {worst_deriv:.2e}",
    )


def test_criterion_03_derivative_oracle_equivalence():
    rng = np.random.default_rng(103)
    degrees = {1: (5, 23, 60), 2: (6, 17, 41), 3: (6, 23, 60)}
    worst = 0.0
    for d, n_values in degrees.items():
        orders = [
            tuple(int(v) for v in row)
            for row in mv.model_lattice(mv.SIMPLEX, 3, d)
        ]
        for name in CORPUS_NAMES:
            spec = corpus_member(name, d)
            for kind in (mv.CUBE, mv.SIMPLEX):
                for n in n_values:
                    # cap the heaviest sweep: full order set at moderate n,
                    # a representative subset at the largest degree
                    ks = orders if (d < 3 or n < 60) else orders[::3]
                    pts = np.array([random_point(kind, d, rng) for _ in range(20)])
                    for k in ks:
                        a = mv.derivative(kind, spec.value, k, n, pts)
                        b = mv.oracle_deriv(spec.value, kind, k, n, pts)
                        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
                        rel = float(np.max(np.abs(a - b) / scale))
                        worst = max(worst, rel)
    gate(
        "criterion 3: derivative oracle equivalence",
        worst <= 1e-9,
        f"max scaled deviation {worst:.2e}",
    )


def classical_1d_value(f, n, x):
    return sum(
        f(np.array([j / n])) * math.comb(n, j) * x**j * (1 - x) ** (n - j)
        for j in range(n + 1)
    )


def classical_1d_deriv(f, n, k, x):
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


def test_criterion_04_one_dimensional_reduction():
    rng = np.random.default_rng(104)
    f = lambda x: np.exp(x[..., 0]) + np.sin(2.0 * x[..., 0])
    worst = 0.0
    for n in (1, 2, 9, 24, 50):
        for _ in range(4):
            x = float(rng.random())
            model = mv.build_model(f, mv.SIMPLEX, n, 1)
            worst = max(
                worst, abs(mv.evaluate(model, np.array([x])) - classical_1d_value(f, n, x))
            )
            for k in range(0, 5):
                got = mv.derivative(mv.SIMPLEX, f, (k,), n, np.array([x]))
                worst = max(worst, abs(got - classical_1d_deriv(f, n, k, x)))
    gate(
        "criterion 4: one-dimensional reduction",
        worst <= 1e-12,
        f"max deviation {worst:.2e}",
    )


def test_criterion_05_commutativity():
    rng = np.random.default_rng(105)
    cases = [
        ((2, 3), (0.2, 0.15)),
        ((1, 2, 3), (0.1, 0.2, 0.05)),
        ((3, 1, 2, 1), (0.1, 0.05, 0.15, 0.2)),
    ]
    worst = 0.0
    for order, steps in cases:
        d = len(order)
        coeffs = rng.uniform(-1.0, 1.0, 4)
        freq = rng.uniform(0.5, 2.0, d)

        def f(p, c=coeffs, w=freq):
            return (
                c[0] * np.sin(p @ w)
                + c[1] * np.exp(p.sum(axis=-1) / 4.0)
                + c[2] * np.prod(p + 0.5, axis=-1)
                + c[3] * (p**3).sum(axis=-1)
            )

        spec = mv.DiffSpec(order, steps)
        x = rng.random(d) * 0.3
        base = mv.delta_mixed_iterated(f, x, spec)
        scale = max(1.0, abs(base))
        for perm in itertools.permutations(range(d)):
            seq = [ax for ax in perm for _ in range(order[ax])]
            got = mv.delta_mixed_iterated(f, x, spec, axis_sequence=seq)
            worst = max(worst, abs(got - base) / scale)
        stencil = mv.delta_mixed(f, x, spec)
        worst = max(worst, abs(stencil - base) / scale)
    gate(
        "criterion 5: mixed-difference commutativity",
        worst <= 1e-12,
        f"max scaled spread {worst:.2e}",
    )


def test_criterion_06_difference_integral_identity():
    polynomial = {"const1", "affine", "quad", "prodlin"}
    orders = {
        1: [(1,), (2,)],
        2: [(1, 0), (1, 1), (2, 1), (2, 2)],
        3: [(1, 1, 1), (2, 1, 0), (2, 2, 2)],
    }
    worst_poly = 0.0
    worst_smooth = 0.0
    for d, ks in orders.items():
        for name in CORPUS_NAMES:
            spec = corpus_member(name, d)
            for k in ks:
                for z in (0.1, 0.25):
                    dspec = mv.DiffSpec(k, (z,) * d)
                    x = np.full(d, 0.15)
                    lhs, rhs = mv.difference_integral_check(
                        spec.value, spec.partial_field(k), x, dspec, quad_points=32
                    )
                    diff = abs(lhs - rhs)
                    if name in polynomial:
                        worst_poly = max(worst_poly, diff)
                    else:
                        worst_smooth = max(worst_smooth, diff)
    gate(
        "criterion 6: difference vs iterated integral",
        worst_poly <= 1e-8 and worst_smooth <= 1e-6,
        f"polynomial {worst_poly:.2e} (<=1e-8), smooth {worst_smooth:.2e} (<=1e-6)",
    )


def test_criterion_07_uniform_convergence():
    failures = []
    details = []
    for name in ("sincos", "expsum"):
        for d in (2, 3):
            spec = corpus_member(name, d)
            orders = [
                (0,) * d,
                (1,) + (0,) * (d - 1),
                (1, 1) + (0,) * (d - 2),
                (2,) + (0,) * (d - 1),
            ]
            points = 33 if d == 2 else 17
            for kind in (mv.CUBE, mv.SIMPLEX):
                grid = GridSpec(kind, points, 0.0)
                for k in orders:
                    rep = convergence_table(kind, spec, k, (8, 16, 32, 64), grid)
                    errors = [e for _, e in rep.rows]
                    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
                    in_bracket = rep.fitted_rate is not None and -1.4 <= rep.fitted_rate <= -0.6
                    if not (decreasing and in_bracket):
                        failures.append((name, d, kind.name, k, errors, rep.fitted_rate))
                    details.append(rep.fitted_rate)
    gate(
        "criterion 7: uniform convergence of values and derivatives",
        not failures,
        f"32 tables, rates within [{min(details):.2f}, {max(details):.2f}]"
        if not failures
        else f"failing configs: {failures[:3]}",
    )


def test_criterion_08_probabilistic_representations():
    rng = np.random.default_rng(108)
    pool = []
    for name in ("affine", "quad", "prodlin", "sincos", "expsum"):
        for kind in (mv.CUBE, mv.SIMPLEX):
            for k in [None, (1, 0), (1, 1), (2, 0)]:
                for n in (12, 40):
                    pool.append((name, kind, k, n))
    passes = 0
    for trial in range(100):
        name, kind, k, n = pool[trial % len(pool)]
        spec = corpus_member(name, 2)
        x = random_point(kind, 2, rng)
        seed = 5000 + trial
        if k is None:
            report = mv.mc_eval(kind, spec.value, n, x, 100_000, seed)
        else:
            report = mv.mc_deriv(kind, spec.value, k, n, x, 100_000, seed)
        if abs(mv.z_score(report)) <= 5.0:
            passes += 1
    corner_ok = True
    for kind, corner in ((mv.CUBE, np.array([1.0, 0.0])), (mv.SIMPLEX, np.array([0.0, 1.0]))):
        spec = corpus_member("expsum", 2)
        report = mv.mc_eval(kind, spec.value, 16, corner, 1000, 9)
        corner_ok &= report.std_error == 0.0 and report.estimate == report.reference
    gate(
        "criterion 8: probabilistic representations",
        passes >= 99 and corner_ok,
        f"{passes}/100 trials within 5 standard errors, corners exact={corner_ok}",
    )


def test_criterion_09_partition_of_unity_and_annihilation():
    one = lambda x: np.ones(x.shape[:-1])
    rng = np.random.default_rng(109)
    worst_eval = 0.0
    worst_deriv = 0.0
    for d in (1, 2, 3):
        for kind in kinds_for(d, rng):
            for n in (5, 16, 33):
                model = mv.build_model(one, kind, n, d)
                pts = np.array([random_point(kind, d, rng) for _ in range(40)])
                corners = np.zeros((1, d))
                allpts = np.vstack([pts, corners])
                worst_eval = max(
                    worst_eval, float(np.max(np.abs(mv.evaluate(model, allpts) - 1.0)))
                )
                orders = [
                    tuple(int(v) for v in row)
                    for row in mv.model_lattice(mv.SIMPLEX, 2, d)
                    if row.sum() >= 1
                ]
                for k in orders:
                    got = mv.derivative(kind, one, k, n, pts)
                    worst_deriv = max(worst_deriv, float(np.max(np.abs(got))))
    gate(
        "criterion 9: partition of unity and annihilation",
        worst_eval <= 1e-12 and worst_deriv <= 1e-10,
        f"max |eval-1| {worst_eval:.2e}, max |deriv| {worst_deriv:.2e}",
    )


def test_criterion_10_cli_reproducibility(capsys):
    commands = [
        ["eval", "--kind", "cube", "--n", "20", "--dim", "1", "--function", "quad",
         "--point", "0.4"],
        ["deriv", "--kind", "simplex", "--n", "8", "--dim", "2", "--function",
         "prodlin", "--k", "1,1", "--point", "0.2,0.3"],
        ["mc", "--kind", "cube", "--n", "25", "--dim", "2", "--function", "sincos",
         "--point", "0.3,0.6", "--samples", "20000", "--seed", "31"],
        ["lemma-check", "--dim", "2", "--function", "expsum", "--k", "1,1",
         "--point", "0.2,0.3", "--z", "0.1,0.25"],
        ["converge", "--kind", "simplex", "--dim", "2", "--function", "expsum",
         "--k", "1,0", "--n-list", "8,16,32", "--grid", "9"],
        ["corpus"],
    ]
    ok = True
    for argv in commands:
        code1 = run(argv)
        out1 = capsys.readouterr().out
        code2 = run(argv)
        out2 = capsys.readouterr().out
        ok &= code1 == code2 == 0 and out1 == out2 and len(out1) > 0
    gate("criterion 10: CLI reproducibility", ok, f"{len(commands)} commands byte-identical")


def voronovskaya(spec, kind, x, k):
    """The order-k partial, |k| <= 1, of V f at x, where
    V f = 1/2 sum over the kind's simplex blocks of sum_ij x_i (delta_ij - x_j) f_ij
    (on a 1-wide block, 1/2 x_i (1 - x_i) f_ii); k = 0 is V f itself."""
    d = len(x)
    widths = {"cube": [1] * d, "simplex": [d], "mixed": [kind.d1] + [1] * (d - (kind.d1 or 0))}
    m = k.index(1) if sum(k) else None

    def partial(*axes):
        order = [0] * d
        for a in axes:
            order[a] += 1
        return float(spec.partial[tuple(order)](x))

    total = 0.0
    start = 0
    for w in widths[kind.name]:
        for i, j in itertools.product(range(start, start + w), repeat=2):
            c = x[i] * ((i == j) - x[j])
            if m is None:
                total += c * partial(i, j)
            else:
                dc = (i == m) * ((i == j) - x[j]) - x[i] * (j == m)
                total += dc * partial(i, j) + c * partial(i, j, m)
        start += w
    return total / 2


def test_criterion_11_voronovskaya_limit():
    """n (d^k B_n f - d^k f)(x) tends to d^k V f(x), the paper's claim with its constant.

    The remainder D(n) = n (d^k B_n f - d^k f)(x) - d^k V f(x) is c / n + c2 / n^2
    + O(n^-3), so r(n) = n D(n) = c + c2 / n + O(n^-2) settles, and each doubling
    of n halves the change in r. The gate takes r at four doublings and asks each
    change to be at most 0.65 of the one before (observed: at most 0.57, at the
    coarsest degrees), plus 1e-9 for rounding, which r carries times n^2. A wrong
    limit, off by delta, adds n delta to r, so its changes double instead.
    """
    cases = [
        (mv.CUBE, 2, (32, 64, 128, 256)),
        (mv.SIMPLEX, 2, (32, 64, 128, 256)),
        (mv.mixed(1), 2, (32, 64, 128, 256)),
        (mv.SIMPLEX, 3, (16, 32, 64, 128)),
        (mv.mixed(2), 3, (16, 32, 64, 128)),
    ]
    failures = []
    worst = 0.0
    count = 0
    for name in ("sincos", "expsum"):
        for kind, d, degrees in cases:
            spec = corpus_member(name, d)
            x = np.array([0.23, 0.41, 0.17][:d])
            for k in [(0,) * d] + [tuple(int(i == m) for i in range(d)) for m in range(d)]:
                limit = voronovskaya(spec, kind, x, k)
                exact = float(spec.partial[k](x))
                values = [mv.derivative(kind, spec.value, k, n, x) for n in degrees]
                r = [n * (n * (v - exact) - limit) for n, v in zip(degrees, values)]
                steps = np.abs(np.diff(r))
                worst = max(worst, float((steps[1:] / np.maximum(steps[:-1], 1e-300)).max()))
                count += 1
                if not np.all(steps[1:] <= 0.65 * steps[:-1] + 1e-9):
                    failures.append((name, kind, d, k, r))
    gate(
        "criterion 11: Voronovskaya limit of values and first derivatives",
        not failures,
        f"{count} limits, remainder changes shrink by at most {worst:.2f} per doubling"
        if not failures
        else f"failing configs: {failures[:3]}",
    )
