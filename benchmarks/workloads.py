"""The three benchmark workloads: ``batch``, ``point`` and ``verify``.

Each workload is a closed loop with one client: it sends its next call only
after the previous one returns. A run is a sequence of passes; pass ``i``
draws its inputs from ``(seed, i)``, so the traced run can replay the same
passes with and without wrappers. All package functions are looked up
through the module objects at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import time

import numpy as np

POLYNOMIAL = ("const1", "affine", "quad", "prodlin")
MC_FUNCTIONS = ("affine", "quad", "prodlin", "sincos", "expsum")

# acceptance-gate tolerances (criteria 3, 6, 7 and 8 of tests/test_acceptance.py)
ORACLE_TOL = 1e-9
QUAD_TOL_POLY = 1e-8
QUAD_TOL_SMOOTH = 1e-6
RATE_BRACKET = (-1.4, -0.6)
Z_MAX = 5.0


class Op:
    """One timed call: what it was, how long it took, what it returned."""

    __slots__ = ("pass_index", "label", "family", "kind", "points", "elapsed", "wall", "out", "error", "info",
                 "failure")

    def __init__(self, pass_index, label, family, kind, points, info):
        self.pass_index = pass_index
        self.label = label
        self.family = family
        self.kind = kind
        self.points = points
        self.info = info
        self.elapsed = 0.0
        self.wall = 0.0
        self.out = None
        self.error = None
        self.failure = None


_REF_RNG = np.random.default_rng(7)
_REF_VECTOR = _REF_RNG.random(20000)
_REF_A = _REF_RNG.random((2000, 50))
_REF_B = _REF_RNG.random((50, 50))


def reference_work(clock) -> float:
    """Time, by clock, of a fixed computation that does not touch the package.

    Its three parts have the package's three kinds of cost: a pure-Python
    loop, many numpy calls on tiny arrays, and a few on large ones. On a
    shared host the time they take drifts with the host's load, by 20% over
    minutes, together with the package's own call times.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    t0 = clock()
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    for _ in range(400):
        np.sum(_REF_VECTOR[:50] * 2.0)
    for _ in range(3):
        np.exp(_REF_VECTOR).sum()
        (_REF_A @ _REF_B).sum()
    elapsed = clock() - t0
    if gc_was_on:
        gc.enable()
    return elapsed


class Ops:
    """Records every timed call of a run; checks mark failures afterwards.

    clock gives a call's elapsed time; its wall time is kept beside it.
    With reference_every set, reference_work runs after a call whenever
    that many wall seconds have passed since it last ran, outside the timers.
    """

    def __init__(self, clock, tracer=None, reference_every=None):
        self.clock = clock
        self.tracer = tracer
        self.records: list[Op] = []
        self.pass_index = 0
        self.untimed_checks = 0
        self.untimed_failures: list[str] = []
        self.reference_every = reference_every
        self.reference_times: list[float] = []
        self._reference_at = 0.0

    def call(self, label, family, kind, points, info, fn, *args, keep=None):
        """Time fn(*args); keep(out), if given, is what is stored for checking.

        label names the request class: calls with one label do the same work
        on different inputs. family is "eval" or "deriv" for production calls
        on a model kind, else the cross-check route.
        """
        op = Op(self.pass_index, label, family, kind, points, info)
        if self.tracer is not None:
            self.tracer.request = len(self.records)
        w0 = time.perf_counter()
        t0 = self.clock()
        try:
            out = fn(*args)
        except Exception as err:  # a raised exception is a failed operation
            out = None
            op.error = f"{type(err).__name__}: {err}"
        op.elapsed = self.clock() - t0
        op.wall = time.perf_counter() - w0
        op.out = out if keep is None or out is None else keep(out)
        self.records.append(op)
        if self.reference_every is not None and time.perf_counter() - self._reference_at >= self.reference_every:
            self.reference_times.append(reference_work(self.clock))
            self._reference_at = time.perf_counter()
        return op

    def fail(self, op: Op, reason: str):
        if op.failure is None:
            op.failure = reason

    def check_untimed(self, ok: bool, what: str):
        """A check made outside the timed phase, such as a reference value."""
        self.untimed_checks += 1
        if not ok:
            self.untimed_failures.append(what)


def scaled_dev(a, b) -> float:
    """Criterion 3's measure: max |a - b| / max(1, |a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


def make_kind(mv, label: str):
    """'cube', 'simplex' or 'mixed<d1>'."""
    if label.startswith("mixed"):
        return mv.mixed(int(label[5:]))
    return {"cube": mv.CUBE, "simplex": mv.SIMPLEX}[label]


def domain_points(rng, kind, d: int, m: int) -> np.ndarray:
    """m uniform points of the kind's domain."""
    if kind.name == "cube":
        return rng.random((m, d))
    w = kind.d1 if kind.name == "mixed" else d
    e = rng.exponential(size=(m, w + 1))
    block = (e / e.sum(axis=1, keepdims=True))[:, :w]
    return block if w == d else np.hstack([block, rng.random((m, d - w))])


def orders_upto(d: int, total: int):
    return [
        tuple(int(v) for v in k)
        for k in np.ndindex(*([total + 1] * d))
        if sum(k) <= total
    ]


class Workload:
    name = ""
    CONFIG: dict = {}
    TINY: dict = {}

    def __init__(self, seed: int, wrap_f=None, tiny: bool = False):
        self.seed = int(seed)
        self.cfg = self.TINY if tiny else self.CONFIG
        self.traced = wrap_f is not None
        self.wrap_f = wrap_f if self.traced else (lambda fn: fn)
        self.mv = None

    def rng(self, *key) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def user_f(self, spec):
        """The corpus spec with its value and partials as the benchmark's f."""
        if not self.traced:
            return spec
        return dataclasses.replace(
            spec,
            value=self.wrap_f(spec.value),
            partial={k: self.wrap_f(v) for k, v in spec.partial.items()},
        )

    def setup(self, mv):
        raise NotImplementedError

    def prepare(self, ops: Ops):
        """Untimed work after set-up: reference values and their checks."""

    def run_pass(self, i: int, ops: Ops):
        raise NotImplementedError

    def check(self, ops: Ops):
        raise NotImplementedError

    def models(self) -> list[dict]:
        raise NotImplementedError


def _model_meta(model, **extra) -> dict:
    kind = model.kind.name + (str(model.kind.d1) if model.kind.d1 else "")
    return dict(kind=kind, d=model.dim, n=model.degree, L=int(model.samples.size), **extra)


# ---------------------------------------------------------------------------


class Batch(Workload):
    """Values and two derivatives over 2,000-point batches on every kind.

    The three models have near-equal sample counts L, the basis on which
    kinds are compared. A pass runs each kind's batches back to back; cube
    batches are ~40x cheaper, so a pass runs more of them.
    """

    name = "batch"
    CONFIG = dict(
        models=(("cube", 3, 16), ("simplex", 3, 29), ("mixed2", 3, 20)),
        batches={"cube": 16, "simplex": 1, "mixed": 1},
        points=2000,
        warm_points=64,
        orders=((1, 0, 0), (1, 1, 0)),
        check_rows=8,
    )
    TINY = dict(CONFIG, models=(("cube", 3, 4), ("simplex", 3, 5), ("mixed2", 3, 4)),
                batches={"cube": 2, "simplex": 1, "mixed": 1}, points=40, warm_points=8)

    def setup(self, mv):
        self.mv = mv
        self.f = self.wrap_f(mv.corpus_member("sincos", 3).value)
        self.entries = []
        for label, d, n in self.cfg["models"]:
            kind = make_kind(mv, label)
            model = mv.build_model(self.f, kind, n, d)
            self.entries.append((kind, model))
        rng = self.rng(0xFFFF)
        for kind, model in self.entries:
            x = domain_points(rng, kind, model.dim, self.cfg["warm_points"])
            mv.evaluate(model, x)
            for k in self.cfg["orders"]:
                mv.derivative(kind, self.f, k, model.degree, x)

    def run_pass(self, i, ops):
        mv, cfg = self.mv, self.cfg
        rows = cfg["check_rows"]

        def head(out):
            return np.array(out[:rows])

        for e, (kind, model) in enumerate(self.entries):
            n, d = model.degree, model.dim
            for b in range(cfg["batches"][kind.name]):
                x = domain_points(self.rng(i, e, b), kind, d, cfg["points"])
                m, sub = x.shape[0], x[:rows].copy()
                ops.call(f"{kind.name}.eval", "eval", kind.name, m, (kind, n, (0,) * d, sub),
                         mv.evaluate, model, x, keep=head)
                for k in cfg["orders"]:
                    ops.call(f"{kind.name}.deriv{k}", "deriv", kind.name, m, (kind, n, k, sub),
                             mv.derivative, kind, self.f, k, n, x, keep=head)

    def check(self, ops):
        for op in ops.records:
            if op.error is not None:
                continue
            kind, n, k, sub = op.info
            want = self.mv.oracle_deriv(self.f, kind, k, n, sub)
            dev = scaled_dev(op.out, want)
            if not dev <= ORACLE_TOL:
                ops.fail(op, f"oracle scaled deviation {dev:.3e} > {ORACLE_TOL}")

    def models(self):
        return [_model_meta(m) for _, m in self.entries]


# ---------------------------------------------------------------------------


class Point(Workload):
    """Single-point requests of five types against four prebuilt models.

    Per-call fixed costs dominate: point validation, lattice enumeration,
    re-sampling f on every derivative, corpus construction and argparse on
    every CLI call, and text parsing. The d=5 simplex sets the tail.
    A pass is a fixed deck of requests in a seeded order.
    """

    name = "point"
    CONFIG = dict(
        models=(
            ("cube", 2, 16, "sincos"),
            ("simplex", 3, 16, "expsum"),
            ("mixed1", 3, 12, "sincos"),
            ("simplex", 5, 16, "expsum"),
        ),
        # requests per pass for each model, by type; the last model is the large one
        deck_small={"eval": 3, "deriv": 3, "cli_eval": 1, "cli_deriv": 1, "load_eval": 2},
        deck_large={"eval": 1, "deriv": 1, "cli_eval": 1, "cli_deriv": 1, "load_eval": 1},
        pool=8,
    )
    TINY = dict(CONFIG, models=(("cube", 2, 3, "sincos"), ("simplex", 3, 3, "expsum"),
                                ("mixed1", 3, 2, "sincos"), ("simplex", 5, 2, "expsum")), pool=2)

    FAMILY = {"eval": "eval", "deriv": "deriv", "cli_eval": "eval", "cli_deriv": "deriv", "load_eval": "eval"}

    def setup(self, mv):
        self.mv = mv
        self.entries = []
        for label, d, n, fname in self.cfg["models"]:
            kind = make_kind(mv, label)
            f = self.wrap_f(mv.corpus_member(fname, d).value)
            model = mv.build_model(f, kind, n, d)
            self.entries.append(dict(kind=kind, f=f, fname=fname, model=model, text=mv.dump_model(model)))
        rng = self.rng(0xFFFF)
        for e in self.entries:
            x = domain_points(rng, e["kind"], e["model"].dim, 1)[0]
            self._request(e, "eval", x, None)
            self._request(e, "deriv", x, (1,) + (0,) * (e["model"].dim - 1))
            self._request(e, "cli_eval", x, None)
            self._request(e, "load_eval", x, None)

    def _argv(self, e, command, x, k):
        model = e["model"]
        argv = [command, "--kind", model.kind.name, "--n", str(model.degree), "--dim",
                str(model.dim), "--function", e["fname"], "--point", ",".join(repr(float(v)) for v in x)]
        if model.kind.d1:
            argv += ["--d1", str(model.kind.d1)]
        if k is not None:
            argv += ["--k", ",".join(str(v) for v in k)]
        return argv

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.mv.cli.run(argv)
        return code, out.getvalue()

    def _request(self, e, rtype, x, k):
        mv, model = self.mv, e["model"]
        if rtype == "eval":
            return mv.evaluate(model, x)
        if rtype == "deriv":
            return mv.derivative(e["kind"], e["f"], k, model.degree, x)
        if rtype == "load_eval":
            return mv.evaluate(mv.parse_model(e["text"]), x)
        return self._cli(self._argv(e, rtype[4:], x, k))

    def prepare(self, ops):
        """Reference answers per pool entry, each checked against the oracle."""
        mv = self.mv
        for idx, e in enumerate(self.entries):
            model, kind = e["model"], e["kind"]
            d, n = model.dim, model.degree
            rng = self.rng(0xFFFE, idx)
            xs = domain_points(rng, kind, d, self.cfg["pool"])
            # a fixed cycle of two orders, |k| = 1 and 2, so every seed asks for the same
            # work and each derivative class gets enough samples
            orders = ((1,) + (0,) * (d - 1), (1, 1) + (0,) * (d - 2))
            e["pool"] = [(x, orders[q % len(orders)]) for q, x in enumerate(xs)]
            e["ref_eval"] = [mv.evaluate(model, x) for x in xs]
            e["ref_deriv"] = [mv.derivative(kind, e["f"], k, n, x) for x, k in e["pool"]]
            oracle_vals = mv.oracle_deriv(e["f"], kind, (0,) * d, n, xs)
            for q, (x, k) in enumerate(e["pool"]):
                what = f"reference {kind.name} d={d} n={n} x={list(x)}"
                ops.check_untimed(scaled_dev(e["ref_eval"][q], oracle_vals[q]) <= ORACLE_TOL, what + " value")
                want = mv.oracle_deriv(e["f"], kind, k, n, x)
                ops.check_untimed(scaled_dev(e["ref_deriv"][q], want) <= ORACLE_TOL, what + f" k={k}")

    def run_pass(self, i, ops):
        rng = self.rng(i)
        deck = []
        for idx, _ in enumerate(self.entries):
            counts = self.cfg["deck_large" if idx == len(self.entries) - 1 else "deck_small"]
            deck += [(idx, rtype) for rtype, c in counts.items() for _ in range(c)]
        # pool entries are taken in turn, so every seed asks for the same mix of orders
        for j in rng.permutation(len(deck)):
            idx, rtype = deck[j]
            e = self.entries[idx]
            q = (i * len(deck) + j) % len(e["pool"])
            x, k = e["pool"][q]
            label = f"{idx}.{rtype}"
            if self.FAMILY[rtype] == "deriv":
                label += f".{k}"
            else:
                k = None
            ops.call(label, self.FAMILY[rtype], e["kind"].name, 1, (idx, rtype, q),
                     self._request, e, rtype, x, k)

    def check(self, ops):
        for op in ops.records:
            if op.error is not None:
                continue
            idx, rtype, q = op.info
            e = self.entries[idx]
            ref = e["ref_deriv" if self.FAMILY[rtype] == "deriv" else "ref_eval"][q]
            got = op.out
            if rtype.startswith("cli"):
                code, text = op.out
                if code != 0:
                    ops.fail(op, f"cli exit code {code}")
                    continue
                got = json.loads(text)["value"]
            if got != ref:
                ops.fail(op, f"{rtype} returned {got!r}, reference {ref!r}")

    def models(self):
        return [_model_meta(e["model"], function=e["fname"]) for e in self.entries]


# ---------------------------------------------------------------------------


class Verify(Workload):
    """A fixed, reduced run of the acceptance gates, in two parts.

    converge: sup-error tables for sincos over five domains (mixed d=3 is
    left out: one of its tables takes ~45 s with the dense mixed evaluator).
    The cheap tables run in every round, between the heavy ones, so their
    samples spread over the run.
    crosscheck: production against oracle, Monte Carlo and quadrature.
    """

    name = "verify"
    CONFIG = dict(
        # (kind, d, grid points per axis, cheap: run in every round)
        domains=(("cube", 2, 33, True), ("cube", 3, 17, True), ("simplex", 2, 33, True),
                 ("simplex", 3, 17, False), ("mixed1", 2, 33, False)),
        rounds=4,
        n_list=(8, 16, 32, 64),
        oracle_kinds=("cube", "simplex", "mixed1"),
        oracle_degree={2: 16, 3: 12},
        oracle_points=20,
        mc_degree=12,
        mc_samples=100_000,
        quad_orders=((1,), (2,), (1, 0), (1, 1), (2, 1), (2, 2), (1, 1, 1), (2, 1, 0), (2, 2, 2)),
        quad_steps=(0.1, 0.25),
    )
    TINY = dict(CONFIG, domains=(("cube", 2, 9, True), ("simplex", 2, 9, False), ("mixed1", 2, 9, False)),
                n_list=(8, 16), oracle_degree={2: 4, 3: 3}, oracle_points=2, mc_samples=2000,
                quad_orders=((1,), (1, 1)), quad_steps=(0.1,))

    def setup(self, mv):
        self.mv = mv
        self.domains = []
        for label, d, grid, cheap in self.cfg["domains"]:
            kind = make_kind(mv, label)
            spec = mv.GridSpec(kind, grid, 0.0)
            rows = int(mv.grid_points(spec, d).shape[0])
            self.domains.append((kind, d, spec, rows, cheap))
            mv.convergence_table(kind, mv.corpus_member("sincos", d), (1,) + (0,) * (d - 1), (2, 3),
                                 mv.GridSpec(kind, 3, 0.0))

    def _orders(self, d):
        return ((0,) * d, (1,) + (0,) * (d - 1), (1,) * d)

    def run_pass(self, i, ops):
        mv, cfg = self.mv, self.cfg
        # converge: each round runs every cheap table and its share of the heavy
        # ones; specs are rebuilt for each table so no call reuses another's objects
        cheap = [(dom, k) for dom in self.domains if dom[4] for k in self._orders(dom[1])]
        heavy = [(dom, k) for dom in self.domains if not dom[4] for k in self._orders(dom[1])]
        rounds = cfg["rounds"]
        for r in range(rounds):
            share = heavy[len(heavy) * r // rounds:len(heavy) * (r + 1) // rounds]
            for (kind, d, grid, rows, _), k in cheap + share:
                spec = self.user_f(mv.corpus_member("sincos", d))
                family = "eval" if sum(k) == 0 else "deriv"
                points = rows * len(cfg["n_list"])
                ops.call(f"converge.{kind.name}{d}.{k}", family, kind.name, points, ("converge", kind, d, k),
                         mv.convergence_table, kind, spec, k, cfg["n_list"], grid)
        rng = self.rng(i)
        # crosscheck: each request is one check group, as a user would run it
        for label in cfg["oracle_kinds"]:
            kind = make_kind(mv, label)
            for d, n in cfg["oracle_degree"].items():
                name = mv.CORPUS_NAMES[int(rng.integers(0, len(mv.CORPUS_NAMES)))]
                f = self.wrap_f(mv.corpus_member(name, d).value)
                x = domain_points(rng, kind, d, cfg["oracle_points"])
                ops.call(f"oracle.{kind.name}{d}", "oracle", kind.name, len(x), ("oracle", kind, d, n, name),
                         self._oracle_group, kind, f, n, d, x)
        for label in cfg["oracle_kinds"]:
            kind = make_kind(mv, label)
            name = MC_FUNCTIONS[int(rng.integers(0, len(MC_FUNCTIONS)))]
            f = self.wrap_f(mv.corpus_member(name, 2).value)
            x = domain_points(rng, kind, 2, 1)[0]
            mc_seed = int(rng.integers(0, 2**32))
            n, m = cfg["mc_degree"], cfg["mc_samples"]
            ops.call(f"mc_eval.{kind.name}", "mc", kind.name, 1, ("mc", kind, name, None, x),
                     mv.mc_eval, kind, f, n, x, m, mc_seed)
            for k in ((1, 0), (1, 1)):
                ops.call(f"mc_deriv.{kind.name}.{k}", "mc", kind.name, 1, ("mc", kind, name, k, x),
                         mv.mc_deriv, kind, f, k, n, x, m, mc_seed)
        for d in sorted({len(k) for k in cfg["quad_orders"]}):
            cases = []
            for k in (k for k in cfg["quad_orders"] if len(k) == d):
                for z in cfg["quad_steps"]:
                    name = mv.CORPUS_NAMES[int(rng.integers(0, len(mv.CORPUS_NAMES)))]
                    cases.append((self.user_f(mv.corpus_member(name, d)), k, z, rng.uniform(0.05, 0.6, d)))
            ops.call(f"quad.{d}", "quad", None, len(cases), ("quad", d), self._quad_group, cases)

    def _oracle_group(self, kind, f, n, d, x):
        """Closed form against the differentiated-basis oracle for every |k| <= 2."""
        mv = self.mv
        out = []
        for k in orders_upto(d, 2):
            if sum(k) == 0:
                got = mv.evaluate(mv.build_model(f, kind, n, d), x)
            else:
                got = mv.derivative(kind, f, k, n, x)
            out.append((k, got, mv.oracle_deriv(f, kind, k, n, x)))
        return out

    def _quad_group(self, cases):
        """Mixed difference against the iterated integral of the partial."""
        mv = self.mv
        return [
            (spec.name, k, z, mv.difference_integral_check(
                spec.value, spec.partial_field(k), x, mv.DiffSpec(k, (z,) * len(k)), 32))
            for spec, k, z, x in cases
        ]

    def check(self, ops):
        for op in ops.records:
            if op.error is not None:
                continue
            tag = op.info[0]
            if tag == "converge":
                errors = [e for _, e in op.out.rows]
                rate = op.out.fitted_rate
                decreasing = all(b < a for a, b in zip(errors, errors[1:]))
                in_bracket = rate is not None and RATE_BRACKET[0] <= rate <= RATE_BRACKET[1]
                if not (decreasing and in_bracket):
                    ops.fail(op, f"errors {errors} rate {rate}")
            elif tag == "oracle":
                for k, got, want in op.out:
                    dev = scaled_dev(got, want)
                    if not dev <= ORACLE_TOL:
                        ops.fail(op, f"k={k}: oracle scaled deviation {dev:.3e} > {ORACLE_TOL}")
            elif tag == "mc":
                z = self.mv.z_score(op.out)
                if not abs(z) <= Z_MAX:
                    ops.fail(op, f"|z| = {abs(z):.3g} > {Z_MAX}")
            elif tag == "quad":
                for name, k, z, (lhs, rhs) in op.out:
                    tol = QUAD_TOL_POLY if name in POLYNOMIAL else QUAD_TOL_SMOOTH
                    if not abs(lhs - rhs) <= tol:
                        ops.fail(op, f"{name} k={k} z={z}: |lhs - rhs| = {abs(lhs - rhs):.3e} > {tol}")

    def models(self):
        out = []
        for kind, d, grid, rows, _ in self.domains:
            label = kind.name + (str(kind.d1) if kind.d1 else "")
            sizes = [self.mv.model_size(kind, n, d) for n in self.cfg["n_list"]]
            out.append(dict(kind=label, d=d, n=list(self.cfg["n_list"]), L=sizes, grid_rows=rows))
        return out


WORKLOADS = {cls.name: cls for cls in (Batch, Point, Verify)}
