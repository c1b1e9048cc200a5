"""Command-line front end: evaluation, derivatives, Monte Carlo comparison,
difference-vs-integral checking, and convergence studies."""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .bernstein import CUBE, SIMPLEX, DomainError, Kind, build_model, derivative, evaluate, mixed
from .finite_diff import DiffSpec, difference_integral_check
from .harness import (
    CORPUS_NAMES,
    CORPUS_SMOOTHNESS,
    ConvergenceReport,
    GridSpec,
    convergence_table,
    corpus_member,
)
from .stochastic import mc_deriv, mc_eval, z_score


def _numbers(convert, what: str, text: str) -> tuple:
    """The comma-separated values of text, each read by convert; a token it
    refuses is an error naming it as an invalid `what`."""
    out = []
    for token in text.split(","):
        try:
            out.append(convert(token))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {what} {token!r}") from None
    return tuple(out)


_reals = functools.partial(_numbers, float, "real")
_ints = functools.partial(_numbers, int, "integer")


def _order(text: str) -> tuple[int, ...]:
    values = _ints(text)
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError(f"invalid order {text!r}: entries must be >= 0")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it as
    it is and fills a fresh Namespace with the defaults on every call."""
    parser = argparse.ArgumentParser(
        prog="mvbernstein",
        description="Bernstein approximation of smooth functions with derivative evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kinded=True, point=True):
        if kinded:
            p.add_argument("--kind", choices=("cube", "simplex", "mixed"), required=True)
            p.add_argument("--d1", type=int, default=None, help="simplex block width (mixed kind)")
        p.add_argument("--dim", type=int, required=True)
        p.add_argument("--function", required=True, help="corpus function name")
        if point:
            p.add_argument("--point", type=_reals, required=True, help="comma-separated coordinates")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("eval", help="evaluate the approximation at a point")
    common(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("deriv", help="evaluate a mixed partial derivative at a point")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=_order, required=True, help="comma-separated derivative order")

    p = sub.add_parser("mc", help="Monte Carlo estimate against the deterministic value")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=_order, default=None)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("lemma-check", help="mixed difference vs iterated integral of the partial")
    common(p, kinded=False)
    p.add_argument("--k", type=_order, required=True)
    p.add_argument("--z", type=_reals, default=(0.1,), help="comma-separated step sizes")
    p.add_argument("--quad-points", type=int, default=32)
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("converge", help="sup-error table over increasing degrees")
    common(p, point=False)
    p.add_argument("--n-list", type=_ints, required=True)
    p.add_argument("--k", type=_order, default=None)
    p.add_argument("--grid", type=int, default=33, help="grid points per axis")
    p.set_defaults(format="csv")

    p = sub.add_parser("corpus", help="list corpus functions")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _kind_of(ns) -> Kind:
    if ns.kind == "cube":
        return CUBE
    if ns.kind == "simplex":
        return SIMPLEX
    if ns.d1 is None:
        raise ValueError("mixed kind requires --d1")
    if not 1 <= ns.d1 <= ns.dim:
        raise ValueError("--d1 must lie between 1 and --dim")
    return mixed(ns.d1)


def _check_lengths(ns):
    if getattr(ns, "point", None) is not None and len(ns.point) != ns.dim:
        raise ValueError(f"point has {len(ns.point)} coordinates, expected {ns.dim}")
    k = getattr(ns, "k", None)
    if k is not None and len(k) != ns.dim:
        raise ValueError(f"order has {len(k)} entries, expected {ns.dim}")


def _render_scalar(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    head = ",".join(report)
    row = ",".join(_csv_cell(v) for v in report.values())
    return head + "\n" + row + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ";".join(str(u) for u in v)
    return str(v)


def _report_json(report: ConvergenceReport) -> dict:
    """A convergence table as the JSON object `converge` prints."""
    return {
        "function": report.function,
        "kind": report.kind.name,
        "k": list(report.k),
        "rows": [[n, e] for n, e in report.rows],
        "fitted_rate": report.fitted_rate,
    }


def _report_csv(report: ConvergenceReport) -> str:
    """A convergence table as `converge` prints it: '#' comments, a header, a row per degree."""
    rate = "na" if report.fitted_rate is None else repr(report.fitted_rate)
    lines = [
        f"# function={report.function}",
        f"# kind={report.kind.name}",
        "# k=" + ",".join(str(v) for v in report.k),
        f"# fitted_rate={rate}",
        "n,sup_error",
    ]
    lines.extend(f"{n},{e!r}" for n, e in report.rows)
    return "\n".join(lines) + "\n"


def _dispatch(ns) -> tuple[str, int]:
    if ns.command == "corpus":
        entries = [
            {"function": name, "dims": [1, 2, 3], "smoothness": CORPUS_SMOOTHNESS}
            for name in CORPUS_NAMES
        ]
        if ns.format == "json":
            return json.dumps(entries, indent=2) + "\n", 0
        lines = ["function,dims,smoothness"]
        lines += [f"{e['function']},{_csv_cell(e['dims'])},{e['smoothness']}" for e in entries]
        return "\n".join(lines) + "\n", 0

    _check_lengths(ns)
    spec = corpus_member(ns.function, ns.dim)
    point = np.asarray(ns.point, dtype=np.float64) if getattr(ns, "point", None) else None
    kind = _kind_of(ns) if "kind" in ns else None

    if ns.command == "eval":
        model = build_model(spec.value, kind, ns.n, ns.dim)
        return _render_scalar({"value": float(evaluate(model, point))}, ns.format), 0

    if ns.command == "deriv":
        value = float(derivative(kind, spec.value, ns.k, ns.n, point))
        return _render_scalar({"value": value}, ns.format), 0

    if ns.command == "mc":
        if ns.k is None or sum(ns.k) == 0:
            report = mc_eval(kind, spec.value, ns.n, point, ns.samples, ns.seed)
        else:
            report = mc_deriv(kind, spec.value, ns.k, ns.n, point, ns.samples, ns.seed)
        payload = {
            "estimate": report.estimate,
            "std_error": report.std_error,
            "reference": report.reference,
            "z_score": z_score(report),
        }
        return _render_scalar(payload, ns.format), 0

    if ns.command == "lemma-check":
        if sum(ns.k) > spec.smoothness:
            raise ValueError(f"order exceeds registered smoothness {spec.smoothness}")
        steps = ns.z if len(ns.z) == ns.dim else ns.z * ns.dim
        if len(steps) != ns.dim:
            raise ValueError(f"steps have {len(ns.z)} entries, expected 1 or {ns.dim}")
        diff_spec = DiffSpec(ns.k, steps)
        lhs, rhs = difference_integral_check(
            spec.value, spec.partial_field(ns.k), point, diff_spec, ns.quad_points
        )
        abs_diff = abs(lhs - rhs)
        payload = {"lhs": lhs, "rhs": rhs, "abs_diff": abs_diff}
        return _render_scalar(payload, ns.format), 0 if abs_diff <= ns.tol else 1

    if ns.command == "converge":
        order = ns.k if ns.k is not None else (0,) * ns.dim
        grid = GridSpec(kind=kind, points_per_axis=ns.grid)
        report = convergence_table(kind, spec, order, ns.n_list, grid)
        if ns.format == "json":
            return json.dumps(_report_json(report), indent=2) + "\n", 0
        return _report_csv(report), 0

    raise ValueError(f"unknown command {ns.command!r}")


def run(argv=None) -> int:
    """Parse argv, execute, and print a report; returns the process exit code."""
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        text, code = _dispatch(ns)
    except (DomainError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
