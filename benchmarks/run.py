"""Run one benchmark workload in this process and print one JSON result line.

    python3 benchmarks/run.py --workload batch --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics, measured with
no wrapper installed. With ``--trace 1`` it carries the per-layer metrics
from a traced replay of the same passes. Details (metadata, sample counts,
failures, spans) go to ``benchmarks/out/``. See benchmarks/README.md.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are fixed at one thread before numpy loads: one
# client in one process, and no pool contending with the timed calls.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Ops, reference_work  # noqa: E402

SETUP_REPEATS = 7
# reference_work's mean CPU time on the reference host (2 vCPUs of an Intel
# Xeon KVM guest), run every REFERENCE_EVERY_S wall seconds of a measured run
REFERENCE_S = 0.007
REFERENCE_EVERY_S = 0.2
MIN_REFERENCE_RUNS = 5
KINDS = ("cube", "simplex", "mixed")

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "request_p50_ms": "ms",
                    "request_p99_ms": "ms", "pass_s": "s"}
for _kind in KINDS:
    END_TO_END_UNITS[f"{_kind}.eval_pts_per_s"] = "1/s"
    END_TO_END_UNITS[f"{_kind}.deriv_pts_per_s"] = "1/s"
PER_LAYER_UNITS = dict(spans.PER_LAYER_UNITS, error_rate="ratio")


def fresh_import():
    """Import the package from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "mvbernstein" or m.startswith("mvbernstein.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mv = importlib.import_module("mvbernstein")
    importlib.import_module("mvbernstein.cli")
    if pathlib.Path(mv.__file__).resolve().parent != SRC / "mvbernstein":
        raise ImportError(f"mvbernstein imported from {mv.__file__}, not from {SRC}")
    return mv


def run_passes(wl, ops, budget_s=None, count=None, tracer=None, between=None):
    """Run passes until the next would overrun budget_s, or exactly count passes.

    between(elapsed), if given, runs after each pass, outside the timed calls.
    """
    start = time.perf_counter()
    last = 0.0
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i > 0 and time.perf_counter() - start + last > budget_s:
            break
        ops.pass_index = i
        t0 = time.perf_counter()
        if tracer is None:
            wl.run_pass(i, ops)
        else:
            tracer.span("bench.pass", wl.run_pass, i, ops)
        last = time.perf_counter() - t0
        i += 1
        if between is not None:
            between(time.perf_counter() - start)
    return i, time.perf_counter() - start


def end_to_end(ops, passes: int, setup_s: float, rss_mb: float, scale: float) -> dict:
    """Metrics from each request class's service time.

    A call's elapsed time is the CPU time the process spent on it. The
    package is single-threaded and does no I/O, so on an idle host that is
    its wall time. On a shared virtual host, wall time also counts the time
    the host ran other tenants instead (steal); CPU time leaves that out.

    Co-tenants still slow the CPU itself: in spells of seconds that run
    calls up to 2x slower, and in drifts over minutes of about 20%. The
    spells make a class's times bimodal, so its median or minimum jumps
    with the mode a run caught most, while its mean moves only in
    proportion: a class's service time is the mean of its calls' CPU times.
    The drifts move every class of a run together, and reference_work with
    them, so times are multiplied by scale, REFERENCE_S over the run's mean
    reference_work time: they read as on a host where that work takes
    REFERENCE_S.

    Request latency percentiles are taken over every request, each at its
    class's service time; raw wall-clock percentiles go to the details file.
    """
    by_label: dict[str, list] = {}
    for op in ops.records:
        by_label.setdefault(op.label, []).append(op)
    service = {label: scale * statistics.fmean(op.elapsed for op in recs) for label, recs in by_label.items()}
    out = {"setup_s": scale * setup_s, "peak_rss_mb": rss_mb}
    for kind in KINDS:
        for family in ("eval", "deriv"):
            points = busy = 0.0
            for label, recs in by_label.items():
                if recs[0].kind == kind and recs[0].family == family:
                    points += sum(op.points for op in recs)
                    busy += len(recs) * service[label]
            if not points:
                raise RuntimeError(f"workload made no {family} calls on {kind}")
            out[f"{kind}.{family}_pts_per_s"] = points / busy
    lat = np.array([service[op.label] for op in ops.records]) * 1e3
    out["request_p50_ms"] = float(np.percentile(lat, 50))
    out["request_p99_ms"] = float(np.percentile(lat, 99))
    out["pass_s"] = sum(len(recs) * service[label] for label, recs in by_label.items()) / passes
    groups: dict[str, float] = {}
    for label, recs in by_label.items():
        group = label.split(".", 1)[0]
        groups[group] = groups.get(group, 0.0) + len(recs) * service[label] / passes
    return out, groups


def failures(ops) -> list[str]:
    listed = list(ops.untimed_failures)
    for op in ops.records:
        reason = op.error or op.failure
        if reason:
            listed.append(f"pass {op.pass_index} {op.family} {op.kind} {op.info[:4]!r}: {reason}")
    return listed


def _git_commit() -> str:
    """HEAD of the repository, read from .git without running git; absent in exports."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cache_sizes() -> dict:
    # glibc sysconf names _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    out = {}
    for label, code in (("l1d", 188), ("l2", 191), ("l3", 194)):
        try:
            out[label] = os.sysconf(code)
        except (ValueError, OSError):
            out[label] = None
    return out


def metadata(wl, **extra) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return dict(
        git_commit=_git_commit(),
        python=platform.python_version(),
        numpy=np.__version__,
        blas=blas,
        threads={v: os.environ[v] for v in THREAD_VARS},
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        cache_bytes=_cache_sizes(),
        src_lines=src_lines,
        models=wl.models(),
        **extra,
    )


def run_workload(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result, details)."""
    cls = WORKLOADS[name]
    clock = time.perf_counter
    if not trace:
        # measured runs time CPU work, not wall time: see end_to_end
        clock = time.process_time
        setup_times = []

        def timed_setup():
            gc.collect()
            t0 = clock()
            mv = fresh_import()
            fresh = cls(seed, tiny=tiny)
            fresh.setup(mv)
            setup_times.append(clock() - t0)
            return fresh

        # The other set-ups are spread over the timed phase, so their median
        # sees the host's varying speed as the passes do. Each builds its own
        # package and workload objects; the running workload keeps its own.
        due = [seconds * j / SETUP_REPEATS for j in range(1, SETUP_REPEATS)]

        def between(elapsed):
            while due and elapsed >= due[0]:
                due.pop(0)
                timed_setup()

        wl = timed_setup()
        ops = Ops(clock, reference_every=REFERENCE_EVERY_S)
        wl.prepare(ops)
        gc.collect()
        passes, wall = run_passes(wl, ops, budget_s=seconds, between=between)
        while len(setup_times) < SETUP_REPEATS:
            timed_setup()
        while len(ops.reference_times) < MIN_REFERENCE_RUNS:
            ops.reference_times.append(reference_work(clock))
        reference_s = statistics.fmean(ops.reference_times)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, groups = end_to_end(ops, passes, statistics.median(setup_times), rss_mb,
                                     REFERENCE_S / reference_s)
        units = END_TO_END_UNITS
        raw = np.array([op.wall for op in ops.records]) * 1e3
        extra = dict(reference_work_s=reference_s, reference_runs=len(ops.reference_times),
                     setup_times_s=setup_times, passes=passes, timed_wall_s=wall,
                     service_s_per_pass_by_group=groups,
                     raw_request_p50_ms=float(np.percentile(raw, 50)),
                     raw_request_p99_ms=float(np.percentile(raw, 99)))
        span_rows = None
    else:
        tracer = spans.Tracer()
        mv = fresh_import()
        wl = cls(seed, wrap_f=tracer.wrap_user, tiny=tiny)
        tracer.install()
        tracer.recording = True
        t0 = clock()
        tracer.span("bench.setup", wl.setup, mv)
        setup_wall = clock() - t0
        tracer.recording = False
        tracer.uninstall()
        ops = Ops(clock)
        wl.prepare(ops)
        gc.collect()
        # the same passes, first bare, then traced: their difference is the overhead
        passes, bare_wall = run_passes(wl, ops, budget_s=seconds / 2.0)
        tracer.install()
        tracer.recording = True
        ops.tracer = tracer
        _, traced_wall = run_passes(wl, ops, count=passes, tracer=tracer)
        tracer.recording = False
        ops.tracer = None
        tracer.measuring_alloc = True
        run_passes(wl, Ops(clock), count=1)
        tracer.uninstall()
        metrics = spans.per_layer_metrics(tracer.spans, passes, traced_wall - bare_wall, tracer.peak_alloc_mb)
        units = PER_LAYER_UNITS
        extra = dict(passes=passes, bare_wall_s=bare_wall, traced_wall_s=traced_wall, setup_wall_s=setup_wall)
        span_rows = tracer.spans
    wl.check(ops)
    failed_list = failures(ops)
    attempted = len(ops.records) + ops.untimed_checks
    failed = len(failed_list)
    if trace:
        metrics["error_rate"] = failed / attempted
    counts = {}
    for op in ops.records:
        key = f"{op.family}.{op.kind}" if op.kind else op.family
        counts[key] = counts.get(key, 0) + 1
    details = dict(
        meta=metadata(wl, workload=name, seed=seed, seconds=seconds, trace=trace, **extra),
        requests=len(ops.records),
        requests_by_type=counts,
        failures=failed_list,
    )
    if span_rows is not None:
        details["spans"] = span_rows
    result = dict(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics={k: {"value": metrics[k], "unit": units[k]} for k in units},
    )
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mvbernstein" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    result, details = run_workload(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, default=str))
    for line in details["failures"][:20]:
        print(f"FAILED {line}", file=sys.stderr)
    summary = {k: v for k, v in details.items() if k != "spans"}
    print(json.dumps(summary, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
