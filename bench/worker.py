"""One benchmark process: imports, seeded inputs, the timed loop, checks, metrics.

run.py starts it and times its start-up. It prints 'ready' once imports and
inputs are done, then human-readable lines, then one JSON result as its
last line. Whole tasks run back to back while the next one, judged by the
last, still ends within --seconds. With
--trace 1 untraced and traced tasks alternate: the traced ones give the
per-layer numbers, the difference of the two medians the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import chordnoise  # noqa: E402
import chordnoise.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def layer_metrics(totals: dict, facts: dict) -> dict:
    t, calls = totals["total_s"], totals["calls"]
    build_s = t.get("spectral.build_noisy_propagator", 0.0)
    main_s = t.get("cli.main", 0.0)
    self_s = main_s - totals["cli_library_s"] if main_s else 0.0
    dims = facts.get("dims", [])
    return {
        "spectral.build_s": build_s,
        "spectral.build_cols_per_s": sum(dims) / build_s if build_s else 0.0,
        "spectral.eig_s": t.get("spectral.leading_spectrum", 0.0),
        "spectral.window_dim": max(dims, default=0),
        "spectral.matrix_mb": max(dims, default=0) ** 2 * 16 / 1e6,
        "spectral.converged_eigs": facts.get("converged_eigs", 0),
        "phasespace.chord_transform_s": t.get("phasespace.chord_transform", 0.0),
        "phasespace.chord_transform_calls": calls.get("phasespace.chord_transform", 0),
        "dynamics.quantize_s": t.get("dynamics.quantize_linear_map", 0.0),
        "channels.make_s": sum(v for k, v in t.items() if k.startswith("channels.make_") or k == "channels.line_points"),
        "channels.apply_s": t.get("channels.apply_channel", 0.0),
        "channels.spectrum_calls": calls.get("channels.channel_spectrum", 0),
        "states.wigner_s": t.get("states.wigner_function", 0.0),
        "cli.main_s": main_s,
        "cli.self_s": self_s,
        "cli.bytes_written": facts.get("bytes", 0),
        "cli.rows_per_s": facts.get("rows", 0) / self_s if self_s else 0.0,
    }


def blas_version() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if Path(chordnoise.__file__).resolve().parent != ROOT / "src" / "chordnoise":
        print(f"error: imported chordnoise from {chordnoise.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_out" / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed, str(workdir), args.smoke)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        return measure(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl) -> int:
    tracer = tracing.Tracer() if args.trace else None
    times = {False: [], True: []}
    traced_metrics = []
    attempted = failed = 0
    facts = {}
    peak_rss_mb = None
    task = 0
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and task % 2 == 1
        wl.prepare()
        out, error = {}, None
        scope = tracer.instrument(chordnoise, task) if traced else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                wl.run(chordnoise, out)
        except Exception as exc:  # counted as failed operations, reported below
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if peak_rss_mb is None:
            # the process has run set-up and one task, and no check yet
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

        failures = {op: error for op in wl.ops if op not in out}
        facts = {}
        for op in wl.ops:
            if op in failures:
                continue
            try:
                wl.check(chordnoise, op, out, facts)
            except Exception as exc:  # a failed check fails its operation
                failures[op] = f"{type(exc).__name__}: {exc}"
        del out
        for op, why in failures.items():
            print(f"# failed: task {task} {op}: {why}", file=sys.stderr)
        attempted += len(wl.ops)
        failed += len(failures)
        times[traced].append(elapsed)
        if traced:
            traced_metrics.append(layer_metrics(tracing.task_totals(tracer.spans, task), facts))
        task += 1
        # stop before a task that would end past --seconds, judged by the last one
        now = time.perf_counter()
        if now + (now - start) - loop_start > args.seconds and task >= (2 if args.trace else 1):
            break

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "task_s": statistics.median(times[False]),
        "peak_rss_mb": peak_rss_mb,
        "tasks": task,
        "samples_s": times[False],
        "converged_eigs": facts.get("converged_eigs"),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_version(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if args.trace:
        layers = {k: statistics.median(m[k] for m in traced_metrics) for k in traced_metrics[0]}
        result["layers"] = layers
        result["overhead_s"] = statistics.median(times[True]) - result["task_s"]
        write_trace(args, tracer, loop_start, result)
    print(json.dumps(result))
    return 0


def write_trace(args, tracer, origin: float, result: dict) -> None:
    tasks = sorted({s[4] for s in tracer.spans})
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "task_s_untraced": result["task_s"],
        "overhead_s": result["overhead_s"],
        "layers": result["layers"],
        "tasks": {str(t): tracing.task_totals(tracer.spans, t) for t in tasks},
        "spans": [[name, start - origin, end - origin, parent, t] for name, start, end, parent, t in tracer.spans],
    }
    out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    out.write_text(json.dumps(doc))
    print(f"# trace: {out.relative_to(ROOT)} ({len(tracer.spans)} spans)")


if __name__ == "__main__":
    sys.exit(main())
