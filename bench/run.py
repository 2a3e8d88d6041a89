"""chordnoise benchmark: one workload per call, checked outputs, one JSON result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --smoke            # every workload once, reduced size, all checks

Run from the root of a chordnoise checkout; the package is imported from
its src/ directory, nothing is installed. Each workload runs in a fresh
worker process (bench/worker.py), so its peak memory is its own. BLAS
threads are capped at the number of usable cores. Set-up time is measured
from outside: the time from starting a worker to its 'ready' line, which
covers the interpreter, the numpy and chordnoise imports and input
generation; several workers are started and the median is reported.

The last stdout line is {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics of BENCHMARK.json for --trace 0 and its per-layer
metrics for --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 7
DEADLINE_S = 170.0


def git_revision() -> str:
    """HEAD's commit from .git, without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def start_worker(argv: list, env: dict):
    """Start a worker and wait for its 'ready' line; returns (process, set-up seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv], stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, 30.0)
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, setup


def finish(proc, timeout: float) -> str:
    """Rest of a worker's stdout; kills it when it overruns."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker overran the deadline and was killed") from None
    return out


def run_worker(argv: list, env: dict, deadline: float) -> tuple:
    """Run one measuring worker; returns (its JSON result, set-up seconds)."""
    proc, setup = start_worker(argv, env)
    out = finish(proc, max(1.0, deadline - time.perf_counter()))
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1]), setup


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="each workload once at reduced size")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke")
    if not (ROOT / "src" / "chordnoise" / "__init__.py").is_file():
        print(f"error: no chordnoise sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    env = worker_env()
    if args.smoke:
        return smoke(names, args.seed, env, deadline)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = start_worker(common + ["--seconds", "0", "--setup-only"], env)
            finish(proc, 30.0)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up worker exited {proc.returncode}")
            setups.append(setup)
    res, setup = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
    setups.append(setup)

    if args.trace:
        values = res["layers"]
        declared = spec["per_layer"]
        print(f"# tracing overhead: {res['overhead_s']:+.4f} s per task ({res['overhead_s'] / res['task_s']:+.2%})")
    else:
        values = {"task_s": res["task_s"], "peak_rss_mb": res["peak_rss_mb"], "setup_s": statistics.median(setups)}
        declared = spec["end_to_end"]
    env_line = dict(res["env"], git=git_revision(), seed=args.seed, workload=args.workload)
    print("# env: " + json.dumps(env_line))
    print(f"# {res['tasks']} tasks; untraced task_s samples: " + " ".join(f"{t:.4f}" for t in res["samples_s"]))
    if setups[:-1]:
        print("# setup_s samples: " + " ".join(f"{t:.4f}" for t in setups))
    if res.get("converged_eigs") is not None:
        print(f"# converged_eigs: {res['converged_eigs']} of top 20 within 1e-8 between windows")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


def smoke(names: list, seed: int, env: dict, deadline: float) -> int:
    ok = True
    for name in names:
        res, setup = run_worker(
            ["--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", "1", "--smoke"], env, deadline
        )
        good = res["correct"] and res["failed"] == 0
        ok &= good
        print(
            f"smoke {name:13s} {'ok' if good else 'FAILED'}: {res['attempted']} ops, {res['failed']} failed, "
            f"setup {setup:.2f} s, task {res['task_s']:.3f} s, traced overhead {res['overhead_s']:+.3f} s"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
