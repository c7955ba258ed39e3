"""hjhom benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hjhom is imported from its ``src``. Every
measurement runs in a fresh interpreter (worker.py), so ``setup_s`` and
``peak_rss_mb`` are real and the package's in-process caches never carry
over between runs.

``--trace 0`` repeats the workload in fresh workers until ``S`` seconds of
work are measured (at least once) and reports the end-to-end metrics as
medians over those workers; ``setup_s`` is the median over at least five
set-ups. ``--trace 1`` runs the workload once untraced and once traced and
reports the per-layer metrics, with the tracing overhead between the two.

Every worker's outputs go through the workload's correctness gate; the last
line of standard output is the result object, the line before it carries
information fields (versions, threads, largest hbar deviation, ...).
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

from layers import LAYERS  # noqa: E402
from workloads import HELD_OUT_CLASS, OPERATIONS, WORKLOADS, seed_class  # noqa: E402

SETUP_SAMPLES = 5
BUDGET_S = 170.0        # a run must end within 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env() -> dict:
    """Package from this checkout, no bytecode written into it, and BLAS
    threads capped at the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in BLAS_VARS:
        current = env.get(var, "")
        wanted = int(current) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(min(wanted, nproc))
    return env


def spawn(env: dict, workload: str, seed: int, mode: str, deadline: float) -> dict:
    t0 = now()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--t0", repr(t0)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{mode} worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["wall_s"] = now() - t0
    return res


def git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_runs(env, workload, seed, seconds, deadline) -> dict:
    runs = []
    while True:
        runs.append(spawn(env, workload, seed, "run", deadline))
        measured = sum(r["work_s"] for r in runs)
        # leave room for another run of the same length plus the set-ups
        if measured >= seconds or now() + runs[-1]["wall_s"] + 10.0 > deadline:
            break
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(env, workload, seed, "setup", deadline)["setup_s"])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "work_s": (statistics.median(r["work_s"] for r in runs), "s"),
        "ops_per_s": (statistics.median(OPERATIONS[workload] / r["work_s"] for r in runs), "1/s"),
        "pass_frac": (1.0 - failed / attempted, "frac"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
    }
    staged = [r["stages"] for r in runs if r["stages"]]
    stages = {k: statistics.median(st[k] for st in staged) for k in (staged or [{}])[0]}
    info = {"repeats": len(runs), "setup_samples": len(setups), "stages_s": stages}
    return {"runs": runs, "metrics": metrics, "info": info}


def traced_runs(env, workload, seed, deadline) -> dict:
    plain = spawn(env, workload, seed, "run", deadline)
    traced = spawn(env, workload, seed, "trace", deadline)
    layer_values = dict(traced["layers"])
    layer_values["trace.overhead_frac"] = traced["work_s"] / plain["work_s"] - 1.0
    metrics = {name: (val, LAYERS[name][0]) for name, val in layer_values.items()}
    info = {"untraced_work_s": plain["work_s"], "traced_work_s": traced["work_s"],
            "absent_metrics": sorted(set(LAYERS) - set(layer_values)),
            "absent_spans": traced["absent_spans"]}
    return {"runs": [plain, traced], "metrics": metrics, "info": info}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hjhom" / "__init__.py").is_file():
        print(f"no hjhom package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = now() + BUDGET_S
    env = worker_env()
    try:
        if args.trace:
            res = traced_runs(env, args.workload, args.seed, deadline)
        else:
            res = timed_runs(env, args.workload, args.seed, args.seconds, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    runs = res["runs"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    devs = [r["info"]["max_hbar_dev"] for r in runs
            if r["info"].get("max_hbar_dev") is not None]
    info = dict(res["info"], workload=args.workload, seed=args.seed,
                seed_class=seed_class(args.seed),
                held_out=seed_class(args.seed) == HELD_OUT_CLASS,
                git_rev=git_rev(), nproc=len(os.sched_getaffinity(0)),
                blas_threads={v: env[v] for v in BLAS_VARS},
                versions=runs[0]["versions"],
                fail_frac=failed / attempted,
                max_hbar_dev=max(devs) if devs else None,
                gate=[r["info"] for r in runs])
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
