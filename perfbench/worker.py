"""One workload in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --t0 T

MODE is ``setup`` (set-up only), ``run`` (set-up, timed work, gate) or
``trace`` (the same with spans and the per-layer probes). T is the parent's
CLOCK_MONOTONIC reading just before it started this process, so ``setup_s``
covers interpreter start, imports and input construction. The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import hjhom as hj

    import layers
    import workloads
    from spans import Tracer

    if Path(hj.__file__).resolve().parent != ROOT / "src" / "hjhom":
        raise SystemExit(f"hjhom imported from {hj.__file__}, not from this checkout")
    setup, run, gate = workloads.WORKLOADS[args.workload]
    tracer = missing = None
    if args.mode == "trace":
        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        missing = layers.install(tracer, hj)

    inputs = setup(hj, args.seed)
    result = {"setup_s": now() - args.t0}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    t_start = time.perf_counter()
    error = None
    try:
        out = run(hj, inputs)
    except Exception as exc:  # reported as failed operations, not a crash
        out, error = None, repr(exc)
    t_end = time.perf_counter()
    result["work_s"] = t_end - t_start

    if out is None:
        attempted = failed = workloads.OPERATIONS[args.workload]
        info = {"error": error}
        result["stages"] = {}
    else:
        refs = json.loads((HERE / "refs.json").read_text())
        attempted, failed, info = gate(out, refs[args.workload], args.seed)
        result["stages"] = out["stages"]
    result.update(attempted=attempted, failed=failed, info=info, versions=versions())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        per_layer = layers.reduce_spans(tracer, missing, t_start, t_end)
        per_layer.update(layers.micro(hj, inputs["G"], out and out["probe"]))
        result["layers"] = per_layer
        result["absent_spans"] = sorted(missing)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{tracer.run_id}.json").write_text(
            json.dumps(tracer.as_records()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
