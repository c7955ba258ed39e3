"""Self-test of the benchmark's correctness gate and tracer.

    python3 perfbench/selftest.py

1. Outputs equal to the pinned references pass every workload's gate, and
   perturbing one hbar reference by 1e-6 (the PDE reference by 0.05, beyond
   its 0.025 tolerance) makes ``fail_frac`` positive.
2. A small traced ``certify_bundle`` (9 sweep points at N=512) records
   ``cell.solve_cell_many`` under ``cell.sweep_hbar`` under
   ``pipeline.certify_bundle``, and its top-level span covers the call.

Exits 1 on the first failed check; takes about ten seconds.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hjhom as hj  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402


def outputs_from(refs: dict, seed: int) -> dict:
    """Outputs that match the references exactly, one per workload."""
    c = refs["certify_multid"]
    s = refs["sweep_wide"][str(wl.seed_class(seed))]
    x = refs["crosscheck"]
    levels = [{"r_frac": f, "ok": True, "samples": wl.MULTID["samples"]}
              for f in wl.MULTID["r_fractions"]]
    return {
        "certify_multid": dict(c, levels=levels),
        "sweep_wide": {"thetas": s["thetas"], "hbars": s["hbars"]},
        "crosscheck": {"theta0": x["pde_theta"], "slope": x["pde_hbar"],
                       "oracle": list(x["oracle_hbars"])},
    }


def perturbed(refs: dict, seed: int) -> dict:
    """References with one value per workload moved beyond its tolerance."""
    bad = copy.deepcopy(refs)
    bad["certify_multid"]["sweep_hbars"][64] += 1e-6
    bad["sweep_wide"][str(wl.seed_class(seed))]["hbars"][12] += 1e-6
    bad["crosscheck"]["pde_hbar"] += 0.05
    return bad


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        sys.exit(1)


def check_gate() -> None:
    refs = json.loads((HERE / "refs.json").read_text())
    for seed in (0, wl.HELD_OUT_CLASS):
        outs = outputs_from(refs, seed)
        bad = perturbed(refs, seed)
        for name, (_, _, gate) in wl.WORKLOADS.items():
            attempted, failed, _ = gate(outs[name], refs[name], seed)
            check(attempted == wl.OPERATIONS[name] and failed == 0,
                  f"{name} seed {seed}: reference outputs pass ({attempted} ops)")
            attempted, failed, _ = gate(outs[name], bad[name], seed)
            check(failed / attempted > 0,
                  f"{name} seed {seed}: perturbed reference gives fail_frac "
                  f"{failed}/{attempted}")


def check_nesting() -> None:
    tracer = Tracer("selftest")
    missing = layers.install(tracer, hj)
    check(not missing, f"every wrapped attribute exists (missing: {sorted(missing)})")
    bundle = hj.build_counterexample(hj.get_hamiltonian("multid_g1"), -1.0, 1.0)
    t0 = time.perf_counter()
    hj.certify_bundle(bundle, n_sweep=9, N=512, gate_n=256)
    t1 = time.perf_counter()
    chains = set()
    for s in tracer.spans:
        chain, sid = [], s.sid
        while sid is not None:
            chain.append(tracer.spans[sid].name)
            sid = tracer.spans[sid].parent
        chains.add(tuple(chain))
    check(("cell.solve_cell_many", "cell.sweep_hbar", "pipeline.certify_bundle") in chains,
          "solve_cell_many nests under sweep_hbar under certify_bundle")
    cover = layers.reduce_spans(tracer, missing, t0, t1)["trace.span_cover_frac"]
    check(0.99 <= cover <= 1.0, f"top-level spans cover {cover:.4f} of the call")


if __name__ == "__main__":
    check_gate()
    check_nesting()
