"""Pin the reference outputs that the correctness gate checks against.

    python3 perfbench/pin_refs.py

Writes ``perfbench/refs.json`` from the hjhom in this checkout's ``src``:

- certify_multid: the 129 sweep thetas and hbars, c, and both certificates;
- sweep_wide: the 25 thetas and hbars of every seed class;
- crosscheck: cell-solver hbars at the PDE theta (as ``hjhom verify-pde``
  solves it) and at the oracle thetas (as ``hjhom oracle`` solves them).

Run it only at a commit whose outputs are trusted; takes a few minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hjhom as hj  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> None:
    out = wl.run_certify_multid(hj, wl.setup_certify_multid(hj, 0))
    if out["sweep_failures"] or not all(lv["ok"] for lv in out["levels"]):
        raise SystemExit("certify_multid did not pass at this commit")
    certify = {k: out[k] for k in ("sweep_thetas", "sweep_hbars", "c",
                                   "certificate", "certificate_d3")}

    sweep = {}
    for k in range(wl.SEED_CLASSES):
        out = wl.run_sweep_wide(hj, wl.setup_sweep_wide(hj, k))
        if out["failures"]:
            raise SystemExit(f"sweep_wide seed class {k}: {out['failures']} failed thetas")
        sweep[str(k)] = {"offset": wl.sweep_offset(k), "thetas": out["thetas"],
                         "hbars": out["hbars"]}

    inp = wl.setup_crosscheck(hj, 0)
    b = inp["bundle"]
    corr = hj.solve_cell(b.G, b.V, b.theta0, init=(0.0, float(b.profile.eval(0.0))))
    sols = hj.solve_cell_many(hj.get_hamiltonian("quadratic"), inp["V_oracle"],
                              wl.oracle_thetas())
    cross = {"pde_theta": float(b.theta0), "pde_hbar": float(corr.hbar),
             "oracle_thetas": [s.theta for s in sols],
             "oracle_hbars": [s.hbar for s in sols]}

    refs = {"certify_multid": certify, "sweep_wide": sweep, "crosscheck": cross}
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
