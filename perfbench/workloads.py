"""The three benchmark workloads and their correctness gates.

Each workload makes the public calls of the matching CLI command with the
CLI's defaults:

- ``certify_multid`` is ``hjhom multid --dimension 3``: synthesis of the
  ``multid_g1`` bundle (set-up), then ``certify_bundle`` (scan of 20 thetas at
  N=1024, sweep of 129 at N=4096, re-solve of theta0 +/- c), the separable
  d=3 assembly, three sublevel convexity probes, the segment scan and its
  certificate.
- ``sweep_wide`` is ``hjhom sweep`` for ``quadratic`` with ``cosine:5`` on
  theta in [-6, 6], 25 points, N=1024, on one thread.
- ``crosscheck`` is ``hjhom verify-pde`` on the ``fig3_flat`` bundle at
  theta0 plus ``hjhom oracle`` (cosine:1, theta in [-1, 1], 5 points), each
  checked against pinned cell-solver values instead of re-solving them.

Only names exported from ``hjhom`` are called, always through the package
attribute, so a traced run sees every call. ``run`` returns plain data, which
the gate compares with the references pinned in ``refs.json``, plus stage
times and a solved corrector (``probe``) for the traced run's RK4 probe.
"""

from __future__ import annotations

import time

import numpy as np

#: accuracy to which sweep hbars must match their references (cell.HBAR_TOL)
HBAR_TOL = 1e-8
#: criterion 7a / 7b tolerances for the independent checks
PDE_TOL = 0.025
ORACLE_TOL = 1e-6
MARGIN_TOL = 1e-8

#: seeds map onto this many pinned input variants (seed mod SEED_CLASSES);
#: class 7 is held out for checking claims and is not used while tuning
SEED_CLASSES = 8
HELD_OUT_CLASS = 7

MULTID = {"hamiltonian": "multid_g1", "p1": -1.0, "p2": 1.0, "dimension": 3,
          "r_fractions": (0.25, 0.5, 1.0), "samples": 10**5, "points": 129}
SWEEP = {"hamiltonian": "quadratic", "amplitude": 5.0, "lo": -6.0, "hi": 6.0,
         "points": 25, "N": 1024}
CROSS = {"hamiltonian": "fig3_flat", "p1": -0.25, "p2": 0.25, "n_x": 4096,
         "t_final": 40.0, "oracle_amplitude": 1.0, "oracle_lo": -1.0,
         "oracle_hi": 1.0, "oracle_points": 5, "oracle_n_x": 512}


def seed_class(seed: int) -> int:
    return seed % SEED_CLASSES


def sweep_offset(seed: int) -> float:
    """Shift of the sweep_wide theta grid, a fraction of one grid spacing.

    Class 0 is unshifted; class k >= 1 shifts by (k + 2)/32 of a spacing.
    Shifts of 1/32 and 2/32 are skipped: they send a fourth theta (near
    -4.48) into the solver's serial fallback, which takes most of the run, so
    a seed there would do a third more work. Every class here sends exactly
    three thetas there, the same as seed 0.
    """
    k = seed_class(seed)
    spacing = (SWEEP["hi"] - SWEEP["lo"]) / (SWEEP["points"] - 1)
    return (k + 2) / 32 * spacing if k else 0.0


def _cert_dict(cert):
    return None if cert is None else {k: float(v) for k, v in cert.as_dict().items()}


# ---------------------------------------------------------------------------
# certify_multid
# ---------------------------------------------------------------------------

def setup_certify_multid(hj, seed: int) -> dict:
    G = hj.get_hamiltonian(MULTID["hamiltonian"])
    bundle = hj.build_counterexample(G, MULTID["p1"], MULTID["p2"])
    return {"G": G, "bundle": bundle, "seed": seed}


def run_certify_multid(hj, inp: dict) -> dict:
    t0 = time.perf_counter()
    res = hj.certify_bundle(inp["bundle"])
    t1 = time.perf_counter()
    sys_d = hj.build_separable_system(res, MULTID["dimension"])
    levels = []
    for frac in MULTID["r_fractions"]:
        rep = hj.check_sublevel_convexity(sys_d, frac * sys_d.R,
                                          samples=MULTID["samples"], seed=inp["seed"])
        levels.append({"r_frac": frac, "ok": bool(rep.ok), "samples": int(rep.samples)})
    thetas, vals = hj.segment_scan(sys_d, MULTID["points"], sweep=res.sweep)
    cert_d = hj.certify_nonquasiconvex(thetas, vals)
    t2 = time.perf_counter()
    mid = res.sweep.solutions[len(res.sweep.solutions) // 2]
    return {"stages": {"certify_bundle_s": t1 - t0, "multid_s": t2 - t1},
            "sweep_thetas": res.sweep.thetas.tolist(),
            "sweep_hbars": res.sweep.hbars.tolist(),
            "sweep_failures": len(res.sweep.failures),
            "c": float(res.c), "certificate": _cert_dict(res.certificate),
            "levels": levels, "certificate_d3": _cert_dict(cert_d),
            "probe": (inp["G"], inp["bundle"].V, mid)}


def _cert_ok(got, ref) -> bool:
    if got is None:
        return False
    same_thetas = all(got[k] == ref[k] for k in ("theta_left", "theta_mid", "theta_right"))
    return same_thetas and abs(got["margin"] - ref["margin"]) <= MARGIN_TOL


def _sweep_check(thetas, hbars, ref_thetas, ref_hbars):
    """(attempted, failed, largest |hbar - ref|) for one sweep; a theta that
    is missing from the result counts as failed."""
    got = dict(zip(thetas, hbars))
    failed, dev = 0, 0.0
    for th, ref in zip(ref_thetas, ref_hbars):
        if th not in got:
            failed += 1
            continue
        d = abs(got[th] - ref)
        dev = max(dev, d)
        failed += not d <= HBAR_TOL
    return len(ref_thetas), failed, dev


def gate_certify_multid(out: dict, ref: dict, seed: int):
    attempted, failed, dev = _sweep_check(out["sweep_thetas"], out["sweep_hbars"],
                                          ref["sweep_thetas"], ref["sweep_hbars"])
    attempted += 2 + len(MULTID["r_fractions"])
    failed += not (out["c"] == ref["c"] and _cert_ok(out["certificate"], ref["certificate"]))
    failed += not _cert_ok(out["certificate_d3"], ref["certificate_d3"])
    failed += sum(not lv["ok"] for lv in out["levels"])
    failed += len(MULTID["r_fractions"]) - len(out["levels"])
    return attempted, failed, {"max_hbar_dev": dev}


# ---------------------------------------------------------------------------
# sweep_wide
# ---------------------------------------------------------------------------

def setup_sweep_wide(hj, seed: int) -> dict:
    G = hj.get_hamiltonian(SWEEP["hamiltonian"])
    V = hj.cosine_potential(SWEEP["amplitude"])
    return {"G": G, "V": V, "offset": sweep_offset(seed)}


def run_sweep_wide(hj, inp: dict) -> dict:
    off = inp["offset"]
    res = hj.sweep_hbar(inp["G"], inp["V"], SWEEP["lo"] + off, SWEEP["hi"] + off,
                        SWEEP["points"], N=SWEEP["N"])
    mid = res.solutions[len(res.solutions) // 2]
    return {"stages": {}, "thetas": res.thetas.tolist(), "hbars": res.hbars.tolist(),
            "failures": len(res.failures), "probe": (inp["G"], inp["V"], mid)}


def gate_sweep_wide(out: dict, ref: dict, seed: int):
    r = ref[str(seed_class(seed))]
    attempted, failed, dev = _sweep_check(out["thetas"], out["hbars"],
                                          r["thetas"], r["hbars"])
    return attempted, failed, {"max_hbar_dev": dev}


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------

def oracle_thetas() -> list:
    return np.linspace(CROSS["oracle_lo"], CROSS["oracle_hi"],
                       CROSS["oracle_points"]).tolist()


def setup_crosscheck(hj, seed: int) -> dict:
    G = hj.get_hamiltonian(CROSS["hamiltonian"])
    bundle = hj.build_counterexample(G, CROSS["p1"], CROSS["p2"])
    return {"G": G, "bundle": bundle, "V_oracle": hj.cosine_potential(CROSS["oracle_amplitude"])}


def run_crosscheck(hj, inp: dict) -> dict:
    b = inp["bundle"]
    t0 = time.perf_counter()
    try:
        run = hj.long_time_slope(b.G, b.V, b.theta0, n_x=CROSS["n_x"],
                                 t_final=CROSS["t_final"])
        slope = float(run.slope)
    except Exception as exc:  # a raising operation counts as failed
        slope = repr(exc)
    t1 = time.perf_counter()
    oracle = []
    for th in oracle_thetas():
        try:
            oracle.append(float(hj.hopf_cole_oracle(inp["V_oracle"], th,
                                                    n_x=CROSS["oracle_n_x"])))
        except Exception as exc:
            oracle.append(repr(exc))
    t2 = time.perf_counter()
    return {"stages": {"pde_s": t1 - t0, "oracle_s": t2 - t1}, "theta0": float(b.theta0),
            "slope": slope, "oracle": oracle, "probe": None}


def gate_crosscheck(out: dict, ref: dict, seed: int):
    pde_dev = (abs(out["slope"] - ref["pde_hbar"])
               if isinstance(out["slope"], float) else float("inf"))
    failed = int(not (out["theta0"] == ref["pde_theta"] and pde_dev <= PDE_TOL))
    oracle_dev = 0.0
    for got, want in zip(out["oracle"], ref["oracle_hbars"]):
        d = abs(got - want) if isinstance(got, float) else float("inf")
        oracle_dev = max(oracle_dev, d)
        failed += not d <= ORACLE_TOL
    return 1 + len(ref["oracle_hbars"]), failed, {"max_hbar_dev": None,
                                                  "pde_dev": pde_dev,
                                                  "oracle_dev": oracle_dev}


WORKLOADS = {
    "certify_multid": (setup_certify_multid, run_certify_multid, gate_certify_multid),
    "sweep_wide": (setup_sweep_wide, run_sweep_wide, gate_sweep_wide),
    "crosscheck": (setup_crosscheck, run_crosscheck, gate_crosscheck),
}

#: operations per workload, charged as failed when the run raises
OPERATIONS = {
    "certify_multid": MULTID["points"] + 2 + len(MULTID["r_fractions"]),
    "sweep_wide": SWEEP["points"],
    "crosscheck": 1 + CROSS["oracle_points"],
}
