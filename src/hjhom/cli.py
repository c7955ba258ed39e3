"""Command-line front end: sweep effective Hamiltonians, synthesize
counterexample bundles, certify loss of quasiconvexity, and cross-check with
the parabolic solver and the quadratic-Hamiltonian eigenvalue oracle.

Artifacts are CSV (17 significant digits, lossless float round-trip) and JSON.
Precedence for options: command-line flags > --config JSON file > defaults.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from . import cell, multid, pde, pipeline
from .diagnostics import certify_nonquasiconvex
from .errors import CertificationFailure
from .hamiltonians import (
    CERTIFIED_POINTS,
    get_hamiltonian,
    available,
    load_hamiltonian_csv,
    modify_convex_to_quasiconvex,
)
from .potentials import constant_potential, cosine_potential, zero_potential

#: central table of numeric defaults (documented in the README)
DEFAULTS = {
    "grid_n": cell.DEFAULT_N,
    "points": 129,
    "theta": "-2:2:81",
    "n_x": pde.DEFAULT_NX,
    "t_final": pde.DEFAULT_T,
    "tol_theta": cell.TOL_THETA,
    "tol_period": cell.TOL_PERIOD,
    "samples": 10**5,
    "seed": 0,
    "dimension": 2,
    "r_fractions": "0.25,0.5,1.0",
}

FIGURE_PRESETS = {
    "fig2": {"base": "quadratic", "modified": "fig2_bump", "window": (-2.0, -1.0)},
    "fig3": {"base": "flat_quartic", "modified": "fig3_flat", "window": (-0.5, 0.5)},
}


def write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def parse_theta_range(spec: str):
    try:
        lo, hi, count = spec.split(":")
        return float(lo), float(hi), int(count)
    except ValueError as exc:
        raise click.BadParameter(f"expected min:max:count, got {spec!r}") from exc


def resolve_hamiltonian(spec: str):
    if spec.startswith("csv:"):
        return load_hamiltonian_csv(spec[4:])
    return get_hamiltonian(spec)


def resolve_potential(spec: str):
    if spec == "zero":
        return zero_potential(), None
    if spec.startswith("const:"):
        return constant_potential(float(spec.split(":", 1)[1])), None
    if spec.startswith("cosine"):
        parts = spec.split(":")
        amp = float(parts[1]) if len(parts) > 1 else 1.0
        har = int(parts[2]) if len(parts) > 2 else 1
        return cosine_potential(amp, har), None
    if spec.startswith("csv:"):
        from .potentials import from_csv

        return from_csv(spec.split(":", 1)[1]), None
    if spec.startswith("from-bundle:"):
        bundle = pipeline.load_bundle(spec.split(":", 1)[1])
        return bundle.V, bundle
    raise click.BadParameter(f"unknown potential {spec!r}")


def merged(ctx_params: dict, config_path) -> dict:
    cfg = dict(DEFAULTS)
    if config_path:
        cfg.update(json.loads(Path(config_path).read_text()))
    for key, val in ctx_params.items():
        if val is not None:
            cfg[key] = val
    return cfg


def output_dir(flag, cfg: dict) -> Path:
    """The artifact directory: --out-dir, else the config's, else "."; created."""
    out = Path(flag or cfg.get("out_dir") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


@click.group()
def main():
    """Effective-Hamiltonian computations for periodic viscous Hamilton-Jacobi
    homogenization, with loss-of-quasiconvexity certification."""


@main.command()
@click.option("--hamiltonian", default=None, help=f"label in {available()} or csv:PATH")
@click.option("--potential", default=None,
              help="zero | const:V | cosine[:AMP[:HARMONICS]] | from-bundle:PATH")
@click.option("--theta", default=None, help="sweep range min:max:count")
@click.option("--grid-n", type=int, default=None, help="ODE steps per period")
@click.option("--out", default="sweep.csv", show_default=True)
@click.option("--config", default=None, type=click.Path(exists=True))
def sweep(hamiltonian, potential, theta, grid_n, out, config):
    """Sweep the effective Hamiltonian over a momentum range."""
    cfg = merged({"hamiltonian": hamiltonian, "potential": potential,
                  "theta": theta, "grid_n": grid_n}, config)
    G = resolve_hamiltonian(cfg.get("hamiltonian", "quadratic"))
    V, _ = resolve_potential(cfg.get("potential", "zero"))
    lo, hi, count = parse_theta_range(cfg["theta"])
    result = cell.sweep_hbar(G, V, lo, hi, count, N=cfg["grid_n"])
    write_csv(out, ["theta", "hbar", "p0", "residual"], result.as_rows())
    for failure in result.failures:
        click.echo(f"point failed: {failure}", err=True)
    click.echo(f"wrote {len(result.thetas)} points to {out}")
    if result.failures:
        sys.exit(1)


@main.command()
@click.option("--hamiltonian", required=True, help=f"label in {available()} or csv:PATH")
@click.option("--p1", type=float, default=None, help="left certified momentum")
@click.option("--p2", type=float, default=None, help="right certified momentum")
@click.option("--modify", default=None,
              help="p_star:p_upper window for the convex-to-quasiconvex builder")
@click.option("--out-dir", default=None, help="artifact directory  [default: .]")
@click.option("--config", default=None, type=click.Path(exists=True))
def synthesize(hamiltonian, p1, p2, modify, out_dir, config):
    """Build a counterexample bundle (potential + profile) for a Hamiltonian."""
    cfg = merged({"hamiltonian": hamiltonian, "p1": p1, "p2": p2}, config)
    out = output_dir(out_dir, cfg)
    G = resolve_hamiltonian(cfg["hamiltonian"])
    if modify:
        lo, hi = (float(t) for t in modify.split(":"))
        G, cand = modify_convex_to_quasiconvex(G, lo, hi)
        p1v, p2v = cand.p1, cand.p2
        click.echo(f"modified (case {cand.case}): p1={p1v:g} p2={p2v:g} "
                   f"delta={cand.bump.delta:g}")
    else:
        p1v = cfg.get("p1")
        p2v = cfg.get("p2")
        if p1v is None or p2v is None:
            try:
                p1v, p2v = CERTIFIED_POINTS[cfg["hamiltonian"]]
            except KeyError:
                raise click.UsageError("--p1/--p2 required for this Hamiltonian")
    from .synth import build_counterexample

    bundle = build_counterexample(G, p1v, p2v)
    pipeline.save_bundle(bundle, out / "bundle.json")
    grid = cell._grid_for(bundle.V, DEFAULTS["grid_n"])
    xs = grid.nodes
    rows = np.column_stack([xs, bundle.profile.eval(xs), bundle.profile.d1(xs),
                            bundle.V.values(xs)])
    write_csv(out / "profile.csv", ["x", "f", "fprime", "V"], rows)
    click.echo(f"theta0={bundle.theta0:.12g} regime={bundle.regime} "
               f"-> {out / 'bundle.json'}")


@main.command()
@click.option("--bundle", "bundle_path", default="bundle.json", show_default=True,
              type=click.Path(exists=True))
@click.option("--points", type=int, default=None, help="sweep points")
@click.option("--grid-n", type=int, default=None)
@click.option("--out-dir", default=None, help="artifact directory  [default: .]")
@click.option("--config", default=None, type=click.Path(exists=True))
def certify(bundle_path, points, grid_n, out_dir, config):
    """Certify loss of quasiconvexity for a synthesized bundle.

    Exit status 2 when no certificate is found."""
    cfg = merged({"points": points, "grid_n": grid_n}, config)
    out = output_dir(out_dir, cfg)
    bundle = pipeline.load_bundle(bundle_path)
    try:
        res = pipeline.certify_bundle(bundle, n_sweep=cfg["points"],
                                      N=cfg["grid_n"])
    except CertificationFailure as exc:
        click.echo(f"no certificate: {exc}", err=True)
        sys.exit(2)
    cert = res.certificate.as_dict()
    cert.update({"c": res.c, "I_minus": res.I_minus, "I_plus": res.I_plus,
                 "pred_minus": res.pred_minus.side, "pred_plus": res.pred_plus.side})
    (out / "certificate.json").write_text(json.dumps(cert, indent=2))
    rows = np.column_stack([res.sweep.thetas, res.sweep.hbars])
    write_csv(out / "hbar_curve.csv", ["theta", "hbar"], rows)
    # corrector-difference band report across the certified window
    from .diagnostics import check_bounds_lemma

    sols = res.sweep.solutions
    pairs = [(sols[0], sols[len(sols) // 2]), (sols[len(sols) // 2], sols[-1]),
             (sols[0], sols[-1])]
    band_rows = []
    for a, b in pairs:
        rep = check_bounds_lemma(a, b, bundle.G)
        band_rows.append((rep.theta1, rep.theta2, rep.K1, rep.band_lo,
                          rep.band_hi, rep.mean_gap, rep.n_violations))
    write_csv(out / "bounds_report.csv",
              ["theta1", "theta2", "K1", "band_lo", "band_hi", "mean_gap",
               "n_violations"], band_rows)
    click.echo(f"certificate margin={res.certificate.margin:.3e} "
               f"at theta_mid={res.certificate.theta_mid:.8g}")


@main.command(name="verify-pde")
@click.option("--bundle", "--from-bundle", "bundle_path", required=True,
              type=click.Path(exists=True))
@click.option("--theta", default="theta0", show_default=True,
              help="momentum, or the literal theta0")
@click.option("--t-final", "--T", "t_final", type=float, default=None)
@click.option("--n-x", type=int, default=None)
@click.option("--dump-corrector", default=None, type=click.Path(),
              help="also write the solved corrector profile as x,f_theta")
@click.option("--out-dir", default=None, help="artifact directory  [default: .]")
@click.option("--config", default=None, type=click.Path(exists=True))
def verify_pde(bundle_path, theta, t_final, n_x, dump_corrector, out_dir, config):
    """Cross-check a bundle's effective Hamiltonian by long-time integration."""
    cfg = merged({"t_final": t_final, "n_x": n_x}, config)
    out = output_dir(out_dir, cfg)
    bundle = pipeline.load_bundle(bundle_path)
    th = bundle.theta0 if theta == "theta0" else float(theta)
    corr = cell.solve_cell(bundle.G, bundle.V, th,
                           init=(0.0, float(bundle.profile.eval(0.0))))
    if dump_corrector:
        write_csv(dump_corrector, ["x", "f_theta"],
                  np.column_stack([corr.x_grid, corr.f_grid]))
    run = pde.long_time_slope(bundle.G, bundle.V, th, n_x=cfg["n_x"],
                              t_final=cfg["t_final"])
    report = {"theta": th, "slope": run.slope, "hbar_cell": corr.hbar,
              "abs_diff": abs(run.slope - corr.hbar), "n_x": run.n_x,
              "dt": run.dt, "slope_ci": run.slope_ci, "retries": run.retries,
              "mode": run.mode, "bound_ok": run.bound_ok}
    (out / "pde_report.json").write_text(json.dumps(report, indent=2))
    write_csv(out / "pde_runlog.csv", ["t", "mean_w", "max_w", "min_w"], run.trace)
    click.echo(f"slope={run.slope:.6g} hbar={corr.hbar:.6g} "
               f"diff={report['abs_diff']:.3g}")


@main.command()
@click.option("--potential", default="cosine", show_default=True)
@click.option("--theta", default="-1:1:5", show_default=True, help="min:max:count")
@click.option("--n-x", type=int, default=512, show_default=True)
@click.option("--out", default="oracle.csv", show_default=True)
def oracle(potential, theta, n_x, out):
    """Quadratic-Hamiltonian eigenvalue oracle vs the cell solver."""
    V, _ = resolve_potential(potential)
    lo, hi, count = parse_theta_range(theta)
    thetas = np.linspace(lo, hi, count)
    G = get_hamiltonian("quadratic")
    sols = cell.solve_cell_many(G, V, thetas)
    rows = []
    worst = 0.0
    for sol in sols:
        hb = pde.hopf_cole_oracle(V, sol.theta, n_x=n_x)
        rows.append((sol.theta, hb, sol.hbar, abs(hb - sol.hbar)))
        worst = max(worst, abs(hb - sol.hbar))
    write_csv(out, ["theta", "hbar_oracle", "hbar_cell", "abs_diff"], rows)
    click.echo(f"worst |oracle - cell| = {worst:.3e}")


@main.command(name="multid")
@click.option("--hamiltonian", default="multid_g1", show_default=True)
@click.option("--dimension", "-d", type=int, default=None)
@click.option("--r-fractions", default=None, help="comma list of fractions of R")
@click.option("--samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--points", type=int, default=None)
@click.option("--out-dir", default=None, help="artifact directory  [default: .]")
@click.option("--config", default=None, type=click.Path(exists=True))
def multid_cmd(hamiltonian, dimension, r_fractions, samples, seed, points,
               out_dir, config):
    """Separable d-dimensional counterexample: convexity probes plus the
    momentum-segment scan of the effective sum."""
    cfg = merged({"hamiltonian": hamiltonian, "dimension": dimension,
                  "r_fractions": r_fractions, "samples": samples,
                  "seed": seed, "points": points}, config)
    out = output_dir(out_dir, cfg)
    res = pipeline.run_pipeline(cfg["hamiltonian"])
    sys_d = multid.build_separable_system(res, cfg["dimension"])
    reports = {}
    for frac in (float(f) for f in str(cfg["r_fractions"]).split(",")):
        rep = multid.check_sublevel_convexity(sys_d, frac * sys_d.R,
                                              samples=cfg["samples"],
                                              seed=cfg["seed"])
        reports[f"r={frac:g}R"] = {
            "ok": rep.ok, "samples": rep.samples,
            "differential_min": rep.differential_min,
            "violations": rep.midpoint_violations,
        }
    thetas, vals = multid.segment_scan(sys_d, cfg["points"], sweep=res.sweep)
    cert = certify_nonquasiconvex(thetas, vals)
    write_csv(out / "segment.csv", ["theta1", "effective_sum"],
              np.column_stack([thetas, vals]))
    payload = {
        "dimension": sys_d.d, "M": sys_d.M, "R": sys_d.R, "R1": sys_d.R1,
        "breve_R": sys_d.breve_R, "c": sys_d.c, "theta0": sys_d.theta0,
        "convexity": reports,
        "certificate": cert.as_dict() if cert else None,
    }
    (out / "multid_report.json").write_text(json.dumps(payload, indent=2))
    ok = all(r["ok"] for r in reports.values()) and cert is not None
    click.echo(f"d={sys_d.d}: convexity ok={ok} "
               f"certificate margin={cert.margin if cert else float('nan'):.3e}")
    if not ok:
        sys.exit(2)


@main.command()
@click.option("--preset", type=click.Choice(sorted(FIGURE_PRESETS)), required=True)
@click.option("--out-dir", default=None, help="artifact directory  [default: .]")
@click.option("--points", type=int, default=None)
@click.option("--config", default=None, type=click.Path(exists=True))
def figures(preset, out_dir, points, config):
    """Emit plot-ready CSVs for a preset: base and modified Hamiltonian curves,
    the synthesized profile and potential, and the effective-Hamiltonian bump."""
    cfg = merged({"points": points}, config)
    out = output_dir(out_dir, cfg)
    preset_cfg = FIGURE_PRESETS[preset]
    base = get_hamiltonian(preset_cfg["base"])
    mod = get_hamiltonian(preset_cfg["modified"])
    ps = np.linspace(-3.0, 3.0, 1201)
    write_csv(out / "G_curve.csv", ["p", "G"],
              np.column_stack([ps, np.asarray(base.eval(ps))]))
    write_csv(out / "Gtilde_curve.csv", ["p", "Gtilde"],
              np.column_stack([ps, np.asarray(mod.eval(ps))]))
    res = pipeline.run_pipeline(preset_cfg["modified"], n_sweep=cfg["points"])
    bundle = res.bundle
    grid = cell._grid_for(bundle.V, DEFAULTS["grid_n"])
    xs = grid.nodes
    write_csv(out / "profile.csv", ["x", "f", "fprime"],
              np.column_stack([xs, bundle.profile.eval(xs), bundle.profile.d1(xs)]))
    write_csv(out / "potential.csv", ["x", "V"],
              np.column_stack([xs, bundle.V.values(xs)]))
    write_csv(out / "hbar_curve.csv", ["theta", "hbar"],
              np.column_stack([res.sweep.thetas, res.sweep.hbars]))
    pipeline.save_bundle(bundle, out / "bundle.json")
    click.echo(f"{preset}: certificate margin={res.certificate.margin:.3e}; "
               f"artifacts in {out}")


if __name__ == "__main__":
    main()
