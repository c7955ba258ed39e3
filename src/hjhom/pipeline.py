"""End-to-end orchestration: synthesize a counterexample bundle, scan for a
certified half-width c, sweep the effective Hamiltonian on [theta0-c,
theta0+c], and certify the interior bump. Also owns the bundle JSON format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import cell
from .diagnostics import (
    TOL_I_SIGN,
    GrowthPrediction,
    QuasiconvexityCertificate,
    compute_I,
    confirm_prediction,
    predict_local_growth,
    certify_nonquasiconvex,
)
from .errors import CertificationFailure
from .hamiltonians import (
    BumpParams,
    CERTIFIED_POINTS,
    Hamiltonian1D,
    get_hamiltonian,
    load_hamiltonian_csv,
    with_bump,
)
from .synth import CounterexampleBundle, ProfileSpec, build_counterexample, synthesize_potential

C_FRACTIONS = tuple(2.0 ** (-k) for k in range(3, 13))
SWEEP_POINTS = 129
GATE_N = 1024


@dataclass
class CertifiedCounterexample:
    """A bundle together with the sweep evidence that its effective
    Hamiltonian is not quasiconvex on [theta0 - c, theta0 + c]."""

    bundle: CounterexampleBundle
    c: float
    sweep: cell.SweepResult
    certificate: QuasiconvexityCertificate
    I_minus: float
    I_plus: float
    pred_minus: GrowthPrediction
    pred_plus: GrowthPrediction
    h_minus: Optional[float]
    h_plus: Optional[float]


def scan_certified_halfwidth(bundle: CounterexampleBundle, fractions=C_FRACTIONS,
                             gate_n: int = GATE_N):
    """First c (largest to smallest) with the slope-integral sign pattern
    I(theta0 - c) > 0 > I(theta0 + c) beyond the critical band.

    All candidates are solved in one vectorized batch; the scan order still
    decides which admissible c wins.
    """
    G, V, th0 = bundle.G, bundle.V, bundle.theta0
    span = bundle.profile.p2 - bundle.profile.p1
    p0_hint = float(bundle.profile.eval(0.0))
    cs = [f * span for f in fractions]
    thetas = [th0 - c for c in cs] + [th0 + c for c in cs]
    sols = cell.solve_cell_many(G, V, thetas, N=gate_n, init=(0.0, p0_hint))
    for k, c in enumerate(cs):
        i_minus = compute_I(sols[k], G)[1]
        i_plus = compute_I(sols[k + len(cs)], G)[1]
        if i_minus > TOL_I_SIGN and i_plus < -TOL_I_SIGN:
            return c, i_minus, i_plus
    raise CertificationFailure("no c in the scan produced the required sign pattern")


def window_correctors(G: Hamiltonian1D, V, th0: float, c: float,
                      sweep: cell.SweepResult, N: int, init):
    """Correctors at theta0 -+ c: the sweep's end points when it spans that window."""
    if (len(sweep.thetas) and abs(sweep.thetas[0] - (th0 - c)) < 1e-12
            and abs(sweep.thetas[-1] - (th0 + c)) < 1e-12):
        return sweep.solutions[0], sweep.solutions[-1]
    return tuple(cell.solve_cell_many(G, V, [th0 - c, th0 + c], N=N, init=init))


def certify_bundle(bundle: CounterexampleBundle, n_sweep: int = SWEEP_POINTS,
                   N: int = cell.DEFAULT_N, fractions=C_FRACTIONS,
                   gate_n: int = GATE_N) -> CertifiedCounterexample:
    """Scan c, sweep, and certify; retries smaller c if the sweep certificate
    margin is not met at the first sign-admissible half-width."""
    G, V, th0 = bundle.G, bundle.V, bundle.theta0
    span = bundle.profile.p2 - bundle.profile.p1
    p0_hint = float(bundle.profile.eval(0.0))
    remaining = list(fractions)
    last_err = "scan exhausted"
    while remaining:
        try:
            c, _, _ = scan_certified_halfwidth(bundle, tuple(remaining), gate_n=gate_n)
        except CertificationFailure as exc:
            raise CertificationFailure(str(exc) + f" (after: {last_err})") from exc
        sweep = cell.sweep_hbar(G, V, th0 - c, th0 + c, n_sweep, N=N,
                                init=(0.0, p0_hint))
        cert = certify_nonquasiconvex(sweep.thetas, sweep.hbars)
        if cert is not None:
            corr_lo, corr_hi = window_correctors(G, V, th0, c, sweep, N=N,
                                                 init=(0.0, p0_hint))
            i_minus = compute_I(corr_lo, G)[1]
            i_plus = compute_I(corr_hi, G)[1]
            pred_minus = predict_local_growth(corr_lo, G)
            pred_plus = predict_local_growth(corr_hi, G)
            h_minus = confirm_prediction(pred_minus, sweep.thetas, sweep.hbars,
                                         corr_lo.hbar)
            h_plus = confirm_prediction(pred_plus, sweep.thetas, sweep.hbars,
                                        corr_hi.hbar)
            return CertifiedCounterexample(
                bundle=bundle, c=c, sweep=sweep, certificate=cert,
                I_minus=i_minus, I_plus=i_plus,
                pred_minus=pred_minus, pred_plus=pred_plus,
                h_minus=h_minus, h_plus=h_plus)
        last_err = f"certificate margin not met at c={c:g}"
        remaining = [f for f in remaining if f * span < c]
    raise CertificationFailure(last_err)


def run_pipeline(name_or_G, p1: Optional[float] = None, p2: Optional[float] = None,
                 **kw) -> CertifiedCounterexample:
    """Synthesize and certify in one call. Catalog entries with certified
    momenta can be referenced by name alone."""
    if isinstance(name_or_G, str):
        G = get_hamiltonian(name_or_G)
        if p1 is None or p2 is None:
            if name_or_G not in CERTIFIED_POINTS:
                raise ValueError(f"no certified momenta on file for {name_or_G!r}")
            p1, p2 = CERTIFIED_POINTS[name_or_G]
    else:
        G = name_or_G
        if p1 is None or p2 is None:
            raise ValueError("p1 and p2 are required for a custom Hamiltonian")
    bundle = build_counterexample(G, p1, p2)
    return certify_bundle(bundle, **kw)


# ---------------------------------------------------------------------------
# bundle (de)serialization
# ---------------------------------------------------------------------------

def hamiltonian_to_spec(G: Hamiltonian1D) -> dict:
    if G.spec is None:
        raise ValueError(f"Hamiltonian {G.label!r} has no spec to rebuild it from")
    return G.spec


def hamiltonian_from_spec(spec: dict) -> Hamiltonian1D:
    if "name" in spec:
        return get_hamiltonian(spec["name"])
    if "csv" in spec:
        G = load_hamiltonian_csv(spec["csv"])
        if "sha" in spec and G.fingerprint != f"csv:{spec['sha']}":
            raise ValueError(f"{spec['csv']} changed since the spec was written")
        return G
    if "base" in spec:
        base = spec["base"]  # a catalog name, or a spec for nested bumps
        b = spec["bump"]
        return with_bump(get_hamiltonian(base) if isinstance(base, str)
                         else hamiltonian_from_spec(base),
                         BumpParams(a=b["a"], p0=b["p0"], delta=b["delta"]))
    raise ValueError(f"unrecognized Hamiltonian spec: {spec}")


def bundle_to_manifest(bundle: CounterexampleBundle) -> dict:
    return {
        "hamiltonian": hamiltonian_to_spec(bundle.G),
        "theta0": bundle.theta0,
        "K1": bundle.K1,
        "K2": bundle.K2,
        "regime": bundle.regime,
        "reflected": bundle.reflected,
        "profile": bundle.profile.params_dict(),
    }


def bundle_from_manifest(man: dict) -> CounterexampleBundle:
    G = hamiltonian_from_spec(man["hamiltonian"])
    profile = ProfileSpec.from_params(man["profile"])
    V, theta0 = synthesize_potential(G, profile)
    return CounterexampleBundle(G=G, V=V, theta0=theta0, profile=profile,
                                K1=man["K1"], K2=man["K2"],
                                regime=man["regime"], reflected=man["reflected"])


def save_bundle(bundle: CounterexampleBundle, path) -> None:
    Path(path).write_text(json.dumps(bundle_to_manifest(bundle), indent=2))


def load_bundle(path) -> CounterexampleBundle:
    return bundle_from_manifest(json.loads(Path(path).read_text()))
