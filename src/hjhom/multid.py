"""Separable d-dimensional assembly: pair a 1-D non-quasiconvex effective
Hamiltonian with convex companion coordinates so that the d-dimensional
Hamiltonian is quasiconvex on the relevant sublevel body while its effective
Hamiltonian fails quasiconvexity along a momentum segment.

The companion is built from the curvature ratio M of the first coordinate's
Hamiltonian; its log-barrier core satisfies the differential inequality that
makes every sublevel set of the separable sum convex up to level R.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cell
from .errors import HypothesisViolation, OutOfBox
from .hamiltonians import Hamiltonian1D, build_breve_G, build_J, invert_J
from .numerics import sample_min
from .pipeline import CertifiedCounterexample, window_correctors
from .potentials import PeriodicPotential, zero_potential


def compute_M(G1: Hamiltonian1D, p_lo: float = 1e-4, p_hi: float = 1e3,
              n: int = 2**15) -> float:
    """Curvature ratio M = -inf_{p>0} G1''(p) / (G1'(p))^2 by log-spaced
    sampling with local refinement."""
    p = np.geomspace(p_lo, p_hi, n)
    d1 = np.asarray(G1.d1(p), dtype=float)
    if np.any(d1 <= 0.0):
        raise HypothesisViolation("G1' must be positive for p > 0")
    ratio = np.asarray(G1.d2(p), dtype=float) / np.square(d1)
    if not np.all(np.isfinite(ratio)):
        raise HypothesisViolation("curvature ratio is not finite on the grid")
    i = int(np.argmin(ratio))
    lo = p[max(i - 1, 0)]
    hi = p[min(i + 1, n - 1)]
    _, r_min = sample_min(lambda q: np.asarray(G1.d2(q)) / np.square(np.asarray(G1.d1(q))),
                          lo, hi, n=4096)
    r_min = min(r_min, float(ratio[i]))
    if r_min >= 0.0:
        raise HypothesisViolation("G1'' is nonnegative wherever sampled; "
                                  "need strict concavity somewhere")
    return -r_min


@dataclass
class SeparableSystem:
    """d-dimensional separable Hamiltonian with its certified 1-D core."""

    d: int
    G1: Hamiltonian1D
    V1: PeriodicPotential
    breve_G: Hamiltonian1D
    breve_V: PeriodicPotential
    M: float
    R: float
    R1: float
    breve_R: float
    c: float
    theta0: float
    first_init: Optional[tuple] = None   # (lam, p0) warm start for V1 solves
    _cache: dict = field(default_factory=dict)

    def value(self, p):
        """G1(p_1) + sum_i breve_G(p_i) for points p of shape (..., d)."""
        p = np.asarray(p, dtype=float)
        v = np.asarray(self.G1.eval(p[..., 0]), dtype=float).copy()
        for i in range(1, self.d):
            v += np.asarray(self.breve_G.eval(p[..., i]), dtype=float)
        return v

    def _solve_coord(self, which: str, theta: float, N: int):
        key = (which, round(float(theta), 12), N)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if which == "first":
            G, V, init = self.G1, self.V1, self.first_init
        else:
            G, V, init = self.breve_G, self.breve_V, None
        sol = cell.solve_cell(G, V, float(theta), N=N, init=init)
        self._cache[key] = sol
        return sol


def build_separable_system(certified: CertifiedCounterexample, d: int,
                           breve_V: Optional[PeriodicPotential] = None,
                           N: int = cell.DEFAULT_N) -> SeparableSystem:
    """Assemble the d-dimensional system around a certified 1-D counterexample.

    R1 bounds the first coordinate's Hamiltonian along every corrector in the
    scanned window; by the strict ordering of correctors in theta it suffices
    to bracket with the two extreme correctors. (The closed-form bound via
    2 sup|V1| is astronomically large for the synthesized potentials, whose
    sup grows like the inverse ramp width, so the measured bound is used.)
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if breve_V is None:
        breve_V = zero_potential()
    bundle = certified.bundle
    G1, V1, th0, c = bundle.G, bundle.V, bundle.theta0, certified.c
    M = compute_M(G1)
    init = (0.0, float(bundle.profile.eval(0.0)))
    lo, hi = window_correctors(G1, V1, th0, c, certified.sweep, N=N, init=init)
    p_lo = float(np.min(lo.f_best))
    p_hi = float(np.max(hi.f_best))
    grid = np.linspace(p_lo, p_hi, 4097)
    r1 = float(np.max(np.asarray(G1.eval(grid), dtype=float))) * (1.0 + 1e-9) + 1e-12
    J, _, _ = build_J(M, d)
    breve_r = float(J(c)) + 2.0 * breve_V.sup_abs
    R = r1 + (d - 1) * breve_r
    breve = build_breve_G(M, d, R)
    return SeparableSystem(d=d, G1=G1, V1=V1, breve_G=breve, breve_V=breve_V,
                           M=M, R=R, R1=r1, breve_R=breve_r, c=c, theta0=th0,
                           first_init=init)


@dataclass
class ConvexityReport:
    r: float
    samples: int
    midpoint_violations: list
    differential_min: float

    @property
    def ok(self) -> bool:
        return not self.midpoint_violations and self.differential_min > 0.0


def _coordinate_box(sys: SeparableSystem, r: float):
    from .numerics import expand_until, leftmost_crossing, rightmost_crossing

    box = np.empty((sys.d, 2))
    for i, G in enumerate([sys.G1] + [sys.breve_G] * (sys.d - 1)):
        lo, hi = expand_until(lambda p: float(G.eval(p)), r, 0.0)
        box[i, 0] = leftmost_crossing(G.eval, r, lo, 0.0)
        box[i, 1] = rightmost_crossing(G.eval, r, 0.0, hi)
    return box


def check_sublevel_convexity(sys: SeparableSystem, r: float, samples: int = 10**5,
                             seed: int = 0, tol: float = 1e-9) -> ConvexityReport:
    """Monte-Carlo midpoint convexity probe of the sublevel body at level r,
    plus the differential criterion for the companion coordinates."""
    if r > sys.R + 1e-12:
        raise ValueError("convexity is only claimed up to level R")
    rng = np.random.default_rng(seed)
    box = _coordinate_box(sys, r)
    collected = 0
    violations = []
    while collected < samples:
        want = samples - collected
        # rejection sample pairs inside the sublevel body
        cand = rng.uniform(box[:, 0], box[:, 1], size=(max(2 * want, 1024), sys.d))
        inside = sys.value(cand) <= r
        pts = cand[inside]
        if len(pts) < 2:
            continue
        take = min(len(pts) // 2, want)
        p = pts[:take]
        q = pts[take:2 * take]
        vm = sys.value(0.5 * (p + q))
        bad = vm > r + tol
        for j in np.nonzero(bad)[0][:10]:
            violations.append((p[j].tolist(), q[j].tolist(), float(vm[j])))
        collected += take
        if violations:
            break
    # differential criterion on the companion slice, up to the barrier knot
    p_r = invert_J(sys.M, sys.d, sys.R)
    ps = np.linspace(0.0, p_r, 4097)
    gap = (np.asarray(sys.breve_G.d2(ps), dtype=float)
           - sys.M * (sys.d - 1) * np.square(np.asarray(sys.breve_G.d1(ps), dtype=float)))
    return ConvexityReport(r=r, samples=collected,
                           midpoint_violations=violations,
                           differential_min=float(np.min(gap)))


def effective_sum(sys: SeparableSystem, theta, N: int = cell.DEFAULT_N) -> float:
    """Effective Hamiltonian of the separable system at a momentum vector
    inside the validity box [theta0 +/- c] x [-c, c]^{d-1}."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (sys.d,):
        raise OutOfBox(f"theta must have shape ({sys.d},)")
    if not (sys.theta0 - sys.c - 1e-12 <= theta[0] <= sys.theta0 + sys.c + 1e-12):
        raise OutOfBox("first coordinate outside the certified window")
    if np.any(np.abs(theta[1:]) > sys.c + 1e-12):
        raise OutOfBox("companion coordinate outside [-c, c]")
    total = sys._solve_coord("first", theta[0], N).hbar
    for i in range(1, sys.d):
        total += sys._solve_coord("companion", theta[i], N).hbar
    return float(total)


def budget_check(sys: SeparableSystem, thetas_first, N: int = cell.DEFAULT_N) -> dict:
    """Verify the per-coordinate level budgets along scanned momenta:
    G1 along first-coordinate correctors stays below R1 and the companion
    stays below breve_R."""
    worst_first = -np.inf
    for th in thetas_first:
        sol = sys._solve_coord("first", float(th), N)
        worst_first = max(worst_first,
                          float(np.max(np.asarray(sys.G1.eval(sol.f_best)))))
    worst_comp = -np.inf
    for th in (-sys.c, 0.0, sys.c):
        sol = sys._solve_coord("companion", th, N)
        worst_comp = max(worst_comp,
                         float(np.max(np.asarray(sys.breve_G.eval(sol.f_best)))))
    return {
        "first_max": worst_first, "first_budget": sys.R1,
        "first_ok": worst_first <= sys.R1 + 1e-9,
        "companion_max": worst_comp, "companion_budget": sys.breve_R,
        "companion_ok": worst_comp <= sys.breve_R + 1e-9,
    }


def segment_scan(sys: SeparableSystem, n_points: int = 129,
                 N: int = cell.DEFAULT_N, sweep=None):
    """Effective sum along the segment theta_1 in [theta0-c, theta0+c] with
    the other coordinates at 0; the first coordinate's values come from a
    batched sweep (reused if one is supplied with a matching grid)."""
    comp0 = sys._solve_coord("companion", 0.0, N).hbar
    if sweep is not None and len(sweep.thetas) == n_points:
        sw = sweep
    else:
        sw = cell.sweep_hbar(sys.G1, sys.V1, sys.theta0 - sys.c,
                             sys.theta0 + sys.c, n_points, N=N)
    for sol in sw.solutions:
        sys._cache.setdefault(("first", round(sol.theta, 12), N), sol)
    values = sw.hbars + (sys.d - 1) * comp0
    return np.asarray(sw.thetas), values
