"""Catalog of 1-D Hamiltonians with exact derivatives, plus the constructive
builders: compactly supported bump modification of a convex G, and the convex
companion used by the separable multi-dimensional assembly.

All evaluation callables are numpy-vectorized and pure; Hamiltonian objects are
immutable and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, NoDeltaFound, NonConvexInput
from .numerics import is_quasiconvex_on_grid, max_abs_on, sample_min

#: max |d/dp (1-p^2)^3| on [-1, 1], attained at p = 1/sqrt(5)
BUMP_D1_MAX = 96.0 / (25.0 * math.sqrt(5.0))


def bump_psi(p):
    """C^2 bump: (1-p^2)^3 on [-1, 1], zero outside."""
    u = 1.0 - np.minimum(np.square(np.asarray(p, dtype=float)), 1.0)
    return u * u * u   # products: an array power goes through libm pow


def bump_psi_d1(p):
    p = np.asarray(p, dtype=float)
    t2 = np.minimum(np.square(p), 1.0)
    return -6.0 * p * np.where(np.square(p) <= 1.0, (1.0 - t2) ** 2, 0.0)


def bump_psi_d2(p):
    p = np.asarray(p, dtype=float)
    t2 = np.minimum(np.square(p), 1.0)
    return -6.0 * (1.0 - t2) * (1.0 - 5.0 * t2)


@dataclass(frozen=True)
class Hamiltonian1D:
    """Twice-differentiable scalar Hamiltonian with exact derivatives.

    ``growth`` is optional superlinearity metadata (eta, alpha0, alpha1) for
    alpha0*|p|^eta - 1/alpha0 <= G(p) <= alpha1*(|p|^eta + 1). ``spec`` says
    how to rebuild it (``pipeline.hamiltonian_from_spec``): a catalog name, a
    CSV path and digest, or a base plus one bump; None if it cannot be
    rebuilt.
    """

    label: str
    eval: Callable
    d1: Callable
    d2: Callable
    growth: Optional[tuple] = None
    fingerprint: str = ""
    spec: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self):
        if not self.fingerprint:
            object.__setattr__(self, "fingerprint", self.label)

    def __call__(self, p):
        return self.eval(p)


@dataclass(frozen=True)
class BumpParams:
    """Parameters of the compact modification G + a*delta*Psi((p-p0)/delta)."""

    a: float
    p0: float
    delta: float

    def __post_init__(self):
        # plain floats, so NumPy scalars give the same fingerprint and spec
        for name in ("a", "p0", "delta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.a < -1:
            raise ValueError("amplitude below -1 is not supported")


def with_bump(base: Hamiltonian1D, bump: BumpParams, label: str = "") -> Hamiltonian1D:
    """Add a scaled bump to ``base``; equals ``base`` bit-exactly outside the support."""
    a, p0, d = bump.a, bump.p0, bump.delta

    def ev(p):
        return base.eval(p) + (a * d) * bump_psi((np.asarray(p, dtype=float) - p0) / d)

    def d1(p):
        return base.d1(p) + a * bump_psi_d1((np.asarray(p, dtype=float) - p0) / d)

    def d2(p):
        return base.d2(p) + (a / d) * bump_psi_d2((np.asarray(p, dtype=float) - p0) / d)

    fp = f"{base.fingerprint}+bump(a={a!r},p0={p0!r},delta={d!r})"
    spec = None if base.spec is None else {"base": base.spec.get("name", base.spec),
                                           "bump": {"a": a, "p0": p0, "delta": d}}
    return Hamiltonian1D(label or fp, ev, d1, d2, growth=None, fingerprint=fp, spec=spec)


def reflect(G: Hamiltonian1D) -> Hamiltonian1D:
    """The momentum-reflected Hamiltonian p -> G(-p)."""

    def ev(p):
        return G.eval(-np.asarray(p, dtype=float))

    def d1(p):
        return -G.d1(-np.asarray(p, dtype=float))

    def d2(p):
        return G.d2(-np.asarray(p, dtype=float))

    return Hamiltonian1D(f"reflect({G.label})", ev, d1, d2, growth=G.growth,
                         fingerprint=f"reflect({G.fingerprint})")


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _quadratic() -> Hamiltonian1D:
    return Hamiltonian1D(
        "quadratic",
        lambda p: 0.5 * np.square(np.asarray(p, dtype=float)),
        lambda p: np.asarray(p, dtype=float),
        lambda p: np.ones_like(np.asarray(p, dtype=float)),
        growth=(2.0, 0.5, 0.5),
    )


def _flat_quartic() -> Hamiltonian1D:
    def q(p):
        return np.maximum(np.abs(np.asarray(p, dtype=float)), 1.0) - 1.0

    def d1(p):
        qp = q(p)   # products, not array powers: those go through libm pow
        return 2.0 * qp * qp * qp * np.sign(np.asarray(p, dtype=float))

    return Hamiltonian1D(
        "flat_quartic",
        lambda p: 0.5 * np.square(np.square(q(p))),
        d1,
        lambda p: 6.0 * q(p) ** 2,
        growth=(4.0, 1.0 / 32.0, 0.5),
    )


def _multid_g1() -> Hamiltonian1D:
    # even, vanishing at 0, strictly increasing for p > 0, concave stretch
    # around |p| = 1, and finite curvature ratio -inf G''/(G')^2.
    def ev(p):
        p = np.asarray(p, dtype=float)
        p2 = np.square(p)
        return p2 + 6.0 * p2 / (1.0 + p2)

    def d1(p):
        p = np.asarray(p, dtype=float)
        return 2.0 * p + 12.0 * p / np.square(1.0 + np.square(p))

    def d2(p):
        p = np.asarray(p, dtype=float)
        p2 = np.square(p)
        return 2.0 + 12.0 * (1.0 - 3.0 * p2) / (1.0 + p2) ** 3

    return Hamiltonian1D("multid_g1", ev, d1, d2, growth=(2.0, 1.0, 7.0))


def _fig2_bump() -> Hamiltonian1D:
    # canonical Case-1 modification of the quadratic on (-2, -1)
    g = with_bump(_quadratic(), BumpParams(a=0.5, p0=-1.5, delta=0.02), label="fig2_bump")
    return replace(g, growth=(2.0, 0.45, 0.51))


def _fig3_flat() -> Hamiltonian1D:
    # flat-bottomed quartic with a central dip (Case-3 modification on (-1/2, 1/2))
    g = with_bump(_flat_quartic(), BumpParams(a=-1.0, p0=0.0, delta=0.5), label="fig3_flat")
    return replace(g, growth=(4.0, 1.0 / 32.0, 0.5))


_FACTORIES = {
    "quadratic": _quadratic,
    "flat_quartic": _flat_quartic,
    "fig2_bump": _fig2_bump,
    "fig3_flat": _fig3_flat,
    "multid_g1": _multid_g1,
}

#: momenta satisfying the slope/curvature hypotheses for the named entries
CERTIFIED_POINTS = {
    "fig2_bump": (-1.5, 1.5),
    "fig3_flat": (-0.25, 0.25),
    "multid_g1": (-1.0, 1.0),
}

_CACHE: dict = {}


def available() -> list:
    return sorted(_FACTORIES)


def get_hamiltonian(name: str) -> Hamiltonian1D:
    if name not in _FACTORIES:
        raise KeyError(f"unknown Hamiltonian {name!r}; available: {available()}")
    if name not in _CACHE:
        _CACHE[name] = replace(_FACTORIES[name](), spec={"name": name})
    return _CACHE[name]


def load_hamiltonian_csv(path) -> Hamiltonian1D:
    """Load a sampled Hamiltonian from CSV columns p,G,G1,G2 (p strictly increasing).

    Values and derivatives are interpolated independently with cubic splines;
    consistency is only as good as the data.
    """
    from scipy.interpolate import CubicSpline

    raw = np.genfromtxt(path, delimiter=",", names=True)
    for col in ("p", "G", "G1", "G2"):
        if col not in raw.dtype.names:
            raise ValueError(f"CSV is missing column {col!r}")
    p = np.asarray(raw["p"], dtype=float)
    if not np.all(np.diff(p) > 0):
        raise ValueError("column p must be strictly increasing")
    s0 = CubicSpline(p, raw["G"])
    s1 = CubicSpline(p, raw["G1"])
    s2 = CubicSpline(p, raw["G2"])
    import hashlib

    digest = hashlib.sha256(np.ascontiguousarray(raw).tobytes()).hexdigest()[:16]
    return Hamiltonian1D(f"csv:{path}", s0, s1, s2, fingerprint=f"csv:{digest}",
                         spec={"csv": str(Path(path).resolve()), "sha": digest})


# ---------------------------------------------------------------------------
# quasiconvex modification of a convex Hamiltonian
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CandidatePoints:
    """Certified momenta p1 < p2 plus the bump that produced them."""

    p1: float
    p2: float
    case: int
    bump: BumpParams


def check_convexity(G: Hamiltonian1D, lo: float, hi: float, tol: float = 1e-9):
    _, d2_min = sample_min(G.d2, lo, hi)
    if d2_min < -tol:
        raise NonConvexInput(f"sampled G'' reaches {d2_min:.3e} on [{lo}, {hi}]")


def verify_quasiconvex(G: Hamiltonian1D, lo: float, hi: float,
                       extra_window=None, n: int = 20000) -> bool:
    grid = np.linspace(lo, hi, n)
    if extra_window is not None:
        a, b = extra_window
        grid = np.sort(np.concatenate([grid, np.linspace(a, b, 4001)]))
    vals = np.asarray(G.eval(grid), dtype=float)
    scale = max(1.0, float(np.max(np.abs(vals))))
    return is_quasiconvex_on_grid(vals, tol=1e-13 * scale)


def _case1(G, p_star, p_upper, delta, rel_margin, delta_floor):
    a = -float(G.d1(p_star)) / 4.0
    # rightmost q in [p_star, p_upper] with G'(q) <= -2a (G' nondecreasing)
    if float(G.d1(p_upper)) <= -2.0 * a:
        q = p_upper
    else:
        q = brentq(lambda p: float(G.d1(p)) + 2.0 * a, p_star, p_upper, xtol=1e-13)
    p1 = 0.5 * (p_star + q)
    delta0 = 0.5 * (q - p_star)

    # candidate grid for p2 with step half the modification interval; take the
    # first point past the bump where the slope at least balances |G'(p1)|
    step = 0.5 * (p_upper - p_star)
    target = abs(float(G.d1(p1)))
    p2 = None
    for j in range(1, 10**6):
        cand = p1 + j * step
        if cand > p1 + delta0 and float(G.d1(cand)) >= target:
            p2 = cand
            break
    if p2 is None:
        raise NoDeltaFound("no admissible p2 on the candidate grid")

    k1 = max_abs_on(G.d1, p1, p2)
    g2_p1 = float(G.d2(p1))
    g2_p2 = float(G.d2(p2))
    g1_p1 = float(G.d1(p1))
    g1_p2 = float(G.d1(p2))

    def accepted(dlt):
        lhs = (g2_p1 - 6.0 * a / dlt) * g1_p2 * math.exp(-k1 - 2.0 * a)
        rhs = g2_p2 * g1_p1 * math.exp(k1 + 2.0 * a)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        return (g2_p1 - 6.0 * a / dlt) < 0.0 and (rhs - lhs) >= rel_margin * scale

    if delta is not None:
        if not (0.0 < delta <= delta0):
            raise NoDeltaFound(f"requested delta {delta} outside (0, {delta0}]")
        if not accepted(delta):
            raise NoDeltaFound(f"requested delta {delta} fails the acceptance chain")
        out = delta
    else:
        out = delta0
        while not accepted(out):
            out *= 0.5
            if out < delta_floor:
                raise NoDeltaFound(f"delta search hit the floor {delta_floor}")
    bump = BumpParams(a=a, p0=p1, delta=out)
    return with_bump(G, bump), CandidatePoints(p1=p1, p2=p2, case=1, bump=bump)


def modify_convex_to_quasiconvex(G: Hamiltonian1D, p_star: float, p_upper: float,
                                 delta: float = None, rel_margin: float = 1e-3,
                                 delta_floor: float = 1e-6):
    """Modify a convex ``G`` on a subinterval of (p_star, p_upper) so the result
    is quasiconvex and carries certified momenta p1 < p2 with G'(p1) < 0 < G'(p2)
    and the curvature/slope chain needed by the loss-of-quasiconvexity pipeline.

    Dispatch: slope negative at the left edge -> bump centered left of the slope
    sign change (case 1); slope positive at the right edge -> reflected case 1
    (case 2); slope identically zero -> downward dip at the midpoint (case 3).
    """
    if not p_star < p_upper:
        raise ValueError("need p_star < p_upper")
    span = p_upper - p_star
    check_convexity(G, p_star - 2.0 * span, p_upper + 2.0 * span)
    zero_tol = 1e-12 * max(1.0, abs(float(G.d1(p_star))), abs(float(G.d1(p_upper))))

    if float(G.d1(p_star)) < -zero_tol:
        gt, cand = _case1(G, p_star, p_upper, delta, rel_margin, delta_floor)
    elif float(G.d1(p_upper)) > zero_tol:
        gt_r, cand_r = _case1(reflect(G), -p_upper, -p_star, delta, rel_margin, delta_floor)
        bump = BumpParams(a=cand_r.bump.a, p0=-cand_r.bump.p0, delta=cand_r.bump.delta)
        gt = with_bump(G, bump)
        cand = CandidatePoints(p1=-cand_r.p2, p2=-cand_r.p1, case=2, bump=bump)
    else:
        if max_abs_on(G.d1, p_star, p_upper) > 1e-10:
            raise NonConvexInput("slope vanishes at both edges but not inside")
        half = 0.5 * span
        bump = BumpParams(a=-1.0, p0=0.5 * (p_star + p_upper), delta=half)
        gt = with_bump(G, bump)
        cand = CandidatePoints(p1=bump.p0 - half / 2.0, p2=bump.p0 + half / 2.0,
                               case=3, bump=bump)

    lo = p_star - 4.0 * max(span, 1.0)
    hi = p_upper + 4.0 * max(span, 1.0)
    window = (cand.bump.p0 - cand.bump.delta, cand.bump.p0 + cand.bump.delta)
    if not verify_quasiconvex(gt, lo, hi, extra_window=window):
        raise NoDeltaFound("modified Hamiltonian failed the sampled sublevel check")
    return gt, cand


# ---------------------------------------------------------------------------
# convex companion for the separable d-dimensional construction
# ---------------------------------------------------------------------------

def build_J(M: float, d: int):
    """Log-barrier profile J with J(0)=J'(0)=0 and J'' > M(d-1) (J')^2 on [0, 1).

    Returns (J, J', J'') callables; arguments outside [0, 1) raise DomainError.
    """
    if M <= 0:
        raise ValueError("M must be positive")
    if d < 2:
        raise ValueError("d must be at least 2")
    md1 = M * (d - 1)

    def _check(p):
        p = np.asarray(p, dtype=float)
        if np.any(p < 0.0) or np.any(p >= 1.0):
            raise DomainError("argument outside [0, 1)")
        return p

    def J(p):
        p = _check(p)
        return -(np.log1p(-p) + p) / md1

    def J1(p):
        p = _check(p)
        return p / ((1.0 - p) * md1)

    def J2(p):
        p = _check(p)
        return 1.0 / (md1 * np.square(1.0 - p))

    return J, J1, J2


def invert_J(M: float, d: int, R: float) -> float:
    """p_R with J(p_R) = R, by bisection on [0, 1)."""
    if R <= 0:
        raise ValueError("R must be positive")
    J, _, _ = build_J(M, d)
    hi = float(np.nextafter(1.0, 0.0))
    if float(J(hi)) < R:
        raise ValueError(
            f"level R={R:g} is unreachable in float64 for M(d-1)={M * (d - 1):g}")
    return brentq(lambda p: float(J(p)) - R, 0.0, hi, xtol=1e-14)


def build_breve_G(M: float, d: int, R: float) -> Hamiltonian1D:
    """Even strictly convex companion: J(|p|) capped at level R by a C^2
    quadratic extension, so curvature control holds on the whole sublevel body."""
    J, J1, J2 = build_J(M, d)
    p_r = invert_J(M, d, R)
    j1r = float(J1(p_r))
    j2r = float(J2(p_r))

    def ev(p):
        ap = np.abs(np.asarray(p, dtype=float))
        inner = np.minimum(ap, p_r)
        core = np.asarray(J(inner), dtype=float)
        t = np.maximum(ap - p_r, 0.0)
        return core + j1r * t + 0.5 * j2r * np.square(t)

    def d1(p):
        p = np.asarray(p, dtype=float)
        ap = np.abs(p)
        inner = np.minimum(ap, p_r)
        mag = np.where(ap <= p_r, np.asarray(J1(inner), dtype=float),
                       j1r + j2r * (ap - p_r))
        return np.sign(p) * mag

    def d2(p):
        ap = np.abs(np.asarray(p, dtype=float))
        inner = np.minimum(ap, p_r)
        return np.where(ap <= p_r, np.asarray(J2(inner), dtype=float), j2r)

    label = f"breve_G(M={M:.6g},d={d},R={R:.6g})"
    # quadratic tail: conservative growth constants, checked on a wide grid
    alpha0 = 0.25 * j2r
    probe = np.linspace(-50.0, 50.0, 4001)
    g = Hamiltonian1D(label, ev, d1, d2, fingerprint=label)
    vals = np.asarray(g.eval(probe), dtype=float)
    while alpha0 > 0 and np.any(alpha0 * probe**2 - 1.0 / alpha0 > vals):
        alpha0 *= 0.5
    alpha1 = float(np.max(vals / (probe**2 + 1.0))) * 1.01
    return replace(g, growth=(2.0, alpha0, alpha1))
