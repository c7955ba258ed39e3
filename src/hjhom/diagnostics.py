"""Diagnostics built on solved cell problems: the slope integral I along the
corrector, positive periodic solutions of the linearized equation, local-growth
predictions for the effective Hamiltonian, difference bounds between
correctors, and bump certificates for sampled effective-Hamiltonian curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import simpson

from .cell import HBAR_TOL, CorrectorSolution, linearize
from .hamiltonians import Hamiltonian1D
from .numerics import PiecewiseSimpson, cumulative_simpson_pieces, max_abs_on

#: band around zero inside which I(1) is treated as exactly critical
TOL_I_SIGN = 1e-9


def compute_I(corr: CorrectorSolution, G: Hamiltonian1D):
    """Cumulative slope integral I(x) = int_0^x G'(f(y)) dy along the corrector,
    on the finest grid the solver kept; the quadrature never spans a kink of
    the potential."""
    gp = np.asarray(G.d1(corr.f_best), dtype=float)
    I_grid = cumulative_simpson_pieces(gp, corr.x_best, corr.fine_piece_idx)
    return I_grid, float(I_grid[-1])


@dataclass
class LinearizedSolution:
    """Positive 1-periodic solution of g' + G'(f_theta) g = c_theta."""

    theta: float
    c_theta: float
    C_theta: float
    g_grid: np.ndarray
    b_theta: float
    I_end: float
    x_grid: Optional[np.ndarray] = None


def linearized_periodic_solution(corr: CorrectorSolution, G: Hamiltonian1D,
                                 tol: float = TOL_I_SIGN) -> LinearizedSolution:
    """Select the forcing constant by the sign of I(1) and build the unique
    (up to scale in the critical case) positive periodic solution.

    g = c df/dlam + C df/dp0 in terms of the shooting sensitivities along the
    corrector (:func:`hjhom.cell.linearize`); periodicity fixes
    C = c (df/dlam)(1) / (1 - e^{-I(1)}).
    """
    x = corr.x_best
    lin = linearize(G, corr.f_best, PiecewiseSimpson(x, corr.fine_piece_idx))
    I_end = float(lin.I[-1])
    if I_end > tol:
        c = 1.0
    elif I_end < -tol:
        c = -1.0
    else:
        c = 0.0
    if c == 0.0:
        C = 1.0
    else:
        C = c * float(lin.dlam[-1]) / float(-np.expm1(-I_end))
    g = c * lin.dlam + C * lin.dp0
    b = float(simpson(g, x=x))
    return LinearizedSolution(theta=corr.theta, c_theta=c, C_theta=C,
                              g_grid=g, b_theta=b, I_end=I_end, x_grid=x)


@dataclass
class GrowthPrediction:
    """Side on which the effective Hamiltonian must exceed its value at theta."""

    theta: float
    side: str          # "right" | "left" | "critical"
    window: float      # b(theta); predicted location within theta +/- h*window
    I_end: float


def predict_local_growth(corr: CorrectorSolution, G: Hamiltonian1D,
                         tol: float = TOL_I_SIGN) -> GrowthPrediction:
    lin = linearized_periodic_solution(corr, G, tol=tol)
    if lin.I_end > tol:
        side = "right"
    elif lin.I_end < -tol:
        side = "left"
    else:
        side = "critical"
    return GrowthPrediction(theta=corr.theta, side=side, window=lin.b_theta,
                            I_end=lin.I_end)


def confirm_prediction(pred: GrowthPrediction, thetas, hbars, hbar_ref: float,
                       h_scan=None, margin: float = 10.0 * HBAR_TOL):
    """Check a growth prediction against sweep samples.

    Scans h downward and returns the smallest h for which the window on the
    predicted side of pred.theta contains a sweep point with hbar strictly
    above hbar_ref (by ``margin``). Returns None if no scanned window works.
    """
    if pred.side == "critical":
        return None
    if h_scan is None:
        h_scan = [2.0 ** (-k) for k in range(0, 31)]
    thetas = np.asarray(thetas, dtype=float)
    hbars = np.asarray(hbars, dtype=float)
    confirmed = None
    for h in h_scan:
        w = h * pred.window
        if pred.side == "right":
            mask = (thetas > pred.theta) & (thetas <= pred.theta + w)
        else:
            mask = (thetas < pred.theta) & (thetas >= pred.theta - w)
        if not mask.any():
            break
        if np.max(hbars[mask]) > hbar_ref + margin:
            confirmed = h
        else:
            break
    return confirmed


@dataclass
class QuasiconvexityCertificate:
    """Sampled triple proving an interior bump of the effective Hamiltonian."""

    theta_left: float
    theta_mid: float
    theta_right: float
    hbar_left: float
    hbar_mid: float
    hbar_right: float
    margin: float

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "theta_left", "theta_mid", "theta_right",
            "hbar_left", "hbar_mid", "hbar_right", "margin")}


def certify_nonquasiconvex(thetas, hbars, margin: Optional[float] = None,
                           hbar_tol: float = HBAR_TOL):
    """Search a sampled curve for indices i < j < k with
    hbar[j] > max(hbar[i], hbar[k]) + margin; return the margin-maximizing
    triple, or None. None is a legitimate outcome (quasiconvex curves)."""
    thetas = np.asarray(thetas, dtype=float)
    hbars = np.asarray(hbars, dtype=float)
    if len(thetas) < 3:
        raise ValueError("need at least three sweep points")
    if np.any(np.diff(thetas) <= 0):
        raise ValueError("curve must be sorted by theta")
    if margin is None:
        margin = max(10.0 * hbar_tol, 1e-6)
    n = len(hbars)
    pre_idx = np.zeros(n, dtype=int)      # argmin of hbars[:j]
    for j in range(1, n):
        pre_idx[j] = pre_idx[j - 1] if hbars[pre_idx[j - 1]] <= hbars[j - 1] else j - 1
    suf_idx = np.full(n, n - 1, dtype=int)  # argmin of hbars[j+1:]
    for j in range(n - 2, -1, -1):
        suf_idx[j] = suf_idx[j + 1] if hbars[suf_idx[j + 1]] <= hbars[j + 1] else j + 1
    best_j, best_m = -1, -np.inf
    for j in range(1, n - 1):
        i, k = pre_idx[j], suf_idx[j]
        m = hbars[j] - max(hbars[i], hbars[k])
        if m > best_m:
            best_j, best_m = j, m
    if best_m < margin:
        return None
    i, j, k = pre_idx[best_j], best_j, suf_idx[best_j]
    return QuasiconvexityCertificate(
        theta_left=float(thetas[i]), theta_mid=float(thetas[j]),
        theta_right=float(thetas[k]), hbar_left=float(hbars[i]),
        hbar_mid=float(hbars[j]), hbar_right=float(hbars[k]),
        margin=float(best_m))


@dataclass
class BoundsReport:
    """Pointwise check of the exponential band for corrector differences."""

    theta1: float
    theta2: float
    K1: float
    ordered: bool
    band_lo: float
    band_hi: float
    n_violations: int
    worst_excess: float
    mean_gap: float

    @property
    def ok(self) -> bool:
        return self.ordered and self.n_violations == 0


def pairwise_K1(G: Hamiltonian1D, f1, f2) -> float:
    """max |G'| over [min f1, max f2], the Gronwall constant for the pair."""
    lo = float(np.min(f1))
    hi = float(np.max(f2))
    if hi <= lo:
        hi = lo + 1e-300
    return max_abs_on(G.d1, lo, hi)


def check_bounds_lemma(corr1: CorrectorSolution, corr2: CorrectorSolution,
                       G: Hamiltonian1D, slack: float = 1e-9) -> BoundsReport:
    """For theta1 < theta2, verify strict ordering of the correctors and the
    two-sided exponential band on their difference at every grid node."""
    if not corr1.theta < corr2.theta:
        raise ValueError("need corr1.theta < corr2.theta")
    if len(corr1.f_best) != len(corr2.f_best):
        raise ValueError("correctors must share a grid")
    f1, f2 = corr1.f_best, corr2.f_best
    g = f2 - f1
    dt = corr2.theta - corr1.theta
    k1 = pairwise_K1(G, f1, f2)
    lo = dt * np.exp(-k1)
    hi = dt * np.exp(k1)
    tol = slack * max(1.0, hi)
    bad = (g < lo - tol) | (g > hi + tol)
    worst = 0.0
    if bad.any():
        worst = float(np.max(np.maximum(lo - g, g - hi)[bad]))
    x = corr1.x_best
    return BoundsReport(
        theta1=corr1.theta, theta2=corr2.theta, K1=k1,
        ordered=bool(np.all(g > 0)), band_lo=float(lo), band_hi=float(hi),
        n_violations=int(bad.sum()), worst_excess=worst,
        mean_gap=float(np.trapezoid(g, x)))
