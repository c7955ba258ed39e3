"""Independent verification of the effective Hamiltonian by long-time
integration of the parabolic equation

    w_t = w_xx + G(theta + w_x) + V(x),   w 1-periodic, w(0, .) = 0,

whose spatial mean grows like hbar(theta) * t. Diffusion is implicit (the
periodic diffusion matrix is circulant: one real FFT pair per step), the
Hamiltonian term explicit; with implicit diffusion the growth rate of the
discrete steady state does not depend on dt, so the step is chosen by the
explicit term's von Neumann bound.

For potentials with steep piecewise structure the solver substitutes
w = z + A with A'' = -(V - mean V): the rough part of the potential moves into
the (exactly computed) argument shift A' of the Hamiltonian and the solved
field z has bounded curvature on coarse grids.

A Hopf-Cole eigenvalue oracle (sparse ARPACK shift-invert) provides a second,
scheme-independent value for the quadratic Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.fft as sfft
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from . import cell
from .errors import Instability, NoPositiveEigenvector
from .hamiltonians import Hamiltonian1D
from .numerics import expand_until, leftmost_crossing, max_abs_on, rightmost_crossing
from .potentials import PeriodicPotential

DEFAULT_NX = 4096
DEFAULT_T = 40.0


def circulant_diffusion_solver(r: float, n: int):
    """Solver for the implicit diffusion step (I - r D2) z = rhs, with D2 the
    periodic second difference on n points. The matrix is circulant, so it is
    diagonal in Fourier space with the precomputed symbol below."""
    symbol = 1.0 + 2.0 * r * (1.0 - np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n))
    inv_symbol = 1.0 / symbol
    return lambda rhs: sfft.irfft(sfft.rfft(rhs) * inv_symbol, n)


def _exact_potential_profiles(V: PeriodicPotential, n_x: int):
    """Mean of V, its node samples, and the argument shift A' at the nodes,
    computed on a breakpoint-refined grid so kink masses are exact."""
    grid = cell._grid_for(V, n_x)
    h = grid.h
    inc = h / 6.0 * (grid.v_nodes[:-1] + 4.0 * grid.v_mids + grid.v_nodes[1:])
    cum = np.concatenate([[0.0], np.cumsum(inc)])
    v_mean = float(cum[-1])
    a_prime = -(cum - v_mean * grid.nodes)
    # center so that the antiderivative of the shift is itself periodic
    a_prime -= np.trapezoid(a_prime, grid.nodes)
    sel = grid.out_col >= 0
    return v_mean, grid.v_nodes[sel][:-1], a_prime[sel][:-1], grid


@dataclass
class ParabolicRun:
    """Record of one long-time run and its fitted growth rate."""

    theta: float
    n_x: int
    dt: float
    t_final: float
    slope: float
    slope_ci: float
    mode: str
    retries: int
    bound_ok: bool
    trace: Optional[np.ndarray] = None   # columns: t, mean_w, max_w, min_w


def long_time_slope(G: Hamiltonian1D, V: PeriodicPotential, theta: float,
                    n_x: int = DEFAULT_NX, t_final: float = DEFAULT_T,
                    dt: Optional[float] = None, mode: str = "auto",
                    max_retries: int = 4) -> ParabolicRun:
    """Fitted growth rate of the spatial mean over t in [T/2, T]."""
    if t_final < 10:
        raise ValueError("t_final must be at least 10")
    if n_x < 256:
        raise ValueError("n_x must be at least 256")
    if mode == "auto":
        mode = "antideriv" if V.knots else "pointwise"

    v_mean, v_nodes, a_prime, grid = _exact_potential_profiles(V, n_x)
    h = 1.0 / n_x
    if mode == "antideriv":
        arg_shift = a_prime
        forcing = v_mean
        # gradient window of the transformed problem: the effective potential
        # is the constant mean of V, so the window is O(1) even for spiky V
        sh_lo, sh_hi = float(np.min(a_prime)), float(np.max(a_prime))
        level = float(np.max(np.asarray(G.eval(theta + a_prime), dtype=float))) + 1.0
        wide_lo, wide_hi = expand_until(lambda p: float(G.eval(p)), level, theta)
        q_lo = leftmost_crossing(G.eval, level, wide_lo, theta) - sh_hi - 1.0
        q_hi = rightmost_crossing(G.eval, level, theta, wide_hi) - sh_lo + 1.0
        k_lo, k_hi = q_lo, q_hi
        a_vals = np.concatenate([[0.0], np.cumsum((a_prime[:-1] + a_prime[1:]) * 0.5 * h)])
    else:
        pm, pp = cell.momentum_bounds(G, V, theta, N=n_x)
        arg_shift = np.zeros(n_x)
        forcing = v_nodes
        k_lo, k_hi = pm - 1.0, pp + 1.0
        a_vals = np.zeros(n_x)
    k_adv = max_abs_on(G.d1, k_lo, k_hi)
    g_scale = max_abs_on(G.eval, k_lo, k_hi)
    lo_b = float(G.eval(theta)) + grid.v_min
    up_b = float(G.eval(theta)) + grid.v_max
    rate_bound = max(abs(lo_b), abs(up_b)) + 1.0

    if dt is None:
        dt = min(1.0 / (1.0 + k_adv**2), t_final / 2000.0)

    osc_scale = g_scale + (abs(v_mean) if mode == "antideriv" else V.sup_abs) + 1.0

    for attempt in range(max_retries + 1):
        out = _run_once(G, theta, n_x, h, dt, t_final, arg_shift, forcing,
                        a_vals, rate_bound, osc_scale)
        if out is not None:
            ts, means, trace = out
            break
        dt *= 0.5
    else:
        raise Instability(f"run unstable after {max_retries} dt halvings")

    win = ts >= 0.5 * t_final
    coef, res = np.polyfit(ts[win], means[win], 1, full=True)[:2]
    slope = float(coef[0])
    n_fit = int(win.sum())
    rms = float(np.sqrt(res[0] / n_fit)) if len(res) and n_fit > 2 else 0.0
    bound_ok = lo_b - 0.05 <= slope <= up_b + 0.05
    return ParabolicRun(theta=theta, n_x=n_x, dt=dt, t_final=t_final,
                        slope=slope, slope_ci=rms, mode=mode,
                        retries=attempt, bound_ok=bound_ok, trace=trace)


def _run_once(G, theta, n_x, h, dt, t_final, arg_shift, forcing, a_vals,
              rate_bound, osc_scale):
    """One IMEX run: (ts, means) at every step and the trace rows (t, mean,
    max, min) at every stride-th step, or None if a stability check fails."""
    n_steps = int(np.ceil(t_final / dt))
    solve = circulant_diffusion_solver(dt / h**2, n_x)
    z = -a_vals                 # w(0) = z + a_vals = 0 exactly
    a_mean = float(a_vals.mean())
    z0_inf = float(np.max(np.abs(z)))
    shift = theta + arg_shift
    ghost = np.empty(n_x + 2)   # z plus one periodic ghost cell at each end
    ts = np.arange(n_steps + 1) * dt
    means = np.zeros(n_steps + 1)
    # max/min are taken only on the kept rows and at stability checks
    stride = max(1, (n_steps + 1) // 4096)
    rows = [(0.0, 0.0, 0.0, 0.0)]
    inv2h = 0.5 / h
    osc_limit = 20.0 * h**2 * osc_scale + 1e-6
    check_every = 64
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            j = k + 1
            ghost[1:-1], ghost[0], ghost[-1] = z, z[-1], z[0]
            zx = (ghost[2:] - ghost[:-2]) * inv2h
            expl = np.asarray(G.eval(shift + zx), dtype=float) + forcing
            z = solve(z + dt * expl)
            means[j] = z.mean() + a_mean
            keep = j % stride == 0
            check = k % check_every == 0 or j == n_steps
            if not (keep or check):
                continue
            w = z + a_vals
            w_max, w_min = w.max(), w.min()
            if keep:
                rows.append((ts[j], means[j], w_max, w_min))
            if check:
                if not np.all(np.isfinite(z)):
                    return None
                w_inf = max(abs(w_max), abs(w_min))
                if w_inf > ts[j] * rate_bound + z0_inf + 1.0 + 10.0 * osc_scale:
                    return None
                osc = float(np.max(np.abs(np.diff(z, 2))))
                if osc > osc_limit * 50.0:
                    return None
    return ts, means, np.array(rows)


def hopf_cole_oracle(V: PeriodicPotential, theta: float, n_x: int = 512,
                     refine: bool = True) -> float:
    """Effective Hamiltonian of G(p) = p^2/2 with potential V via the
    principal periodic eigenvalue of the transformed operator
    eta'' + theta eta' + (theta^2/4 + V/2) eta = mu eta, hbar = 2 mu.

    Richardson extrapolation over (n_x, 2 n_x) removes the leading O(h^2)
    discretization bias.
    """
    if n_x < 256:
        raise ValueError("n_x must be at least 256")

    def mu_of(n):
        h = 1.0 / n
        xs = np.arange(n) * h
        vv = V.values(xs)
        diag = -2.0 / h**2 + theta**2 / 4.0 + vv / 2.0
        sup = 1.0 / h**2 + theta / (2.0 * h)
        sub = 1.0 / h**2 - theta / (2.0 * h)
        A = sps.diags_array([diag, sup, sub, sub, sup], offsets=[0, 1, -1, n - 1, 1 - n],
                            shape=(n, n), format="csc")
        # above every Gershgorin disc: the principal eigenvalue is the nearest
        sigma = float(np.max(diag)) + abs(sup) + abs(sub) + 1.0
        w, vecs = spla.eigs(A, k=1, sigma=sigma, v0=np.ones(n))
        vec = np.real(vecs[:, 0])
        if vec.sum() < 0:
            vec = -vec
        if np.min(vec) < -1e-8 * np.max(vec):
            raise NoPositiveEigenvector(
                f"principal eigenvector changes sign at n={n}")
        return float(np.real(w[0]))

    mu = mu_of(n_x)
    if refine:
        mu = (4.0 * mu_of(2 * n_x) - mu) / 3.0
    return 2.0 * mu
