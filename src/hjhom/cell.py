"""Cell-problem solver: for a coercive G, a 1-periodic potential V and a mean
momentum theta, find the unique level hbar and 1-periodic profile f with

    f'(x) + G(f(x)) + V(x) = hbar,      integral of f over one period = theta.

The profile is computed by shooting: classical RK4 for the momentum ODE
f' = lam - G(f) - V(x) on [0, 1], with the period-map fixed point in lam and
the mean constraint in the initial value p0. Both equations are solved jointly
by a damped Newton iteration on (lam, p0); everything is vectorized over a
batch of theta values. Each iteration is one RK4 pass that stores the
trajectory. The Newton Jacobian is read off that trajectory in closed form:
with I(x) = int_0^x G'(f), df/dp0 = e^{-I} and df/dlam = e^{-I(x)} int_0^x e^{I},
the integrating factor of the paper's linearized equation (:func:`linearize`,
shared with the diagnostics). A nested monotone bracket/Newton path (period
map strictly increasing in both lam and p0 by scalar-ODE comparison) serves
as the robust scalar fallback.

Integration steps are aligned with the potential's breakpoints, and pieces
between breakpoints get a minimum number of substeps, so the scheme keeps its
full order for the piecewise-smooth synthesized potentials.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import Blowup, BracketFailure
from .hamiltonians import Hamiltonian1D
from .numerics import PiecewiseSimpson, expand_until, leftmost_crossing, rightmost_crossing
from .potentials import PeriodicPotential

DEFAULT_N = 4096
TOL_PERIOD = 1e-12
TOL_THETA = 1e-10
HBAR_TOL = 1e-8            # reporting accuracy of hbar
BLOWUP_GUARD = 1e6
MIN_PIECE_STEPS = 48       # substeps per smooth piece of a kinked potential
MIN_HARD_STEPS = 384       # substeps per piece flagged as steeply varying
_MAX_NEWTON = 60
_LIN_ROWS = 16             # batch rows linearized at a time


# ---------------------------------------------------------------------------
# integration grid, cached per (potential, N)
# ---------------------------------------------------------------------------

@dataclass
class _IntegrationGrid:
    nodes: np.ndarray          # strictly increasing, nodes[0]=0, nodes[-1]=1
    h: np.ndarray              # step sizes
    v_nodes: np.ndarray
    v_mids: np.ndarray
    out_col: np.ndarray        # column in the uniform output grid, -1 if none
    n_uniform: int
    v_min: float
    v_max: float
    piece_idx: np.ndarray = None   # indices of smooth-piece edges in nodes
    quad: PiecewiseSimpson = None  # quadrature on nodes, piece-aware


_GRID_CACHE: OrderedDict = OrderedDict()
_GRID_CACHE_SIZE = 8


def _build_grid(V: PeriodicPotential, N: int) -> _IntegrationGrid:
    uniform = np.linspace(0.0, 1.0, N + 1)
    pieces = np.concatenate([[0.0], np.asarray(V.knots, dtype=float), [1.0]])
    pieces = np.unique(pieces)
    extra = []
    if len(pieces) > 2:
        hard = V.hard_pieces
        for a, b in zip(pieces[:-1], pieces[1:]):
            mid = 0.5 * (a + b)
            floor = MIN_PIECE_STEPS
            for lo, hi, n_min in hard:
                if lo - 1e-15 <= mid <= hi + 1e-15:
                    floor = max(MIN_HARD_STEPS, int(n_min))
                    break
            base = int(np.ceil((b - a) * N))
            n_sub = max(base, floor)
            if n_sub > base:
                extra.append(np.linspace(a, b, n_sub + 1))
            else:
                extra.append(np.array([a, b]))
    if extra:
        cand = np.concatenate(extra)
        # snap near-coincidences onto the uniform output nodes
        snapped = np.round(cand * N) / N
        cand = np.where(np.abs(cand - snapped) < 1e-12, snapped, cand)
        nodes = np.unique(np.concatenate([uniform, cand]))
    else:
        nodes = uniform
    h = np.diff(nodes)
    keep = h > 1e-15
    if not keep.all():
        nodes = np.concatenate([nodes[:-1][keep], [1.0]])
        h = np.diff(nodes)
    out_col = np.full(len(nodes), -1, dtype=int)
    idx = np.searchsorted(nodes, uniform)
    out_col[idx] = np.arange(N + 1)
    v_nodes = V.values(nodes)
    v_mids = V.values(nodes[:-1] + 0.5 * h)
    v_all = np.concatenate([v_nodes, v_mids])
    # nearest node to each smooth-piece edge (knots may have been snapped)
    raw = np.clip(np.searchsorted(nodes, pieces), 1, len(nodes) - 1)
    left_closer = (pieces - nodes[raw - 1]) < (nodes[raw] - pieces)
    piece_idx = np.unique(np.where(left_closer, raw - 1, raw))
    piece_idx[0] = 0
    piece_idx[-1] = len(nodes) - 1
    return _IntegrationGrid(nodes, h, v_nodes, v_mids, out_col, N + 1,
                            float(v_all.min()), float(v_all.max()),
                            piece_idx=piece_idx,
                            quad=PiecewiseSimpson(nodes, piece_idx))


def _grid_for(V: PeriodicPotential, N: int) -> _IntegrationGrid:
    key = (V.fingerprint, N)
    g = _GRID_CACHE.get(key)
    if g is None:
        g = _GRID_CACHE[key] = _build_grid(V, N)
        if len(_GRID_CACHE) > _GRID_CACHE_SIZE:
            _GRID_CACHE.popitem(last=False)
    else:
        _GRID_CACHE.move_to_end(key)
    return g


# ---------------------------------------------------------------------------
# batched RK4 shooting kernel
# ---------------------------------------------------------------------------

def _shoot(G: Hamiltonian1D, grid: _IntegrationGrid, lam, p0,
           guard: float = BLOWUP_GUARD) -> SimpleNamespace:
    """One RK4 pass for a batch of (lam, p0): the trajectories F on the grid
    nodes (one row per batch entry), their end values, their means over the
    period, and which rows escaped [-guard, guard]."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    lam, p0 = np.broadcast_arrays(lam, p0)
    B = lam.shape[0]
    f = p0.astype(float).copy()
    m = np.zeros(B)
    blown = np.zeros(B, dtype=bool)
    Ft = np.empty((len(grid.nodes), B))   # node-major: each step stores one row
    Ft[0] = f
    ev = G.eval
    hs = grid.h
    vn = grid.v_nodes
    vm = grid.v_mids
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for i in range(len(hs)):
            h = hs[i]
            h2 = 0.5 * h
            vmid = vm[i]

            k1 = lam - ev(f) - vn[i]
            f2 = f + h2 * k1
            k2 = lam - ev(f2) - vmid
            f3 = f + h2 * k2
            k3 = lam - ev(f3) - vmid
            f4 = f + h * k3
            k4 = lam - ev(f4) - vn[i + 1]

            m += (h / 6.0) * (f + 2.0 * f2 + 2.0 * f3 + f4)
            f = f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

            bad = ~(np.abs(f) < guard)
            if bad.any():
                blown |= bad
                np.clip(f, -guard, guard, out=f)
                np.nan_to_num(f, copy=False, nan=guard)
            Ft[i + 1] = f
    return SimpleNamespace(F=Ft.T, f_end=f, m_end=m, blown=blown)


def linearize(G: Hamiltonian1D, F, quad: PiecewiseSimpson) -> SimpleNamespace:
    """Closed-form variational solutions of f' = lam - G(f) - V along the
    trajectories F (rows on quad's nodes): with I(x) = int_0^x G'(f),
    df/dp0 = e^{-I(x)} and df/dlam = e^{-I(x)} int_0^x e^{I}. The exponentials
    are scaled by the row maximum of I."""
    I = quad.cumulative(G.d1(F))
    top = I.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        E = np.exp(I - top)
        dlam = quad.cumulative(E) / E
        dp0 = np.exp(-top) / E
    return SimpleNamespace(I=I, dlam=dlam, dp0=dp0)


def _jacobian(G: Hamiltonian1D, grid: _IntegrationGrid, F, rows):
    """End values and period means of df/dlam and df/dp0 for the given rows
    of F, linearized in blocks of _LIN_ROWS rows to bound the temporaries."""
    out = np.empty((4, len(rows)))
    for s in range(0, len(rows), _LIN_ROWS):
        lin = linearize(G, F[rows[s:s + _LIN_ROWS]], grid.quad)
        blk = slice(s, s + _LIN_ROWS)
        out[0, blk] = lin.dlam[:, -1]
        out[1, blk] = lin.dp0[:, -1]
        out[2, blk] = grid.quad.integral(lin.dlam)
        out[3, blk] = grid.quad.integral(lin.dp0)
    return out


# ---------------------------------------------------------------------------
# public types and bound helpers
# ---------------------------------------------------------------------------

@dataclass
class CorrectorSolution:
    """One solved cell problem: level hbar and periodic profile f on a uniform grid.

    When the integration grid was refined around potential breakpoints, the
    profile on that finer grid is kept in (x_fine, f_fine) so diagnostics can
    integrate along the corrector without undersampling thin features.
    """

    theta: float
    hbar: float
    f_grid: np.ndarray
    p0: float
    residual: float
    x_fine: Optional[np.ndarray] = None
    f_fine: Optional[np.ndarray] = None
    fine_piece_idx: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return len(self.f_grid) - 1

    @property
    def x_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, len(self.f_grid))

    @property
    def x_best(self) -> np.ndarray:
        return self.x_grid if self.x_fine is None else self.x_fine

    @property
    def f_best(self) -> np.ndarray:
        return self.f_grid if self.f_fine is None else self.f_fine


def sandwich_bounds(G: Hamiltonian1D, V: PeriodicPotential, theta: float,
                    N: int = DEFAULT_N):
    """Trivial bounds L(theta) <= hbar <= U(theta) from the extremes of V."""
    g = _grid_for(V, N)
    gt = float(G.eval(theta))
    return gt + g.v_min, gt + g.v_max


def momentum_bounds(G: Hamiltonian1D, V: PeriodicPotential, theta: float,
                    N: int = DEFAULT_N):
    """Range [p_minus, p_plus] that must contain the corrector profile."""
    g = _grid_for(V, N)
    level = float(G.eval(theta)) + g.v_max - g.v_min
    lo, hi = expand_until(lambda p: float(G.eval(p)), level, theta, step0=1.0)
    p_minus = leftmost_crossing(G.eval, level, lo, theta)
    p_plus = rightmost_crossing(G.eval, level, theta, hi)
    return p_minus, p_plus


def validate_corrector(corr: CorrectorSolution, G: Hamiltonian1D,
                       V: PeriodicPotential) -> dict:
    """Residuals of the defining properties; used by tests and spot checks."""
    f = corr.f_best
    x = corr.x_best
    hgrid = 1.0 / corr.n
    mean_err = abs(float(np.trapezoid(f, x)) - corr.theta)
    period_err = abs(float(f[-1] - f[0]))
    # centered ODE residual on the uniform grid, away from potential kinks
    fu = corr.f_grid
    xu = corr.x_grid
    interior = np.arange(1, len(fu) - 1)
    if V.knots:
        xs = xu[interior]
        dist = np.min(np.abs(xs[:, None] - np.asarray(V.knots)[None, :]), axis=1)
        interior = interior[dist > 2.5 * hgrid]
    fp = (fu[interior + 1] - fu[interior - 1]) / (2.0 * hgrid)
    ode = fp + np.asarray(G.eval(fu[interior])) + V.values(xu[interior]) - corr.hbar
    lo, up = sandwich_bounds(G, V, corr.theta, N=corr.n)
    pm, pp = momentum_bounds(G, V, corr.theta, N=corr.n)
    return {
        "mean_err": mean_err,
        "period_err": period_err,
        "ode_resid": float(np.max(np.abs(ode))) if len(interior) else 0.0,
        "sandwich_ok": lo - 1e-7 <= corr.hbar <= up + 1e-7,
        "momentum_ok": bool(np.all((f >= pm - 1e-6) & (f <= pp + 1e-6))),
        "bounds": (lo, up, pm, pp),
    }


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _uniform(grid: _IntegrationGrid, F):
    """Columns of trajectories F that lie on the uniform output grid."""
    return F[..., grid.out_col >= 0]


def _corrector(grid: _IntegrationGrid, theta, lam, p0, traj) -> CorrectorSolution:
    """Solution record for one converged trajectory on the grid nodes."""
    refined = len(grid.nodes) > grid.n_uniform
    return CorrectorSolution(theta=float(theta), hbar=float(lam),
                             f_grid=_uniform(grid, traj), p0=float(p0),
                             residual=abs(float(traj[-1]) - float(p0)),
                             x_fine=grid.nodes if refined else None,
                             f_fine=traj.copy() if refined else None,
                             fine_piece_idx=grid.piece_idx if refined else None)


def integrate_cell_ode(G: Hamiltonian1D, V: PeriodicPotential, lam: float,
                       p0: float, N: int = DEFAULT_N, guard: float = BLOWUP_GUARD):
    """RK4 solution of f' = lam - G(f) - V on [0, 1] from f(0) = p0.

    Returns (f_grid, f_end) on the uniform N+1 grid. Raises Blowup if the
    trajectory leaves [-guard, guard], which signals (lam, p0) far outside the
    feasible region.
    """
    if N < 64:
        raise ValueError("N must be at least 64")
    grid = _grid_for(V, N)
    res = _shoot(G, grid, lam, p0, guard=guard)
    if res.blown[0]:
        raise Blowup(f"trajectory escaped |f| >= {guard:g} (lam={lam}, p0={p0})")
    return _uniform(grid, res.F[0]), float(res.f_end[0])


def _solve_lambda(G, V, grid, p0, tol_period):
    """Unique lam with f(1; p0, lam) = p0, and the shooting pass at that lam."""
    lam0 = float(G.eval(p0)) + V.mean
    lam_guard = abs(float(G.eval(p0))) + V.sup_abs + 10.0

    def period_residual(lam):
        out = _shoot(G, grid, lam, p0)
        if out.blown[0]:
            return -np.inf, out  # blow-down: f(1) effectively -inf
        return float(out.f_end[0] - p0), out

    r0, _ = period_residual(lam0)
    lo = hi = lam0
    r_lo = r_hi = r0
    step = 0.5
    while r_lo > 0.0:
        lo -= step
        step *= 2.0
        if abs(lo) > lam_guard + abs(lam0):
            raise BracketFailure("no sign change below the lambda guard")
        r_lo, _ = period_residual(lo)
    step = 0.5
    while r_hi < 0.0:
        hi += step
        step *= 2.0
        if abs(hi) > lam_guard + abs(lam0):
            raise BracketFailure("no sign change above the lambda guard")
        r_hi, _ = period_residual(hi)

    lam = 0.5 * (lo + hi)
    for _ in range(200):
        r, out = period_residual(lam)
        if np.isfinite(r) and abs(r) <= tol_period:
            break
        if not np.isfinite(r):
            lo = lam
        elif r > 0.0:
            hi = lam
        else:
            lo = lam
        if np.isfinite(r):
            lam_new = lam - r / float(_jacobian(G, grid, out.F, [0])[0, 0])
        else:
            lam_new = np.nan
        if not np.isfinite(lam_new) or not (lo < lam_new < hi):
            lam_new = 0.5 * (lo + hi)
        if lam_new == lam:
            break
        lam = lam_new
    else:
        raise BracketFailure("lambda iteration did not converge")
    return lam, out


def solve_lambda_for_periodicity(G: Hamiltonian1D, V: PeriodicPotential, p0: float,
                                 N: int = DEFAULT_N, tol_period: float = TOL_PERIOD):
    """Unique lam with f(1; p0, lam) = p0, via monotone bracketing plus Newton.

    The period map is strictly increasing in lam (scalar-ODE comparison), so a
    sign-changing bracket pins the root; Newton steps that leave the bracket
    fall back to bisection. Returns lam and the periodic profile on the
    uniform grid.
    """
    grid = _grid_for(V, N)
    lam, out = _solve_lambda(G, V, grid, p0, tol_period)
    return lam, _uniform(grid, out.F[0])


def _solve_cell_scalar(G, V, theta, N, tol_theta, tol_period):
    """Nested monotone solve: outer root in p0 for the mean, inner in lam."""
    grid = _grid_for(V, N)

    def mean_of(p0):
        lam, out = _solve_lambda(G, V, grid, p0, tol_period)
        return float(out.m_end[0]), lam, out

    lo = hi = theta
    m_mid, lam, out = mean_of(theta)
    r = m_mid - theta
    step = 0.5
    r_lo = r_hi = r
    while r_lo > 0.0:
        lo -= step
        step *= 2.0
        if step > 2.0**24:
            raise BracketFailure("mean bracket expansion failed (low side)")
        r_lo = mean_of(lo)[0] - theta
    step = 0.5
    while r_hi < 0.0:
        hi += step
        step *= 2.0
        if step > 2.0**24:
            raise BracketFailure("mean bracket expansion failed (high side)")
        r_hi = mean_of(hi)[0] - theta

    p0 = 0.5 * (lo + hi)
    for _ in range(200):
        m_val, lam, out = mean_of(p0)
        r = m_val - theta
        if abs(r) <= tol_theta:
            break
        if r > 0.0:
            hi = p0
        else:
            lo = p0
        sl, sp, ml, mp = _jacobian(G, grid, out.F, [0])[:, 0]
        dm = mp - ml * (sp - 1.0) / sl
        p_new = p0 - r / dm if dm > 0 else np.nan
        if not np.isfinite(p_new) or not (lo < p_new < hi):
            p_new = 0.5 * (lo + hi)
        if p_new == p0:
            break
        p0 = p_new
    else:
        raise BracketFailure("mean iteration did not converge")
    return _corrector(grid, theta, lam, p0, out.F[0])


def solve_cell_many(G: Hamiltonian1D, V: PeriodicPotential, thetas,
                    N: int = DEFAULT_N, tol_theta: float = TOL_THETA,
                    tol_period: float = TOL_PERIOD, init=None,
                    check_bounds: bool = True, allow_shortcircuit: bool = True):
    """Solve the cell problem for a batch of theta values (vectorized Newton).

    Every Newton iteration is one shooting pass; the pass in which a theta
    meets both tolerances is its answer. Rows that have converged keep their
    (lam, p0), so the last pass holds the trajectory of every converged row.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    B = len(thetas)
    if allow_shortcircuit and V.is_constant:
        v0 = V.constant_value
        out = []
        for th in thetas:
            f = np.full(N + 1, th)
            out.append(CorrectorSolution(theta=float(th),
                                         hbar=float(G.eval(th)) + v0,
                                         f_grid=f, p0=float(th), residual=0.0))
        return out

    grid = _grid_for(V, N)
    if init is not None:
        lam = np.broadcast_to(np.asarray(init[0], dtype=float), (B,)).copy()
        p0 = np.broadcast_to(np.asarray(init[1], dtype=float), (B,)).copy()
    else:
        lam = np.asarray(G.eval(thetas), dtype=float) + V.mean
        p0 = thetas.copy()

    push = grid.v_max - grid.v_min + 1.0
    blow_count = np.zeros(B, dtype=int)
    converged = np.zeros(B, dtype=bool)
    for _ in range(_MAX_NEWTON):
        res = None  # release the previous pass's trajectories first
        res = _shoot(G, grid, lam, p0)
        if res.blown.any():
            b = res.blown
            blow_count[b] += 1
            lam[b] += push * 2.0 ** blow_count[b]
            p0[b] = 0.5 * (p0[b] + thetas[b])
            if np.any(blow_count > 8):
                break
            continue
        r1 = res.f_end - p0
        r2 = res.m_end - thetas
        converged = (np.abs(r1) <= tol_period) & (np.abs(r2) <= tol_theta)
        if converged.all():
            break
        act = np.flatnonzero(~converged)
        j11, sp, j21, j22 = _jacobian(G, grid, res.F, act)
        j12 = sp - 1.0
        r1 = r1[act]
        r2 = r2[act]
        det = j11 * j22 - j12 * j21
        ok = np.abs(det) > 1e-300
        det = np.where(ok, det, 1.0)
        dlam = (-r1 * j22 + r2 * j12) / det
        dp0 = (-j11 * r2 + j21 * r1) / det
        cap_l = 2.0 + 0.5 * np.abs(lam[act])
        cap_p = 1.0
        scale = np.minimum(1.0, np.minimum(cap_l / np.maximum(np.abs(dlam), 1e-300),
                                           cap_p / np.maximum(np.abs(dp0), 1e-300)))
        lam[act] = np.where(ok, lam[act] + scale * dlam, lam[act])
        p0[act] = np.where(ok, p0[act] + scale * dp0, p0[act])

    solutions = [None] * B
    for k in range(B):
        if converged[k] and not res.blown[k]:
            solutions[k] = _corrector(grid, thetas[k], lam[k], p0[k], res.F[k])
    res = None
    for k in range(B):
        if solutions[k] is None:
            solutions[k] = _solve_cell_scalar(G, V, float(thetas[k]), N,
                                              tol_theta, tol_period)
    if check_bounds:
        for sol in solutions:
            lo, up = sandwich_bounds(G, V, sol.theta, N=N)
            if not (lo - 1e-7 <= sol.hbar <= up + 1e-7):
                raise RuntimeError(
                    f"hbar={sol.hbar!r} escapes [{lo!r}, {up!r}] at theta={sol.theta!r}")
            pm, pp = momentum_bounds(G, V, sol.theta, N=N)
            if not (sol.f_grid.min() >= pm - 1e-6 and sol.f_grid.max() <= pp + 1e-6):
                raise RuntimeError(
                    f"corrector escapes [{pm!r}, {pp!r}] at theta={sol.theta!r}")
    return solutions


def solve_cell(G: Hamiltonian1D, V: PeriodicPotential, theta: float,
               N: int = DEFAULT_N, tol_theta: float = TOL_THETA,
               tol_period: float = TOL_PERIOD, init=None,
               check_bounds: bool = True,
               allow_shortcircuit: bool = True) -> CorrectorSolution:
    """Solve one cell problem; see :func:`solve_cell_many`."""
    return solve_cell_many(G, V, [theta], N=N, tol_theta=tol_theta,
                           tol_period=tol_period, init=init,
                           check_bounds=check_bounds,
                           allow_shortcircuit=allow_shortcircuit)[0]


@dataclass
class SweepResult:
    thetas: np.ndarray
    hbars: np.ndarray
    p0s: np.ndarray
    residuals: np.ndarray
    solutions: list
    failures: list = field(default_factory=list)

    def as_rows(self):
        return np.column_stack([self.thetas, self.hbars, self.p0s, self.residuals])


def sweep_hbar(G: Hamiltonian1D, V: PeriodicPotential, theta_min: float,
               theta_max: float, n_points: int, N: int = DEFAULT_N,
               **kw) -> SweepResult:
    """Effective Hamiltonian on a uniform theta grid, solved as one batch;
    per-point failures are recorded rather than fatal."""
    if not theta_min < theta_max:
        raise ValueError("need theta_min < theta_max")
    if n_points < 2:
        raise ValueError("need at least two sweep points")
    thetas = np.linspace(theta_min, theta_max, n_points)
    try:
        results = solve_cell_many(G, V, thetas, N=N, **kw)
    except Exception:  # pragma: no cover - per-point fallback
        results = []
        for th in thetas:
            try:
                results.append(solve_cell(G, V, float(th), N=N, **kw))
            except Exception as inner:
                results.append((float(th), str(inner)))

    solutions, failures = [], []
    for item in results:
        if isinstance(item, CorrectorSolution):
            solutions.append(item)
        else:
            failures.append(item)
    return SweepResult(
        thetas=np.array([s.theta for s in solutions]),
        hbars=np.array([s.hbar for s in solutions]),
        p0s=np.array([s.p0 for s in solutions]),
        residuals=np.array([s.residual for s in solutions]),
        solutions=solutions,
        failures=failures,
    )
