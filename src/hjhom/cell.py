"""Cell-problem solver: for a coercive G, a 1-periodic potential V and a mean
momentum theta, find the unique level hbar and 1-periodic profile f with

    f'(x) + G(f(x)) + V(x) = hbar,      integral of f over one period = theta.

The profile is computed by multiple shooting: RK4 for f' = lam - G(f) - V(x),
with the steps cut into K segments of SEGMENT_STEPS steps that one batched pass
integrates from their own start values s_k, for every theta at once. A damped
Newton iteration on (lam, s_0 .. s_{K-1}) joins each segment's end to the next
start, cyclically, and fixes the mean. Its Jacobian is read off the pass's
trajectory in closed form: with I = int G'(f) restarted at each segment start,
df/ds = e^{-I} and df/dlam = e^{-I(x)} int e^{I}, the integrating factor of the
paper's linearized equation (:func:`linearize`, shared with the diagnostics);
the cyclic block-bidiagonal system reduces to one 2x2 solve per theta. Short
segments keep e^{+-I} bounded, while a single forward shot amplifies errors by
e^{-I(1)}, which is large where hbar decreases. A row whose pass blows up goes
back to its last accepted iterate with half the step; a theta that does not
converge is reported with its reason (:class:`~hjhom.errors.SolveFailure`).

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

from .errors import Blowup, BracketFailure, SolveFailure
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
SEGMENT_STEPS = 64         # RK4 steps per multiple-shooting segment
_MAX_NEWTON = 60
_MAX_PUSHES = 8            # lam pushes of a row that blows up before any accepted pass
_MAX_HALVINGS = 40         # step halvings of a row that blows up after one
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
    n_seg: int = 1                 # multiple-shooting segments


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
                            piece_idx=piece_idx, n_seg=-(-len(h) // SEGMENT_STEPS))


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

def _shoot(G: Hamiltonian1D, grid: _IntegrationGrid, lam, s,
           guard: float = BLOWUP_GUARD) -> SimpleNamespace:
    """One RK4 pass for a batch of levels lam (B,) and segment start values s
    (B, K), or (B,) for a single segment. With M grid steps, segment k runs
    steps k*L .. k*L + L - 1, L = ceil(M / K), from s[:, k]; the last segment
    is padded with h = 0 steps, which RK4 leaves exact. Returns the
    trajectories F on the grid nodes (B, M + 1; node k*L holds the end of
    segment k - 1), the start values s, the segment end values and integrals
    (B, K), and which rows escaped [-guard, guard]."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    s = np.array(s, dtype=float, ndmin=1)
    s = s if s.ndim == 2 else s[:, None]
    lam, s = np.broadcast_arrays(lam[:, None], s)
    B, K = s.shape
    M = len(grid.h)
    L = -(-M // K)
    pad = np.zeros(K * L - M)
    # (L, K, 1): step sizes and potentials of step j in every segment
    hs, v0, v1, vm = (np.concatenate([a, pad]).reshape(K, L).T[:, :, None]
                      for a in (grid.h, grid.v_nodes[:-1], grid.v_nodes[1:], grid.v_mids))
    h2s, h6s = 0.5 * hs, hs / 6.0
    lam = lam[:, 0]
    f = s.T.copy()                  # (K, B): row k is segment k
    m = np.zeros((K, B))
    blown = np.zeros(B, dtype=bool)
    Ft = np.empty((K * L + 1, B))   # node-major: each step stores K rows
    Ft[0] = f[0]
    Fseg = Ft[1:].reshape(K, L, B)  # Fseg[k, j] is node k*L + j + 1
    ev = G.eval
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for j in range(L):
            h = hs[j]
            h2 = h2s[j]
            vmid = vm[j]

            k1 = lam - ev(f) - v0[j]
            f2 = f + h2 * k1
            k2 = lam - ev(f2) - vmid
            f3 = f + h2 * k2
            k3 = lam - ev(f3) - vmid
            f4 = f + h * k3
            k4 = lam - ev(f4) - v1[j]

            h6 = h6s[j]
            m += h6 * (f + 2.0 * f2 + 2.0 * f3 + f4)
            f = f + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

            bad = ~(np.abs(f) < guard)
            if bad.any():
                blown |= bad.any(axis=0)
                np.clip(f, -guard, guard, out=f)
                np.nan_to_num(f, copy=False, nan=guard)
            Fseg[:, j] = f
    return SimpleNamespace(F=Ft[:M + 1].T, s=s, f_end=f.T, m_end=m.T, blown=blown)


def linearize(G: Hamiltonian1D, F, quad: PiecewiseSimpson) -> SimpleNamespace:
    """Closed-form variational solutions of f' = lam - G(f) - V along the
    trajectories F (rows on quad's nodes, or on a segmented quad's segments):
    with I(x) = int_0^x G'(f), df/dp0 = e^{-I(x)} and df/dlam =
    e^{-I(x)} int_0^x e^{I}, x from the row's start. The exponentials are
    scaled by the row maximum of I."""
    I = quad.cumulative(G.d1(F))
    top = I.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        E = np.exp(I - top)
        dlam = quad.cumulative(E) / E
        dp0 = np.exp(-top) / E
    return SimpleNamespace(I=I, dlam=dlam, dp0=dp0)


def _jacobian(G: Hamiltonian1D, grid: _IntegrationGrid, res, rows):
    """Segment end values and integrals of df/dlam and df/ds along the pass
    res for the given rows, shape (4, rows, K), with I restarted at every
    segment start; linearized in blocks of _LIN_ROWS rows."""
    K = res.s.shape[1]
    quad = PiecewiseSimpson(grid.nodes, grid.piece_idx, K)
    L = quad.w.shape[-1]   # steps per segment, as in _shoot
    idx = np.minimum(np.arange(K)[:, None] * L + np.arange(L + 1), len(grid.h))
    rows = np.asarray(rows)
    out = np.empty((4, len(rows), K))
    for a in range(0, len(rows), _LIN_ROWS):
        blk = rows[a:a + _LIN_ROWS]
        F = res.F[blk[:, None, None], idx]   # (rows, K, L + 1)
        F[..., 0] = res.s[blk]
        lin = linearize(G, F, quad)
        out[:, a:a + len(blk)] = (lin.dlam[..., -1], lin.dp0[..., -1],
                                  quad.integral(lin.dlam), quad.integral(lin.dp0))
    return out


def _newton_step(jac, r, R):
    """Newton step (dlam, ds_0 .. ds_{K-1}) per row of the multiple-shooting system
        a_k ds_k + b_k dlam - ds_{k+1} = -r_k   (k < K, cyclic: ds_K = ds_0),
        sum_k (c_k ds_k + d_k dlam) = -R,
    with (b, a, d, c) = jac. Substituting ds_k = al_k ds_0 + be_k dlam + ga_k
    leaves one 2x2 system in (ds_0, dlam) per row."""
    b, a, d, c = jac
    n, K = a.shape
    al, be, ga = np.ones((n, K + 1)), np.zeros((n, K + 1)), np.zeros((n, K + 1))
    for k in range(K):
        al[:, k + 1] = a[:, k] * al[:, k]
        be[:, k + 1] = a[:, k] * be[:, k] + b[:, k]
        ga[:, k + 1] = a[:, k] * ga[:, k] + r[:, k]
    m11, m12, y1 = al[:, K] - 1.0, be[:, K], -ga[:, K]
    al, be, ga = al[:, :K], be[:, :K], ga[:, :K]
    m21 = (c * al).sum(axis=1)
    m22 = (c * be).sum(axis=1) + d.sum(axis=1)
    y2 = -R - (c * ga).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = m11 * m22 - m12 * m21
        ds0 = (y1 * m22 - m12 * y2) / det
        dlam = (m11 * y2 - m21 * y1) / det
        return np.column_stack([dlam, al * ds0[:, None] + be * dlam[:, None] + ga])


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
    return _uniform(grid, res.F[0]), float(res.f_end[0, 0])


def _solve_lambda(G, V, grid, p0, tol_period):
    """Unique lam with f(1; p0, lam) = p0, and the shooting pass at that lam."""
    lam0 = float(G.eval(p0)) + V.mean
    lam_guard = abs(float(G.eval(p0))) + V.sup_abs + 10.0

    def period_residual(lam):
        out = _shoot(G, grid, lam, p0)
        if out.blown[0]:
            return -np.inf, out  # blow-down: f(1) effectively -inf
        return float(out.f_end[0, 0] - p0), out

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
            lam_new = lam - r / float(_jacobian(G, grid, out, [0])[0, 0, 0])
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


def solve_cell_many(G: Hamiltonian1D, V: PeriodicPotential, thetas,
                    N: int = DEFAULT_N, tol_theta: float = TOL_THETA,
                    tol_period: float = TOL_PERIOD, init=None,
                    check_bounds: bool = True, allow_shortcircuit: bool = True):
    """Solve the cell problem for a batch of theta values by batched Newton on
    the multiple-shooting system; ``init`` is (lam, p0), scalars or arrays.

    Every Newton iteration is one shooting pass; the pass in which a theta
    meets both tolerances is its answer, and converged rows keep their
    (lam, s), so the last pass holds all their trajectories. Raises
    :class:`~hjhom.errors.SolveFailure` naming every theta that did not
    converge and why (blow-up, iteration cap or singular Jacobian); it
    carries the solutions of the others.
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
        lam = np.broadcast_to(np.asarray(init[0], dtype=float), (B,))
        p0 = np.broadcast_to(np.asarray(init[1], dtype=float), (B,))
    else:
        lam = np.asarray(G.eval(thetas), dtype=float) + V.mean
        p0 = thetas
    x = np.column_stack([lam] + [p0] * grid.n_seg)  # rows (lam, s_0 .. s_{K-1})

    push = grid.v_max - grid.v_min + 1.0
    pushes = np.zeros(B, dtype=int)
    halvings = np.zeros(B, dtype=int)
    accepted = np.zeros(B, dtype=bool)  # a pass from this row stayed bounded:
    acc, step = x.copy(), np.zeros_like(x)  # its last such x, and the step since
    converged = np.zeros(B, dtype=bool)
    reason = np.full(B, "", dtype=object)  # why a row stopped unconverged
    for it in range(_MAX_NEWTON):
        res = None  # release the previous pass's trajectories first
        res = _shoot(G, grid, x[:, 0], x[:, 1:])
        live = ~converged & (reason == "")
        blown = res.blown & live
        back = blown & accepted
        halvings[back] += 1
        step[back] *= 0.5
        x[back] = acc[back] + step[back]
        fresh = blown & ~accepted
        pushes[fresh] += 1
        x[fresh, 0] += push * 2.0 ** pushes[fresh]
        x[fresh, 1:] = 0.5 * (x[fresh, 1:] + thetas[fresh, None])
        reason[blown & ((halvings > _MAX_HALVINGS) | (pushes > _MAX_PUSHES))] = "blow-up"

        ok = live & ~res.blown
        accepted |= ok
        acc[ok] = x[ok]
        r = res.f_end - np.roll(res.s, -1, axis=1)
        R = res.m_end.sum(axis=1) - thetas
        converged |= ok & (np.abs(r).max(axis=1) <= tol_period) & (np.abs(R) <= tol_theta)
        act = np.flatnonzero(ok & ~converged)
        if it == _MAX_NEWTON - 1 or (converged | (reason != "")).all():
            break
        if not act.size:
            continue  # only rows that blew up remain, and they have moved
        d = _newton_step(_jacobian(G, grid, res, act), r[act], R[act])
        sing = ~np.isfinite(d).all(axis=1)
        reason[act[sing]] = "singular Jacobian"
        act, d = act[~sing], d[~sing]
        cap = 2.0 + 0.5 * np.abs(x[act])
        scale = np.minimum(1.0, (cap / np.maximum(np.abs(d), 1e-300)).min(axis=1))
        step[act] = scale[:, None] * d
        x[act] += step[act]

    solutions = [_corrector(grid, thetas[k], x[k, 0], x[k, 1], res.F[k]) if converged[k]
                 else None for k in range(B)]
    res = None
    pending = ~converged & (reason == "")
    reason[pending] = np.where(blown[pending], "blow-up", "iteration cap")
    if check_bounds:
        for sol in filter(None, solutions):
            lo, up = sandwich_bounds(G, V, sol.theta, N=N)
            if not (lo - 1e-7 <= sol.hbar <= up + 1e-7):
                raise RuntimeError(
                    f"hbar={sol.hbar!r} escapes [{lo!r}, {up!r}] at theta={sol.theta!r}")
            pm, pp = momentum_bounds(G, V, sol.theta, N=N)
            if not (sol.f_grid.min() >= pm - 1e-6 and sol.f_grid.max() <= pp + 1e-6):
                raise RuntimeError(
                    f"corrector escapes [{pm!r}, {pp!r}] at theta={sol.theta!r}")
    if not converged.all():
        raise SolveFailure([(float(thetas[k]), reason[k]) for k in np.flatnonzero(~converged)],
                           solutions)
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
    thetas that do not converge go to ``failures`` as (theta, reason)."""
    if not theta_min < theta_max:
        raise ValueError("need theta_min < theta_max")
    if n_points < 2:
        raise ValueError("need at least two sweep points")
    thetas = np.linspace(theta_min, theta_max, n_points)
    try:
        results, failures = solve_cell_many(G, V, thetas, N=N, **kw), []
    except SolveFailure as exc:
        results, failures = exc.solutions, exc.failures
    solutions = [sol for sol in results if sol is not None]
    return SweepResult(
        thetas=np.array([s.theta for s in solutions]),
        hbars=np.array([s.hbar for s in solutions]),
        p0s=np.array([s.p0 for s in solutions]),
        residuals=np.array([s.residual for s in solutions]),
        solutions=solutions,
        failures=failures,
    )
