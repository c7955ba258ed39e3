"""Cell-problem solver: integrator, period map, mean constraint, bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjhom import (
    get_hamiltonian,
    integrate_cell_ode,
    momentum_bounds,
    reflect,
    sandwich_bounds,
    solve_cell,
    solve_cell_many,
    solve_lambda_for_periodicity,
    sweep_hbar,
    zero_potential,
    cosine_potential,
    constant_potential,
)
from hjhom.cell import validate_corrector
from hjhom.errors import Blowup
from hjhom.potentials import reflect_potential

QUAD = get_hamiltonian("quadratic")
COS = cosine_potential(1.0)


def test_integrator_constant_equilibrium():
    f, f_end = integrate_cell_ode(QUAD, zero_potential(), 0.5, 1.0, N=256)
    assert np.max(np.abs(f - 1.0)) == 0.0
    assert f_end == 1.0


def test_integrator_decay_toward_equilibrium():
    # autonomous phase line: f' = (1 - f^2)/2 from 1.1 decays toward 1;
    # closed form f(x) = coth(arccoth(1.1) + x/2) is the oracle
    f, f_end = integrate_cell_ode(QUAD, zero_potential(), 0.5, 1.1, N=512)
    assert np.all(np.diff(f) < 0.0)
    assert 1.0 < f_end < 1.1
    x0 = 0.5 * math.log(2.1 / 0.1)  # arccoth(1.1)
    exact = 1.0 / math.tanh(x0 + 0.5)
    assert abs(f_end - exact) < 1e-12


def test_integrator_monotone_in_lambda():
    _, e1 = integrate_cell_ode(QUAD, COS, 0.2, 0.0, N=256)
    _, e2 = integrate_cell_ode(QUAD, COS, 0.5, 0.0, N=256)
    assert e2 > e1


def test_integrator_blowup_guard():
    with pytest.raises(Blowup):
        integrate_cell_ode(QUAD, zero_potential(), -50.0, 0.0, N=256)


@settings(max_examples=12, deadline=None)
@given(p0=st.floats(-1.5, 1.5), dlam=st.floats(0.01, 1.0),
       dp=st.floats(0.01, 0.5))
def test_period_map_monotone(p0, dlam, dp):
    lam = float(QUAD.eval(p0)) + 0.2
    _, e = integrate_cell_ode(QUAD, COS, lam, p0, N=128)
    _, e_lam = integrate_cell_ode(QUAD, COS, lam + dlam, p0, N=128)
    _, e_p = integrate_cell_ode(QUAD, COS, lam, p0 + dp, N=128)
    assert e_lam > e
    assert e_p > e


def test_lambda_solver_constant_solution():
    lam, f = solve_lambda_for_periodicity(QUAD, zero_potential(), 1.0, N=256)
    assert abs(lam - 0.5) < 1e-12
    assert np.max(np.abs(f - 1.0)) < 1e-12


def test_lambda_solver_constant_shift():
    G = get_hamiltonian("multid_g1")
    lam, f = solve_lambda_for_periodicity(G, constant_potential(0.3), 0.7, N=256)
    assert abs(lam - (float(G.eval(0.7)) + 0.3)) < 1e-10
    assert np.max(np.abs(f - 0.7)) < 1e-10


def test_lambda_solver_agrees_with_eigen_oracle():
    from hjhom.pde import hopf_cole_oracle

    lam, f = solve_lambda_for_periodicity(QUAD, COS, 0.0)
    theta = float(np.trapezoid(f, np.linspace(0, 1, len(f))))
    hb = hopf_cole_oracle(COS, theta, n_x=512)
    assert abs(lam - hb) < 1e-6


def test_solve_cell_zero_potential_identity():
    for name in ("quadratic", "fig2_bump", "fig3_flat", "multid_g1"):
        G = get_hamiltonian(name)
        sol = solve_cell(G, zero_potential(), 1.0)
        assert sol.hbar == pytest.approx(float(G.eval(1.0)), abs=1e-12)
        assert np.max(np.abs(sol.f_grid - 1.0)) == 0.0


def test_solve_cell_full_path_matches_shortcircuit():
    # push V = 0 through the genuine shooting path
    for theta in (-0.7, 0.0, 1.3):
        sol = solve_cell(QUAD, zero_potential(), theta, N=512,
                         allow_shortcircuit=False)
        assert abs(sol.hbar - 0.5 * theta**2) < 1e-8
        assert np.max(np.abs(sol.f_grid - theta)) < 1e-8


def test_corrector_invariants_cosine():
    sol = solve_cell(QUAD, COS, 0.4)
    rep = validate_corrector(sol, QUAD, COS)
    assert rep["mean_err"] < 1e-6
    assert rep["period_err"] < 1e-11
    assert rep["ode_resid"] < 1e-4
    assert rep["sandwich_ok"] and rep["momentum_ok"]


def test_corrector_ordering_and_uniform_band():
    # strict ordering of correctors in theta, and the difference stays inside
    # the exponential band at every node
    from hjhom.diagnostics import check_bounds_lemma

    sols = solve_cell_many(QUAD, COS, [0.1, 0.45], N=1024)
    rep = check_bounds_lemma(sols[0], sols[1], QUAD)
    assert rep.ordered
    assert rep.n_violations == 0
    assert rep.mean_gap == pytest.approx(0.35, abs=1e-6)


def test_constant_potential_band_is_tight():
    from hjhom.diagnostics import check_bounds_lemma

    a = solve_cell(QUAD, constant_potential(0.2), 0.0, N=512)
    b = solve_cell(QUAD, constant_potential(0.2), 0.5, N=512)
    rep = check_bounds_lemma(a, b, QUAD)
    assert rep.ordered and rep.n_violations == 0
    assert np.max(np.abs((b.f_grid - a.f_grid) - 0.5)) == 0.0


def test_sweep_zero_potential_reproduces_G():
    sw = sweep_hbar(get_hamiltonian("fig3_flat"), zero_potential(), -2, 2, 41)
    expect = np.asarray(get_hamiltonian("fig3_flat").eval(sw.thetas))
    assert np.max(np.abs(sw.hbars - expect)) < 1e-12
    assert not sw.failures


def test_sweep_reflection_covariance():
    # sweeping the reflected system reverses the curve in theta; the second
    # case reaches theta = -6, where a forward shot amplifies errors by e^6
    cases = [(get_hamiltonian("fig2_bump"), COS, 0.8, 17, 512, 5e-10),
             (QUAD, cosine_potential(5.0), 6.0, 25, 1024, 1e-11)]
    for G, V, span, n, N, atol in cases:
        sw = sweep_hbar(G, V, -span, span, n, N=N)
        sw_r = sweep_hbar(reflect(G), reflect_potential(V), -span, span, n, N=N)
        assert not sw.failures and not sw_r.failures
        assert np.allclose(sw_r.hbars, sw.hbars[::-1], rtol=0.0, atol=atol)


def test_solver_envelope_against_oracle():
    # quadratic G with cosine potentials up to amplitude 200 on theta in
    # [-6, 6]: every theta is solved or reported, and solved ones match the
    # Hopf-Cole oracle
    from hjhom.pde import hopf_cole_oracle

    thetas = np.linspace(-6.0, 6.0, 25)
    for amp, k in ((1.0, 1), (5.0, 1), (30.0, 3), (200.0, 1)):
        V = cosine_potential(amp, k)
        sw = sweep_hbar(QUAD, V, -6.0, 6.0, 25, N=1024)
        failed = [th for th, _ in sw.failures]
        assert sorted(list(sw.thetas) + failed) == list(thetas)
        assert all(why for _, why in sw.failures)
        for i in range(0, len(sw.thetas), 6):
            oracle = hopf_cole_oracle(V, float(sw.thetas[i]), n_x=2048)
            assert abs(sw.hbars[i] - oracle) < 1e-6, (amp, k, sw.thetas[i])


def test_unconverged_thetas_are_reported_not_resolved(monkeypatch):
    # with two passes allowed, exactly the thetas that have not converged are
    # failures, each with a reason; the others are solved, nothing is re-solved
    from hjhom import cell
    from hjhom.errors import SolveFailure

    calls = []
    shoot = cell._shoot

    def counting(G, grid, lam, s, **kw):
        res = shoot(G, grid, lam, s, **kw)
        calls.append((np.array(s, dtype=float), res))
        return res

    monkeypatch.setattr(cell, "_MAX_NEWTON", 2)
    monkeypatch.setattr(cell, "_shoot", counting)
    thetas = np.linspace(-1.0, 1.0, 9)
    # V = 0: the flat corrector at the exact level solves every other theta at
    # once; the rest start 0.3 off in the level
    lam0 = np.asarray(QUAD.eval(thetas)) + np.where(np.arange(9) % 2, 0.3, 0.0)
    kw = dict(N=256, init=(lam0, thetas), allow_shortcircuit=False)
    sw = sweep_hbar(QUAD, zero_potential(), -1.0, 1.0, 9, **kw)
    assert len(calls) <= 2
    s, res = calls[-1]
    r = res.f_end - np.roll(s, -1, axis=1)
    conv = ((np.abs(r).max(axis=1) <= cell.TOL_PERIOD)
            & (np.abs(res.m_end.sum(axis=1) - thetas) <= cell.TOL_THETA))
    assert 0 < conv.sum() < len(thetas)
    assert [th for th, _ in sw.failures] == list(thetas[~conv])
    assert all(why == "iteration cap" for _, why in sw.failures)
    assert np.array_equal(sw.thetas, thetas[conv])
    assert np.array_equal(sw.hbars, lam0[conv])
    # any other caller gets one exception that names every failed theta
    with pytest.raises(SolveFailure) as exc:
        solve_cell_many(QUAD, zero_potential(), thetas, **kw)
    assert exc.value.failures == sw.failures
    assert all(f"theta={th!r} (iteration cap)" in str(exc.value) for th, _ in sw.failures)


def test_grid_refinement_is_fourth_order():
    V = cosine_potential(2.5)
    ref = solve_cell(QUAD, V, 0.3, N=16384, tol_period=1e-13,
                     tol_theta=1e-12).hbar
    errs = [abs(solve_cell(QUAD, V, 0.3, N=n, tol_period=1e-13,
                           tol_theta=1e-12).hbar - ref)
            for n in (512, 1024, 2048)]
    assert errs[0] / errs[1] > 8.0
    assert errs[1] / errs[2] > 8.0


def test_sandwich_and_momentum_bounds_definitions():
    lo, up = sandwich_bounds(QUAD, COS, 0.5)
    assert lo == pytest.approx(0.125 - 1.0, abs=1e-9)
    assert up == pytest.approx(0.125 + 1.0, abs=1e-9)
    pm, pp = momentum_bounds(QUAD, COS, 0.5)
    # G(p) <= U - min V = 0.125 + 2 -> |p| <= sqrt(4.25)
    assert pm == pytest.approx(-math.sqrt(4.25), abs=1e-6)
    assert pp == pytest.approx(math.sqrt(4.25), abs=1e-6)


def test_batch_init_accepts_arrays():
    thetas = np.linspace(-0.5, 0.5, 5)
    init = (np.asarray(QUAD.eval(thetas), dtype=float), thetas.copy())
    sols = solve_cell_many(QUAD, COS, thetas, N=512, init=init)
    single = solve_cell(QUAD, COS, 0.0, N=512)
    mid = sols[2]
    assert abs(mid.hbar - single.hbar) < 1e-10


def test_csv_potential_roundtrip(tmp_path):
    from hjhom.potentials import from_csv

    xs = np.linspace(0.0, 1.0, 257, endpoint=False)
    vs = np.cos(2 * np.pi * xs)
    path = tmp_path / "pot.csv"
    with open(path, "w") as fh:
        fh.write("x,V\n")
        for x, v in zip(xs, vs):
            fh.write("%.17g,%.17g\n" % (x, v))
    V = from_csv(path)
    q = np.linspace(0, 2, 101)
    assert np.max(np.abs(V.values(q) - np.cos(2 * np.pi * q))) < 1e-3
    assert abs(V.values(0.0) - V.values(1.0)) == 0.0
    sol = solve_cell(QUAD, V, 0.0, N=1024)
    ref = solve_cell(QUAD, COS, 0.0, N=1024)
    assert abs(sol.hbar - ref.hbar) < 1e-4


def test_synthesized_potential_lipschitz_metadata(fig3_certified):
    V = fig3_certified.value.bundle.V
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, 4000)
    y = x + rng.uniform(-1e-4, 1e-4, 4000)
    gap = np.abs(V.values(x) - V.values(y))
    assert np.all(gap <= V.lipschitz_const * np.abs(x - y) * (1 + 1e-6) + 1e-12)


def _fd_sensitivities(G, V, N, lam, p0, segments, d=1e-6):
    """Central differences of the segment end values and integrals in lam and
    in the start values, against the closed forms; the segments start on the
    single-shot trajectory from (lam, p0)."""
    from hjhom import cell

    grid = cell._grid_for(V, N)
    M = len(grid.h)
    edges = np.arange(segments) * -(-M // segments)
    s = cell._shoot(G, grid, lam, p0).F[0, edges]
    res = cell._shoot(G, grid, [lam + d, lam - d, lam, lam], [s, s, s + d, s - d])
    assert not res.blown.any()
    fe, me = res.f_end, res.m_end
    fd = np.array([(fe[0] - fe[1]), (fe[2] - fe[3]), (me[0] - me[1]), (me[2] - me[3])])
    exact = cell._jacobian(G, grid, cell._shoot(G, grid, lam, s[None]), [0])[:, 0]
    return fd / (2.0 * d), exact


@pytest.mark.parametrize("case", ["cosine5", "fig3"])
def test_closed_form_sensitivities_match_finite_differences(case):
    # sl, sp, ml, mp from e^{-I} and e^{-I} int e^{I} against the pass itself
    from hjhom import cell

    if case == "cosine5":
        G, V, N = QUAD, cosine_potential(5.0), 1024
        sol = solve_cell(G, V, 0.7, N=N)
    else:
        from hjhom import build_counterexample
        from hjhom.hamiltonians import CERTIFIED_POINTS

        b = build_counterexample(get_hamiltonian("fig3_flat"),
                                 *CERTIFIED_POINTS["fig3_flat"])
        G, V, N = b.G, b.V, 4096
        sol = solve_cell(G, V, b.theta0, N=N, init=(0.0, float(b.profile.eval(0.0))))
    # one segment (the single shot) and the solver's multiple-shooting split
    grid_segments = cell._grid_for(V, N).n_seg
    assert grid_segments > 1
    # a segment's end and integral derivatives are O(1/K) and O(1/K^2), so the
    # split case takes a wider difference step to keep the reference's roundoff
    # below the tolerance
    for segments, d in ((1, 1e-6), (grid_segments, 1e-4)):
        fd, exact = _fd_sensitivities(G, V, N, sol.hbar, sol.p0, segments, d=d)
        assert np.all(np.abs(exact - fd) <= 1e-6 * np.abs(fd)), (segments, exact, fd)


def test_newton_runs_one_pass_per_iteration(monkeypatch):
    # every pass but the last has an unconverged theta and is followed by a
    # Newton step on (lam, segment starts); the converged pass is the answer,
    # with no pass after it
    from hjhom import cell

    calls = []
    shoot = cell._shoot

    def counting(G, grid, lam, s, **kw):
        res = shoot(G, grid, lam, s, **kw)
        calls.append((np.array(lam, dtype=float), np.array(s, dtype=float), res))
        return res

    monkeypatch.setattr(cell, "_shoot", counting)
    thetas = np.linspace(-1.0, 1.0, 9)
    sols = solve_cell_many(QUAD, COS, thetas, N=512)
    assert len(calls) >= 2
    for k, (lam, s, res) in enumerate(calls):
        assert s.shape == (len(thetas), cell._grid_for(COS, 512).n_seg)
        assert not res.blown.any()
        r = res.f_end - np.roll(s, -1, axis=1)
        conv = ((np.abs(r).max(axis=1) <= cell.TOL_PERIOD)
                & (np.abs(res.m_end.sum(axis=1) - thetas) <= cell.TOL_THETA))
        if k < len(calls) - 1:
            assert not conv.all()
            moved = (calls[k + 1][0] != lam) | (calls[k + 1][1] != s).any(axis=1)
            assert np.array_equal(moved, ~conv)
        else:
            assert conv.all()
    lam, s, res = calls[-1]
    assert [sol.hbar for sol in sols] == list(lam)
    assert [sol.p0 for sol in sols] == list(s[:, 0])
    for k, sol in enumerate(sols):
        assert np.array_equal(sol.f_grid, res.F[k])


def test_grid_cache_is_bounded():
    from hjhom import cell

    for k in range(cell._GRID_CACHE_SIZE + 4):
        cell._grid_for(cosine_potential(1.0 + k), 64)
    assert len(cell._GRID_CACHE) == cell._GRID_CACHE_SIZE
    key = (cosine_potential(1.0 + cell._GRID_CACHE_SIZE + 3).fingerprint, 64)
    assert key in cell._GRID_CACHE
