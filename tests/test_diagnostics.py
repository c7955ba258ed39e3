"""Slope integrals, linearized periodic solutions, growth predictions, and
bump certificates."""

import numpy as np
import pytest

from hjhom import (
    certify_nonquasiconvex,
    check_bounds_lemma,
    compute_I,
    cosine_potential,
    get_hamiltonian,
    linearized_periodic_solution,
    predict_local_growth,
    solve_cell,
    solve_cell_many,
    zero_potential,
)
from hjhom.diagnostics import confirm_prediction

QUAD = get_hamiltonian("quadratic")
COS = cosine_potential(1.0)


def test_I_constant_corrector():
    sol = solve_cell(QUAD, zero_potential(), 0.0)
    I_grid, I_end = compute_I(sol, QUAD)
    assert I_end == 0.0
    assert np.max(np.abs(I_grid)) == 0.0


def test_I_matches_slope_of_plain_integral():
    sol = solve_cell(QUAD, COS, 0.6, N=2048)
    _, I_end = compute_I(sol, QUAD)
    # independent check: trapezoid of G'(f) on the uniform grid
    ref = float(np.trapezoid(np.asarray(QUAD.d1(sol.f_grid)), sol.x_grid))
    assert abs(I_end - ref) < 1e-6


def test_linearized_solution_critical_case():
    # V = 0 at the minimum of a strictly convex G: I vanishes and the
    # homogeneous positive solution has unit initial value
    sol = solve_cell(QUAD, zero_potential(), 0.0)
    lin = linearized_periodic_solution(sol, QUAD)
    assert lin.c_theta == 0.0
    assert lin.C_theta == 1.0
    assert np.all(lin.g_grid > 0.0)
    assert lin.b_theta == pytest.approx(1.0, abs=1e-12)


def test_linearized_solution_residual_and_periodicity():
    sol = solve_cell(QUAD, COS, 0.7, N=4096)
    lin = linearized_periodic_solution(sol, QUAD)
    x = lin.x_grid
    g = lin.g_grid
    assert np.all(g > 0.0)
    assert abs(g[0] - g[-1]) < 1e-9 * max(1.0, np.max(g))
    # defining ODE g' + G'(f) g = c at interior nodes (uniform grid here)
    h = x[1] - x[0]
    gp = (g[2:] - g[:-2]) / (2 * h)
    resid = gp + np.asarray(QUAD.d1(sol.f_best[1:-1])) * g[1:-1] - lin.c_theta
    assert np.max(np.abs(resid)) < 5e-5
    assert lin.C_theta > 0.0 and lin.b_theta > 0.0


def test_linearized_case_sign_consistency():
    for theta, want in ((0.7, 1.0), (-0.7, -1.0)):
        sol = solve_cell(QUAD, COS, theta, N=1024)
        lin = linearized_periodic_solution(sol, QUAD)
        assert lin.c_theta == want
        assert np.sign(lin.I_end) == want
        assert lin.C_theta > 0.0 and lin.b_theta > 0.0
        assert np.all(lin.g_grid > 0.0)


def test_predict_sides_quadratic_cosine():
    # for convex G the effective Hamiltonian is convex with minimum near 0:
    # I(1) picks the uphill side
    right = predict_local_growth(solve_cell(QUAD, COS, 0.7, N=1024), QUAD)
    left = predict_local_growth(solve_cell(QUAD, COS, -0.7, N=1024), QUAD)
    assert right.side == "right"
    assert left.side == "left"
    assert right.window > 0.0


def test_predict_critical_at_minimum():
    pred = predict_local_growth(solve_cell(QUAD, zero_potential(), 0.0), QUAD)
    assert pred.side == "critical"


def test_certify_rejects_convex_curve():
    th = np.linspace(-2, 2, 81)
    assert certify_nonquasiconvex(th, 0.5 * th**2) is None


def test_certify_rejects_quasiconvex_curve():
    th = np.linspace(-2, 2, 201)
    vals = np.abs(th) ** 1.5 - 1.0
    assert certify_nonquasiconvex(th, vals) is None


def test_certify_finds_synthetic_bump():
    th = np.linspace(-1, 1, 129)
    vals = th**2 + 0.05 * np.exp(-200 * th**2)
    cert = certify_nonquasiconvex(th, vals)
    assert cert is not None
    assert abs(cert.theta_mid) < 0.1
    assert cert.margin > 1e-3
    assert cert.hbar_mid > max(cert.hbar_left, cert.hbar_right)
    assert cert.theta_left < cert.theta_mid < cert.theta_right


def test_certify_margin_threshold():
    th = np.linspace(-1, 1, 65)
    vals = th**2 + 1e-8 * np.exp(-200 * th**2)   # bump below the margin
    assert certify_nonquasiconvex(th, vals) is None


def test_certificate_maximizes_margin():
    th = np.linspace(0, 1, 11)
    vals = np.array([0.0, 0.2, 0.1, 0.5, 0.3, 0.1, 0.6, 0.2, 0.05, 0.4, 1.0])
    cert = certify_nonquasiconvex(th, vals)
    # best interior peak is 0.6 against minima 0.0 (left) and 0.05 (right)
    assert cert.hbar_mid == pytest.approx(0.6)
    assert cert.margin == pytest.approx(0.6 - 0.05)


def test_difference_band_on_bundle(fig3_certified):
    res = fig3_certified.value
    b = res.bundle
    lo, hi = solve_cell_many(b.G, b.V, [b.theta0 - res.c / 2, b.theta0 + res.c / 2],
                             N=2048, init=(0.0, float(b.profile.eval(0.0))))
    rep = check_bounds_lemma(lo, hi, b.G)
    assert rep.ok
    assert rep.mean_gap == pytest.approx(res.c, rel=1e-6)
    assert rep.band_lo <= rep.mean_gap <= rep.band_hi


def test_band_check_rejects_misordered():
    a = solve_cell(QUAD, COS, 0.3, N=512)
    b = solve_cell(QUAD, COS, 0.1, N=512)
    with pytest.raises(ValueError):
        check_bounds_lemma(a, b, QUAD)


def test_prediction_windows_on_bundle(fig3_certified):
    res = fig3_certified.value
    assert res.pred_minus.side == "right"
    assert res.pred_plus.side == "left"
    assert res.h_minus is not None and res.h_plus is not None


def test_reflection_covariance_of_certificates(fig3_certified):
    # certificates of the reflected system live at the negated momenta
    from hjhom import reflect, sweep_hbar
    from hjhom.potentials import reflect_potential

    res = fig3_certified.value
    b = res.bundle
    sw = sweep_hbar(reflect(b.G), reflect_potential(b.V),
                    -(b.theta0 + res.c), -(b.theta0 - res.c),
                    33, N=1024)
    cert_r = certify_nonquasiconvex(sw.thetas, sw.hbars)
    assert cert_r is not None
    # compare against the original curve restricted to the same 33-point grid
    sw_o = sweep_hbar(b.G, b.V, b.theta0 - res.c, b.theta0 + res.c, 33, N=1024)
    cert_o = certify_nonquasiconvex(sw_o.thetas, sw_o.hbars)
    assert cert_r.theta_mid == pytest.approx(-cert_o.theta_mid, abs=1e-9)
    assert cert_r.margin == pytest.approx(cert_o.margin, rel=1e-6)


def test_confirm_prediction_scans_h():
    th = np.linspace(0.0, 1.0, 101)
    hb = th.copy()   # strictly increasing curve
    from hjhom.diagnostics import GrowthPrediction

    pred = GrowthPrediction(theta=0.0, side="right", window=1.0, I_end=1.0)
    h = confirm_prediction(pred, th, hb, hbar_ref=0.0)
    assert h is not None and h <= 1.0
    pred_bad = GrowthPrediction(theta=1.0, side="right", window=1.0, I_end=1.0)
    assert confirm_prediction(pred_bad, th, hb, hbar_ref=1.0) is None


def _scipy_piecewise_reference(y, x, piece_idx):
    """The per-piece scipy loop the vectorized stencil replaced, one row."""
    from scipy.integrate import cumulative_simpson

    out = np.empty_like(y)
    offset = 0.0
    for a, b in zip(piece_idx[:-1], piece_idx[1:]):
        if b - a == 1:
            seg = np.array([0.0, 0.5 * (x[b] - x[a]) * (y[a] + y[b])])
        else:
            seg = cumulative_simpson(y[a:b + 1], x=x[a:b + 1], initial=0.0)
        out[a:b + 1] = offset + seg
        offset = out[b]
    return out


@pytest.mark.parametrize("name", ["fig2_bump", "fig3_flat", "multid_g1"])
def test_piecewise_simpson_matches_scipy_loop(name):
    from hjhom import build_counterexample
    from hjhom.cell import _grid_for
    from hjhom.hamiltonians import CERTIFIED_POINTS
    from hjhom.numerics import cumulative_simpson_pieces

    bundle = build_counterexample(get_hamiltonian(name), *CERTIFIED_POINTS[name])
    rng = np.random.default_rng(1)
    for N in (1024, 4096):
        grid = _grid_for(bundle.V, N)
        x, pieces = grid.nodes, grid.piece_idx
        assert len(pieces) > 2
        Y = np.vstack([np.sin(7.0 * x) + x**2, np.exp(3.0 * x),
                       np.asarray(bundle.G.d1(bundle.profile.eval(x))),
                       rng.standard_normal(len(x))])
        got = cumulative_simpson_pieces(Y, x, pieces)
        ref = np.vstack([_scipy_piecewise_reference(y, x, pieces) for y in Y])
        assert got.shape == Y.shape
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-12
