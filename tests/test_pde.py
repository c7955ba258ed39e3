"""Parabolic long-time verification and the quadratic-Hamiltonian oracle."""

import numpy as np
import pytest

from hjhom import (
    constant_potential,
    cosine_potential,
    get_hamiltonian,
    hopf_cole_oracle,
    long_time_slope,
    solve_cell,
    zero_potential,
)
from hjhom.pde import circulant_diffusion_solver

QUAD = get_hamiltonian("quadratic")


def test_periodic_tridiag_against_dense():
    rng = np.random.default_rng(0)
    # the last case is the fig3 run: n_x=4096 at its dt/h^2
    for n, r in ((32, 0.3), (256, 50.0), (1024, 2000.0), (4096, 2.4e4)):
        a = c = -r
        b = 1.0 + 2.0 * r
        A = np.zeros((n, n))
        i = np.arange(n)
        A[i, i] = b
        A[i, (i + 1) % n] = c
        A[i, (i - 1) % n] = a
        rhs = rng.normal(size=n)
        got = circulant_diffusion_solver(r, n)(rhs)
        want = np.linalg.solve(A, rhs)
        assert np.max(np.abs(got - want)) < 1e-10 * max(1, np.max(np.abs(want)))


def test_slope_zero_potential_quadratic():
    run = long_time_slope(QUAD, zero_potential(), 1.0, n_x=512, t_final=20.0)
    assert abs(run.slope - 0.5) < 1e-4
    assert run.bound_ok


def test_slope_constant_shift():
    G = get_hamiltonian("multid_g1")
    run = long_time_slope(G, constant_potential(0.4), 0.3, n_x=512, t_final=20.0)
    assert abs(run.slope - (float(G.eval(0.3)) + 0.4)) < 1e-4


def test_slope_matches_cell_on_smooth_potential():
    V = cosine_potential(1.0)
    ref = solve_cell(QUAD, V, 0.3).hbar
    run = long_time_slope(QUAD, V, 0.3, n_x=1024, t_final=40.0)
    assert abs(run.slope - ref) < 5e-3
    assert run.mode == "pointwise"


def test_slope_T_refinement_bound():
    # fit-window error is dominated by the transient, bounded by C / T
    V = cosine_potential(1.0)
    ref = solve_cell(QUAD, V, 0.3).hbar
    errs = {}
    for T in (10.0, 20.0):
        run = long_time_slope(QUAD, V, 0.3, n_x=512, t_final=T)
        errs[T] = abs(run.slope - ref)
        assert errs[T] <= 1.0 / T
    assert errs[20.0] <= errs[10.0] + 1e-4


def test_slope_on_bundle_theta0(fig3_certified):
    res = fig3_certified.value
    b = res.bundle
    run = long_time_slope(b.G, b.V, b.theta0, n_x=4096, t_final=40.0)
    assert run.mode == "antideriv"
    assert abs(run.slope) <= 2e-3
    assert run.bound_ok
    # max/min are recorded only on the kept rows; every kept row has them
    _, mean_w, max_w, min_w = run.trace.T
    assert np.all(np.isfinite(run.trace))
    assert np.all(max_w >= mean_w) and np.all(mean_w >= min_w)


def test_slope_trace_shape():
    run = long_time_slope(QUAD, zero_potential(), 0.5, n_x=256, t_final=10.0)
    assert run.trace.shape[1] == 4
    t = run.trace[:, 0]
    assert t[0] == 0.0 and t[-1] == pytest.approx(run.t_final, abs=2 * run.dt)


def test_oracle_zero_potential():
    for theta in (0.0, 0.5, -1.2):
        hb = hopf_cole_oracle(zero_potential(), theta, n_x=256)
        assert abs(hb - 0.5 * theta**2) < 5e-9


def test_oracle_constant_shift():
    hb = hopf_cole_oracle(constant_potential(0.7), 0.4, n_x=256)
    assert abs(hb - (0.08 + 0.7)) < 5e-9


def test_oracle_agrees_with_cell_after_refinement():
    V = cosine_potential(1.0)
    for theta in (-0.5, 0.0, 0.9):
        ref = solve_cell(QUAD, V, theta).hbar
        hb = hopf_cole_oracle(V, theta, n_x=512)
        assert abs(hb - ref) < 1e-6


def test_oracle_against_dense_eigenvalues():
    # principal eigenvalue = the one with the largest real part of the dense
    # periodic operator eta'' + theta eta' + (theta^2/4 + V/2) eta
    V = cosine_potential(5.0)
    n = 256
    h = 1.0 / n
    i = np.arange(n)
    for theta in (-3.0, 0.0, 2.5):
        A = np.zeros((n, n))
        A[i, i] = -2.0 / h**2 + theta**2 / 4.0 + V.values(i * h) / 2.0
        A[i, (i + 1) % n] = 1.0 / h**2 + theta / (2.0 * h)
        A[i, (i - 1) % n] = 1.0 / h**2 - theta / (2.0 * h)
        mu = np.max(np.linalg.eigvals(A).real)
        assert abs(hopf_cole_oracle(V, theta, n_x=n, refine=False) - 2.0 * mu) <= 1e-8


def test_oracle_refinement_tightens():
    V = cosine_potential(1.0)
    ref = solve_cell(QUAD, V, 0.0).hbar
    raw = hopf_cole_oracle(V, 0.0, n_x=256, refine=False)
    fine = hopf_cole_oracle(V, 0.0, n_x=256, refine=True)
    assert abs(fine - ref) < abs(raw - ref)
