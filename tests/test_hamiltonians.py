"""Catalog invariants, the bump builders, and the convex companion."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hjhom.errors import DomainError, NoDeltaFound, NonConvexInput
from hjhom.hamiltonians import (
    BUMP_D1_MAX,
    BumpParams,
    CERTIFIED_POINTS,
    available,
    build_breve_G,
    build_J,
    bump_psi,
    bump_psi_d1,
    bump_psi_d2,
    get_hamiltonian,
    invert_J,
    load_hamiltonian_csv,
    modify_convex_to_quasiconvex,
    reflect,
    verify_quasiconvex,
    with_bump,
)
from hjhom.numerics import is_quasiconvex_on_grid, max_abs_on


def fd_second(fn, p, h: float = 1e-4):
    """Central second difference, O(h^2)."""
    p = np.asarray(p, dtype=float)
    return (fn(p + h) - 2.0 * fn(p) + fn(p - h)) / h**2


def fd_first(fn, p, h: float = 1e-5):
    """Central first difference, O(h^2)."""
    p = np.asarray(p, dtype=float)
    return (fn(p + h) - fn(p - h)) / (2.0 * h)


def test_bump_values_at_zero():
    assert float(bump_psi(0.0)) == 1.0
    assert float(bump_psi_d1(0.0)) == 0.0
    assert float(bump_psi_d2(0.0)) == -6.0


def test_bump_support_boundary():
    assert float(bump_psi(1.0)) == 0.0
    assert float(bump_psi(-1.0)) == 0.0
    assert float(bump_psi(2.0)) == 0.0
    assert float(bump_psi_d1(5.0)) == 0.0
    assert float(bump_psi_d2(1.5)) == 0.0


def test_bump_slope_maximum():
    p = np.linspace(-1, 1, 400001)
    assert abs(np.max(np.abs(bump_psi_d1(p))) - BUMP_D1_MAX) < 1e-9
    assert BUMP_D1_MAX < 2.0


def test_bump_c2_across_support_edge():
    # FD of psi across +-1 matches the piecewise derivatives
    for p in (-1.0, 1.0):
        assert abs(fd_first(bump_psi, p, 1e-6) - bump_psi_d1(p)) < 1e-8
        assert abs(fd_second(bump_psi, p, 1e-5) - bump_psi_d2(p)) < 1e-4


@pytest.mark.parametrize("name", available())
def test_catalog_derivative_consistency(name):
    G = get_hamiltonian(name)
    p = np.linspace(-5, 5, 81)
    h = 1e-4
    fd1 = (np.asarray(G.eval(p + h)) - np.asarray(G.eval(p - h))) / (2 * h)
    fd2 = (np.asarray(G.eval(p + h)) - 2 * np.asarray(G.eval(p))
           + np.asarray(G.eval(p - h))) / h**2
    scale1 = 1.0 + np.max(np.abs(np.asarray(G.d1(p))))
    scale2 = 1.0 + np.max(np.abs(np.asarray(G.d2(p))))
    # the fig2 bump has curvature ~1/delta, which inflates the h^2 constant
    assert np.max(np.abs(fd1 - G.d1(p))) < 1e-3 * scale1
    assert np.max(np.abs(fd2 - G.d2(p))) < 2e-2 * scale2


@pytest.mark.parametrize("name", available())
def test_catalog_coercivity(name):
    G = get_hamiltonian(name)
    big = 50.0
    assert float(G.eval(big)) > float(G.eval(0.0)) + 1.0
    assert float(G.eval(-big)) > float(G.eval(0.0)) + 1.0


@pytest.mark.parametrize("name", available())
def test_catalog_growth_envelope(name):
    G = get_hamiltonian(name)
    if G.growth is None:
        pytest.skip("no growth metadata")
    eta, a0, a1 = G.growth
    p = np.linspace(-30, 30, 4001)
    v = np.asarray(G.eval(p))
    lower = a0 * np.abs(p) ** eta - 1.0 / a0
    upper = a1 * (np.abs(p) ** eta + 1.0)
    assert np.all(lower <= v + 1e-12)
    assert np.all(v <= upper + 1e-12)


def test_reflect_matches_pointwise():
    G = get_hamiltonian("fig2_bump")
    R = reflect(G)
    p = np.linspace(-3, 3, 101)
    assert np.allclose(R.eval(p), G.eval(-p), rtol=0, atol=0)
    assert np.allclose(R.d1(p), -np.asarray(G.d1(-p)), rtol=0, atol=0)
    assert np.allclose(R.d2(p), G.d2(-p), rtol=0, atol=0)


# ---------------------------------------------------------------------------
# convex -> quasiconvex modification
# ---------------------------------------------------------------------------

def test_case1_quadratic_canonical():
    G = get_hamiltonian("quadratic")
    Gt, cand = modify_convex_to_quasiconvex(G, -2.0, -1.0, delta=1.0 / 50.0)
    assert cand.case == 1
    assert cand.bump.a == pytest.approx(0.5)
    assert cand.bump.p0 == pytest.approx(-1.5)
    assert cand.p1 == pytest.approx(-1.5)
    assert cand.p2 == pytest.approx(1.5)
    assert max_abs_on(G.d1, cand.p1, cand.p2) == pytest.approx(1.5)


def test_case1_delta_acceptance_region():
    # the slope/curvature chain accepts exactly delta < 3 / (1 + e^5) here
    G = get_hamiltonian("quadratic")
    edge = 3.0 / (1.0 + math.exp(5.0))
    modify_convex_to_quasiconvex(G, -2.0, -1.0, delta=0.95 * edge)
    with pytest.raises(NoDeltaFound):
        modify_convex_to_quasiconvex(G, -2.0, -1.0, delta=1.05 * edge)


def test_case1_search_lands_inside_region():
    G = get_hamiltonian("quadratic")
    Gt, cand = modify_convex_to_quasiconvex(G, -2.0, -1.0)
    assert cand.bump.delta < 3.0 / (1.0 + math.exp(5.0))
    assert float(Gt.d2(cand.p1)) < 0.0


def test_case3_flat_quartic():
    G = get_hamiltonian("flat_quartic")
    Gt, cand = modify_convex_to_quasiconvex(G, -0.5, 0.5)
    assert cand.case == 3
    assert cand.bump.a == -1.0
    assert cand.bump.p0 == 0.0
    assert cand.bump.delta == 0.5
    assert cand.p1 == pytest.approx(-0.25)
    assert cand.p2 == pytest.approx(0.25)
    # matches the catalog fig3 entry
    fig3 = get_hamiltonian("fig3_flat")
    p = np.linspace(-2, 2, 101)
    assert np.array_equal(np.asarray(Gt.eval(p)), np.asarray(fig3.eval(p)))


def test_case2_routes_by_reflection():
    G = get_hamiltonian("quadratic")
    Gt, cand = modify_convex_to_quasiconvex(G, 1.0, 2.0)
    assert cand.case == 2
    assert cand.bump.p0 == pytest.approx(1.5)
    assert cand.p1 < 0.0 < cand.p2
    # curvature dips at p2 now: the reflected form of the hypotheses
    assert float(Gt.d2(cand.p2)) < 0.0


def test_modification_is_bitexact_outside_window():
    G = get_hamiltonian("quadratic")
    Gt, cand = modify_convex_to_quasiconvex(G, -2.0, -1.0)
    p = np.concatenate([np.linspace(-10, -2.0000001, 1001),
                        np.linspace(-0.9999999, 10, 1001)])
    assert np.array_equal(np.asarray(Gt.eval(p)), np.asarray(G.eval(p)))
    assert np.array_equal(np.asarray(Gt.d1(p)), np.asarray(G.d1(p)))


def test_modified_quasiconvex_sublevels():
    for name in ("fig2_bump", "fig3_flat"):
        G = get_hamiltonian(name)
        grid = np.sort(np.concatenate([np.linspace(-6, 6, 12001),
                                       np.linspace(-1.6, -1.4, 4001)]))
        vals = np.asarray(G.eval(grid))
        assert is_quasiconvex_on_grid(vals, tol=1e-12)


def test_nonconvex_input_rejected():
    G = get_hamiltonian("fig3_flat")  # already dips; not convex
    with pytest.raises(NonConvexInput):
        modify_convex_to_quasiconvex(G, -0.5, 0.5)


def test_quasiconvexity_checker_rejects_bumped_curve():
    x = np.linspace(-2, 2, 10001)
    v = x**2
    v[5000] += 0.5  # spike at the bottom: sublevel sets split in two
    assert not is_quasiconvex_on_grid(v)
    w = x**2
    w[2500] -= 0.5  # dip on the descending branch
    assert not is_quasiconvex_on_grid(w)
    assert is_quasiconvex_on_grid(x**2)


# ---------------------------------------------------------------------------
# convex companion: J and breve G
# ---------------------------------------------------------------------------

def test_J_anchors_and_closed_form():
    J, J1, J2 = build_J(0.5, 3)  # M(d-1) = 1
    assert float(J(0.0)) == 0.0
    assert float(J1(0.0)) == 0.0
    assert float(J(0.5)) == pytest.approx(math.log(2.0) - 0.5, abs=1e-15)
    # cross-check by quadrature of J'
    val, _ = quad(lambda p: float(J1(p)), 0.0, 0.5, epsabs=1e-13)
    assert abs(val - (math.log(2.0) - 0.5)) < 1e-12


def test_J_differential_inequality():
    M, d = 0.7, 4
    J, J1, J2 = build_J(M, d)
    p = np.linspace(0.0, 0.999, 2001)
    gap = np.asarray(J2(p)) - M * (d - 1) * np.square(np.asarray(J1(p)))
    assert np.all(gap > 0.0)
    assert float(gap[0]) == pytest.approx(1.0 / (M * (d - 1)), rel=1e-12)
    fd_gap = fd_second(lambda q: np.asarray(J(q)), 0.3, 1e-5) \
        - M * (d - 1) * fd_first(lambda q: np.asarray(J(q)), 0.3, 1e-6) ** 2
    exact_gap = float(J2(0.3)) - M * (d - 1) * float(J1(0.3)) ** 2
    assert abs(fd_gap - exact_gap) < 1e-6


def test_J_domain_errors():
    J, J1, J2 = build_J(1.0, 2)
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(DomainError):
            J(bad)


def test_breve_G_shape():
    M, d, R = 0.04, 2, 5.0
    Gb = build_breve_G(M, d, R)
    p_r = invert_J(M, d, R)
    assert float(Gb.eval(0.0)) == 0.0
    p = np.linspace(-3, 3, 1001)
    assert np.allclose(Gb.eval(p), Gb.eval(-p), atol=0)
    assert float(Gb.eval(p_r)) == pytest.approx(R, abs=1e-12)
    # strict convexity on a sampled grid
    assert np.all(np.asarray(Gb.d2(p)) > 0.0)
    # C^2 gluing at the knot: the straddling second difference converges to
    # J''(p_R) (first order there, since the third derivative jumps)
    _, _, J2 = build_J(M, d)
    j2r = float(J2(p_r))
    err4 = abs(fd_second(lambda q: np.asarray(Gb.eval(q)), p_r, 1e-4) - j2r)
    err5 = abs(fd_second(lambda q: np.asarray(Gb.eval(q)), p_r, 1e-5) - j2r)
    assert err4 < 1e-3 * j2r
    assert err5 < 2e-4 * j2r
    # away from the knot the stencil sees one smooth piece: O(h^2) there
    for q in (0.5 * p_r, 1.5 * p_r):
        assert abs(fd_second(lambda s: np.asarray(Gb.eval(s)), q, 1e-4)
                   - float(Gb.d2(q))) < 1e-6 * j2r


def test_breve_G_growth_and_quasiconvexity():
    Gb = build_breve_G(0.04, 3, 8.0)
    eta, a0, a1 = Gb.growth
    assert eta == 2.0 and a0 > 0 and a1 > 0
    assert verify_quasiconvex(Gb, -20, 20)


def test_invert_J_accuracy():
    M, d = 0.3, 5
    J, J1, _ = build_J(M, d)
    for R in (0.1, 2.0, 20.0):
        p_r = invert_J(M, d, R)
        # 1e-14-in-p accuracy, amplified through the local slope of J
        assert abs(float(J(p_r)) - R) < max(1e-12, 5e-14 * float(J1(p_r)))
    with pytest.raises(ValueError):
        invert_J(M, d, 1e6)


def test_csv_roundtrip(tmp_path):
    G = get_hamiltonian("quadratic")
    p = np.linspace(-4, 4, 801)
    rows = np.column_stack([p, G.eval(p), G.d1(p), G.d2(p)])
    path = tmp_path / "ham.csv"
    with open(path, "w") as fh:
        fh.write("p,G,G1,G2\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
    H = load_hamiltonian_csv(path)
    q = np.linspace(-3.5, 3.5, 101)
    assert np.max(np.abs(np.asarray(H.eval(q)) - np.asarray(G.eval(q)))) < 1e-10
    assert np.max(np.abs(np.asarray(H.d1(q)) - np.asarray(G.d1(q)))) < 1e-8


def test_with_bump_matches_formula():
    G = get_hamiltonian("quadratic")
    bp = BumpParams(a=0.3, p0=1.0, delta=0.1)
    Gt = with_bump(G, bp)
    p = np.linspace(0.8, 1.2, 101)
    expect = np.asarray(G.eval(p)) + 0.3 * 0.1 * np.asarray(bump_psi((p - 1.0) / 0.1))
    assert np.allclose(np.asarray(Gt.eval(p)), expect, atol=0)
