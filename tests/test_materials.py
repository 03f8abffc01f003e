"""Constitutive-level tests: finite-difference oracles, frame indifference,
enthalpy laws, the dissipation identity and the stacked small-matrix
products against numpy's batched ``@``."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import xlogy

import thermovisc
from thermovisc.grid import StructuredGrid
from thermovisc.materials import (
    DomainError,
    THETA_TINY,
    MaterialModel,
    NonphysicalStateError,
    _matmul,
    det,
    inv,
    random_feasible_gradient,
    random_rotation,
    rate_of_cauchy_green,
    viscous_form,
)
from thermovisc.mech import SolverConfig
from thermovisc.presets import shear_pulse, steady
from thermovisc.scheme import run

MODEL = MaterialModel()


def fd_grad(f, X, h=1e-6):
    """Central finite differences of a scalar function of a matrix/tensor."""
    X = np.asarray(X, dtype=float)
    g = np.zeros_like(X)
    it = np.nditer(X, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        Xp = X.copy()
        Xm = X.copy()
        Xp[idx] += h
        Xm[idx] -= h
        g[idx] = (f(Xp) - f(Xm)) / (2.0 * h)
    return g


def fd_scalar(f, t, h=1e-6):
    return (f(t + h) - f(t - h)) / (2.0 * h)


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), floor)


# ---------------------------------------------------------------------------
# elastic part


def test_elastic_energy_identity_value():
    # c1|I|^4 + c2/det(I)^4 = 1*4 + 2 = 6 for the equality-threshold barrier
    m = MaterialModel(c1=1.0, c2=2.0, s=4.0, q=4.0)
    assert m.elastic_energy(np.eye(2)) == pytest.approx(6.0, abs=1e-14)
    # the default constants keep the identity stress free as well
    assert MODEL.elastic_energy(np.eye(2)) == pytest.approx(4.0 + MODEL.c2, abs=1e-14)


def test_elastic_energy_rotation_invariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        R = random_rotation(rng, 2)
        assert MODEL.elastic_energy(R) == pytest.approx(MODEL.elastic_energy(np.eye(2)), rel=1e-13)


def test_elastic_energy_barrier_diverges():
    vals = [MODEL.elastic_energy(np.diag([1.0, 1.0 / n])) for n in (2, 4, 8, 16, 32)]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] > 1e3


def test_elastic_energy_rejects_nonpositive_det():
    with pytest.raises(NonphysicalStateError):
        MODEL.elastic_energy(np.diag([1.0, -1.0]))


def test_elastic_stress_free_reference():
    # c2 * q = 2 * s * c1 makes the identity stress-free in 2D
    assert np.allclose(MODEL.elastic_stress(np.eye(2)), 0.0, atol=1e-13)
    m = MaterialModel(c1=1.0, c2=2.0, s=4.0, q=4.0)
    assert np.allclose(m.elastic_stress(np.eye(2)), 0.0, atol=1e-13)
    rng = np.random.default_rng(1)
    R = random_rotation(rng, 2)
    assert np.allclose(MODEL.elastic_stress(R), 0.0, atol=1e-12)


def test_elastic_stress_matches_fd():
    rng = np.random.default_rng(2)
    for _ in range(100):
        F = random_feasible_gradient(rng, 2)
        g = fd_grad(MODEL.elastic_energy, F)
        assert rel_err(MODEL.elastic_stress(F), g) < 1e-6


def test_elastic_hessian_matches_fd():
    rng = np.random.default_rng(3)
    for _ in range(30):
        F = random_feasible_gradient(rng, 2)
        H = MODEL.elastic_hessian(F)
        for i in range(2):
            for a in range(2):
                g = fd_grad(lambda X: MODEL.elastic_stress(X)[i, a], F)
                assert rel_err(H[i, a], g, floor=1e-6) < 1e-5


def test_elastic_static_frame_indifference_of_stress():
    rng = np.random.default_rng(4)
    for _ in range(50):
        F = random_feasible_gradient(rng, 2)
        R = random_rotation(rng, 2)
        lhs = MODEL.elastic_stress(R @ F)
        rhs = R @ MODEL.elastic_stress(F)
        assert rel_err(lhs, rhs, floor=1e-10) < 1e-12


# ---------------------------------------------------------------------------
# coupling part


def test_coupling_energy_vanishes_at_zero_temperature():
    rng = np.random.default_rng(5)
    for _ in range(20):
        F = random_feasible_gradient(rng, 2)
        assert MODEL.coupling_energy(F, 0.0) == 0.0


def test_coupling_energy_pure_heat_term():
    m = MaterialModel(phi1_amp=0.0)
    # reduces to c*theta*(1 - log theta); at theta=1 this is 1
    assert m.coupling_energy(np.eye(2), 1.0) == pytest.approx(1.0, abs=1e-14)


def test_coupling_energy_rejects_negative_theta():
    with pytest.raises(DomainError):
        MODEL.coupling_energy(np.eye(2), -0.1)


def test_coupling_stress_vanishes_at_zero_theta():
    rng = np.random.default_rng(6)
    for _ in range(20):
        F = random_feasible_gradient(rng, 2)
        assert np.all(MODEL.coupling_stress(F, 0.0) == 0.0)
    m0 = MaterialModel(phi1_amp=0.0)
    assert np.all(m0.coupling_stress(F, 1.7) == 0.0)


def test_coupling_stress_matches_fd():
    # near the support edge of the bump the F-gradient is orders of magnitude
    # smaller than the energy, where central differences hit roundoff; switch
    # to an absolute comparison there
    rng = np.random.default_rng(7)
    for _ in range(100):
        F = random_feasible_gradient(rng, 2, spread=0.4)
        th = rng.uniform(0.05, 3.0)
        g = fd_grad(lambda X: MODEL.coupling_energy(X, th), F)
        a = MODEL.coupling_stress(F, th)
        if np.max(np.abs(g)) > 1e-4:
            assert rel_err(a, g) < 1e-6
        else:
            assert np.max(np.abs(a - g)) < 1e-8


def test_coupling_hessian_matches_fd():
    rng = np.random.default_rng(8)
    for _ in range(20):
        F = random_feasible_gradient(rng, 2, spread=0.4)
        th = rng.uniform(0.05, 3.0)
        H = MODEL.coupling_hessian(F, th)
        for i in range(2):
            for a in range(2):
                g = fd_grad(lambda X: MODEL.coupling_stress(X, th)[i, a], F)
                assert rel_err(H[i, a], g, floor=1e-6) < 1e-5


def test_coupling_dtheta_matches_fd():
    rng = np.random.default_rng(9)
    for _ in range(100):
        F = random_feasible_gradient(rng, 2)
        th = rng.uniform(0.05, 3.0)
        g = fd_scalar(lambda t: MODEL.coupling_energy(F, t), th, h=1e-7)
        assert rel_err(MODEL.coupling_dtheta(F, th), g, floor=1e-6) < 1e-6


def test_coupling_rotation_invariant():
    rng = np.random.default_rng(10)
    for _ in range(50):
        F = random_feasible_gradient(rng, 2)
        R = random_rotation(rng, 2)
        th = rng.uniform(0.0, 2.0)
        assert MODEL.coupling_energy(R @ F, th) == pytest.approx(
            MODEL.coupling_energy(F, th), rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# enthalpy and the thermal potentials


def test_enthalpy_zero_at_zero_theta_exactly():
    rng = np.random.default_rng(11)
    for _ in range(20):
        F = random_feasible_gradient(rng, 2)
        assert MODEL.enthalpy(F, 0.0) == 0.0


def test_enthalpy_linear_without_coupling():
    m = MaterialModel(phi1_amp=0.0)
    assert m.enthalpy(np.eye(2), 2.0) == pytest.approx(2.0, abs=1e-14)


def test_enthalpy_consistent_with_legendre_form():
    # w = coupling_energy - theta * d(coupling_energy)/dtheta, both sides
    # evaluated independently
    rng = np.random.default_rng(12)
    for _ in range(100):
        F = random_feasible_gradient(rng, 2)
        th = rng.uniform(1e-3, 4.0)
        lhs = MODEL.enthalpy(F, th)
        rhs = MODEL.coupling_energy(F, th) - th * MODEL.coupling_dtheta(F, th)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_heat_capacity_limits_and_fd():
    rng = np.random.default_rng(14)
    F = random_feasible_gradient(rng, 2)
    assert MODEL.heat_capacity(F, 0.0) == pytest.approx(MODEL.c, abs=1e-14)
    m0 = MaterialModel(phi1_amp=0.0)
    assert m0.heat_capacity(F, 2.3) == pytest.approx(m0.c, abs=1e-14)
    for _ in range(100):
        F = random_feasible_gradient(rng, 2)
        th = rng.uniform(0.05, 3.0)
        g = fd_scalar(lambda t: MODEL.enthalpy(F, t), th)
        assert rel_err(MODEL.heat_capacity(F, th), g) < 1e-6


def test_enthalpy_two_sided_bounds():
    # slope bounds give eps_hat * theta <= w <= K * theta on a sampled set
    rng = np.random.default_rng(15)
    ratios = []
    for _ in range(400):
        F = random_feasible_gradient(rng, 2, spread=0.5)
        th = rng.uniform(1e-6, 10.0)
        ratios.append(MODEL.enthalpy(F, th) / th)
    eps_hat, K = min(ratios), max(ratios)
    assert 0.0 < eps_hat <= K < np.inf
    # Lipschitz-type two-sided estimate on pairs
    for _ in range(200):
        F = random_feasible_gradient(rng, 2, spread=0.5)
        t1, t2 = rng.uniform(0.0, 10.0, size=2)
        dw = abs(MODEL.enthalpy(F, t1) - MODEL.enthalpy(F, t2))
        assert dw >= 0.5 * eps_hat * abs(t1 - t2) - 1e-12
        assert dw <= 2.0 * K * abs(t1 - t2) + 1e-12


def test_thermal_potentials_zero_at_zero():
    assert MODEL.w_total_ext(MODEL.phi1(np.eye(2) * 1.1), 0.0) == 0.0


def test_thermal_potentials_derivative_relations():
    # the heat solve's potential W: dW/dtheta is the enthalpy, d^2W/dtheta^2
    # the heat capacity
    rng = np.random.default_rng(16)
    for _ in range(100):
        F = random_feasible_gradient(rng, 2, spread=0.4)
        th = rng.uniform(0.05, 3.0)
        phi1v = MODEL.phi1(F)
        dW = fd_scalar(lambda t: MODEL.w_total_ext(phi1v, t), th)
        assert rel_err(MODEL.enthalpy(F, th), dW) < 1e-6
        h = 1e-4
        Wp, W0, Wm = (MODEL.w_total_ext(phi1v, t) for t in (th + h, th, th - h))
        d2W = (Wp - 2 * W0 + Wm) / h**2
        assert rel_err(MODEL.heat_capacity(F, th), d2W) < 1e-5


def test_extended_thermal_family_is_c2_at_zero():
    phi1v = 0.7
    for t in (-1e-9, 0.0, 1e-9):
        assert MODEL.w_total_ext(phi1v, t) == pytest.approx(0.5 * MODEL.c * t**2, abs=1e-17)
        assert MODEL.enthalpy_ext(phi1v, t) == pytest.approx(MODEL.c * t, abs=1e-16)
        assert MODEL.heat_capacity_ext(phi1v, t) == pytest.approx(MODEL.c, rel=1e-8)
    m, m1, m2 = MODEL.coupling_factor_ext(np.array([-1e-9, 0.0, 1e-9]))
    assert np.allclose(m, 0.0, atol=1e-17)
    assert np.allclose(m1, [-1e-9 * MODEL.alpha, 0.0, 1e-9 * MODEL.alpha], atol=1e-16)
    assert np.allclose(m2, MODEL.alpha, atol=1e-8)


# ---------------------------------------------------------------------------
# hyperstress


def test_hyperstress_zero_and_unit():
    G0 = np.zeros((2, 2, 2))
    assert MODEL.hyperstress_energy(G0) == 0.0
    assert np.all(MODEL.hyperstress(G0) == 0.0)
    m = MaterialModel(h_coef=1.0)
    G = np.zeros((2, 2, 2))
    G[0, 0, 0] = 1.0
    assert m.hyperstress_energy(G) == pytest.approx(1.0, abs=1e-14)


def test_hyperstress_matches_fd():
    rng = np.random.default_rng(17)
    for _ in range(100):
        G = rng.standard_normal((2, 2, 2))
        g = fd_grad(MODEL.hyperstress_energy, G)
        assert rel_err(MODEL.hyperstress(G), g, floor=1e-8) < 1e-6


def test_hyperstress_monotone():
    rng = np.random.default_rng(18)
    for _ in range(100):
        G1 = rng.standard_normal((2, 2, 2))
        G2 = rng.standard_normal((2, 2, 2))
        gap = np.sum((MODEL.hyperstress(G1) - MODEL.hyperstress(G2)) * (G1 - G2))
        assert gap >= -1e-12


def test_hyperstress_hessian_parts_match_fd():
    rng = np.random.default_rng(19)
    for _ in range(20):
        G = rng.standard_normal((2, 2, 2))
        scal, R = MODEL.hyperstress_hessian_parts(G)
        H = rng.standard_normal((2, 2, 2))
        lhs = scal * H + np.sum(R * H) * R
        rhs = fd_grad(lambda X: np.sum(MODEL.hyperstress(X) * H), G)
        assert rel_err(lhs, rhs, floor=1e-8) < 1e-5


def test_hyperstress_frame_indifference():
    rng = np.random.default_rng(20)
    for _ in range(30):
        G = rng.standard_normal((2, 2, 2))
        R = random_rotation(rng, 2)
        RG = np.einsum("ij,jab->iab", R, G)
        assert MODEL.hyperstress_energy(RG) == pytest.approx(
            MODEL.hyperstress_energy(G), rel=1e-12)
        assert rel_err(MODEL.hyperstress(RG),
                       np.einsum("ij,jab->iab", R, MODEL.hyperstress(G)), floor=1e-10) < 1e-12


# ---------------------------------------------------------------------------
# viscosity and dissipation


def test_viscous_potential_values_and_scaling():
    C = np.eye(2)
    assert MODEL.viscous_potential(C, np.zeros((2, 2)), 1.0) == 0.0
    assert MODEL.viscous_potential(C, np.diag([2.0, 0.0]), 1.0) == pytest.approx(2.0)
    rng = np.random.default_rng(21)
    for _ in range(50):
        Cd = rng.standard_normal((2, 2))
        Cd = Cd + Cd.T
        lam = rng.uniform(0.1, 3.0)
        assert MODEL.viscous_potential(C, lam * Cd, 0.5) == pytest.approx(
            lam**2 * MODEL.viscous_potential(C, Cd, 0.5), rel=1e-13)
    with pytest.raises(ValueError):
        MODEL.viscous_potential(C, np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_viscous_stress_reference_example():
    # F=I, Fdot=diag(1,0): Cdot=diag(2,0), stress=2*I*nu*diag(2,0)
    sv = MODEL.viscous_stress(np.eye(2), np.diag([1.0, 0.0]), 1.0)
    assert np.allclose(sv, np.diag([4.0, 0.0]), atol=1e-14)


def test_viscous_stress_zero_for_rigid_rotation_rate():
    W = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(MODEL.viscous_stress(np.eye(2), W, 0.3), 0.0, atol=1e-14)
    rng = np.random.default_rng(22)
    for _ in range(30):
        F = random_feasible_gradient(rng, 2)
        w = rng.standard_normal()
        Wk = np.array([[0.0, -w], [w, 0.0]])
        # Fdot = Wk @ F is a rigid rotation rate superposed on F
        assert np.allclose(MODEL.viscous_stress(F, Wk @ F, 0.3), 0.0, atol=1e-12)


def test_viscous_dynamic_frame_indifference():
    rng = np.random.default_rng(23)
    for _ in range(50):
        F = random_feasible_gradient(rng, 2)
        Fd = rng.standard_normal((2, 2))
        R = random_rotation(rng, 2)
        w = rng.standard_normal()
        Rdot = R @ np.array([[0.0, -w], [w, 0.0]])
        lhs = MODEL.viscous_stress(R @ F, Rdot @ F + R @ Fd, 0.7)
        rhs = R @ MODEL.viscous_stress(F, Fd, 0.7)
        assert rel_err(lhs, rhs, floor=1e-10) < 1e-12


def test_dissipation_identity_three_ways():
    rng = np.random.default_rng(24)
    for _ in range(100):
        F = random_feasible_gradient(rng, 2)
        Fd = rng.standard_normal((2, 2))
        th = rng.uniform(0.0, 2.0)
        xi = MODEL.dissipation_rate(F, Fd, th)
        via_stress = np.sum(MODEL.viscous_stress(F, Fd, th) * Fd)
        Cd = rate_of_cauchy_green(F, Fd)
        via_pot = 2.0 * MODEL.viscous_potential(F.T @ F, Cd, th)
        assert rel_err(xi, via_stress, floor=1e-10) < 1e-12
        assert rel_err(xi, via_pot, floor=1e-10) < 1e-12
        assert xi >= 0.0


def test_regularized_rate_caps():
    F = np.eye(2)
    Fd = np.diag([1.0, 0.0])
    xi = MODEL.dissipation_rate(F, Fd, 1.0)
    assert xi == pytest.approx(4.0)
    assert MODEL.regularized_rate(F, Fd, 1.0, 0.5) == pytest.approx(4.0 / 3.0)
    assert MODEL.regularized_rate(F, Fd, 1.0, 0.0) == pytest.approx(xi)
    rng = np.random.default_rng(25)
    for _ in range(50):
        Fr = random_feasible_gradient(rng, 2)
        Fd = rng.standard_normal((2, 2)) * 3
        eps = rng.uniform(1e-3, 1.0)
        xir = MODEL.regularized_rate(Fr, Fd, 0.1, eps)
        xif = MODEL.dissipation_rate(Fr, Fd, 0.1)
        assert 0.0 <= xir <= min(xif, 1.0 / eps) + 1e-12


# ---------------------------------------------------------------------------
# pulled-back conductivity


def test_pullback_identity():
    K = MODEL.pullback_conductivity(np.eye(2), 0.7)
    assert np.allclose(K, MODEL.k_bar * np.eye(2), atol=1e-14)


def test_pullback_conformal_2d():
    # in 2D an isotropic K is invariant under F = lambda*I
    for lam in (0.5, 2.0, 3.7):
        K = MODEL.pullback_conductivity(lam * np.eye(2), 0.2)
        assert np.allclose(K, MODEL.k_bar * np.eye(2), atol=1e-12)


def test_pullback_dilation_3d():
    m = MaterialModel(d=3, q=12.0)  # q >= p*d/(p-d) = 12 in 3D
    K = m.pullback_conductivity(2.0 * np.eye(3), 0.2)
    assert np.allclose(K, 2.0 * m.k_bar * np.eye(3), atol=1e-12)


def test_pullback_spd_on_feasible_set():
    rng = np.random.default_rng(26)
    for _ in range(100):
        F = random_feasible_gradient(rng, 2, spread=0.5)
        K = MODEL.pullback_conductivity(F, rng.uniform(0.0, 2.0))
        ev = np.linalg.eigvalsh(0.5 * (K + K.T))
        assert ev.min() > 0.0
    with pytest.raises(NonphysicalStateError):
        MODEL.pullback_conductivity(np.diag([1.0, 0.0]), 0.5)


# ---------------------------------------------------------------------------
# parameter validation


def test_constant_validation():
    with pytest.raises(ValueError, match="q >= pd"):
        MaterialModel(q=3.0)
    with pytest.raises(ValueError, match="p > d"):
        MaterialModel(d=3, p=2.5, q=40.0)
    with pytest.raises(ValueError, match="nu > 0"):
        MaterialModel(nu=0.0)
    m = MODEL.isothermal()
    assert m.phi1_amp == 0.0 and m.nu == MODEL.nu


@pytest.mark.parametrize("d", [2, 3])
def test_closed_form_det_and_inverse_match_linalg(d):
    rng = np.random.default_rng(70 + d)
    F = np.array([random_feasible_gradient(rng, d, spread=0.5, det_floor=0.05)
                  for _ in range(200)]).reshape(10, 20, d, d)
    ref_det = np.linalg.det(F)
    assert np.max(np.abs(det(F) - ref_det) / np.abs(ref_det)) < 1e-13
    ref_inv = np.linalg.inv(F)
    rel = (np.max(np.abs(inv(F) - ref_inv), axis=(-2, -1))
           / np.max(np.abs(ref_inv), axis=(-2, -1)))
    assert np.max(rel) < 1e-13
    assert det(F[0, 0]) == pytest.approx(float(ref_det[0, 0]), rel=1e-13)   # single matrix
    assert np.array_equal(det(np.eye(d)), 1.0) and np.array_equal(inv(np.eye(d)), np.eye(d))


# ---------------------------------------------------------------------------
# stacked small-matrix products


def perturbed_gradients(rng, d, cells=8, nq=16, spread=0.3, noise=0.05):
    """A quadrature stack: one feasible gradient per cell, perturbed per point."""
    F = np.stack([random_feasible_gradient(rng, d, spread) for _ in range(cells)])
    F = F[:, None] + noise * rng.standard_normal((cells, nq, d, d))
    assert np.linalg.det(F).min() > 0.0
    return F


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_product_matches_matmul(d):
    rng = np.random.default_rng(80 + d)
    A, B = rng.standard_normal((2, 12, 9, d, d))
    M = rng.standard_normal((d, d))
    At, Bt = np.swapaxes(A, -1, -2), np.swapaxes(B, -1, -2)   # non-contiguous views
    v = rng.standard_normal((12, 9, d))
    for X, Y in ((A, B), (At, B), (A, Bt), (At, Bt), (M, B), (At, M), (M, M),
                 (v[..., None, :], A), (A, v[..., None])):
        got, ref = _matmul(X, Y), np.matmul(X, Y)
        assert got.shape == ref.shape
        # rounding of a length-d dot product is relative to sum_k |x_ik| |y_kj|
        assert np.all(np.abs(got - ref) <= 1e-15 * (np.abs(X) @ np.abs(Y)))


def reference_kernels(m, F, Fd, theta):
    """The rewritten kernels as numpy's batched @ and einsum form them."""
    eye = np.eye(m.d)
    Ft = np.swapaxes(F, -1, -2)
    E = Ft @ F - eye
    r2 = m.phi1_radius**2
    _, b1, b2 = m._bump(np.sum(E * E, axis=(-2, -1)) / r2)
    FE, FFt = F @ E, F @ Ft
    FxF = np.einsum("...ib,...ja->...iajb", F, F)
    eFFt = np.einsum("ab,...ij->...iajb", eye, FFt)
    inner = np.einsum("ij,...ab->...iajb", eye, E) + FxF + eFFt
    outer = np.einsum("...ia,...jb->...iajb", FE, FE)
    Cdot = np.swapaxes(Fd, -1, -2) @ F + Ft @ Fd
    Fi = inv(F)
    return {
        "rate_of_cauchy_green": Cdot,
        "viscous_form": 2.0 * (eFFt + FxF),
        "_strain_dev": E,
        "phi1_grad": m.phi1_amp * b1[..., None, None] * (4.0 / r2) * FE,
        "phi1_hess": m.phi1_amp * (b2[..., None, None, None, None] * (4.0 / r2) ** 2 * outer
                                   + b1[..., None, None, None, None] * (4.0 / r2) * inner),
        "viscous_stress": 2.0 * m.nu * (F @ Cdot),
        "pullback_conductivity": det(F)[..., None, None] * (
            Fi @ m.conductivity(theta) @ np.swapaxes(Fi, -1, -2)),
    }


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_kernels_match_batched_matmul(d):
    # stress-free identity in 3D needs c2 * q = 12
    m = MODEL if d == 2 else MaterialModel(d=3, q=13.0, c2=12.0 / 13.0)
    rng = np.random.default_rng(90 + d)
    F = perturbed_gradients(rng, d)
    Fd = rng.standard_normal(F.shape)
    theta = rng.uniform(0.0, 2.0, F.shape[:-2])
    got = {
        "rate_of_cauchy_green": rate_of_cauchy_green(F, Fd),
        "viscous_form": viscous_form(F),
        "_strain_dev": m._strain_dev(F),
        "phi1_grad": m.phi1_grad(F),
        "phi1_hess": m.phi1_hess(F),
        "viscous_stress": m.viscous_stress(F, Fd, theta),
        "pullback_conductivity": m.pullback_conductivity(F, theta),
    }
    for name, ref in reference_kernels(m, F, Fd, theta).items():
        assert np.max(np.abs(ref)) > 0.0, name
        assert rel_err(got[name], ref) <= 1e-14, name
    # both products of the rate are formed by one, so the rate is exactly symmetric
    assert np.array_equal(got["rate_of_cauchy_green"],
                          np.swapaxes(got["rate_of_cauchy_green"], -1, -2))


@pytest.mark.parametrize("build", [shear_pulse, steady], ids=["shear2d", "steady2d"])
def test_coupling_energy_matches_xlogy_on_the_benchmark_states(build):
    # theta log theta by np.log is not bit-equal to scipy.special.xlogy
    grid = StructuredGrid((16, 16), (1.0, 1.0), dirichlet_faces=("y0",))
    kwargs = {"amplitude": 0.15, "t_pulse": 0.5} if build is shear_pulse else {}
    traj = run(build(grid=grid, T=0.1, **kwargs), tau=0.02, eps=0.01,
               config=SolverConfig(korn_every=0, hk_every=0))
    for snap in traj.snapshots:
        theta = np.maximum(snap.theta_qp, 0.0)
        ref = ((1.0 - MODEL.a(theta)) * MODEL.phi1(snap.F)
               + MODEL.c * np.where(theta > THETA_TINY, theta - xlogy(theta, theta), 0.0))
        got = MODEL.coupling_energy(snap.F, theta)
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))


def test_import_leaves_scipy_special_out():
    code = "import sys\nimport thermovisc\nprint('scipy.special' in sys.modules)\n"
    src = os.path.dirname(os.path.dirname(thermovisc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
