"""Mechanical-step tests: stationarity of the stress-free state, gradient
consistency of the incremental functional, descent and determinant
safeguards, and the semiconvexity-gap identity."""

import numpy as np
import pytest

from thermovisc.grid import NodalField, StructuredGrid
from thermovisc.materials import MaterialModel
from thermovisc.mech import (
    MechIncrement,
    MechResult,
    SolverConfig,
    StepRejectedError,
    incremental_functional,
    incremental_gradient,
    incremental_hessian,
    main_mechanical_energy,
    semiconvexity_gap,
    solve_mech,
)

from thermovisc.presets import shear_pulse
from thermovisc.scheme import run, step_load_vector

from helpers import apply_dirichlet_identity, random_rotation

MODEL = MaterialModel()
MODEL3 = MaterialModel(d=3, q=13.0, c2=12.0 / 13.0)   # c2 q = 12: stress-free identity in 3D


def make_inc(grid, model=MODEL, tau=0.05, eps=0.01, theta=1.0, load=None,
             y_prev=None, include_coupling=True):
    y_prev = y_prev or grid.identity_field()
    theta_qp = theta * np.ones((grid.n_cells, grid.nq))
    if load is None:
        load = np.zeros((grid.n_sdofs, grid.d))
    return MechIncrement(grid=grid, model=model, y_prev=y_prev,
                         theta_prev_qp=theta_qp, tau=tau, eps=eps, load_vector=load,
                         F_prev=grid.eval_kinematics(y_prev).F,
                         include_coupling=include_coupling)


def feasible_perturbation(grid, rng, scale=0.01):
    y = grid.identity_field()
    dv = rng.standard_normal(y.values.shape) * scale
    y.values += dv
    apply_dirichlet_identity(grid, y)
    return y


def test_functional_at_y_prev_is_free_energy_minus_load():
    g = StructuredGrid((3, 3), (1.0, 1.0))
    rng = np.random.default_rng(0)
    load = 0.1 * rng.standard_normal((g.n_sdofs, 2))
    inc = make_inc(g, load=load)
    J, kin = incremental_functional(inc, inc.y_prev)
    m = MODEL
    dens = (m.elastic_energy(kin.F) + m.hyperstress_energy(kin.G)
            + m.coupling_energy(kin.F, inc.theta_prev_qp))
    expect = g.assemble_scalar(dens) - float(np.sum(load * inc.y_prev.values))
    assert J == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("tau, eps, message", [
    (0.0, 0.01, "tau must be positive"), (np.nan, 0.01, "tau must be positive"),
    (0.05, -1.0, "eps must be nonnegative"), (0.05, np.nan, "eps must be nonnegative")],
    ids=["tau-zero", "tau-nan", "eps-negative", "eps-nan"])
def test_increment_refuses_bad_step_constants(tau, eps, message):
    with pytest.raises(ValueError, match=message):
        make_inc(StructuredGrid((2, 2), (1.0, 1.0)), tau=tau, eps=eps)


def test_functional_infeasible_is_inf():
    g = StructuredGrid((2, 2), (1.0, 1.0))
    inc = make_inc(g)
    y = g.identity_field()
    y.values[:, 0] *= -1.0  # reflection: det < 0 everywhere
    J, _ = incremental_functional(inc, y)
    assert J == np.inf


def test_identity_beats_random_feasible_perturbations():
    # load-free default model: identity is the stress-free minimizer
    g = StructuredGrid((3, 3), (1.0, 1.0))
    rng = np.random.default_rng(1)
    inc = make_inc(g)
    J0, _ = incremental_functional(inc, inc.y_prev)
    for _ in range(20):
        y = feasible_perturbation(g, rng, scale=0.02)
        J, _ = incremental_functional(inc, y)
        assert J >= J0 - 1e-12


def test_incremental_gradient_matches_fd():
    g = StructuredGrid((3, 3), (1.0, 1.0))
    rng = np.random.default_rng(2)
    load = 0.05 * rng.standard_normal((g.n_sdofs, 2))
    inc = make_inc(g, load=load)
    y = feasible_perturbation(g, rng, scale=0.02)
    r, _ = incremental_gradient(inc, y)
    h = 1e-6
    for _ in range(30):
        dv = rng.standard_normal(y.values.shape)
        dv[g.dirichlet_sdofs] = 0.0
        dv /= np.linalg.norm(dv)
        Jp, _ = incremental_functional(inc, NodalField(g, y.values + h * dv))
        Jm, _ = incremental_functional(inc, NodalField(g, y.values - h * dv))
        fd = (Jp - Jm) / (2 * h)
        assert abs(np.sum(r * dv) - fd) < 1e-5 * max(1.0, abs(fd))


def test_solve_steady_keeps_identity():
    g = StructuredGrid((4, 4), (1.0, 1.0))
    inc = make_inc(g)
    res = solve_mech(inc)
    assert res.iterations == 0
    assert np.allclose(res.y_new.values, g.identity_field().values, atol=1e-10)
    assert res.descent_gap == 0.0
    assert res.kinematics.min_detF > 0.0


def test_solve_small_dead_load_descends():
    g = StructuredGrid((4, 4), (1.0, 1.0))
    gvec = np.zeros((g.n_cells, g.nq, 2))
    gvec[..., 1] = -0.05
    load = g.assemble_gradient(2, source=gvec)
    inc = make_inc(g, load=load)
    res = solve_mech(inc)
    assert res.iterations >= 1
    assert res.descent_gap > 0.0
    assert res.residual_norm <= max(1e-8 * 1.0, 1e-13) or res.residual_norm < 1e-8
    assert res.kinematics.min_detF > 0.0
    # descent certificate restated through the functional
    J_prev, _ = incremental_functional(inc, inc.y_prev)
    J_new, _ = incremental_functional(inc, res.y_new)
    assert J_new <= J_prev
    assert res.descent_gap == J_prev - J_new


def test_solver_never_returns_nonpositive_det():
    # adversarial: strong compressive load from a thin-det start
    g = StructuredGrid((3, 3), (1.0, 1.0))
    y0 = g.identity_field()
    y0.values[:, 1] *= 0.2   # squashed but feasible start
    apply_dirichlet_identity(g, y0)
    kin0 = g.eval_kinematics(NodalField(g, y0.values))
    assert kin0.detF.min() > 0.0
    gvec = np.zeros((g.n_cells, g.nq, 2))
    gvec[..., 1] = -0.5
    load = g.assemble_gradient(2, source=gvec)
    inc = make_inc(g, y_prev=NodalField(g, y0.values), load=load, tau=0.1)
    try:
        res = solve_mech(inc, SolverConfig(max_newton=30))
        assert res.kinematics.min_detF > 0.0
    except StepRejectedError:
        pass  # rejection is an allowed outcome; det <= 0 is not


def test_semiconvexity_gap_exact_identity():
    # the gap definition must reproduce DM[dy] - dM exactly
    g = StructuredGrid((3, 3), (1.0, 1.0))
    rng = np.random.default_rng(5)
    y1 = feasible_perturbation(g, rng, scale=0.02)
    y2 = feasible_perturbation(g, rng, scale=0.02)
    kin1, kin2 = g.eval_kinematics(y1), g.eval_kinematics(y2)
    M1, _ = main_mechanical_energy(g, MODEL, kin1)
    M2, _ = main_mechanical_energy(g, MODEL, kin2)
    gap = semiconvexity_gap(g, MODEL, y2, y1, kin2, M2, M1)
    # DM(y2) assembled here from the stress and hyperstress, M from the densities
    DM = g.assemble_gradient(2, stress=MODEL.elastic_stress(kin2.F),
                             hyperstress=MODEL.hyperstress(kin2.G))

    def M(kin):
        return g.assemble_scalar(MODEL.elastic_energy(kin.F) + MODEL.hyperstress_energy(kin.G))

    expect = float(np.sum(DM * (y2.values - y1.values))) - (M(kin2) - M(kin1))
    assert gap == pytest.approx(expect, rel=1e-12, abs=0.0)
    assert isinstance(M1, float) and isinstance(M2, float)


def test_result_dataclass_contract():
    g = StructuredGrid((3, 3), (1.0, 1.0))
    inc = make_inc(g)
    res = solve_mech(inc)
    assert isinstance(res, MechResult)
    assert res.descent_gap >= 0.0
    assert res.residual_vector.shape == (g.n_sdofs, 2)


class DoubledViscosity(MaterialModel):
    """A viscosity law behind the three methods the solver calls: twice the
    default potential, as a tensor modulus 2 nu I would give."""

    def dissipation_rate(self, F, Fdot, theta):
        return 2.0 * super().dissipation_rate(F, Fdot, theta)

    def viscous_stress(self, F, Fdot, theta):
        return 2.0 * super().viscous_stress(F, Fdot, theta)

    def viscous_hessian(self, F):
        return 2.0 * super().viscous_hessian(F)


def test_viscosity_override_reaches_the_step_functional():
    # the step functional takes its viscous term from the model, so it stays
    # the potential of the assembled gradient and matches nu = 2
    g = StructuredGrid((4, 4), (1.0, 1.0))
    rng = np.random.default_rng(7)
    load = 0.05 * rng.standard_normal((g.n_sdofs, 2))
    inc = make_inc(g, model=DoubledViscosity(), load=load)
    y = feasible_perturbation(g, rng, scale=0.02)
    r, _ = incremental_gradient(inc, y)
    h = 1e-6
    for _ in range(10):
        dv = rng.standard_normal(y.values.shape)
        dv[g.dirichlet_sdofs] = 0.0
        dv /= np.linalg.norm(dv)
        Jp, _ = incremental_functional(inc, NodalField(g, y.values + h * dv))
        Jm, _ = incremental_functional(inc, NodalField(g, y.values - h * dv))
        fd = (Jp - Jm) / (2 * h)
        assert abs(np.sum(r * dv) - fd) < 1e-6 * max(1.0, abs(fd))
    J, _ = incremental_functional(inc, y)
    J_nu2, _ = incremental_functional(make_inc(g, model=MaterialModel(nu=2.0), load=load), y)
    assert J == pytest.approx(J_nu2, rel=1e-14)


# ---------------------------------------------------------------------------
# frame indifference of the discrete step


def rotated_increment(d, Q=None, load_scale=0.05, eps=0.01):
    """A deformed increment in d dimensions, and with Q also the same
    increment with y_prev, y and the load rotated by Q: (inc, y)."""
    g = StructuredGrid((4, 4) if d == 2 else (2, 2, 2), (1.0,) * d)
    rng = np.random.default_rng(30 + d)
    y_prev = feasible_perturbation(g, rng, scale=0.02)
    y = feasible_perturbation(g, rng, scale=0.02)
    load = load_scale * rng.standard_normal((g.n_sdofs, d))
    if Q is not None:
        y_prev, y = NodalField(g, y_prev.values @ Q.T), NodalField(g, y.values @ Q.T)
        load = load @ Q.T
    model = MODEL if d == 2 else MODEL3
    return make_inc(g, model=model, y_prev=y_prev, load=load, eps=eps), y


@pytest.mark.parametrize("d", [2, 3])
def test_step_is_invariant_under_a_fixed_rotation(d):
    Q = random_rotation(np.random.default_rng(40 + d), d)
    inc, y = rotated_increment(d)
    inc_q, y_q = rotated_increment(d, Q)
    J, kin = incremental_functional(inc, y)
    J_q, kin_q = incremental_functional(inc_q, y_q)
    assert J_q == pytest.approx(J, rel=1e-13)
    r, _ = incremental_gradient(inc, y)
    r_q, _ = incremental_gradient(inc_q, y_q)
    assert np.max(np.abs(r_q - r @ Q.T)) <= 1e-12 * np.max(np.abs(r))
    # dofs are numbered with the component fastest: the rotation acts as kron(I, Q)
    P = np.kron(np.eye(inc.grid.n_sdofs), Q)
    H = incremental_hessian(inc, kin).toarray()
    H_q = incremental_hessian(inc_q, kin_q).toarray()
    assert np.max(np.abs(H_q - P @ H @ P.T)) <= 1e-12 * np.max(np.abs(H))


@pytest.mark.parametrize("d", [2, 3])
def test_rigid_increment_defect_is_fourth_order_in_the_angle(d):
    # y = Q_phi y_prev changes only the viscous term, through the C-rate
    # linearized at y_prev: nu |F^T (Q + Q^T - 2I) F|^2 / (2 tau) = O(phi^4)
    inc, _ = rotated_increment(d, load_scale=0.0, eps=0.0)
    J0, _ = incremental_functional(inc, inc.y_prev)
    defects = []
    for phi in (0.1, 0.01, 0.001):
        Q = np.eye(d)
        Q[:2, :2] = [[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]]
        J, _ = incremental_functional(inc, NodalField(inc.grid, inc.y_prev.values @ Q.T))
        defects.append(J - J0)
    assert min(defects) > 0.0
    slopes = np.diff(np.log10(defects)) / np.diff(np.log10([0.1, 0.01, 0.001]))
    assert np.all(np.abs(slopes - 4.0) < 0.05), slopes


@pytest.mark.parametrize("d", [2, 3])
def test_solve_mech_commutes_with_a_fixed_rotation(d):
    # the second step of a shear pulse, solved as it is and with y_prev,
    # F_prev and the load rotated by Q: the solve returns the rotated state
    if d == 2:
        grid, model = StructuredGrid((6, 6), (1.0, 1.0), dirichlet_faces=("y0",)), MODEL
    else:
        grid, model = StructuredGrid((3, 3, 3), (1.0,) * 3, dirichlet_faces=("x0",)), MODEL3
    tau = 0.05
    sc = shear_pulse(grid=grid, model=model, T=tau, amplitude=0.15, t_pulse=0.5)
    snap = run(sc, tau=tau, eps=0.01, config=SolverConfig(korn_every=0, hk_every=0)).snapshots[1]
    load = step_load_vector(sc, tau, 2 * tau)
    Q = random_rotation(np.random.default_rng(50 + d), d)

    def solve(y_prev, F_prev, load):
        return solve_mech(MechIncrement(grid=grid, model=model, y_prev=y_prev,
                                        theta_prev_qp=snap.theta_qp, tau=tau, eps=0.01,
                                        load_vector=load, F_prev=F_prev))

    res = solve(snap.y, snap.F, load)
    res_q = solve(NodalField(grid, snap.y.values @ Q.T), np.einsum("ij,...jk->...ik", Q, snap.F),
                  load @ Q.T)
    y_new = res.y_new.values
    assert res.iterations > 0 and res_q.iterations == res.iterations
    assert np.max(np.abs(res_q.y_new.values - y_new @ Q.T)) <= 1e-10 * np.max(np.abs(y_new))
