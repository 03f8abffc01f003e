"""Mechanical-step tests: stationarity of the stress-free state, gradient
consistency of the incremental functional, descent and determinant
safeguards, and the semiconvexity-gap identity."""

import numpy as np
import pytest

from thermovisc.grid import NodalField, StructuredGrid, apply_dirichlet_identity
from thermovisc.materials import MaterialModel
from thermovisc.mech import (
    MechIncrement,
    MechResult,
    SolverConfig,
    StepRejectedError,
    incremental_functional,
    incremental_gradient,
    main_mechanical_energy,
    semiconvexity_gap,
    solve_mech,
)

MODEL = MaterialModel()


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
    assert res.min_detF > 0.0


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
    assert res.min_detF > 0.0
    # descent certificate restated through the functional
    J_prev, _ = incremental_functional(inc, inc.y_prev)
    assert res.functional_value <= J_prev


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
        assert res.min_detF > 0.0
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
