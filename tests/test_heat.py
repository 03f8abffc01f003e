"""Thermal-step tests: constant-solution stationarity, gradient
consistency, the scalar-reduction oracle for uniform data, the discrete
enthalpy balance under pure heating, and positivity."""

import numpy as np
from scipy.sparse.linalg import splu

import thermovisc.heat as heat
from thermovisc.diagnostics import run_certificates
from thermovisc.grid import NodalField, StructuredGrid
from thermovisc.heat import (
    HeatIncrement,
    heat_functional,
    heat_gradient,
    heat_hessian,
    heat_state,
    robin_flux,
    solve_heat,
)
from thermovisc.materials import MaterialModel
from thermovisc.mech import SolverConfig
from thermovisc.newton import ATOL_RESIDUAL
from thermovisc.scheme import Scenario, run

from helpers import reference_gram

MODEL = MaterialModel()


def dual_norm_all(grid, r):
    """(H^1)* norm over all scalar dofs, from an LU of the assembled Gram."""
    return float(np.sqrt(abs(r @ splu(reference_gram(grid, 1, free_only=False)).solve(r))))


def assert_reported_residual_consistent(res):
    g = res.theta_new.grid
    assert np.isclose(res.residual_norm, dual_norm_all(g, res.residual_vector),
                      rtol=1e-12, atol=0.0)


def make_inc(grid, model=MODEL, tau=0.05, eps=0.01, theta_prev=1.0, theta_b=None,
             y_prev=None, y_new=None, source=None):
    y_prev = y_prev or grid.identity_field()
    y_new = y_new or y_prev
    th_prev = grid.constant_field(theta_prev) if np.isscalar(theta_prev) else theta_prev
    F_prev = grid.eval_kinematics(y_prev).F
    th_qp, _ = grid.eval_scalar(th_prev)
    w_prev = model.enthalpy(F_prev, np.maximum(th_qp, 0.0))
    tb = theta_b if theta_b is not None else (theta_prev if np.isscalar(theta_prev) else 1.0)
    inc = HeatIncrement(grid=grid, model=model, theta_prev=th_prev, w_prev_qp=w_prev,
                        tau=tau, eps=eps, theta_b=tb, F_prev=F_prev,
                        F_new=grid.eval_kinematics(y_new).F)
    if source is not None:   # a given heat source in place of the capped dissipation
        inc.xi_qp = inc.xi_reg_qp = np.asarray(source, dtype=float)
    return inc


def test_steady_uniform_state_is_fixed_point():
    g = StructuredGrid((4, 4), (1.0, 1.0))
    inc = make_inc(g, theta_prev=1.3, theta_b=1.3)
    res = solve_heat(inc)
    assert res.iterations == 0
    assert np.allclose(res.theta_new.values, g.constant_field(1.3).values, atol=1e-10)
    assert res.min_theta >= 1.3 - 1e-10


def test_constant_boundary_datum_is_unique_minimizer():
    # zero sources, frozen deformation: theta == theta_b solves the step
    g = StructuredGrid((3, 3), (1.0, 1.0))
    inc = make_inc(g, theta_prev=0.8, theta_b=0.8)
    rng = np.random.default_rng(0)
    J0 = heat_functional(inc, g.constant_field(0.8))
    for _ in range(15):
        th = NodalField(g, g.constant_field(0.8).values + 0.05 * rng.standard_normal(g.n_sdofs))
        assert heat_functional(inc, th) >= J0 - 1e-12


def test_heat_gradient_matches_fd():
    g = StructuredGrid((3, 3), (1.0, 1.0))
    rng = np.random.default_rng(1)
    # moving deformation so dissipation and coupling are active
    y_new = g.identity_field()
    y_new.values += 0.01 * rng.standard_normal(y_new.values.shape)
    inc = make_inc(g, y_new=NodalField(g, y_new.values), theta_prev=1.0, theta_b=0.7)
    th = NodalField(g, g.constant_field(1.0).values + 0.1 * rng.standard_normal(g.n_sdofs))
    r = heat_gradient(inc, th)
    h = 1e-6
    for _ in range(30):
        dv = rng.standard_normal(g.n_sdofs)
        dv /= np.linalg.norm(dv)
        fp = heat_functional(inc, NodalField(g, th.values + h * dv))
        fm = heat_functional(inc, NodalField(g, th.values - h * dv))
        fd = (fp - fm) / (2 * h)
        assert abs(np.dot(r, dv) - fd) < 1e-5 * max(1.0, abs(fd))


def test_one_pointwise_state_per_newton_iterate(monkeypatch):
    # the functional, gradient and Hessian give the same bits from a passed
    # state as from their own, and solve_heat evaluates theta at the
    # quadrature points once per functional call
    g = StructuredGrid((3, 3), (1.0, 1.0))
    rng = np.random.default_rng(4)
    y_new = g.identity_field()
    y_new.values += 0.01 * rng.standard_normal(y_new.values.shape)
    inc = make_inc(g, y_new=NodalField(g, y_new.values), theta_prev=1.0, theta_b=0.2)
    th = NodalField(g, g.constant_field(0.1).values + 0.2 * rng.standard_normal(g.n_sdofs))
    state = heat_state(inc, th)
    assert state[0].min() < 0.0 < state[0].max()   # both branches of the laws
    assert heat_functional(inc, th, state) == heat_functional(inc, th)
    assert np.array_equal(heat_gradient(inc, th, state), heat_gradient(inc, th))
    assert np.array_equal(heat_hessian(inc, th, state).toarray(),
                          heat_hessian(inc, th).toarray())

    calls = {"eval_values": 0, "heat_functional": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(StructuredGrid, "eval_values",
                        counted("eval_values", StructuredGrid.eval_values))
    monkeypatch.setattr(heat, "heat_functional", counted("heat_functional", heat_functional))
    res = solve_heat(inc)
    assert res.iterations > 0
    assert calls["eval_values"] == calls["heat_functional"] > res.iterations


def test_uniform_scalar_reduction_oracle():
    # uniform source h with theta_b matched to the uniform solution:
    # the minimizer solves (w(theta) - w_prev)/tau = h, a scalar equation
    g = StructuredGrid((4, 4), (1.0, 1.0))
    tau, hsrc, th_prev = 0.05, 2.0, 1.0
    w_prev = float(MODEL.enthalpy(np.eye(2), th_prev))
    from scipy.optimize import brentq
    th_star = brentq(lambda t: (float(MODEL.enthalpy(np.eye(2), t)) - w_prev) / tau - hsrc,
                     0.0, 10.0, xtol=1e-15)
    src = np.full((g.n_cells, g.nq), hsrc)
    inc = make_inc(g, tau=tau, theta_prev=th_prev, theta_b=th_star, source=src)
    res = solve_heat(inc)
    assert np.max(np.abs(res.theta_new_qp - th_star)) < 1e-9
    # the solve meets its own target, so a floor-rule regression fails here
    # on its cause rather than on a small overshoot of theta
    cfg = SolverConfig()
    rnorm0 = dual_norm_all(g, heat_gradient(inc, inc.theta_prev))
    assert res.residual_norm <= max(cfg.tol_heat * rnorm0, ATOL_RESIDUAL)
    assert_reported_residual_consistent(res)


def test_pure_heating_enthalpy_balance():
    # test function v == 1 in the converged equation: mean enthalpy change
    # equals tau*(source integral) - tau*(Robin outflow)
    g = StructuredGrid((4, 4), (1.0, 1.0))
    tau, hsrc = 0.02, 3.0
    src = np.full((g.n_cells, g.nq), hsrc)
    inc = make_inc(g, tau=tau, theta_prev=0.5, theta_b=0.5, source=src)
    res = solve_heat(inc)
    assert_reported_residual_consistent(res)
    dW = g.assemble_scalar(res.w_new_qp - inc.w_prev_qp)
    outflow = robin_flux(inc, res.theta_new)
    expect = tau * (hsrc * np.prod(g.lengths) - outflow)
    assert abs(dW - expect) < 1e-9 * max(1.0, abs(expect))
    # heating with nonnegative data keeps theta nonnegative
    assert res.min_theta >= -1e-10


def test_cooling_towards_cold_boundary_stays_nonnegative():
    g = StructuredGrid((4, 4), (1.0, 1.0))
    th = 0.3
    inc = make_inc(g, tau=0.05, theta_prev=th, theta_b=0.0)
    res = solve_heat(inc)
    assert res.min_theta >= -1e-10
    assert res.theta_new_qp.mean() < th  # boundary at 0 extracts heat


def test_stiff_cooling_undershoot_is_reported_not_patched():
    # a near-Dirichlet Robin exchange on tiny steps undershoots 0 by ~5e-7;
    # the step keeps the field it solved, so the ledger closes and the
    # min_theta check reports the undershoot
    grid = StructuredGrid((8, 8), (1.0, 1.0))
    sc = Scenario(name="stiff_cooling", grid=grid, model=MaterialModel(kappa=1e6),
                  T=3e-5, theta0=1.0, theta_b=0.0)
    traj = run(sc, tau=1e-5, eps=0.0, config=SolverConfig(korn_every=0, hk_every=0))
    checks = {c["name"]: c for c in run_certificates(traj)["checks"]}
    assert checks["energy_ledger_closes"]["passed"], checks["energy_ledger_closes"]
    assert not checks["min_theta"]["passed"]
    assert -1e-6 < checks["min_theta"]["value"] < -1e-7
    assert checks["min_theta"]["value"] == min(d.min_theta for d in traj.step_diags)


def test_w_new_is_constitutive_enthalpy_pointwise():
    g = StructuredGrid((3, 3), (1.0, 1.0))
    rng = np.random.default_rng(2)
    y_new = g.identity_field()
    y_new.values += 0.01 * rng.standard_normal(y_new.values.shape)
    inc = make_inc(g, y_new=NodalField(g, y_new.values), theta_prev=1.0, theta_b=0.9)
    res = solve_heat(inc)
    w_check = MODEL.enthalpy(inc.F_new, np.maximum(res.theta_new_qp, 0.0))
    assert np.max(np.abs(res.w_new_qp - w_check)) < 1e-12


def test_regularization_caps_hold():
    g = StructuredGrid((3, 3), (1.0, 1.0))
    rng = np.random.default_rng(3)
    y_new = g.identity_field()
    y_new.values += 0.05 * rng.standard_normal(y_new.values.shape)
    eps = 0.2
    inc = make_inc(g, y_new=NodalField(g, y_new.values), eps=eps, tau=0.01)
    assert np.all(inc.xi_reg_qp <= 1.0 / eps + 1e-12)
    assert np.all(inc.xi_reg_qp <= inc.xi_qp + 1e-12)
    assert np.all(inc.xi_reg_qp >= 0.0)
    # regularized boundary/initial data cap: theta/(1+eps*theta) <= 1/eps
    th = rng.uniform(0, 1e6, size=100)
    assert np.all(th / (1 + eps * th) <= 1 / eps)
