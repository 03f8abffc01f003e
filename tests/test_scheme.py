"""Time-loop tests: equilibrium preservation, staggered-data plumbing,
interpolants, load averaging, rejection policy, the run hash, the
regularized initial data and the refinement distances."""

import dataclasses
import functools
import re

import numpy as np
import pytest

from thermovisc.diagnostics import korn_constant, run_certificates, state_energies
from thermovisc.grid import NodalField, StructuredGrid
from thermovisc.materials import MaterialModel
from thermovisc.mech import SolverConfig, StepRejectedError
from thermovisc.presets import isothermal_creep, shear_pulse, steady
from thermovisc.scheme import (
    Scenario,
    refinement_errors,
    refinement_study,
    run,
    run_hash,
    step_load_vector,
    step_theta_b,
    time_errors,
    trajectory_distance,
)


def grid66():
    return StructuredGrid((6, 6), (1.0, 1.0), dirichlet_faces=("y0",))


def test_steady_trajectory_constant():
    sc = steady(grid=grid66(), T=0.4)
    traj = run(sc, tau=0.1, eps=0.01)
    y0 = traj.snapshots[0]
    for snap in traj.snapshots[1:]:
        assert np.array_equal(snap.y.values, y0.y.values)
        assert np.array_equal(snap.theta.values, y0.theta.values)
    for d in traj.step_diags:
        assert abs(d.energy_gap_total) <= 1e-9
        assert d.mech_residual <= 1e-9 and d.heat_residual <= 1e-9


def test_steady_with_regularized_data_still_constant():
    # theta_b and theta0 get the same eps-damping, so the equilibrium survives;
    # the start is the damped uniform value with +0.0 derivative dofs, in 2D and 3D
    cube = StructuredGrid((2, 2, 2), (1.0, 1.0, 1.0), dirichlet_faces=("x0",))
    for grid, model in ((grid66(), None), (cube, MaterialModel(d=3, q=13.0, c2=12.0 / 13.0))):
        sc = steady(grid=grid, model=model, T=0.2, theta0=2.0)
        traj = run(sc, tau=0.1, eps=0.5)
        assert np.array_equal(traj.snapshots[-1].theta.values,
                              traj.snapshots[0].theta.values)
        th = traj.snapshots[0].theta_qp
        assert np.allclose(th, 2.0 / (1.0 + 0.5 * 2.0), atol=1e-12)
        dofs = traj.snapshots[0].theta.values.reshape(-1, grid.ndof_node)
        assert np.all(dofs[:, 0] == 2.0 / (1.0 + 0.5 * 2.0))
        assert np.all(dofs[:, 1:] == 0.0) and not np.any(np.signbit(dofs[:, 1:]))


@pytest.mark.parametrize("theta0, eps", [(1.0, 0.01), (1.25, 0.01), (0.9, 0.0)])
def test_steady_run_is_exactly_stationary(theta0, eps):
    # theta_b and theta0 are damped by one expression, so the Robin term
    # vanishes exactly: no residual, boundary heat or ledger gap is left,
    # not even one of roundoff size
    traj = run(steady(grid=grid66(), T=0.3, theta0=theta0), tau=0.1, eps=eps)
    dofs = traj.snapshots[0].theta.values.reshape(-1, traj.grid.ndof_node)
    assert np.all(dofs[:, 0] == step_theta_b(traj.scenario, eps))
    for d in traj.step_diags:
        assert (d.heat_residual, d.boundary_heat, d.energy_gap_total) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("grid, model, data, message", [
    (grid66(), MaterialModel(c1=1e308), {}, "free energy of (identity, theta0) is not finite"),
    (grid66(), MaterialModel(), {"theta0": -1.0}, "theta0 must be nonnegative"),
    (grid66(), MaterialModel(), {"theta0": np.nan}, "theta0 must be nonnegative"),
    (StructuredGrid((2, 2, 2), (1.0, 1.0, 1.0), dirichlet_faces=("x0",)), MaterialModel(), {},
     "grid and material dimensions disagree"),
    (grid66(), MaterialModel(), {"theta_b": -1.0}, "theta_b must be nonnegative (got -1.0)"),
    (grid66(), MaterialModel(), {"theta_b": np.nan}, "theta_b must be nonnegative (got nan)"),
    (grid66(), MaterialModel(), {"T": np.inf}, "final time must be positive and finite (got inf)"),
    (grid66(), MaterialModel(), {"T": np.nan}, "final time must be positive and finite (got nan)"),
], ids=["energy-overflow", "theta0-negative", "theta0-nan", "dimensions", "theta_b-negative",
        "theta_b-nan", "T-inf", "T-nan"])
def test_scenario_refuses_a_bad_start_state(grid, model, data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Scenario(name="bad", grid=grid, model=model, **{"T": 1.0, **data})


@pytest.mark.parametrize("T, message", [
    (np.inf, "T must be finite (got inf)"), (np.nan, "T must be positive (got nan)")],
    ids=["inf", "nan"])
def test_time_rules_refuse_a_non_finite_final_time(T, message):
    assert time_errors(T, 0.1, 0.01) == [message]


def test_shear_pulse_heats_and_dissipates():
    sc = shear_pulse(grid=grid66(), model=MaterialModel(kappa=1e-6), T=0.3, amplitude=0.2,
                     t_pulse=0.3)
    traj = run(sc, tau=0.05, eps=0.01)
    total_xi = sum(d.dissipation_step for d in traj.step_diags)
    assert total_xi > 0.0
    mean0 = traj.grid.assemble_scalar(traj.snapshots[0].theta_qp)
    mean1 = traj.grid.assemble_scalar(traj.snapshots[-1].theta_qp)
    assert mean1 > mean0  # adiabatic-like heating during the pulse
    for d in traj.step_diags:
        assert d.defect_reg >= -1e-15   # capped source never exceeds the rate


def test_isothermal_mode_skips_thermal_step():
    sc = isothermal_creep(grid=grid66(), T=0.2, amplitude=0.05)
    traj = run(sc, tau=0.05, eps=0.0)
    for snap in traj.snapshots:
        assert np.array_equal(snap.theta.values, traj.snapshots[0].theta.values)
        assert np.all(snap.w_qp == 0.0)
    for d in traj.step_diags:
        assert d.heat_iterations == 0
        assert d.boundary_heat == 0.0
    # deformation actually creeps under the dead load
    assert not np.array_equal(traj.snapshots[-1].y.values,
                              traj.snapshots[0].y.values)


def test_snapshots_keep_the_temperature_gradient():
    # the stored values and gradient are eval_scalar's, bit for bit: at the
    # start, after each thermal step, and carried through isothermal steps
    for sc in (shear_pulse(grid=grid66(), T=0.1, amplitude=0.1, t_pulse=0.08),
               isothermal_creep(grid=grid66(), T=0.1, amplitude=0.05)):
        traj = run(sc, tau=0.05, eps=0.01, config=SolverConfig(korn_every=0, hk_every=0))
        for snap in traj.snapshots:
            values, grads = traj.grid.eval_scalar(snap.theta)
            assert np.array_equal(snap.theta_qp, values)
            assert np.array_equal(snap.theta_grad_qp, grads)


def test_interpolant_gap_bounded_by_rate_integral():
    # max_t || grad(y_affine - y_hold) ||_L2 <= sqrt(tau) * sqrt(int ||grad ydot||^2)
    sc = shear_pulse(grid=grid66(), T=0.2, amplitude=0.2, t_pulse=0.15)
    gaps = {}
    for tau in (0.05, 0.025):
        traj = run(sc, tau=tau, eps=0.01, config=SolverConfig(korn_every=0, hk_every=0))
        grid = traj.grid
        sup_gap = 0.0
        rate_sq = 0.0
        for k in range(1, traj.n_steps + 1):
            dF = traj.snapshots[k].F - traj.snapshots[k - 1].F
            gap = np.sqrt(grid.assemble_scalar(np.sum(dF**2, axis=(-2, -1))))
            sup_gap = max(sup_gap, gap)
            rate_sq += grid.assemble_scalar(np.sum(dF**2, axis=(-2, -1))) / tau
        assert sup_gap <= np.sqrt(tau) * np.sqrt(rate_sq) + 1e-12
        gaps[tau] = sup_gap
    assert gaps[0.025] < gaps[0.05]  # gap shrinks under halving


def test_load_average_exact_for_linear_ramp():
    grid = grid66()

    def f(t, face, X):
        out = np.zeros(X.shape)
        out[..., 1] = 2.0 * t
        return out

    sc = Scenario(name="ramp", grid=grid, model=MaterialModel(), T=1.0, traction=f)
    L = step_load_vector(sc, 0.2, 0.4)
    # the average of a linear ramp is its midpoint value, on every Neumann face
    faces = list(grid.neumann_faces)
    L_ref = grid.assemble_face_gradient(faces, {n: f(0.3, n, grid.faces[n].qcoords)
                                                for n in faces})
    assert np.any(L_ref) and np.allclose(L, L_ref, atol=1e-14)


def test_theta_b_is_regularized():
    sc = steady(grid=grid66(), T=1.0, theta0=3.0)
    assert step_theta_b(sc, eps=0.5) == 3.0 / (1.0 + 0.5 * 3.0)


def test_step_rejection_bubbles_up():
    # crushing dead traction: not solvable at this budget
    sc = isothermal_creep(grid=grid66(), T=0.4, amplitude=-500.0)
    cfg = SolverConfig(max_newton=3, max_backtracks=6, max_step_halvings=1,
                       korn_every=0, hk_every=0)
    with pytest.raises(StepRejectedError, match="step from t = 0 to t = 0.1 rejected after 1 "):
        run(sc, tau=0.2, eps=0.0, config=cfg)


def test_merged_row_counts_only_the_solves_of_accepted_substeps(monkeypatch):
    import thermovisc.scheme as scheme
    solve_heat, solve_mech = scheme.solve_heat, scheme.solve_mech
    calls, mech_results = [], []

    def heat_rejects_first(inc, cfg, frozen):
        calls.append(inc.tau)
        if len(calls) == 1:
            raise StepRejectedError("injected thermal failure")
        return solve_heat(inc, cfg, frozen)

    def recorded(*args):
        mech_results.append(solve_mech(*args))
        return mech_results[-1]

    monkeypatch.setattr(scheme, "solve_heat", heat_rejects_first)
    monkeypatch.setattr(scheme, "solve_mech", recorded)
    sc = shear_pulse(grid=grid66(), T=0.05, amplitude=0.1, t_pulse=0.08)
    cfg = SolverConfig(max_step_halvings=1, korn_every=0, hk_every=0)
    traj = run(sc, tau=0.05, eps=0.01, config=cfg)
    assert calls == [0.05, 0.025, 0.025]
    # the work and descent of the two accepted half steps, not of the
    # abandoned full-step mech solve, which made the run's one mech LU
    abandoned, *halves = mech_results
    assert len(halves) == 2 and abandoned.factorizations == 1
    (d,) = traj.step_diags
    assert d.substeps == 2
    assert d.mech_factorizations == sum(r.factorizations for r in halves) == 0
    assert d.mech_pcg_iterations == sum(r.pcg_iterations for r in halves) > 0
    assert d.mech_iterations == sum(r.iterations for r in halves)
    assert d.descent_gap == min(r.descent_gap for r in halves)
    assert d.iterate_min_det == min(min(r.iterate_min_dets) for r in halves)
    assert (d.heat_factorizations, d.heat_pcg_iterations > 0) == (1, True)
    # the merged row starts from snapshot 0's energies and its ledger closes
    (d,) = traj.step_diags
    M0, _, _, _, E0 = state_energies(traj.grid, traj.model, traj.snapshots[0])
    assert (d.M_prev, d.E_prev) == (M0, E0)
    assert abs(sum(d.ledger_items().values())) <= 1e-12 * max(1.0, abs(d.E))
    assert abs(d.energy_gap_total) <= 1e-12 * max(1.0, abs(d.E))


def test_korn_and_hk_every_are_periods():
    sc = shear_pulse(grid=grid66(), T=0.2, amplitude=0.1, t_pulse=0.15)
    traj = run(sc, tau=0.05, eps=0.01, config=SolverConfig(korn_every=2, hk_every=3))
    assert [np.isfinite(d.korn_lower) for d in traj.step_diags] == [False, True, False, True]
    assert [np.isfinite(d.hk_bound) for d in traj.step_diags] == [False, False, True, False]
    assert np.isfinite(traj.step_diags[1].korn_const)   # the first certificate solves
    for k in (2, 4):
        # a solve (step 4 starts Lanczos from step 2's eigenvector) gets the
        # fresh value, and the bound lies below it
        d, fresh = traj.step_diags[k - 1], korn_constant(traj.grid, traj.snapshots[k].F)
        assert d.korn_lower <= fresh
        assert np.isnan(d.korn_const) or abs(d.korn_const - fresh) <= 1e-12 * fresh


@dataclasses.dataclass
class TaggedScenario(Scenario):
    """A scenario with one field more than the library's."""

    tag: float = 1.0


@pytest.mark.parametrize("change", [{"amplitude": 0.4}, {"t_pulse": 0.1}, {"theta0": 1.5},
                                    {"theta_b": 0.5}, {"name": "other"}, {"T": 0.3},
                                    {"isothermal": True}, {"tag": 2.0}],
                         ids=lambda c: next(iter(c)))
def test_run_hash_covers_the_loads(change):
    # the same grid, model and times under other loads hash differently
    loads = dict(T=0.2, amplitude=0.1, t_pulse=0.15, theta0=1.0, theta_b=1.0)
    grid, cfg = grid66(), SolverConfig()
    if set(change) <= set(loads):
        base = shear_pulse(grid=grid, **loads)
        other = shear_pulse(grid=grid, **{**loads, **change})
        assert run_hash(other, 0.05, 0.01, cfg) != run_hash(base, 0.05, 0.01, cfg)
        assert (base.params, other.params) == (loads, {**loads, **change})
    if not set(change) <= {"amplitude", "t_pulse"}:
        # a hand-built scenario keeps no params: its fields are hashed
        # themselves, a field of a subclass too
        build = TaggedScenario if "tag" in change else Scenario
        hand = dict(name="hand", grid=grid, model=MaterialModel(), T=0.2)
        assert (run_hash(build(**{**hand, **change}), 0.05, 0.01, cfg)
                != run_hash(build(**hand), 0.05, 0.01, cfg))


def test_determinism_bit_identical():
    sc = shear_pulse(grid=grid66(), T=0.1, amplitude=0.1, t_pulse=0.08)
    t1 = run(sc, tau=0.05, eps=0.01)
    t2 = run(sc, tau=0.05, eps=0.01)
    for a, b in zip(t1.snapshots, t2.snapshots):
        assert np.array_equal(a.y.values, b.y.values)
        assert np.array_equal(a.theta.values, b.theta.values)
        assert np.array_equal(a.w_qp, b.w_qp)


def test_eps_zero_coupled_path_runs():
    # no regularization at all: uncapped dissipation source, no linear
    # viscosity; the frame-indifferent rate potential alone controls the
    # mechanical step (experimental regime, exercised for coverage)
    sc = shear_pulse(grid=grid66(), T=0.2, amplitude=0.1, t_pulse=0.15)
    traj = run(sc, tau=0.05, eps=0.0, config=SolverConfig(korn_every=0))
    for d in traj.step_diags:
        assert d.defect_reg == 0.0          # capped rate equals the raw rate
        assert abs(d.energy_gap_total) < 1e-12
        assert d.min_theta >= -1e-10


def test_3d_steady_end_to_end():
    # the whole pipe is dimension generic; a 3D equilibrium run exercises
    # kinematics, both solvers and every certificate at desk scale
    g = StructuredGrid((2, 2, 2), (1.0, 1.0, 1.0), dirichlet_faces=("x0",))
    m = MaterialModel(d=3, q=13.0, c2=12.0 / 13.0)   # stress-free identity in 3D
    assert np.allclose(m.elastic_stress(np.eye(3)), 0.0, atol=1e-12)
    traj = run(steady(grid=g, model=m, T=0.1), tau=0.05, eps=0.01)
    assert np.max(np.abs(traj.snapshots[-1].y.values
                         - traj.snapshots[0].y.values)) == 0.0
    for d in traj.step_diags:
        assert abs(d.energy_gap_total) < 1e-12
        assert 0.0 < d.hk_bound <= d.min_detF
        assert d.korn_lower > 0.0
    # the unchanged state is certified by the first step's solve
    assert [np.isfinite(d.korn_const) for d in traj.step_diags] == [True, False]


def test_run_at_the_admissibility_threshold_is_certified():
    # q = pd/(p-d) exactly, which validate_constants accepts: the run
    # completes with every certificate, the determinant bound included
    model = MaterialModel(c2=2.0, q=4.0)   # c2 * q = 8: stress-free identity
    grid = StructuredGrid((4, 4), (1.0, 1.0), dirichlet_faces=("y0",))
    traj = run(steady(grid=grid, model=model, T=0.1), tau=0.05, eps=0.01,
               config=SolverConfig())
    assert len(traj.step_diags) == 2
    for d in traj.step_diags:
        assert 0.0 < d.hk_bound <= d.min_detF
    assert run_certificates(traj)["all_passed"]


def test_refinement_smoke_tau_cauchy_decreases():
    sc = shear_pulse(grid=grid66(), T=0.2, amplitude=0.15, t_pulse=0.15)
    report = refinement_study(sc, tau_list=[0.1, 0.05, 0.025], eps_list=[0.01])
    rows = report["cauchy"][0.01]
    assert len(rows) == 2
    assert rows[1]["dy_grad_l2"] < rows[0]["dy_grad_l2"]
    assert rows[1]["dtheta_l2"] < rows[0]["dtheta_l2"]
    with pytest.raises(ValueError, match="sorted decreasing"):
        refinement_study(sc, tau_list=[0.05, 0.1], eps_list=[0.01])


def test_refinement_refuses_repeated_entries():
    # a repeated entry would run the same cell twice and report a Cauchy
    # distance of 0 between a run and itself
    assert refinement_errors(0.2, [0.1, 0.1], [0.01, 0.01]) == [
        "tau_list must be sorted decreasing with no repeats (got 0.1 0.1)",
        "eps_list must be sorted decreasing with no repeats (got 0.01 0.01)"]
    with pytest.raises(ValueError, match="sorted decreasing with no repeats"):
        refinement_study(steady(grid=grid66(), T=0.2), tau_list=[0.1, 0.1], eps_list=[0.01])


@functools.cache
def pulse_run(tau):
    sc = shear_pulse(grid=grid66(), T=0.4, t_pulse=0.25)
    return run(sc, tau=tau, eps=0.01, config=SolverConfig(korn_every=0, hk_every=0))


def reevaluated_distance(traj_a, traj_b):
    """Reference distances by re-evaluation: each run's affine interpolant
    is formed from the nodal values, evaluated by eval_kinematics and
    eval_values at the union of both runs' step nodes and at the midpoints
    between them, and integrated by Simpson's rule, which is exact for the
    affine-in-time differences between union nodes.  On a nested pair the
    union nodes are the fine run's, so this is also the fine-step Simpson
    construction the distances were first computed with."""
    grid = traj_a.grid
    ts = np.unique(np.round(np.concatenate(
        [np.arange(tr.n_steps + 1) * tr.tau for tr in (traj_a, traj_b)]), 12))

    def fields(traj, t):
        k = min(int(np.floor(t / traj.tau + 1e-9)), traj.n_steps - 1)
        lam = t / traj.tau - k
        s0, s1 = traj.snapshots[k], traj.snapshots[k + 1]
        y = NodalField(grid, (1 - lam) * s0.y.values + lam * s1.y.values)
        th = NodalField(grid, (1 - lam) * s0.theta.values + lam * s1.theta.values)
        return grid.eval_kinematics(y).F, grid.eval_values(th)

    dy2 = dth2 = 0.0
    for t0, t1 in zip(ts, ts[1:]):
        for t, w in ((t0, 1.0), (0.5 * (t0 + t1), 4.0), (t1, 1.0)):
            (Fa, tha), (Fb, thb) = fields(traj_a, t), fields(traj_b, t)
            dy2 += (t1 - t0) * w / 6.0 * grid.assemble_scalar(
                np.sum((Fa - Fb) ** 2, axis=(-2, -1)))
            dth2 += (t1 - t0) * w / 6.0 * grid.assemble_scalar((tha - thb) ** 2)
    return np.sqrt(dy2), np.sqrt(dth2)


@pytest.mark.parametrize("taus", [(0.1, 0.05), (0.08, 0.05), (0.1, 0.04)],
                         ids=["nested", "non-nested-8-5", "non-nested-10-4"])
def test_trajectory_distance_is_exact_on_the_union_nodes(monkeypatch, taus):
    # the non-nested pairs are refinement steps refinement_errors accepts;
    # a Simpson rule on the finer run's steps alone is 0.1-1.4 % off there
    traj_a, traj_b = (pulse_run(tau) for tau in taus)
    ref = reevaluated_distance(traj_a, traj_b)
    assert min(ref) > 1e-5   # the runs differ; the comparison is not of two zeros

    def refused(*args, **kwargs):
        raise AssertionError("trajectory_distance re-evaluates a field")

    for name in ("eval_kinematics", "eval_values", "eval_scalar"):
        monkeypatch.setattr(StructuredGrid, name, refused)
    got = trajectory_distance(traj_a, traj_b)
    for g, r in zip(got, ref):
        assert abs(g - r) <= 1e-12 * r
    assert trajectory_distance(traj_b, traj_a) == pytest.approx(got, rel=1e-14)
