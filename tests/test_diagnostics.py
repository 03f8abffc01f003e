"""Certificate tests: energy balance checks, entropy production, the
determinant lower bound, the Korn eigensolve and the weak-form residual
audit."""

import copy
import dataclasses
import inspect
import itertools
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

import thermovisc
import thermovisc.diagnostics as diagnostics
from thermovisc.diagnostics import (
    THETA_FLOOR,
    KornState,
    StepDiagnostics,
    TestBank,
    hk_determinant_bound,
    korn_certificate,
    korn_constant,
    mechanical_energy_check,
    merge_step_diagnostics,
    run_certificates,
    total_energy_check,
    weak_residuals,
)
from thermovisc.grid import NodalField, StructuredGrid
from thermovisc.heat import HeatIncrement
from thermovisc.materials import MaterialModel, det, viscous_form
from thermovisc.mech import SolverConfig, StepRejectedError
from thermovisc.presets import isothermal_creep, shear_pulse, steady
from thermovisc.scheme import Trajectory, run

from helpers import (
    apply_dirichlet_identity,
    bank_tables,
    random_feasible_gradient,
    random_rotation,
    reference_gram,
)


def grid66():
    return StructuredGrid((6, 6), (1.0, 1.0), dirichlet_faces=("y0",))


def const_F(grid, M):
    F = np.zeros((grid.n_cells, grid.nq, grid.d, grid.d))
    F[:] = M
    return F


@pytest.fixture(scope="module")
def pulse_traj():
    sc = shear_pulse(grid=grid66(), T=0.3, amplitude=0.2, t_pulse=0.2)
    return run(sc, tau=0.05, eps=0.01)


# ---------------------------------------------------------------------------
# balance checks


def test_steady_balances_vanish():
    sc = steady(grid=grid66(), T=0.2)
    traj = run(sc, tau=0.05, eps=0.01)
    for k in range(1, traj.n_steps + 1):
        res, slack, _ = mechanical_energy_check(traj, k)
        assert res <= 1e-12
        ledger = total_energy_check(traj, k)
        assert abs(ledger["gap"]) <= 1e-12
        assert all(abs(v) <= 1e-12 for v in ledger["items"].values())
        assert traj.step(k)[2].entropy_prod <= 1e-30   # exact zero up to roundoff


def test_mech_energy_check_within_slack(pulse_traj):
    for k in range(1, pulse_traj.n_steps + 1):
        res, slack, solver_term = mechanical_energy_check(pulse_traj, k)
        assert res <= slack + abs(solver_term) + 1e-10


def test_mech_energy_check_convex_model_tight():
    # pure hyperstress + weak barrier: stored energy convex on the states
    # visited, so the identity holds to solver tolerance
    model = MaterialModel(c1=0.0, c2=1e-8, h_coef=1e-2, phi1_amp=0.0)
    grid = grid66()
    sc = shear_pulse(grid=grid, model=model, T=0.2, amplitude=0.02, t_pulse=0.15)
    traj = run(sc, tau=0.05, eps=0.01)
    for k in range(1, traj.n_steps + 1):
        res, slack, solver_term = mechanical_energy_check(traj, k)
        d = traj.step_diags[k - 1]
        assert d.defect_semiconvex >= -1e-12   # convex: gap is one-sided
        assert res <= abs(solver_term) + d.defect_semiconvex + 1e-10


def test_total_energy_ledger_itemization(pulse_traj):
    for k in range(1, pulse_traj.n_steps + 1):
        ledger = total_energy_check(pulse_traj, k)
        assert abs(sum(ledger["items"].values()) - ledger["gap"]) <= 1e-12
        assert abs(ledger["gap"]) <= 1e-8 * ledger["scale"]
        d = pulse_traj.step_diags[k - 1]
        assert d.defect_reg >= -1e-15          # capped-rate item has a sign


def test_entropy_production_nonnegative(pulse_traj):
    for k in range(1, pulse_traj.n_steps + 1):
        assert pulse_traj.step(k)[2].entropy_prod >= 0.0


def test_steps_outside_the_run_are_refused(pulse_traj):
    n = pulse_traj.n_steps
    for check in (mechanical_energy_check, total_energy_check, Trajectory.step):
        for k in (0, n + 1):
            with pytest.raises(ValueError, match=rf"^step {k} is not in 1\.\.{n}$"):
                check(pulse_traj, k)


def test_insulated_entropy_nondecreasing():
    sc = shear_pulse(grid=grid66(), model=MaterialModel(kappa=1e-6), T=0.3, amplitude=0.2,
                     t_pulse=0.2)
    traj = run(sc, tau=0.05, eps=0.01)
    totals = [d.entropy_total for d in traj.step_diags]
    for a, b in zip(totals, totals[1:]):
        assert b >= a - 1e-9


def test_merged_substep_diagnostics_keep_ledger_closed():
    # the local tau-halving policy aggregates two substeps into one row;
    # additive items must telescope so the merged ledger still closes
    sc = shear_pulse(grid=grid66(), T=0.1, amplitude=0.2, t_pulse=0.08)
    traj = run(sc, tau=0.05, eps=0.01)
    d1, d2 = traj.step_diags
    merged = merge_step_diagnostics(d1, d2)
    assert merged.E_prev == d1.E_prev and merged.E == d2.E
    assert merged.dissipation_step == pytest.approx(
        d1.dissipation_step + d2.dissipation_step, rel=1e-15)
    assert merged.min_detF == min(d1.min_detF, d2.min_detF)
    items = merged.ledger_items()
    assert sum(items.values()) == pytest.approx(merged.energy_gap_total, abs=1e-12)
    assert abs(merged.energy_gap_total) < 1e-12
    # the least and most of two substeps keep a NaN from either one, and
    # fold numbers as min and max do, signed zeros included
    folds = dict.fromkeys(("min_detF", "min_theta", "descent_gap", "iterate_min_det"), min)
    folds.update(dict.fromkeys(("mech_residual", "heat_residual"), max))
    for name, fold in folds.items():
        for a, b in ((np.nan, 1.0), (1.0, np.nan), (0.0, -0.0), (-0.0, 0.0), (1.0, 2.0),
                     (2.0, 1.0)):
            merged = merge_step_diagnostics(dataclasses.replace(d1, **{name: a}),
                                            dataclasses.replace(d2, **{name: b}))
            ref = np.nan if np.isnan([a, b]).any() else fold(a, b)
            assert getattr(merged, name).hex() == ref.hex(), (name, a, b)


# ---------------------------------------------------------------------------
# step certificates: consumers of the step, checked against a recomputation


def recomputed_step_diagnostics(snap_prev, snap_new, mech_inc, mech_res, heat_inc,
                                heat_res):
    """Reference certificates of one step, recomputed from its two snapshots
    without reusing what the step computed: the energies of both states,
    the semiconvexity defect from the summed energy density of both states,
    and the dissipation rate and pulled-back conductivity at the previous
    state.  Only the step data (tau, eps, loads, boundary temperature) and
    the solver results are read from the step.  hk_bound, korn_const and
    korn_lower are NaN, as ``scheme.run`` fills them in (see
    ``with_eigen_certificates``)."""
    grid, model = mech_inc.grid, mech_inc.model
    tau, eps, iso = mech_inc.tau, mech_inc.eps, heat_res is None
    dF = snap_new.F - snap_prev.F
    th_prev = np.maximum(snap_prev.theta_qp, 0.0)
    th_new = np.maximum(snap_new.theta_qp, 0.0)
    xi = model.dissipation_rate(snap_prev.F, dF / tau, th_prev)
    xi_reg = xi / (1.0 + eps * xi)
    dissipation_step = tau * grid.assemble_scalar(xi)
    reg_step = tau * grid.assemble_scalar(xi_reg)

    def energies(s):
        H = grid.assemble_scalar(model.hyperstress_energy(s.G))
        M = grid.assemble_scalar(model.elastic_energy(s.F)) + H
        if iso:
            return M, H, 0.0, 0.0, M
        W = grid.assemble_scalar(s.w_qp)
        Phi = grid.assemble_scalar(model.coupling_energy(s.F, np.maximum(s.theta_qp, 0.0)))
        return M, H, Phi, W, M + W

    def main_energy(s):
        return grid.assemble_scalar(model.elastic_energy(s.F) + model.hyperstress_energy(s.G))

    M_prev, _, _, _, E_prev = energies(snap_prev)
    M, H_val, Phi_cpl, W_total, E = energies(snap_new)
    dvals = snap_new.y.values - snap_prev.y.values
    DM = grid.assemble_gradient(grid.d, stress=model.elastic_stress(snap_new.F),
                                hyperstress=model.hyperstress(snap_new.G))
    defect_semiconvex = (float(np.sum(DM * dvals))
                         - (main_energy(snap_new) - main_energy(snap_prev)))
    ext_power = float(np.sum(mech_inc.load_vector * dvals))
    defect_eps = (eps / tau) * grid.assemble_scalar(np.sum(dF**2, axis=(-2, -1)))
    mech_term = float(np.sum(mech_res.residual_vector * dvals))
    if iso:
        pcpl_old = pcpl_new = boundary_heat = heat_term = entropy_prod = 0.0
        entropy_tot, min_theta = float("nan"), float(snap_new.theta_qp.min())
        heat_resid, heat_iters, ledger_reg = 0.0, 0, dissipation_step
    else:
        pcpl_old = grid.assemble_scalar(
            np.sum(model.coupling_stress(snap_new.F, th_prev) * dF, axis=(-2, -1)))
        pcpl_new = grid.assemble_scalar(
            np.sum(model.coupling_stress(snap_new.F, th_new) * dF, axis=(-2, -1)))
        # Robin gradient kappa M_Gamma u paired with the constant field, in
        # the deviation u = theta - theta_b
        u = snap_new.theta.values - grid.constant_field(heat_inc.theta_b).values
        robin = model.kappa * (grid.assemble_face_hessian() @ u)
        boundary_heat = tau * float(grid.constant_field(1.0).values @ robin)
        heat_term = tau * float(np.sum(heat_res.residual_vector
                                       * grid.constant_field(1.0).values))
        K_prev = model.pullback_conductivity(snap_prev.F, th_prev)
        _, gth = grid.eval_scalar(snap_new.theta)
        cond = np.einsum("cqa,cqab,cqb->cq", gth, K_prev, gth)
        mask = snap_new.theta_qp > THETA_FLOOR
        th = np.maximum(snap_new.theta_qp, THETA_FLOOR)
        entropy_prod = tau * grid.assemble_scalar(np.where(mask, xi / th + cond / th**2, 0.0))
        entropy_tot = grid.assemble_scalar(model.entropy_density(snap_new.F, th))
        min_theta = heat_res.min_theta
        heat_resid, heat_iters = heat_res.residual_norm, heat_res.iterations
        ledger_reg = dissipation_step - reg_step
    defect_coupling = pcpl_old - pcpl_new
    solver_term = mech_term + heat_term
    gap_total = ((E - E_prev) - ext_power + boundary_heat + ledger_reg
                 + defect_eps + defect_semiconvex + defect_coupling - solver_term)
    return StepDiagnostics(
        t=snap_new.t, M=M, M_prev=M_prev, H_val=H_val, Phi_cpl=Phi_cpl,
        W_total=W_total, E=E, E_prev=E_prev,
        dissipation_step=dissipation_step, reg_dissipation_step=reg_step,
        ext_power=ext_power, boundary_heat=boundary_heat,
        entropy_prod=entropy_prod, entropy_total=entropy_tot,
        min_detF=float(snap_new.detF.min()), hk_bound=float("nan"), korn_const=float("nan"),
        mech_residual=mech_res.residual_norm, heat_residual=heat_resid,
        energy_gap_total=gap_total, min_theta=min_theta,
        defect_reg=ledger_reg, defect_eps=defect_eps,
        defect_semiconvex=defect_semiconvex, defect_coupling=defect_coupling,
        solver_term=solver_term, pcpl_old=pcpl_old, mech_iterations=mech_res.iterations,
        heat_iterations=heat_iters,
        descent_gap=mech_res.descent_gap, iterate_min_det=min(mech_res.iterate_min_dets),
        mech_factorizations=mech_res.factorizations,
        mech_pcg_iterations=mech_res.pcg_iterations,
        heat_factorizations=0 if iso else heat_res.factorizations,
        heat_pcg_iterations=0 if iso else heat_res.pcg_iterations)


def with_eigen_certificates(row, traj, k, korn_state):
    """Row of macro step k with hk_bound, korn_const and korn_lower of its end
    state; one ``korn_state`` is threaded through the macro steps in order,
    as ``scheme.run`` does."""
    cfg, snap = traj.config, traj.snapshots[k]
    korn = (korn_certificate(traj.grid, snap.F, korn_state) if cfg.korn_every
            else (float("nan"), float("nan")))
    return dataclasses.replace(
        row,
        hk_bound=hk_determinant_bound(traj.grid, snap.y) if cfg.hk_every else float("nan"),
        korn_const=korn[0], korn_lower=korn[1])


def run_recording_steps(monkeypatch, scenario, tau, eps, config, heat_rejects_first=False):
    """Run and return (trajectory, [(arguments, row)] of every step certificate)."""
    import thermovisc.scheme as scheme
    steps = []
    compute, solve_heat = diagnostics.compute_step_diagnostics, scheme.solve_heat

    def recorded(*args):
        steps.append((args, compute(*args)))
        return steps[-1][1]

    def rejecting(inc, cfg, frozen):   # a thermal failure of the first attempt forces a halving
        if not rejecting.failed:
            rejecting.failed = True
            raise StepRejectedError("injected thermal failure")
        return solve_heat(inc, cfg, frozen)

    rejecting.failed = False
    monkeypatch.setattr(diagnostics, "compute_step_diagnostics", recorded)
    if heat_rejects_first:
        monkeypatch.setattr(scheme, "solve_heat", rejecting)
    return run(scenario, tau, eps, config), steps


def assert_rows_match(got, ref):
    """Every field bit-identical, except the semiconvexity defect and the
    ledger gap it enters, which may move by roundoff of the energy sums."""
    for f in dataclasses.fields(StepDiagnostics):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        if f.name in ("defect_semiconvex", "energy_gap_total"):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(ref.E)), (f.name, a, b)
        else:
            assert a == b or (np.isnan(a) and np.isnan(b)), (f.name, a, b)


@pytest.mark.parametrize("case", ["pulse", "isothermal", "halved"])
def test_step_diagnostics_match_recomputation_from_snapshots(case, monkeypatch):
    if case == "pulse":
        sc = shear_pulse(grid=grid66(), T=0.1, amplitude=0.2, t_pulse=0.08)
        traj, steps = run_recording_steps(monkeypatch, sc, 0.05, 0.01, SolverConfig())
    elif case == "isothermal":
        sc = isothermal_creep(grid=grid66(), T=0.1, amplitude=0.05)
        traj, steps = run_recording_steps(monkeypatch, sc, 0.05, 0.0, SolverConfig())
    else:
        sc = shear_pulse(grid=grid66(), T=0.05, amplitude=0.1, t_pulse=0.08)
        traj, steps = run_recording_steps(monkeypatch, sc, 0.05, 0.01,
                                          SolverConfig(max_step_halvings=1),
                                          heat_rejects_first=True)
    refs = [recomputed_step_diagnostics(*args) for args, _ in steps]
    for (_, got), ref in zip(steps, refs):
        assert_rows_match(got, ref)
    if case == "halved":   # one merged row from the two recorded substeps
        assert len(steps) == 2 and len(traj.step_diags) == 1
        refs = [merge_step_diagnostics(*refs)]
    assert len(refs) == len(traj.step_diags) > 0
    korn_state = KornState()
    for k, (got, ref) in enumerate(zip(traj.step_diags, refs), start=1):
        assert_rows_match(got, with_eigen_certificates(ref, traj, k, korn_state))


def test_step_diagnostics_reuse_the_step(monkeypatch):
    # the certificates evaluate one constitutive function at the previous
    # deformation, the dissipation rate, once per step; they do not
    # re-evaluate the new temperature or trace any boundary face, and each
    # snapshot's energies are evaluated exactly once
    energies, on_prev, on_new_theta, on_face, current = [], [], [], [], []
    steps = []
    state_energies = diagnostics.state_energies
    compute = diagnostics.compute_step_diagnostics
    eval_face_scalar = StructuredGrid.eval_face_scalar

    def counted(grid, model, snap, *args):
        energies.append(snap)
        return state_energies(grid, model, snap, *args)

    def watched(snap_prev, snap_new, *args):
        steps.append(snap_new)
        current.append((snap_prev, snap_new))
        try:
            return compute(snap_prev, snap_new, *args)
        finally:
            current.pop()

    def scalar_spy(evaluate):
        def spied(self, field):
            if current and (field is current[-1][1].theta
                            or np.array_equal(field.values, current[-1][1].theta.values)):
                on_new_theta.append(field)
            return evaluate(self, field)
        return spied

    def face_spy(self, face, field):
        if current:
            on_face.append(face)
        return eval_face_scalar(self, face, field)

    def spy(name, fn):
        def spied(self, *args, **kwargs):
            prev = current[-1][0] if current else None
            for a in args:
                if prev is not None and any(
                        a is b or (np.shape(a) == b.shape and np.array_equal(a, b))
                        for b in (prev.F, prev.G)):
                    on_prev.append(name)
            return fn(self, *args, **kwargs)
        return spied

    for name, fn in list(vars(MaterialModel).items()):
        if inspect.isfunction(fn) and not name.startswith("_"):
            monkeypatch.setattr(MaterialModel, name, spy(name, fn))
    monkeypatch.setattr(diagnostics, "state_energies", counted)
    monkeypatch.setattr(diagnostics, "compute_step_diagnostics", watched)
    for name in ("eval_scalar", "eval_values"):
        monkeypatch.setattr(StructuredGrid, name, scalar_spy(getattr(StructuredGrid, name)))
    monkeypatch.setattr(StructuredGrid, "eval_face_scalar", face_spy)
    sc = shear_pulse(grid=grid66(), T=0.15, amplitude=0.2, t_pulse=0.08)
    traj = run(sc, tau=0.05, eps=0.01)
    assert len(traj.step_diags) == 3 and len(steps) == 3
    assert on_prev == ["dissipation_rate"] * 3
    assert on_new_theta == []
    assert on_face == []
    assert len(energies) == len(traj.snapshots)
    assert all(a is b for a, b in zip(energies, traj.snapshots))


# ---------------------------------------------------------------------------
# determinant bound


def dense_cell_minima(grid, y, m):
    """Least det grad y over an m^d equispaced sample of each closed cell."""
    t = np.linspace(0.0, 1.0, m)
    B1 = grid._basis_tables(np.array(list(itertools.product(t, repeat=grid.d))))[1]
    return det(np.einsum("cai,apj->cpij", grid.local_values(y.values), B1)).min(axis=1)


def test_hk_bound_fails_on_fold_between_gauss_points(pulse_traj):
    # 4x4 identity with d y_1 / d x_1 = -0.2 at the interior node (2, 2):
    # det F is -0.2 there and positive at every Gauss point
    grid = StructuredGrid((4, 4), (1.0, 1.0), dirichlet_faces=("y0",))
    y = grid.identity_field()
    y.values[grid._node_id((2, 2)) * grid.ndof_node + 1, 0] = -0.2
    assert grid.eval_kinematics(y).detF.min() > 0.0
    bound = hk_determinant_bound(grid, y)
    assert bound <= dense_cell_minima(grid, y, 41).min() <= -0.2 + 1e-12
    bad = copy.copy(pulse_traj)
    bad.step_diags = list(pulse_traj.step_diags)
    bad.step_diags[-1] = dataclasses.replace(bad.step_diags[-1], hk_bound=bound)
    assert run_certificates(pulse_traj)["all_passed"]
    report = run_certificates(bad)
    check = next(c for c in report["checks"] if c["name"] == "hk_bound_positive")
    assert not check["passed"] and check["value"] == bound
    assert not report["all_passed"]


@pytest.mark.parametrize("extents", [(6, 6), (3, 3, 3)], ids=["2d", "3d"])
def test_hk_bound_below_dense_sample_and_gauss_minimum(extents):
    d = len(extents)
    grid = StructuredGrid(extents, (1.0,) * d, dirichlet_faces=("y0",))
    rng = np.random.default_rng(7)
    for spread in (0.01, 0.02, 0.05):
        y = grid.identity_field()
        y.values += spread * rng.standard_normal(y.values.shape)
        apply_dirichlet_identity(grid, y)
        bounds = grid.det_lower_bounds(y)
        assert np.all(bounds <= dense_cell_minima(grid, y, 31 if d == 2 else 11))
        assert np.all(bounds <= grid.eval_kinematics(y).detF.min(axis=1))
        assert hk_determinant_bound(grid, y) == bounds.min()


def test_hk_bound_identity_in_unit_interval():
    for extents, tol in (((6, 6), 1e-10), ((2, 2, 2), 1e-5)):
        grid = StructuredGrid(extents, (1.0,) * len(extents), dirichlet_faces=("y0",))
        assert 1.0 - tol <= hk_determinant_bound(grid, grid.identity_field()) <= 1.0


def test_hk_bound_affine_state():
    grid = grid66()
    A = np.array([[1.1, 0.1], [0.0, 0.9]])
    y = grid.interpolate(lambda X: X @ A.T, ncomp=2,
                         dfn=lambda X, m: np.tile(A[:, m.index(1)], (X.shape[0], 1))
                         if sum(m) == 1 else np.zeros((X.shape[0], 2)))
    detA = np.linalg.det(A)
    assert detA - 1e-10 <= hk_determinant_bound(grid, y) <= detA


def test_hk_bound_of_an_unchanged_state_is_kept(monkeypatch):
    # the load-free steady state is bit-identical from step to step, so the
    # first bounded step's bound serves every later one; a loaded state moves
    # and is bounded anew on every bounded step
    calls = []
    det_lower_bounds = StructuredGrid.det_lower_bounds

    def counted(grid, y):
        calls.append(y)
        return det_lower_bounds(grid, y)

    monkeypatch.setattr(StructuredGrid, "det_lower_bounds", counted)
    for every in (1, 2):
        for sc, loaded in ((steady(grid=grid66(), T=0.2), False),
                           (shear_pulse(grid=grid66(), T=0.2, amplitude=0.1, t_pulse=0.15),
                            True)):
            calls.clear()
            traj = run(sc, tau=0.05, eps=0.01,
                       config=SolverConfig(korn_every=0, hk_every=every))
            bounded = range(every, traj.n_steps + 1, every)
            assert len(calls) == (len(bounded) if loaded else 1)
            for k in bounded:
                fresh = float(det_lower_bounds(traj.grid, traj.snapshots[k].y).min())
                assert traj.step_diags[k - 1].hk_bound == fresh


# ---------------------------------------------------------------------------
# Korn constant


def test_korn_identity_positive_and_rotation_exact():
    rng = np.random.default_rng(11)
    for n in (6, 10):
        grid = StructuredGrid((n, n), (1.0, 1.0), dirichlet_faces=("y0",))
        kI = korn_constant(grid, const_F(grid, np.eye(2)))
        assert kI > 0.0
        R = random_rotation(rng, 2)
        kR = korn_constant(grid, const_F(grid, R))
        assert abs(kR - kI) <= 1e-8 * kI


def test_korn_discontinuous_field_degrades_under_refinement():
    R90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    vals = []
    for n in (6, 12, 24):
        grid = StructuredGrid((n, n), (1.0, 1.0), dirichlet_faces=("y0",))
        F = const_F(grid, np.eye(2))
        mask = grid.qcoords[..., 0] >= 0.5
        F[mask] = R90
        vals.append(korn_constant(grid, F))
    assert vals[0] > vals[1] > vals[2]


def test_korn_rejects_nonpositive_det():
    grid = grid66()
    with pytest.raises(ValueError):
        korn_constant(grid, const_F(grid, np.diag([1.0, -1.0])))


def drifting_gradients(grid, rng, count=4, drift=0.1, spread=0.1):
    """Per-cell feasible gradients, each a small step from the one before."""
    d = grid.d
    F = np.stack([random_feasible_gradient(rng, d, spread) for _ in range(grid.n_cells)])
    out = []
    for _ in range(count):
        R = np.stack([random_feasible_gradient(rng, d, spread) for _ in range(grid.n_cells)])
        F = (1.0 - drift) * F + drift * R
        assert np.linalg.det(F).min() > 0.0
        F_qp = np.broadcast_to(F[:, None], (grid.n_cells, grid.nq, d, d))
        out.append(np.ascontiguousarray(F_qp))
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_warm_started_korn_matches_a_fresh_solve(d):
    grid = (StructuredGrid((6, 6), (1.0, 1.0), dirichlet_faces=("y0",)) if d == 2 else
            StructuredGrid((3, 2, 2), (1.0, 0.7, 1.3), dirichlet_faces=("x0",)))
    state = KornState()
    for F in drifting_gradients(grid, np.random.default_rng(60 + d)):
        warm = korn_constant(grid, F, state)
        fresh = korn_constant(grid, F)
        assert fresh > 0.0
        assert abs(warm - fresh) <= 1e-12 * fresh


def test_a_warm_korn_solve_of_the_same_state_ends_at_once():
    # the kept z already meets KORN_TOL at the same F: one Lanczos step and
    # the recomputed residual, no more than four products with C
    grid = grid66()
    F = const_F(grid, random_feasible_gradient(np.random.default_rng(5), 2))
    state = KornState()
    cold = korn_constant(grid, F, state)
    kinds = []
    transform = grid.h1_transform

    def counted(X, kind, *args):
        kinds.append(kind)
        return transform(X, kind, *args)

    grid.h1_transform = counted
    warm = korn_constant(grid, F, state)
    assert "S^-1" not in kinds and kinds.count("S") == kinds.count("ST") <= 4
    assert abs(warm - cold) <= 1e-12 * cold


@pytest.mark.parametrize("extents, faces", [((3, 3, 3), ("x0",)), ((3, 3, 3), ("x0", "x1")),
                                            ((3, 2, 2), ("x0",))])
def test_korn_finds_the_lowest_mode_of_a_grid_symmetric_about_its_clamp(extents, faces):
    # at F = I the field of ones is B-orthogonal to the lowest mode here, so
    # a start from ones alone converges to the next eigenvalue
    grid = StructuredGrid(extents, (1.0, 1.0, 1.0), dirichlet_faces=faces)
    F = const_F(grid, np.eye(3))
    free = np.repeat(grid.free_sdofs, 3)
    A = grid.assemble_hessian(3, c4=viscous_form(F), free=free).toarray()
    B = reference_gram(grid, 3, free_only=True).toarray()
    ref = scipy.linalg.eigh(A, B, eigvals_only=True, subset_by_index=[0, 0])[0]
    state = KornState()
    value = korn_constant(grid, F, state)
    assert state.lower_ref <= ref
    assert abs(value - ref) <= 1e-10


def test_korn_converges_on_a_rough_3d_state_without_a_factorization(monkeypatch):
    # F drawn at every quadrature point: Lanczos needs some 80 steps here
    # (a cap of 30 misses), and the value must match a dense eigensolve
    grid = StructuredGrid((3, 3, 3), (1.0, 1.0, 1.0), dirichlet_faces=("x0",))
    rng = np.random.default_rng(0)
    F = np.stack([random_feasible_gradient(rng, 3) for _ in range(grid.n_cells * grid.nq)])
    F = F.reshape(grid.n_cells, grid.nq, 3, 3)
    free = np.repeat(grid.free_sdofs, 3)
    A = grid.assemble_hessian(3, c4=viscous_form(F), free=free).toarray()
    B = reference_gram(grid, 3, free_only=True).toarray()
    ref = scipy.linalg.eigh(A, B, eigvals_only=True, subset_by_index=[0, 0])[0]

    def no_factorization(*args, **kwargs):
        raise AssertionError("korn_constant factorized the Korn form")

    monkeypatch.setattr(diagnostics, "splu", no_factorization)
    state = KornState()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = korn_constant(grid, F, state)
    assert abs(value - ref) <= 1e-12
    assert state.lower_ref <= ref
    # a capped solve reports its miss with a warning
    monkeypatch.setattr(diagnostics, "KORN_MAX_ITER", 30)
    with pytest.warns(UserWarning):
        korn_constant(grid, F)


def test_korn_constant_of_a_steady_run_is_constant():
    # the load-free 16x16 steady state is bit-identical from step to step, so
    # the first step's solve certifies every later one with no solve, and
    # its lower bound is the same on every step
    grid = StructuredGrid((16, 16), (1.0, 1.0), dirichlet_faces=("y0",))
    traj = run(steady(grid=grid, T=0.1), tau=0.01, eps=0.01,
               config=SolverConfig(korn_every=1, hk_every=0))
    korn = [d.korn_const for d in traj.step_diags]
    lower = [d.korn_lower for d in traj.step_diags]
    assert len(korn) == 10 and korn[0] > 0.0
    assert np.isnan(korn[1:]).all()
    assert 0.0 < lower[0] <= korn[0] and all(v == lower[0] for v in lower)
    assert run_certificates(traj)["korn_solves"] == 1


# Reference Korn constants of each end state of the 16x16 shear pulse below
# and of the one-step 4x4x4 shear pulse, from korn_constant started from ones
PARENT_KORN = {2: [0.27033609576139594, 0.2703360900520648, 0.2703360339239295,
                   0.27033578074222264, 0.27033502997708936],
               3: [0.25656682314199136]}


def shear_run(d):
    """A short shear pulse with the Korn certificate on every step: 16x16 and
    five steps, or 4x4x4 and one step."""
    if d == 2:
        grid = StructuredGrid((16, 16), (1.0, 1.0), dirichlet_faces=("y0",))
        sc, tau = shear_pulse(grid=grid, T=0.1, amplitude=0.15, t_pulse=0.5), 0.02
    else:
        grid = StructuredGrid((4, 4, 4), (1.0, 1.0, 1.0), dirichlet_faces=("x0",))
        model = MaterialModel(d=3, q=13.0, c2=12.0 / 13.0)
        sc = shear_pulse(grid=grid, model=model, T=0.05, amplitude=0.15, t_pulse=0.5)
        tau = 0.05
    return run(sc, tau=tau, eps=0.01, config=SolverConfig(korn_every=1, hk_every=0))


@pytest.mark.parametrize("d", [2, 3])
def test_korn_lower_bounds_the_constant_of_perturbed_states(d, monkeypatch):
    traj = shear_run(d)
    grid = traj.grid
    diags = traj.step_diags
    assert np.isfinite(diags[0].korn_const)   # a run's first certificate solves
    assert run_certificates(traj)["korn_solves"] == 1   # and certifies every later step
    for dg, ref in zip(diags, PARENT_KORN[d], strict=True):
        assert dg.korn_lower <= ref
        if np.isfinite(dg.korn_const):
            assert abs(dg.korn_const - ref) <= 1e-12 * ref

    # the bound from a reference solve, at states drifting from the reference;
    # a slack of 1 keeps it in use wherever it is positive
    monkeypatch.setattr(diagnostics, "KORN_SLACK", 1.0)
    rng = np.random.default_rng(90 + d)
    shape = (grid.n_cells, grid.nq)
    random_ref = const_F(grid, random_feasible_gradient(rng, d))
    for F_ref in (traj.snapshots[-1].F, random_ref):
        state = KornState()
        korn_certificate(grid, F_ref, state)
        bounded = 0
        for drift in (1e-3, 3e-3, 3e-2):
            R = np.stack([random_feasible_gradient(rng, d) for _ in range(np.prod(shape))])
            F = (1.0 - drift) * F_ref + drift * R.reshape(shape + (d, d))
            # the drifted state, and the same state turned rigidly as a whole
            for G in (F, random_rotation(rng, d) @ F):
                korn, lower = korn_certificate(grid, G, copy.copy(state))
                # a solve of its own, started from the reference eigenvector
                fresh = korn_constant(grid, G, KornState(x=state.x))
                assert lower <= fresh, (drift, lower, fresh)
                bounded += bool(np.isnan(korn))
        assert bounded >= 4


@pytest.mark.parametrize("d", [2, 3])
def test_a_converged_korn_solve_certifies_within_its_tolerance(d):
    # the solve stops on rho = |C z - theta z|, the residual the bound subtracts
    first = shear_run(d).step_diags[0]
    assert 0.0 <= first.korn_const - first.korn_lower <= diagnostics.KORN_TOL


def planar_rotation(angle, d, rng):
    """Rotation by angle in a plane: the (0, 1) plane in 2D, a random one in 3D."""
    c, s = np.cos(angle), np.sin(angle)
    Q = np.eye(d)
    Q[:2, :2] = [[c, -s], [s, c]]
    P = random_rotation(rng, d) if d == 3 else np.eye(2)
    return P @ Q @ P.T


@pytest.mark.parametrize("d", [2, 3])
def test_korn_certifies_a_rigidly_turned_state_without_a_solve(d):
    # the Korn constant is frame indifferent, and the bound aligns the
    # reference to the turn, so it loses only rounding
    grid = (grid66() if d == 2 else
            StructuredGrid((3, 2, 2), (1.0, 0.7, 1.3), dirichlet_faces=("x0",)))
    rng = np.random.default_rng(70 + d)
    F_ref = drifting_gradients(grid, rng, count=1)[0]
    state = KornState()
    korn_certificate(grid, F_ref, state)
    for angle in (0.1, 0.5, 1.0):
        F = planar_rotation(angle, d, rng) @ F_ref
        korn, lower = korn_certificate(grid, F, copy.copy(state))
        assert np.isnan(korn), angle
        assert abs(lower - state.lower_ref) <= 1e-12 * state.lower_ref
        assert lower <= korn_constant(grid, F)


# ---------------------------------------------------------------------------
# weak residuals


def test_weak_residuals_steady_tiny():
    sc = steady(grid=grid66(), T=0.2)
    traj = run(sc, tau=0.05, eps=0.01)
    bank = TestBank(traj.grid, T=0.2, n_elements=4, seed=5)
    mech, heat = weak_residuals(traj, bank)
    assert mech <= 1e-9
    assert heat <= 1e-9


def test_weak_residuals_detect_corruption(pulse_traj):
    bank = TestBank(pulse_traj.grid, T=0.3, n_elements=4, seed=5)
    base_m, base_h = weak_residuals(pulse_traj, bank)
    import copy
    bad = copy.copy(pulse_traj)
    bad.snapshots = list(pulse_traj.snapshots)
    snap = copy.copy(bad.snapshots[3])
    y_bad = snap.y.copy()
    y_bad.values += 0.01
    apply_dirichlet_identity(pulse_traj.grid, y_bad)
    kin = pulse_traj.grid.eval_kinematics(y_bad)
    snap.y, snap.F, snap.G, snap.detF = y_bad, kin.F, kin.G, kin.detF
    bad.snapshots[3] = snap
    m2, h2 = weak_residuals(bad, bank)
    assert (m2 + h2) > 10.0 * (base_m + base_h)


@pytest.mark.parametrize("extents, lengths, faces, T", [
    ((6, 6), (1.0, 1.0), ("y0",), 0.6),
    ((6, 6), (1.0, 1.0), ("x0",), 0.3),
    ((6, 5), (1.0, 1.0), ("y0",), 0.3),
    ((6, 6), (1.0, 1.2), ("y0",), 0.3),
], ids=["end-time", "clamped-faces", "extents", "lengths"])
def test_weak_residuals_refuse_a_bank_built_for_another_run(pulse_traj, extents, lengths,
                                                             faces, T):
    # the thermal test fields vanish only at the bank's T, and the mechanical
    # ones only on the bank's clamped faces
    bank = TestBank(StructuredGrid(extents, lengths, dirichlet_faces=faces), T=T,
                    n_elements=2, seed=5)
    with pytest.raises(ValueError, match="test bank built"):
        weak_residuals(pulse_traj, bank)


def test_weak_residuals_take_a_bank_built_on_an_equal_grid(pulse_traj):
    assert pulse_traj.snapshots[-1].t == 6 * 0.05 != 0.3
    own = weak_residuals(pulse_traj, TestBank(pulse_traj.grid, T=0.3, n_elements=2, seed=5))
    assert weak_residuals(pulse_traj, TestBank(grid66(), T=0.3, n_elements=2, seed=5)) == own


def test_isothermal_weak_residual_mech_only():
    sc = isothermal_creep(grid=grid66(), T=0.2, amplitude=0.05)
    traj = run(sc, tau=0.05, eps=0.0)
    bank = TestBank(traj.grid, T=0.2, n_elements=4, seed=5)
    mech, heat = weak_residuals(traj, bank)
    assert np.isfinite(mech)
    assert heat == 0.0


def loop_weak_residuals(traj, bank):
    """Reference audit: a per-element loop over every time node, term by
    term, on the bank's fields expanded to the quadrature points; no sum
    factorization and no pairing per snapshot."""
    grid, model = traj.grid, traj.model
    scenario = traj.scenario
    eps = traj.eps
    tables = bank_tables(bank)
    ne = len(tables.V)
    mech_res = np.zeros(ne)
    heat_res = np.zeros(ne)
    for k in range(1, traj.n_steps + 1):
        s0, s1 = traj.snapshots[k - 1], traj.snapshots[k]
        tau = s1.t - s0.t
        rate = (s1.F - s0.F) / tau
        g, w = np.polynomial.legendre.leggauss(5)
        ts, ws = 0.5 * tau * g + 0.5 * (s0.t + s1.t), 0.5 * tau * w
        for t, wt in zip(ts, ws):
            lam = (t - s0.t) / tau
            F = (1 - lam) * s0.F + lam * s1.F
            G = (1 - lam) * s0.G + lam * s1.G
            th_qp = np.maximum((1 - lam) * s0.theta_qp + lam * s1.theta_qp, 0.0)
            w_qp = (1 - lam) * s0.w_qp + lam * s1.w_qp
            theta_blend = NodalField(grid, (1 - lam) * s0.theta.values + lam * s1.theta.values)
            _, gth = grid.eval_scalar(theta_blend)

            stress = (model.viscous_stress(F, rate, th_qp) + eps * rate
                      + model.elastic_stress(F))
            if not scenario.isothermal:
                stress = stress + model.coupling_stress(F, th_qp)
            hyper = model.hyperstress(G)

            if not scenario.isothermal:
                Kt = model.pullback_conductivity(F, th_qp)
                flux = np.einsum("cqab,cqb->cqa", Kt, gth)
                xi = model.dissipation_rate(F, rate, th_qp)
                xi_reg = xi / (1.0 + eps * xi)
                src = xi_reg + np.sum(model.coupling_stress(F, th_qp) * rate, axis=(-2, -1))

            for e in range(ne):
                s_t, r_t, rd_t = bank.s(t)[e], bank.r(t)[e], bank.rdot(t)[e]
                dens = (np.einsum("cqib,cqib->cq", stress, tables.gradZ[e])
                        + np.einsum("cqibg,cqibg->cq", hyper, tables.hessZ[e]))
                contrib = grid.assemble_scalar(dens)
                if scenario.traction is not None:
                    for name in grid.neumann_faces:
                        p = grid.faces[name]
                        fval = np.asarray(scenario.traction(t, name, p.qcoords), dtype=float)
                        contrib -= float(np.einsum(
                            "cqi,cqi,q->", fval, tables.Zface[name][e], p.weights))
                mech_res[e] += wt * s_t * contrib

                if scenario.isothermal:
                    continue
                hdens = (np.einsum("cqa,cqa->cq", flux, tables.gradV[e]) * r_t
                         - src * r_t * tables.V[e]
                         - w_qp * rd_t * tables.V[e])
                hcontrib = grid.assemble_scalar(hdens)
                for name, p in grid.faces.items():
                    thf = ((1 - lam) * grid.eval_face_scalar(name, s0.theta)
                           + lam * grid.eval_face_scalar(name, s1.theta))
                    tb = scenario.theta_b / (1.0 + eps * scenario.theta_b)
                    hcontrib += model.kappa * float(np.einsum(
                        "cq,cq,q->", thf - tb, tables.Vface[name][e], p.weights)) * r_t
                heat_res[e] += wt * hcontrib

    if not scenario.isothermal:
        s0 = traj.snapshots[0]
        for e in range(ne):
            heat_res[e] -= bank.r(0.0)[e] * grid.assemble_scalar(s0.w_qp * tables.V[e])
    return (float(np.sqrt(np.mean(mech_res**2))),
            float(np.sqrt(np.mean(heat_res**2))))


def shear3d_traj():
    grid = StructuredGrid((2, 2, 2), (1.0, 1.0, 1.0), dirichlet_faces=("x0",))
    model = MaterialModel(d=3, q=13.0, c2=12.0 / 13.0)   # stress-free identity in 3D
    sc = shear_pulse(grid=grid, model=model, T=0.05, amplitude=0.15, t_pulse=0.5)
    return run(sc, tau=0.05, eps=0.01)


def nonsquare_traj(extents, lengths):
    """A heated shear pulse on a box whose axes differ in cells and length,
    so that a swapped axis in the audit's tensor layout changes its result."""
    grid = StructuredGrid(extents, lengths, dirichlet_faces=("x0",))
    model = MaterialModel(d=grid.d, **({"q": 13.0, "c2": 12.0 / 13.0} if grid.d == 3 else {}))
    sc = shear_pulse(grid=grid, model=model, T=0.1, amplitude=0.2, t_pulse=0.1,
                     theta0=1.0, theta_b=0.6)
    return run(sc, tau=0.05, eps=0.01, config=SolverConfig(korn_every=0, hk_every=0))


@pytest.mark.parametrize("case", ["pulse", "isothermal", "3d", "2d-nonsquare", "3d-nonsquare"])
def test_weak_residuals_match_per_element_loop(case, pulse_traj):
    traj = {"pulse": lambda: pulse_traj,
            "isothermal": lambda: run(isothermal_creep(grid=grid66(), T=0.1, amplitude=0.05),
                                      tau=0.05, eps=0.0),
            "3d": shear3d_traj,
            "2d-nonsquare": lambda: nonsquare_traj((5, 3), (1.3, 0.7)),
            "3d-nonsquare": lambda: nonsquare_traj((3, 2, 4), (0.9, 1.1, 1.4))}[case]()
    bank = TestBank(traj.grid, T=traj.scenario.T, n_elements=5, seed=3)
    got, ref = weak_residuals(traj, bank), loop_weak_residuals(traj, bank)
    assert ref[0] > 0.0
    for g, r in zip(got, ref):
        assert abs(g - r) <= 1e-15 + 1e-9 * abs(r), (got, ref)


def test_weak_residuals_trace_each_snapshot_once(pulse_traj, monkeypatch):
    grid = pulse_traj.grid
    bank = TestBank(grid, T=0.3, n_elements=4, seed=5)
    calls = []
    trace = grid.eval_face_scalar

    def counted(*args):
        calls.append(args)
        return trace(*args)

    monkeypatch.setattr(grid, "eval_face_scalar", counted)
    weak_residuals(pulse_traj, bank)
    assert len(calls) == len(pulse_traj.snapshots) * len(grid.faces)


def test_weak_residuals_pair_no_all_zero_field(pulse_traj, monkeypatch):
    # the shear pulse loads y1 only, and only up to t_pulse: the tractions of
    # x0 and x1, and of y1 after the pulse, are exact zeros and pair to zero
    assert {"x0", "x1"} <= set(pulse_traj.grid.neumann_faces)
    pair_lines, nonzero = diagnostics._pair_lines, []

    def watched(fields, tables):
        nonzero.append(bool(np.any(fields)))
        return pair_lines(fields, tables)

    monkeypatch.setattr(diagnostics, "_pair_lines", watched)
    weak_residuals(pulse_traj, TestBank(pulse_traj.grid, T=0.3, n_elements=4, seed=5))
    assert nonzero and all(nonzero)


def run_python(code, *flags):
    """Run ``code`` in a fresh interpreter that imports this thermovisc."""
    src = os.path.dirname(os.path.dirname(thermovisc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)


def test_weak_residual_audit_does_not_import_sympy():
    code = ("import sys\n"
            "from thermovisc.diagnostics import TestBank, weak_residuals\n"
            "from thermovisc.grid import StructuredGrid\n"
            "from thermovisc.presets import steady\n"
            "from thermovisc.scheme import run\n"
            "grid = StructuredGrid((3, 3), (1.0, 1.0), dirichlet_faces=('y0',))\n"
            "traj = run(steady(grid=grid, T=0.1), tau=0.05, eps=0.01)\n"
            "weak_residuals(traj, TestBank(grid, T=0.1, n_elements=2, seed=5))\n"
            "print('sympy' in sys.modules)\n")
    assert run_python(code).stdout.strip() == "False"


def test_ledger_check_refuses_a_tampered_row_under_python_O():
    # python -O strips an assert, which let a row whose items miss its gap pass
    code = ("import dataclasses\n"
            "from thermovisc.diagnostics import total_energy_check\n"
            "from thermovisc.grid import StructuredGrid\n"
            "from thermovisc.mech import SolverConfig\n"
            "from thermovisc.presets import shear_pulse\n"
            "from thermovisc.scheme import run\n"
            "grid = StructuredGrid((3, 3), (1.0, 1.0), dirichlet_faces=('y0',))\n"
            "sc = shear_pulse(grid=grid, T=0.1, amplitude=0.1, t_pulse=0.08)\n"
            "traj = run(sc, tau=0.05, eps=0.01, config=SolverConfig(korn_every=0, hk_every=0))\n"
            "total_energy_check(traj, 1)\n"
            "d = traj.step_diags[0]\n"
            "traj.step_diags[0] = dataclasses.replace(d, energy_gap_total=d.energy_gap_total + 1e-6)\n"
            "try:\n"
            "    total_energy_check(traj, 1)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    out = run_python(code, "-O").stdout
    assert out.startswith("step 1: the ledger items sum to "), out


@pytest.mark.parametrize("extents, lengths, faces", [
    ((4, 3), (1.3, 0.7), ("x0", "x1")),
    ((2, 2, 3), (0.9, 1.1, 1.4), ("y1", "z0", "z1")),
], ids=["2d", "3d"])
def test_test_bank_derivatives_match_central_differences(extents, lengths, faces):
    grid = StructuredGrid(extents, lengths, dirichlet_faces=faces)
    h = 1e-5

    def bank_at(shift):
        g = copy.copy(grid)
        g.qcoords = grid.qcoords + shift
        return bank_tables(TestBank(g, T=1.0, n_elements=3, seed=11))

    base = bank_at(0.0)
    for b in range(grid.d):
        plus = bank_at(h * np.eye(grid.d)[b])
        minus = bank_at(-h * np.eye(grid.d)[b])
        for key, dkey in (("Z", "gradZ"), ("gradZ", "hessZ"), ("V", "gradV")):
            for e in range(3):
                fd = (getattr(plus, key)[e] - getattr(minus, key)[e]) / (2.0 * h)
                exact = getattr(base, dkey)[e][..., b]
                assert np.max(np.abs(fd - exact)) <= 1e-7 * max(1.0, np.max(np.abs(exact))), dkey
    for name in faces:   # mechanical tests vanish exactly on the fixed faces
        assert np.all(base.Zface[name] == 0.0)


def test_test_bank_holds_under_a_megabyte_at_6x6x6():
    # the bank keeps 1D factors only; element-by-point tables held 48.7 MB here
    bank = TestBank(StructuredGrid((6, 6, 6), (1.0, 1.0, 1.0)), T=1.0)
    held = {}
    for value in vars(bank).values():
        for a in value if isinstance(value, list) else [value]:
            while isinstance(a, np.ndarray) and a.base is not None:
                a = a.base
            if isinstance(a, np.ndarray):
                held[id(a)] = a.nbytes
    assert 0 < sum(held.values()) < 2**20, held


# Entries of element 3 of TestBank(grid, T=0.3, n_elements=4, seed=1234),
# recorded from the earlier symbolic (sympy) construction of the same
# fields; a changed rng draw order or a wrong derivative moves them.
BANK_PINS = {
    "2d": (((5, 4), (1.3, 0.7), ("x0", "x1")), "y1", {
        "Z": [0.07182643915302879, -0.0022494982011009163],
        "gradZ": [-0.6742048531078825, 0.013801041960485623],
        "hessZ": [0.8045417164791963, -1.4467317142434895],
        "V": -0.7217486918552493,
        "gradV": [-2.111788191822282, -1.8534107069342274],
        "Zface": [0.003342555012586008, -0.15250621066065503],
        "Vface": 0.0012360249121278254,
        "s_r_rdot": [0.9387124318406103, -0.1947585620952035, -10.931546696981593],
    }),
    "3d": (((3, 2, 4), (0.9, 1.1, 1.4), ("x0", "y1", "z0", "z1")), "x1", {
        "Z": [0.032705769886642554, -0.018486148033055743, -0.008571953438547856],
        "gradZ": [0.01956342592123996, 0.2635093504699783, -0.015208317944156172],
        "hessZ": [0.06046034578576033, -0.01597212095977756, -0.3702100875367438],
        "V": 0.022818415404253067,
        "gradV": [2.764645822449542, -0.018541382581003928, -0.01317282976043662],
        "Zface": [-0.007078875159884479, 0.016501334764229037, -0.00019169886339954668],
        "Vface": 0.09590284077501228,
        "s_r_rdot": [0.0852688258546315, 0.5391143360296774, -5.161975638308547],
    }),
}


@pytest.mark.parametrize("case", sorted(BANK_PINS))
def test_test_bank_pinned_entries(case):
    (extents, lengths, faces), face, want = BANK_PINS[case]
    grid = StructuredGrid(extents, lengths, dirichlet_faces=faces)
    bank = TestBank(grid, T=0.3, n_elements=4, seed=1234)
    tables = bank_tables(bank)
    got = {"Z": tables.Z[3, 7, 5], "gradZ": tables.gradZ[3, 7, 5, -1],
           "hessZ": tables.hessZ[3, 7, 5, 0, -1], "V": tables.V[3, 7, 5],
           "gradV": tables.gradV[3, 7, 5], "Zface": tables.Zface[face][3, 1, 2],
           "Vface": tables.Vface[face][3, 1, 2],
           "s_r_rdot": [bank.s(0.1)[3], bank.r(0.1)[3], bank.rdot(0.1)[3]]}
    for key, value in want.items():
        np.testing.assert_allclose(got[key], value, rtol=0.0, atol=1e-12, err_msg=key)


# ---------------------------------------------------------------------------
# run certificates


def test_run_certificates_pass_on_pulse(pulse_traj):
    report = run_certificates(pulse_traj)
    assert report["all_passed"], report
    names = {c["name"] for c in report["checks"]}
    assert {"mech_descent_violations", "min_theta", "min_detF_positive",
            "hk_bound_positive", "entropy_production_nonnegative",
            "energy_ledger_closes", "enthalpy_consistency"} <= names


def test_energy_ledger_fails_a_heat_step_without_its_dissipation_source(monkeypatch):
    # a mutant heat step that drops the capped dissipation source: the ledger
    # computes that source from the snapshots, so its gap opens
    init = HeatIncrement.__post_init__

    def no_source(self):
        init(self)
        self.xi_reg_qp = np.zeros_like(self.xi_reg_qp)

    monkeypatch.setattr(HeatIncrement, "__post_init__", no_source)
    sc = shear_pulse(grid=StructuredGrid((8, 8), (1.0, 1.0), dirichlet_faces=("y0",)),
                     T=0.4, amplitude=4.0, t_pulse=0.25, theta0=1.0, theta_b=0.5)
    report = run_certificates(run(sc, tau=0.05, eps=0.01))
    ledger = next(c for c in report["checks"] if c["name"] == "energy_ledger_closes")
    assert not ledger["passed"] and ledger["value"] > 1e3 * ledger["threshold"], ledger


def test_run_certificates_judge_min_theta_by_the_run_tol_pos():
    # an undershoot of 1e-8 is inside tol_pos = 1e-7 and outside the default 1e-10
    def min_theta_check(config):
        traj = run(steady(grid=grid66(), T=0.05), tau=0.05, eps=0.01, config=config)
        traj.step_diags = [dataclasses.replace(traj.step_diags[0], min_theta=-1e-8)]
        return next(c for c in run_certificates(traj)["checks"] if c["name"] == "min_theta")

    check = min_theta_check(SolverConfig(tol_pos=1e-7, korn_every=0))
    assert check["passed"] and check["threshold"] == -1e-7
    check = min_theta_check(SolverConfig(korn_every=0))
    assert not check["passed"] and check["threshold"] == -1e-10


@pytest.fixture(scope="module")
def two_step_traj():
    sc = shear_pulse(grid=StructuredGrid((3, 3), (1.0, 1.0), dirichlet_faces=("y0",)),
                     T=0.1, amplitude=0.2, t_pulse=0.1)
    return run(sc, tau=0.05, eps=0.01)


@pytest.mark.parametrize("row", [0, 1])
@pytest.mark.parametrize("field,check", [
    ("energy_gap_total", "energy_ledger_closes"),
    ("hk_bound", "hk_bound_positive"),
    ("korn_lower", "korn_lower_positive"),
    ("descent_gap", "mech_descent_violations"),
    ("min_theta", "min_theta"),
    ("min_detF", "min_detF_positive"),
    ("entropy_prod", "entropy_production_nonnegative"),
    ("w_qp", "enthalpy_consistency"),
])
def test_run_certificates_fail_on_nan(two_step_traj, field, check, row):
    # a NaN in one step row (for w_qp, in the end state of that row's step)
    # fails its check wherever the row stands
    assert run_certificates(two_step_traj)["all_passed"]
    bad = copy.copy(two_step_traj)
    if field == "w_qp":
        bad.snapshots = list(two_step_traj.snapshots)
        snap = bad.snapshots[row + 1]
        w = snap.w_qp.copy()
        w[0, 0] = np.nan
        bad.snapshots[row + 1] = dataclasses.replace(snap, w_qp=w)
    else:
        bad.step_diags = list(two_step_traj.step_diags)
        bad.step_diags[row] = dataclasses.replace(bad.step_diags[row], **{field: np.nan})
    report = run_certificates(bad)
    assert not next(c for c in report["checks"] if c["name"] == check)["passed"]
    assert not report["all_passed"]
