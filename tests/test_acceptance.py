"""Acceptance suite: every exit criterion at its stated tolerance.

Runs the desk-scale matrix (2D, 16x16 to 24x24 cells, 20-100 steps per
run) and prints one pass/fail line per criterion (use -s to see them on
success).  The trajectories computed here double as "the test matrix"
for the matrix-wide criteria (descent, positivity, entropy).
"""

import numpy as np
import pytest

from thermovisc.diagnostics import (
    TestBank,
    korn_constant,
    mechanical_energy_check,
    total_energy_check,
    total_entropy,
    weak_residuals,
)
from thermovisc.grid import NodalField, StructuredGrid
from thermovisc.heat import HeatIncrement, heat_functional, heat_gradient
from thermovisc.materials import MaterialModel, rate_of_cauchy_green
from thermovisc.mech import MechIncrement, SolverConfig, incremental_functional, incremental_gradient
from thermovisc.presets import isothermal_creep, press_pulse, shear_pulse, steady
from thermovisc.scheme import refinement_study, run

from helpers import apply_dirichlet_identity, random_feasible_gradient, random_rotation

MODEL = MaterialModel()
_LINES = []


def report(num, name, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:02d} ({name}): {detail}"
    _LINES.append(line)
    print(line)
    assert passed, line


@pytest.fixture(scope="module", autouse=True)
def summary():
    yield
    print("\n" + "\n".join(_LINES))


def grid16():
    return StructuredGrid((16, 16), (1.0, 1.0), dirichlet_faces=("y0",))


@pytest.fixture(scope="module")
def matrix():
    """The acceptance test matrix: every run the criteria range over."""
    runs = {}
    runs["steady"] = run(steady(grid=grid16(), T=1.0), tau=0.01, eps=0.01)
    runs["shear"] = run(shear_pulse(grid=grid16(), T=1.0, amplitude=0.15,
                                    t_pulse=0.5), tau=0.02, eps=0.01)
    runs["insulated"] = run(shear_pulse(grid=grid16(), model=MaterialModel(kappa=1e-6),
                                        T=0.6, amplitude=0.2, t_pulse=0.4),
                            tau=0.02, eps=0.01,
                            config=SolverConfig(korn_every=0))
    runs["isothermal"] = run(isothermal_creep(grid=grid16(), T=0.4, amplitude=0.05),
                             tau=0.02, eps=0.0,
                             config=SolverConfig(korn_every=0))
    return runs


@pytest.fixture(scope="module")
def tau_study():
    sc = shear_pulse(grid=grid16(), T=0.4, amplitude=0.15, t_pulse=0.25)
    return refinement_study(sc, tau_list=[0.1, 0.05, 0.025, 0.0125],
                            eps_list=[0.01])


# ---------------------------------------------------------------------------


def test_criterion_01_gradient_consistency():
    rng = np.random.default_rng(101)
    worst = 0.0

    def fd_grad(f, X, h=1e-6):
        g = np.zeros_like(X)
        it = np.nditer(X, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            Xp, Xm = X.copy(), X.copy()
            Xp[i] += h
            Xm[i] -= h
            g[i] = (f(Xp) - f(Xm)) / (2.0 * h)
        return g

    def check(analytic, fd, floor=1e-4):
        nonlocal worst
        analytic, fd = np.asarray(analytic), np.asarray(fd)
        scale = np.max(np.abs(fd))
        err = np.max(np.abs(analytic - fd))
        rel = err / scale if scale > floor else 0.0
        if scale <= floor:           # roundoff-limited FD: absolute check
            assert err < 1e-8
        worst = max(worst, rel)
        assert rel <= 1e-5

    # material derivatives at 100+ random admissible points
    for _ in range(100):
        F = random_feasible_gradient(rng, 2, spread=0.3)
        th = rng.uniform(0.05, 3.0)
        G = rng.standard_normal((2, 2, 2))
        Fd = rng.standard_normal((2, 2))
        check(MODEL.elastic_stress(F), fd_grad(MODEL.elastic_energy, F))
        check(MODEL.coupling_stress(F, th),
              fd_grad(lambda X: MODEL.coupling_energy(X, th), F))
        check(MODEL.hyperstress(G), fd_grad(MODEL.hyperstress_energy, G))
        check(MODEL.viscous_stress(F, Fd, th),
              fd_grad(lambda X: 0.5 * MODEL.dissipation_rate(F, X, th), Fd))
        h = 1e-6
        check(MODEL.coupling_dtheta(F, th),
              (MODEL.coupling_energy(F, th + h) - MODEL.coupling_energy(F, th - h)) / (2 * h))
        check(MODEL.enthalpy(F, th),
              (MODEL.w_total_ext(MODEL.phi1(F), th + h)[0]
               - MODEL.w_total_ext(MODEL.phi1(F), th - h)[0]) / (2 * h))

    # assembled gradients: grid energy, mechanical increment, thermal update
    grid = StructuredGrid((3, 3), (1.0, 1.0), dirichlet_faces=("y0",))
    y = grid.identity_field()
    y.values += 0.02 * rng.standard_normal(y.values.shape)
    apply_dirichlet_identity(grid, y)

    def grid_energy(vals):
        kin = grid.eval_kinematics(NodalField(grid, vals))
        return grid.assemble_scalar(MODEL.elastic_energy(kin.F)
                                    + MODEL.hyperstress_energy(kin.G))

    kin = grid.eval_kinematics(y)
    g_assembled = grid.assemble_gradient(2, stress=MODEL.elastic_stress(kin.F),
                                         hyperstress=MODEL.hyperstress(kin.G))
    theta_qp = np.ones((grid.n_cells, grid.nq))
    load = 0.05 * rng.standard_normal((grid.n_sdofs, 2))
    F_id = grid.eval_kinematics(grid.identity_field()).F
    inc = MechIncrement(grid=grid, model=MODEL, y_prev=grid.identity_field(),
                        theta_prev_qp=theta_qp, tau=0.05, eps=0.01,
                        load_vector=load, F_prev=F_id)
    r_mech, _ = incremental_gradient(inc, y)
    w_prev = MODEL.enthalpy(kin.F, theta_qp)
    hinc = HeatIncrement(grid=grid, model=MODEL, theta_prev=grid.constant_field(1.0),
                         w_prev_qp=w_prev, tau=0.05, eps=0.01,
                         theta_b=0.8,
                         F_prev=F_id, F_new=kin.F)
    th_field = NodalField(grid, grid.constant_field(1.0).values
                          + 0.1 * rng.standard_normal(grid.n_sdofs))
    r_heat = heat_gradient(hinc, th_field)

    h = 1e-6
    for _ in range(100):
        dv = rng.standard_normal(y.values.shape)
        dv[grid.dirichlet_sdofs] = 0.0
        dv /= np.linalg.norm(dv)
        fd = (grid_energy(y.values + h * dv) - grid_energy(y.values - h * dv)) / (2 * h)
        check(np.sum(g_assembled * dv), fd)
        Jp, _ = incremental_functional(inc, NodalField(grid, y.values + h * dv))
        Jm, _ = incremental_functional(inc, NodalField(grid, y.values - h * dv))
        check(np.sum(r_mech * dv), (Jp - Jm) / (2 * h))
        ds = rng.standard_normal(grid.n_sdofs)
        ds /= np.linalg.norm(ds)
        fp = heat_functional(hinc, NodalField(grid, th_field.values + h * ds))
        fm = heat_functional(hinc, NodalField(grid, th_field.values - h * ds))
        check(np.dot(r_heat, ds), (fp - fm) / (2 * h))

    report(1, "gradient consistency", True,
           f"worst relative error {worst:.2e} (tol 1e-5, >=100 points per family)")


def test_criterion_02_frame_indifference():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        F = random_feasible_gradient(rng, 2, spread=0.3)
        Fd = rng.standard_normal((2, 2))
        th = rng.uniform(0.0, 2.0)
        R = random_rotation(rng, 2)
        w = rng.standard_normal()
        Rdot = R @ np.array([[0.0, -w], [w, 0.0]])

        def rel(a, b, scale):
            return np.max(np.abs(np.asarray(a) - np.asarray(b))) / max(scale, 1e-3)

        sig = MODEL.elastic_stress(F) + MODEL.coupling_stress(F, th)
        sigR = MODEL.elastic_stress(R @ F) + MODEL.coupling_stress(R @ F, th)
        worst = max(worst, rel(sigR, R @ sig, np.max(np.abs(sig)) + 1.0))
        worst = max(worst, rel(MODEL.elastic_energy(R @ F), MODEL.elastic_energy(F),
                               abs(MODEL.elastic_energy(F))))
        worst = max(worst, rel(MODEL.coupling_energy(R @ F, th),
                               MODEL.coupling_energy(F, th), 1.0))
        lhs = MODEL.viscous_stress(R @ F, Rdot @ F + R @ Fd, th)
        rhs = R @ MODEL.viscous_stress(F, Fd, th)
        worst = max(worst, rel(lhs, rhs, np.max(np.abs(rhs)) + 1.0))
        C = F.T @ F
        Cd = rate_of_cauchy_green(F, Fd)
        worst = max(worst, rel(MODEL.viscous_potential(C, Cd, th),
                               0.5 * MODEL.dissipation_rate(F, Fd, th),
                               MODEL.dissipation_rate(F, Fd, th) + 1.0))
        # pure rigid rotation rate: zero dissipation
        xi_rigid = MODEL.dissipation_rate(F, Rdot @ (R.T @ F), th)
        worst = max(worst, xi_rigid / (np.sum(F * F) ** 2 + 1.0))
    report(2, "frame indifference", worst <= 1e-12,
           f"worst relative identity error {worst:.2e} (tol 1e-12)")


def test_criterion_03_equilibrium_preservation(matrix):
    traj = matrix["steady"]
    assert traj.n_steps == 100
    y0, th0 = traj.snapshots[0].y.values, traj.snapshots[0].theta.values
    drift = max(max(np.max(np.abs(s.y.values - y0)) for s in traj.snapshots),
                max(np.max(np.abs(s.theta.values - th0)) for s in traj.snapshots))
    worst_bal = 0.0
    for k in range(1, traj.n_steps + 1):
        d = traj.step_diags[k - 1]
        worst_bal = max(worst_bal, abs(d.energy_gap_total), d.mech_residual,
                        d.heat_residual, abs(mechanical_energy_check(traj, k)[0]))
    ok = drift == 0.0 and worst_bal <= 1e-9
    report(3, "equilibrium preservation", ok,
           f"state drift {drift:.1e}, worst balance residual {worst_bal:.2e} "
           f"over 100 steps (tol 1e-9)")


def test_criterion_04_per_step_descent(matrix, tau_study):
    n_steps = 0
    violations = 0
    for traj in list(matrix.values()) + list(tau_study["trajectories"].values()):
        for d in traj.step_diags:
            n_steps += d.substeps
            if d.descent_gap < 0.0:
                violations += 1
    report(4, "per-step descent", violations == 0,
           f"{violations} violations over {n_steps} accepted mechanical steps "
           f"(0 allowed)")


def test_criterion_05_positivity_and_invertibility(matrix, tau_study):
    min_theta = np.inf
    min_det = np.inf
    hk_ok = True
    for traj in list(matrix.values()) + list(tau_study["trajectories"].values()):
        for d in traj.step_diags:
            min_theta = min(min_theta, d.min_theta)
            min_det = min(min_det, d.min_detF, d.iterate_min_det)
            if np.isfinite(d.hk_bound):
                hk_ok &= d.hk_bound <= d.min_detF
    ok = min_theta >= -1e-10 and min_det > 0.0 and hk_ok
    report(5, "positivity and invertibility", ok,
           f"min theta {min_theta:.2e} (tol -1e-10), min det {min_det:.3f} > 0, "
           f"certified bound below measured min det: {hk_ok}")


def test_criterion_06_enthalpy_laws(matrix):
    rng = np.random.default_rng(106)
    exact_zero = all(MODEL.enthalpy(random_feasible_gradient(rng, 2), 0.0) == 0.0
                     for _ in range(100))
    # two-sided bounds on a 10^4 sample: the slope (heat capacity) range
    # gives eps_hat and K for both the secant-from-zero and pairwise forms
    n = 10_000
    Fs = np.eye(2) + 0.4 * rng.standard_normal((n, 2, 2))
    dets = np.linalg.det(Fs)
    Fs[dets <= 0.2] = np.eye(2)
    ths = rng.uniform(1e-6, 10.0, size=n)
    th2 = rng.uniform(0.0, 10.0, size=n)
    phi1v = MODEL.phi1(Fs)
    cv = np.concatenate([MODEL.w_total_ext(phi1v, ths)[2], MODEL.w_total_ext(phi1v, th2)[2]])
    eps_hat, K = float(cv.min()), float(cv.max())
    bounds_ok = 0.0 < eps_hat <= K < np.inf
    w1 = MODEL.enthalpy(Fs, ths)
    secant_ok = bool(np.all(w1 >= (eps_hat - 1e-12) * ths)
                     and np.all(w1 <= (K + 1e-12) * ths))
    dw = np.abs(w1 - MODEL.enthalpy(Fs, th2))
    dth = np.abs(ths - th2)
    pair_ok = secant_ok and bool(
        np.all(dw >= (eps_hat - 1e-9) * dth - 1e-12)
        and np.all(dw <= (K + 1e-9) * dth + 1e-12))
    # trajectory consistency w^k = enthalpy(grad y^k, theta^k)
    worst_w = 0.0
    traj = matrix["shear"]
    for snap in traj.snapshots:
        w_check = MODEL.enthalpy(snap.F, np.maximum(snap.theta_qp, 0.0))
        worst_w = max(worst_w, float(np.max(np.abs(snap.w_qp - w_check))))
    ok = exact_zero and bounds_ok and pair_ok and worst_w <= 1e-12
    report(6, "enthalpy laws", ok,
           f"w(F,0)=0 exact: {exact_zero}; eps_hat={eps_hat:.3f}, K={K:.3f} on 1e4 "
           f"sample; trajectory w-consistency {worst_w:.1e} (tol 1e-12)")


def test_criterion_07_total_energy_ledger(matrix):
    traj = matrix["shear"]
    worst_rel = 0.0
    reg_sign_ok = True
    for k in range(1, traj.n_steps + 1):
        d = traj.step_diags[k - 1]
        ledger = total_energy_check(traj, k)
        scale = max(abs(d.E), abs(d.ext_power), d.dissipation_step, 1e-30)
        worst_rel = max(worst_rel, abs(ledger["gap"]) / scale)
        reg_sign_ok &= d.defect_reg >= 0.0
    ok = worst_rel <= 1e-8 and reg_sign_ok
    report(7, "total-energy ledger", ok,
           f"worst relative itemized gap {worst_rel:.2e} over {traj.n_steps} steps "
           f"(tol 1e-8); capped-rate item nonnegative: {reg_sign_ok}")


def test_criterion_08_entropy(matrix, tau_study):
    min_prod = np.inf
    for traj in list(matrix.values()) + list(tau_study["trajectories"].values()):
        for d in traj.step_diags:
            min_prod = min(min_prod, d.entropy_prod)
    traj = matrix["insulated"]
    totals = [total_entropy(traj.grid, traj.model, traj.snapshots[0])]
    totals += [d.entropy_total for d in traj.step_diags]
    worst_drop = min(b - a for a, b in zip(totals, totals[1:]))
    ok = min_prod >= 0.0 and worst_drop >= -1e-9
    report(8, "entropy", ok,
           f"min production {min_prod:.2e} (>=0); worst per-step total-entropy "
           f"change {worst_drop:.2e} in the insulated run (tol -1e-9)")


def test_criterion_09_korn(matrix):
    rng = np.random.default_rng(109)
    details = []
    stable_ok = True
    positive_ok = True
    for n in (16, 24):
        grid = StructuredGrid((n, n), (1.0, 1.0), dirichlet_faces=("y0",))
        FI = np.broadcast_to(np.eye(2), (grid.n_cells, grid.nq, 2, 2)).copy()
        kI = korn_constant(grid, FI)
        R = random_rotation(rng, 2)
        FR = np.broadcast_to(R, (grid.n_cells, grid.nq, 2, 2)).copy()
        kR = korn_constant(grid, FR)
        positive_ok &= kI > 0.0
        stable_ok &= abs(kR - kI) <= 1e-8 * kI
        details.append(f"n={n}: {kI:.6f} (rotation drift {abs(kR - kI) / kI:.1e})")
    # Cor-3.4-style audit: on every bounded-energy trajectory state the
    # constant stays above a positive run-level value
    korns = [d.korn_const for d in matrix["shear"].step_diags
             if np.isfinite(d.korn_const)]
    run_level = min(korns)
    sublevel_ok = run_level > 0.0
    # discontinuous-F stress test: the constant degrades under refinement
    R90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    vals = []
    for n in (6, 12, 24):
        grid = StructuredGrid((n, n), (1.0, 1.0), dirichlet_faces=("y0",))
        F = np.broadcast_to(np.eye(2), (grid.n_cells, grid.nq, 2, 2)).copy()
        F[grid.qcoords[..., 0] >= 0.5] = R90
        vals.append(korn_constant(grid, F))
    degrade_ok = vals[0] > vals[1] > vals[2]
    ok = positive_ok and stable_ok and sublevel_ok and degrade_ok
    report(9, "generalized Korn constant", ok,
           "; ".join(details) + f"; trajectory infimum {run_level:.4f} > 0; "
           f"jump-F degradation {vals[0]:.4f} > {vals[1]:.4f} > {vals[2]:.4f}")


def test_criterion_10_refinement_trends(matrix, tau_study):
    rows = tau_study["cauchy"][0.01]
    dys = [r["dy_grad_l2"] for r in rows]
    dths = [r["dtheta_l2"] for r in rows]
    tau_ok = all(b < a for a, b in zip(dys, dys[1:])) and \
        all(b < a for a, b in zip(dths, dths[1:]))

    # the eps study uses the strain-dominated normal-load pulse: rigid-spin
    # rate components are invisible to the frame-indifferent dissipation but
    # not to the linear eps-viscosity, so a shear-release scenario cannot
    # separate the two contributions cleanly
    sc = press_pulse(grid=grid16(), T=0.4, amplitude=0.15, t_pulse=0.25)
    eps_report = refinement_study(sc, tau_list=[0.025],
                                  eps_list=[1e-1, 1e-2, 1e-3])
    runs = eps_report["runs"]
    eps_rates = [r["eps_rate_norm"] for r in runs]
    reg_gaps = [r["reg_gap_l1"] for r in runs]
    total_xi = runs[-1]["total_dissipation"]
    eps_ok = (all(b < a for a, b in zip(eps_rates, eps_rates[1:]))
              and eps_rates[-1] <= 1e-3 * total_xi
              and all(b < a for a, b in zip(reg_gaps, reg_gaps[1:])))
    ok = tau_ok and eps_ok
    report(10, "refinement trends", ok,
           f"tau-Cauchy grad {['%.3e' % v for v in dys]} monotone; "
           f"eps-rate {['%.3e' % v for v in eps_rates]} with last/dissipation "
           f"{eps_rates[-1] / total_xi:.2e} (tol 1e-3); "
           f"capped-rate gap {['%.3e' % v for v in reg_gaps]} monotone")


def test_criterion_11_isothermal_mode(matrix):
    traj = matrix["isothermal"]
    assert traj.eps == 0.0 and traj.scenario.isothermal
    worst = 0.0
    for k in range(1, traj.n_steps + 1):
        d = traj.step_diags[k - 1]
        scale = max(abs(d.E), abs(d.ext_power), d.dissipation_step, 1e-30)
        worst = max(worst, abs(d.energy_gap_total) / scale)
    ok = worst <= 1e-8
    report(11, "isothermal mode", ok,
           f"itemized mechanical identity residual {worst:.2e} per step "
           f"(tol 1e-8 relative), eps=0, full rate potential active")


def test_criterion_12_weak_residual_audit(tau_study):
    trajs = tau_study["trajectories"]
    # halve from tau = 0.05: the 4-step run at tau = 0.1 leaves the pulse
    # under-resolved, which shrinks its residual for the wrong reason
    taus = [0.05, 0.025, 0.0125]
    bank = TestBank(grid16(), T=0.4, n_elements=10, seed=1234)
    mechs, heats = [], []
    for tau in taus:
        m, h = weak_residuals(trajs[(tau, 0.01)], bank)
        mechs.append(m)
        heats.append(h)
    # the tau-halving order log2(r_k / r_{k+1}) of each pair; the last pair's
    # must show first order in time for both identities
    orders = [[float(np.log2(a / b)) for a, b in zip(r, r[1:])] for r in (mechs, heats)]
    ok = (all(b < a for a, b in zip(mechs, mechs[1:]))
          and all(b < a for a, b in zip(heats, heats[1:]))
          and all(0.75 <= o[-1] <= 1.5 for o in orders))
    report(12, "weak residual audit", ok,
           f"momentum identity {['%.3e' % v for v in mechs]} (orders "
           f"{['%.2f' % v for v in orders[0]]}), heat identity "
           f"{['%.3e' % v for v in heats]} (orders {['%.2f' % v for v in orders[1]]}) "
           f"under tau-halving (monotone, last order in [0.75, 1.5])")
