"""Staggered time loop: mechanics first, then the thermal update.

Per step k the deformation is updated by the incremental mechanical
minimization at the frozen previous temperature, then the temperature by
the convex thermal minimization that uses the old deformation/temperature
in the conductivity and in the capped dissipation source but the new
deformation and the implicit temperature in the coupling term.  That
ordering and explicit/implicit split is load-bearing (it is what makes
temperatures stay nonnegative); do not permute it.

The regularization parameter eps caps the dissipation source at 1/eps,
adds eps * |grad rate|^2 of linear viscosity to the mechanical step and
damps the boundary/initial temperature data to theta/(1 + eps*theta).
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import diagnostics as diag
from .grid import NodalField, StructuredGrid, apply_dirichlet_identity
from .heat import HeatIncrement, solve_heat
from .materials import MaterialModel
from .mech import MechIncrement, SolverConfig, StepRejectedError, solve_mech
from .newton import FrozenFactor

TIME_QUAD_PTS = 4   # Gauss points in time for the per-step load and boundary averages


@dataclass
class Scenario:
    """Problem data for one run: domain, constitutive bundle, loads, data."""

    name: str
    grid: StructuredGrid
    model: MaterialModel
    T: float
    bulk_force: object = None        # g(t, X) -> (ncells, nq, d), or None
    traction: object = None          # f(t, face, X) -> (nfc, nqf, d), or None
    theta_b: object = 1.0            # scalar or callable(t, X)
    theta0: object = 1.0             # scalar or NodalField
    y0: NodalField = None            # defaults to the identity map
    isothermal: bool = False
    params: dict = field(default_factory=dict)   # a preset's effective parameters

    def __post_init__(self):
        errs = self.validate()
        if errs:
            raise ValueError("; ".join(errs))

    def validate(self):
        errs = []
        if self.T <= 0:
            errs.append(f"final time must be positive (got {self.T})")
        if self.grid.d != self.model.d:
            errs.append("grid and material dimensions disagree")
        y0 = self.y0 if self.y0 is not None else self.grid.identity_field()
        ident = self.grid.identity_field()
        mask = self.grid.dirichlet_sdofs
        if not np.allclose(y0.values[mask], ident.values[mask], atol=1e-12):
            errs.append("y0 must equal the identity on the fixed boundary part")
        kin = self.grid.eval_kinematics(y0)
        if kin.min_detF <= 0:
            errs.append("y0 must be locally invertible (min det grad y0 > 0)")
        th0 = self._theta0_field()
        if th0.values[0::self.grid.ndof_node].min() < 0:
            errs.append("theta0 must be nonnegative")
        for t in np.linspace(0.0, self.T, 5):
            for name, p in self.grid.faces.items():
                tb = self._theta_b_raw(t, name, p.qcoords)
                if np.min(tb) < 0:
                    errs.append(f"theta_b must be nonnegative (face {name}, t={t:g})")
                    break
        if not errs:
            # free energy of the initial state must be finite
            th_qp = self.grid.eval_values(th0)
            dens = (self.model.elastic_energy(kin.F)
                    + self.model.hyperstress_energy(kin.G)
                    + self.model.coupling_energy(kin.F, np.maximum(th_qp, 0.0)))
            if not np.isfinite(self.grid.assemble_scalar(dens)):
                errs.append("free energy of (y0, theta0) is not finite")
        return errs

    def _theta0_field(self):
        if isinstance(self.theta0, NodalField):
            return self.theta0
        return self.grid.constant_field(float(self.theta0))

    def _theta_b_raw(self, t, face, X):
        if callable(self.theta_b):
            return np.broadcast_to(np.asarray(self.theta_b(t, X), dtype=float),
                                   X.shape[:2]).copy()
        return np.full(X.shape[:2], float(self.theta_b))


@dataclass
class Snapshot:
    k: int
    t: float
    y: NodalField
    theta: NodalField
    w_qp: np.ndarray
    F: np.ndarray
    G: np.ndarray
    detF: np.ndarray
    theta_qp: np.ndarray
    energies: tuple = None   # (M, H, Phi_cpl, W, E), set once by _make_snapshot


@dataclass
class Trajectory:
    scenario: Scenario
    tau: float
    eps: float
    config: SolverConfig
    snapshots: list = field(default_factory=list)
    step_diags: list = field(default_factory=list)
    mech_log: list = field(default_factory=list)   # every accepted mech solve

    @property
    def grid(self):
        return self.scenario.grid

    @property
    def model(self):
        return self.scenario.model

    @property
    def first_step(self):
        """Step number of the first snapshot: 0, or the restart step."""
        return self.snapshots[0].k

    @property
    def n_steps(self):
        """Number of the last step, counted from t = 0 also after a resume."""
        return self.snapshots[-1].k

    def require_start_at_zero(self, what):
        """Reject a resumed trajectory: its snapshots begin at the restart
        step, so they cannot be indexed by step number from t = 0."""
        if self.first_step != 0:
            raise ValueError(f"{what} needs the trajectory from step 0; "
                             f"this one was resumed at step {self.first_step}")

    def step(self, k):
        """(snapshot before, snapshot after, diagnostics) of step k, the step
        from t_{k-1} to t_k, by absolute step number.  A resumed trajectory
        holds only the steps after its restart."""
        k0 = self.first_step
        if not k0 < k <= self.n_steps:
            raise ValueError(f"step {k} is not in {k0 + 1}..{self.n_steps}"
                             + (f"; this trajectory was resumed at step {k0}" if k0 else ""))
        return self.snapshots[k - k0 - 1], self.snapshots[k - k0], self.step_diags[k - k0 - 1]


def _damping_derivatives(eps):
    """First three derivatives of v -> v/(1 + eps v), for the dof chain rule."""
    def d0(v):
        return v / (1.0 + eps * v)

    def d1(v):
        return 1.0 / (1.0 + eps * v) ** 2

    def d2(v):
        return -2.0 * eps / (1.0 + eps * v) ** 3

    def d3(v):
        return 6.0 * eps**2 / (1.0 + eps * v) ** 4

    return d0, d1, d2, d3


def transform_nodal_scalar(grid, field, derivs):
    """Exact Hermite dofs of f(theta) from the dofs of theta.

    derivs = (f, f', f'', f'''). Mixed-partial dofs follow the multivariate
    chain rule over partitions of the active axis set (at most three axes).
    """
    f0, f1, f2, f3 = derivs
    nd = grid.ndof_node
    old = field.values
    v = old[0::nd]
    new = np.zeros_like(old)
    new[0::nd] = f0(v)

    def dof(code):
        return old[code::nd]

    for m_code in range(1, nd):
        axes = [k for k in range(grid.d) if (m_code >> k) & 1]
        if len(axes) == 1:
            val = f1(v) * dof(m_code)
        elif len(axes) == 2:
            a, b = (1 << axes[0]), (1 << axes[1])
            val = f2(v) * dof(a) * dof(b) + f1(v) * dof(a | b)
        else:
            a, b, c = (1 << axes[0]), (1 << axes[1]), (1 << axes[2])
            val = (f3(v) * dof(a) * dof(b) * dof(c)
                   + f2(v) * (dof(a | b) * dof(c) + dof(a | c) * dof(b)
                              + dof(b | c) * dof(a))
                   + f1(v) * dof(a | b | c))
        new[m_code::nd] = val
    return NodalField(grid, new)


def _time_average(fn, t0, t1):
    g, w = np.polynomial.legendre.leggauss(TIME_QUAD_PTS)
    ts = 0.5 * (t1 - t0) * g + 0.5 * (t0 + t1)
    ws = 0.5 * w  # averaging weights sum to 1
    out = None
    for t, wt in zip(ts, ws):
        v = fn(t)
        out = wt * v if out is None else out + wt * v
    return out


def step_load_vector(scenario, t0, t1):
    """Time-averaged dual load vector <l_k, .> over one step."""
    grid = scenario.grid
    L = np.zeros((grid.n_sdofs, grid.d))
    if scenario.bulk_force is not None:
        g_avg = _time_average(lambda t: np.asarray(
            scenario.bulk_force(t, grid.qcoords), dtype=float), t0, t1)
        L += grid.assemble_gradient(grid.d, source=g_avg)
    if scenario.traction is not None:
        coef = {}
        for name in grid.neumann_faces:
            p = grid.faces[name]
            f_avg = _time_average(lambda t: np.asarray(
                scenario.traction(t, name, p.qcoords), dtype=float), t0, t1)
            if f_avg is not None and np.any(f_avg):
                coef[name] = f_avg
        if coef:
            L += grid.assemble_face_gradient(list(coef), coef, ncomp=grid.d)
    return L


def step_theta_b(scenario, eps, t0, t1):
    """Per-face regularized, time-averaged boundary temperature."""
    grid = scenario.grid
    out = {}
    for name, p in grid.faces.items():
        def reg(t):
            tb = scenario._theta_b_raw(t, name, p.qcoords)
            return tb / (1.0 + eps * tb)
        out[name] = _time_average(reg, t0, t1)
    return out


@dataclass
class _SolverState:
    """What a run keeps between solves: the frozen factorizations of the
    mechanical and thermal Newton steps, the last Korn solve and the last
    determinant bound."""

    mech: FrozenFactor = field(default_factory=FrozenFactor)
    heat: FrozenFactor = field(default_factory=FrozenFactor)
    korn: diag.KornState = field(default_factory=diag.KornState)
    hk: diag.DetBoundState = field(default_factory=diag.DetBoundState)


def _make_snapshot(traj, k, t, y, theta, kin, theta_qp, w_qp):
    """A state of the run; its energies are evaluated here, once."""
    snap = Snapshot(k=k, t=t, y=y, theta=theta, w_qp=w_qp, F=kin.F, G=kin.G,
                    detF=kin.detF, theta_qp=theta_qp)
    snap.energies = diag.state_energies(traj.grid, traj.model, snap,
                                        traj.scenario.isothermal)
    return snap


def _start_snapshot(traj, k, t, y, theta, w_qp=None):
    """Snapshot of a start state: step 0, or the step a run resumes at."""
    kin = traj.grid.eval_kinematics(y)
    th_qp = traj.grid.eval_values(theta)
    if w_qp is None:
        if traj.scenario.isothermal:
            w_qp = np.zeros_like(th_qp)
        else:
            w_qp = traj.model.enthalpy(kin.F, np.maximum(th_qp, 0.0))
    return _make_snapshot(traj, k, t, y, theta, kin, th_qp, w_qp)


def time_errors(T, tau, eps) -> list[str]:
    """All violated rules of a run's time parameters, as human-readable
    strings; T = None (not known) skips the rules on T."""
    errs = [] if T is None or T > 0 else [f"T must be positive (got {T:g})"]
    if not tau > 0:
        errs.append(f"tau must be positive (got {tau:g})")
    elif T is not None and T > 0 and abs(round(T / tau) * tau - T) > 1e-9 * T:
        errs.append(f"T/tau must be an integer (T={T:g}, tau={tau:g})")
    if not eps >= 0:
        errs.append(f"eps must be nonnegative (got {eps:g})")
    return errs


def refinement_errors(T, tau_list, eps_list) -> list[str]:
    """All violated rules of a (tau, eps) refinement study: both lists
    sorted decreasing, and the time rules of every run, each once."""
    errs = [f"{name} must be sorted decreasing (got {' '.join(f'{v:g}' for v in values)})"
            for name, values in (("tau_list", tau_list), ("eps_list", eps_list))
            if list(values) != sorted(values, reverse=True)]
    errs += [e for tau in tau_list for eps in eps_list for e in time_errors(T, tau, eps)]
    return list(dict.fromkeys(errs))


def run(scenario: Scenario, tau: float, eps: float,
        config: SolverConfig | None = None, checkpoint_dir: str | None = None,
        resume: bool = False) -> Trajectory:
    """Run the staggered scheme over [0, T] with constant step tau.

    The run keeps one factorization per Newton solve (mech and heat) and
    the last Korn solve, and starts them afresh at each checkpoint write, so
    a resumed run repeats the uninterrupted one bit for bit.  A step still
    rejected after ``max_step_halvings`` halvings raises
    :class:`StepRejectedError`, naming the interval that failed."""
    cfg = config or SolverConfig()
    errs = time_errors(scenario.T, tau, eps)
    if errs:
        raise ValueError("; ".join(errs))
    n_steps = round(scenario.T / tau)

    grid = scenario.grid
    traj = Trajectory(scenario=scenario, tau=tau, eps=eps, config=cfg)

    start_k = load_checkpoint(traj, checkpoint_dir) if resume and checkpoint_dir else None
    if start_k is None:   # no matching checkpoint: start from step 0
        start_k = 0
        y0 = (scenario.y0 or grid.identity_field()).copy()
        apply_dirichlet_identity(grid, y0)
        th0 = scenario._theta0_field().copy()
        if eps > 0 and not scenario.isothermal:
            th0 = transform_nodal_scalar(grid, th0, _damping_derivatives(eps))
        traj.snapshots.append(_start_snapshot(traj, 0, 0.0, y0, th0))

    solvers = _SolverState()
    for k in range(start_k + 1, n_steps + 1):
        t0, t1 = (k - 1) * tau, k * tau
        snap_prev = traj.snapshots[-1]
        snap, d = _advance(traj, snap_prev, t0, t1, 0, solvers)
        snap.k, snap.t = k, t1
        # determinant and Korn certificates on the end state of every n-th macro step
        if cfg.hk_every and k % cfg.hk_every == 0:
            d = replace(d, hk_bound=diag.hk_determinant_bound(grid, snap.y, solvers.hk))
        if cfg.korn_every and k % cfg.korn_every == 0:
            korn_const, korn_lower = diag.korn_certificate(grid, snap.F, solvers.korn)
            d = replace(d, korn_const=korn_const, korn_lower=korn_lower)
        traj.snapshots.append(snap)
        traj.step_diags.append(d)
        if checkpoint_dir and cfg.checkpoint_every and k % cfg.checkpoint_every == 0:
            save_checkpoint(traj, checkpoint_dir)
            solvers = _SolverState()
    return traj


def _advance(traj, snap_prev, t0, t1, depth, solvers):
    """One step of size t1-t0, halving locally on rejection."""
    cfg = traj.config
    try:
        return _single_step(traj, snap_prev, t0, t1, solvers)
    except StepRejectedError as exc:
        if depth >= cfg.max_step_halvings:
            raise StepRejectedError(f"step from t = {t0:.6g} to t = {t1:.6g} rejected after "
                                    f"{depth} halving(s): {exc}") from exc
        tm = 0.5 * (t0 + t1)
        snap_mid, d1 = _advance(traj, snap_prev, t0, tm, depth + 1, solvers)
        snap_end, d2 = _advance(traj, snap_mid, tm, t1, depth + 1, solvers)
        return snap_end, diag.merge_step_diagnostics(d1, d2)


def _single_step(traj, snap_prev, t0, t1, solvers):
    scenario, cfg = traj.scenario, traj.config
    grid, model = traj.grid, traj.model
    tau_step = t1 - t0
    load = step_load_vector(scenario, t0, t1)

    mech_inc = MechIncrement(
        grid=grid, model=model, y_prev=snap_prev.y,
        theta_prev_qp=np.maximum(snap_prev.theta_qp, 0.0),
        tau=tau_step, eps=traj.eps, load_vector=load, F_prev=snap_prev.F,
        include_coupling=not scenario.isothermal)
    mech_res = solve_mech(mech_inc, cfg, solvers.mech)

    if scenario.isothermal:
        heat_inc = heat_res = None
        theta, theta_qp, w_qp = snap_prev.theta, snap_prev.theta_qp, np.zeros_like(snap_prev.w_qp)
    else:
        theta_b = step_theta_b(scenario, traj.eps, t0, t1)
        heat_inc = HeatIncrement(
            grid=grid, model=model, theta_prev=snap_prev.theta, w_prev_qp=snap_prev.w_qp,
            tau=tau_step, eps=traj.eps, theta_b=theta_b,
            F_prev=snap_prev.F, F_new=mech_res.kinematics.F)
        heat_res = solve_heat(heat_inc, cfg, solvers.heat)
        theta, theta_qp, w_qp = heat_res.theta_new, heat_res.theta_new_qp, heat_res.w_new_qp
    snap = _make_snapshot(traj, -1, t1, mech_res.y_new, theta, mech_res.kinematics,
                          theta_qp, w_qp)
    # logged only now: a heat rejection abandons this mech solve
    traj.mech_log.append({
        "t": t1, "descent_gap": mech_res.descent_gap,
        "iterations": mech_res.iterations, "min_detF": mech_res.min_detF,
        "iterate_min_det": min(mech_res.iterate_min_dets),
        "residual_norm": mech_res.residual_norm,
        "factorizations": mech_res.factorizations,
        "pcg_iterations": mech_res.pcg_iterations})

    d = diag.compute_step_diagnostics(snap_prev, snap, mech_inc, mech_res, heat_inc, heat_res)
    return snap, d


# ---------------------------------------------------------------------------
# interpolants in time


@dataclass
class InterpolantState:
    y_values: np.ndarray
    theta_values: np.ndarray
    w_qp: np.ndarray


@dataclass
class Interpolants:
    hold_new: InterpolantState    # snapshot k on ]( k-1) tau, k tau]
    hold_old: InterpolantState    # snapshot k-1 on [(k-1) tau, k tau[
    affine: InterpolantState


def interpolants(traj: Trajectory, t: float) -> Interpolants:
    """The three interpolant families evaluated at one time."""
    traj.require_start_at_zero("interpolants")
    T = traj.snapshots[-1].t
    if t < -1e-12 or t > T + 1e-12:
        raise ValueError(f"t={t} outside [0, {T}]")
    tau = traj.tau
    t = min(max(t, 0.0), T)
    k_new = int(np.ceil(t / tau - 1e-12))
    k_new = min(max(k_new, 0), traj.n_steps)
    k_old = int(np.floor(t / tau + 1e-12))
    k_old = min(max(k_old, 0), traj.n_steps)
    s_new, s_old = traj.snapshots[k_new], traj.snapshots[k_old]

    def state(s):
        return InterpolantState(s.y.values, s.theta.values, s.w_qp)

    lo = traj.snapshots[max(k_new - 1, 0)]
    lam = (t - lo.t) / tau if k_new > 0 else 0.0
    aff = InterpolantState(
        (1 - lam) * lo.y.values + lam * s_new.y.values,
        (1 - lam) * lo.theta.values + lam * s_new.theta.values,
        (1 - lam) * lo.w_qp + lam * s_new.w_qp)
    return Interpolants(hold_new=state(s_new), hold_old=state(s_old), affine=aff)


# ---------------------------------------------------------------------------
# refinement studies


def trajectory_distance(traj_a: Trajectory, traj_b: Trajectory):
    """Space-time L^2 distances of the affine gradient and temperature
    interpolants of two runs on the same grid and horizon."""
    grid = traj_a.grid
    tau_f = min(traj_a.tau, traj_b.tau)
    n = round(traj_a.snapshots[-1].t / tau_f)
    dy2 = 0.0
    dth2 = 0.0

    def fields(traj, t):
        s = interpolants(traj, t).affine
        kin = grid.eval_kinematics(NodalField(grid, s.y_values))
        th = grid.eval_values(NodalField(grid, s.theta_values))
        return kin.F, th

    # both interpolants are affine on each fine interval, so Simpson is exact
    for i in range(n):
        t0, t1 = i * tau_f, (i + 1) * tau_f
        vals = []
        for t in (t0, 0.5 * (t0 + t1), t1):
            Fa, tha = fields(traj_a, t)
            Fb, thb = fields(traj_b, t)
            vals.append((grid.assemble_scalar(np.sum((Fa - Fb) ** 2, axis=(-2, -1))),
                         grid.assemble_scalar((tha - thb) ** 2)))
        w = np.array([1.0, 4.0, 1.0]) / 6.0
        dy2 += tau_f * float(np.dot(w, [v[0] for v in vals]))
        dth2 += tau_f * float(np.dot(w, [v[1] for v in vals]))
    return np.sqrt(dy2), np.sqrt(dth2)


def regularization_report(traj: Trajectory):
    """Size of the eps-contributions along one run."""
    eps_rate = 0.0
    reg_gap = 0.0
    total_xi = 0.0
    for d in traj.step_diags:
        eps_rate += d.defect_eps
        reg_gap += d.defect_reg
        total_xi += d.dissipation_step
    return {"eps_rate_norm": eps_rate, "reg_gap_l1": reg_gap,
            "total_dissipation": total_xi}


def refinement_study(scenario: Scenario, tau_list, eps_list,
                     config: SolverConfig | None = None):
    """Run the (tau, eps) product and report Cauchy trends.

    tau_list and eps_list must be sorted decreasing (refinement_errors
    lists every violated rule before any run starts).  For each eps the
    report holds distances between successive tau-refinements; every run
    also reports its regularization contributions.
    """
    errs = refinement_errors(scenario.T, tau_list, eps_list)
    if errs:
        raise ValueError("; ".join(errs))
    cfg = config or SolverConfig(korn_every=0, hk_every=0)
    report = {"runs": [], "cauchy": {}}
    trajs = {}
    for eps in eps_list:
        prev = None
        rows = []
        for tau in tau_list:
            traj = run(scenario, tau, eps, cfg)
            trajs[(tau, eps)] = traj
            entry = {"tau": tau, "eps": eps}
            entry.update(regularization_report(traj))
            report["runs"].append(entry)
            if prev is not None:
                dy, dth = trajectory_distance(prev, traj)
                rows.append({"tau_coarse": prev.tau, "tau_fine": tau,
                             "dy_grad_l2": dy, "dtheta_l2": dth})
            prev = traj
        report["cauchy"][eps] = rows
    report["trajectories"] = trajs
    return report


# ---------------------------------------------------------------------------
# checkpointing


def run_hash(scenario: Scenario, tau, eps, config: SolverConfig):
    """Stable hash of everything that determines a trajectory.

    The loads enter through the preset record ``scenario.params``; the
    callables and initial fields of a hand-built scenario are not hashed."""
    payload = {
        "name": scenario.name,
        "extents": scenario.grid.extents,
        "lengths": scenario.grid.lengths,
        "dirichlet": scenario.grid.dirichlet_faces,
        "model": asdict(scenario.model),
        "T": scenario.T,
        "tau": tau,
        "eps": eps,
        "isothermal": scenario.isothermal,
        "params": scenario.params,
        "solver": asdict(config),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def save_checkpoint(traj: Trajectory, directory):
    from .outputs import write_snapshot
    os.makedirs(directory, exist_ok=True)
    snap = traj.snapshots[-1]
    path = os.path.join(directory, f"checkpoint_{snap.k:06d}.bin")
    write_snapshot(path, snap, traj.grid, run_hash(traj.scenario, traj.tau, traj.eps, traj.config))
    return path


def load_checkpoint(traj: Trajectory, directory):
    """Resume from the newest checkpoint whose config hash matches.

    Checkpoints written under another configuration (another hash) are
    skipped; when the directory holds some but none matches, a
    ``UserWarning`` says so and the run starts from step 0.  A resumed
    trajectory holds snapshots from the restart point onward;
    diagnostics of the skipped steps are not reconstructed.  Per-step
    checks index it by absolute step (see ``Trajectory.step``), the run
    certificates mark it partial, and the interpolants and weak residuals,
    which need the run from t = 0, raise.
    """
    from .outputs import read_field_dump
    if not os.path.isdir(directory):
        return None
    files = sorted(f for f in os.listdir(directory)
                   if f.startswith("checkpoint_") and f.endswith(".bin"))
    h = run_hash(traj.scenario, traj.tau, traj.eps, traj.config)
    for name in reversed(files):
        meta, arrays = read_field_dump(os.path.join(directory, name))
        if meta["config_hash"] != h:
            continue
        grid = traj.grid
        y = NodalField(grid, arrays["y"].reshape(grid.n_sdofs, grid.d))
        theta = NodalField(grid, arrays["theta"])
        w = arrays["w"].reshape(grid.n_cells, grid.nq)
        traj.snapshots = [_start_snapshot(traj, int(meta["step"]), float(meta["t"]),
                                          y, theta, w_qp=w)]
        return int(meta["step"])
    if files:
        warnings.warn(f"no checkpoint in {directory} matches this run's configuration "
                      f"(hash {h}); skipped {len(files)} file(s), starting from step 0",
                      UserWarning, stacklevel=3)
    return None
