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
damps the boundary and start temperatures to theta/(1 + eps*theta).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import diagnostics as diag
from .grid import NodalField, StructuredGrid
from .heat import HeatIncrement, regularized, solve_heat
from .materials import MaterialModel
from .mech import MechIncrement, SolverConfig, StepRejectedError, solve_mech
from .newton import FrozenFactor

TIME_QUAD_PTS = 4   # Gauss points in time for the per-step traction average


@dataclass
class Scenario:
    """Problem data for one run: domain, constitutive bundle, loads, data."""

    name: str
    grid: StructuredGrid
    model: MaterialModel
    T: float
    traction: object = None          # f(t, face, X) -> (nfc, nqf, d), or None
    theta_b: float = 1.0             # boundary temperature of the Robin exchange
    theta0: float = 1.0              # uniform start temperature
    isothermal: bool = False
    params: dict = field(default_factory=dict)   # a preset's effective parameters

    def __post_init__(self):
        errs = self.validate()
        if errs:
            raise ValueError("; ".join(errs))

    def validate(self):
        errs = []
        if not 0 < self.T < np.inf:
            errs.append(f"final time must be positive and finite (got {self.T})")
        if self.grid.d != self.model.d:
            errs.append("grid and material dimensions disagree")
        if not self.theta0 >= 0:
            errs.append(f"theta0 must be nonnegative (got {self.theta0})")
        if not self.theta_b >= 0:
            errs.append(f"theta_b must be nonnegative (got {self.theta_b})")
        if not errs:
            F, G = np.eye(self.model.d), np.zeros((self.model.d,) * 3)   # the start state
            with np.errstate(over="ignore"):   # an overflow is the violation reported below
                dens = (self.model.elastic_energy(F) + self.model.hyperstress_energy(G)
                        + self.model.coupling_energy(F, self.theta0))
            if not np.isfinite(dens):
                errs.append("free energy of (identity, theta0) is not finite")
        return errs


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
    theta_grad_qp: np.ndarray
    energies: tuple = None   # (M, H, Phi_cpl, W, E), set once by _make_snapshot


@dataclass
class Trajectory:
    scenario: Scenario
    tau: float
    eps: float
    config: SolverConfig
    snapshots: list = field(default_factory=list)
    step_diags: list = field(default_factory=list)

    @property
    def grid(self):
        return self.scenario.grid

    @property
    def model(self):
        return self.scenario.model

    @property
    def n_steps(self):
        """Number of the last step."""
        return self.snapshots[-1].k

    def step(self, k):
        """(snapshot before, snapshot after, diagnostics) of step k, the step
        from t_{k-1} to t_k."""
        if not 0 < k <= self.n_steps:
            raise ValueError(f"step {k} is not in 1..{self.n_steps}")
        return self.snapshots[k - 1], self.snapshots[k], self.step_diags[k - 1]


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
    """Time-averaged dual load vector <l_k, .> over one step: the tractions
    on the Neumann faces."""
    grid = scenario.grid
    coef = {}
    if scenario.traction is not None:
        for name in grid.neumann_faces:
            p = grid.faces[name]
            f_avg = _time_average(lambda t: np.asarray(
                scenario.traction(t, name, p.qcoords), dtype=float), t0, t1)
            if np.any(f_avg):
                coef[name] = f_avg
    if not coef:
        return np.zeros((grid.n_sdofs, grid.d))
    return grid.assemble_face_gradient(list(coef), coef)


def step_theta_b(scenario, eps):
    """The boundary temperature of every step, damped as ``run`` damps theta0."""
    return regularized(scenario.theta_b, eps)


@dataclass
class _SolverState:
    """What a run keeps between solves: the frozen factorizations of the
    mechanical and thermal Newton steps and the last Korn solve."""

    mech: FrozenFactor = field(default_factory=FrozenFactor)
    heat: FrozenFactor = field(default_factory=FrozenFactor)
    korn: diag.KornState = field(default_factory=diag.KornState)


def _make_snapshot(traj, k, t, y, theta, kin, theta_qp, theta_grad_qp, w_qp):
    """A state of the run; its energies are evaluated here, once."""
    snap = Snapshot(k=k, t=t, y=y, theta=theta, w_qp=w_qp, F=kin.F, G=kin.G,
                    detF=kin.detF, theta_qp=theta_qp, theta_grad_qp=theta_grad_qp)
    snap.energies = diag.state_energies(traj.grid, traj.model, snap,
                                        traj.scenario.isothermal)
    return snap


def _start_snapshot(traj, y, theta):
    """Snapshot of the initial state: step 0 at t = 0."""
    kin = traj.grid.eval_kinematics(y)
    th_qp, gth_qp = traj.grid.eval_scalar(theta)
    if traj.scenario.isothermal:
        w_qp = np.zeros_like(th_qp)
    else:
        w_qp = traj.model.enthalpy(kin.F, np.maximum(th_qp, 0.0))
    return _make_snapshot(traj, 0, 0.0, y, theta, kin, th_qp, gth_qp, w_qp)


def time_errors(T, tau, eps) -> list[str]:
    """All violated rules of a run's time parameters, as human-readable
    strings; T = None (not known) skips the rules on T."""
    errs = []
    if T is not None and not T > 0:
        errs.append(f"T must be positive (got {T:g})")
    elif T == np.inf:
        errs.append("T must be finite (got inf)")
    if not tau > 0:
        errs.append(f"tau must be positive (got {tau:g})")
    elif tau == np.inf:
        errs.append("tau must be finite (got inf)")
    elif T is not None and not errs and abs(round(T / tau) * tau - T) > 1e-9 * T:
        errs.append(f"T/tau must be an integer (T={T:g}, tau={tau:g})")
    if not eps >= 0:
        errs.append(f"eps must be nonnegative (got {eps:g})")
    elif eps == np.inf:
        errs.append("eps must be finite (got inf)")
    return errs


def refinement_errors(T, tau_list, eps_list) -> list[str]:
    """All violated rules of a (tau, eps) refinement study: both lists
    sorted decreasing with no repeats, and the time rules of every run,
    each once."""
    errs = [f"{name} must be sorted decreasing with no repeats "
            f"(got {' '.join(f'{v:g}' for v in values)})"
            for name, values in (("tau_list", tau_list), ("eps_list", eps_list))
            if any(a <= b for a, b in zip(values, values[1:]))]
    errs += [e for tau in tau_list for eps in eps_list for e in time_errors(T, tau, eps)]
    return list(dict.fromkeys(errs))


def run(scenario: Scenario, tau: float, eps: float,
        config: SolverConfig | None = None) -> Trajectory:
    """Run the staggered scheme over [0, T] with constant step tau.

    The run keeps one factorization per Newton solve (mech and heat) and
    the last Korn solve from step to step.  A bounded end state equal bit
    for bit to the last one bounded, as on a load-free step, takes that
    step's ``hk_bound``.  A step still rejected after
    ``max_step_halvings`` halvings raises :class:`StepRejectedError`,
    naming the interval that failed."""
    cfg = config or SolverConfig()
    errs = time_errors(scenario.T, tau, eps)
    if errs:
        raise ValueError("; ".join(errs))
    n_steps = round(scenario.T / tau)

    grid = scenario.grid
    traj = Trajectory(scenario=scenario, tau=tau, eps=eps, config=cfg)

    th0 = scenario.theta0
    if not scenario.isothermal:   # damped as step_theta_b damps theta_b
        th0 = regularized(th0, eps)
    traj.snapshots.append(_start_snapshot(traj, grid.identity_field(), grid.constant_field(th0)))

    solvers = _SolverState()
    for k in range(1, n_steps + 1):
        t0, t1 = (k - 1) * tau, k * tau
        snap_prev = traj.snapshots[-1]
        snap, d = _advance(traj, snap_prev, t0, t1, 0, solvers)
        snap.k, snap.t = k, t1
        # determinant and Korn certificates on the end state of every n-th macro step
        if cfg.hk_every and k % cfg.hk_every == 0:
            j = k - cfg.hk_every
            if j > 0 and np.array_equal(traj.snapshots[j].y.values, snap.y.values):
                bound = traj.step_diags[j - 1].hk_bound
            else:
                bound = diag.hk_determinant_bound(grid, snap.y)
            d = replace(d, hk_bound=bound)
        if cfg.korn_every and k % cfg.korn_every == 0:
            korn_const, korn_lower = diag.korn_certificate(grid, snap.F, solvers.korn)
            d = replace(d, korn_const=korn_const, korn_lower=korn_lower)
        traj.snapshots.append(snap)
        traj.step_diags.append(d)
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
        gth_qp = snap_prev.theta_grad_qp   # the temperature is carried forward
    else:
        heat_inc = HeatIncrement(
            grid=grid, model=model, theta_prev=snap_prev.theta, w_prev_qp=snap_prev.w_qp,
            tau=tau_step, eps=traj.eps, theta_b=step_theta_b(scenario, traj.eps),
            F_prev=snap_prev.F, F_new=mech_res.kinematics.F)
        heat_res = solve_heat(heat_inc, cfg, solvers.heat)
        theta, theta_qp, w_qp = heat_res.theta_new, heat_res.theta_new_qp, heat_res.w_new_qp
        gth_qp = heat_res.theta_new_grad_qp
    snap = _make_snapshot(traj, -1, t1, mech_res.y_new, theta, mech_res.kinematics,
                          theta_qp, gth_qp, w_qp)
    d = diag.compute_step_diagnostics(snap_prev, snap, mech_inc, mech_res, heat_inc, heat_res)
    return snap, d


# ---------------------------------------------------------------------------
# refinement studies


def trajectory_distance(traj_a: Trajectory, traj_b: Trajectory):
    """Space-time L^2 distances (of grad y, of theta) between the affine
    interpolants in time of two runs on the same grid and horizon.

    The result is exact.  With n_a and n_b steps, every step node of either
    run is a node i T/L of the union, L = lcm(n_a, n_b), and between two
    consecutive union nodes both interpolants are affine in t, so is their
    difference e, and the interval, of length h, contributes exactly
    h/3 (|e0|^2 + e0:e1 + |e1|^2) from the end values e0, e1.  Those are
    affine blends of the stored quadrature fields ``F`` and ``theta_qp``;
    no field is evaluated again."""
    grid, T = traj_a.grid, traj_a.snapshots[-1].t
    runs = [(traj, traj.n_steps) for traj in (traj_a, traj_b)]
    L = math.lcm(*(n for _, n in runs))
    nodes = sorted({i * (L // n) for _, n in runs for i in range(n + 1)})

    def at(traj, n, j):
        """(F, theta_qp) of one run's interpolant at union node j, time j T/L."""
        k, r = divmod(j * n, L)
        s0 = traj.snapshots[k]
        if r == 0:
            return s0.F, s0.theta_qp
        s1, lam = traj.snapshots[k + 1], r / L
        return (1 - lam) * s0.F + lam * s1.F, (1 - lam) * s0.theta_qp + lam * s1.theta_qp

    def diff(j):
        (Fa, tha), (Fb, thb) = (at(traj, n, j) for traj, n in runs)
        return Fa - Fb, tha - thb

    dy2 = dth2 = 0.0
    dF0, dth0 = diff(0)
    for j0, j1 in zip(nodes, nodes[1:]):
        dF1, dth1 = diff(j1)
        h3 = (j1 - j0) * T / L / 3.0
        dy2 += h3 * grid.assemble_scalar(np.sum(dF0 * dF0 + dF0 * dF1 + dF1 * dF1, axis=(-2, -1)))
        dth2 += h3 * grid.assemble_scalar(dth0 * dth0 + dth0 * dth1 + dth1 * dth1)
        dF0, dth0 = dF1, dth1
    return np.sqrt(dy2), np.sqrt(dth2)


def refinement_study(scenario: Scenario, tau_list, eps_list,
                     config: SolverConfig | None = None):
    """Run the (tau, eps) product and report Cauchy trends.

    tau_list and eps_list must be strictly decreasing (refinement_errors
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
            diags = traj.step_diags
            report["runs"].append({
                "tau": tau, "eps": eps,
                "eps_rate_norm": sum(d.defect_eps for d in diags),
                "reg_gap_l1": sum(d.defect_reg for d in diags),
                "total_dissipation": sum(d.dissipation_step for d in diags)})
            if prev is not None:
                dy, dth = trajectory_distance(prev, traj)
                rows.append({"tau_coarse": prev.tau, "tau_fine": tau,
                             "dy_grad_l2": dy, "dtheta_l2": dth})
            prev = traj
        report["cauchy"][eps] = rows
    report["trajectories"] = trajs
    return report


# ---------------------------------------------------------------------------
# provenance


def run_hash(scenario: Scenario, tau, eps, config: SolverConfig):
    """Stable hash of everything that determines a trajectory, stamped as
    ``config_hash`` into every field dump.

    Every scenario field is hashed, a dataclass as its fields, except the
    grid, which enters through its extents, lengths and clamped faces, and
    the traction, a callable; its loads enter through the preset record
    ``params`` and the numbers ``theta0`` and ``theta_b``."""
    payload = {f.name: getattr(scenario, f.name) for f in fields(scenario)
               if f.name not in ("grid", "traction")}
    grid = scenario.grid
    payload.update(extents=grid.extents, lengths=grid.lengths,
                   dirichlet=grid.dirichlet_faces, tau=tau, eps=eps, solver=config)
    blob = json.dumps(payload, sort_keys=True, default=asdict).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
