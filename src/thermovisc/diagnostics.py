"""Run-time certificates: energy ledgers, entropy production, a rigorous
lower bound of det grad y over every cell, the generalized Korn constant
and weak-form residual audits.

Every quantity here is computed from trajectory data alone; the solvers
never see these numbers, so a passing certificate is independent
evidence that a run did what the analysis says it must.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

import numpy as np
from numpy.polynomial import Polynomial
from scipy.sparse.linalg import lobpcg, splu  # splu: no caller; perfbench wraps diagnostics.splu

from .grid import tensor_derivatives
from .heat import regularized, robin_flux
from .materials import _ddot, _frob, _matmul, det, viscous_form
from .mech import main_mechanical_energy, semiconvexity_gap

THETA_FLOOR = 1e-12   # entropy quotients exclude colder quadrature points
KORN_TOL = 1e-8       # LOBPCG residual |A x - lambda B x| at x.B x = 1
KORN_MAX_ITER = 1000  # LOBPCG iterations; a miss warns (see korn_constant)
KORN_SLACK = 0.1      # korn_certificate solves again once the bound loses this share
LEDGER_RTOL = 1e-8    # energy_ledger_closes: worst step gap relative to its scale
W_TOL = 1e-12         # enthalpy_consistency: stored against recomputed enthalpy


@dataclass
class StepDiagnostics:
    """Everything the certificate suite knows about one accepted step."""

    t: float
    M: float
    M_prev: float
    H_val: float
    Phi_cpl: float
    W_total: float
    E: float
    E_prev: float
    dissipation_step: float
    reg_dissipation_step: float
    ext_power: float
    boundary_heat: float
    entropy_prod: float
    entropy_total: float
    min_detF: float
    hk_bound: float
    korn_const: float
    mech_residual: float
    heat_residual: float
    energy_gap_total: float
    min_theta: float
    clamp_magnitude: float
    defect_reg: float
    defect_eps: float
    defect_semiconvex: float
    defect_coupling: float
    solver_term: float
    pcpl_old: float
    mech_iterations: int
    heat_iterations: int
    entropy_excluded: int
    korn_lower: float = float("nan")   # certified lower bound of the Korn constant

    def ledger_items(self):
        """The itemized total-energy identity; sums to energy_gap_total."""
        return {
            "dE": self.E - self.E_prev,
            "ext_power": -self.ext_power,
            "boundary_heat": self.boundary_heat,
            "defect_reg": self.defect_reg,
            "defect_eps": self.defect_eps,
            "defect_semiconvex": self.defect_semiconvex,
            "defect_coupling": self.defect_coupling,
            "solver_term": -self.solver_term,
        }


def state_energies(grid, model, snap, isothermal=False):
    """(M, H, Phi_cpl, W, E) of one snapshot."""
    M, H_val = main_mechanical_energy(grid, model, snap)
    if isothermal:
        return M, H_val, 0.0, 0.0, M
    Phi_cpl = grid.assemble_scalar(
        model.coupling_energy(snap.F, np.maximum(snap.theta_qp, 0.0)))
    W_total = grid.assemble_scalar(snap.w_qp)
    return M, H_val, Phi_cpl, W_total, M + W_total


def total_entropy(grid, model, snap):
    th = np.maximum(snap.theta_qp, THETA_FLOOR)
    return grid.assemble_scalar(model.entropy_density(snap.F, th))


def compute_step_diagnostics(snap_prev, snap_new, mech_inc, mech_res,
                             heat_inc, heat_res):
    """Certificates of one accepted step, from what the step computed: both
    snapshots with their energies, and the increment and result of each
    solve (heat_inc and heat_res are None when isothermal).  hk_bound,
    korn_const and korn_lower are left NaN; ``scheme.run`` fills them in
    once per macro step."""
    grid, model = mech_inc.grid, mech_inc.model
    tau, eps = mech_inc.tau, mech_inc.eps
    dF = snap_new.F - snap_prev.F
    th_prev = mech_inc.theta_prev_qp

    if heat_inc is None:
        xi = model.dissipation_rate(snap_prev.F, dF / tau, th_prev)
        xi_reg = regularized(xi, eps)
    else:
        xi, xi_reg = heat_inc.xi_qp, heat_inc.xi_reg_qp
    dissipation_step = tau * grid.assemble_scalar(xi)
    reg_step = tau * grid.assemble_scalar(xi_reg)

    dvals = snap_new.y.values - snap_prev.y.values
    ext_power = float(np.sum(mech_inc.load_vector * dvals))
    defect_eps = (eps / tau) * grid.assemble_scalar(_ddot(dF, dF))

    M_prev, _, _, _, E_prev = snap_prev.energies
    M, H_val, Phi_cpl, W_total, E = snap_new.energies
    defect_semiconvex = semiconvexity_gap(grid, model, snap_new.y, snap_prev.y,
                                          mech_res.kinematics, M, M_prev)

    mech_term = float(np.sum(mech_res.residual_vector * dvals))
    if heat_inc is None:
        pcpl_old = defect_coupling = boundary_heat = heat_term = entropy_prod = 0.0
        entropy_tot, min_theta = float("nan"), float(snap_new.theta_qp.min())
        clamp = heat_resid = 0.0
        heat_iters = excluded = 0
        ledger_reg = dissipation_step  # all dissipated power leaves the ledger
    else:
        th_new = np.maximum(snap_new.theta_qp, 0.0)
        pcpl_old = grid.assemble_scalar(_ddot(model.coupling_stress(snap_new.F, th_prev), dF))
        defect_coupling = pcpl_old - grid.assemble_scalar(
            _ddot(model.coupling_stress(snap_new.F, th_new), dF))
        boundary_heat = tau * robin_flux(heat_inc, snap_new.theta)
        ones = grid.constant_field(1.0).values
        heat_term = tau * float(np.sum(heat_res.residual_vector * ones))
        # entropy production rate xi/theta + grad theta . K grad theta / theta^2
        gth = snap_new.theta_grad_qp
        cond = _matmul(_matmul(gth[..., None, :], heat_inc.K_prev), gth[..., None])[..., 0, 0]
        mask = snap_new.theta_qp > THETA_FLOOR
        dens = np.where(mask, xi / np.maximum(snap_new.theta_qp, THETA_FLOOR)
                        + cond / np.maximum(snap_new.theta_qp, THETA_FLOOR) ** 2, 0.0)
        entropy_prod = tau * grid.assemble_scalar(dens)
        excluded = int((~mask).sum())
        entropy_tot = total_entropy(grid, model, snap_new)
        min_theta = heat_res.min_theta
        clamp = heat_res.clamp_magnitude
        heat_resid = heat_res.residual_norm
        heat_iters = heat_res.iterations
        ledger_reg = dissipation_step - reg_step

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
        energy_gap_total=gap_total, min_theta=min_theta, clamp_magnitude=clamp,
        defect_reg=ledger_reg, defect_eps=defect_eps,
        defect_semiconvex=defect_semiconvex, defect_coupling=defect_coupling,
        solver_term=solver_term, pcpl_old=pcpl_old, mech_iterations=mech_res.iterations,
        heat_iterations=heat_iters, entropy_excluded=excluded)


def merge_step_diagnostics(d1: StepDiagnostics, d2: StepDiagnostics):
    """Aggregate two consecutive substeps into one macro-step row."""
    add = ("dissipation_step", "reg_dissipation_step", "ext_power",
           "boundary_heat", "entropy_prod", "defect_reg", "defect_eps",
           "defect_semiconvex", "defect_coupling", "solver_term",
           "energy_gap_total", "pcpl_old", "mech_iterations", "heat_iterations",
           "entropy_excluded")
    out = {f.name: getattr(d2, f.name) for f in dc_fields(StepDiagnostics)}
    for name in add:
        out[name] = getattr(d1, name) + getattr(d2, name)
    out["M_prev"] = d1.M_prev
    out["E_prev"] = d1.E_prev
    out["min_detF"] = min(d1.min_detF, d2.min_detF)
    out["min_theta"] = min(d1.min_theta, d2.min_theta)
    out["clamp_magnitude"] = max(d1.clamp_magnitude, d2.clamp_magnitude)
    out["mech_residual"] = max(d1.mech_residual, d2.mech_residual)
    out["heat_residual"] = max(d1.heat_residual, d2.heat_residual)
    return StepDiagnostics(**out)


# ---------------------------------------------------------------------------
# balance checks


def mechanical_energy_check(traj, k):
    """Per-step mechanical energy inequality, tested with the increment.

    Returns (gap, slack_bound, solver_term) where

        gap = M(y^k) - M(y^{k-1}) + 2 tau R + eps tau ||grad rate||^2
              + coupling power - external power.

    Inserting the previous state certifies gap <= solver pairing; the
    positive side can additionally be violated only by a negative
    semiconvexity defect, so gap <= slack + solver_term with slack =
    max(0, -defect_semiconvex).  On a halved step the stored defect is the
    sum over its substeps.  A negative gap means the inequality holds with
    margin.
    """
    d = traj.step(k)[2]
    gap = ((d.M - d.M_prev) + d.dissipation_step + d.defect_eps
           + d.pcpl_old - d.ext_power)
    return gap, max(0.0, -d.defect_semiconvex), d.solver_term


def total_energy_check(traj, k):
    """Itemized total-energy ledger of step k; raises ValueError unless the
    items sum to the stored gap."""
    d = traj.step(k)[2]
    items = d.ledger_items()
    total = sum(items.values())
    if not abs(total - d.energy_gap_total) < 1e-10 * max(1.0, abs(d.E)):
        raise ValueError(f"step {k}: the ledger items sum to {total!r}, "
                         f"not to the stored gap {d.energy_gap_total!r}")
    return {"gap": d.energy_gap_total, "items": items,
            "scale": max(abs(d.E), abs(d.ext_power), d.dissipation_step, 1e-30)}


# ---------------------------------------------------------------------------
# determinant lower bound


@dataclass
class DetBoundState:
    """The last deformation a run bounded (its nodal values) and its bound."""

    y: np.ndarray | None = None
    bound: float = float("nan")


def hk_determinant_bound(grid, y, state=None):
    """Least lower bound of det grad y over all closed cells, at or below
    the Gauss-point minimum (:meth:`StructuredGrid.det_lower_bounds`).  The
    name and the ``hk_bound`` column recall the Healey-Kroemer positivity
    of det grad y on energy sublevels (ESAIM COCV 15, 2009).  With a
    ``state`` (a :class:`DetBoundState`), a y equal bit for bit to the last
    one bounded, as on a load-free step, takes the kept bound."""
    if state is not None and state.y is not None and np.array_equal(state.y, y.values):
        return state.bound
    bound = float(grid.det_lower_bounds(y).min())
    if state is not None:
        state.y, state.bound = y.values, bound
    return bound


# ---------------------------------------------------------------------------
# generalized Korn constant


@dataclass
class KornState:
    """What a run keeps of its last Korn solve: the eigenvector, the start of
    the next solve, and the reference F_ref and lower_ref of the bound
    between solves (:func:`korn_certificate`)."""

    x: np.ndarray | None = None
    F_ref: np.ndarray | None = None    # F of the last solve, at the quadrature points
    lower_ref: float = float("nan")    # theta - rho of the last solve


def korn_certificate(grid, F_qp, state):
    """(korn_const, korn_lower): a certified lower bound of the Korn constant
    at F, from the reference solve kept in ``state`` (a :class:`KornState`)
    while the bound has lost at most ``KORN_SLACK`` of the reference's, else
    from a new :func:`korn_constant` solve, which becomes the reference.
    korn_const is the solved eigenvalue, or NaN when the bound certifies
    without a solve.

    The Korn constant is frame indifferent: for a rotation R, v -> R v maps
    the admissible fields onto themselves, keeps the H^1 form and sends
    S_F(v) = F^T grad v + grad v^T F to S_RF(R v) = S_F(v), so
    lambda(R F_ref) = lambda(F_ref) >= L = lower_ref (see
    :func:`korn_constant`).  With Delta = F - R F_ref at each point,
    |S_Delta| <= 2 |Delta| |grad v|, and the H^1 form on the same Gauss
    rule bounds sum_q w_q |grad v_q|^2, so by the triangle inequality in
    the quadrature norm ||S_F|| >= (sqrt(L) - 2 delta) ||v||_H1 with
    delta = max_q |Delta_q|_F.  While 2 delta < sqrt(L), squaring gives
        lambda(F) >= (sqrt(L) - 2 delta)^2 = L - 4 delta sqrt(L) + 4 delta^2,
    written in the second form so that delta = 0 returns L exactly.  R is
    whichever of the identity and the polar rotation of
    M = sum_q w_q F_q F_ref,q^T gives the smaller delta; the polar rotation
    (det fixed to +1) minimizes sum_q w_q |F_q - R F_ref,q|^2, so a rigidly
    turned state keeps delta at rounding level and certifies with no solve.
    """
    L = state.lower_ref
    if state.F_ref is not None and L > 0.0:
        M = np.tensordot(F_qp * grid.qweights[:, None, None], state.F_ref,
                         axes=([0, 1, 3], [0, 1, 3]))
        U, _, Vt = np.linalg.svd(M)
        if np.linalg.det(U @ Vt) < 0.0:
            U[:, -1] = -U[:, -1]
        delta = min(float(np.max(_frob(F_qp - R_F))) for R_F in
                    (state.F_ref, _matmul(U @ Vt, state.F_ref)))
        root = np.sqrt(L)
        lower = L - 4.0 * delta * root + 4.0 * delta**2
        if 2.0 * delta < root and lower >= (1.0 - KORN_SLACK) * L:
            return float("nan"), float(lower)
    value = korn_constant(grid, F_qp, state)
    return value, state.lower_ref


def korn_constant(grid, F_qp, state=None):
    """Smallest generalized eigenvalue of the Korn form against the H^1 form
    over vector fields vanishing on the fixed boundary part.

    LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) on the pencil
    (A(F), kron(G, I_d)), preconditioned by the grid's cached scalar Gram
    factorization applied to the field's d components, from the
    eigenvector kept in ``state`` (a :class:`KornState`) or from ones, until
    |A x - rho B x| <= ``KORN_TOL`` at x.B x = 1.  The result is the
    Rayleigh quotient theta of the B-normalized iterate x, which ``state``
    keeps for the next call, together with F and the lower bound
    theta - rho, rho = |A x - theta B x|_{B^-1}: an eigenvalue of the pencil
    lies within rho of theta.  That it is the smallest one rests on the
    solve (the warm start and LOBPCG's descent).  If LOBPCG misses
    ``KORN_TOL`` within ``KORN_MAX_ITER`` iterations it raises its own
    ``UserWarning`` and returns its iterate of least residual; theta - rho
    then bounds the eigenvalue nearest that iterate, which need not be the
    smallest.
    """
    d = grid.d
    if np.min(det(F_qp)) <= 0:
        raise ValueError("Korn form needs det F > 0")
    free = np.repeat(grid.free_sdofs, d)
    # the Korn form int |F^T grad v + (grad v)^T F|^2
    A = grid.assemble_hessian(d, c4=viscous_form(F_qp), free=free)
    # the H^1 form on vector fields, kron(G, I_d) with the component fastest:
    # the scalar Gram G acting on the d columns of the (n_free, d) field
    G = grid.h1_gram(free_only=True)

    def gram(X):
        return (G @ X.reshape(G.shape[0], -1)).reshape(X.shape)

    def gram_solve(X):
        return grid.h1_gram_solve(X.reshape(G.shape[0], -1)).reshape(X.shape)

    state = state or KornState()
    x = state.x
    if x is None:
        x = np.ones(A.shape[0])
        x /= np.sqrt(x @ gram(x))
    _, X = lobpcg(A, x[:, None], B=gram, M=gram_solve, tol=KORN_TOL, maxiter=KORN_MAX_ITER,
                  largest=False)
    x = X[:, 0]
    x = x / np.sqrt(x @ gram(x))
    Ax = A @ x
    theta = float(x @ Ax)
    r = Ax - theta * gram(x)
    rho = float(np.sqrt(r @ gram_solve(r)))
    state.x, state.F_ref = x, F_qp
    state.lower_ref = theta - rho
    return theta


# ---------------------------------------------------------------------------
# weak-form residual audit


class TestBank:
    """Deterministic bank of smooth space-time test fields.

    Mechanical tests Z_e(x) s_e(t) vanish on the fixed boundary part for all
    times; thermal tests V_e(x) r_e(t) vanish at the final time.  Every
    spatial field is separable, amp * prod_k f_k(x_k), with f_k = P_k
    sin(a x + ph) for a mechanical component (P_k the product of the clamp
    factors x/L or 1 - x/L of the fixed faces on axis k, else 1) and f_k =
    cos(a x + ph) for the thermal field.  Values, gradients and Hessians
    follow in closed form from the 1D derivatives by the product rule
    (:func:`thermovisc.grid.tensor_derivatives`).  The tables are stacked
    over the elements e (leading axis): ``Z`` (ne, cells, nq, d), ``gradZ``
    (..., d, d), ``hessZ`` (..., d, d, d), ``V`` (ne, cells, nq), ``gradV``
    (..., d), and the face traces ``Zface[name]``, ``Vface[name]``;
    ``s(t)``, ``r(t)`` and ``rdot(t)`` return (ne,) arrays.
    """

    __test__ = False   # not a pytest class

    def __init__(self, grid, T, n_elements=10, seed=1234):
        self.grid = grid
        self.T = float(T)
        d = grid.d
        rng = np.random.default_rng(seed)
        one = Polynomial([1.0])
        clamp, clamp_scale = [one] * d, 1.0
        for name in grid.dirichlet_faces:
            # x/L or 1 - x/L, with 1/L split off so the factor is exactly 0 on the face
            p = grid.faces[name]
            L = grid.lengths[p.axis]
            clamp[p.axis] = clamp[p.axis] * Polynomial([0.0, 1.0] if p.side == 0 else [L, -1.0])
            clamp_scale /= L
        # each polynomial with its first two derivatives, formed once
        clamp = [(P, P.deriv(1), P.deriv(2)) for P in clamp]
        plain = [(one, one.deriv(1), one.deriv(2))] * d

        def draw(polys, trig, scale):
            modes = []
            for k in range(d):
                kk = int(rng.integers(1, 3))
                ph = float(rng.uniform(0, 2 * np.pi))
                modes.append((polys[k], np.pi * kk / grid.lengths[k], ph, trig))
            return scale * float(rng.uniform(0.5, 1.5)), modes

        mech, therm, times = [], [], []
        for _ in range(n_elements):
            mech.append([draw(clamp, "sin", clamp_scale) for _c in range(d)])
            therm.append(draw(plain, "cos", 1.0))
            times.append([rng.uniform(0.5, 2.0), rng.uniform(0, 2 * np.pi), rng.uniform(0.5, 2.0)])
        self.om_z, self.ph_z, self.om_v = np.array(times).reshape(-1, 3).T

        # the cell points and the points of every face, evaluated in one call
        # per mode and split back into (elements, cells or faces, points) tables
        blocks = [grid.qcoords] + [p.qcoords for p in grid.faces.values()]
        X = np.concatenate([b.reshape(-1, d) for b in blocks])
        ends = np.cumsum([b.shape[0] * b.shape[1] for b in blocks])[:-1]

        def split(table):   # contiguous, so weak_residuals reshapes them without a copy
            return [np.ascontiguousarray(t).reshape((len(t),) + b.shape[:2] + t.shape[2:])
                    for t, b in zip(np.split(table, ends, axis=1), blocks)]

        # value, gradient, Hessian; component axis before the derivative axes
        mech_parts = [[_separable(X, *c) for c in comps] for comps in mech]
        therm_parts = [_separable(X, *v) for v in therm]
        Z = [split(np.stack([np.stack([pc[j] for pc in pe], axis=-1 - j) for pe in mech_parts]))
             for j in range(3)]
        V = [split(np.stack([pe[j] for pe in therm_parts])) for j in range(2)]
        (self.Z, *Zface), (self.gradZ, *_), (self.hessZ, *_) = Z
        (self.V, *Vface), (self.gradV, *_) = V
        self.Zface = dict(zip(grid.faces, Zface))
        self.Vface = dict(zip(grid.faces, Vface))

    def s(self, t):
        return np.cos(self.om_z * np.pi * t / self.T + self.ph_z)

    def r(self, t):
        return (1.0 - t / self.T) * np.cos(self.om_v * np.pi * t / self.T)

    def rdot(self, t):
        arg = self.om_v * np.pi * t / self.T
        return (-np.cos(arg) / self.T
                - (1.0 - t / self.T) * self.om_v * np.pi / self.T * np.sin(arg))


def _separable(X, amp, modes):
    """Value, gradient and Hessian of amp * prod_k P_k(x_k) trig(a_k x_k + ph_k)
    at points X (..., d), for modes ((P_k, P_k', P_k''), a_k, ph_k, "sin" | "cos")."""
    factors = []
    for k, ((P, P1, P2), a, ph, trig) in enumerate(modes):
        x = X[..., k]
        s, c = np.sin(a * x + ph), np.cos(a * x + ph)
        g0, g1 = (s, a * c) if trig == "sin" else (c, -a * s)
        g2 = -a * a * g0
        p0, p1, p2 = P(x), P1(x), P2(x)
        factors.append((p0 * g0, p1 * g0 + p0 * g1, p2 * g0 + 2.0 * p1 * g1 + p0 * g2))
    value, grad, hess = tensor_derivatives(*zip(*factors))
    return amp * value, amp * grad, amp * hess


def _time_nodes(t0, t1, npts=5):
    g, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (t1 - t0) * g + 0.5 * (t0 + t1), 0.5 * (t1 - t0) * w


def weak_residuals(traj, bank: TestBank):
    """Residual RMS of the two space-time weak identities on the bank.

    Both identities are audited for the system actually solved: for eps > 0
    the linear eps-viscosity, the capped dissipation source and the damped
    boundary/initial temperature data enter; at eps = 0 they are the plain
    identities.  Evaluation uses the affine interpolants with per-step Gauss
    quadrature in time.  Each term is evaluated once per time node and
    paired with every bank element in one contraction.
    """
    grid, model = traj.grid, traj.model
    scenario, eps, snaps = traj.scenario, traj.eps, traj.snapshots
    thermal = not scenario.isothermal
    mech_res, heat_res = np.zeros((2, len(bank.V)))

    def pair(table, field, weights=grid.qweights):
        """Integral of table[e] : field for every element e; quadrature on axis 1."""
        wf = field * weights.reshape((-1,) + (1,) * (field.ndim - 2))
        return table.reshape(len(table), -1) @ wf.ravel()

    if thermal:   # damped boundary temperature; face traces once per snapshot
        theta_b = regularized(scenario.theta_b, eps)
        thf = [{name: grid.eval_face_scalar(name, s.theta) for name in grid.faces}
               for s in snaps]

    for k in range(1, traj.n_steps + 1):
        s0, s1 = snaps[k - 1], snaps[k]
        tau = s1.t - s0.t
        rate = (s1.F - s0.F) / tau
        for t, wt in zip(*_time_nodes(s0.t, s1.t)):
            lam = (t - s0.t) / tau
            F = (1 - lam) * s0.F + lam * s1.F
            G = (1 - lam) * s0.G + lam * s1.G
            th_qp = np.maximum((1 - lam) * s0.theta_qp + lam * s1.theta_qp, 0.0)

            visc = model.viscous_stress(F, rate, th_qp)
            stress = visc + eps * rate + model.elastic_stress(F)
            if thermal:
                cpl = model.coupling_stress(F, th_qp)
                stress = stress + cpl
            contrib = pair(bank.gradZ, stress) + pair(bank.hessZ, model.hyperstress(G))
            if scenario.traction is not None:
                for name in grid.neumann_faces:
                    p = grid.faces[name]
                    fval = np.asarray(scenario.traction(t, name, p.qcoords), dtype=float)
                    contrib -= pair(bank.Zface[name], fval, p.weights)
            mech_res += wt * bank.s(t) * contrib
            if not thermal:
                continue

            w_qp = (1 - lam) * s0.w_qp + lam * s1.w_qp
            gth_t = (1 - lam) * s0.theta_grad_qp + lam * s1.theta_grad_qp
            flux = _matmul(model.pullback_conductivity(F, th_qp), gth_t[..., None])[..., 0]
            xi = _ddot(visc, rate)   # the viscous power nu |Cdot|^2
            src = regularized(xi, eps) + _ddot(cpl, rate)
            robin = 0.0
            for name, p in grid.faces.items():
                thf_t = (1 - lam) * thf[k - 1][name] + lam * thf[k][name]
                robin = robin + pair(bank.Vface[name], thf_t - theta_b, p.weights)
            heat_res += wt * (bank.r(t) * (pair(bank.gradV, flux) - pair(bank.V, src)
                                           + model.kappa * robin)
                              - bank.rdot(t) * pair(bank.V, w_qp))

    if thermal:
        heat_res -= bank.r(0.0) * pair(bank.V, snaps[0].w_qp)
    return (float(np.sqrt(np.mean(mech_res**2))),
            float(np.sqrt(np.mean(heat_res**2))))


# ---------------------------------------------------------------------------
# run-level certificate summary


def run_certificates(traj, tol_pos=1e-10):
    """Evaluate the per-run certificates and return a JSON-able summary.

    A run passes only if every accepted mechanical solve descended, the
    temperature never undershot below -tol_pos, every state stayed locally
    invertible with a positive certified determinant bound on every cell,
    entropy production stayed nonnegative, the itemized energy ledger
    closed to ``LEDGER_RTOL``, and the stored enthalpy matched the
    constitutive relation pointwise to ``W_TOL``.
    """
    diags = traj.step_diags
    iso = traj.scenario.isothermal
    checks = []

    def add(name, passed, value, threshold):
        checks.append({"name": name, "passed": bool(passed),
                       "value": float(value), "threshold": float(threshold)})

    n_violations = sum(1 for rec in traj.mech_log if rec["descent_gap"] < 0.0)
    add("mech_descent_violations", n_violations == 0, n_violations, 0)

    min_th = min((d.min_theta for d in diags), default=0.0)
    add("min_theta", min_th >= -tol_pos, min_th, -tol_pos)

    min_det = min((d.min_detF for d in diags), default=1.0)
    add("min_detF_positive", min_det > 0.0, min_det, 0.0)

    hk_vals = [d.hk_bound for d in diags if np.isfinite(d.hk_bound)]
    if hk_vals:
        add("hk_bound_positive", min(hk_vals) > 0.0, min(hk_vals), 0.0)

    min_entropy = min((d.entropy_prod for d in diags), default=0.0)
    add("entropy_production_nonnegative", min_entropy >= -1e-12, min_entropy, -1e-12)

    worst_gap = 0.0
    for d in diags:
        scale = max(abs(d.E), abs(d.ext_power), d.dissipation_step, 1.0)
        worst_gap = max(worst_gap, abs(d.energy_gap_total) / scale)
    add("energy_ledger_closes", worst_gap <= LEDGER_RTOL, worst_gap, LEDGER_RTOL)

    if not iso:
        worst_w = 0.0
        for snap in traj.snapshots:
            w_check = traj.model.enthalpy(snap.F, np.maximum(snap.theta_qp, 0.0))
            worst_w = max(worst_w, float(np.max(np.abs(snap.w_qp - w_check))))
        add("enthalpy_consistency", worst_w <= W_TOL, worst_w, W_TOL)

    korn_vals = [d.korn_const for d in diags if np.isfinite(d.korn_const)]
    if korn_vals:
        add("korn_constant_positive", min(korn_vals) > 0.0, min(korn_vals), 0.0)
    korn_lower = [d.korn_lower for d in diags if np.isfinite(d.korn_lower)]
    if korn_lower:
        add("korn_lower_positive", min(korn_lower) > 0.0, min(korn_lower), 0.0)

    return {
        "n_steps": traj.n_steps,
        "tau": traj.tau,
        "eps": traj.eps,
        "scenario": traj.scenario.name,
        "isothermal": iso,
        "max_mech_residual": max((d.mech_residual for d in diags), default=0.0),
        "max_heat_residual": max((d.heat_residual for d in diags), default=0.0),
        "korn_solves": len(korn_vals),
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
