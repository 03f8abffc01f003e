"""Run-time certificates: energy ledgers, entropy production, the
determinant lower bound on energy sublevels, the generalized Korn
constant, a-priori monitors and weak-form residual audits.

Every quantity here is computed from trajectory data alone; the solvers
never see these numbers, so a passing certificate is independent
evidence that a run did what the analysis says it must.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, fields as dc_fields

import numpy as np
from numpy.polynomial import Polynomial
from scipy.sparse.linalg import lobpcg, splu

from .grid import SPD_LU, tensor_derivatives
from .heat import robin_flux
from .materials import _matmul, det, viscous_form
from .mech import main_mechanical_energy, semiconvexity_gap

THETA_FLOOR = 1e-12   # entropy quotients exclude colder quadrature points
KORN_TOL = 1e-8       # LOBPCG residual |A x - lambda B x| at x.B x = 1
KORN_MAX_ITER = 100   # LOBPCG iterations before the LU fallback


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
    pcpl_new: float
    gradsq_step: float
    mech_iterations: int
    heat_iterations: int
    entropy_excluded: int

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
    solve (heat_inc and heat_res are None when isothermal).  hk_bound and
    korn_const are left NaN; ``scheme.run`` fills them in once per macro
    step."""
    grid, model = mech_inc.grid, mech_inc.model
    tau, eps = mech_inc.tau, mech_inc.eps
    dF = snap_new.F - snap_prev.F
    th_prev = mech_inc.theta_prev_qp

    if heat_inc is None:
        xi = model.dissipation_rate(snap_prev.F, dF / tau, th_prev)
        xi_reg = xi / (1.0 + eps * xi)
    else:
        xi, xi_reg = heat_inc.xi_qp, heat_inc.xi_reg_qp
    dissipation_step = tau * grid.assemble_scalar(xi)
    reg_step = tau * grid.assemble_scalar(xi_reg)

    dvals = snap_new.y.values - snap_prev.y.values
    ext_power = float(np.sum(mech_inc.load_vector * dvals))
    gradsq_step = grid.assemble_scalar(np.sum(dF**2, axis=(-2, -1)))
    defect_eps = (eps / tau) * gradsq_step

    M_prev, _, _, _, E_prev = snap_prev.energies
    M, H_val, Phi_cpl, W_total, E = snap_new.energies
    defect_semiconvex = semiconvexity_gap(grid, model, snap_new.y, snap_prev.y,
                                          mech_res.kinematics, M, M_prev)

    mech_term = float(np.sum(mech_res.residual_vector * dvals))
    if heat_inc is None:
        pcpl_old = pcpl_new = boundary_heat = heat_term = entropy_prod = 0.0
        entropy_tot, min_theta = float("nan"), float(snap_new.theta_qp.min())
        clamp = heat_resid = 0.0
        heat_iters = excluded = 0
        ledger_reg = dissipation_step  # all dissipated power leaves the ledger
    else:
        th_new = np.maximum(snap_new.theta_qp, 0.0)
        pcpl_old = grid.assemble_scalar(
            np.sum(model.coupling_stress(snap_new.F, th_prev) * dF, axis=(-2, -1)))
        pcpl_new = grid.assemble_scalar(
            np.sum(model.coupling_stress(snap_new.F, th_new) * dF, axis=(-2, -1)))
        boundary_heat = tau * robin_flux(heat_inc, snap_new.theta)
        ones = grid.constant_field(1.0).values
        heat_term = tau * float(np.sum(heat_res.residual_vector * ones))
        # entropy production rate xi/theta + grad theta . K grad theta / theta^2
        gth = heat_res.theta_new_grad_qp
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
        energy_gap_total=gap_total, min_theta=min_theta, clamp_magnitude=clamp,
        defect_reg=ledger_reg, defect_eps=defect_eps,
        defect_semiconvex=defect_semiconvex, defect_coupling=defect_coupling,
        solver_term=solver_term, pcpl_old=pcpl_old, pcpl_new=pcpl_new,
        gradsq_step=gradsq_step, mech_iterations=mech_res.iterations,
        heat_iterations=heat_iters, entropy_excluded=excluded)


def merge_step_diagnostics(d1: StepDiagnostics, d2: StepDiagnostics):
    """Aggregate two consecutive substeps into one macro-step row."""
    add = ("dissipation_step", "reg_dissipation_step", "ext_power",
           "boundary_heat", "entropy_prod", "defect_reg", "defect_eps",
           "defect_semiconvex", "defect_coupling", "solver_term",
           "energy_gap_total", "pcpl_old", "pcpl_new", "gradsq_step",
           "mech_iterations", "heat_iterations", "entropy_excluded")
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
    """Itemized total-energy ledger of step k; the items sum to the gap."""
    d = traj.step(k)[2]
    items = d.ledger_items()
    assert abs(sum(items.values()) - d.energy_gap_total) < 1e-10 * max(
        1.0, abs(d.E)), "ledger items must reproduce the stored gap"
    return {"gap": d.energy_gap_total, "items": items,
            "scale": max(abs(d.E), abs(d.ext_power), d.dissipation_step, 1e-30)}


def entropy_production(traj, k):
    return traj.step(k)[2].entropy_prod


# ---------------------------------------------------------------------------
# determinant lower bound on energy sublevels


def holder_constant(grid, values_qp, exponent):
    """Max difference quotient |v(x)-v(y)| / |x-y|^exponent over quadrature
    points at most two cells apart (per axis), on the tensor point lattice."""
    d = grid.d
    npts = len(grid.quad_pts_1d)
    lat_shape = tuple(grid.extents[k] * npts for k in range(d))
    # cell-major -> per-axis lattice: cells are x-fastest, qp tensor too
    vals = values_qp.reshape(tuple(reversed(grid.extents)) + (npts,) * d)
    # reorder to (ax0_cell, ax0_q, ax1_cell, ax1_q, ...) then merge
    perm = []
    for k in range(d):
        perm.extend([d - 1 - k, d + k])
    vals = np.transpose(vals, perm).reshape(lat_shape)
    coords = [np.concatenate([(c + grid.quad_pts_1d) * grid.h[k]
                              for c in range(grid.extents[k])])
              for k in range(d)]
    max_quot = 0.0
    reach = 2 * npts
    offsets = itertools.product(*([range(0, reach + 1)] * d))
    for off in offsets:
        if all(o == 0 for o in off):
            continue
        sl_a = tuple(slice(0, lat_shape[k] - off[k]) for k in range(d))
        sl_b = tuple(slice(off[k], lat_shape[k]) for k in range(d))
        diff = np.abs(vals[sl_b] - vals[sl_a])
        dist2 = 0.0
        for k in range(d):
            dx = coords[k][off[k]:] - coords[k][:lat_shape[k] - off[k]]
            shape = [1] * d
            shape[k] = dx.size
            dist2 = dist2 + (dx.reshape(shape)) ** 2
        quot = diff / np.sqrt(dist2) ** exponent
        if quot.size:
            max_quot = max(max_quot, float(quot.max()))
    return max_quot


def hk_determinant_bound(grid, model, kin, energy_bound=None):
    """Quantitative lower bound for det grad y on an energy sublevel.

    Follows the Hoelder-continuity argument for second-gradient energies:
    measured integral norms bound the det field's inverse q-norm, a cone at
    each boundary point turns that into a pointwise bound.  The Hoelder
    constant of det grad y is an on-grid estimate (flagged: not certified),
    so the bound is reported together with the measured minimum.
    """
    d, s, q, p = grid.d, model.s, model.q, model.p
    lam = 1.0 - d / p
    if lam * q <= d:
        raise ValueError(f"admissibility q > pd/(p-d) violated: lambda*q = {lam * q:g} <= d = {d}")
    if np.min(kin.detF) <= 0:
        raise ValueError("state must satisfy det grad y > 0")
    norm_F = grid.assemble_scalar(np.sum(kin.F**2, axis=(-2, -1)) ** (s / 2.0)) ** (1.0 / s)
    norm_dinv = grid.assemble_scalar(kin.detF ** (-q)) ** (1.0 / q)
    norm_G = grid.assemble_scalar(np.sum(kin.G**2, axis=(-3, -2, -1)) ** (p / 2.0)) ** (1.0 / p)
    C1 = norm_F + norm_dinv + norm_G
    C2 = holder_constant(grid, kin.detF, lam)
    r_star = 0.5 * min(grid.lengths)
    alpha_star = np.pi / 2.0   # worst interior cone of a box corner (2D and 3D)
    with np.errstate(divide="ignore"):
        c2_term = C2 ** (-d / lam) if C2 > 0 else np.inf
    c3 = alpha_star / (2.0**q * d) * min(r_star**d, c2_term)
    bound = min(c3 ** (1.0 / q) / C1,
                (c3 / C1**q) ** (lam / (lam * q - d)))
    measured = float(np.min(kin.detF))
    out = {"bound": float(bound), "measured_min_det": measured,
           "ratio": float(bound / measured), "holder_constant": C2,
           "C1": C1, "c3": c3, "lambda": lam}
    if energy_bound is not None:
        M = main_mechanical_energy(grid, model, kin)[0]
        out["energy"] = M
        out["energy_bound_ok"] = bool(M <= energy_bound + 1e-12)
    return out


# ---------------------------------------------------------------------------
# generalized Korn constant


@dataclass
class KornState:
    """The last Korn eigenvector of a run: the start of the next solve."""

    x: np.ndarray | None = None


def korn_constant(grid, F_qp, state=None):
    """Smallest generalized eigenvalue of the Korn form against the H^1 form
    over vector fields vanishing on the fixed boundary part.

    LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) on the pencil
    (A(F), kron(G, I_d)), preconditioned by the grid's cached scalar Gram
    factorization applied to the field's d components, from the
    eigenvector kept in ``state`` (a :class:`KornState`) or from ones.  A
    kept eigenvector that already meets LOBPCG's stopping test
    |A x - rho B x| <= ``KORN_TOL`` is taken as it is, so an unchanged form
    gives the same value bit for bit.  If LOBPCG misses ``KORN_TOL`` within
    ``KORN_MAX_ITER`` iterations, inverse iteration against an LU of A(F),
    from LOBPCG's last iterate to the same test, gives the vector instead.
    The result is the Rayleigh quotient of the B-normalized eigenvector,
    which ``state`` keeps for the next call.
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
    if _korn_residual(A, gram, x) > KORN_TOL:
        with warnings.catch_warnings():   # a miss is handled below
            warnings.simplefilter("ignore", UserWarning)
            _, X, res_norms = lobpcg(A, x[:, None], B=gram, M=gram_solve, tol=KORN_TOL,
                                     maxiter=KORN_MAX_ITER, largest=False,
                                     retResidualNormsHistory=True)
        x = X[:, 0] if res_norms[-1] <= KORN_TOL else _korn_inverse_iteration(A, gram, X[:, 0])
        x = x / np.sqrt(x @ gram(x))
    state.x = x
    return float(x @ (A @ x))


def _korn_residual(A, gram, x):
    """LOBPCG's stopping measure |A x - rho B x|, rho = x.A x, at x.B x = 1."""
    Ax = A @ x
    return np.linalg.norm(Ax - float(x @ Ax) * gram(x))


def _korn_inverse_iteration(A, gram, x, max_iter=500):
    """Eigenvector of the smallest eigenvalue of (A, B), B x = gram(x), by
    inverse iteration from x against an LU of A, until the B-normalized
    iterate meets LOBPCG's stopping test (:func:`_korn_residual`)."""
    lu = splu(A, **SPD_LU)
    for _ in range(max_iter):
        x = lu.solve(gram(x))
        bn = np.sqrt(x @ gram(x))
        if bn == 0.0 or not np.isfinite(bn):
            raise RuntimeError("Korn inverse iteration broke down")
        x /= bn
        if _korn_residual(A, gram, x) <= KORN_TOL:
            break
    return x


# ---------------------------------------------------------------------------
# a-priori monitors


def apriori_monitor(traj):
    """Per-step discrete norms of the standard a-priori families."""
    grid, model = traj.grid, traj.model
    p = model.p
    out = {"t": [], "y_w2p": [], "rate_grad_l2": [], "min_det": [],
           "theta_l2": [], "theta_h1": [], "w_rate_dual": []}
    for k, snap in enumerate(traj.snapshots):
        yv = grid.eval_values(snap.y)
        w2p = (grid.assemble_scalar(np.sum(yv**2, axis=-1) ** (p / 2.0))
               + grid.assemble_scalar(np.sum(snap.F**2, axis=(-2, -1)) ** (p / 2.0))
               + grid.assemble_scalar(np.sum(snap.G**2, axis=(-3, -2, -1)) ** (p / 2.0)))
        out["y_w2p"].append(w2p ** (1.0 / p))
        th, gth = grid.eval_scalar(snap.theta)
        out["theta_l2"].append(np.sqrt(grid.assemble_scalar(th**2)))
        out["theta_h1"].append(np.sqrt(grid.assemble_scalar(th**2 + np.sum(gth**2, axis=-1))))
        out["min_det"].append(float(snap.detF.min()))
        out["t"].append(snap.t)
        if k == 0:
            out["rate_grad_l2"].append(0.0)
            out["w_rate_dual"].append(0.0)
            continue
        prev = traj.snapshots[k - 1]
        tau = snap.t - prev.t
        rate = (snap.F - prev.F) / tau
        out["rate_grad_l2"].append(np.sqrt(grid.assemble_scalar(np.sum(rate**2, axis=(-2, -1)))))
        dw = (snap.w_qp - prev.w_qp) / tau
        b = grid.assemble_gradient(1, source=dw)
        out["w_rate_dual"].append(grid.dual_norm(b, free_only=False))
    return {k: np.asarray(v) for k, v in out.items()}


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
            therm.append(draw([one] * d, "cos", 1.0))
            times.append([rng.uniform(0.5, 2.0), rng.uniform(0, 2 * np.pi), rng.uniform(0.5, 2.0)])
        self.om_z, self.ph_z, self.om_v = np.array(times).reshape(-1, 3).T

        def vector(X):   # value, gradient, Hessian; component axis before the derivative axes
            parts = [[_separable(X, *c) for c in comps] for comps in mech]
            return [np.stack([np.stack([pc[j] for pc in pe], axis=-1 - j) for pe in parts])
                    for j in range(3)]

        def scalar(X):
            parts = [_separable(X, *v) for v in therm]
            return [np.stack([pe[j] for pe in parts]) for j in range(3)]

        self.Z, self.gradZ, self.hessZ = vector(grid.qcoords)
        self.V, self.gradV, _ = scalar(grid.qcoords)
        self.Zface = {name: vector(p.qcoords)[0] for name, p in grid.faces.items()}
        self.Vface = {name: scalar(p.qcoords)[0] for name, p in grid.faces.items()}

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
    at points X (..., d), for modes (P_k, a_k, ph_k, "sin" | "cos")."""
    factors = []
    for k, (P, a, ph, trig) in enumerate(modes):
        x = X[..., k]
        s, c = np.sin(a * x + ph), np.cos(a * x + ph)
        g0, g1 = (s, a * c) if trig == "sin" else (c, -a * s)
        g2 = -a * a * g0
        p0, p1, p2 = P(x), P.deriv(1)(x), P.deriv(2)(x)
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
    traj.require_start_at_zero("weak_residuals")
    grid, model = traj.grid, traj.model
    scenario, eps, snaps = traj.scenario, traj.eps, traj.snapshots
    thermal = not scenario.isothermal
    mech_res, heat_res = np.zeros((2, len(bank.V)))

    def pair(table, field, weights=grid.qweights):
        """Integral of table[e] : field for every element e; quadrature on axis 1."""
        wf = field * weights.reshape((-1,) + (1,) * (field.ndim - 2))
        return table.reshape(len(table), -1) @ wf.ravel()

    if thermal:   # temperature gradient and face traces, once per snapshot
        gth = [grid.eval_scalar(s.theta)[1] for s in snaps]
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
            if scenario.bulk_force is not None:
                gload = np.asarray(scenario.bulk_force(t, grid.qcoords), dtype=float)
                contrib -= pair(bank.Z, gload)
            if scenario.traction is not None:
                for name in grid.neumann_faces:
                    p = grid.faces[name]
                    fval = np.asarray(scenario.traction(t, name, p.qcoords), dtype=float)
                    contrib -= pair(bank.Zface[name], fval, p.weights)
            mech_res += wt * bank.s(t) * contrib
            if not thermal:
                continue

            w_qp = (1 - lam) * s0.w_qp + lam * s1.w_qp
            gth_t = (1 - lam) * gth[k - 1] + lam * gth[k]
            flux = _matmul(model.pullback_conductivity(F, th_qp), gth_t[..., None])[..., 0]
            xi = np.sum(visc * rate, axis=(-2, -1))   # the viscous power nu |Cdot|^2
            src = xi / (1.0 + eps * xi) + np.sum(cpl * rate, axis=(-2, -1))
            robin = 0.0
            for name, p in grid.faces.items():
                tb = scenario._theta_b_raw(t, name, p.qcoords)
                thf_t = (1 - lam) * thf[k - 1][name] + lam * thf[k][name]
                robin = robin + pair(bank.Vface[name], thf_t - tb / (1.0 + eps * tb), p.weights)
            heat_res += wt * (bank.r(t) * (pair(bank.gradV, flux) - pair(bank.V, src)
                                           + model.kappa * robin)
                              - bank.rdot(t) * pair(bank.V, w_qp))

    if thermal:
        heat_res -= bank.r(0.0) * pair(bank.V, snaps[0].w_qp)
    return (float(np.sqrt(np.mean(mech_res**2))),
            float(np.sqrt(np.mean(heat_res**2))))


# ---------------------------------------------------------------------------
# run-level certificate summary


def run_certificates(traj, tol_pos=1e-10, ledger_rtol=1e-8, w_tol=1e-12):
    """Evaluate the per-run certificates and return a JSON-able summary.

    A run passes only if every accepted mechanical solve descended, the
    temperature never undershot below -tol_pos, every state stayed locally
    invertible with the certified determinant bound below the measured
    minimum, entropy production stayed nonnegative, the itemized energy
    ledger closed to ledger_rtol, and the stored enthalpy matched the
    constitutive relation pointwise.  A trajectory resumed from a
    checkpoint holds only the steps after its restart; the summary then
    reports ``partial`` with the restart step as ``first_step``.
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

    hk_ok = True
    hk_margin = np.inf
    for d in diags:
        if np.isfinite(d.hk_bound):
            hk_ok &= d.hk_bound <= d.min_detF + 1e-14
            hk_margin = min(hk_margin, d.min_detF - d.hk_bound)
    add("hk_bound_below_min_det", hk_ok,
        hk_margin if np.isfinite(hk_margin) else 0.0, 0.0)

    min_entropy = min((d.entropy_prod for d in diags), default=0.0)
    add("entropy_production_nonnegative", min_entropy >= -1e-12, min_entropy, -1e-12)

    worst_gap = 0.0
    for d in diags:
        scale = max(abs(d.E), abs(d.ext_power), d.dissipation_step, 1.0)
        worst_gap = max(worst_gap, abs(d.energy_gap_total) / scale)
    add("energy_ledger_closes", worst_gap <= ledger_rtol, worst_gap, ledger_rtol)

    if not iso:
        worst_w = 0.0
        for snap in traj.snapshots:
            w_check = traj.model.enthalpy(snap.F, np.maximum(snap.theta_qp, 0.0))
            worst_w = max(worst_w, float(np.max(np.abs(snap.w_qp - w_check))))
        add("enthalpy_consistency", worst_w <= w_tol, worst_w, w_tol)

    korn_vals = [d.korn_const for d in diags if np.isfinite(d.korn_const)]
    if korn_vals:
        add("korn_constant_positive", min(korn_vals) > 0.0, min(korn_vals), 0.0)

    return {
        "n_steps": traj.n_steps,
        "first_step": traj.first_step,
        "partial": traj.first_step > 0,
        "tau": traj.tau,
        "eps": traj.eps,
        "scenario": traj.scenario.name,
        "isothermal": iso,
        "max_mech_residual": max((d.mech_residual for d in diags), default=0.0),
        "max_heat_residual": max((d.heat_residual for d in diags), default=0.0),
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
