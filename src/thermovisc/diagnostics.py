"""Run-time certificates: energy ledgers, entropy production, a rigorous
lower bound of det grad y over every cell, the generalized Korn constant
and weak-form residual audits.

The solvers never see these numbers.  The step certificates compute
them from the two snapshots and the step data (tau, eps, theta_b), but
read three from the solves: the load vector, the conductivity
``heat_inc.K_prev`` and the residual vectors paired in ``solver_term``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields

import numpy as np
from numpy.polynomial import Polynomial
from scipy.sparse.linalg import lobpcg, splu  # splu: no caller; perfbench wraps diagnostics.splu

from .grid import QUAD_PTS, _gauss_rule
from .heat import regularized, robin_flux
from .materials import _ddot, _frob, _matmul, det, viscous_form
from .mech import main_mechanical_energy, semiconvexity_gap

THETA_FLOOR = 1e-12   # entropy quotients exclude colder quadrature points
KORN_TOL = 1e-8       # LOBPCG residual |A x - lambda B x| at x.B x = 1
KORN_MAX_ITER = 1000  # LOBPCG iterations; a miss warns (see korn_constant)
KORN_SLACK = 0.1      # korn_certificate solves again once the bound loses this share
LEDGER_RTOL = 1e-8    # energy_ledger_closes: worst step gap relative to its scale
W_TOL = 1e-12         # enthalpy_consistency: stored against recomputed enthalpy

# How merge_step_diagnostics folds a field of a halved step's two substep rows
# (a, b): least and most are min and max bit for bit, ties and signed zeros
# included, but keep a NaN from either substep.
SUM = {"merge": lambda a, b: a + b}
FIRST = {"merge": lambda a, b: a}
LAST = {"merge": lambda a, b: b}
LEAST = {"merge": lambda a, b: b if b < a or b != b else a}
MOST = {"merge": lambda a, b: b if b > a or b != b else a}


@dataclass
class StepDiagnostics:
    """The run's one record of an accepted step: its certificates and the
    descent and work of its solves.  Each field names the rule that merges
    it over a halved step's substeps."""

    t: float = field(metadata=LAST)
    M: float = field(metadata=LAST)
    M_prev: float = field(metadata=FIRST)
    H_val: float = field(metadata=LAST)
    Phi_cpl: float = field(metadata=LAST)
    W_total: float = field(metadata=LAST)
    E: float = field(metadata=LAST)
    E_prev: float = field(metadata=FIRST)
    dissipation_step: float = field(metadata=SUM)
    reg_dissipation_step: float = field(metadata=SUM)
    ext_power: float = field(metadata=SUM)
    boundary_heat: float = field(metadata=SUM)
    entropy_prod: float = field(metadata=SUM)
    entropy_total: float = field(metadata=LAST)
    min_detF: float = field(metadata=LEAST)
    hk_bound: float = field(metadata=LAST)
    korn_const: float = field(metadata=LAST)
    mech_residual: float = field(metadata=MOST)
    heat_residual: float = field(metadata=MOST)
    energy_gap_total: float = field(metadata=SUM)
    min_theta: float = field(metadata=LEAST)
    defect_reg: float = field(metadata=SUM)
    defect_eps: float = field(metadata=SUM)
    defect_semiconvex: float = field(metadata=SUM)
    defect_coupling: float = field(metadata=SUM)
    solver_term: float = field(metadata=SUM)
    pcpl_old: float = field(metadata=SUM)
    mech_iterations: int = field(metadata=SUM)
    heat_iterations: int = field(metadata=SUM)
    descent_gap: float = field(metadata=LEAST)   # J0 - J of the mech solve
    iterate_min_det: float = field(metadata=LEAST)   # min det F over the accepted mech iterates
    mech_factorizations: int = field(metadata=SUM)   # sparse LUs and CG iterations of each solve
    mech_pcg_iterations: int = field(metadata=SUM)
    heat_factorizations: int = field(metadata=SUM)
    heat_pcg_iterations: int = field(metadata=SUM)
    # certified lower bound of the Korn constant
    korn_lower: float = field(default=float("nan"), metadata=LAST)
    substeps: int = field(default=1, metadata=SUM)   # accepted steps of a halved step

    def ledger_items(self):
        """The itemized total-energy identity of the step, whose sum is
        energy_gap_total (on a halved step, the sum of the substeps' sums)."""
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

    def ledger_scale(self):
        """The energy scale the ledger gap is measured against."""
        return max(abs(self.E), abs(self.ext_power), self.dissipation_step, 1.0)


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

    xi = model.dissipation_rate(snap_prev.F, dF / tau, th_prev)
    xi_reg = regularized(xi, eps)
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
        heat_resid = 0.0
        heat_iters = heat_lus = heat_pcg = 0
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
        entropy_tot = total_entropy(grid, model, snap_new)
        min_theta = heat_res.min_theta
        heat_resid = heat_res.residual_norm
        heat_iters = heat_res.iterations
        heat_lus, heat_pcg = heat_res.factorizations, heat_res.pcg_iterations
        ledger_reg = dissipation_step - reg_step

    row = StepDiagnostics(
        t=snap_new.t, M=M, M_prev=M_prev, H_val=H_val, Phi_cpl=Phi_cpl,
        W_total=W_total, E=E, E_prev=E_prev,
        dissipation_step=dissipation_step, reg_dissipation_step=reg_step,
        ext_power=ext_power, boundary_heat=boundary_heat,
        entropy_prod=entropy_prod, entropy_total=entropy_tot,
        min_detF=float(snap_new.detF.min()), hk_bound=float("nan"), korn_const=float("nan"),
        mech_residual=mech_res.residual_norm, heat_residual=heat_resid,
        energy_gap_total=float("nan"), min_theta=min_theta,
        defect_reg=ledger_reg, defect_eps=defect_eps,
        defect_semiconvex=defect_semiconvex, defect_coupling=defect_coupling,
        solver_term=mech_term + heat_term, pcpl_old=pcpl_old,
        mech_iterations=mech_res.iterations, heat_iterations=heat_iters,
        descent_gap=mech_res.descent_gap, iterate_min_det=min(mech_res.iterate_min_dets),
        mech_factorizations=mech_res.factorizations,
        mech_pcg_iterations=mech_res.pcg_iterations,
        heat_factorizations=heat_lus, heat_pcg_iterations=heat_pcg)
    row.energy_gap_total = sum(row.ledger_items().values())
    return row


def merge_step_diagnostics(d1: StepDiagnostics, d2: StepDiagnostics):
    """Aggregate two consecutive substeps into one macro-step row, each
    field by the rule its declaration names."""
    return StepDiagnostics(**{f.name: f.metadata["merge"](getattr(d1, f.name), getattr(d2, f.name))
                              for f in dc_fields(StepDiagnostics)})


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
    """Itemized total-energy ledger of step k with the scale its gap is
    judged against in :func:`run_certificates`; raises ValueError unless the
    items sum to the stored gap."""
    d = traj.step(k)[2]
    items = d.ledger_items()
    total = sum(items.values())
    if not abs(total - d.energy_gap_total) < 1e-10 * max(1.0, abs(d.E)):
        raise ValueError(f"step {k}: the ledger items sum to {total!r}, "
                         f"not to the stored gap {d.energy_gap_total!r}")
    return {"gap": d.energy_gap_total, "items": items, "scale": d.ledger_scale()}


# ---------------------------------------------------------------------------
# determinant lower bound


def hk_determinant_bound(grid, y):
    """Least lower bound of det grad y over all closed cells, at or below
    the Gauss-point minimum (:meth:`StructuredGrid.det_lower_bounds`).  The
    name and the ``hk_bound`` column recall the Healey-Kroemer positivity
    of det grad y on energy sublevels (ESAIM COCV 15, 2009)."""
    return float(grid.det_lower_bounds(y).min())


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
    G = grid.h1_gram()

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
    """Deterministic bank of smooth space-time test fields, kept as 1D factors.

    Mechanical tests Z_e(x) s_e(t) vanish on the fixed boundary part for all
    times; thermal tests V_e(x) r_e(t) vanish at the final time.  Every
    spatial field is separable, amp * prod_k f_k(x_k), with f_k = P_k
    sin(a x + ph) for a mechanical component (P_k the product of the clamp
    factors x/L or 1 - x/L of the fixed faces on axis k, else 1) and f_k =
    cos(a x + ph) for the thermal field.  The bank keeps only the factors,
    with components 0..d-1 the mechanical ones and component d the thermal
    field: ``line[k]`` (3, ne, d + 1, L_k) holds f_k, f_k' and f_k'' of
    every element and component on axis k's Gauss line, the L_k = cells x
    QUAD_PTS coordinates of the quadrature points along axis k (read from
    ``grid.qcoords``, cell-major); ``end[k]`` (3, ne, d + 1, 2) holds them
    at the axis's end coordinates 0 and L_k, where its two faces lie; and
    ``amp`` (ne, d + 1) the amplitudes.  A value, gradient or Hessian entry
    at a point is a product of one factor per axis
    (:func:`thermovisc.grid.tensor_derivatives`), which
    :func:`weak_residuals` never forms.  ``s(t)``, ``r(t)`` and ``rdot(t)``
    return (ne,) arrays.
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

        def draw(scale):
            """One field's (a_k, ph_k) on every axis k and its amplitude."""
            modes = [(np.pi * int(rng.integers(1, 3)) / L, float(rng.uniform(0, 2 * np.pi)))
                     for L in grid.lengths]
            return modes, scale * float(rng.uniform(0.5, 1.5))

        modes, amp, times = [], [], []
        for _ in range(n_elements):
            for c in range(d + 1):
                m, a = draw(clamp_scale if c < d else 1.0)
                modes.append(m)
                amp.append(a)
            times.append([rng.uniform(0.5, 2.0), rng.uniform(0, 2 * np.pi), rng.uniform(0.5, 2.0)])
        self.om_z, self.ph_z, self.om_v = np.array(times).reshape(-1, 3).T
        self.amp = np.array(amp).reshape(n_elements, d + 1)
        modes = np.array(modes).reshape(n_elements, d + 1, d, 2)   # (a, ph) per axis

        self.line, self.end = [], []
        for k, x in enumerate(_gauss_lines(grid)):
            x = np.concatenate([x, [0.0, grid.lengths[k]]])
            a, ph = modes[:, :, k, 0, None], modes[:, :, k, 1, None]
            table = np.concatenate(
                [_axis_factors(x, clamp[k], a[:, :d], ph[:, :d], "sin"),
                 _axis_factors(x, one, a[:, d:], ph[:, d:], "cos")], axis=2)
            self.line.append(table[..., :-2])
            self.end.append(table[..., -2:])

    def s(self, t):
        return np.cos(self.om_z * np.pi * t / self.T + self.ph_z)

    def r(self, t):
        return (1.0 - t / self.T) * np.cos(self.om_v * np.pi * t / self.T)

    def rdot(self, t):
        arg = self.om_v * np.pi * t / self.T
        return (-np.cos(arg) / self.T
                - (1.0 - t / self.T) * self.om_v * np.pi / self.T * np.sin(arg))


def _gauss_lines(grid):
    """Each axis's Gauss line: the coordinates along axis k of the cell
    quadrature points, cells x QUAD_PTS, cell-major, read from the points
    of the first row of cells along the axis in ``grid.qcoords``."""
    d = grid.d
    pts = grid.qcoords.reshape(grid.extents[::-1] + (QUAD_PTS,) * d + (d,))
    lines = []
    for k in range(d):
        index = [0] * (2 * d) + [k]
        index[d - 1 - k] = index[d + k] = slice(None)   # cell axis k, point axis k
        lines.append(pts[tuple(index)].ravel())
    return lines


def _axis_factors(x, P, a, ph, trig):
    """f, f' and f'' of f = P(x) trig(a x + ph) at the points x, stacked
    (3, ...) for arrays a, ph (..., 1) of modes."""
    arg = a * x + ph
    s, c = np.sin(arg), np.cos(arg)
    g0, g1 = (s, a * c) if trig == "sin" else (c, -a * s)
    g2 = -a * a * g0
    p0, p1, p2 = P(x), P.deriv(1)(x), P.deriv(2)(x)
    return np.stack([p0 * g0, p1 * g0 + p0 * g1, p2 * g0 + 2.0 * p1 * g1 + p0 * g2])


def _time_nodes(t0, t1, npts=5):
    g, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (t1 - t0) * g + 0.5 * (t0 + t1), 0.5 * (t1 - t0) * w


def _component_major(a):
    """a (cells, points, *entries) as a view of a copy whose entries
    a[..., i, j] are each contiguous (cells, points) blocks."""
    entries = tuple(range(2, a.ndim))
    front = tuple(range(a.ndim - 2))
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, entries, front)), front, entries)


def _lines(a, extents):
    """a (cells, points, *entries), a cell or face field over the axes of
    ``extents`` in the grid's layout (cells with the first axis fastest,
    points with the last axis fastest), as a view (entries, n_{m-1}, Q, ...,
    n_0, Q): each axis's line index (cell, point) adjacent, the first
    axis's fastest."""
    m = len(extents)
    t = a.reshape(tuple(extents[::-1]) + (QUAD_PTS,) * m + (-1,))
    return t.transpose([2 * m] + [ax for k in reversed(range(m)) for ax in (m - 1 - k, m + k)])


def _line_tables(bank, fields, axes, weights, scale):
    """Factor tables of a batch of fields for :func:`_pair_lines`.

    Field f pairs with component c_f of the tests, differentiated
    orders_f[k] times along axis k, for fields [(c_f, orders_f)]; tables[j]
    (nf, ne, L) holds its factors on the Gauss line of axes[j] times the
    line's quadrature weights, and the first table also carries
    ``scale`` (ne, d + 1) of the component."""
    tables = [np.stack([bank.line[k][o[k], :, c] for c, o in fields]) * w
              for k, w in zip(axes, weights)]
    tables[0] = tables[0] * np.stack([scale[:, c] for c, _ in fields])[:, :, None]
    return tables


def _pair_lines(fields, tables):
    """Integral of every field against every element's separable test
    function, contracted one axis at a time (sum factorization).

    fields (nf, ...) are fields over m axes in the layout of
    :func:`_lines`, and tables[j] (nf, ne, L_j), as from
    :func:`_line_tables`, are over the same axes in order.  The first axis,
    whose line index is fastest, is one GEMM per field against its table;
    each further axis contracts with the element's own factor.  Returns
    (nf, ne)."""
    nf, ne, line0 = tables[0].shape
    pairs = np.matmul(fields.reshape(nf, -1, line0), tables[0].transpose(0, 2, 1))
    if len(tables) == 1:
        return pairs[:, 0]
    further = "abc"[:len(tables) - 1]   # axes 1, ..., m - 1
    pairs = pairs.reshape((nf,) + tuple(t.shape[2] for t in tables[:0:-1]) + (ne,))
    subs = ",".join(["f" + further[::-1] + "e"] + ["fe" + x for x in further])
    return np.einsum(subs + "->fe", pairs, *tables[1:])


def weak_residuals(traj, bank: TestBank):
    """Residual RMS of the two space-time weak identities on the bank.

    Both identities are audited for the system actually solved: for eps > 0
    the linear eps-viscosity, the capped dissipation source and the damped
    boundary/initial temperature data enter; at eps = 0 they are the plain
    identities.  Evaluation uses the affine interpolants with per-step Gauss
    quadrature in time.  Each term is evaluated once per time node, on
    copies of the snapshots' F, G and temperature gradient whose entries
    are contiguous, and paired with every bank element by sum factorization
    (:func:`_pair_lines`): a cell field is contracted with the bank's line
    factors one axis at a time, a face field with the factors of its d - 1
    tangential lines times the normal factor at the face coordinate.  The
    terms affine in time, the enthalpy and the Robin face traces, are
    paired once per snapshot and blended.
    """
    grid, model = traj.grid, traj.model
    scenario, eps, snaps = traj.scenario, traj.eps, traj.snapshots
    thermal = not scenario.isothermal
    d, ns = grid.d, len(snaps)
    weights = [np.tile(_gauss_rule(1)[1] * h, n) for h, n in zip(grid.h, grid.extents)]
    axes = range(d)

    def orders(derivs):
        return tuple(derivs.count(k) for k in axes)

    # stress entries (i, b), then hyperstress entries (i, b, c), as _lines lists them
    grad = [(i, orders((b,))) for i in axes for b in axes]
    hess = [(i, orders((b, c))) for i in axes for b in axes for c in axes]
    mech_tables = _line_tables(bank, grad + hess, axes, weights, bank.amp)

    def face(p, comps):
        """The tables of face fields of components comps, on the face's
        tangential lines and scaled by the normal factor at the face
        coordinate, and the face's extents."""
        tang = [k for k in axes if k != p.axis]
        tables = _line_tables(bank, [(c, (0,) * d) for c in comps], tang,
                              [weights[k] for k in tang],
                              bank.amp * bank.end[p.axis][0, ..., p.side])
        return tables, [grid.extents[k] for k in tang]

    traction = {name: face(grid.faces[name], axes)
                for name in grid.neumann_faces} if scenario.traction is not None else {}
    mech_res, heat_res = np.zeros((2, len(bank.amp)))
    F = [_component_major(s.F) for s in snaps]
    G = [_component_major(s.G) for s in snaps]

    if thermal:
        heat_tables = _line_tables(bank, [(d, orders((a,))) for a in axes] + [(d, (0,) * d)],
                                   axes, weights, bank.amp)
        gth = [_component_major(s.theta_grad_qp) for s in snaps]

        def every_snapshot(tables, extents, fields):
            """Pairs (ns, ne) of the snapshots' fields (cells, points, ns)."""
            return _pair_lines(_lines(fields, extents),
                               [np.broadcast_to(t, (ns,) + t.shape[1:]) for t in tables])

        # the terms affine in time, paired once per snapshot: the enthalpy and
        # the Robin face traces (each traced once) less the damped boundary datum
        w_pair = every_snapshot([t[d:] for t in heat_tables], grid.extents,
                                np.stack([s.w_qp for s in snaps], axis=-1))
        theta_b, robin_pair = regularized(scenario.theta_b, eps), 0.0
        for name, p in grid.faces.items():
            traces = np.stack([grid.eval_face_scalar(name, s.theta) for s in snaps], axis=-1)
            robin_pair = robin_pair + every_snapshot(*face(p, (d,)), traces - theta_b)

    for k in range(1, traj.n_steps + 1):
        s0, s1 = snaps[k - 1], snaps[k]
        tau = s1.t - s0.t
        rate = (F[k] - F[k - 1]) / tau
        for t, wt in zip(*_time_nodes(s0.t, s1.t)):
            lam = (t - s0.t) / tau
            F_t = (1 - lam) * F[k - 1] + lam * F[k]
            G_t = (1 - lam) * G[k - 1] + lam * G[k]
            th_qp = np.maximum((1 - lam) * s0.theta_qp + lam * s1.theta_qp, 0.0)

            visc = model.viscous_stress(F_t, rate, th_qp)
            stress = visc + eps * rate + model.elastic_stress(F_t)
            if thermal:
                cpl = model.coupling_stress(F_t, th_qp)
                stress = stress + cpl
            fields = np.concatenate([_lines(stress, grid.extents),
                                     _lines(model.hyperstress(G_t), grid.extents)])
            contrib = _pair_lines(fields, mech_tables).sum(axis=0)
            for name, (tables, extents) in traction.items():
                fval = np.asarray(scenario.traction(t, name, grid.faces[name].qcoords), dtype=float)
                if np.any(fval):   # an unloaded face pairs to exact zeros
                    contrib -= _pair_lines(_lines(fval, extents), tables).sum(axis=0)
            mech_res += wt * bank.s(t) * contrib
            if not thermal:
                continue

            gth_t = (1 - lam) * gth[k - 1] + lam * gth[k]
            flux = _matmul(model.pullback_conductivity(F_t, th_qp), gth_t[..., None])[..., 0]
            xi = _ddot(visc, rate)   # the viscous power nu |Cdot|^2
            src = regularized(xi, eps) + _ddot(cpl, rate)
            pairs = _pair_lines(np.concatenate([_lines(flux, grid.extents),
                                                _lines(src, grid.extents)]), heat_tables)
            w_t = (1 - lam) * w_pair[k - 1] + lam * w_pair[k]
            robin = (1 - lam) * robin_pair[k - 1] + lam * robin_pair[k]
            heat_res += wt * (bank.r(t) * (pairs[:d].sum(axis=0) - pairs[d]
                                           + model.kappa * robin)
                              - bank.rdot(t) * w_t)

    if thermal:
        heat_res -= bank.r(0.0) * w_pair[0]
    return (float(np.sqrt(np.mean(mech_res**2))),
            float(np.sqrt(np.mean(heat_res**2))))


# ---------------------------------------------------------------------------
# run-level certificate summary


def run_certificates(traj):
    """Evaluate the per-run certificates and return a JSON-able summary.

    A run passes only if every step's mechanical solves descended, the
    temperature never undershot below -tol_pos (the run's ``SolverConfig``),
    every state stayed locally invertible with a positive certified
    determinant bound on every cell, entropy production stayed nonnegative,
    the itemized energy ledger closed to ``LEDGER_RTOL``, and the stored
    enthalpy matched the constitutive relation pointwise to ``W_TOL``.
    The determinant and Korn checks read the rows their schedules fill in.
    A NaN on any row fails its check (``np.min`` and ``np.max`` keep it).
    """
    diags = traj.step_diags
    iso = traj.scenario.isothermal
    cfg = traj.config
    checks = []

    def add(name, passed, value, threshold):
        checks.append({"name": name, "passed": bool(passed),
                       "value": float(value), "threshold": float(threshold)})

    def scheduled(every):
        return [d for k, d in enumerate(diags, 1) if every and k % every == 0]

    n_violations = sum(1 for d in diags if not d.descent_gap >= 0.0)
    add("mech_descent_violations", n_violations == 0, n_violations, 0)

    min_th = float(np.min([d.min_theta for d in diags] or [0.0]))
    add("min_theta", min_th >= -cfg.tol_pos, min_th, -cfg.tol_pos)

    min_det = float(np.min([d.min_detF for d in diags] or [1.0]))
    add("min_detF_positive", min_det > 0.0, min_det, 0.0)

    hk_rows = scheduled(cfg.hk_every)
    if hk_rows:
        min_hk = float(np.min([d.hk_bound for d in hk_rows]))
        add("hk_bound_positive", min_hk > 0.0, min_hk, 0.0)

    min_entropy = float(np.min([d.entropy_prod for d in diags] or [0.0]))
    add("entropy_production_nonnegative", min_entropy >= -1e-12, min_entropy, -1e-12)

    worst_gap = float(np.max([abs(d.energy_gap_total) / d.ledger_scale() for d in diags],
                             initial=0.0))
    add("energy_ledger_closes", worst_gap <= LEDGER_RTOL, worst_gap, LEDGER_RTOL)

    if not iso:
        worst_w = float(np.max([np.abs(s.w_qp - traj.model.enthalpy(
            s.F, np.maximum(s.theta_qp, 0.0))) for s in traj.snapshots]))
        add("enthalpy_consistency", worst_w <= W_TOL, worst_w, W_TOL)

    # korn_const is NaN on the rows the bound certifies without a solve
    korn_rows = scheduled(cfg.korn_every)
    korn_vals = [d.korn_const for d in korn_rows if np.isfinite(d.korn_const)]
    if korn_vals:
        add("korn_constant_positive", min(korn_vals) > 0.0, min(korn_vals), 0.0)
    if korn_rows:
        min_lower = float(np.min([d.korn_lower for d in korn_rows]))
        add("korn_lower_positive", min_lower > 0.0, min_lower, 0.0)

    return {
        "n_steps": traj.n_steps,
        "tau": traj.tau,
        "eps": traj.eps,
        "scenario": traj.scenario.name,
        "isothermal": iso,
        "max_mech_residual": float(np.max([d.mech_residual for d in diags], initial=0.0)),
        "max_heat_residual": float(np.max([d.heat_residual for d in diags], initial=0.0)),
        "korn_solves": len(korn_vals),
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
