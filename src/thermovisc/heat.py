"""One thermal update of the staggered scheme.

Given the previous state and the freshly updated deformation, minimize
over nodal temperatures

    int (1/tau) (W(grad y_new, theta) - w_prev * theta)
        + (1/2) grad theta . K_prev grad theta
        - xi_reg_prev * theta - dPhiC(grad y_new, theta) : dF/tau  dx
    + int_Gamma (kappa/2) (theta - theta_b)^2 dS

where K_prev and the capped dissipation source are explicit (evaluated
at the previous deformation and temperature) while the thermo-mechanical
coupling uses the implicit antiderivative form, which is what keeps the
temperature nonnegative.  The functional is extended below theta = 0 by
the quadratic Taylor models of its pieces, so the minimization runs
unconstrained and nonnegativity is audited afterwards.

With K_prev frozen, the conduction and Robin terms are one fixed quadratic
form per step, written in the deviation u = theta - theta_ref from a
reference boundary temperature (the first value of theta_b):

    (1/2) u.A u - l.u + c,   l = kappa int_Gamma (theta_b - theta_ref) v dS,
                             c = int_Gamma (kappa/2) (theta_b - theta_ref)^2 dS,

where A is the conduction stiffness plus kappa times the boundary mass.
These are exactly the two terms above, constant included (the stiffness
vanishes on constants, so the shift only moves the Robin term).  For
uniform boundary data l = 0 and c = 0, so no term of size
kappa theta_b^2 |Gamma| is formed and cancelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from .grid import SPD_LU, NodalField
from .materials import _ddot, det
from .mech import SolverConfig
from .newton import FrozenFactor, minimize


@dataclass
class HeatIncrement:
    """Frozen data of one thermal step."""

    grid: object
    model: object
    theta_prev: NodalField
    w_prev_qp: np.ndarray            # (ncells, nq)
    tau: float
    eps: float
    theta_b: dict                    # face -> (n_face_cells, nqf), already averaged
    F_prev: np.ndarray = field(repr=False)   # deformation gradients at the
    F_new: np.ndarray = field(repr=False)    # quadrature points, before and after

    def __post_init__(self):
        g, m = self.grid, self.model
        if det(self.F_prev).min() <= 0 or det(self.F_new).min() <= 0:
            raise ValueError("deformation states must be locally invertible")
        self.theta_prev_qp = g.eval_values(self.theta_prev)
        if self.theta_prev_qp.min() < -1e-9:
            raise ValueError("previous temperature must be nonnegative")
        dF = (self.F_new - self.F_prev) / self.tau
        # explicit data: conductivity and capped dissipation at the old state
        th_old = np.maximum(self.theta_prev_qp, 0.0)
        self.K_prev = m.pullback_conductivity(self.F_prev, th_old)
        self.xi_qp = m.dissipation_rate(self.F_prev, dF, th_old)
        self.xi_reg_qp = self.xi_qp / (1.0 + self.eps * self.xi_qp)
        # implicit coupling enters through phi1'(F_new) : dF
        self.phi1_new = m.phi1(self.F_new)
        self.cpl_qp = _ddot(m.phi1_grad(self.F_new), dF)
        # conduction and Robin terms: the fixed form (1/2) u.A u - l.u + c in
        # u = theta - theta_ref (module docstring)
        t_ref = float(next(iter(self.theta_b.values())).flat[0])
        self.theta_ref = g.constant_field(t_ref)
        dev = {name: tb - t_ref for name, tb in self.theta_b.items()}
        self.A = g.assemble_hessian(1, c4=self.K_prev) + m.kappa * g.assemble_face_hessian()
        self.robin_load = m.kappa * g.assemble_face_gradient(g.faces, dev)
        self.robin_const = 0.5 * m.kappa * sum(
            float(np.einsum("cq,q->", d**2, g.faces[name].weights)) for name, d in dev.items())


@dataclass
class HeatResult:
    theta_new: NodalField
    w_new_qp: np.ndarray
    theta_new_qp: np.ndarray
    theta_new_grad_qp: np.ndarray
    min_theta: float
    clamp_magnitude: float
    iterations: int
    residual_norm: float
    residual_vector: np.ndarray
    factorizations: int = 0       # sparse LUs made during the solve
    pcg_iterations: int = 0       # CG iterations against the kept LU


def heat_functional(inc: HeatIncrement, theta: NodalField):
    g, m = inc.grid, inc.model
    th = g.eval_values(theta)
    W = m.w_total_ext(inc.phi1_new, th)
    mval, _, _ = m.coupling_factor_ext(th)
    dens = (W - inc.w_prev_qp * th) / inc.tau - inc.xi_reg_qp * th - mval * inc.cpl_qp
    u = theta.values - inc.theta_ref.values
    return (g.assemble_scalar(dens) + float(u @ (0.5 * (inc.A @ u) - inc.robin_load))
            + inc.robin_const)


def heat_gradient(inc: HeatIncrement, theta: NodalField):
    g, m = inc.grid, inc.model
    th = g.eval_values(theta)
    w_th = m.enthalpy_ext(inc.phi1_new, th)
    _, m1, _ = m.coupling_factor_ext(th)
    source = (w_th - inc.w_prev_qp) / inc.tau - inc.xi_reg_qp - m1 * inc.cpl_qp
    u = theta.values - inc.theta_ref.values
    return g.assemble_gradient(1, source=source) + inc.A @ u - inc.robin_load


def heat_hessian(inc: HeatIncrement, theta: NodalField):
    g, m = inc.grid, inc.model
    th = g.eval_values(theta)
    cv = m.heat_capacity_ext(inc.phi1_new, th)
    _, _, m2 = m.coupling_factor_ext(th)
    c0 = cv / inc.tau - m2 * inc.cpl_qp
    return inc.A + g.assemble_hessian(1, c0=c0)


def solve_heat(inc: HeatIncrement, config: SolverConfig | None = None,
               frozen: FrozenFactor | None = None) -> HeatResult:
    """Damped Newton from theta_prev; audits and clamps tiny undershoots.

    The globalization (shift ladder, Armijo backtracking, noise-floor probe
    against J0, CG against the factorization ``frozen`` keeps between
    solves) is :func:`thermovisc.newton.minimize`, over all dofs with the
    scalar (H^1)* norm; the thermal field has no Dirichlet part.
    ``residual_norm`` is always the dual norm of the returned
    ``residual_vector``, the gradient at the final Newton iterate (before
    any clamp of a nodal undershoot).  ``theta_new_qp`` and
    ``theta_new_grad_qp`` are the returned field and its gradient at the
    quadrature points, after any clamp.
    """
    cfg = config or SolverConfig()
    g, m = inc.grid, inc.model
    frozen = frozen or FrozenFactor()
    work0 = frozen.factorizations, frozen.pcg_iterations

    res = minimize(
        inc.theta_prev.copy(),
        functional=lambda th: (heat_functional(inc, th), None),
        gradient=lambda th, _: heat_gradient(inc, th),
        hessian=lambda th, _: heat_hessian(inc, th),
        dual_norm=lambda r: g.dual_norm(r, free_only=False), rtol=cfg.tol_heat, cfg=cfg,
        factor=frozen.bind(lambda A: splu(A, **SPD_LU)),
        label="thermal")
    theta = res.x

    th_qp, gth_qp = g.eval_scalar(theta)
    nd = g.ndof_node
    node_vals = theta.values[0::nd]
    min_theta = float(min(th_qp.min(), node_vals.min()))
    clamp = float(max(0.0, -node_vals.min()))
    if clamp > 0.0:
        theta.values[0::nd] = np.maximum(node_vals, 0.0)
        th_qp, gth_qp = g.eval_scalar(theta)
    w_new = m.enthalpy_ext(inc.phi1_new, th_qp)
    return HeatResult(theta_new=theta, w_new_qp=w_new, theta_new_qp=th_qp,
                      theta_new_grad_qp=gth_qp, min_theta=min_theta, clamp_magnitude=clamp,
                      iterations=res.iterations,
                      residual_norm=res.residual_norm, residual_vector=res.residual,
                      factorizations=frozen.factorizations - work0[0],
                      pcg_iterations=frozen.pcg_iterations - work0[1])


def robin_flux(inc: HeatIncrement, theta: NodalField):
    """Boundary heat outflow int_Gamma kappa (theta - theta_b) dS: the Robin
    gradient kappa M_Gamma u - l paired with the constant field 1."""
    g = inc.grid
    u = theta.values - inc.theta_ref.values
    robin = inc.model.kappa * (g.assemble_face_hessian() @ u) - inc.robin_load
    return float(g.constant_field(1.0).values @ robin)
