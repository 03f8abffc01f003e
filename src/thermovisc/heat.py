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
form per step, (1/2) u.A u in u = theta - theta_b, where A is the
conduction stiffness plus kappa times the boundary mass.  The stiffness
vanishes on constants, so this is exactly the two terms above, and no term
of size kappa theta_b^2 |Gamma| is formed and cancelled.  The step's
functional, gradient and Hessian read one pointwise state per Newton
iterate (:func:`heat_state`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from .grid import SPD_LU, NodalField
from .materials import _ddot, det
from .mech import SolverConfig
from .newton import FrozenFactor, minimize


def regularized(x, eps):
    """The eps-regularization x / (1 + eps x): the capped dissipation source
    and the damped start and boundary temperatures; exact at eps = 0."""
    return x / (1.0 + eps * x)


@dataclass
class HeatIncrement:
    """Frozen data of one thermal step."""

    grid: object
    model: object
    theta_prev: NodalField
    w_prev_qp: np.ndarray            # (ncells, nq)
    tau: float
    eps: float
    theta_b: float                   # boundary temperature, already damped
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
        self.xi_reg_qp = regularized(self.xi_qp, self.eps)
        # implicit coupling enters through phi1'(F_new) : dF
        self.phi1_new = m.phi1(self.F_new)
        self.cpl_qp = _ddot(m.phi1_grad(self.F_new), dF)
        # conduction and Robin terms: the fixed form (1/2) u.A u in u = theta - theta_b
        self.theta_b_values = g.constant_field(self.theta_b).values
        self.A = g.assemble_hessian(1, c4=self.K_prev) + m.kappa * g.assemble_face_hessian()


@dataclass
class HeatResult:
    theta_new: NodalField
    w_new_qp: np.ndarray
    theta_new_qp: np.ndarray
    theta_new_grad_qp: np.ndarray
    min_theta: float
    iterations: int
    residual_norm: float
    residual_vector: np.ndarray
    factorizations: int = 0       # sparse LUs made during the solve
    pcg_iterations: int = 0       # CG iterations against the kept LU


def heat_state(inc: HeatIncrement, theta: NodalField):
    """(theta_qp, (W, W', W''), (m, m', m''), u, A u) with u = theta - theta_b:
    theta and the triples of ``w_total_ext`` and ``coupling_factor_ext`` at
    the quadrature points, all the step's functional, gradient and Hessian
    read of an iterate."""
    th = inc.grid.eval_values(theta)
    u = theta.values - inc.theta_b_values
    return (th, inc.model.w_total_ext(inc.phi1_new, th), inc.model.coupling_factor_ext(th),
            u, inc.A @ u)


def heat_functional(inc: HeatIncrement, theta: NodalField, state=None):
    th, (W, _, _), (mval, _, _), u, Au = state or heat_state(inc, theta)
    dens = (W - inc.w_prev_qp * th) / inc.tau - inc.xi_reg_qp * th - mval * inc.cpl_qp
    return inc.grid.assemble_scalar(dens) + 0.5 * float(u @ Au)


def heat_gradient(inc: HeatIncrement, theta: NodalField, state=None):
    _, (_, w_th, _), (_, m1, _), _, Au = state or heat_state(inc, theta)
    source = (w_th - inc.w_prev_qp) / inc.tau - inc.xi_reg_qp - m1 * inc.cpl_qp
    return inc.grid.assemble_gradient(1, source=source) + Au


def heat_hessian(inc: HeatIncrement, theta: NodalField, state=None):
    _, (_, _, cv), (_, _, m2), _, _ = state or heat_state(inc, theta)
    return inc.A + inc.grid.assemble_hessian(1, c0=cv / inc.tau - m2 * inc.cpl_qp)


def solve_heat(inc: HeatIncrement, config: SolverConfig | None = None,
               frozen: FrozenFactor | None = None) -> HeatResult:
    """Damped Newton from theta_prev; audits undershoots without a patch.

    The globalization (shift ladder, Armijo backtracking, noise-floor probe
    against J0, CG against the factorization ``frozen`` keeps between
    solves) is :func:`thermovisc.newton.minimize`, over all dofs with the
    scalar (H^1)* norm; the thermal field has no Dirichlet part.  Each
    iterate's :func:`heat_state` is Newton's ``aux``.
    ``residual_norm`` is always the dual norm of the returned
    ``residual_vector``, the gradient at the returned Newton iterate.
    ``theta_new_qp`` and ``theta_new_grad_qp`` are the returned field and
    its gradient at the quadrature points.  A negative nodal value or
    quadrature value is kept and reported as ``min_theta``: raising it
    after the solve would break the step's energy balance.
    """
    cfg = config or SolverConfig()
    g = inc.grid
    frozen = frozen or FrozenFactor()
    work0 = frozen.factorizations, frozen.pcg_iterations

    def functional(theta):
        state = heat_state(inc, theta)
        return heat_functional(inc, theta, state), state

    res = minimize(
        inc.theta_prev.copy(), functional=functional,
        gradient=lambda th, state: heat_gradient(inc, th, state),
        hessian=lambda th, state: heat_hessian(inc, th, state),
        dual_norm=lambda r: g.dual_norm(r, free_only=False), rtol=cfg.tol_heat, cfg=cfg,
        factor=frozen.bind(lambda A: splu(A, **SPD_LU)),
        label="thermal")
    theta = res.x

    th_qp, gth_qp = g.eval_scalar(theta)
    min_theta = float(min(th_qp.min(), theta.values[0::g.ndof_node].min()))
    w_new = res.aux[1][1]   # W', the enthalpy, at the returned iterate
    return HeatResult(theta_new=theta, w_new_qp=w_new, theta_new_qp=th_qp,
                      theta_new_grad_qp=gth_qp, min_theta=min_theta,
                      iterations=res.iterations,
                      residual_norm=res.residual_norm, residual_vector=res.residual,
                      factorizations=frozen.factorizations - work0[0],
                      pcg_iterations=frozen.pcg_iterations - work0[1])


def robin_flux(inc: HeatIncrement, theta: NodalField):
    """Boundary heat outflow int_Gamma kappa (theta - theta_b) dS: the Robin
    gradient kappa M_Gamma u paired with the constant field 1."""
    g = inc.grid
    robin = inc.model.kappa * (g.assemble_face_hessian() @ (theta.values - inc.theta_b_values))
    return float(g.constant_field(1.0).values @ robin)
