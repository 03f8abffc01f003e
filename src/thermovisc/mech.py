"""One incremental mechanical update.

Minimizes, over deformations that equal the identity on the fixed part
of the boundary,

    (1/tau) * R(y_prev, y - y_prev, theta_prev)
    + (eps/2tau) * ||grad y - grad y_prev||^2
    + Psi(y, theta_prev) - <loads, y>

with R the frame-indifferent quadratic rate potential and Psi the free
energy (stored + hyperstress + thermal coupling at the frozen previous
temperature).  Infeasible states (det grad y <= 0 anywhere) carry the
value +inf.  The solver is the damped Newton method of ``newton.py``
(Levenberg shift ladder, Armijo backtracking, noise-floor probe against
J0, CG against a frozen factorization) with a determinant floor as its
admissibility gate, so every accepted iterate descends and stays locally
invertible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import splu

from .grid import SPD_LU, NodalField, zero_dirichlet_rows
from .materials import _ddot, det
from .newton import FrozenFactor, StepRejectedError, minimize  # noqa: F401  (re-exported)


@dataclass
class SolverConfig:
    """Tolerances and globalization parameters for both incremental solves."""

    tol_mech: float = 1e-8       # relative dual-norm tolerance, mech step
    tol_heat: float = 1e-9       # relative dual-norm tolerance, heat step
    tol_pos: float = 1e-10       # permitted temperature undershoot
    max_newton: int = 50
    max_backtracks: int = 40
    det_floor: float = 0.1       # accepted min det >= det_floor * current
    max_step_halvings: int = 4
    korn_every: int = 1          # Korn eigensolve every n-th step; 0 disables it
    hk_every: int = 1            # determinant bound every n-th step; 0 disables it

    def __post_init__(self):
        errs = solver_errors(self)
        if errs:
            raise ValueError("; ".join(errs))


def solver_errors(cfg) -> list[str]:
    """All violated rules of a solver configuration, as human-readable strings."""
    errs = [f"{key} must be positive (got {getattr(cfg, key):g})"
            for key in ("tol_mech", "tol_heat", "tol_pos") if not getattr(cfg, key) > 0]
    for key, least in (("max_newton", 1), ("max_backtracks", 1), ("max_step_halvings", 0),
                       ("korn_every", 0), ("hk_every", 0)):
        if getattr(cfg, key) < least:
            errs.append(f"{key} must be at least {least} (got {getattr(cfg, key)})")
    if not 0 < cfg.det_floor < 1:
        errs.append(f"det_floor must lie in (0, 1) (got {cfg.det_floor:g})")
    return errs


@dataclass
class MechIncrement:
    """Frozen data of one mechanical step."""

    grid: object
    model: object
    y_prev: NodalField
    theta_prev_qp: np.ndarray      # (ncells, nq)
    tau: float
    eps: float
    load_vector: np.ndarray        # (n_sdofs, d), dual pairing <loads, .>
    F_prev: np.ndarray = field(repr=False)   # grad y_prev at the quadrature points
    include_coupling: bool = True

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not self.eps >= 0:
            raise ValueError("eps must be nonnegative")
        if det(self.F_prev).min() <= 0:
            raise ValueError("previous state must satisfy min det grad y > 0")

    @cached_property
    def _visc_c4(self):
        """The viscous+regularization Hessian block, constant over the step;
        built at the first Hessian, so a step that needs none builds none."""
        return (self.model.viscous_hessian(self.F_prev) / self.tau
                + (self.eps / self.tau)
                * np.einsum("ij,ab->iajb", np.eye(self.grid.d), np.eye(self.grid.d)))


@dataclass
class MechResult:
    y_new: NodalField
    descent_gap: float
    iterations: int
    residual_norm: float
    residual_vector: np.ndarray   # assembled gradient at the accepted state
    kinematics: object
    iterate_min_dets: list = field(default_factory=list)  # every accepted iterate
    factorizations: int = 0       # sparse LUs made during the solve
    pcg_iterations: int = 0       # CG iterations against the kept LU


def incremental_functional(inc: MechIncrement, y: NodalField, kin=None):
    """Value of the step functional at y; +inf when any det grad y <= 0."""
    if kin is None:
        kin = inc.grid.eval_kinematics(y)
    if kin.detF.min() <= 0.0:
        return np.inf, kin
    m = inc.model
    dF = kin.F - inc.F_prev
    dens = (0.5 / inc.tau) * m.dissipation_rate(inc.F_prev, dF, inc.theta_prev_qp)
    if inc.eps > 0:
        dens = dens + (0.5 * inc.eps / inc.tau) * _ddot(dF, dF)
    dens = dens + m.elastic_energy(kin.F) + m.hyperstress_energy(kin.G)
    if inc.include_coupling:
        dens = dens + m.coupling_energy(kin.F, inc.theta_prev_qp)
    value = inc.grid.assemble_scalar(dens) - float(np.sum(inc.load_vector * y.values))
    return value, kin


def incremental_gradient(inc: MechIncrement, y: NodalField, kin=None):
    """Assembled derivative of the step functional, Dirichlet rows zeroed."""
    if kin is None:
        kin = inc.grid.eval_kinematics(y)
    m = inc.model
    dF = kin.F - inc.F_prev
    stress = m.viscous_stress(inc.F_prev, dF / inc.tau, inc.theta_prev_qp)
    if inc.eps > 0:
        stress = stress + (inc.eps / inc.tau) * dF
    stress = stress + m.elastic_stress(kin.F)
    if inc.include_coupling:
        stress = stress + m.coupling_stress(kin.F, inc.theta_prev_qp)
    r = inc.grid.assemble_gradient(inc.grid.d, stress=stress,
                                   hyperstress=m.hyperstress(kin.G))
    r = r - inc.load_vector
    return zero_dirichlet_rows(inc.grid, r), kin


def incremental_hessian(inc: MechIncrement, kin, free=None):
    """Assembled Hessian of the step functional on the ``free`` dofs."""
    m = inc.model
    c4 = inc._visc_c4 + m.elastic_hessian(kin.F)
    if inc.include_coupling:
        c4 = c4 + m.coupling_hessian(kin.F, inc.theta_prev_qp)
    scal, rank1 = m.hyperstress_hessian_parts(kin.G)
    return inc.grid.assemble_hessian(inc.grid.d, c4=c4,
                                     hyper_scal=scal, hyper_rank1=rank1, free=free)


def solve_mech(inc: MechIncrement, config: SolverConfig | None = None,
               frozen: FrozenFactor | None = None) -> MechResult:
    """:func:`newton.minimize` from y_prev on the free dofs, gated so that
    min det grad y stays above ``det_floor`` times the current iterate's.
    ``frozen`` carries the kept factorization between solves; without one
    the solve starts empty."""
    cfg = config or SolverConfig()
    frozen = frozen or FrozenFactor()
    work0 = frozen.factorizations, frozen.pcg_iterations
    grid, d = inc.grid, inc.grid.d
    free = np.repeat(grid.free_sdofs, d)
    iterate_dets = []
    res = minimize(
        inc.y_prev.copy(),
        functional=lambda y: incremental_functional(inc, y),
        gradient=lambda y, kin: incremental_gradient(inc, y, kin)[0],
        hessian=lambda y, kin: incremental_hessian(inc, kin, free),
        dual_norm=grid.dual_norm,
        rtol=cfg.tol_mech, cfg=cfg, factor=frozen.bind(lambda A: splu(A, **SPD_LU)),
        free=free,
        admissible=lambda kin_c, kin: kin_c.detF.min() > cfg.det_floor * kin.detF.min(),
        on_accept=lambda kin: iterate_dets.append(kin.min_detF),
        label="mechanical")
    return MechResult(y_new=res.x, descent_gap=res.initial_value - res.value,
                      iterations=res.iterations, residual_norm=res.residual_norm,
                      residual_vector=res.residual, kinematics=res.aux,
                      iterate_min_dets=iterate_dets,
                      factorizations=frozen.factorizations - work0[0],
                      pcg_iterations=frozen.pcg_iterations - work0[1])


def main_mechanical_energy(grid, model, kin):
    """(M, H): the stored + hyperstress energy M of a state and its
    hyperstress part H, from its kinematics (or a snapshot)."""
    H = grid.assemble_scalar(model.hyperstress_energy(kin.G))
    return grid.assemble_scalar(model.elastic_energy(kin.F)) + H, H


def mech_energy_gradient(grid, model, kin):
    """Assembled derivative of the main mechanical energy (no BC rows zeroed)."""
    return grid.assemble_gradient(grid.d, stress=model.elastic_stress(kin.F),
                                  hyperstress=model.hyperstress(kin.G))


def semiconvexity_gap(grid, model, y_new: NodalField, y_prev: NodalField,
                      kin_new, M_new, M_prev):
    """Exact defect DM(y_new)[y_new - y_prev] - (M_new - M_prev), from the
    main mechanical energies M_new, M_prev of the two states.

    This is the quantity the per-step energy identity loses by evaluating
    the stored-energy derivative only at the new state; for convex energies
    it is nonnegative.
    """
    dv = y_new.values - y_prev.values
    lin = float(np.sum(mech_energy_gradient(grid, model, kin_new) * dv))
    return lin - (M_new - M_prev)
