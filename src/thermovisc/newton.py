"""Damped Newton minimization shared by the mechanical and thermal steps.

Newton with Hessian modification (Nocedal & Wright, *Numerical
Optimization*, Sec. 3.4).  Each iteration solves with the Hessian on the
free dofs plus a Levenberg shift ``s * mean|diag H|``, s climbing the
ladder :data:`SHIFTS` (0, then 1e-8 growing x100 per rung, 12 rungs),
until a finite descent step passes Armijo backtracking (t = 1, 1/2, ...)
and the problem's admissibility gate.  Once the predicted decrease of the
unshifted step is below the roundoff of J, a line search cannot add
anything: the raw step is probed once and kept only if J stays at or
below J0, its value at the start of the solve (so overall descent stays
exact), and the dual residual at least halves.  The probe ends the solve
whether it is kept or not, possibly above its target.

Factor once, iterate many (inexact Newton, Nocedal & Wright Sec. 7.1):
a :class:`FrozenFactor` keeps one factorization across the Newton solves
of a run.  The first matrix it sees is factorized through the caller's
``factor``; every later one is solved by conjugate gradients
preconditioned with the kept LU, to a relative residual of ``CG_RTOL``.
When CG passes ``CG_MAX_ITER`` iterations or meets a nonpositive
curvature ``p.Ap`` or ``r.z``, the current matrix is factorized, again
through ``factor``, solved directly and kept.  A breakdown of that
factorization raises ``RuntimeError`` as a direct solve would, so the
shift ladder, the Armijo search and the noise-floor probe do not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp


ATOL_RESIDUAL = 1e-13  # absolute dual-norm floor of the target (steady states)
ARMIJO = 1e-4          # sufficient decrease of the backtracking line search
CG_RTOL = 1e-12      # relative residual of a CG solve against the kept LU
CG_MAX_ITER = 25     # CG iterations before the current matrix is factorized
# Levenberg shifts in units of mean|diag H|: 0, then 1e-8 growing x100
SHIFTS = (0.0, *accumulate([1e-8] + [100.0] * 10, mul))


class StepRejectedError(RuntimeError):
    """The incremental solve failed; the caller may retry with tau/2."""


@dataclass
class NewtonResult:
    x: object                 # final iterate
    value: float              # J(x)
    initial_value: float      # J at the start of the solve
    aux: object               # what ``functional`` returned next to J(x)
    residual: np.ndarray      # gradient at x
    residual_norm: float      # dual norm of ``residual``
    iterations: int


class FrozenFactor:
    """One factorization kept across Newton solves; later matrices are
    solved by CG preconditioned with it (module docstring).

    ``bind(factor)`` is the ``factor`` argument of :func:`minimize`.
    ``factorizations`` and ``pcg_iterations`` count the work done so far.
    """

    def __init__(self):
        self.lu = None
        self.factorizations = 0
        self.pcg_iterations = 0

    def bind(self, factor):
        def solver(A):
            if self.lu is None:
                return self._refactor(A, factor)
            return SimpleNamespace(solve=lambda b: self._cg(A, b, factor))
        return solver

    def _refactor(self, A, factor):
        self.lu = factor(A)
        self.factorizations += 1
        return self.lu

    def _cg(self, A, b, factor):
        """A^{-1} b by CG preconditioned with the kept LU, or directly
        through a new factorization of A when CG stalls."""
        precond = self.lu.solve
        x = np.zeros_like(b)
        r = b.copy()
        bound = CG_RTOL * np.linalg.norm(b)
        z = precond(r)
        rz = float(r @ z)
        p = z
        for _ in range(CG_MAX_ITER):
            if not rz > 0.0:
                break
            Ap = A @ p
            pAp = float(p @ Ap)
            if not pAp > 0.0:
                break
            self.pcg_iterations += 1
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            if np.linalg.norm(r) <= bound:
                return x
            z = precond(r)
            rz, rz_old = float(r @ z), rz
            p = z + (rz / rz_old) * p
        return self._refactor(A, factor).solve(b)


def minimize(x, functional, gradient, hessian, dual_norm, rtol, cfg, factor,
             free=slice(None), admissible=None, on_accept=None, label="Newton"):
    """Damped Newton from ``x`` until the dual residual meets its target.

    ``x`` has ``copy()`` and a C-ordered ``values`` array; its flattened
    ``free`` entries are the unknowns.  ``functional(x) -> (J, aux)``, J =
    +inf when infeasible; ``gradient(x, aux)`` is zero on fixed dofs;
    ``hessian(x, aux)`` is restricted to the free dofs; ``dual_norm(r)``
    measures the target ``max(rtol * |r0|, ATOL_RESIDUAL)``;
    ``factor(A).solve(b)`` solves with a free-dof matrix (a sparse LU, or
    :meth:`FrozenFactor.bind` of one) and raises ``RuntimeError`` on
    breakdown.  ``admissible(aux_cand, aux)`` gates candidates against the
    current iterate; ``on_accept(aux)`` sees the start and every
    accepted iterate.  Each iteration climbs :data:`SHIFTS` until an Armijo
    step is accepted; a probe at the noise floor ends the solve, kept or
    not.  Raises :class:`StepRejectedError` when every rung's line search
    fails or ``max_newton`` iterations miss the target.
    """
    J0, aux = functional(x)
    if not np.isfinite(J0):
        raise ValueError(f"{label} functional must be finite at the start")
    if on_accept is not None:
        on_accept(aux)
    J, r = J0, gradient(x, aux)
    rnorm = dual_norm(r)
    target = max(rtol * rnorm, ATOL_RESIDUAL)

    def trial(step, bound):
        """(x + step, J, aux) if J is finite, at most ``bound`` and admissible."""
        cand = x.copy()
        cand.values.reshape(-1)[free] += step
        Jc, aux_c = functional(cand)
        if np.isfinite(Jc) and Jc <= bound and (admissible is None or admissible(aux_c, aux)):
            return cand, Jc, aux_c
        return None

    halvings = list(accumulate([1.0] + [0.5] * (cfg.max_backtracks - 1), mul))   # t = 1, 1/2, ...
    iters = 0
    while rnorm > target:
        if iters == cfg.max_newton:
            raise StepRejectedError(f"{label} Newton did not converge in {cfg.max_newton} "
                                    f"iterations (residual {rnorm:.3e}, target {target:.3e})")
        Hf = hessian(x, aux).tocsc()
        rf = r.reshape(-1)[free]
        scale = max(float(np.mean(np.abs(Hf.diagonal()))), 1e-30)
        for shift in SHIFTS:
            try:
                p = -factor(Hf if shift == 0.0 else
                            Hf + shift * scale * sp.identity(Hf.shape[0], format="csc")).solve(rf)
            except RuntimeError:
                continue
            if not (np.all(np.isfinite(p)) and rf @ p < 0.0):
                continue
            slope = float(rf @ p)
            # at the noise floor the raw step is probed against J0 instead
            probe = shift == 0.0 and abs(slope) <= 1e-15 * (1.0 + abs(J))
            found = trial(p, J0) if probe else next(filter(None, (
                trial(t * p, J + ARMIJO * t * slope) for t in halvings)), None)
            if probe or found is not None:
                break
        else:
            raise StepRejectedError(f"{label} line search failed at iteration {iters} "
                                    f"(residual {rnorm:.3e})")
        if found is not None:
            cand, Jc, aux_c = found
            r_c = gradient(cand, aux_c)
            rc = dual_norm(r_c)
            if not probe or rc < 0.5 * rnorm:   # a probe must halve the residual
                x, J, aux, r, rnorm = cand, Jc, aux_c, r_c, rc
                iters += 1
                if on_accept is not None:
                    on_accept(aux)
        if probe:
            break   # the noise floor ends the solve, kept or not
    return NewtonResult(x=x, value=J, initial_value=J0, aux=aux, residual=r,
                        residual_norm=rnorm, iterations=iters)
