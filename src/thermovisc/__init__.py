"""Quasistatic large-strain Kelvin-Voigt thermoviscoelasticity.

Staggered incremental solver (mechanical minimization, then a convex
thermal update) on a structured C^1 grid, with a certificate suite that
monitors energy and entropy balances, determinant positivity and the
generalized Korn constant along every run.
"""

from .grid import NodalField, StructuredGrid
from .heat import HeatIncrement, HeatResult, solve_heat
from .materials import DomainError, MaterialModel, NonphysicalStateError
from .mech import (
    MechIncrement,
    MechResult,
    SolverConfig,
    StepRejectedError,
    solve_mech,
)
from .scheme import Scenario, Trajectory, refinement_study, run

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "HeatIncrement",
    "HeatResult",
    "MaterialModel",
    "MechIncrement",
    "MechResult",
    "NodalField",
    "NonphysicalStateError",
    "Scenario",
    "SolverConfig",
    "StepRejectedError",
    "StructuredGrid",
    "Trajectory",
    "refinement_study",
    "run",
    "solve_heat",
    "solve_mech",
    "__version__",
]
