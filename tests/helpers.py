"""Random inputs and Dirichlet data shared by the tests."""

import numpy as np


def random_rotation(rng, d):
    """Haar-ish random rotation from the QR sign-fixed factor."""
    A = rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def random_feasible_gradient(rng, d, spread=0.3, det_floor=0.2):
    """Random F near the identity with det F above the given floor."""
    while True:
        F = np.eye(d) + spread * rng.standard_normal((d, d))
        if np.linalg.det(F) > det_floor:
            return F


def apply_dirichlet_identity(grid, y):
    """Overwrite constrained dofs with the identity-map trace values."""
    ident = grid.identity_field()
    y.values[grid.dirichlet_sdofs] = ident.values[grid.dirichlet_sdofs]
    return y
