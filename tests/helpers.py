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


def unique_csc_pattern(grid, ncomp, free):
    """(slots, indices, indptr) of ``StructuredGrid._csc_pattern`` by sorting
    the element entries: np.unique over col * m + row keeps one entry per
    coupled pair, in CSC order, and its inverse gives each entry's slot."""
    keep = (np.ones(grid.n_sdofs * ncomp, dtype=bool) if free is None
            else np.asarray(free, dtype=bool))
    m = int(keep.sum())
    number = np.where(keep, np.cumsum(keep) - 1, -1)
    nl = grid.nloc * ncomp
    g = number[(grid.cells_sdofs[:, :, None] * ncomp
                + np.arange(ncomp)).reshape(grid.n_cells, nl)]
    rows = np.repeat(g, nl, axis=1).ravel()
    cols = np.tile(g, (1, nl)).ravel()
    inside = (rows >= 0) & (cols >= 0)
    entries, slot = np.unique(cols[inside] * m + rows[inside], return_inverse=True)
    slots = np.full(rows.size, entries.size)
    slots[inside] = slot
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(entries // m, minlength=m), out=indptr[1:])
    return slots, (entries % m).astype(np.int32), indptr
