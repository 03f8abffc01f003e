"""Random inputs and Dirichlet data shared by the tests."""

from types import SimpleNamespace

import numpy as np

from thermovisc.grid import QUAD_PTS, tensor_derivatives


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


def reference_gram(grid, ncomp, free_only):
    """The ncomp-vector H^1 Gram assembled as one form (mass + stiffness,
    component fastest), on the free dofs or all dofs: the reference of the
    grid's Kronecker factors (``h1_transform``), of its dual norms and of
    the Korn pencil's H^1 form.  No program path assembles it."""
    eye4 = np.einsum("ij,ab->iajb", np.eye(ncomp), np.eye(grid.d))
    c4 = np.broadcast_to(eye4, (grid.n_cells, grid.nq, ncomp, grid.d, ncomp, grid.d))
    free = np.repeat(grid.free_sdofs, ncomp) if free_only else None
    return grid.assemble_hessian(ncomp, c4=c4, c0=np.ones((grid.n_cells, grid.nq)), free=free)


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


def bank_tables(bank):
    """The fields of a ``TestBank`` at the grid's quadrature points, expanded
    from its 1D factors (a product of one factor per axis): ``Z`` (ne, cells,
    nq, d), ``gradZ`` (..., d, d), ``hessZ`` (..., d, d, d), ``V`` (ne, cells,
    nq), ``gradV`` (..., d), and the face traces ``Zface[name]`` (ne,
    face cells, nqf, d) and ``Vface[name]`` (ne, face cells, nqf)."""
    grid, q = bank.grid, QUAD_PTS
    d = grid.d
    cells = grid._cell_index                                   # (d, n_cells)
    points = np.indices((q,) * d).reshape(d, -1)               # last axis fastest
    factors = [bank.line[k][..., cells[k][:, None] * q + points[k]] for k in range(d)]
    amp = bank.amp[:, :, None, None]
    value, grad, hess = (amp[(...,) + (None,) * j] * part
                         for j, part in enumerate(tensor_derivatives(*zip(*factors))))
    out = SimpleNamespace(Z=np.moveaxis(value[:, :d], 1, -1),
                          gradZ=np.moveaxis(grad[:, :d], 1, -2),
                          hessZ=np.moveaxis(hess[:, :d], 1, -3),
                          V=value[:, d], gradV=grad[:, d], Zface={}, Vface={})
    fpoints = np.indices((q,) * (d - 1)).reshape(d - 1, -1)
    for name, p in grid.faces.items():
        face_cells = np.flatnonzero(cells[p.axis] == p.side * (grid.extents[p.axis] - 1))
        tang = [k for k in range(d) if k != p.axis]
        parts = [bank.end[k][0, ..., p.side, None, None] if k == p.axis else
                 bank.line[k][0][..., cells[k][face_cells, None] * q + fpoints[tang.index(k)]]
                 for k in range(d)]
        trace = bank.amp[:, :, None, None] * np.prod(np.broadcast_arrays(*parts), axis=0)
        out.Zface[name] = np.moveaxis(trace[:, :d], 1, -1)
        out.Vface[name] = trace[:, d]
    return out
