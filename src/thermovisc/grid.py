"""Structured C^1 tensor-product grid on a rectangular reference domain.

Per axis the basis is cubic Hermite (value + slope per node), tensor
multiplied across axes, which gives globally C^1 fields whose second
gradients are square integrable -- exactly what the second-gradient
energy needs.  Nodal scalar dofs are the mixed partials d^m f at the
node for every m in {0,1}^d, so the basis reproduces full bicubic
(tricubic) polynomials per cell.

Quadrature is tensor Gauss with 4 points per axis (exact through degree
7 per axis, i.e. beyond twice the basis degree); boundary faces carry
the induced trace rule.

Evaluation and assembly are GEMMs with per-cell operators D_k that map
the local dofs to the field, gradient or Hessian at every quadrature
point (after Cuvelier, Japhet & Scarella, BIT Numer. Math. 2016).
Element Hessian blocks are batched products (w D)^T C D, or (T w)^T T
for the rank-one hyperstress part, and one bincount adds them into a
fixed CSC pattern, built on first use for all dofs or for the free ones,
so no sparse matrix is converted or sliced per Newton iteration.  The
operations and their order are fixed, so repeated runs are
bit-identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded
from scipy.linalg.lapack import dtrtri

from .materials import det

# SuperLU settings of every sparse LU: minimum degree on A^T + A,
# diagonal pivots (no row interchanges unless a pivot is exactly zero)
SPD_LU = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
          "options": {"SymmetricMode": True}}


def _hermite_1d(side, m, t, h, order):
    """Value/derivative of the 1D Hermite basis on [0,1] scaled to width h.

    side: node (0 left, 1 right); m: dof type (0 value, 1 slope).  The
    slope basis carries a factor h so the dof equals the physical
    derivative; x-derivatives divide by h per order.
    """
    t = np.asarray(t, dtype=float)
    key = (side, m, order)
    if key == (0, 0, 0):
        return 1.0 - 3.0 * t**2 + 2.0 * t**3
    if key == (0, 0, 1):
        return (-6.0 * t + 6.0 * t**2) / h
    if key == (0, 0, 2):
        return (-6.0 + 12.0 * t) / h**2
    if key == (0, 1, 0):
        return h * (t - 2.0 * t**2 + t**3)
    if key == (0, 1, 1):
        return 1.0 - 4.0 * t + 3.0 * t**2
    if key == (0, 1, 2):
        return (-4.0 + 6.0 * t) / h
    if key == (1, 0, 0):
        return 3.0 * t**2 - 2.0 * t**3
    if key == (1, 0, 1):
        return (6.0 * t - 6.0 * t**2) / h
    if key == (1, 0, 2):
        return (6.0 - 12.0 * t) / h**2
    if key == (1, 1, 0):
        return h * (t**3 - t**2)
    if key == (1, 1, 1):
        return 3.0 * t**2 - 2.0 * t
    if key == (1, 1, 2):
        return (6.0 * t - 2.0) / h
    raise ValueError(key)


def tensor_derivatives(vals, der1, der2):
    """Value, gradient and Hessian of the product prod_k f_k(x_k).

    vals, der1, der2: per-axis lists of f_k, f_k' and f_k'' at the same
    points, arrays of one shape S; the results have shapes S, S + (d,) and
    S + (d, d).  Each entry takes its derivative factors first and
    multiplies the other axes in axis order, a fixed operation order so
    rebuilt tables are bit-identical.
    """
    d = len(vals)

    def times_others(first, skip):
        for k in range(d):
            if k not in skip:
                first = first * vals[k]
        return first

    value = np.prod(vals, axis=0)
    grad = np.empty(value.shape + (d,))
    hess = np.empty(value.shape + (d, d))
    for b in range(d):
        grad[..., b] = times_others(der1[b], (b,))
        for c in range(d):
            hess[..., b, c] = (times_others(der2[b], (b,)) if c == b
                               else times_others(der1[b] * der1[c], (b, c)))
    return value, grad, hess


GRAM_TILE = 32   # tile size of band_cholesky


def band_cholesky(A):
    """Lower Cholesky factor L of a sparse banded SPD matrix, in LAPACK
    lower band storage cb[k, j] = L[j + k, j] (the input of
    :func:`scipy.linalg.cho_solve_banded`).

    Right-looking by square tiles of side ``GRAM_TILE``: the Cholesky
    factor and its inverse of each diagonal tile, the tiles below it times
    that inverse, and the trailing update by products of single tiles.
    Each LAPACK or BLAS call works on one tile, which keeps it on the
    calling thread.  LAPACK's band Cholesky (dpbtrf) instead makes hundreds
    of small multithreaded BLAS calls, each of which waits for the BLAS
    threads: on the 16x16 Gram it took 2 ms on an idle 2-core host and
    30-600 ms when the other core was busy, where this takes about 10 ms.
    """
    C = sp.tril(A).tocoo()
    n, nb = A.shape[0], GRAM_TILE
    b = int(np.max(C.row - C.col))
    w, T = -(-b // nb), -(-n // nb)                # tile half-bandwidth, tile count
    tiles = np.zeros((T, w + 1, nb, nb))           # tiles[I, I - J] = block (I, J)
    tiles[C.row // nb, C.row // nb - C.col // nb, C.row % nb, C.col % nb] = C.data
    pad = np.arange(n, T * nb)
    tiles[pad // nb, 0, pad % nb, pad % nb] = 1.0
    for K in range(T):
        L = tiles[K, 0] = np.linalg.cholesky(tiles[K, 0])
        m = min(w, T - 1 - K)
        if m == 0:
            continue
        below = (np.arange(K + 1, K + 1 + m), np.arange(1, m + 1))   # blocks (K + i, K)
        P = tiles[below] = tiles[below] @ dtrtri(L, lower=1)[0].T
        for i in range(m):
            # block (K+1+i, K+1+j) -= P_i P_j^T for j <= i
            tiles[K + 1 + i, i - np.arange(i + 1)] -= P[i] @ np.swapaxes(P[:i + 1], 1, 2)
    j = np.arange(n)
    rows = j + np.arange(b + 1)[:, None]
    inside = rows < n
    rows = np.where(inside, rows, j)
    cb = tiles[rows // nb, rows // nb - j // nb, rows % nb, j % nb]
    return np.where(inside, cb, 0.0)


FACE_NAMES = {2: ("x0", "x1", "y0", "y1"),
              3: ("x0", "x1", "y0", "y1", "z0", "z1")}


def _face_axis_side(name):
    axis = {"x": 0, "y": 1, "z": 2}[name[0]]
    return axis, int(name[1])


@dataclass
class FacePatch:
    """Boundary quadrature data for one face of the box."""

    name: str
    axis: int
    side: int
    sdofs: np.ndarray      # (n_face_cells, nloc_face) global scalar dofs
    B0: np.ndarray         # (nloc_face, nqf) trace basis values
    weights: np.ndarray    # (nqf,) includes tangential cell measure
    qcoords: np.ndarray    # (n_face_cells, nqf, d) physical coordinates

    @property
    def measure(self):
        return self.sdofs.shape[0] * float(np.sum(self.weights))


class StructuredGrid:
    """Tensor-product reference mesh with C^1 Hermite dofs."""

    def __init__(self, extents, lengths, dirichlet_faces=("x0",), quad_pts=4):
        extents = tuple(int(n) for n in extents)
        lengths = tuple(float(L) for L in lengths)
        if len(extents) != len(lengths) or len(extents) not in (2, 3):
            raise ValueError("extents/lengths must both have length 2 or 3")
        if any(n < 2 for n in extents):
            raise ValueError("need at least 2 cells per axis")
        if any(L <= 0 for L in lengths):
            raise ValueError("side lengths must be positive")
        d = len(extents)
        valid = FACE_NAMES[d]
        dirichlet_faces = tuple(dirichlet_faces)
        for f in dirichlet_faces:
            if f not in valid:
                raise ValueError(f"unknown face {f!r}; valid: {valid}")
        if not dirichlet_faces:
            raise ValueError("the mechanically fixed part of the boundary must be nonempty")

        self.d = d
        self.extents = extents
        self.lengths = lengths
        self.h = tuple(L / n for L, n in zip(lengths, extents))
        self.dirichlet_faces = dirichlet_faces
        self.neumann_faces = tuple(f for f in valid if f not in dirichlet_faces)

        self.nodes_per_axis = tuple(n + 1 for n in extents)
        self.n_nodes = int(np.prod(self.nodes_per_axis))
        self.n_cells = int(np.prod(extents))
        self.ndof_node = 2**d          # mixed-partial dof types per node
        self.n_sdofs = self.n_nodes * self.ndof_node
        self.nloc = 4**d               # scalar basis functions per cell

        self._build_nodes()
        self._build_quadrature(quad_pts)
        self._build_cell_dofs()
        self._build_faces(quad_pts)
        self._build_dirichlet_mask()
        self._pattern_cache = {}
        self._operator_cache = {}
        self._gram_cache = {}
        self._face_mass = None

    # -- construction -------------------------------------------------------

    def _axis_coords(self):
        return [np.linspace(0.0, L, n + 1) for L, n in zip(self.lengths, self.extents)]

    def _node_id(self, idx):
        nid = 0
        for k in reversed(range(self.d)):
            nid = nid * self.nodes_per_axis[k] + idx[k]
        return nid

    def _build_nodes(self):
        axes = self._axis_coords()
        grids = np.meshgrid(*axes, indexing="ij")
        # x fastest: node_id = ix + nx*(iy + ny*iz)
        coords = np.stack([g.reshape(-1, order="F") for g in grids], axis=1)
        self.node_coords = coords

    def _build_quadrature(self, npts):
        g, w = np.polynomial.legendre.leggauss(npts)
        t = 0.5 * (g + 1.0)
        w = 0.5 * w
        self.quad_pts_1d = t
        self.quad_wts_1d = w
        d = self.d
        pts = list(itertools.product(*([range(npts)] * d)))
        self.nq = len(pts)
        tq = np.array([[t[p[k]] for k in range(d)] for p in pts])        # (nq, d)
        wq = np.array([np.prod([w[p[k]] for k in range(d)]) for p in pts])
        cellvol = float(np.prod(self.h))
        self.qweights = wq * cellvol

        # local basis enumeration: a = o_code * 2^d + m_code, with the bit
        # encoding code = sum_k bit_k << k (axis 0 in the low bit) shared by
        # the global per-node dof layout
        o_list = [tuple((code >> k) & 1 for k in range(d)) for code in range(2**d)]
        m_list = [tuple((code >> k) & 1 for k in range(d)) for code in range(2**d)]
        self._local_o = o_list
        self._local_m = m_list
        B0 = np.zeros((self.nloc, self.nq))
        B1 = np.zeros((self.nloc, self.nq, d))
        B2 = np.zeros((self.nloc, self.nq, d, d))
        for a, (o, m) in enumerate((o, m) for o in o_list for m in m_list):
            B0[a], B1[a], B2[a] = tensor_derivatives(
                *[[_hermite_1d(o[k], m[k], tq[:, k], self.h[k], order) for k in range(d)]
                  for order in range(3)])
        self.B0, self.B1, self.B2 = B0, B1, B2

        # physical quadrature coordinates per cell
        cells_idx = list(itertools.product(*[range(n) for n in self.extents]))
        # cell_id = cx + nx*(cy + ny*cz): order='F' on the product above
        cells_idx = sorted(cells_idx, key=lambda c: self._cell_id(c))
        origins = np.array([[c[k] * self.h[k] for k in range(self.d)] for c in cells_idx])
        self._cells_idx = cells_idx
        self.qcoords = origins[:, None, :] + tq[None, :, :] * np.array(self.h)[None, None, :]

    def _cell_id(self, idx):
        cid = 0
        for k in reversed(range(self.d)):
            cid = cid * self.extents[k] + idx[k]
        return cid

    def _build_cell_dofs(self):
        nd = self.ndof_node
        cells = np.zeros((self.n_cells, self.nloc), dtype=np.int64)
        for ci, cidx in enumerate(self._cells_idx):
            a = 0
            for o in self._local_o:
                nid = self._node_id(tuple(cidx[k] + o[k] for k in range(self.d)))
                for m_code in range(nd):
                    cells[ci, a] = nid * nd + m_code
                    a += 1
        self.cells_sdofs = cells

    def _build_faces(self, npts):
        d = self.d
        t, w = self.quad_pts_1d, self.quad_wts_1d
        self.faces = {}
        for name in FACE_NAMES[d]:
            axis, side = _face_axis_side(name)
            tang = [k for k in range(d) if k != axis]
            # tangential local enumeration
            o_list = list(itertools.product(*([(0, 1)] * (d - 1))))
            m_list = list(itertools.product(*([(0, 1)] * (d - 1))))
            nlocf = len(o_list) * len(m_list)
            qf = list(itertools.product(*([range(npts)] * (d - 1))))
            nqf = len(qf)
            tqf = np.array([[t[p[j]] for j in range(d - 1)] for p in qf]).reshape(nqf, d - 1)
            wqf = np.array([np.prod([w[p[j]] for j in range(d - 1)]) for p in qf])
            wqf = wqf * float(np.prod([self.h[k] for k in tang]))
            Bf0 = np.zeros((nlocf, nqf))
            af = 0
            loc_pairs = []
            for o in o_list:
                for m in m_list:
                    vals = np.ones(nqf)
                    for j, k in enumerate(tang):
                        vals = vals * _hermite_1d(o[j], m[j], tqf[:, j], self.h[k], 0)
                    Bf0[af] = vals
                    loc_pairs.append((o, m))
                    af += 1
            # face cells: boundary layer of cells on this side
            ranges = [range(self.extents[k]) if k != axis
                      else [0 if side == 0 else self.extents[axis] - 1]
                      for k in range(d)]
            fcells = sorted(itertools.product(*ranges), key=lambda c: self._cell_id(c))
            sdofs = np.zeros((len(fcells), nlocf), dtype=np.int64)
            qcoords = np.zeros((len(fcells), nqf, d))
            nd = self.ndof_node
            for fi, cidx in enumerate(fcells):
                for af, (o, m) in enumerate(loc_pairs):
                    idx = list(cidx)
                    m_full = [0] * d
                    for j, k in enumerate(tang):
                        idx[k] += o[j]
                        m_full[k] = m[j]
                    idx[axis] += side
                    m_code = sum(m_full[k] << k for k in range(d))
                    sdofs[fi, af] = self._node_id(tuple(idx)) * nd + m_code
                for qi in range(nqf):
                    x = np.zeros(d)
                    for j, k in enumerate(tang):
                        x[k] = (cidx[k] + tqf[qi, j]) * self.h[k]
                    x[axis] = side * self.lengths[axis]
                    qcoords[fi, qi] = x
            self.faces[name] = FacePatch(name, axis, side, sdofs, Bf0, wqf, qcoords)

    def _build_dirichlet_mask(self):
        mask = np.zeros(self.n_sdofs, dtype=bool)
        nd = self.ndof_node
        axes = self._axis_coords()
        for name in self.dirichlet_faces:
            axis, side = _face_axis_side(name)
            bound = 0 if side == 0 else self.extents[axis]
            for nid in range(self.n_nodes):
                idx = self._node_index(nid)
                if idx[axis] != bound:
                    continue
                for m_code in range(nd):
                    if not (m_code >> axis) & 1:   # no normal derivative -> trace dof
                        mask[nid * nd + m_code] = True
        self.dirichlet_sdofs = mask
        self.free_sdofs = ~mask

    def _node_index(self, nid):
        idx = []
        for k in range(self.d):
            idx.append(nid % self.nodes_per_axis[k])
            nid //= self.nodes_per_axis[k]
        return tuple(idx)

    @property
    def domain_volume(self):
        return float(np.prod(self.lengths))

    @property
    def boundary_measure(self):
        return float(sum(p.measure for p in self.faces.values()))

    # -- fields ---------------------------------------------------------------

    def zeros(self, ncomp=1):
        shape = (self.n_sdofs,) if ncomp == 1 else (self.n_sdofs, ncomp)
        return NodalField(self, np.zeros(shape))

    def constant_field(self, value):
        vals = np.zeros(self.n_sdofs)
        vals[0::self.ndof_node] = value
        return NodalField(self, vals)

    def identity_field(self):
        nd = self.ndof_node
        vals = np.zeros((self.n_sdofs, self.d))
        vals[0::nd, :] = self.node_coords
        for k in range(self.d):
            vals[(1 << k)::nd, k] = 1.0
        return NodalField(self, vals)

    def interpolate(self, fn, ncomp=1, dfn=None, fd_step=1e-5):
        """Hermite interpolant of a callable fn(X) -> (n,) or (n, ncomp).

        dfn(X, m) must return the mixed partial for multi-index m (tuple of
        0/1 per axis); without it the nodal derivative dofs come from
        central differences of fn, which is only good to ~sqrt(eps).
        """
        X = self.node_coords
        nd = self.ndof_node
        shape = (self.n_sdofs,) if ncomp == 1 else (self.n_sdofs, ncomp)
        vals = np.zeros(shape)

        def eval_m(m):
            if sum(m) == 0:
                return np.asarray(fn(X), dtype=float)
            if dfn is not None:
                return np.asarray(dfn(X, m), dtype=float)
            axes = [k for k in range(self.d) for _ in range(m[k]) if m[k]]
            out = np.zeros(X.shape[:1] + ((ncomp,) if ncomp > 1 else ()))
            # nested central differences over the active axes
            for signs in itertools.product(*([(1, -1)] * len(axes))):
                Xp = X.copy()
                for sgn, k in zip(signs, axes):
                    Xp[:, k] += sgn * fd_step
                out = out + np.prod(signs) * np.asarray(fn(Xp), dtype=float)
            return out / (2.0 * fd_step) ** len(axes)

        for m_code in range(nd):
            m = tuple((m_code >> k) & 1 for k in range(self.d))
            vals[m_code::nd] = eval_m(m)
        return NodalField(self, vals)

    # -- evaluation -------------------------------------------------------------

    def local_values(self, field_values):
        """Gather (n_cells, nloc[, ncomp]) local dof values."""
        return field_values[self.cells_sdofs]

    def _operators(self, ncomp):
        """(D_k, w D_k) for k = 0, 1, 2: D_k maps the local dofs of a cell,
        flattened (nloc*ncomp) with the component fastest, to the field
        (k = 0), gradient (1) or Hessian (2) at all quadrature points,
        flattened (nq*ncomp*d^k): D_k[(q, j, x), (b, j')] = B_k[b, q, x]
        delta_jj'.  w D_k weights each row by its quadrature weight."""
        if ncomp not in self._operator_cache:
            ops = []
            for B in (self.B0, self.B1, self.B2):
                Bq = np.moveaxis(B, 0, -1).reshape(self.nq, -1, self.nloc)   # (q, x, b)
                D = np.einsum("qxb,jk->qjxbk", Bq, np.eye(ncomp)).reshape(
                    -1, self.nloc * ncomp)
                w = np.repeat(self.qweights, D.shape[0] // self.nq)
                ops.append((D, D * w[:, None]))
            self._operator_cache[ncomp] = ops
        return self._operator_cache[ncomp]

    def _at_quadrature(self, values, k):
        """Order-k derivatives of a nodal field at every quadrature point,
        (ncells, nq[, ncomp]) + (d,) * k, as one GEMM."""
        ncomp = 1 if values.ndim == 1 else values.shape[1]
        D = self._operators(ncomp)[k][0]
        loc = self.local_values(values).reshape(self.n_cells, -1)
        return (loc @ D.T).reshape((self.n_cells, self.nq) + values.shape[1:] + (self.d,) * k)

    def eval_scalar(self, field):
        return self._at_quadrature(field.values, 0), self._at_quadrature(field.values, 1)

    def eval_kinematics(self, y):
        """Per-quadrature deformation gradient, second gradient and det."""
        F = self._at_quadrature(y.values, 1)
        return Kinematics(F=F, G=self._at_quadrature(y.values, 2), detF=det(F))

    def eval_values(self, field):
        """Field values at every quadrature point, (ncells, nq[, ncomp])."""
        return self._at_quadrature(field.values, 0)

    def eval_face_scalar(self, face, field):
        return field.values[self.faces[face].sdofs] @ self.faces[face].B0

    # -- assembly ---------------------------------------------------------------

    def assemble_scalar(self, density):
        """Integral of a per-quadrature density over the domain."""
        return float(np.einsum("cq,q->", density, self.qweights))

    def assemble_gradient(self, ncomp, stress=None, hyperstress=None, source=None):
        """Nodal dual vector of S:grad z + H:grad^2 z + s.z.

        stress (ncells,nq,[ncomp,]d), hyperstress (ncells,nq,[ncomp,]d,d),
        source (ncells,nq[,ncomp]); returns (n_sdofs[, ncomp]).  Each term is
        one GEMM against a weighted operator, then one bincount scatter.
        """
        ops = self._operators(ncomp)
        loc = 0.0                                     # (ncells, nloc*ncomp)
        for k, coeff in ((1, stress), (2, hyperstress), (0, source)):
            if coeff is not None:
                loc = loc + coeff.reshape(self.n_cells, -1) @ ops[k][1]
        gdofs = self.cells_sdofs[:, :, None] * ncomp + np.arange(ncomp)
        out = np.bincount(gdofs.ravel(), weights=np.ravel(loc),
                          minlength=self.n_sdofs * ncomp)
        return out if ncomp == 1 else out.reshape(self.n_sdofs, ncomp)

    def _csc_pattern(self, ncomp, free):
        """CSC structure of the matrix on the ``free`` dofs (all when None).

        Returns (slots, indices, indptr): element-block entry (c, r, s), in
        C order, adds into data[slots[...]]; entries in a fixed row or
        column go to the spill slot ``len(indices)``.  Built on first use
        per (ncomp, free) and kept.
        """
        key = (ncomp, None if free is None else np.asarray(free, dtype=bool).tobytes())
        if key not in self._pattern_cache:
            n = self.n_sdofs * ncomp
            keep = np.ones(n, dtype=bool) if free is None else np.asarray(free, dtype=bool)
            m = int(keep.sum())
            number = np.where(keep, np.cumsum(keep) - 1, -1)
            nl = self.nloc * ncomp
            g = number[(self.cells_sdofs[:, :, None] * ncomp
                        + np.arange(ncomp)).reshape(self.n_cells, nl)]
            rows = np.repeat(g, nl, axis=1).ravel()
            cols = np.tile(g, (1, nl)).ravel()
            inside = (rows >= 0) & (cols >= 0)
            entries, slot = np.unique(cols[inside] * m + rows[inside], return_inverse=True)
            slots = np.full(rows.size, entries.size)
            slots[inside] = slot
            indptr = np.zeros(m + 1, dtype=np.int32)
            np.cumsum(np.bincount(entries // m, minlength=m), out=indptr[1:])
            self._pattern_cache[key] = (slots, (entries % m).astype(np.int32), indptr)
        return self._pattern_cache[key]

    @cached_property
    def _hyper_table(self):
        """(nq, nloc*nloc) table w_q B2_a : B2_b."""
        hyper = np.einsum("aqxy,bqxy,q->qab", self.B2, self.B2, self.qweights)
        return hyper.reshape(self.nq, -1)

    def assemble_hessian(self, ncomp, c4=None, c0=None, hyper_scal=None, hyper_rank1=None,
                         free=None):
        """Sparse bilinear form from per-quadrature coefficient tensors.

        c4: (ncells,nq,ncomp,d,ncomp,d) pairing first gradients (for a
        scalar field, (ncells,nq,d,d) is also accepted); c0 mass
        coefficient (ncells,nq[,ncomp,ncomp]); hyper_scal multiplies the
        second-gradient inner product identity, hyper_rank1
        (ncells,nq,ncomp,d,d) enters through the square of its pairing
        with second gradients.  Returns the CSC matrix restricted to the
        dofs where the (n_sdofs*ncomp,) mask ``free`` is true (all dofs when
        None).  Element blocks are batched GEMMs with the operators D_k;
        the scatter is one bincount into a fixed pattern.
        """
        nc, nq, nloc = self.n_cells, self.nq, self.nloc
        nl = nloc * ncomp
        ops = self._operators(ncomp)
        blocks = np.zeros((nc, nl, nl))
        if c0 is not None and c0.ndim == 2:
            c0 = c0[:, :, None, None] * np.eye(ncomp)
        for k, coeff in ((1, c4), (0, c0)):
            if coeff is not None:
                # sum_q (w D_k)_q^T coeff[c, q] (D_k)_q: per point, then per cell
                D, WD = ops[k]
                m = D.shape[0] // nq
                Y = np.moveaxis(coeff.reshape(nc, nq, m, m), 1, 0) @ D.reshape(nq, 1, m, nl)
                blocks += WD.T @ np.ascontiguousarray(np.swapaxes(Y, 0, 1)).reshape(nc, -1, nl)
        if hyper_scal is not None:
            # hyper_scal (B2_a : B2_b) delta_ij: one table for every component
            base = (hyper_scal @ self._hyper_table).reshape(nc, nloc, nloc)
            blocks5 = blocks.reshape(nc, nloc, ncomp, nloc, ncomp)
            for i in range(ncomp):
                blocks5[:, :, i, :, i] += base
        if hyper_rank1 is not None:
            # (T w)^T T with T[c, q] = R[c, q] (D_2)_q
            T = np.moveaxis(hyper_rank1.reshape(nc, nq, -1), 1, 0) @ ops[2][0].reshape(nq, -1, nl)
            T = np.ascontiguousarray(np.swapaxes(T, 0, 1))
            blocks += np.swapaxes(T * self.qweights[:, None], 1, 2) @ T

        slots, indices, indptr = self._csc_pattern(ncomp, free)
        data = np.bincount(slots, weights=blocks.ravel(), minlength=indices.size + 1)
        m = indptr.size - 1
        return sp.csc_matrix((data[:-1], indices, indptr), shape=(m, m))

    # -- boundary -----------------------------------------------------------------

    def assemble_face_gradient(self, faces, coeff, ncomp=1):
        """Dual vector of the boundary pairing integral coeff . z."""
        shape = (self.n_sdofs,) if ncomp == 1 else (self.n_sdofs, ncomp)
        out = np.zeros(shape)
        for name in faces:
            p = self.faces[name]
            if ncomp == 1:
                loc = np.einsum("cq,aq,q->ca", coeff[name], p.B0, p.weights)
            else:
                loc = np.einsum("cqi,aq,q->cai", coeff[name], p.B0, p.weights)
            np.add.at(out, p.sdofs, loc)
        return out

    def assemble_face_hessian(self):
        """Scalar boundary mass form over all faces (the Robin term), built on
        first use and kept."""
        if self._face_mass is None:
            rows, cols, data = [], [], []
            for p in self.faces.values():
                loc = np.einsum("aq,bq,q->ab", p.B0, p.B0, p.weights)
                nf = p.sdofs.shape[1]
                rows.append(np.repeat(p.sdofs, nf, axis=1).ravel())
                cols.append(np.tile(p.sdofs, (1, nf)).ravel())
                data.append(np.broadcast_to(loc, (p.sdofs.shape[0], nf, nf)).ravel())
            n = self.n_sdofs
            self._face_mass = sp.coo_matrix((np.concatenate(data), (np.concatenate(rows),
                                             np.concatenate(cols))), shape=(n, n)).tocsr()
        return self._face_mass

    # -- norms and cached Gram factorizations ----------------------------------

    def _gram(self, free_only):
        """(G, cb): the scalar H^1 Gram (mass + stiffness) on the free dofs
        or all dofs and its banded Cholesky factor, built once per mask and
        kept.

        The node-by-node dof numbering keeps G banded, and a Cholesky factor
        stays inside the band: ``cb`` is :func:`band_cholesky` of G.  It
        holds fewer entries than a SuperLU factor of G, in numpy arrays.
        SuperLU reserves its C workspace from a fill estimate instead, about
        26 MB for the 16x16 Gram, and that reservation made the peak memory
        of a process vary by tens of MB from one run to the next.
        """
        if free_only not in self._gram_cache:
            c4 = np.broadcast_to(np.eye(self.d), (self.n_cells, self.nq, self.d, self.d))
            G = self.assemble_hessian(1, c4=c4, c0=np.ones((self.n_cells, self.nq)),
                                      free=self.free_sdofs if free_only else None)
            self._gram_cache[free_only] = (G, band_cholesky(G))
        return self._gram_cache[free_only]

    def h1_gram(self, free_only=False):
        """Scalar H^1 Gram matrix (CSC), on the free dofs or all dofs.  The
        Gram of a d-vector field, component fastest, is kron(G, I_d)."""
        return self._gram(free_only)[0]

    def h1_gram_solve(self, rhs, free_only=True):
        """G^{-1} R for R of shape (n,) or (n, ncomp) on the free dofs or all
        dofs, through the cached factorization: ncomp right-hand sides."""
        return cho_solve_banded((self._gram(free_only)[1], True), rhs, check_finite=False)

    def dual_norm(self, residual, free_only=True):
        """Discrete (H^1)* norm sqrt(R : G^{-1} R) of a nodal dual vector R,
        (n_sdofs,) or (n_sdofs, ncomp), on the free dofs or, with
        free_only=False, on all dofs.  G is the scalar Gram; a vector
        residual is solved as ncomp right-hand sides of its factorization."""
        r = residual[self.free_sdofs] if free_only else residual
        if not np.any(r):
            return 0.0
        return float(np.sqrt(abs(np.vdot(r, self.h1_gram_solve(r, free_only)))))


@dataclass
class Kinematics:
    F: np.ndarray
    G: np.ndarray
    detF: np.ndarray

    @property
    def min_detF(self):
        return float(self.detF.min())


class NodalField:
    """Nodal Hermite dof vector, scalar or d-vector valued."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        expect = grid.n_sdofs
        if values.shape[0] != expect or values.ndim > 2:
            raise ValueError(f"field values must have leading dim {expect}")
        self.grid = grid
        self.values = values

    @property
    def ncomp(self):
        return 1 if self.values.ndim == 1 else self.values.shape[1]

    def copy(self):
        return NodalField(self.grid, self.values.copy())

    def __add__(self, other):
        return NodalField(self.grid, self.values + other.values)

    def __sub__(self, other):
        return NodalField(self.grid, self.values - other.values)

    def scaled(self, a):
        return NodalField(self.grid, a * self.values)


def apply_dirichlet_identity(grid, y):
    """Overwrite constrained dofs with the identity-map trace values."""
    ident = grid.identity_field()
    y.values[grid.dirichlet_sdofs] = ident.values[grid.dirichlet_sdofs]
    return y


def zero_dirichlet_rows(grid, residual):
    residual[grid.dirichlet_sdofs] = 0.0
    return residual

