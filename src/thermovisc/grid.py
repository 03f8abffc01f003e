"""Structured C^1 tensor-product grid on a rectangular reference domain.

Per axis the basis is cubic Hermite (value + slope per node), tensor
multiplied across axes, which gives globally C^1 fields whose second
gradients are square integrable -- exactly what the second-gradient
energy needs.  Nodal scalar dofs are the mixed partials d^m f at the
node for every m in {0,1}^d, so the basis reproduces full bicubic
(tricubic) polynomials per cell.

Quadrature is tensor Gauss with 4 points per axis (exact through degree
7 per axis, i.e. beyond twice the basis degree); boundary faces carry
the induced trace rule.  Assembly reductions use a fixed summation
order so repeated runs are bit-identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


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
        self._gram_cache = {}

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

    def eval_scalar(self, field):
        loc = self.local_values(field.values)
        vals = np.einsum("aq,ca->cq", self.B0, loc)
        grads = np.einsum("aqb,ca->cqb", self.B1, loc)
        return vals, grads

    def eval_kinematics(self, y):
        """Per-quadrature deformation gradient, second gradient and det."""
        loc = self.local_values(y.values)           # (ncells, nloc, d)
        F = np.einsum("aqb,cai->cqib", self.B1, loc)
        G = np.einsum("aqbg,cai->cqibg", self.B2, loc)
        return Kinematics(F=F, G=G, detF=np.linalg.det(F))

    def eval_vector_values(self, y):
        loc = self.local_values(y.values)
        return np.einsum("aq,cai->cqi", self.B0, loc)

    def eval_face_scalar(self, face, field):
        loc = field.values[self.faces[face].sdofs]
        return np.einsum("aq,ca->cq", self.faces[face].B0, loc)

    # -- assembly ---------------------------------------------------------------

    def assemble_scalar(self, density):
        """Integral of a per-quadrature density over the domain."""
        return float(np.einsum("cq,q->", density, self.qweights))

    def assemble_gradient(self, ncomp, stress=None, hyperstress=None, source=None):
        """Nodal dual vector of S:grad z + H:grad^2 z + s.z.

        stress (ncells,nq,[ncomp,]d), hyperstress (ncells,nq,[ncomp,]d,d),
        source (ncells,nq[,ncomp]); returns (n_sdofs[, ncomp]).
        """
        w = self.qweights
        shape = (self.n_sdofs,) if ncomp == 1 else (self.n_sdofs, ncomp)
        out = np.zeros(shape)
        loc = 0.0
        if stress is not None:
            sub = "cqib,aqb,q->cai" if ncomp > 1 else "cqb,aqb,q->ca"
            loc = loc + np.einsum(sub, stress, self.B1, w)
        if hyperstress is not None:
            sub = "cqibg,aqbg,q->cai" if ncomp > 1 else "cqbg,aqbg,q->ca"
            loc = loc + np.einsum(sub, hyperstress, self.B2, w)
        if source is not None:
            sub = "cqi,aq,q->cai" if ncomp > 1 else "cq,aq,q->ca"
            loc = loc + np.einsum(sub, source, self.B0, w)
        np.add.at(out, self.cells_sdofs, loc)
        return out

    def _hessian_pattern(self, ncomp):
        if ncomp in self._pattern_cache:
            return self._pattern_cache[ncomp]
        nl = self.nloc * ncomp
        gdofs = (self.cells_sdofs[:, :, None] * ncomp
                 + np.arange(ncomp)[None, None, :]).reshape(self.n_cells, nl)
        rows = np.repeat(gdofs, nl, axis=1).ravel()
        cols = np.tile(gdofs, (1, nl)).ravel()
        self._pattern_cache[ncomp] = (rows, cols, gdofs)
        return self._pattern_cache[ncomp]

    def assemble_hessian(self, ncomp, c4=None, c0=None, hyper_scal=None, hyper_rank1=None):
        """Sparse bilinear form from per-quadrature coefficient tensors.

        c4: (ncells,nq,ncomp,d,ncomp,d) pairing first gradients (for a
        scalar field, (ncells,nq,d,d) is also accepted); c0 mass
        coefficient (ncells,nq[,ncomp,ncomp]); hyper_scal multiplies the
        second-gradient inner product identity, hyper_rank1
        (ncells,nq,ncomp,d,d) enters through the square of its pairing
        with second gradients.
        """
        w = self.qweights
        nl = self.nloc * ncomp
        blocks = np.zeros((self.n_cells, nl, nl))

        def scatter(loc):
            # loc indexed (c, a, i, b, j) -> (c, a*ncomp+i, b*ncomp+j)
            return loc.reshape(self.n_cells, nl, nl)

        if c4 is not None:
            if ncomp == 1 and c4.ndim == 4:
                c4 = c4[:, :, None, :, None, :]
            tmp = np.einsum("aqA,cqiAjB->cqaijB", self.B1, c4, optimize=True)
            loc = np.einsum("cqaijB,bqB,q->caibj", tmp, self.B1, w, optimize=True)
            blocks += scatter(loc)
        if c0 is not None:
            if not hasattr(self, "_mass3q"):
                self._mass3q = np.einsum("aq,bq,q->abq", self.B0, self.B0, w)
            if c0.ndim == 2:
                base = np.einsum("cq,abq->cab", c0, self._mass3q)
                loc = np.einsum("cab,ij->caibj", base, np.eye(ncomp))
            else:
                loc = np.einsum("aq,cqij,bq,q->caibj", self.B0, c0, self.B0, w,
                                optimize=True)
            blocks += scatter(loc)
        if hyper_scal is not None:
            # sum_q w * hyper_scal * (B2_a : B2_b) * delta_ij
            if not hasattr(self, "_hyper3q"):
                self._hyper3q = np.einsum("aqxy,bqxy,q->abq", self.B2, self.B2, w)
            base = np.einsum("cq,abq->cab", hyper_scal, self._hyper3q)
            loc = np.einsum("cab,ij->caibj", base, np.eye(ncomp))
            blocks += scatter(loc)
        if hyper_rank1 is not None:
            T = np.einsum("aqbg,cqibg->cqai", self.B2, hyper_rank1)
            loc = np.einsum("cqai,cqbj,q->caibj", T, T, w)
            blocks += scatter(loc)

        rows, cols, _ = self._hessian_pattern(ncomp)
        n = self.n_sdofs * ncomp
        H = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n))
        return H.tocsr()

    # -- boundary -----------------------------------------------------------------

    def assemble_face_scalar(self, faces, density):
        """Sum over faces of the per-face-quadrature density integral."""
        total = 0.0
        for name in faces:
            p = self.faces[name]
            total += float(np.einsum("cq,q->", density[name], p.weights))
        return total

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

    def assemble_face_hessian(self, faces, coeff=None):
        """Scalar boundary mass form (for the Robin term)."""
        n = self.n_sdofs
        rows, cols, data = [], [], []
        for name in faces:
            p = self.faces[name]
            cf = coeff[name] if coeff is not None else np.ones((p.sdofs.shape[0], p.weights.size))
            loc = np.einsum("cq,aq,bq,q->cab", cf, p.B0, p.B0, p.weights)
            nf = p.sdofs.shape[1]
            rows.append(np.repeat(p.sdofs, nf, axis=1).ravel())
            cols.append(np.tile(p.sdofs, (1, nf)).ravel())
            data.append(loc.ravel())
        H = sp.coo_matrix((np.concatenate(data),
                           (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
        return H.tocsr()

    # -- norms and cached Gram factorizations ----------------------------------

    def h1_gram(self, ncomp=1, free_only=False):
        """H^1 Gram matrix (mass + stiffness), optionally on free dofs."""
        eye4 = np.einsum("ij,ab->iajb", np.eye(ncomp), np.eye(self.d))
        c4 = np.broadcast_to(eye4, (self.n_cells, self.nq, ncomp, self.d, ncomp, self.d))
        c0 = np.ones((self.n_cells, self.nq))
        B = self.assemble_hessian(ncomp, c4=np.ascontiguousarray(c4), c0=c0)
        if free_only:
            free = np.repeat(self.free_sdofs, ncomp)
            B = B[free][:, free]
        return B

    def dual_norm_solver(self, ncomp=1, free_only=True):
        """Cached factorized H^1 Gram for discrete dual norms."""
        key = (ncomp, free_only)
        if key not in self._gram_cache:
            B = self.h1_gram(ncomp, free_only=free_only).tocsc()
            self._gram_cache[key] = splu(B)
        return self._gram_cache[key]

    def dual_norm(self, residual, ncomp=1):
        """Discrete (H^1)* norm of a nodal dual vector on the free dofs."""
        free = np.repeat(self.free_sdofs, ncomp) if ncomp > 1 else self.free_sdofs
        r = residual.reshape(-1)[free]
        if not np.any(r):
            return 0.0
        lu = self.dual_norm_solver(ncomp, free_only=True)
        return float(np.sqrt(abs(r @ lu.solve(r))))


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


def robin_boundary(grid, theta, theta_b, kappa):
    """Robin boundary energy int (kappa/2)(theta-theta_b)^2 and its gradient.

    theta_b: scalar or dict face -> (n_face_cells, nqf) array.
    """
    names = list(grid.faces)
    dens = {}
    coef = {}
    for name in names:
        th = grid.eval_face_scalar(name, theta)
        tb = theta_b[name] if isinstance(theta_b, dict) else theta_b
        diff = th - tb
        dens[name] = 0.5 * kappa * diff**2
        coef[name] = kappa * diff
    energy = grid.assemble_face_scalar(names, dens)
    residual = grid.assemble_face_gradient(names, coef, ncomp=1)
    return energy, residual
