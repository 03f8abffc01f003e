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

Numbering.  Cells and nodes are numbered with axis 0 fastest, cell
(i0, i1, i2) as i0 + n0*(i1 + n1*i2).  A dof code packs one bit per axis,
bit k on axis k.  Scalar dof n * 2^d + code(m) is the mixed partial d^m
at node n; local dof a = code(o) * 2^d + code(m) of a cell is that dof of
the node at the cell's index plus o.  Quadrature points run with the
last axis fastest.  A face is its layer of cells; its trace dofs are the
local dofs with o = side and m = 0 along the normal, ordered with the
first tangential axis slowest and the node offset before the dof type.
The Dirichlet dofs are the trace dofs of the fixed faces.

Evaluation and assembly are GEMMs with per-cell operators D_k that map
the local dofs to the field, gradient or Hessian at every quadrature
point (after Cuvelier, Japhet & Scarella, BIT Numer. Math. 2016).
Element Hessian blocks are batched products (w D)^T C D, or (T w)^T T
for the rank-one hyperstress part, and one bincount adds them into a
fixed CSC pattern, built on first use for all dofs or for the free ones,
so no sparse matrix is converted or sliced per Newton iteration.  The
pattern follows from the node stencil without a sort: node-by-node
numbering makes each node's dofs one block, and a column couples to the
dofs of the nodes at offsets {-1, 0, 1}^d from its own.  The operations
and their order are fixed, so repeated runs are bit-identical.
"""

from __future__ import annotations

import difflib
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import comb, prod
from operator import mul

import numpy as np
import scipy.sparse as sp

from .materials import det

# SuperLU settings of every sparse LU: minimum degree on A^T + A,
# diagonal pivots (no row interchanges unless a pivot is exactly zero)
SPD_LU = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
          "options": {"SymmetricMode": True}}

QUAD_PTS = 4   # Gauss points per axis in cells and on faces (module docstring)
LATTICE_KAPPA = {2: 40, 3: 6}   # det_lower_bounds: rounding of a lattice table entry, in u
MARGIN_SLACK = 2.0**-20         # det_lower_bounds: relative slack of its rounding margin


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


def bernstein_inverse(n):
    """Inverse of V[i, j] = B_j^n(i/n), which maps the values of a degree-n
    polynomial at n + 1 equispaced points of [0, 1] to its Bernstein
    coefficients: eliminated in rationals (V is totally positive, so no
    pivot vanishes), each entry rounded once."""
    size = n + 1
    rows = [[Fraction(comb(n, j) * i**j * (n - i)**(n - j), n**n) for j in range(size)]
            + [Fraction(int(i == r)) for r in range(size)] for i in range(size)]
    for c in range(size):
        rows[c] = [v / rows[c][c] for v in rows[c]]
        rows = [row if r == c else [a - row[c] * b for a, b in zip(row, rows[c])]
                for r, row in enumerate(rows)]
    return np.array([[float(v) for v in row[size:]] for row in rows])


def _permanent_slope(A, M):
    """sum_ij A_ij perm(minor_ij(M)) for (..., d, d) stacks: the slope of
    the permanent at M along A (d perm(M) when A = M).  Entry by entry, as
    whole-array products and sums over the stack."""
    d = A.shape[-1]
    total = 0
    for s in itertools.permutations(range(d)):
        for i in range(d):
            minor = reduce(mul, [M[..., k, s[k]] for k in range(d) if k != i])
            total = total + A[..., i, s[i]] * minor
    return total


def _pencil_eigh(S, M):
    """(lam, V): S V = M V diag(lam), V^T M V = I, through the Cholesky factor
    of M (scipy's eigh(S, M) waits on the BLAS threads, 12 ms at 34x34)."""
    Li = np.linalg.inv(np.linalg.cholesky(M))
    lam, W = np.linalg.eigh(Li @ S @ Li.T)
    return lam, Li.T @ W


FACE_NAMES = {2: ("x0", "x1", "y0", "y1"),
              3: ("x0", "x1", "y0", "y1", "z0", "z1")}


def _face_axis_side(name):
    axis = {"x": 0, "y": 1, "z": 2}[name[0]]
    return axis, int(name[1])


def grid_errors(extents, lengths, dirichlet) -> list[str]:
    """All violated rules of a grid's arguments, as human-readable strings."""
    if len(extents) not in (2, 3):
        return [f"extents must have 2 or 3 entries (got {len(extents)})"]
    if len(lengths) != len(extents):
        return [f"lengths must have as many entries as extents (got {len(lengths)}, "
                f"need {len(extents)})"]
    errs = []
    if any(n < 2 for n in extents):
        errs.append(f"extents must be at least 2 cells per axis (got {list(extents)})")
    if any(L <= 0 for L in lengths):
        errs.append(f"lengths must be positive (got {list(lengths)})")
    valid = FACE_NAMES[len(extents)]
    for f in dirichlet:
        if f not in valid:
            close = difflib.get_close_matches(f, valid, n=1)
            hint = f" (nearest: {close[0]})" if close else ""
            errs.append(f"unknown face {f!r}{hint}; valid: {' '.join(valid)}")
    if len(set(dirichlet)) < len(dirichlet):
        errs.append(f"the fixed faces must not repeat (got {' '.join(dirichlet)})")
    if not dirichlet:
        errs.append("the fixed boundary part must be nonempty")
    return errs


def _gauss_rule(k):
    """Points (npts, k), last axis fastest, and weights of the tensor Gauss
    rule on [0, 1]^k."""
    g, w = np.polynomial.legendre.leggauss(QUAD_PTS)
    t, w = 0.5 * (g + 1.0), 0.5 * w
    return (np.array(list(itertools.product(t, repeat=k))).reshape(-1, k),
            np.prod(list(itertools.product(w, repeat=k)), axis=1))


def _index_map(shape):
    """(d, prod(shape)) index of every cell or node, axis 0 fastest."""
    return np.indices(shape).reshape(len(shape), -1, order="F")


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


class StructuredGrid:
    """Tensor-product reference mesh with C^1 Hermite dofs."""

    def __init__(self, extents, lengths, dirichlet_faces=("x0",)):
        extents = tuple(int(n) for n in extents)
        lengths = tuple(float(L) for L in lengths)
        dirichlet_faces = tuple(dirichlet_faces)
        errs = grid_errors(extents, lengths, dirichlet_faces)
        if errs:
            raise ValueError("; ".join(errs))
        d = len(extents)

        self.d = d
        self.extents = extents
        self.lengths = lengths
        self.h = tuple(L / n for L, n in zip(lengths, extents))
        self.dirichlet_faces = dirichlet_faces
        self.neumann_faces = tuple(f for f in FACE_NAMES[d] if f not in dirichlet_faces)

        self.nodes_per_axis = tuple(n + 1 for n in extents)
        self.n_nodes = int(np.prod(self.nodes_per_axis))
        self.n_cells = int(np.prod(extents))
        self.ndof_node = 2**d          # mixed-partial dof types per node
        self.n_sdofs = self.n_nodes * self.ndof_node
        self.nloc = 4**d               # scalar basis functions per cell
        # the bits of each dof code: node offsets o and dof types m (module docstring)
        self._local_o = self._local_m = [tuple((code >> k) & 1 for k in range(d))
                                         for code in range(2**d)]
        self._cell_index = _index_map(extents)

        self.node_coords = np.stack([np.linspace(0.0, L, n + 1)[i] for L, n, i in
                                     zip(lengths, extents, _index_map(self.nodes_per_axis))],
                                    axis=1)
        self._build_quadrature()
        self._build_cell_dofs()
        self._build_faces()
        mask = np.zeros(self.n_sdofs, dtype=bool)
        for name in dirichlet_faces:   # the trace dofs of the fixed faces
            mask[self.faces[name].sdofs] = True
        self.dirichlet_sdofs = mask
        self.free_sdofs = ~mask
        self._pattern_cache = {}
        self._operator_cache = {}
        self._gram_cache = {}
        self._face_mass = None

    # -- construction -------------------------------------------------------

    def _node_id(self, idx):
        """Node id of the node index idx, (d, ...) array-like."""
        return np.ravel_multi_index(tuple(idx), self.nodes_per_axis, order="F")

    def _build_quadrature(self):
        tq, wq = _gauss_rule(self.d)
        self.nq = len(tq)
        self.qweights = wq * float(np.prod(self.h))
        self.B0, self.B1, self.B2 = self._basis_tables(tq)
        h = np.array(self.h)
        self.qcoords = (self._cell_index.T * h)[:, None, :] + tq[None, :, :] * h

    def _basis_tables(self, tq):
        """(B0, B1, B2): value, gradient and Hessian of every local basis
        function at the reference points tq (npts, d) of a cell, shapes
        (nloc, npts), (nloc, npts, d) and (nloc, npts, d, d)."""
        d, npts = self.d, tq.shape[0]
        B0 = np.zeros((self.nloc, npts))
        B1 = np.zeros((self.nloc, npts, d))
        B2 = np.zeros((self.nloc, npts, d, d))
        for a, (o, m) in enumerate((o, m) for o in self._local_o for m in self._local_m):
            B0[a], B1[a], B2[a] = tensor_derivatives(
                *[[_hermite_1d(o[k], m[k], tq[:, k], self.h[k], order) for k in range(d)]
                  for order in range(3)])
        return B0, B1, B2

    def _build_cell_dofs(self):
        nodes = self._node_id(self._cell_index[:, :, None]
                              + np.array(self._local_o).T[:, None, :])   # (n_cells, 2^d)
        nd = self.ndof_node
        self.cells_sdofs = (nodes[:, :, None] * nd + np.arange(nd)).reshape(self.n_cells, -1)

    def _build_faces(self):
        """One FacePatch per face, numbered as the module docstring says."""
        d, nd, h = self.d, self.ndof_node, np.array(self.h)
        tqf, wqf = _gauss_rule(d - 1)
        axis_side = [_face_axis_side(name) for name in FACE_NAMES[d]]
        # one basis-table call for the points of all faces, the normal coordinate at side
        pts = [np.insert(tqf, axis, side, axis=1) for axis, side in axis_side]
        B0 = self._basis_tables(np.concatenate(pts))[0].reshape(self.nloc, len(pts), -1)
        bits = np.array(self._local_o)
        o, m = bits[np.arange(self.nloc) // nd], bits[np.arange(self.nloc) % nd]
        self.faces = {}
        for f, (name, (axis, side)) in enumerate(zip(FACE_NAMES[d], axis_side)):
            tang = [k for k in range(d) if k != axis]
            trace = np.flatnonzero((o[:, axis] == side) & (m[:, axis] == 0))
            keys = [m[trace, k] for k in reversed(tang)] + [o[trace, k] for k in reversed(tang)]
            trace = trace[np.lexsort(keys)]   # np.lexsort: the last key varies slowest
            cells = np.flatnonzero(self._cell_index[axis] == side * (self.extents[axis] - 1))
            qcoords = (self._cell_index[:, cells].T[:, None, :] + pts[f]) * h
            qcoords[..., axis] = side * self.lengths[axis]
            self.faces[name] = FacePatch(name, axis, side, self.cells_sdofs[np.ix_(cells, trace)],
                                         B0[trace, f], wqf * float(np.prod(h[tang])), qcoords)

    # -- fields ---------------------------------------------------------------

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

    def interpolate(self, fn, dfn, ncomp=1):
        """Hermite interpolant of a callable fn(X) -> (n,) or (n, ncomp).

        dfn(X, m) returns the mixed partial for multi-index m (tuple of 0/1
        per axis, not all zero), which the derivative dofs take exactly.
        """
        X = self.node_coords
        nd = self.ndof_node
        shape = (self.n_sdofs,) if ncomp == 1 else (self.n_sdofs, ncomp)
        vals = np.zeros(shape)
        vals[0::nd] = np.asarray(fn(X), dtype=float)
        for m_code in range(1, nd):
            vals[m_code::nd] = np.asarray(dfn(X, self._local_m[m_code]), dtype=float)
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

    @cached_property
    def _det_lattice(self):
        """(T, Vi) of :meth:`det_lower_bounds`: T[(p, j), a] = d_j B_a at point
        p of the (n+1)^d equispaced lattice of a cell (last axis fastest),
        n = 3d - 1, and Vi = bernstein_inverse(n)."""
        n = 3 * self.d - 1
        t = np.arange(n + 1) / n
        B1 = self._basis_tables(np.array(list(itertools.product(t, repeat=self.d))))[1]
        return np.moveaxis(B1, 0, -1).reshape(-1, self.nloc), bernstein_inverse(n)

    def det_lower_bounds(self, y):
        """Lower bound of det grad y over each closed cell, (n_cells,).

        On a cell the entries of F = grad y have degree at most 3 per axis,
        and each term of det F differentiates every axis once, so det F has
        degree n = 3d - 1 per axis.  Vi along each axis maps its values on
        the lattice to its tensor Bernstein coefficients, whose convex hull
        holds det F, so the least one bounds det F on the whole closed cell
        (the validity test of curved high-order elements; Johnen, Remacle &
        Geuzaine, J. Comput. Phys. 233, 2013).

        Rounding margin (u = eps/2; error bounds of Higham, Accuracy and
        Stability of Numerical Algorithms, ch. 3).  Shifting a cell's value
        dofs by its first leaves F unchanged and moves each dof by at most
        u of itself, and the entries of T lie within LATTICE_KAPPA[d] u of
        their exact values, so each computed entry of F, a sum of nloc
        products, is off by at most e_F A, with e_F = (nloc + kappa + 1) u
        and A = |loc| |T|^T.  By the mean value theorem det is then off by
        at most e_F sum_ij A_ij perm(minor_ij(|F| + e_F A)), and its closed
        form adds (2d - 1) u perm|F|.  Vi is correctly rounded, so its d
        passes add d (n + 2) u (|Vi| along each axis) |det F|.  The margin
        is |Vi| along each axis applied to these value errors, times
        1 + MARGIN_SLACK for the higher orders in u and its own rounding;
        each cell's least difference is then rounded down by one ulp.
        """
        T, Vi = self._det_lattice
        d, nc, n1 = self.d, self.n_cells, Vi.shape[0]
        loc = self.local_values(y.values)                 # (nc, nloc, d), a copy
        loc[:, ::self.ndof_node] = loc[:, ::self.ndof_node] - loc[:, :1]
        loc = np.swapaxes(loc, 1, 2).reshape(nc * d, self.nloc)
        # F[c, p, i, j] = d y_i / d x_j at lattice point p of cell c; A bounds its error
        F = np.moveaxis((loc @ T.T).reshape(nc, d, -1, d), 1, 2)
        A = np.moveaxis((np.abs(loc) @ np.abs(T).T).reshape(nc, d, -1, d), 1, 2)
        u = np.finfo(float).eps / 2
        e_F, absF = (self.nloc + LATTICE_KAPPA[d] + 1) * u, np.abs(F)
        coef = det(F)
        err = (e_F * _permanent_slope(A, absF + e_F * A)
               + (2 * d - 1) * u / d * _permanent_slope(absF, absF)   # perm|F|
               + d * (n1 + 1) * u * np.abs(coef))
        lat = (nc,) + (n1,) * d
        coef, err, absVi = coef.reshape(lat), err.reshape(lat), np.abs(Vi)
        for k in range(1, d + 1):
            coef = np.moveaxis(np.tensordot(Vi, coef, axes=(1, k)), 0, k)
            err = np.moveaxis(np.tensordot(absVi, err, axes=(1, k)), 0, k)
        low = (coef - (1.0 + MARGIN_SLACK) * err).reshape(nc, -1).min(axis=1)
        return np.nextafter(low, -np.inf)

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

        Built from the node stencil, with no sort.  The dofs of a node are
        B = 2^d ncomp consecutive numbers, and the cells couple each dof of
        node N to every dof of the nodes at offsets {-1, 0, 1}^d from N.
        So column j at node N holds the free dofs of those neighbours in
        node order (offsets in lexicographic order, the last axis slowest),
        each node's in dof order, and an element entry's slot is
        indptr[j] + (free dofs of the neighbours before the row's node)
        + (the row's rank among its node's free dofs).
        """
        key = (ncomp, None if free is None else np.asarray(free, dtype=bool).tobytes())
        if key not in self._pattern_cache:
            d, nn, B = self.d, self.n_nodes, self.ndof_node * ncomp
            keep = (np.ones(nn * B, dtype=bool) if free is None
                    else np.asarray(free, dtype=bool)).reshape(nn, B)
            number = np.where(keep, np.cumsum(keep).reshape(nn, B) - 1, -1)   # -1: fixed
            # rows[N, o, b]: number of dof b of the neighbour of N at offset o, else -1
            shape = self.nodes_per_axis[::-1]   # node ids in C order, axis 0 fastest
            padded = np.pad(number.reshape(shape + (B,)), [(1, 1)] * d + [(0, 0)],
                            constant_values=-1)
            rows = np.stack([padded[tuple(slice(1 + o, 1 + o + n) for o, n in zip(off, shape))]
                             .reshape(nn, B) for off in itertools.product((-1, 0, 1), repeat=d)],
                            axis=1)
            per_offset = (rows >= 0).sum(axis=2)                       # (nn, 3^d)
            before = np.cumsum(per_offset, axis=1) - per_offset
            per_node = keep.sum(axis=1)
            indptr = np.zeros(per_node.sum() + 1, dtype=np.int32)
            np.cumsum(np.repeat(per_offset.sum(axis=1), per_node), out=indptr[1:])
            indices = np.repeat(rows.reshape(nn, -1), per_node, axis=0)
            indices = indices[indices >= 0].astype(np.int32)
            # element entries as (cell, row node, row dof, column node, column dof)
            nodes = self.cells_sdofs[:, ::self.ndof_node] // self.ndof_node   # (n_cells, 2^d)
            # offset[r, c]: the index in `rows` of local node r seen from local node c
            o = np.array(self._local_o)
            offset = ((o[:, None] - o[None, :] + 1) * 3 ** np.arange(d)).sum(axis=2)
            col, row_rank = number[nodes], (np.cumsum(keep, axis=1) - 1)[nodes]
            slots = (indptr[col][:, None, None]
                     + before[nodes[:, None], offset][:, :, None, :, None]
                     + row_rank[..., None, None])
            inside = (col >= 0)[:, None, None] & keep[nodes][..., None, None]
            self._pattern_cache[key] = (np.where(inside, slots, indices.size).ravel(),
                                        indices, indptr)
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

    def assemble_face_gradient(self, faces, coeff):
        """Dual vector (n_sdofs, d) of the boundary pairing integral coeff . z
        of vector coefficients (n_face_cells, nqf, d), scattered by one
        bincount over the faces in order."""
        d = self.d
        gdofs, loc = [], []
        for name in faces:
            p = self.faces[name]
            loc.append(np.einsum("cqi,aq,q->cai", coeff[name], p.B0, p.weights).ravel())
            gdofs.append((p.sdofs[:, :, None] * d + np.arange(d)).ravel())
        out = np.bincount(np.concatenate(gdofs), weights=np.concatenate(loc),
                          minlength=self.n_sdofs * d)
        return out.reshape(self.n_sdofs, d)

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

    # -- norms: the H^1 Gram as a Kronecker sum -------------------------------

    @cached_property
    def _line_forms(self):
        """Per axis, the 1D Hermite mass and stiffness (2, N, N) on its
        N = 2 (n + 1) dofs, 1D dof 2 i + m the type-m dof of node i."""
        t, w = _gauss_rule(1)
        forms = []
        for n, h in zip(self.extents, self.h):
            B = np.array([[_hermite_1d(o, m, t[:, 0], h, order) for o in (0, 1) for m in (0, 1)]
                          for order in (0, 1)])                    # (order, 4, npts)
            cell = 2 * np.arange(n)[:, None] + np.arange(4)        # 1D dofs of each cell
            forms.append(np.zeros((2, 2 * n + 2, 2 * n + 2)))
            np.add.at(forms[-1], (slice(None), cell[:, :, None], cell[:, None, :]),
                      ((B * (w * h)) @ np.swapaxes(B, 1, 2))[:, None])
        return forms

    def _gram_eigen(self, free_only):
        """(pos, order, V, W, root) of the scalar H^1 Gram G on the free dofs
        or all dofs, the Kronecker sum of the 1D forms, set up once per mask
        and kept: S = (kron_k V_k) diag(root), root = (1 + sum_k lambda_k)^(-1/2),
        from each axis's pencil S_k V_k = M_k V_k diag(lambda_k) on its free
        1D dofs, has S S^T = G^{-1} and S^T G S = I, and W_k = V_k^T M_k
        inverts V_k (fast diagonalization; Lynch, Rice & Thomas, Numer.
        Math. 6, 1964).  A fixed face removes only the value dof of its end
        node on its normal axis.  ``pos`` places each dof in the tensor of 1D
        dofs, axis 0 slowest, and its inverse ``order`` lists the dof at
        each place."""
        if free_only not in self._gram_cache:
            # the 1D dof 2 i_k + m_k on each axis k of every scalar dof
            j = (2 * _index_map(self.nodes_per_axis)[:, :, None]
                 + np.array(self._local_m).T[:, None]).reshape(self.d, -1)
            keep = [np.ones(2 * n, dtype=bool) for n in self.nodes_per_axis]
            for name in self.dirichlet_faces if free_only else ():
                axis, side = _face_axis_side(name)
                keep[axis][2 * side * self.extents[axis]] = False
            mask = np.logical_and.reduce([k[jk] for k, jk in zip(keep, j)])
            if not np.array_equal(mask, self.free_sdofs if free_only else np.ones_like(mask)):
                raise ValueError("the free dofs are not a product of 1D free sets")
            pos = np.ravel_multi_index([(np.cumsum(k) - 1)[jk[mask]] for k, jk in zip(keep, j)],
                                       [int(k.sum()) for k in keep])
            lam, V = zip(*(_pencil_eigh(S[np.ix_(k, k)], M[np.ix_(k, k)])
                           for (M, S), k in zip(self._line_forms, keep)))
            W = [Vk.T @ M[np.ix_(k, k)] for Vk, (M, _), k in zip(V, self._line_forms, keep)]
            self._gram_cache[free_only] = (pos, np.argsort(pos), V, W,
                                           (1.0 + reduce(np.add.outer, lam)) ** -0.5)
        return self._gram_cache[free_only]

    def h1_transform(self, X, kind, free_only=True):
        """S X (kind "S"), S^T X ("ST") or S^{-1} X ("S^-1") for X of shape
        (n, ...) on the free dofs or all dofs, with S the Kronecker factor
        of the scalar Gram's inverse (:meth:`_gram_eigen`), applied to each
        column of the trailing axes: S scales by root before its 1D
        products, S^T and S^{-1} after theirs.  Each 1D product is one
        matmul on the tensor viewed as (axes before k, axis k, the rest),
        so no axis moves, and the dofs enter and leave the tensor by one
        take each.  The coefficients that S maps are numbered like the
        dofs."""
        pos, order, V, W, root = self._gram_eigen(free_only)
        scale = root[..., None]
        T = np.take(X, order, axis=0).reshape(root.shape + (-1,))
        if kind == "S":
            T = T * scale
        for k, Mk in enumerate({"S": V, "ST": [Vk.T for Vk in V], "S^-1": W}[kind]):
            T = np.matmul(Mk, T.reshape(prod(root.shape[:k]), Mk.shape[1], -1))
        T = T.reshape(root.shape + (-1,))
        if kind != "S":
            T = T * (scale if kind == "ST" else 1.0 / scale)
        return np.take(T.reshape(X.shape), pos, axis=0)

    def dual_norm(self, residual, free_only=True):
        """Discrete (H^1)* norm sqrt(R : G^{-1} R) = |S^T R| of a nodal dual
        vector R, (n_sdofs,) or (n_sdofs, ncomp), on the free dofs or, with
        free_only=False, on all dofs (:meth:`h1_transform`).  G is the
        scalar Gram; a vector residual is transformed as ncomp columns."""
        r = residual[self.free_sdofs] if free_only else residual
        if not np.any(r):
            return 0.0
        return float(np.linalg.norm(self.h1_transform(r, "ST", free_only)))


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

    def copy(self):
        return NodalField(self.grid, self.values.copy())


def zero_dirichlet_rows(grid, residual):
    residual[grid.dirichlet_sdofs] = 0.0
    return residual

