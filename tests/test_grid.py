"""Discretization tests: polynomial exactness, quadrature, the
gradient/energy adjoint-consistency oracle, Dirichlet trace handling and
the Robin boundary term, whose boundary mass and load are checked against
face-by-face traces."""

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import thermovisc.grid as grid_module
from thermovisc.diagnostics import korn_constant
from thermovisc.grid import (
    LATTICE_KAPPA,
    SPD_LU,
    NodalField,
    StructuredGrid,
    bernstein_inverse,
    zero_dirichlet_rows,
)
from thermovisc.heat import (
    HeatIncrement,
    heat_functional,
    heat_gradient,
    robin_flux,
)
from thermovisc.materials import MaterialModel, viscous_form
from thermovisc.mech import SolverConfig
from thermovisc.presets import shear_pulse
from thermovisc.scheme import run

from helpers import (
    apply_dirichlet_identity,
    random_feasible_gradient,
    reference_gram,
    unique_csc_pattern,
)


def small_grid(n=3, d=2, dirichlet=("x0",)):
    return StructuredGrid((n,) * d, (1.0,) * d, dirichlet_faces=dirichlet)


def random_field(grid, rng, ncomp, scale=1.0):
    shape = (grid.n_sdofs,) if ncomp == 1 else (grid.n_sdofs, ncomp)
    return NodalField(grid, scale * rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# kinematics exactness


def test_affine_map_reproduced_exactly():
    g = small_grid(4)
    A = np.array([[1.3, 0.2], [-0.1, 0.9]])
    b = np.array([0.05, -0.3])
    y = g.interpolate(lambda X: X @ A.T + b, ncomp=2,
                      dfn=lambda X, m: np.tile(A[:, m.index(1)], (X.shape[0], 1))
                      if sum(m) == 1 else np.zeros((X.shape[0], 2)))
    kin = g.eval_kinematics(y)
    assert np.allclose(kin.F, A, atol=1e-13)
    assert np.allclose(kin.G, 0.0, atol=1e-12)
    assert np.allclose(kin.detF, np.linalg.det(A), atol=1e-13)


def test_quadratic_map_second_gradient_exact():
    g = small_grid(3)

    def fn(X):
        x, y = X[:, 0], X[:, 1]
        u = 0.5 * x**2 + 0.25 * x * y - 0.125 * y**2
        v = x * y
        return np.stack([u, v], axis=1)

    def dfn(X, m):
        x, y = X[:, 0], X[:, 1]
        if m == (1, 0):
            return np.stack([x + 0.25 * y, y], axis=1)
        if m == (0, 1):
            return np.stack([0.25 * x - 0.25 * y, x], axis=1)
        if m == (1, 1):
            return np.stack([0.25 * np.ones_like(x), np.ones_like(x)], axis=1)
        raise KeyError(m)

    yf = g.interpolate(fn, ncomp=2, dfn=dfn)
    kin = g.eval_kinematics(yf)
    # G[comp 0] = [[1, .25], [.25, -.25]]; G[comp 1] = [[0, 1], [1, 0]]
    G0 = np.array([[1.0, 0.25], [0.25, -0.25]])
    G1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(kin.G[:, :, 0], G0, atol=1e-12)
    assert np.allclose(kin.G[:, :, 1], G1, atol=1e-12)


def test_cubic_scalar_reproduced_exactly():
    g = small_grid(2)

    def fn(X):
        x, y = X[:, 0], X[:, 1]
        return x**3 * y**3 - 2 * x**2 * y + x

    def dfn(X, m):
        x, y = X[:, 0], X[:, 1]
        return {(1, 0): 3 * x**2 * y**3 - 4 * x * y + 1,
                (0, 1): 3 * x**3 * y**2 - 2 * x**2,
                (1, 1): 9 * x**2 * y**2 - 4 * x}[m]

    f = g.interpolate(fn, dfn=dfn)
    vals, grads = g.eval_scalar(f)
    X = g.qcoords.reshape(-1, 2)
    assert np.allclose(vals.ravel(), fn(X), atol=1e-12)
    assert np.allclose(grads.reshape(-1, 2)[:, 0], dfn(X, (1, 0)), atol=1e-11)


def test_manufactured_gradient_convergence_order():
    # smooth non-polynomial map: F-error should fall at the cubic-basis rate
    def fn(X):
        x, y = X[:, 0], X[:, 1]
        return np.stack([x + 0.05 * np.sin(np.pi * x) * np.sin(np.pi * y),
                         y + 0.05 * np.cos(np.pi * x * y)], axis=1)

    def grad_exact(X):
        x, y = X[:, 0], X[:, 1]
        pi = np.pi
        F = np.zeros(X.shape[:1] + (2, 2))
        F[:, 0, 0] = 1 + 0.05 * pi * np.cos(pi * x) * np.sin(pi * y)
        F[:, 0, 1] = 0.05 * pi * np.sin(pi * x) * np.cos(pi * y)
        F[:, 1, 0] = -0.05 * pi * y * np.sin(pi * x * y)
        F[:, 1, 1] = 1 - 0.05 * pi * x * np.sin(pi * x * y)
        return F

    def dfn(X, m):
        h = 1e-6
        Xp, Xm = X.copy(), X.copy()
        k = m.index(1)
        if sum(m) == 1:
            Xp[:, k] += h
            Xm[:, k] -= h
            return (fn(Xp) - fn(Xm)) / (2 * h)
        out = 0.0
        for s1 in (1, -1):
            for s2 in (1, -1):
                Xs = X.copy()
                Xs[:, 0] += s1 * h
                Xs[:, 1] += s2 * h
                out = out + s1 * s2 * fn(Xs)
        return out / (4 * h * h)

    errs, hs = [], []
    for n in (4, 8, 16):
        g = StructuredGrid((n, n), (1.0, 1.0))
        y = g.interpolate(fn, ncomp=2, dfn=dfn)
        kin = g.eval_kinematics(y)
        Fex = grad_exact(g.qcoords.reshape(-1, 2)).reshape(kin.F.shape)
        errs.append(np.max(np.abs(kin.F - Fex)))
        hs.append(1.0 / n)
    slopes = np.diff(np.log(errs)) / np.diff(np.log(hs))
    assert np.all(slopes > 2.5)  # cubic basis: gradient converges ~O(h^3)


# ---------------------------------------------------------------------------
# quadrature / assembly


def test_partition_of_unity_volume():
    g = StructuredGrid((5, 3), (2.0, 1.5))
    one = np.ones((g.n_cells, g.nq))
    assert g.assemble_scalar(one) == pytest.approx(3.0, rel=1e-14)


def face_measure(p):
    """Area (length in 2D) of a face from its quadrature weights."""
    return p.sdofs.shape[0] * float(np.sum(p.weights))


def boundary_measure(g):
    return sum(face_measure(p) for p in g.faces.values())


def test_boundary_measure():
    g = StructuredGrid((5, 3), (2.0, 1.5))
    assert boundary_measure(g) == pytest.approx(7.0, rel=1e-14)


def test_quadrature_exact_through_degree_seven():
    # 4-point Gauss per axis integrates x^7 * y^7 exactly on each cell
    g = StructuredGrid((3, 2), (1.0, 1.0))
    X = g.qcoords
    dens = X[..., 0] ** 7 * X[..., 1] ** 7
    assert g.assemble_scalar(dens) == pytest.approx(1.0 / 64.0, rel=1e-14)
    dens9 = X[..., 0] ** 9
    assert g.assemble_scalar(dens9) != pytest.approx(0.1, rel=1e-15, abs=0)


def test_zero_fields_zero_residual():
    g = small_grid(3)
    r = g.assemble_gradient(2, stress=np.zeros((g.n_cells, g.nq, 2, 2)),
                            hyperstress=np.zeros((g.n_cells, g.nq, 2, 2, 2)))
    assert np.all(r == 0.0)


def test_adjoint_consistency_elastic_hyper_energy():
    # the assembled gradient must be the exact derivative of the assembled
    # energy: checked against central differences in 50 random directions
    g = small_grid(3)
    model = MaterialModel()
    rng = np.random.default_rng(42)
    y = g.identity_field()
    y.values += 0.02 * rng.standard_normal(y.values.shape)

    def energy(vals):
        kin = g.eval_kinematics(NodalField(g, vals))
        dens = model.elastic_energy(kin.F) + model.hyperstress_energy(kin.G)
        return g.assemble_scalar(dens)

    kin = g.eval_kinematics(y)
    grad = g.assemble_gradient(2, stress=model.elastic_stress(kin.F),
                               hyperstress=model.hyperstress(kin.G))
    h = 1e-6
    for _ in range(50):
        dv = rng.standard_normal(y.values.shape)
        dv /= np.linalg.norm(dv)
        fd = (energy(y.values + h * dv) - energy(y.values - h * dv)) / (2 * h)
        an = np.sum(grad * dv)
        assert abs(an - fd) < 1e-5 * max(1.0, abs(fd))


def test_hessian_matches_gradient_fd():
    g = small_grid(2)
    model = MaterialModel()
    rng = np.random.default_rng(43)
    y = g.identity_field()
    y.values += 0.02 * rng.standard_normal(y.values.shape)

    def gradient(vals):
        kin = g.eval_kinematics(NodalField(g, vals))
        return g.assemble_gradient(2, stress=model.elastic_stress(kin.F),
                                   hyperstress=model.hyperstress(kin.G))

    kin = g.eval_kinematics(y)
    scal, r1 = model.hyperstress_hessian_parts(kin.G)
    H = g.assemble_hessian(2, c4=model.elastic_hessian(kin.F),
                           hyper_scal=scal, hyper_rank1=r1)
    h = 1e-6
    for _ in range(10):
        dv = rng.standard_normal(y.values.shape)
        dv /= np.linalg.norm(dv)
        fd = (gradient(y.values + h * dv) - gradient(y.values - h * dv)) / (2 * h)
        an = (H @ dv.reshape(-1)).reshape(dv.shape)
        assert np.max(np.abs(an - fd)) < 1e-5 * max(1.0, np.max(np.abs(fd)))


def test_mass_hessian_integrates_squares():
    g = StructuredGrid((3, 3), (1.0, 1.0))
    c0 = np.ones((g.n_cells, g.nq))
    M = g.assemble_hessian(1, c0=c0)
    f = g.interpolate(lambda X: X[:, 0],
                      dfn=lambda X, m: np.ones(len(X)) if m == (1, 0) else np.zeros(len(X)))
    # int_0^1 x^2 = 1/3
    assert f.values @ (M @ f.values) == pytest.approx(1.0 / 3.0, rel=1e-13)


# ---------------------------------------------------------------------------
# GEMM kernels against the einsum formulas they replaced


def reference_blocks(g, ncomp, c4=None, c0=None, hyper_scal=None, hyper_rank1=None):
    """Element blocks (c, a*ncomp+i, b*ncomp+j) by one einsum per term."""
    w, eye = g.qweights, np.eye(ncomp)
    loc = np.zeros((g.n_cells, g.nloc, ncomp, g.nloc, ncomp))
    if c4 is not None:
        if c4.ndim == 4:
            c4 = c4[:, :, None, :, None, :]
        loc += np.einsum("aqA,cqiAjB,bqB,q->caibj", g.B1, c4, g.B1, w, optimize=True)
    if c0 is not None:
        if c0.ndim == 2:
            loc += np.einsum("aq,cq,bq,q,ij->caibj", g.B0, c0, g.B0, w, eye, optimize=True)
        else:
            loc += np.einsum("aq,cqij,bq,q->caibj", g.B0, c0, g.B0, w, optimize=True)
    if hyper_scal is not None:
        loc += np.einsum("aqxy,cq,bqxy,q,ij->caibj", g.B2, hyper_scal, g.B2, w, eye,
                         optimize=True)
    if hyper_rank1 is not None:
        T = np.einsum("aqbg,cqibg->cqai", g.B2, hyper_rank1)
        loc += np.einsum("cqai,cqbj,q->caibj", T, T, w)
    nl = g.nloc * ncomp
    return loc.reshape(g.n_cells, nl, nl)


def reference_hessian(g, ncomp, **coeffs):
    """Dense matrix of the reference blocks scattered through a COO matrix."""
    nl = g.nloc * ncomp
    gdofs = (g.cells_sdofs[:, :, None] * ncomp + np.arange(ncomp)).reshape(g.n_cells, nl)
    rows = np.repeat(gdofs, nl, axis=1).ravel()
    cols = np.tile(gdofs, (1, nl)).ravel()
    n = g.n_sdofs * ncomp
    blocks = reference_blocks(g, ncomp, **coeffs)
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).toarray()


def reference_gradient(g, ncomp, stress=None, hyperstress=None, source=None):
    w = g.qweights
    v = "i" if ncomp > 1 else ""
    loc = 0.0
    if stress is not None:
        loc = loc + np.einsum(f"cq{v}b,aqb,q->ca{v}", stress, g.B1, w)
    if hyperstress is not None:
        loc = loc + np.einsum(f"cq{v}bg,aqbg,q->ca{v}", hyperstress, g.B2, w)
    if source is not None:
        loc = loc + np.einsum(f"cq{v},aq,q->ca{v}", source, g.B0, w)
    out = np.zeros((g.n_sdofs,) + ((ncomp,) if ncomp > 1 else ()))
    np.add.at(out, g.cells_sdofs, loc)
    return out


def kernel_grid(d):
    return StructuredGrid((3, 2) if d == 2 else (2, 2, 2), (1.0, 0.7, 1.3)[:d],
                          dirichlet_faces=("x0", "y1"))


def assert_close(new, ref):
    assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))


def hessian_coefficients(g, ncomp, rng):
    c, q, d = g.n_cells, g.nq, g.d
    return {"c4": rng.standard_normal((c, q, ncomp, d, ncomp, d)),
            "c0": rng.standard_normal((c, q)),
            "c0_tensor": rng.standard_normal((c, q, ncomp, ncomp)),
            "hyper_scal": rng.standard_normal((c, q)),
            "hyper_rank1": rng.standard_normal((c, q, ncomp, d, d))}


HESSIAN_TERMS = ["c4", "c0", "c0_tensor", "hyper_scal", "hyper_rank1"]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("term", HESSIAN_TERMS)
def test_hessian_kernels_match_einsum_reference(d, vector, term):
    g = kernel_grid(d)
    ncomp = d if vector else 1
    rng = np.random.default_rng([d, ncomp, HESSIAN_TERMS.index(term)])
    coeff = hessian_coefficients(g, ncomp, rng)[term]
    name = "c0" if term == "c0_tensor" else term
    H = g.assemble_hessian(ncomp, **{name: coeff})
    assert H.format == "csc" and H.has_canonical_format
    assert_close(H.toarray(), reference_hessian(g, ncomp, **{name: coeff}))
    if term == "c4" and ncomp == 1:   # the (ncells, nq, d, d) scalar form
        c4 = coeff.reshape(g.n_cells, g.nq, d, d)
        assert_close(g.assemble_hessian(1, c4=c4).toarray(), reference_hessian(g, 1, c4=c4))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("ncomp", [1, 2, 3])
def test_free_dof_hessian_is_the_free_block_of_the_full_one(d, ncomp):
    g = kernel_grid(d)
    rng = np.random.default_rng(10 * d + ncomp)
    co = hessian_coefficients(g, ncomp, rng)
    terms = dict(c4=co["c4"], c0=co["c0"], hyper_scal=co["hyper_scal"],
                 hyper_rank1=co["hyper_rank1"])
    full = g.assemble_hessian(ncomp, **terms)
    assert_close(full.toarray(), reference_hessian(g, ncomp, **terms))
    free = np.repeat(g.free_sdofs, ncomp)
    Hf = g.assemble_hessian(ncomp, **terms, free=free)
    assert Hf.format == "csc" and Hf.has_canonical_format
    assert np.array_equal(Hf.toarray(), full[free][:, free].toarray())
    again = g.assemble_hessian(ncomp, **terms, free=free.copy())   # cached pattern
    assert np.array_equal(again.toarray(), Hf.toarray())


def face_gradient_add_at(g, faces, coeff):
    """The face scatter as one np.add.at per face, the order of summation
    that one bincount over the faces in order keeps."""
    out = np.zeros((g.n_sdofs, g.d))
    for name in faces:
        p = g.faces[name]
        np.add.at(out, p.sdofs, np.einsum("cqi,aq,q->cai", coeff[name], p.B0, p.weights))
    return out


@pytest.mark.parametrize("extents, dirichlet", [
    ((16, 16), ("y0",)), ((5, 3), ("x0",)), ((4, 4, 4), ("z0",)), ((3, 2, 4), ("x0", "y1")),
], ids=["16x16", "5x3", "4x4x4", "3x2x4"])
def test_face_gradient_is_bit_equal_to_a_per_face_scatter(extents, dirichlet):
    g = StructuredGrid(extents, (1.0,) * len(extents), dirichlet_faces=dirichlet)
    rng = np.random.default_rng(len(extents) * 100 + sum(extents))
    for faces in (list(g.faces), list(g.neumann_faces)):
        coeff = {n: rng.standard_normal(g.faces[n].qcoords.shape) for n in faces}
        got = g.assemble_face_gradient(faces, coeff)
        assert np.array_equal(got, face_gradient_add_at(g, faces, coeff))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("vector", [False, True])
def test_gradient_and_evaluation_kernels_match_einsum_reference(d, vector):
    g = kernel_grid(d)
    ncomp = d if vector else 1
    rng = np.random.default_rng(20 * d + ncomp)
    c, q = g.n_cells, g.nq
    v = (ncomp,) if vector else ()
    stress = rng.standard_normal((c, q) + v + (d,))
    hyper = rng.standard_normal((c, q) + v + (d, d))
    source = rng.standard_normal((c, q) + v)
    for terms in ({"stress": stress}, {"hyperstress": hyper}, {"source": source},
                  {"stress": stress, "hyperstress": hyper, "source": source}):
        assert_close(g.assemble_gradient(ncomp, **terms), reference_gradient(g, ncomp, **terms))

    field = random_field(g, rng, ncomp)
    loc = g.local_values(field.values)
    if vector:
        kin = g.eval_kinematics(field)
        assert_close(kin.F, np.einsum("aqb,cai->cqib", g.B1, loc))
        assert_close(kin.G, np.einsum("aqbg,cai->cqibg", g.B2, loc))
        assert_close(kin.detF, np.linalg.det(kin.F))
        assert_close(g.eval_values(field), np.einsum("aq,cai->cqi", g.B0, loc))
    else:
        vals, grads = g.eval_scalar(field)
        assert_close(vals, np.einsum("aq,ca->cq", g.B0, loc))
        assert_close(grads, np.einsum("aqb,ca->cqb", g.B1, loc))
        for name, p in g.faces.items():
            assert_close(g.eval_face_scalar(name, field),
                         np.einsum("aq,ca->cq", p.B0, field.values[p.sdofs]))


@pytest.mark.parametrize("extents, dirichlet", [
    ((16, 16), ("y0",)), ((5, 3), ("x0", "y1")), ((4, 4, 4), ("x0",)), ((3, 2, 4), ("x0",)),
], ids=["16x16", "5x3", "4x4x4", "3x2x4"])
def test_stencil_pattern_equals_the_sorted_one(extents, dirichlet):
    # the pattern built from the node stencil is the one np.unique sorts out
    # of the element entries: same slots, row indices and column pointers
    g = StructuredGrid(extents, (1.0,) * len(extents), dirichlet_faces=dirichlet)
    for ncomp in (1, g.d):
        for free in (None, np.repeat(g.free_sdofs, ncomp)):
            got, ref = g._csc_pattern(ncomp, free), unique_csc_pattern(g, ncomp, free)
            for a, b in zip(got, ref, strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b), (ncomp, free is None)


def test_no_pattern_is_built_with_the_grid():
    # nor by a dual norm, which applies the Kronecker inverse of the Gram
    g = kernel_grid(2)
    assert g._pattern_cache == {} and g._operator_cache == {}
    g.dual_norm(np.ones((g.n_sdofs, 2)))
    g.dual_norm(np.ones(g.n_sdofs), free_only=False)
    assert g._pattern_cache == {}


# ---------------------------------------------------------------------------
# the scalar H^1 Gram: Kronecker inverse against the assembled form


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("free_only", [True, False])
def test_dual_norm_matches_the_vector_gram(d, vector, free_only):
    g = kernel_grid(d)
    ncomp = d if vector else 1
    rng = np.random.default_rng([d, ncomp, int(free_only)])
    r = random_field(g, rng, ncomp).values
    rf = r.reshape(-1)[np.repeat(g.free_sdofs, ncomp)] if free_only else r.reshape(-1)
    ref = np.sqrt(rf @ splu(reference_gram(g, ncomp, free_only)).solve(rf))
    assert abs(g.dual_norm(r, free_only=free_only) - ref) <= 1e-13 * ref
    assert g.dual_norm(np.zeros_like(r), free_only=free_only) == 0.0


def reference_korn(g, F_qp, tol=1e-12, max_iter=500):
    """korn_constant's inverse iteration with B the assembled vector Gram."""
    free = np.repeat(g.free_sdofs, g.d)
    A = g.assemble_hessian(g.d, c4=viscous_form(F_qp), free=free)
    B = reference_gram(g, g.d, free_only=True).tocsr()
    lu = splu(A, **SPD_LU)
    x = np.ones(A.shape[0])
    x /= np.sqrt(x @ (B @ x))
    rho_prev = np.inf
    for _ in range(max_iter):
        x = lu.solve(B @ x)
        x /= np.sqrt(x @ (B @ x))
        rho = float(x @ (A @ x))
        if abs(rho - rho_prev) <= tol * rho:
            return rho
        rho_prev = rho
    return rho_prev


@pytest.mark.parametrize("d", [2, 3])
def test_korn_constant_matches_the_vector_gram(d):
    g = kernel_grid(d)
    rng = np.random.default_rng(50 + d)
    F = np.stack([random_feasible_gradient(rng, d) for _ in range(g.n_cells)])
    F_qp = np.ascontiguousarray(np.broadcast_to(F[:, None], (g.n_cells, g.nq, d, d)))
    ref = reference_korn(g, F_qp)
    assert ref > 0.0
    assert abs(korn_constant(g, F_qp) - ref) <= 1e-12 * ref


def test_a_step_factorizes_one_scalar_gram_per_dof_mask(monkeypatch):
    # mech (vector, free dofs), heat (scalar, all dofs) and the Korn form
    # (vector, free dofs) share two eigen-set-ups, one per dof mask: one 1D
    # pencil per axis, the x0 clamp removing one value dof on axis 0
    sc = shear_pulse(grid=small_grid(4), T=0.05, amplitude=0.1, t_pulse=0.08)
    g = sc.grid
    sizes = []

    def counted(S, M):
        sizes.append(S.shape)
        return pencil_eigh(S, M)

    pencil_eigh = grid_module._pencil_eigh
    monkeypatch.setattr(grid_module, "_pencil_eigh", counted)
    traj = run(sc, tau=0.05, eps=0.01, config=SolverConfig(korn_every=1, hk_every=0))
    assert np.isfinite(traj.step_diags[0].korn_const)
    assert sorted(sizes) == [(9, 9), (10, 10), (10, 10), (10, 10)]
    korn_constant(g, traj.snapshots[-1].F)
    g.dual_norm(np.ones(g.n_sdofs), free_only=True)
    g.dual_norm(np.ones(g.n_sdofs), free_only=False)
    assert len(sizes) == 4


@pytest.mark.parametrize("shape", [(16, 16), (3, 5), (2, 2, 2), (4, 3, 2)])
@pytest.mark.parametrize("free_only", [True, False])
def test_kronecker_solve_matches_the_assembled_gram(shape, free_only):
    # unequal lengths, one clamped face, two on different axes and x0 x1,
    # one and d right-hand sides.  The Gram has condition numbers up to
    # 1e10 here, so the LU solve takes one step of iterative refinement:
    # its forward error alone reaches 1e-12
    rng = np.random.default_rng([len(shape), int(free_only)])
    for faces in (("x0",), ("x0", "y1"), ("x0", "x1")):
        g = StructuredGrid(shape, (1.0, 0.7, 1.3)[:len(shape)], dirichlet_faces=faces)
        G = reference_gram(g, 1, free_only)
        r = rng.standard_normal((G.shape[0], g.d))
        lu = splu(G)
        ref = lu.solve(r)
        ref += lu.solve(r - G @ ref)
        for got, want in ((g.h1_gram_solve(r, free_only), ref),
                          (g.h1_gram_solve(r[:, 0], free_only), ref[:, 0])):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), faces
        assert (g.h1_gram() != reference_gram(g, 1, free_only=True)).nnz == 0


def test_a_free_set_that_is_not_a_product_is_refused():
    g = small_grid(3)
    g.free_sdofs = g.free_sdofs.copy()
    g.free_sdofs[g.n_sdofs - 1] = False
    with pytest.raises(ValueError, match="product"):
        g.dual_norm(np.ones(g.n_sdofs))


# ---------------------------------------------------------------------------
# determinant lattice


@pytest.mark.parametrize("n", [5, 8])
def test_bernstein_inverse_maps_values_to_coefficients(n):
    t = np.arange(n + 1) / n
    V = np.array([[comb(n, j) * t[i] ** j * (1 - t[i]) ** (n - j) for j in range(n + 1)]
                  for i in range(n + 1)])
    assert np.max(np.abs(bernstein_inverse(n) @ V - np.eye(n + 1))) <= 1e-13


def permanent_slope_by_generator(A, M):
    """sum_ij A_ij perm(minor_ij(M)) as one generator over the permutations,
    the minors' products by np.prod."""
    d = A.shape[-1]
    return sum(A[..., i, s[i]] * np.prod([M[..., k, s[k]] for k in range(d) if k != i], axis=0)
               for s in itertools.permutations(range(d)) for i in range(d))


@pytest.mark.parametrize("d", [2, 3])
def test_permanent_slope_is_bit_equal_to_the_generator_form(d):
    # nonnegative stacks, as det_lower_bounds passes them
    rng = np.random.default_rng(40 + d)
    A, M = rng.uniform(0.0, 2.0, (2, 50, 7, d, d))
    got = grid_module._permanent_slope(A, M)
    assert got.shape == (50, 7)
    assert np.array_equal(got, permanent_slope_by_generator(A, M))
    # d perm(M) along M itself: for d = 2, 2 (m00 m11 + m01 m10)
    if d == 2:
        perm = M[..., 0, 0] * M[..., 1, 1] + M[..., 0, 1] * M[..., 1, 0]
        assert np.allclose(grid_module._permanent_slope(M, M), 2.0 * perm, rtol=1e-15)


HERMITE = {(0, 0): (1, 0, -3, 2), (0, 1): (0, 1, -2, 1), (1, 0): (0, 0, 3, -2),
           (1, 1): (0, 0, -1, 1)}   # (side, m): power coefficients on [0, 1]


@pytest.mark.parametrize("extents, lengths, sample",
                         [((5, 7), (1.3, 0.7), None), ((2, 3, 2), (1.0, 0.3, 2.1), 3000)],
                         ids=["2d", "3d"])
def test_det_lattice_tables_within_kappa(extents, lengths, sample):
    # the rounding margin of det_lower_bounds rests on every lattice table
    # entry lying within LATTICE_KAPPA[d] u of its exact value at the exact
    # point i/n: checked in rationals, on all entries in 2D and on a seeded
    # sample in 3D (all of them take about 6 s)
    g = StructuredGrid(extents, lengths, dirichlet_faces=("x0",))
    d, n = g.d, 3 * g.d - 1
    T = g._det_lattice[0]
    hs = [Fraction(h) for h in g.h]

    def factor(side, m, k, i, order):
        c = HERMITE[side, m]
        if order:
            c = [j * c[j] for j in range(1, 4)]
        return sum(cj * Fraction(i, n) ** j for j, cj in enumerate(c)) * hs[k] ** (m - order)

    pts = list(itertools.product(range(n + 1), repeat=d))
    basis = [(o, m) for o in g._local_o for m in g._local_m]
    entries = list(itertools.product(range(len(basis)), range(len(pts)), range(d)))
    if sample:
        rng = np.random.default_rng(11)
        entries = [entries[e] for e in rng.choice(len(entries), sample, replace=False)]
    u = Fraction(np.finfo(float).eps) / 2
    for a, p, j in entries:
        (o, m), idx = basis[a], pts[p]
        exact = np.prod([factor(o[k], m[k], k, idx[k], int(k == j)) for k in range(d)])
        assert abs(Fraction(T[p * d + j, a]) - exact) <= LATTICE_KAPPA[d] * u * abs(exact)


# ---------------------------------------------------------------------------
# Dirichlet handling


def test_dirichlet_mask_and_identity_trace():
    g = small_grid(3, dirichlet=("x0", "y1"))
    y = NodalField(g, np.zeros((g.n_sdofs, 2)))
    rng = np.random.default_rng(44)
    y.values += rng.standard_normal(y.values.shape)
    apply_dirichlet_identity(g, y)
    # edge trace: evaluate the deformation on the Dirichlet faces
    for name in ("x0", "y1"):
        p = g.faces[name]
        loc = y.values[p.sdofs]
        vals = np.einsum("aq,cai->cqi", p.B0, loc)
        assert np.allclose(vals, p.qcoords, atol=1e-13)


def test_zero_dirichlet_rows():
    g = small_grid(3)
    r = np.ones((g.n_sdofs, 2))
    zero_dirichlet_rows(g, r)
    assert np.all(r[g.dirichlet_sdofs] == 0.0)
    assert np.all(r[g.free_sdofs] == 1.0)


def test_normal_derivative_dofs_stay_free():
    g = small_grid(3, dirichlet=("x0",))
    nd = g.ndof_node
    fixed = g.dirichlet_sdofs.reshape(g.n_nodes, nd)
    on_face = np.isclose(g.node_coords[:, 0], 0.0)
    # m = (1,0) (normal slope) and m = (1,1) (mixed) remain free
    assert not fixed[on_face][:, 1].any()
    assert not fixed[on_face][:, 3].any()
    # value m=(0,0) and tangential slope m=(0,1) are constrained
    assert fixed[on_face][:, 0].all()
    assert fixed[on_face][:, 2].all()
    assert not fixed[~on_face].any()


# ---------------------------------------------------------------------------
# index map: cells, faces and clamped dofs checked by their rules


INDEX_GRIDS = {"3d": ((3, 5, 4), (0.3, 1.1, 2.0), ("y0", "z0")),
               "2d": ((5, 7), (1.3, 0.7), ("x0",))}


@pytest.fixture(scope="module", params=list(INDEX_GRIDS))
def index_grid(request):
    extents, lengths, fixed = INDEX_GRIDS[request.param]
    return StructuredGrid(extents, lengths, dirichlet_faces=fixed)


def face_trace_dofs(g, name):
    """Value and tangential dofs of the nodes on a face, as a set."""
    axis, side = {"x": 0, "y": 1, "z": 2}[name[0]], int(name[1])
    on_face = np.flatnonzero(g.node_coords[:, axis] == side * g.lengths[axis])
    return {int(n) * g.ndof_node + code for n in on_face for code in range(g.ndof_node)
            if not (code >> axis) & 1}


def test_cell_dofs_are_the_dofs_of_the_cell_corners(index_grid):
    g = index_grid
    d, nd, h = g.d, g.ndof_node, np.array(g.h)
    node, m_code = np.divmod(g.cells_sdofs, nd)
    origin = g.node_coords[node[:, 0]]
    # the cells tile the box: distinct origins, quadrature points inside
    assert len({tuple(x) for x in np.round(origin / h).astype(int)}) == g.n_cells
    assert np.all(g.qcoords > origin[:, None] - 1e-15)
    assert np.all(g.qcoords < origin[:, None] + h + 1e-15)
    for a in range(g.nloc):
        o_code, m = divmod(a, nd)
        o = np.array([(o_code >> k) & 1 for k in range(d)])
        assert np.all(m_code[:, a] == m)
        assert np.allclose(g.node_coords[node[:, a]], origin + o * h, rtol=0, atol=1e-14)


def test_face_points_lie_on_the_face(index_grid):
    g = index_grid
    h = np.array(g.h)
    for name, p in g.faces.items():
        x = p.qcoords
        assert np.all(x[..., p.axis] == p.side * g.lengths[p.axis])
        assert np.all((x > 0) | (np.arange(g.d) == p.axis))
        assert np.all((x < g.lengths) | (np.arange(g.d) == p.axis))
        assert x.shape[0] == g.n_cells // g.extents[p.axis]
        assert np.isclose(face_measure(p), np.prod(g.lengths) / g.lengths[p.axis], rtol=1e-14)
        # each face cell's points lie within one cell width of its trace nodes
        nodes = g.node_coords[p.sdofs // g.ndof_node]
        assert np.all(np.abs(x[:, :, None] - nodes[:, None]) <= h + 1e-14)


def test_face_dofs_are_the_trace_dofs_of_its_nodes(index_grid):
    g = index_grid
    for name, p in g.faces.items():
        assert set(p.sdofs.ravel().tolist()) == face_trace_dofs(g, name), name
        assert p.sdofs.shape[1] == 4 ** (g.d - 1)
        assert all(len(set(row)) == p.sdofs.shape[1] for row in p.sdofs.tolist())


def test_face_trace_of_an_interpolated_polynomial(index_grid):
    g = index_grid
    rng = np.random.default_rng(14)
    # two tensor products of cubics: degree 3 per axis, interpolated exactly
    coef = rng.standard_normal((2, g.d, 4))
    P = np.polynomial.polynomial

    def partial(X, m):
        return sum(np.prod([P.polyval(X[:, k], P.polyder(c[k], m[k])) for k in range(g.d)],
                           axis=0) for c in coef)

    f = g.interpolate(lambda X: partial(X, (0,) * g.d), partial)
    for name, p in g.faces.items():
        exact = partial(p.qcoords.reshape(-1, g.d), (0,) * g.d).reshape(p.qcoords.shape[:2])
        assert np.allclose(g.eval_face_scalar(name, f), exact, rtol=0, atol=1e-12), name


def test_clamped_dofs_are_the_trace_dofs_of_the_fixed_faces(index_grid):
    g = index_grid
    expect = set().union(*(face_trace_dofs(g, name) for name in g.dirichlet_faces))
    assert set(np.flatnonzero(g.dirichlet_sdofs).tolist()) == expect
    assert np.array_equal(g.free_sdofs, ~g.dirichlet_sdofs)


# ---------------------------------------------------------------------------
# Robin boundary term


def trace_robin(g, theta, theta_b, kappa):
    """Reference Robin energy int (kappa/2)(theta - theta_b)^2 dS and its
    gradient, traced face by face at the boundary quadrature points."""
    energy, grad = 0.0, np.zeros(g.n_sdofs)
    for name, p in g.faces.items():
        diff = g.eval_face_scalar(name, theta) - theta_b
        energy += 0.5 * kappa * float(np.einsum("cq,q->", diff**2, p.weights))
        np.add.at(grad, p.sdofs, kappa * np.einsum("cq,aq,q->ca", diff, p.B0, p.weights))
    return energy, grad


def trace_flux(g, theta, theta_b, kappa):
    """Reference boundary outflow int kappa (theta - theta_b) dS."""
    return sum(kappa * float(np.einsum("cq,q->", g.eval_face_scalar(name, theta)
                                       - theta_b, p.weights))
               for name, p in g.faces.items())


def heat_model(d, kappa=1.0):
    # stress-free identity in 3D needs c2 * q = 12
    return MaterialModel(d=d, kappa=kappa) if d == 2 else MaterialModel(
        d=3, q=13.0, c2=12.0 / 13.0, kappa=kappa)


def heat_increment(g, theta_b, kappa=1.0, y_new=None, theta_prev=None):
    """A thermal increment on g with boundary temperature theta_b."""
    model = heat_model(g.d, kappa)
    y_prev = g.identity_field()
    F_prev = g.eval_kinematics(y_prev).F
    th_prev = theta_prev or g.constant_field(1.0)
    th_qp, _ = g.eval_scalar(th_prev)
    w_prev = model.enthalpy(F_prev, np.maximum(th_qp, 0.0))
    return HeatIncrement(grid=g, model=model, theta_prev=th_prev, w_prev_qp=w_prev,
                         tau=0.05, eps=0.01, theta_b=theta_b, F_prev=F_prev,
                         F_new=g.eval_kinematics(y_new or y_prev).F)


def robin_form(inc, theta):
    """Robin energy and gradient of an increment, from the boundary mass
    M_Gamma in the deviation u = theta - theta_b: (kappa/2) u.M u and kappa M u."""
    kappa = inc.model.kappa
    u = theta.values - inc.grid.constant_field(inc.theta_b).values
    M_u = inc.grid.assemble_face_hessian() @ u
    return 0.5 * kappa * float(u @ M_u), kappa * M_u


def test_robin_matching_temperature_is_zero():
    g = small_grid(4)
    th = g.constant_field(1.3)
    inc = heat_increment(g, 1.3)
    e, r = robin_form(inc, th)
    assert e == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(r, 0.0, atol=1e-15)
    assert robin_flux(inc, th) == pytest.approx(0.0, abs=1e-15)


def test_robin_flux_keeps_relative_precision_near_equilibrium():
    # an outflow 1e-9 of kappa theta_b |Gamma|: theta and theta_b are dyadic,
    # so the exact value is kappa 2^-30 |Gamma|; a face trace of theta carries
    # roundoff of theta_b's size and is 4e-8 off here
    g = StructuredGrid((4, 4), (2.0, 1.0))
    inc = heat_increment(g, 1.25, kappa=0.5)
    flux = robin_flux(inc, g.constant_field(1.25 + 2.0**-30))
    assert flux == pytest.approx(0.5 * 2.0**-30 * boundary_measure(g), rel=1e-14)


def test_robin_uniform_offset_energy():
    g = StructuredGrid((4, 4), (2.0, 1.0))
    th = g.constant_field(2.0)
    e, _ = robin_form(heat_increment(g, 1.0), th)
    assert e == pytest.approx(0.5 * boundary_measure(g), rel=1e-13)


def test_robin_gradient_matches_fd():
    g = small_grid(3)
    rng = np.random.default_rng(45)
    th = NodalField(g, rng.standard_normal(g.n_sdofs))
    inc = heat_increment(g, 0.4, kappa=0.7)

    def energy(vals):
        return robin_form(inc, NodalField(g, vals))[0]

    _, grad = robin_form(inc, th)
    h = 1e-6
    for _ in range(20):
        dv = rng.standard_normal(g.n_sdofs)
        dv /= np.linalg.norm(dv)
        fd = (energy(th.values + h * dv) - energy(th.values - h * dv)) / (2 * h)
        assert abs(np.dot(grad, dv) - fd) < 1e-6 * max(1.0, abs(fd))


def test_face_hessian_matches_robin_gradient():
    g = small_grid(3)
    rng = np.random.default_rng(46)
    th = NodalField(g, rng.standard_normal(g.n_sdofs))
    kappa = 0.7
    H = g.assemble_face_hessian() * kappa
    _, r0 = trace_robin(g, th, 0.0, kappa)
    assert np.allclose(H @ th.values, r0, atol=1e-12)


def reference_heat_step(inc, theta):
    """Heat functional and gradient with conduction at the quadrature points
    and the Robin term traced face by face."""
    g, m = inc.grid, inc.model
    th, gth = g.eval_scalar(theta)
    mval, m1, _ = m.coupling_factor_ext(th)
    W, w, _ = m.w_total_ext(inc.phi1_new, th)
    dens = ((W - inc.w_prev_qp * th) / inc.tau
            + 0.5 * np.einsum("cqa,cqab,cqb->cq", gth, inc.K_prev, gth)
            - inc.xi_reg_qp * th - mval * inc.cpl_qp)
    source = ((w - inc.w_prev_qp) / inc.tau
              - inc.xi_reg_qp - m1 * inc.cpl_qp)
    flux = np.einsum("cqab,cqb->cqa", inc.K_prev, gth)
    e, r = trace_robin(g, theta, inc.theta_b, m.kappa)
    return (g.assemble_scalar(dens) + e,
            g.assemble_gradient(1, stress=flux, source=source) + r)


@pytest.mark.parametrize("extents,lengths", [((4, 4), (2.0, 1.0)),
                                             ((2, 2, 2), (1.0, 1.5, 0.5))])
def test_heat_fixed_form_matches_face_traces(extents, lengths):
    # unequal faces and a boundary temperature unequal to theta
    g = StructuredGrid(extents, lengths)
    rng = np.random.default_rng(48)
    y_new = g.identity_field()
    y_new.values += 0.01 * rng.standard_normal(y_new.values.shape)
    theta_b = 1.3
    th_prev = NodalField(g, g.constant_field(1.0).values + 0.05 * rng.standard_normal(g.n_sdofs))
    inc = heat_increment(g, theta_b, kappa=0.7, y_new=NodalField(g, y_new.values),
                         theta_prev=th_prev)
    theta = NodalField(g, g.constant_field(0.8).values + 0.1 * rng.standard_normal(g.n_sdofs))
    J_ref, r_ref = reference_heat_step(inc, theta)
    J = heat_functional(inc, theta)
    assert abs(J - J_ref) <= 1e-13 * abs(J_ref)
    assert np.max(np.abs(heat_gradient(inc, theta) - r_ref)) <= 1e-13 * np.max(np.abs(r_ref))
    flux_ref = trace_flux(g, theta, theta_b, 0.7)
    assert abs(robin_flux(inc, theta) - flux_ref) <= 1e-13 * abs(flux_ref)


def test_heat_increments_share_one_boundary_mass(monkeypatch):
    returned = []
    build = StructuredGrid.assemble_face_hessian

    def recorded(self):
        returned.append(build(self))
        return returned[-1]

    monkeypatch.setattr(StructuredGrid, "assemble_face_hessian", recorded)
    g = small_grid(3)
    heat_increment(g, 0.5)
    heat_increment(g, 0.9, kappa=2.0)
    assert len(returned) == 2 and returned[0] is returned[1]


# ---------------------------------------------------------------------------
# misc


def test_dual_norm_zero_and_positive():
    g = small_grid(3)
    assert g.dual_norm(np.zeros((g.n_sdofs, 2))) == 0.0
    rng = np.random.default_rng(47)
    r = rng.standard_normal((g.n_sdofs, 2))
    zero_dirichlet_rows(g, r)
    assert g.dual_norm(r) > 0.0


def test_3d_type_layer_kinematics():
    g = StructuredGrid((2, 2, 2), (1.0, 1.0, 1.0))
    A = np.eye(3) + 0.1 * np.arange(9).reshape(3, 3)
    y = g.interpolate(lambda X: X @ A.T, ncomp=3,
                      dfn=lambda X, m: np.tile(A[:, m.index(1)], (X.shape[0], 1))
                      if sum(m) == 1 else np.zeros((X.shape[0], 3)))
    kin = g.eval_kinematics(y)
    assert np.allclose(kin.F, A, atol=1e-12)
    assert np.allclose(kin.G, 0.0, atol=1e-11)


def test_grid_validation():
    with pytest.raises(ValueError, match="at least 2"):
        StructuredGrid((1, 4), (1.0, 1.0))
    with pytest.raises(ValueError, match="nonempty"):
        StructuredGrid((3, 3), (1.0, 1.0), dirichlet_faces=())
    with pytest.raises(ValueError, match="unknown face"):
        StructuredGrid((3, 3), (1.0, 1.0), dirichlet_faces=("z0",))
