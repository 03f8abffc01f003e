"""Constitutive functions for large-strain Kelvin-Voigt thermoviscoelasticity.

Closed forms for the stored elastic energy (power-law growth plus a
determinant barrier), the thermal coupling family built on a smooth
compactly supported bump of the deformation gradient, the quadratic
frame-indifferent viscous potential, the convex hyperstress potential and
the pulled-back Fourier conductivity -- together with every first and
second derivative the incremental solvers need.

All functions are pure and accept batched inputs: a deformation gradient
argument may have shape (d, d) or (..., d, d) and results broadcast
accordingly.  All quantities are nondimensional.

Products of (..., d, d) stacks, such as F^T F at every quadrature point,
are formed entry by entry (:func:`_matmul`): a few whole-array multiplies
and adds over the stack.  numpy's batched ``@`` pays a fixed cost for each
small matrix of the stack, which for 2x2 matrices is several times the
arithmetic itself.  The tangents (..., d, d, d, d) are formed entry by
entry too (:func:`_pair_symmetric`), each entry by the products and sums,
in the order, of its outer-product (einsum) formula, so they equal that
formula bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# below this value theta*log(theta) is evaluated by its continuous extension 0
THETA_TINY = 1e-300


class NonphysicalStateError(ValueError):
    """Deformation state with det F <= 0."""


class DomainError(ValueError):
    """Argument outside the physical domain (e.g. negative temperature)."""


def det(F):
    """Determinant of (..., d, d) arrays, d = 2 or 3, in closed form."""
    F = np.asarray(F, dtype=float)
    if F.shape[-1] == 2:
        return F[..., 0, 0] * F[..., 1, 1] - F[..., 0, 1] * F[..., 1, 0]
    return (F[..., 0, 0] * (F[..., 1, 1] * F[..., 2, 2] - F[..., 1, 2] * F[..., 2, 1])
            - F[..., 0, 1] * (F[..., 1, 0] * F[..., 2, 2] - F[..., 1, 2] * F[..., 2, 0])
            + F[..., 0, 2] * (F[..., 1, 0] * F[..., 2, 1] - F[..., 1, 1] * F[..., 2, 0]))


def inv(F):
    """Inverse of (..., d, d) arrays, d = 2 or 3: adjugate over determinant."""
    F = np.asarray(F, dtype=float)
    adj = np.empty_like(F)
    if F.shape[-1] == 2:
        adj[..., 0, 0] = F[..., 1, 1]
        adj[..., 0, 1] = -F[..., 0, 1]
        adj[..., 1, 0] = -F[..., 1, 0]
        adj[..., 1, 1] = F[..., 0, 0]
    else:
        for i in range(3):
            i1, i2 = (i + 1) % 3, (i + 2) % 3
            for j in range(3):
                j1, j2 = (j + 1) % 3, (j + 2) % 3
                # adj[j, i] is the (i, j) cofactor
                adj[..., j, i] = F[..., i1, j1] * F[..., i2, j2] - F[..., i1, j2] * F[..., i2, j1]
    return adj / det(F)[..., None, None]


def _frob(F):
    return np.sqrt(_ddot(F, F))


def _check_detF(F):
    J = det(F)
    if np.any(J <= 0.0):
        raise NonphysicalStateError("det F <= 0 is nonphysical")
    return J


def _check_theta(theta):
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0.0):
        raise DomainError("temperature must be nonnegative")
    return theta


def _matmul(A, B):
    """A @ B for stacks of small matrices, shapes (..., m, n) and (..., n, p),
    as out[..., i, j] = sum_k A[..., i, k] * B[..., k, j] over whole arrays.
    Either operand may be a view (a transpose) or a plain matrix broadcast
    against the other's stack."""
    n = A.shape[-1]
    out = np.empty(np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (A.shape[-2], B.shape[-1]))
    for i in range(out.shape[-2]):
        for j in range(out.shape[-1]):
            acc = A[..., i, 0] * B[..., 0, j]
            for k in range(1, n):
                acc += A[..., i, k] * B[..., k, j]
            out[..., i, j] = acc
    return out


def _pair_symmetric(shape, d, entry):
    """The (shape..., d, d, d, d) tangent T with T[..., i, a, j, b] =
    entry(i, a, j, b), evaluated for (i, a) <= (j, b) in row-major order and
    mirrored.  Each tangent here is symmetric under (i, a) <-> (j, b) bit for
    bit: its entries are sums of products whose factors swap, and of
    entries of exactly symmetric F^T F and F F^T (:func:`_matmul`)."""
    out = np.empty(tuple(shape) + (d,) * 4)
    pairs = [(i, a) for i in range(d) for a in range(d)]
    for n, (i, a) in enumerate(pairs):
        for j, b in pairs[n:]:
            out[..., i, a, j, b] = out[..., j, b, i, a] = entry(i, a, j, b)
    return out


def _ddot(A, B):
    """A : B for stacks of small matrices, the sum of the entrywise products
    over the last two axes, accumulated entry by entry in row-major order
    like :func:`_matmul` (for 2x2 stacks the same sum, bit for bit, as
    ``np.sum(A * B, axis=(-2, -1))``)."""
    m, n = A.shape[-2:]
    acc = A[..., 0, 0] * B[..., 0, 0]
    for i in range(m):
        for j in range(n):
            if i or j:
                acc += A[..., i, j] * B[..., i, j]
    return acc


def _sumsq3(G):
    """|G|^2 of (..., d, d, d) stacks, summed entry by entry in row-major
    order (:func:`_ddot`), so its bits do not depend on G's memory layout."""
    G = G.reshape(G.shape[:-2] + (-1,))
    return _ddot(G, G)


def rate_of_cauchy_green(F, Fdot):
    """C-rate Fdot^T F + F^T Fdot for given gradient and gradient rate."""
    S = _matmul(np.swapaxes(Fdot, -1, -2), F)
    return S + np.swapaxes(S, -1, -2)


def viscous_form(F):
    """2 (delta (x) F F^T + F (x) F), indexed [..., i, a, j, b]: the form of
    G -> |F^T G + G^T F|^2, i.e. the viscous rate Hessian divided by nu."""
    F = np.asarray(F, dtype=float)
    FFt = _matmul(F, np.swapaxes(F, -1, -2))

    def entry(i, a, j, b):
        t = F[..., i, b] * F[..., j, a]
        return 2.0 * (FFt[..., i, j] + t if a == b else t)

    return _pair_symmetric(F.shape[:-2], F.shape[-1], entry)


@dataclass(frozen=True)
class MaterialModel:
    """Immutable bundle of constitutive constants.

    The defaults make the identity map a stress-free equilibrium (the
    barrier coefficient balances the growth term) and satisfy the
    admissibility inequalities s > 0, p > max(d, 2), q >= p*d/(p-d) with
    the last one met with equality.
    """

    d: int = 2
    c1: float = 1.0        # growth coefficient of the elastic energy
    c2: float = 1.6        # determinant-barrier coefficient (c2*q = 8: stress-free identity)
    s: float = 4.0         # growth exponent
    q: float = 5.0         # barrier exponent, strictly above p*d/(p-d)
    p: float = 4.0         # hyperstress exponent
    h_coef: float = 1e-2   # hyperstress coefficient
    nu: float = 1.0        # scalar viscosity (D = nu * identity)
    c: float = 1.0         # heat-capacity constant
    alpha: float = 1.0     # coupling exponent of a(theta) = (1+theta)^(-alpha)
    phi1_amp: float = 1.0  # amplitude of the coupling bump
    phi1_radius: float = 2.0  # support radius of the bump in |F - I|
    k_bar: float = 1.0     # isotropic material conductivity magnitude
    kappa: float = 1.0     # boundary heat-transfer coefficient

    def __post_init__(self):
        errs = validate_constants(self)
        if errs:
            raise ValueError("; ".join(errs))

    # -- temperature factor a(theta) = (1+theta)^(-alpha) and helpers ------

    def a(self, theta):
        return (1.0 + np.asarray(theta, dtype=float)) ** (-self.alpha)

    def a_prime(self, theta):
        return -self.alpha * (1.0 + np.asarray(theta, dtype=float)) ** (-self.alpha - 1.0)

    def a_dprime(self, theta):
        al = self.alpha
        return al * (al + 1.0) * (1.0 + np.asarray(theta, dtype=float)) ** (-al - 2.0)

    def a_int(self, theta):
        """Antiderivative of a with a_int(0) = 0."""
        theta = np.asarray(theta, dtype=float)
        if self.alpha == 1.0:
            return np.log1p(theta)
        e = 1.0 - self.alpha
        return ((1.0 + theta) ** e - 1.0) / e

    # -- coupling bump phi1: C^inf, >= 0, compact support, phi1'(I) = 0.
    # Radial in the rotation-invariant strain distance |F^T F - I| so the
    # coupling energy is exactly frame indifferent.

    def _bump(self, u):
        # b(u) = exp(1 - 1/(1-u)) on [0,1), 0 beyond; returns b, b', b''
        u = np.asarray(u, dtype=float)
        inside = u < 1.0 - 1e-12
        us = np.where(inside, u, 0.0)
        om = 1.0 - us
        b = np.exp(1.0 - 1.0 / om)
        b1 = -b / om**2
        b2 = b * (2.0 * us - 1.0) / om**4
        zero = np.zeros_like(u)
        return (np.where(inside, b, zero),
                np.where(inside, b1, zero),
                np.where(inside, b2, zero))

    def _phi1_parts(self, F):
        """(F, E, b, b', b''): F as an array, the strain E = F^T F - I and the
        bump with its two derivatives at u = |E|^2 / r^2."""
        F = np.asarray(F, dtype=float)
        E = _matmul(np.swapaxes(F, -1, -2), F) - np.eye(self.d)
        return (F, E) + self._bump(_ddot(E, E) / self.phi1_radius**2)

    def phi1(self, F):
        return self.phi1_amp * self._phi1_parts(F)[2]

    def phi1_grad(self, F):
        F, E, _, b1, _ = self._phi1_parts(F)
        return self.phi1_amp * b1[..., None, None] * (4.0 / self.phi1_radius**2) * _matmul(F, E)

    def phi1_hess(self, F):
        """d^2 phi1 / dF^2 with index order (..., i, a, j, b)."""
        F, E, _, b1, b2 = self._phi1_parts(F)
        r2 = self.phi1_radius**2
        FE = _matmul(F, E)
        FFt = _matmul(F, np.swapaxes(F, -1, -2))
        c_outer, c_inner = b2 * (4.0 / r2) ** 2, b1 * (4.0 / r2)

        def entry(i, a, j, b):
            # outer FE (x) FE; inner delta (x) E + F (x) F + delta (x) F F^T
            inner = F[..., i, b] * F[..., j, a]
            if i == j:
                inner = E[..., a, b] + inner
            if a == b:
                inner = inner + FFt[..., i, j]
            return self.phi1_amp * (c_outer * (FE[..., i, a] * FE[..., j, b]) + c_inner * inner)

        return _pair_symmetric(F.shape[:-2], self.d, entry)

    # -- purely mechanical stored energy -----------------------------------

    def elastic_energy(self, F):
        """c1 |F|^s + c2 / det(F)^q; blows up as det F -> 0+."""
        F = np.asarray(F, dtype=float)
        J = _check_detF(F)
        return self.c1 * _frob(F) ** self.s + self.c2 * J ** (-self.q)

    def elastic_stress(self, F):
        """First derivative of elastic_energy with respect to F."""
        F = np.asarray(F, dtype=float)
        J = _check_detF(F)
        n = _frob(F)
        FiT = np.swapaxes(inv(F), -1, -2)
        growth = self.c1 * self.s * n[..., None, None] ** (self.s - 2.0) * F
        barrier = -self.c2 * self.q * J[..., None, None] ** (-self.q) * FiT
        return growth + barrier

    def elastic_hessian(self, F):
        """Second derivative, index order (..., i, a, j, b)."""
        F = np.asarray(F, dtype=float)
        J = _check_detF(F)
        n = _frob(F)
        FiT = np.swapaxes(inv(F), -1, -2)
        c_FF, c_eye = (self.s - 2.0) * n ** (self.s - 4.0), n ** (self.s - 2.0)
        c_barrier = self.c2 * self.q * J ** (-self.q)

        def entry(i, a, j, b):
            # growth c1 s ((s-2)|F|^(s-4) F (x) F + |F|^(s-2) I);
            # barrier c2 q J^-q (q F^-T (x) F^-T + its transposed pairing)
            growth = c_FF * (F[..., i, a] * F[..., j, b])
            if (i, a) == (j, b):
                growth = growth + c_eye
            tt = self.q * (FiT[..., i, a] * FiT[..., j, b]) + FiT[..., i, b] * FiT[..., j, a]
            return self.c1 * self.s * growth + c_barrier * tt

        return _pair_symmetric(F.shape[:-2], self.d, entry)

    # -- thermo-mechanical coupling -----------------------------------------
    #
    # coupling energy: (a(0) - a(theta)) * phi1(F) + c * theta * (1 - log theta),
    # shifted so that it vanishes identically at theta = 0.

    def coupling_energy(self, F, theta):
        theta = _check_theta(theta)
        _check_detF(np.asarray(F, dtype=float))
        tlog = np.where(theta > THETA_TINY,
                        theta - theta * np.log(np.maximum(theta, THETA_TINY)), 0.0)
        return (1.0 - self.a(theta)) * self.phi1(F) + self.c * tlog

    def coupling_stress(self, F, theta):
        """F-derivative of the coupling energy; vanishes at theta = 0."""
        theta = _check_theta(theta)
        fac = 1.0 - self.a(theta)
        return np.asarray(fac)[..., None, None] * self.phi1_grad(F)

    def coupling_hessian(self, F, theta):
        theta = _check_theta(theta)
        fac = np.asarray(1.0 - self.a(theta))
        return fac[..., None, None, None, None] * self.phi1_hess(F)

    def coupling_dtheta(self, F, theta):
        """theta-derivative of the coupling energy (+inf at theta = 0)."""
        theta = _check_theta(theta)
        with np.errstate(divide="ignore"):
            logt = np.log(np.maximum(theta, THETA_TINY))
        return -self.a_prime(theta) * self.phi1(F) - self.c * logt

    def entropy_density(self, F, theta):
        """Local entropy, minus the theta-derivative of the coupling energy."""
        return -self.coupling_dtheta(F, theta)

    # -- thermal internal energy ---------------------------------------------

    def enthalpy(self, F, theta):
        """Thermal part of the internal energy; zero at theta = 0."""
        theta = _check_theta(theta)
        return self.w_total_ext(self.phi1(F), theta)[1]

    def w_total_ext(self, phi1v, theta):
        """(W, W', W''): the thermal potential c theta^2/2 + phi1 h(theta),
        the enthalpy and the heat capacity, with h' = 1 - a + theta a' (the
        enthalpy bracket) and h'' = theta a''.  Below theta = 0 each is
        extended by the quadratic Taylor model at 0; this is what the
        unconstrained thermal minimization evaluates."""
        tp = np.maximum(theta, 0.0)
        a = self.a(tp)
        h = tp - 2.0 * self.a_int(tp) + tp * a
        h1 = 1.0 - a + tp * self.a_prime(tp)
        h2 = tp * self.a_dprime(tp)
        pos = theta > 0.0
        return (np.where(pos, phi1v * h, 0.0) + 0.5 * self.c * theta**2,
                self.c * theta + np.where(pos, phi1v * h1, 0.0),
                self.c + np.where(pos, phi1v * h2, 0.0))

    def coupling_factor_ext(self, theta):
        """(m, m', m'') of the F-coupling antiderivative, extended below 0."""
        tp = np.maximum(theta, 0.0)
        m = tp - self.a_int(tp)
        m1 = 1.0 - self.a(tp)
        m2 = -self.a_prime(tp)
        pos = theta > 0.0
        al = self.alpha
        return (np.where(pos, m, 0.5 * al * theta**2),
                np.where(pos, m1, al * theta),
                np.where(pos, m2, al))

    # -- hyperstress ---------------------------------------------------------

    def hyperstress_energy(self, G):
        G = np.asarray(G, dtype=float)
        return self.h_coef * _sumsq3(G) ** (self.p / 2.0)

    def hyperstress(self, G):
        G = np.asarray(G, dtype=float)
        g2 = _sumsq3(G)
        coef = np.where(g2 > 0.0, g2 ** ((self.p - 2.0) / 2.0), 0.0)
        return self.h_coef * self.p * coef[..., None, None, None] * G

    def hyperstress_hessian_parts(self, G):
        """Split d^2H/dG^2 = scal * I + R (x) R; returns (scal, R).

        The identity part has coefficient h p |G|^(p-2); the rank-one part
        is the outer square of R = sqrt(h p (p-2)) |G|^((p-4)/2) G.
        """
        G = np.asarray(G, dtype=float)
        g2 = _sumsq3(G)
        pos = g2 > 0.0
        scal = self.h_coef * self.p * np.where(pos, g2 ** ((self.p - 2.0) / 2.0), 0.0)
        amp = np.sqrt(self.h_coef * self.p * (self.p - 2.0))
        coef = np.where(pos, g2 ** ((self.p - 4.0) / 4.0), 0.0)
        return scal, amp * coef[..., None, None, None] * G

    # -- frame-indifferent viscosity -----------------------------------------

    def viscous_potential(self, C, Cdot, theta):
        """Quadratic rate potential (nu/2)|Cdot|^2; C, Cdot symmetric."""
        C = np.asarray(C, dtype=float)
        Cdot = np.asarray(Cdot, dtype=float)
        for M, name in ((C, "C"), (Cdot, "Cdot")):
            if not np.allclose(M, np.swapaxes(M, -1, -2), atol=1e-12 * (1 + np.max(np.abs(M)))):
                raise ValueError(f"{name} must be symmetric")
        return 0.5 * self.nu * _ddot(Cdot, Cdot)

    def viscous_stress(self, F, Fdot, theta):
        """2 F D Cdot, the rate-linear stress conjugate to Fdot."""
        F = np.asarray(F, dtype=float)
        _check_detF(F)
        Cdot = rate_of_cauchy_green(F, np.asarray(Fdot, dtype=float))
        return 2.0 * self.nu * _matmul(F, Cdot)

    def viscous_hessian(self, F):
        """Constant-in-rate Hessian of the viscous potential in Fdot."""
        return self.nu * viscous_form(F)

    def dissipation_rate(self, F, Fdot, theta):
        """Heat production rate nu |Cdot|^2 = 2 * viscous_potential."""
        F = np.asarray(F, dtype=float)
        _check_detF(F)
        Cdot = rate_of_cauchy_green(F, np.asarray(Fdot, dtype=float))
        return self.nu * _ddot(Cdot, Cdot)

    # -- heat conduction ------------------------------------------------------

    def conductivity(self, theta):
        """Material conductivity tensor (isotropic by default)."""
        theta = np.asarray(theta, dtype=float)
        return self.k_bar * np.broadcast_to(np.eye(self.d), theta.shape + (self.d, self.d)).copy()

    def pullback_conductivity(self, F, theta):
        """det(F) F^-1 K(theta) F^-T, the reference-configuration tensor."""
        F = np.asarray(F, dtype=float)
        J = _check_detF(F)
        Fi = inv(F)
        K = self.conductivity(theta)
        return J[..., None, None] * _matmul(_matmul(Fi, K), np.swapaxes(Fi, -1, -2))


def validate_constants(m) -> list[str]:
    """All violated admissibility inequalities, as human-readable strings."""
    errs = []
    if m.d not in (2, 3):
        errs.append(f"d must be 2 or 3 (got {m.d})")
        return errs
    if not m.s > 0:
        errs.append(f"s > 0 violated (got s = {m.s})")
    if not m.p > m.d:
        errs.append(f"p > d violated (needs p > {m.d}, got p = {m.p})")
    if not m.p > 2:
        errs.append(f"p > 2 violated (got p = {m.p})")
    if m.p > m.d:
        qmin = m.p * m.d / (m.p - m.d)
        if not m.q >= qmin - 1e-12:
            errs.append(f"q >= pd/(p-d) violated (needs q >= {qmin:g}, got q = {m.q:g})")
    if not m.nu > 0:
        errs.append(f"nu > 0 violated (got nu = {m.nu})")
    if not m.c > 0:
        errs.append(f"c > 0 violated (got c = {m.c})")
    if not (m.c1 >= 0 and m.c2 > 0):
        errs.append(f"c1 >= 0 and c2 > 0 required (got c1 = {m.c1}, c2 = {m.c2})")
    if not m.h_coef > 0:
        errs.append(f"h_coef > 0 violated (got h_coef = {m.h_coef})")
    if not m.alpha > 0:
        errs.append(f"alpha > 0 violated (got alpha = {m.alpha})")
    if not m.phi1_amp >= 0:
        errs.append(f"phi1_amp >= 0 required (got {m.phi1_amp})")
    if not m.phi1_radius > 0:
        errs.append(f"phi1_radius > 0 violated (got {m.phi1_radius})")
    if not m.k_bar > 0:
        errs.append(f"k_bar > 0 violated (got k_bar = {m.k_bar})")
    if not m.kappa > 0:
        errs.append(f"kappa > 0 violated (got kappa = {m.kappa})")
    return errs
