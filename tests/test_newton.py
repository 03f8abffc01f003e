"""The shared damped-Newton driver on small closed-form problems (no grid),
the frozen factorization it solves against, and the factorization setting
every solve uses."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

from thermovisc import diagnostics, heat, mech, newton
from thermovisc.grid import SPD_LU, StructuredGrid
from thermovisc.mech import SolverConfig
from thermovisc.newton import FrozenFactor, StepRejectedError, minimize
from thermovisc.presets import shear_pulse
from thermovisc.scheme import run


class Vec:
    """Minimal iterate: a copyable values array."""

    def __init__(self, values):
        self.values = np.array(values, dtype=float)

    def copy(self):
        return Vec(self.values)


def separable(f, df, d2f):
    """Callables of J(x) = sum f(x_i); aux is the value itself."""
    def functional(x):
        J = float(np.sum(f(x.values)))
        return J, J
    return dict(functional=functional,
                gradient=lambda x, _: df(x.values),
                hessian=lambda x, _: sp.diags(d2f(x.values)),
                dual_norm=lambda r: float(np.linalg.norm(r)))


C = np.array([-1.0, 0.5, 2.0])
COSH = separable(lambda x: np.cosh(x - C), lambda x: np.sinh(x - C),
                 lambda x: np.cosh(x - C))
DOUBLE_WELL = separable(lambda x: 0.25 * x**4 - 0.5 * x**2, lambda x: x**3 - x,
                        lambda x: 3.0 * x**2 - 1.0)


def test_strictly_convex_converges_to_minimizer():
    res = minimize(Vec(np.zeros(3)), **COSH, rtol=1e-12, cfg=SolverConfig(),
                   factor=splu)
    assert np.max(np.abs(res.x.values - C)) < 1e-12
    assert res.value == pytest.approx(3.0, abs=1e-15)
    assert res.value < res.initial_value
    assert 0 < res.iterations < 20
    assert res.residual_norm == float(np.linalg.norm(res.residual))


def test_start_at_minimizer_takes_no_step():
    res = minimize(Vec(C), **COSH, rtol=1e-12, cfg=SolverConfig(), factor=splu)
    assert res.iterations == 0
    assert res.value == res.initial_value
    assert res.residual_norm == 0.0
    assert np.array_equal(res.x.values, C)


def double_well_shift_ladder(lu_options):
    x0 = np.array([0.1, 0.2])
    h0 = 3.0 * x0**2 - 1.0               # J'' < 0 on both components
    shifts = []                          # diagonal shift of each factorization

    def factor(A):
        shifts.append(float(A.diagonal()[0] - h0[0]))
        return splu(A, **lu_options)

    values = []
    res = minimize(Vec(x0), **DOUBLE_WELL, rtol=1e-10, cfg=SolverConfig(),
                   factor=factor, on_accept=values.append)
    assert shifts[0] == 0.0 and shifts[1] > 0.0   # the unshifted step ascends
    assert len(shifts) > res.iterations
    assert values[0] == res.initial_value and values[-1] == res.value
    assert all(b <= a for a, b in zip(values, values[1:]))   # no iterate ascends
    assert res.value < res.initial_value
    assert np.allclose(np.abs(res.x.values), 1.0, atol=1e-12)   # both wells minimize


def test_indefinite_start_takes_shift_ladder_and_descends():
    double_well_shift_ladder({})


def test_indefinite_start_with_the_production_factorization():
    double_well_shift_ladder(SPD_LU)


def test_singular_hessian_moves_up_one_rung():
    # J = sum x^4/4 - x from x = (1, 0): H = diag(3, 0) is exactly singular
    quartic = separable(lambda x: 0.25 * x**4 - x, lambda x: x**3 - 1.0,
                        lambda x: 3.0 * x**2)
    attempts = []                        # (diagonal shift, raised) per factorization

    def factor(A):
        shift = float(A.diagonal()[0] - 3.0)   # x_0 = 1 is already optimal
        try:
            lu = splu(A, **SPD_LU)
        except RuntimeError:
            attempts.append((shift, True))
            raise
        attempts.append((shift, False))
        return lu

    res = minimize(Vec([1.0, 0.0]), **quartic, rtol=1e-12, cfg=SolverConfig(),
                   factor=factor)
    assert attempts[0] == (0.0, True)           # the unshifted matrix breaks down
    assert attempts[1][0] > 0.0 and attempts[1][1] is False   # the next rung factorizes
    assert np.allclose(res.x.values, 1.0, atol=1e-12)
    assert res.value < res.initial_value


def test_every_factorization_uses_the_spd_setting(monkeypatch):
    # the Korn certificate factorizes only on its fallback path, covered by
    # test_diagnostics.test_korn_fallback_factorizes_with_the_spd_setting
    # and the grid's Gram is a banded Cholesky, not an LU
    calls = {}
    for module in (mech, heat, diagnostics):
        def recorder(A, _name=module.__name__, **kwargs):
            calls.setdefault(_name, []).append(kwargs)
            lu = splu(A, **kwargs)
            assert isinstance(lu, SuperLU)
            return lu
        monkeypatch.setattr(module, "splu", recorder)
    g = StructuredGrid((4, 4), (1.0, 1.0), dirichlet_faces=("y0",))
    traj = run(shear_pulse(grid=g, T=0.04, amplitude=0.15, t_pulse=0.5), tau=0.02, eps=0.01)
    assert traj.step_diags[-1].mech_iterations > 0
    assert sorted(calls) == sorted(m.__name__ for m in (mech, heat))
    assert all(kwargs == SPD_LU for made in calls.values() for kwargs in made)
    # one factorization per Newton solve and run, the rest is CG against it
    assert len(calls[mech.__name__]) == len(calls[heat.__name__]) == 1
    assert [rec["factorizations"] for rec in traj.mech_log] == [1, 0]
    assert traj.mech_log[1]["pcg_iterations"] > 0


def perturbed_spd_sequence(rng, n=40, count=6, size=0.05):
    """SPD sparse matrices that drift slowly, like the Hessians of a run."""
    M = sp.random(n, n, density=0.15, random_state=rng) + sp.identity(n)
    base = (M @ M.T + n * sp.identity(n)).tocsc()
    out = []
    for _ in range(count):
        D = sp.random(n, n, density=0.1, random_state=rng)
        out.append((base + size * base.diagonal().mean() * (D @ D.T)).tocsc())
    return out


def test_frozen_factor_cg_matches_a_fresh_lu():
    rng = np.random.default_rng(7)
    frozen = FrozenFactor()
    factor = frozen.bind(lambda A: splu(A, **SPD_LU))
    for A in perturbed_spd_sequence(rng):
        b = rng.standard_normal(A.shape[0])
        x = factor(A).solve(b)
        ref = splu(A, **SPD_LU).solve(b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert frozen.factorizations == 1        # the first matrix only
    assert frozen.pcg_iterations > 0


def test_frozen_factor_refactorizes_when_cg_passes_the_cap(monkeypatch):
    rng = np.random.default_rng(8)
    A0, A1 = perturbed_spd_sequence(rng, count=2, size=5.0)
    made = []

    def lu(A):
        made.append(A)
        return splu(A, **SPD_LU)

    frozen = FrozenFactor()
    factor = frozen.bind(lu)
    factor(A0)
    monkeypatch.setattr(newton, "CG_MAX_ITER", 1)
    b = rng.standard_normal(A1.shape[0])
    x = factor(A1).solve(b)
    assert len(made) == 2 and made[1] is A1 and frozen.factorizations == 2
    assert frozen.pcg_iterations == 1
    assert np.array_equal(x, splu(A1, **SPD_LU).solve(b))   # a direct solve
    frozen.pcg_iterations = 0
    factor(A1).solve(b)                        # the kept LU is now A1's
    assert frozen.pcg_iterations == 1 and frozen.factorizations == 2


def test_frozen_factor_refactorizes_on_the_indefinite_double_well():
    # a run that starts convex (x = 2, J'' = 11) and then meets the
    # indefinite double well: CG against the convex LU sees negative
    # curvature, and the indefinite matrix is factorized, as a direct
    # solve would, before the shift ladder takes over
    frozen = FrozenFactor()
    shifts = []
    h0 = 3.0 * np.array([0.1, 0.2]) ** 2 - 1.0

    def factor(A):
        shifts.append(float(A.diagonal()[0] - h0[0]))
        return splu(A, **SPD_LU)

    minimize(Vec([2.0, 2.0]), **DOUBLE_WELL, rtol=1e-10, cfg=SolverConfig(),
             factor=frozen.bind(factor))
    assert frozen.factorizations == 1
    res = minimize(Vec([0.1, 0.2]), **DOUBLE_WELL, rtol=1e-10, cfg=SolverConfig(),
                   factor=frozen.bind(factor))
    assert frozen.factorizations >= 2 and shifts[1] == 0.0   # the unshifted indefinite matrix
    assert res.value < res.initial_value
    assert np.allclose(np.abs(res.x.values), 1.0, atol=1e-12)


def test_gate_rejecting_every_candidate_raises():
    assert mech.StepRejectedError is StepRejectedError
    cfg = SolverConfig(max_backtracks=5)
    with pytest.raises(StepRejectedError, match="line search failed at iteration 0"):
        minimize(Vec(np.zeros(3)), **COSH, rtol=1e-12, cfg=cfg, factor=splu,
                 admissible=lambda aux_c, aux: False, label="test")
