"""The shared damped-Newton driver on small closed-form problems (no grid)."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from thermovisc import mech
from thermovisc.mech import SolverConfig
from thermovisc.newton import StepRejectedError, minimize


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


def test_indefinite_start_takes_shift_ladder_and_descends():
    x0 = np.array([0.1, 0.2])
    h0 = 3.0 * x0**2 - 1.0               # J'' < 0 on both components
    shifts = []                          # diagonal shift of each factorization

    def factor(A):
        shifts.append(float(A.diagonal()[0] - h0[0]))
        return splu(A)

    values = []
    res = minimize(Vec(x0), **DOUBLE_WELL, rtol=1e-10, cfg=SolverConfig(),
                   factor=factor, on_accept=values.append)
    assert shifts[0] == 0.0 and shifts[1] > 0.0   # the unshifted step ascends
    assert len(shifts) > res.iterations
    assert values[0] == res.initial_value and values[-1] == res.value
    assert all(b <= a for a, b in zip(values, values[1:]))   # no iterate ascends
    assert res.value < res.initial_value
    assert np.allclose(np.abs(res.x.values), 1.0, atol=1e-12)   # both wells minimize


def test_gate_rejecting_every_candidate_raises():
    assert mech.StepRejectedError is StepRejectedError
    cfg = SolverConfig(max_backtracks=5)
    with pytest.raises(StepRejectedError, match="line search failed at iteration 0"):
        minimize(Vec(np.zeros(3)), **COSH, rtol=1e-12, cfg=cfg, factor=splu,
                 admissible=lambda aux_c, aux: False, label="test")
