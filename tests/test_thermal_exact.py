"""The thermal step against an exact solution: a resting body cooling
through its Robin boundary.

With no traction, ``phi1_amp = 0`` (no thermo-mechanical coupling) and
eps = 0, the deformation stays the identity bit for bit and each step is
implicit Euler for ``c theta_t = k Laplace theta`` on the unit square or
cube, with ``-k d_n theta = kappa (theta - theta_b)`` on every face and the
uniform start theta0.  The solution is the product
``theta_b + (theta0 - theta_b) prod_a u(x_a, t)`` of the slab with surface
heat transfer (Carslaw & Jaeger, *Conduction of Heat in Solids*, 2nd ed.,
1959):

    u(x, t) = sum_n A_n cos(mu_n (x - 1/2)) exp(-(k/c) mu_n^2 t),
    (mu_n / 2) tan(mu_n / 2) = kappa / (2k),
    A_n = (2 sin(mu_n/2) / mu_n) / (1/2 + sin(mu_n) / (2 mu_n)).

The L^2 error at T falls at order 1 in tau, the order of implicit Euler.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from thermovisc.diagnostics import run_certificates
from thermovisc.grid import StructuredGrid
from thermovisc.materials import MaterialModel
from thermovisc.scheme import Scenario, run

T, THETA0, THETA_B, MODES = 0.2, 2.0, 1.0, 200
MODELS = {2: MaterialModel(phi1_amp=0.0),
          3: MaterialModel(d=3, q=13.0, c2=12.0 / 13.0, phi1_amp=0.0)}   # stress-free identity


def slab(x, t, model):
    """u(x, t) of the unit slab cooling from 1 into 0, from MODES terms."""
    bi = model.kappa / (2.0 * model.k_bar)
    # z = mu/2 solves z sin z = bi cos z, one root in each [n pi, n pi + pi/2]
    z = np.array([brentq(lambda z: z * np.sin(z) - bi * np.cos(z), n * np.pi, (n + 0.5) * np.pi)
                  for n in range(MODES)])
    mu = 2.0 * z
    A = (2.0 * np.sin(z) / mu) / (0.5 + np.sin(mu) / (2.0 * mu))
    decay = np.exp(-(model.k_bar / model.c) * mu**2 * t)
    return np.cos(mu * (x[..., None] - 0.5)) @ (A * decay)


def cooling_error(d, n, tau):
    """L^2 error at T of the cooling run on an n^d grid with step tau."""
    model = MODELS[d]
    grid = StructuredGrid((n,) * d, (1.0,) * d, dirichlet_faces=("y0",))
    sc = Scenario(name="cooling", grid=grid, model=model, T=T, theta_b=THETA_B, theta0=THETA0)
    traj = run(sc, tau, 0.0)
    assert np.array_equal(traj.snapshots[-1].y.values, grid.identity_field().values)
    assert run_certificates(traj)["all_passed"]
    exact = THETA_B + (THETA0 - THETA_B) * np.prod(slab(grid.qcoords, T, model), axis=-1)
    e = traj.snapshots[-1].theta_qp - exact
    return float(np.sqrt(grid.assemble_scalar(e * e)))


@pytest.mark.parametrize("d, n, taus", [(2, 8, [0.05, 0.025, 0.0125, 0.00625]),
                                        (3, 4, [0.05, 0.025, 0.0125])], ids=["2d", "3d"])
def test_cooling_converges_at_order_one_in_tau(d, n, taus):
    errors = [cooling_error(d, n, tau) for tau in taus]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert 0.9 <= orders[-1] <= 1.1, (errors, orders)


def test_cooling_error_is_resolved_in_space():
    # n = 8 and n = 16 agree, so the time error dominates the order test
    for tau in (0.0125, 0.00625):
        coarse, fine = cooling_error(2, 8, tau), cooling_error(2, 16, tau)
        assert abs(coarse - fine) <= 0.01 * fine, (tau, coarse, fine)
