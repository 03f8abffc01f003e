"""Named scenario presets.

A preset's keyword signature is the one statement of its scenario's
parameters and their defaults; a run config passes it exactly the
``[loads]`` keys and ``[time] T`` the file sets.  The built scenario
records its effective parameters in ``Scenario.params``.  A loading
preset puts its traction on the face opposite the clamped one (y1 when
y0 is clamped, x1 otherwise) and refuses a grid that clamps that face.
"""

from __future__ import annotations

import functools
import inspect

import numpy as np

from .materials import MaterialModel
from .scheme import Scenario

PRESETS = {}
_DOMAIN = ("grid", "model")   # preset arguments that are not scenario parameters


def parameters(name):
    """The parameters of preset ``name`` apart from grid and model, with their
    defaults (``theta_b = None`` stands for theta0)."""
    return {key: p.default for key, p in inspect.signature(PRESETS[name]).parameters.items()
            if key not in _DOMAIN}


def _preset(build):
    """Register ``build``, which gets a model always (the default material
    of the grid's dimension unless one is passed).  Its scenarios record
    the call's parameters with defaults filled in, as the scenario holds
    them where it does (so theta_b = None records the theta0 it resolves
    to)."""
    signature = inspect.signature(build)

    @functools.wraps(build)
    def preset(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        kw = bound.arguments
        kw["model"] = kw["model"] or MaterialModel(d=kw["grid"].d)
        sc = build(**kw)
        sc.params = {key: getattr(sc, key, value) for key, value in kw.items()
                     if key not in _DOMAIN}
        return sc

    PRESETS[build.__name__] = preset
    return preset


def _face_traction(grid, size, press=False):
    """Traction f(t, face, X) of magnitude size(t) on the loaded face, along
    the face or, with ``press``, against its outward normal."""
    loaded = "y1" if "y0" in grid.dirichlet_faces else "x1"
    if loaded in grid.dirichlet_faces:
        raise ValueError(f"the loaded face {loaded} is clamped "
                         f"(dirichlet = {' '.join(grid.dirichlet_faces)})")
    axis = int((loaded[0] == "y") == press)   # on y1: shear along x, press along y
    sign = -1.0 if press else 1.0

    def traction(t, face, X):
        f = np.zeros(X.shape[:2] + (grid.d,))
        if face == loaded:
            f[..., axis] = sign * size(t)
        return f

    return traction


def _pulse_scenario(name, grid, model, T, amplitude, t_pulse, theta0, theta_b, press=False):
    def size(t):
        return amplitude * (np.sin(np.pi * t / t_pulse) ** 2 if 0.0 < t < t_pulse else 0.0)

    return Scenario(name=name, grid=grid, model=model, T=T,
                    traction=_face_traction(grid, size, press),
                    theta_b=theta_b if theta_b is not None else theta0, theta0=theta0)


@_preset
def steady(grid, model=None, T=1.0, theta0=1.0):
    """Load-free equilibrium audit: identity map, uniform temperature data."""
    return Scenario(name="steady", grid=grid, model=model, T=T, theta_b=theta0, theta0=theta0)


@_preset
def shear_pulse(grid, model=None, T=1.0, amplitude=0.15, t_pulse=0.5,
                theta0=1.0, theta_b=None):
    """Tangential traction amplitude * sin^2(pi t / t_pulse) on the loaded
    face up to t_pulse, then none."""
    return _pulse_scenario("shear_pulse", grid, model, T, amplitude, t_pulse, theta0, theta_b)


@_preset
def press_pulse(grid, model=None, T=1.0, amplitude=0.15, t_pulse=0.5,
                theta0=1.0, theta_b=None):
    """The shear pulse pressing on the loaded face.  Its rates are strain
    dominated (little rigid spin), which isolates the linear-viscosity
    contribution from the frame-indifferent dissipation in eps studies."""
    return _pulse_scenario("press_pulse", grid, model, T, amplitude, t_pulse, theta0, theta_b,
                           press=True)


@_preset
def isothermal_creep(grid, model=None, T=1.0, amplitude=0.05, theta0=1.0):
    """Constant small dead traction at fixed temperature (eps = 0 intended)."""
    return Scenario(name="isothermal_creep", grid=grid, model=model, T=T,
                    traction=_face_traction(grid, lambda t: amplitude),
                    theta0=theta0, theta_b=theta0, isothermal=True)

