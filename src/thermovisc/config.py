"""Run-configuration parsing and validation.

The config format is an INI document with sections [grid], [material],
[loads], [time], [solver], [output].  Parsing validates everything it
can and reports ALL violations at once, naming unknown keys together
with the nearest valid one.
"""

from __future__ import annotations

import difflib
from configparser import ConfigParser
from dataclasses import dataclass, field, fields as dc_fields, replace

from .grid import StructuredGrid, grid_errors
from .materials import MaterialModel
from .mech import SolverConfig
from .presets import DEFAULT_REFINEMENT, PRESETS
from .scheme import refinement_errors, time_errors


class ConfigError(ValueError):
    """Carries the full list of violations, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


_SCHEMA = {
    "grid": {"extents": "int_list", "lengths": "float_list", "dirichlet": "str_list"},
    "material": {k: "float" for k in
                 ("c1", "c2", "s", "q", "p", "h_coef", "nu", "c", "alpha",
                  "phi1_amp", "phi1_radius", "k_bar", "kappa")},
    "loads": {"scenario": "str", "amplitude": "float", "t_pulse": "float",
              "theta_b": "float", "theta0": "float"},
    "time": {"T": "float", "tau": "float", "eps": "float"},
    "solver": {"tol_mech": "float", "tol_heat": "float", "tol_pos": "float",
               "max_newton": "int", "max_backtracks": "int", "det_floor": "float",
               "max_step_halvings": "int", "isothermal": "bool",
               "korn_every": "int", "hk_every": "int", "checkpoint_every": "int"},
    "output": {"directory": "str", "diagnostics": "str",
               "tau_list": "float_list", "eps_list": "float_list"},
}

_FORMAT = {"float": lambda v: f"{v:.17g}", "int": str, "bool": lambda v: str(v).lower(),
           "str": str}   # serialized form of one value of each kind

_DEFAULTS = {
    "grid": {"extents": [16, 16], "lengths": [1.0, 1.0], "dirichlet": ["y0"]},
    "loads": {"scenario": "steady", "amplitude": 0.15, "t_pulse": 0.5,
              "theta_b": 1.0, "theta0": 1.0},
    "time": {"T": 1.0, "tau": 0.05, "eps": 0.01},
    "output": {"directory": "out", "diagnostics": "full",
               "tau_list": [], "eps_list": []},
}


def _parse_value(kind, raw, where, errors):
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "bool":
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        if kind == "int_list":
            return [int(v) for v in raw.split()]
        if kind == "float_list":
            return [float(v) for v in raw.split()]
        if kind == "str_list":
            return raw.split()
        return raw.strip()
    except ValueError:
        errors.append(f"{where}: cannot parse {raw!r} as {kind}")
        return None


@dataclass
class RunConfig:
    """Fully validated run description."""

    extents: list
    lengths: list
    dirichlet: list
    material: MaterialModel
    scenario: str
    amplitude: float
    t_pulse: float
    theta_b: float
    theta0: float
    T: float
    tau: float
    eps: float
    solver: SolverConfig
    isothermal: bool
    directory: str
    diagnostics: str
    tau_list: list = field(default_factory=list)
    eps_list: list = field(default_factory=list)

    def build_grid(self):
        return StructuredGrid(tuple(self.extents), tuple(self.lengths),
                              dirichlet_faces=tuple(self.dirichlet))

    def build_scenario(self):
        grid = self.build_grid()
        maker = PRESETS[self.scenario]
        kwargs = {"grid": grid, "T": self.T}
        if self.scenario in ("shear_pulse", "press_pulse", "refine_tau", "refine_eps"):
            kwargs.update(model=self.material, amplitude=self.amplitude,
                          t_pulse=self.t_pulse, theta0=self.theta0,
                          theta_b=self.theta_b)
        elif self.scenario == "insulated_pulse":
            kwargs.update(amplitude=self.amplitude, t_pulse=self.t_pulse,
                          theta0=self.theta0, kappa=self.material.kappa)
        elif self.scenario == "isothermal_creep":
            kwargs.update(model=self.material, amplitude=self.amplitude,
                          theta0=self.theta0)
        else:
            kwargs.update(model=self.material, theta0=self.theta0)
        sc = maker(**kwargs)
        if self.isothermal and not sc.isothermal:
            sc.isothermal = True
        return sc

    def serialize(self) -> str:
        """The config as an INI document, every key in ``_SCHEMA`` order."""
        owners = {"material": self.material, "solver": self.solver}
        lines = []
        for section, keys in _SCHEMA.items():
            lines.append(f"[{section}]")
            for key, kind in keys.items():
                # isothermal is an INI key of [solver] but belongs to the scenario
                value = getattr(self if key == "isothermal" else owners.get(section, self), key)
                fmt = _FORMAT[kind.removesuffix("_list")]
                text = " ".join(map(fmt, value)) if kind.endswith("_list") else fmt(value)
                lines.append(f"{key} = {text}")
            lines.append("")
        return "\n".join(lines)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config document; raises ConfigError with
    every violation found."""
    cp = ConfigParser()
    cp.optionxform = str   # keys are case sensitive ([time] T)
    cp.read_string(text)
    errors = []
    values = {}

    for section in cp.sections():
        if section not in _SCHEMA:
            close = difflib.get_close_matches(section, _SCHEMA, n=1)
            hint = f" (did you mean [{close[0]}]?)" if close else ""
            errors.append(f"unknown section [{section}]{hint}")
            continue
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                close = difflib.get_close_matches(key, _SCHEMA[section], n=1)
                hint = f" (nearest valid key: {close[0]})" if close else ""
                errors.append(f"unknown key '{key}' in [{section}]{hint}")
                continue
            v = _parse_value(_SCHEMA[section][key], raw, f"[{section}] {key}", errors)
            if v is not None:
                values[(section, key)] = v

    def get(section, key, default=None):
        if (section, key) in values:
            return values[(section, key)]
        return _DEFAULTS.get(section, {}).get(key, default)

    extents = get("grid", "extents")
    lengths = get("grid", "lengths")
    dirichlet = get("grid", "dirichlet")
    errors.extend(f"[grid] {e}" for e in grid_errors(extents, lengths, dirichlet))

    mat_kwargs = {key: values[("material", key)] for key in _SCHEMA["material"]
                  if ("material", key) in values}
    try:
        material = MaterialModel(d=len(extents), **mat_kwargs)
    except ValueError as exc:
        errors.extend(f"[material] {e}" for e in str(exc).split("; "))

    scenario = get("loads", "scenario")
    if scenario not in PRESETS:
        close = difflib.get_close_matches(scenario, PRESETS, n=1)
        hint = f" (nearest: {close[0]})" if close else ""
        errors.append(f"[loads] unknown scenario '{scenario}'{hint}")
    if scenario == "isothermal_creep" and values.get(("solver", "isothermal")) is False:
        errors.append("[solver] isothermal = false contradicts scenario 'isothermal_creep', "
                      "which is isothermal")
    for key in ("theta_b", "theta0"):
        if get("loads", key) < 0:
            errors.append(f"[loads] {key} must be nonnegative")

    T, tau, eps = get("time", "T"), get("time", "tau"), get("time", "eps")
    errors.extend(f"[time] {e}" for e in time_errors(T, tau, eps))
    tau_list, eps_list = get("output", "tau_list"), get("output", "eps_list")
    if tau_list or eps_list:
        errors.extend(f"[output] {e}" for e in refinement_errors(T, tau_list or [tau],
                                                                 eps_list or [eps])
                      if f"[time] {e}" not in errors)

    try:
        solver = SolverConfig(**{f.name: values[("solver", f.name)]
                                 for f in dc_fields(SolverConfig) if ("solver", f.name) in values})
    except ValueError as exc:
        errors.extend(f"[solver] {e}" for e in str(exc).split("; "))

    diagnostics = get("output", "diagnostics")
    if diagnostics not in ("full", "light"):
        errors.append(f"[output] diagnostics must be 'full' or 'light' (got '{diagnostics}')")

    if errors:
        raise ConfigError(errors)

    if diagnostics == "light":
        solver = replace(solver, korn_every=0, hk_every=0)
    if scenario in DEFAULT_REFINEMENT:
        tau_list = tau_list or DEFAULT_REFINEMENT[scenario]["tau_list"]
        eps_list = eps_list or DEFAULT_REFINEMENT[scenario]["eps_list"]

    return RunConfig(
        extents=extents, lengths=lengths, dirichlet=dirichlet, material=material,
        scenario=scenario, amplitude=get("loads", "amplitude"),
        t_pulse=get("loads", "t_pulse"), theta_b=get("loads", "theta_b"),
        theta0=get("loads", "theta0"), T=T, tau=tau, eps=eps, solver=solver,
        isothermal=bool(get("solver", "isothermal", scenario == "isothermal_creep")),
        directory=get("output", "directory"), diagnostics=diagnostics,
        tau_list=tau_list, eps_list=eps_list)
