"""Run-configuration parsing and validation.

The config format is an INI document with sections [grid], [material],
[loads], [time], [solver], [output].  Parsing validates everything it
can and reports ALL violations at once, naming unknown keys together
with the nearest valid one.  Once the grid, material and [loads] rules
pass it builds the run's grid, material and scenario, once, and reports
the preset's refusal among the other violations.
"""

from __future__ import annotations

import difflib
import math
from configparser import ConfigParser
from dataclasses import dataclass, field, fields as dc_fields

from .grid import StructuredGrid, grid_errors
from .materials import MaterialModel
from .mech import SolverConfig
from .presets import PRESETS, parameters
from .scheme import Scenario, refinement_errors, time_errors


class ConfigError(ValueError):
    """Carries the full list of violations, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


_SCHEMA = {
    "grid": {"extents": "int_list", "lengths": "float_list", "dirichlet": "str_list"},
    "material": {f.name: "float" for f in dc_fields(MaterialModel) if f.name != "d"},
    "loads": {"scenario": "str", "amplitude": "float", "t_pulse": "float",
              "theta_b": "float", "theta0": "float"},
    "time": {"T": "float", "tau": "float", "eps": "float"},
    "solver": {"tol_mech": "float", "tol_heat": "float", "tol_pos": "float",
               "max_newton": "int", "max_backtracks": "int", "det_floor": "float",
               "max_step_halvings": "int", "isothermal": "bool",
               "korn_every": "int", "hk_every": "int"},
    "output": {"directory": "str", "tau_list": "float_list", "eps_list": "float_list"},
}

_PARSE = {"float": float, "int": int,
          "bool": lambda v: ConfigParser.BOOLEAN_STATES[v.strip().lower()],
          "str": str.strip}   # parsed form of one value of each kind
_FORMAT = {"float": lambda v: f"{v:.17g}", "int": str, "bool": lambda v: str(v).lower(),
           "str": str}   # serialized form of one value of each kind

_PRESET_KEYS = {*_SCHEMA["loads"], "T"} - {"scenario"}   # keys a preset may take

_DEFAULTS = {
    "grid": {"extents": [16, 16], "lengths": [1.0, 1.0], "dirichlet": ["y0"]},
    "time": {"tau": 0.05, "eps": 0.01},
    "output": {"directory": "out"},
}


def _hint(name, choices, fmt):
    close = difflib.get_close_matches(name, choices, n=1)
    return fmt.format(close[0]) if close else ""


def _parse_value(kind, raw, where, errors):
    parse = _PARSE[kind.removesuffix("_list")]
    try:
        value = [parse(v) for v in raw.split()] if kind.endswith("_list") else parse(raw)
    except (KeyError, ValueError):
        errors.append(f"{where}: cannot parse {raw!r} as {kind}")
        return None
    bad = [v for v in raw.split() if kind.startswith("float") and not math.isfinite(float(v))]
    errors.extend(f"{where}: {v!r} is not a finite number" for v in bad)
    return None if bad else value


@dataclass
class RunConfig:
    """Fully validated run description: the built scenario and how to run it."""

    scenario: Scenario
    tau: float
    eps: float
    solver: SolverConfig
    directory: str
    tau_list: list = field(default_factory=list)
    eps_list: list = field(default_factory=list)

    def serialize(self) -> str:
        """The config as an INI document, every key in ``_SCHEMA`` order.  The
        scenario's parameters are written as its preset recorded them; a
        preset key the scenario does not take is left out."""
        sc, grid = self.scenario, self.scenario.grid
        # isothermal is an INI key of [solver] but belongs to the scenario
        held = {"extents": grid.extents, "lengths": grid.lengths,
                "dirichlet": grid.dirichlet_faces, "scenario": sc.name,
                "isothermal": sc.isothermal, **sc.params}
        owners = {"material": sc.model, "solver": self.solver}
        lines = []
        for section, keys in _SCHEMA.items():
            lines.append(f"[{section}]")
            for key, kind in keys.items():
                if key in _PRESET_KEYS and key not in sc.params:
                    continue
                value = held[key] if key in held else getattr(owners.get(section, self), key)
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
            errors.append(f"unknown section [{section}]"
                          + _hint(section, _SCHEMA, " (did you mean [{}]?)"))
            continue
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                errors.append(f"unknown key '{key}' in [{section}]"
                              + _hint(key, _SCHEMA[section], " (nearest valid key: {})"))
                continue
            v = _parse_value(_SCHEMA[section][key], raw, f"[{section}] {key}", errors)
            if v is not None:
                values[(section, key)] = v

    def get(section, key, default=None):
        return values.get((section, key), _DEFAULTS.get(section, {}).get(key, default))

    extents = get("grid", "extents")
    lengths = get("grid", "lengths")
    dirichlet = get("grid", "dirichlet")
    errors.extend(f"[grid] {e}" for e in grid_errors(extents, lengths, dirichlet))

    mat_kwargs = {key: v for (section, key), v in values.items() if section == "material"}
    if len(extents) in (2, 3):   # another axis count is a [grid] violation above
        try:
            material = MaterialModel(d=len(extents), **mat_kwargs)
        except ValueError as exc:
            errors.extend(f"[material] {e}" for e in str(exc).split("; "))

    name = get("loads", "scenario", "steady")
    takes = parameters(name) if name in PRESETS else {}
    if name not in PRESETS:
        errors.append(f"[loads] unknown scenario '{name}'" + _hint(name, PRESETS, " (nearest: {})"))
    preset_args = {key: v for (section, key), v in values.items() if key in _PRESET_KEYS}
    named = f"scenario '{name}' (its parameters: {', '.join(takes)})"
    errors.extend(f"[{'time' if key == 'T' else 'loads'}] {key} is not a parameter of {named}"
                  for key in preset_args if takes and key not in takes)
    errors.extend(f"[loads] {key} must be nonnegative" for key in ("theta_b", "theta0")
                  if preset_args.get(key, 0.0) < 0)

    # an unknown scenario has no default T (None), so only a set T is checked
    T, tau, eps = preset_args.get("T", takes.get("T")), get("time", "tau"), get("time", "eps")
    scenario = None
    if not errors and T > 0:   # a T <= 0 is a [time] violation below
        grid = StructuredGrid(extents, lengths, dirichlet_faces=dirichlet)
        try:
            scenario = PRESETS[name](grid=grid, model=material, **preset_args)
        except ValueError as exc:   # the preset refuses the grid or its data
            errors.extend(str(exc).split("; "))
        else:
            flag = values.get(("solver", "isothermal"))
            if scenario.isothermal and flag is False:
                errors.append(f"[solver] isothermal = false contradicts scenario '{name}', "
                              "which is isothermal")
            scenario.isothermal = scenario.isothermal or bool(flag)

    tau_list, eps_list = get("output", "tau_list", []), get("output", "eps_list", [])
    errors.extend(f"[time] {e}" for e in time_errors(T, tau, eps))
    if tau_list or eps_list:
        errors.extend(f"[output] {e}" for e in refinement_errors(T, tau_list or [tau],
                                                                 eps_list or [eps])
                      if f"[time] {e}" not in errors)

    try:
        solver = SolverConfig(**{f.name: values[("solver", f.name)]
                                 for f in dc_fields(SolverConfig) if ("solver", f.name) in values})
    except ValueError as exc:
        errors.extend(f"[solver] {e}" for e in str(exc).split("; "))

    if errors:
        raise ConfigError(errors)
    return RunConfig(scenario=scenario, tau=tau, eps=eps, solver=solver,
                     directory=get("output", "directory"), tau_list=tau_list, eps_list=eps_list)
