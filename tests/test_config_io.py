"""Config parsing/validation, output formats and the CLI front door."""

import dataclasses
import json
import os
from configparser import ConfigParser
from pathlib import Path

import numpy as np
import pytest

from thermovisc.cli import main as cli_main
from thermovisc.config import _SCHEMA, ConfigError, parse_config
from thermovisc.grid import StructuredGrid
from thermovisc.mech import SolverConfig, StepRejectedError
from thermovisc.outputs import (
    TIMESERIES_COLUMNS,
    emit_outputs,
    read_field_dump,
    read_timeseries,
    write_field_dump,
)
from thermovisc.presets import PRESETS, parameters, shear_pulse
from thermovisc.scheme import run

MINIMAL = """
[grid]
extents = 6 6

[time]
T = 0.2
tau = 0.05
eps = 0.01
"""


def test_minimal_config_gets_defaults():
    cfg = parse_config(MINIMAL)
    sc = cfg.scenario
    assert sc.name == "steady"
    assert sc.grid.extents == (6, 6)
    assert sc.grid.lengths == (1.0, 1.0)
    assert sc.grid.dirichlet_faces == ("y0",)
    assert sc.model.nu == 1.0
    assert cfg.solver.tol_mech == 1e-8
    assert cfg.directory == "out"


def test_admissibility_violation_message():
    bad = MINIMAL + "\n[material]\nq = 3\np = 4\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    msg = str(exc.value)
    assert "q >= pd/(p-d) violated" in msg
    assert "needs q >= 4" in msg


def test_all_violations_reported_not_first_failure():
    bad = MINIMAL + "\n[material]\nnu = 0\nq = 3\n\n[loads]\ntheta0 = -1\n"
    bad = bad.replace("tau = 0.05", "tau = 0.03")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    errs = exc.value.errors
    assert len(errs) >= 4
    joined = "\n".join(errs)
    assert "nu > 0" in joined
    assert "q >= pd/(p-d)" in joined
    assert "theta0" in joined
    assert "T/tau" in joined


def test_negative_solver_counts_reported_together():
    # korn_every = -1 would run Korn and max_step_halvings = -1 switch
    # halving off, neither as documented
    bad = MINIMAL + ("\n[solver]\nmax_newton = 0\nmax_backtracks = -3\nkorn_every = -1\n"
                     "hk_every = -1\nmax_step_halvings = -1\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    errs = exc.value.errors
    assert len(errs) == 5
    for key, least in (("max_newton", 1), ("max_backtracks", 1), ("korn_every", 0),
                       ("hk_every", 0), ("max_step_halvings", 0)):
        assert any(e.startswith(f"[solver] {key} must be at least {least}") for e in errs), key
    ok = parse_config(MINIMAL + "\n[solver]\nmax_newton = 1\nmax_backtracks = 1\nkorn_every = 0\n"
                      "hk_every = 0\nmax_step_halvings = 0\n")
    assert (ok.solver.max_newton, ok.solver.max_step_halvings) == (1, 0)


def test_solver_config_rejects_what_parse_config_rejects():
    # korn_every = -1 made run compute Korn at every step (k % -1 == 0) and
    # max_step_halvings = -1 never halve a rejected step
    with pytest.raises(ValueError) as exc:
        SolverConfig(korn_every=-1, max_step_halvings=-1, det_floor=2.0, tol_mech=-1.0)
    errs = str(exc.value).split("; ")
    assert len(errs) == 4
    for start in ("tol_mech must be positive", "korn_every must be at least 0",
                  "max_step_halvings must be at least 0", "det_floor must lie in (0, 1)"):
        assert any(e.startswith(start) for e in errs), start


def test_output_lists_checked_like_the_time_section():
    for lists, expect in (("tau_list = 0.025 0.05",
                           ["[output] tau_list must be sorted decreasing"]),
                          ("tau_list = 0.1 0.03", ["[output] T/tau must be an integer"]),
                          ("eps_list = 0.01 -0.1", ["[output] eps must be nonnegative"]),
                          ("eps_list = 0.001 0.01\ntau_list = 0 0.05",
                           ["[output] tau_list must be sorted decreasing",
                            "[output] eps_list must be sorted decreasing",
                            "[output] tau must be positive"])):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + f"\n[output]\n{lists}\n")
        assert len(exc.value.errors) == len(expect), exc.value.errors
        for e, start in zip(exc.value.errors, expect):
            assert e.startswith(start), (e, start)
    # a [time] violation is reported once, not again for the lists
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL.replace("T = 0.2", "T = -1") + "\n[output]\ntau_list = 0.1 0.05\n")
    assert exc.value.errors == ["[time] T must be positive (got -1)"]
    ok = parse_config(MINIMAL + "\n[output]\ntau_list = 0.1 0.05\neps_list = 0.1 0.01\n")
    assert (ok.tau_list, ok.eps_list) == ([0.1, 0.05], [0.1, 0.01])


def test_grid_rules_come_from_the_grid():
    bad = MINIMAL.replace("extents = 6 6", "extents = 1 6\ndirichlet = y00 x0\nlengths = 1 0")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert [e.split(" (")[0].split(";")[0] for e in exc.value.errors] == [
        "[grid] extents must be at least 2 cells per axis", "[grid] lengths must be positive",
        "[grid] unknown face 'y00'"]
    assert "(nearest: y0)" in exc.value.errors[2]
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL.replace("extents = 6 6", "extents = 6 6\ndirichlet ="))
    assert exc.value.errors == ["[grid] the fixed boundary part must be nonempty"]
    # an axis count other than 2 or 3 is one [grid] violation, not a [material] one too
    for extents, lengths in (("16", "1"), ("4 4 4 4", "1 1 1 1")):
        grid = f"extents = {extents}\nlengths = {lengths}"
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("extents = 6 6", grid))
        n = len(extents.split())
        assert exc.value.errors == [f"[grid] extents must have 2 or 3 entries (got {n})"]


def test_unknown_key_suggests_nearest():
    bad = MINIMAL + "\n[loads]\namplituda = 0.1\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert "nearest valid key: amplitude" in str(exc.value)


def test_unknown_scenario_still_checks_tau_and_eps():
    # an unknown scenario states no default T, and the rules that need none still run
    with pytest.raises(ConfigError) as exc:
        parse_config("[loads]\nscenario = shear\n\n[time]\ntau = -1\neps = -1\n")
    assert exc.value.errors == ["[loads] unknown scenario 'shear' (nearest: shear_pulse)",
                                "[time] tau must be positive (got -1)",
                                "[time] eps must be nonnegative (got -1)"]


@pytest.mark.parametrize("extra, message", [
    ("[loads]\nscenario = shear_pulse\ntheta_b = nan",
     "[loads] theta_b: 'nan' is not a finite number"),
    ("[loads]\nscenario = shear_pulse\namplitude = inf",
     "[loads] amplitude: 'inf' is not a finite number"),
    ("[material]\nc1 = nan", "[material] c1: 'nan' is not a finite number"),
    ("[material]\nphi1_amp = nan", "[material] phi1_amp: 'nan' is not a finite number"),
    ("[output]\neps_list = 0.1 -inf", "[output] eps_list: '-inf' is not a finite number"),
], ids=["theta_b-nan", "amplitude-inf", "c1-nan", "phi1_amp-nan", "eps_list-inf"])
def test_non_finite_numbers_are_violations(extra, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + f"\n{extra}\n")
    assert exc.value.errors == [message]


def test_output_seed_is_unknown_key():
    # nothing reads a seed: the weak-residual bank is seeded by its caller
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "\n[output]\nseed = 1234\n")
    assert "unknown key 'seed' in [output]" in str(exc.value)


def test_config_surface_matches_solver_config_and_readme():
    # every SolverConfig field is an INI key (isothermal belongs to the scenario)
    solver_keys = set(_SCHEMA["solver"]) - {"isothermal"}
    assert {f.name for f in dataclasses.fields(SolverConfig)} == solver_keys
    # the README's config block lists exactly the keys the parser accepts
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cp = ConfigParser(inline_comment_prefixes=(";",))
    cp.optionxform = str
    cp.read_string(block)
    assert {s: set(cp[s]) for s in cp.sections()} == {s: set(k) for s, k in _SCHEMA.items()}
    # the README's scenario table states each preset's signature
    lines = ("| scenario |" + readme.split("| scenario |", 1)[1]).split("\n\n", 1)[0]
    rows = [[c.strip(" `") for c in line.strip("|").split("|")] for line in lines.splitlines()]
    table = {row[0]: {k: v for k, v in zip(rows[0][1:], row[1:]) if v != "–"} for row in rows[2:]}
    assert set(table) == set(PRESETS)
    # a preset takes load and time parameters only; the material is the [material] section's
    assert not {k for name in PRESETS for k in parameters(name)} & set(_SCHEMA["material"])
    for name, cells in table.items():
        expect = {k: "theta0" if v is None else v for k, v in parameters(name).items()}
        assert {k: v if v == "theta0" else float(v) for k, v in cells.items()} == expect, name


def test_roundtrip_serialize_parse():
    cfg = parse_config(MINIMAL + "\n[loads]\nscenario = shear_pulse\namplitude = 0.125\n")
    text = cfg.serialize()
    cfg2 = parse_config(text)
    assert cfg2.serialize() == text
    assert cfg2.scenario.params == cfg.scenario.params
    assert cfg2.scenario.params["amplitude"] == 0.125
    assert cfg2.scenario.model == cfg.scenario.model
    assert cfg2.solver == cfg.solver


NON_DEFAULT = MINIMAL.replace("extents = 6 6", "extents = 5 4\nlengths = 1.25 0.75\n"
                               "dirichlet = x0 y0").replace("T = 0.2", "T = 0.6").replace(
    "tau = 0.05", "tau = 0.1").replace("eps = 0.01", "eps = 0.001") + """
[material]
c1 = 1.5
q = 6
kappa = 0.3

[loads]
scenario = shear_pulse
amplitude = 0.1
t_pulse = 0.3

[solver]
tol_mech = 1e-9
max_newton = 30
isothermal = true
korn_every = 2
hk_every = 3

[output]
directory = runs/a
tau_list = 0.1 0.05
eps_list = 0.01
"""

# serialize() of NON_DEFAULT as written when the key list was spelled out by hand
NON_DEFAULT_SERIALIZED = (
    "[grid]\nextents = 5 4\nlengths = 1.25 0.75\ndirichlet = x0 y0\n\n"
    "[material]\nc1 = 1.5\nc2 = 1.6000000000000001\ns = 4\nq = 6\np = 4\nh_coef = 0.01\n"
    "nu = 1\nc = 1\nalpha = 1\nphi1_amp = 1\nphi1_radius = 2\nk_bar = 1\n"
    "kappa = 0.29999999999999999\n\n"
    "[loads]\nscenario = shear_pulse\namplitude = 0.10000000000000001\n"
    "t_pulse = 0.29999999999999999\ntheta_b = 1\ntheta0 = 1\n\n"
    "[time]\nT = 0.59999999999999998\ntau = 0.10000000000000001\neps = 0.001\n\n"
    "[solver]\ntol_mech = 1.0000000000000001e-09\ntol_heat = 1.0000000000000001e-09\n"
    "tol_pos = 1e-10\nmax_newton = 30\nmax_backtracks = 40\ndet_floor = 0.10000000000000001\n"
    "max_step_halvings = 4\nisothermal = true\nkorn_every = 2\nhk_every = 3\n\n"
    "[output]\ndirectory = runs/a\n"
    "tau_list = 0.10000000000000001 0.050000000000000003\neps_list = 0.01\n")


def test_serialize_pins_a_non_default_config():
    cfg = parse_config(NON_DEFAULT)
    assert cfg.serialize() == NON_DEFAULT_SERIALIZED
    assert parse_config(NON_DEFAULT_SERIALIZED).serialize() == NON_DEFAULT_SERIALIZED


def test_isothermal_false_contradicts_isothermal_scenario():
    text = MINIMAL + "\n[loads]\nscenario = isothermal_creep\n\n[solver]\nisothermal = false\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == ["[solver] isothermal = false contradicts scenario "
                                "'isothermal_creep', which is isothermal"]
    for extra in ("", "\n[solver]\nisothermal = true\n"):
        cfg = parse_config(MINIMAL + "\n[loads]\nscenario = isothermal_creep\n" + extra)
        assert cfg.scenario.isothermal
    cfg = parse_config(MINIMAL + "\n[loads]\nscenario = shear_pulse\n\n[solver]\nisothermal = false\n")
    assert not cfg.scenario.isothermal
    cfg = parse_config(MINIMAL + "\n[loads]\nscenario = shear_pulse\n\n[solver]\nisothermal = true\n")
    assert cfg.scenario.isothermal


def test_output_diagnostics_is_unknown_key():
    # light stood only for korn_every = 0 and hk_every = 0, which say it themselves
    for value in ("light", "full"):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + f"\n[output]\ndiagnostics = {value}\n")
        assert exc.value.errors == ["unknown key 'diagnostics' in [output]"]


def test_solver_checkpoint_every_is_unknown_key():
    # every run starts at t = 0; nothing reads a checkpoint, so none is written
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "\n[solver]\ncheckpoint_every = 0\n")
    assert exc.value.errors == ["unknown key 'checkpoint_every' in [solver] "
                                "(nearest valid key: korn_every)"]


# a value for each preset key, none of them a default
PRESET_VALUES = {"amplitude": 0.0625, "t_pulse": 0.125, "theta_b": 0.75, "theta0": 1.25, "T": 0.6}
SMALL = "[grid]\nextents = 4 4\n\n[time]\ntau = 0.05\n"


def preset_config(scenario, **keys):
    loads = "".join(f"{k} = {v}\n" for k, v in keys.items() if k != "T")
    time = "".join(f"T = {v}\n" for k, v in keys.items() if k == "T")
    return SMALL + time + f"\n[loads]\nscenario = {scenario}\n" + loads


def unset_params(scenario):
    """The preset's defaults as the built scenario records them."""
    defaults = parameters(scenario)
    return {k: defaults["theta0"] if v is None else v for k, v in defaults.items()}


@pytest.mark.parametrize("key", list(PRESET_VALUES))
@pytest.mark.parametrize("scenario", list(PRESETS))
def test_set_preset_key_reaches_the_preset_or_is_refused(scenario, key):
    takes = parameters(scenario)
    text = preset_config(scenario, **{key: PRESET_VALUES[key]})
    if key in takes:
        expect = {**unset_params(scenario), key: PRESET_VALUES[key]}
        if key == "theta0" and "theta_b" in takes:
            expect["theta_b"] = PRESET_VALUES["theta0"]   # theta_b defaults to theta0
        assert parse_config(text).scenario.params == expect
    else:
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        section = "time" if key == "T" else "loads"
        assert exc.value.errors == [f"[{section}] {key} is not a parameter of scenario "
                                    f"'{scenario}' (its parameters: {', '.join(takes)})"]


@pytest.mark.parametrize("scenario", list(PRESETS))
def test_unset_preset_keys_take_the_preset_defaults(scenario):
    cfg = parse_config(preset_config(scenario))
    assert cfg.scenario.params == unset_params(scenario)
    assert parse_config(cfg.serialize()).scenario.params == unset_params(scenario)


def test_config_runs_the_scenario_its_preset_defines():
    # a [material] key reaches the preset's model
    sc = parse_config(preset_config("shear_pulse") + "\n[material]\nkappa = 0.5\n").scenario
    assert sc.model.kappa == 0.5
    # isothermal_creep pulls with its own amplitude
    sc = parse_config(preset_config("isothermal_creep")).scenario
    assert sc.traction(0.5, "y1", sc.grid.faces["y1"].qcoords)[..., 0].max() == 0.05
    # steady takes no load
    with pytest.raises(ConfigError) as exc:
        parse_config(preset_config("steady", theta_b=0.5, amplitude=0.1, t_pulse=0.2))
    assert [e.split(" is ")[0] for e in exc.value.errors] == [
        "[loads] theta_b", "[loads] amplitude", "[loads] t_pulse"]


# ---------------------------------------------------------------------------
# outputs


@pytest.fixture(scope="module")
def small_traj():
    grid = StructuredGrid((5, 5), (1.0, 1.0), dirichlet_faces=("y0",))
    sc = shear_pulse(grid=grid, T=0.1, amplitude=0.1, t_pulse=0.08)
    return run(sc, tau=0.05, eps=0.01)


def test_timeseries_schema_and_roundtrip(tmp_path, small_traj):
    report = emit_outputs(small_traj, str(tmp_path))
    data = read_timeseries(tmp_path / "timeseries.csv")
    assert list(data) == list(TIMESERIES_COLUMNS)
    assert len(data["t"]) == small_traj.n_steps
    # 17 significant digits: values round-trip exactly
    for k, d in enumerate(small_traj.step_diags):
        assert data["E"][k] == d.E
        assert data["min_detF"][k] == d.min_detF
    assert report["all_passed"]


def test_timeseries_v2_appends_korn_lower(tmp_path, small_traj):
    # the 19 columns of version 1 keep their names and order
    assert list(TIMESERIES_COLUMNS) == [
        "step", "t", "M", "H", "Phi_cpl", "W", "E", "xi_step", "xi_reg_step",
        "ext_power", "boundary_heat", "entropy_prod", "min_detF", "hk_bound",
        "korn_const", "mech_residual", "heat_residual", "energy_gap_total",
        "min_theta", "korn_lower"]
    report = emit_outputs(small_traj, str(tmp_path))
    text = (tmp_path / "timeseries.csv").read_text()
    assert text.startswith("# thermovisc-timeseries v2\n")
    lower = read_timeseries(tmp_path / "timeseries.csv")["korn_lower"]
    assert list(lower) == [d.korn_lower for d in small_traj.step_diags]
    assert report["korn_solves"] == sum(np.isfinite(d.korn_const) for d in small_traj.step_diags)
    check = next(c for c in report["checks"] if c["name"] == "korn_lower_positive")
    assert check["passed"] and check["value"] == min(lower)


def test_field_dump_roundtrip(tmp_path, small_traj):
    snap = small_traj.snapshots[-1]
    path = str(tmp_path / "f.bin")
    write_field_dump(path, step=snap.k, t=snap.t, grid=small_traj.grid,
                     config_hash="cafe", arrays={"y": snap.y.values.ravel(),
                                                 "w": snap.w_qp.ravel()})
    meta, arrays = read_field_dump(path)
    assert meta["config_hash"] == "cafe"
    assert int(meta["step"]) == snap.k
    assert np.array_equal(arrays["y"], snap.y.values.ravel())
    assert np.array_equal(arrays["w"], snap.w_qp.ravel())
    with open(path, "rb") as fh:
        assert fh.readline().startswith(b"THERMOVISC-FIELDS 1")


def test_outputs_byte_identical_across_runs(tmp_path):
    grid_args = dict(extents=(5, 5), lengths=(1.0, 1.0), dirichlet_faces=("y0",))
    outs = []
    for sub in ("a", "b"):
        grid = StructuredGrid(**grid_args)
        sc = shear_pulse(grid=grid, T=0.1, amplitude=0.1, t_pulse=0.08)
        traj = run(sc, tau=0.05, eps=0.01)
        d = tmp_path / sub
        emit_outputs(traj, str(d), config_hash="x")
        outs.append(d)
    for name in sorted(os.listdir(outs[0])):
        b1 = (outs[0] / name).read_bytes()
        b2 = (outs[1] / name).read_bytes()
        assert b1 == b2, f"{name} differs between identical runs"


def test_steady_timeseries_rate_columns_zero(tmp_path):
    from thermovisc.presets import steady
    grid = StructuredGrid((5, 5), (1.0, 1.0), dirichlet_faces=("y0",))
    traj = run(steady(grid=grid, T=0.1), tau=0.05, eps=0.01)
    emit_outputs(traj, str(tmp_path / "s"))
    data = read_timeseries(tmp_path / "s" / "timeseries.csv")
    for col in ("xi_step", "xi_reg_step", "ext_power", "boundary_heat",
                "entropy_prod", "energy_gap_total"):
        assert np.allclose(data[col], 0.0, atol=1e-12), col


def test_report_json_structure(tmp_path, small_traj):
    emit_outputs(small_traj, str(tmp_path / "r"))
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert report["scenario"] == "shear_pulse"
    assert isinstance(report["checks"], list)
    assert all({"name", "passed", "value", "threshold"} <= set(c) for c in report["checks"])


# ---------------------------------------------------------------------------
# CLI


def write_cfg(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return str(p)


def test_cli_validate_ok_and_bad(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL)
    assert cli_main(["validate", path]) == 0
    bad = write_cfg(tmp_path, MINIMAL + "\n[material]\nq = 3\n")
    assert cli_main(["validate", bad]) == 1
    out = capsys.readouterr().out
    assert "violation" in out


def test_cli_simulate_writes_outputs(tmp_path, capsys):
    cfg = MINIMAL.replace("extents = 6 6", "extents = 5 5").replace("T = 0.2", "T = 0.1")
    cfg += "\n[loads]\nscenario = shear_pulse\namplitude = 0.1\nt_pulse = 0.08\n"
    cfg += "\n[solver]\ntol_pos = 1e-7\n"
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli_main(["simulate", path, "--out", out]) == 0
    assert (tmp_path / "out" / "timeseries.csv").exists()
    assert (tmp_path / "out" / "fields_000000.bin").exists()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    min_theta = next(c for c in report["checks"] if c["name"] == "min_theta")
    assert min_theta["threshold"] == -1e-7   # [solver] tol_pos, not the default
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "refine"])
def test_cli_reports_a_rejected_step_in_one_line(tmp_path, capsys, monkeypatch, command):
    # a mechanical failure at every attempt survives every halving: one
    # error line with the interval and the reason, exit code 3, no traceback
    import thermovisc.scheme as scheme

    def failing(inc, cfg, frozen):
        raise StepRejectedError("injected mechanical failure")

    monkeypatch.setattr(scheme, "solve_mech", failing)
    path = write_cfg(tmp_path, MINIMAL + "\n[solver]\nmax_step_halvings = 1\n")
    assert cli_main([command, path, "--out", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: step from t = 0 to t = 0.025 rejected after 1 halving(s): "
        "injected mechanical failure"]
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out").exists()


def test_cli_refine_writes_cauchy_table(tmp_path):
    cfg = MINIMAL.replace("extents = 6 6", "extents = 5 5").replace("T = 0.2", "T = 0.1")
    cfg += "\n[loads]\nscenario = shear_pulse\namplitude = 0.1\nt_pulse = 0.08\n"
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "ref")
    code = cli_main(["refine", path, "--tau-list", "0.05", "0.025", "--eps-list", "0.01", "--out", out])
    assert code == 0
    table = (tmp_path / "ref" / "cauchy.csv").read_text().splitlines()
    assert table[0] == "eps,tau_coarse,tau_fine,dy_grad_l2,dtheta_l2"
    assert len(table) == 2
    assert (tmp_path / "ref" / "refine_report.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--tau", "0.03"], "error: T/tau must be an integer (T=0.2, tau=0.03)"),
    (["simulate", "--tau", "0"], "error: tau must be positive (got 0)"),
    (["simulate", "--eps", "-1"], "error: eps must be nonnegative (got -1)"),
    (["simulate", "--tau", "inf"], "error: tau must be finite (got inf)"),
    (["simulate", "--eps", "inf"], "error: eps must be finite (got inf)"),
    (["refine", "--tau-list", "0.025", "0.05"], "error: tau_list must be sorted decreasing"),
    (["refine", "--tau-list", "0.1", "0.03"], "error: T/tau must be an integer"),
    (["refine", "--eps-list", "-0.1"], "error: eps must be nonnegative"),
], ids=["simulate-tau-not-dividing-T", "simulate-tau-zero", "simulate-eps-negative",
        "simulate-tau-inf", "simulate-eps-inf", "refine-tau-list-unsorted",
        "refine-tau-not-dividing-T", "refine-eps-negative"])
def test_cli_overrides_checked_before_running(tmp_path, capsys, argv, message):
    path = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert cli_main(argv[:1] + [path] + argv[1:] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("error:") == 1
    assert not out.exists()


def test_cli_validate_rejects_unsorted_tau_list(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL + "\n[output]\ntau_list = 0.025 0.05\n")
    assert cli_main(["validate", path]) == 1
    assert "[output] tau_list must be sorted decreasing" in capsys.readouterr().out
    # refine with a list that does not divide T stops before any run
    path = write_cfg(tmp_path, MINIMAL.replace("T = 0.2", "T = 0.15")
                     + "\n[output]\ntau_list = 0.1\n")
    rule = "[output] T/tau must be an integer (T=0.15, tau=0.1)"
    assert cli_main(["validate", path]) == 1
    assert f"  - {rule}" in capsys.readouterr().out
    assert cli_main(["refine", path, "--out", str(tmp_path / "r")]) == 1
    assert f"error: {rule}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("dirichlet", ["x1", "x0 x1", "y0 y1"])
def test_cli_refuses_a_clamped_loaded_face(tmp_path, capsys, dirichlet):
    # the traction would sit on a clamped face and the pulse would load nothing
    face = "y1" if "y0" in dirichlet else "x1"
    grid = f"extents = 4 4\ndirichlet = {dirichlet}"
    path = write_cfg(tmp_path, MINIMAL.replace("extents = 6 6", grid)
                     + "\n[loads]\nscenario = shear_pulse\n")
    message = f"the loaded face {face} is clamped (dirichlet = {dirichlet})"
    assert cli_main(["validate", path]) == 1
    assert capsys.readouterr().out == f"{path}: 1 violation(s)\n  - {message}\n"
    out = tmp_path / "out"
    assert cli_main(["simulate", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, violations", [
    (MINIMAL + "\n[material]\nq = 3\n", ["[material] q >= pd/(p-d) violated"]),
    (MINIMAL.replace("extents = 6 6", "extents = 4 4\ndirichlet = y0 y1")
     + "\n[loads]\nscenario = shear_pulse\n", ["the loaded face y1 is clamped"]),
    (MINIMAL + "\n[loads]\ntheta0 = -1\n", ["[loads] theta0 must be nonnegative"]),
    (MINIMAL + "\n[loads]\ntheta_b = 0.5\n",
     ["[loads] theta_b is not a parameter of scenario 'steady'"]),
    (MINIMAL + "\n[loads]\nscenario = isothermal_creep\n\n[solver]\nisothermal = false\n",
     ["[solver] isothermal = false contradicts scenario 'isothermal_creep'"]),
    (MINIMAL.replace("tau = 0.05", "tau = -1") + "\n[loads]\nscenario = shear\n",
     ["[loads] unknown scenario 'shear'", "[time] tau must be positive"]),
], ids=["material", "clamped-loaded-face", "theta0-negative", "theta_b-not-taken",
        "isothermal-contradiction", "unknown-scenario-bad-tau"])
def test_every_command_refuses_a_bad_config_alike(tmp_path, capsys, text, violations):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, text + f"\n[output]\ndirectory = {out}\n")
    assert cli_main(["validate", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{path}: {len(violations)} violation(s)"
    listed = [line.removeprefix("  - ") for line in lines[1:]]
    assert [e[:len(v)] for e, v in zip(listed, violations)] == violations
    for command in ("simulate", "refine"):
        assert cli_main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {e}" for e in listed], command
        assert captured.out == ""
    assert not out.exists()


def test_each_command_builds_one_grid(tmp_path, capsys, monkeypatch):
    built = []
    init = StructuredGrid.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StructuredGrid, "__init__", counted)
    text = ("[grid]\nextents = 4 4\n\n[time]\nT = 0.2\ntau = 0.1\n\n[loads]\n"
            "scenario = shear_pulse\n\n[solver]\nkorn_every = 0\nhk_every = 0\n")
    path = write_cfg(tmp_path, text)
    for argv in (["validate", path], ["simulate", path, "--out", str(tmp_path / "out")]):
        built.clear()
        assert cli_main(argv) == 0
        assert len(built) == 1, argv
    cfg = parse_config(text)
    built.clear()
    cfg.serialize()
    assert built == []


@pytest.mark.parametrize("scenario", sorted(set(PRESETS) - {"steady"}))
def test_loading_presets_refuse_a_clamped_loaded_face(scenario):
    grid = StructuredGrid((3, 3), (1.0, 1.0), dirichlet_faces=("x0", "x1"))
    with pytest.raises(ValueError, match="the loaded face x1 is clamped"):
        PRESETS[scenario](grid=grid)


@pytest.mark.parametrize("scenario", list(PRESETS))
def test_cli_validates_and_simulates_each_scenario(tmp_path, capsys, scenario):
    text = ("[grid]\nextents = 4 4\n\n[time]\nT = 0.2\ntau = 0.1\n\n"
            f"[loads]\nscenario = {scenario}\n\n[solver]\nkorn_every = 0\nhk_every = 0\n")
    path = write_cfg(tmp_path, text)
    assert cli_main(["validate", path]) == 0
    out = tmp_path / "out"
    assert cli_main(["simulate", path, "--out", str(out)]) == 0, capsys.readouterr().out
    written = parse_config((out / "config.ini").read_text())
    assert written.scenario.params == parse_config(text).scenario.params
    assert json.loads((out / "report.json").read_text())["scenario"] == scenario


def test_grid_refuses_a_repeated_fixed_face():
    # the same clamped grid, but another weak-residual test bank and run hash
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL.replace("extents = 6 6", "extents = 6 6\ndirichlet = y0 y0"))
    assert exc.value.errors == ["[grid] the fixed faces must not repeat (got y0 y0)"]
