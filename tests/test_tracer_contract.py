"""Guard of the benchmark tracer's contract with the package: every name
that ``perfbench/tracer.py`` wraps must exist where the tracer looks it up,
every result field its hooks read must be there, and uninstalling the
tracer must put every original back."""

import importlib.util
from pathlib import Path

from thermovisc import diagnostics, outputs, scheme
from thermovisc.grid import StructuredGrid
from thermovisc.presets import shear_pulse

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patched_name():
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()      # raises AttributeError on a deleted or renamed name
        patched = list(tracer._saved)
        wrapped = [getattr(owner, attr) is not original for owner, attr, original in patched]
    finally:
        tracer.uninstall()
    names = {f"{owner.__name__}.{attr}" for owner, attr, _ in patched}
    assert {"thermovisc.heat.splu", "thermovisc.mech.splu",
            "StructuredGrid.assemble_face_hessian", "StructuredGrid.eval_face_scalar",
            "thermovisc.diagnostics.korn_constant",
            "thermovisc.diagnostics.hk_determinant_bound",
            "thermovisc.diagnostics.weak_residuals", "TestBank.__init__"} <= names
    assert all(wrapped)
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


def test_traced_step_feeds_every_counter_the_hooks_read(tmp_path):
    # one loaded step through the benchmark's pipeline: a hook that reads a
    # result field the program dropped raises here
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        grid = StructuredGrid((4, 4), (1.0, 1.0), dirichlet_faces=("y0",))
        sc = shear_pulse(grid=grid, T=0.05, amplitude=0.15, t_pulse=0.1)
        traj = scheme.run(sc, 0.05, 0.01)
        outputs.emit_outputs(traj, str(tmp_path))
        bank = diagnostics.TestBank(grid, sc.T, n_elements=2, seed=1)
        diagnostics.weak_residuals(traj, bank)
    finally:
        tracer.uninstall()
    for name in ("mech.newton_iters", "mech.accepted_iterates", "mech.splu.fill_nnz"):
        assert tracer.counter(0, name) > 0, name
    assert {"scheme.run", "outputs.emit_outputs", "diagnostics.weak_residuals"} <= {
        span[0] for span in tracer.spans}
