"""Guard of the benchmark tracer's contract with the package: every name
that ``perfbench/tracer.py`` wraps must exist where the tracer looks it up,
and uninstalling the tracer must put every original back."""

import importlib.util
from pathlib import Path

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
