"""Span recording around the public calls of each thermovisc layer.

Wrappers are installed from outside the program: each function is replaced
where the calling module looks it up (for example ``scheme.solve_mech`` or
``mech.splu``), so the program's source stays untouched.  Spans are kept in
memory as tuples ``(name, start, end, parent, run_id)`` and written out by
the caller when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import time


class Tracer:
    """Records spans and counters; installs and removes the wrappers."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1, run_id)
        self.counters = {}       # (run_id, name) -> number
        self.run_id = 0
        self._stack = []
        self._saved = []         # (owner, attribute, original) to restore

    def count(self, name, value=1):
        key = (self.run_id, name)
        self.counters[key] = self.counters.get(key, 0) + value

    def counter_max(self, name, value):
        key = (self.run_id, name)
        self.counters[key] = max(self.counters.get(key, value), value)

    def wrap(self, name, fn, on_return=None, on_raise=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                stack.pop()
                spans[idx] = (name, start, clock(), parent, self.run_id)
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return traced

    def patch(self, owner, attr, name, **hooks):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def install(self):
        """Wrap the public calls of every layer where they are looked up."""
        from thermovisc import diagnostics, grid, heat, materials, mech, outputs, scheme

        def splu_fill(args, kwargs, lu):
            self.count("mech.splu.fill_nnz", lu.nnz)

        def mech_done(args, kwargs, res):
            self.count("mech.newton_iters", res.iterations)
            self.count("mech.accepted_iterates", len(res.iterate_min_dets))

        def heat_done(args, kwargs, res):
            self.count("heat.newton_iters", res.iterations)

        def rejected(exc):
            if isinstance(exc, mech.StepRejectedError):
                self.count("scheme.step_rejections")

        def hessian_block(args, kwargs, out):
            g, ncomp = args[0], args[1]
            nl = g.nloc * ncomp
            self.counter_max("grid.assemble_hessian.block_mb", g.n_cells * nl * nl * 8 / 1e6)

        self.patch(scheme, "run", "scheme.run")
        self.patch(scheme, "step_load_vector", "scheme.step_load_vector")
        self.patch(scheme, "step_theta_b", "scheme.step_theta_b")
        self.patch(scheme, "solve_mech", "mech.solve_mech",
                   on_return=mech_done, on_raise=rejected)
        self.patch(scheme, "solve_heat", "heat.solve_heat",
                   on_return=heat_done, on_raise=rejected)
        self.patch(heat.HeatIncrement, "__init__", "heat.HeatIncrement")
        for fn in ("incremental_functional", "incremental_gradient", "incremental_hessian"):
            self.patch(mech, fn, f"mech.{fn}")
        self.patch(mech, "splu", "mech.splu", on_return=splu_fill)
        for fn in ("heat_functional", "heat_gradient", "heat_hessian"):
            self.patch(heat, fn, f"heat.{fn}")
        self.patch(heat, "splu", "heat.splu")

        self.patch(grid.StructuredGrid, "__init__", "grid.StructuredGrid")
        for fn in ("assemble_gradient", "eval_kinematics", "eval_scalar",
                   "eval_face_scalar", "dual_norm", "assemble_face_gradient",
                   "assemble_face_hessian"):
            self.patch(grid.StructuredGrid, fn, f"grid.{fn}")
        self.patch(grid.StructuredGrid, "assemble_hessian", "grid.assemble_hessian",
                   on_return=hessian_block)

        for fn, obj in list(vars(materials.MaterialModel).items()):
            if inspect.isfunction(obj) and not fn.startswith("_"):
                self.patch(materials.MaterialModel, fn, f"materials.{fn}")

        self.patch(diagnostics, "compute_step_diagnostics",
                   "diagnostics.compute_step_diagnostics")
        self.patch(diagnostics, "semiconvexity_gap", "mech.semiconvexity_gap")
        self.patch(diagnostics, "korn_constant", "diagnostics.korn_constant")
        self.patch(diagnostics, "hk_determinant_bound", "diagnostics.hk_determinant_bound")
        self.patch(diagnostics, "splu", "diagnostics.splu")
        self.patch(diagnostics.TestBank, "__init__", "diagnostics.TestBank")
        self.patch(diagnostics, "weak_residuals", "diagnostics.weak_residuals")
        self.patch(diagnostics, "run_certificates", "diagnostics.run_certificates")
        self.patch(outputs, "emit_outputs", "outputs.emit_outputs")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _self_times(self, run_id):
        """Span index -> self time, for the spans of one run.

        Self time is the span's duration minus that of its direct children;
        the program is single-threaded, so children never overlap.
        """
        own = {}
        for idx, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid == run_id:
                own[idx] = own.get(idx, 0.0) + (end - start)
                if parent >= 0:
                    own[parent] = own.get(parent, 0.0) - (end - start)
        return own

    def summary(self, run_id):
        """Per span name: calls, total seconds and self seconds for one run.

        The ``materials.total`` entry sums the outermost materials spans, so
        a constitutive kernel calling another is counted once.
        """
        own = self._self_times(run_id)
        table = {}
        mat_total = 0.0
        for idx, self_s in own.items():
            name, start, end, parent, _ = self.spans[idx]
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += self_s
            if name.startswith("materials.") and not self._inside_materials(parent):
                mat_total += end - start
        table["materials.total"] = {"calls": 0, "s": mat_total, "self_s": 0.0}
        return table

    def _inside_materials(self, idx):
        while idx >= 0:
            if self.spans[idx][0].startswith("materials."):
                return True
            idx = self.spans[idx][3]
        return False

    def self_time_under(self, run_id, root_name):
        """Sum of the self times of the root spans and all their descendants."""
        own = self._self_times(run_id)
        inside = set()
        for idx in sorted(own):
            name, _, _, parent, _ = self.spans[idx]
            if name == root_name or parent in inside:
                inside.add(idx)
        return sum(own[idx] for idx in inside)

    def counter(self, run_id, name):
        return self.counters.get((run_id, name), 0)
