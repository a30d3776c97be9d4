"""Spans around calls into each dckernel layer, recorded from outside.

`Tracer.install` replaces every public function of the layer modules with
a wrapper that records a span (name, start, end, parent, op id), and also
rebinds the copies other dckernel modules imported by name (for example
``estimator.eval_kernel``, ``estimator.assemble``,
``maxent.markov_factors``), so calls between layers are seen too.
`Tracer.uninstall` restores the originals; nothing under ``src/`` is
edited.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans cover.
Calls are nested and single-threaded, so child spans never overlap and the
covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "cli",
    "kernels",
    "quadrature",
    "mercer",
    "rkhs",
    "maxent",
    "kernelmat",
    "estimator",
    "verification",
)


def _eval_points(spec, t, s, *rest, **kw):
    return int(np.broadcast(np.asarray(t), np.asarray(s)).size)


def _assemble_bytes(spec, grid, *rest, **kw):
    return 8 * grid.n * grid.n


def _cholesky_flops(A, *rest, **kw):
    n = np.shape(A)[0]
    return n ** 3 / 3.0


def _normal_values(seed, count, n, *rest, **kw):
    return int(count) * int(n)


# Work computed from a call's arguments (not measured): elements a kernel
# evaluation produces, bytes of a dense Gram matrix, Cholesky flops,
# normal variates drawn.
WORK = {
    "kernels.eval_kernel": _eval_points,
    "kernelmat.assemble": _assemble_bytes,
    "estimator.solve_coefficients": _cholesky_flops,
    "maxent.standard_normal_matrix": _normal_values,
}

SECTION_FUNCS = {
    "verification.identity_checks": "identity",
    "verification.mercer_checks": "mercer",
    "verification.norm_checks": "norm",
    "verification.maxent_checks": "maxent",
    "verification.tridiag_checks": "tridiag",
    "verification.estimator_checks": "estimator",
}


class Tracer:
    """Records spans while an op id is set; see the module docstring."""

    def __init__(self):
        self.spans = []  # (op, name, start, end, parent index, work)
        self._stack = []
        self.op = None
        self._patches = []
        self._wrappers = {}

    def _wrap(self, func, name):
        spans = self.spans
        stack = self._stack
        work_of = WORK.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self.op is None:
                return func(*args, **kwargs)
            work = work_of(*args, **kwargs) if work_of else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (self.op, name, start, end, parent, work)

        return traced

    def install(self):
        if not self._wrappers:
            for layer in LAYERS:
                module = importlib.import_module(f"dckernel.{layer}")
                for attr, obj in vars(module).items():
                    if (
                        inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and not attr.startswith("_")
                    ):
                        self._wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dckernel" and not mod_name.startswith("dckernel."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                op, name, start, end, parent, work = span
                fh.write(
                    json.dumps(
                        {"op": op, "name": name, "start": start, "end": end,
                         "parent": parent, "work": work}
                    )
                    + "\n"
                )


def self_times(spans):
    """Self time of each span, in span order."""
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, op_commands):
    """Per-layer metrics from spans, every value per traced op.

    ``op_commands`` maps each traced op id to its CLI command.  Returns
    ``{name: (value, unit, computed)}``; ``computed`` marks work counts
    derived from call arguments rather than measured.
    """
    ops = max(len(op_commands), 1)
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    module_self = defaultdict(float)
    work = defaultdict(float)
    total = defaultdict(float)
    main_wall = defaultdict(list)
    for span, own_s in zip(spans, own):
        op, name, start, end, _, w = span
        calls[name] += 1
        self_s[name] += own_s
        module_self[name.split(".")[0]] += own_s
        total[name] += end - start
        if w is not None:
            work[name] += w
        if name == "cli.main":
            main_wall[op_commands[op]].append(end - start)

    out = {}

    def put(name, value, unit, computed=False):
        out[name] = (value, unit, computed)

    for fn in ("output_kernel", "solve_coefficients", "grid_search_gamma", "reconstruct"):
        put(f"estimator.{fn}.calls", calls[f"estimator.{fn}"] / ops, "count")
        put(f"estimator.{fn}.self_s", self_s[f"estimator.{fn}"] / ops, "s")
    put("estimator.solve_coefficients.flops", work["estimator.solve_coefficients"] / ops, "flop", True)
    put("kernels.eval_kernel.calls", calls["kernels.eval_kernel"] / ops, "count")
    put("kernels.eval_kernel.points", work["kernels.eval_kernel"] / ops, "count", True)
    put("kernels.eval_kernel.self_s", self_s["kernels.eval_kernel"] / ops, "s")
    for fn in ("assemble", "markov_factors", "tridiagonal_inverse", "psd_check"):
        put(f"kernelmat.{fn}.self_s", self_s[f"kernelmat.{fn}"] / ops, "s")
    put("kernelmat.assemble.bytes", work["kernelmat.assemble"] / ops, "bytes", True)
    put("maxent.standard_normal_matrix.self_s", self_s["maxent.standard_normal_matrix"] / ops, "s")
    put("maxent.standard_normal_matrix.values", work["maxent.standard_normal_matrix"] / ops, "count", True)
    put("maxent.sample_dc_process.self_s", self_s["maxent.sample_dc_process"] / ops, "s")
    put("maxent.sample_dc_markov.self_s", self_s["maxent.sample_dc_markov"] / ops, "s")
    put("mercer.expansion_grid.self_s", self_s["mercer.expansion_grid"] / ops, "s")
    put("rkhs.dc_norm_integral.calls", calls["rkhs.dc_norm_integral"] / ops, "count")
    put("quadrature.integrate_refining.calls", calls["quadrature.integrate_refining"] / ops, "count")
    put("quadrature.integrate_unit.calls", calls["quadrature.integrate_unit"] / ops, "count")
    for layer in LAYERS:
        put(f"{layer}.self_s", module_self[layer] / ops, "s")
    verify_ops = max(len(main_wall["verify"]), 1)
    for func, section in SECTION_FUNCS.items():
        put(f"verification.{section}.s", total[func] / verify_ops, "s")
    for command in ("estimate", "verify", "sample", "expand", "norm", "tridiag"):
        walls = main_wall[command]
        put(f"cli.{command}.p50_s", statistics.median(walls) if walls else 0.0, "s")
    return out
