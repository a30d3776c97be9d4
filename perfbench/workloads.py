"""The benchmark's workloads: fixed cycles of CLI commands with seeded inputs.

A workload is a cycle of op templates run in a fixed order, over and over,
by one client that waits for each command before sending the next (a closed
loop).  Command, kernel family and problem size are fixed per slot, so
every seed runs the same mix; the seed draws everything else -- the true
system, the input signal, the noise, kernel hyperparameters and grid
extents -- from ``numpy.random.default_rng((seed, op_index))``, so op ``i``
of a seed is the same wherever it falls in a run.

Why each workload exists:

* ``convolved-fit`` -- ``estimate`` on inputs that must be convolved: mostly
  zero-order-hold (ZOH) ``u`` columns, the CLI default, at n = 6..13, plus
  step and exponential-sum inputs at n = 20..40, over tc/dc/ss, some with a
  ``gamma_grid``.  The quadrature ``output_kernel`` (about n^3.7) does
  nearly all the work and the solve does almost none, so a closed-form or
  semiseparable assembly shows here.
* ``impulse-fit`` -- ``estimate`` with an impulse input at n = 1000..3000
  over tc/dc/ss, six of its 14 slots with an 8-point ``gamma_grid``.  It
  bypasses quadrature; dense Gram assembly, Cholesky, the grid search and
  O(n^2) memory dominate, so a banded solve shows here and a quadrature
  change should not.
* ``toolkit`` -- ``sample`` (both constructions), ``tridiag``, ``expand``,
  ``norm`` with a series truncation, ``verify`` and small impulse fits
  (n <= 900, a few percent of the time; they give the workload a fit
  error).  It exercises maxent, the kernelmat recursion, mercer, rkhs,
  quadrature, verification and CSV artifact writing while the estimator
  is nearly absent.  Some ``sample``/``tridiag`` slots use
  long-horizon grids (2 beta t up to 40); the recursion and ``tridiag``
  ones among them currently stop with a ConditioningError.  Those ops are
  kept and counted in ``fail_frac``; they are not re-seeded away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import truth

SNR_DB = 30.0

# Sanity ceilings on the relative L2 error of a fit (fit_err_rel).  They
# catch a broken fit, not a slightly worse one: a ZOH fit from 6..13
# samples carries a large bias, an impulse fit from 1000+ samples does not.
FIT_TOLERANCE = {"convolved-fit": 0.6, "impulse-fit": 0.2, "toolkit": 0.3}

KERNELS = {
    "tc": {"variant": "tc", "beta": 0.5},
    "dc": {"variant": "dc", "alpha": 0.6, "beta": 0.4},
    "ss": {"variant": "ss", "alpha": 0.6},
}

# the true systems' decay rates stay above every kernel's rate, so the
# true response has a finite norm in each kernel's space
SYSTEM_RATES = (1.0, 1.4)


@dataclass
class Op:
    """One CLI command with its inputs and what its outputs must satisfy."""

    index: int
    slot: str
    command: str
    config: dict
    data_csv: str | None = None
    system: truth.TrueSystem | None = None
    fit_tolerance: float | None = None
    # long-horizon recursion/tridiag ops: a ConditioningError is the
    # current outcome and is counted as a failed op
    may_refuse: bool = False
    # index of an earlier op whose artifacts this one must reproduce
    # byte for byte, and whether a later op repeats this one
    repeat_of: int | None = None
    repeated: bool = False
    checks: dict = field(default_factory=dict)


def _csv(rows, header):
    lines = [header]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _gamma_grid(variance):
    return [float(g) for g in variance * np.logspace(-2.0, 1.5, 8)]


def _fit(rng, index, slot, variant, n, kind, grid):
    system = truth.draw_system(rng, *SYSTEM_RATES)
    estimation = {"input": {"kind": kind}}
    if kind == "data":
        step = 6.0 / n
        times = np.arange(n) * step
        levels = rng.choice([-1.0, 1.0], n)  # random binary levels, as in system identification
        clean = system.zoh_response(times, times, levels)
    elif kind == "impulse":
        times = np.arange(1, n + 1) * (8.0 / n)
        clean = system.impulse(times)
    elif kind == "step":
        times = np.arange(1, n + 1) * (8.0 / n)
        amplitude = float(rng.uniform(0.5, 2.0))
        estimation["input"]["amplitude"] = amplitude
        clean = system.step_response(times, amplitude)
    else:  # expsum
        times = np.arange(1, n + 1) * (8.0 / n)
        amplitudes = [1.0, float(rng.uniform(-0.8, 0.8))]
        rates = [float(rng.uniform(0.2, 0.5)), float(rng.uniform(2.5, 3.0))]
        estimation["input"].update(amplitudes=amplitudes, rates=rates)
        clean = system.expsum_response(times, amplitudes, rates)
    outputs, variance = truth.add_noise(rng, clean, SNR_DB)
    estimation["noise_variance"] = variance
    if grid:
        estimation["gamma_grid"] = _gamma_grid(variance)
    if kind == "data":
        data = _csv(zip(times, outputs, levels), "time,y,u")
    else:
        data = _csv(zip(times, outputs), "time,y")
    return Op(
        index,
        slot,
        "estimate",
        {"kernel": dict(KERNELS[variant]), "estimation": estimation},
        data_csv=data,
        system=system,
        checks={"n": n, "grid": grid},
    )


SHORT = (8.0, 16.0)  # 2 beta t at the end of an ordinary grid
LONG = (34.0, 40.0)  # long horizon: past the recursion's absolute gap floor


def _halfline_kernel(rng, variant):
    beta = float(rng.uniform(0.3, 0.7))
    if variant == "tc":
        return {"variant": "tc", "beta": beta}
    return {"variant": "dc", "alpha": float(beta * rng.uniform(1.1, 1.6)), "beta": beta}


def _grid(beta, num, horizon):
    """linspace grid from 0.1 to where 2 beta t reaches ``horizon``."""
    return {"start": 0.1, "stop": float(horizon / (2.0 * beta)), "num": num}


def _sample(rng, index, slot, variant, construction, count, num, horizon):
    kernel = _halfline_kernel(rng, variant)
    grid = _grid(kernel["beta"], num, rng.uniform(*horizon))
    config = {
        "kernel": kernel,
        "sampling": {
            "seed": int(rng.integers(0, 2**31)),
            "count": count,
            "construction": construction,
            "grid": grid,
        },
    }
    return Op(
        index,
        slot,
        "sample",
        config,
        may_refuse=horizon is LONG and construction == "recursion",
        checks={"count": count, "num": num},
    )


def _tridiag(rng, index, slot, variant, num, horizon):
    kernel = _halfline_kernel(rng, variant)
    grid = _grid(kernel["beta"], num, rng.uniform(*horizon))
    return Op(
        index,
        slot,
        "tridiag",
        {"kernel": kernel, "tridiag": {"grid": grid}},
        may_refuse=horizon is LONG,
        checks={"num": num},
    )


def _expand(rng, index, slot, variant, truncation, points):
    if variant == "spline1":
        kernel = {"variant": "spline1"}
    else:
        kernel = {"variant": "genspline1", "rho": float(rng.uniform(0.0, 0.5))}
    config = {"kernel": kernel, "expand": {"truncation": truncation, "grid_points": points}}
    return Op(index, slot, "expand", config, checks={"truncation": truncation, "points": points})


def _norm(rng, index, slot, variant, truncation):
    kernel = _halfline_kernel(rng, variant)
    threshold = kernel.get("alpha", kernel["beta"])
    gamma = float(threshold * rng.uniform(1.5, 3.0))
    config = {"kernel": kernel, "norm": {"gamma": gamma, "truncation": truncation}}
    return Op(index, slot, "norm", config, checks={"truncation": truncation})


def _verify(rng, index, slot):
    # the suite's own pinned seed: its Monte-Carlo checks are 3-standard-
    # error tests, which some other seeds fail by design
    return Op(index, slot, "verify", {})


# Each slot: (label, builder, arguments).  A ("repeat", k) slot reruns the
# op of slot k in the same cycle with identical inputs.
#
# Runs are whole cycles, at least three, so every run of a workload sees
# the same mix.  Slot sizes are chosen so that the median op falls inside
# a group of slots of similar cost, and so that the four or more heaviest
# slots (12 or more ops in three cycles) hold the op with 10 ops beyond
# it; the two statistics then do not jump when a run completes one cycle
# more or less.
CYCLES = {
    "convolved-fit": [
        ("zoh-tc-6", _fit, ("tc", 6, "data", False)),
        ("zoh-dc-7", _fit, ("dc", 7, "data", False)),
        ("step-tc-24", _fit, ("tc", 24, "step", False)),
        ("expsum-dc-20", _fit, ("dc", 20, "expsum", False)),
        ("zoh-ss-9", _fit, ("ss", 9, "data", False)),
        ("zoh-dc-9", _fit, ("dc", 9, "data", False)),
        ("zoh-tc-8-grid", _fit, ("tc", 8, "data", True)),
        ("step-ss-30", _fit, ("ss", 30, "step", False)),
        ("zoh-tc-9", _fit, ("tc", 9, "data", False)),
        ("zoh-dc-8-grid", _fit, ("dc", 8, "data", True)),
        ("expsum-tc-24", _fit, ("tc", 24, "expsum", False)),
        ("zoh-ss-8-grid", _fit, ("ss", 8, "data", True)),
        ("step-ss-40-grid", _fit, ("ss", 40, "step", True)),
        ("zoh-tc-12", _fit, ("tc", 12, "data", False)),
        ("zoh-dc-12", _fit, ("dc", 12, "data", False)),
        ("zoh-ss-12", _fit, ("ss", 12, "data", False)),
        ("zoh-dc-10-grid", _fit, ("dc", 10, "data", True)),
        ("repeat", None, (0,)),
    ],
    "impulse-fit": [
        # three light slots, six of about one cost (n = 2000, or 1200 with
        # a grid) that hold the median, five heavy ones of about one cost
        # (n = 3000, or 1800 with a grid) that hold the tail
        ("impulse-tc-1000", _fit, ("tc", 1000, "impulse", False)),
        ("impulse-dc-1200-grid", _fit, ("dc", 1200, "impulse", True)),
        ("impulse-ss-2000", _fit, ("ss", 2000, "impulse", False)),
        ("impulse-tc-1800-grid", _fit, ("tc", 1800, "impulse", True)),
        ("impulse-ss-1500", _fit, ("ss", 1500, "impulse", False)),
        ("impulse-tc-1200-grid", _fit, ("tc", 1200, "impulse", True)),
        ("impulse-dc-3000", _fit, ("dc", 3000, "impulse", False)),
        ("impulse-dc-2000", _fit, ("dc", 2000, "impulse", False)),
        ("impulse-ss-1800-grid", _fit, ("ss", 1800, "impulse", True)),
        ("impulse-ss-1200-grid", _fit, ("ss", 1200, "impulse", True)),
        ("impulse-tc-3000", _fit, ("tc", 3000, "impulse", False)),
        ("impulse-tc-2000", _fit, ("tc", 2000, "impulse", False)),
        ("impulse-dc-1800-grid", _fit, ("dc", 1800, "impulse", True)),
        ("repeat", None, (0,)),
    ],
    "toolkit": [
        ("sample-cumulative-dc-1000x200", _sample, ("dc", "cumulative", 1000, 200, SHORT)),
        ("tridiag-dc-40", _tridiag, ("dc", 40, SHORT)),
        ("norm-dc-1000", _norm, ("dc", 1000)),
        ("estimate-impulse-ss-800", _fit, ("ss", 800, "impulse", False)),
        ("sample-recursion-tc-1000x200", _sample, ("tc", "recursion", 1000, 200, SHORT)),
        ("expand-genspline1-1000x100", _expand, ("genspline1", 1000, 100)),
        ("tridiag-tc-50-long", _tridiag, ("tc", 50, LONG)),
        ("estimate-impulse-tc-600-grid", _fit, ("tc", 600, "impulse", True)),
        ("verify", _verify, ()),
        ("tridiag-dc-150", _tridiag, ("dc", 150, SHORT)),
        ("estimate-impulse-dc-900", _fit, ("dc", 900, "impulse", False)),
        ("sample-recursion-dc-500x100-long", _sample, ("dc", "recursion", 500, 100, LONG)),
        ("sample-cumulative-tc-500x200-long", _sample, ("tc", "cumulative", 500, 200, LONG)),
        ("estimate-impulse-ss-400", _fit, ("ss", 400, "impulse", False)),
        ("norm-tc-1000", _norm, ("tc", 1000)),
        ("sample-recursion-dc-1000x200", _sample, ("dc", "recursion", 1000, 200, SHORT)),
        ("estimate-impulse-tc-700-grid", _fit, ("tc", 700, "impulse", True)),
        ("tridiag-tc-80", _tridiag, ("tc", 80, SHORT)),
        ("expand-spline1-1000x100", _expand, ("spline1", 1000, 100)),
        ("estimate-impulse-dc-700-grid", _fit, ("dc", 700, "impulse", True)),
        ("sample-cumulative-tc-1000x200", _sample, ("tc", "cumulative", 1000, 200, SHORT)),
        ("tridiag-tc-200", _tridiag, ("tc", 200, SHORT)),
        ("estimate-impulse-ss-600-grid", _fit, ("ss", 600, "impulse", True)),
        ("estimate-impulse-tc-300-grid", _fit, ("tc", 300, "impulse", True)),
        ("repeat", None, (0,)),
    ],
}

WORKLOADS = tuple(CYCLES)

# The reference kernel op times are scaled by (see ``clock.py``): the one
# whose time tracked the workload's op times across runs.
REFERENCE = {"convolved-fit": "numeric", "impulse-fit": "numeric", "toolkit": "mixed"}


def make_op(workload: str, seed: int, index: int) -> Op:
    """Op number ``index`` of a run; depends only on (workload, seed, index)."""
    cycle = CYCLES[workload]
    label, builder, args = cycle[index % len(cycle)]
    if builder is None:
        first = index - index % len(cycle) + args[0]
        original = make_op(workload, seed, first)
        original.index = index
        original.slot = f"repeat:{original.slot}"
        original.repeat_of = first
        original.repeated = False
        return original
    op = builder(np.random.default_rng([seed, index]), index, label, *args)
    if op.command == "estimate":
        op.fit_tolerance = FIT_TOLERANCE[workload]
    op.repeated = any(b is None and a[0] == index % len(cycle) for _, b, a in cycle)
    return op


# Slots run once before timing so that imports and first-call set-up are
# not charged to the first timed ops: the cheapest slot of each command,
# and every slot of the fit workloads but the heavy impulse ones: without
# that, their first runs were 10-50% slower than their later ones (first
# use fills the quadrature rule cache and grows the allocator's heap).
WARMUP_SLOTS = {
    "convolved-fit": tuple(range(len(CYCLES["convolved-fit"]) - 1)),
    "impulse-fit": (0, 1, 2, 4, 5, 7, 9, 11),
    "toolkit": (1, 2, 5, 8, 12, 13),
}
