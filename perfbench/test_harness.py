"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/test_harness.py

They run every workload briefly in both modes and check the result line
and the results file against ``BENCHMARK.json``, check that a malformed
op is counted as a failed op rather than dropped, and check that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import clock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import truth  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# every end-to-end metric the report prints, with its unit
PRINTED_END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "op_p50_wall_s": "s",
    "op_tail_wall_s": "s",
    "ops_per_wall_s": "1/s",
    "steal_frac": "frac",
    "reference_ms": "ms",
    "fail_frac": "frac",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
    "fit_err_rel": "frac",
}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _printed_units(stdout):
    """{metric: unit} from the report lines of a run."""
    units = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3 and not parts[0] == "op":
            units[parts[0]] = parts[2]
    return units


def test_spec_matches_harness():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.REFERENCE) == set(workloads.WORKLOADS)
    assert set(workloads.REFERENCE.values()) <= set(clock.KERNELS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(m["bound"] <= setup[0]["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_prints_every_metric(workload, trace):
    seed = "3"
    proc = _bench("--workload", workload, "--seed", seed, "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))

    printed = _printed_units(proc.stdout)
    if trace == "0":
        want = PRINTED_END_TO_END
    else:
        want = {name: unit for name, (_, unit, _) in tracing.layer_metrics([], {}).items()}
        want.update({"cli.artifact_bytes": "bytes", "trace.overhead_frac": "frac"})
    for name, unit in want.items():
        assert printed.get(name) == unit, name

    stem = f"{workload}-seed{seed}-trace{trace}"
    with open(os.path.join(ROOT, run.OUT_DIR, f"{stem}.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    assert set(record) == {"host", "metrics", "ops"}
    for key in ("nproc", "numpy", "scipy", "blas", "caches", "DCKERNEL_THREADS", "seed"):
        assert key in record["host"]
    assert record["host"]["seed"] == int(seed)
    for name, (value, unit, note) in record["metrics"].items():
        assert printed[name] == unit
    assert len([op for op in record["ops"]]) >= result["attempted"]
    if trace == "1":
        assert os.path.getsize(os.path.join(ROOT, run.OUT_DIR, f"{stem}-spans.jsonl")) > 0


def test_truth_matches_numerical_convolution():
    system = truth.draw_system(np.random.default_rng(5), *workloads.SYSTEM_RATES)
    holds, levels = np.array([0.0, 0.5, 1.3, 2.0]), np.array([1.0, -1.0, 1.0, -1.0])

    def zoh(x):
        return 0.0 if x < 0 else levels[np.searchsorted(holds, x, side="right") - 1]

    def expsum(x):
        return 0.7 * np.exp(-0.3 * x) + 0.2 * np.exp(-2.7 * x)

    for t in (0.7, 2.5, 4.0):
        kinks = [t - h for h in holds if 0.0 < t - h < t]
        want = quad(lambda tau: system.impulse(tau) * zoh(t - tau), 0.0, t, points=kinks, limit=200)[0]
        assert abs(system.zoh_response(np.array([t]), holds, levels)[0] - want) < 1e-10
        want = quad(lambda tau: system.impulse(tau) * expsum(t - tau), 0.0, t)[0]
        assert abs(system.expsum_response(np.array([t]), [0.7, 0.2], [0.3, 2.7])[0] - want) < 1e-10
        want = quad(lambda tau: 1.5 * system.impulse(tau), 0.0, t)[0]
        assert abs(system.step_response(np.array([t]), 1.5)[0] - want) < 1e-10


def test_timing_subtracts_steal_and_scales_to_nominal_speed():
    assert clock.Timing(1.0, 0.25, 0.012, 0.006).seconds == pytest.approx(0.375)
    assert clock.Timing(1.0, 0.0, 0.003, 0.006).seconds == pytest.approx(2.0)
    # steal is read in whole clock ticks, so it can exceed a short op
    assert clock.Timing(0.004, 0.01, 0.006, 0.006).seconds == 0.0


@pytest.mark.parametrize("kernel", sorted(clock.KERNELS))
def test_reference_kernel_times_are_positive(kernel):
    assert 0.0 < clock.Clock(None, kernel).reference_s() < 1.0


def _runner(tmp_path):
    from dckernel import cli

    return run.Runner(cli, checks, clock.Clock(None, "numeric"), str(tmp_path))


def test_malformed_op_counts_as_failed(tmp_path):
    op = workloads.make_op("convolved-fit", 0, 0)
    lines = op.data_csv.splitlines()
    lines[2], lines[3] = lines[3], lines[2]  # times no longer increase
    op.data_csv = "\n".join(lines) + "\n"
    runner = _runner(tmp_path)
    runner.run_op(op)
    assert [r["status"] for r in runner.records] == ["failed"]
    assert "exit code 2" in runner.records[0]["note"]
    attempted, failed, refused, _ = run.summarize(runner.records)
    assert (attempted, failed, refused) == (1, 1, 0)


def test_wrong_output_counts_as_failed(tmp_path):
    op = workloads.make_op("impulse-fit", 0, 0)
    op.fit_tolerance = 1e-6  # no noisy fit is this close
    runner = _runner(tmp_path)
    runner.run_op(op)
    assert runner.records[0]["status"] == "failed"
    assert "fit_err_rel" in runner.records[0]["note"]


def test_long_horizon_refusal_is_counted(tmp_path):
    cycle = workloads.CYCLES["toolkit"]
    index = next(i for i, slot in enumerate(cycle) if slot[0] == "tridiag-tc-50-long")
    runner = _runner(tmp_path)
    runner.run_op(workloads.make_op("toolkit", 0, index))
    assert runner.records[0]["status"] == "refused"
    metrics, attempted, failed = run.end_to_end(runner.records, 0.5, 0.3)
    assert (attempted, failed) == (1, 0)
    assert metrics["fail_frac"][0] == 1.0 and metrics["ok_frac"][0] == 0.0


def test_without_sources_exits_nonzero(tmp_path):
    bare = os.path.join(ROOT, run.OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "toolkit", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
