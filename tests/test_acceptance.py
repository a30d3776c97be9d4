"""Release gate: one test per acceptance criterion, pinned tolerances.

Each test prints one ``ACCEPTANCE n (<label>): PASS|FAIL`` line (visible
with ``pytest -s`` or in the captured output of a failure) and asserts
both that every underlying check passed and that its threshold still
equals the value pinned here, so a silently loosened suite cannot slip
through the gate.
"""

import json
import subprocess
import sys
import time

from dckernel import verification

LE = "<="
GE = ">="


def _gate(number, label, checks, pins, elapsed=None, budget=None):
    by = {c.name: c for c in checks}
    problems = []
    for name, (threshold, comparison) in pins.items():
        check = by.get(name)
        if check is None:
            problems.append(f"check {name} missing")
        elif check.threshold != threshold or check.comparison != comparison:
            problems.append(
                f"check {name} pins ({check.threshold}, {check.comparison}), "
                f"expected ({threshold}, {comparison})"
            )
        elif not check.passed:
            problems.append(check.line())
    if budget is not None and elapsed > budget:
        problems.append(f"took {elapsed:.2f}s, budget {budget:g}s")
    verdict = "FAIL" if problems else "PASS"
    print(f"ACCEPTANCE {number} ({label}): {verdict}")
    assert not problems, "\n".join(problems + [c.line() for c in checks])


def test_acceptance_1_kernel_identities():
    start = time.perf_counter()
    checks = verification.identity_checks()
    elapsed = time.perf_counter() - start
    pins = {
        "identity.ss": (1e-13, LE),
        "identity.tc": (1e-13, LE),
        "identity.dc_narrow": (1e-13, LE),
        "identity.dc_wide": (1e-13, LE),
    }
    _gate(1, "kernel identities", checks, pins, elapsed, budget=1.0)


def test_acceptance_2_eigen_expansion():
    start = time.perf_counter()
    checks = verification.mercer_checks()
    elapsed = time.perf_counter() - start
    pins = {
        "mercer.eigen_equation.spline1": (1e-6, LE),
        "mercer.eigen_equation.genspline1": (1e-6, LE),
        "mercer.eigen_equation.dc": (1e-6, LE),
        "mercer.orthonormality.spline1": (1e-6, LE),
        "mercer.orthonormality.genspline1": (1e-6, LE),
        "mercer.orthonormality.dc": (1e-6, LE),
        "mercer.expansion_sup_error": (2.1e-4, LE),
    }
    _gate(2, "eigen expansion", checks, pins, elapsed, budget=30.0)


def test_acceptance_3_norms():
    checks = verification.norm_checks()
    pins = {
        "norm.quadrature_vs_closed_form": (1e-8, LE),
        "norm.series_vs_closed_form": (2e-2, LE),
        "norm.reproducing_property": (1e-6, LE),
        "norm.tc_dc_consistency": (1e-12, LE),
    }
    _gate(3, "function-space norms", checks, pins)


def test_acceptance_4_maxent_constructions():
    checks = verification.maxent_checks(verification.DEFAULT_SEED)
    pins = {
        "maxent.cumulative_covariance": (1e-13, LE),
        "maxent.recursion_covariance": (1e-13, LE),
        "maxent.constraint_residuals": (1e-13, LE),
        "maxent.entropy_margin": (1e-2, GE),
        "maxent.mc_covariance_cumulative": (3.0, LE),
        "maxent.mc_covariance_recursion": (3.0, LE),
        "maxent.mc_constraints": (3.0, LE),
    }
    _gate(4, "maximum-entropy constructions", checks, pins)


def test_acceptance_5_tridiagonal_inverse():
    checks = verification.tridiag_checks(verification.DEFAULT_SEED)
    pins = {
        "tridiag.benchmark_dense_inverse_offband": (1e-8, LE),
        "tridiag.benchmark_constructive_inverse": (1e-10, LE),
        "tridiag.random_draws": (1e-10, LE),
        "tridiag.second_order_negative_control": (1e-3, GE),
    }
    _gate(5, "tridiagonal inverse", checks, pins)


def test_acceptance_6_estimator():
    checks = verification.estimator_checks()
    pins = {
        "estimator.impulse_collapses_to_gram": (1e-12, LE),
        "estimator.structured_vs_dense": (1e-10, LE),
        "estimator.noise_free_recovery": (1e-3, LE),
        "estimator.coefficient_norm_monotone": (1.0 + 1e-12, LE),
        "estimator.quadrature_self_convergence": (2.0, GE),
        "estimator.closed_form_vs_quadrature": (1e-10, LE),
    }
    _gate(6, "impulse-response estimator", checks, pins)


def test_acceptance_7_cli_verify_reproducible(tmp_path):
    start = time.perf_counter()
    reports = []
    stdouts = []
    for run in ("first", "second"):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "dckernel.cli", "verify", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        reports.append((out / "verify_report.json").read_bytes())
        stdouts.append(proc.stdout)
    elapsed = time.perf_counter() - start

    problems = []
    if reports[0] != reports[1]:
        problems.append("verify_report.json differs between identical runs")
    if "verify: PASS" not in stdouts[0]:
        problems.append("first run did not report PASS")
    payload = json.loads(reports[0])
    if not payload["passed"]:
        problems.append("report payload records a failure")
    if elapsed > 60.0:
        problems.append(f"two runs took {elapsed:.2f}s, budget 60s")
    verdict = "FAIL" if problems else "PASS"
    print(f"ACCEPTANCE 7 (reproducible verify command): {verdict}")
    assert not problems, "\n".join(problems)
