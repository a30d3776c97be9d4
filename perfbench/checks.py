"""Per-op output checks.

Every op is checked after it returns; a failed check makes the op a failed
op, counted in ``fail_frac`` and never dropped.  Reference values come from
the benchmark's own closed forms (``truth``) wherever one exists; the CLI's
config hash is recomputed with ``dckernel.cli``'s public functions.
"""

from __future__ import annotations

import filecmp
import json
import math
import os

import numpy as np

import truth

ARTIFACTS = {
    "estimate": ("estimate.csv", "report.json"),
    "verify": ("verify_report.json",),
    "sample": ("samples.csv",),
    "expand": ("expansion.csv",),
    "norm": ("norm.csv",),
    "tridiag": ("tridiag.csv", "tridiag_offband.csv"),
}

NORM_REL_TOL = 1e-6  # quadrature rel_tol is 1e-8 by default
TRIDIAG_RESIDUAL_TOL = 1e-8


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _csv_rows(path, command, cfg_hash):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(
        lines and lines[0] == f"# dckernel {command} config={cfg_hash}",
        f"{os.path.basename(path)}: missing or wrong config-hash header",
    )
    return lines[1], lines[2:]


def _matrix(rows, columns):
    return np.array([[float(v) for v in row.split(",")] for row in rows]).reshape(-1, columns)


def _check_estimate(op, out, cfg_hash, stdout):
    header, rows = _csv_rows(os.path.join(out, "estimate.csv"), "estimate", cfg_hash)
    _require(header == "time,g_hat", "estimate.csv: bad column header")
    table = _matrix(rows, 2)
    _require(table.shape[0] == 200, "estimate.csv: expected 200 rows")
    _require(np.all(np.isfinite(table)), "estimate.csv: non-finite values")
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    _require(report.get("config_hash") == cfg_hash, "report.json: wrong config_hash")
    _require(
        (report.get("gamma_search") is not None) == bool(op.checks["grid"]),
        "report.json: gamma_search present iff gamma_grid is set",
    )
    _require(len(report["coefficients"]) == op.checks["n"], "report.json: wrong coefficient count")
    err = truth.relative_l2_error(table[:, 1], op.system.impulse(table[:, 0]))
    _require(
        err <= op.fit_tolerance,
        f"fit_err_rel {err:.3g} above the sanity tolerance {op.fit_tolerance}",
    )
    return err


def _check_verify(op, out, cfg_hash, stdout):
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    _require(last.startswith("verify: PASS"), f"verify did not report PASS: {last!r}")
    with open(os.path.join(out, "verify_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    _require(report.get("config_hash") == cfg_hash, "verify_report.json: wrong config_hash")
    _require(report.get("passed") is True, "verify_report.json: passed is not true")


def _check_sample(op, out, cfg_hash, stdout):
    header, rows = _csv_rows(os.path.join(out, "samples.csv"), "sample", cfg_hash)
    count, num = op.checks["count"], op.checks["num"]
    _require(header == "draw,time,value", "samples.csv: bad column header")
    _require(len(rows) == count * num, f"samples.csv: {len(rows)} rows, want {count * num}")
    for row, draw in ((rows[0], 0), (rows[-1], count - 1)):
        fields = row.split(",")
        _require(int(fields[0]) == draw, "samples.csv: draw index out of order")
        _require(all(math.isfinite(float(v)) for v in fields[1:]), "samples.csv: non-finite value")


def _check_expand(op, out, cfg_hash, stdout):
    header, rows = _csv_rows(os.path.join(out, "expansion.csv"), "expand", cfg_hash)
    _require(header == "row,col,x,y,truncated,exact,abs_error", "expansion.csv: bad column header")
    table = _matrix(rows, 7)
    points, truncation = op.checks["points"], op.checks["truncation"]
    _require(table.shape[0] == points * points, "expansion.csv: wrong row count")
    x, y = table[:, 2], table[:, 3]
    rho = op.config["kernel"].get("rho", 0.0)
    exact = (x * y) ** rho * np.minimum(x, y)
    _require(np.allclose(table[:, 5], exact, rtol=1e-13, atol=1e-15), "expansion.csv: exact column wrong")
    # sum over i > M of 2 / ((i - 1/2)^2 pi^2), bounded by the integral;
    # the (x y)^rho weight is at most 1 on the unit square
    bound = 2.0 / (math.pi ** 2 * (truncation - 0.5))
    _require(float(np.max(table[:, 6])) <= bound, "expansion.csv: error above the tail bound")


def _check_norm(op, out, cfg_hash, stdout):
    header, rows = _csv_rows(os.path.join(out, "norm.csv"), "norm", cfg_hash)
    _require(
        header == "gamma,norm_sq_quadrature,norm_sq_series,norm_sq_closed_form",
        "norm.csv: bad column header",
    )
    _require(len(rows) == 1, "norm.csv: expected one row")
    gamma, quad, series, closed = rows[0].split(",")
    quad, closed = float(quad), float(closed)
    _require(
        abs(quad - closed) <= NORM_REL_TOL * abs(closed),
        "norm.csv: quadrature disagrees with the closed form",
    )
    # partial series sums approach the norm from below
    _require(0.0 < float(series) <= closed * (1.0 + NORM_REL_TOL), "norm.csv: series value out of range")


def _check_tridiag(op, out, cfg_hash, stdout):
    num = op.checks["num"]
    header, rows = _csv_rows(os.path.join(out, "tridiag.csv"), "tridiag", cfg_hash)
    _require(header == "row,col,kernel_value,inverse_value", "tridiag.csv: bad column header")
    table = _matrix(rows, 4)
    _require(table.shape[0] == num * num, "tridiag.csv: wrong row count")
    offband = np.abs(table[:, 0] - table[:, 1]) > 1
    _require(np.all(table[offband, 3] == 0.0), "tridiag.csv: inverse not exactly tridiagonal")
    header, rows = _csv_rows(os.path.join(out, "tridiag_offband.csv"), "tridiag", cfg_hash)
    _require(header == "dense_offband_rel,identity_residual", "tridiag_offband.csv: bad column header")
    residual = float(rows[0].split(",")[1])
    _require(residual <= TRIDIAG_RESIDUAL_TOL, f"tridiag identity residual {residual:.3g} too large")


# each returns the fit error for an estimate, None otherwise
CHECKERS = {
    "estimate": _check_estimate,
    "verify": _check_verify,
    "sample": _check_sample,
    "expand": _check_expand,
    "norm": _check_norm,
    "tridiag": _check_tridiag,
}


def check_op(op, cli, out, code, stdout, stderr):
    """Check one finished op.

    Returns ``(status, fit_err, note)`` with status ``"ok"``, ``"refused"``
    (a ConditioningError on a slot where that is the current outcome) or
    ``"failed"``; ``fit_err`` is the relative L2 error of an ``estimate``.
    """
    if code != 0:
        if op.may_refuse and code == 1 and stderr.startswith("failure:") and "gap" in stderr:
            return "refused", None, stderr.strip()
        return "failed", None, f"exit code {code}: {stderr.strip()[:200]}"
    cfg_hash = cli.config_hash(cli.merged_config(op.config))
    try:
        for name in ARTIFACTS[op.command]:
            _require(os.path.isfile(os.path.join(out, name)), f"missing artifact {name}")
        fit_err = CHECKERS[op.command](op, out, cfg_hash, stdout)
    except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        return "failed", None, str(exc)
    return "ok", fit_err, ""


def same_artifacts(command, out_a, out_b) -> bool:
    """True when both runs wrote byte-identical artifacts."""
    return all(
        filecmp.cmp(os.path.join(out_a, name), os.path.join(out_b, name), shallow=False)
        for name in ARTIFACTS[command]
    )
