"""Command-line surface: estimation runs, verification, CSV artifacts.

Commands map one-to-one onto library features: ``estimate`` fits an
impulse response from a CSV dataset, ``verify`` runs the invariant suite,
and ``sample`` / ``expand`` / ``norm`` / ``tridiag`` emit plain-CSV
artifacts for external plotting.

Determinism contract: identical config plus seed produces byte-identical
artifacts.  Files therefore never contain wall-clock times; timings go to
stdout.  Every artifact header records a 12-hex digest of the effective
config, so changing any setting changes the recorded hash.

Exit codes: 0 success, 1 computation or check failure, 2 input error.

The numeric stack is imported lazily inside ``main`` so the
``DCKERNEL_THREADS`` environment variable can cap BLAS/OpenMP pools
before numpy first loads.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
import time

from .errors import ConfigError

__all__ = ["main", "default_config", "merged_config", "config_hash"]

# round-trip exact, and the same text as format(x, ".17g")
_FLOAT_FMT = "%.17g"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _pin_threads():
    wanted = os.environ.get("DCKERNEL_THREADS")
    if not wanted:
        return
    if not wanted.isdigit() or int(wanted) < 1:
        raise ConfigError("DCKERNEL_THREADS must be a positive integer")
    for var in _THREAD_VARS:
        os.environ.setdefault(var, wanted)


_DEFAULT_CONFIG = {
    "kernel": {"variant": "tc", "alpha": None, "beta": 0.5, "rho": None},
    "quadrature": {
        "panels": 512,
        "nodes": 8,
        "grading_ratio": 0.7,
        "graded_panels": 64,
        "rel_tol": 1e-8,
        "max_extensions": 100,
    },
    "estimation": {
        "gamma": None,
        "gamma_grid": None,
        "noise_variance": 0.0,
        "eval_points": 200,
        "eval_end": None,
        "input": {
            "kind": "data",
            "amplitude": 1.0,
            "amplitudes": None,
            "rates": None,
        },
    },
    "sampling": {
        "seed": 0,
        "count": 100,
        "construction": "cumulative",
        "grid": {"start": 0.1, "stop": 3.0, "num": 25},
    },
    "expand": {"truncation": 1000, "grid_points": 100},
    "norm": {"gamma": 1.0, "truncation": None},
    "tridiag": {"grid": {"start": 0.1, "stop": 3.0, "num": 10}},
    "verify": {"seed": 2026, "sections": None, "mc_count": 100000},
    "io": {"out_dir": "."},
}


def default_config() -> dict:
    return copy.deepcopy(_DEFAULT_CONFIG)


def _merge_into(base: dict, override: dict, path: str) -> None:
    for key, value in override.items():
        here = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {here} must be an object")
            _merge_into(base[key], value, f"{here}.")
        else:
            if isinstance(value, dict):
                raise ConfigError(f"config key {here} must not be an object")
            base[key] = value


def merged_config(user: dict | None) -> dict:
    cfg = default_config()
    if user is not None:
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        _merge_into(cfg, user, "")
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _load_config(path: str | None) -> dict:
    if path is None:
        return merged_config(None)
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return merged_config(user)


def _write_atomic(path: str, chunks) -> None:
    """Write the byte chunks to a temporary name, then rename it into place."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dckernel_tmp_")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, command: str, cfg_hash: str, columns, template, blocks) -> None:
    """Stream a CSV artifact into place, one block of rows per write.

    ``template`` is the text of one block, with the columns that repeat
    from block to block formatted in once.  ``blocks`` yields ``(fields,
    numbers)``: each ``{name}`` key of ``fields`` is replaced by its text,
    then the ``%.17g`` fields take ``numbers`` (an array) in row order.
    The numbers of consecutive blocks are formatted together by
    `floatfmt.format_g17`, up to ``floatfmt.CHUNK`` at a time.
    """
    import numpy as np

    from .floatfmt import CHUNK, format_g17

    pattern = template.replace(_FLOAT_FMT, "%s").encode()

    def flush(pending):
        texts = format_g17(np.concatenate([numbers.ravel() for _, numbers in pending]))
        at = 0
        for fields, numbers in pending:
            text = pattern
            for name, value in fields.items():
                text = text.replace(name.encode(), value.encode())
            yield text % tuple(texts[at : at + numbers.size].tolist())
            at += numbers.size

    def body():
        pending, size = [], 0
        for fields, numbers in blocks:
            if pending and size + numbers.size > CHUNK:
                yield from flush(pending)
                pending, size = [], 0
            pending.append((fields, numbers))
            size += numbers.size
        if pending:
            yield from flush(pending)

    head = f"# dckernel {command} config={cfg_hash}\n{','.join(columns)}\n"
    _write_atomic(path, itertools.chain((head.encode(),), body()))


def _json_text(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _integer(value, key: str, minimum: int) -> int:
    """``value`` as an int >= ``minimum``; anything else is a ConfigError naming ``key``.

    Integral floats such as 1e5 pass; strings, booleans, non-finite and
    fractional numbers do not.
    """
    valid = (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value == int(value)
        and value >= minimum
    )
    if not valid:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _build_kernel(cfg: dict):
    from . import kernels

    block = cfg["kernel"]
    variant = block["variant"]
    if variant not in kernels.HYPERPARAMETERS:
        raise ConfigError(f"unknown kernel.variant: {variant!r}")
    params = kernels.HYPERPARAMETERS[variant]
    want = set(params)
    defaults = _DEFAULT_CONFIG["kernel"]
    # a hyperparameter still sitting at its default is treated as unset,
    # so switching variant does not force nulling the shipped beta
    given = {
        k
        for k in ("alpha", "beta", "rho")
        if block[k] is not None and (k in want or block[k] != defaults[k])
    }
    if given != want:
        raise ConfigError(
            f"kernel.variant {variant!r} needs exactly {sorted(want) or 'no'} "
            f"hyperparameters, got {sorted(given) or 'none'}"
        )
    return kernels.KernelSpec(variant, **{k: block[k] for k in params})


def _halfline_kernel(cfg: dict, command: str):
    spec = _build_kernel(cfg)
    if not spec.stable:
        raise ConfigError(f"{command} needs a half-line kernel (tc or dc)")
    return spec


def _build_quadrature(cfg: dict):
    from .quadrature import QuadratureConfig

    return QuadratureConfig(**cfg["quadrature"])


def _linspace_grid(block: dict, key: str):
    import numpy as np

    from .grids import halfline_grid

    num = _integer(block["num"], f"{key}.num", 1)
    return halfline_grid(np.linspace(block["start"], block["stop"], num))


def _read_dataset_csv(path: str):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            raw = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read data file: {exc}") from exc
    rows = [(ln, row) for ln, row in enumerate(raw, start=1) if row]
    if not rows:
        raise ConfigError("data file is empty")
    header_line, header = rows[0]
    header = [c.strip().lower() for c in header]
    if header not in (["time", "y"], ["time", "y", "u"]):
        raise ConfigError(
            f"line {header_line}: expected header 'time,y' or 'time,y,u'"
        )
    times, outputs, inputs = [], [], []
    for ln, row in rows[1:]:
        if len(row) != len(header):
            raise ConfigError(
                f"line {ln}: expected {len(header)} columns, got {len(row)}"
            )
        try:
            vals = [float(cell) for cell in row]
        except ValueError as exc:
            raise ConfigError(f"line {ln}: non-numeric value ({exc})") from exc
        if times and vals[0] <= times[-1]:
            raise ConfigError(f"line {ln}: time must increase strictly")
        times.append(vals[0])
        outputs.append(vals[1])
        if len(header) == 3:
            inputs.append(vals[2])
    if not times:
        raise ConfigError("data file has a header but no rows")
    return times, outputs, (inputs if inputs else None)


def _build_input(cfg: dict, times, u_column):
    from . import estimator as est

    block = cfg["estimation"]["input"]
    kind = block["kind"]
    if kind == "impulse":
        return est.ImpulseInput()
    if kind == "step":
        return est.StepInput(block["amplitude"])
    if kind == "expsum":
        if block["amplitudes"] is None or block["rates"] is None:
            raise ConfigError(
                "estimation.input.kind 'expsum' needs amplitudes and rates"
            )
        return est.ExpSumInput(block["amplitudes"], block["rates"])
    if kind == "data":
        if u_column is None:
            raise ConfigError(
                "estimation.input.kind 'data' needs a 'u' column in the data file"
            )
        return est.ZohInput(times, u_column)
    raise ConfigError(f"unknown estimation.input.kind: {kind!r}")


def _cmd_estimate(cfg: dict, args) -> int:
    import numpy as np

    from . import estimator as est

    if args.data is None:
        raise ConfigError("estimate needs --data pointing at a CSV file")
    num = _integer(cfg["estimation"]["eval_points"], "estimation.eval_points", 2)
    times, outputs, u_column = _read_dataset_csv(args.data)
    spec = _build_kernel(cfg)
    signal = _build_input(cfg, times, u_column)
    dataset = est.Dataset(
        np.array(times), np.array(outputs), signal, cfg["estimation"]["noise_variance"]
    )
    fit = est.estimate(
        spec, dataset, cfg["estimation"]["gamma"], cfg["estimation"]["gamma_grid"]
    )
    search = fit.search

    end = cfg["estimation"]["eval_end"]
    end = float(times[-1]) if end is None else float(end)
    eval_grid = np.linspace(0.0, end, num)
    g_hat = est.reconstruct(fit, eval_grid)
    cfg_hash = config_hash(cfg)
    _write_csv(
        os.path.join(args.out, "estimate.csv"),
        "estimate",
        cfg_hash,
        ("time", "g_hat"),
        f"{_FLOAT_FMT},{_FLOAT_FMT}\n" * num,
        [({}, np.column_stack((eval_grid, g_hat)))],
    )

    fitted = fit.fitted_outputs()
    residuals = dataset.outputs - fitted
    spread = float(np.linalg.norm(dataset.outputs - dataset.outputs.mean()))
    if spread > 0.0:
        fit_percent = 100.0 * (1.0 - float(np.linalg.norm(residuals)) / spread)
    else:
        fit_percent = 0.0
    report = {
        "config_hash": cfg_hash,
        "gamma": fit.gamma,
        "coefficients": [float(c) for c in fit.coefficients],
        "residuals": [float(r) for r in residuals],
        "fit_percent": fit_percent,
        "solver": fit.operator.kind,
        "solve_residual_rel": fit.solve_residual_rel,
        "gamma_search": None
        if search is None
        else {
            "gammas": [float(g) for g in search.gammas],
            "holdout_scores": [float(s) for s in search.scores],
            "best_gamma": search.best_gamma,
        },
    }
    _write_atomic(os.path.join(args.out, "report.json"), [_json_text(report)])
    if args.verbose:
        print(f"estimate: gamma={fit.gamma:g} fit={fit_percent:.3f}%")
    return 0


def _cmd_verify(cfg: dict, args) -> int:
    from . import verification

    seed = _integer(cfg["verify"]["seed"], "verify.seed", 0)
    mc_count = _integer(cfg["verify"]["mc_count"], "verify.mc_count", 2)
    sections = cfg["verify"]["sections"]
    if sections is not None:
        known = {name for name, _ in verification.SECTIONS}
        unknown = [s for s in sections if s not in known]
        if unknown:
            raise ConfigError(f"unknown verify.sections entries: {unknown}")
    started = time.perf_counter()
    report = []
    for name, runner in verification.SECTIONS:
        if sections is not None and name not in sections:
            continue
        t0 = time.perf_counter()
        checks = runner(seed, mc_count)
        elapsed = time.perf_counter() - t0
        report.append((name, checks))
        for check in checks:
            print(check.line())
        print(f"section {name}: {len(checks)} checks in {elapsed:.2f}s")
    total = time.perf_counter() - started
    passed = verification.suite_passed(report)
    payload = {
        "config_hash": config_hash(cfg),
        "seed": seed,
        "passed": passed,
        "sections": [
            {"name": name, "checks": [dataclasses.asdict(c) for c in checks]}
            for name, checks in report
        ],
    }
    _write_atomic(os.path.join(args.out, "verify_report.json"), [_json_text(payload)])
    print(f"verify: {'PASS' if passed else 'FAIL'} in {total:.2f}s")
    return 0 if passed else 1


def _cmd_sample(cfg: dict, args) -> int:
    from . import maxent

    spec = _halfline_kernel(cfg, "sample")
    block = cfg["sampling"]
    seed = _integer(block["seed"], "sampling.seed", 0)
    count = _integer(block["count"], "sampling.count", 0)
    grid = _linspace_grid(block["grid"], "sampling.grid")
    samplers = {"cumulative": maxent.sample_dc_process, "recursion": maxent.sample_dc_markov}
    if block["construction"] not in samplers:
        raise ConfigError(f"unknown sampling.construction: {block['construction']!r}")
    sampler = samplers[block["construction"]]
    values = maxent.values_matrix(sampler(grid, spec, seed, count))
    _write_csv(
        os.path.join(args.out, "samples.csv"),
        "sample",
        config_hash(cfg),
        ("draw", "time", "value"),
        "".join(f"{{draw}},{_FLOAT_FMT % t},{_FLOAT_FMT}\n" for t in grid.points.tolist()),
        (({"{draw}": str(draw)}, row) for draw, row in enumerate(values)),
    )
    if args.verbose:
        print(f"sample: {count} draws on {grid.n} points")
    return 0


def _cmd_expand(cfg: dict, args) -> int:
    import numpy as np

    from . import kernels, mercer

    spec = _build_kernel(cfg)
    if spec.variant not in ("spline1", "genspline1"):
        raise ConfigError("expand supports unit-interval kernels only")
    block = cfg["expand"]
    truncation = _integer(block["truncation"], "expand.truncation", 1)
    num = _integer(block["grid_points"], "expand.grid_points", 1)
    system = mercer.EigenSystem(spec, truncation=truncation)
    pts = (np.arange(num) + 1.0) / float(num)
    partial = mercer.expansion_grid(system, pts, pts)
    exact = kernels.eval_kernel(spec, pts[:, None], pts[None, :])
    error = np.abs(partial - exact)
    coords = [_FLOAT_FMT % x for x in pts.tolist()]
    _write_csv(
        os.path.join(args.out, "expansion.csv"),
        "expand",
        config_hash(cfg),
        ("row", "col", "x", "y", "truncated", "exact", "abs_error"),
        "".join(
            f"{{row}},{j},{{x}},{y},{_FLOAT_FMT},{_FLOAT_FMT},{_FLOAT_FMT}\n"
            for j, y in enumerate(coords)
        ),
        (
            ({"{row}": str(i), "{x}": x}, np.column_stack((partial[i], exact[i], error[i])))
            for i, x in enumerate(coords)
        ),
    )
    if args.verbose:
        print(f"expand: sup error {float(error.max()):.6e} at {truncation} terms")
    return 0


def _cmd_norm(cfg: dict, args) -> int:
    import numpy as np

    from . import kernels, mercer, rkhs

    spec = _halfline_kernel(cfg, "norm")
    gamma = float(cfg["norm"]["gamma"])
    verdict = rkhs.membership_necessary_check(gamma, spec)
    if verdict is rkhs.MembershipVerdict.FAILS_NECESSARY:
        raise ConfigError(
            f"exp(-{gamma:g} t) decays too slowly to have a finite norm here"
        )
    quad = _build_quadrature(cfg)
    handle = rkhs.FunctionHandle(
        func=lambda t: np.exp(-gamma * t),
        deriv=lambda t: -gamma * np.exp(-gamma * t),
        decay_hint=gamma,
    )
    quad_value = rkhs.dc_norm_integral(handle, spec, quad)
    alpha, beta, _ = kernels.stable_params(spec)
    closed = rkhs.exp_norm_closed_form(gamma, alpha, beta)
    truncation = cfg["norm"]["truncation"]
    series = []  # the series field stays empty without a truncation
    if truncation is not None:
        truncation = _integer(truncation, "norm.truncation", 1)
        system = mercer.EigenSystem(spec, truncation=truncation)
        series = [rkhs.dc_norm_series(handle, system, quad=quad)[0]]
    _write_csv(
        os.path.join(args.out, "norm.csv"),
        "norm",
        config_hash(cfg),
        ("gamma", "norm_sq_quadrature", "norm_sq_series", "norm_sq_closed_form"),
        f"{_FLOAT_FMT},{_FLOAT_FMT},{_FLOAT_FMT if series else ''},{_FLOAT_FMT}\n",
        [({}, np.array([gamma, quad_value, *series, closed]))],
    )
    if args.verbose:
        print(f"norm: quadrature {quad_value:.12g}, closed form {closed:.12g}")
    return 0


def _cmd_tridiag(cfg: dict, args) -> int:
    import numpy as np

    from . import kernelmat

    spec = _halfline_kernel(cfg, "tridiag")
    grid = _linspace_grid(cfg["tridiag"]["grid"], "tridiag.grid")
    inverse = kernelmat.tridiagonal_inverse(spec, grid)
    gram = kernelmat.assemble(spec, grid).values
    residual = float(np.max(np.abs(gram @ inverse - np.eye(grid.n))))
    cfg_hash = config_hash(cfg)
    _write_csv(
        os.path.join(args.out, "tridiag.csv"),
        "tridiag",
        cfg_hash,
        ("row", "col", "kernel_value", "inverse_value"),
        "".join(f"{{row}},{j},{_FLOAT_FMT},{_FLOAT_FMT}\n" for j in range(grid.n)),
        (({"{row}": str(i)}, np.column_stack((gram[i], inverse[i]))) for i in range(grid.n)),
    )
    # how far a generic dense inversion strays from the tridiagonal band,
    # as heatmap-free summary numbers
    dense = np.linalg.inv(gram)
    off_rel = kernelmat.max_off_tridiagonal(dense) / float(np.max(np.abs(dense)))
    _write_csv(
        os.path.join(args.out, "tridiag_offband.csv"),
        "tridiag",
        cfg_hash,
        ("dense_offband_rel", "identity_residual"),
        f"{_FLOAT_FMT},{_FLOAT_FMT}\n",
        [({}, np.array([off_rel, residual]))],
    )
    if args.verbose:
        print(f"tridiag: identity residual {residual:.3e}")
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
    "expand": _cmd_expand,
    "norm": _cmd_norm,
    "tridiag": _cmd_tridiag,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dckernel",
        description="Stable kernel toolkit: estimation, verification, artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("estimate", "fit an impulse response from a CSV dataset"),
        ("verify", "run the invariant suite and write a report"),
        ("sample", "draw trajectories of the kernel's process"),
        ("expand", "tabulate a truncated eigen-expansion against the kernel"),
        ("norm", "compute the norm of an exponential in the kernel space"),
        ("tridiag", "tabulate the tridiagonal inverse of a kernel matrix"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON config merged over the defaults")
        cmd.add_argument("--data", help="input CSV (estimate only)")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument(
            "--seed", type=int, help="override sampling.seed and verify.seed"
        )
        cmd.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _pin_threads()
        cfg = _load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be nonnegative")
            cfg["sampling"]["seed"] = args.seed
            cfg["verify"]["seed"] = args.seed
        _build_kernel(cfg)  # every command validates the shared blocks up front
        _build_quadrature(cfg)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](cfg, args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
