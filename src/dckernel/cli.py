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
import os
import sys
import tempfile
import time

from .errors import ConfigError

__all__ = ["main", "default_config", "merged_config", "config_hash"]

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


def _write_csv(path: str, command: str, cfg_hash: str, header, columns) -> None:
    """Stream a CSV artifact into place, one chunk of rows per write.

    ``columns`` gives each CSV column as an integer or float array, or
    None for a field left empty.  The arrays broadcast to one (B, P) shape,
    whose rows are written block by block: a (B, 1) column (a draw or row
    index) repeats along its block, a (1, P) one (the times, a column
    index) in every block.

    Integer columns and repeated float columns are formatted once, whole
    (``%d``, `floatfmt.format_g17`).  The (B, P) float columns are
    formatted together, a chunk of rows at a time, at most
    ``floatfmt.CHUNK`` values per chunk.  Each chunk is laid out as one
    uint8 array of fixed-width fields (NUL-padded texts), commas and
    newlines, and then its NUL bytes are dropped.  A block longer than a
    chunk is split.
    """
    import numpy as np

    from .floatfmt import CHUNK, WIDTH, format_g17

    columns = [None if c is None else np.atleast_2d(c) for c in columns]
    blocks, size = np.broadcast_shapes(*(c.shape for c in columns if c is not None))

    def texts(values):  # byte strings no wider than the longest text
        text = values.astype(bytes) if values.dtype.kind in "iu" else format_g17(values)
        longest = np.count_nonzero(text.view(np.uint8).reshape(-1, text.itemsize).any(axis=0))
        return text.astype(f"S{longest or 1}").reshape(values.shape)  # no S0 dtype

    floats, fields, at = [], [], 0  # fields: (first byte, width, texts or place among floats)
    for c in columns:
        if c is None:
            width = 0
        elif c.shape == (blocks, size) and c.dtype.kind not in "iu":
            width = WIDTH
            fields.append((at, width, len(floats)))
            floats.append(c)
        else:
            text = texts(c)
            width = text.itemsize
            fields.append((at, width, text))
        at += width + 1  # and a comma, or the newline
    rows = CHUNK // max(1, len(floats))  # lines per chunk
    step = max(1, rows // max(size, 1))  # whole blocks per chunk, else one block split
    # every chunk overwrites each field's bytes whole, so the commas stay
    buf = np.full((min(step, blocks) * min(size, rows), at), ord(","), np.uint8)
    buf[:, -1] = ord("\n")
    keep = np.empty(buf.shape, bool)

    def chunk(b, p):  # the lines of rows p in blocks b
        shape = (len(range(blocks)[b]), len(range(size)[p]))
        if floats:
            values = np.stack([c[b, p] for c in floats])
            formatted = format_g17(values).reshape(values.shape)
        for first, width, text in fields:
            slot = np.ndarray(shape, f"S{width}", buf, first, (shape[1] * at, at))
            if isinstance(text, int):
                slot[...] = formatted[text]
            else:
                rows_b = b if text.shape[0] > 1 else slice(None)
                slot[...] = text[rows_b, p if text.shape[1] > 1 else slice(None)]
        lines = buf[: shape[0] * shape[1]]
        return lines[np.not_equal(lines, 0, out=keep[: len(lines)])]

    def body():
        for first in range(0, blocks, step):
            for start in range(0, size, rows):
                yield chunk(slice(first, first + step), slice(start, start + rows))

    head = f"# dckernel {command} config={cfg_hash}\n{','.join(header)}\n"
    _write_atomic(path, itertools.chain((head.encode(),), body()))


def _json_text(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _finite(value) -> bool:
    """Is ``value`` a JSON number (not a boolean) within the float range?

    Compared, not converted, so a huge integer fails instead of overflowing.
    """
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and -sys.float_info.max <= value <= sys.float_info.max
    )


def _integer(value, key: str, minimum: int) -> int:
    """``value`` as an int >= ``minimum``; anything else is a ConfigError naming ``key``.

    Integral floats such as 1e5 pass; strings, booleans, non-finite and
    fractional numbers do not.
    """
    if not (_finite(value) and value == int(value) and value >= minimum):
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """``value`` as a finite float; anything else is a ConfigError naming ``key``.

    Integers pass; strings, booleans, infinities and NaN do not.
    """
    if not _finite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _reals(values, key: str) -> list:
    """A JSON list of finite numbers, each checked by `_real`."""
    if not isinstance(values, list):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    return [_real(v, f"{key}[{i}]") for i, v in enumerate(values)]


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
    return kernels.KernelSpec(variant, **{k: _real(block[k], f"kernel.{k}") for k in params})


def _halfline_kernel(cfg: dict, command: str):
    spec = _build_kernel(cfg)
    if not spec.stable:
        raise ConfigError(f"{command} needs a half-line kernel (tc or dc)")
    return spec


def _build_quadrature(cfg: dict):
    from .quadrature import QuadratureConfig

    block = cfg["quadrature"]
    counts = ("panels", "nodes", "graded_panels", "max_extensions")
    return QuadratureConfig(
        **{k: _integer(block[k], f"quadrature.{k}", 1) for k in counts},
        **{k: _real(block[k], f"quadrature.{k}") for k in ("grading_ratio", "rel_tol")},
    )


def _linspace_grid(block: dict, key: str):
    import numpy as np

    from .grids import halfline_grid

    num = _integer(block["num"], f"{key}.num", 1)
    start, stop = (_real(block[k], f"{key}.{k}") for k in ("start", "stop"))
    return halfline_grid(np.linspace(start, stop, num))


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
        return est.StepInput(_real(block["amplitude"], "estimation.input.amplitude"))
    if kind == "expsum":
        if block["amplitudes"] is None or block["rates"] is None:
            raise ConfigError(
                "estimation.input.kind 'expsum' needs amplitudes and rates"
            )
        return est.ExpSumInput(
            _reals(block["amplitudes"], "estimation.input.amplitudes"),
            _reals(block["rates"], "estimation.input.rates"),
        )
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
    block = cfg["estimation"]
    num = _integer(block["eval_points"], "estimation.eval_points", 2)
    noise = _real(block["noise_variance"], "estimation.noise_variance")
    gamma, grid, end = block["gamma"], block["gamma_grid"], block["eval_end"]
    gamma = None if gamma is None else _real(gamma, "estimation.gamma")
    grid = None if grid is None else _reals(grid, "estimation.gamma_grid")
    end = None if end is None else _real(end, "estimation.eval_end")
    times, outputs, u_column = _read_dataset_csv(args.data)
    spec = _build_kernel(cfg)
    signal = _build_input(cfg, times, u_column)
    dataset = est.Dataset(np.array(times), np.array(outputs), signal, noise)
    fit = est.estimate(spec, dataset, gamma, grid)
    search = fit.search

    end = float(times[-1]) if end is None else end
    eval_grid = np.linspace(0.0, end, num)
    g_hat = est.reconstruct(fit, eval_grid)
    cfg_hash = config_hash(cfg)
    _write_csv(
        os.path.join(args.out, "estimate.csv"),
        "estimate",
        cfg_hash,
        ("time", "g_hat"),
        (eval_grid, g_hat),
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
        if not (isinstance(sections, list) and all(isinstance(s, str) for s in sections)):
            raise ConfigError(f"verify.sections must be a list of strings, got {sections!r}")
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
    import numpy as np

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
        (np.arange(count)[:, None], grid.points[None, :], values),
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
    index = np.arange(num)
    _write_csv(
        os.path.join(args.out, "expansion.csv"),
        "expand",
        config_hash(cfg),
        ("row", "col", "x", "y", "truncated", "exact", "abs_error"),
        (index[:, None], index[None, :], pts[:, None], pts[None, :], partial, exact, error),
    )
    if args.verbose:
        print(f"expand: sup error {float(error.max()):.6e} at {truncation} terms")
    return 0


def _cmd_norm(cfg: dict, args) -> int:
    import numpy as np

    from . import kernels, mercer, rkhs

    spec = _halfline_kernel(cfg, "norm")
    gamma = _real(cfg["norm"]["gamma"], "norm.gamma")
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
    series = None  # the series field stays empty without a truncation
    if truncation is not None:
        truncation = _integer(truncation, "norm.truncation", 1)
        system = mercer.EigenSystem(spec, truncation=truncation)
        series = rkhs.dc_norm_series(handle, system, quad=quad)[0]
    _write_csv(
        os.path.join(args.out, "norm.csv"),
        "norm",
        config_hash(cfg),
        ("gamma", "norm_sq_quadrature", "norm_sq_series", "norm_sq_closed_form"),
        (gamma, quad_value, series, closed),
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
        (np.arange(grid.n)[:, None], np.arange(grid.n)[None, :], gram, inverse),
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
        (off_rel, residual),
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
