import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from dckernel import cli, estimator, kernelmat, kernels, maxent, mercer, verification
from dckernel.errors import ConfigError
from dckernel.floatfmt import CHUNK


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def impulse_fixture(path, n=10):
    times = np.linspace(0.1, 2.0, n)
    lines = ["time,y"]
    lines += [f"{float(t)!r},{float(np.exp(-t))!r}" for t in times]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_config_merge_and_rejection():
    assert cli.merged_config(None) == cli.default_config()
    cfg = cli.merged_config({"kernel": {"beta": 0.7}})
    assert cfg["kernel"]["beta"] == 0.7
    assert cfg["quadrature"]["nodes"] == 8

    with pytest.raises(ConfigError, match="unknown config key: bogus"):
        cli.merged_config({"bogus": 1})
    with pytest.raises(ConfigError, match="kernel.bogus"):
        cli.merged_config({"kernel": {"bogus": 1}})
    with pytest.raises(ConfigError, match="must be an object"):
        cli.merged_config({"kernel": 3})
    with pytest.raises(ConfigError, match="must not be an object"):
        cli.merged_config({"kernel": {"beta": {"x": 1}}})
    with pytest.raises(ConfigError, match="root"):
        cli.merged_config([1, 2])


def test_config_hash_tracks_content():
    base = cli.merged_config(None)
    tweaked = cli.merged_config({"kernel": {"beta": 0.7}})
    assert cli.config_hash(base) != cli.config_hash(tweaked)
    assert cli.config_hash(base) == cli.config_hash(cli.merged_config(None))
    assert len(cli.config_hash(base)) == 12


def test_kernel_build_rules(tmp_path):
    # switching variant must not require nulling the shipped default beta
    cfg = write_json(tmp_path / "a.json", {"kernel": {"variant": "spline1"}})
    assert cli.main(["expand", "--config", cfg, "--out", str(tmp_path)]) == 0
    # a stray non-default hyperparameter is an error
    cfg = write_json(tmp_path / "b.json", {"kernel": {"variant": "tc", "rho": 1.0}})
    assert cli.main(["tridiag", "--config", cfg, "--out", str(tmp_path)]) == 2
    # missing requirement
    cfg = write_json(tmp_path / "c.json", {"kernel": {"variant": "dc", "beta": 0.3}})
    assert cli.main(["tridiag", "--config", cfg, "--out", str(tmp_path)]) == 2
    # every command validates the kernel block, even when it will not use it
    cfg = write_json(tmp_path / "d.json", {"kernel": {"beta": 0.0}})
    for command in ("estimate", "verify", "sample", "expand", "norm", "tridiag"):
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 2


def test_estimate_impulse_fixture(tmp_path, capsys):
    data = impulse_fixture(tmp_path / "data.csv")
    cfg = write_json(
        tmp_path / "cfg.json",
        {"estimation": {"gamma": 1e-6, "input": {"kind": "impulse"}}},
    )
    out = tmp_path / "run1"
    code = cli.main(
        ["estimate", "--config", cfg, "--data", data, "--out", str(out), "--verbose"]
    )
    assert code == 0

    est_lines = (out / "estimate.csv").read_text().splitlines()
    cfg_hash = cli.config_hash(cli.merged_config(json.loads(open(cfg).read())))
    assert est_lines[0] == f"# dckernel estimate config={cfg_hash}"
    assert est_lines[1] == "time,g_hat"
    assert len(est_lines) == 2 + 200  # default eval_points

    report = json.loads((out / "report.json").read_text())
    assert report["config_hash"] == cfg_hash
    assert report["gamma"] == 1e-6
    assert report["fit_percent"] >= 99.9
    assert report["gamma_search"] is None
    assert len(report["coefficients"]) == 10
    assert report["solver"] == "quasiseparable"
    assert 0.0 <= report["solve_residual_rel"] <= 1e-9
    assert "fit=" in capsys.readouterr().out

    # byte-identical on a rerun
    out2 = tmp_path / "run2"
    assert cli.main(["estimate", "--config", cfg, "--data", data, "--out", str(out2)]) == 0
    assert (out / "estimate.csv").read_bytes() == (out2 / "estimate.csv").read_bytes()
    assert (out / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert not [p for p in os.listdir(out) if p.startswith(".dckernel_tmp_")]


def test_estimate_gamma_search(tmp_path):
    data = impulse_fixture(tmp_path / "data.csv")
    cfg = write_json(
        tmp_path / "cfg.json",
        {
            "estimation": {
                "gamma_grid": [1e-1, 1e-6, 1e-3],
                "input": {"kind": "impulse"},
            }
        },
    )
    assert cli.main(["estimate", "--config", cfg, "--data", data, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    search = report["gamma_search"]
    assert search["gammas"] == sorted(search["gammas"])
    assert search["best_gamma"] in search["gammas"]
    assert report["gamma"] == search["best_gamma"]
    assert all(np.isfinite(search["holdout_scores"]))


def test_estimate_zoh_data_column(tmp_path):
    rows = ["time,y,u", "0.5,0.1,1.0", "1.0,0.3,1.0", "1.5,0.2,0.0", "2.0,0.1,0.0"]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n")
    cfg = write_json(tmp_path / "cfg.json", {"estimation": {"gamma": 0.1}})
    assert cli.main(
        ["estimate", "--config", cfg, "--data", str(data), "--out", str(tmp_path)]
    ) == 0
    assert (tmp_path / "estimate.csv").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["solver"] == "dense"
    assert 0.0 <= report["solve_residual_rel"] <= 1e-9


def test_estimate_input_errors(tmp_path, capsys):
    out = str(tmp_path)
    cfg = write_json(tmp_path / "imp.json", {"estimation": {"input": {"kind": "impulse"}}})

    def run(text):
        data = tmp_path / "bad.csv"
        data.write_text(text)
        code = cli.main(["estimate", "--config", cfg, "--data", str(data), "--out", out])
        return code, capsys.readouterr().err

    assert cli.main(["estimate", "--out", out]) == 2  # no --data

    code, err = run("")
    assert code == 2 and "empty" in err
    code, err = run("time,y\n")
    assert code == 2 and "no rows" in err
    code, err = run("t,y\n0.1,1.0\n")
    assert code == 2 and "line 1" in err
    code, err = run("time,y\n0.1,1.0,9\n")
    assert code == 2 and "line 2" in err
    code, err = run("time,y\n0.1,1.0\n0.2,abc\n")
    assert code == 2 and "line 3" in err
    code, err = run("time,y\n0.3,1.0\n0.3,2.0\n")
    assert code == 2 and "line 3" in err and "increase" in err

    # 'data' input kind needs the u column
    plain = tmp_path / "plain.csv"
    plain.write_text("time,y\n0.5,0.1\n1.0,0.2\n")
    assert cli.main(["estimate", "--data", str(plain), "--out", out]) == 2
    assert "'u' column" in capsys.readouterr().err

    # gamma and gamma_grid are mutually exclusive
    both = write_json(
        tmp_path / "both.json",
        {"estimation": {"gamma": 0.1, "gamma_grid": [0.1], "input": {"kind": "impulse"}}},
    )
    data = impulse_fixture(tmp_path / "data.csv")
    assert cli.main(["estimate", "--config", both, "--data", data, "--out", out]) == 2


def test_verify_subset(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json", {"verify": {"sections": ["identity", "tridiag"]}}
    )
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "section identity:" in out
    assert "section tridiag:" in out
    assert "section mercer:" not in out

    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True
    assert [s["name"] for s in report["sections"]] == ["identity", "tridiag"]
    assert all(c["passed"] for s in report["sections"] for c in s["checks"])

    bad = write_json(tmp_path / "bad.json", {"verify": {"sections": ["nope"]}})
    assert cli.main(["verify", "--config", bad, "--out", str(tmp_path)]) == 2


def test_sample_artifacts(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json", {"sampling": {"count": 3, "grid": {"num": 5}}}
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sample", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["sample", "--config", cfg, "--out", str(b)]) == 0
    first = (a / "samples.csv").read_bytes()
    assert first == (b / "samples.csv").read_bytes()

    lines = first.decode().splitlines()
    assert lines[0].startswith("# dckernel sample config=")
    assert lines[1] == "draw,time,value"
    assert len(lines) == 2 + 3 * 5

    # a different seed changes the numbers (and the recorded hash)
    assert cli.main(["sample", "--config", cfg, "--out", str(b), "--seed", "9"]) == 0
    assert (b / "samples.csv").read_bytes() != first

    # the recursion construction draws the same law through another path
    rec = write_json(
        tmp_path / "rec.json",
        {"sampling": {"count": 2, "grid": {"num": 4}, "construction": "recursion"}},
    )
    assert cli.main(["sample", "--config", rec, "--out", str(tmp_path)]) == 0

    zero = write_json(tmp_path / "zero.json", {"sampling": {"count": 0}})
    assert cli.main(["sample", "--config", zero, "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "samples.csv").read_text().splitlines()) == 2

    unit = write_json(tmp_path / "unit.json", {"kernel": {"variant": "spline1"}})
    assert cli.main(["sample", "--config", unit, "--out", str(tmp_path)]) == 2
    neg = write_json(tmp_path / "neg.json", {"sampling": {"count": -1}})
    assert cli.main(["sample", "--config", neg, "--out", str(tmp_path)]) == 2
    assert cli.main(["sample", "--out", str(tmp_path), "--seed", "-3"]) == 2


def test_expand_artifact(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"kernel": {"variant": "spline1"}, "expand": {"grid_points": 20}},
    )
    assert cli.main(["expand", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "expansion.csv").read_text().splitlines()
    assert lines[1] == "row,col,x,y,truncated,exact,abs_error"
    assert len(lines) == 2 + 20 * 20
    sup = max(float(line.split(",")[-1]) for line in lines[2:])
    assert sup <= 2.03e-4

    halfline = write_json(tmp_path / "bad.json", {"kernel": {"variant": "tc"}})
    assert cli.main(["expand", "--config", halfline, "--out", str(tmp_path)]) == 2


def test_norm_artifact(tmp_path):
    assert cli.main(["norm", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "norm.csv").read_text().splitlines()
    assert lines[1] == "gamma,norm_sq_quadrature,norm_sq_series,norm_sq_closed_form"
    gamma, quad_val, series, closed = lines[2].split(",")
    assert float(gamma) == 1.0
    assert abs(float(quad_val) - 1.0) <= 1e-6  # exp(-t) against the default kernel
    assert float(closed) == 1.0
    assert series == ""  # truncation is null by default

    with_series = write_json(tmp_path / "s.json", {"norm": {"truncation": 200}})
    assert cli.main(["norm", "--config", with_series, "--out", str(tmp_path)]) == 0
    series = (tmp_path / "norm.csv").read_text().splitlines()[2].split(",")[2]
    assert abs(float(series) - 1.0) <= 2e-2

    slow = write_json(tmp_path / "slow.json", {"norm": {"gamma": 0.3}})
    assert cli.main(["norm", "--config", slow, "--out", str(tmp_path)]) == 2


def test_norm_near_the_membership_threshold(tmp_path):
    # gamma exceeds alpha by a tenth, beta is 5000 alpha: the norm lives at t ~ 1e3
    config = {"kernel": {"variant": "dc", "alpha": 0.01, "beta": 50.0}, "norm": {"gamma": 0.011}}
    cfg = write_json(tmp_path / "cfg.json", config)
    assert cli.main(["norm", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, quad_val, _, closed = (tmp_path / "norm.csv").read_text().splitlines()[2].split(",")
    assert float(quad_val) == pytest.approx(float(closed), rel=1e-8)


def test_tridiag_artifact(tmp_path):
    assert cli.main(["tridiag", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "tridiag.csv").read_text().splitlines()
    assert lines[1] == "row,col,kernel_value,inverse_value"
    assert len(lines) == 2 + 100  # default 10-point grid
    gram = np.zeros((10, 10))
    inverse = np.zeros((10, 10))
    for line in lines[2:]:
        i, j, k_val, inv_val = line.split(",")
        gram[int(i), int(j)] = float(k_val)
        inverse[int(i), int(j)] = float(inv_val)
    mask = np.abs(np.subtract.outer(np.arange(10), np.arange(10))) > 1
    assert np.all(inverse[mask] == 0.0)
    assert np.all(np.diag(inverse) > 0.0)
    assert np.max(np.abs(gram @ inverse - np.eye(10))) <= 1e-10

    summary = (tmp_path / "tridiag_offband.csv").read_text().splitlines()
    assert summary[1] == "dense_offband_rel,identity_residual"
    off_rel, residual = (float(x) for x in summary[2].split(","))
    assert off_rel <= 1e-8
    assert residual <= 1e-10


def _csv_table(path):
    """The numeric body of a CLI CSV artifact, below its config and header lines."""
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def test_long_horizon_tridiag(tmp_path):
    # the benchmark's long tc slot, 2 beta t = 40 at the last point
    config = {"kernel": {"variant": "tc", "beta": 0.5},
              "tridiag": {"grid": {"start": 0.1, "stop": 40.0, "num": 50}}}
    cfg = write_json(tmp_path / "cfg.json", config)
    assert cli.main(["tridiag", "--config", cfg, "--out", str(tmp_path)]) == 0
    table = _csv_table(tmp_path / "tridiag.csv")
    assert table.shape == (50 * 50, 4) and np.all(np.isfinite(table))
    offband = np.abs(table[:, 0] - table[:, 1]) > 1
    assert np.all(table[offband, 3] == 0.0)
    assert np.all(table[~offband, 3] != 0.0)
    _, residual = _csv_table(tmp_path / "tridiag_offband.csv")[0]
    assert residual <= 1e-8


@pytest.mark.parametrize(
    "kernel,sampling",
    [
        # the benchmark's long recursion slot, 2 beta t = 40
        ({"variant": "dc", "alpha": 0.6, "beta": 0.4},
         {"seed": 5, "count": 500, "construction": "recursion",
          "grid": {"start": 0.1, "stop": 50.0, "num": 100}}),
        # 2 beta t = 800: exp(-2 beta t) underflows, k(t, t) = exp(-2 alpha t) does not
        ({"variant": "dc", "alpha": 0.1, "beta": 1.0},
         {"seed": 5, "count": 200, "construction": "cumulative",
          "grid": {"start": 0.1, "stop": 400.0, "num": 41}}),
    ],
)
def test_long_horizon_samples(tmp_path, kernel, sampling):
    cfg = write_json(tmp_path / "cfg.json", {"kernel": kernel, "sampling": sampling})
    assert cli.main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 0
    table = _csv_table(tmp_path / "samples.csv")
    num = sampling["grid"]["num"]
    assert table.shape == (sampling["count"] * num, 3)
    values = table[:, 2].reshape(sampling["count"], num)
    assert np.all(np.isfinite(values))
    assert np.all(np.any(values != 0.0, axis=0))  # no silent zeros at the far end


def test_thread_env_validation(tmp_path, monkeypatch):
    monkeypatch.setenv("DCKERNEL_THREADS", "abc")
    assert cli.main(["tridiag", "--out", str(tmp_path)]) == 2
    monkeypatch.setenv("DCKERNEL_THREADS", "0")
    assert cli.main(["tridiag", "--out", str(tmp_path)]) == 2
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("DCKERNEL_THREADS", "2")
    assert cli.main(["tridiag", "--out", str(tmp_path)]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"


def test_verify_mc_count_takes_effect(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json", {"verify": {"sections": ["maxent"], "mc_count": 2000}}
    )
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    checks = report["sections"][0]["checks"]
    details = [c["details"] for c in checks if "samples" in c["details"]]
    assert len(details) == 3
    assert all(d.startswith("2000 samples") for d in details)

    for bad in (0, 1, 1.5):
        cfg = write_json(tmp_path / "bad.json", {"verify": {"mc_count": bad}})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2


def _below_hash(path):
    return [
        line
        for line in path.read_text().splitlines()
        if not line.startswith("# dckernel") and '"config_hash"' not in line
    ]


def test_tc_is_dc_at_equal_rates(tmp_path):
    beta = 0.45
    zoh = tmp_path / "zoh.csv"
    rows = ["time,y,u"] + [
        f"{t!r},{float(np.exp(-t))!r},{float(np.cos(3.0 * t))!r}"
        for t in np.linspace(0.3, 2.4, 6).tolist()
    ]
    zoh.write_text("\n".join(rows) + "\n")
    impulse = impulse_fixture(tmp_path / "impulse.csv")
    runs = [
        ("estimate", {"estimation": {"gamma_grid": [1e-3, 1e-1]}}, str(zoh)),
        ("estimate", {"estimation": {"gamma": 1e-6, "input": {"kind": "impulse"}}}, impulse),
        ("sample", {"sampling": {"count": 3, "grid": {"num": 6}}}, None),
        ("sample", {"sampling": {"count": 3, "construction": "recursion"}}, None),
        ("tridiag", {}, None),
        ("norm", {"norm": {"gamma": 1.2, "truncation": 50}}, None),
    ]
    kernels = {
        "tc": {"variant": "tc", "beta": beta},
        "dc": {"variant": "dc", "alpha": beta, "beta": beta},
    }
    for k, (command, config, data) in enumerate(runs):
        outputs = {}
        for name, kernel in kernels.items():
            out = tmp_path / f"{k}-{name}"
            cfg = write_json(tmp_path / f"{k}-{name}.json", dict(config, kernel=kernel))
            argv = [command, "--config", cfg, "--out", str(out)]
            if data is not None:
                argv += ["--data", data]
            assert cli.main(argv) == 0
            outputs[name] = {p: _below_hash(out / p) for p in sorted(os.listdir(out))}
        assert outputs["tc"] == outputs["dc"], command


BAD_INTEGERS = ('"abc"', "NaN", "1e400", "true", "2.5", "1" + "0" * 400)


@pytest.mark.parametrize("text", BAD_INTEGERS)
@pytest.mark.parametrize(
    "command,key,block",
    [
        ("estimate", "estimation.eval_points", '{"estimation": {"eval_points": %s}}'),
        ("verify", "verify.mc_count", '{"verify": {"mc_count": %s}}'),
        ("verify", "verify.seed", '{"verify": {"seed": %s}}'),
        ("sample", "sampling.count", '{"sampling": {"count": %s}}'),
        ("sample", "sampling.seed", '{"sampling": {"seed": %s}}'),
        ("sample", "sampling.grid.num", '{"sampling": {"grid": {"num": %s}}}'),
        ("tridiag", "tridiag.grid.num", '{"tridiag": {"grid": {"num": %s}}}'),
        ("norm", "norm.truncation", '{"norm": {"truncation": %s}}'),
        ("norm", "quadrature.panels", '{"quadrature": {"panels": %s}}'),
        ("tridiag", "quadrature.max_extensions", '{"quadrature": {"max_extensions": %s}}'),
    ],
)
def test_integer_settings_name_the_key(tmp_path, capsys, monkeypatch, command, key, block, text):
    from dckernel import estimator

    def no_fit(*args, **kwargs):
        raise AssertionError("estimate ran before its settings were checked")

    monkeypatch.setattr(estimator, "estimate", no_fit)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(block % text)
    data = impulse_fixture(tmp_path / "data.csv")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "estimate":
        argv += ["--data", data]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be an integer")


BAD_REALS = ('"abc"', "NaN", "1e400", "-Infinity", "true", "[1.0]", "-1" + "0" * 400)


@pytest.mark.parametrize("text", BAD_REALS)
@pytest.mark.parametrize(
    "command,key,block",
    [
        ("estimate", "estimation.gamma", '{"estimation": {"gamma": %s}}'),
        ("estimate", "estimation.gamma_grid[1]", '{"estimation": {"gamma_grid": [0.01, %s]}}'),
        ("estimate", "estimation.noise_variance", '{"estimation": {"noise_variance": %s}}'),
        ("estimate", "estimation.eval_end", '{"estimation": {"eval_end": %s}}'),
        ("sample", "sampling.grid.stop", '{"sampling": {"grid": {"stop": %s}}}'),
        ("tridiag", "tridiag.grid.start", '{"tridiag": {"grid": {"start": %s}}}'),
        ("norm", "norm.gamma", '{"norm": {"gamma": %s}}'),
        ("norm", "quadrature.rel_tol", '{"quadrature": {"rel_tol": %s}}'),
        ("verify", "quadrature.grading_ratio", '{"quadrature": {"grading_ratio": %s}}'),
        ("tridiag", "kernel.beta", '{"kernel": {"beta": %s}}'),
    ],
)
def test_real_settings_name_the_key(tmp_path, capsys, monkeypatch, command, key, block, text):
    monkeypatch.setattr(estimator, "estimate", lambda *a, **k: pytest.fail("fit before checks"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(block % text)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "estimate":
        argv += ["--data", impulse_fixture(tmp_path / "data.csv")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must be a finite number")
    assert not (tmp_path / "out").exists() or not os.listdir(tmp_path / "out")


def test_verify_sections_must_be_a_list_of_names(tmp_path, capsys):
    for sections in ("maxent", [1]):
        cfg = write_json(tmp_path / "cfg.json", {"verify": {"sections": sections}})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "verify.sections must be a list of strings" in capsys.readouterr().err


def test_expand_integer_settings(tmp_path, capsys):
    for key in ("truncation", "grid_points"):
        for text in BAD_INTEGERS:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(
                '{"kernel": {"variant": "spline1"}, "expand": {"%s": %s}}' % (key, text)
            )
            assert cli.main(["expand", "--config", str(cfg), "--out", str(tmp_path)]) == 2
            assert f"expand.{key} must be an integer" in capsys.readouterr().err


def oracle_csv(command, cfg_hash, columns, rows):
    """Artifact bytes as the csv.writer path wrote them.

    Integer cells are written with str, float cells with
    format(x, ".17g") and None cells as an empty field.
    """
    buf = io.StringIO()
    buf.write(f"# dckernel {command} config={cfg_hash}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(
            [
                "" if c is None else str(c) if isinstance(c, int) else format(float(c), ".17g")
                for c in row
            ]
        )
    return buf.getvalue().encode()


EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
    1e16, 1e17, 0.1, 1.0 / 3.0, -2.5e-310, 123456789.0, -1.0,
]


def test_csv_writer_matches_oracle(tmp_path):
    # blocks of rows with an integer row index per block, an integer column
    # index and a coordinate that repeat across blocks, and two number fields
    coords = np.array(EDGE_FLOATS)
    values = np.array([EDGE_FLOATS, EDGE_FLOATS[::-1], [-x for x in EDGE_FLOATS]])
    index = np.arange(coords.size)
    columns = ("row", "col", "x", "a", "b")
    arrays = (np.arange(3)[:, None], index[None, :], coords[None, :], values, values[:, ::-1])
    path = tmp_path / "edge.csv"
    cli._write_csv(str(path), "edge", "0123456789ab", columns, arrays)
    rows = [
        (i, j, float(coords[j]), float(values[i, j]), float(values[i, -1 - j]))
        for i in range(values.shape[0])
        for j in range(coords.size)
    ]
    assert path.read_bytes() == oracle_csv("edge", "0123456789ab", columns, rows)

    # no rows at all: the two header lines only
    empty = (np.arange(0)[:, None], index[None, :], coords[None, :], values[:0], values[:0])
    cli._write_csv(str(path), "edge", "0123456789ab", columns, empty)
    assert path.read_bytes() == oracle_csv("edge", "0123456789ab", columns, [])


def _written(tmp_path, columns):
    path = tmp_path / "columns.csv"
    header = [f"c{i}" for i in range(len(columns))]
    cli._write_csv(str(path), "cols", "0123456789ab", header, columns)
    return path.read_bytes()


def _expected(columns):
    """The oracle's bytes for the rows of columns broadcast to (B, P)."""
    arrays = [c if c is None else np.atleast_2d(c) for c in columns]
    shape = np.broadcast_shapes(*(a.shape for a in arrays if a is not None))
    cells = [
        [None] * (shape[0] * shape[1]) if a is None else np.broadcast_to(a, shape).ravel().tolist()
        for a in arrays
    ]
    header = [f"c{i}" for i in range(len(columns))]
    return oracle_csv("cols", "0123456789ab", header, list(zip(*cells)))


def test_csv_writer_column_shapes_match_oracle(tmp_path):
    rng = np.random.default_rng(11)
    tiny = rng.normal(size=(4, 6)) * 10.0 ** rng.integers(-300, -5, (4, 6))
    huge = rng.normal(size=(4, 6)) * 10.0 ** rng.integers(17, 300, (4, 6))
    cases = [
        # every float e-style, among repeated integer columns
        (np.arange(4)[:, None], tiny, np.arange(6)[None, :] * 1000, huge),
        # (B, 1), (1, P) and (B, P) floats mixed, a scalar and an empty field
        (rng.normal(size=(4, 1)), None, rng.normal(size=(1, 6)), rng.normal(size=(4, 6)), 0.5),
        # one row of scalars with the empty field last, as norm.csv without its series
        (np.float64(1.3), np.float64(-2e-7), None),
        # one block of floats given as a 1-D array, as estimate.csv
        (np.linspace(0.0, 1.0, 7), np.exp(-np.linspace(0.0, 1.0, 7))),
        # zero rows
        (np.arange(0)[:, None], np.arange(5)[None, :], np.zeros((0, 5))),
    ]
    for columns in cases:
        assert _written(tmp_path, columns) == _expected(columns)


# two blocks of 3001 rows fill a chunk, so chunk edges fall at no multiple
# of CHUNK, and 11 blocks of 1500 leave the last chunk part-full; blocks
# longer than CHUNK rows are split across chunks
@pytest.mark.parametrize(
    "blocks,size", [(7, 3001), (11, 1500), (2, CHUNK + 37), (1, 2 * CHUNK + 5)]
)
def test_csv_writer_splits_chunks_like_oracle(tmp_path, blocks, size):
    rng = np.random.default_rng(blocks)
    columns = (
        np.arange(blocks)[:, None],
        np.linspace(0.0, 3.0, size)[None, :],
        rng.normal(size=(blocks, size)),
        None,
    )
    assert _written(tmp_path, columns) == _expected(columns)


@pytest.mark.parametrize("count,num", [(3, 5), (0, 25), (4, 1)])
@pytest.mark.parametrize("construction", ["cumulative", "recursion"])
def test_sample_artifact_matches_oracle(tmp_path, count, num, construction):
    block = {"count": count, "construction": construction, "grid": {"num": num}}
    cfg = write_json(tmp_path / "cfg.json", {"sampling": block})
    assert cli.main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 0
    full = cli.merged_config(json.loads(open(cfg).read()))
    grid = cli._linspace_grid(full["sampling"]["grid"], "sampling.grid")
    sampler = {"cumulative": maxent.sample_dc_process, "recursion": maxent.sample_dc_markov}
    draws = maxent.values_matrix(
        sampler[construction](grid, cli._build_kernel(full), full["sampling"]["seed"], count)
    )
    rows = [
        (d, t, v)
        for d in range(count)
        for t, v in zip(grid.points.tolist(), draws[d].tolist())
    ]
    expected = oracle_csv("sample", cli.config_hash(full), ("draw", "time", "value"), rows)
    assert (tmp_path / "samples.csv").read_bytes() == expected


@pytest.mark.parametrize("truncation", [None, 40])
def test_norm_artifact_matches_oracle(tmp_path, truncation):
    cfg = write_json(tmp_path / "cfg.json", {"norm": {"truncation": truncation}})
    assert cli.main(["norm", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "norm.csv").read_text().splitlines()
    # .17g text round-trips, so the parsed numbers give back the oracle text
    row = [float(c) if c else None for c in lines[2].split(",")]
    assert (row[2] is None) == (truncation is None)
    full = cli.merged_config(json.loads(open(cfg).read()))
    expected = oracle_csv("norm", cli.config_hash(full), lines[1].split(","), [row])
    assert (tmp_path / "norm.csv").read_bytes() == expected


def test_tridiag_artifact_matches_oracle(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"tridiag": {"grid": {"num": 7}}})
    assert cli.main(["tridiag", "--config", cfg, "--out", str(tmp_path)]) == 0
    full = cli.merged_config(json.loads(open(cfg).read()))
    spec = cli._build_kernel(full)
    grid = cli._linspace_grid(full["tridiag"]["grid"], "tridiag.grid")
    inverse = kernelmat.tridiagonal_inverse(spec, grid)
    gram = kernelmat.assemble(spec, grid).values
    rows = [
        (i, j, float(gram[i, j]), float(inverse[i, j]))
        for i in range(grid.n)
        for j in range(grid.n)
    ]
    columns = ("row", "col", "kernel_value", "inverse_value")
    expected = oracle_csv("tridiag", cli.config_hash(full), columns, rows)
    assert (tmp_path / "tridiag.csv").read_bytes() == expected


def test_expand_artifact_matches_oracle(tmp_path):
    config = {"kernel": {"variant": "genspline1", "rho": 0.3}}
    config["expand"] = {"truncation": 30, "grid_points": 6}
    cfg = write_json(tmp_path / "cfg.json", config)
    assert cli.main(["expand", "--config", cfg, "--out", str(tmp_path)]) == 0
    full = cli.merged_config(config)
    spec = cli._build_kernel(full)
    pts = np.arange(1, 7) / 6.0
    partial = mercer.expansion_grid(mercer.EigenSystem(spec, truncation=30), pts, pts)
    exact = kernels.eval_kernel(spec, pts[:, None], pts[None, :])
    rows = [
        (i, j, pts[i], pts[j], partial[i, j], exact[i, j], abs(partial[i, j] - exact[i, j]))
        for i in range(6)
        for j in range(6)
    ]
    columns = ("row", "col", "x", "y", "truncated", "exact", "abs_error")
    expected = oracle_csv("expand", cli.config_hash(full), columns, rows)
    assert (tmp_path / "expansion.csv").read_bytes() == expected


@pytest.mark.parametrize("kind", ["impulse", "zoh"])
def test_estimate_artifact_matches_oracle(tmp_path, kind):
    if kind == "impulse":
        data = impulse_fixture(tmp_path / "data.csv")
        config = {"estimation": {"gamma": 1e-6, "input": {"kind": "impulse"}}}
    else:
        times = np.linspace(0.25, 3.0, 12).tolist()
        rows = [f"{t!r},{math.exp(-t)!r},{math.cos(2.0 * t)!r}" for t in times]
        data = tmp_path / "data.csv"
        data.write_text("time,y,u\n" + "\n".join(rows) + "\n")
        data = str(data)
        config = {"estimation": {"gamma_grid": [1e-1, 1e-3]}}
    config["estimation"]["eval_points"] = 31
    cfg = write_json(tmp_path / "cfg.json", config)
    assert cli.main(["estimate", "--config", cfg, "--data", data, "--out", str(tmp_path)]) == 0
    full = cli.merged_config(config)
    times, outputs, u_column = cli._read_dataset_csv(data)
    dataset = estimator.Dataset(
        np.array(times), np.array(outputs), cli._build_input(full, times, u_column), 0.0
    )
    block = full["estimation"]
    fit = estimator.estimate(cli._build_kernel(full), dataset, block["gamma"], block["gamma_grid"])
    grid = np.linspace(0.0, times[-1], 31)
    rows = list(zip(grid.tolist(), estimator.reconstruct(fit, grid).tolist()))
    expected = oracle_csv("estimate", cli.config_hash(full), ("time", "g_hat"), rows)
    assert (tmp_path / "estimate.csv").read_bytes() == expected


def test_tridiag_offband_matches_oracle(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"kernel": {"variant": "dc", "alpha": 0.8}})
    assert cli.main(["tridiag", "--config", cfg, "--out", str(tmp_path)]) == 0
    full = cli.merged_config(json.loads(open(cfg).read()))
    spec = cli._build_kernel(full)
    grid = cli._linspace_grid(full["tridiag"]["grid"], "tridiag.grid")
    gram = kernelmat.assemble(spec, grid).values
    inverse = kernelmat.tridiagonal_inverse(spec, grid)
    dense = np.linalg.inv(gram)
    row = (
        kernelmat.max_off_tridiagonal(dense) / float(np.max(np.abs(dense))),
        float(np.max(np.abs(gram @ inverse - np.eye(grid.n)))),
    )
    columns = ("dense_offband_rel", "identity_residual")
    expected = oracle_csv("tridiag", cli.config_hash(full), columns, [row])
    assert (tmp_path / "tridiag_offband.csv").read_bytes() == expected


def test_hot_paths_build_no_per_draw_samples(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a per-draw GaussianSample was built")

    monkeypatch.setattr(maxent, "GaussianSample", refuse)
    for construction in ("cumulative", "recursion"):
        cfg = write_json(
            tmp_path / f"{construction}.json",
            {"sampling": {"count": 20, "construction": construction}},
        )
        assert cli.main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 0
    checks = verification.maxent_checks(mc_count=200)
    assert all(c.passed for c in checks)


_LIST_SCIPY_AFTER_MAIN = """
import json, sys
from dckernel import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_fit_and_artifact_commands_never_load_scipy(tmp_path):
    # a subprocess, because this test process has scipy loaded already
    times = np.linspace(0.25, 3.0, 12)
    rows = [f"{float(t)!r},{float(np.exp(-t))!r},{float(t < 1.5)!r}" for t in times]
    zoh = tmp_path / "zoh.csv"
    zoh.write_text("time,y,u\n" + "\n".join(rows) + "\n")
    plain = impulse_fixture(tmp_path / "plain.csv")
    configs = {
        "zoh": {"estimation": {"gamma": 0.1}},
        "zoh_grid": {"estimation": {"gamma_grid": [1e-1, 1e-3]}},
        "step": {"estimation": {"gamma": 1e-3, "input": {"kind": "step"}}},
        "impulse": {"estimation": {"gamma": 1e-6, "input": {"kind": "impulse"}}},
        "expand": {"kernel": {"variant": "spline1"}, "expand": {"grid_points": 5}},
        "cumulative": {"sampling": {"count": 20, "construction": "cumulative"}},
        "recursion": {"sampling": {"count": 20, "construction": "recursion"}},
    }
    cfg = {name: write_json(tmp_path / f"{name}.json", body) for name, body in configs.items()}
    runs = [
        ["estimate", "--config", cfg["zoh"], "--data", str(zoh)],
        ["estimate", "--config", cfg["zoh_grid"], "--data", str(zoh)],
        ["estimate", "--config", cfg["step"], "--data", plain],
        ["estimate", "--config", cfg["impulse"], "--data", plain],
        ["tridiag"],
        ["norm"],
        ["expand", "--config", cfg["expand"]],
        ["sample", "--config", cfg["cumulative"]],
        ["sample", "--config", cfg["recursion"]],
        ["verify"],
    ]
    runs = [argv + ["--out", str(tmp_path / f"run{i}")] for i, argv in enumerate(runs)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _LIST_SCIPY_AFTER_MAIN, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(runs)
    assert result["scipy"] == []
    for i in (0, 1, 2):
        report = json.loads((tmp_path / f"run{i}" / "report.json").read_text())
        assert report["solver"] == "dense"
