"""Byte diff of every CLI artifact between two source trees.

    python3 scripts/compare_artifacts.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories of two dckernel checkouts
(the directories that hold the ``dckernel`` package).  Each tree runs every
command on the same fixed configs and inputs, in a fresh Python process of
its own, and the script lists every artifact with its verdict: ``same``,
``DIFFERS``, or ``MISSING`` on one side.  A ``DIFFERS`` line also gives
the largest relative change, max|new - old| / max|old| over the numeric
fields of a CSV artifact or the numbers of a JSON one, in order.  A run
whose exit code differs between the trees is listed as ``EXIT``, and one
that wrote nothing in either tree (a refused config) as ``no-output``.
The exit status is 0 when every artifact and exit code agree, and 1
otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile

LONG = {"start": 0.1, "stop": 40.0, "num": 60}  # 2 beta t up to 40 at beta = 0.5
DC = {"variant": "dc", "alpha": 0.6, "beta": 0.4}

# (name, command, config, data file or None)
RUNS = [
    ("sample-cumulative-dc", "sample", {"kernel": {"variant": "dc", "alpha": 0.7, "beta": 0.5},
                                        "sampling": {"count": 50, "seed": 3}}, None),
    ("sample-recursion-tc", "sample", {"sampling": {"count": 50, "construction": "recursion"}}, None),
    ("sample-cumulative-long", "sample", {"sampling": {"count": 20, "grid": LONG}}, None),
    ("sample-recursion-long", "sample", {"sampling": {"count": 20, "construction": "recursion",
                                                      "grid": LONG}}, None),
    ("sample-cumulative-dc-1000x200", "sample",
     {"kernel": DC, "sampling": {"count": 1000, "seed": 7, "grid": {"num": 200}}}, None),
    ("tridiag-tc", "tridiag", {"tridiag": {"grid": {"num": 40}}}, None),
    ("tridiag-dc-200", "tridiag", {"kernel": DC, "tridiag": {"grid": {"num": 200}}}, None),
    ("tridiag-dc", "tridiag", {"kernel": {"variant": "dc", "alpha": 1.1, "beta": 0.4}}, None),
    ("tridiag-dc-long", "tridiag", {"kernel": {"variant": "dc", "alpha": 0.3, "beta": 0.7},
                                    "tridiag": {"grid": {"start": 0.1, "stop": 60.0, "num": 40}}},
     None),
    ("expand-spline1", "expand", {"kernel": {"variant": "spline1"},
                                  "expand": {"truncation": 200, "grid_points": 30}}, None),
    ("expand-genspline1", "expand", {"kernel": {"variant": "genspline1", "rho": 0.3},
                                     "expand": {"truncation": 200, "grid_points": 30}}, None),
    ("norm", "norm", {"norm": {"gamma": 1.3}}, None),
    ("norm-dc", "norm", {"kernel": {"variant": "dc", "alpha": 1.3, "beta": 0.4},
                         "norm": {"gamma": 1.7}}, None),
    ("norm-truncated", "norm", {"kernel": {"variant": "dc", "alpha": 0.6, "beta": 2.0},
                                "norm": {"gamma": 1.0, "truncation": 100}}, None),
    ("norm-near-threshold", "norm", {"kernel": {"variant": "dc", "alpha": 0.01, "beta": 50.0},
                                     "norm": {"gamma": 0.011}}, None),
    ("estimate-impulse", "estimate", {"estimation": {"gamma": 1e-6, "input": {"kind": "impulse"}}},
     "impulse.csv"),
    ("estimate-zoh", "estimate", {"estimation": {"gamma": 0.05}}, "zoh.csv"),
    ("estimate-step", "estimate", {"estimation": {"gamma": 1e-3, "input": {"kind": "step"}}},
     "impulse.csv"),
    ("estimate-zoh-grid", "estimate", {"kernel": {"variant": "dc", "alpha": 0.6, "beta": 0.5},
                                       "estimation": {"gamma_grid": [1e-4, 1e-2, 1.0]}}, "zoh.csv"),
    ("estimate-impulse-ss-grid", "estimate", {"kernel": {"variant": "ss", "alpha": 0.6},
                                              "estimation": {"gamma_grid": [1e-4, 1e-3, 1e-2, 1e-1],
                                                             "input": {"kind": "impulse"}}},
     "impulse-400.csv"),
    ("verify", "verify", {"verify": {"mc_count": 20000}}, None),
]

_RUNNER = """
import json, sys
from dckernel import cli
for name, argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    print("exit-code", json.dumps([name, code]), flush=True)
"""


def write_inputs(directory: str) -> None:
    times = [0.2 * (i + 1) for i in range(15)]
    with open(os.path.join(directory, "impulse.csv"), "w") as fh:
        fh.write("time,y\n")
        fh.writelines(f"{t!r},{math.exp(-t) * (1 + 0.1 * math.sin(7 * t))!r}\n" for t in times)
    with open(os.path.join(directory, "impulse-400.csv"), "w") as fh:
        fh.write("time,y\n")
        fh.writelines(
            f"{0.02 * (i + 1)!r},{math.exp(-0.02 * (i + 1)) * (1 + 0.01 * math.sin(37.0 * i))!r}\n"
            for i in range(400)
        )
    with open(os.path.join(directory, "zoh.csv"), "w") as fh:
        fh.write("time,y,u\n")
        fh.writelines(
            f"{t!r},{1 - math.exp(-t)!r},{math.cos(1.3 * t)!r}\n" for t in times
        )


def run_tree(src: str, work: str, tag: str) -> dict:
    """Run every config under the tree ``src``; exit code by run name."""
    argvs = []
    for name, command, config, data in RUNS:
        cfg = os.path.join(work, f"{name}.json")
        with open(cfg, "w") as fh:
            json.dump(config, fh)
        argv = [command, "--config", cfg, "--out", os.path.join(work, tag, name)]
        if data is not None:
            argv += ["--data", os.path.join(work, data)]
        argvs.append((name, argv))
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", _RUNNER, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    return dict(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("exit-code "))


def compare(work: str, codes: dict) -> list[tuple[str, str]]:
    verdicts = []
    for name, *_ in RUNS:
        old_dir, new_dir = (os.path.join(work, tag, name) for tag in ("old", "new"))
        files = sorted(set(_listing(old_dir)) | set(_listing(new_dir)))
        exits = [codes[tag].get(name) for tag in ("old", "new")]
        if exits[0] != exits[1]:
            verdicts.append(("EXIT", f"{name}: exit {exits[0]} -> {exits[1]}"))
        elif not files:
            verdicts.append(("no-output", f"{name}: exit {exits[0]} in both"))
        for file in files:
            paths = [os.path.join(d, file) for d in (old_dir, new_dir)]
            if not all(os.path.exists(p) for p in paths):
                verdict = "MISSING"
            else:
                old, new = (open(p, "rb").read() for p in paths)
                verdict = "same" if old == new else "DIFFERS"
            change = f"  ({relative_change(*paths)})" if verdict == "DIFFERS" else ""
            verdicts.append((verdict, f"{name}/{file}{change}"))
    return verdicts


def relative_change(old_path: str, new_path: str) -> str:
    """The largest max|new - old| / max|old| over the numeric columns of two artifacts.

    A column is a CSV column, or the numbers under one key path of a JSON
    file (list positions pooled), so an index column does not dilute a
    value column.
    """
    old, new = _columns(old_path), _columns(new_path)
    if old.keys() != new.keys() or any(len(old[k]) != len(new[k]) for k in old):
        return "numbers differ in layout"
    worst, where = 0.0, ""
    for key, before in old.items():
        scale = max(abs(x) for x in before)
        change = max(abs(b - a) for a, b in zip(before, new[key]))
        rel = change / scale if scale else (math.inf if change else 0.0)
        if rel > worst:
            worst, where = rel, f" in {key}, max|old| {scale:.2e}"
    return f"max rel change {worst:.2e}{where}"


def _columns(path: str) -> dict[str, list[float]]:
    """Numbers by column: CSV columns below the header, or JSON key paths."""
    with open(path) as fh:
        text = fh.read()
    columns: dict[str, list[float]] = {}
    if path.endswith(".json"):

        def walk(x, key):
            if isinstance(x, dict):
                for name, item in x.items():
                    walk(item, f"{key}.{name}" if key else name)
            elif isinstance(x, list):
                for item in x:
                    walk(item, key)
            elif isinstance(x, (int, float)) and not isinstance(x, bool):
                columns.setdefault(key, []).append(float(x))

        walk(json.loads(text), "")
        return columns
    header, *rows = [line for line in text.splitlines() if not line.startswith("#")]
    names = header.split(",")
    for row in rows:
        for name, field in zip(names, row.split(",")):
            if field:
                columns.setdefault(name, []).append(float(field))
    return columns


def _listing(directory: str) -> list[str]:
    return os.listdir(directory) if os.path.isdir(directory) else []


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="dckernel_compare_") as work:
        write_inputs(work)
        codes = {tag: run_tree(src, work, tag) for tag, src in zip(("old", "new"), args)}
        verdicts = compare(work, codes)
    for verdict, what in verdicts:
        print(f"{verdict:9s} {what}")
    files = [verdict for verdict, _ in verdicts if verdict not in ("EXIT", "no-output")]
    print(f"{files.count('same')} of {len(files)} artifacts byte-identical")
    return 0 if all(verdict in ("same", "no-output") for verdict, _ in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
