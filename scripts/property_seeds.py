"""Run the property tests under N random hypothesis seeds, outside tier-1.

    python3 scripts/property_seeds.py N [PYTEST_ARGS...]

Tier-1 draws the same examples on every run (the ``deterministic`` profile
of ``tests/conftest.py``), so a property that fails only on other draws
stays hidden until the tests or the hypothesis version change.  This script
runs every hypothesis test under the ``random`` profile once per seed
1..N, each seed in a fresh pytest process, and prints the tests that failed
under each seed.  Extra arguments go to pytest, for example
``-k two_level`` to run a subset.  The exit status is 0 when every seed
passed and 1 otherwise.

Loaded by pytest as a plugin (``-p property_seeds``), the module keeps only
the hypothesis tests of the collection.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pytest_collection_modifyitems(config, items):
    keep = [i for i in items if getattr(getattr(i, "obj", None), "is_hypothesis_test", False)]
    dropped = [item for item in items if item not in keep]
    if dropped:
        config.hook.pytest_deselected(items=dropped)
    items[:] = keep


def run_seed(seed: int, extra: list[str]) -> list[str]:
    """Failed test ids under one seed (empty when all passed)."""
    paths = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    argv = [
        sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
        "-p", "property_seeds", "--hypothesis-profile=random", f"--hypothesis-seed={seed}",
        os.path.join(ROOT, "tests"), *extra,
    ]
    done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True)
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    if done.returncode not in (0, 1) or (done.returncode == 1 and not failed):
        failed.append(f"pytest exit {done.returncode}: {done.stdout.strip().splitlines()[-1:]}")
    return failed


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or not args[0].isdigit() or int(args[0]) < 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    seeds, extra = int(args[0]), args[1:]
    failing = 0
    for seed in range(1, seeds + 1):
        failed = run_seed(seed, extra)
        failing += bool(failed)
        print(f"seed {seed}: {'FAIL ' + ' '.join(failed) if failed else 'pass'}", flush=True)
    print(f"{seeds - failing} of {seeds} seeds passed")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
