"""dckernel benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a dckernel checkout:

    python3 perfbench/run.py --workload convolved-fit --seed 1 --seconds 10 --trace 0

Each op is one ``dckernel`` command, called in process through
``dckernel.cli.main`` by a single client that waits for every command to
finish before sending the next (a closed loop).  Ops are drawn from the
workload's fixed cycle (see ``workloads.py``) with inputs made from
``--seed``, and each op's outputs are checked (``checks.py``).  Whole
cycles are run until the ops' summed wall time reaches ``--seconds``, and
at least three cycles.  Op and set-up times are wall time less the
hypervisor's steal, scaled to a nominal host speed by a reference kernel
timed beside every op (``clock.py``); the raw wall-time figures are
printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
run of the same ops: each op runs once untraced and once with spans
recorded around every call into a dckernel layer (``tracing.py``), the two
orders alternating, and it reports the per-layer metrics, including the
cost of tracing itself; it needs no tail, so one cycle is its minimum.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A longer
record (host, every metric, every op) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

# BLAS/OpenMP pools are capped through DCKERNEL_THREADS, as the CLI does in
# a fresh process.  The benchmark loads numpy before the CLI runs, so the
# pool variables are set here, before any import of numpy.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_REPEATS = 5
# An untraced run covers at least this many cycles, so that its tail
# percentile (10 ops beyond it) always falls among the cycle's heaviest
# slots, however slow the machine is; see workloads.CYCLES.
MIN_CYCLES = 3
OUT_DIR = ".perfbench_out"


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def tail(values):
    """Highest-percentile value with at least 10 samples beyond it.

    Returns ``(value, percentile)``; with 10 samples or fewer it is the
    maximum, at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure_setup(clock, src, modules):
    """Median time (see ``clock``) of a fresh interpreter importing ``modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = "import " + ", ".join(modules)
    times = []
    for _ in range(SETUP_REPEATS):
        _, timing = clock.time(lambda: subprocess.run([sys.executable, "-c", code], env=env, check=True))
        times.append(timing.seconds)
    return statistics.median(times)


class Runner:
    """Runs ops in process and checks them; keeps one record per execution."""

    def __init__(self, cli, checks, clock, work_dir):
        self.cli = cli
        self.checks = checks
        self.clock = clock
        self.work = work_dir
        self.records = []
        self._kept = {}

    def execute(self, op, tag, tracer=None):
        base = os.path.join(self.work, f"op{op.index}-{tag}")
        inp = os.path.join(base, "in")
        out = os.path.join(base, "out")
        os.makedirs(inp)
        config_path = os.path.join(inp, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(op.config, fh)
        argv = [op.command, "--config", config_path, "--out", out]
        if op.data_csv is not None:
            data_path = os.path.join(inp, "data.csv")
            with open(data_path, "w", encoding="utf-8") as fh:
                fh.write(op.data_csv)
            argv += ["--data", data_path]
        stdout, stderr = io.StringIO(), io.StringIO()
        # collect the previous op's and the checks' garbage now, so that a
        # collection it triggers does not land inside this op's timing
        gc.collect()

        def call():
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    return self.cli.main(argv)
                except (Exception, SystemExit):  # a raised exception is a failed op
                    stderr.write(traceback.format_exc())
                    return None

        if tracer is not None:
            tracer.install()
            tracer.op = op.index
        try:
            code, timing = self.clock.time(call)
        finally:
            if tracer is not None:
                tracer.op = None
                tracer.uninstall()
        if code is None:
            status, fit_err, note = "failed", None, "raised: " + stderr.getvalue().strip().splitlines()[-1]
        else:
            status, fit_err, note = self.checks.check_op(
                op, self.cli, out, code, stdout.getvalue(), stderr.getvalue()
            )
        artifact_bytes = sum(
            os.path.getsize(os.path.join(out, name))
            for name in self.checks.ARTIFACTS[op.command]
            if os.path.isfile(os.path.join(out, name))
        )
        record = {
            "index": op.index,
            "slot": op.slot,
            "command": op.command,
            "traced": tracer is not None,
            "time_s": timing.seconds,
            "wall_s": timing.wall_s,
            "steal_s": timing.steal_s,
            "reference_s": timing.reference_s,
            "status": status,
            "fit_err": fit_err,
            "artifact_bytes": artifact_bytes,
            "note": note,
        }
        self.records.append(record)
        return record, base, out

    def compare(self, record, op, out_a, out_b, what):
        """Fail ``record`` unless both outputs are byte-identical."""
        if record["status"] == "ok" and not self.checks.same_artifacts(op.command, out_a, out_b):
            record["status"] = "failed"
            record["note"] = f"artifacts differ from {what}"

    def run_op(self, op, tracer=None):
        """Run one op (twice in a traced run); returns the wall time added.

        Outputs are deleted once checked, except those a later repeat of
        the op is compared against.
        """
        if tracer is None:
            runs = [self.execute(op, "run")]
        else:
            order = (False, True) if op.index % 2 == 0 else (True, False)
            runs = [self.execute(op, "traced" if t else "plain", tracer if t else None) for t in order]
            first, second = runs
            what = "the untraced run" if order[1] else "the traced run"
            self.compare(second[0], op, first[2], second[2], what)
        if op.repeat_of in self._kept:
            base, out = self._kept.pop(op.repeat_of)
            for record, _, this_out in runs:
                self.compare(record, op, out, this_out, f"op {op.repeat_of}")
            shutil.rmtree(base, ignore_errors=True)
        for i, (record, base, out) in enumerate(runs):
            if i == 0 and op.repeated and record["status"] == "ok":
                self._kept[op.index] = (base, out)
            else:
                shutil.rmtree(base, ignore_errors=True)
        return sum(r[0]["wall_s"] for r in runs)


def summarize(records):
    """(attempted, failed, refused, op times) over op records."""
    times = [r["time_s"] for r in records]
    n = len(records)
    failed = sum(r["status"] == "failed" for r in records)
    refused = sum(r["status"] == "refused" for r in records)
    return n, failed, refused, times


def end_to_end(records, setup_s, fit_tolerance):
    """End-to-end metrics as {name: (value, unit, note)}, attempted, failed."""
    n, failed, refused, times = summarize(records)
    busy = sum(times)
    walls = [r["wall_s"] for r in records]
    tail_value, tail_pct = tail(times)
    errs = [
        r["fit_err"] for r in records
        if r["fit_err"] is not None and not r["slot"].startswith("repeat:")
    ]
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} fresh interpreters"),
        "op_p50_s": (statistics.median(times), "s", f"median of {n} ops"),
        "op_tail_s": (tail_value, "s", f"p{tail_pct:.1f} of {n} ops, {10 if n > 10 else 0} beyond"),
        "ops_per_s": (n / busy, "1/s", f"{n} ops in {busy:.3f} s busy, 1 client"),
        # the same three from raw wall time, steal and host speed included
        "op_p50_wall_s": (statistics.median(walls), "s", f"median of {n} ops, raw wall time"),
        "op_tail_wall_s": (tail(walls)[0], "s", f"p{tail_pct:.1f} of {n} ops, raw wall time"),
        "ops_per_wall_s": (n / sum(walls), "1/s", f"{n} ops in {sum(walls):.3f} s of raw wall time"),
        "steal_frac": (sum(r["steal_s"] for r in records) / sum(walls), "frac",
                       "share of the ops' wall time the host ran others on this CPU"),
        "reference_ms": (1e3 * statistics.median(r["reference_s"] for r in records), "ms",
                         "median time of the reference kernel timed beside every op"),
        "fail_frac": ((failed + refused) / n, "frac",
                      f"{failed + refused} of {n}: {refused} ConditioningError, {failed} other"),
        "ok_frac": ((n - failed - refused) / n, "frac", f"{n - failed - refused} of {n} ops succeeded"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "peak resident memory of this process"),
        # the mean, not the median: slots differ in their typical error,
        # and the median of that mix jumped from slot to slot between seeds
        "fit_err_rel": (statistics.fmean(errs) if errs else float("nan"), "frac",
                        f"mean of {len(errs)} fits, sanity tolerance {fit_tolerance}"),
    }
    return metrics, n, failed


def per_layer(records, tracing, spans):
    """Per-layer metrics as {name: (value, unit, note)}, attempted, failed."""
    traced = [r for r in records if r["traced"]]
    commands = {r["index"]: r["command"] for r in traced}
    layer = tracing.layer_metrics(spans, commands)
    metrics = {
        name: (value, unit, "computed" if computed else "measured")
        for name, (value, unit, computed) in layer.items()
    }
    metrics["cli.artifact_bytes"] = (
        statistics.fmean(r["artifact_bytes"] for r in traced), "bytes", "measured")
    busy_traced = sum(r["time_s"] for r in records if r["traced"])
    busy_plain = sum(r["time_s"] for r in records if not r["traced"])
    metrics["trace.overhead_frac"] = (
        busy_traced / busy_plain - 1.0, "frac",
        f"traced over untraced busy time of the same {len(traced)} ops, minus 1")
    n, failed, _, _ = summarize(records)
    return metrics, n, failed


def main(argv=None):
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dckernel", "cli.py")):
        print("error: run from the root of a dckernel checkout (src/dckernel not found)", file=sys.stderr)
        return 2
    os.environ["DCKERNEL_THREADS"] = THREADS
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.path.insert(0, src)

    import checks
    import clock
    import host
    import tracing
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    from dckernel import cli

    out_root = os.path.join(root, OUT_DIR)
    os.makedirs(out_root, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(out_root, f"work-{stem}-{os.getpid()}")
    cpu = clock.pin_to_one_cpu()
    timer = clock.Clock(cpu, workloads.REFERENCE[args.workload])
    hostinfo = host.record(args.workload, args.seed, THREADS)
    hostinfo.update(pinned_cpu=cpu, reference_kernel=timer.kernel)
    print("host " + json.dumps(hostinfo, sort_keys=True))

    try:
        warm = Runner(cli, checks, timer, os.path.join(work, "warmup"))
        for index in workloads.WARMUP_SLOTS[args.workload]:
            warm.run_op(workloads.make_op(args.workload, args.seed, index))
        broken = [r for r in warm.records if r["status"] == "failed"]
        if broken:
            print(f"warning: {len(broken)} warm-up ops failed: {broken[0]['note']}")

        tracer = tracing.Tracer() if args.trace else None
        setup_s = None
        if tracer is None:
            loaded = sorted(m for m in sys.modules if m == "dckernel" or m.startswith("dckernel."))
            setup_s = measure_setup(clock.Clock(cpu, "numeric"), src, loaded)
            print(f"setup imports: {', '.join(loaded)}")

        cycle = len(workloads.CYCLES[args.workload])
        min_ops = cycle if tracer else MIN_CYCLES * cycle
        runner = Runner(cli, checks, timer, work)
        busy = 0.0
        index = 0
        while busy < args.seconds or index % cycle or index < min_ops:
            busy += runner.run_op(workloads.make_op(args.workload, args.seed, index), tracer)
            index += 1
        records = runner.records
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        metrics, attempted, failed = end_to_end(records, setup_s, workloads.FIT_TOLERANCE[args.workload])
    else:
        metrics, attempted, failed = per_layer(records, tracing, tracer.spans)
        tracer.write(os.path.join(out_root, f"{stem}-spans.jsonl"))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"closed loop, 1 client, DCKERNEL_THREADS={THREADS}")
    for name, (value, unit, note) in sorted(metrics.items()):
        print(f"  {name:40s} {value:14.6g} {unit:6s} {note}")
    for r in records:
        if r["status"] != "ok":
            print(f"  op {r['index']} {r['slot']}: {r['status']}: {r['note']}")

    with open(os.path.join(out_root, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"host": hostinfo, "metrics": metrics, "ops": records}, fh, indent=1)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
