"""Benchmark of sconvex: four closed-loop workloads, one caller, no threads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-suites --seed 1 --seconds 20 --trace 0

The run builds the workload's inputs from the seed, then repeats passes
over its fixed list of operations until the next pass would end past
``--seconds`` (at least one pass).  Every operation is one call into a
layer's public function, timed from outside in CPU time rescaled by the
host's speed (see gauge.py), and its answer is checked.  With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, whose spans are also written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

from gauge import Gauge

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sconvex"
OUT_DIR = ROOT / ".perfbench"
SETUP_RUNS = 9
WORKLOADS = ("verify-suites", "probe-n5", "large-n", "cli-mix")


def import_program():
    """Import sconvex from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(PACKAGE.parent))
    import sconvex
    if Path(sconvex.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"error: imported sconvex from {sconvex.__file__}")


def child(args):
    """A fresh interpreter's part of a run; see _child."""
    gauge = Gauge() if args.child == "setup" else None
    if gauge is not None:
        gauge.install()
    try:
        import_program()
        import workloads
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as workdir:
            ops = workloads.build(args.workload, args.seed, Path(workdir),
                                  args.tiny, oracles=None)
            if gauge is not None:  # the cost since the process started
                print(gauge.cost(0.0, process_time()))
                return 0
            for op in ops:
                op.run()
    finally:
        if gauge is not None:
            gauge.uninstall()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return 0


def _child(args, role):
    """Run a fresh interpreter that imports the program and builds the
    workload's inputs, writing its files, and return the number it prints.

    With role "setup" that is the cost so far in nominal CPU seconds (see
    gauge.py).  With role "peak-rss" the interpreter also runs one pass
    over the operations, unchecked and with no gauge, and the number is
    its peak resident memory in MB.  There numpy is told not to ask for
    transparent huge pages for its arrays: whether the kernel has free
    ones varies with the host's other load, and with them the peak grows
    (by 0.5 MB on large-n while another process held huge pages).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", role,
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ)
    if role == "peak-rss":
        env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=env) as proc:
        try:
            out, _ = proc.communicate(timeout=150)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{role} run failed with exit {proc.returncode}")
    return float(out)


def _run_passes(ops, budget, gauge, tracer=None, first_pass=0):
    """Passes over ops until the next would end past budget seconds.

    Returns (per-pass lists of op costs in nominal CPU seconds, attempted,
    failed, answers of the first pass).  An operation that raises counts
    as failed.
    """
    passes, answers = [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        times = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = (first_pass + len(passes), i)
            answer = error = None
            t0 = process_time()
            try:
                raw = op.run()
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                t1 = process_time()
                error = traceback.format_exc()
            else:
                t1 = process_time()
                answer = op.plain(raw)
                error = op.check(answer)
            times.append(gauge.cost(t0, t1))
            attempted += 1
            if error is not None:
                failed += 1
                print(f"FAILED {op.label}: {error}", file=sys.stderr)
            if not passes:
                answers.append(repr(answer))
        passes.append(times)
        now = perf_counter()
        if now - start + (now - pass_start) > budget:
            return passes, attempted, failed, answers


def _run_pairs(ops, budget, gauge, tracer):
    """Alternate untraced and traced passes until the next pair would end
    past budget seconds, so that drift in the host's speed falls on both
    alike.  Returns (untraced passes, traced passes, attempted, failed,
    answers); traced answers that differ from untraced ones count as a
    failure."""
    untraced, traced, attempted, failed = [], [], 0, 0
    start = perf_counter()
    while True:
        pair_start = perf_counter()
        plain = _run_passes(ops, 0, gauge)
        tracer.install()
        try:
            result = _run_passes(ops, 0, gauge, tracer, len(traced))
        finally:
            tracer.uninstall()
        untraced += plain[0]
        traced += result[0]
        attempted += plain[1] + result[1]
        failed += plain[2] + result[2]
        if plain[3] != result[3]:
            failed += 1
            print("FAILED traced answers differ from untraced ones",
                  file=sys.stderr)
        now = perf_counter()
        if now - start + (now - pair_start) > budget:
            return untraced, traced, attempted, failed, result[3]


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(args, peak_mb, setups):
    """Run one workload; returns (metrics, attempted, failed, notes).

    peak_mb and setups come from fresh interpreters started before this
    one imported the program (None when tracing).
    """
    import checks
    import workloads
    oracles = checks.load_oracles(ROOT)
    OUT_DIR.mkdir(exist_ok=True)
    notes = []
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    gauge = Gauge()
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as workdir:
        if tracer is not None:
            tracer.install()
        try:
            ops = workloads.build(args.workload, args.seed, Path(workdir),
                                  args.tiny, oracles)
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall, cpu = perf_counter(), process_time()
        gauge.install()
        try:
            if tracer is None:
                passes, attempted, failed, answers = _run_passes(
                    ops, args.seconds, gauge)
            else:
                untraced, passes, attempted, failed, answers = _run_pairs(
                    ops, args.seconds, gauge, tracer)
        finally:
            gauge.uninstall()
        wall, cpu = perf_counter() - wall, process_time() - cpu
    # One cost per operation: the median over the passes of its nominal CPU
    # seconds (see gauge.py).  Wall time would count the time other tenants
    # hold the host's CPUs, and raw CPU time the spells in which they slow
    # it down; the program's own cost is what is left.
    op_times = [statistics.median(ts) for ts in zip(*passes)]
    notes.append(f"workload={args.workload} seed={args.seed} trace={args.trace} "
                 f"passes={len(passes)} ops_per_pass={len(ops)} "
                 f"attempted={attempted} "
                 f"failed={failed}")
    # How much of the measuring time the process had the CPU: well below 1
    # when other tenants load the host.
    notes.append(f"measuring wall_s={wall:.3f} cpu_s={cpu:.3f} "
                 f"gauge_samples={len(gauge.samples)}")
    notes.append("answers sha256=" + hashlib.sha256(
        "\n".join(answers).encode()).hexdigest())
    if args.trace:
        overhead = sum(op_times) / sum(map(statistics.median, zip(*untraced))) - 1
        metrics = tracing.per_layer_metrics(tracer.spans, range(len(passes)),
                                            overhead)
        suffix = "-tiny" if args.tiny else ""
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}{suffix}.jsonl.gz"
        tracer.write(path)
        notes.append(f"spans={len(tracer.spans)} written to {path.relative_to(ROOT)}")
        return metrics, attempted, failed, notes
    notes.append(f"setup costs runs={len(setups)} "
                 + " ".join(f"{s:.4f}" for s in setups))
    metrics = {
        "pass_cpu_s": (sum(op_times), "s"),
        "op_cpu_p50_ms": (_quantile(op_times, 50) * 1e3, "ms"),
        "op_cpu_p90_ms": (_quantile(op_times, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            attempted, failed, notes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to smoke-test sizes")
    parser.add_argument("--child", choices=("setup", "peak-rss"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no sconvex sources under {PACKAGE.parent}")
    if args.child:
        return child(args)
    peak_mb = setups = None
    if not args.trace:
        # A child's ru_maxrss starts at its parent's peak (Linux carries it
        # over exec), so these start while this process is still small.
        peak_mb = _child(args, "peak-rss")
        setups = [_child(args, "setup") for _ in range(SETUP_RUNS)]
    import_program()
    metrics, attempted, failed, notes = measure(args, peak_mb, setups)
    for line in notes:
        print("# " + line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
