"""Benchmark of bifree: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tower --seed 1 --seconds 10 --trace 0

The run imports ``bifree`` from ``src/`` of the checkout, builds the seeded
inputs of the workload (see ``workloads.py``), warms up, makes passes over
the op list for ``--seconds`` seconds, the last one stopping at the
deadline, then checks every output exactly.  It prints a readable report
and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: it times half the run untraced and half with
spans around every layer's public functions (``tracing.py``), then makes one
more traced pass that records the count metrics.  The exit code is 0 when
every output checked, 1 when one did not, and 2 when the program is missing.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The keys of workloads.BUILDERS, named here because workloads.py imports
# bifree, which can only happen after the arguments and src/ are checked.
WORKLOADS = ("tower", "convolve", "oracle")
# Set-up is repeated this many times and its median reported, so that one
# set-up slowed by other tenants of a shared host does not decide setup_s.
SETUP_REPS = 5
# The tail percentile is the highest one with at least this many items beyond it.
TAIL_BEYOND = 10

clock = time.perf_counter


class Failed:
    """Stands in for the output of an op that raised."""

    def __init__(self, error):
        self.error = error


def import_program():
    """Import bifree from src/ of this checkout; None when it is not there."""
    src = ROOT / "src"
    if not (src / "bifree" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import bifree

    if Path(bifree.__file__).resolve().parent != (src / "bifree").resolve():
        return None
    return bifree


def run_pass(ops, latencies, outputs, tracer=None, deadline=None):
    """One pass over ``ops``: time each call, collect and record its output.

    ``outputs[i]`` holds op i's distinct outputs with their counts, so the
    memory a run keeps does not grow with the number of passes.  With a
    ``deadline`` the pass stops between two ops once it has gone.
    """
    for i, op in enumerate(ops):
        if deadline is not None and clock() >= deadline:
            return
        if tracer is not None:
            tracer.op = i
        start = clock()
        try:
            raw = op.call()
        except Exception as exc:  # a failing op is counted, not fatal
            raw = Failed(repr(exc))
        latencies[i].append(clock() - start)
        if not isinstance(raw, Failed):
            try:
                raw = op.collect(raw)
            except OSError as exc:
                raw = Failed(repr(exc))
        for seen in outputs[i]:
            if seen[0] == raw:
                seen[1] += 1
                break
        else:
            outputs[i].append([raw, 1])


def run_for(ops, seconds, tracer=None, whole=True):
    """Passes over ``ops`` until ``seconds`` have gone; the first is always whole.

    With ``whole`` every pass is finished; otherwise the last one stops at
    the deadline, between two ops.  Returns the latencies, the outputs and
    the number of op runs.
    """
    latencies = [[] for _ in ops]
    outputs = [[] for _ in ops]
    deadline = clock() + seconds
    run_pass(ops, latencies, outputs, tracer)
    while clock() < deadline:
        run_pass(ops, latencies, outputs, tracer, None if whole else deadline)
    return latencies, outputs, sum(map(len, latencies))


def count_failed(ops, outputs):
    """Check each distinct output of each op once; return how many op runs failed."""
    failed = 0
    for op, results in zip(ops, outputs):
        for out, count in results:
            try:
                ok = not isinstance(out, Failed) and bool(op.check(out))
            except Exception:  # a check that cannot even run is a failed op
                ok = False
            if not ok:
                failed += count
    return failed


def latency_stats(latencies):
    """Per-op latencies: (their sum, p50, tail, tail percentile).

    An op's latency is its fastest run.  On a shared host other tenants'
    load slows calls by up to half, in bursts; the fastest of many runs of a
    short call is the estimate those bursts move least.  The sum over the
    ops is the time of one undisturbed pass.  The tail is the highest percentile
    with TAIL_BEYOND ops beyond it, so it depends only on the ops per pass.
    """
    per_op = sorted(min(x) for x in latencies)
    k = len(per_op) - 1 - TAIL_BEYOND
    if k < len(per_op) // 2:
        raise ValueError(f"{len(per_op)} ops per pass leave no tail with {TAIL_BEYOND} beyond it")
    return sum(per_op), statistics.median(per_op), per_op[k], 100.0 * (k + 1) / len(per_op)


def time_import():
    """Seconds for a fresh interpreter to start and import bifree from src/."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import bifree.cli"
    start = clock()
    subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], check=True, timeout=120,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return clock() - start


def set_up(workloads, name, seed, workdir):
    """Set up SETUP_REPS times; return (timed ops, median set-up seconds).

    One set-up starts a child interpreter that imports bifree and waits for
    it to end, then builds an op list with its fixture files and makes an
    untimed warm-up pass over every SETUP_REPS-th op of it, starting at its
    own offset, so the set-ups together warm up every op shape once.  Each
    set-up has a list of its own, with the timed list's shapes and other
    values, so a cache keyed on input values gains nothing from warming up.
    The import of this process is not timed: the child's stands for it.
    """
    reps = []
    for r in range(SETUP_REPS):
        start = clock()
        time_import()
        warm = workloads.build_ops(name, seed, f"warmup{r}", str(workdir / f"warmup{r}"))[r::SETUP_REPS]
        run_pass(warm, [[] for _ in warm], [[] for _ in warm])
        reps.append(clock() - start)
    ops = workloads.build_ops(name, seed, "timed", str(workdir / "timed"))
    return ops, statistics.median(reps)


def end_to_end(ops, seconds, setup_s, tracing, snapshot):
    tracing.assert_clean(snapshot)
    latencies, outputs, attempted = run_for(ops, seconds, whole=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracing.assert_clean(snapshot)
    failed = count_failed(ops, outputs)
    pass_s, p50, tail, pct = latency_stats(latencies)
    verified = (attempted - failed) / attempted
    metrics = {
        "ops_per_s": (verified * len(ops) / pass_s, "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [
        f"op runs {attempted} ({attempted / len(ops):.2f} passes), ops per pass {len(ops)},"
        f" undisturbed pass {pass_s:.3f} s",
        f"latency_tail_ms is p{pct:.1f} of {len(ops)} per-op latencies",
    ]
    return attempted, failed, metrics, notes


def per_layer(ops, seconds, tracing, snapshot):
    tracing.assert_clean(snapshot)
    plain_lat, plain_out, plain_runs = run_for(ops, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_lat, traced_out, traced_runs = run_for(ops, seconds / 2, tracer)
        self_times = tracer.self_times()
        tracer.reset()
        tracer.observe = True
        stats_lat = [[] for _ in ops]
        stats_out = [[] for _ in ops]
        run_pass(ops, stats_lat, stats_out, tracer)
    finally:
        tracer.uninstall()
    tracing.assert_clean(snapshot)
    calls = tracer.self_times()
    counts = tracer.counts()

    outputs = [a + b + c for a, b, c in zip(plain_out, traced_out, stats_out)]
    attempted = plain_runs + traced_runs + len(ops)
    traced_passes = traced_runs // len(ops)
    failed = count_failed(ops, outputs)
    plain_rate = len(ops) / latency_stats(plain_lat)[0]
    traced_rate = len(ops) / latency_stats(traced_lat)[0]

    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name][0], "count")
        metrics[f"{name}.self_s"] = (self_times[name][1] / traced_passes, "s")
    for name, value in counts.items():
        metrics[name] = (value if isinstance(value, int) else float(value), "count")
    metrics["trace.overhead_ratio"] = (traced_rate / plain_rate, "1")
    notes = [
        f"untraced passes {plain_runs // len(ops)}, traced passes {traced_passes}, ops per pass {len(ops)}",
        "*.calls and counts are from one extra traced pass; *.self_s is per traced pass",
    ]
    return attempted, failed, metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    bifree = import_program()
    if bifree is None:
        print(f"error: no bifree package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    snapshot = tracing.originals()
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        ops, setup_s = set_up(workloads, args.workload, args.seed, workdir)
        if args.trace:
            attempted, failed, metrics, notes = per_layer(ops, args.seconds, tracing, snapshot)
        else:
            attempted, failed, metrics, notes = end_to_end(
                ops, args.seconds, setup_s, tracing, snapshot
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(f"bifree benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    print(f"  failed_ratio {failed / attempted:.6g} (1) = {failed} of {attempted} ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} ({unit})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
