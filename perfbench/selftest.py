"""Self-test of the benchmark itself.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py [--workloads tower,convolve,oracle]

For each workload it checks that

* one deliberately corrupted output is counted as exactly one failed op,
  and the same outputs uncorrupted count none;
* two traced runs of the same seed give identical ``*.calls`` and count
  metrics (``*.max_coeff_bits`` among them);
* the traced run shows the layer separation the workload was chosen for.

It also prints the Picard and degree-by-degree counts next to the values
those algorithms imply, without asserting them, since later versions of
the program are meant to change them.  Exits 0 when every check holds.
"""

import argparse
import sys
import tempfile
from fractions import Fraction

import report
import run


# Span prefixes that must show no calls in a workload's traced run.
ABSENT = {
    "tower": ("series.Series2.", "partial_r.", "oracle.", "rank1.", "io.", "cli."),
    "convolve": ("oracle.", "rank1.", "transforms."),
    "oracle": ("series.", "partial_r.", "transforms.", "io.", "cli."),
}


def scratch_dir():
    """A temporary directory under the checkout's ignored .perfbench_tmp/."""
    base = run.ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


def corrupt(out):
    """The same output with its last rational (or last digit) changed."""
    if isinstance(out, Fraction):
        return out + 1
    if isinstance(out, bytes):
        i = max(i for i, b in enumerate(out) if chr(b).isdigit())
        return out[:i] + str((int(chr(out[i])) + 1) % 10).encode() + out[i + 1:]
    for attr in ("coeffs", "values"):
        if hasattr(out, attr):
            return type(out)(corrupt(getattr(out, attr)))
    if isinstance(out, (tuple, list)):
        return type(out)(list(out[:-1]) + [corrupt(out[-1])])
    raise TypeError(f"cannot corrupt {type(out).__name__}")


def check_corruption(workloads, name):
    with scratch_dir() as workdir:
        ops = workloads.build_ops(name, 0, "selftest", workdir)
        latencies = [[] for _ in ops]
        outputs = [[] for _ in ops]
        for _ in range(2):
            run.run_pass(ops, latencies, outputs)
        clean = run.count_failed(ops, outputs)
        first = outputs[0][0]
        first[1] -= 1
        outputs[0].append([corrupt(first[0]), 1])
        dirty = run.count_failed(ops, outputs)
    ok = clean == 0 and dirty == 1
    print(f"{name}: uncorrupted failed {clean}, one corrupted output failed {dirty}"
          f" -> {'ok' if ok else 'WRONG'}")
    return ok


def traced(name, seed):
    """Per-layer metrics of a one-second traced run, without the timings."""
    metrics = report.run_once(name, seed, 1, 1)["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if not k.endswith(".self_s") and k != "trace.overhead_ratio"}


# Reverts per tower op; each reverts a series of order n + 1 for an op of
# order n, which Picard iteration does with n compose calls.
REVERTS = {"moments_to_r": 1, "r_to_moments": 1, "free_convolve1": 3, "subordination_series": 5}


def expected_counts(workloads, name):
    """Compose calls per revert under Picard, forward calls per inverse degree by degree."""
    with scratch_dir() as workdir:
        labels = [op.label.split("@") for op in workloads.build_ops(name, 0, "selftest", workdir)]
    if name == "tower":
        pairs = [(REVERTS[kind], int(order)) for kind, order in labels]
        value = Fraction(sum(k * n for k, n in pairs), sum(k for k, _ in pairs))
        return "series.compose_calls_per_revert", value
    if name == "convolve":
        sums = [sum(map(int, box.split("x"))) for _, box in labels]
        return "partial_r.forward_calls_per_inverse", Fraction(sum(sums), len(sums))
    return None


def check_traced(workloads, name):
    first, second = traced(name, 3), traced(name, 3)
    same = first == second
    print(f"{name}: two traced runs of seed 3 give identical counts -> {'ok' if same else 'WRONG'}")
    if not same:
        for key in sorted(first):
            if first[key] != second.get(key):
                print(f"  {key}: {first[key]} vs {second.get(key)}")
    present = sorted(k for k, v in first.items() if k.endswith(".calls") and v
                     and k.startswith(ABSENT[name]))
    print(f"{name}: spans that must not run: {present or 'none ran'} -> "
          f"{'ok' if not present else 'WRONG'}")
    expected = expected_counts(workloads, name)
    if expected is not None:
        key, value = expected
        print(f"{name}: {key} {first[key]:.6g}; the seed algorithm gives {float(value):.6g}")
    return same and not present


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args(argv)
    if run.import_program() is None:
        print(f"error: no bifree package under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    ok = True
    for name in args.workloads.split(","):
        ok &= check_corruption(workloads, name)
        ok &= check_traced(workloads, name)
    print("selftest:", "all checks hold" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
