"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout::

    python3 perfbench/report.py --seeds 1-10 --trace 0 [--workloads tower,oracle]
                                [--seconds S] [--json OUT]

For every workload it runs ``run.py`` once per seed, one run at a time, and
prints each metric's median, first and third quartile, and the spread
(third minus first quartile, as a share of the median).  Quartiles are those
of ``statistics.quantiles(values, n=4)``.  With ``--json`` the summary is
also written to a file, in the layout of each section of ``baseline.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            shown = list(runs[-1]["metrics"].items())[:5]
            print(f"  seed {seed}: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in shown), flush=True)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload}: seeds {args.seeds[0]}..{args.seeds[-1]}, "
              f"failed_ratio {failed / attempted:.6g} (1) = {failed} of {attempted}")
        summary[workload] = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarise(values) if len(values) > 1 else {"median": values[0]}
            summary[workload][name] = dict(s, unit=first["unit"], values=values)
            spread = s.get("spread")
            print(f"  {name:44s} median {s['median']:.6g} {first['unit']:6s}"
                  + (f" q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread:.3f}"
                     if spread is not None else ""))
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
