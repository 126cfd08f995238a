"""Run workloads on several seeds and report each end-to-end metric's
median, quartiles and spread (quartile distance over median).

    python3 perfbench/spread.py --seeds 1-10

Runs go one after another, each in its own process, from the repository
root.  Per-run results land in perfbench/results/ as run.py writes them; the
summary is printed and written to perfbench/results/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None):
    sys.path.insert(0, HERE)
    from run import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)

    summary = {}
    for name in WORKLOAD_NAMES:
        values, shares, elapsed = {}, set(), []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            elapsed.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: outputs failed their checks", file=sys.stderr)
                return 1
            shares.add(result["failed"] / result["attempted"])
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        rows = {}
        for key, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            rows[key] = {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
                         "values": vals}
            print(f"{name:16s} {key:12s} median {q2:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  spread {100 * (q3 - q1) / q2:5.1f}%")
        print(f"{name:16s} failed share {sorted(shares)}; run time "
              f"median {statistics.median(elapsed):.1f}s, max {max(elapsed):.1f}s")
        summary[name] = {"metrics": rows, "failed_shares": sorted(shares),
                         "run_seconds": elapsed}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "spread.json"), "w") as handle:
        json.dump(summary, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
