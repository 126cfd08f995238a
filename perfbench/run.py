"""Benchmark of the mccssp library: one workload per process, run serially.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1
    python3 perfbench/run.py [--seed N] [--trace 0|1]

With ``--workload`` the run sets up, repeats whole rounds of the workload
while the next round is expected to end within ``--seconds`` (at least one
round), checks the outputs and prints one JSON object as its last line: the
end-to-end metrics with ``--trace 0``, the per-layer metrics from spans
around library calls with ``--trace 1`` (one round).  ``--seconds``
defaults to ``run_seconds`` in BENCHMARK.json, the one place the run length
is set.  ``--setup-only`` sets up, prints ``setup_s`` and exits; a run calls
it to repeat set-up in fresh interpreters.  Without ``--workload`` it runs
every workload, each in its own process, and prints their metrics.  Run it from the repository root; the
library is imported from ``src/``.  See perfbench/README.md.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOAD_NAMES = ("intersect-plan", "grid-scale", "oracle-selftest")
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
}


def percentile(values, q):
    """Linear-interpolation percentile of ``values`` (0 <= q <= 100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_operation(samples, per_round, factors):
    """Each operation's latency: the median over the rounds of its samples,
    each times its round's factor.  ``samples`` holds the rounds in turn."""
    return [
        statistics.median(samples[r * per_round + i] * f for r, f in enumerate(factors))
        for i in range(per_round)
    ]


def fresh_setup_s(name, seed):
    """``setup_s`` of one more set-up, in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(name, seed, seconds, trace, setup_only=False):
    import checks
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]()
    patches = tracing.Patches()
    tracer = tracing.Tracer() if trace else None
    run = workloads.Run(seed, patches, tracer, scaled=workload.scaled)
    if tracer is not None:
        tracing.install(tracer, patches)
    window_start = time.perf_counter_ns()
    workload.setup(run)
    workload.install(run)
    setup_s = time.perf_counter() - START - run.aside_s()
    if setup_only:
        return {"setup_s": setup_s}

    walls, spans, longest = [], [], 0.0
    phase_start = time.perf_counter()
    first_round_ns = time.perf_counter_ns()
    while True:
        round_start, aside_before = time.perf_counter(), run.aside_s()
        workload.round(run)
        run.meter.tick(force=True)  # every round has a sample of its own
        round_end = time.perf_counter()
        walls.append(round_end - round_start - (run.aside_s() - aside_before))
        spans.append((round_start, round_end))
        longest = max(longest, round_end - round_start)
        # whole rounds only: stop before one that would end past --seconds
        if trace or round_end - phase_start + longest > seconds:
            break
    window_end = time.perf_counter_ns()

    workload.finish(run)
    patches.undo()

    # Set-up once more in fresh interpreters, where imports run again; the
    # median of all of them is setup_s.
    setups = [setup_s]
    if not trace:
        setups += [fresh_setup_s(name, seed) for _ in range(workload.setup_repeats - 1)]

    # Every round repeats the same operations in the same order, so each
    # operation's latency is its median over the rounds; the percentiles
    # are taken over those, and one slow repeat of a tail operation does
    # not move the tail.  The rung follows the count per round, so a
    # faster program running more rounds reports the same percentile.
    # Below forty operations no percentile has ten beyond it: the median
    # stands in.
    # Untraced, each round's times are scaled by the machine-speed factor
    # of that round, set-up by that of the whole run; see machine.py.
    setup_scale, scale = 1.0, [1.0] * len(walls)
    if run.meter.enabled:
        setup_scale = run.meter.factor()
        scale = [run.meter.factor(start, end) for start, end in spans]
    samples = run.op_ms
    per_round = len(samples) // len(walls)
    run.expect(len(samples) == per_round * len(walls),
               f"{len(samples)} latency samples over {len(walls)} rounds")
    latencies = per_operation(samples, per_round, scale)
    tail_q = checks.tail_percentile(per_round) or 50.0
    result = {
        "workload": name,
        "seed": seed,
        "rounds": len(walls),
        "round_walls_s": walls,
        "round_spans": spans,
        "reference_s": run.meter.samples,
        "reference_ends": run.meter.ends,
        "setup_samples_s": setups,
        "setup_scale": setup_scale,
        "scale": scale,
        "op_samples": len(samples),
        "op_ms": samples,
        "op_ends": run.op_ends,
        "tail_percentile": tail_q,
        "problems": run.problems,
        "notes": run.notes,
    }
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer, window_start, window_end)
        round_layer, round_share = tracing.dominant_layer(tracer, first_round_ns)
        result["dominant_layer_in_round"] = [round_layer, round_share]
        run.expect(
            round_layer == workload.dominant,
            f"dominant layer {round_layer}, not {workload.dominant} as the workload is built for",
        )
        os.makedirs(RESULTS, exist_ok=True)
        tracer.dump(os.path.join(RESULTS, f"trace-{name}-seed{seed}.jsonl"))
        print(f"{name}: dominant layer in the timed round: {round_layer} "
              f"({100 * round_share:.0f}% of layer self time)")
    else:
        raw = per_operation(samples, per_round, [1.0] * len(walls))
        result["raw"] = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_ms_p50": statistics.median(raw),
            "op_ms_tail": percentile(raw, tail_q),
        }
        values = {
            "setup_s": result["raw"]["setup_s"] * setup_scale,
            "wall_s": statistics.median(w * f for w, f in zip(walls, scale)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_ms_p50": statistics.median(latencies),
            "op_ms_tail": percentile(latencies, tail_q),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        counts = {
            "setup_s": f"median of n={len(setups)} set-ups",
            "wall_s": f"median of n={len(walls)} rounds",
            "peak_rss_mb": "n=1",
            "op_ms_p50": f"n={per_round} operations, each a median of {len(walls)} rounds",
            "op_ms_tail": f"p{tail_q:g} of the same n={per_round}",
        }
        for key, (value, unit) in metrics.items():
            print(f"{name}: {key} = {value:.6g} {unit} ({counts[key]})")
        if run.meter.enabled:
            print(f"{name}: times scaled to reference speed by {setup_scale:.4f} (set-up) "
                  f"and {min(scale):.4f}-{max(scale):.4f} (rounds), from "
                  f"n={len(run.meter.samples)} reference samples; raw: "
                  + ", ".join(f"{k} = {v:.6g}" for k, v in result["raw"].items()))
        else:
            print(f"{name}: times not scaled by machine speed")
    for problem in run.problems[:20]:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    for error in run.notes.get("errors", [])[:5]:
        print(f"{name}: operation failed: {error}", file=sys.stderr)

    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as handle:
        json.dump(result, handle, indent=1)
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result["metrics"],
    }


def run_all(args):
    """Every workload in its own process, one after another."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0 if all(r["correct"] and not r["failed"] for r in summary.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="run length; default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print setup_s and exit (used for repeated set-ups)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "mccssp", "__init__.py")):
        print(f"error: no mccssp package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            args.seconds = json.load(handle)["run_seconds"]
    sys.path.insert(0, SRC)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.setup_only)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
