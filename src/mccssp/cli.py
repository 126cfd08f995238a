"""Command-line surface: solve instance files, run the grid and
intersection benchmarks, drive the flow-tube data pipeline, and run the
oracle-equivalence selftest.

All randomized commands take --seed and emit deterministic output for a
fixed seed (timing columns are wall-clock and flagged as such
in the header comment).  Exit codes: 0 success, 1 validation/input error,
2 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np


def _versions() -> str:
    import scipy

    from . import __version__

    return f"mccssp={__version__} numpy={np.__version__} scipy={scipy.__version__}"


def _csv_header(out, args_text: str, columns: list) -> None:
    out.write(f"# mccssp {args_text} | {_versions()} | timing columns are wall-clock\n")
    out.write(",".join(columns) + "\n")


def _parse_range(text: str) -> list:
    """Accepts '1..4' or comma lists '1,2,4'."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def _parse_floats(text: str) -> list:
    return [float(v) for v in text.split(",")]


def cmd_solve(args) -> int:
    from .ilp import SolverFailure, solve_instance
    from .io import load_instance
    from .model import reachable_layers, validate_instance

    try:
        instance = load_instance(args.instance)
    except Exception as exc:
        print(f"error: cannot load instance: {exc}", file=sys.stderr)
        return 1
    report = validate_instance(instance)
    if report:
        for line in report:
            print(f"invalid: {line}", file=sys.stderr)
        return 1
    layers = reachable_layers(instance, validate=False)
    if args.export_lp:
        from .ilp import BudgetExhausted, build_ilp

        try:
            model = build_ilp(instance, layers)
        except BudgetExhausted as exc:
            print(f"cannot export: {exc}", file=sys.stderr)
            return 1
        with open(args.export_lp, "w") as handle:
            handle.write(model.matrix.to_lp_text())
        print(f"wrote {args.export_lp}")
    try:
        result = solve_instance(instance, layers, time_limit=args.time_limit)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    print(f"status {result.status}")
    if result.decided_by is not None:
        print(f"decided_by {result.decided_by}")
    if result.status in ("optimal", "time_limit"):
        print(f"objective {result.objective:.6f}")
        for j, risk in sorted(result.risks.items()):
            print(f"risk[{j}] {risk:.6f} (budget {instance.risk_budgets[j]})")
        if args.policy:
            for i, table in sorted(result.policy.items()):
                for (state, k), action in sorted(table.items(), key=repr):
                    print(f"policy i={i} k={k} state={state!r} -> {action!r}")
    if args.oracle:
        from .oracles import CapExceeded, brute_force_optimal

        try:
            oracle = brute_force_optimal(instance, layers)
        except CapExceeded as exc:
            print(f"oracle skipped: {exc}")
            return 0
        if result.status == "optimal" and oracle.status == "optimal":
            gap = abs(result.objective - oracle.objective)
            verdict = "oracle agrees" if gap <= 1e-6 else f"ORACLE MISMATCH (gap {gap})"
            print(f"objective {result.objective:.6f}, {verdict}")
        else:
            agree = (result.status != "optimal") == (oracle.status != "optimal")
            print(f"oracle status {oracle.status}: {'agrees' if agree else 'MISMATCH'}")
            if not agree:
                return 2
    return 0


def cmd_grid_bench(args) -> int:
    from .grid import GridSpec, benchmark_rows

    spec = GridSpec(
        width=args.width,
        height=args.height,
        horizon=max(_parse_range(args.horizon)),
        risk_budget=args.delta,
        risky_risk_value=args.risky_risk,
        seed=args.seed,
    )
    rows = benchmark_rows(
        spec,
        agent_counts=_parse_range(args.agents),
        horizons=_parse_range(args.horizon),
        time_limit=args.time_limit,
    )
    columns = ["n_agents", "horizon", "build_s", "solve_s", "objective", "risk", "status"]
    out = open(args.out, "w") if args.out else sys.stdout
    _csv_header(out, " ".join(sys.argv[1:]), columns)
    for row in rows:
        out.write(",".join(str(row[c]) for c in columns) + "\n")
    if args.out:
        out.close()
    return 0


def _sim_cell(job):
    from .intersection import Scenario, ScenarioConfig, simulate

    config, planner, delta, horizon, hv_fraction, seed, duration = job
    cfg = ScenarioConfig(**config)
    cfg.hv_fraction = hv_fraction
    scenario = Scenario(cfg)
    metrics = simulate(
        scenario, planner=planner, duration_s=duration, seed=seed,
        horizon=horizon, delta=delta,
    )
    return {
        "seed": seed,
        "planner": planner,
        "delta": delta,
        "h": horizon,
        "hv_fraction": hv_fraction,
        "throughput_vpm": round(metrics.throughput_vpm, 4),
        "max_wait_s": round(metrics.max_wait_s, 2),
        "collisions": metrics.collisions,
        "collision_rate": round(metrics.collision_rate, 6),
        "mean_plan_s": round(metrics.mean_plan_s, 6),
    }


def cmd_intersect_sim(args) -> int:
    from .intersection import ScenarioConfig

    overrides = {}
    if args.scenario:
        try:
            with open(args.scenario) as handle:
                overrides = json.load(handle)
        except Exception as exc:
            print(f"error: cannot read scenario: {exc}", file=sys.stderr)
            return 1
    try:
        base = asdict(ScenarioConfig(**overrides))
    except TypeError as exc:
        print(f"error: bad scenario field: {exc}", file=sys.stderr)
        return 1

    jobs = []
    for planner in args.planners.split(","):
        for delta in _parse_floats(args.deltas):
            for horizon in _parse_range(args.horizons):
                for hv in _parse_floats(args.hv_fractions):
                    for rep in range(args.replications):
                        jobs.append(
                            (base, planner.strip(), delta, horizon, hv,
                             args.seed + rep, args.duration)
                        )
    if args.jobs > 1:
        import multiprocessing as mp

        with mp.Pool(args.jobs) as pool:
            rows = pool.map(_sim_cell, jobs)
    else:
        rows = [_sim_cell(job) for job in jobs]

    columns = ["seed", "planner", "delta", "h", "hv_fraction", "throughput_vpm",
               "max_wait_s", "collisions", "collision_rate", "mean_plan_s"]
    out = open(args.out, "w") if args.out else sys.stdout
    _csv_header(out, " ".join(sys.argv[1:]), columns)
    for row in rows:
        out.write(",".join(str(row[c]) for c in columns) + "\n")
    if args.out:
        out.close()
    return 0


def cmd_pft(args) -> int:
    from .io import load_trajectory_csv
    from .pft import (
        Pft,
        VehicleGeometry,
        cluster_trajectories,
        dtw_align,
        intent_posterior,
        pft_fit,
        precompute_risk_table,
    )

    if args.pft_command == "fit":
        try:
            trajectories = [load_trajectory_csv(p) for p in args.csv]
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        clusters = cluster_trajectories(
            trajectories, distance_threshold=args.cluster_threshold,
            variance_threshold=args.variance_threshold,
        )
        for n, cluster in enumerate(clusters):
            aligned = dtw_align([trajectories[i] for i in cluster])
            cov_floor = 1e-4 if len(cluster) == 1 else None
            tube = pft_fit(aligned, timestep=1.0 / args.hz,
                           label=f"cluster{n}", cov_floor=cov_floor)
            path = f"{args.out_prefix}{n}.json"
            with open(path, "w") as handle:
                handle.write(tube.to_json())
            print(f"cluster {n}: {len(cluster)} trajectories -> {path}")
        return 0

    if args.pft_command == "intent":
        candidates = {}
        for path in args.pft:
            with open(path) as handle:
                tube = Pft.from_json(handle.read())
            candidates[tube.label or path] = tube
        observed = load_trajectory_csv(args.observed)
        posterior = intent_posterior(candidates, observed)
        for label, p in sorted(posterior.items(), key=lambda kv: -kv[1]):
            print(f"{label} {p:.6f}")
        return 0

    if args.pft_command == "risk-table":
        maneuvers = {}
        for path in args.pft:
            with open(path) as handle:
                tube = Pft.from_json(handle.read())
            maneuvers[tube.label or path] = tube
        geometry = VehicleGeometry(args.length, args.width)
        try:
            table = precompute_risk_table(
                maneuvers, geometry, n=args.samples, seed=args.seed, window=args.window
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        table.save(args.out)
        print(f"table {table.axis_sizes} (window {table.window}) -> {args.out}")
        return 0

    print("unknown pft subcommand", file=sys.stderr)
    return 1


def cmd_selftest(args) -> int:
    from .selftest import run_oracle_equivalence

    report = run_oracle_equivalence(
        n_instances=args.instances, seed=args.seed, verbose=not args.quiet
    )
    print(
        f"{report.instances} instances: {report.solved} solved, "
        f"{report.infeasible} infeasible, {report.budget_exhausted} budget-exhausted "
        f"({report.resampled} resampled) in {report.seconds:.1f}s"
    )
    print(f"{report.dp_decided} decided by the DP certificate without HiGHS")
    print(
        f"max objective gap {report.max_objective_gap:.2e}, "
        f"max budget excess {report.max_budget_excess:.2e}, "
        f"max linear-form gap {report.max_linear_form_gap:.2e}"
    )
    for failure in report.failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mccssp",
        description="Chance-constrained multi-agent shortest-path solver and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--oracle", action="store_true", help="cross-check small instances")
    p.add_argument("--policy", action="store_true", help="print the full policy")
    p.add_argument("--export-lp", default=None, help="write the LP text form here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("grid-bench", help="agents x horizon sweep on the grid domain")
    p.add_argument("--agents", default="1..4")
    p.add_argument("--horizon", default="1..4")
    p.add_argument("--width", type=int, default=10_000)
    p.add_argument("--height", type=int, default=10_000)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--risky-risk", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_grid_bench)

    p = sub.add_parser("intersect-sim", help="receding-horizon intersection sweep")
    p.add_argument("scenario", nargs="?", default=None,
                   help="JSON file of scenario overrides")
    p.add_argument("--planners", default="mccssp,fcfs")
    p.add_argument("--deltas", default="0.01")
    p.add_argument("--horizons", default="1")
    p.add_argument("--hv-fractions", default="0.0")
    p.add_argument("--replications", type=int, default=10)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_intersect_sim)

    p = sub.add_parser("pft", help="flow-tube data pipeline")
    psub = p.add_subparsers(dest="pft_command", required=True)
    f = psub.add_parser("fit", help="cluster and fit tubes from trajectory CSVs")
    f.add_argument("csv", nargs="+")
    f.add_argument("--hz", type=float, default=6.0)
    f.add_argument("--cluster-threshold", type=float, default=10.0)
    f.add_argument("--variance-threshold", type=float, default=None)
    f.add_argument("--out-prefix", default="pft_")
    i = psub.add_parser("intent", help="posterior over candidate tubes")
    i.add_argument("--pft", nargs="+", required=True)
    i.add_argument("--observed", required=True)
    r = psub.add_parser("risk-table", help="precompute a progression risk table")
    r.add_argument("--pft", nargs="+", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--samples", type=int, default=10_000)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--window", type=int, default=None)
    r.add_argument("--length", type=float, default=4.5)
    r.add_argument("--width", type=float, default=2.0)
    p.set_defaults(func=cmd_pft)

    p = sub.add_parser("selftest", help="oracle-equivalence suite")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
