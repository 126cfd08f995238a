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
import contextlib
import itertools
import json
import logging
import math
import sys

import numpy as np


def _versions() -> str:
    import scipy

    from . import __version__

    return f"mccssp={__version__} numpy={np.__version__} scipy={scipy.__version__}"


def _write_csv(path: str | None, columns: list, rows: list) -> None:
    """A header comment, the column names and one line per row, to
    ``path`` or, without one, to stdout."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as out:
        args_text = " ".join(sys.argv[1:])
        out.write(f"# mccssp {args_text} | {_versions()} | timing columns are wall-clock\n")
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(str(row[c]) for c in columns) + "\n")


class InputError(ValueError):
    """A bad command-line argument or input file; reported as ``error: ...``, exit 1."""


def _parse_range(text: str, option: str) -> list:
    """Accepts '1..4' or comma lists '1,2,4' of integers >= 1."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"{option}: expected '1..4' or '1,2,4', got {text!r}") from None
    if not values or min(values) < 1:
        raise InputError(f"{option}: need one or more integers >= 1, got {text!r}")
    return values


def _parse_probabilities(text: str, option: str) -> list:
    """Accepts comma lists of numbers in [0, 1]."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"{option}: expected numbers like '0.01,0.1', got {text!r}") from None
    if not all(0.0 <= v <= 1.0 for v in values):
        raise InputError(f"{option}: every value must be in [0, 1], got {text!r}")
    return values


def _require_at_least(low: int, args, *names) -> None:
    """Reject integer options below ``low``: counts below 1 would run
    nothing, and seeds below 0 are no random seed."""
    for name in names:
        value = getattr(args, name)
        if value < low:
            raise InputError(f"--{name} must be at least {low}, got {value}")


def cmd_solve(args) -> int:
    from .ilp import SolverFailure, solve
    from .io import load_instance
    from .model import reachable_layers, validate_instance

    try:
        instance = load_instance(args.instance)
    except Exception as exc:
        raise InputError(f"cannot load instance: {exc}") from None
    report = validate_instance(instance)
    if report:
        for line in report:
            print(f"invalid: {line}", file=sys.stderr)
        return 1
    layers = reachable_layers(instance)
    if args.export_lp:
        from .ilp import BudgetExhausted, build_model

        try:
            model = build_model(layers)
        except BudgetExhausted as exc:
            print(f"cannot export: {exc}", file=sys.stderr)
            return 1
        with open(args.export_lp, "w") as handle:
            handle.write(model.matrix.to_lp_text())
        print(f"wrote {args.export_lp}")
    try:
        result = solve(layers, time_limit=args.time_limit)
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
        from .model import agree
        from .oracles import CapExceeded, brute_force_optimal

        try:
            oracle = brute_force_optimal(layers)
        except CapExceeded as exc:
            print(f"oracle skipped: {exc}")
            return 0
        if result.status == "optimal" and oracle.status == "optimal":
            same = agree(result.objective, oracle.objective)
            gap = abs(result.objective - oracle.objective)
            verdict = "oracle agrees" if same else f"ORACLE MISMATCH (gap {gap})"
            print(f"objective {result.objective:.6f}, {verdict}")
        else:
            same = (result.status != "optimal") == (oracle.status != "optimal")
            print(f"oracle status {oracle.status}: {'agrees' if same else 'MISMATCH'}")
        if not same:
            return 2
    return 0


def cmd_grid_bench(args) -> int:
    from .grid import GridSpec, benchmark_rows

    agent_counts = _parse_range(args.agents, "--agents")
    horizons = _parse_range(args.horizon, "--horizon")
    spec = GridSpec(
        width=args.width,
        height=args.height,
        n_agents=max(agent_counts),
        horizon=max(horizons),
        risk_budget=args.delta,
        risky_risk_value=args.risky_risk,
        seed=args.seed,
    )
    try:
        spec.validate()
    except ValueError as exc:
        raise InputError(str(exc)) from None
    rows = benchmark_rows(
        spec,
        agent_counts=agent_counts,
        horizons=horizons,
        time_limit=args.time_limit,
    )
    columns = ["n_agents", "horizon", "build_s", "solve_s", "objective", "risk", "status"]
    _write_csv(args.out, columns, rows)
    failed = [row for row in rows if row["status"] == "solver_failure"]
    for row in failed:
        print(
            f"solver failure: {row['n_agents']} agents, horizon {row['horizon']}",
            file=sys.stderr,
        )
    return 2 if failed else 0


def _sim_cell(scenario, job):
    """One replication on ``scenario``, whose pair tables every job of the
    process shares; only the HV share differs between jobs."""
    from .intersection import simulate

    planner, delta, horizon, hv_fraction, seed, duration = job
    scenario.config.hv_fraction = hv_fraction
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


_worker_scenario = None  # a pool worker's scenario, built by _init_worker


def _init_worker(config) -> None:
    from .intersection import Scenario

    global _worker_scenario
    _worker_scenario = Scenario(config)


def _worker_cell(job):
    return _sim_cell(_worker_scenario, job)


def cmd_intersect_sim(args) -> int:
    from .intersection import PLANNERS, Scenario, ScenarioConfig

    planners = [p.strip() for p in args.planners.split(",")]
    unknown = [p for p in planners if p not in PLANNERS]
    if unknown:
        raise InputError(f"--planners: unknown {unknown}; expected {','.join(PLANNERS)}")
    deltas = _parse_probabilities(args.deltas, "--deltas")
    horizons = _parse_range(args.horizons, "--horizons")
    hv_fractions = _parse_probabilities(args.hv_fractions, "--hv-fractions")
    if not args.duration > 0:
        raise InputError(f"--duration must be positive, got {args.duration}")
    _require_at_least(1, args, "replications", "jobs")
    _require_at_least(0, args, "seed")
    overrides = {}
    if args.scenario:
        try:
            with open(args.scenario) as handle:
                overrides = json.load(handle)
        except Exception as exc:
            raise InputError(f"cannot read scenario: {exc}") from None
    if not isinstance(overrides, dict):
        raise InputError("scenario: expected a JSON object of scenario fields")
    # each run's horizon, budget and HV share come from the command line only
    for key, flag in (("horizon", "--horizons"), ("delta", "--deltas"),
                      ("hv_fraction", "--hv-fractions")):
        if key in overrides:
            raise InputError(f"scenario: {key} is set by {flag}")
    try:
        config = ScenarioConfig(**overrides)
    except TypeError as exc:
        raise InputError(f"bad scenario field: {exc}") from None
    try:
        config.validate()
    except ValueError as exc:
        raise InputError(f"scenario: {exc}") from None
    jobs = [
        (planner, delta, horizon, hv, args.seed + rep, args.duration)
        for planner in planners
        for delta in deltas
        for horizon in horizons
        for hv in hv_fractions
        for rep in range(args.replications)
    ]
    if args.jobs > 1:
        import multiprocessing as mp

        with mp.get_context("spawn").Pool(
            args.jobs, initializer=_init_worker, initargs=(config,)
        ) as pool:
            rows = pool.map(_worker_cell, jobs)
    else:
        scenario = Scenario(config)
        rows = [_sim_cell(scenario, job) for job in jobs]

    columns = ["seed", "planner", "delta", "h", "hv_fraction", "throughput_vpm",
               "max_wait_s", "collisions", "collision_rate", "mean_plan_s"]
    _write_csv(args.out, columns, rows)
    return 0


def _load_tubes(paths: list) -> dict:
    """{label or path: tube} of flow-tube JSON files; a file that cannot be
    read as a tube is an InputError that names it."""
    from .pft import Pft

    tubes = {}
    for path in paths:
        try:
            with open(path) as handle:
                tube = Pft.from_json(handle.read())
        except KeyError as exc:
            raise InputError(f"{path}: missing field {exc}") from None
        except (OSError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: {exc}") from None
        tubes[tube.label or path] = tube
    return tubes


def cmd_pft(args) -> int:
    from .io import load_trajectory_csv
    from .pft import (
        VehicleGeometry,
        cluster_trajectories,
        dtw_align,
        intent_posterior,
        pft_fit,
        sample_pair_risk,
    )

    if args.pft_command == "fit":
        try:
            trajectories = [load_trajectory_csv(p) for p in args.csv]
        except (OSError, ValueError) as exc:
            raise InputError(str(exc)) from None
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
        candidates = _load_tubes(args.pft)
        try:
            observed = load_trajectory_csv(args.observed)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        posterior = intent_posterior(candidates, observed)
        for label, p in sorted(posterior.items(), key=lambda kv: -kv[1]):
            print(f"{label} {p:.6f}")
        return 0

    # risk-table: argparse requires one of the three subcommands
    tubes = _load_tubes(args.pft)
    geometry = VehicleGeometry(args.length, args.width)
    arrays, keys = {}, []
    try:
        for key in itertools.combinations(sorted(tubes), 2):
            pair = sample_pair_risk(
                key, tubes[key[0]], tubes[key[1]], geometry, n=args.samples, seed=args.seed
            )
            if pair is not None:
                arrays[f"matrix_{len(keys)}"] = pair.matrix
                arrays[f"table_{len(keys)}"] = pair.table
                keys.append(key)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    np.savez(args.out, pairs=np.array(keys, dtype=str).reshape(-1, 2), **arrays)
    print(f"{len(keys)} of {math.comb(len(tubes), 2)} tube pairs interact -> {args.out}")
    return 0


def cmd_selftest(args) -> int:
    from . import selftest

    _require_at_least(1, args, "instances")
    _require_at_least(0, args, "seed")
    # progress lines are logged at INFO; show them unless --quiet
    logger = logging.getLogger(selftest.__name__)
    handler, level = logging.StreamHandler(sys.stdout), logger.level
    if not args.quiet:
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        report = selftest.run_oracle_equivalence(n_instances=args.instances, seed=args.seed)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    print(
        f"{report.instances} instances: {report.solved} solved, "
        f"{report.infeasible} infeasible, {report.budget_exhausted} budget-exhausted "
        f"({report.resampled} resampled) in {report.seconds:.1f}s"
    )
    print(f"{report.dp_decided} decided by the DP certificate without HiGHS")
    print(f"{report.paths_decided} decided by the path formulation")
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

    p = sub.add_parser(
        "solve",
        help="solve an instance file",
        description="Solve an instance file. Prints the status and decided_by: dp (the"
        " backward-DP certificate), paths (the path formulation), mip (the occupancy"
        " formulation) or fallback (the default-action plan after a time-out).",
    )
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
    r = psub.add_parser("risk-table", help="sample the risk table of every tube pair")
    r.add_argument("--pft", nargs="+", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--samples", type=int, default=10_000)
    r.add_argument("--seed", type=int, default=0)
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
    except (FileNotFoundError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
