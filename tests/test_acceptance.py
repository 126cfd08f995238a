"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured numbers (run with -s to see them).

Budgets and tolerances are pinned here: the oracle's objective gap at
most the library's TOL (1e-9), the occupancy MIP's re-solved objective
agreeing (``model.agree``) with the verdict's, risk budget slack 1e-9,
linear-form identity 1e-9, closed-form chain 1e-12, hard one-second
planning bound at horizon 1, trend assertions via paired one-sided
Wilcoxon (p < 0.05), Spearman rank correlations >= 0, and a 99% binomial
half-width on empirical collision frequency.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr, wilcoxon

from mccssp import grid
from mccssp.grid import GridSpec, benchmark_rows, generate_grid_instance
from mccssp.ilp import build_ilp, decide, solve_instance
from mccssp.intersection import (
    VehicleState,
    build_intersection_instance,
    case_study_scenario,
    default_scenario,
    simulate,
)
from mccssp.model import TOL, agree, reachable_layers, validate_instance
from mccssp.risk import (
    Policy,
    execution_risk,
    linear_risk_from_flows,
    policy_flows,
)
from mccssp.selftest import random_instance, run_oracle_equivalence

RISK_TOL = 1e-9
LINEAR_TOL = 1e-9
CHAIN_TOL = 1e-12


def _record_decided(monkeypatch, verdicts):
    """Record (instance, result) for every selftest solve that one of
    ``verdicts`` decided, resampled draws included."""
    from mccssp import selftest

    decided = []
    solve = selftest.solve_instance

    def recording_solve(instance, *args, **kwargs):
        result = solve(instance, *args, **kwargs)
        if result.decided_by in verdicts:
            decided.append((instance, result))
        return result

    monkeypatch.setattr(selftest, "solve_instance", recording_solve)
    return decided


def _occupancy_mip_gap(decided):
    """Keep the occupancy formulation under test where it did not decide:
    ``decide`` on its model must reach the same verdict, with an objective
    that agrees (``model.agree``) with the verdict's; returns the largest
    objective gap."""
    mip_gap = 0.0
    for instance, result in decided:
        by_mip = decide(build_ilp(instance, reachable_layers(instance)))
        assert by_mip.status == result.status
        if result.status == "optimal":
            assert agree(by_mip.objective, result.objective), (by_mip.objective, result)
            mip_gap = max(mip_gap, abs(by_mip.objective - result.objective))
    return mip_gap


def test_oracle_equivalence_200_instances(monkeypatch):
    decided = _record_decided(monkeypatch, ("dp", "paths"))
    report = run_oracle_equivalence(n_instances=200, seed=20_240)
    for failure in report.failures:
        print("FAIL detail:", failure)
    assert report.ok, report.failures
    assert report.instances == 200
    assert (report.solved, report.infeasible, report.budget_exhausted) == (133, 28, 39)
    # (resampled draws are recorded too, so there can be more of them)
    assert len(decided) >= report.dp_decided + report.paths_decided
    assert report.dp_decided > 0
    assert report.max_objective_gap <= TOL
    mip_gap = _occupancy_mip_gap(decided)
    print(
        f"PASS oracle equivalence: 200 instances ({report.solved} solved, "
        f"{report.infeasible} infeasible, {report.budget_exhausted} budget-exhausted), "
        f"max objective gap {report.max_objective_gap:.2e} <= {TOL}, "
        f"max budget excess {report.max_budget_excess:.2e} <= {RISK_TOL}, "
        f"{report.seconds:.1f}s; {report.dp_decided} decided by the DP certificate and "
        f"{report.paths_decided} by the path formulation, "
        f"HiGHS on their occupancy matrices within {mip_gap:.2e}"
    )


def test_oracle_equivalence_path_family(monkeypatch):
    from mccssp import selftest

    decided = _record_decided(monkeypatch, ("paths",))
    monkeypatch.setattr(selftest, "random_instance", selftest.random_path_instance)
    report = run_oracle_equivalence(n_instances=150, seed=20_240)
    for failure in report.failures:
        print("FAIL detail:", failure)
    assert report.ok, report.failures
    assert report.instances == 150
    assert report.solved > 50 and report.infeasible > 10
    # every draw shares a deterministic agent; only the column-count rule
    # may send one to the occupancy formulation
    assert report.paths_decided >= 0.95 * (report.solved + report.infeasible)
    assert report.max_objective_gap <= TOL
    mip_gap = _occupancy_mip_gap(decided)
    print(
        f"PASS path-family oracle equivalence: 150 instances ({report.solved} solved, "
        f"{report.infeasible} infeasible, {report.budget_exhausted} budget-exhausted), "
        f"{report.paths_decided} decided by the path formulation, "
        f"max objective gap {report.max_objective_gap:.2e} <= {TOL}, "
        f"HiGHS on their occupancy matrices within {mip_gap:.2e}"
    )


def test_linear_risk_identity_on_random_flows():
    rng = np.random.default_rng(77)
    checked = 0
    worst = 0.0
    start = time.perf_counter()
    while checked < 100:
        inst = random_instance(rng)
        if validate_instance(inst):
            continue
        layers = reachable_layers(inst)
        assign = {}
        for li in layers:
            table = {}
            for k, s in li.decision_points():
                weights = rng.random(len(li.joint_actions)) + 1e-3
                weights /= weights.sum()
                table[(s, k)] = dict(zip(li.joint_actions, weights))
            assign[li.id] = table
        policy = Policy(assign)
        for j in inst.criteria:
            flows = policy_flows(inst, layers, policy, j)
            gap = abs(
                linear_risk_from_flows(inst, layers, flows, j)
                - execution_risk(inst, layers, policy, j)
            )
            worst = max(worst, gap)
            assert gap <= LINEAR_TOL
            checked += 1
    print(
        f"PASS linear-form identity: {checked} random feasible flows, "
        f"max gap {worst:.2e} <= {LINEAR_TOL}, {time.perf_counter() - start:.1f}s"
    )


def test_chain_closed_form():
    from builders import make_chain_instance

    inst = make_chain_instance(risk=0.1, horizon=3)
    layers = reachable_layers(inst)
    li = layers.per_interaction[0]
    policy = Policy(
        {0: {(s, k): ("go",) for k, s in li.decision_points()}}
    )
    recursion = execution_risk(inst, layers, policy, "col")
    flows = policy_flows(inst, layers, policy, "col")
    linear = linear_risk_from_flows(inst, layers, flows, "col")
    assert abs(recursion - 0.271) <= CHAIN_TOL
    assert abs(linear - 0.271) <= CHAIN_TOL
    print(
        f"PASS closed-form chain: recursion {recursion!r}, linear {linear!r}, "
        f"both within {CHAIN_TOL} of 0.271"
    )


def test_ambient_size_invariance():
    start = time.perf_counter()
    shapes = {}
    for width in (100, 10_000):
        spec = GridSpec(
            width=width, height=width, n_agents=3, horizon=3, seed=41,
            risk_budget=0.15,
            start_positions=[(50, 50), (61, 40), (44, 58)],
        )
        inst = generate_grid_instance(spec)
        layers = reachable_layers(inst)
        model = build_ilp(inst, layers)
        result = solve_instance(inst, layers)
        shapes[width] = (
            model.x_count,
            model.z_count,
            model.matrix.n_rows,
            model.matrix.n_cols,
            round(result.objective, 9),
            round(result.risks["collision"], 9),
        )
    assert shapes[100] == shapes[10_000]
    print(
        f"PASS ambient-size invariance: 100x100 and 10000x10000 give identical "
        f"counts and objective {shapes[100]}, {time.perf_counter() - start:.1f}s"
    )


def test_grid_scaling_trend():
    start = time.perf_counter()
    agents = [1, 2, 3, 4]
    horizons = [1, 2, 3, 4, 5]
    rows = benchmark_rows(
        GridSpec(width=10_000, height=10_000, seed=13, risk_budget=0.2),
        agent_counts=agents,
        horizons=horizons,
    )
    times = {(r["n_agents"], r["horizon"]): r["build_s"] + r["solve_s"] for r in rows}
    assert all(r["status"] == "optimal" for r in rows)
    for a in agents:
        rho = spearmanr(horizons, [times[(a, h)] for h in horizons]).statistic
        assert rho >= 0.0, (a, rho)
    for h in horizons:
        rho = spearmanr(agents, [times[(a, h)] for a in agents]).statistic
        assert rho >= 0.0, (h, rho)
    print(
        "PASS grid scaling trend: build+solve seconds non-decreasing (Spearman >= 0) "
        "in horizon and agent count; times "
        + "; ".join(
            f"a={a}: " + ",".join(f"{times[(a, h)]:.3f}" for h in horizons)
            for a in agents
        )
        + f"; total {time.perf_counter() - start:.0f}s"
    )


def test_grid_binding_budget_trend(monkeypatch, highs_runs):
    # 30% risky cells of risk 0.3 under a 0.1 budget: from h=3 on the
    # risk-blind optimum is over budget, so the trend includes MIP solves
    start = time.perf_counter()
    agents = [1, 2, 3]
    horizons = [1, 2, 3, 4]
    budget = 0.1
    highs_calls = {}
    solve = grid.solve

    def counted_solve(model, **kwargs):
        before = len(highs_runs)
        result = solve(model, **kwargs)
        cell = (len(model.instance.agents), model.instance.horizon)
        highs_calls[cell] = len(highs_runs) - before
        return result

    monkeypatch.setattr(grid, "solve", counted_solve)
    rows = benchmark_rows(
        GridSpec(width=50, height=50, seed=54, risky_fraction=0.3,
                 risky_risk_value=0.3, risk_budget=budget),
        agent_counts=agents,
        horizons=horizons,
    )
    assert len(rows) == len(agents) * len(horizons)
    for r in rows:
        assert r["status"] == "optimal", r
        assert r["risk"] <= budget + RISK_TOL, r
    times = {(r["n_agents"], r["horizon"]): r["build_s"] + r["solve_s"] for r in rows}
    for a in agents:
        assert highs_calls.get((a, 4), 0) >= 1, (a, highs_calls)
        rho = spearmanr(horizons, [times[(a, h)] for h in horizons]).statistic
        assert rho >= 0.0, (a, rho)
    print(
        f"PASS grid binding-budget trend: {len(rows)} cells optimal within the "
        f"{budget} budget, {len(highs_runs)} HiGHS calls, build+solve seconds "
        "non-decreasing (Spearman >= 0) in horizon; times "
        + "; ".join(
            f"a={a}: " + ",".join(f"{times[(a, h)]:.3f}" for h in horizons)
            for a in agents
        )
        + f"; total {time.perf_counter() - start:.0f}s"
    )


@pytest.mark.slow
def test_planning_time_envelope_16_avs():
    scenario = default_scenario(
        mc_samples=1500, queue_depth=2, lambdas=(1.0, 0.2, 0.5, 0.1)
    )
    rng = np.random.default_rng(1)
    vehicles = [
        VehicleState(
            id=f"v{n:05d}", kind="av", lane=lane, slot=slot, arrival_s=float(slot),
            wait_s=float(rng.integers(0, 30)), priority=float(rng.integers(1, 11)),
        )
        for n, (lane, slot) in enumerate(
            (l, s) for l in sorted(scenario.lanes) for s in (0, 1)
        )
    ]
    assert len(vehicles) == 16
    build_intersection_instance(scenario, vehicles, green_side="N", horizon=1, delta=0.05)

    report_lines = []
    h1_times = []
    verdicts = {}
    objectives = {}
    for h in (1, 2, 3, 4):
        inst, info = build_intersection_instance(
            scenario, vehicles, green_side="N", horizon=h, delta=0.05
        )
        layers = reachable_layers(inst)
        result = solve_instance(inst, layers, time_limit=None if h == 1 else 20.0)
        status, preprocess, solve_s = result.status, result.build_seconds, result.solve_seconds
        if h == 1:
            for _ in range(3):
                r = solve_instance(inst, layers)
                h1_times.append(r.build_seconds + r.solve_seconds)
        verdicts[h] = (status, result.decided_by)
        objectives[h] = result.objective
        report_lines.append(
            f"  h={h}: {len(info.pair_ids)} pair points, preprocess {preprocess:.3f}s "
            f"solve {solve_s:.3f}s ({status}, decided_by {result.decided_by}, objective "
            f"{result.objective:.1f})"
        )

    mean_h1 = float(np.mean(h1_times))
    assert mean_h1 < 1.0, f"h=1 mean plan time {mean_h1:.3f}s"
    # every AV is deterministic and shared, so the path formulation
    # decides each cell, within the 20 s limit
    for h in (2, 3, 4):
        assert verdicts[h] == ("optimal", "paths"), "\n".join(report_lines)
    # the optima, given to 4 decimals
    for h, optimum in {1: 60.9112, 2: 93.1364, 3: 105.1203, 4: 140.4470}.items():
        assert objectives[h] == pytest.approx(optimum, abs=5e-5), "\n".join(report_lines)
    print(
        "PASS planning-time envelope (hard bound h=1): "
        f"mean h=1 plan {mean_h1:.3f}s < 1s; report for 16 AVs, 2 actions:\n"
        + "\n".join(report_lines)
    )


@pytest.fixture(scope="module")
def trend_scenario():
    return default_scenario(mc_samples=1500)


DELTAS = (0.0001, 0.001, 0.01, 0.05, 0.10, 0.15)
REPLICATIONS = 100
SIM_SECONDS = 30.0


@pytest.mark.slow
def test_intersection_trends(trend_scenario):
    start = time.perf_counter()
    throughput = {}
    collision_cells = {}
    for delta in DELTAS:
        for planner in ("mccssp", "fcfs"):
            tputs, collisions, steps = [], 0, 0
            for rep in range(REPLICATIONS):
                m = simulate(
                    trend_scenario, planner, SIM_SECONDS, seed=rep,
                    horizon=1, delta=delta,
                )
                tputs.append(m.throughput_vpm)
                collisions += m.collisions
                steps += m.planning_steps
            throughput[(planner, delta)] = tputs
            collision_cells[(planner, delta)] = (collisions, steps)

    # (a) paired one-sided test at every budget
    for delta in DELTAS:
        diffs = np.array(throughput[("mccssp", delta)]) - np.array(
            throughput[("fcfs", delta)]
        )
        stat = wilcoxon(diffs, alternative="greater", zero_method="zsplit")
        assert stat.pvalue < 0.05, (delta, stat.pvalue, diffs.mean())

    # (b) throughput correlates non-negatively with the budget
    xs, ys = [], []
    for delta in DELTAS:
        xs += [delta] * REPLICATIONS
        ys += throughput[("mccssp", delta)]
    rho = spearmanr(xs, ys).statistic
    assert rho >= 0.0, rho

    # (c) throughput non-increasing in the human-driver share
    hv_means = []
    hv_cells = {}
    for hv in (0.0, 0.3, 0.6):
        trend_scenario.config.hv_fraction = hv
        tputs, collisions, steps = [], 0, 0
        for rep in range(REPLICATIONS):
            m = simulate(trend_scenario, "mccssp", SIM_SECONDS, seed=rep,
                         horizon=1, delta=0.01)
            tputs.append(m.throughput_vpm)
            collisions += m.collisions
            steps += m.planning_steps
        hv_means.append(float(np.mean(tputs)))
        hv_cells[hv] = (collisions, steps)
    trend_scenario.config.hv_fraction = 0.0
    assert hv_means[0] >= hv_means[1] >= hv_means[2], hv_means

    # (d) empirical per-step collision frequency within the budget
    for (planner, delta), (collisions, steps) in collision_cells.items():
        freq = collisions / steps
        half_width = 2.576 * math.sqrt(delta * (1.0 - delta) / steps)
        assert freq <= delta + half_width, (planner, delta, freq)
    for hv, (collisions, steps) in hv_cells.items():
        freq = collisions / steps
        half_width = 2.576 * math.sqrt(0.01 * 0.99 / steps)
        assert freq <= 0.01 + half_width, (hv, freq)

    means = {
        delta: (
            float(np.mean(throughput[("mccssp", delta)])),
            float(np.mean(throughput[("fcfs", delta)])),
        )
        for delta in DELTAS
    }
    print(
        f"PASS intersection trends ({REPLICATIONS} replications/cell, "
        f"{time.perf_counter() - start:.0f}s):\n"
        + "\n".join(
            f"  delta={d}: mccssp {m:.1f} >= fcfs {f:.1f} vpm"
            for d, (m, f) in means.items()
        )
        + f"\n  budget correlation rho={rho:.3f} >= 0"
        + f"\n  hv 0/0.3/0.6 throughput {hv_means[0]:.1f}/{hv_means[1]:.1f}/{hv_means[2]:.1f}"
    )


def test_waiting_time_case_study():
    start = time.perf_counter()
    entries = {}
    for lam2 in (0.0, 4.0):
        scenario = case_study_scenario(lam2, mc_samples=1500)
        metrics = simulate(scenario, "mccssp", duration_s=31.0, seed=0, horizon=1, delta=0.01)
        ego = [step for vid, (step, lane) in metrics.entries.items() if lane == "W1"]
        entries[lam2] = ego
    assert entries[0.0] == [], "ego entered without a waiting-time weight"
    assert entries[4.0], "ego never entered with the waiting-time weight"
    first = entries[4.0][0]
    assert first <= 10, f"ego entered at step index {first}, after the 11th horizon"
    print(
        "PASS waiting-time case study: weight 0 -> never enters in 30 horizons; "
        f"weight 4 -> enters at horizon {first + 1} (<= 11th), "
        f"{time.perf_counter() - start:.1f}s"
    )


def test_flow_tube_suite():
    from scipy.stats import norm

    from mccssp.model import state_risk_tilde
    from builders import pair_cell_stream
    from mccssp.pft import (
        Pft,
        VehicleGeometry,
        collision_prob_at,
        intent_posterior,
        pft_from_path,
        sample_pair_risk,
    )

    start = time.perf_counter()
    geometry = VehicleGeometry(4.5, 2.0)

    # window formula, exact float evaluation of 1 - (1-p1)(1-p2)
    assert state_risk_tilde([0.1, 0.1]) == 1.0 - (1.0 - 0.1) * (1.0 - 0.1)
    assert state_risk_tilde([0.1, 0.1]) == pytest.approx(0.19, abs=1e-15)

    # sampling against the analytic overlap of collinear footprints
    sd1, sd2, mu = 1.2, 0.8, 5.0
    p1 = Pft(1 / 6, np.array([[0.0, 0.0], [1.0, 0.0]]),
             np.tile(np.diag([sd1**2, 1e-12]), (2, 1, 1)))
    p2 = Pft(1 / 6, np.array([[mu, 0.0], [mu + 1.0, 0.0]]),
             np.tile(np.diag([sd2**2, 1e-12]), (2, 1, 1)))
    n = 40_000
    mc = collision_prob_at(p1, 0, p2, 0, geometry, geometry, n, 12345)
    half = 2 * geometry.length / 3 + 2 * geometry.radius
    sd = math.hypot(sd1, sd2)
    analytic = norm.cdf((half + mu) / sd) - norm.cdf((-half + mu) / sd)
    mc_gap = abs(mc - analytic)
    assert mc_gap <= 3.0 / math.sqrt(n)

    # table entries reproduce direct sampling exactly per seed
    pa = pft_from_path(np.array([[-20.0, 0.0], [20.0, 0.0]]), speed=8.0, seed=1, label="a")
    pb = pft_from_path(np.array([[0.0, -20.0], [0.0, 20.0]]), speed=8.0, seed=2, label="b")
    pair = sample_pair_risk(("a", "b"), pa, pb, geometry, n=2000, seed=9)
    q1, q2 = len(pa) // 2, len(pb) // 2 - 5  # b five steps behind a: a partial overlap
    direct = state_risk_tilde(
        collision_prob_at(pa, q1 - 1 + t, pb, q2 - 1 + t, geometry, geometry, 2000,
                          seed=pair_cell_stream(("a", "b"), 9, q1 - 1 + t, q2 - 1 + t))
        for t in range(min(len(pa) - q1 + 1, len(pb) - q2 + 1))
    )
    assert 0.0 < direct < 1.0
    assert pair.lookup(q1, q2) == direct

    # posterior concentrates given a full-length prefix far beyond 3 sigma
    means = np.stack([np.linspace(0, 10, 15), np.zeros(15)], axis=1)
    covs = np.tile(0.04 * np.eye(2), (15, 1, 1))
    cands = {
        "gen": Pft(1 / 6, means, covs),
        "far": Pft(1 / 6, means + [0.0, 5.0], covs),  # 25 sigma away
    }
    posterior = intent_posterior(cands, means)
    assert posterior["gen"] >= 0.99

    print(
        f"PASS flow-tube suite: window formula exact; sampler vs analytic gap "
        f"{mc_gap:.4f} <= {3.0 / math.sqrt(n):.4f}; table == direct sampling "
        f"({pair.lookup(q1, q2):.4f}); posterior {posterior['gen']:.4f} >= 0.99; "
        f"{time.perf_counter() - start:.1f}s"
    )
