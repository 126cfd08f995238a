import math

import numpy as np
import pytest

from mccssp.ilp import solve_instance
from mccssp.intersection import (
    ScenarioConfig,
    VehicleState,
    action_utility,
    build_intersection_instance,
    case_study_scenario,
    default_scenario,
    green_side_at,
    simulate,
)
from mccssp.model import reachable_layers, validate_instance
from mccssp.oracles import brute_force_optimal


def _avs(lane_slots):
    return [
        VehicleState(id=f"v{n:05d}", kind="av", lane=lane, slot=slot, arrival_s=float(n))
        for n, (lane, slot) in enumerate(lane_slots)
    ]


def test_lane_layout(small_scenario):
    assert sorted(small_scenario.lanes) == ["E0", "E1", "N0", "N1", "S0", "S1", "W0", "W1"]
    assert small_scenario.lanes["N0"].kind == "straight"
    assert small_scenario.lanes["N1"].kind == "left"


def test_tube_and_table_determinism(small_scenario):
    other = default_scenario(mc_samples=600)
    v = small_scenario.variant_key("N0", 0, "straight", "s0")
    assert np.allclose(small_scenario.tube(v).means, other.tube(v).means)
    w = small_scenario.variant_key("W1", 0, "left", "s0")
    p1 = small_scenario.pair_risk(v, w)
    p2 = other.pair_risk(v, w)
    assert p1 is not None and np.array_equal(p1.table, p2.table)


def test_opposing_straights_do_not_conflict(small_scenario):
    n0 = small_scenario.variant_key("N0", 0, "straight", "s0")
    s0 = small_scenario.variant_key("S0", 0, "straight", "s0")
    assert small_scenario.pair_risk(n0, s0) is None


def test_crossing_pair_conflicts(small_scenario):
    n0 = small_scenario.variant_key("N0", 0, "straight", "s0")
    e0 = small_scenario.variant_key("E0", 0, "straight", "s0")
    pair = small_scenario.pair_risk(n0, e0)
    assert pair is not None and pair.table.max() > 0.5


def test_instance_is_valid_and_covered(small_scenario):
    vehicles = _avs([("N0", 0), ("E0", 0), ("W1", 0)])
    inst, info = build_intersection_instance(
        small_scenario, vehicles, green_side="N", horizon=2, delta=0.05
    )
    assert validate_instance(inst) == []
    assert set(info.singleton_ids) == {v.id for v in vehicles}


def test_exactly_one_of_colocated_pair_goes(small_scenario):
    vehicles = _avs([("N0", 0), ("W1", 0)])
    inst, info = build_intersection_instance(
        small_scenario, vehicles, green_side="N", horizon=1, delta=0.05
    )
    result = solve_instance(inst)
    actions = {
        vid: result.policy.action(pid, (inst.agents[vid].initial_state,), 0)[0]
        for vid, pid in info.singleton_ids.items()
    }
    assert sum(a.startswith("go") for a in actions.values()) == 1
    assert result.risks["collision"] <= 0.05 + 1e-9


def test_generous_budget_admits_both(small_scenario):
    vehicles = _avs([("N0", 0), ("W1", 0)])
    inst, info = build_intersection_instance(
        small_scenario, vehicles, green_side="N", horizon=1, delta=1.0
    )
    result = solve_instance(inst)
    actions = [
        result.policy.action(pid, (inst.agents[vid].initial_state,), 0)[0]
        for vid, pid in info.singleton_ids.items()
    ]
    assert sum(a.startswith("go") for a in actions) == 2


def test_ilp_matches_brute_force_on_conflict_pair(small_scenario):
    vehicles = _avs([("N0", 0), ("W1", 0)])
    inst, info = build_intersection_instance(
        small_scenario, vehicles, green_side="N", horizon=1, delta=0.05
    )
    layers = reachable_layers(inst)
    result = solve_instance(inst, layers)
    oracle = brute_force_optimal(inst, layers)
    assert abs(result.objective - oracle.objective) < 1e-6


def test_hv_intent_split_mixes_branch_risks(small_scenario):
    # crossing AV vs an entering HV: with 50/50 intent at entry the
    # execution risk is the even mixture of the two branch risks
    av = VehicleState(id="v00000", kind="av", lane="E0", slot=0)
    hv = VehicleState(id="v00001", kind="hv", lane="N0", slot=0, true_kind="straight")
    inst, info = build_intersection_instance(
        small_scenario, [av, hv], green_side="N", horizon=1, delta=1.0
    )
    layers = reachable_layers(inst)
    from mccssp.risk import Policy, execution_risk

    go = {}
    for li in layers:
        table = {}
        for k, s in li.decision_points():
            joint = []
            for vid, part in zip(li.view.members, s):
                agent = inst.agents[vid]
                joint.append("go_s0" if "go_s0" in agent.actions else agent.actions[0])
            table[(s, k)] = tuple(joint)
        go[li.id] = table
    er_mixed = execution_risk(inst, layers, Policy(go), "collision")

    cfg = small_scenario.config
    av_var = small_scenario.variant_key("E0", 0, "straight", "s0")
    branch_risks = [
        small_scenario.pair_lookup(
            av_var, 1,
            small_scenario.variant_key("N0", 0, kind, cfg.hv_speed), 1,
        )
        for kind in ("straight", "left")
    ]
    assert min(branch_risks) < max(branch_risks)  # branches genuinely differ
    assert er_mixed == pytest.approx(0.5 * sum(branch_risks), abs=1e-9)


def test_red_light_hv_waits(small_scenario):
    hv = VehicleState(id="v00000", kind="hv", lane="E0", slot=0, true_kind="straight")
    inst, _ = build_intersection_instance(
        small_scenario, [hv], green_side="N", horizon=2, delta=0.05
    )
    agent = inst.agents["v00000"]
    assert agent.initial_state == ("wait", 0)
    assert agent.successors(("wait", 0), "hv") == {("wait", 1): 1.0}


def test_action_utility_terms():
    assert action_utility((1, 0, 0, 0), 2.0, 5.0, 9.0, 3.0) == 2.0
    assert action_utility((0, 0, 4, 0), 2.0, 5.0, 10.0, 3.0) == pytest.approx(4 * math.sqrt(10))
    assert action_utility((0, 0, 0, 0), 2.0, 5.0, 10.0, 3.0) == 0.0
    assert action_utility((0, 1, 0, 2), 2.0, 5.0, 10.0, 3.0) == 11.0
    capped = action_utility((0, 0, 1, 0), 0.0, 0.0, 1e9, 0.0, w_max=300.0)
    assert capped == pytest.approx(math.sqrt(300.0))


def test_wait_utility_grows_within_horizon(small_scenario):
    ego = VehicleState(id="v00000", kind="av", lane="W1", slot=0, wait_s=4.0)
    inst, _ = build_intersection_instance(
        small_scenario, [ego], green_side="N", horizon=2, delta=0.05,
        lambdas=(0.0, 0.0, 1.0, 0.0),
    )
    agent = inst.agents["v00000"]
    u0 = agent.reward(("wait", 0), "go_s0")
    u1 = agent.reward(("wait", 1), "go_s0")
    assert u0 == pytest.approx(2.0)    # sqrt(4)
    assert u1 == pytest.approx(math.sqrt(5.0))


def test_signal_rotation():
    cfg = ScenarioConfig(signal_cycle_s=60.0)
    assert green_side_at(cfg, 0.0) == "N"
    assert green_side_at(cfg, 61.0) == "E"
    assert green_side_at(cfg, 121.0) == "S"
    assert green_side_at(cfg, 240.0) == "N"


def test_simulation_deterministic_per_seed(small_scenario):
    a = simulate(small_scenario, "mccssp", duration_s=12, seed=5, horizon=1, delta=0.05)
    b = simulate(small_scenario, "mccssp", duration_s=12, seed=5, horizon=1, delta=0.05)
    assert a.departures == b.departures
    assert a.collisions == b.collisions
    assert a.entries == b.entries
    c = simulate(small_scenario, "mccssp", duration_s=12, seed=6, horizon=1, delta=0.05)
    assert (a.departures, a.entries) != (c.departures, c.entries) or a.seed != c.seed


def test_simulation_counts_and_waits(small_scenario):
    metrics = simulate(small_scenario, "fcfs", duration_s=15, seed=2, horizon=1, delta=0.05)
    assert metrics.departures >= 1
    assert metrics.throughput_vpm == pytest.approx(metrics.departures / (15 / 60.0))
    assert metrics.max_wait_s >= 0.0
    assert metrics.planning_steps > 0


def test_single_vehicle_crosses_unhindered(small_scenario):
    cfg_overrides = dict(
        mc_samples=600, enabled_lanes=("N0",),
        lane_arrival={"N0": "always"}, lane_max_spawns={"N0": 1}, arrival_rate=0.0,
    )
    scenario = default_scenario(**cfg_overrides)
    metrics = simulate(scenario, "mccssp", duration_s=60, seed=0, horizon=1, delta=0.01)
    assert metrics.departures == 1
    assert metrics.collisions == 0
    assert metrics.max_wait_s == 0.0


def test_halt_state_on_deviation():
    scenario = default_scenario(
        mc_samples=600, hv_fraction=1.0, deviation_rate=1.0,
        enabled_lanes=("N0", "N1"),
    )
    metrics = simulate(scenario, "mccssp", duration_s=20, seed=1, horizon=1, delta=0.05)
    assert metrics.halts >= 1


def test_case_study_scenario_shape():
    scenario = case_study_scenario(4.0, mc_samples=600)
    assert set(scenario.lanes) == {"N0", "S0", "W1"}
    assert scenario.velocity("W1", "s0") == pytest.approx(8.0)
    assert scenario.velocity("N0", "s0") == pytest.approx(16.0)
