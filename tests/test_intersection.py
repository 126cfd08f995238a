import math

import numpy as np
import pytest

from mccssp import intersection
from mccssp.ilp import build_ilp, decide, solve, solve_instance
from mccssp.intersection import (
    Scenario,
    ScenarioConfig,
    VehicleState,
    action_utility,
    build_intersection_instance,
    case_study_scenario,
    default_scenario,
    green_side_at,
    simulate,
)
from mccssp.model import TOL, reachable_layers, validate_instance
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


def test_a_variant_pair_interacts_iff_its_sampled_matrix_is_non_zero(small_scenario):
    cfg = small_scenario.config
    variants = sorted(
        small_scenario.variant_key(lane, slot, kind, speed)
        for lane in small_scenario.lanes
        for slot in range(cfg.queue_depth)
        for kind in intersection.KINDS
        for speed in cfg.speeds
    )
    pairs = [
        small_scenario.pair_risk(va, vb)
        for n, va in enumerate(variants)
        for vb in variants[n:]
    ]
    assert len(pairs) == 136
    assert sum(pair is None for pair in pairs) == 19
    assert all(pair.matrix.any() for pair in pairs if pair is not None)


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
    # N0 crosses both others; E0 and W1 share the box as well
    assert set(info.pair_ids) == {
        ("v00000", "v00001"), ("v00000", "v00002"), ("v00001", "v00002"),
    }


def test_exactly_one_of_colocated_pair_goes(small_scenario):
    vehicles = _avs([("N0", 0), ("W1", 0)])
    inst, info = build_intersection_instance(
        small_scenario, vehicles, green_side="N", horizon=1, delta=0.05
    )
    assert list(info.pair_ids) == [("v00000", "v00001")]
    result = solve_instance(inst)
    actions = {
        vid: result.policy.action(pid, (inst.agents[vid].initial_state,), 0)[0]
        for vid, pid in info.singleton_ids.items()
    }
    assert sum(a.startswith("go") for a in actions.values()) == 1
    assert result.risks["collision"] <= 0.05 + 1e-9


def test_no_incumbent_falls_back_to_all_wait(small_scenario, highs_stops_without_incumbent):
    vehicles = _avs([("N0", 0), ("W1", 0)])
    inst, info = build_intersection_instance(
        small_scenario, vehicles, green_side="N", horizon=2, delta=0.05
    )
    result = solve_instance(inst, time_limit=1.0)
    assert (result.status, result.decided_by) == ("time_limit", "fallback")
    assert result.risks["collision"] == 0.0
    for pid in info.singleton_ids.values():
        assert set(result.policy.assignments[pid].values()) == {("wait",)}
    # a receding-horizon run keeps planning instead of raising
    metrics = simulate(small_scenario, "mccssp", duration_s=12, seed=5, horizon=1, delta=0.05)
    assert metrics.planning_steps > 0


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
    result = solve(layers)
    oracle = brute_force_optimal(layers)
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
            for vid, part in zip(li.members, s):
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
    assert action_utility((1, 0, 0, 0), 2.0, 5.0, 9.0, 3.0, 300.0) == 2.0
    assert action_utility((0, 0, 4, 0), 2.0, 5.0, 10.0, 3.0, 300.0) == pytest.approx(4 * math.sqrt(10))
    assert action_utility((0, 0, 0, 0), 2.0, 5.0, 10.0, 3.0, 300.0) == 0.0
    assert action_utility((0, 1, 0, 2), 2.0, 5.0, 10.0, 3.0, 300.0) == 11.0
    capped = action_utility((0, 0, 1, 0), 0.0, 0.0, 1e9, 0.0, 300.0)
    assert capped == pytest.approx(math.sqrt(300.0))


def test_wait_utility_grows_within_horizon():
    scenario = default_scenario(mc_samples=600, lambdas=(0.0, 0.0, 1.0, 0.0))
    ego = VehicleState(id="v00000", kind="av", lane="W1", slot=0, wait_s=4.0)
    inst, _ = build_intersection_instance(
        scenario, [ego], green_side="N", horizon=2, delta=0.05
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


def test_scenario_rejects_a_config_no_run_can_use():
    with pytest.raises(ValueError, match="noise_sd"):
        default_scenario(noise_sd=-1, mc_samples=200, enabled_lanes=("N0", "E0"))
    with pytest.raises(ValueError, match="lambdas"):
        Scenario(ScenarioConfig(lambdas=(1.0, 0.0)))


def test_case_study_scenario_shape():
    scenario = case_study_scenario(4.0, mc_samples=600)
    assert set(scenario.lanes) == {"N0", "S0", "W1"}
    assert scenario.velocity("W1", "s0") == pytest.approx(8.0)
    assert scenario.velocity("N0", "s0") == pytest.approx(16.0)


def test_build_samples_every_pair_table_planning_needs(monkeypatch):
    # a fresh scenario, so no table is cached before the build; the HV is
    # still ambiguous between two maneuvers
    from mccssp import pft
    from mccssp.oracles import fcfs_plan

    scenario = default_scenario(mc_samples=200)
    av = VehicleState(id="v00000", kind="av", lane="E0", slot=0)
    hv = VehicleState(id="v00001", kind="hv", lane="N0", slot=0, true_kind="straight")
    inst, info = build_intersection_instance(
        scenario, [av, hv], green_side="N", horizon=1, delta=0.05
    )
    # the HV's entry branches two ways, so both of its variants are planned
    assert len(inst.agents["v00001"].transition[(("hv", 0), "hv")]) == 2
    calls = []
    sample = pft.step_probability_matrix
    monkeypatch.setattr(
        pft, "step_probability_matrix",
        lambda *args, **kwargs: calls.append(args) or sample(*args, **kwargs),
    )
    layers = reachable_layers(inst)
    assert solve(layers).status == "optimal"
    fcfs_plan(layers, info.arrival_order, 0.05)
    assert calls == []


def test_built_instance_reads_only_build_time_data(small_scenario, monkeypatch):
    # an entering HV is ambiguous between straight and left; moving it on
    # after the build must not change the built instance's pair risk,
    # which is a table filled by the build
    from mccssp import intersection

    weight_calls = []
    weights = intersection._hv_candidate_weights
    monkeypatch.setattr(
        intersection, "_hv_candidate_weights",
        lambda *args: weight_calls.append(args) or weights(*args),
    )
    av = VehicleState(id="v00000", kind="av", lane="E0", slot=0)
    hv = VehicleState(id="v00001", kind="hv", lane="N0", slot=0, true_kind="straight")
    inst, info = build_intersection_instance(
        small_scenario, [av, hv], green_side="N", horizon=1, delta=0.05
    )
    point = inst.interaction(info.pair_ids[("v00000", "v00001")])
    assert not any(
        callable(spec.table) for p in inst.interactions for spec in p.risk.values()
    )
    # at k=1 both are moving: the AV granted at k=0, the HV on its left branch
    steps = small_scenario.steps_per_plan
    e0 = small_scenario.variant_key("E0", 0, "straight", "s0")
    n0 = small_scenario.variant_key("N0", 0, "left", small_scenario.config.hv_speed)
    joint = (("run", e0, steps), ("run", n0, steps))
    before = point.state_risk("collision", joint)
    assert before > 0.1
    hv.progression, hv.slot = 12, 1
    assert point.state_risk("collision", joint) == before
    assert solve_instance(inst).status == "optimal"
    assert len(weight_calls) == 1  # once per HV per build, never per lookup


def test_simulate_rejects_unknown_planner_and_empty_duration(small_scenario):
    # no AV arrives in this run, so no step would ever reach the planner
    scenario = default_scenario(mc_samples=600, hv_fraction=1.0, enabled_lanes=("N0",))
    with pytest.raises(ValueError, match="unknown planner 'bogus'"):
        simulate(scenario, "bogus", duration_s=6, seed=1, horizon=1, delta=0.05)
    with pytest.raises(ValueError, match="duration_s must be positive"):
        simulate(small_scenario, "fcfs", duration_s=0, horizon=1, delta=0.05)


@pytest.mark.parametrize("horizon, delta, message", [
    (0, 0.05, "horizon must be an integer >= 1, got 0"),
    (1.0, 0.05, "horizon must be an integer >= 1, got 1.0"),
    (1, 1.5, r"delta must be a number in \[0, 1\], got 1.5"),
])
def test_simulate_rejects_a_bad_horizon_or_budget_before_any_step(
    small_scenario, monkeypatch, horizon, delta, message
):
    builds = []
    monkeypatch.setattr(intersection, "build_intersection_instance",
                        lambda *args, **kwargs: builds.append(args))
    with pytest.raises(ValueError, match=message):
        simulate(small_scenario, "mccssp", duration_s=6, seed=1, horizon=horizon, delta=delta)
    assert builds == []


# at h=2 the occupancy MIP takes up to 4 s on a step with full queues
@pytest.mark.parametrize(
    "horizon, duration", [(1, 20), pytest.param(2, 10, marks=pytest.mark.slow)]
)
def test_simulated_steps_solve_alike_by_paths_and_occupancy(
    small_scenario, monkeypatch, horizon, duration
):
    instances = []

    def recording_solve(instance, *args, **kwargs):
        instances.append(instance)
        return solve_instance(instance, *args, **kwargs)

    monkeypatch.setattr(intersection, "solve_instance", recording_solve)
    # the shared scenario fixture gets its HV share back after the test
    monkeypatch.setattr(small_scenario.config, "hv_fraction", small_scenario.config.hv_fraction)
    for hv in (0.0, 0.3):
        small_scenario.config.hv_fraction = hv
        for delta in (0.01, 0.1):
            simulate(small_scenario, "mccssp", duration, seed=3, horizon=horizon, delta=delta)
    assert len(instances) >= 3 * duration
    worst = 0.0
    for instance in instances:
        layers = reachable_layers(instance)
        by_paths = solve(layers)
        by_occupancy = decide(build_ilp(layers))
        assert by_paths.decided_by == "paths"
        assert by_paths.status == by_occupancy.status == "optimal"
        gap = abs(by_paths.objective - by_occupancy.objective)
        worst = max(worst, gap / max(1.0, abs(by_occupancy.objective)))
    assert worst <= TOL


class _KeptTable(dict):
    """A pair risk table whose point is emitted even when it is empty."""

    def __bool__(self):
        return True


def _rule_off(monkeypatch):
    """Emit a pair point for every pair with a controllable member, as if
    every such pair could collide within the horizon.  Each point's risk
    table covers every pair of reached own states, whichever step each is
    at, with the build's own arithmetic: a joint state that a layer holds
    outside the build's same-step table then reads its true risk here."""
    table = intersection._pair_risk_table
    monkeypatch.setattr(
        intersection,
        "_pair_risk_table",
        lambda scenario, pa, pb, ma, mb: _KeptTable(
            table(scenario, pa, pb, [list(pa)], [list(pb)])
        ),
    )


def test_parked_hv_on_red_gets_no_pair_point(small_scenario, monkeypatch):
    # the queued AV crosses the HV's lane, but an HV waiting on red is
    # parked at its stop anchor and carries no risk at any step
    av = VehicleState(id="v00000", kind="av", lane="E0", slot=0)
    hv = VehicleState(id="v00001", kind="hv", lane="N0", slot=0, true_kind="straight")
    for horizon in (1, 2, 3):
        inst, info = build_intersection_instance(
            small_scenario, [av, hv], green_side="E", horizon=horizon, delta=0.05
        )
        assert info.pair_ids == {}
        # no agent is shared, so the DP certificate decides: the AV goes
        result = solve_instance(inst)
        assert (result.status, result.decided_by) == ("optimal", "dp")
        assert result.policy.action(info.singleton_ids["v00000"], (("wait", 0),), 0) == ("go_s0",)
        # the same HV on green may enter, so the pair keeps its point
        _, info = build_intersection_instance(
            small_scenario, [av, hv], green_side="N", horizon=horizon, delta=0.05
        )
        assert list(info.pair_ids) == [("v00000", "v00001")]
    _rule_off(monkeypatch)
    _, info = build_intersection_instance(
        small_scenario, [av, hv], green_side="E", horizon=1, delta=0.05
    )
    assert list(info.pair_ids) == [("v00000", "v00001")]


def test_pair_point_needs_both_vehicles_moving_at_one_step(small_scenario, monkeypatch):
    # a committed AV that leaves its tube within the first interval can
    # never overlap in time with a queued AV's motion, which starts at k=1
    e0 = small_scenario.variant_key("E0", 0, "straight", "s0")
    tube_len = len(small_scenario.tube(e0))
    steps = small_scenario.steps_per_plan
    leaving = VehicleState(
        id="v00000", kind="av", lane="E0", slot=0, phase="running", variant=e0,
        progression=tube_len - steps,
    )
    queued = VehicleState(id="v00001", kind="av", lane="N0", slot=0)
    _, info = build_intersection_instance(
        small_scenario, [leaving, queued], green_side="N", horizon=2, delta=0.05
    )
    assert info.pair_ids == {}
    _rule_off(monkeypatch)
    _, info = build_intersection_instance(
        small_scenario, [leaving, queued], green_side="N", horizon=2, delta=0.05
    )
    assert list(info.pair_ids) == [("v00000", "v00001")]


def _own_actions(info, policy):
    """Each vehicle's own action per (own state, step), read off its
    singleton point."""
    return {
        vid: {(s[0], k): a[0] for (s, k), a in policy.assignments[pid].items()}
        for vid, pid in info.singleton_ids.items()
    }


def _policy_from_own_actions(layers, own):
    """The joint policy that plays every vehicle's own action at every
    point: consistent by construction, so it executes one plan."""
    from mccssp.risk import Policy

    return Policy({
        li.id: {
            (s, k): tuple(own[v][(part, k)] for v, part in zip(li.members, s))
            for k, s in li.decision_points()
        }
        for li in layers
    })


@pytest.mark.parametrize("horizon, duration", [(1, 20), (2, 10)])
def test_pruned_instances_plan_like_full_ones(small_scenario, monkeypatch, horizon, duration):
    import copy

    from mccssp.oracles import fcfs_plan
    from mccssp.risk import execution_risk

    snapshots = []
    build = intersection.build_intersection_instance

    def recording_build(scenario, vehicles, **kwargs):
        snapshots.append((copy.deepcopy(vehicles), kwargs))
        return build(scenario, vehicles, **kwargs)

    monkeypatch.setattr(intersection, "build_intersection_instance", recording_build)
    # the shared scenario fixture gets its HV share back after the test
    monkeypatch.setattr(small_scenario.config, "hv_fraction", small_scenario.config.hv_fraction)
    for hv in (0.0, 0.3):
        small_scenario.config.hv_fraction = hv
        for delta in (0.01, 0.1):
            simulate(small_scenario, "mccssp", duration, seed=3, horizon=horizon, delta=delta)
    monkeypatch.setattr(intersection, "build_intersection_instance", build)
    assert len(snapshots) >= 3 * duration

    pruned = [build(small_scenario, vs, **kwargs) for vs, kwargs in snapshots]
    _rule_off(monkeypatch)
    full = [build(small_scenario, vs, **kwargs) for vs, kwargs in snapshots]

    dropped = without_pairs = 0
    for (p_inst, p_info), (f_inst, f_info) in zip(pruned, full):
        assert set(p_info.pair_ids) <= set(f_info.pair_ids)
        assert p_info.singleton_ids == f_info.singleton_ids
        dropped += len(f_info.pair_ids) - len(p_info.pair_ids)
        without_pairs += not p_info.pair_ids
        p_layers, f_layers = reachable_layers(p_inst), reachable_layers(f_inst)
        p_result = solve(p_layers)
        f_result = solve(f_layers)
        assert p_result.status == f_result.status == "optimal"
        gap = abs(p_result.objective - f_result.objective)
        assert gap <= TOL * max(1.0, abs(f_result.objective))
        # the pruned plan, played at every point of the full instance,
        # risks exactly as much: each dropped point adds zero
        own = _own_actions(p_info, p_result.policy)
        p_risk = execution_risk(p_inst, p_layers, p_result.policy, "collision")
        f_risk = execution_risk(
            f_inst, f_layers, _policy_from_own_actions(f_layers, own), "collision"
        )
        assert f_risk == p_risk
        # first come, first served grants the same actions either way
        p_fcfs = fcfs_plan(p_layers, p_info.arrival_order, p_inst.risk_budgets["collision"])
        f_fcfs = fcfs_plan(f_layers, f_info.arrival_order, f_inst.risk_budgets["collision"])
        for vid, pid in p_info.singleton_ids.items():
            initial = (p_inst.agents[vid].initial_state,)
            assert p_fcfs.action(pid, initial, 0) == f_fcfs.action(pid, initial, 0)
    assert dropped > 0
    print(
        f"h={horizon}: {len(snapshots)} steps, {dropped} pair points dropped, "
        f"{without_pairs} steps without any"
    )


@pytest.mark.parametrize("horizon, duration", [(1, 12), (2, 6)])
def test_built_steps_roundtrip_json_and_plan_alike(small_scenario, monkeypatch, horizon, duration):
    # every step of a run, saved and loaded again, plans as the built one:
    # the same mccssp result and the same step-0 action of every vehicle
    # under both planners
    from mccssp.io import instance_from_json, instance_to_json
    from mccssp.oracles import fcfs_plan

    built = []
    build = intersection.build_intersection_instance

    def recording_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(intersection, "build_intersection_instance", recording_build)
    # the shared scenario fixture gets its HV share back after the test
    monkeypatch.setattr(small_scenario.config, "hv_fraction", small_scenario.config.hv_fraction)
    for hv in (0.0, 0.3):
        small_scenario.config.hv_fraction = hv
        for planner in ("mccssp", "fcfs"):
            simulate(small_scenario, planner, duration, seed=4, horizon=horizon, delta=0.05)
    assert len(built) >= 4 * duration

    def plan(instance, info):
        layers = reachable_layers(instance)
        result = solve(layers)
        fcfs = fcfs_plan(layers, info.arrival_order, 0.05)
        step0 = {
            vid: (
                result.policy.action(pid, (instance.agents[vid].initial_state,), 0),
                fcfs.action(pid, (instance.agents[vid].initial_state,), 0),
            )
            for vid, pid in info.singleton_ids.items()
        }
        return result.status, result.decided_by, result.objective, result.risks, step0

    for instance, info in built:
        loaded = instance_from_json(instance_to_json(instance))
        assert plan(loaded, info) == plan(instance, info)


@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_built_steps_write_rows_only_where_a_decision_is_taken(
    small_scenario, monkeypatch, horizon
):
    # every transition and utility row of a built step belongs to an own
    # state the vehicle reaches before the horizon, and each such state
    # has one for every action
    from mccssp.model import own_rows

    built = []
    build = intersection.build_intersection_instance

    def recording_build(*args, **kwargs):
        instance, info = build(*args, **kwargs)
        built.append(instance)
        return instance, info

    monkeypatch.setattr(intersection, "build_intersection_instance", recording_build)
    # the shared scenario fixture gets its HV share back after the test
    monkeypatch.setattr(small_scenario.config, "hv_fraction", small_scenario.config.hv_fraction)
    for hv in (0.0, 0.3):
        small_scenario.config.hv_fraction = hv
        simulate(small_scenario, "fcfs", 12, seed=4, horizon=horizon, delta=0.05)
    assert len(built) >= 20
    for instance in built:
        assert validate_instance(instance) == []
        for agent in instance.agents.values():
            own = own_rows(agent, horizon)
            decided = {(s, a) for layer in own.layers[:horizon] for s in layer for a in own.actions}
            assert set(agent.transition) == decided
            assert set(agent.utility) == decided
