import numpy as np
import pytest

from builders import make_chain_instance, make_risky_safe_instance
from mccssp.model import (
    AgentMdp,
    InteractionPoint,
    MccSspInstance,
    StateRisk,
    reachable_layers,
    validate_instance,
)
from mccssp.oracles import (
    CapExceeded,
    MissingWaitAction,
    brute_force_optimal,
    count_restricted_policies,
    dp_optimal_utility,
    fcfs_plan,
)
from mccssp.risk import execution_risk, expected_utility
from mccssp.selftest import random_instance


def test_brute_force_risky_safe_tight_budget():
    inst = make_risky_safe_instance(delta=0.1)
    result = brute_force_optimal(inst)
    assert result.status == "optimal"
    assert result.objective == 1.0
    assert result.risks["col"] == 0.0


def test_brute_force_risky_safe_loose_budget():
    inst = make_risky_safe_instance(delta=0.3)
    result = brute_force_optimal(inst)
    assert result.objective == 10.0
    assert abs(result.risks["col"] - 0.2) < 1e-12


def test_brute_force_matches_value_iteration_on_zero_risk():
    inst = make_chain_instance(risk=0.0)
    layers = reachable_layers(inst)
    result = brute_force_optimal(inst, layers)
    assert abs(result.objective - dp_optimal_utility(inst, layers)) < 1e-12


def test_brute_force_reports_infeasible():
    agent = AgentMdp(
        states={"s", "t"},
        actions=("a", "b"),
        transition={(s, a): {"t": 1.0} for s in ("s", "t") for a in ("a", "b")},
        utility={(s, a): 1.0 for s in ("s", "t") for a in ("a", "b")},
        initial_state="s",
    )
    point = InteractionPoint(
        0, ("v",), (True,), {"j": StateRisk.from_aggregate({("t",): 0.5})}
    )
    inst = MccSspInstance({"v": agent}, (point,), 1, {"j": 0.1})
    result = brute_force_optimal(inst)
    assert result.status == "infeasible"
    assert result.policy is None


def test_cap_exceeded():
    inst = make_risky_safe_instance(delta=0.3, horizon=3)
    with pytest.raises(CapExceeded):
        brute_force_optimal(inst, cap=1)


def test_restricted_policy_count_on_chain():
    inst = make_chain_instance()
    layers = reachable_layers(inst)
    li = layers.per_interaction[0]
    assert count_restricted_policies(li, 1000) == 1  # single action


def _two_agent_conflict(delta, pair_risk=0.15):
    def vehicle(name):
        return AgentMdp(
            states={f"{name}_wait", f"{name}_in"},
            actions=("go", "wait"),
            transition={
                (f"{name}_wait", "go"): {f"{name}_in": 1.0},
                (f"{name}_wait", "wait"): {f"{name}_wait": 1.0},
                (f"{name}_in", "go"): {f"{name}_in": 1.0},
                (f"{name}_in", "wait"): {f"{name}_in": 1.0},
            },
            utility={
                (f"{name}_wait", "go"): 5.0,
                (f"{name}_wait", "wait"): 0.0,
                (f"{name}_in", "go"): 0.0,
                (f"{name}_in", "wait"): 0.0,
            },
            initial_state=f"{name}_wait",
            wait_action="wait",
        )

    point = InteractionPoint(
        0,
        ("u", "v"),
        (True, True),
        {"j": StateRisk.from_aggregate({("u_in", "v_in"): pair_risk})},
    )
    return MccSspInstance(
        {"u": vehicle("u"), "v": vehicle("v")}, (point,), 1, {"j": delta}
    )


def test_fcfs_first_granted_second_waits():
    inst = _two_agent_conflict(delta=0.1)
    layers = reachable_layers(inst)
    policy = fcfs_plan(inst, ["u", "v"], 0.1, layers)
    joint = policy.action(0, ("u_wait", "v_wait"), 0)
    assert joint == ("go", "wait")


def test_fcfs_arrival_order_matters():
    inst = _two_agent_conflict(delta=0.1)
    policy = fcfs_plan(inst, ["v", "u"], 0.1)
    assert policy.action(0, ("u_wait", "v_wait"), 0) == ("wait", "go")


def test_fcfs_grants_all_when_no_conflict():
    inst = _two_agent_conflict(delta=0.1, pair_risk=0.0)
    policy = fcfs_plan(inst, ["u", "v"], 0.1)
    assert policy.action(0, ("u_wait", "v_wait"), 0) == ("go", "go")


def test_fcfs_vacuous_bound_grants_everything():
    inst = _two_agent_conflict(delta=1.0)
    policy = fcfs_plan(inst, ["u", "v"], 1.0)
    assert policy.action(0, ("u_wait", "v_wait"), 0) == ("go", "go")


def test_fcfs_requires_wait_action():
    inst = make_chain_instance()  # single action, fine
    fcfs_plan(inst, ["c"], 0.5)
    bad_agent = AgentMdp(
        states={0, 1},
        actions=("a", "b"),
        transition={(s, a): {1: 1.0} for s in (0, 1) for a in ("a", "b")},
        utility={(s, a): 0.0 for s in (0, 1) for a in ("a", "b")},
        initial_state=0,
    )
    inst2 = MccSspInstance(
        {"v": bad_agent}, (InteractionPoint(0, ("v",), (True,), {}),), 1, {"j": 1.0}
    )
    with pytest.raises(MissingWaitAction):
        fcfs_plan(inst2, ["v"], 0.5)


def test_fcfs_never_beats_brute_force():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 12:
        inst = _two_agent_conflict(
            delta=float(rng.uniform(0, 0.4)), pair_risk=float(rng.uniform(0, 0.4))
        )
        layers = reachable_layers(inst)
        bf = brute_force_optimal(inst, layers)
        if bf.status != "optimal":
            continue
        fcfs = fcfs_plan(inst, ["u", "v"], inst.risk_budgets["j"], layers)
        assert bf.objective >= expected_utility(inst, layers, fcfs) - 1e-9
        checked += 1


def test_brute_force_policies_respect_budgets():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 10:
        inst = random_instance(rng)
        if validate_instance(inst):
            continue
        try:
            result = brute_force_optimal(inst, cap=50_000)
        except CapExceeded:
            continue
        if result.status == "optimal":
            layers = reachable_layers(inst)
            for j in inst.criteria:
                er = execution_risk(inst, layers, result.policy, j)
                assert er <= inst.risk_budgets[j] + 1e-9
                assert abs(er - result.risks[j]) < 1e-9
        checked += 1
