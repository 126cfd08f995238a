import numpy as np
import pytest

from builders import make_chain_instance, make_risky_safe_instance
from mccssp.model import (
    AgentMdp,
    InteractionPoint,
    MccSspInstance,
    StateRisk,
    reachable_layers,
    state_risk_tilde,
)
from mccssp.risk import (
    Policy,
    PolicyError,
    evaluate_table,
    execution_risk,
    expected_utility,
    linear_risk_from_flows,
    policy_flows,
    transition_tilde,
)
from mccssp.selftest import random_instance


def test_state_risk_tilde_cases():
    assert state_risk_tilde([]) == 0.0
    assert abs(state_risk_tilde([0.1, 0.2]) - 0.28) < 1e-15
    assert state_risk_tilde([1.0, 0.3]) == 1.0
    with pytest.raises(ValueError):
        state_risk_tilde([1.2])


def test_transition_tilde_cases():
    assert abs(transition_tilde(0.5, 0.28) - 0.36) < 1e-15
    assert transition_tilde(0.7, 0.0) == 0.7
    assert transition_tilde(0.7, 1.0) == 0.0
    with pytest.raises(ValueError):
        transition_tilde(-0.1, 0.5)
    with pytest.raises(ValueError):
        transition_tilde(0.5, 1.5)


def _go_policy(layers):
    assign = {}
    for li in layers:
        assign[li.id] = {
            (s, k): li.joint_actions[0] for k, s in li.decision_points()
        }
    return Policy(assign)


def test_chain_survival_product():
    inst = make_chain_instance()
    layers = reachable_layers(inst)
    policy = _go_policy(layers)
    er = execution_risk(inst, layers, policy, "col")
    assert abs(er - (1.0 - 0.9**3)) < 1e-12


def test_branching_expectation():
    agent = AgentMdp(
        states={"s", "bad", "good"},
        actions=("a",),
        transition={
            ("s", "a"): {"bad": 0.5, "good": 0.5},
            ("bad", "a"): {"bad": 1.0},
            ("good", "a"): {"good": 1.0},
        },
        utility={(s, "a"): 0.0 for s in ("s", "bad", "good")},
        initial_state="s",
    )
    point = InteractionPoint(
        0, ("v",), (True,), {"j": StateRisk.from_aggregate({("bad",): 0.2})}
    )
    inst = MccSspInstance({"v": agent}, (point,), 1, {"j": 1.0})
    layers = reachable_layers(inst)
    er = execution_risk(inst, layers, _go_policy(layers), "j")
    assert abs(er - 0.1) < 1e-12


def test_independent_interactions_sum():
    def solo(name, risk):
        agent = AgentMdp(
            states={f"{name}0", f"{name}1"},
            actions=("a",),
            transition={
                (f"{name}0", "a"): {f"{name}1": 1.0},
                (f"{name}1", "a"): {f"{name}1": 1.0},
            },
            utility={(f"{name}0", "a"): 0.0, (f"{name}1", "a"): 0.0},
            initial_state=f"{name}0",
        )
        point = InteractionPoint(
            0 if name == "u" else 1,
            (name,),
            (True,),
            {"j": StateRisk.from_aggregate({(f"{name}1",): risk})},
        )
        return agent, point

    au, pu = solo("u", 0.05)
    av, pv = solo("v", 0.05)
    inst = MccSspInstance({"u": au, "v": av}, (pu, pv), 1, {"j": 1.0})
    layers = reachable_layers(inst)
    er = execution_risk(inst, layers, _go_policy(layers), "j")
    assert abs(er - 0.1) < 1e-12


def test_terminal_risk_flag():
    inst = make_chain_instance(horizon=2)
    layers = reachable_layers(inst)
    policy = _go_policy(layers)
    with_terminal = execution_risk(inst, layers, policy, "col")
    assert abs(with_terminal - (1 - 0.9**3)) < 1e-12


def test_expected_utility_chain():
    inst = make_chain_instance()
    layers = reachable_layers(inst)
    assert abs(expected_utility(inst, layers, _go_policy(layers)) - 6.0) < 1e-12


def test_expected_utility_accrues_on_action():
    # 0.5/0.5 branch into utilities {10, 0} happens after the step, so only
    # the step-0 utility counts at h=1
    agent = AgentMdp(
        states={"s", "hi", "lo"},
        actions=("a",),
        transition={
            ("s", "a"): {"hi": 0.5, "lo": 0.5},
            ("hi", "a"): {"hi": 1.0},
            ("lo", "a"): {"lo": 1.0},
        },
        utility={("s", "a"): 3.0, ("hi", "a"): 10.0, ("lo", "a"): 0.0},
        initial_state="s",
    )
    inst = MccSspInstance(
        {"v": agent}, (InteractionPoint(0, ("v",), (True,), {}),), 1, {"j": 1.0}
    )
    layers = reachable_layers(inst)
    assert abs(expected_utility(inst, layers, _go_policy(layers)) - 3.0) < 1e-12


def test_greedy_beats_other_action():
    inst = make_risky_safe_instance(delta=1.0)
    layers = reachable_layers(inst)
    li = layers.per_interaction[0]
    greedy = Policy(
        {0: {(s, k): ("risky",) for k, s in li.decision_points()}}
    )
    assert expected_utility(inst, layers, greedy) == 10.0


def test_policy_error_on_missing_assignment(chain, chain_layers):
    policy = Policy({0: {((0,), 0): ("go",)}})
    with pytest.raises(PolicyError):
        execution_risk(chain, chain_layers, policy, "col")


def test_zero_risk_for_all_policies():
    rng = np.random.default_rng(3)
    for _ in range(15):
        inst = random_instance(rng)
        stripped = MccSspInstance(
            inst.agents,
            tuple(
                InteractionPoint(p.id, p.members, p.utility_owners, {})
                for p in inst.interactions
            ),
            inst.horizon,
            inst.risk_budgets,
        )
        layers = reachable_layers(stripped)
        policy = _random_stochastic_policy(layers, rng)
        for j in stripped.criteria:
            assert execution_risk(stripped, layers, policy, j) == 0.0


def _random_stochastic_policy(layers, rng):
    assign = {}
    for li in layers:
        table = {}
        for k, s in li.decision_points():
            weights = rng.random(len(li.joint_actions)) + 1e-3
            weights /= weights.sum()
            table[(s, k)] = dict(zip(li.joint_actions, weights))
        assign[li.id] = table
    return Policy(assign)


def test_monotone_in_pairwise_risk():
    base = make_chain_instance(risk=0.05)
    higher = make_chain_instance(risk=0.15)
    for inst_low, inst_high in ((base, higher),):
        l_low = reachable_layers(inst_low)
        l_high = reachable_layers(inst_high)
        p = _go_policy(l_low)
        assert execution_risk(inst_high, l_high, p, "col") >= execution_risk(
            inst_low, l_low, p, "col"
        )


def test_linear_form_matches_recursion_on_random_policies():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 25:
        inst = random_instance(rng)
        from mccssp.model import validate_instance

        if validate_instance(inst):
            continue
        layers = reachable_layers(inst)
        policy = _random_stochastic_policy(layers, rng)
        for j in inst.criteria:
            flows = policy_flows(inst, layers, policy, j)
            linear = linear_risk_from_flows(inst, layers, flows, j)
            recursion = execution_risk(inst, layers, policy, j)
            assert abs(linear - recursion) < 1e-9
        checked += 1


def _partial_table(li, rng):
    """Random deterministic choices at the states the choices reach, and
    nothing anywhere else."""
    table = {}
    reached = (li.layers[0][0],)
    for k in range(len(li.layers) - 1):
        succs = set()
        for s in reached:
            a = li.joint_actions[int(rng.integers(len(li.joint_actions)))]
            table[(s, k)] = a
            succs.update(succ for succ, _ in li.edges[(s, a)])
        reached = tuple(succs)
    return table


def test_unreached_states_need_no_assignment():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 25:
        inst = random_instance(rng)
        from mccssp.model import validate_instance

        if validate_instance(inst):
            continue
        layers = reachable_layers(inst)
        partial, completed = {}, {}
        for li in layers:
            partial[li.id] = _partial_table(li, rng)
            completed[li.id] = {
                (s, k): partial[li.id].get(
                    (s, k), li.joint_actions[int(rng.integers(len(li.joint_actions)))]
                )
                for k, s in li.decision_points()
            }
        sparse, full = Policy(partial), Policy(completed)
        assert expected_utility(inst, layers, sparse) == expected_utility(inst, layers, full)
        for j in inst.criteria:
            assert execution_risk(inst, layers, sparse, j) == execution_risk(
                inst, layers, full, j
            )
        checked += 1


def test_zero_probability_action_needs_no_downstream_entries():
    inst = make_risky_safe_instance(delta=1.0, horizon=2)
    li = reachable_layers(inst).per_interaction[0]
    mixed = {("safe",): 1.0, ("risky",): 0.0}
    # risky_end is reachable in the layers, but only through the action
    # taken with probability zero
    table = {(("start",), 0): mixed, (("safe_end",), 1): ("safe",)}
    assert evaluate_table(li, table, ("col",)) == (1.0, (0.0,))
    with pytest.raises(PolicyError):
        evaluate_table(li, {(("start",), 0): mixed}, ("col",))
