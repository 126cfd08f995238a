import pytest

from builders import make_chain_instance, make_coinflip_pair_instance
from mccssp.model import (
    AgentMdp,
    InstanceError,
    InteractionPoint,
    MccSspInstance,
    StateRisk,
    assign_utility_owners,
    interaction_product,
    reachable_layers,
    validate_instance,
)
from mccssp.risk import Policy


def test_well_formed_instance_validates_clean(risky_safe):
    assert validate_instance(risky_safe) == []


def test_unnormalized_transition_reported():
    agent = AgentMdp(
        states={0, 1},
        actions=("a",),
        transition={(0, "a"): {1: 0.9}, (1, "a"): {1: 1.0}},
        utility={(0, "a"): 0.0, (1, "a"): 0.0},
        initial_state=0,
    )
    point = InteractionPoint(id=0, members=("v",), utility_owners=(True,), risk={})
    inst = MccSspInstance({"v": agent}, (point,), 1, {"j": 0.1})
    report = validate_instance(inst)
    assert any("not normalized" in line for line in report)


def test_uncovered_agent_reported(risky_safe):
    extra = dict(risky_safe.agents)
    extra["ghost"] = risky_safe.agents["v"]
    inst = MccSspInstance(extra, risky_safe.interactions, 1, {"col": 0.1})
    report = validate_instance(inst)
    assert any("not covered" in line for line in report)


def test_owner_exactly_once_rule():
    inst = make_coinflip_pair_instance()
    double = InteractionPoint(id=1, members=("a",), utility_owners=(True,), risk={})
    bad = MccSspInstance(
        inst.agents, inst.interactions + (double,), 1, inst.risk_budgets
    )
    report = validate_instance(bad)
    assert any("owned by 2" in line for line in report)


def test_bad_budget_and_horizon_reported(risky_safe):
    bad = MccSspInstance(risky_safe.agents, risky_safe.interactions, 0, {"col": 1.5})
    report = validate_instance(bad)
    assert any("horizon" in line for line in report)
    assert any("budget" in line for line in report)


def test_default_owner_assignment():
    flags = assign_utility_owners([("a", "b"), ("b", "c")])
    assert flags == [(True, True), (False, True)]


def test_interaction_product_action_count():
    inst = make_coinflip_pair_instance()
    view = interaction_product(inst, 0)
    assert len(view.joint_actions) == 1  # 1 x 1 actions
    # two actions each would give four
    a = inst.agents["a"]
    agent2 = AgentMdp(
        states=a.states,
        actions=("flip", "wait"),
        transition={
            (s, act): dict(a.transition[(s, "flip")])
            for s in ("a0", "a1")
            for act in ("flip", "wait")
        },
        utility={(s, act): 0.0 for s in ("a0", "a1") for act in ("flip", "wait")},
        initial_state="a0",
    )
    inst2 = MccSspInstance(
        {"a": agent2, "b": agent2},
        (InteractionPoint(0, ("a", "b"), (True, True), {}),),
        1,
        {"j": 1.0},
    )
    assert len(interaction_product(inst2, 0).joint_actions) == 4


def test_interaction_product_coinflip_probabilities():
    inst = make_coinflip_pair_instance()
    view = interaction_product(inst, 0)
    row = view.transition(("a0", "b0"), ("flip", "flip"))
    assert len(row) == 4
    assert all(abs(p - 0.25) < 1e-12 for p in row.values())


def test_utility_owner_excluded_at_non_owning_interaction():
    inst = make_coinflip_pair_instance()
    shared = inst.agents
    points = (
        InteractionPoint(0, ("a", "b"), (True, True), {}),
        InteractionPoint(1, ("a",), (False,), {}),
    )
    inst2 = MccSspInstance(shared, points, 1, {"j": 1.0})
    owner_view = interaction_product(inst2, 0)
    other_view = interaction_product(inst2, 1)
    assert owner_view.utility(("a0", "b0"), ("flip", "flip")) == 2.0
    assert other_view.utility(("a0",), ("flip",)) == 0.0


def test_utility_decomposition_sums_to_per_agent_total():
    inst = make_coinflip_pair_instance()
    points = (
        InteractionPoint(0, ("a", "b"), (True, False), {}),
        InteractionPoint(1, ("b",), (True,), {}),
    )
    inst2 = MccSspInstance(inst.agents, points, 1, {"j": 1.0})
    v0 = interaction_product(inst2, 0)
    v1 = interaction_product(inst2, 1)
    total = v0.utility(("a0", "b0"), ("flip", "flip")) + v1.utility(("b0",), ("flip",))
    per_agent = sum(
        inst2.agents[v].reward(f"{v}0", "flip") for v in ("a", "b")
    )
    assert total == per_agent


def test_unknown_interaction_id(risky_safe):
    with pytest.raises(InstanceError):
        interaction_product(risky_safe, 99)


def test_reachable_layers_deterministic_chain():
    inst = make_chain_instance()
    layers = reachable_layers(inst)
    sizes = [len(layer) for layer in layers.per_interaction[0].layers]
    assert sizes == [1, 1, 1, 1]


def test_reachable_layers_only_positive_probability():
    agent = AgentMdp(
        states={0, 1, 2},
        actions=("a",),
        transition={(s, "a"): {1: 1.0, 2: 0.0} for s in (0, 1, 2)},
        utility={(s, "a"): 0.0 for s in (0, 1, 2)},
        initial_state=0,
    )
    point = InteractionPoint(0, ("v",), (True,), {})
    inst = MccSspInstance({"v": agent}, (point,), 2, {"j": 1.0})
    layers = reachable_layers(inst)
    assert layers.per_interaction[0].layers[1] == ((1,),)


def test_flow_conservation_over_layers(chain, chain_layers):
    li = chain_layers.per_interaction[0]
    policy = Policy(
        {0: {(s, k): ("go",) for k, s in li.decision_points()}}
    )
    occ = {li.layers[0][0]: 1.0}
    for k in range(chain.horizon):
        nxt = {}
        for s, mass in occ.items():
            a = policy.action(0, s, k)
            for succ, p in li.edges[(s, a)]:
                nxt[succ] = nxt.get(succ, 0.0) + mass * p
        occ = nxt
        assert abs(sum(occ.values()) - 1.0) < 1e-12


def test_invalid_instance_rejected_by_layering():
    agent = AgentMdp(
        states={0},
        actions=("a",),
        transition={(0, "a"): {0: 0.5}},
        utility={(0, "a"): 0.0},
        initial_state=0,
    )
    inst = MccSspInstance(
        {"v": agent}, (InteractionPoint(0, ("v",), (True,), {}),), 1, {"j": 1.0}
    )
    with pytest.raises(InstanceError):
        reachable_layers(inst)


def test_renormalization_within_tolerance():
    agent = AgentMdp(
        states={0, 1},
        actions=("a",),
        transition={(0, "a"): {1: 1.0 + 5e-10}, (1, "a"): {1: 1.0}},
        utility={(0, "a"): 0.0, (1, "a"): 0.0},
        initial_state=0,
    )
    row = agent.successors(0, "a")
    assert abs(sum(row.values()) - 1.0) < 1e-15


def test_pairwise_risk_aggregation():
    spec = StateRisk.from_pairwise({("a", "b"): {("x", "y"): 0.1}})
    assert abs(spec.tilde(("a", "b"), ("x", "y")) - 0.1) < 1e-15
    assert spec.tilde(("a", "b"), ("x", "z")) == 0.0


def test_ambient_size_invariance_of_layers():
    from mccssp.grid import GridSpec, generate_grid_instance

    sizes = {}
    for width in (100, 10_000):
        spec = GridSpec(
            width=width, height=width, n_agents=1, horizon=3, seed=4,
            start_positions=[(50, 50)],
        )
        layers = reachable_layers(generate_grid_instance(spec))
        sizes[width] = [len(layer) for layer in layers.per_interaction[0].layers]
    assert sizes[100] == sizes[10_000] == [1, 5, 13, 25]
