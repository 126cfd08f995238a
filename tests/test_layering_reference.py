"""``reachable_layers`` forms each point's joint rows from its members' own
rows; a plain expansion through ``AgentMdp.successors``, kept here as the
reference, must give the same layers, actions, edges and utilities, in the
same order and to the last bit."""

import itertools

import numpy as np
import pytest

from mccssp import intersection
from mccssp.grid import GridSpec, generate_grid_instance
from mccssp.ilp import solve_instance
from mccssp.model import (
    AgentMdp,
    InteractionPoint,
    MccSspInstance,
    StateRisk,
    reachable_layers,
    validate_instance,
)
from mccssp.selftest import random_instance, random_path_instance


def _reference_joint_successors(agents, joint_state, joint_action):
    rows = [agent.successors(s, a) for agent, s, a in zip(agents, joint_state, joint_action)]
    out = {}
    for combo in itertools.product(*(row.items() for row in rows)):
        succ = tuple(s for s, _ in combo)
        p = 1.0
        for _, q in combo:
            p *= q
        if p > 0.0:
            out[succ] = out.get(succ, 0.0) + p
    return out


def _reference_layers(instance):
    """Per point: (joint actions, default joint action, layers, edges,
    utilities), expanded breadth-first joint action by joint action."""
    out = {}
    for point in instance.interactions:
        agents = [instance.agents[v] for v in point.members]
        joint_actions = tuple(itertools.product(*(m.sorted_actions() for m in agents)))
        initial = tuple(m.initial_state for m in agents)
        layers = [(initial,)]
        edges, utilities = {}, {}
        frontier = [initial]
        for _ in range(instance.horizon):
            nxt = set()
            for s in frontier:
                for a in joint_actions:
                    if (s, a) not in edges:
                        row = _reference_joint_successors(agents, s, a)
                        edges[(s, a)] = tuple(sorted(row.items(), key=lambda kv: repr(kv[0])))
                        utility = 0.0
                        for agent, owns, sv, av in zip(agents, point.utility_owners, s, a):
                            if owns:
                                utility += agent.reward(sv, av)
                        utilities[(s, a)] = utility
                    nxt.update(succ for succ, _ in edges[(s, a)])
            frontier = sorted(nxt, key=repr)
            layers.append(tuple(frontier))
        default = tuple(m.default_action() for m in agents)
        out[point.id] = (joint_actions, default, tuple(layers), edges, utilities)
    return out


def _hex_edges(edges):
    return [(key, [(succ, p.hex()) for succ, p in row]) for key, row in edges.items()]


def _assert_same_layout(instance):
    layers = reachable_layers(instance)
    reference = _reference_layers(instance)
    assert list(layers.per_interaction) == list(reference)
    for i, (joint_actions, default, states, edges, utilities) in reference.items():
        layers_i = layers.per_interaction[i]
        assert layers_i.joint_actions == joint_actions
        assert layers_i.default_joint_action == default
        assert layers_i.layers == states
        assert _hex_edges(layers_i.edges) == _hex_edges(edges)
        assert [(key, u.hex()) for key, u in layers_i.utilities.items()] == [
            (key, u.hex()) for key, u in utilities.items()
        ]


def _valid_draws(draw, n, seed):
    rng = np.random.default_rng(seed)
    drawn = [draw(rng) for _ in range(n)]
    return [inst for inst in drawn if not validate_instance(inst)]


def test_same_layout_on_random_instances():
    drawn = _valid_draws(random_instance, 300, 20_240)
    assert len(drawn) > 250
    for instance in drawn:
        _assert_same_layout(instance)


def test_same_layout_on_path_family_instances():
    drawn = _valid_draws(random_path_instance, 100, 20_240)
    assert len(drawn) > 80
    for instance in drawn:
        _assert_same_layout(instance)


def test_same_layout_on_the_seed_13_grid_cells():
    # the cells of the acceptance sweep, with grid.benchmark_rows's starts
    base = GridSpec(width=10_000, height=10_000, seed=13, risk_budget=0.2)
    rng = np.random.default_rng(base.seed)
    starts = [(int(rng.integers(base.width)), int(rng.integers(base.height))) for _ in range(4)]
    cells = [(a, h) for a in (1, 2, 3, 4) for h in (1, 2, 3, 4)] + [(2, 5)]
    for n_agents, horizon in cells:
        spec = GridSpec(**{**base.__dict__, "n_agents": n_agents, "horizon": horizon,
                           "start_positions": starts[:n_agents]})
        _assert_same_layout(generate_grid_instance(spec))


def _wheel(initial):
    """States 0..12; "spin" moves 2, 10 or 9 ahead, listed in that order,
    so from 0 the row order (2, 10, 9), the numeric order (2, 9, 10) and
    the ``skey`` order (10, 2, 9) all differ; "step" moves 1 ahead."""
    transition, utility = {}, {}
    for s in range(13):
        transition[(s, "spin")] = {(s + 2) % 13: 0.2, (s + 10) % 13: 0.3, (s + 9) % 13: 0.5}
        transition[(s, "step")] = {(s + 1) % 13: 1.0}
        utility[(s, "spin")] = 0.1 * s
        utility[(s, "step")] = 1.0
    return AgentMdp(
        states=set(range(13)), actions=("step", "spin"), transition=transition,
        utility=utility, initial_state=initial,
    )


@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_same_layout_where_sort_key_row_order_and_numeric_order_differ(horizon):
    risk = StateRisk.from_aggregate({(10, 9): 0.25, (2, 9): 0.5, (9, 10): 0.125})
    instance = MccSspInstance(
        agents={"a": _wheel(0), "b": _wheel(0)},
        interactions=(
            InteractionPoint(0, ("a", "b"), (True, True), {"j": risk}),
            InteractionPoint(1, ("b",), (False,)),
        ),
        horizon=horizon,
        risk_budgets={"j": 0.5},
    )
    _assert_same_layout(instance)


@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_same_layout_on_simulated_steps(small_scenario, monkeypatch, horizon):
    instances = []

    def recording_solve(instance, *args, **kwargs):
        instances.append(instance)
        return solve_instance(instance, *args, **kwargs)

    monkeypatch.setattr(intersection, "solve_instance", recording_solve)
    # the shared scenario fixture gets its HV share back after the test
    monkeypatch.setattr(small_scenario.config, "hv_fraction", small_scenario.config.hv_fraction)
    for hv in (0.0, 0.3):
        small_scenario.config.hv_fraction = hv
        intersection.simulate(small_scenario, "mccssp", 12, seed=4, horizon=horizon, delta=0.05)
    assert len(instances) >= 20
    for instance in instances:
        _assert_same_layout(instance)
