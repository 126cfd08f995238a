import numpy as np
import pytest

from builders import make_chain_instance, make_risky_safe_instance
from mccssp.ilp import (
    BudgetExhausted,
    MatrixForm,
    ScipyHighsBackend,
    build_ilp,
    solve,
    solve_instance,
)
from mccssp.model import (
    AgentMdp,
    InteractionPoint,
    MccSspInstance,
    StateRisk,
    reachable_layers,
)
from mccssp.oracles import dp_optimal_utility
from mccssp.risk import execution_risk, linear_risk_from_flows


def test_variable_counts_match_closed_form(risky_safe):
    model = build_ilp(risky_safe)
    # (|J|+1) * sum_i sum_k |layer| * |A| and the same without the flows
    assert model.x_count == 4
    assert model.z_count == 2
    names = model.matrix.col_names
    assert sum(n.startswith("x_") for n in names) == 4
    assert sum(n.startswith("z_") for n in names) == 2


def test_budget_exhausted_when_initial_risk_exceeds_budget():
    agent = AgentMdp(
        states={"hot", "cold"},
        actions=("a",),
        transition={("hot", "a"): {"cold": 1.0}, ("cold", "a"): {"cold": 1.0}},
        utility={("hot", "a"): 1.0, ("cold", "a"): 0.0},
        initial_state="hot",
    )
    point = InteractionPoint(
        0, ("v",), (True,), {"j": StateRisk.from_aggregate({("hot",): 0.2})}
    )
    inst = MccSspInstance({"v": agent}, (point,), 1, {"j": 0.1})
    with pytest.raises(BudgetExhausted):
        build_ilp(inst)
    assert solve_instance(inst).status == "budget_exhausted"


def test_solve_picks_safe_under_tight_budget():
    inst = make_risky_safe_instance(delta=0.1)
    result = solve_instance(inst)
    assert result.status == "optimal"
    assert abs(result.objective - 1.0) < 1e-6
    assert result.risks["j" if "j" in result.risks else "col"] <= 0.1 + 1e-9


def test_solve_picks_risky_under_loose_budget():
    inst = make_risky_safe_instance(delta=0.3)
    result = solve_instance(inst)
    assert abs(result.objective - 10.0) < 1e-6


def test_zero_risk_equals_value_iteration():
    inst = make_chain_instance(risk=0.0)
    layers = reachable_layers(inst)
    result = solve_instance(inst, layers)
    assert abs(result.objective - dp_optimal_utility(inst, layers)) < 1e-9


def test_linear_form_identity_at_optimum():
    inst = make_risky_safe_instance(delta=0.3, horizon=2)
    layers = reachable_layers(inst)
    result = solve_instance(inst, layers)
    for j in inst.criteria:
        linear = linear_risk_from_flows(inst, layers, result.flows[j], j)
        recursion = execution_risk(inst, layers, result.policy, j)
        assert abs(linear - recursion) < 1e-9


def test_consistency_variables_for_shared_agents():
    shared = AgentMdp(
        states={0, 1},
        actions=("x", "y"),
        transition={(s, a): {1: 1.0} for s in (0, 1) for a in ("x", "y")},
        utility={(s, a): 1.0 for s in (0, 1) for a in ("x", "y")},
        initial_state=0,
    )
    other = AgentMdp(
        states={0},
        actions=("w",),
        transition={(0, "w"): {0: 1.0}},
        utility={(0, "w"): 0.0},
        initial_state=0,
    )
    points = (
        InteractionPoint(0, ("s", "u"), (True, True), {}),
        InteractionPoint(1, ("s",), (False,), {}),
    )
    inst = MccSspInstance({"s": shared, "u": other}, points, 1, {"j": 1.0})
    model = build_ilp(inst)
    cons_rows = [r for r in model.matrix.rows if r[0].startswith("cons_")]
    y_cols = [n for n in model.matrix.col_names if n.startswith("y_")]
    assert len(y_cols) == 2  # one selector per shared-agent action
    assert len(cons_rows) == 4  # two interactions x two actions


def test_extracted_policy_deterministic_and_default_on_zero_flow():
    inst = make_risky_safe_instance(delta=0.1, horizon=2)
    layers = reachable_layers(inst)
    result = solve_instance(inst, layers)
    li = layers.per_interaction[0]
    seen = set()
    for k, s in li.decision_points():
        action = result.policy.action(0, s, k)
        assert action in li.joint_actions
        seen.add((s, k))
    # risky_end is reachable in layers but has zero flow under the safe
    # policy; it must carry the wait/default action
    assert result.policy.action(0, ("risky_end",), 1) == ("safe",)


def test_matrix_adapter_counts_and_roundtrip(risky_safe):
    matrix = build_ilp(risky_safe).matrix
    assert matrix.n_cols == 6  # 4 continuous + 2 binary
    assert sum(matrix.integrality) == 2


def test_empty_model_has_no_rows_or_columns():
    matrix = MatrixForm([], [], [], [], [], [])
    assert matrix.n_cols == 0 and matrix.n_rows == 0
    status, x, objective = ScipyHighsBackend().solve(matrix)
    assert status == "optimal" and objective == 0.0


def test_lp_text_export(risky_safe):
    model = build_ilp(risky_safe)
    text = model.matrix.to_lp_text()
    assert text.startswith("Maximize")
    assert "Binaries" in text and "End" in text
    assert "z_i0_k0_s0_a0" in text


def test_solved_risk_respects_budget_post_hoc():
    rng = np.random.default_rng(2)
    from mccssp.model import validate_instance
    from mccssp.selftest import random_instance

    checked = 0
    while checked < 10:
        inst = random_instance(rng)
        if validate_instance(inst):
            continue
        result = solve_instance(inst)
        if result.status == "optimal":
            for j in inst.criteria:
                assert result.risks[j] <= inst.risk_budgets[j] + 1e-6
        checked += 1


def test_ilp_dimensions_invariant_to_ambient_grid():
    from mccssp.grid import GridSpec, generate_grid_instance

    shapes = {}
    for width in (100, 10_000):
        spec = GridSpec(
            width=width, height=width, n_agents=2, horizon=2, seed=5,
            start_positions=[(40, 40), (60, 60)],
        )
        model = build_ilp(generate_grid_instance(spec))
        shapes[width] = (model.x_count, model.z_count, model.matrix.n_rows)
    assert shapes[100] == shapes[10_000]
