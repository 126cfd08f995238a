import ast
import dataclasses
import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize._highspy import _core as highs

from builders import make_chain_instance, make_risky_safe_instance
from mccssp import ilp
from mccssp.grid import GridSpec, generate_grid_instance
from mccssp.ilp import (
    BudgetExhausted,
    ScipyHighsBackend,
    SolverFailure,
    build_ilp,
    build_model,
    build_path_model,
    decide,
    solve,
    solve_instance,
)
from mccssp.io import load_instance
from mccssp.model import (
    TOL,
    AgentMdp,
    InteractionPoint,
    MccSspInstance,
    StateRisk,
    agree,
    reachable_layers,
)
from mccssp.oracles import brute_force_optimal, dp_optimal_utility
from mccssp.risk import execution_risk, expected_utility, linear_risk_from_flows, policy_flows


def test_variable_counts_match_closed_form(risky_safe):
    model = build_ilp(reachable_layers(risky_safe))
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
    with pytest.raises(BudgetExhausted, match="'j': 0.2"):
        build_ilp(reachable_layers(inst))
    assert solve_instance(inst).status == "budget_exhausted"


def test_initial_risk_within_tol_of_the_budget_leaves_it_open():
    # 0.1 + 0.2 is 0.30000000000000004 in floating point: within TOL of the
    # 0.3 budget, as the oracle and the budget checks judge it
    agent = AgentMdp(
        states={"hot", "cold"},
        actions=("a",),
        transition={("hot", "a"): {"cold": 1.0}, ("cold", "a"): {"cold": 1.0}},
        utility={("hot", "a"): 1.0, ("cold", "a"): 0.0},
        initial_state="hot",
    )
    points = tuple(
        InteractionPoint(n, (v,), (True,), {"j": StateRisk.from_aggregate({("hot",): r})})
        for n, (v, r) in enumerate((("v", 0.1), ("w", 0.2)))
    )
    inst = MccSspInstance({"v": agent, "w": agent}, points, 1, {"j": 0.3})
    layers = reachable_layers(inst)
    result = solve(layers)
    assert (result.status, result.risks["j"]) == ("optimal", 0.1 + 0.2)
    oracle = brute_force_optimal(layers)
    assert (oracle.status, oracle.objective) == ("optimal", result.objective)


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
    result = solve(layers)
    assert abs(result.objective - dp_optimal_utility(inst, layers)) < 1e-9


def test_linear_form_identity_at_optimum():
    inst = make_risky_safe_instance(delta=0.3, horizon=2)
    layers = reachable_layers(inst)
    result = solve(layers)
    # only the occupancy MIP returns flows; any other verdict is checked on
    # the policy's own occupancies
    flows = result.flows or {
        j: policy_flows(layers, result.policy, j) for j in inst.criteria
    }
    for j in inst.criteria:
        linear = linear_risk_from_flows(layers, flows[j], j)
        recursion = execution_risk(inst, layers, result.policy, j)
        assert abs(linear - recursion) < 1e-9


def _shared_agent_instance():
    """Agent "s" belongs to both interaction points."""
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
    return MccSspInstance({"s": shared, "u": other}, points, 1, {"j": 1.0})


def test_consistency_variables_for_shared_agents():
    inst = _shared_agent_instance()
    model = build_ilp(reachable_layers(inst))
    cons_rows = [r for r in model.matrix.rows if r[0].startswith("cons_")]
    y_cols = [n for n in model.matrix.col_names if n.startswith("y_")]
    assert len(y_cols) == 2  # one selector per shared-agent action
    assert len(cons_rows) == 4  # two interactions x two actions


def _certified(instance):
    """Solve and brute-force one instance; the two must agree."""
    layers = reachable_layers(instance)
    result = solve(layers)
    oracle = brute_force_optimal(layers)
    assert result.status == oracle.status
    if oracle.status == "optimal":
        assert abs(result.objective - oracle.objective) < 1e-6
        for j, risk in result.risks.items():
            assert risk <= instance.risk_budgets[j]
    return result, layers


def test_certificate_decides_riskless_grid_cell():
    inst = generate_grid_instance(GridSpec(seed=13, n_agents=2, horizon=2))
    result, layers = _certified(inst)
    assert result.decided_by == "dp"
    assert abs(result.objective - dp_optimal_utility(inst, layers)) < 1e-9


def test_dp_and_budget_verdicts_build_no_model(monkeypatch):
    # the grid-scale latency cell: seed 13, 2 agents at h=5, with the
    # starts grid.benchmark_rows draws
    base = GridSpec(width=10_000, height=10_000, seed=13, risk_budget=0.2)
    rng = np.random.default_rng(base.seed)
    starts = [(int(rng.integers(base.width)), int(rng.integers(base.height))) for _ in range(2)]
    cell = generate_grid_instance(
        GridSpec(**{**base.__dict__, "n_agents": 2, "horizon": 5, "start_positions": starts})
    )

    def built(*args, **kwargs):
        raise AssertionError("a model was built")

    for name in ("build_model", "build_ilp", "build_path_model"):
        monkeypatch.setattr(ilp, name, built)
    result = solve_instance(cell)
    assert (result.status, result.decided_by) == ("optimal", "dp")
    assert result.solve_seconds > 0.0
    result = solve_instance(_exhausted_shared_agent_instance())
    assert (result.status, result.decided_by) == ("budget_exhausted", None)


# 30% risky cells of risk 0.3 under a 0.1 budget: the risk-blind optimum
# of seed 54 is over budget but a cheaper policy fits, and every policy of
# seed 28 is over budget
BINDING = dict(width=50, height=50, risky_fraction=0.3, risky_risk_value=0.3,
               risk_budget=0.1, n_agents=1, horizon=3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_chain_instance(risk=0.0),  # its risk row has no terms
        lambda: make_risky_safe_instance(delta=0.1, horizon=2),
        lambda: _shared_agent_instance(),  # consistency rows and y columns
        lambda: generate_grid_instance(GridSpec(seed=54, **BINDING)),
    ],
    ids=["riskless-chain", "risky-safe-h2", "shared-agent", "binding-grid"],
)
def test_lp_export_reads_back_into_highs(make, tmp_path):
    inst = make()
    matrix = build_ilp(reachable_layers(inst)).matrix
    path = tmp_path / "model.lp"
    path.write_text(matrix.to_lp_text())
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    assert solver.readModel(str(path)) == highs.HighsStatus.kOk
    # one name per column and row: a clash would merge them
    assert (solver.getNumCol(), solver.getNumRow(), solver.getNumNz()) == (
        matrix.n_cols, matrix.n_rows, matrix.a.nnz
    )
    assert solver.run() == highs.HighsStatus.kOk
    status, _, objective = ScipyHighsBackend().solve(matrix)
    assert status == "optimal"
    assert solver.getInfo().objective_function_value == pytest.approx(objective, abs=1e-9)


def test_certificate_leaves_binding_budget_to_the_mip():
    inst = generate_grid_instance(GridSpec(seed=54, **BINDING))
    result, layers = _certified(inst)
    assert (result.status, result.decided_by) == ("optimal", "mip")
    assert result.objective < dp_optimal_utility(inst, layers) - 1e-6


def test_certificate_proves_infeasible():
    result, _ = _certified(generate_grid_instance(GridSpec(seed=28, **BINDING)))
    assert (result.status, result.decided_by) == ("infeasible", "dp")


def test_dp_infeasible_verdict_beside_a_fitting_default_plan_is_a_solver_failure(monkeypatch):
    # the default action "safe" carries no risk, so a least risk above the
    # budget contradicts the default plan
    backward_dp = ilp.backward_dp
    monkeypatch.setattr(
        ilp, "backward_dp",
        lambda layers_i, criteria: dataclasses.replace(
            backward_dp(layers_i, criteria), least_risk=(1.0,) * len(criteria)
        ),
    )
    with pytest.raises(
        SolverFailure, match="the DP certificate answered infeasible, but the default-action"
    ):
        solve_instance(make_risky_safe_instance(delta=0.1))


def test_certificate_skips_shared_agents():
    # the shared agent is deterministic, so the path formulation decides
    result, _ = _certified(_shared_agent_instance())
    assert (result.status, result.decided_by) == ("optimal", "paths")


def test_shared_stochastic_agent_goes_to_the_occupancy_mip():
    inst = _shared_agent_instance()
    coin = dataclasses.replace(
        inst.agents["s"],
        transition={(s, a): {0: 0.5, 1: 0.5} for s in (0, 1) for a in ("x", "y")},
    )
    inst = dataclasses.replace(inst, agents={**inst.agents, "s": coin})
    assert build_path_model(reachable_layers(inst)) is None
    result, _ = _certified(inst)
    assert (result.status, result.decided_by) == ("optimal", "mip")


def test_occupancy_verdict_objective_is_its_policy_utility():
    # instance 54 of run_oracle_equivalence(200, seed=3): HiGHS's objective
    # on it was 10.391409408386297, 1e-6 above the utility of the policy it
    # returned, 10.3914084083863, which is the oracle's optimum
    inst = load_instance(str(Path(__file__).parent / "data" / "selftest_seed3_instance54.json"))
    layers = reachable_layers(inst)
    result = solve(layers)
    assert (result.status, result.decided_by) == ("optimal", "mip")
    assert result.objective == expected_utility(inst, layers, result.policy)
    assert agree(result.objective, brute_force_optimal(layers).objective)


def test_no_incumbent_with_unsafe_default_raises(highs_stops_without_incumbent):
    # the default action is the risky one: 0.2 risk against a 0.1 budget
    inst = make_risky_safe_instance(delta=0.1)
    agent = dataclasses.replace(inst.agents["v"], wait_action="risky")
    inst = dataclasses.replace(inst, agents={"v": agent})
    with pytest.raises(SolverFailure, match="time limit without an incumbent"):
        solve_instance(inst, time_limit=1.0)


def test_extracted_policy_deterministic_and_default_on_zero_flow():
    inst = make_risky_safe_instance(delta=0.1, horizon=2)
    layers = reachable_layers(inst)
    result = solve(layers)
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
    matrix = build_ilp(reachable_layers(risky_safe)).matrix
    assert matrix.n_cols == 6  # 4 continuous + 2 binary
    assert sum(matrix.integrality) == 2


def test_lp_text_export(risky_safe):
    model = build_ilp(reachable_layers(risky_safe))
    text = model.matrix.to_lp_text()
    assert text.startswith("Maximize")
    assert "Binaries" in text and "End" in text
    assert "z_i0_0" in text


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
        inst = generate_grid_instance(spec)
        model = build_ilp(reachable_layers(inst))
        shapes[width] = (model.x_count, model.z_count, model.matrix.n_rows)
    assert shapes[100] == shapes[10_000]


def _path_family(n, seed=7):
    """The first n valid draws of the selftest's path family."""
    from mccssp.model import validate_instance
    from mccssp.selftest import random_path_instance

    rng = np.random.default_rng(seed)
    drawn = []
    while len(drawn) < n:
        inst = random_path_instance(rng)
        if not validate_instance(inst):
            drawn.append(inst)
    return drawn


def test_path_model_of_the_shared_agent_instance():
    # "s" has two actions to the same successor: one path, the better one
    inst = _shared_agent_instance()
    model = build_path_model(reachable_layers(inst))
    assert model.paths == {"s": [((0, 1), ("x",))]}
    assert (model.matrix.n_cols, int(model.matrix.integrality.sum())) == (1, 1)
    result = decide(model)
    assert (result.status, result.decided_by, result.objective) == ("optimal", "paths", 1.0)
    assert result.policy.assignments == {0: {((0, 0), 0): ("x", "w")}, 1: {((0,), 0): ("x",)}}


def _exhausted_shared_agent_instance():
    """A risky initial state at the shared agent's pair point, over budget."""
    inst = _shared_agent_instance()
    point = dataclasses.replace(
        inst.interactions[0], risk={"j": StateRisk.from_aggregate({(0, 0): 0.5})}
    )
    return dataclasses.replace(
        inst, interactions=(point, inst.interactions[1]), risk_budgets={"j": 0.4}
    )


def test_path_model_keeps_the_budget_exhausted_check():
    inst = _exhausted_shared_agent_instance()
    with pytest.raises(BudgetExhausted):
        build_path_model(reachable_layers(inst))
    assert solve_instance(inst).status == "budget_exhausted"


@pytest.mark.parametrize("budget, status", [(0.3, "infeasible"), (0.5, "optimal")])
def test_constant_only_path_model_is_checked_against_the_budget(budget, status):
    # a single-action shared agent and no decision: there is no path model,
    # and the occupancy MIP weighs the risk 0.4 reached after one step
    inst = _shared_agent_instance()
    fixed = dataclasses.replace(
        inst.agents["s"], actions=("x",),
        transition={(s, "x"): {1: 1.0} for s in (0, 1)},
        utility={(s, "x"): 1.0 for s in (0, 1)},
    )
    point = dataclasses.replace(
        inst.interactions[1], risk={"j": StateRisk.from_aggregate({(1,): 0.4})}
    )
    inst = dataclasses.replace(
        inst, agents={**inst.agents, "s": fixed},
        interactions=(inst.interactions[0], point), risk_budgets={"j": budget},
    )
    assert build_path_model(reachable_layers(inst)) is None
    result, _ = _certified(inst)
    assert (result.status, result.decided_by) == (status, "mip")


def _over_budget_case(go):
    """(loose model, HiGHS's answer on it, its solve, the same columns under
    a budget the answer breaks by 10 TOL).  The shared agent "s" earns 1 for "x",
    which reaches the risky state 1 of point 1 with the probabilities
    ``go``, and 0 for "y", which stays; a coin "x" leaves the path model and
    goes to the occupancy MIP."""
    def make(budget):
        inst = _shared_agent_instance()
        s = dataclasses.replace(
            inst.agents["s"],
            transition={(n, a): go if a == "x" else {n: 1.0} for n in (0, 1) for a in "xy"},
            utility={(n, a): float(a == "x") for n in (0, 1) for a in "xy"},
        )
        point = dataclasses.replace(
            inst.interactions[1], risk={"j": StateRisk.from_aggregate({(1,): 0.4})}
        )
        return dataclasses.replace(
            inst, agents={**inst.agents, "s": s},
            interactions=(inst.interactions[0], point), risk_budgets={"j": budget},
        )

    loose = make(1.0)
    model = build_model(reachable_layers(loose))
    answer = ScipyHighsBackend().solve(model.matrix)
    result = decide(model)
    tight = make(result.risks["j"] - 10 * TOL)
    tight_model = build_model(reachable_layers(tight))
    assert tight_model.matrix.n_cols == model.matrix.n_cols
    return model, answer, result, tight_model


_GO = pytest.mark.parametrize(
    "go, decided_by", [({1: 1.0}, "paths"), ({0: 0.5, 1: 0.5}, "mip")], ids=["paths", "mip"]
)


@_GO
def test_optimal_answer_over_budget_is_a_solver_failure(go, decided_by, monkeypatch):
    _, answer, result, tight_model = _over_budget_case(go)
    assert (result.status, result.decided_by) == ("optimal", decided_by)
    monkeypatch.setattr(ScipyHighsBackend, "solve", lambda self, matrix, time_limit=None: answer)
    with pytest.raises(SolverFailure, match="violates budget 'j'"):
        decide(tight_model)


@_GO
def test_time_limited_incumbent_over_budget_is_a_solver_failure(go, decided_by, monkeypatch):
    _, (_, x, objective), _, tight_model = _over_budget_case(go)
    monkeypatch.setattr(
        ScipyHighsBackend, "solve",
        lambda self, matrix, time_limit=None: ("time_limit", x, objective),
    )
    with pytest.raises(SolverFailure, match="extracted time_limit policy violates budget 'j'"):
        decide(tight_model)


@_GO
def test_infeasible_answer_beside_a_fitting_default_plan_is_a_solver_failure(
    go, decided_by, monkeypatch
):
    # the default action of "s" is "x", the first sorted: with the budget
    # at its risk the default plan fits, so "infeasible" contradicts it
    model, _, result, _ = _over_budget_case(go)
    assert result.decided_by == decided_by
    monkeypatch.setattr(
        ScipyHighsBackend, "solve",
        lambda self, matrix, time_limit=None: ("infeasible", None, float("nan")),
    )
    with pytest.raises(SolverFailure, match="answered infeasible, but the default-action"):
        decide(model)


@_GO
def test_infeasible_answer_beside_an_unfit_default_plan_stands(go, decided_by, monkeypatch):
    _, _, _, tight_model = _over_budget_case(go)
    monkeypatch.setattr(
        ScipyHighsBackend, "solve",
        lambda self, matrix, time_limit=None: ("infeasible", None, float("nan")),
    )
    result = decide(tight_model)
    assert (result.status, result.decided_by) == ("infeasible", decided_by)


def test_path_model_needs_no_more_columns_than_the_occupancy_model():
    decided = 0
    for inst in _path_family(30):
        layers = reachable_layers(inst)
        try:
            model = build_path_model(layers)
        except BudgetExhausted:
            continue
        if model is not None:
            assert model.matrix.n_cols <= build_ilp(layers).matrix.n_cols
            decided += 1
    assert decided > 10


def test_path_model_lp_export_reads_back_into_highs(tmp_path):
    exported = 0
    for inst in _path_family(10):
        try:
            model = build_path_model(reachable_layers(inst))
        except BudgetExhausted:
            continue
        matrix = model.matrix
        path = tmp_path / f"paths{exported}.lp"
        path.write_text(matrix.to_lp_text())
        solver = highs._Highs()
        solver.setOptionValue("output_flag", False)
        assert solver.readModel(str(path)) == highs.HighsStatus.kOk
        assert (solver.getNumCol(), solver.getNumRow(), solver.getNumNz()) == (
            matrix.n_cols, matrix.n_rows, matrix.a.nnz
        )
        exported += 1
    assert exported > 3


def test_backend_turns_feasibility_jump_off_without_warning(risky_safe, highs_runs):
    matrix = build_ilp(reachable_layers(risky_safe)).matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ScipyHighsBackend().solve(matrix)[0] == "optimal"
        assert ScipyHighsBackend().solve(matrix, time_limit=2.5)[0] == "optimal"
    untimed, timed = highs_runs
    for solver in highs_runs:
        assert solver.getOptionValue("mip_heuristic_run_feasibility_jump") == (
            highs.HighsStatus.kOk, False
        )
        assert solver.getOptionValue("log_to_console")[1] is False
        assert solver.getOptionValue("presolve")[1] == "on"
        assert solver.getOptionValue("mip_rel_gap")[1] == TOL
    assert untimed.getOptionValue("time_limit")[1] == highs._Highs().getOptionValue("time_limit")[1]
    assert timed.getOptionValue("time_limit")[1] == 2.5


# every member of scipy's HiGHS binding the backend uses; ROADMAP item 2
# accepts the private module, and this pins what the backend needs of it
HIGHS_MEMBERS = {
    "HighsLp", "HighsModelStatus", "HighsStatus", "HighsVarType", "MatrixFormat", "_Highs",
    "kHighsInf",
}
HIGHS_MODEL_STATUSES = {"kInfeasible", "kModelError", "kOptimal", "kTimeLimit"}
HIGHS_SOLVER_METHODS = {
    "getInfo", "getModelStatus", "getSolution", "modelStatusToString", "passModel", "run",
    "setOptionValue",
}
HIGHS_LP_FIELDS = {
    "num_col_", "num_row_", "col_cost_", "col_lower_", "col_upper_", "row_lower_",
    "row_upper_", "integrality_",
}
HIGHS_MATRIX_FIELDS = {"num_col_", "num_row_", "format_", "start_", "index_", "value_"}


def test_backend_uses_only_the_pinned_members_of_the_highs_binding():
    tree = ast.parse(inspect.getsource(ScipyHighsBackend))
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert {n.attr for n in reads if ast.unparse(n.value) == "highs"} == HIGHS_MEMBERS
    assert {
        n.attr for n in reads if ast.unparse(n.value) == "highs.HighsModelStatus"
    } == HIGHS_MODEL_STATUSES
    assert {n.attr for n in reads if ast.unparse(n.value) == "solver"} == HIGHS_SOLVER_METHODS
    assert {n.attr for n in reads if ast.unparse(n.value) == "lp"} == HIGHS_LP_FIELDS | {"a_matrix_"}
    assert {n.attr for n in reads if ast.unparse(n.value) == "lp.a_matrix_"} == HIGHS_MATRIX_FIELDS
    assert ilp.highs is highs
    for name in HIGHS_MEMBERS:
        assert hasattr(highs, name), name
    for name in HIGHS_MODEL_STATUSES:
        assert name in highs.HighsModelStatus.__members__, name
    for name in HIGHS_SOLVER_METHODS:
        assert callable(getattr(highs._Highs, name)), name
    lp = highs.HighsLp()
    for name in HIGHS_LP_FIELDS:
        assert hasattr(lp, name), name
    for name in HIGHS_MATRIX_FIELDS:
        assert hasattr(lp.a_matrix_, name), name
    assert [highs.HighsVarType(i).name for i in (0, 1)] == ["kContinuous", "kInteger"]
    assert highs.kHighsInf == float("inf")
    assert {"kOk", "kError"} <= set(highs.HighsStatus.__members__)
    assert "kColwise" in highs.MatrixFormat.__members__
    assert hasattr(highs.HighsInfo(), "objective_function_value")
    assert hasattr(highs.HighsSolution(), "col_value")


def _two_binaries(**changes):
    """max x0 + 2 x1 subject to x0 + x1 <= 1, both binary."""
    fields = dict(
        a=sparse.csr_matrix(np.ones((1, 2))),
        row_lower=np.array([-np.inf]),
        row_upper=np.array([1.0]),
        objective=np.array([1.0, 2.0]),
        integrality=np.array([1, 1]),
    )
    return ilp.MatrixForm(**{**fields, **changes})


def test_backend_answers_optimal_and_infeasible():
    status, x, objective = ScipyHighsBackend().solve(_two_binaries())
    assert (status, x.tolist(), objective) == ("optimal", [0.0, 1.0], 2.0)
    infeasible = _two_binaries(row_lower=np.array([3.0]), row_upper=np.array([4.0]))
    status, x, objective = ScipyHighsBackend().solve(infeasible)
    assert (status, x) == ("infeasible", None) and np.isnan(objective)


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(objective=np.array([np.nan, 2.0])), "non-finite objective"),
        (dict(objective=np.array([1.0, -np.inf])), "non-finite objective"),
        (dict(a=sparse.csr_matrix(np.array([[np.inf, 1.0]]))), "matrix coefficient"),
        (dict(a=sparse.csr_matrix(np.array([[1.0, np.nan]]))), "matrix coefficient"),
        (dict(row_lower=np.array([np.nan])), "NaN row bound"),
        (dict(row_upper=np.array([np.nan])), "NaN row bound"),
    ],
)
def test_backend_rejects_non_finite_input_before_highs_sees_it(changes, message, highs_runs):
    with pytest.raises(SolverFailure, match=message):
        ScipyHighsBackend().solve(_two_binaries(**changes))
    assert highs_runs == []


@pytest.mark.parametrize(
    "changes",
    [
        dict(row_lower=np.array([np.inf]), row_upper=np.array([np.inf])),
        dict(a=sparse.csr_matrix(np.array([[1e300, 1.0]]))),
    ],
    ids=["infinite-row-lower-bound", "huge-coefficient"],
)
def test_model_highs_rejects_is_a_solver_failure_not_infeasible(changes):
    # scipy.optimize.milp reported these HiGHS model errors as infeasible
    with pytest.raises(SolverFailure, match="HiGHS: Model error"):
        ScipyHighsBackend().solve(_two_binaries(**changes))


def test_time_out_with_an_incumbent_returns_it(monkeypatch):
    class TimedOut(highs._Highs):
        def getModelStatus(self):
            return highs.HighsModelStatus.kTimeLimit

    monkeypatch.setattr(highs, "_Highs", TimedOut)
    status, x, objective = ScipyHighsBackend().solve(_two_binaries(), time_limit=1.0)
    assert (status, x.tolist(), objective) == ("time_limit", [0.0, 1.0], 2.0)


def test_other_highs_status_is_a_solver_failure(monkeypatch):
    class Interrupted(highs._Highs):
        def getModelStatus(self):
            return highs.HighsModelStatus.kInterrupt

    monkeypatch.setattr(highs, "_Highs", Interrupted)
    with pytest.raises(SolverFailure, match="HiGHS: Interrupted"):
        ScipyHighsBackend().solve(_two_binaries())


def test_agent_beside_a_branching_agent_is_left_to_the_occupancy_mip():
    # "a" shares its only point with "h", whose state branches; waiting a
    # step and going only if "h" stayed at h0 beats every open-loop path
    a = AgentMdp(
        states={0, 1},
        actions=("go", "wait"),
        transition={(0, "go"): {1: 1.0}, (0, "wait"): {0: 1.0},
                    (1, "go"): {1: 1.0}, (1, "wait"): {1: 1.0}},
        utility={(0, "go"): 1.0, (0, "wait"): 0.0, (1, "go"): 0.0, (1, "wait"): 0.0},
        initial_state=0,
        wait_action="wait",
    )
    h = AgentMdp(
        states={"h0", "h1"},
        actions=("hv",),
        transition={("h0", "hv"): {"h0": 0.5, "h1": 0.5}, ("h1", "hv"): {"h1": 1.0}},
        utility={("h0", "hv"): 0.0, ("h1", "hv"): 0.0},
        initial_state="h0",
    )
    points = (
        InteractionPoint(
            0, ("a", "h"), (True, True), {"j": StateRisk.from_aggregate({(1, "h1"): 1.0})}
        ),
        InteractionPoint(1, ("h",), (False,), {}),
    )
    inst = MccSspInstance({"a": a, "h": h}, points, 2, {"j": 0.3})
    assert build_path_model(reachable_layers(inst)) is None
    result, _ = _certified(inst)
    assert (result.status, result.decided_by) == ("optimal", "mip")
    assert result.objective == pytest.approx(0.5)
