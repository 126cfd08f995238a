import math

import numpy as np
import pytest

from mccssp.grid import (
    GridCells,
    GridSpec,
    benchmark_rows,
    cell_is_risky,
    cell_u01,
    cell_utility,
    generate_grid_instance,
)
from mccssp.ilp import solve_instance
from mccssp.model import reachable_layers, validate_instance
from mccssp.oracles import dp_optimal_utility


def test_cell_hash_stable_and_uniform():
    values = [cell_u01(7, x, y, 1) for x in range(40) for y in range(40)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert abs(np.mean(values) - 0.5) < 0.05
    assert cell_u01(7, 3, 4, 1) == cell_u01(7, 3, 4, 1)
    assert cell_u01(7, 3, 4, 1) != cell_u01(8, 3, 4, 1)


def test_grid_cells_membership():
    cells = GridCells(10, 5)
    assert (0, 0) in cells and (9, 4) in cells
    assert (10, 0) not in cells and (-1, 2) not in cells and "x" not in cells
    assert len(cells) == 50


def test_generated_instance_validates():
    spec = GridSpec(width=50, height=50, n_agents=3, horizon=2, seed=1)
    inst = generate_grid_instance(spec)
    assert validate_instance(inst) == []
    assert len(inst.interactions) == 3  # one point per independent robot


def test_same_seed_same_instance():
    spec = GridSpec(width=80, height=80, n_agents=2, horizon=2, seed=9)
    a = generate_grid_instance(spec)
    b = generate_grid_instance(GridSpec(**{**spec.__dict__}))
    assert [ag.initial_state for ag in a.agents.values()] == [
        ag.initial_state for ag in b.agents.values()
    ]


def test_one_by_one_grid_objective():
    spec = GridSpec(
        width=1, height=1, n_agents=1, horizon=4, seed=2,
        risky_fraction=0.0, risk_budget=1.0, start_positions=[(0, 0)],
    )
    result = solve_instance(generate_grid_instance(spec))
    assert abs(result.objective - 4 * cell_utility(spec, (0, 0))) < 1e-9


def test_riskless_grid_matches_value_iteration():
    spec = GridSpec(
        width=120, height=120, n_agents=2, horizon=3, seed=3,
        risky_fraction=0.0, risk_budget=0.0, start_positions=[(30, 30), (70, 70)],
    )
    inst = generate_grid_instance(spec)
    layers = reachable_layers(inst)
    result = solve_instance(inst, layers)
    assert result.status == "optimal"
    assert abs(result.objective - dp_optimal_utility(inst, layers)) < 1e-9


def test_transition_semantics_stay():
    # a failed move leaves the robot in its own cell
    spec = GridSpec(width=9, height=9, n_agents=1, horizon=1, seed=0,
                    start_positions=[(4, 4)])
    agent = generate_grid_instance(spec).agents["r0"]
    assert agent.successors((4, 4), "north") == {(4, 5): 0.8, (4, 4): 1.0 - 0.8}
    assert agent.successors((4, 4), "west") == {(3, 4): 0.8, (4, 4): 1.0 - 0.8}
    # at the border the move is clipped to the own cell, which gets both shares
    assert agent.successors((8, 4), "east") == {(8, 4): 0.8 + (1.0 - 0.8)}


def test_boundary_moves_clip():
    spec = GridSpec(width=3, height=3, n_agents=1, horizon=1, seed=0,
                    start_positions=[(0, 0)])
    inst = generate_grid_instance(spec)
    row = inst.agents["r0"].successors((0, 0), "west")
    assert row == {(0, 0): 1.0}


def test_risky_cells_fraction_roughly_matches():
    spec = GridSpec(width=200, height=200, seed=5)
    risky = sum(
        cell_is_risky(spec, (x, y)) for x in range(100) for y in range(100)
    )
    assert 0.03 < risky / 100**2 < 0.07


def test_ambient_invariance_full_solve():
    results = {}
    for width in (100, 10_000):
        spec = GridSpec(
            width=width, height=width, n_agents=2, horizon=3, seed=5,
            risk_budget=0.15, start_positions=[(50, 50), (60, 40)],
        )
        inst = generate_grid_instance(spec)
        result = solve_instance(inst)
        results[width] = (round(result.objective, 10), round(result.risks["collision"], 10))
    assert results[100] == results[10_000]


def test_benchmark_rows_columns_and_sizes():
    rows = benchmark_rows(
        GridSpec(width=60, height=60, seed=11, risk_budget=0.3),
        agent_counts=[1, 2],
        horizons=[1, 2],
    )
    assert len(rows) == 4
    assert set(rows[0]) == {
        "n_agents", "horizon", "build_s", "solve_s", "objective", "risk", "status",
    }
    assert all(row["status"] == "optimal" for row in rows)


def test_width_height_capacity_validation():
    with pytest.raises(ValueError):
        GridSpec(width=1, height=1, n_agents=2).validate()
    with pytest.raises(ValueError, match="risk_budget"):
        GridSpec(risk_budget=1.2).validate()
    with pytest.raises(ValueError, match="risky_risk_value"):
        GridSpec(risky_risk_value=1.5).validate()


def test_benchmark_rows_records_solver_failure_and_goes_on(highs_stops_without_incumbent):
    # HiGHS stops without an incumbent, and at h=3 the default all-east
    # policy exceeds the 0.1 budget, so solve raises SolverFailure there
    spec = GridSpec(width=50, height=50, seed=54, risky_fraction=0.3,
                    risky_risk_value=0.3, risk_budget=0.1)
    rows = benchmark_rows(spec, agent_counts=[1], horizons=[3, 1])
    assert [row["status"] for row in rows] == ["solver_failure", "optimal"]
    failed = rows[0]
    assert math.isnan(failed["objective"]) and math.isnan(failed["risk"])
    assert failed["solve_s"] >= 0.0
