"""The path model is assembled from the agents' own rows and one joint
schedule per combination of member paths; each piece must equal the plain
construction it replaces, to the last bit."""

import numpy as np
import pytest
from scipy import sparse

from mccssp import intersection
from mccssp.ilp import (
    BudgetExhausted,
    MatrixForm,
    _occupancy_columns,
    build_ilp,
    build_path_model,
    solve,
    solve_instance,
)
from mccssp.model import reachable_layers, validate_instance
from mccssp.risk import evaluate_table, execution_risk
from mccssp.selftest import random_instance, random_path_instance


class _Table:
    """Open-loop assignment table: ``steps[k]`` at every state of step k."""

    def __init__(self, steps):
        self.steps = steps

    def __getitem__(self, key):
        return self.steps[key[1]]


def _explicit_steps(instance, layers_i, chosen):
    """Joint action per step: decision members take their chosen paths'
    actions, the others their only action."""
    horizon = len(layers_i.layers) - 1
    return list(zip(*(
        chosen[v][1] if v in chosen else instance.agents[v].actions[:1] * horizon
        for v in layers_i.members
    )))


def _hexed(value):
    utility, risks = value
    return utility.hex(), [r.hex() for r in risks]


def _assert_combinations_match(instance):
    layers = reachable_layers(instance)
    try:
        model = build_path_model(layers)
    except BudgetExhausted:
        return 0
    if model is None:
        return 0
    checked = 0
    for layers_i, group, values, steps in model.points:
        assert list(values) == list(steps)
        for combo, value in values.items():
            chosen = {v: model.paths[v][p] for v, p in zip(group, combo)}
            explicit = _explicit_steps(instance, layers_i, chosen)
            assert list(steps[combo]) == explicit
            expected = evaluate_table(layers_i, _Table(explicit), instance.criteria)
            assert _hexed(value) == _hexed(expected)
            checked += 1
    return checked


def _simulated_steps(scenario, monkeypatch, horizon):
    instances = []

    def recording_solve(instance, *args, **kwargs):
        instances.append(instance)
        return solve_instance(instance, *args, **kwargs)

    monkeypatch.setattr(intersection, "solve_instance", recording_solve)
    monkeypatch.setattr(scenario.config, "hv_fraction", scenario.config.hv_fraction)
    for hv in (0.0, 0.3):
        scenario.config.hv_fraction = hv
        intersection.simulate(scenario, "mccssp", 12, seed=7, horizon=horizon, delta=0.05)
    return instances


@pytest.mark.parametrize("horizon", [1, 2])
def test_combination_values_on_simulated_steps(small_scenario, monkeypatch, horizon):
    instances = _simulated_steps(small_scenario, monkeypatch, horizon)
    assert len(instances) >= 20
    assert sum(_assert_combinations_match(inst) for inst in instances) > 100


def test_combination_values_on_the_path_family():
    rng = np.random.default_rng(20_240)
    drawn = [random_path_instance(rng) for _ in range(100)]
    checked = sum(_assert_combinations_match(i) for i in drawn if not validate_instance(i))
    assert checked > 100


def test_occupancy_column_count_read_off_own_rows(small_scenario, monkeypatch):
    rng = np.random.default_rng(7)
    drawn = [random_instance(rng) for _ in range(100)]
    drawn += [random_path_instance(rng) for _ in range(100)]
    drawn += _simulated_steps(small_scenario, monkeypatch, 2)
    counted = 0
    for instance in drawn:
        if validate_instance(instance):
            continue
        layers = reachable_layers(instance)
        try:
            matrix = build_ilp(layers).matrix
        except BudgetExhausted:
            continue
        assert _occupancy_columns(layers) == matrix.n_cols
        counted += 1
    assert counted > 150


def _triplets(rng, n_rows, n_cols, nnz):
    """Triplets whose rows hold up to 40 entries, many of them repeated
    three times or more, in a shuffled order."""
    rows = rng.integers(n_rows, size=nnz)
    cols = rng.integers(n_cols, size=nnz)
    repeats = rng.integers(nnz, size=nnz // 2)
    rows = np.concatenate([rows, rows[repeats], rows[repeats[: nnz // 4]]])
    cols = np.concatenate([cols, cols[repeats], cols[repeats[: nnz // 4]]])
    vals = rng.standard_normal(len(rows)) * 10.0 ** rng.integers(-8, 3, size=len(rows))
    order = rng.permutation(len(rows))
    return rows[order].tolist(), cols[order].tolist(), vals[order].tolist()


@pytest.mark.parametrize("seed", range(20))
def test_matrix_assembly_equals_the_coordinate_form(seed):
    rng = np.random.default_rng(seed)
    n_rows, n_cols = int(rng.integers(1, 12)), int(rng.integers(1, 60))
    row_ix, col_ix, vals = _triplets(rng, n_rows, n_cols, int(rng.integers(0, 160)))
    lower = rng.standard_normal(n_rows).tolist()
    upper = (np.array(lower) + 1.0).tolist()
    objective = rng.standard_normal(n_cols).tolist()
    integrality = rng.integers(2, size=n_cols).tolist()
    matrix = MatrixForm.from_triplets(
        row_ix, col_ix, vals, lower, upper, objective, integrality, (), ()
    )
    expected = sparse.csr_matrix((vals, (row_ix, col_ix)), shape=(n_rows, n_cols))
    for name in ("data", "indices", "indptr"):
        got, want = getattr(matrix.a, name), getattr(expected, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert matrix.a.shape == expected.shape
    assert matrix.row_lower.tobytes() == np.array(lower).tobytes()
    assert matrix.row_upper.tobytes() == np.array(upper).tobytes()
    assert matrix.objective.tobytes() == np.array(objective, dtype=float).tobytes()
    assert matrix.integrality.tobytes() == np.array(integrality).tobytes()


def _assert_path_risks_are_the_policy_recursion(instance):
    layers = reachable_layers(instance)
    result = solve(layers)
    if result.decided_by != "paths" or result.policy is None:
        return 0
    for j, value in result.risks.items():
        assert value.hex() == execution_risk(instance, layers, result.policy, j).hex()
    return 1


def test_path_verdict_risks_are_the_recursion_on_its_policy(small_scenario, monkeypatch):
    rng = np.random.default_rng(20_240)
    drawn = [random_path_instance(rng) for _ in range(100)]
    drawn = [inst for inst in drawn if not validate_instance(inst)]
    drawn += _simulated_steps(small_scenario, monkeypatch, 1)
    drawn += _simulated_steps(small_scenario, monkeypatch, 2)
    assert sum(_assert_path_risks_are_the_policy_recursion(i) for i in drawn) > 50
