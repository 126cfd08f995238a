import itertools
import json
import re

import numpy as np
import pytest

from builders import make_coinflip_pair_instance
from mccssp.cli import main
from mccssp.grid import GridSpec, generate_grid_instance
from mccssp.io import (
    instance_from_json,
    instance_to_json,
    load_instance,
    load_trajectory_csv,
    save_instance,
)
from mccssp.model import (
    InstanceError,
    InteractionPoint,
    MccSspInstance,
    StateRisk,
    reachable_layers,
    validate_instance,
)
from mccssp.ilp import solve_instance
from mccssp.selftest import random_instance


def test_roundtrip_preserves_solution(tmp_path, risky_safe):
    path = str(tmp_path / "instance.json")
    save_instance(risky_safe, path)
    clone = load_instance(path)
    assert validate_instance(clone) == []
    assert instance_to_json(clone) == instance_to_json(risky_safe)
    assert abs(solve_instance(clone).objective - solve_instance(risky_safe).objective) < 1e-9


def test_tuple_states_roundtrip():
    inst = generate_grid_instance(
        GridSpec(width=4, height=4, n_agents=1, horizon=2, seed=1, start_positions=[(1, 1)])
    )
    # grid instances use callables; re-expressing as tables makes them serializable
    with pytest.raises(InstanceError):
        instance_to_json(inst)


def test_pairwise_risk_roundtrip():
    inst = make_coinflip_pair_instance()
    members = ("a", "b")
    state_sets = [inst.agents[v].states for v in members]
    spec = StateRisk.from_pairwise({members: {("a1", "b1"): 0.25}}, members, state_sets)
    point = InteractionPoint(0, members, (True, True), {"j": spec})
    inst2 = MccSspInstance(inst.agents, (point,), 1, {"j": 0.5})
    text = instance_to_json(inst2)
    assert '"pairwise"' not in text
    clone = instance_from_json(text).interactions[0]
    for joint in itertools.product(*(sorted(states) for states in state_sets)):
        expected = 1.0 - (1.0 - 0.25) if joint == ("a1", "b1") else 0.0
        assert clone.state_risk("j", joint) == point.state_risk("j", joint) == expected


def test_random_draws_roundtrip_state_risk_bit_for_bit(monkeypatch):
    """Every draw the 200-instance selftest at seed 20240 makes (206 of
    them), through the JSON writer and reader: each layer state's risk is
    the same float."""
    pairwise_calls = []
    expand = StateRisk.from_pairwise

    def counting(*args):
        pairwise_calls.append(args)
        return expand(*args)

    monkeypatch.setattr(StateRisk, "from_pairwise", counting)
    rng = np.random.default_rng(20240)
    for _ in range(206):
        instance = random_instance(rng)
        clone = instance_from_json(instance_to_json(instance))
        for layers in reachable_layers(instance):
            point, copy = layers.point, clone.interaction(layers.id)
            for criterion in instance.criteria:
                for layer in layers.layers:
                    for joint in layer:
                        assert (
                            copy.state_risk(criterion, joint).hex()
                            == point.state_risk(criterion, joint).hex()
                        )
    assert len(pairwise_calls) > 50


def _coin_json(name):
    return {
        "states": [f"{name}0", f"{name}1"],
        "actions": ["flip"],
        "initial_state": f"{name}0",
        "wait_action": None,
        "transition": [
            [f"{name}{i}", "flip", [[f"{name}0", 0.5], [f"{name}1", 0.5]]] for i in (0, 1)
        ],
        "utility": [[f"{name}{i}", "flip", 1.0 - i] for i in (0, 1)],
    }


def _three_member_pairwise_json(p_ab=0.3, second=("b", "c")):
    """Three coins in one point, its risk given as two pairwise tables."""
    return json.dumps(
        {
            "format_version": 1,
            "horizon": 2,
            "risk_budgets": {"col": 1.0},
            "agents": {v: _coin_json(v) for v in "abc"},
            "interactions": [
                {
                    "id": 0,
                    "members": ["a", "b", "c"],
                    "utility_owners": [True, True, True],
                    "risk": {"col": {"pairwise": [
                        ["a", "b", [["a0", "b1", p_ab], ["a1", "b1", 0.1]]],
                        [*second, [["b1", "c0", 0.45], ["b1", "c1", 0.7]]],
                    ]}},
                }
            ],
        }
    )


def test_pairwise_block_loads_to_one_minus_product_in_file_order():
    text = _three_member_pairwise_json()
    pairs = json.loads(text)["interactions"][0]["risk"]["col"]["pairwise"]
    point = instance_from_json(text).interactions[0]
    members = ("a", "b", "c")
    for joint in itertools.product(*((f"{v}0", f"{v}1") for v in members)):
        survival = 1.0
        for v, w, rows in pairs:
            table = {(sv, sw): p for sv, sw, p in rows}
            survival *= 1.0 - table.get((joint[members.index(v)], joint[members.index(w)]), 0.0)
        assert point.state_risk("col", joint).hex() == (1.0 - survival).hex()
    assert point.state_risk("col", ("a0", "b1", "c1")) > 0.7


def test_pairwise_block_with_a_bad_pair_is_rejected_at_load():
    with pytest.raises(InstanceError, match="outside"):
        instance_from_json(_three_member_pairwise_json(p_ab=1.5))
    with pytest.raises(InstanceError, match="non-member"):
        instance_from_json(_three_member_pairwise_json(second=("b", "d")))


def test_solve_rejects_a_pair_risk_above_one(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(_three_member_pairwise_json(p_ab=1.5))
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot load instance: ")


def test_version_mismatch_rejected(risky_safe):
    text = instance_to_json(risky_safe).replace('"format_version": 1', '"format_version": 99')
    with pytest.raises(InstanceError):
        instance_from_json(text)


def _with_field(instance, field, value):
    data = json.loads(instance_to_json(instance))
    if field == "horizon":
        data["horizon"] = value
    else:
        data["interactions"][0]["id"] = value
    return json.dumps(data)


@pytest.mark.parametrize("field, name", [("horizon", "horizon"), ("id", "interaction id")])
@pytest.mark.parametrize("value", [3.9, 3.0, True, "3"])
def test_non_integer_horizon_or_id_is_rejected_naming_the_field(risky_safe, field, name, value):
    with pytest.raises(InstanceError, match=f"{name} must be an integer, got {value!r}"):
        instance_from_json(_with_field(risky_safe, field, value))


def _with_number(instance, field, value):
    """The instance's JSON with the first entry of one numeric field set to
    ``value``; returns the text and the field's name in error messages."""
    data = json.loads(instance_to_json(instance))
    (vid, agent), = data["agents"].items()
    (j, _), = data["risk_budgets"].items()
    point = data["interactions"][0]
    if field == "budget":
        data["risk_budgets"][j] = value
        name = f"risk budget {j!r}"
    elif field == "transition":
        agent["transition"][0][2][0][1] = value
        name = f"agent {vid!r} transition probability"
    elif field == "utility":
        agent["utility"][0][2] = value
        name = f"agent {vid!r} utility"
    else:
        point["risk"][j]["aggregate"][0][1] = value
        name = f"interaction {point['id']} risk {j!r} probability"
    return json.dumps(data), name


@pytest.mark.parametrize("field", ["budget", "transition", "utility", "risk"])
@pytest.mark.parametrize("value", [True, False, "0.1", None, [0.1]])
def test_non_number_budget_probability_or_utility_is_rejected_naming_the_field(
    risky_safe, field, value
):
    text, name = _with_number(risky_safe, field, value)
    with pytest.raises(InstanceError, match=re.escape(f"{name} must be a number, got {value!r}")):
        instance_from_json(text)


@pytest.mark.parametrize("field", ["budget", "transition", "utility", "risk"])
def test_integer_budget_probability_or_utility_loads_as_a_float(risky_safe, field):
    text, _ = _with_number(risky_safe, field, 1)
    loaded = instance_from_json(text)
    (agent,) = loaded.agents.values()
    (budget,) = loaded.risk_budgets.values()
    (risk,) = loaded.interactions[0].risk.values()
    values = {
        "budget": budget,
        "transition": next(iter(next(iter(agent.transition.values())).values())),
        "utility": next(iter(agent.utility.values())),
        "risk": next(iter(risk.table.values())),
    }
    assert type(values[field]) is float and values[field] == 1.0


def test_non_number_pairwise_probability_is_rejected():
    with pytest.raises(InstanceError, match="interaction 0 risk 'col' probability must be a number"):
        instance_from_json(_three_member_pairwise_json(p_ab="0.3"))


@pytest.mark.parametrize("flag", ["no", 1, 0, None])
def test_non_boolean_owner_flag_is_rejected(risky_safe, flag):
    data = json.loads(instance_to_json(risky_safe))
    data["interactions"][0]["utility_owners"][0] = flag
    with pytest.raises(InstanceError, match=r"interaction \d+: utility_owners must be booleans"):
        instance_from_json(json.dumps(data))


def test_solve_rejects_a_fractional_horizon(tmp_path, risky_safe, capsys):
    path = tmp_path / "instance.json"
    path.write_text(_with_field(risky_safe, "horizon", 3.9))
    assert main(["solve", str(path)]) == 1
    assert "horizon must be an integer, got 3.9" in capsys.readouterr().err


def test_trajectory_csv_loader(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,x,y\n0.0,1.0,2.0\n0.5,1.5,2.5\n# comment\n1.0,2.0,3.0\n")
    points = load_trajectory_csv(str(path))
    assert points.shape == (3, 2)
    assert points[0].tolist() == [1.0, 2.0]
    empty = tmp_path / "empty.csv"
    empty.write_text("t,x,y\n")
    with pytest.raises(ValueError):
        load_trajectory_csv(str(empty))


def test_trajectory_csv_with_two_columns_is_an_error_naming_the_file(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("t,x\n0.0,1.0\n")
    with pytest.raises(ValueError, match=r"two\.csv:1: expected t,x,y"):
        load_trajectory_csv(str(path))


def test_trajectory_csv_with_a_corrupt_row_is_an_error_naming_the_line(tmp_path):
    path = tmp_path / "corrupt.csv"
    path.write_text("t,x,y\n0.0,0.0,0.0\n0.2,abc,1.0\n0.4,1.0,1.0\n")
    with pytest.raises(ValueError, match=r"corrupt\.csv:3: expected numbers t,x,y"):
        load_trajectory_csv(str(path))


def test_trajectory_csv_header_is_only_the_first_row(tmp_path):
    # a header after comments and blank lines is skipped, and every row loads
    path = tmp_path / "headed.csv"
    path.write_text("# recorded\n\ntime,x,y\n0.0,0.0,0.0\n0.2,0.5,0.0\n0.4,1.0,0.0\n")
    assert load_trajectory_csv(str(path)).tolist() == [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]
    # a second header-like row is no header
    again = tmp_path / "again.csv"
    again.write_text("t,x,y\n0.0,0.0,0.0\nt,x,y\n")
    with pytest.raises(ValueError, match=r"again\.csv:3:"):
        load_trajectory_csv(str(again))
    # nor is a first row with one number among its first three fields
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("0.0,x,y\n0.2,0.5,0.0\n")
    with pytest.raises(ValueError, match=r"mixed\.csv:1:"):
        load_trajectory_csv(str(mixed))
