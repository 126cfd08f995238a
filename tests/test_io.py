import pytest

from builders import make_coinflip_pair_instance
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
    validate_instance,
)
from mccssp.ilp import solve_instance


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
    point = InteractionPoint(
        0,
        ("a", "b"),
        (True, True),
        {"j": StateRisk.from_pairwise({("a", "b"): {("a1", "b1"): 0.25}})},
    )
    inst2 = MccSspInstance(inst.agents, (point,), 1, {"j": 0.5})
    clone = instance_from_json(instance_to_json(inst2))
    spec = clone.interactions[0].risk["j"]
    assert spec.is_pairwise
    assert abs(spec.tilde(("a", "b"), ("a1", "b1")) - 0.25) < 1e-15


def test_version_mismatch_rejected(risky_safe):
    text = instance_to_json(risky_safe).replace('"format_version": 1', '"format_version": 99')
    with pytest.raises(InstanceError):
        instance_from_json(text)


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
