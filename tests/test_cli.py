import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from builders import make_risky_safe_instance
from mccssp.cli import main
from mccssp.io import save_instance


@pytest.fixture
def instance_file(tmp_path):
    path = str(tmp_path / "instance.json")
    save_instance(make_risky_safe_instance(delta=0.1), path)
    return path


def test_solve_with_oracle(instance_file, capsys):
    assert main(["solve", instance_file, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "objective 1.000000, oracle agrees" in out
    # the risk-blind optimum is over budget, so HiGHS decides
    assert "decided_by mip" in out


def test_solve_prints_policy(instance_file, capsys):
    assert main(["solve", instance_file, "--policy"]) == 0
    out = capsys.readouterr().out
    assert "status optimal" in out and "policy i=0" in out


def test_missing_file_is_input_error(capsys):
    assert main(["solve", "/nonexistent.json"]) == 1


def test_solve_lp_export(instance_file, tmp_path, capsys):
    lp_path = str(tmp_path / "model.lp")
    assert main(["solve", instance_file, "--export-lp", lp_path]) == 0
    text = open(lp_path).read()
    assert text.startswith("Maximize") and text.rstrip().endswith("End")


def test_lp_export_writes_the_path_model_that_decides(tmp_path, capsys):
    from mccssp.selftest import random_path_instance

    path = str(tmp_path / "paths.json")
    save_instance(random_path_instance(np.random.default_rng(7)), path)
    lp_path = str(tmp_path / "paths.lp")
    assert main(["solve", path, "--export-lp", lp_path]) == 0
    assert "decided_by paths" in capsys.readouterr().out
    text = open(lp_path).read()
    assert " b_0_0" in text and " x_i" not in text


def test_lp_export_of_a_dp_decided_instance_is_the_occupancy_model(tmp_path, capsys):
    from builders import make_chain_instance

    path = str(tmp_path / "chain.json")
    save_instance(make_chain_instance(), path)
    lp_path = str(tmp_path / "chain.lp")
    assert main(["solve", path, "--export-lp", lp_path]) == 0
    assert "decided_by dp" in capsys.readouterr().out
    text = open(lp_path).read()
    assert " x_i0_f0_0" in text and " b_0_0" not in text


def test_saved_intersection_step_resolves_from_the_file(small_scenario, tmp_path, capsys):
    from mccssp.ilp import solve_instance
    from mccssp.intersection import VehicleState, build_intersection_instance

    vehicles = [
        VehicleState(id="v00000", kind="av", lane="E0", slot=0),
        VehicleState(id="v00001", kind="av", lane="N0", slot=0, arrival_s=1.0),
        VehicleState(id="v00002", kind="hv", lane="S0", slot=0, true_kind="straight"),
    ]
    instance, _ = build_intersection_instance(
        small_scenario, vehicles, green_side="S", horizon=2, delta=0.05
    )
    result = solve_instance(instance)
    path = str(tmp_path / "step.json")
    save_instance(instance, path)
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "decided_by paths" in out
    assert f"objective {result.objective:.6f}" in out


def test_invalid_instance_is_input_error(tmp_path, capsys):
    inst = make_risky_safe_instance()
    path = str(tmp_path / "bad.json")
    save_instance(inst, path)
    data = json.loads(open(path).read())
    data["risk_budgets"]["col"] = 2.0
    open(path, "w").write(json.dumps(data))
    assert main(["solve", path]) == 1
    assert "invalid" in capsys.readouterr().err


def test_nan_utility_in_an_instance_file_is_reported_invalid(instance_file, capsys):
    data = json.loads(open(instance_file).read())
    data["agents"]["v"]["utility"][0][2] = float("nan")
    open(instance_file, "w").write(json.dumps(data))
    assert main(["solve", instance_file]) == 1
    assert "invalid: agent 'v': utility nan at" in capsys.readouterr().err


def test_grid_bench_csv(tmp_path, capsys):
    out_file = str(tmp_path / "bench.csv")
    code = main([
        "grid-bench", "--agents", "1..2", "--horizon", "1,2",
        "--width", "64", "--height", "64", "--seed", "3", "--out", out_file,
    ])
    assert code == 0
    lines = open(out_file).read().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "n_agents,horizon,build_s,solve_s,objective,risk,status"
    assert len(lines) == 2 + 4


def test_grid_bench_reports_exhausted_budget(tmp_path):
    # seed 26 starts the only agent on a risky cell whose 0.3 exceeds the
    # 0.1 budget before any step
    out_file = str(tmp_path / "bench.csv")
    code = main([
        "grid-bench", "--agents", "1", "--horizon", "1", "--seed", "26",
        "--risky-risk", "0.3", "--delta", "0.1", "--out", out_file,
    ])
    assert code == 0
    lines = open(out_file).read().strip().splitlines()
    assert len(lines) == 3
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["n_agents"] == "1" and row["horizon"] == "1"
    assert row["status"] == "budget_exhausted"
    assert row["objective"] == "nan" and row["risk"] == "nan"


def test_intersect_sim_csv(tmp_path):
    scenario = {
        "mc_samples": 500,
        "enabled_lanes": ["N0", "E0"],
        "arrival_rate": 0.8,
    }
    spath = str(tmp_path / "scenario.json")
    open(spath, "w").write(json.dumps(scenario))
    out_file = str(tmp_path / "sim.csv")
    code = main([
        "intersect-sim", spath, "--planners", "mccssp,fcfs", "--deltas", "0.05",
        "--horizons", "1", "--replications", "2", "--duration", "8",
        "--seed", "1", "--out", out_file,
    ])
    assert code == 0
    lines = open(out_file).read().strip().splitlines()
    header = lines[1].split(",")
    assert header == ["seed", "planner", "delta", "h", "hv_fraction",
                      "throughput_vpm", "max_wait_s", "collisions",
                      "collision_rate", "mean_plan_s"]
    assert len(lines) == 2 + 4  # two planners x two replications


def test_intersect_sim_deterministic_output(tmp_path):
    scenario = {"mc_samples": 500, "enabled_lanes": ["N0", "E0"]}
    spath = str(tmp_path / "scenario.json")
    open(spath, "w").write(json.dumps(scenario))
    outs = []
    for name in ("a.csv", "b.csv"):
        out_file = str(tmp_path / name)
        main(["intersect-sim", spath, "--planners", "fcfs", "--deltas", "0.05",
              "--horizons", "1", "--replications", "2", "--duration", "6",
              "--seed", "7", "--out", out_file])
        rows = open(out_file).read().splitlines()[1:]
        outs.append([",".join(r.split(",")[:-1]) for r in rows])  # drop timing column
    assert outs[0] == outs[1]


def test_intersect_sim_with_two_workers_writes_the_one_worker_csv(tmp_path):
    scenario = {"mc_samples": 500, "enabled_lanes": ["N0", "E0"]}
    spath = str(tmp_path / "scenario.json")
    open(spath, "w").write(json.dumps(scenario))
    outs = []
    for jobs in ("1", "2"):
        out_file = str(tmp_path / f"jobs{jobs}.csv")
        assert main(["intersect-sim", spath, "--planners", "mccssp,fcfs", "--deltas", "0.05",
                     "--horizons", "1,2", "--hv-fractions", "0.3",
                     "--replications", "1", "--duration", "6",
                     "--seed", "2", "--jobs", jobs, "--out", out_file]) == 0
        rows = open(out_file).read().splitlines()[1:]  # drop the header comment
        outs.append([",".join(r.split(",")[:-1]) for r in rows])  # drop mean_plan_s
    assert len(outs[0]) == 1 + 4
    assert outs[1] == outs[0]


def test_a_serial_run_samples_its_tables_on_one_scenario(tmp_path, monkeypatch):
    # every job shares one scenario, and so its pair tables; each row is
    # still the row of the same job on a fresh scenario
    from mccssp import intersection

    Scenario, built = intersection.Scenario, []

    class CountedScenario(Scenario):
        def __init__(self, config):
            built.append(config)
            super().__init__(config)

    monkeypatch.setattr(intersection, "Scenario", CountedScenario)
    overrides = {"mc_samples": 300, "enabled_lanes": ["N0", "E0", "W1"]}
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(overrides))
    out_file = tmp_path / "sim.csv"
    assert main(["intersect-sim", str(spath), "--planners", "mccssp,fcfs", "--deltas", "0.05",
                 "--hv-fractions", "0.3,0.0", "--replications", "1", "--duration", "6",
                 "--seed", "4", "--out", str(out_file)]) == 0
    assert len(built) == 1
    lines = out_file.read_text().splitlines()[1:]
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [(r["planner"], r["hv_fraction"]) for r in rows] == [
        ("mccssp", "0.3"), ("mccssp", "0.0"), ("fcfs", "0.3"), ("fcfs", "0.0"),
    ]
    for row in rows:
        config = intersection.ScenarioConfig(**overrides, hv_fraction=float(row["hv_fraction"]))
        metrics = intersection.simulate(
            Scenario(config), planner=row["planner"], duration_s=6.0,
            seed=4, horizon=1, delta=0.05,
        )
        assert row["throughput_vpm"] == str(round(metrics.throughput_vpm, 4))
        assert row["max_wait_s"] == str(round(metrics.max_wait_s, 2))
        assert row["collisions"] == str(metrics.collisions)


def test_bad_scenario_field_is_input_error(tmp_path, capsys):
    spath = str(tmp_path / "scenario.json")
    open(spath, "w").write(json.dumps({"bogus_field": 1}))
    assert main(["intersect-sim", spath]) == 1
    open(spath, "w").write(json.dumps(5))
    assert main(["intersect-sim", spath]) == 1
    assert capsys.readouterr().err.endswith("error: scenario: expected a JSON object"
                                            " of scenario fields\n")


@pytest.mark.parametrize("key, flag", [
    ("delta", "--deltas"), ("horizon", "--horizons"), ("hv_fraction", "--hv-fractions"),
])
def test_scenario_file_may_not_set_a_run_argument(key, flag, tmp_path, monkeypatch, capsys):
    import mccssp.cli

    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps({"enabled_lanes": ["N0", "E0"], key: 1}))
    ran = []
    monkeypatch.setattr(mccssp.cli, "_sim_cell", lambda job: ran.append(job))
    assert main(["intersect-sim", str(spath), "--planners", "fcfs"]) == 1
    assert capsys.readouterr().err == f"error: scenario: {key} is set by {flag}\n"
    assert ran == []


def _tube_file(tmp_path, without=None):
    """A straight six-sample tube file, optionally with one field left out."""
    from mccssp.pft import Pft

    means = np.stack([np.arange(6) * 0.5, np.zeros(6)], axis=1)
    tube = json.loads(Pft(1 / 6, means, np.tile(0.01 * np.eye(2), (6, 1, 1))).to_json())
    tube.pop(without, None)
    path = tmp_path / "tube.json"
    path.write_text(json.dumps(tube))
    return str(path)


@pytest.mark.parametrize("command", [
    ["pft", "intent", "--observed", "unread.csv", "--pft"],
    ["pft", "risk-table", "--out", "unwritten.npz", "--pft"],
])
def test_pft_commands_report_a_malformed_tube_file(command, tmp_path, capsys):
    path = _tube_file(tmp_path, without="covariances")
    assert main([*command, path]) == 1
    assert capsys.readouterr().err == f"error: {path}: missing field 'covariances'\n"


def test_pft_intent_reports_a_short_trajectory_row(tmp_path, capsys):
    track = tmp_path / "track.csv"
    track.write_text("t,x,y\n0.0,0.0,0.0\n0.2,0.5\n")
    assert main(["pft", "intent", "--pft", _tube_file(tmp_path), "--observed", str(track)]) == 1
    assert capsys.readouterr().err == f"error: {track}:3: expected t,x,y, got '0.2,0.5'\n"


def test_pft_fit_reports_a_corrupt_trajectory_row(tmp_path, capsys):
    track = tmp_path / "track.csv"
    track.write_text("t,x,y\n0.0,0.0,0.0\n0.2,abc,1.0\n0.4,1.0,1.0\n")
    assert main(["pft", "fit", str(track), "--out-prefix", str(tmp_path / "pft_")]) == 1
    assert capsys.readouterr().err == (
        f"error: {track}:3: expected numbers t,x,y, got '0.2,abc,1.0'\n"
    )
    assert not list(tmp_path.glob("pft_*"))


def test_pft_pipeline(tmp_path, capsys):
    rng = np.random.default_rng(0)
    base = np.stack([np.linspace(0, 10, 15), np.zeros(15)], axis=1)
    shifted = base + [0.0, 30.0]
    for n in range(6):
        nominal = base if n < 3 else shifted
        noisy = nominal + rng.normal(0, 0.05, nominal.shape)
        rows = "\n".join(f"{t/6:.3f},{x:.4f},{y:.4f}" for t, (x, y) in enumerate(noisy))
        (tmp_path / f"run{n}.csv").write_text("t,x,y\n" + rows + "\n")
    prefix = str(tmp_path / "tube_")
    code = main(["pft", "fit", *(str(tmp_path / f"run{n}.csv") for n in range(6)),
                 "--cluster-threshold", "15", "--out-prefix", prefix])
    assert code == 0
    assert os.path.exists(prefix + "0.json") and os.path.exists(prefix + "1.json")
    capsys.readouterr()

    observed = str(tmp_path / "run0.csv")
    code = main(["pft", "intent", "--pft", prefix + "0.json", prefix + "1.json",
                 "--observed", observed])
    assert code == 0
    out = capsys.readouterr().out
    top = out.strip().splitlines()[0].split()
    assert float(top[1]) > 0.9

    table_path = str(tmp_path / "table.npz")
    code = main(["pft", "risk-table", "--pft", prefix + "0.json", prefix + "1.json",
                 "--out", table_path, "--samples", "300"])
    assert code == 0
    assert capsys.readouterr().out == f"0 of 1 tube pairs interact -> {table_path}\n"
    with np.load(table_path) as data:  # the two bundles run 30 m apart
        assert list(data) == ["pairs"] and data["pairs"].shape == (0, 2)


def test_risk_table_writes_the_builder_table_of_every_interacting_pair(tmp_path, capsys):
    from mccssp.pft import VehicleGeometry, pft_from_path, sample_pair_risk

    ends = {"north": [[0.0, -20.0], [0.0, 20.0]], "far": [[-20.0, 90.0], [20.0, 90.0]],
            "east": [[-20.0, 0.0], [20.0, 0.0]]}
    tubes, paths = {}, []
    for seed, (label, path) in enumerate(ends.items()):
        tubes[label] = pft_from_path(np.array(path), speed=8.0, seed=seed, label=label)
        paths.append(str(tmp_path / f"{label}.json"))
        open(paths[-1], "w").write(tubes[label].to_json())
    table_path = str(tmp_path / "table.npz")
    argv = ["pft", "risk-table", "--pft", *paths, "--out", table_path,
            "--samples", "200", "--seed", "3", "--length", "5.0", "--width", "1.8"]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"1 of 3 tube pairs interact -> {table_path}\n"
    geometry = VehicleGeometry(5.0, 1.8)
    with np.load(table_path) as data:
        assert data["pairs"].tolist() == [["east", "north"]]
        assert sorted(data) == ["matrix_0", "pairs", "table_0"]
        for key in (("east", "far"), ("far", "north")):
            assert sample_pair_risk(key, tubes[key[0]], tubes[key[1]], geometry, 200, 3) is None
        pair = sample_pair_risk(
            ("east", "north"), tubes["east"], tubes["north"], geometry, 200, 3
        )
        assert np.array_equal(data["matrix_0"], pair.matrix)
        assert np.array_equal(data["table_0"], pair.table)


def test_risk_table_without_samples_is_input_error(tmp_path, capsys):
    from mccssp.pft import Pft

    paths = []
    for label, y in (("a", 0.0), ("b", 1.0)):
        means = np.stack([np.arange(6) * 0.5, np.full(6, y)], axis=1)
        tube = Pft(1 / 6, means, np.tile(0.01 * np.eye(2), (6, 1, 1)), label=label)
        paths.append(str(tmp_path / f"{label}.json"))
        open(paths[-1], "w").write(tube.to_json())
    table_path = str(tmp_path / "table.npz")
    code = main(["pft", "risk-table", "--pft", *paths, "--out", table_path, "--samples", "0"])
    assert code == 1
    assert "need at least one sample" in capsys.readouterr().err
    assert not os.path.exists(table_path)


def test_selftest_exit_code(capsys):
    assert main(["selftest", "--instances", "10", "--quiet", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "10 instances" in out and "decided by the DP certificate" in out


def test_selftest_shows_progress_unless_quiet(monkeypatch, capsys):
    import mccssp.selftest

    monkeypatch.setattr(mccssp.selftest, "check_instance", lambda *args: None)
    assert main(["selftest", "--instances", "50", "--seed", "3"]) == 0
    assert "  50/50 checked, failures: 0\n" in capsys.readouterr().out
    assert main(["selftest", "--instances", "50", "--seed", "3", "--quiet"]) == 0
    assert "checked" not in capsys.readouterr().out


@pytest.mark.parametrize("count", ["0", "-1"])
def test_selftest_without_instances_is_input_error(count, monkeypatch, capsys):
    import mccssp.selftest

    monkeypatch.setattr(
        mccssp.selftest, "run_oracle_equivalence", lambda *a, **k: pytest.fail("a check ran")
    )
    assert main(["selftest", "--instances", count, "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: --instances must be at least 1, got {count}\n"


def test_selftest_negative_seed_is_input_error(monkeypatch, capsys):
    import mccssp.selftest

    monkeypatch.setattr(
        mccssp.selftest, "run_oracle_equivalence", lambda *a, **k: pytest.fail("a check ran")
    )
    assert main(["selftest", "--seed", "-1", "--quiet"]) == 1
    assert capsys.readouterr().err == "error: --seed must be at least 0, got -1\n"


def test_solve_oracle_objective_mismatch_is_solver_failure(instance_file, monkeypatch, capsys):
    import mccssp.oracles

    # the solver's optimum is 1.0; an oracle reporting 2.0 must fail the run
    monkeypatch.setattr(
        mccssp.oracles, "brute_force_optimal",
        lambda *args, **kwargs: SimpleNamespace(status="optimal", objective=2.0),
    )
    assert main(["solve", instance_file, "--oracle"]) == 2
    assert "ORACLE MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["--planners", "bogus"],
        ["--planners", "mccssp,fcfs,bogus"],
        ["--deltas", "1.5"],
        ["--deltas", "0.1,abc"],
        ["--horizons", "0"],
        ["--horizons", "2..1"],
        ["--hv-fractions", "-0.1"],
        ["--duration", "0"],
        ["--replications", "0"],
        ["--replications", "-2"],
        ["--jobs", "0"],
        ["--seed", "-1"],
    ],
)
def test_intersect_sim_bad_arguments_are_input_errors(argv, monkeypatch, capsys):
    import mccssp.cli

    # checked before any job runs, so no scenario or table is built
    monkeypatch.setattr(mccssp.cli, "_sim_cell", lambda job: pytest.fail("a job ran"))
    assert main(["intersect-sim", "--replications", "1", *argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["--agents", "4..1"],
        ["--agents", "0"],
        ["--horizon", "1,x"],
        ["--delta", "1.5"],
        ["--risky-risk", "-0.2"],
        ["--width", "-5", "--height", "-5"],
        ["--seed", "-1"],
    ],
)
def test_grid_bench_bad_arguments_are_input_errors(argv, monkeypatch, capsys):
    import mccssp.grid

    monkeypatch.setattr(mccssp.grid, "benchmark_rows", lambda *a, **k: pytest.fail("a sweep ran"))
    assert main(["grid-bench", "--width", "64", "--height", "64", *argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_grid_bench_solver_failure_writes_every_row_then_exits_2(tmp_path, monkeypatch, capsys):
    import mccssp.grid
    from mccssp.ilp import SolverFailure

    solve = mccssp.grid.solve

    def failing_at_h2(model, **kwargs):
        if model.instance.horizon == 2:
            raise SolverFailure("stub")
        return solve(model, **kwargs)

    monkeypatch.setattr(mccssp.grid, "solve", failing_at_h2)
    out_file = str(tmp_path / "bench.csv")
    code = main([
        "grid-bench", "--agents", "1..2", "--horizon", "1..3",
        "--width", "64", "--height", "64", "--seed", "3", "--out", out_file,
    ])
    assert code == 2
    lines = open(out_file).read().strip().splitlines()
    statuses = [dict(zip(lines[1].split(","), line.split(",")))["status"] for line in lines[2:]]
    assert statuses == ["optimal", "solver_failure", "optimal"] * 2
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    {"mc_samples": 0}, {"queue_depth": 0}, {"mc_samples": "abc"}, {"dt": None},
    {"queue_depth": 1.5}, {"speeds": [8]}, {"lambdas": [1.0, 0.0]}, {"priority": "high"},
    {"noise_sd": -1}, {"lane_arrival": {"N0": "sometimes"}}, {"enabled_lanes": ["X9"]},
])
def test_intersect_sim_bad_scenario_values_are_input_errors(
    override, tmp_path, monkeypatch, capsys
):
    import mccssp.cli

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"enabled_lanes": ["N0", "E0"], **override}))
    ran = []
    monkeypatch.setattr(mccssp.cli, "_sim_cell", lambda job: ran.append(job))
    argv = ["intersect-sim", str(path), "--planners", "fcfs", "--replications", "1",
            "--duration", "5"]
    assert main(argv) == 1
    (name,) = override
    assert capsys.readouterr().err.startswith(f"error: scenario: {name} must be")
    assert ran == []



def test_intersect_sim_accepts_every_default_scenario_value(tmp_path):
    from dataclasses import asdict

    from mccssp.intersection import ScenarioConfig

    # every value but the HV share, which --hv-fractions sets
    defaults = asdict(ScenarioConfig())
    del defaults["hv_fraction"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(defaults))
    out_file = str(tmp_path / "sim.csv")
    argv = ["intersect-sim", str(path), "--planners", "fcfs", "--replications", "1",
            "--duration", "3", "--out", out_file]
    assert main(argv) == 0
    assert len(open(out_file).read().splitlines()) == 3
