import json
import os

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


def test_invalid_instance_is_input_error(tmp_path, capsys):
    inst = make_risky_safe_instance()
    path = str(tmp_path / "bad.json")
    save_instance(inst, path)
    data = json.loads(open(path).read())
    data["risk_budgets"]["col"] = 2.0
    open(path, "w").write(json.dumps(data))
    assert main(["solve", path]) == 1
    assert "invalid" in capsys.readouterr().err


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


def test_bad_scenario_field_is_input_error(tmp_path, capsys):
    spath = str(tmp_path / "scenario.json")
    open(spath, "w").write(json.dumps({"bogus_field": 1}))
    assert main(["intersect-sim", spath]) == 1


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
                 "--out", table_path, "--samples", "300", "--window", "5"])
    assert code == 0
    from mccssp.pft import RiskTable

    table = RiskTable.load(table_path)
    assert table.window == 5 and len(table.axis_sizes) == 2


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
