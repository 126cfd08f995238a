"""Tests of the benchmark's own checker: the independent recursions and
the tail rule.  Run with ``python3 -m pytest perfbench/tests``."""

import numpy as np
import pytest

import checks
from mccssp.model import (
    AgentMdp,
    InteractionPoint,
    MccSspInstance,
    StateRisk,
    reachable_layers,
    validate_instance,
)
from mccssp.oracles import dp_optimal_utility
from mccssp.risk import Policy, execution_risk, expected_utility
from mccssp.selftest import random_instance


def single_agent(agent, risk, horizon, budget=1.0):
    point = InteractionPoint(
        id=0, members=("v",), utility_owners=(True,),
        risk={"col": StateRisk.from_aggregate(risk)},
    )
    return MccSspInstance(
        agents={"v": agent}, interactions=(point,), horizon=horizon,
        risk_budgets={"col": budget},
    )


def constant_policy(instance, action):
    layers = reachable_layers(instance)
    return Policy({
        layers_i.id: {(s, k): (action,) for k, s in layers_i.decision_points()}
        for layers_i in layers
    })


def test_chain_risk_is_one_minus_survival():
    agent = AgentMdp(
        states={0, 1, 2, 3}, actions=("go",),
        transition={(s, "go"): {min(s + 1, 3): 1.0} for s in range(4)},
        utility={(s, "go"): 2.0 for s in range(4)}, initial_state=0,
    )
    instance = single_agent(agent, {(0,): 0.1, (1,): 0.1, (2,): 0.1}, horizon=3)
    risk = checks.policy_risk(instance, constant_policy(instance, "go"), "col")
    assert risk == pytest.approx(1.0 - 0.9**3, abs=1e-12)
    assert risk == pytest.approx(0.271, abs=1e-12)


def risky_safe():
    states = ("start", "safe_end", "risky_end")
    agent = AgentMdp(
        states=set(states), actions=("safe", "risky"),
        transition={
            **{(s, a): {s: 1.0} for s in states[1:] for a in ("safe", "risky")},
            ("start", "safe"): {"safe_end": 1.0},
            ("start", "risky"): {"risky_end": 1.0},
        },
        utility={
            **{(s, a): 0.0 for s in states[1:] for a in ("safe", "risky")},
            ("start", "safe"): 1.0,
            ("start", "risky"): 10.0,
        },
        initial_state="start", wait_action="safe",
    )
    return single_agent(agent, {("risky_end",): 0.2}, horizon=1, budget=0.1)


def test_risky_safe_known_values():
    instance = risky_safe()
    safe, risky = constant_policy(instance, "safe"), constant_policy(instance, "risky")
    assert checks.policy_risk(instance, safe, "col") == 0.0
    assert checks.policy_risk(instance, risky, "col") == pytest.approx(0.2, abs=1e-15)
    assert checks.policy_utility(instance, safe) == 1.0
    assert checks.policy_utility(instance, risky) == 10.0
    assert checks.risk_blind_optimum(instance) == 10.0


def test_recursions_agree_with_the_library_on_random_instances():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 30:
        instance = random_instance(rng)
        if validate_instance(instance):
            continue
        layers = reachable_layers(instance)
        policy = Policy({
            layers_i.id: {
                (s, k): layers_i.joint_actions[(k + len(s)) % len(layers_i.joint_actions)]
                for k, s in layers_i.decision_points()
            }
            for layers_i in layers
        })
        for j in instance.criteria:
            assert checks.policy_risk(instance, policy, j) == pytest.approx(
                execution_risk(instance, layers, policy, j), abs=1e-12
            )
        assert checks.policy_utility(instance, policy) == pytest.approx(
            expected_utility(instance, layers, policy), abs=1e-9
        )
        assert checks.risk_blind_optimum(instance) == pytest.approx(
            dp_optimal_utility(instance, layers), abs=1e-9
        )
        checked += 1


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_rule_picks_highest_percentile_with_ten_beyond(n, expected):
    assert checks.tail_percentile(n) == expected


def test_benchmark_json_names_every_metric_a_run_reports():
    import json
    import os
    import time

    import run
    import tracing

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    tracer = tracing.Tracer()
    start = time.perf_counter_ns()
    tracer.span("ilp.solve", lambda: None)()
    layer = tracing.layer_metrics(tracer, start, time.perf_counter_ns())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layer.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_a_check_that_raises_is_a_failed_check():
    import workloads

    run = workloads.Run(seed=1, patches=None)
    run.check(lambda: {}[("state", 0)])
    assert run.problems == ["check raised KeyError: ('state', 0)"]
    assert run.failed == 0


@pytest.mark.parametrize("delta", [0.0, 0.001, 0.01, 0.1, 0.3])
@pytest.mark.parametrize("steps", [1, 77, 150, 480])
def test_collision_limit_is_the_99_percent_binomial_point(delta, steps):
    from scipy.stats import binom

    assert checks.collision_limit(delta, steps) == int(binom.ppf(0.99, steps, delta))


def test_one_collision_in_77_steps_is_within_a_risk_of_a_thousandth():
    assert checks.collision_limit(0.001, 77) == 1
