"""Seeded random small instances and the oracle-equivalence suite.

Two generators draw instances small enough for exhaustive policy
enumeration (sparse successor sets keep the reachable layers narrow):
``random_instance``, the general family, and ``random_path_instance``,
whose decision agents are deterministic and shared, so the path
formulation decides them.  The runner draws from ``random_instance``
(the acceptance suite swaps in ``random_path_instance``) and checks, per
instance, that the exact solver and the brute-force oracle agree on
feasibility and optimal objective, that the returned policy respects
every budget, and that the linear risk expression matches the recursion
at the solution, each up to ``model.TOL`` (``agree`` and ``within``).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .ilp import solve_instance
from .model import (
    AgentMdp,
    InteractionPoint,
    MccSspInstance,
    StateRisk,
    agree,
    assign_utility_owners,
    reachable_layers,
    validate_instance,
    within,
)
from .oracles import CapExceeded, brute_force_optimal
from .risk import execution_risk, linear_risk_from_flows, policy_flows

log = logging.getLogger(__name__)


def _random_agent(rng: np.random.Generator, n_states: int, n_actions: int) -> AgentMdp:
    states = list(range(n_states))
    actions = tuple(f"a{n}" for n in range(n_actions))
    transition = {}
    utility = {}
    for s in states:
        for a in actions:
            support = rng.choice(n_states, size=min(n_states, rng.integers(1, 3)), replace=False)
            weights = rng.random(len(support)) + 0.1
            weights /= weights.sum()
            transition[(s, a)] = {int(t): float(w) for t, w in zip(support, weights)}
            utility[(s, a)] = float(round(rng.random() * 5.0, 3))
    return AgentMdp(
        states=set(states),
        actions=actions,
        transition=transition,
        utility=utility,
        initial_state=int(rng.integers(n_states)),
    )


def _random_risk(
    rng: np.random.Generator,
    members: tuple,
    agents: dict,
    criteria: tuple,
) -> dict:
    """Risk tables over the full joint state space, drawn per joint state
    or, for some two-member points, per member pair."""
    import itertools

    risk = {}
    state_sets = [sorted(agents[v].states) for v in members]
    for j in criteria:
        if len(members) == 2 and rng.random() < 0.5:
            table = {}
            for sv in state_sets[0]:
                for sw in state_sets[1]:
                    if rng.random() < 0.3:
                        table[(sv, sw)] = float(round(rng.random() * 0.35, 4))
            risk[j] = StateRisk.from_pairwise(
                {(members[0], members[1]): table}, members, state_sets
            )
        else:
            table = {}
            for joint in itertools.product(*state_sets):
                if rng.random() < 0.3:
                    table[joint] = float(round(rng.random() * 0.35, 4))
            risk[j] = StateRisk.from_aggregate(table)
    return risk


def random_instance(rng: np.random.Generator) -> MccSspInstance:
    """One random instance within the small-instance envelope: one or two
    interactions of one or two members, agents of 2-4 states and 1-3
    actions (2-3 states and 1-2 actions in two-member interactions), and
    horizon 1-3."""
    n_interactions = int(rng.integers(1, 3))
    share = n_interactions == 2 and rng.random() < 0.4

    agents = {}

    def new_agent(name, in_pair=False):
        # joint spaces of two-member interactions grow multiplicatively, so
        # keep those members smaller to stay inside the enumeration cap
        n_states = int(rng.integers(2, 4 if in_pair else 5))
        n_actions = int(rng.integers(1, 3 if in_pair else 4))
        agents[name] = _random_agent(rng, n_states, n_actions)

    members_per_point = []
    counter = 0
    shared_name = None
    for i in range(n_interactions):
        n_members = int(rng.integers(1, 3))
        members = []
        if share and shared_name is None and i == 0:
            shared_name = f"v{counter}"
            counter += 1
            new_agent(shared_name, in_pair=True)
            members.append(shared_name)
        elif share and i == 1:
            members.append(shared_name)
        while len(members) < n_members:
            name = f"v{counter}"
            counter += 1
            new_agent(name, in_pair=n_members > 1)
            members.append(name)
        members_per_point.append(tuple(members))

    # at least one controllable agent keeps the problem non-trivial
    if all(len(agents[v].actions) == 1 for v in agents):
        first = next(iter(agents))
        agents[first] = _random_agent(rng, len(list(agents[first].states)), 2)

    n_criteria = 1 if rng.random() < 0.8 else 2
    criteria = tuple(f"j{n}" for n in range(n_criteria))
    owner_flags = assign_utility_owners(members_per_point)
    points = []
    for i, members in enumerate(members_per_point):
        points.append(
            InteractionPoint(
                id=i,
                members=members,
                utility_owners=owner_flags[i],
                risk=_random_risk(rng, members, agents, criteria),
            )
        )
    budgets = {j: float(round(rng.random() * 0.5, 4)) for j in criteria}
    horizon = int(rng.integers(1, 4))
    return MccSspInstance(
        agents=agents,
        interactions=tuple(points),
        horizon=horizon,
        risk_budgets=budgets,
    )


def _deterministic_agent(rng: np.random.Generator, n_states: int, n_actions: int) -> AgentMdp:
    states = list(range(n_states))
    actions = tuple(f"a{n}" for n in range(n_actions))
    transition = {(s, a): {int(rng.integers(n_states)): 1.0} for s in states for a in actions}
    utility = {(s, a): float(round(rng.random() * 5.0, 3)) for s in states for a in actions}
    return AgentMdp(
        states=set(states),
        actions=actions,
        transition=transition,
        utility=utility,
        initial_state=int(rng.integers(n_states)),
    )


def random_path_instance(rng: np.random.Generator) -> MccSspInstance:
    """One random instance of the path family: 2-3 deterministic agents
    with 2-3 states and 2-3 actions, sometimes one single-action agent
    whose transitions branch, one or two interactions of 2-3 members, a
    singleton interaction for every decision agent that would otherwise
    belong to only one interaction, or to none, and horizon 1-3."""
    agents = {
        f"v{n}": _deterministic_agent(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        for n in range(int(rng.integers(2, 4)))
    }
    if rng.random() < 0.5:
        agents["h"] = _random_agent(rng, 2, 1)
    names = list(agents)
    members_per_point = []
    for _ in range(int(rng.integers(1, 3))):
        size = int(rng.integers(2, min(3, len(names)) + 1))
        picked = sorted(rng.choice(len(names), size=size, replace=False))
        members_per_point.append(tuple(names[n] for n in picked))
    for v in names:
        n = sum(v in members for members in members_per_point)
        if n == 0 or (n == 1 and len(agents[v].actions) > 1):
            members_per_point.append((v,))

    n_criteria = 1 if rng.random() < 0.8 else 2
    criteria = tuple(f"j{n}" for n in range(n_criteria))
    owner_flags = assign_utility_owners(members_per_point)
    points = tuple(
        InteractionPoint(
            id=i,
            members=members,
            utility_owners=owner_flags[i],
            risk=_random_risk(rng, members, agents, criteria),
        )
        for i, members in enumerate(members_per_point)
    )
    return MccSspInstance(
        agents=agents,
        interactions=points,
        horizon=int(rng.integers(1, 4)),
        risk_budgets={j: float(round(rng.random() * 0.5, 4)) for j in criteria},
    )


@dataclass
class EquivalenceReport:
    instances: int = 0
    solved: int = 0
    infeasible: int = 0
    budget_exhausted: int = 0
    dp_decided: int = 0  # optimal or infeasible by the backward-DP certificate
    paths_decided: int = 0  # optimal or infeasible by the path formulation
    resampled: int = 0
    max_objective_gap: float = 0.0
    max_budget_excess: float = 0.0
    max_linear_form_gap: float = 0.0
    seconds: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_instance(instance: MccSspInstance, cap: int, report: EquivalenceReport) -> None:
    """Cross-check the solver against the brute-force oracle on one instance."""
    layers = reachable_layers(instance)
    result = solve_instance(instance, layers)
    oracle = brute_force_optimal(instance, layers, cap=cap)
    if result.decided_by == "dp":
        report.dp_decided += 1
    elif result.decided_by == "paths":
        report.paths_decided += 1

    if result.status == "budget_exhausted":
        report.budget_exhausted += 1
        if oracle.status != "infeasible":
            report.failures.append(
                f"budget exhausted but oracle found objective {oracle.objective}"
            )
        return
    if result.status == "infeasible":
        report.infeasible += 1
        if oracle.status != "infeasible":
            report.failures.append(
                f"solver infeasible but oracle found objective {oracle.objective}"
            )
        return
    if result.status != "optimal":
        report.failures.append(f"unexpected solver status {result.status}")
        return
    if oracle.status != "optimal":
        report.failures.append(
            f"solver objective {result.objective} but oracle infeasible"
        )
        return

    report.solved += 1
    gap = abs(result.objective - oracle.objective)
    report.max_objective_gap = max(report.max_objective_gap, gap)
    if not agree(result.objective, oracle.objective):
        report.failures.append(
            f"objective mismatch: solver {result.objective!r} vs oracle {oracle.objective!r}"
        )
    # only the occupancy MIP returns flows; check any other verdict on the
    # policy's own occupancies
    flows = result.flows or {
        j: policy_flows(instance, layers, result.policy, j) for j in instance.criteria
    }
    for j in instance.criteria:
        risk = execution_risk(instance, layers, result.policy, j)
        excess = risk - instance.risk_budgets[j]
        report.max_budget_excess = max(report.max_budget_excess, excess)
        if not within(risk, instance.risk_budgets[j]):
            report.failures.append(
                f"policy risk {risk!r} exceeds budget {instance.risk_budgets[j]!r} ({j})"
            )
        # linear expression at the solver's flows vs the recursion
        linear = linear_risk_from_flows(instance, layers, flows[j], j)
        lgap = abs(linear - risk)
        report.max_linear_form_gap = max(report.max_linear_form_gap, lgap)
        if not agree(linear, risk):
            report.failures.append(
                f"linear form {linear!r} vs recursion {risk!r} at solved flows ({j})"
            )


def run_oracle_equivalence(
    n_instances: int = 200,
    seed: int = 0,
    cap: int = 50_000,
) -> EquivalenceReport:
    """Solve seeded random instances against the oracle; resamples the rare
    draw whose policy space exceeds the enumeration cap.  Logs progress at
    INFO every 50 instances."""
    rng = np.random.default_rng(seed)
    report = EquivalenceReport()
    start = time.perf_counter()
    while report.instances < n_instances:
        instance = random_instance(rng)
        if validate_instance(instance):
            report.resampled += 1
            continue
        try:
            check_instance(instance, cap, report)
        except CapExceeded:
            report.resampled += 1
            continue
        report.instances += 1
        if report.instances % 50 == 0:
            log.info(
                "  %d/%d checked, failures: %d",
                report.instances, n_instances, len(report.failures),
            )
    report.seconds = time.perf_counter() - start
    return report
