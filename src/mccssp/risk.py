"""Execution-risk semantics: the one evaluator of assignment tables
(forward occupancy for expected utility, backward recursion for execution
risk), survival-damped policy flows, and the equivalent linear form over
occupancy flows.

The backward recursion is the ground-truth evaluator that the ILP's linear
risk expression is checked against; both are kept here so the identity can
be tested without touching solver code.
"""

from __future__ import annotations

from typing import Mapping

from .model import (
    Criterion,
    InteractionLayers,
    LayeredSpace,
    MccSspInstance,
    skey,
)


class PolicyError(KeyError):
    """A policy has no assignment for a reachable (state, time) pair."""


class Policy:
    """Per-interaction, non-stationary action assignment.

    ``assignments[i][(state, k)]`` is either a single joint action
    (deterministic) or a dict mapping joint actions to probabilities.
    Evaluation accepts stochastic policies even though the solver only
    produces deterministic ones.
    """

    def __init__(self, assignments: Mapping):
        self.assignments = {i: dict(table) for i, table in assignments.items()}

    def action_distribution(self, interaction_id: int, state, k: int) -> dict:
        try:
            entry = self.assignments[interaction_id][(state, k)]
        except KeyError:
            raise PolicyError(
                f"policy undefined at interaction {interaction_id}, state {state!r}, k={k}"
            ) from None
        if isinstance(entry, dict):
            return entry
        return {entry: 1.0}

    def action(self, interaction_id: int, state, k: int):
        dist = self.action_distribution(interaction_id, state, k)
        return max(dist.items(), key=lambda kv: (kv[1], skey(kv[0])))[0]

    def items(self):
        return self.assignments.items()


def evaluate_table(layers_i: InteractionLayers, table: Mapping, criteria: tuple = ()):
    """Expected utility and per-criterion execution risk of one
    interaction's assignment table ``{(state, k): action | {action: prob}}``.

    A forward pass propagates occupancy under the plain transitions over
    the states the table reaches, accruing utility on every step taken.  A
    backward pass over the same states then gives er(s_h) = rt(s_h) and
    er(s_k) = rt(s_k) + (1 - rt(s_k)) * sum_a pi(a|s_k) sum_s' T(s_k, a, s')
    er(s_{k+1}).  Returns (utility, tuple of risks in ``criteria`` order).
    Unreached states need no entry; a reached one without an entry raises
    PolicyError.
    """
    root = layers_i.layers[0][0]
    edges = layers_i.edges
    utilities = layers_i.utilities
    utility = 0.0
    occ = {root: 1.0}
    steps = []  # per decision layer: (state, [(prob, successors, utility), ...])
    for k in range(len(layers_i.layers) - 1):
        nxt = {}
        step = []
        for s, mass in occ.items():
            try:
                entry = table[(s, k)]
            except KeyError:
                raise PolicyError(
                    f"policy undefined at interaction {layers_i.id}, state {s!r}, k={k}"
                ) from None
            if isinstance(entry, dict):
                moves = [
                    (prob, edges[(s, a)], utilities[(s, a)])
                    for a, prob in entry.items()
                    if prob != 0.0
                ]
            else:
                moves = ((1.0, edges[(s, entry)], utilities[(s, entry)]),)
            for prob, succs, u in moves:
                weight = mass * prob
                utility += weight * u
                for succ, p in succs:
                    nxt[succ] = nxt.get(succ, 0.0) + weight * p
            step.append((s, moves))
        steps.append(step)
        occ = nxt

    risks = []
    for j in criteria:
        rt = layers_i.state_risks(j)
        er = {s: rt[s] for s in occ}
        for step in reversed(steps):
            nxt = er
            er = {}
            for s, moves in step:
                downstream = 0.0
                for prob, succs, _ in moves:
                    expected = 0.0
                    for succ, p in succs:
                        expected += p * nxt[succ]
                    downstream += prob * expected
                r = rt[s]
                er[s] = r + (1.0 - r) * downstream
        risks.append(er[root])
    return utility, tuple(risks)


def interaction_execution_risk(
    layers_i: InteractionLayers,
    policy: Policy,
    criterion: Criterion,
) -> float:
    """Execution risk at one interaction's initial state (see evaluate_table)."""
    table = policy.assignments.get(layers_i.id, {})
    return evaluate_table(layers_i, table, (criterion,))[1][0]


def score_policy(layers: LayeredSpace, policy: Policy, criteria: tuple = ()) -> tuple:
    """(expected utility, {criterion: execution risk}) of a policy: one
    ``evaluate_table`` per interaction, summed in layer order.  Every
    verdict's objective and risks are this score of its policy."""
    utility, risks = 0.0, [0.0] * len(criteria)
    for layers_i in layers:
        u, r = evaluate_table(layers_i, policy.assignments.get(layers_i.id, {}), criteria)
        utility += u
        risks = [total + x for total, x in zip(risks, r)]
    return utility, dict(zip(criteria, risks))


def execution_risk(
    instance: MccSspInstance,
    layers: LayeredSpace,
    policy: Policy,
    criterion: Criterion,
) -> float:
    """Total execution risk from the initial state: the sum of the
    per-interaction recursions (see ``score_policy``).  The sum is exact
    when no agent pair can fail at two interaction points, and an upper
    bound otherwise.
    """
    return score_policy(layers, policy, (criterion,))[1][criterion]


def expected_utility(
    instance: MccSspInstance, layers: LayeredSpace, policy: Policy
) -> float:
    """Expected cumulative utility over decision steps 0..h-1 (see
    ``score_policy``)."""
    return score_policy(layers, policy)[0]


def policy_flows(
    instance: MccSspInstance,
    layers: LayeredSpace,
    policy: Policy,
    criterion: Criterion | None,
) -> dict:
    """Occupancy flows induced by a policy: x[(i, k, state, action)].

    For ``criterion=None`` flows follow the plain transitions (the j = 0
    utility flow); otherwise each step is damped by the source state's
    survival probability, which makes the flows satisfy the tilded flow
    conservation equations for that criterion.
    """
    flows = {}
    for layers_i in layers:
        rt = None if criterion is None else layers_i.state_risks(criterion)
        occ = {layers_i.layers[0][0]: 1.0}
        for k in range(len(layers_i.layers) - 1):
            nxt = {}
            for s, mass in occ.items():
                survival = 1.0 if rt is None else 1.0 - rt[s]
                for a, prob in policy.action_distribution(layers_i.id, s, k).items():
                    x = mass * prob
                    flows[(layers_i.id, k, s, a)] = x
                    if x == 0.0:
                        continue
                    for succ, p in layers_i.edges[(s, a)]:
                        nxt[succ] = nxt.get(succ, 0.0) + x * survival * p
            occ = nxt
    return flows


def linear_risk_from_flows(
    instance: MccSspInstance,
    layers: LayeredSpace,
    flows: Mapping,
    criterion: Criterion,
) -> float:
    """Linear form of the execution risk at the initial state, evaluated on
    flows that satisfy the tilded conservation equations for ``criterion``:

        sum_i rt(s0_i)
        + sum_{k,i,s,a,s'} rt(s') x[i,k,s,a] T(s,a,s') (1 - rt(s))
    """
    total = 0.0
    for layers_i in layers:
        rt = layers_i.state_risks(criterion)
        total += rt[layers_i.layers[0][0]]
        for k in range(layers.instance.horizon):
            for s in layers_i.layers[k]:
                survival = 1.0 - rt[s]
                for a in layers_i.joint_actions:
                    x = flows.get((layers_i.id, k, s, a), 0.0)
                    if x == 0.0:
                        continue
                    total += x * survival * sum(
                        p * rt[succ] for succ, p in layers_i.edges[(s, a)]
                    )
    return total
