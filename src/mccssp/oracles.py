"""Ground-truth and comparison planners.

``brute_force_optimal`` exhaustively enumerates deterministic
non-stationary assignments over the reachable layers, evaluating each with
the risk-module recursion; it exists to certify the ILP on small instances.
``backward_dp`` is the one backward dynamic program: it gives the
risk-blind optimum, a utility-optimal policy of least execution risk and
the least risk of any policy; ``ilp.solve`` uses it as a certificate and
``dp_optimal_utility`` sums its optima as an upper bound.  ``fcfs_plan`` is
the first-come-first-serve baseline with a per-action risk bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import InteractionLayers, LayeredSpace, MccSspInstance, agree, skey, within
from .risk import Policy, evaluate_table, interaction_execution_risk


class CapExceeded(RuntimeError):
    """Deterministic-policy enumeration would exceed the configured cap."""


class MissingWaitAction(ValueError):
    """FCFS requires every agent to define a wait action."""


@dataclass
class BruteForceResult:
    status: str  # optimal | infeasible
    objective: float
    policy: Policy | None
    risks: dict
    policies_evaluated: int


@dataclass
class BackwardDp:
    """One interaction's backward pass (see ``backward_dp``)."""

    value: float  # risk-blind optimum at the initial state
    table: dict  # {(state, k): action}, utility-optimal with least risk
    least_risk: tuple  # least execution risk of any policy, per criterion


def backward_dp(layers_i: InteractionLayers, criteria: tuple = ()) -> BackwardDp:
    """Finite-horizon backward value iteration that also tracks risk.

    value_k(s) = max_a u(s, a) + sum_s' T(s, a, s') value_{k+1}(s').  At
    every (s, k) the table picks, among the actions whose value agrees with
    that max (``model.agree``), the one of least execution risk
    er(s) = rt(s) + (1 - rt(s)) * sum_s' T(s, a, s') er(s'), comparing the
    criteria in order and breaking ties towards the earlier joint action.
    The same recursion with the min over all actions gives, per criterion,
    the least execution risk of any policy: a lower bound on what any
    policy of this interaction can achieve.
    """
    rts = [layers_i.state_risks(j) for j in criteria]
    edges = layers_i.edges
    utilities = layers_i.utilities
    horizon = len(layers_i.layers) - 1
    value = {s: 0.0 for s in layers_i.layers[horizon]}
    er = {s: tuple(rt[s] for rt in rts) for s in layers_i.layers[horizon]}
    least = er
    table = {}
    for k in range(horizon - 1, -1, -1):
        nxt_value, nxt_er, nxt_least = value, er, least
        value, er, least = {}, {}, {}
        for s in layers_i.layers[k]:
            q = [
                utilities[(s, a)] + sum(p * nxt_value[succ] for succ, p in edges[(s, a)])
                for a in layers_i.joint_actions
            ]
            best = max(q)
            low = [float("inf")] * len(rts)
            chosen = chosen_er = None
            for a, qa in zip(layers_i.joint_actions, q):
                succs = edges[(s, a)]
                for n in range(len(rts)):
                    low[n] = min(low[n], sum(p * nxt_least[succ][n] for succ, p in succs))
                if agree(qa, best):
                    er_a = tuple(
                        rt[s] + (1.0 - rt[s]) * sum(p * nxt_er[succ][n] for succ, p in succs)
                        for n, rt in enumerate(rts)
                    )
                    if chosen is None or er_a < chosen_er:
                        chosen, chosen_er = a, er_a
            table[(s, k)] = chosen
            value[s] = best
            er[s] = chosen_er
            least[s] = tuple(rt[s] + (1.0 - rt[s]) * lo for rt, lo in zip(rts, low))
    root = layers_i.layers[0][0]
    return BackwardDp(value[root], table, least[root])


def dp_optimal_utility(instance: MccSspInstance, layers: LayeredSpace) -> float:
    """Unconstrained finite-horizon optimum, summed over interaction
    points: an upper bound on the constrained optimum."""
    return sum(backward_dp(layers_i).value for layers_i in layers)


# ---------------------------------------------------------------------------
# exhaustive deterministic-policy search


def _active_slots(instance: MccSspInstance, layers: LayeredSpace) -> dict:
    """Slots (agent, own-state value, k) where action consistency binds.

    A slot is active when two or more interaction points share the agent
    and both have a reachable layer-k state whose component for that agent
    equals the value; selected actions at matching states must then agree
    across (and within) those interactions.
    """
    occupancy = {}
    for layers_i in layers:
        members = layers_i.members
        for k, layer in enumerate(layers_i.layers):
            for s in layer:
                for pos, v in enumerate(members):
                    occupancy.setdefault((v, s[pos], k), set()).add(layers_i.id)
    return {slot: ids for slot, ids in occupancy.items() if len(ids) > 1}


def count_restricted_policies(layers_i: InteractionLayers, cap: int) -> int:
    """Number of deterministic assignments over policy-reachable states of
    one interaction, truncated at cap + 1 (memoized over reached sets)."""
    horizon = len(layers_i.layers) - 1
    actions = layers_i.joint_actions
    memo = {}

    def count(k, reached):
        if k == horizon:
            return 1
        key = (k, reached)
        if key in memo:
            return memo[key]
        total = 0
        for combo in itertools.product(actions, repeat=len(reached)):
            succs = set()
            for s, a in zip(reached, combo):
                succs.update(succ for succ, _ in layers_i.edges[(s, a)])
            total += count(k + 1, frozenset(succs))
            if total > cap:
                total = cap + 1
                break
        memo[key] = total
        return total

    return count(0, frozenset((layers_i.layers[0][0],)))


def _enumerate_assignments(
    layers_i: InteractionLayers,
    criteria: tuple,
    slots: dict,
    cap: int,
) -> list:
    """All deterministic assignments over states reachable under the policy
    itself, in lexicographic order.  Each entry is (assignment, utility,
    risk-vector, slot-signature); states never reached under the policy are
    left unassigned (they are payoff-irrelevant).
    """
    members = layers_i.members
    horizon = len(layers_i.layers) - 1
    actions = layers_i.joint_actions
    own_slots = {
        (v, value, k)
        for (v, value, k), ids in slots.items()
        if layers_i.id in ids and k < horizon
    }

    results = []

    def signature(assignment):
        sig = {}
        for (s, k), a in assignment.items():
            for pos, v in enumerate(members):
                slot = (v, s[pos], k)
                if slot not in own_slots:
                    continue
                chosen = a[pos]
                if sig.setdefault(slot, chosen) != chosen:
                    return None  # same slot forced to two different actions
        return sig

    def recurse(k, reached, assignment):
        if k == horizon:
            sig = signature(assignment)
            if sig is not None:
                util, risks = evaluate_table(layers_i, assignment, criteria)
                results.append((dict(assignment), util, risks, sig))
                if len(results) > cap:
                    raise CapExceeded(
                        f"more than {cap} deterministic policies at interaction {layers_i.id}"
                    )
            return
        for combo in itertools.product(actions, repeat=len(reached)):
            succs = set()
            for s, a in zip(reached, combo):
                assignment[(s, k)] = a
                succs.update(succ for succ, _ in layers_i.edges[(s, a)])
            recurse(k + 1, tuple(sorted(succs, key=skey)), assignment)
            for s in reached:
                del assignment[(s, k)]

    recurse(0, (layers_i.layers[0][0],), {})
    return results


def _merge_group(cands_a, cands_b, slot_index, cap):
    """Cross product of two candidate lists keeping slot-consistent pairs.

    Candidates are (assignments, utility, risk-vector, signature) where
    ``assignments`` maps interaction id -> assignment dict.
    """
    n_slots = len(slot_index)

    def sig_array(cands):
        arr = -np.ones((len(cands), n_slots), dtype=np.int64)
        for row, (_, _, _, sig) in enumerate(cands):
            for slot, action in sig.items():
                if slot in slot_index:
                    key, actions = slot_index[slot]
                    arr[row, key] = actions[action]
        return arr

    sig_a, sig_b = sig_array(cands_a), sig_array(cands_b)
    merged = []
    for ia, (asg_a, u_a, r_a, s_a) in enumerate(cands_a):
        if n_slots:
            row = sig_a[ia]
            ok = np.all((sig_b == row) | (sig_b == -1) | (row == -1), axis=1)
            idx = np.nonzero(ok)[0]
        else:
            idx = range(len(cands_b))
        for ib in idx:
            asg_b, u_b, r_b, s_b = cands_b[ib]
            sig = dict(s_a)
            sig.update(s_b)
            merged.append(
                (
                    {**asg_a, **asg_b},
                    u_a + u_b,
                    tuple(x + y for x, y in zip(r_a, r_b)),
                    sig,
                )
            )
            if len(merged) > cap:
                raise CapExceeded(f"more than {cap} policy combinations in a group")
    return merged


def _pareto_prune(cands):
    """Drop candidates that another candidate weakly beats on utility and
    every risk component (keeps the earliest on exact ties)."""
    order = sorted(range(len(cands)), key=lambda idx: (-cands[idx][1], idx))
    kept = []
    frontier = []
    for idx in order:
        risks = cands[idx][2]
        if any(all(fr[j] <= risks[j] for j in range(len(risks))) for fr in frontier):
            continue
        frontier.append(risks)
        kept.append(idx)
    return [cands[idx] for idx in sorted(kept)]


def brute_force_optimal(
    instance: MccSspInstance,
    layers: LayeredSpace,
    cap: int = 10_000_000,
) -> BruteForceResult:
    """Feasible deterministic-policy maximizer by exhaustive enumeration.

    Interactions sharing agents are combined with the action-consistency
    rule; independent interactions are combined by budget-constrained
    search over per-interaction candidates.  Ties favor the earliest
    assignment in lexicographic enumeration order.
    """
    criteria = instance.criteria
    budgets = [instance.risk_budgets[j] for j in criteria]

    total_policies = 1
    for layers_i in layers:
        n = count_restricted_policies(layers_i, cap)
        total_policies *= n
        if n > cap or total_policies > cap:
            raise CapExceeded(
                f"deterministic-policy count exceeds the cap of {cap}"
            )

    slots = _active_slots(instance, layers)

    slot_index = {}
    for slot in sorted(slots, key=skey):
        agent = instance.agents[slot[0]]
        actions = {a: n for n, a in enumerate(agent.sorted_actions())}
        slot_index[slot] = (len(slot_index), actions)

    per_interaction = {}
    total = 0
    for layers_i in layers:
        cands = [
            ({layers_i.id: asg}, u, r, sig)
            for asg, u, r, sig in _enumerate_assignments(layers_i, criteria, slots, cap)
        ]
        per_interaction[layers_i.id] = cands
        total += len(cands)

    # group interactions connected through shared agents
    parent = {layers_i.id: layers_i.id for layers_i in layers}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    member_of = {}
    for layers_i in layers:
        for v in layers_i.members:
            if v in member_of:
                parent[find(layers_i.id)] = find(member_of[v])
            member_of[v] = layers_i.id
    groups = {}
    for layers_i in layers:
        groups.setdefault(find(layers_i.id), []).append(layers_i.id)

    group_cands = []
    for root in sorted(groups):
        ids = sorted(groups[root])
        cands = per_interaction[ids[0]]
        for other in ids[1:]:
            cands = _merge_group(cands, per_interaction[other], slot_index, cap)
        if not cands:
            return BruteForceResult("infeasible", float("-inf"), None, {}, total)
        group_cands.append(_pareto_prune(cands))

    combos = 1
    for cands in group_cands:
        combos *= len(cands)
    if combos > cap:
        raise CapExceeded(f"{combos} policy combinations exceed the cap of {cap}")

    # budget-constrained combination across independent groups
    best = {"util": float("-inf"), "asg": None, "risks": None}
    max_tail = [0.0] * (len(group_cands) + 1)
    for g in range(len(group_cands) - 1, -1, -1):
        max_tail[g] = max_tail[g + 1] + max(c[1] for c in group_cands[g])

    def search(g, util, risks, assignments):
        if util + max_tail[g] <= best["util"]:
            return
        if g == len(group_cands):
            best.update(util=util, asg=dict(assignments), risks=tuple(risks))
            return
        for asg, u, r, _ in group_cands[g]:
            nr = [x + y for x, y in zip(risks, r)]
            if all(within(v, b) for v, b in zip(nr, budgets)):
                assignments.update(asg)
                search(g + 1, util + u, nr, assignments)
                for key in asg:
                    del assignments[key]

    search(0, 0.0, [0.0] * len(criteria), {})

    if best["asg"] is None:
        return BruteForceResult("infeasible", float("-inf"), None, {}, total)

    # complete unreached reachable states with the default action
    full = {}
    for layers_i in layers:
        chosen = best["asg"][layers_i.id]
        table = {}
        for k, s in layers_i.decision_points():
            table[(s, k)] = chosen.get((s, k), layers_i.default_joint_action)
        full[layers_i.id] = table
    policy = Policy(full)
    risks = dict(zip(criteria, best["risks"]))
    return BruteForceResult("optimal", best["util"], policy, risks, total)


# ---------------------------------------------------------------------------
# first-come-first-serve baseline


def fcfs_plan(
    instance: MccSspInstance,
    arrival_order: list,
    per_action_bound: float,
    layers: LayeredSpace,
) -> Policy:
    """Grant agents their best action in arrival order under a per-action
    risk bound.

    Each agent gets its highest-utility action whose induced risk at every
    interaction point shared with already-granted agents stays within the
    bound (pending agents count as waiting); otherwise it waits.  Utility
    ties go to the action with the smaller sort key, which domains use to
    prefer the lower speed.  Agents with a single action are committed
    as-is (uncontrollable traffic).
    """
    # uncontrollable agents (obstacles, scripted traffic) are facts, not
    # requests: their single action is granted before any queued agent
    granted: dict = {
        v: agent.actions[0]
        for v, agent in instance.agents.items()
        if len(agent.actions) == 1
    }

    def joint_assignment(layers_i, overrides):
        actions = []
        for v in layers_i.members:
            agent = instance.agents[v]
            if v in overrides:
                actions.append(overrides[v])
            elif v in granted:
                actions.append(granted[v])
            else:
                if agent.wait_action is None and len(agent.actions) > 1:
                    raise MissingWaitAction(f"agent {v!r} has no wait action")
                actions.append(agent.default_action())
        return tuple(actions)

    def constant_policy(layers_i, overrides):
        joint = joint_assignment(layers_i, overrides)
        table = {(s, k): joint for k, s in layers_i.decision_points()}
        return Policy({layers_i.id: table})

    def action_risk_ok(v, action):
        for layers_i in layers:
            if v not in layers_i.members:
                continue
            partners = [w for w in layers_i.members if w != v]
            if partners and not any(w in granted for w in partners):
                continue
            policy = constant_policy(layers_i, {v: action})
            for j in instance.criteria:
                risk = interaction_execution_risk(layers_i, policy, j)
                if not within(risk, per_action_bound):
                    return False
        return True

    for v in arrival_order:
        agent = instance.agents[v]
        if v in granted:
            continue
        if agent.wait_action is None:
            raise MissingWaitAction(f"agent {v!r} has no wait action")
        candidates = sorted(
            agent.sorted_actions(),
            key=lambda a: (-agent.reward(agent.initial_state, a), skey(a)),
        )
        chosen = agent.wait_action
        for a in candidates:
            if a == agent.wait_action:
                continue
            if action_risk_ok(v, a):
                chosen = a
                break
        granted[v] = chosen

    assignments = {}
    for layers_i in layers:
        joint = joint_assignment(layers_i, {})
        assignments[layers_i.id] = {
            (s, k): joint for k, s in layers_i.decision_points()
        }
    return Policy(assignments)
