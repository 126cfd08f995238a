"""Output checks that do not trust the code they check.

Risk, expected utility and the risk-blind optimum are recomputed here from
the instance's agents and interaction points alone: joint successors are
the product of the members' own transition rows, and the recursions are
written out again rather than taken from ``mccssp.risk`` or
``mccssp.oracles``.  The module also holds the two statistics the report
rests on: the tail percentile rule and the binomial collision limit.
"""

from __future__ import annotations

import itertools
import math

RISK_SLACK = 1e-6
UTILITY_TOL = 1e-6
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


def _joint_successors(instance, members, state, action):
    rows = [
        instance.agents[v].successors(s, a)
        for v, s, a in zip(members, state, action)
    ]
    out = {}
    for combo in itertools.product(*(row.items() for row in rows)):
        p = math.prod(q for _, q in combo)
        if p > 0.0:
            succ = tuple(s for s, _ in combo)
            out[succ] = out.get(succ, 0.0) + p
    return out


def _joint_utility(instance, point, state, action):
    return sum(
        instance.agents[v].reward(s, a)
        for v, owns, s, a in zip(point.members, point.utility_owners, state, action)
        if owns
    )


def _action_distribution(policy, point_id, state, k):
    entry = policy.assignments[point_id][(state, k)]
    return entry if isinstance(entry, dict) else {entry: 1.0}


def _initial(instance, point):
    return tuple(instance.agents[v].initial_state for v in point.members)


def _execution_risk(instance, criterion, downstream):
    """Sum over interaction points of er(s, h) = r(s) and
    er(s, k) = r(s) + (1 - r(s)) * downstream(point, s, k, er)."""
    total = 0.0
    for point in instance.interactions:
        memo = {}

        def er(state, k):
            key = (state, k)
            if key not in memo:
                r = point.state_risk(criterion, state)
                rest = downstream(point, state, k, er) if k < instance.horizon else 0.0
                memo[key] = r + (1.0 - r) * rest
            return memo[key]

        total += er(_initial(instance, point), 0)
    return total


def _expected(instance, point, state, action, value, k):
    return sum(
        p * value(succ, k + 1)
        for succ, p in _joint_successors(instance, point.members, state, action).items()
    )


def _joint_actions(instance, point):
    return itertools.product(*(instance.agents[v].actions for v in point.members))


def policy_risk(instance, policy, criterion):
    """Execution risk of ``policy``."""
    return _execution_risk(
        instance, criterion,
        lambda point, state, k, er: sum(
            q * _expected(instance, point, state, action, er, k)
            for action, q in _action_distribution(policy, point.id, state, k).items()
        ),
    )


def minimum_risk(instance, criterion):
    """Least execution risk any policy reaches, with the cross-point
    consistency rows dropped: above the budget, no feasible policy exists."""
    return _execution_risk(
        instance, criterion,
        lambda point, state, k, er: min(
            _expected(instance, point, state, action, er, k)
            for action in _joint_actions(instance, point)
        ),
    )


def policy_utility(instance, policy):
    """Expected utility of ``policy`` by forward propagation of occupancy."""
    total = 0.0
    for point in instance.interactions:
        occupancy = {_initial(instance, point): 1.0}
        for k in range(instance.horizon):
            nxt = {}
            for state, mass in occupancy.items():
                for action, q in _action_distribution(policy, point.id, state, k).items():
                    total += mass * q * _joint_utility(instance, point, state, action)
                    for succ, p in _joint_successors(
                        instance, point.members, state, action
                    ).items():
                        nxt[succ] = nxt.get(succ, 0.0) + mass * q * p
            occupancy = nxt
    return total


def risk_blind_optimum(instance):
    """Best expected utility with the risk budgets and the cross-point
    consistency rows dropped: an upper bound on any feasible objective."""
    total = 0.0
    for point in instance.interactions:
        memo = {}

        def value(state, k):
            if k == instance.horizon:
                return 0.0
            key = (state, k)
            if key not in memo:
                memo[key] = max(
                    _joint_utility(instance, point, state, action)
                    + _expected(instance, point, state, action, value, k)
                    for action in _joint_actions(instance, point)
                )
            return memo[key]

        total += value(_initial(instance, point), 0)
    return total


def tail_percentile(n):
    """Highest percentile of TAIL_LADDER with at least TAIL_BEYOND of ``n``
    samples beyond it, or None when no rung qualifies."""
    chosen = None
    for q in TAIL_LADDER:
        if round(n * (100.0 - q) / 100.0, 9) >= TAIL_BEYOND:
            chosen = q
    return chosen


def collision_limit(delta, steps):
    """Most collisions in ``steps`` planning steps consistent with a per-step
    risk of ``delta``: the 99% point of Binomial(steps, delta), the least k
    with P(X <= k) >= 0.99.  A normal approximation understates it when
    steps * delta is small: one collision in 77 steps at delta 0.001 has a
    7.4% chance, yet exceeds delta plus 2.576 normal standard errors."""
    if delta <= 0.0:
        return 0
    ratio = delta / (1.0 - delta)
    k, term = 0, (1.0 - delta) ** steps
    cdf = term
    while cdf < 0.99 and k < steps:
        term *= (steps - k) / (k + 1) * ratio
        k += 1
        cdf += term
    return k
