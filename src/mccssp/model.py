"""Core problem types: per-agent MDPs, interaction points, instances, and
the time-layered reachable joint spaces every other module consumes.

Ambient state spaces are never enumerated.  Agent state sets only need
membership tests, and transition/utility maps may be callables, so domains
with enormous grids stay cheap: only states reachable from the initial
state within the horizon are ever materialized.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Mapping, Sequence

State = Hashable
Action = Hashable
AgentId = Hashable
Criterion = str

TOL = 1e-9
"""The one tolerance of every verdict in the pipeline: budgets, objective
agreement, ties and probability sums.  It is relative to max(1,
|reference|); risks, budgets and probabilities lie in [0, 1], so for them
it is an absolute 1e-9.  ``within`` and ``agree`` state the rule, and
HiGHS's ``mip_rel_gap`` is TOL as well."""


def within(value: float, bound: float) -> bool:
    """``value`` is at most ``bound``, up to TOL relative to max(1, |bound|)."""
    return value <= bound + TOL * max(1.0, abs(bound))


def agree(a: float, b: float) -> bool:
    """``a`` and ``b`` are equal up to TOL relative to max(1, |a|, |b|)."""
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def skey(obj) -> str:
    """Stable sort key for opaque identifiers of mixed types."""
    return repr(obj)


def state_risk_tilde(risks: Iterable[float]) -> float:
    """Probability that at least one of several independent failures
    happens: 1 - prod(1 - r), multiplied in the given order."""
    survival = 1.0
    for r in risks:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"risk {r!r} outside [0, 1]")
        survival *= 1.0 - r
    return 1.0 - survival


class InstanceError(ValueError):
    """Raised for structurally unusable inputs (unknown ids, bad shapes)."""


def _as_mapping_lookup(table, what: str) -> Callable:
    """Wrap a dict or callable into a uniform (key...) -> value lookup."""
    if callable(table):
        return table
    if isinstance(table, Mapping):
        return lambda *key: table[key if len(key) > 1 else key[0]]
    raise InstanceError(f"{what} must be a mapping or callable, got {type(table).__name__}")


@dataclass(frozen=True)
class AgentMdp:
    """A single agent's finite MDP.

    ``states`` may be any container supporting ``in`` (an explicit set, or
    an implicit membership object for large grids).  ``transition`` maps
    (state, action) to a dict of successor probabilities, either as a dict
    keyed by (state, action) or as a callable.  ``utility`` likewise.
    """

    states: object
    actions: tuple
    transition: object
    utility: object
    initial_state: State
    wait_action: Action | None = None

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "_t", _as_mapping_lookup(self.transition, "transition"))
        object.__setattr__(self, "_u", _as_mapping_lookup(self.utility, "utility"))

    def successors(self, state: State, action: Action) -> dict:
        """Successor distribution, renormalized when it sums to 1 within TOL."""
        row = dict(self._t(state, action))
        total = sum(row.values())
        if total != 1.0:
            if not agree(total, 1.0):
                raise InstanceError(
                    f"transition row for ({state!r}, {action!r}) sums to {total!r}"
                )
            row = {s: p / total for s, p in row.items()}
        return row

    def reward(self, state: State, action: Action) -> float:
        return float(self._u(state, action))

    def sorted_actions(self) -> tuple:
        return tuple(sorted(self.actions, key=skey))

    def default_action(self) -> Action:
        """Action assigned to zero-flow states: wait if defined, else first."""
        if self.wait_action is not None:
            return self.wait_action
        return self.sorted_actions()[0]


class StateRisk:
    """Per-criterion failure probability of a joint interaction state.

    ``table`` maps each joint state (a tuple in member order) to its
    probability: a dict, whose missing entries read as zero risk, or a
    callable(joint_state) -> p.
    """

    def __init__(self, table):
        self.table = table

    @classmethod
    def from_aggregate(cls, table) -> "StateRisk":
        """``table``: dict joint-state-tuple -> p, or callable(joint_state) -> p."""
        return cls(table)

    @classmethod
    def from_pairwise(
        cls, tables: Mapping, members: Sequence[AgentId], state_sets: Sequence
    ) -> "StateRisk":
        """Expand per-pair tables ``{(v, w): {(s_v, s_w): p}}`` (missing
        entries read as zero) over the product of the members'
        ``state_sets``.  Each joint state holds ``state_risk_tilde`` of its
        pair probabilities in ``tables`` order; zero entries are left out.
        Raises InstanceError on a pair that names a non-member or holds a
        probability outside [0, 1].
        """
        pos = {v: i for i, v in enumerate(members)}
        pairs = []
        for (v, w), table in tables.items():
            if v not in pos or w not in pos:
                raise InstanceError(f"risk pair ({v!r}, {w!r}) names a non-member")
            for p in table.values():
                if not 0.0 <= p <= 1.0:
                    raise InstanceError(f"pair risk {p!r} outside [0, 1] for ({v!r}, {w!r})")
            pairs.append((pos[v], pos[w], table))
        aggregate = {}
        for joint in itertools.product(*state_sets):
            value = state_risk_tilde(
                float(table.get((joint[i], joint[k]), 0.0)) for i, k, table in pairs
            )
            if value:
                aggregate[joint] = value
        return cls(aggregate)

    def tilde(self, joint_state: tuple) -> float:
        """Aggregate failure probability of the joint state."""
        if callable(self.table):
            value = float(self.table(joint_state))
        else:
            value = float(self.table.get(joint_state, 0.0))
        if not 0.0 <= value <= 1.0:
            raise InstanceError(f"risk value {value!r} outside [0, 1] at {joint_state!r}")
        return value

    def enumerable_values(self) -> Iterable[float]:
        """All explicitly stored probabilities (for validation); empty for callables."""
        return () if callable(self.table) else self.table.values()


@dataclass(frozen=True)
class InteractionPoint:
    """A location where a fixed subset of agents may jointly fail.

    ``utility_owners`` marks, per member, whether this point counts that
    agent's utility; instance-wide each agent must be owned exactly once.
    ``risk`` maps each criterion name to a StateRisk.
    """

    id: int
    members: tuple
    utility_owners: tuple
    risk: Mapping[Criterion, StateRisk] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "utility_owners", tuple(bool(b) for b in self.utility_owners))

    def state_risk(self, criterion: Criterion, joint_state: tuple) -> float:
        spec = self.risk.get(criterion)
        if spec is None:
            return 0.0
        return spec.tilde(joint_state)


def assign_utility_owners(
    members_per_interaction: Sequence[Sequence[AgentId]],
) -> list:
    """Default owner flags: each agent is owned by the lowest-indexed
    interaction containing it."""
    seen = set()
    flags = []
    for members in members_per_interaction:
        row = []
        for v in members:
            row.append(v not in seen)
            seen.add(v)
        flags.append(tuple(row))
    return flags


@dataclass(frozen=True)
class MccSspInstance:
    """A full problem instance: agents, interaction points, horizon, budgets."""

    agents: Mapping[AgentId, AgentMdp]
    interactions: tuple
    horizon: int
    risk_budgets: Mapping[Criterion, float]

    def __post_init__(self):
        object.__setattr__(self, "interactions", tuple(self.interactions))
        object.__setattr__(self, "agents", dict(self.agents))
        object.__setattr__(self, "risk_budgets", dict(self.risk_budgets))

    @property
    def criteria(self) -> tuple:
        return tuple(sorted(self.risk_budgets))

    def interaction(self, interaction_id: int) -> InteractionPoint:
        for point in self.interactions:
            if point.id == interaction_id:
                return point
        raise InstanceError(f"unknown interaction id {interaction_id!r}")


def validate_instance(instance: MccSspInstance) -> list:
    """Check every structural invariant; returns a list of violation strings
    (empty means valid).  Dict-backed tables are checked exhaustively;
    callable-backed ones are checked lazily on access during layering.
    """
    report = []
    if instance.horizon < 1:
        report.append(f"horizon must be >= 1, got {instance.horizon}")
    for j, delta in instance.risk_budgets.items():
        if not 0.0 <= delta <= 1.0:
            report.append(f"risk budget {j!r} = {delta!r} outside [0, 1]")

    for vid, agent in instance.agents.items():
        if agent.initial_state not in agent.states:
            report.append(f"agent {vid!r}: initial_state not a member of states")
        if not agent.actions:
            report.append(f"agent {vid!r}: empty action set")
        if agent.wait_action is not None and agent.wait_action not in agent.actions:
            report.append(f"agent {vid!r}: wait_action not in actions")
        if isinstance(agent.transition, Mapping):
            for (s, a), row in agent.transition.items():
                total = 0.0
                for succ, p in row.items():
                    total += p
                    if not (0.0 <= p and within(p, 1.0)):
                        report.append(
                            f"agent {vid!r}: probability {p!r} outside [0,1] at ({s!r}, {a!r})"
                        )
                    if succ not in agent.states:
                        report.append(
                            f"agent {vid!r}: successor {succ!r} of ({s!r}, {a!r}) not in states"
                        )
                if not agree(total, 1.0):
                    report.append(
                        f"agent {vid!r}: distribution not normalized at ({s!r}, {a!r}),"
                        f" sums to {total!r}"
                    )
        if isinstance(agent.utility, Mapping):
            for (s, a), u in agent.utility.items():
                if not 0.0 <= u < math.inf:
                    report.append(
                        f"agent {vid!r}: utility {u!r} at ({s!r}, {a!r}) is not finite and >= 0"
                    )

    covered = set()
    owners = {}
    seen_ids = set()
    for point in instance.interactions:
        if point.id in seen_ids:
            report.append(f"duplicate interaction id {point.id}")
        seen_ids.add(point.id)
        if not point.members:
            report.append(f"interaction {point.id}: empty member list")
        if len(point.utility_owners) != len(point.members):
            report.append(f"interaction {point.id}: owner flags do not match members")
            continue
        for v, owns in zip(point.members, point.utility_owners):
            if v not in instance.agents:
                report.append(f"interaction {point.id}: unknown agent {v!r}")
                continue
            covered.add(v)
            if owns:
                owners[v] = owners.get(v, 0) + 1
        for j, spec in point.risk.items():
            if j not in instance.risk_budgets:
                report.append(f"interaction {point.id}: risk criterion {j!r} has no budget")
            for p in spec.enumerable_values():
                if not 0.0 <= p <= 1.0:
                    report.append(
                        f"interaction {point.id}: risk value {p!r} outside [0,1] ({j!r})"
                    )

    for vid in instance.agents:
        if vid not in covered:
            report.append(f"agent {vid!r} not covered by any interaction point")
        elif owners.get(vid, 0) != 1:
            report.append(
                f"agent {vid!r} utility owned by {owners.get(vid, 0)} interactions, expected 1"
            )
    return report


@dataclass(frozen=True)
class OwnRows:
    """One agent's own transition structure, read once per layering from
    its transition and utility maps.

    ``actions`` are the agent's actions in ``skey`` order and ``layers[k]``
    the own states it reaches at time k, for k up to the horizon.  At every
    state of a decision layer (k < horizon), ``rows[state]`` holds one
    (items, reward) pair per action, in ``actions`` order: the (successor,
    probability) items of ``AgentMdp.successors`` in their order, and
    ``AgentMdp.reward``.  ``keys[state]`` is ``skey(state)`` at every state
    of every layer.
    """

    actions: tuple
    layers: tuple
    rows: Mapping
    keys: Mapping


def own_rows(agent: AgentMdp, horizon: int) -> OwnRows:
    """Expand one agent breadth-first from its initial state for
    ``horizon`` steps, reading each state's rows once.  Every successor of
    non-zero probability counts as reached, so a joint product of members'
    rows only reaches states that have rows and keys here."""
    actions = agent.sorted_actions()
    successors, reward = agent.successors, agent.reward
    rows = {}
    reaches = {}  # state -> its successors of non-zero probability, in row order
    keys = {agent.initial_state: skey(agent.initial_state)}
    layers = [(agent.initial_state,)]
    for _ in range(horizon):
        reached = {}
        for s in layers[-1]:
            nxt = reaches.get(s)
            if nxt is None:
                row = rows[s] = tuple(
                    [(tuple(successors(s, a).items()), reward(s, a)) for a in actions]
                )
                nxt = reaches[s] = {t: None for items, _ in row for t, p in items if p != 0.0}
                for t in nxt:
                    if t not in keys:
                        keys[t] = skey(t)
            reached.update(nxt)
        layers.append(tuple(reached))
    return OwnRows(actions, tuple(layers), rows, keys)


@dataclass(frozen=True)
class InteractionLayers:
    """One interaction point's joint space over its reachable layers.

    Joint states and actions are tuples in the order of ``members``;
    ``joint_actions`` is the product of the members' sorted actions and
    ``default_joint_action`` joins their default actions.  ``layers[k]`` is
    the tuple of joint states reachable at time k, sorted by ``skey``;
    ``edges[(state, action)]`` is the tuple of (successor, probability)
    pairs in ``skey`` order of the successors, whose probabilities are
    products of the members' own rows (``OwnRows``), and
    ``utilities[(state, action)]`` sums the owned members' rewards in
    member order.  Transition structure is time-invariant, so edges are
    keyed by state only and each state is expanded once.
    """

    point: InteractionPoint
    joint_actions: tuple
    default_joint_action: tuple
    layers: tuple
    edges: Mapping
    utilities: Mapping
    _state_risks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def id(self) -> int:
        return self.point.id

    @property
    def members(self) -> tuple:
        return self.point.members

    def state_risks(self, criterion: Criterion) -> dict:
        """Aggregate failure probability of every reachable state for one
        criterion, computed on first use, once per state."""
        rt = self._state_risks.get(criterion)
        if rt is None:
            rt = {
                s: self.point.state_risk(criterion, s)
                for s in dict.fromkeys(itertools.chain.from_iterable(self.layers))
            }
            self._state_risks[criterion] = rt
        return rt

    def decision_points(self) -> list:
        """All (k, state) pairs where an action is chosen (k < horizon)."""
        return [(k, s) for k in range(len(self.layers) - 1) for s in self.layers[k]]


@dataclass(frozen=True)
class LayeredSpace:
    """Per-interaction reachable layers of ``instance``, and each agent's
    own rows (``own[agent]``) that they are products of."""

    instance: MccSspInstance
    per_interaction: Mapping[int, InteractionLayers]
    own: Mapping[AgentId, OwnRows]

    def __iter__(self):
        return iter(self.per_interaction.values())


def _joint_key(member_keys: list, joint: tuple) -> str:
    """``skey(joint)`` from each member's own keys: the repr of a tuple
    joins its items' reprs."""
    inner = ", ".join(map(dict.__getitem__, member_keys, joint))
    return "(" + inner + (",)" if len(joint) == 1 else ")")


def _layer_point(
    point: InteractionPoint, agents: Mapping, own: Mapping, horizon: int
) -> InteractionLayers:
    """Expand one interaction breadth-first from its joint initial state,
    each joint state once.  The rows and utilities of all joint actions at
    a state are formed member by member from the members' own rows, in the
    order of ``joint_actions``: probabilities multiply left to right from
    the first member's, and a successor is kept when its product is
    positive; the owned members' rewards add left to right from 0.0.  A
    singleton point's rows are thus its member's rows under joint keys.
    Joint sort keys are joined from the members' own keys."""
    members = [own[v] for v in point.members]
    owners = point.utility_owners
    member_keys = [m.keys for m in members]
    joint_actions = tuple(itertools.product(*[m.actions for m in members]))
    keys, edges, utilities = {}, {}, {}
    successors = {}  # joint state -> its edges' successors, each once

    def by_key(item):
        return keys[item[0]]

    layers = [(tuple([agents[v].initial_state for v in point.members]),)]
    for _ in range(horizon):
        nxt = set()
        for s in layers[-1]:
            reached = successors.get(s)
            if reached is None:
                reached = successors[s] = {}
                # (row, utility) per joint action over the members so far
                joint = [
                    ([((t,), q) for t, q in items], 0.0 + reward if owners[0] else 0.0)
                    for items, reward in members[0].rows[s[0]]
                ]
                for m, owns, sv in zip(members[1:], owners[1:], s[1:]):
                    joint = [
                        (
                            [(succ + (t,), p * q) for succ, p in row for t, q in items],
                            utility + reward if owns else utility,
                        )
                        for row, utility in joint
                        for items, reward in m.rows[sv]
                    ]
                for a, (row, utility) in zip(joint_actions, joint):
                    kept = [(succ, p) for succ, p in row if p > 0.0]
                    for succ, _ in kept:
                        if succ not in reached:
                            reached[succ] = None
                            if succ not in keys:
                                keys[succ] = _joint_key(member_keys, succ)
                    if len(kept) > 1:
                        kept.sort(key=by_key)
                    edges[(s, a)] = tuple(kept)
                    utilities[(s, a)] = utility
            nxt.update(reached)
        layers.append(tuple(sorted(nxt, key=keys.__getitem__)))
    return InteractionLayers(
        point=point,
        joint_actions=joint_actions,
        default_joint_action=tuple([agents[v].default_action() for v in point.members]),
        layers=tuple(layers),
        edges=edges,
        utilities=utilities,
    )


def reachable_layers(instance: MccSspInstance) -> LayeredSpace:
    """Validate the instance, then lay it out once: each agent's own rows
    (``own_rows``: successor items, rewards and sort keys over the states it
    reaches within the horizon), and from them each interaction's reachable
    joint layers, edges and utilities, expanded breadth-first from its
    joint initial state for ``horizon`` steps.  Only states with strictly
    positive reachability probability are materialized, so the output is
    independent of the ambient state-set size.  Raises InstanceError on an
    invalid instance.
    """
    report = validate_instance(instance)
    if report:
        raise InstanceError("invalid instance: " + "; ".join(report))
    own = {v: own_rows(agent, instance.horizon) for v, agent in instance.agents.items()}
    per_interaction = {
        point.id: _layer_point(point, instance.agents, own, instance.horizon)
        for point in instance.interactions
    }
    return LayeredSpace(instance=instance, per_interaction=per_interaction, own=own)
