"""Instance file format: a JSON document with explicit state/action sets,
transition and utility tables, interaction points, budgets, and a format
version.  Joint states in risk maps are serialized as ordered arrays
following each interaction's member order.

Only table-backed instances round-trip; domains that rely on implicit
state containers or callable tables (the large grids) are generated in
memory and are not meant to be serialized.
"""

from __future__ import annotations

import json

from .model import (
    AgentMdp,
    InstanceError,
    InteractionPoint,
    MccSspInstance,
    StateRisk,
)

FORMAT_VERSION = 1


def _freeze(value):
    """JSON arrays become tuples so states stay hashable."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value):
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


def instance_to_json(instance: MccSspInstance) -> str:
    agents = {}
    for vid, agent in instance.agents.items():
        if not isinstance(agent.transition, dict) or not isinstance(agent.utility, dict):
            raise InstanceError(
                f"agent {vid!r} uses callable tables and cannot be serialized"
            )
        try:
            states = sorted(agent.states, key=repr)
        except TypeError:
            raise InstanceError(f"agent {vid!r} has a non-enumerable state set")
        agents[str(vid)] = {
            "states": [_thaw(s) for s in states],
            "actions": [_thaw(a) for a in agent.actions],
            "initial_state": _thaw(agent.initial_state),
            "wait_action": _thaw(agent.wait_action),
            "transition": [
                [_thaw(s), _thaw(a), [[_thaw(t), p] for t, p in sorted(row.items(), key=lambda kv: repr(kv[0]))]]
                for (s, a), row in sorted(agent.transition.items(), key=repr)
            ],
            "utility": [
                [_thaw(s), _thaw(a), u]
                for (s, a), u in sorted(agent.utility.items(), key=repr)
            ],
        }

    interactions = []
    for point in instance.interactions:
        risk = {}
        for j, spec in point.risk.items():
            if spec.is_pairwise:
                pairs = []
                for (v, w), table in spec._pairwise.items():
                    if callable(table):
                        raise InstanceError("callable risk tables cannot be serialized")
                    pairs.append(
                        [_thaw(v), _thaw(w),
                         [[_thaw(sv), _thaw(sw), p] for (sv, sw), p in sorted(table.items(), key=repr)]]
                    )
                risk[j] = {"pairwise": pairs}
            else:
                table = spec._aggregate
                if callable(table):
                    raise InstanceError("callable risk tables cannot be serialized")
                risk[j] = {
                    "aggregate": [
                        [[_thaw(part) for part in joint], p]
                        for joint, p in sorted(table.items(), key=repr)
                    ]
                }
        interactions.append(
            {
                "id": point.id,
                "members": [_thaw(v) for v in point.members],
                "utility_owners": list(point.utility_owners),
                "risk": risk,
            }
        )

    return json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "horizon": instance.horizon,
            "risk_budgets": dict(instance.risk_budgets),
            "agents": agents,
            "interactions": interactions,
        },
        indent=2,
    )


def instance_from_json(text: str) -> MccSspInstance:
    data = json.loads(text)
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise InstanceError(f"unsupported format_version {version!r}")

    agents = {}
    for vid, spec in data["agents"].items():
        transition = {}
        for s, a, row in spec["transition"]:
            transition[(_freeze(s), _freeze(a))] = {
                _freeze(t): float(p) for t, p in row
            }
        utility = {
            (_freeze(s), _freeze(a)): float(u) for s, a, u in spec["utility"]
        }
        agents[vid] = AgentMdp(
            states={_freeze(s) for s in spec["states"]},
            actions=tuple(_freeze(a) for a in spec["actions"]),
            transition=transition,
            utility=utility,
            initial_state=_freeze(spec["initial_state"]),
            wait_action=_freeze(spec["wait_action"]),
        )

    interactions = []
    for pt in data["interactions"]:
        risk = {}
        for j, body in pt["risk"].items():
            if "aggregate" in body:
                risk[j] = StateRisk.from_aggregate(
                    {
                        tuple(_freeze(part) for part in joint): float(p)
                        for joint, p in body["aggregate"]
                    }
                )
            else:
                tables = {}
                for v, w, rows in body["pairwise"]:
                    tables[(_freeze(v), _freeze(w))] = {
                        (_freeze(sv), _freeze(sw)): float(p) for sv, sw, p in rows
                    }
                risk[j] = StateRisk.from_pairwise(tables)
        interactions.append(
            InteractionPoint(
                id=int(pt["id"]),
                members=tuple(_freeze(v) for v in pt["members"]),
                utility_owners=tuple(bool(b) for b in pt["utility_owners"]),
                risk=risk,
            )
        )

    return MccSspInstance(
        agents=agents,
        interactions=tuple(interactions),
        horizon=int(data["horizon"]),
        risk_budgets={j: float(d) for j, d in data["risk_budgets"].items()},
    )


def load_instance(path: str) -> MccSspInstance:
    with open(path) as handle:
        return instance_from_json(handle.read())


def save_instance(instance: MccSspInstance, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(instance_to_json(instance))


def load_trajectory_csv(path: str):
    """Trajectory CSV with one `t,x,y` row per sample (header optional)."""
    import numpy as np

    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
            except ValueError:
                continue  # header line
    if not rows:
        raise ValueError(f"no trajectory samples in {path}")
    rows.sort(key=lambda r: r[0])
    return np.asarray([[x, y] for _, x, y in rows])
