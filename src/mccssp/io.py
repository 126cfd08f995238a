"""Instance file format: a JSON document with explicit state/action sets,
transition and utility tables, interaction points, budgets, and a format
version.  Joint states in risk maps are serialized as ordered arrays
following each interaction's member order.  A risk block is written as
``"aggregate"`` (joint state -> probability); a ``"pairwise"`` block (per
member pair, (state, state) -> probability) is accepted on load and
expanded to the aggregate table at once.

Only table-backed instances round-trip.  Every built intersection step
does: its risks are tables filled at build time.  The grids rely on
implicit state containers and callable tables, are generated in memory
and are not meant to be serialized.
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
            if callable(spec.table):
                raise InstanceError("callable risk tables cannot be serialized")
            risk[j] = {
                "aggregate": [
                    [[_thaw(part) for part in joint], p]
                    for joint, p in sorted(spec.table.items(), key=repr)
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


def _integer(value, field: str) -> int:
    """A JSON integer field; a float or a boolean is an InstanceError
    naming the field, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceError(f"{field} must be an integer, got {value!r}")
    return value


def _number(value, field: str) -> float:
    """A JSON number field (an integer or a float) as a float; anything
    else, a boolean or a numeric string too, is an InstanceError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceError(f"{field} must be a number, got {value!r}")
    return float(value)


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
                _freeze(t): _number(p, f"agent {vid!r} transition probability") for t, p in row
            }
        utility = {
            (_freeze(s), _freeze(a)): _number(u, f"agent {vid!r} utility")
            for s, a, u in spec["utility"]
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
        point_id = _integer(pt["id"], "interaction id")
        members = tuple(_freeze(v) for v in pt["members"])
        owners = pt["utility_owners"]
        if not all(isinstance(b, bool) for b in owners):
            raise InstanceError(f"interaction {point_id}: utility_owners must be booleans")
        risk = {}
        for j, body in pt["risk"].items():
            field = f"interaction {point_id} risk {j!r} probability"
            if "aggregate" in body:
                risk[j] = StateRisk.from_aggregate(
                    {
                        tuple(_freeze(part) for part in joint): _number(p, field)
                        for joint, p in body["aggregate"]
                    }
                )
            else:
                tables = {}
                for v, w, rows in body["pairwise"]:
                    tables[(_freeze(v), _freeze(w))] = {
                        (_freeze(sv), _freeze(sw)): _number(p, field) for sv, sw, p in rows
                    }
                unknown = [v for v in members if v not in agents]
                if unknown:
                    raise InstanceError(f"interaction {point_id}: unknown agent {unknown[0]!r}")
                risk[j] = StateRisk.from_pairwise(
                    tables, members, [agents[v].states for v in members]
                )
        interactions.append(
            InteractionPoint(
                id=point_id,
                members=members,
                utility_owners=tuple(owners),
                risk=risk,
            )
        )

    return MccSspInstance(
        agents=agents,
        interactions=tuple(interactions),
        horizon=_integer(data["horizon"], "horizon"),
        risk_budgets={j: _number(d, f"risk budget {j!r}") for j, d in data["risk_budgets"].items()},
    )


def load_instance(path: str) -> MccSspInstance:
    with open(path) as handle:
        return instance_from_json(handle.read())


def save_instance(instance: MccSspInstance, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(instance_to_json(instance))


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load_trajectory_csv(path: str):
    """Trajectory CSV with one `t,x,y` row per sample.  Blank lines and `#`
    comments are skipped, and so is a header: the first other line, when
    none of its first three fields is a number.  Any other row that is not
    three numbers is a ValueError naming the file and line."""
    import numpy as np

    rows, first = [], True
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 3:
                raise ValueError(f"{path}:{lineno}: expected t,x,y, got {line!r}")
            header = first and not any(map(_is_number, parts[:3]))
            first = False
            if header:
                continue
            try:
                rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: expected numbers t,x,y, got {line!r}"
                ) from None
    if not rows:
        raise ValueError(f"no trajectory samples in {path}")
    rows.sort(key=lambda r: r[0])
    return np.asarray([[x, y] for _, x, y in rows])
