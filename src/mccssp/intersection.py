"""Risk-aware intersection domain: scenario geometry, maneuver flow tubes,
pairwise risk tables, vehicles-to-instance construction, the multi-term
utility, and receding-horizon simulation against either planner.

Layout is a two-lane four-sided intersection: per side an outer lane for
going straight and an inner lane for turning left, with queue slots behind
each stop line.  Vehicle motion is table-driven: every (lane, slot,
maneuver kind, speed) variant owns a flow tube.  Two variants interact
if and only if their sampled step-probability matrix has a non-zero
entry; such a pair owns a dense progression-pair risk table computed once
and cached, and any other pair reads zero risk.

Risk bookkeeping: a state's failure probability is the collision chance
over the window spanning its just-traversed planning interval plus the
remainder of the action duration, so a grant's first motion is charged the
moment it is committed.  Waiting vehicles are parked at stop anchors
outside every conflict zone and carry no risk, and interaction points are
emitted only for vehicle pairs with at least one controllable decision
left (the residual risk of fully committed pairs was bounded when last
granted and is sampled during simulation, not constrained again).
Together these make the all-wait plan feasible at any budget, which the
receding-horizon loop relies on.

A pair point's risk is a table over the joint states of two own states
the vehicles can occupy at the same step k <= h, filled from the variant
pair tables when the instance is built.  The point is emitted only when
some entry is positive: those joint states cover every one the point
could reach, so a dropped point has zero risk under every policy; it owns
no utility and would only add consistency rows that every plan
satisfies, so dropping it changes no optimum.

Vehicle model: a vehicle waits, or enters a variant and runs its tube one
planning interval per state until it is past the tube.  A vehicle's rows
cover only the own states it reaches before the horizon, where a decision
is taken; a state first reached at the horizon has none.  A built instance
is plain data, with no reference to the scenario or the vehicles: it can
be saved with ``io.save_instance`` and solved again from the file.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .ilp import solve_instance
from .model import (
    AgentMdp,
    InteractionPoint,
    MccSspInstance,
    StateRisk,
    reachable_layers,
    state_risk_tilde,
)
from .oracles import fcfs_plan
from .pft import PairRisk, Pft, VehicleGeometry, pft_from_path, sample_pair_risk

SIDES = ("N", "E", "S", "W")
# per side an outer lane 0 (straight) and an inner lane 1 (left turn)
LANE_IDS = tuple(f"{side}{index}" for side in SIDES for index in (0, 1))
KINDS = ("straight", "left")
PLANNERS = ("mccssp", "fcfs")

# entry travel direction per side (toward the center)
_DIRS = {"N": (0.0, -1.0), "E": (-1.0, 0.0), "S": (0.0, 1.0), "W": (1.0, 0.0)}


def _right_of(d):
    return (d[1], -d[0])


@dataclass(frozen=True)
class Lane:
    id: str
    side: str
    index: int  # 0 outer (straight), 1 inner (left turn)
    kind: str   # legal maneuver
    entry: tuple  # stop-line center point


@dataclass
class ScenarioConfig:
    """Scenario parameters; defaults mirror the two-lane four-sided setup
    with one-second planning intervals and 6 Hz tubes.  The planning
    horizon and the risk budget delta are not fields: they are arguments
    of each run (``simulate``, ``build_intersection_instance``)."""

    box_half: float = 12.0
    lane_offset_inner: float = 1.75
    lane_offset_outer: float = 5.25
    stop_gap: float = 2.0
    exit_margin: float = 4.0
    headway: float = 7.0
    speeds: dict = field(default_factory=lambda: {"s0": 8.0})
    lane_speed_scale: dict = field(default_factory=dict)
    hv_speed: str = "s0"
    dt: float = 1.0
    hz: float = 6.0
    lambdas: tuple = (1.0, 0.0, 0.0, 0.0)
    queue_depth: int = 1
    w_max: float = 300.0
    arrival_rate: float = 0.6
    lane_arrival: dict = field(default_factory=dict)   # lane -> rate | "always"
    lane_max_spawns: dict = field(default_factory=dict)
    enabled_lanes: tuple | None = None
    hv_fraction: float = 0.0
    signal_cycle_s: float = 60.0
    hv_commit_fraction: float = 0.5
    hv_yield_threshold: float = 0.3
    deviation_rate: float = 0.0
    mc_samples: int = 2000
    mc_seed: int = 0
    noise_sd: float = 0.15
    vehicle_length: float = 4.4
    vehicle_width: float = 1.9
    priority: float = 1.0
    time_limit: float | None = None

    def validate(self) -> None:
        """Raise ValueError on the first value a run cannot use, of a wrong
        type or out of range."""
        for name, low in (("mc_samples", 1), ("queue_depth", 1), ("mc_seed", 0)):
            _require_int(name, getattr(self, name), low)
        for name in ("dt", "hz", "w_max", "signal_cycle_s", "box_half",
                     "vehicle_length", "vehicle_width"):
            value = getattr(self, name)
            if not _finite_number(value) or value <= 0:
                raise ValueError(f"{name} must be a positive number, got {value!r}")
        if round(self.dt * self.hz) < 1:
            raise ValueError(f"dt * hz must be at least one tube sample, got {self.dt * self.hz!r}")
        for name in ("lane_offset_inner", "lane_offset_outer", "stop_gap", "exit_margin",
                     "headway", "arrival_rate", "noise_sd", "priority"):
            value = getattr(self, name)
            if not _finite_number(value) or value < 0:
                raise ValueError(f"{name} must be a number >= 0, got {value!r}")
        for name in ("hv_fraction", "hv_commit_fraction", "deviation_rate",
                     "hv_yield_threshold"):
            _require_unit(name, getattr(self, name))
        if self.time_limit is not None and not (
            _finite_number(self.time_limit) and self.time_limit > 0
        ):
            raise ValueError(
                f"time_limit must be null or a positive number, got {self.time_limit!r}"
            )
        # utilities must stay >= 0, so the weights may not be negative
        if not (
            isinstance(self.lambdas, (list, tuple)) and len(self.lambdas) == 4
            and all(_finite_number(v) and v >= 0 for v in self.lambdas)
        ):
            raise ValueError(f"lambdas must be four numbers >= 0, got {self.lambdas!r}")
        if not isinstance(self.speeds, dict) or not self.speeds or not all(
            _finite_number(v) and v > 0 for v in self.speeds.values()
        ):
            raise ValueError(
                f"speeds must be a map of names to positive numbers, got {self.speeds!r}"
            )
        if not isinstance(self.hv_speed, str) or self.hv_speed not in self.speeds:
            raise ValueError(
                f"hv_speed {self.hv_speed!r} is not one of speeds {sorted(self.speeds)}"
            )
        if self.enabled_lanes is not None and not (
            isinstance(self.enabled_lanes, (list, tuple)) and self.enabled_lanes
            and all(lane in LANE_IDS for lane in self.enabled_lanes)
        ):
            raise ValueError(
                f"enabled_lanes must be null or a non-empty list of lane ids {LANE_IDS},"
                f" got {self.enabled_lanes!r}"
            )
        for name, ok, what in (
            ("lane_speed_scale", lambda v: _finite_number(v) and v > 0, "positive numbers"),
            ("lane_arrival", lambda v: v == "always" or (_finite_number(v) and v >= 0),
             'numbers >= 0 or "always"'),
            ("lane_max_spawns", lambda v: _is_int(v) and v >= 0, "integers >= 0"),
        ):
            table = getattr(self, name)
            if not isinstance(table, dict) or not all(
                lane in LANE_IDS and ok(v) for lane, v in table.items()
            ):
                raise ValueError(
                    f"{name} must be a map of lane ids {LANE_IDS} to {what}, got {table!r}"
                )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _require_int(name: str, value, low: int) -> None:
    if not _is_int(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _require_unit(name: str, value) -> None:
    if not _finite_number(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")


class Scenario:
    """Built scenario: lanes, lazily constructed tubes and pair tables.
    Raises ValueError on a config that no run can use."""

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.geometry = VehicleGeometry(config.vehicle_length, config.vehicle_width)
        self.steps_per_plan = int(round(config.dt * config.hz))
        self.lanes: dict = {}
        for side in SIDES:
            d = np.asarray(_DIRS[side])
            r = np.asarray(_right_of(_DIRS[side]))
            far = config.box_half + config.stop_gap
            for index, (offset, kind) in enumerate(
                ((config.lane_offset_outer, "straight"), (config.lane_offset_inner, "left"))
            ):
                lane_id = f"{side}{index}"
                if config.enabled_lanes is not None and lane_id not in config.enabled_lanes:
                    continue
                entry = tuple(r * offset - d * far)
                self.lanes[lane_id] = Lane(lane_id, side, index, kind, entry)
        self._tubes: dict = {}
        self._pairs: dict = {}

    # -- geometry -----------------------------------------------------------

    def _path(self, lane: Lane, slot: int, kind: str) -> np.ndarray:
        cfg = self.config
        d = np.asarray(_DIRS[lane.side])
        start = np.asarray(lane.entry) - d * (cfg.headway * slot)
        total = cfg.box_half + cfg.stop_gap + cfg.box_half + cfg.exit_margin
        if kind == "straight":
            end = start + d * (total + cfg.headway * slot)
            return np.stack([start, end])
        # left turn: exit heading is the entry direction rotated +90 deg
        exit_dir = np.asarray((-d[1], d[0]))
        exit_lat = np.asarray(_right_of(tuple(exit_dir))) * cfg.lane_offset_inner
        exit_point = exit_lat + exit_dir * (cfg.box_half + cfg.exit_margin)
        # control point where the entry line meets the exit line
        entry_lat = np.asarray(lane.entry) - d * np.dot(np.asarray(lane.entry), d)
        control = entry_lat + exit_lat
        ts = np.linspace(0.0, 1.0, 40)[:, None]
        curve = (
            (1 - ts) ** 2 * start[None, :]
            + 2 * (1 - ts) * ts * control[None, :]
            + ts**2 * exit_point[None, :]
        )
        return curve

    # -- tubes and tables ---------------------------------------------------

    def variant_key(self, lane_id: str, slot: int, kind: str, speed: str) -> tuple:
        return (lane_id, slot, kind, speed)

    def velocity(self, lane_id: str, speed: str) -> float:
        return self.config.speeds[speed] * self.config.lane_speed_scale.get(lane_id, 1.0)

    def tube(self, variant: tuple) -> Pft:
        if variant not in self._tubes:
            lane_id, slot, kind, speed = variant
            lane = self.lanes[lane_id]
            path = self._path(lane, slot, kind)
            seed_parts = (
                self.config.mc_seed,
                SIDES.index(lane.side),
                lane.index,
                slot,
                KINDS.index(kind),
                sorted(self.config.speeds).index(speed),
            )
            seed = int(np.random.SeedSequence(seed_parts).generate_state(1)[0])
            self._tubes[variant] = pft_from_path(
                path,
                speed=self.velocity(lane_id, speed),
                hz=self.config.hz,
                seed=seed,
                noise_sd=self.config.noise_sd,
                label="/".join(str(p) for p in variant),
            )
        return self._tubes[variant]

    def pair_risk(self, va: tuple, vb: tuple) -> PairRisk | None:
        """``sample_pair_risk`` of an unordered variant pair at the
        scenario's sample count and seed, sampled once: None when the pair
        never interacts."""
        key = (va, vb) if va <= vb else (vb, va)
        if key not in self._pairs:
            self._pairs[key] = sample_pair_risk(
                key, self.tube(key[0]), self.tube(key[1]), self.geometry,
                n=self.config.mc_samples, seed=self.config.mc_seed,
            )
        return self._pairs[key]

    def pair_lookup(self, va: tuple, axis_a: int, vb: tuple, axis_b: int) -> float:
        pair = self.pair_risk(va, vb)
        if pair is None:
            return 0.0
        if va <= vb:
            return pair.lookup(axis_a, axis_b)
        return pair.lookup(axis_b, axis_a)


def action_utility(
    lambdas: tuple,
    velocity: float,
    priority: float,
    wait_s: float,
    lane_mean_priority: float,
    w_max: float,
) -> float:
    """Per-vehicle utility of a non-wait action: weighted velocity,
    priority, square-root waiting time, and mean lane priority."""
    l0, l1, l2, l3 = lambdas
    return (
        l0 * velocity
        + l1 * priority
        + l2 * math.sqrt(min(max(wait_s, 0.0), w_max))
        + l3 * lane_mean_priority
    )


# ---------------------------------------------------------------------------
# vehicles and instance construction


@dataclass
class VehicleState:
    """Simulation-side vehicle bookkeeping."""

    id: str
    kind: str  # "av" | "hv"
    lane: str
    slot: int
    priority: float = 1.0
    arrival_s: float = 0.0
    wait_s: float = 0.0
    phase: str = "queued"  # queued | running | done
    variant: tuple | None = None
    progression: int = 0
    true_kind: str | None = None

    @property
    def controllable(self) -> bool:
        return self.kind == "av" and self.phase == "queued"


def _hv_candidate_weights(scenario: Scenario, vehicle: VehicleState) -> dict:
    """Scripted intent schedule as {variant: weight}: 50/50 at entry,
    linearly approaching certainty on the true maneuver by the commit
    fraction of the tube."""
    cfg = scenario.config
    true_kind = vehicle.true_kind or scenario.lanes[vehicle.lane].kind
    true_var = scenario.variant_key(vehicle.lane, vehicle.slot, true_kind, cfg.hv_speed)
    commit = max(cfg.hv_commit_fraction * len(scenario.tube(true_var)), 1e-9)
    q_true = 0.5 + 0.5 * min(vehicle.progression / commit, 1.0)
    weights = {true_var: q_true}
    if q_true < 1.0:
        other = "left" if true_kind == "straight" else "straight"
        other_var = scenario.variant_key(vehicle.lane, vehicle.slot, other, cfg.hv_speed)
        weights[other_var] = 1.0 - q_true
    return weights


@dataclass
class BuildInfo:
    """Vehicle records of a build.  ``pair_ids`` maps a vehicle-id pair
    to its point, and holds only pairs that can collide within the
    horizon."""

    singleton_ids: dict  # vehicle -> its own point, which owns its utility
    pair_ids: dict
    arrival_order: list


def build_intersection_instance(
    scenario: Scenario,
    vehicles: list,
    green_side: str | None = None,
    *,
    horizon: int,
    delta: float,
) -> tuple:
    """Vehicles -> solver instance over ``horizon`` steps with the risk
    budget ``delta``.

    Queued AVs choose among speed variants of their lane maneuver or wait;
    executing vehicles are frozen single-action obstacles; HVs hold a
    single action whose transition encodes the intent schedule (wait-only
    on red).  The instance is plain data: every risk is a table filled
    here, so it holds no reference to ``scenario`` or the vehicles, and
    changing a ``VehicleState`` afterwards does not change it.

    A pair of vehicles with a controllable member gets a pair point only
    when it can collide within the horizon: its risk table (see
    ``_pair_risk_table``) holds the joint states of two own states the
    two can occupy at the same step k <= h, and the pair is kept when
    some entry is positive.  Every joint state the point could reach is
    such a pair, so a dropped point has zero risk under any policy and
    owns no utility; the optimum and the fcfs plan do not change.  A step
    whose pairs all drop, for instance with only parked vehicles beside
    the queued AVs, leaves agent-disjoint singletons, which the DP
    certificate decides.  Returns (instance, BuildInfo).
    """
    cfg = scenario.config
    steps = scenario.steps_per_plan

    active = [v for v in vehicles if v.phase != "done"]
    lane_pool = {}
    for v in active:
        lane_pool.setdefault(v.lane, []).append(v.priority)
    lane_mean = {lane: sum(ps) / len(ps) for lane, ps in lane_pool.items()}

    agents = {}
    profiles = {}  # vehicle -> own state -> motion profile
    moving = {}  # vehicle -> per step k, the own states that carry a profile
    for v in sorted(active, key=lambda u: u.id):
        lane = scenario.lanes[v.lane]
        transition = {}
        utility = {}
        weights = None
        if v.controllable:
            speed_names = sorted(cfg.speeds)
            actions = tuple(f"go_{sp}" for sp in speed_names) + ("wait",)
            initial = ("wait", 0)
            go = {
                f"go_{sp}": scenario.variant_key(v.lane, v.slot, lane.kind, sp)
                for sp in speed_names
            }
            # a go at step m < horizon enters its run at step m + 1
            first = {
                a: _run_chain(transition, utility, actions, scenario, var, steps, horizon - 1)
                for a, var in go.items()
            }
            for m in range(horizon):
                transition[(("wait", m), "wait")] = {("wait", m + 1): 1.0}
                utility[(("wait", m), "wait")] = 0.0
                for a, var in go.items():
                    transition[(("wait", m), a)] = {first[a]: 1.0}
                    utility[(("wait", m), a)] = action_utility(
                        cfg.lambdas,
                        scenario.velocity(v.lane, var[3]),
                        v.priority,
                        v.wait_s + m * cfg.dt,
                        lane_mean[v.lane],
                        cfg.w_max,
                    )
        elif v.kind == "av":  # committed AV, obstacle
            actions = ("continue",)
            initial = _run_chain(
                transition, utility, actions, scenario, v.variant, v.progression, horizon
            )
        else:  # hv
            actions = ("hv",)
            weights = _hv_candidate_weights(scenario, v)
            if v.phase == "queued" and green_side != lane.side:
                initial = ("wait", 0)
                for m in range(horizon):
                    transition[(("wait", m), "hv")] = {("wait", m + 1): 1.0}
                    utility[(("wait", m), "hv")] = 0.0
            elif len(weights) == 1 and v.phase == "running":
                (var,) = weights
                initial = _run_chain(
                    transition, utility, actions, scenario, var, v.progression, horizon
                )
            else:
                # entering or still ambiguous: branch per the intent schedule
                initial = ("hv", v.progression)
                branch = {}
                for var, q in weights.items():
                    nxt = _run_chain(
                        transition, utility, actions, scenario, var, v.progression + steps,
                        horizon - 1,
                    )
                    branch[nxt] = branch.get(nxt, 0.0) + q
                transition[(initial, "hv")] = branch
                utility[(initial, "hv")] = 0.0

        states = set()
        successors = {}
        for (s, _a), row in transition.items():
            states.add(s)
            states.update(row)
            successors.setdefault(s, set()).update(row)
        agents[v.id] = AgentMdp(
            states=states,
            actions=actions,
            transition=transition,
            utility=utility,
            initial_state=initial,
            wait_action="wait" if "wait" in actions else None,
        )
        # one forward pass over the own transitions: the own states at each
        # step 0..horizon, and the motion profile of each
        reach = [{initial}]
        for _ in range(horizon):
            reach.append({t for s in reach[-1] for t in successors[s]})
        profiles[v.id] = {
            s: _state_profiles(scenario, weights, s) for layer in reach for s in layer
        }
        moving[v.id] = [[s for s in layer if profiles[v.id][s]] for layer in reach]

    # interaction points: one singleton per vehicle (owns its utility), one
    # pair point per pair with a controllable member that can collide
    # within the horizon
    points = []
    ids = sorted(agents)
    singleton_ids = {}
    for n, vid in enumerate(ids):
        points.append(
            InteractionPoint(
                id=n,
                members=(vid,),
                utility_owners=(True,),
                risk={},
            )
        )
        singleton_ids[vid] = n
    controllable = {v.id for v in active if v.controllable}
    pair_ids = {}
    next_id = len(points)
    for ua, ub in itertools.combinations(ids, 2):
        if ua not in controllable and ub not in controllable:
            continue
        table = _pair_risk_table(
            scenario, profiles[ua], profiles[ub], moving[ua], moving[ub]
        )
        if not table:
            continue
        points.append(
            InteractionPoint(
                id=next_id,
                members=(ua, ub),
                utility_owners=(False, False),
                risk={"collision": StateRisk.from_aggregate(table)},
            )
        )
        pair_ids[(ua, ub)] = next_id
        next_id += 1

    instance = MccSspInstance(
        agents=agents,
        interactions=tuple(points),
        horizon=horizon,
        risk_budgets={"collision": delta},
    )
    order = sorted(active, key=lambda u: (u.arrival_s, u.id))
    return instance, BuildInfo(singleton_ids, pair_ids, [u.id for u in order])


def _run_chain(transition, utility, actions, scenario, variant, progression, rows):
    """Write the deterministic run of ``variant`` from ``progression`` on,
    one planning interval per state and the same successor under every
    action, and return its first state: ("done",) past the tube, which is
    absorbing.  Only the first ``rows`` states of the run get a row: the
    caller passes how many it reaches before the horizon, so the run ends
    on a state without one."""
    steps = scenario.steps_per_plan
    tube_len = len(scenario.tube(variant))

    def at(p):
        return ("run", variant, p) if p < tube_len else ("done",)

    for k in range(rows):
        state, nxt = at(progression + k * steps), at(progression + (k + 1) * steps)
        for a in actions:
            transition[(state, a)] = {nxt: 1.0}
            utility[(state, a)] = 0.0
        if nxt == state:
            break
    return at(progression)


def _table_axis(scenario: Scenario, variant: tuple, progression: int) -> int | None:
    """Pair-table axis of a vehicle running ``variant`` at ``progression``,
    or None once it is past the tube.  The window spans the just-traversed
    interval plus the remainder, so a grant's very first motion is charged
    the moment it is committed."""
    axis = max(progression - scenario.steps_per_plan, 0) + 1
    return axis if axis <= len(scenario.tube(variant)) else None


def _state_profiles(scenario: Scenario, weights: dict | None, state) -> tuple:
    """(variant, axis, weight) mixture describing a vehicle state's motion
    over its remaining action window; an unresolved HV mixes its intent
    ``weights``, fixed at build time.

    Waiting vehicles are parked at their stop anchor, which the layout
    keeps out of every conflict zone, so they carry no risk; this is what
    makes the all-wait plan feasible at any budget."""
    if state[0] == "run":
        mixture, p = {state[1]: 1.0}, state[2]
    elif state[0] == "hv":
        mixture, p = weights, state[1]
    else:  # waiting or done
        return ()
    out = []
    for var, q in mixture.items():
        axis = _table_axis(scenario, var, p)
        if axis is not None:
            out.append((var, axis, q))
    return tuple(out)


def _pair_risk_table(
    scenario: Scenario, profiles_a: dict, profiles_b: dict, moving_a: list, moving_b: list
) -> dict:
    """Collision risk of a vehicle pair at each joint state ``(sa, sb)``
    of two own states that carry a motion profile at the same step:
    ``moving_*[k]`` lists them at step k.  Those joint states are all
    that the pair point's layers can hold with both vehicles moving, and
    a parked or finished vehicle carries no risk, so a joint state left
    out reads zero.  Only positive entries are stored."""
    table = {}
    for layer_a, layer_b in zip(moving_a, moving_b):
        for sa in layer_a:
            for sb in layer_b:
                if (sa, sb) in table:
                    continue
                total = 0.0
                for va, xa, wa in profiles_a[sa]:
                    for vb, xb, wb in profiles_b[sb]:
                        total += wa * wb * scenario.pair_lookup(va, xa, vb, xb)
                table[(sa, sb)] = min(max(total, 0.0), 1.0)
    return {joint: p for joint, p in table.items() if p > 0.0}


# ---------------------------------------------------------------------------
# receding-horizon simulation


@dataclass
class SimMetrics:
    seed: int
    planner: str
    delta: float
    horizon: int
    hv_fraction: float
    duration_s: float
    departures: int = 0
    throughput_vpm: float = 0.0
    max_wait_s: float = 0.0
    mean_wait_s: float = 0.0
    collisions: int = 0
    planning_steps: int = 0
    collision_rate: float = 0.0
    mean_plan_s: float = 0.0
    halts: int = 0
    entries: dict = field(default_factory=dict)  # vehicle id -> step index


def green_side_at(cfg: ScenarioConfig, t_s: float) -> str:
    return SIDES[int(t_s // cfg.signal_cycle_s) % len(SIDES)]


def _spawn(scenario, vehicles, counters, lane, t_s, kind, slot):
    vid = f"v{counters['n']:05d}"
    counters["n"] += 1
    vehicles.append(
        VehicleState(
            id=vid,
            kind=kind,
            lane=lane,
            slot=slot,
            priority=scenario.config.priority,
            arrival_s=t_s,
            true_kind=scenario.lanes[lane].kind if kind == "hv" else None,
        )
    )


def _hv_gap_clear(scenario, vehicle, active) -> bool:
    """Human gap acceptance: enter on green only when the whole maneuver's
    risk against every vehicle already in motion stays below the yield
    threshold (people do not drive into a visibly occupied box)."""
    cfg = scenario.config
    var = scenario.variant_key(vehicle.lane, vehicle.slot, vehicle.true_kind, cfg.hv_speed)
    for other in active:
        if other.id == vehicle.id or other.phase != "running" or other.variant is None:
            continue
        axis = _table_axis(scenario, other.variant, other.progression)
        if axis is None:
            continue
        if scenario.pair_lookup(var, 1, other.variant, axis) > cfg.hv_yield_threshold:
            return False
    return True


def _step_collision_prob(scenario, v1, prev1, v2, prev2) -> float:
    """Realized collision probability for the step just executed, from the
    same per-index matrices that feed the risk tables."""

    def indices(vehicle, prev):
        if vehicle.phase == "running" and vehicle.variant is not None:
            tube_len = len(scenario.tube(vehicle.variant))
            lo, hi = prev, vehicle.progression
            return vehicle.variant, [i for i in range(lo + 1, hi + 1) if i <= tube_len - 1]
        return None, []  # parked: out of the conflict zone, matching the planner

    var1, idx1 = indices(v1, prev1)
    var2, idx2 = indices(v2, prev2)
    if not idx1 or not idx2:
        return 0.0
    pair = scenario.pair_risk(var1, var2)
    if pair is None:
        return 0.0
    matrix = pair.matrix.T if var2 < var1 else pair.matrix
    return state_risk_tilde(matrix[i1, i2] for i1, i2 in zip(idx1, idx2))


def simulate(
    scenario: Scenario,
    planner: str = "mccssp",
    duration_s: float = 60.0,
    seed: int = 0,
    *,
    horizon: int,
    delta: float,
) -> SimMetrics:
    """Receding-horizon run: spawn, plan, commit the first interval, advance
    tubes, sample collisions, and remove departed vehicles.  ``planner`` is
    one of PLANNERS; ``duration_s`` must be positive, ``horizon`` an integer
    >= 1 and the risk budget ``delta`` a number in [0, 1]."""
    if planner not in PLANNERS:
        raise ValueError(f"unknown planner {planner!r}; expected one of {PLANNERS}")
    if not duration_s > 0:
        raise ValueError(f"duration_s must be positive, got {duration_s!r}")
    _require_int("horizon", horizon, 1)
    _require_unit("delta", delta)
    cfg = scenario.config
    rng = np.random.default_rng(seed)
    steps = int(round(duration_s / cfg.dt))
    metrics = SimMetrics(
        seed=seed, planner=planner, delta=delta, horizon=horizon,
        hv_fraction=cfg.hv_fraction, duration_s=duration_s,
    )
    vehicles: list = []
    counters = {"n": 0}
    spawned = {lane: 0 for lane in scenario.lanes}
    waits_done: list = []
    plan_s = []
    halted_by: str | None = None

    for step in range(steps):
        t_s = step * cfg.dt
        green = green_side_at(cfg, t_s)

        # promotion: waiting vehicles roll forward into freed slots
        for lane in scenario.lanes:
            queued = sorted(
                (v for v in vehicles if v.lane == lane and v.phase == "queued"),
                key=lambda v: v.arrival_s,
            )
            for new_slot, v in enumerate(queued):
                v.slot = min(new_slot, cfg.queue_depth - 1)

        # arrivals
        if halted_by is None:
            for lane in scenario.lanes:
                rate = cfg.lane_arrival.get(lane, cfg.arrival_rate)
                cap = cfg.lane_max_spawns.get(lane)
                if cap is not None and spawned[lane] >= cap:
                    continue
                queued = sum(1 for v in vehicles if v.lane == lane and v.phase == "queued")
                if queued >= cfg.queue_depth:
                    continue
                draw = rng.random()  # always drawn: keeps the stream aligned
                if rate == "always" or draw < float(rate) * cfg.dt:
                    kind = "hv" if rng.random() < cfg.hv_fraction else "av"
                    _spawn(scenario, vehicles, counters, lane, t_s, kind, queued)
                    spawned[lane] += 1

        active = [v for v in vehicles if v.phase != "done"]
        prev_progress = {v.id: v.progression for v in active}
        committed: dict = {}

        if halted_by is None and active:
            plannable = [v for v in active if v.controllable]
            if plannable:
                instance, info = build_intersection_instance(
                    scenario, active, green_side=green, horizon=horizon, delta=delta,
                )
                t0 = time.perf_counter()
                if planner == "mccssp":
                    result = solve_instance(instance, time_limit=cfg.time_limit)
                    if result.status not in ("optimal", "time_limit"):
                        raise RuntimeError(
                            f"planner returned {result.status}; all-wait should be feasible"
                        )
                    policy = result.policy
                else:
                    layers = reachable_layers(instance)
                    policy = fcfs_plan(layers, info.arrival_order, delta)
                plan_s.append(time.perf_counter() - t0)
                metrics.planning_steps += 1
                # read each vehicle's step-0 action off its singleton point
                for vid, point_id in info.singleton_ids.items():
                    agent = instance.agents[vid]
                    action = policy.action(point_id, (agent.initial_state,), 0)[0]
                    committed[vid] = action

        # execute one interval: a queued vehicle enters a variant (an AV
        # granted go_*, an HV on green with a clear gap) or waits
        for v in active:
            if v.phase == "queued":
                action = committed.get(v.id, "wait")
                entry = None
                if v.kind == "av" and action.startswith("go_"):
                    speed = action.split("_", 1)[1]
                    kind = scenario.lanes[v.lane].kind
                    entry = scenario.variant_key(v.lane, v.slot, kind, speed)
                elif (
                    v.kind == "hv"
                    and green == scenario.lanes[v.lane].side
                    and halted_by is None
                    and _hv_gap_clear(scenario, v, active)
                ):
                    entry = scenario.variant_key(v.lane, v.slot, v.true_kind, cfg.hv_speed)
                if entry is None:
                    v.wait_s = min(v.wait_s + cfg.dt, cfg.w_max)
                else:
                    v.variant, v.phase, v.progression = entry, "running", 0
                    metrics.entries[v.id] = (step, v.lane)
            if v.phase == "running":
                if halted_by is None or v.id == halted_by:
                    v.progression += scenario.steps_per_plan

        # rare off-distribution deviation: halt everything until it clears
        if halted_by is None and cfg.deviation_rate > 0.0:
            for v in active:
                if v.kind == "hv" and v.phase == "running" and rng.random() < cfg.deviation_rate:
                    other = "left" if v.variant[2] == "straight" else "straight"
                    v.variant = scenario.variant_key(v.lane, v.slot, other, cfg.hv_speed)
                    v.progression = min(v.progression, len(scenario.tube(v.variant)) - 1)
                    halted_by = v.id
                    metrics.halts += 1
                    break

        # collision sampling on the realized step (moving pairs only)
        moving = [v for v in active if v.phase == "running"]
        for v1, v2 in itertools.combinations(moving, 2):
            p = _step_collision_prob(
                scenario, v1, prev_progress.get(v1.id, 0), v2, prev_progress.get(v2.id, 0)
            )
            if p > 0.0 and rng.random() < p:
                metrics.collisions += 1

        # departures
        for v in active:
            if v.phase == "running" and v.progression >= len(scenario.tube(v.variant)):
                v.phase = "done"
                metrics.departures += 1
                waits_done.append(v.wait_s)
                if halted_by == v.id:
                    halted_by = None

    all_waits = waits_done + [v.wait_s for v in vehicles if v.phase != "done"]
    metrics.throughput_vpm = metrics.departures / (duration_s / 60.0)
    metrics.max_wait_s = max(all_waits, default=0.0)
    metrics.mean_wait_s = float(np.mean(all_waits)) if all_waits else 0.0
    metrics.collision_rate = (
        metrics.collisions / metrics.planning_steps if metrics.planning_steps else 0.0
    )
    metrics.mean_plan_s = float(np.mean(plan_s)) if plan_s else 0.0
    return metrics


# ---------------------------------------------------------------------------
# scenario factories


def default_scenario(**overrides) -> Scenario:
    return Scenario(ScenarioConfig(**overrides))


def case_study_scenario(lambda2: float, **overrides) -> Scenario:
    """Sustained cross-traffic case: straight streams from the north and
    south flow continuously while a single left-turning vehicle waits on
    the west approach.  The turn's path is co-located in time with the
    southbound stream, so the planner must pick one side; without a
    waiting-time weight the streams' velocity utility always wins.  The
    case study runs it at horizon 1 and delta 0.01."""
    params = dict(
        speeds={"s0": 16.0},
        lane_speed_scale={"W1": 0.5},
        lambdas=(1.55, 0.0, lambda2, 0.0),
        enabled_lanes=("N0", "S0", "W1"),
        lane_arrival={"N0": "always", "S0": "always", "W1": "always"},
        lane_max_spawns={"W1": 1},
        arrival_rate=0.0,
        queue_depth=1,
        hv_fraction=0.0,
    )
    params.update(overrides)
    return Scenario(ScenarioConfig(**params))
