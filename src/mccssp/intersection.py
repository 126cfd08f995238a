"""Risk-aware intersection domain: scenario geometry, maneuver flow tubes,
pairwise risk tables, snapshot-to-instance construction, the multi-term
utility, and receding-horizon simulation against either planner.

Layout is a two-lane four-sided intersection: per side an outer lane for
going straight and an inner lane for turning left, with queue slots behind
each stop line.  Vehicle motion is table-driven: every (lane, slot,
maneuver kind, speed) variant owns a flow tube, and conflicting variant
pairs own a dense progression-pair risk table computed once and cached.

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
"""

from __future__ import annotations

import hashlib
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
from .pft import (
    Pft,
    VehicleGeometry,
    pft_from_path,
    step_probability_matrix,
    window_risk_table,
)

SIDES = ("N", "E", "S", "W")
KINDS = ("straight", "left")

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
    """All tunable scenario parameters; defaults mirror the two-lane
    four-sided setup with one-second horizons and 6 Hz tubes."""

    name: str = "two-lane-four-sided"
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
    horizon: int = 1
    delta: float = 0.05
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
    hv_true_random: bool = False
    hv_yield_threshold: float = 0.3
    deviation_rate: float = 0.0
    mc_samples: int = 2000
    mc_seed: int = 0
    noise_sd: float = 0.15
    vehicle_length: float = 4.4
    vehicle_width: float = 1.9
    conflict_reach: float = 9.0
    conflict_risk_floor: float = 1e-5
    priority: float = 1.0
    time_limit: float | None = None


@dataclass
class PairRisk:
    """Step-probability matrix and windowed risk table for one ordered
    variant pair (axis 0 = first variant)."""

    variants: tuple
    matrix: np.ndarray
    table: np.ndarray  # (len1 + 1, len2 + 1)

    def lookup(self, axis1: int, axis2: int) -> float:
        return float(self.table[axis1, axis2])


class Scenario:
    """Built scenario: lanes, lazily constructed tubes and pair tables."""

    def __init__(self, config: ScenarioConfig):
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
        """Risk structure for an unordered variant pair, or None when the
        tubes never come within reach (no interaction)."""
        key = (va, vb) if va <= vb else (vb, va)
        if key not in self._pairs:
            t1, t2 = self.tube(key[0]), self.tube(key[1])
            gap = np.linalg.norm(
                t1.means[:, None, :] - t2.means[None, :, :], axis=2
            ).min()
            if gap > self.config.conflict_reach and key[0] != key[1]:
                self._pairs[key] = None
            else:
                digest = hashlib.md5(repr(key).encode()).digest()
                pair_seed = int(
                    np.random.SeedSequence(
                        (self.config.mc_seed, int.from_bytes(digest[:8], "little"))
                    ).generate_state(1)[0]
                )
                matrix = step_probability_matrix(
                    t1, t2, self.geometry, self.geometry,
                    n=self.config.mc_samples, seed=pair_seed,
                )
                table = window_risk_table(matrix, max(len(t1), len(t2)))
                if table.max() < self.config.conflict_risk_floor and key[0] != key[1]:
                    self._pairs[key] = None
                else:
                    self._pairs[key] = PairRisk(key, matrix, table)
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
    w_max: float = 300.0,
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
    entered_s: float | None = None

    @property
    def controllable(self) -> bool:
        return self.kind == "av" and self.phase == "queued"


def _hv_candidate_weights(scenario: Scenario, vehicle: VehicleState) -> dict:
    """Scripted intent schedule: 50/50 at entry, linearly approaching
    certainty on the true maneuver by the commit fraction of the tube."""
    cfg = scenario.config
    lane = scenario.lanes[vehicle.lane]
    true_kind = vehicle.true_kind or lane.kind
    other = "left" if true_kind == "straight" else "straight"
    tube_len = len(scenario.tube(scenario.variant_key(vehicle.lane, vehicle.slot, true_kind, cfg.hv_speed)))
    commit = max(cfg.hv_commit_fraction * tube_len, 1e-9)
    q_true = 0.5 + 0.5 * min(vehicle.progression / commit, 1.0)
    weights = {true_kind: q_true}
    if q_true < 1.0:
        weights[other] = 1.0 - q_true
    return weights


@dataclass
class BuildInfo:
    vehicle_meta: dict
    singleton_ids: dict
    pair_ids: dict
    arrival_order: list


def build_intersection_instance(
    scenario: Scenario,
    vehicles: list,
    green_side: str | None = None,
    horizon: int | None = None,
    delta: float | None = None,
    lambdas: tuple | None = None,
) -> tuple:
    """Snapshot -> solver instance.

    Queued AVs choose among speed variants of their lane maneuver or wait;
    executing vehicles are frozen single-action obstacles; HVs hold a
    single action whose transition encodes the intent schedule (wait-only
    on red).  Returns (instance, BuildInfo).
    """
    cfg = scenario.config
    horizon = cfg.horizon if horizon is None else horizon
    delta = cfg.delta if delta is None else delta
    lambdas = cfg.lambdas if lambdas is None else lambdas
    steps = scenario.steps_per_plan

    active = [v for v in vehicles if v.phase != "done"]
    lane_pool = {}
    for v in active:
        lane_pool.setdefault(v.lane, []).append(v.priority)
    lane_mean = {lane: float(np.mean(ps)) for lane, ps in lane_pool.items()}

    meta = {}
    agents = {}
    for v in sorted(active, key=lambda u: u.id):
        lane = scenario.lanes[v.lane]
        transition = {}
        utility = {}
        if v.kind == "av" and v.phase == "queued":
            speed_names = sorted(cfg.speeds)
            actions = tuple(f"go_{sp}" for sp in speed_names) + ("wait",)
            initial = ("wait", 0)
            candidates = {
                f"go_{sp}": scenario.variant_key(v.lane, v.slot, lane.kind, sp)
                for sp in speed_names
            }
            for m in range(horizon + 1):
                wait_state = ("wait", m)
                for a in actions:
                    if a == "wait":
                        transition[(wait_state, a)] = {("wait", m + 1): 1.0}
                        utility[(wait_state, a)] = 0.0
                    else:
                        var = candidates[a]
                        tube_len = len(scenario.tube(var))
                        nxt = ("run", var, steps) if steps < tube_len else ("done",)
                        transition[(wait_state, a)] = {nxt: 1.0}
                        utility[(wait_state, a)] = action_utility(
                            lambdas,
                            scenario.velocity(v.lane, var[3]),
                            v.priority,
                            v.wait_s + m * cfg.dt,
                            lane_mean[v.lane],
                            cfg.w_max,
                        )
            _close_running_states(transition, utility, actions, scenario, steps)
            wait_variant = candidates[f"go_{speed_names[0]}"]
            cand_variants = list(candidates.values())
        elif v.kind == "av":  # committed AV, obstacle
            actions = ("continue",)
            initial = ("run", v.variant, v.progression)
            _chain_running(transition, utility, actions, scenario, v.variant, v.progression, steps)
            wait_variant = v.variant
            cand_variants = [v.variant]
        else:  # hv
            actions = ("hv",)
            on_green = green_side == lane.side
            weights = _hv_candidate_weights(scenario, v)
            resolved = len(weights) == 1
            if v.phase == "queued" and not on_green:
                initial = ("wait", 0)
                for m in range(horizon + 1):
                    transition[(("wait", m), "hv")] = {("wait", m + 1): 1.0}
                    utility[(("wait", m), "hv")] = 0.0
                cand_variants = [
                    scenario.variant_key(v.lane, v.slot, kind, cfg.hv_speed)
                    for kind in weights
                ]
                wait_variant = cand_variants[0]
            elif resolved and v.phase == "running":
                kind = next(iter(weights))
                var = scenario.variant_key(v.lane, v.slot, kind, cfg.hv_speed)
                initial = ("run", var, v.progression)
                _chain_running(transition, utility, actions, scenario, var, v.progression, steps)
                wait_variant = var
                cand_variants = [var]
            else:
                # entering or still ambiguous: branch per the intent schedule
                initial = ("hv", v.progression)
                branch = {}
                for kind, q in weights.items():
                    var = scenario.variant_key(v.lane, v.slot, kind, cfg.hv_speed)
                    nxt_p = v.progression + steps
                    nxt = ("run", var, nxt_p) if nxt_p < len(scenario.tube(var)) else ("done",)
                    branch[nxt] = branch.get(nxt, 0.0) + q
                transition[(initial, "hv")] = branch
                utility[(initial, "hv")] = 0.0
                cand_variants = []
                for kind in weights:
                    var = scenario.variant_key(v.lane, v.slot, kind, cfg.hv_speed)
                    cand_variants.append(var)
                    _chain_running(
                        transition, utility, actions, scenario, var,
                        v.progression + steps, steps,
                    )
                wait_variant = cand_variants[0]
        transition[(("done",), actions[0])] = {("done",): 1.0}
        utility[(("done",), actions[0])] = 0.0
        for a in actions[1:]:
            transition[(("done",), a)] = {("done",): 1.0}
            utility[(("done",), a)] = 0.0

        states = set()
        for (s, _a), row in transition.items():
            states.add(s)
            states.update(row)
        agents[v.id] = AgentMdp(
            states=states,
            actions=actions,
            transition=transition,
            utility=utility,
            initial_state=initial,
            wait_action="wait" if "wait" in actions else None,
        )
        meta[v.id] = {
            "vehicle": v,
            "wait_variant": wait_variant,
            "candidates": cand_variants,
            "weights": _hv_candidate_weights(scenario, v) if v.kind == "hv" else None,
            "green": green_side == lane.side,
        }

    # interaction points: one singleton per vehicle (owns its utility), one
    # pair point per conflicting pair with a controllable member
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
    pair_ids = {}
    next_id = len(points)
    for ua, ub in itertools.combinations(ids, 2):
        va, vb = meta[ua]["vehicle"], meta[ub]["vehicle"]
        if not (va.controllable or vb.controllable):
            continue
        conflicting = any(
            scenario.pair_risk(ca, cb) is not None
            for ca in meta[ua]["candidates"] or [meta[ua]["wait_variant"]]
            for cb in meta[ub]["candidates"] or [meta[ub]["wait_variant"]]
        )
        if not conflicting:
            continue
        risk_fn = _make_pair_risk(scenario, meta[ua], meta[ub])
        points.append(
            InteractionPoint(
                id=next_id,
                members=(ua, ub),
                utility_owners=(False, False),
                risk={"collision": StateRisk.from_aggregate(risk_fn)},
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
    return instance, BuildInfo(meta, singleton_ids, pair_ids, [u.id for u in order])


def _close_running_states(transition, utility, actions, scenario, steps):
    """Complete the chain for every run state referenced by the table."""
    pending = [
        s for row in list(transition.values()) for s in row if s[0] == "run"
    ]
    seen = set()
    while pending:
        state = pending.pop()
        if state in seen or state[0] != "run":
            continue
        seen.add(state)
        _, var, p = state
        tube_len = len(scenario.tube(var))
        nxt_p = p + steps
        nxt = ("run", var, nxt_p) if nxt_p < tube_len else ("done",)
        for a in actions:
            transition[(state, a)] = {nxt: 1.0}
            utility[(state, a)] = 0.0
        pending.append(nxt)


def _chain_running(transition, utility, actions, scenario, variant, progression, steps):
    tube_len = len(scenario.tube(variant))
    p = progression
    while p < tube_len:
        nxt_p = p + steps
        nxt = ("run", variant, nxt_p) if nxt_p < tube_len else ("done",)
        for a in actions:
            transition[(("run", variant, p), a)] = {nxt: 1.0}
            utility[(("run", variant, p), a)] = 0.0
        p = nxt_p


def _state_profiles(scenario: Scenario, meta_v: dict, state) -> list:
    """(variant, axis, weight) mixture describing a vehicle state's motion
    over its remaining action window.

    Waiting vehicles are parked at their stop anchor, which the layout
    keeps out of every conflict zone, so they carry no risk; this is what
    makes the all-wait plan feasible at any budget."""
    if state == ("done",) or state[0] == "wait":
        return []
    steps = scenario.steps_per_plan
    if state[0] == "run":
        _, var, p = state
        start = max(p - steps, 0)
        if start + 1 > len(scenario.tube(var)):
            return []
        # window spans the just-traversed interval plus the remainder, so a
        # grant's very first motion is charged the moment it is committed
        return [(var, start + 1, 1.0)]
    # unresolved hv
    _, p = state
    cfg = scenario.config
    vehicle = meta_v["vehicle"]
    out = []
    for kind, q in _hv_candidate_weights(scenario, vehicle).items():
        var = scenario.variant_key(vehicle.lane, vehicle.slot, kind, cfg.hv_speed)
        axis = min(max(p - steps, 0) + 1, len(scenario.tube(var)))
        out.append((var, axis, q))
    return out


def _make_pair_risk(scenario: Scenario, meta_a: dict, meta_b: dict):
    def risk(joint_state):
        sa, sb = joint_state
        total = 0.0
        for va, xa, wa in _state_profiles(scenario, meta_a, sa):
            for vb, xb, wb in _state_profiles(scenario, meta_b, sb):
                total += wa * wb * scenario.pair_lookup(va, xa, vb, xb)
        return min(max(total, 0.0), 1.0)

    return risk


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
    mean_build_s: float = 0.0
    mean_solve_s: float = 0.0
    halts: int = 0
    entries: dict = field(default_factory=dict)  # vehicle id -> step index


def green_side_at(cfg: ScenarioConfig, t_s: float) -> str:
    return SIDES[int(t_s // cfg.signal_cycle_s) % len(SIDES)]


def _spawn(scenario, vehicles, counters, lane, t_s, rng, kind, slot):
    cfg = scenario.config
    vid = f"v{counters['n']:05d}"
    counters["n"] += 1
    true_kind = scenario.lanes[lane].kind
    if kind == "hv" and cfg.hv_true_random:
        true_kind = KINDS[int(rng.integers(2))]
    vehicles.append(
        VehicleState(
            id=vid,
            kind=kind,
            lane=lane,
            slot=slot,
            priority=cfg.priority,
            arrival_s=t_s,
            true_kind=true_kind if kind == "hv" else None,
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
        axis = max(other.progression - scenario.steps_per_plan, 0) + 1
        if axis > len(scenario.tube(other.variant)):
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
    horizon: int | None = None,
    delta: float | None = None,
) -> SimMetrics:
    """Receding-horizon run: spawn, plan, commit the first interval, advance
    tubes, sample collisions, and remove departed vehicles."""
    cfg = scenario.config
    horizon = cfg.horizon if horizon is None else horizon
    delta = cfg.delta if delta is None else delta
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
    plan_s, build_s, solve_s = [], [], []
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
                    _spawn(scenario, vehicles, counters, lane, t_s, rng, kind, queued)
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
                    build_s.append(result.build_seconds)
                    solve_s.append(result.solve_seconds)
                elif planner == "fcfs":
                    layers = reachable_layers(instance)
                    policy = fcfs_plan(instance, info.arrival_order, delta, layers)
                else:
                    raise ValueError(f"unknown planner {planner!r}")
                plan_s.append(time.perf_counter() - t0)
                metrics.planning_steps += 1
                # read each vehicle's step-0 action off its singleton point
                for vid, point_id in info.singleton_ids.items():
                    agent = instance.agents[vid]
                    action = policy.action(point_id, (agent.initial_state,), 0)[0]
                    committed[vid] = action

        # execute one interval
        for v in active:
            action = committed.get(v.id)
            if v.kind == "av" and v.phase == "queued":
                if action is not None and action.startswith("go_"):
                    speed = action.split("_", 1)[1]
                    v.variant = scenario.variant_key(
                        v.lane, v.slot, scenario.lanes[v.lane].kind, speed
                    )
                    v.phase = "running"
                    v.progression = 0
                    v.entered_s = t_s
                    metrics.entries[v.id] = (step, v.lane)
                else:
                    v.wait_s = min(v.wait_s + cfg.dt, cfg.w_max)
            elif v.kind == "hv" and v.phase == "queued":
                entering = (
                    green == scenario.lanes[v.lane].side
                    and halted_by is None
                    and _hv_gap_clear(scenario, v, active)
                )
                if entering:
                    v.variant = scenario.variant_key(
                        v.lane, v.slot, v.true_kind, cfg.hv_speed
                    )
                    v.phase = "running"
                    v.progression = 0
                    v.entered_s = t_s
                    metrics.entries[v.id] = (step, v.lane)
                else:
                    v.wait_s = min(v.wait_s + cfg.dt, cfg.w_max)
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
    metrics.mean_build_s = float(np.mean(build_s)) if build_s else 0.0
    metrics.mean_solve_s = float(np.mean(solve_s)) if solve_s else 0.0
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
    waiting-time weight the streams' velocity utility always wins."""
    params = dict(
        name="waiting-time-case-study",
        speeds={"s0": 16.0},
        lane_speed_scale={"W1": 0.5},
        lambdas=(1.55, 0.0, lambda2, 0.0),
        enabled_lanes=("N0", "S0", "W1"),
        lane_arrival={"N0": "always", "S0": "always", "W1": "always"},
        lane_max_spawns={"W1": 1},
        arrival_rate=0.0,
        delta=0.01,
        horizon=1,
        queue_depth=1,
        hv_fraction=0.0,
    )
    params.update(overrides)
    return Scenario(ScenarioConfig(**params))
