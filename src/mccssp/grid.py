"""Multi-agent grid benchmark: independent robots on a bounded grid with
uncertain movement, hash-seeded risky and low-utility cells, and a shared
risk budget.

Cell properties derive from a stable per-cell integer mix of (seed, x, y),
not from enumerating the grid, so two grids of different ambient size have
identical local structure around the same coordinates; together with lazy
transition/utility callables this keeps a 10000x10000 grid exactly as
cheap as a 100x100 one.

The published setup is fixed here: a move succeeds with probability
``SUCCESS_PROB`` and otherwise leaves the robot in its cell, and a
``LOW_UTILITY_FRACTION`` share of cells pays ``UTILITY_LOW`` per step,
the rest ``UTILITY_HIGH``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .ilp import SolverFailure, SolveResult, solve
from .model import (
    AgentMdp,
    InteractionPoint,
    MccSspInstance,
    StateRisk,
    reachable_layers,
)

MOVES = {
    "east": (1, 0),
    "north": (0, 1),
    "south": (0, -1),
    "west": (-1, 0),
}

SUCCESS_PROB = 0.8
LOW_UTILITY_FRACTION = 0.10
UTILITY_LOW = 1.0
UTILITY_HIGH = 2.0

_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def cell_u01(seed: int, x: int, y: int, salt: int) -> float:
    """Deterministic uniform draw for one cell, independent of grid size."""
    h = _splitmix64(seed & _MASK)
    for v in (x, y, salt):
        h = _splitmix64(h ^ (v & _MASK))
    return h / 2.0**64


class GridCells:
    """Implicit membership container for width x height cells."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height

    def __contains__(self, cell) -> bool:
        try:
            x, y = cell
        except (TypeError, ValueError):
            return False
        return 0 <= x < self.width and 0 <= y < self.height

    def __len__(self) -> int:
        return self.width * self.height


@dataclass
class GridSpec:
    """Benchmark parameters.  Defaults follow the published setup, whose
    motion and utilities are the module constants; the risky cells'
    failure probability is not published and is exposed here."""

    width: int = 10_000
    height: int = 10_000
    n_agents: int = 2
    risky_fraction: float = 0.05
    risky_risk_value: float = 0.1
    horizon: int = 3
    risk_budget: float = 0.2
    seed: int = 0
    start_positions: list | None = field(default=None)

    def validate(self) -> None:
        for name in ("width", "height"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed!r}")
        for name in ("risky_fraction", "risky_risk_value", "risk_budget"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.width * self.height < self.n_agents:
            raise ValueError("grid too small for the number of agents")


def _clip(spec: GridSpec, x: int, y: int) -> tuple:
    return (min(max(x, 0), spec.width - 1), min(max(y, 0), spec.height - 1))


def cell_is_risky(spec: GridSpec, cell: tuple) -> bool:
    return cell_u01(spec.seed, cell[0], cell[1], 1) < spec.risky_fraction

def cell_utility(spec: GridSpec, cell: tuple) -> float:
    low = cell_u01(spec.seed, cell[0], cell[1], 2) < LOW_UTILITY_FRACTION
    return UTILITY_LOW if low else UTILITY_HIGH


def _transition(spec: GridSpec):
    def rows(state, action):
        x, y = state
        dx, dy = MOVES[action]
        target = _clip(spec, x + dx, y + dy)
        out = {target: SUCCESS_PROB}
        out[state] = out.get(state, 0.0) + (1.0 - SUCCESS_PROB)
        return out

    return rows


def generate_grid_instance(spec: GridSpec) -> MccSspInstance:
    """Instance with one single-agent interaction point per robot (agents
    are independent except for the shared risk budget)."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    if spec.start_positions is not None:
        starts = [tuple(p) for p in spec.start_positions]
        if len(starts) != spec.n_agents:
            raise ValueError("start_positions must match n_agents")
    else:
        starts = [
            (int(rng.integers(spec.width)), int(rng.integers(spec.height)))
            for _ in range(spec.n_agents)
        ]

    cells = GridCells(spec.width, spec.height)
    transition = _transition(spec)

    def utility(state, action):
        return cell_utility(spec, state)

    def state_risk(joint_state):
        cell = joint_state[0]
        return spec.risky_risk_value if cell_is_risky(spec, cell) else 0.0

    agents = {}
    points = []
    for n, start in enumerate(starts):
        name = f"r{n}"
        agents[name] = AgentMdp(
            states=cells,
            actions=tuple(sorted(MOVES)),
            transition=transition,
            utility=utility,
            initial_state=start,
        )
        points.append(
            InteractionPoint(
                id=n,
                members=(name,),
                utility_owners=(True,),
                risk={"collision": StateRisk.from_aggregate(state_risk)},
            )
        )
    return MccSspInstance(
        agents=agents,
        interactions=tuple(points),
        horizon=spec.horizon,
        risk_budgets={"collision": spec.risk_budget},
    )


def benchmark_rows(
    base: GridSpec,
    agent_counts: list,
    horizons: list,
    time_limit: float | None = None,
) -> list:
    """Sweep agents x horizons; one dict per cell with build/solve timings.

    Starts are drawn once for the largest agent count so smaller sweeps
    nest inside larger ones.  Every cell goes through ``solve``, budget
    exhausted ones too; ``build_s`` is the layering plus the result's
    ``build_seconds``, ``solve_s`` its ``solve_seconds``.  A cell the solver
    fails on (SolverFailure) gets status solver_failure, and the sweep goes
    on.
    """
    rng = np.random.default_rng(base.seed)
    max_agents = max(agent_counts)
    starts = [
        (int(rng.integers(base.width)), int(rng.integers(base.height)))
        for _ in range(max_agents)
    ]
    rows = []
    for n_agents in agent_counts:
        for horizon in horizons:
            spec = GridSpec(**{**base.__dict__, "n_agents": n_agents,
                               "horizon": horizon, "start_positions": starts[:n_agents]})
            instance = generate_grid_instance(spec)
            t0 = time.perf_counter()
            layers = reachable_layers(instance)
            t1 = time.perf_counter()
            try:
                result = solve(layers, time_limit=time_limit)
            except SolverFailure:
                result = SolveResult(
                    status="solver_failure", solve_seconds=time.perf_counter() - t1
                )
            rows.append(
                {
                    "n_agents": n_agents,
                    "horizon": horizon,
                    "build_s": round(t1 - t0 + result.build_seconds, 6),
                    "solve_s": round(result.solve_seconds, 6),
                    "objective": result.objective,
                    "risk": result.risks.get("collision", float("nan")),
                    "status": result.status,
                }
            )
    return rows
