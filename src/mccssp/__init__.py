"""Solver library and benchmarks for fixed-horizon multi-agent
chance-constrained stochastic shortest path problems with localized
agent interactions."""

__version__ = "0.1.0"

from .ilp import (
    BudgetExhausted,
    IlpModel,
    MatrixForm,
    SolveResult,
    SolverFailure,
    build_ilp,
    solve,
    solve_instance,
)
from .model import (
    AgentMdp,
    InstanceError,
    InteractionPoint,
    LayeredSpace,
    MccSspInstance,
    StateRisk,
    interaction_product,
    reachable_layers,
    state_risk_tilde,
    validate_instance,
)
from .oracles import brute_force_optimal, dp_optimal_utility, fcfs_plan
from .pft import (
    Pft,
    RiskTable,
    VehicleGeometry,
    cluster_trajectories,
    collision_prob_at,
    dtw_align,
    intent_posterior,
    pairwise_risk,
    pft_fit,
    precompute_risk_table,
)
from .risk import (
    Policy,
    execution_risk,
    expected_utility,
    linear_risk_from_flows,
    policy_flows,
    transition_tilde,
)

__all__ = [
    "AgentMdp",
    "BudgetExhausted",
    "IlpModel",
    "InstanceError",
    "InteractionPoint",
    "LayeredSpace",
    "MatrixForm",
    "MccSspInstance",
    "Pft",
    "Policy",
    "RiskTable",
    "SolveResult",
    "SolverFailure",
    "StateRisk",
    "VehicleGeometry",
    "brute_force_optimal",
    "build_ilp",
    "cluster_trajectories",
    "collision_prob_at",
    "dp_optimal_utility",
    "dtw_align",
    "execution_risk",
    "expected_utility",
    "fcfs_plan",
    "intent_posterior",
    "interaction_product",
    "linear_risk_from_flows",
    "pairwise_risk",
    "pft_fit",
    "policy_flows",
    "precompute_risk_table",
    "reachable_layers",
    "solve",
    "solve_instance",
    "state_risk_tilde",
    "transition_tilde",
    "validate_instance",
]
