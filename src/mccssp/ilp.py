"""Exact mixed-integer formulation of the chance-constrained multi-agent
problem over reachable layers, its sparse matrix form, and the HiGHS
solve path.

Variables: one continuous flow x per (interaction, flow index, time, state,
action) where flow index 0 carries utility and each criterion has its own
survival-damped flow; one binary selector z per (interaction, time, state,
action).  Constraints: flow conservation per flow index, one linear risk
row per criterion with right side reduced by the initial states' intrinsic
risk, at-most-one-action rows, x <= z binding for every flow, and action
consistency rows chaining matching states of interactions that share an
agent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
from scipy import sparse

from .model import (
    LayeredSpace,
    MccSspInstance,
    reachable_layers,
    skey,
)
from .risk import Policy, execution_risk

DEFAULT_MIP_REL_GAP = 1e-6
RISK_VERIFY_SLACK = 1e-6


class BudgetExhausted(ValueError):
    """Initial states alone exceed a risk budget (reduced budget < 0)."""

    def __init__(self, slacks: dict):
        self.slacks = slacks
        bad = {j: s for j, s in slacks.items() if s < 0}
        super().__init__(f"risk budget exhausted by initial states: {bad}")


class SolverFailure(RuntimeError):
    """HiGHS failed or returned something unusable."""


@dataclass
class MatrixForm:
    """Sparse maximization model: columns with bounds/integrality, an
    objective, and rows as (name, lower, upper, [(col, coeff), ...])."""

    col_names: list
    lower: list
    upper: list
    integrality: list  # 0 continuous, 1 integer
    objective: list
    rows: list

    @property
    def n_cols(self) -> int:
        return len(self.col_names)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def to_lp_text(self) -> str:
        """Standard LP text format, for debugging with external tools."""

        def term(coef, name, lead):
            sign = "-" if coef < 0 else ("" if lead else "+")
            return f"{sign} {abs(coef):.17g} {name}"

        lines = ["Maximize"]
        obj = " ".join(
            term(c, self.col_names[idx], idx == 0)
            for idx, c in enumerate(self.objective)
            if c != 0.0
        )
        lines.append(f" obj: {obj if obj else '0 ' + self.col_names[0] if self.col_names else ''}")
        lines.append("Subject To")
        for name, lo, hi, coeffs in self.rows:
            expr = " ".join(
                term(v, self.col_names[c], n == 0) for n, (c, v) in enumerate(coeffs)
            )
            if lo == hi:
                lines.append(f" {name}: {expr} = {lo:.17g}")
            else:
                if hi != math.inf:
                    lines.append(f" {name}: {expr} <= {hi:.17g}")
                if lo != -math.inf:
                    lines.append(f" {name}_lo: {expr} >= {lo:.17g}")
        lines.append("Bounds")
        for idx, name in enumerate(self.col_names):
            lines.append(f" {self.lower[idx]:.17g} <= {name} <= {self.upper[idx]:.17g}")
        binaries = [
            self.col_names[idx]
            for idx in range(self.n_cols)
            if self.integrality[idx]
        ]
        if binaries:
            lines.append("Binaries")
            lines.append(" " + " ".join(binaries))
        lines.append("End")
        return "\n".join(lines) + "\n"


@dataclass
class IlpModel:
    """Built model plus the index maps needed to read a solution back."""

    instance: MccSspInstance
    layers: LayeredSpace
    criteria: tuple
    x_index: dict  # (interaction, flow, k, state, action) -> column
    z_index: dict  # (interaction, k, state, action) -> column
    matrix: MatrixForm
    delta_tilde: dict

    @property
    def x_count(self) -> int:
        return len(self.x_index)

    @property
    def z_count(self) -> int:
        return len(self.z_index)


@dataclass
class SolveResult:
    """Outcome of a solve: status is one of optimal, infeasible,
    budget_exhausted, or time_limit (best known solution returned)."""

    status: str
    objective: float = float("nan")
    policy: Policy | None = None
    flows: dict = field(default_factory=dict)
    risks: dict = field(default_factory=dict)
    solve_seconds: float = 0.0
    build_seconds: float = 0.0


def build_ilp(
    instance: MccSspInstance,
    layers: LayeredSpace | None = None,
) -> IlpModel:
    """Assemble the exact formulation over reachable layers.

    Raises BudgetExhausted when the initial states' summed intrinsic risk
    already exceeds a budget.
    """
    if layers is None:
        layers = reachable_layers(instance)
    criteria = instance.criteria
    flow_ids = (None,) + criteria  # None is the utility flow

    # interaction -> criterion -> state -> aggregate risk
    rt = {layers_i.id: {j: layers_i.state_risks(j) for j in criteria} for layers_i in layers}

    delta_tilde = {}
    for j in criteria:
        init = sum(rt[layers_i.id][j][layers_i.layers[0][0]] for layers_i in layers)
        delta_tilde[j] = instance.risk_budgets[j] - init
    if any(slack < 0 for slack in delta_tilde.values()):
        raise BudgetExhausted(delta_tilde)

    col_names, lower, upper, integrality, objective = [], [], [], [], []
    x_index, z_index = {}, {}

    def add_col(name, binary, obj=0.0):
        col_names.append(name)
        lower.append(0.0)
        upper.append(1.0)
        integrality.append(1 if binary else 0)
        objective.append(obj)
        return len(col_names) - 1

    ids = sorted(layers.per_interaction)
    for i in ids:
        layers_i = layers.per_interaction[i]
        for fn, j in enumerate(flow_ids):
            for k in range(layers.horizon):
                for sn, s in enumerate(layers_i.layers[k]):
                    for an, a in enumerate(layers_i.joint_actions):
                        obj = layers_i.utilities[(s, a)] if j is None else 0.0
                        col = add_col(f"x_i{i}_f{fn}_k{k}_s{sn}_a{an}", False, obj)
                        x_index[(i, j, k, s, a)] = col
    for i in ids:
        layers_i = layers.per_interaction[i]
        for k in range(layers.horizon):
            for sn, s in enumerate(layers_i.layers[k]):
                for an, a in enumerate(layers_i.joint_actions):
                    col = add_col(f"z_i{i}_k{k}_s{sn}_a{an}", True)
                    z_index[(i, k, s, a)] = col

    rows = []

    def tilde(i, j, s, p):
        return p if j is None else p * (1.0 - rt[i][j][s])

    # flow conservation: unit source at the initial state, then inflow
    # balance per state and flow index
    for i in ids:
        layers_i = layers.per_interaction[i]
        s0 = layers_i.layers[0][0]
        for fn, j in enumerate(flow_ids):
            coeffs = [
                (x_index[(i, j, 0, s0, a)], 1.0) for a in layers_i.joint_actions
            ]
            rows.append((f"src_i{i}_f{fn}", 1.0, 1.0, coeffs))
            for k in range(1, layers.horizon):
                inbound = {s: [] for s in layers_i.layers[k]}
                for sp in layers_i.layers[k - 1]:
                    for a in layers_i.joint_actions:
                        for succ, p in layers_i.edges[(sp, a)]:
                            inbound[succ].append((sp, a, tilde(i, j, sp, p)))
                for sn, s in enumerate(layers_i.layers[k]):
                    coeffs = [
                        (x_index[(i, j, k, s, a)], 1.0)
                        for a in layers_i.joint_actions
                    ]
                    coeffs += [
                        (x_index[(i, j, k - 1, sp, a)], -tp)
                        for sp, a, tp in inbound[s]
                        if tp != 0.0
                    ]
                    rows.append((f"flow_i{i}_f{fn}_k{k}_s{sn}", 0.0, 0.0, coeffs))

    # one linear risk row per criterion
    for j in criteria:
        coeffs = []
        for i in ids:
            layers_i = layers.per_interaction[i]
            rt_ij = rt[i][j]
            for k in range(layers.horizon):
                for s in layers_i.layers[k]:
                    survival = 1.0 - rt_ij[s]
                    for a in layers_i.joint_actions:
                        coef = survival * sum(
                            p * rt_ij[succ] for succ, p in layers_i.edges[(s, a)]
                        )
                        if coef != 0.0:
                            coeffs.append((x_index[(i, j, k, s, a)], coef))
        rows.append((f"risk_{j}", -math.inf, delta_tilde[j], coeffs))

    # at most one action per node, and bind every flow to the selector
    for i in ids:
        layers_i = layers.per_interaction[i]
        for k in range(layers.horizon):
            for sn, s in enumerate(layers_i.layers[k]):
                coeffs = [
                    (z_index[(i, k, s, a)], 1.0) for a in layers_i.joint_actions
                ]
                rows.append((f"one_i{i}_k{k}_s{sn}", -math.inf, 1.0, coeffs))
                for an, a in enumerate(layers_i.joint_actions):
                    zc = z_index[(i, k, s, a)]
                    for fn, j in enumerate(flow_ids):
                        xc = x_index[(i, j, k, s, a)]
                        rows.append(
                            (
                                f"bind_i{i}_f{fn}_k{k}_s{sn}_a{an}",
                                -math.inf,
                                0.0,
                                [(xc, 1.0), (zc, -1.0)],
                            )
                        )

    # action consistency for shared agents: where two or more interactions
    # have a reachable layer-k state with the same component for an agent,
    # every such state's per-action selector sum is tied to one shared
    # binary, forcing a single agent action per (own state, time) across
    # (and within) the sharing interactions
    slot_states = {}
    for i in ids:
        layers_i = layers.per_interaction[i]
        members = layers_i.view.members
        for k in range(layers.horizon):
            for s in layers_i.layers[k]:
                for pos, v in enumerate(members):
                    slot_states.setdefault((v, s[pos], k), []).append((i, pos, s))
    row_n = 0
    for slot_n, slot in enumerate(sorted(slot_states, key=skey)):
        entries = slot_states[slot]
        if len({i for i, _, _ in entries}) < 2:
            continue
        v, _, k = slot
        for an, av in enumerate(instance.agents[v].sorted_actions()):
            y_col = add_col(f"y_v{skey(v)}_n{slot_n}_a{an}", True)
            for i, pos, s in entries:
                coeffs = [
                    (z_index[(i, k, s, a)], 1.0)
                    for a in layers.per_interaction[i].joint_actions
                    if a[pos] == av
                ] + [(y_col, -1.0)]
                rows.append((f"cons_{row_n}", 0.0, 0.0, coeffs))
                row_n += 1

    matrix = MatrixForm(
        col_names=col_names,
        lower=lower,
        upper=upper,
        integrality=integrality,
        objective=objective,
        rows=rows,
    )
    return IlpModel(
        instance=instance,
        layers=layers,
        criteria=criteria,
        x_index=x_index,
        z_index=z_index,
        matrix=matrix,
        delta_tilde=delta_tilde,
    )


# ---------------------------------------------------------------------------
# backend


class ScipyHighsBackend:
    """HiGHS through scipy.optimize.milp."""

    def solve(
        self,
        matrix: MatrixForm,
        time_limit: float | None = None,
        mip_rel_gap: float | None = None,
    ):
        """Returns (status, x, objective), status one of optimal, infeasible
        or time_limit (with the incumbent); anything else is a failure."""
        if matrix.n_cols == 0:
            return "optimal", np.zeros(0), 0.0
        data, rows_ix, cols_ix, lo, hi = [], [], [], [], []
        for rn, (_, rlo, rhi, coeffs) in enumerate(matrix.rows):
            lo.append(rlo)
            hi.append(rhi)
            for col, val in coeffs:
                rows_ix.append(rn)
                cols_ix.append(col)
                data.append(val)
        constraints = []
        if matrix.rows:
            a_mat = sparse.csr_matrix(
                (data, (rows_ix, cols_ix)), shape=(matrix.n_rows, matrix.n_cols)
            )
            constraints = [scipy.optimize.LinearConstraint(a_mat, lo, hi)]
        options = {
            "mip_rel_gap": DEFAULT_MIP_REL_GAP if mip_rel_gap is None else mip_rel_gap,
            "presolve": True,
        }
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        # milp minimizes, so the objective is negated both ways
        res = scipy.optimize.milp(
            c=-np.asarray(matrix.objective, dtype=float),
            constraints=constraints,
            integrality=np.asarray(matrix.integrality),
            bounds=scipy.optimize.Bounds(matrix.lower, matrix.upper),
            options=options,
        )
        if res.status == 0:
            return "optimal", res.x, -res.fun
        if res.status == 2:
            return "infeasible", None, float("nan")
        if res.status == 1 and res.x is not None:
            return "time_limit", res.x, -res.fun
        raise SolverFailure(f"HiGHS: {res.message}")


# ---------------------------------------------------------------------------
# solving and policy extraction


def extract_policy(model: IlpModel, x: np.ndarray) -> Policy:
    """Deterministic policy from the utility flow: the max-flow action per
    reachable (state, time); zero-flow states get the default action."""
    assignments = {}
    for i in sorted(model.layers.per_interaction):
        layers_i = model.layers.per_interaction[i]
        table = {}
        default = layers_i.view.default_joint_action()
        for k in range(model.layers.horizon):
            for s in layers_i.layers[k]:
                values = [
                    (x[model.x_index[(i, None, k, s, a)]], a)
                    for a in layers_i.joint_actions
                ]
                best_val = max(v for v, _ in values)
                if best_val > 1e-9:
                    table[(s, k)] = next(a for v, a in values if v == best_val)
                else:
                    table[(s, k)] = default
        assignments[i] = table
    return Policy(assignments)


def solve(
    model: IlpModel,
    time_limit: float | None = None,
    mip_rel_gap: float | None = None,
) -> SolveResult:
    """Solve a built model and read back the policy, flows, and post-hoc
    risk evaluation.  Optimal results are verified against the budgets."""
    start = time.perf_counter()
    status, x, objective = ScipyHighsBackend().solve(model.matrix, time_limit, mip_rel_gap)
    elapsed = time.perf_counter() - start
    if status == "infeasible":
        return SolveResult(status="infeasible", solve_seconds=elapsed)

    policy = extract_policy(model, x)
    flows = {}
    for j in (None,) + model.criteria:
        per = {}
        for (i, jj, k, s, a), col in model.x_index.items():
            if jj == j and abs(x[col]) > 1e-12:
                per[(i, k, s, a)] = float(x[col])
        flows[j] = per
    risks = {
        j: execution_risk(model.instance, model.layers, policy, j)
        for j in model.criteria
    }
    if status == "optimal":
        for j, value in risks.items():
            if value > model.instance.risk_budgets[j] + RISK_VERIFY_SLACK:
                raise SolverFailure(
                    f"extracted policy violates budget {j!r}: "
                    f"{value} > {model.instance.risk_budgets[j]}"
                )
    return SolveResult(
        status=status,
        objective=float(objective),
        policy=policy,
        flows=flows,
        risks=risks,
        solve_seconds=elapsed,
    )


def solve_instance(
    instance: MccSspInstance,
    layers: LayeredSpace | None = None,
    time_limit: float | None = None,
    mip_rel_gap: float | None = None,
) -> SolveResult:
    """Validate, layer, build, and solve; maps BudgetExhausted to a status."""
    build_start = time.perf_counter()
    if layers is None:
        layers = reachable_layers(instance)
    try:
        model = build_ilp(instance, layers)
    except BudgetExhausted:
        return SolveResult(
            status="budget_exhausted",
            build_seconds=time.perf_counter() - build_start,
        )
    build_elapsed = time.perf_counter() - build_start
    result = solve(model, time_limit=time_limit, mip_rel_gap=mip_rel_gap)
    result.build_seconds = build_elapsed
    return result
