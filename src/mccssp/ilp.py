"""Exact mixed-integer formulation of the chance-constrained multi-agent
problem over reachable layers, its sparse matrix form, and the solve path:
a backward-DP certificate where no agent is shared, then HiGHS.

Variables: one continuous flow x per (interaction, flow index, time, state,
action) where flow index 0 carries utility and each criterion has its own
survival-damped flow; one binary selector z per (interaction, time, state,
action).  Constraints: flow conservation per flow index, one linear risk
row per criterion with right side reduced by the initial states' intrinsic
risk, at-most-one-action rows, x <= z binding for every flow, and action
consistency rows chaining matching states of interactions that share an
agent.

The model is assembled once, as one CSR matrix with row bounds; every
column is bounded to [0, 1], and row and column names exist only in LP
export.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np
import scipy.optimize
from scipy import sparse

from .model import LayeredSpace, MccSspInstance, reachable_layers, skey
from .oracles import backward_dp
from .risk import Policy, evaluate_table, execution_risk, expected_utility, policy_flows

DEFAULT_MIP_REL_GAP = 1e-6
RISK_VERIFY_SLACK = 1e-6
# relative gap below the risk-blind bound that still counts as float noise
DP_UTILITY_SLACK = 1e-9


class BudgetExhausted(ValueError):
    """Initial states alone exceed a risk budget (reduced budget < 0)."""

    def __init__(self, slacks: dict):
        self.slacks = slacks
        bad = {j: s for j, s in slacks.items() if s < 0}
        super().__init__(f"risk budget exhausted by initial states: {bad}")


class SolverFailure(RuntimeError):
    """HiGHS failed or returned something unusable."""


def _names(blocks) -> list:
    """Names of consecutive runs (prefixes, count): entry n of a run is
    named after prefixes[n % len(prefixes)]."""
    return [f"{pre[n % len(pre)]}_{n}" for pre, count in blocks for n in range(count)]


@dataclass
class MatrixForm:
    """Sparse maximization model: row_lower <= a @ x <= row_upper, every
    column in [0, 1], an objective and integrality (0 continuous, 1
    binary).  ``col_blocks`` and ``row_blocks`` name consecutive runs of
    columns and rows; names are made only on demand, for LP export."""

    a: sparse.csr_matrix
    row_lower: np.ndarray
    row_upper: np.ndarray
    objective: np.ndarray
    integrality: np.ndarray
    col_blocks: tuple = ()
    row_blocks: tuple = ()

    @property
    def n_cols(self) -> int:
        return self.a.shape[1]

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    @property
    def col_names(self) -> list:
        return _names(self.col_blocks)

    @property
    def rows(self) -> list:
        """(name, lower, upper, [(col, coeff), ...]) per row, read off the matrix."""
        ptr, cols, vals = (v.tolist() for v in (self.a.indptr, self.a.indices, self.a.data))
        bounds = zip(_names(self.row_blocks), self.row_lower.tolist(), self.row_upper.tolist())
        return [
            (name, lo, hi, list(zip(cols[ptr[r]:ptr[r + 1]], vals[ptr[r]:ptr[r + 1]])))
            for r, (name, lo, hi) in enumerate(bounds)
        ]

    def to_lp_text(self) -> str:
        """Standard LP text format, for debugging with external tools."""

        def term(coef, name, lead):
            sign = "-" if coef < 0 else ("" if lead else "+")
            return f"{sign} {abs(coef):.17g} {name}"

        names = self.col_names
        lines = ["Maximize"]
        obj = " ".join(
            term(c, names[idx], idx == 0)
            for idx, c in enumerate(self.objective.tolist())
            if c != 0.0
        )
        lines.append(f" obj: {obj if obj else '0 ' + names[0] if names else ''}")
        lines.append("Subject To")
        for name, lo, hi, coeffs in self.rows:
            expr = " ".join(
                term(v, names[c], n == 0) for n, (c, v) in enumerate(coeffs)
            )
            if lo == hi:
                lines.append(f" {name}: {expr} = {lo:.17g}")
            else:
                if hi != math.inf:
                    lines.append(f" {name}: {expr} <= {hi:.17g}")
                if lo != -math.inf:
                    lines.append(f" {name}_lo: {expr} >= {lo:.17g}")
        lines.append("Bounds")
        lines.extend(f" 0 <= {name} <= 1" for name in names)
        binaries = [name for name, binary in zip(names, self.integrality) if binary]
        if binaries:
            lines += ["Binaries", " " + " ".join(binaries)]
        lines.append("End")
        return "\n".join(lines) + "\n"


@dataclass
class IlpModel:
    """Built model plus the column layout needed to read a solution back.

    Interaction i's columns of flow index fn (0 utility, then one per
    criterion) start at ``x_start[i] + fn * width``, one column per
    (decision point, joint action) in ``decision_points()`` order, so width
    is points times joint actions."""

    instance: MccSspInstance
    layers: LayeredSpace
    criteria: tuple
    x_start: dict
    x_count: int
    z_count: int
    matrix: MatrixForm
    delta_tilde: dict


@dataclass
class SolveResult:
    """Outcome of a solve: status is one of optimal, infeasible,
    budget_exhausted, or time_limit (best known solution returned).
    ``decided_by`` names what settled it: "dp" (the backward-DP
    certificate), "mip" (HiGHS) or "fallback" (the default-action policy
    after a time-out without incumbent); None when no solve ran."""

    status: str
    objective: float = float("nan")
    policy: Policy | None = None
    flows: dict = field(default_factory=dict)
    risks: dict = field(default_factory=dict)
    solve_seconds: float = 0.0
    build_seconds: float = 0.0
    decided_by: str | None = None


def build_ilp(instance: MccSspInstance, layers: LayeredSpace | None = None) -> IlpModel:
    """Assemble the exact formulation over reachable layers.

    Raises BudgetExhausted when the initial states' summed intrinsic risk
    already exceeds a budget.
    """
    if layers is None:
        layers = reachable_layers(instance)
    criteria = instance.criteria
    flow_ids = (None,) + criteria  # None is the utility flow
    n_flows = len(flow_ids)
    horizon = layers.horizon

    # interaction -> criterion -> state -> aggregate risk
    rt = {layers_i.id: {j: layers_i.state_risks(j) for j in criteria} for layers_i in layers}

    delta_tilde = {}
    for j in criteria:
        init = sum(rt[layers_i.id][j][layers_i.layers[0][0]] for layers_i in layers)
        delta_tilde[j] = instance.risk_budgets[j] - init
    if any(slack < 0 for slack in delta_tilde.values()):
        raise BudgetExhausted(delta_tilde)

    # columns: every interaction's x blocks, one per flow index, then every
    # interaction's z block, then the shared-agent selectors y.  A block has
    # one column per (decision point, joint action); decision point n of
    # layer k is number first[i][k] + its place in the layer.  Nonzeros are
    # (row, col, value) triplets, rows come with their bounds.
    ids = sorted(layers.per_interaction)
    first, width, x_start, z_start = {}, {}, {}, {}
    objective, col_blocks, row_blocks = [], [], []
    row_ix, col_ix, vals, lower, upper = [], [], [], [], []

    def put(row, col, value):
        row_ix.append(row)
        col_ix.append(col)
        vals.append(value)

    # flow conservation: unit source at the initial state, then inflow
    # balance per state and flow index
    for i in ids:
        layers_i = layers.per_interaction[i]
        n_a = len(layers_i.joint_actions)
        first[i] = list(accumulate((len(layer) for layer in layers_i.layers[:horizon]), initial=0))
        n_points = first[i][-1]
        width[i] = n_points * n_a
        x_start[i] = len(objective)
        objective += [
            layers_i.utilities[(s, a)] for _, s in layers_i.decision_points()
            for a in layers_i.joint_actions
        ] + [0.0] * (n_flows - 1) * width[i]
        place = [{s: first[i][k] + sn for sn, s in enumerate(layer)}
                 for k, layer in enumerate(layers_i.layers[:horizon])]
        for fn, j in enumerate(flow_ids):
            r0, xb = len(lower), x_start[i] + fn * width[i]
            col_blocks.append(((f"x_i{i}_f{fn}",), width[i]))
            row_blocks += [((f"src_i{i}_f{fn}",), 1), ((f"flow_i{i}_f{fn}",), n_points - 1)]
            lower += [1.0] + [0.0] * (n_points - 1)
            upper += [1.0] + [0.0] * (n_points - 1)
            row_ix += [r0 + c // n_a for c in range(width[i])]
            col_ix += range(xb, xb + width[i])
            vals += [1.0] * width[i]
            for k in range(1, horizon):
                for n, sp in enumerate(layers_i.layers[k - 1], start=first[i][k - 1]):
                    for an, a in enumerate(layers_i.joint_actions):
                        for succ, p in layers_i.edges[(sp, a)]:
                            tp = p if j is None else p * (1.0 - rt[i][j][sp])
                            if tp != 0.0:
                                put(r0 + place[k][succ], xb + n * n_a + an, -tp)
    x_count = len(objective)

    # one linear risk row per criterion
    for fn, j in enumerate(criteria, start=1):
        r = len(lower)
        row_blocks.append(((f"risk_{j}",), 1))
        lower.append(-math.inf)
        upper.append(delta_tilde[j])
        for i in ids:
            layers_i = layers.per_interaction[i]
            rt_ij = rt[i][j]
            col = x_start[i] + fn * width[i]
            for k in range(horizon):
                for s in layers_i.layers[k]:
                    survival = 1.0 - rt_ij[s]
                    for a in layers_i.joint_actions:
                        coef = survival * sum(
                            p * rt_ij[succ] for succ, p in layers_i.edges[(s, a)]
                        )
                        if coef != 0.0:
                            put(r, col, coef)
                        col += 1

    # at most one action per decision point, each such row followed by the
    # x <= z rows of its every action and flow index
    for i in ids:
        n_a = len(layers.per_interaction[i].joint_actions)
        n_points, period = first[i][-1], 1 + n_a * n_flows
        r0, zb = len(lower), len(objective)
        z_start[i] = zb
        objective += [0.0] * width[i]
        col_blocks.append(((f"z_i{i}",), width[i]))
        row_blocks.append(((f"one_i{i}",) + (f"bind_i{i}",) * (period - 1), n_points * period))
        lower += [-math.inf] * (n_points * period)
        upper += ([1.0] + [0.0] * (period - 1)) * n_points
        one = [r0 + c // n_a * period for c in range(width[i])]
        row_ix += one
        col_ix += range(zb, zb + width[i])
        vals += [1.0] * width[i]
        for fn in range(n_flows):
            bind = [r + 1 + c % n_a * n_flows + fn for c, r in enumerate(one)]
            xb = x_start[i] + fn * width[i]
            row_ix += bind + bind
            col_ix += [*range(xb, xb + width[i]), *range(zb, zb + width[i])]
            vals += [1.0] * width[i] + [-1.0] * width[i]
    z_count = len(objective) - x_count

    # action consistency for shared agents: where two or more interactions
    # have a reachable layer-k state with the same component for an agent,
    # every such state's per-action selector sum is tied to one shared
    # binary, forcing a single agent action per (own state, time) across
    # (and within) the sharing interactions
    slot_states = {}
    for i in ids:
        members = layers.per_interaction[i].view.members
        for k in range(horizon):
            for n, s in enumerate(layers.per_interaction[i].layers[k], start=first[i][k]):
                for pos, v in enumerate(members):
                    slot_states.setdefault((v, s[pos], k), []).append((i, pos, n))
    cons_start = len(lower)
    for slot in sorted(slot_states, key=skey):
        entries = slot_states[slot]
        if len({i for i, _, _ in entries}) < 2:
            continue
        for av in instance.agents[slot[0]].sorted_actions():
            y_col = len(objective)
            objective.append(0.0)
            for i, pos, n in entries:
                r = len(lower)
                lower.append(0.0)
                upper.append(0.0)
                actions = layers.per_interaction[i].joint_actions
                for an, a in enumerate(actions):
                    if a[pos] == av:
                        put(r, z_start[i] + n * len(actions) + an, 1.0)
                put(r, y_col, -1.0)
    n_cols = len(objective)
    col_blocks.append((("y",), n_cols - x_count - z_count))
    row_blocks.append((("cons",), len(lower) - cons_start))

    matrix = MatrixForm(
        a=sparse.csr_matrix((vals, (row_ix, col_ix)), shape=(len(lower), n_cols)),
        row_lower=np.array(lower),
        row_upper=np.array(upper),
        objective=np.array(objective, dtype=float),
        integrality=np.array([0] * x_count + [1] * (n_cols - x_count)),
        col_blocks=tuple(col_blocks),
        row_blocks=tuple(row_blocks),
    )
    return IlpModel(instance, layers, criteria, x_start, x_count, z_count, matrix, delta_tilde)


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
        or time_limit (x is the incumbent, or None when there is none);
        anything else is a failure."""
        if matrix.n_cols == 0:
            return "optimal", np.zeros(0), 0.0
        constraints = []
        if matrix.n_rows:
            constraints = [
                scipy.optimize.LinearConstraint(matrix.a, matrix.row_lower, matrix.row_upper)
            ]
        options = {
            "mip_rel_gap": DEFAULT_MIP_REL_GAP if mip_rel_gap is None else mip_rel_gap,
            "presolve": True,
        }
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        # milp minimizes, so the objective is negated both ways
        res = scipy.optimize.milp(
            c=-matrix.objective,
            constraints=constraints,
            integrality=matrix.integrality,
            bounds=scipy.optimize.Bounds(0, 1),
            options=options,
        )
        if res.status == 0:
            return "optimal", res.x, -res.fun
        if res.status == 2:
            return "infeasible", None, float("nan")
        if res.status == 1:
            return "time_limit", res.x, float("nan") if res.x is None else -res.fun
        raise SolverFailure(f"HiGHS: {res.message}")


# ---------------------------------------------------------------------------
# solving and policy extraction


def _flow_rows(model: IlpModel, x: np.ndarray, fn: int):
    """(interaction, layers, k, state, values) per decision point, values
    being flow index fn's entries for the joint actions in order."""
    xs = x.tolist()
    for i, col in model.x_start.items():
        layers_i = model.layers.per_interaction[i]
        points = layers_i.decision_points()
        n_a = len(layers_i.joint_actions)
        col += fn * len(points) * n_a
        for k, s in points:
            yield i, layers_i, k, s, xs[col:col + n_a]
            col += n_a


def extract_policy(model: IlpModel, x: np.ndarray) -> Policy:
    """Deterministic policy from the utility flow: the max-flow action per
    reachable (state, time); zero-flow states get the default action."""
    assignments = {i: {} for i in model.x_start}
    for i, layers_i, k, s, row in _flow_rows(model, x, 0):
        best = max(row)
        assignments[i][(s, k)] = (
            layers_i.joint_actions[row.index(best)] if best > 1e-9
            else layers_i.view.default_joint_action()
        )
    return Policy(assignments)


def solve(
    model: IlpModel,
    time_limit: float | None = None,
    mip_rel_gap: float | None = None,
) -> SolveResult:
    """Decide a built model and read back the policy, flows, and post-hoc
    risk evaluation.  The backward-DP certificate decides first where it
    applies; otherwise HiGHS does, and its optimal results are verified
    against the budgets.  A time-out without incumbent falls back to the
    default-action policy when that fits every budget."""
    start = time.perf_counter()
    result = _dp_certificate(model)
    if result is None:
        result = _solve_mip(model, time_limit, mip_rel_gap)
    result.solve_seconds = time.perf_counter() - start
    return result


def _policy_result(model, status, decided_by, policy, objective, risks) -> SolveResult:
    """A result for a policy not read off MIP flows; its flows are the
    policy's occupancies, so the linear risk form can be checked on it."""
    flows = {
        j: policy_flows(model.instance, model.layers, policy, j)
        for j in (None,) + model.criteria
    }
    return SolveResult(
        status=status,
        objective=objective,
        policy=policy,
        flows=flows,
        risks=risks,
        decided_by=decided_by,
    )


def _dp_certificate(model: IlpModel) -> SolveResult | None:
    """Settle the model by one backward pass per interaction, or return None.

    Applies when no agent belongs to two interaction points: the model then
    has no consistency rows, and its interactions are independent SSPs
    coupled only by the summed risk rows.  The utility-optimal least-risk
    policy is optimal when it fits every budget; the instance is infeasible
    when the summed least risks exceed a budget by more than
    RISK_VERIFY_SLACK.  Anything in between is left to the MIP.
    """
    members = [v for point in model.instance.interactions for v in point.members]
    if len(set(members)) < len(members):
        return None
    criteria = model.criteria
    budgets = model.instance.risk_budgets
    passes = {layers_i.id: backward_dp(layers_i, criteria) for layers_i in model.layers}
    for n, j in enumerate(criteria):
        least = sum(dp.least_risk[n] for dp in passes.values())
        if least > budgets[j] + RISK_VERIFY_SLACK:
            return SolveResult(status="infeasible", decided_by="dp")

    utility = 0.0
    risks = [0.0] * len(criteria)
    for layers_i in model.layers:
        u, r = evaluate_table(layers_i, passes[layers_i.id].table, criteria)
        utility += u
        risks = [total + x for total, x in zip(risks, r)]
    bound = sum(dp.value for dp in passes.values())
    if bound - utility > DP_UTILITY_SLACK * max(1.0, abs(bound)):
        return None
    if any(r > budgets[j] for j, r in zip(criteria, risks)):
        return None
    policy = Policy({i: dp.table for i, dp in passes.items()})
    return _policy_result(model, "optimal", "dp", policy, utility, dict(zip(criteria, risks)))


def _solve_mip(model: IlpModel, time_limit, mip_rel_gap) -> SolveResult:
    status, x, objective = ScipyHighsBackend().solve(model.matrix, time_limit, mip_rel_gap)
    if status == "infeasible":
        return SolveResult(status="infeasible", decided_by="mip")
    if x is None:
        return _default_action_fallback(model)

    policy = extract_policy(model, x)
    flows = {}
    for fn, j in enumerate((None,) + model.criteria):
        per = {}
        for i, layers_i, k, s, row in _flow_rows(model, x, fn):
            for a, v in zip(layers_i.joint_actions, row):
                if abs(v) > 1e-12:
                    per[(i, k, s, a)] = v
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
        decided_by="mip",
    )


def _default_action_fallback(model: IlpModel) -> SolveResult:
    """The default-joint-action policy (all-wait in the intersection, where
    it is feasible by construction) as a time_limit result when it fits
    every budget; SolverFailure otherwise."""
    instance, layers = model.instance, model.layers
    policy = Policy(
        {
            layers_i.id: {
                (s, k): layers_i.view.default_joint_action()
                for k, s in layers_i.decision_points()
            }
            for layers_i in layers
        }
    )
    risks = {j: execution_risk(instance, layers, policy, j) for j in model.criteria}
    over = {j: r for j, r in risks.items() if r > instance.risk_budgets[j]}
    if over:
        raise SolverFailure(
            "HiGHS reached its time limit without an incumbent, and the "
            f"default-action policy exceeds budgets: {over}"
        )
    utility = expected_utility(instance, layers, policy)
    return _policy_result(model, "time_limit", "fallback", policy, utility, risks)


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
