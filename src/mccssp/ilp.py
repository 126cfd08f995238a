"""Exact mixed-integer formulations of the chance-constrained multi-agent
problem over reachable layers, their sparse matrix form, and the solve
path: a backward-DP certificate where no agent is shared, HiGHS on the
path formulation where every agent with a choice is deterministic and
shared (or alone), and HiGHS on the occupancy formulation otherwise.

Variables: one continuous flow x per (interaction, flow index, time, state,
action) where flow index 0 carries utility and each criterion has its own
survival-damped flow; one binary selector z per (interaction, time, state,
action).  Constraints: flow conservation per flow index, one linear risk
row per criterion with right side reduced by the initial states' intrinsic
risk, at-most-one-action rows, x <= z binding for every flow, and action
consistency rows chaining matching states of interactions that share an
agent.

The path formulation (``build_path_model``) has one binary per (agent,
open-loop path), one continuous w per combination of member paths at an
interaction with two or more decision agents, marginal rows tying each
member's paths to its binaries, and one risk row per criterion whose
coefficients are the execution risks of the path combinations.

Each model is assembled once, from (row, col, value) triplets into one
CSR matrix with row bounds (``MatrixForm.from_triplets``); every column is
bounded to [0, 1], and row and column names exist only in LP export.
``solve`` runs the one verdict ladder on the layers (budget check, DP
certificate, then ``decide``: HiGHS on the one model ``build_model`` builds,
its answer read back, checked and packaged alike for either model).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import accumulate, product

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as highs

from .model import (
    TOL,
    LayeredSpace,
    MccSspInstance,
    OwnRows,
    agree,
    reachable_layers,
    skey,
    within,
)
from .oracles import backward_dp
from .risk import Policy, evaluate_table, score_policy


class BudgetExhausted(ValueError):
    """The initial states' summed intrinsic risk alone is not within a risk
    budget; ``over`` maps each such criterion to that risk."""

    def __init__(self, over: dict):
        self.over = over
        super().__init__(f"risk budget exhausted by initial states: {over}")


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

    @classmethod
    def from_triplets(
        cls, row_ix, col_ix, vals, lower, upper, objective, integrality, col_blocks, row_blocks
    ) -> MatrixForm:
        """The model whose nonzeros are the (row, col, value) triplets, one
        row per bound pair and one column per objective entry.

        The matrix is the one ``sparse.csr_matrix((vals, (row_ix, col_ix)))``
        builds, assembled without the coordinate form: the triplets are
        grouped by row in their given order, and ``sum_duplicates`` then
        sorts each row and sums repeated entries as that conversion does."""
        shape = (len(lower), len(objective))
        index = np.int32 if max(*shape, len(vals)) <= np.iinfo(np.int32).max else np.int64
        rows = np.asarray(row_ix, dtype=index)
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(shape[0] + 1, dtype=index)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        cols = np.asarray(col_ix, dtype=index)[order]
        a = sparse.csr_matrix((np.asarray(vals, dtype=float)[order], cols, indptr), shape=shape)
        a.sum_duplicates()
        return cls(
            a=a,
            row_lower=np.array(lower),
            row_upper=np.array(upper),
            objective=np.array(objective, dtype=float),
            integrality=np.array(integrality),
            col_blocks=tuple(col_blocks),
            row_blocks=tuple(row_blocks),
        )

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

    layers: LayeredSpace
    x_start: dict
    x_count: int
    z_count: int
    matrix: MatrixForm


@dataclass
class SolveResult:
    """Outcome of a solve: status is one of optimal, infeasible,
    budget_exhausted, or time_limit (best known solution returned).
    ``decided_by`` names what settled it: "dp" (the backward-DP
    certificate), "paths" (HiGHS on the path formulation), "mip" (HiGHS
    on the occupancy formulation) or "fallback" (the default-action policy
    after a time-out without incumbent); None when no solve ran.
    ``objective`` and ``risks`` are the expected utility and execution
    risks of ``policy`` (``risk.score_policy``), whatever decided it.
    ``flows`` holds the occupancy MIP's own flows, per flow index (None
    for utility, then each criterion) as {(i, k, state, action): value};
    it is empty for every other verdict.  ``build_seconds`` is the layering
    (when ``solve_instance`` lays out) plus the model build (0 when none is
    built), and ``solve_seconds`` the rest."""

    status: str
    objective: float = float("nan")
    policy: Policy | None = None
    flows: dict = field(default_factory=dict)
    risks: dict = field(default_factory=dict)
    solve_seconds: float = 0.0
    build_seconds: float = 0.0
    decided_by: str | None = None


def _reduced_budgets(layers: LayeredSpace) -> dict:
    """Each risk budget minus the initial states' summed intrinsic risk;
    raises BudgetExhausted when that risk is not within a budget."""
    budgets = layers.instance.risk_budgets
    initial = {
        j: sum(layers_i.state_risks(j)[layers_i.layers[0][0]] for layers_i in layers)
        for j in layers.instance.criteria
    }
    over = {j: r for j, r in initial.items() if not within(r, budgets[j])}
    if over:
        raise BudgetExhausted(over)
    return {j: budgets[j] - r for j, r in initial.items()}


def _occupancy_layout(layers: LayeredSpace) -> tuple:
    """Column layout of ``build_ilp``'s model, as (first, shared).

    ``first[i][k]`` numbers interaction i's first decision point of layer
    k, so each of its x and z blocks has ``first[i][-1]`` times its joint
    actions columns.  ``shared`` maps every (agent, own state, time) slot
    that two or more interactions hold to its (interaction, member
    position, decision point) entries; such a slot has one y column per
    agent action."""
    first, slots = {}, {}
    for i in sorted(layers.per_interaction):
        layers_i = layers.per_interaction[i]
        decision_layers = layers_i.layers[: layers.instance.horizon]
        first[i] = list(accumulate(map(len, decision_layers), initial=0))
        for k, layer in enumerate(decision_layers):
            for n, s in enumerate(layer, start=first[i][k]):
                for pos, v in enumerate(layers_i.members):
                    slots.setdefault((v, s[pos], k), []).append((i, pos, n))
    # entries come in interaction order
    shared = {
        slot: entries for slot, entries in slots.items() if entries[0][0] != entries[-1][0]
    }
    return first, shared


def _occupancy_columns(instance: MccSspInstance, layers: LayeredSpace) -> int:
    """Number of columns ``build_ilp`` makes: x blocks per flow index and a
    z block per interaction, and one y column per agent action at each
    (agent, own state, time) slot that two or more interactions hold.

    The slots are read off the agents' own layers: every member action
    combination is a joint action and a joint probability is the product
    of the members', so an interaction's joint layer k holds each own
    state of each member at time k.  Only a product that underflows to 0
    could leave one out."""
    n_blocks = 2 + len(instance.criteria)
    holders = {}
    for layers_i in layers:
        for v in set(layers_i.members):
            holders[v] = holders.get(v, 0) + 1
    shared = sum(
        len(own.actions) * sum(map(len, own.layers[: instance.horizon]))
        for v, own in layers.own.items()
        if holders.get(v, 0) > 1
    )
    return shared + sum(
        n_blocks * sum(map(len, layers_i.layers[: instance.horizon])) * len(layers_i.joint_actions)
        for layers_i in layers
    )


def build_ilp(instance: MccSspInstance, layers: LayeredSpace) -> IlpModel:
    """Assemble the exact formulation over reachable layers.

    Raises BudgetExhausted when the initial states' summed intrinsic risk
    already exceeds a budget.
    """
    criteria = instance.criteria
    flow_ids = (None,) + criteria  # None is the utility flow
    n_flows = len(flow_ids)
    horizon = instance.horizon

    # interaction -> criterion -> state -> aggregate risk
    rt = {layers_i.id: {j: layers_i.state_risks(j) for j in criteria} for layers_i in layers}
    delta_tilde = _reduced_budgets(layers)

    # columns: every interaction's x blocks, one per flow index, then every
    # interaction's z block, then the shared-agent selectors y, laid out by
    # _occupancy_layout.  A block has one column per (decision point, joint
    # action).  Nonzeros are (row, col, value) triplets, rows come with
    # their bounds.
    first, shared = _occupancy_layout(layers)
    ids = list(first)
    width, x_start, z_start = {}, {}, {}
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
    cons_start = len(lower)
    for slot in sorted(shared, key=skey):
        entries = shared[slot]
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

    matrix = MatrixForm.from_triplets(
        row_ix, col_ix, vals, lower, upper, objective,
        [0] * x_count + [1] * (n_cols - x_count), col_blocks, row_blocks,
    )
    return IlpModel(layers, x_start, x_count, z_count, matrix)


# ---------------------------------------------------------------------------
# path formulation


@dataclass
class PathModel:
    """Open-loop path model of an instance (see ``build_path_model``).

    ``paths[v]`` lists decision agent v's paths as (states, actions), and
    its path binaries start at column ``b_start[v]``.  ``points`` holds,
    per interaction, its decision agents in member order and two maps over
    every combination of their path indices: to the (utility, risks) of the
    interaction, and to its open-loop joint action per step."""

    layers: LayeredSpace
    paths: dict
    b_start: dict
    points: list
    matrix: MatrixForm


def _agent_paths(own: OwnRows, horizon: int, limit: int) -> list | None:
    """Every open-loop path of a deterministic agent as (states, actions),
    read off its own rows from its initial state, one per distinct state
    sequence: each step takes the best-utility action to its successor, the
    earlier sorted action on ties.  None when a reachable transition
    branches or there are more than ``limit``."""
    paths = []

    def extend(states, taken):
        if len(taken) == horizon:
            paths.append((states, taken))
            return len(paths) <= limit
        best = {}
        for a, (items, u) in zip(own.actions, own.rows[states[-1]]):
            succ = [t for t, p in items if p > 0.0]
            if len(succ) != 1:
                return False
            if succ[0] not in best or u > best[succ[0]][0]:
                best[succ[0]] = (u, a)
        return all(extend(states + (t,), taken + (a,)) for t, (_, a) in best.items())

    return paths if extend(own.layers[0], ()) else None


class _Schedule:
    """Open-loop assignment table: ``steps[k]`` at every state of step k."""

    def __init__(self, steps):
        self.steps = steps

    def __getitem__(self, key):
        return self.steps[key[1]]


def build_path_model(instance: MccSspInstance, layers: LayeredSpace) -> PathModel | None:
    """The path formulation, or None where it does not apply.

    It applies when some agent belongs to two or more interactions, some
    agent has more than one action, every such agent has deterministic own
    transitions and belongs to two or more interactions or is alone in its
    only one, and the model has no more columns than ``build_ilp``'s.  Such
    an agent is bound to one action per (own state, time): by the
    consistency rows where it is shared, and trivially where it is alone.
    Its policy is then an open-loop path, and the occupancy optimum is the
    best combination of paths within the budgets.  Single-action agents
    follow their only action, and may branch.  So every path model has a
    column; an instance where no agent has a choice goes to ``build_ilp``.

    Paths are read off the agents' own rows (``layers.own``), and each
    combination of member paths is scored by ``evaluate_table`` on its
    open-loop schedule.

    Raises BudgetExhausted as ``build_ilp`` does.
    """
    points_of = {}
    for point in instance.interactions:
        for v in point.members:
            points_of.setdefault(v, []).append(point)
    if all(len(points) < 2 for points in points_of.values()):
        return None
    limit = _occupancy_columns(instance, layers)
    paths = {}
    for v in sorted(instance.agents, key=skey):
        own = layers.own[v]
        if len(own.actions) == 1:
            continue
        points = points_of[v]
        if len(points) < 2 and points[0].members != (v,):
            return None
        paths[v] = _agent_paths(own, instance.horizon, limit)
        if paths[v] is None:
            return None
    if not paths:
        return None
    groups = [[v for v in layers_i.members if v in paths] for layers_i in layers]
    n_b = sum(map(len, paths.values()))
    n_w = sum(math.prod(len(paths[v]) for v in group) for group in groups if len(group) > 1)
    if n_b + n_w > limit:
        return None
    _reduced_budgets(layers)

    criteria = instance.criteria
    b_start = dict(zip(paths, accumulate(map(len, paths.values()), initial=0)))
    # rows: one per decision agent summing its path binaries to 1, one risk
    # row per criterion, then each multi-agent interaction's marginal rows
    # (the w of one member path sum to that path's binary)
    objective = [0.0] * n_b
    col_blocks = [((f"b_{n}",), len(ps)) for n, ps in enumerate(paths.values())]
    row_blocks = [(("path",), len(paths))] + [((f"risk_{j}",), 1) for j in criteria]
    row_ix, col_ix, vals = [], [], []
    for r, v in enumerate(paths):
        row_ix += [r] * len(paths[v])
        col_ix += range(b_start[v], b_start[v] + len(paths[v]))
        vals += [1.0] * len(paths[v])
    risk_row = len(paths)
    lower = [1.0] * len(paths) + [-math.inf] * len(criteria)
    upper = [1.0] * len(paths) + [instance.risk_budgets[j] for j in criteria]

    # each agent's open-loop action sequences: one per path of a decision
    # agent, its only action at every step for any other
    plans = {
        v: [taken for _, taken in paths[v]] if v in paths else [own.actions * instance.horizon]
        for v, own in layers.own.items()
    }
    model_points = []
    for layers_i, group in zip(layers, groups):
        # each combination's joint action per step, and its score
        combos = product(*[range(len(paths[v])) for v in group])
        sequences = product(*[plans[v] for v in layers_i.members])
        steps = {combo: tuple(zip(*member)) for combo, member in zip(combos, sequences)}
        values = {
            combo: evaluate_table(layers_i, _Schedule(plan), criteria)
            for combo, plan in steps.items()
        }
        model_points.append((layers_i, tuple(group), values, steps))
        if not group:  # no decision here: a constant
            for n, r in enumerate(values[()][1]):
                upper[risk_row + n] -= r
            continue
        if len(group) == 1:
            cols = range(b_start[group[0]], b_start[group[0]] + len(values))
            for col, (u, _) in zip(cols, values.values()):
                objective[col] += u
        else:
            marginal = list(accumulate((len(paths[v]) for v in group), initial=len(lower)))
            for v, r0 in zip(group, marginal):
                row_ix += range(r0, r0 + len(paths[v]))
                col_ix += range(b_start[v], b_start[v] + len(paths[v]))
                vals += [-1.0] * len(paths[v])
            lower += [0.0] * (marginal[-1] - marginal[0])
            upper += [0.0] * (marginal[-1] - marginal[0])
            row_blocks.append(((f"marg_i{layers_i.id}",), marginal[-1] - marginal[0]))
            col_blocks.append(((f"w_i{layers_i.id}",), len(values)))
            cols = range(len(objective), len(objective) + len(values))
            objective += [u for u, _ in values.values()]
            for col, combo in zip(cols, values):
                row_ix += [r0 + p for r0, p in zip(marginal, combo)]
                col_ix += [col] * len(combo)
                vals += [1.0] * len(combo)
        # each row's entries keep their order: a row's repeated entries are
        # summed in it (see MatrixForm.from_triplets)
        for col, (_, risks) in zip(cols, values.values()):
            for n, r in enumerate(risks):
                if r != 0.0:
                    row_ix.append(risk_row + n)
                    col_ix.append(col)
                    vals.append(r)

    matrix = MatrixForm.from_triplets(
        row_ix, col_ix, vals, lower, upper, objective,
        [1] * n_b + [0] * (len(objective) - n_b), col_blocks, row_blocks,
    )
    return PathModel(layers, paths, b_start, model_points, matrix)


# ---------------------------------------------------------------------------
# backend


class ScipyHighsBackend:
    """HiGHS through the binding that scipy ships
    (``scipy.optimize._highspy._core``), given what ``scipy.optimize.milp``
    gives it: the CSC arrays of the matrix, the negated objective, every
    column in [0, 1], the row bounds and the integrality; no console log,
    ``mip_rel_gap`` ``model.TOL``, presolve on, the feasibility-jump
    heuristic off and the time limit when one is given.  One fresh solver
    per call, so ties break as they do through ``milp``.  Feasibility jump
    costs about 8 ms on every model that reaches the branch-and-bound root,
    and on time-limited occupancy solves it found no incumbent that HiGHS
    missed without it.  ``decide`` is its one caller in the library."""

    def solve(self, matrix: MatrixForm, time_limit: float | None = None):
        """Returns (status, x, objective), status one of optimal, infeasible
        or time_limit (x is the incumbent, or None when there is none);
        anything else, and a non-finite objective or coefficient or a NaN
        row bound, is a SolverFailure.  Every model the builders make has
        columns and rows."""
        a = matrix.a.tocsc()
        data = a.data.astype(np.float64)
        # HiGHS minimizes, so the objective is negated both ways
        cost = -np.asarray(matrix.objective, dtype=np.float64)
        row_lower = np.asarray(matrix.row_lower, dtype=np.float64)
        row_upper = np.asarray(matrix.row_upper, dtype=np.float64)
        if not (np.isfinite(cost).all() and np.isfinite(data).all()):
            raise SolverFailure("HiGHS input: non-finite objective or matrix coefficient")
        if np.isnan(row_lower).any() or np.isnan(row_upper).any():
            raise SolverFailure("HiGHS input: NaN row bound")
        n_rows, n_cols = a.shape
        lp = highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = n_cols
        lp.num_row_ = lp.a_matrix_.num_row_ = n_rows
        lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = a.indptr
        lp.a_matrix_.index_ = a.indices
        lp.a_matrix_.value_ = data
        lp.col_cost_ = cost
        lp.col_lower_ = np.zeros(n_cols)
        lp.col_upper_ = np.ones(n_cols)
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper
        lp.integrality_ = [highs.HighsVarType(int(i)) for i in matrix.integrality]
        options = {
            "log_to_console": False,
            "mip_rel_gap": TOL,
            "presolve": "on",
            "mip_heuristic_run_feasibility_jump": False,
        }
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        solver = highs._Highs()
        for name, value in options.items():
            if solver.setOptionValue(name, value) != highs.HighsStatus.kOk:
                raise SolverFailure(f"HiGHS rejected option {name}={value!r}")
        if solver.passModel(lp) == highs.HighsStatus.kError:
            status = highs.HighsModelStatus.kModelError
        else:
            solver.run()
            status = solver.getModelStatus()
        if status == highs.HighsModelStatus.kInfeasible:
            return "infeasible", None, float("nan")
        if status == highs.HighsModelStatus.kOptimal:
            answer = "optimal"
        elif status == highs.HighsModelStatus.kTimeLimit:
            answer = "time_limit"
        else:
            raise SolverFailure(f"HiGHS: {solver.modelStatusToString(status)}")
        objective = solver.getInfo().objective_function_value
        if objective == highs.kHighsInf:  # a time-out before any incumbent
            return answer, None, float("nan")
        return answer, np.array(solver.getSolution().col_value), -objective


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
    reachable (state, time); states whose flow is at most TOL get the
    default action."""
    assignments = {i: {} for i in model.x_start}
    for i, layers_i, k, s, row in _flow_rows(model, x, 0):
        best = max(row)
        assignments[i][(s, k)] = (
            layers_i.joint_actions[row.index(best)] if best > TOL
            else layers_i.default_joint_action
        )
    return Policy(assignments)


def solve(layers: LayeredSpace, time_limit: float | None = None) -> SolveResult:
    """The verdict of a laid-out instance, from the first rung that settles
    it: the budget check (``budget_exhausted`` when the initial states'
    risk alone is not within a budget), then the backward-DP certificate,
    and only then ``decide`` on the model ``build_model`` builds."""
    start = time.perf_counter()
    try:
        _reduced_budgets(layers)
    except BudgetExhausted:
        return SolveResult(status="budget_exhausted", solve_seconds=time.perf_counter() - start)
    result = _dp_certificate(layers)
    if result is None:
        t0 = time.perf_counter()
        model = build_model(layers.instance, layers)
        t1 = time.perf_counter()
        result = decide(model, time_limit)
        result.build_seconds = t1 - t0
    result.solve_seconds = time.perf_counter() - start - result.build_seconds
    return result


def _dp_certificate(layers: LayeredSpace) -> SolveResult | None:
    """Settle the layers by one backward pass per interaction, or return None.

    Applies when no agent belongs to two interaction points: the MIP then
    has no consistency rows, and its interactions are independent SSPs
    coupled only by the summed risk rows.  The utility-optimal least-risk
    policy is optimal when its utility agrees with the risk-blind bound and
    its risks are within every budget; the instance is infeasible when the
    summed least risks are not within a budget, a verdict checked as
    HiGHS's is (see ``_policyless_verdict``).  Anything in between is left
    to the MIP.
    """
    members = [v for point in layers.instance.interactions for v in point.members]
    if len(set(members)) < len(members):
        return None
    criteria = layers.instance.criteria
    budgets = layers.instance.risk_budgets
    passes = {layers_i.id: backward_dp(layers_i, criteria) for layers_i in layers}
    for n, j in enumerate(criteria):
        least = sum(dp.least_risk[n] for dp in passes.values())
        if not within(least, budgets[j]):
            return _policyless_verdict(layers, "infeasible", "dp", "the DP certificate")

    policy = Policy({i: dp.table for i, dp in passes.items()})
    utility, risks = score_policy(layers, policy, criteria)
    if not agree(utility, sum(dp.value for dp in passes.values())):
        return None
    if not all(within(r, budgets[j]) for j, r in risks.items()):
        return None
    return SolveResult(
        status="optimal", objective=utility, policy=policy, risks=risks, decided_by="dp"
    )


def decide(model: IlpModel | PathModel, time_limit: float | None = None) -> SolveResult:
    """HiGHS's answer on one built model, read back and checked.  An
    optimal policy, or a time-limited incumbent's, whose risk is not within
    a budget is a SolverFailure, and so is an infeasible verdict on a model
    whose default-action policy fits every budget; a time-out without
    incumbent falls back to that policy.  The objective and risks are the
    returned policy's own, not HiGHS's objective.  Only reading the
    solution depends on the formulation; timings are left to ``solve``."""
    paths = isinstance(model, PathModel)
    decided_by = "paths" if paths else "mip"
    status, x, _ = ScipyHighsBackend().solve(model.matrix, time_limit)
    budgets = model.layers.instance.risk_budgets
    if status == "infeasible":
        return _policyless_verdict(model.layers, status, decided_by, "HiGHS")
    if x is None:
        return _policyless_verdict(model.layers, status, "fallback", "HiGHS")
    read = _read_paths if paths else _read_occupancy
    objective, policy, flows, risks = read(model, x)
    for j, value in risks.items():
        if not within(value, budgets[j]):
            raise SolverFailure(
                f"extracted {status} policy violates budget {j!r}: {value} > {budgets[j]}"
            )
    return SolveResult(
        status=status, objective=objective, policy=policy, flows=flows, risks=risks,
        decided_by=decided_by,
    )


def _read_occupancy(model: IlpModel, x: np.ndarray) -> tuple:
    """(objective, policy, flows, risks) of an occupancy solution: the
    max-flow policy, its ``score_policy`` utility and risks, and the
    nonzero flows."""
    criteria = model.layers.instance.criteria
    policy = extract_policy(model, x)
    flows = {}
    for fn, j in enumerate((None,) + criteria):
        per = {}
        for i, layers_i, k, s, row in _flow_rows(model, x, fn):
            for a, v in zip(layers_i.joint_actions, row):
                if v != 0.0:
                    per[(i, k, s, a)] = v
        flows[j] = per
    utility, risks = score_policy(model.layers, policy, criteria)
    return utility, policy, flows, risks


def _read_paths(model: PathModel, x: np.ndarray) -> tuple:
    """(objective, policy, no flows, risks) of a path solution: one path per
    decision agent, followed at every interaction.  The objective and the
    risks are sums over the interactions of the chosen combinations'
    ``evaluate_table`` values, in interaction order, as ``score_policy``
    sums them: the policy takes each combination's open-loop actions at
    every state, so the recursion on it gives the same values."""
    xs = x.tolist()
    chosen = {
        v: max(range(len(paths)), key=lambda p: xs[model.b_start[v] + p])
        for v, paths in model.paths.items()
    }
    utility, assignments, scores = 0.0, {}, []
    for layers_i, group, values, steps in model.points:
        combo = tuple(chosen[v] for v in group)
        utility += values[combo][0]
        scores.append(values[combo][1])
        plan = steps[combo]
        assignments[layers_i.id] = {(s, k): plan[k] for k, s in layers_i.decision_points()}
    criteria = model.layers.instance.criteria
    risks = {j: sum(risks[n] for risks in scores) for n, j in enumerate(criteria)}
    return utility, Policy(assignments), {}, risks


def _policyless_verdict(layers: LayeredSpace, status: str, decided_by: str, who: str):
    """A verdict that came without a policy, infeasible or a time-out,
    checked against the default-joint-action policy (all-wait in the
    intersection, where it is feasible by construction) and its
    ``score_policy`` values.  An infeasible verdict stands when that policy
    breaks a budget; one that fits every budget is a feasible witness, and
    ``who``'s verdict then a SolverFailure that names both sides.  A
    time-out falls back to that policy when it fits every budget, and is a
    SolverFailure otherwise."""
    policy = Policy(
        {
            layers_i.id: {
                (s, k): layers_i.default_joint_action
                for k, s in layers_i.decision_points()
            }
            for layers_i in layers
        }
    )
    utility, risks = score_policy(layers, policy, layers.instance.criteria)
    budgets = layers.instance.risk_budgets
    over = {j: r for j, r in risks.items() if not within(r, budgets[j])}
    if status == "infeasible":
        if not over:
            raise SolverFailure(
                f"{who} answered infeasible, but the default-action policy fits every "
                f"budget: risks {risks} within budgets {budgets}"
            )
        return SolveResult(status="infeasible", decided_by=decided_by)
    if over:
        raise SolverFailure(
            f"{who} reached its time limit without an incumbent, and the "
            f"default-action policy exceeds budgets: {over}"
        )
    return SolveResult(
        status=status, objective=utility, policy=policy, risks=risks, decided_by=decided_by
    )


def build_model(instance: MccSspInstance, layers: LayeredSpace) -> IlpModel | PathModel:
    """The model ``decide`` runs HiGHS on: the path model where it applies,
    the occupancy model otherwise.  Raises BudgetExhausted as ``build_ilp``
    does."""
    model = build_path_model(instance, layers)
    return build_ilp(instance, layers) if model is None else model


def solve_instance(
    instance: MccSspInstance,
    layers: LayeredSpace | None = None,
    time_limit: float | None = None,
) -> SolveResult:
    """Validate and lay out the instance when ``layers`` is None, then
    ``solve`` it; the layering counts toward ``build_seconds``."""
    start = time.perf_counter()
    if layers is None:
        layers = reachable_layers(instance)
    layered = time.perf_counter() - start
    result = solve(layers, time_limit=time_limit)
    result.build_seconds += layered
    return result
