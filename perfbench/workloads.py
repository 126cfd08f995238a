"""The workloads, each built so that one layer does most of the work.

A workload has a ``setup`` (imports, one warm-up solve and, for
``intersect-plan``, the full pair-table set), an ``install`` that puts the
measurement hooks in place, and a ``round``: one pass over inputs made from
the seed, the same operations every time for a given seed.  A hook times one
operation with one pair of clock reads, then runs the output checks and, now
and then, the reference work of ``machine``; the time both take is kept out of
the round.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict

import checks
import machine

GRID_BUDGET = 0.2


class Run:
    """Operation latencies, counts and check outcomes of one workload run."""

    def __init__(self, seed, patches, tracer=None, scaled=True):
        self.seed = seed
        self.patches = patches
        self.tracer = tracer
        self.op_ms = []
        self.op_ends = []  # clock reading at the end of each sampled operation
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.check_s = 0.0
        self.notes = {}
        self.meter = machine.Meter(enabled=scaled and tracer is None)

    def aside_s(self):
        """Time spent on checks and reference work so far."""
        return self.check_s + self.meter.aside_s

    def tick(self):
        self.meter.tick()

    def latency(self, ms):
        self.op_ms.append(ms)
        self.op_ends.append(time.perf_counter())

    def check(self, thunk):
        """Run an output check; its time is kept out of the round.  A check
        that raises, say on a policy without an entry for a reachable state,
        is a failed check, not a failed operation."""
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                self.tracer.run_as("bench.check", thunk)
            else:
                thunk()
        except Exception as exc:
            self.problems.append(f"check raised {type(exc).__name__}: {exc}")
        finally:
            self.check_s += time.perf_counter() - start

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)

    def operation(self, thunk, count=1):
        """Run ``thunk`` as ``count`` operations, or as ``count(result)`` of
        them when ``count`` is a function; an exception fails them all (one
        when the count depends on the result)."""
        try:
            result = thunk()
        except Exception as exc:  # a failed operation is reported, not fatal
            n = 1 if callable(count) else count
            self.attempted += n
            self.failed += n
            self.notes.setdefault("errors", []).append(f"{type(exc).__name__}: {exc}")
            return None
        self.attempted += count(result) if callable(count) else count
        return result


class Workload:
    """Defaults: set-up is one warm-up solve; nothing to check at the end.
    ``dominant`` names the layer that must have the most self time in a
    traced round; ``scaled`` says whether times are scaled by machine
    speed (see machine.py); ``setup_repeats`` is how many set-ups, each in
    its own interpreter, ``setup_s`` is the median of.  One set-up of about
    0.8 s spread 17-22% over ten runs."""

    scaled = True
    setup_repeats = 5

    def setup(self, run):
        """One small exact solve: pays the lazy ``scipy.optimize`` import."""
        from mccssp.grid import GridSpec, generate_grid_instance
        from mccssp.ilp import solve_instance

        result = solve_instance(generate_grid_instance(GridSpec(n_agents=1, horizon=1)))
        if result.status != "optimal":
            raise RuntimeError(f"warm-up solve returned {result.status}")

    def finish(self, run):
        pass


def _check_collisions(run, jobs):
    """Collisions, pooled per (planner, delta) over the planning steps, at
    most the 99% point of a binomial with per-step risk delta."""
    pooled = defaultdict(lambda: [0, 0])
    for m in jobs:
        pooled[(m.planner, m.delta)][0] += m.collisions
        pooled[(m.planner, m.delta)][1] += m.planning_steps
    for (planner, delta), (collisions, steps) in sorted(pooled.items()):
        run.expect(steps > 0, f"{planner} delta={delta}: no planning steps")
        limit = checks.collision_limit(delta, steps)
        run.expect(
            collisions <= limit,
            f"{planner} delta={delta}: {collisions} collisions in {steps} steps"
            f" exceeds {limit}, the 99% point of Binomial({steps}, {delta})",
        )


class IntersectPlan(Workload):
    """Receding-horizon planning on one warm scenario: every pair table is
    built in set-up, so rounds time formulation, solve and extraction.
    Operations are planning steps; the latency samples are the mccssp
    steps at HV share 0, each the instance build plus the planner call."""

    name = "intersect-plan"
    dominant = "ilp"
    planners = ("mccssp", "fcfs")
    deltas = (0.001, 0.01, 0.1)
    hv_fractions = (0.0, 0.3)
    # Steps at HV share 0.3 take a median 7 ms and at share 0 25 ms; a
    # median over both would sit in the gap between them and move with
    # the mix, so latency is sampled at share 0, all-AV traffic.
    latency_hv_fraction = 0.0
    duration_s = 40.0
    # Set-up builds the 136 pair tables, about 13 s; four more would add
    # nearly a minute to each run, and one spread 4-9% over ten runs.
    setup_repeats = 1

    def __init__(self):
        self.jobs = []

    def setup(self, run):
        from mccssp.intersection import KINDS, Scenario, ScenarioConfig

        super().setup(run)
        self.scenario = Scenario(ScenarioConfig())
        cfg = self.scenario.config
        variants = sorted(
            {
                self.scenario.variant_key(lane, slot, kind, speed)
                for lane in self.scenario.lanes
                for slot in range(cfg.queue_depth)
                for kind in KINDS
                for speed in cfg.speeds
            }
        )
        for va, vb in itertools.combinations_with_replacement(variants, 2):
            self.scenario.pair_risk(va, vb)
            run.tick()
        run.notes["variants"] = len(variants)

    def install(self, run):
        from mccssp import intersection

        started = [0.0]
        build = intersection.build_intersection_instance
        solve = intersection.solve_instance

        def timed_build(*args, **kwargs):
            started[0] = time.perf_counter()
            return build(*args, **kwargs)

        def timed_solve(instance, *args, **kwargs):
            result = solve(instance, *args, **kwargs)
            if self.scenario.config.hv_fraction == self.latency_hv_fraction:
                run.latency(1e3 * (time.perf_counter() - started[0]))
            run.check(lambda: self._check_plan(run, instance, result))
            run.tick()
            return result

        simulate = intersection.simulate

        def recorded_simulate(*args, **kwargs):
            metrics = simulate(*args, **kwargs)
            self.jobs.append(metrics)
            return metrics

        run.patches.set(intersection, "build_intersection_instance", timed_build)
        run.patches.set(intersection, "solve_instance", timed_solve)
        run.patches.set(intersection, "simulate", recorded_simulate)

    def _check_plan(self, run, instance, result):
        run.expect(result.status == "optimal", f"mccssp plan status {result.status}")
        if result.policy is None:
            return
        for criterion, budget in instance.risk_budgets.items():
            risk = checks.policy_risk(instance, result.policy, criterion)
            run.expect(
                risk <= budget + checks.RISK_SLACK,
                f"plan risk {risk!r} exceeds budget {budget!r}",
            )

    def round(self, run):
        from mccssp import intersection

        cells = itertools.product(self.deltas, self.hv_fractions)
        for n, (delta, hv) in enumerate(cells):
            # each cell its own traffic, shared by both planners
            seed = run.seed * len(self.deltas) * len(self.hv_fractions) + n
            self.scenario.config.hv_fraction = hv
            for planner in self.planners:
                run.operation(
                    lambda: intersection.simulate(
                        self.scenario, planner, self.duration_s, seed=seed,
                        horizon=1, delta=delta,
                    ),
                    count=lambda metrics: metrics.planning_steps,
                )
                run.tick()

    def finish(self, run):
        # every round repeats the same jobs; pooling the repeats would
        # narrow the binomial half-width without adding evidence
        jobs = list({(m.planner, m.delta, m.hv_fraction, m.seed): m for m in self.jobs}.values())
        run.check(lambda: _check_collisions(run, jobs))
        mccssp_jobs = [m for m in jobs if m.planner == "mccssp"]
        for m in mccssp_jobs:
            run.expect(m.throughput_vpm > 0.0, f"job seed {m.seed}: zero throughput")
        run.notes["throughput_vpm"] = (
            sum(m.throughput_vpm for m in mccssp_jobs) / len(mccssp_jobs)
            if mccssp_jobs else 0.0
        )


class GridScale(Workload):
    """``grid.benchmark_rows`` on cells of the acceptance sweep (seed 13:
    agents 1-4 at horizons 1-4, and the two-agent horizon-5 cell) plus
    seeded sweeps of 1-2 agents at horizons 1-3.  The three- and four-agent
    horizon-5 cells are left out: they took 37 and 16 s against 12 s for
    the two-agent one, on the machine at its slower speed, and would make a
    round longer than a run.  Operations are cells.  The latency sample,
    from instance generation to the end of the solve, is the horizon-5
    cell: the same in every run, and the cell the time goes to.  The other
    cells take milliseconds over three orders of magnitude, so a median
    over all cells would fall between groups and follow machine noise on
    short calls."""

    name = "grid-scale"
    dominant = "ilp"
    # Nearly all of a round is one 12 s HiGHS solve, whose time did not
    # follow the reference work: over five runs its raw time spread 3.8%,
    # and scaled by each round's reference time 15%.
    scaled = False
    acceptance_seed = 13
    seeded_grids = 4
    latency_horizon = 5
    sampling = False

    def install(self, run):
        from mccssp import grid

        started = [0.0]
        generate = grid.generate_grid_instance
        solve = grid.solve

        def timed_generate(*args, **kwargs):
            started[0] = time.perf_counter()
            return generate(*args, **kwargs)

        def timed_solve(model, *args, **kwargs):
            result = solve(model, *args, **kwargs)
            if self.sampling and model.instance.horizon == self.latency_horizon:
                run.latency(1e3 * (time.perf_counter() - started[0]))
            run.check(lambda: self._check_cell(run, model.instance, result))
            run.tick()
            return result

        run.patches.set(grid, "generate_grid_instance", timed_generate)
        run.patches.set(grid, "solve", timed_solve)

    def _check_cell(self, run, instance, result):
        label = f"{len(instance.agents)} agents h={instance.horizon}"
        budget = instance.risk_budgets["collision"]
        if result.status == "infeasible":
            # agents here share only the budget, so the least-risk policy
            # is feasible whenever its risk fits
            least = checks.minimum_risk(instance, "collision")
            run.expect(
                least > budget - checks.RISK_SLACK,
                f"{label}: infeasible, yet a policy of risk {least!r} fits",
            )
            return
        run.expect(result.status == "optimal", f"{label}: status {result.status}")
        if result.policy is None:
            return
        bound = checks.risk_blind_optimum(instance)
        run.expect(
            result.objective <= bound + checks.UTILITY_TOL,
            f"{label}: objective {result.objective!r} above risk-blind optimum {bound!r}",
        )
        utility = checks.policy_utility(instance, result.policy)
        run.expect(
            abs(utility - result.objective) <= checks.UTILITY_TOL,
            f"{label}: policy utility {utility!r} differs from objective {result.objective!r}",
        )
        risk = checks.policy_risk(instance, result.policy, "collision")
        run.expect(
            risk <= budget + checks.RISK_SLACK, f"{label}: policy risk {risk!r} exceeds budget"
        )

    def sweeps(self, seed):
        """(grid seed, agent counts, horizons, is the acceptance sweep)."""
        yield self.acceptance_seed, (1, 2, 3, 4), (1, 2, 3, 4), True
        yield self.acceptance_seed, (2,), (self.latency_horizon,), True
        # Two agents on risky starts fill the budget and make a cell
        # infeasible; three raise BudgetExhausted out of benchmark_rows
        # (see CHANGES.md), so seeded grids stop at two agents.
        for k in range(self.seeded_grids):
            yield seed * self.seeded_grids + k, (1, 2), (1, 2, 3), False

    def round(self, run):
        from mccssp import grid

        for grid_seed, agents, horizons, acceptance in self.sweeps(run.seed):
            spec = grid.GridSpec(width=10_000, height=10_000, seed=grid_seed,
                                 risk_budget=GRID_BUDGET)
            self.sampling = acceptance
            rows = run.operation(
                lambda: grid.benchmark_rows(spec, list(agents), list(horizons)),
                count=len(agents) * len(horizons),
            )
            allowed = ("optimal",) if acceptance else ("optimal", "infeasible")
            for row in rows or ():
                run.expect(row["status"] in allowed,
                           f"grid seed {grid_seed} row {row}: status {row['status']}")


class OracleSelftest(Workload):
    """``selftest.run_oracle_equivalence``: the 200 acceptance instances
    (seed 20240) plus a seeded batch, each solved and checked against
    brute-force enumeration.  Operations are instances.  The latency sample
    is the acceptance batch as a whole, one per round.  Per instance there
    is no steady figure: the tail is a few hard instances (the 10th and
    11th slowest of the 200 took 65-125 and 80-110 ms over eight repeats),
    and one instance's time moved by 26% from repeat to repeat (standard
    deviation of the log ratio) on the machine at its slower speed."""

    name = "oracle-selftest"
    dominant = "oracles"
    acceptance = (20_240, 200, 50_000)  # seed, instances, enumeration cap
    seeded_instances = 40
    # A smaller cap resamples the rare seeded draw with a huge policy space,
    # which would otherwise add seconds to one run in three.
    seeded_cap = 5_000

    def install(self, run):
        from mccssp import selftest

        check_instance = selftest.check_instance

        def ticked_check(*args, **kwargs):
            result = check_instance(*args, **kwargs)
            run.tick()
            return result

        run.patches.set(selftest, "check_instance", ticked_check)

    def round(self, run):
        from mccssp import selftest

        for seed, n, cap in (self.acceptance, (run.seed, self.seeded_instances, self.seeded_cap)):
            start, aside = time.perf_counter(), run.aside_s()
            report = run.operation(
                lambda: selftest.run_oracle_equivalence(n_instances=n, seed=seed, cap=cap),
                count=n,
            )
            if seed == self.acceptance[0]:
                elapsed = time.perf_counter() - start - (run.aside_s() - aside)
                run.latency(1e3 * elapsed)
            if report is not None:
                run.check(lambda: self._check(run, report, n, seed))

    def _check(self, run, report, n, seed):
        run.expect(report.ok, f"selftest seed {seed}: {report.failures[:3]}")
        run.expect(report.instances == n, f"selftest seed {seed}: {report.instances} of {n}")
        run.expect(report.max_objective_gap <= 1e-6,
                   f"selftest seed {seed}: objective gap {report.max_objective_gap!r}")
        run.expect(report.max_budget_excess <= 1e-9,
                   f"selftest seed {seed}: budget excess {report.max_budget_excess!r}")


WORKLOADS = {w.name: w for w in (IntersectPlan, GridScale, OracleSelftest)}
