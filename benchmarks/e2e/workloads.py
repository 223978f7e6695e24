"""The six end-to-end workloads of the repro benchmark.

Each workload is what a user of the package actually runs, called through
the package's public functions:

``table1``
    The paper's headline table, regenerated on the ``fast`` engine with
    the exhaustive refutation of the impossible cell.
``convergence``
    exp-s1 as ``repro convergence`` runs it.  Protocols 2 and 3 do not
    compile to a transition table, so their replicates fall down the
    backend ladder to the reference simulator.
``lockstep``
    Table-compilable protocols at P = 128, where the exact ``batch``
    kernel does nearly all the work.
``large_n``
    Windowed kernels (``bleap``, ``leap``, ``fluid``) at N = 1e5 to 1e8.
``verify``
    The symbolic checker and the lint sweep; no simulation.
``served``
    A closed loop of ensemble jobs through a persistent ``ServePool``.

A workload is a :class:`Workload`: ``setup(**sizes)`` builds the inputs
once per process, and ``run_pass(inputs, seed, log)`` runs one pass on
inputs derived from ``seed`` and records every correctness check in
``log``.  The keyword sizes default to the benchmark's sizes; the tests
pass tiny ones.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro import (
    AsymmetricNamingProtocol,
    Configuration,
    Fairness,
    LeaderKind,
    LeaderUniformNamingProtocol,
    MobileInit,
    ModelSpec,
    NamingProblem,
    Population,
    RandomPairScheduler,
    ServePool,
    Symmetry,
    SymmetricGlobalNamingProtocol,
    make_simulator,
    protocol_for,
    run_ensemble,
)
from repro.analysis import reachability
from repro.analysis.check import cached_check
from repro.engine import counts, fast, leap
from repro.errors import ConvergenceError
from repro.experiments.convergence import measure, protocol_series
from repro.experiments.table1 import run_table1
from repro.lint.engine import run_lint
from repro.serve import JobSpec


@dataclass
class PassLog:
    """What one pass did: its checks, work, outputs and counters.

    ``attempted``/``failed`` count operations (a Table 1 cell, a run
    group, a verdict or a job); ``work`` is the pass's unit of work
    (interactions, quotient nodes, jobs or cells); ``outputs`` feed the
    result digest; ``latencies_s`` holds per-job latencies (``served``);
    ``counters`` holds the program's own counters read around the pass.
    """

    seed: int
    attempted: int = 0
    failed: int = 0
    work: float = 0.0
    failures: list[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    #: The operation in flight, for request ids in traces (``served``).
    request: int | None = None

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; record ``what`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    @property
    def request_id(self) -> str:
        """The trace id shared by this pass's (or this job's) spans."""
        if self.request is None:
            return str(self.seed)
        return f"{self.seed}/{self.request}"

    def digest(self) -> str:
        """A short hash of the pass's outputs, to compare runs."""
        return hashlib.sha256(repr(self.outputs).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see the module docstring)."""

    name: str
    why: str
    #: What ``PassLog.work`` counts, for the ``work_per_s`` metric.
    work_unit: str
    setup: Callable[..., object]
    run_pass: Callable[[object, int, PassLog], None]
    #: The untimed first pass; defaults to ``run_pass``.
    warmup: Callable[[object, int, PassLog], None] | None = None
    #: Releases what ``setup`` acquired (the ``served`` pool).
    close: Callable[[object], None] | None = None


def clear_caches() -> None:
    """Empty the package's process-wide content caches.

    Compiled tables, count and leap plans and explored configuration
    graphs outlive a pass in one process, but not a user's command: run
    before every pass, this makes each pass pay what a fresh ``repro``
    process pays.  Reuse within a pass still hits.  (``served`` pool
    workers keep their own caches; a warm pool is that workload's point.)
    """
    fast._TABLE_CACHE.clear()
    fast._FINGERPRINTS.clear()
    counts._PLAN_CACHE.clear()
    leap._LEAP_CACHE.clear()
    reachability._GRAPH_CACHE.clear()


def _random_pair(population: Population, seed: int) -> RandomPairScheduler:
    """Scheduler factory: the uniformly random scheduler of exp-s1."""
    return RandomPairScheduler(population, seed=seed)


def _uniform_start(population: Population, seed: int) -> Configuration:
    """Initial factory: every agent in the asymmetric protocol's state 0."""
    return Configuration.uniform(population, 0)


# ----------------------------------------------------------------------
# table1
# ----------------------------------------------------------------------


def _table1_setup(bound: int = 5, budget: int = 400_000) -> dict:
    return {"bound": bound, "budget": budget}


def _table1_pass(inputs: dict, seed: int, log: PassLog) -> None:
    rows = run_table1(
        bound=inputs["bound"],
        seed=seed,
        budget=inputs["budget"],
        thorough=True,
        backend="fast",
    )
    log.check(len(rows) == 24, f"Table 1 has {len(rows)} cells, not 24")
    for row in rows:
        log.check(row.match, f"cell {row.spec.describe()} misses the paper")
        log.outputs.append(
            (row.spec.describe(), row.measured_feasible, row.measured_states)
        )
    log.work += len(rows)


# ----------------------------------------------------------------------
# convergence and lockstep: measure() over (protocol, sizes) cells
# ----------------------------------------------------------------------


def _measure_cells(inputs: dict, seed: int, log: PassLog) -> None:
    """``measure()`` every cell on ``runs`` seeds derived from ``seed``.

    ``measure`` raises :class:`ConvergenceError` when a replicate is not
    certified-converged within the budget, so a cell that returns is a
    cell whose every replicate converged.
    """
    runs = inputs["runs"]
    seeds = range(seed * runs, (seed + 1) * runs)
    for protocol, sizes, uniform in inputs["cells"]:
        for n in sizes:
            try:
                point = measure(
                    protocol,
                    n,
                    inputs["bound"],
                    seeds=seeds,
                    budget=inputs["budget"],
                    uniform=uniform,
                )
            except ConvergenceError as exc:
                log.check(False, str(exc))
                continue
            summary = point.summary
            log.check(
                summary.count == runs,
                f"{point.protocol} N={n}: {summary.count} of {runs} runs",
            )
            log.work += summary.mean * summary.count
            log.outputs.append(
                (point.protocol, n, summary.mean, summary.maximum)
            )


def _convergence_setup(
    bound: int = 9, runs: int = 16, budget: int = 2_000_000
) -> dict:
    # 16 seeds per cell keep a pass near one second, so a run's median
    # is taken over about ten passes: on a shared machine the wall-clock
    # noise of a pass is larger than its seed-to-seed variation.
    return {
        "cells": protocol_series(bound),
        "bound": bound,
        "runs": runs,
        "budget": budget,
    }


def _lockstep_setup(
    bound: int = 128,
    sizes: tuple[int, ...] = (32, 64, 128),
    prop13_sizes: tuple[int, ...] = (32, 64),
    runs: int = 256,
    budget: int = 50_000_000,
) -> dict:
    # Prop. 13's cost explodes past about N = P / 2, hence its own sizes.
    cells = [
        (AsymmetricNamingProtocol(bound), list(sizes), False),
        (LeaderUniformNamingProtocol(bound), list(sizes), True),
        (SymmetricGlobalNamingProtocol(bound), list(prop13_sizes), False),
    ]
    return {"cells": cells, "bound": bound, "runs": runs, "budget": budget}


# ----------------------------------------------------------------------
# large_n
# ----------------------------------------------------------------------


def _large_n_setup(
    bound: int = 8,
    bleap_n: int = 100_000,
    bleap_runs: int = 64,
    fluid_n: int = 1_000_000,
    fluid_runs: int = 4,
    leap_n: int = 1_000_000,
    counts_n: int = 100_000_000,
) -> dict:
    # A spread start is an equilibrium (one leap per run), so every run
    # starts uniform and runs to a 10 N horizon: P < N never names.
    return {
        "protocol": AsymmetricNamingProtocol(bound),
        "ensembles": [
            (Population(bleap_n), bleap_runs),
            (Population(fluid_n), fluid_runs),
        ],
        "leap": Population(leap_n),
        "counts": Population(counts_n),
    }


def _horizon_ok(result, size: int) -> bool:
    """The run reached its 10 N horizon and conserved the population."""
    if result.final_counts is not None:
        total = sum(result.final_counts.values())
    else:
        total = len(result.final_configuration)
    return result.interactions == 10 * size and total == size


def _large_n_pass(inputs: dict, seed: int, log: PassLog) -> None:
    # Each step's O(N) results are dropped before the next step starts,
    # so peak memory is that of the largest step.  Kept alive, the N = 1e6
    # configurations of one step overlapped the next step's by an amount
    # that depended on the seed, and peak_rss_mb moved by 8% between runs.
    protocol = inputs["protocol"]
    for population, runs in inputs["ensembles"]:
        size = population.size
        results = run_ensemble(
            protocol,
            population,
            _random_pair,
            _uniform_start,
            NamingProblem(),
            seeds=range(seed * runs, (seed + 1) * runs),
            max_interactions=10 * size,
        ).results
        log.check(
            len(results) == runs
            and all(_horizon_ok(r, size) for r in results),
            f"run_ensemble at N={size}: a run missed its horizon",
        )
        log.work += sum(r.interactions for r in results)
        log.outputs.append((size, sum(r.non_null_interactions for r in results)))
        del results

    population = inputs["leap"]
    simulator = make_simulator(
        "leap", protocol, population, _random_pair(population, seed),
        NamingProblem(),
    )
    result = simulator.run(
        _uniform_start(population, seed),
        max_interactions=10 * population.size,
    )
    log.check(
        _horizon_ok(result, population.size),
        f"leap at N={population.size}: the run missed its horizon",
    )
    log.work += result.interactions
    log.outputs.append((population.size, result.non_null_interactions))
    del simulator, result

    population = inputs["counts"]
    simulator = make_simulator(
        "fluid", protocol, population, _random_pair(population, seed),
        NamingProblem(),
    )
    result = simulator.run_counts(
        {0: population.size}, max_interactions=10 * population.size
    )
    log.check(
        _horizon_ok(result, population.size),
        f"fluid run_counts at N={population.size}: the run missed its horizon",
    )
    log.work += result.interactions
    log.outputs.append((population.size, result.non_null_interactions))


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

_WEAK, _GLOBAL = Fairness.WEAK, Fairness.GLOBAL
_SYM, _ASYM = Symmetry.SYMMETRIC, Symmetry.ASYMMETRIC
_INIT, _NONE = LeaderKind.INITIALIZED, LeaderKind.NONE

#: (spec, P, N, properties, pinned reach-set size).  The first cell is
#: Prop. 16 at P = 16, N = 4; the other three are the P = 32 cells the
#: CI ``check`` job verifies (Props. 13, 16 and 12).  Liveness at
#: P = 16, N = 4 is left out: it alone took 3.5 s, two thirds of a pass,
#: and the P = 32 cell of Prop. 16 checks liveness too.
VERIFY_CELLS = (
    (ModelSpec(_WEAK, _SYM, _INIT, MobileInit.ARBITRARY), 16, 4,
     ("reach", "sinks"), 6772),
    (ModelSpec(_GLOBAL, _SYM, _NONE, MobileInit.ARBITRARY), 32, 3,
     ("reach", "sinks"), 6545),
    (ModelSpec(_WEAK, _SYM, _INIT, MobileInit.ARBITRARY), 32, 3,
     ("reach", "sinks", "liveness"), 7254),
    (ModelSpec(_GLOBAL, _ASYM, _NONE, MobileInit.ARBITRARY), 32, 3,
     ("reach", "sinks"), 5984),
)


def _verify_setup(
    cells: tuple = VERIFY_CELLS, lint_bounds: tuple[int, ...] = (3, 5, 8)
) -> dict:
    checks = []
    for spec, bound, n_mobile, props, pinned in cells:
        protocol = protocol_for(spec, bound)
        # The root conventions of ``repro check``: an initialized leader
        # starts in its designated state.
        leader_states = None
        if protocol.requires_leader and spec.leader is LeaderKind.INITIALIZED:
            leader_states = [protocol.initial_leader_state()]
        mode = (
            "uniform" if spec.mobile_init is MobileInit.UNIFORM
            else "arbitrary"
        )
        checks.append((protocol, n_mobile, props, pinned, mode, leader_states))
    return {"checks": checks, "lint_bounds": lint_bounds}


def _verify_pass(inputs: dict, seed: int, log: PassLog) -> None:
    for protocol, n_mobile, props, pinned, mode, leader_states in inputs[
        "checks"
    ]:
        for prop in props:
            verdict = cached_check(
                protocol,
                prop,
                n_mobile,
                mobile_mode=mode,
                leader_states=leader_states,
                cache=None,
            )
            log.check(
                verdict.holds
                and (pinned is None or verdict.explored == pinned),
                f"{protocol.display_name} N={n_mobile} {prop}: holds="
                f"{verdict.holds}, {verdict.explored} nodes (pinned {pinned})",
            )
            log.work += verdict.explored
            log.outputs.append(
                (protocol.display_name, n_mobile, prop, verdict.holds,
                 verdict.explored)
            )
    report = run_lint(bounds=inputs["lint_bounds"])
    log.check(
        not report.errors and not report.budget_skips,
        f"lint: {len(report.errors)} errors, "
        f"{len(report.budget_skips)} budget skips",
    )
    log.outputs.append(
        (report.cells_checked, len(report.errors), len(report.warnings))
    )


# ----------------------------------------------------------------------
# served
# ----------------------------------------------------------------------


def _served_setup(
    bounds: tuple[int, ...] = (16, 32, 64),
    jobs: int = 30,
    runs: int = 16,
    budget: int = 10_000_000,
    workers: int = 2,
) -> dict:
    # 16 seeds are one chunk (``LOCKSTEP_MIN_CHUNK``), so a job is one
    # round trip to one worker, and its compute outweighs the round trip:
    # with 8 seeds the round trips made a pass twice as noisy.
    pool = ServePool(max_workers=workers)
    try:
        pool.warm()
    except BaseException:
        pool.shutdown()
        raise
    return {
        "pool": pool,
        "protocols": {p: AsymmetricNamingProtocol(p) for p in bounds},
        "jobs": jobs,
        "runs": runs,
        "budget": budget,
    }


def _served_jobs(inputs: dict, seed: int) -> list[tuple[JobSpec, int]]:
    """The pass's jobs as ``(spec, index of the job it repeats or -1)``.

    Fresh jobs cycle through the bounds (Prop. 12 at N = P) with random
    seed sets; every third job repeats a random earlier fresh job, so
    memo hits sit beside cache writes in a fixed proportion.
    """
    rng = random.Random(seed)
    bounds = sorted(inputs["protocols"])
    runs = inputs["runs"]
    jobs: list[tuple[JobSpec, int]] = []
    fresh: list[int] = []
    for j in range(inputs["jobs"]):
        if j % 3 == 2:
            first = rng.choice(fresh)
            jobs.append((jobs[first][0], first))
            continue
        bound = bounds[len(fresh) % len(bounds)]
        base = rng.randrange(1 << 40)
        spec = JobSpec(
            protocol=inputs["protocols"][bound],
            population=Population(bound),
            scheduler_factory=_random_pair,
            initial_factory=_uniform_start,
            problem=NamingProblem(),
            seeds=range(base, base + runs),
            max_interactions=inputs["budget"],
        )
        fresh.append(j)
        jobs.append((spec, -1))
    return jobs


def _served_run(inputs: dict, seed: int, log: PassLog) -> list:
    """Closed loop, one client, one job in flight; returns the ensembles."""
    pool = inputs["pool"]
    before = pool.stats()
    ensembles = []
    for j, (spec, first) in enumerate(_served_jobs(inputs, seed)):
        log.request = j
        start = time.perf_counter()
        ensemble = pool.submit(spec).result()
        log.latencies_s.append(time.perf_counter() - start)
        log.request = None
        ok = all(r.converged for r in ensemble.results)
        if first >= 0:
            earlier = ensembles[first]
            ok = ok and ensemble.seeds == earlier.seeds
            ok = ok and ensemble.results == earlier.results
        log.check(ok, f"job {j}: not converged or repeat differs")
        ensembles.append(ensemble)
        log.work += 1
        log.outputs.append(
            tuple(r.convergence_interaction for r in ensemble.results)
        )
    after = pool.stats()
    for key in after:
        log.counters[key] += after[key] - before[key]
    return ensembles


def _served_warmup(inputs: dict, seed: int, log: PassLog) -> None:
    """A pass whose fresh jobs are also run in-process and compared."""
    ensembles = _served_run(inputs, seed, log)
    for j, (spec, first) in enumerate(_served_jobs(inputs, seed)):
        if first >= 0:
            continue
        local = run_ensemble(
            spec.protocol,
            spec.population,
            spec.scheduler_factory,
            spec.initial_factory,
            spec.problem,
            seeds=spec.seeds,
            max_interactions=spec.max_interactions,
        )
        log.check(
            local.results == ensembles[j].results,
            f"job {j}: served result differs from in-process run_ensemble",
        )


def _served_close(inputs: dict) -> None:
    inputs["pool"].shutdown()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "table1",
            "The paper's headline table: per-run fast engine, explicit "
            "weak-fairness checker and the reference fallback of the "
            "adversarial scheduler.",
            "cells",
            _table1_setup,
            _table1_pass,
        ),
        Workload(
            "convergence",
            "exp-s1 as repro convergence runs it; Protocols 2 and 3 fall "
            "down the backend ladder to the reference simulator.",
            "interactions",
            _convergence_setup,
            _measure_cells,
        ),
        Workload(
            "lockstep",
            "Table-compilable protocols at P=128 where the exact batch "
            "kernel does the work; the ensemble layer of convergence "
            "without the fallback.",
            "interactions",
            _lockstep_setup,
            _measure_cells,
        ),
        Workload(
            "large_n",
            "Windowed kernels bleap, leap and fluid at N=1e5 to 1e8: "
            "O(N) interning and materialization, and memory.",
            "interactions",
            _large_n_setup,
            _large_n_pass,
        ),
        Workload(
            "verify",
            "Symbolic model checker and lint sweep, no simulation; the "
            "same inputs for every seed.",
            "quotient nodes",
            _verify_setup,
            _verify_pass,
        ),
        Workload(
            "served",
            "Closed loop of ensemble jobs through a warm 2-worker "
            "ServePool; a third of the jobs repeat, so memo hits sit "
            "beside cache writes.",
            "jobs",
            _served_setup,
            _served_run,
            warmup=_served_warmup,
            close=_served_close,
        ),
    )
}
