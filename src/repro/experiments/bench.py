"""Micro-benchmark ``repro bench``: engine and serving throughput as one
table of cells.

A *cell* (:class:`Cell`) is one timed measurement: its section, the
workload, the engine measured, the baseline engine it is compared with,
the start configuration, the population size ``N``, the replicate count
``R``, the interaction budget per replicate and the number of repeats.
Repeats are seed-identical runs of the same computation, so the fastest
one is kept: it carries the least machine noise.  :data:`FULL_CELLS` is
the default run and :data:`SMOKE_CELLS` the small cells of CI's smoke
step.  The sections:

* ``backends`` - the per-run ladder ``reference`` -> ``fast`` ->
  ``counts`` on the naming protocol (Proposition 12, bound 8) and on
  :class:`ChurnProtocol`, whose every interaction rewrites both agents.
  ``reference`` pays O(N) per interaction and is timed only up to
  :data:`REFERENCE_MAX_N` agents;
* ``ensemble`` - the lockstep ``batch`` engine against chunked per-run
  ``counts`` dispatch, both through
  :func:`~repro.engine.ensemble.run_ensemble` with ``n_jobs=1``;
* ``leap`` and ``bleap`` - the tau-leaping engines against exact
  ``counts``, as a single run and as an ensemble;
* ``fluid`` - the mean-field tier, run counts-native, against ``leap``
  on the full ``10 N`` naming horizon, end to end;
* ``parallel`` - a ``bleap`` ensemble, serial against ``sharded``: the
  same ensemble through :func:`~repro.engine.ensemble.run_ensemble`
  with one seed chunk per worker process, one worker per core (at least
  2, at most 8), results returned pickled;
* ``serve`` - a burst of :data:`SERVE_JOBS` small naming ensembles:
  ``cold`` calls ``run_ensemble`` once per job, ``warm`` submits the
  burst to a fresh warmed :class:`~repro.serve.pool.ServePool`, and
  ``memo`` resubmits it to a pool that has served it once already.
  Every repeat gets its own pool and cache directory, so each includes
  every protocol's first touch.

Starts, built outside the timer unless said otherwise:

* ``spread`` deals the protocol's states round-robin, so the
  null/non-null mix of the exact engines is stationary from the first
  interaction;
* ``uniform`` puts every agent in state 0.  The windowed cells use it:
  the spread start is the naming protocol's mean-field equilibrium, and
  from it a replicate's whole budget is a single leap window;
* ``zeros`` is the uniform start built as a plain agent vector *inside*
  the timer, so the ``fluid`` cells are end to end (the fluid engine
  runs from the counts ``{0: N}`` and never builds one).

The run is also a differential check.  ``fast`` must return results
equal to ``reference``'s, ``warm`` and ``memo`` ensembles must equal
``cold``'s, and the warm pass must not hit the result memo; otherwise
the bench raises :class:`~repro.errors.SimulationError`.

:data:`GATES` are the CI floors.  Each names a full-size cell, a
quantity (``rate``, work per second; ``rate ratio`` and ``wall ratio``,
against the cell's baseline) and a floor, and may need a minimum core
count, below which its value is reported and the gate skipped.  A
full-size run checks the gates of every section it ran and exits 1 when
one fails; a ``--smoke`` run checks none.  ``python -m repro bench``
prints one table per section and writes ``BENCH_simulator.json``: every
point with its ratio to its baseline, an ``environment`` block (NumPy
version, CPU count, git revision), the wall clock of each section that
ran, harness included (``section_seconds``), and their sum
(``total_seconds``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import subprocess
import time
from collections.abc import Sequence
from typing import NamedTuple

import numpy

from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.ensemble import run_ensemble
from repro.engine.fast import make_simulator
from repro.engine.fluid import FluidSimulator
from repro.engine.population import Population
from repro.engine.problems import NamingProblem
from repro.engine.protocol import PopulationProtocol
from repro.engine.simulator import RunStats
from repro.engine.state import State
from repro.errors import SimulationError
from repro.experiments.report import render_table
from repro.schedulers.random_pair import RandomPairScheduler

#: Default scheduler seed (the paper's year, as elsewhere in the harness).
DEFAULT_SEED = 2018

#: Default output file, relative to the working directory.
DEFAULT_OUT = "BENCH_simulator.json"

#: Largest population the O(N)-per-interaction reference backend is
#: timed at; the backend ladder leaves it out above this size.
REFERENCE_MAX_N = 2_000

#: The bench sections in run order; ``--sections`` selects a subset.
SECTIONS = (
    "backends", "ensemble", "leap", "bleap", "fluid", "parallel", "serve"
)

#: Sections timed end to end: a cell's ratio to its baseline compares
#: wall clocks (the cells finish the same horizon or the same jobs)
#: rather than rates.
END_TO_END = ("fluid", "serve")

#: ``(engine, baseline)`` pairs whose results must be identical.
IDENTICAL = frozenset(
    {("fast", "reference"), ("warm", "cold"), ("memo", "cold")}
)

#: Shape of the serve burst: :data:`SERVE_JOBS` jobs cycling through the
#: naming bounds :data:`SERVE_BOUNDS`, each with its own seed set, on
#: :data:`SERVE_WORKERS` workers.  Small jobs, so per-call setup is the
#: dominant cost: the regime the serving layer exists for.
SERVE_JOBS = 16
SERVE_BOUNDS = (4, 6, 8)
SERVE_WORKERS = 2

#: Cores below which the sharded/serial gate reports and skips: a
#: sharded run cannot beat serial without cores to shard across.
PARALLEL_MIN_CORES = 4

_TITLES = {
    "backends": "simulator backend throughput (uniform random scheduler)",
    "ensemble": "ensemble throughput (chunked counts vs batch, n_jobs=1)",
    "leap": "leap throughput (counts vs leap)",
    "bleap": "bleap throughput (chunked counts vs bleap ensembles)",
    "fluid": "fluid fast-forward (leap vs fluid, end to end)",
    "parallel": "parallel execution (worker processes vs serial)",
    "serve": "serving layer (cold per-call run_ensemble vs warm pool "
             "vs result memo)",
}



class ChurnProtocol(PopulationProtocol):
    """Always-active stress protocol: ``(p, q) -> (q + 1, p + 1) mod m``.

    With an odd modulus no interaction is ever null, so every step forces
    the reference simulator's O(N) configuration rebuild - the cost the
    fast backend's mutable state array eliminates.  Not a naming protocol;
    it exists purely to measure per-interaction engine overhead.
    """

    display_name = "churn stress"
    symmetric = False
    requires_leader = False

    def __init__(self, modulus: int = 9) -> None:
        if modulus < 3 or modulus % 2 == 0:
            raise ValueError(
                f"modulus must be odd and >= 3 to keep every interaction "
                f"non-null, got {modulus}"
            )
        self._modulus = modulus
        self._states = frozenset(range(modulus))

    def transition(self, p: State, q: State) -> tuple[State, State]:
        """Rotate both agents; never null for odd moduli."""
        m = self._modulus
        return (q + 1) % m, (p + 1) % m

    def mobile_state_space(self) -> frozenset[State]:
        """States ``{0, ..., modulus - 1}``."""
        return self._states


def _safe_rate(work: float, seconds: float) -> float:
    """``work / seconds`` with the zero-time edge cases pinned down.

    ``seconds == 0`` happens when a run finishes inside one timer tick
    (coarse clocks, trivial budgets).  Dividing would raise
    ``ZeroDivisionError``; returning ``0.0`` would make an *infinitely
    fast* run read as infinitely slow and spuriously trip the gates.
    The sentinel is therefore ``float("inf")`` when work was done in
    zero measured time, and ``0.0`` only when no work was done at all.
    """
    if seconds > 0:
        return work / seconds
    return float("inf") if work > 0 else 0.0


class Cell(NamedTuple):
    """One row of the bench table: what to time, and at what size.

    ``baseline`` names the engine this cell is compared with, measured
    in the same section, workload, ``n`` and ``r`` (``None`` for a
    baseline).  ``workload`` is ``naming`` (bound 8), ``naming P=k``
    (bound ``k``) or ``churn``; ``start`` is one of the starts of the
    module docstring; ``budget`` is the interaction budget per
    replicate; ``repeats`` counts the timed repeats, the fastest kept.
    """

    section: str
    workload: str
    engine: str
    baseline: str | None
    start: str
    n: int
    r: int
    budget: int
    repeats: int = 1

    @property
    def key(self) -> tuple[str, str, str, int, int]:
        """``(section, workload, engine, n, r)``: what gates refer to."""
        return (self.section, self.workload, self.engine, self.n, self.r)


class Gate(NamedTuple):
    """A CI floor: the cell keyed ``cell`` must reach ``floor``.

    ``quantity`` is ``"rate"`` (work per second), ``"rate ratio"`` (the
    cell's rate over its baseline's) or ``"wall ratio"`` (the baseline's
    seconds over the cell's).  On hosts with fewer than ``min_cores``
    cores the value is reported and the gate skipped.
    """

    cell: tuple[str, str, str, int, int]
    quantity: str
    floor: float
    min_cores: int = 1


def _ladder(workload: str, n: int, budget: int) -> tuple[Cell, ...]:
    """The per-run backend ladder at one size: ``reference`` (up to
    :data:`REFERENCE_MAX_N` agents), ``fast``, ``counts``, each cell
    compared with the engine before it."""
    engines = ("fast", "counts")
    if n <= REFERENCE_MAX_N:
        engines = ("reference", *engines)
    return tuple(
        Cell("backends", workload, engine, baseline, "spread", n, 1, budget)
        for baseline, engine in zip((None, *engines), engines)
    )


def _pair(
    section: str,
    workload: str,
    engine: str,
    baseline: str,
    start: str,
    n: int,
    r: int,
    budget: int,
    repeats: int = 1,
) -> tuple[Cell, Cell]:
    """The ``baseline`` cell, then ``engine`` against it at the same size
    (the baseline runs first, so a crash cannot hide its number)."""
    return (
        Cell(section, workload, baseline, None, start, n, r, budget, repeats),
        Cell(section, workload, engine, baseline, start, n, r, budget,
             repeats),
    )


#: The default run.  ``_pair`` columns: section, workload, engine,
#: baseline, start, N, R, budget per replicate, repeats.
FULL_CELLS: tuple[Cell, ...] = (
    *_ladder("naming", 10, 200_000),
    *_ladder("naming", 100, 50_000),
    *_ladder("naming", 1_000, 50_000),
    *_ladder("churn", 10, 200_000),
    *_ladder("churn", 100, 50_000),
    *_ladder("churn", 1_000, 50_000),
    *_ladder("naming", 100_000, 1_000_000),
    *_pair("ensemble", "naming", "batch", "counts", "spread",
           1_000, 64, 20_000, 3),
    *_pair("ensemble", "naming", "batch", "counts", "spread",
           1_000, 256, 20_000, 3),
    *_pair("ensemble", "naming", "batch", "counts", "spread",
           100_000, 64, 20_000, 3),
    *_pair("ensemble", "naming", "batch", "counts", "spread",
           100_000, 256, 20_000, 3),
    *_pair("leap", "naming", "leap", "counts", "uniform",
           1_000_000, 1, 10_000_000),
    *_pair("bleap", "naming", "bleap", "counts", "uniform",
           100_000, 256, 200_000, 2),
    *_pair("fluid", "naming", "fluid", "leap", "zeros",
           100_000_000, 1, 1_000_000_000),
    *_pair("parallel", "naming", "sharded", "bleap", "uniform",
           100_000, 1_024, 200_000),
    *_pair("serve", "naming", "warm", "cold", "uniform", 100, 6, 2_500, 3),
    Cell("serve", "naming", "memo", "cold", "uniform", 100, 6, 2_500, 3),
)

#: The cells of CI's smoke step: every engine and the differential
#: check on tiny budgets.  Not a performance gate.
SMOKE_CELLS: tuple[Cell, ...] = (
    *_ladder("naming", 6, 6_666),
    *_ladder("naming", 25, 2_000),
    *_ladder("churn", 6, 6_666),
    *_ladder("churn", 25, 2_000),
    *_pair("ensemble", "naming", "batch", "counts", "spread",
           12, 4, 1_000, 3),
    *_pair("ensemble", "naming", "batch", "counts", "spread",
           12, 8, 1_000, 3),
    *_pair("leap", "naming", "leap", "counts", "uniform",
           50_000, 1, 200_000),
    *_pair("bleap", "naming", "bleap", "counts", "uniform",
           20_000, 8, 4_000, 2),
    *_pair("fluid", "naming", "fluid", "leap", "zeros",
           100_000, 1, 100_000),
    *_pair("parallel", "naming", "sharded", "bleap", "uniform",
           100_000, 32, 4_000),
)

#: The CI floors, checked by every full-size run.
GATES: tuple[Gate, ...] = (
    Gate(("backends", "naming", "counts", 100_000, 1), "rate", 1_000_000),
    Gate(("ensemble", "naming", "batch", 100_000, 256), "rate", 2_000_000),
    Gate(("ensemble", "naming", "batch", 100_000, 256), "rate ratio", 1.0),
    Gate(("leap", "naming", "leap", 1_000_000, 1), "rate ratio", 10),
    Gate(("bleap", "naming", "bleap", 100_000, 256), "rate ratio", 5),
    Gate(("fluid", "naming", "fluid", 100_000_000, 1), "wall ratio", 10),
    Gate(("parallel", "naming", "sharded", 100_000, 1_024), "rate ratio",
         2, PARALLEL_MIN_CORES),
    Gate(("serve", "naming", "warm", 100, 6), "wall ratio", 3),
)


@dataclasses.dataclass(frozen=True)
class BenchPoint:
    """One measured cell.

    ``work`` counts interactions (pooled over replicates and jobs);
    ``seconds`` is the fastest repeat.  ``stats`` holds the non-null
    interaction count (``non_null``), the optional
    :class:`~repro.engine.simulator.RunStats` fields the run filled in
    (window and ODE counters),
    the worker count of a sharded cell (``jobs``) and the memo hits of a
    served pass (``memo_hits``).
    """

    section: str
    workload: str
    engine: str
    baseline: str | None
    n_mobile: int
    replicates: int
    work: int
    seconds: float
    stats: dict = dataclasses.field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str, str, int, int]:
        """``(section, workload, engine, n_mobile, replicates)``."""
        return (
            self.section, self.workload, self.engine, self.n_mobile,
            self.replicates,
        )

    @property
    def rate(self) -> float:
        """Work per second (see :func:`_safe_rate` for the zero-time
        sentinel)."""
        return _safe_rate(self.work, self.seconds)

    @property
    def runs_per_second(self) -> float:
        """Replicates per second (see :func:`_safe_rate`)."""
        return _safe_rate(self.replicates, self.seconds)


#: The optional :class:`RunStats` fields a point reports when set.
_STAT_FIELDS = tuple(
    f.name for f in dataclasses.fields(RunStats) if f.default is None
)


def _summary(results, stats: RunStats | None) -> tuple[int, dict]:
    """Pooled interactions of ``results`` and a point's stats dict."""
    summary = {"non_null": sum(r.non_null_interactions for r in results)}
    for name in _STAT_FIELDS:
        value = getattr(stats, name, None)
        if value is not None:
            summary[name] = value
    return sum(r.interactions for r in results), summary


def _protocol(workload: str) -> PopulationProtocol:
    """The protocol a workload names (see :class:`Cell`)."""
    if workload == "churn":
        return ChurnProtocol()
    return AsymmetricNamingProtocol(int(workload.partition("P=")[2] or 8))


def _initial(
    start: str, protocol: PopulationProtocol, population: Population
) -> Configuration:
    """The ``spread``, ``uniform`` or ``zeros`` start configuration."""
    if start == "spread":
        space = sorted(protocol.mobile_state_space())
        return Configuration(
            tuple(space[i % len(space)] for i in range(population.size)),
            None,
        )
    if start == "uniform":
        return Configuration.uniform(population, 0)
    return Configuration((0,) * population.size, None)


def _scheduler(population: Population, seed: int) -> RandomPairScheduler:
    """Picklable scheduler factory: uniform random pairs."""
    return RandomPairScheduler(population, seed=seed)


def _uniform(population: Population, seed: int) -> Configuration:
    """Picklable initial factory of the serve jobs: the uniform start."""
    return Configuration.uniform(population, 0)


class _Prebuilt:
    """Picklable initial factory returning one configuration built
    before the timer, so no replicate pays O(N) construction."""

    def __init__(self, config: Configuration) -> None:
        self.config = config

    def __call__(self, population: Population, seed: int) -> Configuration:
        return self.config


def _timed(run, *args, **kwargs):
    """``(seconds, run(*args, **kwargs))``."""
    start = time.perf_counter()
    value = run(*args, **kwargs)
    return time.perf_counter() - start, value


# Runners: one per kind of work.  Each times one repeat of ``cell`` on
# ``engine`` over ``jobs`` workers and returns ``(seconds, work, stats,
# outcome)``; ``outcome`` is what the differential check compares.


def _run_single(cell: Cell, engine: str, seed: int, jobs: int):
    """One ``simulator.run``."""
    protocol, population = _protocol(cell.workload), Population(cell.n)
    simulator = make_simulator(
        engine, protocol, population,
        RandomPairScheduler(population, seed=seed), NamingProblem(),
    )
    if cell.start == "zeros":  # end to end: the agent vector is timed
        seconds, result = _timed(
            lambda: simulator.run(
                _initial(cell.start, protocol, population),
                max_interactions=cell.budget,
            )
        )
    else:
        initial = _initial(cell.start, protocol, population)
        seconds, result = _timed(
            simulator.run, initial, max_interactions=cell.budget
        )
    return (seconds, *_summary([result], result.stats), result)


def _run_ensemble(cell: Cell, engine: str, seed: int, jobs: int):
    """One :func:`run_ensemble` call over seeds ``seed .. seed + R - 1``."""
    protocol, population = _protocol(cell.workload), Population(cell.n)
    seconds, ensemble = _timed(
        run_ensemble,
        protocol,
        population,
        _scheduler,
        _Prebuilt(_initial(cell.start, protocol, population)),
        NamingProblem(),
        seeds=range(seed, seed + cell.r),
        max_interactions=cell.budget,
        backend=engine,
        n_jobs=jobs,
    )
    return (seconds, *_summary(ensemble.results, ensemble.stats), None)


def _run_fluid(cell: Cell, engine: str, seed: int, jobs: int):
    """One counts-native fluid run from ``{0: N}``: no agent vector."""
    population = Population(cell.n)
    fluid = FluidSimulator(
        _protocol(cell.workload), population,
        RandomPairScheduler(population, seed=seed), problem=NamingProblem(),
    )
    seconds, result = _timed(
        fluid.run_counts, {0: cell.n}, max_interactions=cell.budget
    )
    return (seconds, *_summary([result], result.stats), None)


def _serve_pass(pool, specs) -> list:
    """Submit every job up front, then collect the ensembles in order."""
    handles = [pool.submit(spec) for spec in specs]
    return [handle.result() for handle in handles]


def _run_serve(cell: Cell, engine: str, seed: int, jobs: int):
    """One ``cold``, ``warm`` or ``memo`` pass over the serve burst.

    Jobs carry distinct seed sets, so the warm pass cannot shortcut
    through the memo: it measures the pool, the artifact cache and hash
    shipping.  Pool start-up and ``warm()`` are not timed.
    """
    from repro.serve.pool import ServePool
    from repro.serve.spec import JobSpec

    specs = [
        JobSpec(
            AsymmetricNamingProtocol(SERVE_BOUNDS[j % len(SERVE_BOUNDS)]),
            Population(cell.n),
            _scheduler,
            _uniform,
            NamingProblem(),
            seeds=tuple(seed + 1_000 * j + i for i in range(cell.r)),
            max_interactions=cell.budget,
            backend="batch",
        )
        for j in range(SERVE_JOBS)
    ]
    stats: dict[str, int] = {}
    if engine == "cold":  # a fresh executor and protocol pickles per job
        seconds, ensembles = _timed(lambda: [
            run_ensemble(
                s.protocol, s.population, s.scheduler_factory,
                s.initial_factory, s.problem, list(s.seeds),
                max_interactions=s.max_interactions, backend=s.backend,
                n_jobs=SERVE_WORKERS,
            )
            for s in specs
        ])
    else:
        with ServePool(max_workers=SERVE_WORKERS) as pool:
            pool.warm()
            if engine == "memo":
                _serve_pass(pool, specs)
            hits = pool.memo_hits
            seconds, ensembles = _timed(_serve_pass, pool, specs)
            stats["memo_hits"] = pool.memo_hits - hits
        if engine == "warm" and stats["memo_hits"]:
            raise SimulationError(
                "the warm serve pass hit the result memo; serve jobs must "
                "carry distinct seed sets"
            )
    work, summary = _summary([r for e in ensembles for r in e.results], None)
    outcome = [(e.seeds, e.results) for e in ensembles]
    return seconds, work, {**summary, **stats}, outcome


def _measure(cell: Cell, seed: int) -> tuple[BenchPoint, object]:
    """Time ``cell``, keeping its fastest repeat; returns the point and
    the outcome of the last repeat."""
    sharded = cell.engine == "sharded"
    engine = cell.baseline if sharded and cell.baseline else cell.engine
    jobs = max(2, min(os.cpu_count() or 1, 8)) if sharded else 1
    if cell.section == "serve":
        runner = _run_serve
    elif engine == "fluid":
        runner = _run_fluid
    elif cell.r > 1:
        runner = _run_ensemble
    else:
        runner = _run_single
    best = math.inf
    for _ in range(cell.repeats):
        seconds, work, stats, outcome = runner(cell, engine, seed, jobs)
        best = min(best, seconds)
    if sharded:
        stats["jobs"] = jobs
    point = BenchPoint(
        cell.section, cell.workload, cell.engine, cell.baseline, cell.n,
        cell.r, work, best, stats,
    )
    return point, outcome


def run_bench(
    cells: Sequence[Cell] = FULL_CELLS, seed: int = DEFAULT_SEED
) -> list[BenchPoint]:
    """Measure ``cells`` in order, a baseline before the cells compared
    with it.

    Raises :class:`~repro.errors.SimulationError` when a cell's results
    differ from its baseline's although the pair is in
    :data:`IDENTICAL`.
    """
    bases = {baseline for _, baseline in IDENTICAL}
    outcomes: dict[tuple, object] = {}
    points = []
    for cell in cells:
        point, outcome = _measure(cell, seed)
        if (cell.engine, cell.baseline) in IDENTICAL:
            key = (cell.section, cell.workload, cell.baseline, cell.n, cell.r)
            if outcome != outcomes[key]:
                raise SimulationError(
                    f"differential check failed: {cell.engine} and "
                    f"{cell.baseline} results differ ({cell.section} "
                    f"{cell.workload}, N={cell.n}, seed={seed})"
                )
        if cell.engine in bases:
            outcomes[cell.key] = outcome
        points.append(point)
    return points


def ratio(
    points: Sequence[BenchPoint],
    point: BenchPoint,
    quantity: str | None = None,
) -> float | None:
    """``point`` against its baseline cell in ``points``.

    The ``"rate ratio"`` divides the point's rate by the baseline's; the
    ``"wall ratio"`` divides the baseline's seconds by the point's.  The
    default is the wall ratio in :data:`END_TO_END` sections and the
    rate ratio elsewhere.  ``None`` when ``point`` has no baseline or
    the baseline was not measured.
    """
    if quantity is None:
        end_to_end = point.section in END_TO_END
        quantity = "wall ratio" if end_to_end else "rate ratio"
    key = (
        point.section, point.workload, point.baseline, point.n_mobile,
        point.replicates,
    )
    base = next((p for p in points if p.key == key), None)
    if base is None:
        return None
    if quantity == "wall ratio":
        return _safe_rate(base.seconds, point.seconds)
    return _safe_rate(point.rate, base.rate)


def _shown(value: object) -> str:
    """A stats value for the text table."""
    if isinstance(value, (int, float)):
        return f"{value:,.0f}"
    return str(value)


def render(points: Sequence[BenchPoint]) -> str:
    """One aligned text table per section, each point with its stats and
    its ratio to its baseline."""
    tables = []
    for section in dict.fromkeys(p.section for p in points):
        rows = []
        for p in points:
            if p.section != section:
                continue
            value = ratio(points, p)
            rows.append((
                p.workload,
                p.engine,
                p.n_mobile,
                p.replicates,
                f"{p.work:,}",
                f"{p.seconds * 1000:.0f} ms",
                f"{p.rate:,.0f}/s",
                ", ".join(f"{k}={_shown(v)}" for k, v in p.stats.items()),
                "" if value is None else f"{value:.2f}x vs {p.baseline}",
            ))
        tables.append(render_table(
            ("workload", "engine", "N", "R", "work", "time", "rate",
             "stats", "speedup"),
            rows,
            title=_TITLES[section],
        ))
    return "\n\n".join(tables)


def environment() -> dict[str, object]:
    """Provenance of a bench run: the report metadata that makes perf
    regressions attributable (did the code change, or the machine?).

    ``git_revision`` is ``None`` outside a git checkout (e.g. an
    installed package).
    """
    try:
        revision: str | None = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        revision = None
    return {
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "git_revision": revision,
    }


def write_json(
    points: Sequence[BenchPoint],
    path: str,
    seed: int = DEFAULT_SEED,
    smoke: bool = False,
    section_seconds: dict[str, float] | None = None,
) -> None:
    """Write the points, each with its ratio to its baseline
    (``speedup``), as a JSON report.

    ``section_seconds`` is the wall-clock cost of each section that ran
    (measurement plus harness, which the points' ``seconds`` exclude);
    its sum is reported as ``total_seconds``.
    """
    payload: dict[str, object] = {
        "benchmark": "simulator",
        "scheduler": "uniform random pairs",
        "seed": seed,
        "smoke": smoke,
        "environment": environment(),
        "points": [
            {
                **dataclasses.asdict(p),
                "seconds": round(p.seconds, 6),
                "rate": round(p.rate, 1),
                "runs_per_second": round(p.runs_per_second, 2),
                "speedup": ratio(points, p),
            }
            for p in points
        ],
    }
    if section_seconds:
        rounded = {k: round(v, 6) for k, v in section_seconds.items()}
        payload["section_seconds"] = rounded
        payload["total_seconds"] = round(sum(rounded.values()), 6)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def check_gates(
    points: Sequence[BenchPoint],
    sections: Sequence[str] = SECTIONS,
    gates: Sequence[Gate] = GATES,
) -> bool:
    """Print the verdict of every gate of a section in ``sections``;
    ``True`` when none failed.

    A gate whose cell or baseline was not measured fails.  Below a
    gate's ``min_cores`` the value is reported and the gate skipped:
    there the sharded/serial ratio measures oversubscription, not the
    worker processes.
    """
    cores = os.cpu_count() or 1
    passed = True
    for gate in gates:
        section, _, engine, _, _ = gate.cell
        if section not in sections:
            continue
        point = next((p for p in points if p.key == gate.cell), None)
        if gate.quantity == "rate":
            name = engine
            value = None if point is None else point.rate
            shown = "{:,.0f}/s".format
        else:
            name = f"{engine}/{point.baseline if point else '?'}"
            value = None if point is None else ratio(
                points, point, gate.quantity
            )
            shown = "{:.2f}x".format
        if value is None:
            failed, verdict = True, "not measured -> FAIL"
        elif cores < gate.min_cores:
            failed, verdict = False, (
                f"{shown(value)} on {cores} core(s) -> skipped (gated "
                f"on >= {gate.min_cores} cores)"
            )
        else:
            failed = value < gate.floor
            verdict = (
                f"{shown(value)} vs floor {shown(gate.floor)} -> "
                f"{'FAIL' if failed else 'ok'}"
            )
        passed = passed and not failed
        print(f"gate {name} ({gate.quantity}): {verdict}")
    return passed


def main(argv: list[str] | None = None) -> int:
    """Run the benchmark from the command line; exits 1 when a gate
    fails."""
    parser = argparse.ArgumentParser(
        description="Engine and serving throughput benchmark."
    )
    parser.add_argument(
        "--sections",
        default=",".join(SECTIONS),
        metavar="NAMES",
        help=(
            "comma-separated subset of sections to run (choices: "
            f"{', '.join(SECTIONS)}; default: all)"
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the small cells of CI's smoke step and check no gate",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_OUT,
        metavar="PATH",
        help=f"JSON report path (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"scheduler seed (default: {DEFAULT_SEED})",
    )
    args = parser.parse_args(argv)
    sections = [
        name.strip() for name in args.sections.split(",") if name.strip()
    ]
    unknown = sorted(set(sections) - set(SECTIONS))
    if unknown:
        parser.error(
            f"unknown section(s) {', '.join(unknown)} "
            f"(choices: {', '.join(SECTIONS)})"
        )
    cells = SMOKE_CELLS if args.smoke else FULL_CELLS
    points: list[BenchPoint] = []
    section_seconds: dict[str, float] = {}
    for section in (name for name in SECTIONS if name in sections):
        seconds, measured = _timed(
            run_bench, [c for c in cells if c.section == section], args.seed
        )
        section_seconds[section] = seconds
        points += measured
        if measured:
            print(render(measured), end="\n\n")
    write_json(points, args.out, args.seed, args.smoke, section_seconds)
    print(f"JSON written to {args.out}")
    if args.smoke:
        return 0
    return 0 if check_gates(points, sections) else 1


if __name__ == "__main__":
    raise SystemExit(main())
