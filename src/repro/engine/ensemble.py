"""Ensemble runs: many seeds, one summary.

The experiments repeatedly follow the same pattern - build a fresh
scheduler per seed, run to certified convergence, aggregate.  This module
makes that pattern a public API so downstream users measure their own
protocols the same way the reproduction measures the paper's.

Ensembles can run on any registered simulation backend (see
:data:`repro.engine.fast.BACKENDS`).  The default, ``"auto"``, picks an
engine by population size: fluid-scale ensembles (``N >=``
:data:`FLUID_MIN_POPULATION`) run per-seed on ``"fluid"``
(:class:`~repro.engine.fluid.FluidSimulator`: mean-field ODE
fast-forward handing off to stochastic leap windows), large-N ensembles
(``N >=`` :data:`BLEAP_MIN_POPULATION`) on ``"bleap"``
(:class:`~repro.engine.bleap.BatchedLeapSimulator`: the whole ensemble
as one ``(R, S)`` counts matrix advanced by per-row adaptive multinomial
tau-leap windows), smaller ones on the exact ``"batch"`` engine
(:class:`~repro.engine.batch.BatchedEnsembleSimulator`: the same matrix
advanced one event per row per step).  Each falls down the ladder
(``fluid -> leap -> counts -> ...``; ``bleap -> batch -> counts -> fast
-> reference``) with a structured
:class:`~repro.errors.BackendFallbackWarning` when a scheduler, problem
or protocol cannot be honoured natively.  The approximate per-run
``"leap"`` backend (:mod:`repro.engine.leap`) remains available for
single very large runs; it falls back down ``leap -> counts -> fast ->
reference`` the same way.  Because per-seed runs are
independent, every backend also fans out across processes (``n_jobs >
1``, with seeds dispatched to workers in contiguous chunks - each worker
running its chunk as its own lockstep batch under ``"batch"``/
``"bleap"``).  Parallel runs return seed-identical results to serial
runs; the only requirement is that the protocol, problem, factories and
fault hook are picklable (module-level callables, not lambdas).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.stats import Summary, summarize
from repro.engine.configuration import Configuration
from repro.engine.fast import make_simulator
from repro.engine.fluid import ode_reuse_scope
from repro.engine.population import Population
from repro.engine.problems import Problem
from repro.engine.protocol import PopulationProtocol
from repro.engine.simulator import FaultHook, RunStats, SimulationResult
from repro.errors import ConvergenceError
from repro.schedulers.base import Scheduler

#: Smallest population for which ``backend="auto"`` picks the windowed
#: ``"bleap"`` engine over the exact ``"batch"`` engine.  Small
#: populations rarely clear the leap thresholds, so bleap advances most
#: rows by lockstep exact-SSA bursts; large ones collapse whole windows
#: of ``leap_eps * N`` events into one draw.  This is not the measured
#: crossover.  For Prop. 12 at P = 8, R = 64, 10 N horizons from a
#: uniform start (2-core x86 box, wall time, best to worst of 3), batch
#: takes 0.62-0.74 s at N = 10^4 and bleap 0.29-0.46 s; the two tie at
#: about N = 6 * 10^3 (0.57-0.58 s each).  The threshold stays at 10^4
#: because moving it changes which engine, and so which results,
#: ``"auto"`` gives a seed.
BLEAP_MIN_POPULATION = 10_000

#: Smallest population for which ``backend="auto"`` picks the per-seed
#: ``"fluid"`` engine over the lockstep ``"bleap"`` engine.  Above this
#: the mean-field ODE fast-forward amortizes its integration steps over
#: millions of interactions per step and the counts-native pipeline
#: skips the O(N) agent-vector round-trip that starts to dominate
#: lockstep runs; below it the stochastic windows do all the work
#: anyway and lockstep batching wins.
FLUID_MIN_POPULATION = 1_000_000

#: Backends that run a whole seed chunk as one lockstep batch.
_LOCKSTEP_BACKENDS = ("batch", "bleap")


def resolve_backend(backend: str, population: Population) -> str:
    """The backend that serves ``backend`` for ``population``.

    ``"auto"`` resolves by population size against
    :data:`FLUID_MIN_POPULATION` and :data:`BLEAP_MIN_POPULATION` (see
    :func:`run_ensemble`); any other name passes through.  The serving
    layer keys memoized results by the resolved name, so they are never
    replayed across backends.
    """
    if backend != "auto":
        return backend
    if population.size >= FLUID_MIN_POPULATION:
        return "fluid"
    if population.size >= BLEAP_MIN_POPULATION:
        return "bleap"
    return "batch"


#: Builds a fresh scheduler for a seed.
SchedulerFactory = Callable[[Population, int], Scheduler]

#: Builds the initial configuration for a seed.
InitialFactory = Callable[[Population, int], Configuration]


@dataclass
class EnsembleResult:
    """Aggregated outcome of an ensemble of runs."""

    results: list[SimulationResult] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)

    @property
    def convergence_rate(self) -> float:
        """Fraction of runs that reached certified convergence."""
        if not self.results:
            return 0.0
        return sum(r.converged for r in self.results) / len(self.results)

    def convergence_summary(self) -> Summary:
        """Summary of interactions-to-convergence over converged runs.

        Raises :class:`ConvergenceError` when no run converged.
        """
        sample = [
            r.convergence_interaction
            for r in self.results
            if r.converged and r.convergence_interaction is not None
        ]
        if not sample:
            raise ConvergenceError("no run in the ensemble converged")
        return summarize(sample)

    def failed_seeds(self) -> list[int]:
        """Seeds whose runs did not converge."""
        return [
            seed
            for seed, result in zip(self.seeds, self.results)
            if not result.converged
        ]

    @property
    def stats(self) -> RunStats | None:
        """Aggregated :class:`RunStats` over the ensemble's runs.

        ``wall_seconds`` totals the per-run wall clocks (lockstep batches
        attribute each replicate an equal share of the batch, so the
        total reflects real elapsed simulation time);
        ``interactions_per_second`` is the mean of the per-run rates,
        which for a lockstep batch sums back to the batch throughput;
        ``null_fraction`` is computed over the pooled interactions.
        ``None`` when no run carries stats.

        When the ensemble ran on a windowed backend (``"leap"`` or
        ``"bleap"``) the per-row leap fields are aggregated too:
        ``leaps`` and ``repairs`` are summed, ``mean_tau`` is the
        leap-weighted mean window length over all rows, and
        ``ssa_fallback_rows`` counts the replicates that ever advanced
        by exact-SSA bursts (``"bleap"`` only).  They stay ``None`` on
        exact backends.

        When the ensemble ran on the ``"fluid"`` backend the fluid
        fields are aggregated as well: ``ode_steps`` sums the runs'
        trajectory step counts (so it reads the same whether replicates
        with a shared start integrated once or each in turn),
        ``handoff_time`` is the mean handoff interaction position, and
        ``handoff_backend`` is carried through when every run handed off
        to the same engine.
        """
        timed = [r for r in self.results if r.stats is not None]
        if not timed:
            return None
        interactions = sum(r.interactions for r in timed)
        non_null = sum(r.non_null_interactions for r in timed)
        leaped = [r.stats for r in timed if r.stats.leaps is not None]
        fluid = [r.stats for r in timed if r.stats.ode_steps is not None]
        ode_steps = handoff_time = handoff_backend = None
        if fluid:
            ode_steps = sum(s.ode_steps for s in fluid)
            handoff_time = (
                sum(s.handoff_time or 0.0 for s in fluid) / len(fluid)
            )
            delegates = {s.handoff_backend for s in fluid}
            if len(delegates) == 1:
                handoff_backend = delegates.pop()
        leaps = mean_tau = repairs = ssa_fallback_rows = None
        if leaped:
            leaps = sum(s.leaps for s in leaped)
            # Per run, mean_tau * leaps recovers the interactions the
            # windows covered, so the pooled mean is leap-weighted.
            mean_tau = (
                sum(s.mean_tau * s.leaps for s in leaped) / leaps
                if leaps
                else 0.0
            )
            repairs = sum(s.repairs or 0 for s in leaped)
            ssa = [
                s.ssa_fallback_rows
                for s in leaped
                if s.ssa_fallback_rows is not None
            ]
            ssa_fallback_rows = sum(ssa) if ssa else None
        return RunStats(
            wall_seconds=sum(r.stats.wall_seconds for r in timed),
            interactions_per_second=(
                sum(r.stats.interactions_per_second for r in timed)
                / len(timed)
            ),
            null_fraction=(
                (interactions - non_null) / interactions
                if interactions
                else 0.0
            ),
            leaps=leaps,
            mean_tau=mean_tau,
            repairs=repairs,
            ssa_fallback_rows=ssa_fallback_rows,
            ode_steps=ode_steps,
            handoff_time=handoff_time,
            handoff_backend=handoff_backend,
        )


def _run_single(task: tuple) -> SimulationResult:
    """Run one seed of an ensemble.

    Module-level (rather than a closure) so that process pools can pickle
    it; used identically by the serial path to keep the two code paths
    seed-identical.
    """
    (
        protocol,
        population,
        scheduler_factory,
        initial_factory,
        problem,
        seed,
        max_interactions,
        backend,
        check_interval,
        raise_on_timeout,
        fault_hook,
        sanitize,
    ) = task
    scheduler = scheduler_factory(population, seed)
    simulator = make_simulator(
        backend, protocol, population, scheduler, problem, check_interval,
        sanitize=sanitize,
    )
    initial = initial_factory(population, seed)
    return simulator.run(
        initial,
        max_interactions=max_interactions,
        fault_hook=fault_hook,
        raise_on_timeout=raise_on_timeout,
    )


def _run_chunk(task: tuple) -> list[SimulationResult]:
    """Run a contiguous chunk of seeds inside one worker task.

    Dispatching chunks instead of single seeds amortizes the pool's
    per-task pickling of the protocol, population and factories over
    many runs.  Results are seed-identical to the serial path because
    every seed still builds its own scheduler, simulator and initial
    configuration through the factories.
    """
    common, seeds = task
    (
        protocol,
        population,
        scheduler_factory,
        initial_factory,
        problem,
        max_interactions,
        backend,
        check_interval,
        raise_on_timeout,
        fault_hook,
        sanitize,
    ) = common
    return [
        _run_single(
            (
                protocol,
                population,
                scheduler_factory,
                initial_factory,
                problem,
                seed,
                max_interactions,
                backend,
                check_interval,
                raise_on_timeout,
                fault_hook,
                sanitize,
            )
        )
        for seed in seeds
    ]


class _LazyInitials:
    """A lazy sequence of initial configurations, one per seed.

    ``run_ensemble`` used to materialize ``initial_factory(population,
    seed)`` for *every* seed up front, so an R-replicate ensemble held R
    O(N)-sized configurations simultaneously on the dispatching process.
    This sequence builds each configuration on demand instead: the
    lockstep engines consume it in the single interning pass of
    ``_intern_rows`` (peak memory O(N), not O(R * N)) and the
    factory is still called exactly once per seed on the native path.
    Nothing is cached - a second iteration (only the fallback paths do
    one) calls the factory again, which is sound because factories are
    pure functions of ``(population, seed)`` by contract.
    """

    __slots__ = ("_factory", "_population", "_seeds")

    def __init__(
        self,
        factory: InitialFactory,
        population: Population,
        seeds: Sequence[int],
    ) -> None:
        self._factory = factory
        self._population = population
        self._seeds = seeds

    def __len__(self) -> int:
        return len(self._seeds)

    def __iter__(self):
        factory = self._factory
        population = self._population
        for seed in self._seeds:
            yield factory(population, seed)

    def __getitem__(self, r: int) -> Configuration:
        return self._factory(self._population, self._seeds[r])


def _chunk_seeds(seeds: list[int], n_chunks: int) -> list[list[int]]:
    """Split seeds into at most ``n_chunks`` contiguous, balanced chunks.

    When ``n_chunks`` exceeds the number of seeds the surplus chunks
    would be empty; they are dropped rather than dispatched as no-op
    worker tasks, so callers may pass ``n_jobs`` (or a multiple of it)
    without sizing it against the ensemble first.
    """
    base, extra = divmod(len(seeds), n_chunks)
    chunks: list[list[int]] = []
    start = 0
    for k in range(n_chunks):
        size = base + (1 if k < extra else 0)
        if size == 0:
            continue
        chunks.append(seeds[start : start + size])
        start += size
    return chunks


def _run_batch_chunk(task: tuple) -> list[SimulationResult]:
    """Run a chunk of seeds as one lockstep batch inside a worker.

    Serves both lockstep engines (``"batch"`` and ``"bleap"``; the
    backend name travels in the task tuple).  Their per-row randomness
    depends only on each row's own seed, so splitting an ensemble into
    chunks (or not) cannot change any result - serial, parallel and
    per-seed executions are bit-identical.
    """
    common, seeds = task
    if not seeds:
        return []
    (
        protocol,
        population,
        scheduler_factory,
        initial_factory,
        problem,
        max_interactions,
        backend,
        check_interval,
        raise_on_timeout,
        fault_hook,
        sanitize,
    ) = common
    # Schedulers are O(1) records (the lockstep kernels only read their
    # seeds) and are needed for the whole batch, so they stay eager;
    # the O(N) initial configurations are built lazily, one at a time,
    # inside the engines' single interning pass.
    schedulers = [scheduler_factory(population, seed) for seed in seeds]
    initials = _LazyInitials(initial_factory, population, seeds)
    simulator = make_simulator(
        backend, protocol, population, schedulers[0], problem,
        check_interval, sanitize=sanitize,
    )
    return simulator.run_replicates(
        initials,
        schedulers,
        max_interactions=max_interactions,
        raise_on_timeout=raise_on_timeout,
        fault_hook=fault_hook,
    )


def run_ensemble(
    protocol: PopulationProtocol,
    population: Population,
    scheduler_factory: SchedulerFactory,
    initial_factory: InitialFactory,
    problem: Problem | None,
    seeds: Sequence[int],
    max_interactions: int = 1_000_000,
    require_convergence: bool = False,
    backend: str = "auto",
    n_jobs: int = 1,
    check_interval: int | None = None,
    raise_on_timeout: bool = False,
    fault_hook: FaultHook | None = None,
    sanitize: bool = False,
) -> EnsembleResult:
    """Run the protocol once per seed and aggregate.

    Parameters
    ----------
    scheduler_factory, initial_factory:
        Called with ``(population, seed)`` for every seed, so runs are
        independent and reproducible.
    require_convergence:
        When true, the first non-converged run raises
        :class:`ConvergenceError` (carrying the offending seed in its
        message) instead of being recorded.
    backend:
        Simulation backend.  The default ``"auto"`` resolves by
        population size: ``"fluid"`` (mean-field ODE fast-forward with
        leap handoff, :mod:`repro.engine.fluid`, run per seed) at
        ``N >=`` :data:`FLUID_MIN_POPULATION`, ``"bleap"`` (windowed
        lockstep tau-leaping, :mod:`repro.engine.bleap`) for ensembles
        at ``N >=`` :data:`BLEAP_MIN_POPULATION`, the exact ``"batch"``
        engine (:mod:`repro.engine.batch`) below that.  All names can
        also be requested explicitly, as can per-run ``"leap"``
        (approximate, for single very large runs), ``"counts"``,
        ``"fast"`` and ``"reference"``.  Runs a backend cannot honour
        fall down the ladder (``fluid -> leap -> counts -> ...``;
        ``bleap -> batch -> counts -> fast -> reference``) with a
        structured :class:`~repro.errors.BackendFallbackWarning`.  A
        serial (``n_jobs=1``) ``"fluid"`` ensemble integrates its
        mean-field ODE once per distinct start within the call (see
        :func:`~repro.engine.fluid.ode_reuse_scope`), with results
        identical to per-seed runs.
    n_jobs:
        Number of worker processes.  ``1`` runs serially in-process;
        larger values fan the seeds out over a
        :class:`~concurrent.futures.ProcessPoolExecutor`, which requires
        every task ingredient to be picklable (module-level factories).
        Under the lockstep backends (``"batch"``/``"bleap"``) each
        worker runs one contiguous seed chunk as its own lockstep batch
        (one chunk per worker, to keep the batches wide); per-run
        backends travel in chunks of about
        four per worker so the per-task pickling overhead is amortized
        over many runs.  Results are returned in seed order and are
        identical to a serial run.
    check_interval, raise_on_timeout, fault_hook:
        Forwarded to each per-seed simulator/run, so ensemble runs can use
        the same knobs as single runs.
    sanitize:
        Arm the runtime sanitizer (:mod:`repro.engine.sanitize`) on
        every per-seed simulator (and on lockstep batches); invariant
        violations raise :class:`~repro.errors.SanitizerError`.  Results
        are bit-identical to an unsanitized ensemble.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be a positive integer, got {n_jobs}")
    backend = resolve_backend(backend, population)
    seeds = list(seeds)
    common = (
        protocol,
        population,
        scheduler_factory,
        initial_factory,
        problem,
        max_interactions,
        backend,
        check_interval,
        raise_on_timeout,
        fault_hook,
        sanitize,
    )
    ensemble = EnsembleResult()
    lockstep = backend in _LOCKSTEP_BACKENDS
    if lockstep:
        # Lockstep batches want to be wide: one chunk per worker (not
        # four) so each worker advances as many rows per kernel step as
        # possible.  Chunking cannot change results - each row's
        # randomness is a function of its own seed.
        worker = _run_batch_chunk
        n_chunks = n_jobs
    else:
        worker = _run_chunk
        n_chunks = n_jobs * 4
    if n_jobs > 1 and len(seeds) > 1:
        chunks = _chunk_seeds(seeds, n_chunks)
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            chunk_results = list(
                pool.map(worker, [(common, chunk) for chunk in chunks])
            )
        results = [r for chunk in chunk_results for r in chunk]
        for seed, result in zip(seeds, results):
            _record(ensemble, seed, result, max_interactions,
                    require_convergence)
    elif lockstep:
        # One lockstep batch over the whole ensemble.  The batch raises
        # on the first non-converged row only via raise_on_timeout;
        # ``require_convergence`` is enforced seed-by-seed below, in
        # seed order, exactly as the per-run path does.
        for seed, result in zip(seeds, _run_batch_chunk((common, seeds))):
            _record(ensemble, seed, result, max_interactions,
                    require_convergence)
    else:
        # Seed-by-seed, so ``require_convergence`` still aborts at the
        # first failing seed without running the rest.  One reuse scope
        # spans the loop: a fluid ensemble integrates each distinct
        # start's mean-field ODE once per call, not once per seed.
        with ode_reuse_scope():
            for seed in seeds:
                result = _run_chunk((common, [seed]))[0]
                _record(ensemble, seed, result, max_interactions,
                        require_convergence)
    return ensemble


def _record(
    ensemble: EnsembleResult,
    seed: int,
    result: SimulationResult,
    max_interactions: int,
    require_convergence: bool,
) -> None:
    """Append one run, enforcing ``require_convergence``."""
    if require_convergence and not result.converged:
        raise ConvergenceError(
            f"seed {seed} did not converge within "
            f"{max_interactions} interactions",
            interactions=result.interactions,
        )
    ensemble.results.append(result)
    ensemble.seeds.append(seed)
