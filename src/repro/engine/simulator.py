"""The simulation loop.

A :class:`Simulator` drives a protocol on a population under a scheduler:
repeatedly ask the scheduler for an ordered pair, apply the protocol's rule,
record the interaction, periodically test for certified convergence, and
optionally apply injected faults.

Convergence is *certified* (see :mod:`repro.engine.problems`): the reported
result is a proof that the problem predicate holds and can no longer be
falsified, never a "looks quiet" heuristic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Protocol as TypingProtocol

from repro.engine import sanitize as _sanitize
from repro.engine.configuration import Configuration
from repro.engine.population import Population
from repro.engine.problems import Problem, is_silent
from repro.engine.protocol import PopulationProtocol
from repro.engine.trace import InteractionRecord, Trace
from repro.errors import ConvergenceError, SimulationError
from repro.schedulers.base import Scheduler


class FaultHook(TypingProtocol):
    """Callable invoked before each interaction; may corrupt the
    configuration by returning a replacement (or ``None`` to keep it)."""

    def __call__(
        self, interaction: int, config: Configuration
    ) -> Configuration | None: ...


class Observer(TypingProtocol):
    """Callable invoked after every *non-null* interaction with the
    interaction index and the new configuration; used by invariant
    monitors (see :mod:`repro.analysis.monitors`).  Must not mutate."""

    def __call__(self, interaction: int, config: Configuration) -> None: ...


@dataclass(frozen=True)
class RunStats:
    """Lightweight measurements of how a run performed (not what it did).

    Populated by every backend.  Excluded from :class:`SimulationResult`
    equality because wall-clock numbers differ between otherwise identical
    runs; the differential tests compare semantics, not timings.

    The leap fields are populated only by native runs of the windowed
    backends (``"leap"``, :mod:`repro.engine.leap`, and ``"bleap"``,
    :mod:`repro.engine.bleap`): ``leaps`` counts the multinomial windows
    applied, ``mean_tau`` the mean window length in interactions, and
    ``repairs`` the infeasible draws discarded by the clip/repair loop.
    ``ssa_fallback_rows`` is ``"bleap"``-only: per run it is 1 when the
    replicate's row ever advanced by exact-SSA bursts (collapsed tau,
    small population, near-silence endgame) and 0 when it leapt
    throughout; aggregated over an ensemble
    (:attr:`repro.engine.ensemble.EnsembleResult.stats`) it counts the
    fallen-back rows.  All four stay ``None`` on every exact backend.

    The fluid fields are populated only by native runs of the ``"fluid"``
    backend (:mod:`repro.engine.fluid`): ``ode_steps`` is the RK4 step
    count of the run's mean-field trajectory, ``handoff_time`` the
    interaction position at which that deterministic trajectory was
    handed off to the stochastic endgame, and ``handoff_backend`` the
    backend that ran that endgame (``"leap"``).  Both describe the
    trajectory, not the work done: a replicate that reused the handoff
    state of an earlier replicate with the same start
    (:func:`~repro.engine.fluid.ode_reuse_scope`) reports the same
    values as one that integrated it.  They stay ``None`` on every
    other backend.
    """

    wall_seconds: float
    interactions_per_second: float
    null_fraction: float
    leaps: int | None = None
    mean_tau: float | None = None
    repairs: int | None = None
    ssa_fallback_rows: int | None = None
    ode_steps: int | None = None
    handoff_time: float | None = None
    handoff_backend: str | None = None

    @classmethod
    def measure(
        cls, started: float, interactions: int, non_null: int
    ) -> "RunStats":
        """Build stats from a ``time.perf_counter()`` start mark."""
        elapsed = time.perf_counter() - started
        return cls(
            wall_seconds=elapsed,
            interactions_per_second=(
                interactions / elapsed if elapsed > 0 else 0.0
            ),
            null_fraction=(
                (interactions - non_null) / interactions
                if interactions
                else 0.0
            ),
        )

    def __str__(self) -> str:
        text = (
            f"{self.wall_seconds:.3f} s wall, "
            f"{self.interactions_per_second:,.0f} interactions/s, "
            f"{self.null_fraction:.1%} null"
        )
        if self.leaps is not None:
            text += (
                f", {self.leaps} leaps (mean tau {self.mean_tau:,.0f}, "
                f"{self.repairs} repairs)"
            )
        if self.ssa_fallback_rows is not None:
            text += f", {self.ssa_fallback_rows} SSA-fallback rows"
        if self.ode_steps is not None:
            text += (
                f", {self.ode_steps} ODE steps (handoff at "
                f"{self.handoff_time:,.0f} -> {self.handoff_backend})"
            )
        return text


@dataclass
class SimulationResult:
    """Outcome of a simulation run.

    ``interactions`` counts scheduler proposals (null interactions
    included), the model's natural time unit; ``parallel_time`` is the
    standard normalization ``interactions / N``.

    ``final_configuration`` is ``None`` only for counts-native runs that
    skip agent-vector materialization (the fluid backend's
    :meth:`~repro.engine.fluid.FluidSimulator.run_counts` with
    ``materialize=False``, where building an O(N) tuple at N = 10^10 is
    infeasible); those runs carry the final state tally in
    ``final_counts`` (mapping state -> count) instead.
    """

    converged: bool
    interactions: int
    non_null_interactions: int
    final_configuration: Configuration | None
    population: Population
    trace: Trace | None = None
    convergence_interaction: int | None = None
    faults_injected: int = 0
    notes: list[str] = field(default_factory=list)
    #: Final state tally for counts-native runs; ``None`` whenever
    #: ``final_configuration`` is present.
    final_counts: dict | None = None
    #: Run performance measurements; ``compare=False`` keeps backend
    #: differential tests (``reference == fast``) meaningful.
    stats: RunStats | None = field(default=None, compare=False, repr=False)

    @property
    def parallel_time(self) -> float:
        """Interactions divided by the number of agents."""
        return self.interactions / self.population.size

    def names(self) -> tuple:
        """The mobile agents' final states (their names)."""
        if self.final_configuration is None:
            raise SimulationError(
                "this run did not materialize a final configuration "
                "(counts-native fluid run); inspect final_counts instead"
            )
        return self.final_configuration.mobile_states

    #: Maximum number of names shown by ``str()``; large-N runs would
    #: otherwise dump thousands of states into logs.
    _STR_NAME_LIMIT = 8

    def __str__(self) -> str:
        status = "converged" if self.converged else "did not converge"
        if self.final_configuration is None:
            live = sum(1 for v in (self.final_counts or {}).values() if v)
            return (
                f"{status} after {self.interactions} interactions "
                f"({self.non_null_interactions} non-null); "
                f"{live} occupied states (counts-native run)"
            )
        return (
            f"{status} after {self.interactions} interactions "
            f"({self.non_null_interactions} non-null); "
            f"names = {abbreviate_states(self.final_configuration)}"
        )


def abbreviate_states(config: Configuration) -> str:
    """``config``'s mobile states as ``(s1, s2, ...)``, cut after
    ``SimulationResult._STR_NAME_LIMIT`` entries.

    A cut list ends in ``... (k more)``, so a large population prints
    one short line instead of N reprs.  Only the shown head is read
    (:meth:`Configuration.mobile_head`), so a lazy counts-backed
    configuration is never expanded.
    """
    limit = SimulationResult._STR_NAME_LIMIT
    n_mobile = len(config) - config.has_leader
    shown = ", ".join(repr(s) for s in config.mobile_head(limit))
    if n_mobile > limit:
        shown += f", ... ({n_mobile - limit} more)"
    return f"({shown})"


class Simulator:
    """Runs one protocol on one population under one scheduler.

    Parameters
    ----------
    protocol, population, scheduler:
        The three moving parts.  The population must have a leader exactly
        when the protocol requires one.
    problem:
        The convergence criterion.  ``None`` disables convergence checking
        (the run simply uses its whole interaction budget).
    check_interval:
        Convergence is tested every ``check_interval`` interactions and
        after every non-null interaction burst; larger values trade
        detection latency for speed.
    sanitize:
        Arm the runtime sanitizer (see :mod:`repro.engine.sanitize`):
        every run asserts conserved population size, state-space/role
        discipline on interaction results and no state change after a
        silent configuration, raising
        :class:`~repro.errors.SanitizerError` on violation.  Fault
        injections are size-checked only (they may deliberately corrupt
        states) and reset the silence tracking.  Checks never consume
        randomness, so sanitized runs are bit-identical to unsanitized
        ones.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        population: Population,
        scheduler: Scheduler,
        problem: Problem | None = None,
        check_interval: int | None = None,
        sanitize: bool = False,
    ) -> None:
        if protocol.requires_leader and not population.has_leader:
            raise SimulationError(
                f"{protocol.display_name} requires a leader but the "
                "population has none"
            )
        if not protocol.requires_leader and population.has_leader:
            raise SimulationError(
                f"{protocol.display_name} is leaderless but the population "
                "has a leader"
            )
        if scheduler.population is not population:
            raise SimulationError(
                "scheduler was built for a different population"
            )
        self.protocol = protocol
        self.population = population
        self.scheduler = scheduler
        self.problem = problem
        self.check_interval = check_interval or max(population.size, 16)
        self.sanitize = sanitize

    def run(
        self,
        initial: Configuration,
        max_interactions: int = 1_000_000,
        trace: Trace | None = None,
        fault_hook: FaultHook | None = None,
        raise_on_timeout: bool = False,
        observer: Observer | None = None,
    ) -> SimulationResult:
        """Execute until certified convergence or the budget is exhausted.

        Parameters
        ----------
        initial:
            Starting configuration (size must match the population).
        max_interactions:
            Interaction budget.
        trace:
            Optional trace buffer to fill.
        fault_hook:
            Optional fault injector consulted before every interaction.
        raise_on_timeout:
            When true, a budget exhaustion raises :class:`ConvergenceError`
            instead of returning a non-converged result.
        observer:
            Optional callback fired after every non-null interaction with
            ``(interaction_index, new_configuration)`` - the hook for
            runtime invariant monitors.
        """
        if len(initial) != self.population.size:
            raise SimulationError(
                f"initial configuration has {len(initial)} agents, "
                f"population has {self.population.size}"
            )
        started = time.perf_counter()
        config = initial
        non_null = 0
        faults = 0
        converged_at: int | None = None
        quiescent_since_check = True

        sanitizing = self.sanitize
        if sanitizing:
            mobile_space = self.protocol.mobile_state_space()
            leader_space = self.protocol.leader_state_space()
            tracker = _sanitize.SilenceTracker("reference")
            _sanitize.check_states_in_space(
                "reference",
                config.states,
                config.leader_index,
                mobile_space,
                leader_space,
                0,
            )

        # With a fault hook, interaction-0 faults must land before any
        # convergence verdict, so the initial check is skipped.
        if (
            fault_hook is None
            and self.problem is not None
            and self.problem.is_solved(self.protocol, config)
        ):
            converged_at = 0

        interaction = 0
        while interaction < max_interactions and converged_at is None:
            if fault_hook is not None:
                replacement = fault_hook(interaction, config)
                if replacement is not None:
                    config = replacement
                    faults += 1
                    quiescent_since_check = False
                    if sanitizing:
                        # Faults may legitimately wake a silent run and
                        # may deliberately corrupt states; only the
                        # population size must survive them.
                        _sanitize.check_population_size(
                            "reference",
                            self.population.size,
                            len(config),
                            interaction,
                        )
                        tracker.reset()

            initiator, responder = self.scheduler.next_pair(config)
            p = config.state_of(initiator)
            q = config.state_of(responder)
            p2, q2 = self.protocol.transition(p, q)
            changed = (p2, q2) != (p, q)
            if changed:
                config = config.apply(initiator, responder, (p2, q2))
                non_null += 1
                quiescent_since_check = False
                if sanitizing:
                    tracker.note_change(interaction)
                    for agent, state in ((initiator, p2), (responder, q2)):
                        _sanitize.check_states_in_space(
                            "reference",
                            (state,),
                            0 if agent == config.leader_index else None,
                            mobile_space,
                            leader_space,
                            interaction,
                        )
                if observer is not None:
                    observer(interaction, config)
            if trace is not None:
                trace.record(
                    InteractionRecord(
                        interaction, initiator, responder, p, q, p2, q2
                    )
                )
            interaction += 1

            if sanitizing and interaction % self.check_interval == 0:
                _sanitize.check_population_size(
                    "reference",
                    self.population.size,
                    len(config),
                    interaction,
                )
                if is_silent(self.protocol, config):
                    tracker.note_silent()

            if (
                self.problem is not None
                and not quiescent_since_check
                and interaction % self.check_interval == 0
            ):
                if self.problem.is_solved(self.protocol, config):
                    converged_at = interaction
                quiescent_since_check = True

        # Final check: the budget may end mid check-interval.
        if (
            converged_at is None
            and self.problem is not None
            and self.problem.is_solved(self.protocol, config)
        ):
            converged_at = interaction

        converged = converged_at is not None
        if not converged and raise_on_timeout:
            raise ConvergenceError(
                f"{self.protocol.display_name} did not converge within "
                f"{max_interactions} interactions",
                interactions=interaction,
            )
        return SimulationResult(
            converged=converged,
            interactions=interaction,
            non_null_interactions=non_null,
            final_configuration=config,
            population=self.population,
            trace=trace,
            convergence_interaction=converged_at,
            faults_injected=faults,
            stats=RunStats.measure(started, interaction, non_null),
        )


def run_protocol(
    protocol: PopulationProtocol,
    population: Population,
    scheduler: Scheduler,
    initial: Configuration,
    problem: Problem,
    max_interactions: int = 1_000_000,
    trace: Trace | None = None,
    fault_hook: Callable | None = None,
    raise_on_timeout: bool = False,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`Simulator`."""
    simulator = Simulator(protocol, population, scheduler, problem)
    return simulator.run(
        initial,
        max_interactions=max_interactions,
        trace=trace,
        fault_hook=fault_hook,
        raise_on_timeout=raise_on_timeout,
    )
