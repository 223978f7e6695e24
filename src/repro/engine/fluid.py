"""The fluid backend: mean-field ODE fast-forward with certified
stochastic handoff.

Beyond N = 10^8 even the leap backend's multinomial windows stop being
the bottleneck: the O(N) work at the *edges* of a run - building the
initial agent tuple and interning its state tally - costs more than the
windowed kernel in between, and at N = 10^10 an agent tuple does not fit
in memory at all.  (The final configuration is no such edge: every
counts engine returns it as an O(S)
:class:`~repro.engine.counts.CountsConfiguration` that expands to
per-agent states only when read.)  The classical
way past that wall is the *fluid (mean-field) limit*: as N grows, the
scaled counts process concentrates on the solution of the deterministic
ODE

    dc/dt = D^T p(c),        p_f(c) = c_i (c_j - [i = j]) / N(N - 1),

per interaction of time - the drift of the very chain the counts/leap
backends sample, with ``D`` the same precompiled per-pair delta matrix
(:class:`~repro.engine.leap._LeapPlan`).  While every stochastically
active species is macroscopic the trajectory is deterministic to
O(1/sqrt(N)) relative error, so the transient can be *integrated*
(classic RK4 with the tau-leaping step-size rule) instead of sampled:
cost per step is O(pairs + states), independent of N **and** of the
interaction budget covered by the step.

The fluid approximation breaks exactly where the interesting dynamics
of the naming problem live - extinction of duplicate names, silence -
because species with O(1) agents have no mean-field limit.  The backend
therefore *hands off*: integration stops at an adaptive crossover and
the rounded counts vector (largest-remainder rounding, conserving N)
continues on the stochastic leap backend
(:meth:`~repro.engine.leap.LeapSimulator._advance_native`), which owns
the endgame and the convergence verdict.  The crossover triggers when

* a species that was macroscopic dwindles below ``handoff_floor``
  agents (fluctuations now decide whether it survives - the naming
  endgame), or
* the drift stalls: no species would change by more than ``leap_eps``
  relative inside the whole remaining budget (the trajectory sits at a
  mean-field fixed point, e.g. the uniform spread start of the scaling
  sweep, and only fluctuations move it), or
* no species is macroscopic to begin with (small populations run pure
  leap, bit-identical to ``backend="leap"`` for the same seed), or
* the fluid weight reaches zero (mean-field silence) or the budget is
  exhausted (the leap phase then just finalizes the verdict).

The handoff is *certified*, not assumed: ``tests/engine/test_fluid.py``
KS-gates fluid-handoff-vs-pure-leap distributions at the crossover in
both the large-N and the near-silence regime (same style as the
leap-vs-counts and bleap-vs-leap gates), and the stochastic phase runs
with the leap backend's own error control.  ``RunStats`` reports
``ode_steps``, ``handoff_time`` and ``handoff_backend`` so ``--verbose``
CLIs show how much of a run was fluid.

The mean-field phase is a deterministic function of its inputs (the
compiled plan, the interned start, the budget, ``leap_eps``,
``handoff_floor`` and N), so replicates that share them share its
handoff state; only their stochastic endgames differ.  Inside an
:func:`ode_reuse_scope` - which
:func:`~repro.engine.ensemble.run_ensemble` opens around its serial
per-run loop - each distinct phase is integrated once, and every
result, ``RunStats.ode_steps`` and ``handoff_time`` included, equals a
lone run's.  The scope's dict dies with the block that opened it, so no
integration is reused across calls.

Because the whole pipeline is counts-native, the backend also exposes
:meth:`FluidSimulator.run_counts`: start from a ``{state: count}``
tally and (optionally) skip final materialization, so ``scaling
--simulate`` completes full ``10 N`` naming horizons at N = 10^10 -
population sizes whose agent vectors could never be built.

Runs the fluid view cannot honour - uncompilable protocols, leader
populations (a count-1 leader species has no mean-field limit), then
every refusal of the leap backend: non-uniform schedulers, fault hooks,
traces/observers, non-naming problems - fall back to the stochastic
:class:`~repro.engine.leap.LeapSimulator` (which continues down the
ladder ``leap -> counts -> fast -> reference``) with a
:class:`~repro.errors.BackendFallbackWarning` naming the reason.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Mapping

import numpy as _np

from repro.engine import sanitize as _sanitize
from repro.engine.configuration import Configuration
from repro.engine.counts import CountsRung, materialize_counts_lazy
from repro.engine.fast import BACKENDS, DEFAULT_COMPILE_LIMIT, NOT_COMPILED
from repro.engine.leap import (
    DEFAULT_LEAP_EPS,
    DEFAULT_MIN_TAU,
    LeapSimulator,
)
from repro.engine.population import Population
from repro.engine.problems import Problem
from repro.engine.protocol import PopulationProtocol
from repro.engine.simulator import FaultHook, Observer, SimulationResult
from repro.engine.trace import Trace
from repro.errors import ConvergenceError, SimulationError
from repro.schedulers.base import Scheduler

#: Default stochastic floor: a species that was macroscopic and dwindles
#: below this many agents triggers the handoff to the leap backend.
#: 1000 keeps the relative fluctuation of every fluid species below
#: ~3% (1/sqrt(1000)), matching the leap backend's default ``leap_eps``
#: error budget; populations where no species ever reaches the floor
#: run pure leap from interaction 0.
DEFAULT_HANDOFF_FLOOR = 1_000

#: Safety cap on RK4 steps per run; the adaptive step grows the
#: integration stride near fixed points, so well-posed runs take a few
#: hundred steps and anything beyond this indicates dynamics the fluid
#: view cannot fast-forward profitably - hand off and let leap finish.
MAX_ODE_STEPS = 100_000


def _round_conserving(x, size: int):
    """Round a nonnegative float counts vector to integers summing to
    ``size`` (largest-remainder rounding).

    Floor every entry, then hand the missing agents to the largest
    fractional remainders (or reclaim any float-drift surplus from the
    smallest nonzero entries), so the handoff configuration is feasible
    for the stochastic endgame: integral, nonnegative, conserving N.
    """
    np = _np
    base = np.floor(x)
    deficit = size - int(base.sum())
    if deficit > 0:
        order = np.argsort(-(x - base), kind="stable")
        base[order[:deficit]] += 1
    elif deficit < 0:  # pragma: no cover - needs pathological FP drift
        order = np.argsort(np.where(base > 0, x - base, np.inf),
                           kind="stable")
        base[order[:-deficit]] -= 1
    return base.astype(np.int64)


def _mean_field_phase(
    plan,
    leap,
    counts: list[int],
    budget: int,
    leap_eps: float,
    handoff_floor: int,
    size: int,
):
    """Integrate the mean-field ODE from ``counts`` up to the handoff.

    A pure function of its inputs: the counts plan (pair indices),
    its leap plan (delta matrix), the interned start counts, the
    interaction budget, ``leap_eps``, ``handoff_floor`` and the
    population size N.  Returns the handoff state ``(x, pos_f,
    events_f, ode_steps)``: the float counts vector at the handoff
    (read-only), the interaction position and the expected non-null
    events the integration covered, and its RK4 step count.
    """
    np = _np
    pair_i, pair_j, diag = plan.pair_i, plan.pair_j, plan.diag
    deltas_f = leap.deltas.astype(np.float64)
    total_pairs = float(size) * float(size - 1)
    eps = leap_eps
    floor = float(handoff_floor)

    x = np.array(counts, dtype=np.float64)
    pos_f = 0.0
    events_f = 0.0  # expected non-null events covered by the ODE
    ode_steps = 0

    def drift(y):
        """Per-interaction expected counts change at ``y``."""
        w = y[pair_i] * (y[pair_j] - diag)
        return (w / total_pairs) @ deltas_f, float(w.sum())

    # Species that ever were macroscopic; one of them dwindling below
    # the floor is the endgame signal that forces handoff.  With none
    # to begin with there is nothing to integrate: the whole run is
    # stochastic (bit-identical to backend="leap" for the same seed).
    was_macroscopic = x >= floor
    integrating = bool(was_macroscopic.any())
    while integrating and pos_f < budget and ode_steps < MAX_ODE_STEPS:
        k1, weight = drift(x)
        if weight <= 0.0 or not np.isfinite(weight):
            break  # mean-field silence; leap finalizes
        remaining = budget - pos_f
        # Gillespie/Petzold step rule: no species moves more than
        # max(eps * count, 1) in expectation per step.
        cap = np.maximum(eps * x, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_drift = np.where(k1 != 0.0, cap / np.abs(k1), np.inf)
        h = float(t_drift.min())
        if h >= remaining:
            break  # drift stalled: fluctuations own the rest
        h = max(h, 1.0)
        k2, _ = drift(np.maximum(x + (h / 2.0) * k1, 0.0))
        k3, _ = drift(np.maximum(x + (h / 2.0) * k2, 0.0))
        k4, _ = drift(np.maximum(x + h * k3, 0.0))
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        np.maximum(x, 0.0, out=x)
        if not bool(np.isfinite(x).all()):
            raise SimulationError(
                "the mean-field integration diverged (non-finite "
                "counts); rerun on the leap backend"
            )
        pos_f += h
        events_f += h * (weight / total_pairs)
        ode_steps += 1
        dwindled = was_macroscopic & (x < floor)
        was_macroscopic |= x >= floor
        if bool(dwindled.any()):
            break  # a macroscopic species hit the floor
    x.setflags(write=False)
    return x, pos_f, events_f, ode_steps


#: The handoff states of the open reuse scope, keyed by every input of
#: :func:`_mean_field_phase`; ``None`` outside any scope.
_ODE_REUSE: ContextVar[dict | None] = ContextVar(
    "fluid_ode_reuse", default=None
)


@contextmanager
def ode_reuse_scope() -> Iterator[None]:
    """Integrate each distinct mean-field phase once inside this block.

    The ODE phase is deterministic, so the replicates of a fluid
    ensemble that share a start, budget, ``leap_eps``,
    ``handoff_floor`` and N share its handoff state; only their
    stochastic endgames differ.  Inside the block, a native fluid run
    whose phase inputs equal an earlier run's reuses that run's handoff
    state, so every result - ``RunStats.ode_steps`` and
    ``handoff_time`` included - is the one a lone run gives.  The dict
    lives only as long as the block: nothing is cached across the
    :func:`~repro.engine.ensemble.run_ensemble` calls that open it.
    """
    token = _ODE_REUSE.set({})
    try:
        yield
    finally:
        _ODE_REUSE.reset(token)


class FluidSimulator(CountsRung):
    """Mean-field fast-forward simulator with certified leap handoff.

    Accepts the same constructor arguments and exposes the same
    :meth:`run` contract as the other backends (registered as
    ``BACKENDS["fluid"]``), plus the counts-native :meth:`run_counts`
    entry for populations whose agent vectors cannot be built.  Runs
    served natively integrate the deterministic mean-field ODE while
    every active species is macroscopic, then hand the rounded counts to
    an internal :class:`~repro.engine.leap.LeapSimulator` for the
    stochastic endgame; runs the fluid view cannot honour delegate to
    that same leap simulator with a
    :class:`~repro.errors.BackendFallbackWarning`.
    :attr:`last_run_native` reports which path served the last run.

    Parameters
    ----------
    protocol, population, scheduler, problem, check_interval:
        As for :class:`~repro.engine.simulator.Simulator`.
    compile_limit:
        Largest state-space size eagerly compiled (shared down the
        ladder); larger protocols delegate.
    leap_eps:
        Relative per-step change bound, doing double duty: the RK4 step
        is sized so no species moves more than ``leap_eps`` relative per
        step (the same Gillespie/Petzold rule the leap windows use), and
        the handed-off endgame runs with this leap accuracy.
    min_tau:
        Forwarded to the endgame leap simulator.
    handoff_floor:
        The stochastic floor (in agents) of the adaptive crossover; see
        the module docstring.  Larger is more conservative (earlier
        handoff, more of the run is stochastic).
    sanitize:
        Arm the runtime sanitizer: the rounded handoff vector is checked
        (nonnegative, conserving N) before the stochastic phase, which
        then runs its own windowed checks; delegated runs inherit the
        leap backend's sanitizer.  Checks never consume randomness, so
        sanitized runs stay bit-identical.
    """

    backend = "fluid"
    delegate = "leap"
    # Bound in the class itself, not only inherited: the end-to-end
    # benchmark's tracer reads each backend's ``run`` from the class
    # ``__dict__``.
    run = CountsRung.run

    def __init__(
        self,
        protocol: PopulationProtocol,
        population: Population,
        scheduler: Scheduler,
        problem: Problem | None = None,
        check_interval: int | None = None,
        compile_limit: int = DEFAULT_COMPILE_LIMIT,
        leap_eps: float = DEFAULT_LEAP_EPS,
        min_tau: int = DEFAULT_MIN_TAU,
        handoff_floor: int = DEFAULT_HANDOFF_FLOOR,
        sanitize: bool = False,
    ) -> None:
        if handoff_floor < 1:
            raise SimulationError(
                f"handoff_floor must be a positive integer, got "
                f"{handoff_floor}"
            )
        # The leap simulator validates the wiring, compiles the shared
        # table/plan/delta matrices, runs the stochastic endgame, and
        # serves as the fallback delegate (which may itself continue
        # down the ladder leap -> counts -> fast -> reference).
        super().__init__(
            LeapSimulator(
                protocol, population, scheduler, problem, check_interval,
                compile_limit, leap_eps, min_tau, sanitize=sanitize,
            )
        )
        self.leap_eps = leap_eps
        self.handoff_floor = handoff_floor

    def _admit(
        self,
        initial: Configuration,
        trace: Trace | None,
        fault_hook: FaultHook | None,
        observer: Observer | None,
    ) -> tuple[object, str | None]:
        """Fluid's own refusals first, then the leap backend's."""
        reason = self._fluid_refusal()
        if reason is not None:
            return None, reason
        return self._below._admit(initial, trace, fault_hook, observer)

    def _run_admitted(
        self,
        initial: Configuration,
        counts: list[int],
        max_interactions: int,
        raise_on_timeout: bool,
    ) -> SimulationResult:
        """The convergence verdict always comes from the stochastic leap
        phase, so cadence and certification match ``backend="leap"``."""
        return self._run_native(
            counts, max_interactions, raise_on_timeout, materialize=True,
            leader_pos=initial.leader_index,
        )

    def run_counts(
        self,
        initial_counts: Mapping,
        max_interactions: int = 1_000_000,
        raise_on_timeout: bool = False,
        materialize: bool = False,
    ) -> SimulationResult:
        """Run from a ``{state: count}`` tally, never touching an agent
        vector.

        The entry point for populations whose configurations cannot be
        built (N = 10^9-10^10: an agent tuple alone would exceed
        memory).  ``initial_counts`` maps protocol states to agent
        counts; omitted states are zero; counts must be nonnegative and
        sum to the population size.  With ``materialize=False`` (the
        default) the returned result carries ``final_counts`` (a
        ``{state: count}`` tally) and ``final_configuration=None``;
        ``materialize=True`` returns the canonical configuration the
        other counts engines return, as the lazy O(S)
        :class:`~repro.engine.counts.CountsConfiguration` representative
        (per-agent states are built only when ``.states`` is read).

        Unlike :meth:`run` there is no graceful delegation - a
        delegation target would need the very O(N) configuration this
        entry point exists to avoid - so fluid-unsafe setups raise
        :class:`~repro.errors.SimulationError`.
        """
        reason = self._fluid_refusal()
        if reason is not None:
            raise SimulationError(
                f"run_counts needs the native fluid path, but {reason}"
            )
        table = self._table
        counts = [0] * table.n_states
        total = 0
        for state, k in initial_counts.items():
            k = int(k)
            if k < 0:
                raise SimulationError(
                    f"negative count {k} for state {state!r}"
                )
            try:
                idx = table.index[state]
            except (KeyError, TypeError):
                raise SimulationError(
                    f"state {state!r} is outside the protocol's declared "
                    "state space"
                ) from None
            if idx >= self._plan.n_mobile:
                raise SimulationError(
                    f"state {state!r} is leader-only; run_counts serves "
                    "leaderless populations"
                )
            counts[idx] += k
            total += k
        if total != self.population.size:
            raise SimulationError(
                f"initial counts sum to {total}, population has "
                f"{self.population.size} agents"
            )
        self.last_run_native = True
        return self._run_native(
            counts, max_interactions, raise_on_timeout,
            materialize=materialize, leader_pos=None,
        )

    def _fluid_refusal(self) -> str | None:
        """Fluid's own refusals, tried before the leap backend's."""
        if self._table is None:
            return NOT_COMPILED
        if self.population.has_leader:
            return (
                "a count-1 leader species has no mean-field limit (the "
                "fluid drift treats all species as continuous densities)"
            )
        return None

    # ------------------------------------------------------------------
    # The fluid pipeline: ODE fast-forward, handoff, leap endgame
    # ------------------------------------------------------------------

    def _run_native(
        self,
        counts: list[int],
        max_interactions: int,
        raise_on_timeout: bool,
        materialize: bool,
        leader_pos: int | None,
    ) -> SimulationResult:
        """Integrate, hand off, finish on leap; assumes preconditions.

        Inside an :func:`ode_reuse_scope` the mean-field phase runs once
        per distinct set of its inputs; every later run with the same
        inputs starts its endgame from the shared handoff state.
        """
        started = time.perf_counter()
        plan = self._plan
        size = self.population.size
        budget = max_interactions
        phase = (
            plan, self._below._leap, counts, budget, self.leap_eps,
            self.handoff_floor, size,
        )
        reuse = _ODE_REUSE.get()
        if reuse is None:
            handoff = _mean_field_phase(*phase)
        else:
            # The fingerprint stands for both plans: the leap plan is
            # built from the counts plan's table.
            key = (
                plan.fingerprint, tuple(counts), budget, self.leap_eps,
                self.handoff_floor, size,
            )
            handoff = reuse.get(key)
            if handoff is None:
                handoff = reuse[key] = _mean_field_phase(*phase)
        x, pos_f, events_f, ode_steps = handoff

        handoff_pos = min(int(round(pos_f)), budget)
        handed = _round_conserving(x, size)
        if self.sanitize:
            _sanitize.check_counts_vector("fluid", handed, size, handoff_pos)

        # -- stochastic endgame: the leap backend owns the verdict --
        outcome = self._below._advance_native(
            handed, handoff_pos, budget, label="fluid"
        )
        converged = outcome.converged_at is not None
        if not converged and raise_on_timeout:
            raise ConvergenceError(
                f"{self.protocol.display_name} did not converge within "
                f"{max_interactions} interactions",
                interactions=outcome.pos,
            )
        final_counts = [int(k) for k in outcome.counts]
        self.last_counts = final_counts
        events = int(round(events_f)) + outcome.events
        stats = outcome.stats(
            started,
            events,
            ode_steps=ode_steps,
            handoff_time=float(handoff_pos),
            handoff_backend="leap",
        )
        final_configuration = None
        final_tally = None
        if materialize:
            final_configuration = materialize_counts_lazy(
                self._table, plan.n_mobile, final_counts, leader_pos
            )
        else:
            final_tally = {
                self._table.states[i]: k
                for i, k in enumerate(final_counts)
                if k
            }
        return SimulationResult(
            converged=converged,
            interactions=outcome.pos,
            non_null_interactions=events,
            final_configuration=final_configuration,
            population=self.population,
            trace=None,
            convergence_interaction=outcome.converged_at,
            faults_injected=0,
            final_counts=final_tally,
            stats=stats,
        )


BACKENDS["fluid"] = FluidSimulator
