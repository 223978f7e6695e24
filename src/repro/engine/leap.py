"""The multinomial leap backend: many interactions per step, with
adaptive error control.

Every other backend - reference, fast, counts, batch - pays O(1) work
*per interaction*, so a run of ``K`` interactions costs at least ``K``
sampler draws no matter how clever the representation.  That is the
classic limitation of exact stochastic simulation (SSA), and the classic
answer is *tau-leaping*: freeze the transition propensities for a window
of tau interactions, draw how often each interaction type fired inside
the window from one multinomial, and apply the aggregate effect in a
single vectorized update.  Per-window cost is O(pairs + states),
independent of both the population size N and the window length tau, so
sweeps that were bottlenecked by event count (naming dynamics at
N = 10^7-10^8) become bottlenecked only by the number of windows.

The chain being leapt is the counts process of
:mod:`repro.engine.counts`: under the uniform-random pair scheduler the
probability that one scheduler proposal realizes the ordered non-null
state pair ``f = (i, j)`` is ``p_f = c_i (c_j - [i = j]) / N(N-1)``,
and a null proposal happens with the remaining mass.  Holding ``c``
fixed for ``tau`` proposals, the vector of per-pair firing counts is
exactly ``Multinomial(tau, (p_1, ..., p_F, p_null))``; the counts move
by ``k @ D`` where row ``f`` of the precompiled delta matrix ``D``
holds pair ``f``'s unit effect ``(-1 at i, -1 at j, +1 at i', +1 at
j')``.  The approximation error is that ``c`` does *not* stay fixed
inside the window - the standard tau-leap trade - and is controlled
three ways:

* **adaptive tau** (the ``leap_eps`` bound): before each window the
  expected drift ``mu = D^T p`` and diffusion ``sigma^2 = (D*D)^T p``
  per interaction are computed, and tau is capped so that no state's
  expected change or variance inside the window exceeds
  ``max(leap_eps * c_s, 1)`` (the Gillespie/Petzold tau-selection rule);
* **clip/repair**: a drawn window that would push any count negative is
  discarded and redrawn with tau halved (counted in
  ``RunStats.repairs``), so configurations stay feasible;
* **exact fallback**: when the adaptive tau collapses towards 1 (heavy
  relative churn, small populations) or the window would contain only a
  handful of events (the sparse endgame near silence, where exact
  geometric gap-skipping is just as fast), the backend advances by
  *exact* SSA steps - geometric null-gap plus categorical event pick,
  the same chain the counts backend samples - so small populations and
  endgames remain faithful to the counts distribution.

Convergence semantics are *windowed*: silence (total non-null weight
zero) is tested at every window refresh, and a silent run's convergence
interaction is rounded up to the next ``check_interval`` boundary
(capped at the budget), matching the per-run backends' check cadence up
to one window.  The naming predicate is evaluated straight off the
counts vector.  Distributional accuracy against the exact counts
backend - silence-time and final-configuration statistics under
KS-style bounds - is validated in ``tests/engine/test_leap.py`` and by
the CI smoke check.

Runs the leap view cannot honour - non-uniform schedulers, fault hooks,
traces/observers, problems other than the permutation-invariant naming
problem, open-role protocols (see
:func:`~repro.engine.counts.native_refusal`) - fall back to the exact
:class:`~repro.engine.counts.CountSimulator` (which continues down the
ladder ``counts -> fast -> reference``) with a
:class:`~repro.errors.BackendFallbackWarning` naming the reason.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import NamedTuple

import numpy as _np

from repro.engine import sanitize as _sanitize
from repro.engine.configuration import Configuration
from repro.engine.counts import (
    CountSimulator,
    CountsRung,
    materialize_counts_lazy,
)
from repro.engine.fast import (
    BACKENDS,
    DEFAULT_COMPILE_LIMIT,
    LRU,
    TABLE_CACHE_SIZE,
)
from repro.engine.population import Population
from repro.engine.problems import Problem
from repro.engine.protocol import PopulationProtocol
from repro.engine.simulator import RunStats, SimulationResult
from repro.errors import ConvergenceError, SimulationError
from repro.schedulers.base import Scheduler

#: Default relative-change bound per window: tau is capped so that no
#: state's expected change (or standard deviation squared) inside one
#: window exceeds ``max(DEFAULT_LEAP_EPS * count, 1)``.  0.03 is the
#: standard tau-leaping operating point: large enough for million-fold
#: aggregation at N >= 10^6, small enough that the KS validation against
#: the exact counts backend passes comfortably.
DEFAULT_LEAP_EPS = 0.03

#: Windows shorter than this run as exact SSA steps instead: a
#: multinomial draw over all pairs costs more than a handful of exact
#: events, and exact steps carry no approximation error.
DEFAULT_MIN_TAU = 16

#: Minimum expected number of non-null events per multinomial window.
#: Below this (the sparse endgame near silence) exact geometric
#: gap-skipping advances just as fast per event and is exact, so the
#: leap adds error for no speed.
MIN_WINDOW_EVENTS = 32.0

#: Exact SSA events advanced per fallback burst before tau is
#: re-estimated (the counts may have drifted enough to leap again).
EXACT_BURST = 64


class _LeapOutcome(NamedTuple):
    """Raw outcome of one :meth:`LeapSimulator._advance_native` call.

    Everything the callers (the leap backend's own :meth:`run` and the
    fluid backend's stochastic endgame) need to assemble a
    :class:`~repro.engine.simulator.SimulationResult` without forcing an
    O(N) configuration materialization on them.
    """

    counts: object
    pos: int
    events: int
    leaps: int
    leap_interactions: int
    repairs: int
    converged_at: int | None

    def stats(self, started: float, events: int, **extra) -> RunStats:
        """The run's stats from a ``time.perf_counter()`` start mark:
        ``events`` non-null interactions in all, the leap fields, and
        ``extra`` fields."""
        return replace(
            RunStats.measure(started, self.pos, events),
            leaps=self.leaps,
            mean_tau=(
                self.leap_interactions / self.leaps if self.leaps else 0.0
            ),
            repairs=self.repairs,
            **extra,
        )


class _LeapPlan:
    """Per-table leap tables, shared across simulators of one protocol.

    ``deltas`` is the (pairs, states) int64 matrix whose row ``f`` is
    non-null pair ``f``'s aggregate unit effect on the counts vector;
    ``deltas_sq`` its elementwise square (for the variance term of the
    tau-selection rule).
    """

    __slots__ = ("deltas", "deltas_sq", "fingerprint")

    def __init__(self, plan) -> None:
        self.fingerprint = plan.fingerprint
        n_pairs = plan.pair_i.shape[0]
        deltas = _np.zeros((n_pairs, plan.n_states), dtype=_np.int64)
        rows = _np.arange(n_pairs)
        _np.add.at(deltas, (rows, plan.pair_i), -1)
        _np.add.at(deltas, (rows, plan.pair_j), -1)
        _np.add.at(deltas, (rows, plan.res_i), 1)
        _np.add.at(deltas, (rows, plan.res_j), 1)
        self.deltas = deltas
        self.deltas_sq = deltas * deltas


#: Leap plans keyed by the compiled table's content fingerprint (like the
#: table and counts-plan caches): equal protocol instances share one
#: delta matrix.
_LEAP_CACHE: "LRU[str, _LeapPlan]" = LRU(TABLE_CACHE_SIZE)


def check_leap_knobs(leap_eps: float, min_tau: int) -> None:
    """Reject a ``leap_eps`` outside (0, 1) or a ``min_tau`` below 1."""
    if not 0.0 < leap_eps < 1.0:
        raise SimulationError(f"leap_eps must be in (0, 1), got {leap_eps}")
    if min_tau < 1:
        raise SimulationError(
            f"min_tau must be a positive integer, got {min_tau}"
        )


def _leap_plan_for(protocol: PopulationProtocol, plan) -> _LeapPlan:
    """Build (or fetch the cached) delta matrices for ``plan``'s table."""
    leap = _LEAP_CACHE.get(plan.fingerprint)
    if leap is None:
        leap = _LEAP_CACHE[plan.fingerprint] = _LeapPlan(plan)
    return leap


class LeapSimulator(CountsRung):
    """Aggregated-interaction simulator: many interactions per step.

    Accepts the same constructor arguments and exposes the same
    :meth:`run` contract as the other backends (registered as
    ``BACKENDS["leap"]``).  Runs served natively are *approximately*
    distribution-equivalent to the exact counts backend, with the error
    bounded per window by ``leap_eps`` (see the module docstring); runs
    the leap view cannot honour delegate to an internal
    :class:`~repro.engine.counts.CountSimulator` with a
    :class:`~repro.errors.BackendFallbackWarning`.
    :attr:`last_run_native` reports which path served the last
    :meth:`run` call.

    Parameters
    ----------
    protocol, population, scheduler, problem, check_interval:
        As for :class:`~repro.engine.simulator.Simulator`.
    compile_limit:
        Largest state-space size eagerly compiled (shared with the fast
        and counts backends); larger protocols delegate.
    leap_eps:
        Relative per-window change bound of the adaptive tau selection
        (``--leap-eps`` on the CLIs).  Smaller is more accurate and
        slower; the default :data:`DEFAULT_LEAP_EPS` passes the KS
        validation suite.
    min_tau:
        Windows whose adaptive tau falls below this run as exact SSA
        steps instead (bit-faithful in distribution to the counts
        backend), so small populations never pay leap error.
    sanitize:
        Arm the runtime sanitizer (see :mod:`repro.engine.sanitize`):
        the native path checks its counts vector (nonnegative entries
        summing to the population size) at every window refresh and
        tracks post-silence changes at window granularity; delegated
        runs inherit the counts backend's sanitizer.  Checks never
        consume randomness.
    """

    backend = "leap"
    delegate = "counts"
    sampling = "multinomial leaping"
    naming_only = (
        "the leap kernel only certifies the naming problem; other "
        "problems run on the exact counts backend"
    )
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
        sanitize: bool = False,
    ) -> None:
        check_leap_knobs(leap_eps, min_tau)
        # The counts simulator validates the wiring, compiles the shared
        # table/plan, and serves as the exact fallback delegate (which
        # may itself continue down the ladder to fast/reference).
        super().__init__(
            CountSimulator(
                protocol, population, scheduler, problem, check_interval,
                compile_limit, sanitize=sanitize,
            )
        )
        self.leap_eps = leap_eps
        self.min_tau = min_tau
        self._leap = (
            _leap_plan_for(protocol, self._plan)
            if self._plan is not None
            else None
        )
        self._rng = _np.random.default_rng(getattr(scheduler, "seed", None))

    # ------------------------------------------------------------------
    # The leap hot loop
    # ------------------------------------------------------------------

    def _run_admitted(
        self,
        initial: Configuration,
        counts: list[int],
        max_interactions: int,
        raise_on_timeout: bool,
    ) -> SimulationResult:
        """The windowed multinomial loop on the interned ``counts``."""
        started = time.perf_counter()
        outcome = self._advance_native(counts, 0, max_interactions)
        converged = outcome.converged_at is not None
        if not converged and raise_on_timeout:
            raise ConvergenceError(
                f"{self.protocol.display_name} did not converge within "
                f"{max_interactions} interactions",
                interactions=outcome.pos,
            )
        final_counts = [int(k) for k in outcome.counts]
        self.last_counts = final_counts
        stats = outcome.stats(started, outcome.events)
        return SimulationResult(
            converged=converged,
            interactions=outcome.pos,
            non_null_interactions=outcome.events,
            final_configuration=materialize_counts_lazy(
                self._table, self._plan.n_mobile, final_counts,
                initial.leader_index,
            ),
            population=self.population,
            trace=None,
            convergence_interaction=outcome.converged_at,
            faults_injected=0,
            stats=stats,
        )

    def _advance_native(
        self,
        counts,
        start: int,
        max_interactions: int,
        label: str = "leap",
    ) -> _LeapOutcome:
        """Advance the counts chain from absolute position ``start`` to
        certified convergence or the absolute ``max_interactions`` budget.

        The counts-native core of the backend: takes and returns bare
        counts vectors (interned order, leader included) so callers that
        never hold an agent vector - the fluid backend's post-handoff
        endgame at N = 10^10 - can use it without any O(N) work.
        ``label`` names the backend in sanitizer reports.  Assumes all
        native preconditions hold.
        """
        np = _np
        plan = self._plan
        rng = self._rng
        pair_i, pair_j, diag = plan.pair_i, plan.pair_j, plan.diag
        deltas = self._leap.deltas
        deltas_sq = self._leap.deltas_sq
        n_pairs = pair_i.shape[0]
        n_mobile = plan.n_mobile
        c = np.asarray(counts, dtype=np.int64)
        size = self.population.size
        # Pair weights are computed in float64: the int64 products
        # c_i * c_j overflow beyond N ~ 3 * 10^9 (fluid-tier handoffs
        # reach N = 10^10), while float64 keeps them exact up to 2^53
        # (every stochastic-phase population) and silence detection
        # (weight == 0) exact at any size - a float product is zero iff
        # one factor is.
        total_pairs = float(size) * float(size - 1)
        eps = self.leap_eps
        min_tau = self.min_tau
        check_interval = self.check_interval
        checking = self.problem is not None
        budget = max_interactions

        pos = start  # completed interactions (nulls included)
        events = 0  # non-null interactions
        leaps = 0  # multinomial windows applied
        leap_interactions = 0  # interactions covered by those windows
        repairs = 0  # infeasible draws discarded (tau halved)
        converged_at: int | None = None

        sanitizing = self.sanitize
        if sanitizing:
            tracker = _sanitize.SilenceTracker(label)
        pvals = np.empty(n_pairs + 1)

        def boundary_at(p: int) -> int:
            """First check boundary at/after ``p``, capped at the budget."""
            if p % check_interval:
                p += check_interval - p % check_interval
            return min(p, budget)

        while pos < budget and converged_at is None:
            if sanitizing:
                # Window-refresh cadence: between refreshes the counts
                # move only through the vetted (repaired) aggregate
                # scatter or exact quad updates, so corruption shows
                # up here.
                _sanitize.check_counts_vector(label, c, size, pos)
            # -- refresh: true weights at the current counts --
            w = c[pair_i].astype(np.float64) * (c[pair_j] - diag)
            weight = float(w.sum())
            if weight == 0.0:
                # Silent configuration: frozen forever.  The verdict is
                # delivered at the next check boundary, matching the
                # per-run backends up to one window.
                if sanitizing:
                    tracker.note_silent()
                if checking and bool((c[:n_mobile] <= 1).all()):
                    converged_at = boundary_at(pos)
                    pos = converged_at
                else:
                    pos = budget
                break

            # -- adaptive tau: bound each state's expected change and
            # variance inside the window by max(eps * count, 1) --
            p = w / total_pairs
            mu = deltas.T @ p
            sig2 = deltas_sq.T @ p
            cap = np.maximum(eps * c, 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                t_drift = np.where(mu != 0.0, cap / np.abs(mu), np.inf)
                t_noise = np.where(sig2 > 0.0, cap * cap / sig2, np.inf)
            tau = min(float(t_drift.min()), float(t_noise.min()))
            tau = int(min(tau, float(budget - pos)))

            if (
                tau >= min_tau
                and tau * (weight / total_pairs) >= MIN_WINDOW_EVENTS
            ):
                # -- multinomial window, with clip/repair: an infeasible
                # draw (a count pushed negative) is discarded and the
                # window halved until feasible or too small to leap --
                pvals[:n_pairs] = p
                pvals[n_pairs] = max(0.0, 1.0 - float(p.sum()))
                pvals /= pvals.sum()
                applied = False
                while tau >= min_tau:
                    k = rng.multinomial(tau, pvals)[:n_pairs]
                    c_next = c + k @ deltas
                    if (c_next >= 0).all():
                        applied = True
                        break
                    repairs += 1
                    tau >>= 1
                if applied:
                    c = c_next
                    fired = int(k.sum())
                    pos += tau
                    events += fired
                    leaps += 1
                    leap_interactions += tau
                    if sanitizing and fired:
                        tracker.note_change(pos)
                    continue
                # Repair collapsed the window; step exactly instead.

            # -- exact-SSA burst: geometric null-gap plus categorical
            # event pick, the same chain the counts backend samples.
            # Serves collapsed-tau churn, small populations, and the
            # sparse endgame where exact gap-skipping is just as fast.
            # Unlike bleap's burst it recomputes the whole weight row
            # every step, on purpose: the weights here are float64 and
            # NumPy sums them pairwise, so above N ~ 9.5e7, where
            # N(N - 1) passes 2^53, a running total kept in Python
            # would round differently and change the stream.  The whole
            # leap run is a few percent of the large_n benchmark pass,
            # too little to pay for a second, N-dependent burst --
            burst = 0
            while burst < EXACT_BURST and pos < budget:
                if burst:
                    w = c[pair_i].astype(np.float64) * (c[pair_j] - diag)
                    weight = float(w.sum())
                    if weight == 0.0:
                        break  # the refresh above finalizes silence
                gap = int(rng.geometric(weight / total_pairs))
                if pos + gap > budget:
                    pos = budget
                    break
                pos += gap
                cum = np.cumsum(w, dtype=np.float64)
                f = int(
                    np.searchsorted(
                        cum, rng.random() * float(cum[-1]), side="right"
                    )
                )
                c += deltas[f]
                events += 1
                burst += 1
            if sanitizing and burst:
                tracker.note_change(pos)

        if sanitizing:
            _sanitize.check_counts_vector(label, c, size, pos)

        # Final check: the budget may end exactly at silence.
        if converged_at is None and checking:
            w = c[pair_i].astype(np.float64) * (c[pair_j] - diag)
            if float(w.sum()) == 0.0 and bool((c[:n_mobile] <= 1).all()):
                converged_at = pos

        return _LeapOutcome(
            c, pos, events, leaps, leap_interactions, repairs, converged_at
        )


BACKENDS["leap"] = LeapSimulator
