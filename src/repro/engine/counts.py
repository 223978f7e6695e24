"""The count-based simulation backend: O(states) memory, O(1) amortized
per-interaction cost, independent of the population size.

Population-protocol agents are anonymous, so under the uniform-random pair
scheduler a configuration is fully described by the *counts vector* of its
mobile states plus the leader's state (the paper's Section 3.1 equivalence,
and the multiset view the counting line of work reasons in).  The counts
process is itself a Markov chain: the probability that the next interaction
realizes the ordered state pair ``(i, j)`` is

    ``w_ij(c) = c_i * (c_j - [i = j])  over  N * (N - 1)``

which depends only on the current counts ``c``.  :class:`CountSimulator`
exploits this:

* the state space is interned once through the shared
  :class:`~repro.engine.fast.TransitionTable` (compiled and cached per
  protocol, exactly as the fast backend does);
* the configuration is a small integer vector ``c`` (one entry per state;
  the leader's state is the unique count-1 entry among leader-only
  indices), so memory is O(states), not O(N);
* interacting state pairs are sampled **directly from the counts** in
  NumPy-generated batches of thousands of trials per Python-level step;
* a transition updates four counts; the naming predicate (every mobile
  count <= 1) and the silence certificate (total non-null pair weight
  zero) are evaluated straight off the vector.

Sampling: exact thinning with batched proposals
-----------------------------------------------

Between two non-null interactions the counts are constant, so the run of
consecutive nulls is geometric and can be skipped in O(1).  To batch the
non-null draws without resampling per event, the backend fixes an
*envelope* ``ĉ = c + 2 * nu`` (no count can grow by more than 2 per event,
so ``ĉ`` dominates ``c`` for the next ``nu`` events) and presamples, per
batch, geometric gaps with success probability ``min(1, Ŵ / (N(N-1)))``
plus a uniform position inside the envelope's cumulative weight.  Each
candidate pair ``f`` is then *thinned* against the true weight: accepted
with probability ``w_f(c) / ŵ_f``, where ``c`` is the counts at that very
trial.  By the standard composition/thinning argument every trial realizes
pair ``f`` with probability exactly ``w_f(c) / (N(N-1))`` - the true
chain - while rejected candidates and skipped trials are exactly the null
interactions.  Convergence checks keep the reference semantics: they fire
at ``check_interval`` boundaries, only when a non-null interaction
happened since the previous check (geometric memorylessness makes
discarding a candidate at a boundary exact).

The native path is therefore *distribution-exact* (up to the float64
resolution of the sampler, the same caveat as any floating-point RNG):
convergence verdicts, convergence-time distributions and counts
trajectories match the agent-based backends statistically, which the
KS-style tests in ``tests/engine/test_counts.py`` verify.  It is *not*
stream-identical to the fast backend - it consumes NumPy randomness, not
the scheduler's Mersenne stream - so ``final_configuration`` is a
canonical representative of the reached equivalence class (mobile states
in interned order), exact up to the paper's Section 3.1 equivalence.

Runs the counts view cannot honour - non-uniform or adversarial
schedulers, fault hooks, traces/observers (which need agent identities),
protocols whose rules move states across the mobile/leader role
boundary - fall back to :class:`~repro.engine.fast.FastSimulator`
(which may itself fall back to the reference loop), with a
:class:`~repro.errors.BackendFallbackWarning` naming the reason.

This module also holds the wiring every counts-native rung of the
backend ladder shares - counts, leap, fluid, batch and bleap:
:func:`native_refusal`, the one ordered list of the runs their kernels
refuse, and :class:`CountsRung`, the one fallback ``run``.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Iterable

import numpy as _np

from repro.engine import sanitize as _sanitize
from repro.engine.configuration import Configuration
from repro.engine.fast import (
    BACKENDS,
    DEFAULT_COMPILE_LIMIT,
    LEADER_STATE_HELD,
    LRU,
    NOT_COMPILED,
    OUTSIDE_SPACE,
    TABLE_CACHE_SIZE,
    FastSimulator,
    TransitionTable,
    compile_table,
    warn_fallback,
)
from repro.engine.population import Population
from repro.engine.problems import NamingProblem, Problem
from repro.engine.protocol import PopulationProtocol
from repro.engine.simulator import (
    FaultHook,
    Observer,
    RunStats,
    SimulationResult,
)
from repro.engine.trace import InteractionRecord, Trace
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    SimulationError,
)
from repro.schedulers.base import Scheduler


def configuration_counts(
    table: TransitionTable, config: Configuration
) -> list[int]:
    """The counts vector of ``config`` over ``table``'s interned states.

    Includes the leader's state (as a count-1 entry), matching the
    internal representation of :class:`CountSimulator`; used by the
    differential trajectory tests.
    """
    counts = [0] * table.n_states
    index = table.index
    for state in config.states:
        counts[index[state]] += 1
    return counts


def apply_record(
    table: TransitionTable, counts: list[int], record: InteractionRecord
) -> None:
    """Apply one trace record to a counts vector, in place.

    The aggregate effect of a pair stream on the counts telescopes over
    per-record deltas, so replaying a :class:`~repro.engine.trace.Trace`
    this way reproduces the counts trajectory of the agent-based backends
    exactly - the basis of the shared-pair-stream differential test.
    """
    index = table.index
    counts[index[record.before_initiator]] -= 1
    counts[index[record.before_responder]] -= 1
    counts[index[record.after_initiator]] += 1
    counts[index[record.after_responder]] += 1


class _CountsPlan:
    """Per-table sampling tables: the non-null pairs, flattened.

    ``pair_i/pair_j`` (NumPy) index the interacting states of every
    non-null table entry and ``res_i/res_j`` their successor states,
    ``diag`` flags self-pairs (their weight is ``c * (c - 1)``);
    ``quads`` carries the same rows as plain tuples for the Python hot
    loop.  ``closed`` records whether every rule preserves the
    mobile/leader role split - the invariant that keeps the leader
    identifiable as the unique count among leader-only indices.
    """

    __slots__ = (
        "n_states",
        "n_mobile",
        "closed",
        "pair_i",
        "pair_j",
        "res_i",
        "res_j",
        "diag",
        "quads",
        "fingerprint",
    )

    def __init__(self, table: TransitionTable) -> None:
        self.fingerprint = table.fingerprint
        n = table.n_states
        n_mobile = len(table.mobile_indices)
        pi: list[int] = []
        pj: list[int] = []
        ri: list[int] = []
        rj: list[int] = []
        for i, row in enumerate(table.rows):
            for j, hit in enumerate(row):
                if hit is None:
                    continue
                i2, j2 = hit
                pi.append(i)
                pj.append(j)
                ri.append(i2)
                rj.append(j2)
        self.n_states = n
        self.n_mobile = n_mobile
        self.closed = table.closed
        # One tuple per non-null pair for the Python hot loop:
        # (i, j, i2, j2, [i = j]) - a single index + unpack per event.
        self.quads = [
            (a, b, a2, b2, int(a == b))
            for a, b, a2, b2 in zip(pi, pj, ri, rj)
        ]
        self.pair_i = _np.asarray(pi, dtype=_np.int64)
        self.pair_j = _np.asarray(pj, dtype=_np.int64)
        self.res_i = _np.asarray(ri, dtype=_np.int64)
        self.res_j = _np.asarray(rj, dtype=_np.int64)
        self.diag = (self.pair_i == self.pair_j).astype(_np.int64)


def intern_initial(
    table: TransitionTable, n_mobile: int, initial: Configuration
) -> tuple[list[int] | None, str | None]:
    """Intern ``initial`` into a counts vector over ``table``'s states.

    Returns ``(counts, None)`` on success and ``(None, reason)`` when the
    configuration cannot be represented by counts alone (states outside
    the declared space, or a role mix-up that would make the leader
    unidentifiable).  Shared by the counts and batch backends.
    """
    counts = [0] * table.n_states
    leader_pos = initial.leader_index
    leader_state = (
        initial.states[leader_pos] if leader_pos is not None else None
    )
    # Intern and role-check per *distinct* state only, from the
    # configuration's state tally: O(S) for uniform starts and
    # counts-backed configurations, which carry it, and one C-speed
    # Counter pass over the N states otherwise (a per-agent Python loop
    # would dominate run() at N = 10^5+).  Ensemble factories build a
    # new configuration for every seed, so each replicate pays its own
    # tally; only re-running the same object reuses the cached one.
    try:
        tally = initial.state_tally()
        for state, k in tally.items():
            idx = table.index[state]
            if idx >= n_mobile and (k != 1 or state != leader_state):
                return None, LEADER_STATE_HELD
            counts[idx] += k
    except (KeyError, TypeError):
        return None, OUTSIDE_SPACE
    if leader_state is not None and table.index[leader_state] < n_mobile:
        return None, (
            "the leader holds a mobile state, which is "
            "ambiguous in the counts representation"
        )
    return counts, None


def _rebuild_counts_configuration(
    pairs: tuple, leader_state, leader_pos: int | None
) -> "CountsConfiguration":
    """Pickle reconstructor for :class:`CountsConfiguration`."""
    return CountsConfiguration(pairs, leader_state, leader_pos)


class CountsConfiguration(Configuration):
    """A :class:`Configuration` materialized lazily from a counts row.

    Stores the O(S) ``(state, count)`` pairs of the canonical
    representative instead of the O(N) per-agent states tuple; the full
    ``states`` tuple is built on first access and cached.  Equality,
    hashing and every view are interchangeable with an eagerly
    materialized :class:`Configuration` of the same equivalence-class
    representative (mixed comparisons in either order agree), so callers
    cannot tell the difference - except that a result whose final
    configuration is never inspected costs O(S), not O(N).

    Every counts-based engine returns its final configuration as one of
    these (:func:`materialize_counts_lazy`).  That is what lets the
    lockstep engines return R-replicate ensembles without holding R
    O(N) tuples alive, what keeps a per-run result at N = 10^6 a few
    hundred bytes, and what lets parallel ensembles return results from
    worker processes with no per-agent pickling: pickling one of these
    ships the pairs, not the expansion.
    """

    __slots__ = ("_pairs", "_lazy_leader", "_states_cache")

    def __init__(
        self,
        pairs,
        leader_state,
        leader_pos: int | None,
    ) -> None:
        object.__setattr__(self, "_pairs", tuple(pairs))
        object.__setattr__(self, "_lazy_leader", leader_state)
        object.__setattr__(self, "_states_cache", None)
        object.__setattr__(self, "leader_index", leader_pos)
        object.__setattr__(self, "_canonical_cache", None)
        object.__setattr__(self, "_tally_cache", None)
        if leader_pos is not None and not (0 <= leader_pos <= self._n_mobile()):
            raise ConfigurationError(
                f"leader index {leader_pos} out of range for "
                f"{self._n_mobile() + 1} agents"
            )

    def _n_mobile(self) -> int:
        return sum(k for _, k in self._pairs)

    @property
    def states(self) -> tuple:  # type: ignore[override]
        cached = self._states_cache
        if cached is None:
            states: list = []
            for state, k in self._pairs:
                states.extend([state] * k)
            if self.leader_index is not None:
                states.insert(self.leader_index, self._lazy_leader)
            cached = tuple(states)
            object.__setattr__(self, "_states_cache", cached)
        return cached

    # -- O(S) overrides of the O(N) derived views ----------------------

    def __len__(self) -> int:
        return self._n_mobile() + (1 if self.leader_index is not None else 0)

    @property
    def size(self) -> int:  # type: ignore[override]
        return len(self)

    @property
    def leader_state(self):  # type: ignore[override]
        if self.leader_index is None:
            raise ConfigurationError("configuration has no leader")
        return self._lazy_leader

    def multiset(self) -> Counter:
        return Counter(dict(self._pairs))

    def state_tally(self) -> Counter:
        if self._tally_cache is None:
            tally = Counter(dict(self._pairs))
            if self.leader_index is not None:
                tally[self._lazy_leader] += 1
            object.__setattr__(self, "_tally_cache", tally)
        return self._tally_cache

    def names_distinct(self) -> bool:
        return all(k < 2 for _, k in self._pairs)

    def mobile_head(self, limit: int) -> tuple:
        # The pairs hold the mobile states alone, in expansion order.
        head: list = []
        for state, k in self._pairs:
            if len(head) >= limit:
                break
            head.extend([state] * min(k, limit - len(head)))
        return tuple(head)

    # -- identity: interchangeable with eager configurations -----------

    def __eq__(self, other) -> bool:
        if isinstance(other, Configuration):
            return (self.states, self.leader_index) == (
                other.states,
                other.leader_index,
            )
        return NotImplemented

    def __hash__(self) -> int:
        # Matches the frozen-dataclass hash of an equal Configuration.
        return hash((self.states, self.leader_index))

    def __reduce__(self):
        # Pickle the O(S) pairs, never the O(N) expansion: results
        # shipped across processes (memo stores, worker fallbacks) stay
        # count-sized.
        return (
            _rebuild_counts_configuration,
            (self._pairs, self._lazy_leader, self.leader_index),
        )


def materialize_counts_lazy(
    table: TransitionTable,
    n_mobile: int,
    counts,
    leader_pos: int | None,
) -> Configuration:
    """A canonical representative of the counts' equivalence class.

    Mobile states are expanded in interned (``sort_key``) order; the
    leader - the unique count among leader-only indices - returns to the
    agent slot it occupied initially.  Exact up to the paper's
    Section 3.1 equivalence.  Returns a :class:`CountsConfiguration`
    that holds only the nonzero ``(state, count)`` pairs, built in
    O(S); the O(N) states tuple is expanded on first access.  The one
    final-configuration materializer of every counts-based engine
    (counts, leap, fluid, batch and bleap), whose results are
    frequently never inspected per agent.
    """
    objs = table.states
    pairs = tuple(
        (objs[i], int(counts[i])) for i in range(n_mobile) if counts[i]
    )
    leader_state = None
    if leader_pos is not None:
        for i in range(n_mobile, table.n_states):
            if counts[i]:
                leader_state = objs[i]
                break
    return CountsConfiguration(pairs, leader_state, leader_pos)


#: Sampling plans keyed by the compiled table's content fingerprint, so
#: equal protocol instances share one plan instead of rebuilding per
#: instance.
_PLAN_CACHE: "LRU[str, _CountsPlan]" = LRU(TABLE_CACHE_SIZE)


def _plan_for(
    protocol: PopulationProtocol, table: TransitionTable
) -> _CountsPlan:
    """Build (or fetch the cached) sampling plan for ``table``."""
    plan = _PLAN_CACHE.get(table.fingerprint)
    if plan is None:
        plan = _PLAN_CACHE[table.fingerprint] = _CountsPlan(table)
    return plan


def native_refusal(
    table: TransitionTable | None,
    plan: _CountsPlan | None,
    schedulers: Iterable[Scheduler],
    problem: Problem | None,
    fault_hook: FaultHook | None,
    trace: Trace | None,
    observer: Observer | None,
    sampling: str,
    naming_only: str | None = None,
) -> str | None:
    """Why a counts-native kernel cannot serve a run, or ``None``.

    The one ordered list of refusals of the counts, leap, fluid, batch
    and bleap rungs; the first that applies is the reason a rung's
    :class:`~repro.errors.BackendFallbackWarning` reports.  ``sampling``
    names what assumes uniform pairs in the scheduler refusal ("counts
    sampling", "multinomial leaping", "lockstep sampling").
    ``naming_only``, when given, is the rung's refusal of every problem
    but :class:`~repro.engine.problems.NamingProblem`: its kernel
    certifies convergence straight off the counts, which is exact only
    for the naming predicate (distinct names plus silence).
    """
    if table is None:
        return NOT_COMPILED
    if not plan.closed:
        return (
            "a rule moves a state across the mobile/leader role "
            "boundary, so counts alone cannot identify the leader"
        )
    for scheduler in schedulers:
        if not getattr(scheduler, "uniform_pairs", False):
            return (
                f"scheduler {scheduler.display_name!r} is not the "
                f"uniform-random pair scheduler ({sampling} assumes "
                "independent uniform ordered pairs)"
            )
    if fault_hook is not None:
        return "fault hooks rewrite per-agent configurations"
    if trace is not None or observer is not None:
        return "traces and observers need agent identities"
    if problem is None:
        return None
    if naming_only is not None and type(problem) is not NamingProblem:
        return naming_only
    if not getattr(problem, "permutation_invariant", False):
        return (
            "the problem is not permutation-invariant, so it cannot "
            "be evaluated on a canonical representative"
        )
    return None


class CountsRung:
    """One counts-native rung of the backend ladder.

    The wiring the counts, leap, fluid, batch and bleap backends share.
    A rung wraps the already-built simulator one rung down
    (``_below``), copies its wiring, serves on its own kernel every run
    :func:`native_refusal` admits, and hands every other run to that
    delegate with a :class:`~repro.errors.BackendFallbackWarning`
    naming the reason.  A subclass names itself and its delegate
    (``backend``, ``delegate``), says what its kernel samples
    (``sampling``) and whether it certifies only naming
    (``naming_only``), and supplies the kernel as :meth:`_run_admitted`.
    """

    #: This rung's and its delegate's backend names, as the fallback
    #: warnings report them.
    backend: str
    delegate: str
    #: What assumes uniform pairs, in the scheduler refusal.
    sampling: str
    #: The refusal of every problem but naming, on rungs whose kernel
    #: certifies only naming.
    naming_only: str | None = None

    def __init__(self, below) -> None:
        self._below = below
        self.protocol = below.protocol
        self.population = below.population
        self.scheduler = below.scheduler
        self.problem = below.problem
        self.check_interval = below.check_interval
        self.sanitize = below.sanitize
        if isinstance(below, CountsRung):
            # The counts rung compiles the table and sampling plan;
            # every rung above shares its delegate's.
            self._table = below._table
            self._plan = below._plan
        #: Whether the most recent run used this rung's own kernel.
        self.last_run_native = False
        #: Final counts vector of the most recent native run of a
        #: per-run rung (interned order, leader included); ``None``
        #: after delegated runs and on the lockstep rungs.
        self.last_counts: list[int] | None = None

    @property
    def compiled(self) -> bool:
        """Whether the protocol compiled to a transition table."""
        return self._table is not None

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

        Same parameters and semantics as :meth:`Simulator.run`.  Runs
        the rung's kernel cannot honour (traces, observers and fault
        hooks need agent identities, non-uniform schedulers the full
        agent vector; see :func:`native_refusal`) delegate one rung down.
        """
        self._check_size(initial)
        admitted, reason = self._admit(initial, trace, fault_hook, observer)
        if reason is not None:
            warn_fallback(self.backend, self.delegate, reason)
            self.last_run_native = False
            self.last_counts = None
            return self._below.run(
                initial,
                max_interactions=max_interactions,
                trace=trace,
                fault_hook=fault_hook,
                raise_on_timeout=raise_on_timeout,
                observer=observer,
            )
        self.last_run_native = True
        return self._run_admitted(
            initial, admitted, max_interactions, raise_on_timeout
        )

    def _check_size(self, initial: Configuration) -> None:
        if len(initial) != self.population.size:
            raise SimulationError(
                f"initial configuration has {len(initial)} agents, "
                f"population has {self.population.size}"
            )

    def _admit(
        self,
        initial: Configuration,
        trace: Trace | None,
        fault_hook: FaultHook | None,
        observer: Observer | None,
    ) -> tuple[object, str | None]:
        """``(interned start, None)``, or ``(None, reason)`` when the
        rung refuses the run."""
        reason = native_refusal(
            self._table, self._plan, [self.scheduler], self.problem,
            fault_hook, trace, observer, self.sampling, self.naming_only,
        )
        if reason is not None:
            return None, reason
        return self._intern(initial)

    def _intern(self, initial: Configuration):
        return intern_initial(self._table, self._plan.n_mobile, initial)

    def _run_admitted(
        self,
        initial: Configuration,
        admitted,
        max_interactions: int,
        raise_on_timeout: bool,
    ) -> SimulationResult:
        """Serve an admitted run on the rung's own kernel."""
        raise NotImplementedError


class CountSimulator(CountsRung):
    """Counts-vector simulator: per-interaction cost independent of N.

    Accepts the same constructor arguments and exposes the same
    :meth:`run` contract as the other backends.  Runs served natively
    are *statistically* equivalent to the agent-based backends (same
    counts Markov chain, same convergence-check semantics), with
    ``final_configuration`` a canonical representative of the reached
    equivalence class; runs the counts view cannot honour delegate to an
    internal :class:`~repro.engine.fast.FastSimulator` with a
    :class:`~repro.errors.BackendFallbackWarning`.  :attr:`last_run_native`
    reports which path served the last :meth:`run` call.

    Parameters
    ----------
    protocol, population, scheduler, problem, check_interval:
        As for :class:`~repro.engine.simulator.Simulator`.
    compile_limit:
        Largest state-space size eagerly compiled (shared with the fast
        backend); larger protocols delegate.
    events_per_batch:
        Non-null events simulated per envelope refresh (the ``nu`` of the
        module docstring).  Defaults to ``clamp(N // 32, 8, 512)``.
    sanitize:
        Arm the runtime sanitizer (see :mod:`repro.engine.sanitize`):
        the native path checks its counts vector (nonnegative entries
        summing to the population size) at every envelope refresh and at
        run end; delegated runs inherit the fast/reference sanitizers.
        Role discipline is already a native-path precondition
        (``plan.closed``), and silent configurations freeze the loop by
        construction.  Checks never consume randomness.
    """

    backend = "counts"
    delegate = "fast"
    sampling = "counts sampling"
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
        events_per_batch: int | None = None,
        sanitize: bool = False,
    ) -> None:
        # The fast simulator validates the wiring and serves as the
        # graceful-fallback delegate (it may in turn delegate to the
        # reference loop).
        super().__init__(
            FastSimulator(
                protocol, population, scheduler, problem, check_interval,
                compile_limit, sanitize,
            )
        )
        self._table = compile_table(protocol, compile_limit)
        self._plan = (
            _plan_for(protocol, self._table)
            if self._table is not None
            else None
        )
        self._rng = _np.random.default_rng(getattr(scheduler, "seed", None))
        self._events_per_batch = events_per_batch or max(
            8, min(512, population.size // 32)
        )
        self._leader_pos: int | None = None

    # ------------------------------------------------------------------
    # Counts hot loop
    # ------------------------------------------------------------------

    def _materialize(self, counts: list[int]) -> Configuration:
        """The canonical representative of ``counts`` (see
        :func:`materialize_counts_lazy`); O(S), called once per run plus
        once per generic-problem convergence check.
        """
        return materialize_counts_lazy(
            self._table, self._plan.n_mobile, counts, self._leader_pos
        )

    def _run_admitted(
        self,
        initial: Configuration,
        counts: list[int],
        max_interactions: int,
        raise_on_timeout: bool,
    ) -> SimulationResult:
        """The batched-thinning hot loop on the interned ``counts``."""
        np = _np
        started = time.perf_counter()
        self._leader_pos = initial.leader_index
        plan = self._plan
        rng = self._rng
        problem = self.problem
        protocol = self.protocol
        check_interval = self.check_interval
        n_mobile = plan.n_mobile
        pair_i, pair_j, diag = plan.pair_i, plan.pair_j, plan.diag
        quads = plan.quads
        c = counts
        size = self.population.size
        total_pairs = size * (size - 1)
        nu = self._events_per_batch

        # Number of duplicated mobile states; the naming predicate
        # (names_distinct) is exactly ``dup == 0``.
        dup = 0
        for i in range(n_mobile):
            if c[i] >= 2:
                dup += 1

        checking = problem is not None
        fast_naming = checking and type(problem) is NamingProblem

        def total_weight() -> int:
            """Sum of non-null ordered-pair weights at the current counts.

            Zero exactly when the configuration is silent (every
            realizable meeting is null): counts-native mirror of
            :func:`repro.engine.problems.is_silent`.
            """
            a = np.asarray(c, dtype=np.int64)
            return int((a[pair_i] * (a[pair_j] - diag)).sum())

        def solved() -> bool:
            """Certified convergence, matching ``problem.is_solved``."""
            if fast_naming:
                return dup == 0 and total_weight() == 0
            return problem.is_solved(protocol, self._materialize(c))

        pos = 0  # completed interactions (nulls included)
        events = 0  # non-null interactions
        converged_at: int | None = None
        if problem is not None and solved():
            converged_at = 0

        budget = max_interactions
        # ``stop`` is the next position the gap jumps must not cross:
        # either a pending convergence-check boundary or the budget.
        stop = budget
        pending_check = False

        sanitizing = self.sanitize
        while pos < budget and converged_at is None:
            if sanitizing:
                # Envelope-refresh cadence: between refreshes the loop
                # only applies (-1, -1, +1, +1) quad updates, so any
                # corruption shows up here.
                _sanitize.check_counts_vector("counts", c, size, pos)
            # -- refresh: true weights at the current counts --
            a = np.asarray(c, dtype=np.int64)
            w_true = a[pair_i] * (a[pair_j] - diag)
            weight = int(w_true.sum())
            if weight == 0:
                # Silent configuration: frozen forever - fast-forward.
                if pending_check:
                    pos = stop
                    pending_check = False
                    stop = budget
                    if solved():
                        converged_at = pos
                        break
                pos = budget
                break
            envelope = a + 2 * nu  # dominates the counts for nu events
            w_hat = envelope[pair_i] * (envelope[pair_j] - diag)
            cum = np.cumsum(w_hat, dtype=np.float64)
            w_hat_total = float(cum[-1])
            p_hat = w_hat_total / total_pairs
            if p_hat >= 1.0:
                # Dense regime (small populations or heavy churn): the
                # inflated envelope is no thinning bound at all here, so
                # draw the next non-null event straight from the *true*
                # weights instead - gap ~ Geometric(W / N(N-1)), event f
                # with probability w_f / W.  Exact; one event per
                # refresh, which only costs where N is small anyway.
                gap = int(rng.geometric(weight / total_pairs))
                npos = pos + gap
                if npos > stop:
                    pos = stop
                    if not pending_check:
                        break  # budget exhausted mid-gap
                    # Memoryless gap: discard and redraw next iteration.
                    pending_check = False
                    stop = budget
                    if solved():
                        converged_at = pos
                    continue
                pos = npos
                cum_true = np.cumsum(w_true, dtype=np.float64)
                f = int(
                    np.searchsorted(
                        cum_true, rng.random() * weight, side="right"
                    )
                )
                i, j, i2, j2, _ = quads[f]
                if i != i2:
                    v = c[i] - 1
                    c[i] = v
                    if v == 1 and i < n_mobile:
                        dup -= 1
                    v = c[i2] + 1
                    c[i2] = v
                    if v == 2 and i2 < n_mobile:
                        dup += 1
                if j != j2:
                    v = c[j] - 1
                    c[j] = v
                    if v == 1 and j < n_mobile:
                        dup -= 1
                    v = c[j2] + 1
                    c[j2] = v
                    if v == 2 and j2 < n_mobile:
                        dup += 1
                events += 1
                if checking:
                    if pos % check_interval == 0:
                        pending_check = False
                        stop = budget
                        if solved():
                            converged_at = pos
                    elif not pending_check:
                        boundary = (
                            pos - pos % check_interval + check_interval
                        )
                        if boundary < budget:
                            stop = boundary
                            pending_check = True
                continue

            # Sparse regime: presample geometric gaps against the
            # envelope plus a position inside its cumulative weight,
            # then thin each candidate against the true weights.  At
            # most ``nu`` of the ``nu`` candidates can be accepted, so
            # the envelope guarantee holds for the whole batch.
            garr = rng.geometric(p_hat, size=nu)
            total_gap = int(garr.sum())
            gaps = garr.tolist()
            values = rng.random(nu) * w_hat_total
            buckets = np.searchsorted(cum, values, side="right")
            lower = cum[buckets - 1]
            lower[buckets == 0] = 0.0
            offsets = (values - lower).tolist()
            buckets = buckets.tolist()

            if checking:
                next_boundary = (
                    pos - pos % check_interval + check_interval
                )
                limit = next_boundary if next_boundary < stop else stop
            else:
                next_boundary = budget
                limit = stop
            if pos + total_gap < limit:
                # Bare loop: the whole batch provably stays short of the
                # next check boundary, any pending boundary and the
                # budget, so every per-candidate boundary test - and the
                # per-event check bookkeeping - can be hoisted out.
                before = events
                for gap, f, off in zip(gaps, buckets, offsets):
                    pos += gap
                    i, j, i2, j2, d = quads[f]
                    if off >= c[i] * (c[j] - d):
                        continue  # thinned candidate: a null interaction
                    if i != i2:
                        v = c[i] - 1
                        c[i] = v
                        if v == 1 and i < n_mobile:
                            dup -= 1
                        v = c[i2] + 1
                        c[i2] = v
                        if v == 2 and i2 < n_mobile:
                            dup += 1
                    if j != j2:
                        v = c[j] - 1
                        c[j] = v
                        if v == 1 and j < n_mobile:
                            dup -= 1
                        v = c[j2] + 1
                        c[j2] = v
                        if v == 2 and j2 < n_mobile:
                            dup += 1
                    events += 1
                # All events of this batch share one check boundary
                # (they happened strictly inside one check interval).
                if (
                    checking
                    and events != before
                    and not pending_check
                    and next_boundary < budget
                ):
                    stop = next_boundary
                    pending_check = True
                continue

            done = False
            for gap, f, off in zip(gaps, buckets, offsets):
                npos = pos + gap
                if npos > stop:
                    pos = stop
                    if not pending_check:
                        done = True  # budget exhausted mid-gap
                        break
                    # Check boundary crossed: the geometric gap is
                    # memoryless, so discarding this candidate and moving
                    # on to the next (a fresh draw) is exact.
                    pending_check = False
                    stop = budget
                    if solved():
                        converged_at = pos
                        done = True
                        break
                    continue
                pos = npos
                i, j, i2, j2, d = quads[f]
                if off >= c[i] * (c[j] - d):
                    continue  # thinned candidate: a null interaction
                # Accepted: the non-null event (i, j) -> (i2, j2).
                if i != i2:
                    v = c[i] - 1
                    c[i] = v
                    if v == 1 and i < n_mobile:
                        dup -= 1
                    v = c[i2] + 1
                    c[i2] = v
                    if v == 2 and i2 < n_mobile:
                        dup += 1
                if j != j2:
                    v = c[j] - 1
                    c[j] = v
                    if v == 1 and j < n_mobile:
                        dup -= 1
                    v = c[j2] + 1
                    c[j2] = v
                    if v == 2 and j2 < n_mobile:
                        dup += 1
                events += 1
                if checking:
                    if pos % check_interval == 0:
                        pending_check = False
                        stop = budget
                        if solved():
                            converged_at = pos
                            done = True
                            break
                    elif not pending_check:
                        boundary = (
                            pos - pos % check_interval + check_interval
                        )
                        if boundary < budget:
                            stop = boundary
                            pending_check = True
                        # Boundaries at/after the budget are covered by
                        # the final check below, as in the reference loop.
            if done:
                break

        if sanitizing:
            _sanitize.check_counts_vector("counts", c, size, pos)

        # Final check: the budget may end mid check-interval.
        if converged_at is None and problem is not None and solved():
            converged_at = pos

        converged = converged_at is not None
        if not converged and raise_on_timeout:
            raise ConvergenceError(
                f"{protocol.display_name} did not converge within "
                f"{max_interactions} interactions",
                interactions=pos,
            )
        self.last_counts = list(c)
        return SimulationResult(
            converged=converged,
            interactions=pos,
            non_null_interactions=events,
            final_configuration=self._materialize(c),
            population=self.population,
            trace=None,
            convergence_interaction=converged_at,
            faults_injected=0,
            stats=RunStats.measure(started, pos, events),
        )


BACKENDS["counts"] = CountSimulator
