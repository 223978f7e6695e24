"""The fast simulation backend.

:class:`~repro.engine.simulator.Simulator` favours clarity: every
interaction rebuilds an immutable :class:`Configuration` tuple (O(N) per
non-null interaction), resolves the rule through a Python method call and
re-scans all mobile states on each convergence check.  That is the right
substrate for model checking and teaching, but the experiments (Table 1
sweeps, convergence studies) run millions of interactions over many seeds.

:class:`FastSimulator` is a drop-in replacement that produces
**bit-identical** :class:`SimulationResult`\\ s for the same seed while
running an order of magnitude faster:

* agent states live in a mutable list of small integers, interned through
  a per-protocol state <-> index table;
* the transition function is compiled into one list per state:
  ``rows[i][j]`` is either ``None`` (null interaction) or the resulting
  index pair - no Python-level rule dispatch in the hot loop.  A protocol
  whose whole declared state space fits :data:`DEFAULT_COMPILE_LIMIT`
  compiles eagerly into a :class:`TransitionTable`, the table the counts,
  batch and leap backends plan from.  A protocol whose mobile space fits
  but whose declared leader space does not - Protocols 1-3, whose base
  station walks a pointer along a universal sequence of length
  ``2^P - 1`` - gets a :class:`LazyTransitionTable`: its mobile x mobile
  rows compile up front, and a leader state's row and column compile the
  first time a run's leader enters that state;
* scheduler proposals are drawn in batches aligned to the convergence
  check interval (see :meth:`Scheduler.next_pairs`), with a random stream
  identical to one-at-a-time sampling;
* the mobile-state multiset is maintained incrementally, so the naming
  predicate (``names_distinct``) is O(1) per interaction and the silence
  certificate is O(distinct states squared) instead of O(N);
* a run under a periodic schedule (:attr:`Scheduler.period`) skips whole
  cycles once its configuration provably repeats: every
  ``lcm(period, check_interval)`` interactions, Brent's cycle detection
  compares the configuration with one saved snapshot, and on a repeat
  the remaining whole cycles are added to the interaction and non-null
  counts without being simulated.  It applies only to plain runs (no
  trace, no observer, sanitizer off) whose problem is ``None`` or
  exactly :class:`NamingProblem`, and is exact: a repeating cycle with a
  non-null meeting holds no silent, hence no solved, configuration, and
  one without is a fixed point no check re-examines.  Proposition 1's
  matching adversary is the motivating case: its livelock is certified
  after one stride instead of simulated for the whole budget.

The backend falls back gracefully to the reference simulator whenever the
fast path cannot guarantee identical semantics: unhashable or
unenumerable state spaces, mobile state spaces over the compile limit,
configuration-inspecting (adversarial) schedulers, fault hooks, or
initial states outside the declared space.
"""

from __future__ import annotations

import hashlib
import math
import time
import warnings
import weakref
from collections import OrderedDict
from itertools import compress
from typing import TypeVar

from repro.engine import sanitize as _sanitize
from repro.engine.configuration import Configuration
from repro.engine.population import Population
from repro.engine.problems import NamingProblem, Problem
from repro.engine.protocol import PopulationProtocol, verify_protocol
from repro.engine.simulator import (
    FaultHook,
    Observer,
    RunStats,
    SimulationResult,
    Simulator,
)
from repro.engine.state import sort_key
from repro.engine.trace import InteractionRecord, Trace
from repro.errors import (
    BackendFallbackWarning,
    ConfigurationError,
    ConvergenceError,
    SimulationError,
)
from repro.schedulers.base import Scheduler

#: Largest state space compiled up front.  It gates the eager
#: :class:`TransitionTable` (mobile and leader spaces together) and the
#: mobile space of a :class:`LazyTransitionTable`, whose mobile x mobile
#: rows compile eagerly; leader rows beyond it compile on first visit.
#: Above it the quadratic compile cost would dominate short runs, so a
#: protocol whose mobile space alone exceeds it falls back to the
#: reference simulator.
DEFAULT_COMPILE_LIMIT = 512

#: Refusal reasons worded once for every rung that gives them: this
#: backend and the counts-native rungs above it (see
#: :func:`repro.engine.counts.native_refusal`).
NOT_COMPILED = (
    "the protocol's state space could not be compiled to a transition "
    "table (unhashable, unenumerable or oversized)"
)
OUTSIDE_SPACE = (
    "the initial configuration holds states outside the protocol's "
    "declared state space"
)
LEADER_STATE_HELD = "a mobile agent holds a leader-only state"

#: Entry of a :class:`LazyTransitionTable` that is not compiled yet; the
#: fast hot loop resolves it on first lookup.
_PENDING = object()


class TransitionTable:
    """A protocol's transition function, compiled to integer indices.

    States are interned into ``states`` (index -> state) and ``index``
    (state -> index), mobile states first.  ``delta`` is a flat row-major
    array of size ``n_states ** 2``: entry ``i * n_states + j`` is
    ``None`` when ``transition(states[i], states[j])`` is null, else the
    pair ``(i', j')`` of result indices.  ``rows`` holds the same entries
    as one list per state, ``rows[i][j]``, the layout the fast hot loop
    reads.  Pairs of two leader-only states are left null: a population
    has one leader, so they are never scheduled while every rule keeps
    each position's mobile/leader role, which ``closed`` records.

    ``fingerprint`` is a content hash over the canonical state ordering
    and the non-null delta entries (see :func:`table_fingerprint`): two
    semantically equal protocol instances compile to tables with equal
    fingerprints, which keys every downstream compiled-artifact cache
    (counts plans, leap delta matrices).
    """

    __slots__ = (
        "states", "index", "n_states", "delta", "rows", "mobile_indices",
        "closed", "fingerprint",
    )

    def __init__(
        self,
        protocol: PopulationProtocol,
        mobile_states: frozenset,
        leader_states: frozenset,
    ) -> None:
        states, n_mobile, delta = _enumerate_delta(
            protocol, mobile_states, leader_states
        )
        self._init_from_parts(states, n_mobile, delta, None)

    @classmethod
    def from_parts(
        cls,
        states: list,
        n_mobile: int,
        delta: list[tuple[int, int] | None],
        fingerprint: str | None = None,
    ) -> "TransitionTable":
        """Build a table from already-enumerated parts.

        Used by :func:`compile_table` so the transition function is
        enumerated exactly once even when the fingerprint is computed
        before the table object exists.  ``fingerprint`` may be passed
        when the caller already hashed the parts; it is recomputed when
        omitted.
        """
        table = cls.__new__(cls)
        table._init_from_parts(states, n_mobile, delta, fingerprint)
        return table

    def _init_from_parts(
        self,
        states: list,
        n_mobile: int,
        delta: list[tuple[int, int] | None],
        fingerprint: str | None,
    ) -> None:
        n = len(states)
        self.states = states
        self.n_states = n
        self.index = {s: i for i, s in enumerate(states)}
        self.mobile_indices = frozenset(range(n_mobile))
        self.delta = delta
        self.rows = [delta[i * n : (i + 1) * n] for i in range(n)]
        self.closed = _role_closed(self.rows, n_mobile)
        self.fingerprint = (
            fingerprint
            if fingerprint is not None
            else _fingerprint_parts(states, n_mobile, delta)
        )

    def __reduce__(self):
        """Pickle via the enumerated parts (slots carry no dict)."""
        return (
            TransitionTable.from_parts,
            (
                self.states,
                len(self.mobile_indices),
                self.delta,
                self.fingerprint,
            ),
        )

    def intern(self, state) -> int:
        """The index of ``state``; ``KeyError`` outside the declared space."""
        return self.index[state]

    def resolve(self, i: int, j: int) -> tuple[int, int] | None:
        """The entry for the interned pair ``(i, j)``, compiled if pending."""
        return self.rows[i][j]

    def is_null_idx(self, i: int, j: int) -> bool:
        """Whether the interned pair ``(i, j)`` is a null interaction."""
        return self.resolve(i, j) is None


class LazyTransitionTable(TransitionTable):
    """A transition table whose leader rows compile on first visit.

    Serves protocols whose mobile space fits the compile limit but whose
    declared leader space does not, and protocols whose rules move a
    state across the mobile/leader role boundary (which an eager table
    leaves unresolved).  The mobile states are interned, and their
    mobile x mobile entries compiled, up front.  Any other state is
    interned by :meth:`intern` when a run first reaches it (the leader's
    start state, or the result of a compiled entry); its row and column
    start as pending entries that :meth:`resolve` compiles on first
    lookup.  A leader-only row spans only the mobile columns while
    ``closed`` holds; once a rule is seen to move a state across the
    role boundary every row spans every state, so the leader-only pairs
    that such a run can schedule resolve on demand too.

    A lazy table belongs to one protocol instance and never leaves the
    fast backend: it has no ``delta`` and no ``fingerprint``, and
    :func:`compile_table` still returns ``None`` for these protocols, so
    no plan or cache key is ever derived from a partial table.
    """

    __slots__ = ("protocol",)

    def __init__(
        self, protocol: PopulationProtocol, mobile_states: frozenset
    ) -> None:
        mobile = sorted(mobile_states, key=sort_key)
        n = len(mobile)
        self.protocol = protocol
        self.states = mobile
        self.n_states = n
        self.index = {s: i for i, s in enumerate(mobile)}
        self.mobile_indices = frozenset(range(n))
        self.delta = None
        self.fingerprint = None
        self.closed = True
        self.rows = [[_PENDING] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                self.resolve(i, j)

    def intern(self, state) -> int:
        """The index of ``state``, interning it when it is new."""
        idx = self.index.get(state)
        if idx is None:
            idx = self.n_states
            self.states.append(state)
            self.index[state] = idx
            self.n_states = idx + 1
            rows = self.rows
            if self.closed:
                # Mobile rows span every state; leader-only rows only
                # the mobile columns.
                n_mobile = len(self.mobile_indices)
                for row in rows[:n_mobile]:
                    row.append(_PENDING)
                rows.append([_PENDING] * n_mobile)
            else:
                for row in rows:
                    row.append(_PENDING)
                rows.append([_PENDING] * (idx + 1))
        return idx

    def resolve(self, i: int, j: int) -> tuple[int, int] | None:
        """Compile the entry for ``(i, j)``, store and return it."""
        p = self.states[i]
        q = self.states[j]
        p2, q2 = self.protocol.transition(p, q)
        hit = None
        if (p2, q2) != (p, q):
            hit = (self.intern(p2), self.intern(q2))
            n_mobile = len(self.mobile_indices)
            if self.closed and (
                (hit[0] < n_mobile) != (i < n_mobile)
                or (hit[1] < n_mobile) != (j < n_mobile)
            ):
                # A mobile agent may now hold a leader-only state: widen
                # the leader-only rows to every column.
                self.closed = False
                for row in self.rows[n_mobile:]:
                    row.extend([_PENDING] * (self.n_states - len(row)))
        self.rows[i][j] = hit
        return hit


def _role_closed(rows: list[list], n_mobile: int) -> bool:
    """Whether every non-null entry keeps each position's role.

    A rule that maps a mobile state to a leader-only one (or back) lets
    a mobile agent reach a leader-only state, after which the leader-only
    pairs an eager table leaves null become schedulable.
    """
    for i, row in enumerate(rows):
        mobile_i = i < n_mobile
        for j in compress(range(len(row)), row):  # the non-null entries
            i2, j2 = row[j]
            if (i2 < n_mobile) != mobile_i or (j2 < n_mobile) != (j < n_mobile):
                return False
    return True


def _enumerate_delta(
    protocol: PopulationProtocol,
    mobile_states: frozenset,
    leader_states: frozenset,
) -> tuple[list, int, list[tuple[int, int] | None]]:
    """Enumerate the canonical state list and flat delta array.

    Returns ``(states, n_mobile, delta)`` where ``states`` is the
    canonical (:func:`repro.engine.state.sort_key`-ordered) state list,
    mobile states first, and ``delta`` is the flat row-major result
    array described on :class:`TransitionTable`.  This is the only place
    the transition function is called during compilation.
    """
    mobile = sorted(mobile_states, key=sort_key)
    leader_only = sorted(leader_states - mobile_states, key=sort_key)
    states: list = mobile + leader_only
    n = len(states)
    n_mobile = len(mobile)
    index = {s: i for i, s in enumerate(states)}
    delta: list[tuple[int, int] | None] = [None] * (n * n)
    transition = protocol.transition
    for i, p in enumerate(states):
        row = i * n
        for j, q in enumerate(states):
            if i >= n_mobile and j >= n_mobile:
                continue  # leader-leader pairs are unschedulable
            p2, q2 = transition(p, q)
            if (p2, q2) != (p, q):
                delta[row + j] = (index[p2], index[q2])
    return states, n_mobile, delta


def _fingerprint_parts(
    states: list,
    n_mobile: int,
    delta: list[tuple[int, int] | None],
) -> str:
    """Content hash of a compiled table's canonical parts.

    Hashes the canonical sort keys of the interned states (not their
    reprs alone, so distinct kinds never collide), the mobile/leader
    split, and every non-null delta entry.  Display names and other
    presentation attributes are deliberately excluded: two protocol
    instances with equal state spaces and equal transition functions
    fingerprint identically and therefore share compiled artifacts.
    """
    h = hashlib.sha256()
    h.update(f"repro-table-v1|{n_mobile}|{len(states)}".encode())
    for s in states:
        h.update(b"\x00")
        h.update(repr(sort_key(s)).encode())
    for flat, hit in enumerate(delta):
        if hit is not None:
            h.update(f"|{flat}:{hit[0]},{hit[1]}".encode())
    return h.hexdigest()


_K = TypeVar("_K")
_V = TypeVar("_V")


class LRU(OrderedDict[_K, _V]):
    """A dict bounded to ``maxsize`` entries, least recently used out first.

    ``get`` refreshes an entry's recency; assignment inserts or refreshes
    an entry, then drops the oldest entries past ``maxsize`` and counts
    them in ``evictions``.  Every process-wide artifact cache in the
    package is one of these, so long-lived serving processes cannot
    accumulate unboundedly many artifacts.
    """

    def __init__(self, maxsize: int) -> None:
        super().__init__()
        self.maxsize = maxsize
        self.evictions = 0

    def get(self, key, default=None):
        """The value at ``key``, now the most recent, or ``default``."""
        try:
            self.move_to_end(key)
        except KeyError:
            return default
        return self[key]

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        while len(self) > self.maxsize:
            self.popitem(last=False)
            self.evictions += 1


#: Bound of each engine artifact cache: tables here, plans in
#: :mod:`repro.engine.counts` and :mod:`repro.engine.leap`.
TABLE_CACHE_SIZE = 128

#: Compiled tables.  Eager tables are keyed by content fingerprint: two
#: *equal* protocol instances (same state space, same transition
#: function) share one table, where the previous identity-keyed
#: WeakKeyDictionary recompiled per instance.  A lazy table is keyed by
#: the identity of the one instance it compiles (see :func:`_fast_table`).
_TABLE_CACHE: "LRU[str, TransitionTable]" = LRU(TABLE_CACHE_SIZE)

#: Weak instance -> fingerprint map: makes the second ``compile_table``
#: call on the *same* instance O(1) (no re-enumeration just to rehash).
_FINGERPRINTS: "weakref.WeakKeyDictionary[PopulationProtocol, str]"
_FINGERPRINTS = weakref.WeakKeyDictionary()


def table_fingerprint(
    protocol: PopulationProtocol,
    compile_limit: int = DEFAULT_COMPILE_LIMIT,
) -> str | None:
    """Canonical content fingerprint of ``protocol``'s compiled table.

    Returns ``None`` exactly when :func:`compile_table` would (state
    space unhashable, unenumerable, raising, or over ``compile_limit``).
    The fingerprint is a sha256 hex digest over the canonical state
    ordering and the non-null transition entries; equal protocol
    instances fingerprint identically across processes and runs.
    """
    table = compile_table(protocol, compile_limit)
    return None if table is None else table.fingerprint


def warn_fallback(backend: str, delegate: str, reason: str) -> None:
    """Warn that ``backend`` delegates the current run to ``delegate``.

    The run's results are unaffected (the delegate is exact); the warning
    exists so users relying on an accelerated path learn why they did not
    get it.  Emits a :class:`repro.errors.BackendFallbackWarning` whose
    text includes ``reason`` and which carries ``backend``, ``delegate``
    and ``reason`` as attributes for programmatic inspection
    (``warnings.catch_warnings(record=True)`` entries expose them on
    ``.message``).
    """
    warnings.warn(
        BackendFallbackWarning(
            f"{backend} backend falling back to the {delegate} simulator: "
            f"{reason}",
            backend=backend,
            delegate=delegate,
            reason=reason,
        ),
        stacklevel=3,
    )


def compile_table(
    protocol: PopulationProtocol,
    compile_limit: int = DEFAULT_COMPILE_LIMIT,
) -> TransitionTable | None:
    """Compile (or fetch the cached) transition table for ``protocol``.

    Returns ``None`` when the protocol cannot be compiled: its state space
    is unhashable, unenumerable, raises, or exceeds ``compile_limit``
    states.  Callers treat ``None`` as "no eager table"; the fast backend
    then compiles a :class:`LazyTransitionTable` when the mobile space
    fits, and every other backend delegates down the ladder.

    The cache is keyed by content fingerprint, not object identity: two
    equal protocol instances (same states, same transitions) share one
    compiled table.
    """
    try:
        known_fp = _FINGERPRINTS.get(protocol)
    except TypeError:  # unhashable protocol instance
        known_fp = None
    if known_fp is not None:
        cached = _TABLE_CACHE.get(known_fp)
        if cached is not None:
            # Answer as a cold compile with this limit would: the
            # table's states are its mobile and leader spaces together.
            if cached.n_states > compile_limit:
                return None
            return cached
    try:
        mobile = frozenset(protocol.mobile_state_space())
        if len(mobile) > compile_limit:
            return None
        # Consult the closed-form size hint *before* materializing the
        # leader space: for several protocols it is exponential in the
        # name bound, and enumerating it just to reject it would cost
        # the very blow-up this gate exists to prevent.
        if protocol.leader_space_size() > compile_limit:
            return None
        leader = frozenset(protocol.leader_state_space())
        if len(mobile | leader) > compile_limit:
            return None
        states, n_mobile, delta = _enumerate_delta(protocol, mobile, leader)
    except Exception:
        return None
    fingerprint = _fingerprint_parts(states, n_mobile, delta)
    table = _TABLE_CACHE.get(fingerprint)
    if table is None:
        table = _TABLE_CACHE[fingerprint] = TransitionTable.from_parts(
            states, n_mobile, delta, fingerprint
        )
    try:
        _FINGERPRINTS[protocol] = fingerprint
    except TypeError:
        pass
    return table


def _fast_table(
    protocol: PopulationProtocol, compile_limit: int
) -> TransitionTable | None:
    """The table the fast backend runs ``protocol`` on, or ``None``.

    The eager table when it compiles and every rule keeps each
    position's role; otherwise the protocol's cached (or a new) lazy
    table, when its mobile space fits ``compile_limit``.
    """
    table = compile_table(protocol, compile_limit)
    if table is not None and table.closed:
        return table
    # Identity-keyed: a partial table cannot prove two transition
    # functions equal, so lazy tables are never shared between instances.
    # The table holds its protocol, so no other live object can carry the
    # same id while the entry is cached.
    key = f"lazy-{id(protocol):x}"
    table = _TABLE_CACHE.get(key)
    if table is not None and len(table.mobile_indices) > compile_limit:
        return None  # as a cold compile with this limit would answer
    if table is None:
        try:
            mobile = frozenset(protocol.mobile_state_space())
            if len(mobile) > compile_limit:
                return None
            table = LazyTransitionTable(protocol, mobile)
        except Exception:
            return None
        _TABLE_CACHE[key] = table
    return table


class FastSimulator:
    """Array-based simulator, bit-identical to :class:`Simulator`.

    Accepts the same constructor arguments and exposes the same
    :meth:`run` contract as the reference simulator; for any seed the two
    backends return equal :class:`SimulationResult`\\ s (the differential
    tests in ``tests/engine/test_fast.py`` enforce this).  Runs that the
    fast path cannot honour exactly are delegated to an internal reference
    simulator; :attr:`last_run_fast` reports which path served the last
    :meth:`run` call.

    Parameters
    ----------
    protocol, population, scheduler, problem, check_interval:
        As for :class:`Simulator`.
    compile_limit:
        Largest state space compiled up front (see
        :data:`DEFAULT_COMPILE_LIMIT`); protocols whose mobile space
        exceeds it fall back to the reference loop.
    sanitize:
        Arm the runtime sanitizer (see :mod:`repro.engine.sanitize`):
        the fast path checks its counts multiset, interned index ranges
        and silence monotonicity at every batch boundary; delegated runs
        inherit the reference simulator's sanitizer.  Checks never
        consume randomness, so sanitized runs stay bit-identical.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        population: Population,
        scheduler: Scheduler,
        problem: Problem | None = None,
        check_interval: int | None = None,
        compile_limit: int = DEFAULT_COMPILE_LIMIT,
        sanitize: bool = False,
    ) -> None:
        # The reference simulator validates the wiring and serves as the
        # graceful-fallback delegate.
        self._reference = Simulator(
            protocol, population, scheduler, problem, check_interval,
            sanitize,
        )
        self.protocol = protocol
        self.population = population
        self.scheduler = scheduler
        self.problem = problem
        self.check_interval = self._reference.check_interval
        self.sanitize = sanitize
        self._table = _fast_table(protocol, compile_limit)
        #: Whether the most recent :meth:`run` used the fast path.
        self.last_run_fast = False

    @property
    def compiled(self) -> bool:
        """Whether the protocol compiled to a (possibly lazy) table."""
        return self._table is not None

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

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

        Same parameters and semantics as :meth:`Simulator.run`.  Fault
        hooks mutate whole configurations per interaction and
        configuration-inspecting schedulers defeat batch sampling, so
        those runs delegate to the reference simulator.
        """
        table = self._table
        reason = None
        if table is None:
            reason = NOT_COMPILED
        elif fault_hook is not None:
            reason = "fault hooks mutate whole configurations per interaction"
        elif self.scheduler.inspects_configuration:
            reason = (
                f"scheduler {self.scheduler.display_name!r} inspects the "
                "configuration, which defeats batched pair sampling"
            )
        if reason is not None:
            warn_fallback("fast", "reference", reason)
            self.last_run_fast = False
            return self._reference.run(
                initial,
                max_interactions=max_interactions,
                trace=trace,
                fault_hook=fault_hook,
                raise_on_timeout=raise_on_timeout,
                observer=observer,
            )
        if len(initial) != self.population.size:
            raise SimulationError(
                f"initial configuration has {len(initial)} agents, "
                f"population has {self.population.size}"
            )
        leader_agent = initial.leader_index
        try:
            # A lazy table interns the leader's state on first visit;
            # every other state must already be in the table.
            if leader_agent is not None:
                table.intern(initial.states[leader_agent])
            state_idx = [table.index[s] for s in initial.states]
        except (KeyError, TypeError):
            # States outside the declared space (or unhashable): the
            # reference loop handles them by construction.
            warn_fallback("fast", "reference", OUTSIDE_SPACE)
            self.last_run_fast = False
            return self._reference.run(
                initial,
                max_interactions=max_interactions,
                trace=trace,
                raise_on_timeout=raise_on_timeout,
                observer=observer,
            )
        mobile_indices = table.mobile_indices
        if any(
            idx not in mobile_indices
            for agent, idx in enumerate(state_idx)
            if agent != leader_agent
        ):
            # A mobile agent holding a leader-only state is pathological;
            # only the reference loop defines its semantics.
            warn_fallback("fast", "reference", LEADER_STATE_HELD)
            self.last_run_fast = False
            return self._reference.run(
                initial,
                max_interactions=max_interactions,
                trace=trace,
                raise_on_timeout=raise_on_timeout,
                observer=observer,
            )
        self.last_run_fast = True
        return self._run_fast(
            state_idx,
            leader_agent,
            max_interactions,
            trace,
            raise_on_timeout,
            observer,
        )

    # ------------------------------------------------------------------
    # Fast path internals
    # ------------------------------------------------------------------

    def _run_fast(
        self,
        state_idx: list[int],
        leader_agent: int | None,
        max_interactions: int,
        trace: Trace | None,
        raise_on_timeout: bool,
        observer: Observer | None,
    ) -> SimulationResult:
        """The array-based hot loop; assumes all fast-path preconditions.

        Serves eager and lazy tables alike: a lookup that lands on a
        pending lazy entry compiles it through :meth:`resolve`, which
        can intern new states.
        """
        started = time.perf_counter()
        table = self._table
        assert table is not None
        rows = table.rows
        objs = table.states
        pending = _PENDING
        problem = self.problem
        protocol = self.protocol
        scheduler = self.scheduler
        check_interval = self.check_interval

        # Incremental mobile-state multiset: counts per interned index and
        # the number of duplicated states (names_distinct <=> dup == 0).
        counts = [0] * table.n_states
        dup = 0
        for agent, idx in enumerate(state_idx):
            if agent != leader_agent:
                counts[idx] += 1
                if counts[idx] == 2:
                    dup += 1
        leader_idx = (
            state_idx[leader_agent] if leader_agent is not None else None
        )

        # The paper's problems certify via NamingProblem's predicate plus
        # the default silence stability; anything customized gets the
        # generic (materialize-and-ask) check, still O(N) only once per
        # check interval.
        fast_naming = problem is not None and type(problem) is NamingProblem

        def materialize() -> Configuration:
            """Rebuild an immutable Configuration from the state array."""
            return Configuration(
                tuple(objs[i] for i in state_idx), leader_agent
            )

        def resolve(i: int, j: int) -> tuple[int, int] | None:
            """Compile a pending entry; ``counts`` grows with the table."""
            hit = table.resolve(i, j)
            counts.extend([0] * (table.n_states - len(counts)))
            return hit

        def is_null(i: int, j: int) -> bool:
            """Whether ``(i, j)`` is null, resolving a pending entry."""
            hit = rows[i][j]
            if hit is pending:
                hit = resolve(i, j)
            return hit is None

        def silent() -> bool:
            """Incremental mirror of :func:`repro.engine.problems.is_silent`."""
            merged: dict[int, int] = {}
            for i, c in enumerate(counts):
                if c:
                    merged[i] = c
            if leader_idx is not None:
                merged[leader_idx] = merged.get(leader_idx, 0) + 1
            present = list(merged)
            for a, s in enumerate(present):
                if merged[s] >= 2 and not is_null(s, s):
                    return False
                for t in present[a + 1 :]:
                    if not is_null(s, t) or not is_null(t, s):
                        return False
            return True

        def solved() -> bool:
            """Certified convergence, matching ``problem.is_solved``."""
            if fast_naming:
                return dup == 0 and silent()
            return problem.is_solved(protocol, materialize())

        sanitizing = self.sanitize
        if sanitizing:
            tracker = _sanitize.SilenceTracker("fast")
            sanitize_non_null = 0
            n_mobile_agents = self.population.size - (
                1 if leader_agent is not None else 0
            )
            # An eager table holds declared states only; a lazy one
            # interns whatever leader state a rule returns, so the leader
            # is checked against the declared space, as the reference
            # sanitizer does.
            leader_space = (
                protocol.leader_state_space()
                if leader_agent is not None
                and isinstance(table, LazyTransitionTable)
                else None
            )

            def check_leader(interaction: int) -> None:
                """Raise unless the leader holds a declared leader state."""
                if leader_space is not None:
                    _sanitize.check_states_in_space(
                        "fast", (objs[leader_idx],), 0, frozenset(),
                        leader_space, interaction,
                    )

            check_leader(0)

        non_null = 0
        converged_at: int | None = None
        quiescent_since_check = True
        if problem is not None and solved():
            converged_at = 0

        plain = trace is None and observer is None
        # Exact periodic fast-forward (see the module docstring).  Every
        # ``stride`` interactions, a multiple of the period and of the
        # check interval, the scheduler and the check cadence are back in
        # phase, so a configuration seen twice at stride boundaries
        # recurs forever.  Traces, observers and the sanitizer see every
        # interaction, and a custom problem may be solved before silence,
        # so only the plain path qualifies.
        period = scheduler.period
        stride = 0
        if (
            period is not None
            and plain
            and not sanitizing
            and (problem is None or fast_naming)
        ):
            stride = math.lcm(period, check_interval)
            saved = state_idx[:]
            saved_at = saved_non_null = 0
            power = 1
            lam = 0
        interaction = 0
        while interaction < max_interactions and converged_at is None:
            batch = min(
                check_interval - interaction % check_interval,
                max_interactions - interaction,
            )
            pairs = scheduler.next_pairs(None, batch)
            if plain:
                # Hot loop: no trace, no observer - nothing needs the
                # per-interaction index, so it advances by whole batches.
                for a, b in pairs:
                    hit = rows[state_idx[a]][state_idx[b]]
                    if hit is None:
                        continue
                    i = state_idx[a]
                    j = state_idx[b]
                    if hit is pending:
                        hit = resolve(i, j)
                        if hit is None:
                            continue
                    if a == b:
                        raise ConfigurationError(
                            "an agent cannot interact with itself"
                        )
                    i2, j2 = hit
                    state_idx[a] = i2
                    state_idx[b] = j2
                    if a == leader_agent:
                        leader_idx = i2
                    elif i != i2:
                        c = counts[i] = counts[i] - 1
                        if c == 1:
                            dup -= 1
                        c = counts[i2] = counts[i2] + 1
                        if c == 2:
                            dup += 1
                    if b == leader_agent:
                        leader_idx = j2
                    elif j != j2:
                        c = counts[j] = counts[j] - 1
                        if c == 1:
                            dup -= 1
                        c = counts[j2] = counts[j2] + 1
                        if c == 2:
                            dup += 1
                    non_null += 1
                    quiescent_since_check = False
                interaction += batch
            else:
                for a, b in pairs:
                    i = state_idx[a]
                    j = state_idx[b]
                    hit = rows[i][j]
                    if hit is pending:
                        hit = resolve(i, j)
                    if hit is not None:
                        if a == b:
                            raise ConfigurationError(
                                "an agent cannot interact with itself"
                            )
                        i2, j2 = hit
                        state_idx[a] = i2
                        state_idx[b] = j2
                        if a == leader_agent:
                            leader_idx = i2
                        elif i != i2:
                            c = counts[i] = counts[i] - 1
                            if c == 1:
                                dup -= 1
                            c = counts[i2] = counts[i2] + 1
                            if c == 2:
                                dup += 1
                        if b == leader_agent:
                            leader_idx = j2
                        elif j != j2:
                            c = counts[j] = counts[j] - 1
                            if c == 1:
                                dup -= 1
                            c = counts[j2] = counts[j2] + 1
                            if c == 2:
                                dup += 1
                        non_null += 1
                        quiescent_since_check = False
                        if observer is not None:
                            observer(interaction, materialize())
                        if trace is not None:
                            trace.record(
                                InteractionRecord(
                                    interaction, a, b,
                                    objs[i], objs[j], objs[i2], objs[j2],
                                )
                            )
                    elif trace is not None:
                        trace.record(
                            InteractionRecord(
                                interaction, a, b,
                                objs[i], objs[j], objs[i], objs[j],
                            )
                        )
                    interaction += 1

            if sanitizing:
                # Batch-boundary cadence: cheap enough to run on every
                # batch (each at most one check interval long), and the
                # incremental counts/dup bookkeeping is exactly what the
                # convergence verdicts are computed from.
                _sanitize.check_counts_vector(
                    "fast", counts, n_mobile_agents, interaction
                )
                _sanitize.check_index_vector(
                    "fast",
                    state_idx,
                    table.n_states,
                    table.mobile_indices,
                    leader_agent,
                    interaction,
                )
                check_leader(interaction)
                if non_null != sanitize_non_null:
                    tracker.note_change(interaction)
                    sanitize_non_null = non_null
                if silent():
                    tracker.note_silent()

            if (
                problem is not None
                and not quiescent_since_check
                and interaction % check_interval == 0
            ):
                if solved():
                    converged_at = interaction
                quiescent_since_check = True

            if stride and interaction % stride == 0 and converged_at is None:
                # Brent's cycle detection: compare with the snapshot,
                # which moves to the current boundary at powers of two.
                lam += 1
                if state_idx == saved:
                    cycle = interaction - saved_at
                    k = (max_interactions - interaction) // cycle
                    interaction += k * cycle
                    non_null += k * (non_null - saved_non_null)
                    stride = 0
                elif lam == power:
                    saved = state_idx[:]
                    saved_at = interaction
                    saved_non_null = non_null
                    power *= 2
                    lam = 0

        if converged_at is None and problem is not None and solved():
            converged_at = interaction

        converged = converged_at is not None
        if not converged and raise_on_timeout:
            raise ConvergenceError(
                f"{protocol.display_name} did not converge within "
                f"{max_interactions} interactions",
                interactions=interaction,
            )
        return SimulationResult(
            converged=converged,
            interactions=interaction,
            non_null_interactions=non_null,
            final_configuration=materialize(),
            population=self.population,
            trace=trace,
            convergence_interaction=converged_at,
            faults_injected=0,
            stats=RunStats.measure(started, interaction, non_null),
        )


#: Registry of simulation backends selectable by name.
BACKENDS: dict[str, type] = {
    "reference": Simulator,
    "fast": FastSimulator,
}


def make_simulator(
    backend: str,
    protocol: PopulationProtocol,
    population: Population,
    scheduler: Scheduler,
    problem: Problem | None = None,
    check_interval: int | None = None,
    validate: bool = False,
    sanitize: bool = False,
    leap_eps: float | None = None,
):
    """Build a simulator for ``backend``.

    Known names are the :data:`BACKENDS` keys: ``"reference"``,
    ``"fast"`` and (once :mod:`repro.engine.counts`,
    :mod:`repro.engine.batch`, :mod:`repro.engine.leap`,
    :mod:`repro.engine.bleap` and :mod:`repro.engine.fluid` are
    imported, which ``repro.engine`` always does) ``"counts"``,
    ``"batch"``, ``"leap"``, ``"bleap"`` and ``"fluid"``.
    Raises :class:`SimulationError` for unknown backend names.

    ``leap_eps`` sets the relative-change bound of the approximate
    backends, ``"leap"``, ``"bleap"`` and ``"fluid"`` (see
    :data:`repro.engine.leap.DEFAULT_LEAP_EPS`): the tau-leaping windows
    of the first two, and both the RK4 steps and the leap endgame of
    fluid.  It is forwarded to the backend class only when given, and
    only those three backends accept it.

    ``validate=True`` runs :func:`repro.engine.protocol.verify_protocol`
    before constructing the simulator, so malformed protocols (role
    leaks, broken symmetry claims) fail loudly at construction time with
    a :class:`~repro.errors.ProtocolError` instead of corrupting a run -
    the static sibling of the :class:`~repro.errors.BackendFallbackWarning`
    convention: off by default because it enumerates the full state-pair
    space, opt-in where construction cost matters less than certainty.

    ``sanitize=True`` arms the runtime sanitizer
    (:mod:`repro.engine.sanitize`) on the built simulator: runs assert
    conserved population size, nonnegative counts, state-range/role
    discipline and no post-silence change, raising
    :class:`~repro.errors.SanitizerError` on violation, while remaining
    bit-identical to unsanitized runs.  Only passed to the backend class
    when set, so third-party :data:`BACKENDS` registrations without a
    ``sanitize`` parameter keep working.
    """
    try:
        cls = BACKENDS[backend]
    except KeyError:
        raise SimulationError(
            f"unknown simulation backend {backend!r}; "
            f"available: {sorted(BACKENDS)}"
        ) from None
    if validate:
        verify_protocol(protocol)
    # Optional knobs are only passed when set, so third-party BACKENDS
    # registrations without the parameters keep working.
    kwargs = {}
    if sanitize:
        kwargs["sanitize"] = True
    if leap_eps is not None:
        kwargs["leap_eps"] = leap_eps
    try:
        return cls(
            protocol, population, scheduler, problem, check_interval,
            **kwargs,
        )
    except TypeError:
        if "leap_eps" in kwargs:
            raise SimulationError(
                f"backend {backend!r} does not accept leap_eps (only "
                "the approximate leap, bleap and fluid backends are "
                "tunable)"
            ) from None
        raise
