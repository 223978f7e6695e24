"""Configurations: immutable vectors of per-agent states.

A configuration is "a vector of states of all the agents" (paper, Section 2).
Two configurations are *equivalent* when one is a permutation of the other's
mobile states with an identical leader state (Section 3.1); uniform protocols
behave identically on equivalent configurations, which the model checkers in
:mod:`repro.analysis` exploit through :meth:`Configuration.canonical`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from repro.engine.population import AgentId, Population
from repro.engine.state import State, sort_key
from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class Configuration:
    """An immutable snapshot of every agent's state.

    ``states[i]`` is the state of agent ``i``; when the population has a
    leader, the last entry is the leader's state.

    Instances are hashable and therefore usable as nodes of reachability
    graphs.
    """

    states: tuple[State, ...]
    leader_index: int | None = None
    _canonical_cache: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _tally_cache: Counter | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.leader_index is not None and not (
            0 <= self.leader_index < len(self.states)
        ):
            raise ConfigurationError(
                f"leader index {self.leader_index} out of range for "
                f"{len(self.states)} agents"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_states(
        cls,
        population: Population,
        mobile_states: tuple[State, ...] | list[State],
        leader_state: State | None = None,
    ) -> "Configuration":
        """Build a configuration for ``population`` from explicit states."""
        mobile_states = tuple(mobile_states)
        if len(mobile_states) != population.n_mobile:
            raise ConfigurationError(
                f"expected {population.n_mobile} mobile states, "
                f"got {len(mobile_states)}"
            )
        if population.has_leader:
            if leader_state is None:
                raise ConfigurationError(
                    "population has a leader but no leader state was given"
                )
            return cls(mobile_states + (leader_state,), population.leader)
        if leader_state is not None:
            raise ConfigurationError(
                "leader state given for a leaderless population"
            )
        return cls(mobile_states, None)

    @classmethod
    def uniform(
        cls,
        population: Population,
        mobile_state: State,
        leader_state: State | None = None,
    ) -> "Configuration":
        """All mobile agents in ``mobile_state`` (uniform initialization).

        The :meth:`state_tally` is filled in O(1), equal to
        ``Counter(states)`` in value and in iteration order, so interning
        a uniform start into counts never hashes the N identical states.
        An unhashable state gets no tally: ``state_tally()`` then raises
        ``TypeError``, which interning reports as a state outside the
        protocol's declared space.
        """
        config = cls.from_states(
            population, (mobile_state,) * population.n_mobile, leader_state
        )
        try:
            tally = Counter({mobile_state: population.n_mobile})
            if population.has_leader:
                tally[leader_state] += 1
        except TypeError:
            return config
        object.__setattr__(config, "_tally_cache", tally)
        return config

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of agents described by this configuration."""
        return len(self.states)

    @property
    def has_leader(self) -> bool:
        """Whether this configuration includes a leader agent."""
        return self.leader_index is not None

    @property
    def leader_state(self) -> State:
        """The leader's state.

        Raises :class:`ConfigurationError` for leaderless configurations.
        """
        if self.leader_index is None:
            raise ConfigurationError("configuration has no leader")
        return self.states[self.leader_index]

    @property
    def mobile_states(self) -> tuple[State, ...]:
        """States of the mobile agents only, in agent-index order."""
        if self.leader_index is None:
            return self.states
        return tuple(
            s for i, s in enumerate(self.states) if i != self.leader_index
        )

    def mobile_head(self, limit: int) -> tuple[State, ...]:
        """The first ``limit`` entries of :attr:`mobile_states`, in
        O(limit)."""
        head = self.states[: limit + 1]
        if self.leader_index is not None:
            head = tuple(
                s for i, s in enumerate(head) if i != self.leader_index
            )
        return head[:limit]

    def state_of(self, agent: AgentId) -> State:
        """State of a single agent."""
        return self.states[agent]

    def multiset(self) -> Counter:
        """Multiset of the mobile states (the paper's equivalence basis)."""
        return Counter(self.mobile_states)

    def state_tally(self) -> Counter:
        """Multiset of *all* states, leader included, cached.

        The tally is what interning a configuration into a counts vector
        costs.  Configurations built by :meth:`uniform` and the
        counts-backed :class:`~repro.engine.counts.CountsConfiguration`
        carry it in O(S) for S distinct states; any other configuration
        pays one C-speed ``Counter`` pass over its N states on first
        call, cached on the instance for later calls.  Callers must not
        mutate the returned counter.
        """
        if self._tally_cache is None:
            object.__setattr__(self, "_tally_cache", Counter(self.states))
        return self._tally_cache

    def homonym_states(self) -> set[State]:
        """Mobile states held by two or more agents (the paper's homonyms)."""
        return {s for s, c in self.multiset().items() if c >= 2}

    def homonym_agents(self) -> list[AgentId]:
        """Ids of mobile agents whose state is shared with another agent."""
        shared = self.homonym_states()
        mobile = (
            range(len(self.states))
            if self.leader_index is None
            else (i for i in range(len(self.states)) if i != self.leader_index)
        )
        return [i for i in mobile if self.states[i] in shared]

    def names_distinct(self) -> bool:
        """``True`` when no two mobile agents share a state (naming holds)."""
        mobile = self.mobile_states
        return len(set(mobile)) == len(mobile)

    # ------------------------------------------------------------------
    # Equivalence and canonical forms
    # ------------------------------------------------------------------

    def is_equivalent(self, other: "Configuration") -> bool:
        """Paper Section 3.1 equivalence: identical mobile multisets and
        identical leader state (or both leaderless)."""
        if self.has_leader != other.has_leader:
            return False
        if self.has_leader and self.leader_state != other.leader_state:
            return False
        return self.multiset() == other.multiset()

    def canonical(self) -> tuple:
        """A hashable canonical key identifying this equivalence class.

        Mobile states are ordered by :func:`repro.engine.state.sort_key`
        (a proper total order, unlike the old ``key=repr`` sort which
        ordered integers lexicographically).  The key is computed once and
        cached on the instance: the model checkers canonicalize every
        visited node, often revisiting the same configuration object.
        """
        if self._canonical_cache is None:
            mobile_key = tuple(sorted(self.mobile_states, key=sort_key))
            leader_key = self.leader_state if self.has_leader else None
            object.__setattr__(
                self, "_canonical_cache", (mobile_key, leader_key)
            )
        return self._canonical_cache

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def replace(self, updates: dict[AgentId, State]) -> "Configuration":
        """Return a copy with the states of the given agents replaced."""
        states = list(self.states)
        for agent, state in updates.items():
            if not 0 <= agent < len(states):
                raise ConfigurationError(
                    f"agent id {agent} out of range for {len(states)} agents"
                )
            states[agent] = state
        return Configuration(tuple(states), self.leader_index)

    def apply(
        self, initiator: AgentId, responder: AgentId, outcome: tuple[State, State]
    ) -> "Configuration":
        """Apply a transition outcome ``(p', q')`` to an ordered pair."""
        if initiator == responder:
            raise ConfigurationError("an agent cannot interact with itself")
        return self.replace({initiator: outcome[0], responder: outcome[1]})

    def __iter__(self) -> Iterator[State]:
        return iter(self.states)

    def __len__(self) -> int:
        return len(self.states)
