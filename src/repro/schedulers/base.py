"""Scheduler abstraction.

In the population-protocol model the order of interactions is chosen by an
adversarial *scheduler* constrained only by a fairness condition.  Engine
schedulers propose ordered agent pairs; the simulator applies the protocol's
rule to each proposal.

Schedulers may inspect the current configuration (the proofs' adversaries
do) but must not mutate it.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.engine.configuration import Configuration
from repro.engine.population import AgentId, Population
from repro.errors import SchedulerError


class Scheduler(ABC):
    """Chooses which ordered pair of agents interacts next.

    A scheduler that declares an integer :attr:`period` promises that,
    from *any* position in its stream, the next ``period`` proposals and
    its internal state repeat exactly every ``period`` proposals, whatever
    configurations it is handed.  Deterministic cyclic schedulers declare
    it; randomized, configuration-inspecting and composite schedulers
    leave the ``None`` default.  The fast backend relies on the promise to
    skip whole cycles of a run that provably repeats.

    Parameters
    ----------
    population:
        The population being scheduled; must have at least two agents.
    seed:
        Seed for the scheduler's private random source (unused by fully
        deterministic schedulers but accepted uniformly so harnesses can
        treat all schedulers alike).
    """

    #: Human-readable scheduler name.
    display_name: str = "scheduler"

    #: Whether every infinite schedule this class produces is weakly fair.
    weakly_fair: bool = False

    #: Whether infinite schedules are globally fair (with probability 1 for
    #: randomized schedulers, per the paper's reading of global fairness).
    globally_fair: bool = False

    #: Whether :meth:`next_pair` reads its ``config`` argument.  Schedulers
    #: that declare ``False`` promise to ignore it entirely, which lets the
    #: fast backend (:mod:`repro.engine.fast`) sample pairs in batches
    #: without materializing intermediate configurations; such schedulers
    #: may be handed ``config=None``.  The conservative default is ``True``.
    inspects_configuration: bool = True

    #: Whether every proposal is an independent uniform draw over ordered
    #: pairs of distinct agents (the model's canonical randomized
    #: scheduler).  Count-based backends (:mod:`repro.engine.counts`) rely
    #: on this to sample interacting *state* pairs directly from the
    #: configuration's multiset, without agent identities.  Schedulers
    #: that bias, order or restrict pairs must leave it ``False``.
    uniform_pairs: bool = False

    #: Proposals after which the pair stream and the scheduler's internal
    #: state repeat, from any position and for any configuration, or
    #: ``None`` when no such period exists (see the class docstring).
    #: Periodic schedulers set it per instance in ``__init__``.
    period: int | None = None

    def __init__(self, population: Population, seed: int | None = None) -> None:
        if population.size < 2:
            raise SchedulerError(
                "scheduling needs at least two agents, got "
                f"population of size {population.size}"
            )
        self.population = population
        self.seed = seed
        self._rng = random.Random(seed)

    @abstractmethod
    def next_pair(self, config: Configuration) -> tuple[AgentId, AgentId]:
        """Return the next ordered pair ``(initiator, responder)``."""

    def next_pairs(
        self, config: Configuration | None, count: int
    ) -> list[tuple[AgentId, AgentId]]:
        """Return the next ``count`` ordered pairs as a batch.

        The batch must be *stream-identical* to ``count`` successive
        :meth:`next_pair` calls: same pairs, same consumption of the
        scheduler's random source.  The default implementation simply
        loops; randomized schedulers may override it to shave per-call
        overhead, provided they keep the random stream identical.

        Only schedulers with ``inspects_configuration = False`` are batched
        by the engine; the engine then passes ``config=None`` so that an
        incorrectly declared scheduler fails loudly instead of silently
        reading a stale configuration.
        """
        next_pair = self.next_pair
        return [next_pair(config) for _ in range(count)]

    def reset(self) -> None:
        """Restore any internal progress state (not the random seed)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.display_name!r}>"


class FairnessMonitor:
    """Tracks which unordered agent pairs have interacted.

    Used in tests to confirm that schedulers deliver the fairness they
    advertise.
    """

    def __init__(self, population: Population) -> None:
        self.population = population
        self._pending: set[frozenset[AgentId]] = {
            frozenset(p) for p in population.unordered_pairs()
        }
        self._all: frozenset[frozenset[AgentId]] = frozenset(self._pending)
        self.rounds_completed = 0

    def observe(self, initiator: AgentId, responder: AgentId) -> None:
        """Record an interaction; completes a round when all pairs met."""
        self._pending.discard(frozenset((initiator, responder)))
        if not self._pending:
            self.rounds_completed += 1
            self._pending = set(self._all)

    @property
    def pending_pairs(self) -> set[frozenset[AgentId]]:
        """Unordered pairs that have not met in the current round."""
        return set(self._pending)

    def round_complete(self) -> bool:
        """Whether the current round has just been reset (all pairs met)."""
        return not self._pending or self._pending == set(self._all)
