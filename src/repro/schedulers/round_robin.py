"""Deterministic weakly fair schedulers.

Weak fairness requires every pair of agents to interact infinitely often.
Cycling through all ordered pairs achieves this by construction, with an
optional per-cycle shuffle that keeps the schedule weakly fair while
removing the fixed phase structure.
"""

from __future__ import annotations

from repro.engine.configuration import Configuration
from repro.engine.population import AgentId, Population
from repro.schedulers.base import Scheduler


class RoundRobinScheduler(Scheduler):
    """Cycles through every ordered pair of agents, forever.

    Deterministic and weakly fair: each unordered pair interacts (in both
    orders) exactly once per cycle of ``size * (size - 1)`` interactions.

    Parameters
    ----------
    shuffle_each_cycle:
        When true, the pair order is reshuffled (with the scheduler's seeded
        random source) at the start of every cycle; the schedule remains
        weakly fair.
    """

    display_name = "round robin"
    weakly_fair = True
    globally_fair = False
    inspects_configuration = False

    def __init__(
        self,
        population: Population,
        seed: int | None = None,
        shuffle_each_cycle: bool = False,
    ) -> None:
        super().__init__(population, seed)
        self._pairs: list[tuple[AgentId, AgentId]] = list(
            population.ordered_pairs()
        )
        self._shuffle = shuffle_each_cycle
        self._position = 0
        if self._shuffle:
            self._rng.shuffle(self._pairs)
        # A reshuffled cycle draws from the random source: no period.
        self.period = None if self._shuffle else len(self._pairs)

    def next_pair(self, config: Configuration) -> tuple[AgentId, AgentId]:
        pair = self._pairs[self._position]
        self._position += 1
        if self._position >= len(self._pairs):
            self._position = 0
            if self._shuffle:
                self._rng.shuffle(self._pairs)
        return pair

    def reset(self) -> None:
        self._position = 0

    @property
    def cycle_length(self) -> int:
        """Interactions per full cycle over all ordered pairs."""
        return len(self._pairs)


class InterleavedRoundRobinScheduler(Scheduler):
    """Round robin that alternates the initiator/responder orientation of
    each unordered pair between cycles.

    Guarantees every *unordered* pair meets once per cycle (half the cycle
    length of :class:`RoundRobinScheduler`), while both orientations still
    occur infinitely often across cycles - the strongest form of weak
    fairness used in the paper's proofs.
    """

    display_name = "interleaved round robin"
    weakly_fair = True
    globally_fair = False
    inspects_configuration = False

    def __init__(self, population: Population, seed: int | None = None) -> None:
        super().__init__(population, seed)
        self._pairs: list[tuple[AgentId, AgentId]] = list(
            population.unordered_pairs()
        )
        self._position = 0
        self._flip = False
        # The orientation flips once per cycle.
        self.period = 2 * len(self._pairs)

    def next_pair(self, config: Configuration) -> tuple[AgentId, AgentId]:
        x, y = self._pairs[self._position]
        self._position += 1
        if self._position >= len(self._pairs):
            self._position = 0
            self._flip = not self._flip
        return (y, x) if self._flip else (x, y)

    def reset(self) -> None:
        self._position = 0
        self._flip = False
