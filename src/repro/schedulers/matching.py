"""The matching-phase scheduler: Proposition 1's adversary.

Proposition 1 proves that symmetric naming is impossible under weak fairness
without a leader.  Its proof constructs a weakly fair execution organised in
*phases*: in each phase the agents are matched in disjoint pairs and each
matched pair interacts; successive phases use different matchings so that
eventually every agent has interacted with every other.  Because symmetric
rules map equal states to equal states, an even population started uniformly
stays perfectly symmetric forever.

The phase structure is a 1-factorization of the complete graph ``K_n``
(for even ``n``), computed with the classic round-robin-tournament ("circle
method") construction: fix agent ``n - 1``, rotate the rest.  For odd ``n``
the standard bye extension is used - each phase is then a near-perfect
matching and one agent sits out, which still visits every pair once per
``n`` phases (the proof only needs even populations, but the scheduler
remains a valid weakly fair scheduler for any size).
"""

from __future__ import annotations

from repro.engine.configuration import Configuration
from repro.engine.population import AgentId, Population
from repro.schedulers.base import Scheduler


def round_robin_matchings(n: int) -> list[list[tuple[int, int]]]:
    """1-factorization of ``K_n`` via the circle method.

    For even ``n`` returns ``n - 1`` perfect matchings that partition all
    pairs.  For odd ``n`` returns ``n`` near-perfect matchings (one agent
    rests per phase) that also cover every pair exactly once.
    """
    if n < 2:
        return []
    players = list(range(n))
    bye = None
    if n % 2 == 1:
        players.append(-1)  # dummy opponent marks the resting agent
        bye = -1
    m = len(players)
    rounds: list[list[tuple[int, int]]] = []
    circle = players[:-1]
    fixed = players[-1]
    for _ in range(m - 1):
        phase: list[tuple[int, int]] = []
        lineup = circle + [fixed]
        for i in range(m // 2):
            a, b = lineup[i], lineup[m - 1 - i]
            if bye is not None and (a == bye or b == bye):
                continue
            phase.append((min(a, b), max(a, b)))
        rounds.append(phase)
        circle = circle[-1:] + circle[:-1]
    return rounds


class MatchingScheduler(Scheduler):
    """Schedules interactions phase by phase along a 1-factorization.

    Within a phase the matched pairs interact one after another (the model
    serializes simultaneous interactions, paper Section 2); across phases
    the matchings rotate, so every pair interacts once per full rotation:
    the schedule is weakly fair.

    Against any *symmetric* protocol on an even, uniformly initialized,
    leaderless population this scheduler preserves full symmetry forever,
    realizing the impossibility of Proposition 1.
    """

    display_name = "matching phases (Prop. 1 adversary)"
    weakly_fair = True
    globally_fair = False
    inspects_configuration = False

    def __init__(self, population: Population, seed: int | None = None) -> None:
        super().__init__(population, seed)
        self._phases = round_robin_matchings(population.size)
        self._phase_index = 0
        self._pair_index = 0
        self._orient_flip = False
        # One rotation serves every pair once; the orientation flips per
        # rotation, so the stream repeats after two.
        self.period = 2 * sum(len(phase) for phase in self._phases)

    def next_pair(self, config: Configuration) -> tuple[AgentId, AgentId]:
        phase = self._phases[self._phase_index]
        while not phase:  # defensive: odd-size bye rounds never empty here
            self._advance_phase()
            phase = self._phases[self._phase_index]
        x, y = phase[self._pair_index]
        self._pair_index += 1
        if self._pair_index >= len(phase):
            self._pair_index = 0
            self._advance_phase()
        # Alternate orientations across rotations so that, even for
        # asymmetric protocols, both ordered versions of each pair occur.
        return (y, x) if self._orient_flip else (x, y)

    def _advance_phase(self) -> None:
        self._phase_index += 1
        if self._phase_index >= len(self._phases):
            self._phase_index = 0
            self._orient_flip = not self._orient_flip

    def reset(self) -> None:
        self._phase_index = 0
        self._pair_index = 0
        self._orient_flip = False

    @property
    def phases(self) -> list[list[tuple[AgentId, AgentId]]]:
        """The matchings, one list of disjoint pairs per phase."""
        return [list(phase) for phase in self._phases]
