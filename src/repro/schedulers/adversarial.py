"""Adversarial schedulers.

These schedulers remain weakly fair (every pair within a bounded window)
while actively working against convergence, in the spirit of the existential
adversaries the paper's negative proofs construct.  They are used to
stress-test the weak-fairness protocols (Props. 12, 14, 16): a protocol
correct under weak fairness must converge under *every* such scheduler.
"""

from __future__ import annotations

from collections import Counter

from repro.engine.configuration import Configuration
from repro.engine.population import AgentId, Population
from repro.engine.state import State
from repro.schedulers.base import Scheduler
from repro.engine.protocol import PopulationProtocol


class HomonymPreservingScheduler(Scheduler):
    """A weakly fair scheduler that postpones symmetry-breaking meetings.

    Strategy: keep a round-based fairness obligation (every unordered pair
    must meet once per round).  Within a round, prefer pending pairs whose
    interaction is *null* in the current configuration; only when no null
    pending pair remains does it concede a state-changing meeting, choosing
    one that keeps as many homonyms as possible.

    Because each round schedules every pair exactly once, every infinite
    schedule is weakly fair; yet the adversary delays progress maximally
    within that constraint.

    Cost: the pending pairs of the round are kept as a sorted list of
    ``(min, max)`` agent pairs, and candidates are tried in that order,
    initiator first; the first null candidate is returned.  A call
    tallies the mobile names once, O(N), at its first non-null
    candidate, and scores each candidate meeting in O(1) from the at
    most four tally entries it changes: the homonym agents it leaves
    (the sum of the counts ``c >= 2``) and, on ties, the fewest
    distinct names.
    """

    display_name = "homonym-preserving adversary"
    weakly_fair = True
    globally_fair = False

    def __init__(
        self,
        population: Population,
        protocol: PopulationProtocol,
        seed: int | None = None,
    ) -> None:
        super().__init__(population, seed)
        self._protocol = protocol
        self._round = sorted(population.unordered_pairs())
        self._pending = list(self._round)

    def next_pair(self, config: Configuration) -> tuple[AgentId, AgentId]:
        pending = self._pending
        transition = self._protocol.transition
        states = config.states
        leader = config.leader_index
        tally: Counter | None = None
        homonyms = names = 0
        # (score, index in pending, pair) of the best concession so far.
        best: tuple[tuple[int, int], int, tuple[AgentId, AgentId]] | None = None
        for at, (x, y) in enumerate(pending):
            for initiator, responder in ((x, y), (y, x)):
                p = states[initiator]
                q = states[responder]
                p2, q2 = transition(p, q)
                if (p2, q2) == (p, q):
                    self._retire(at)
                    return initiator, responder
                if tally is None:
                    tally = Counter(
                        states
                        if leader is None
                        else states[:leader] + states[leader + 1:]
                    )
                    homonyms = sum(c for c in tally.values() if c >= 2)
                    names = len(tally)
                change: dict[State, int] = {}
                if initiator != leader:
                    change[p] = change.get(p, 0) - 1
                    change[p2] = change.get(p2, 0) + 1
                if responder != leader:
                    change[q] = change.get(q, 0) - 1
                    change[q2] = change.get(q2, 0) + 1
                after_homonyms, after_names = homonyms, names
                for state, delta in change.items():
                    if delta:
                        before = tally.get(state, 0)
                        after = before + delta
                        if before >= 2:
                            after_homonyms -= before
                        if after >= 2:
                            after_homonyms += after
                        after_names += (after > 0) - (before > 0)
                score = (after_homonyms, -after_names)
                if best is None or score > best[0]:
                    best = (score, at, (initiator, responder))
        assert best is not None  # pending is never empty within a round
        self._retire(best[1])
        return best[2]

    def _retire(self, at: int) -> None:
        """Retire the pending pair at index ``at``; a met round restarts."""
        del self._pending[at]
        if not self._pending:
            self._pending = list(self._round)

    def reset(self) -> None:
        self._pending = list(self._round)


class EventuallyFairScheduler(Scheduler):
    """An adversarial prefix followed by a fair suffix.

    Self-stabilizing protocols must converge from *any* configuration;
    equivalently, convergence must survive an arbitrary finite prefix of
    adversarial scheduling.  This scheduler drives an arbitrary (possibly
    unfair) ``prefix`` scheduler for ``prefix_length`` interactions and then
    hands over to ``suffix`` - fairness of the infinite schedule is that of
    the suffix, as fairness is a property of infinite behaviours only.
    """

    display_name = "adversarial prefix + fair suffix"

    def __init__(
        self,
        population: Population,
        prefix: Scheduler,
        suffix: Scheduler,
        prefix_length: int,
        seed: int | None = None,
    ) -> None:
        super().__init__(population, seed)
        if prefix_length < 0:
            raise ValueError(f"prefix_length must be >= 0, got {prefix_length}")
        self._prefix = prefix
        self._suffix = suffix
        self._prefix_length = prefix_length
        self._served = 0
        self.weakly_fair = suffix.weakly_fair
        self.globally_fair = suffix.globally_fair

    def next_pair(self, config: Configuration) -> tuple[AgentId, AgentId]:
        if self._served < self._prefix_length:
            self._served += 1
            return self._prefix.next_pair(config)
        return self._suffix.next_pair(config)

    def reset(self) -> None:
        self._served = 0
        self._prefix.reset()
        self._suffix.reset()


class FixedSequenceScheduler(Scheduler):
    """Replays an explicit finite sequence of ordered pairs, then repeats.

    Used by tests to realize the exact executions the paper's proofs build
    (e.g. the reduced executions of Section 3.1).  Fairness depends on the
    sequence; the constructor computes whether one cycle covers all pairs.
    """

    display_name = "fixed sequence"
    inspects_configuration = False

    def __init__(
        self,
        population: Population,
        sequence: list[tuple[AgentId, AgentId]],
        seed: int | None = None,
    ) -> None:
        super().__init__(population, seed)
        if not sequence:
            raise ValueError("sequence must contain at least one pair")
        for x, y in sequence:
            population.validate_agent(x)
            population.validate_agent(y)
            if x == y:
                raise ValueError(f"agent {x} cannot interact with itself")
        self._sequence = list(sequence)
        self._position = 0
        covered = {frozenset(p) for p in sequence}
        required = {frozenset(p) for p in population.unordered_pairs()}
        self.weakly_fair = covered >= required
        self.period = len(self._sequence)

    def next_pair(self, config: Configuration) -> tuple[AgentId, AgentId]:
        pair = self._sequence[self._position]
        self._position = (self._position + 1) % len(self._sequence)
        return pair

    def reset(self) -> None:
        self._position = 0
