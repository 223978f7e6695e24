"""Adversarial schedulers.

These schedulers remain weakly fair (every pair within a bounded window)
while actively working against convergence, in the spirit of the existential
adversaries the paper's negative proofs construct.  They are used to
stress-test the weak-fairness protocols (Props. 12, 14, 16): a protocol
correct under weak fairness must converge under *every* such scheduler.
"""

from __future__ import annotations

from repro.engine.configuration import Configuration
from repro.engine.population import AgentId, Population
from repro.schedulers.base import FairnessMonitor, Scheduler
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
        self._monitor = FairnessMonitor(population)

    def next_pair(self, config: Configuration) -> tuple[AgentId, AgentId]:
        pending = sorted(
            (tuple(sorted(pair)) for pair in self._monitor.pending_pairs),
        )
        best: tuple[int, int, tuple[AgentId, AgentId]] | None = None
        for x, y in pending:
            for initiator, responder in ((x, y), (y, x)):
                p = config.state_of(initiator)
                q = config.state_of(responder)
                p2, q2 = self._protocol.transition(p, q)
                if (p2, q2) == (p, q):
                    self._monitor.observe(initiator, responder)
                    return initiator, responder
                after = config.apply(initiator, responder, (p2, q2))
                score = (
                    len(after.homonym_agents()),
                    -len(set(after.mobile_states)),
                )
                if best is None or score > best[:2]:
                    best = (*score, (initiator, responder))
        assert best is not None  # pending is never empty within a round
        initiator, responder = best[2]
        self._monitor.observe(initiator, responder)
        return initiator, responder

    def reset(self) -> None:
        self._monitor = FairnessMonitor(self.population)


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
