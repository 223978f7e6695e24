"""Uniform-random pair scheduler.

Picks each ordered pair of distinct agents uniformly at random.  This is
the widely-studied randomized scheduler (paper's reference [8]) and yields
globally fair executions with probability 1 (reference [39]), which is the
paper's operational reading of global fairness.
"""

from __future__ import annotations

from repro.engine.configuration import Configuration
from repro.engine.population import AgentId, Population
from repro.schedulers.base import Scheduler


class RandomPairScheduler(Scheduler):
    """Uniform random ordered pairs; globally fair with probability 1."""

    display_name = "uniform random pairs"
    weakly_fair = True  # with probability 1
    globally_fair = True  # with probability 1
    inspects_configuration = False
    uniform_pairs = True

    def __init__(self, population: Population, seed: int | None = None) -> None:
        super().__init__(population, seed)
        # The agent tuple is resolved lazily: counts-native backends
        # (leap windows entered via the fluid tier, populations of
        # 10^9+) only read the scheduler's seed and fairness flags, and
        # the O(N) tuple would dwarf memory at those sizes.
        self._agents_cache: tuple[AgentId, ...] | None = None

    @property
    def _agents(self) -> tuple[AgentId, ...]:
        if self._agents_cache is None:
            self._agents_cache = self.population.agents
        return self._agents_cache

    def next_pair(self, config: Configuration) -> tuple[AgentId, AgentId]:
        initiator, responder = self._rng.sample(self._agents, 2)
        return initiator, responder

    def next_pairs(
        self, config: Configuration | None, count: int
    ) -> list[tuple[AgentId, AgentId]]:
        """Batched sampling with the same random stream as ``next_pair``.

        ``random.sample(agents, 2)`` draws both indices by rejection on
        ``getrandbits``.  Its two branches are inlined here, which skips
        its method-call layers per pair while consuming the Mersenne
        stream bit-for-bit identically (tested against ``next_pair`` for
        every population up to 22 agents).  The first index is drawn
        below ``n``.  Up to the pool-swap cutoff (21 agents at ``k = 2``)
        the second is drawn below ``n - 1``, and a draw equal to the
        first names the last agent, which the pool swap moved into the
        first pick's slot.  Above the cutoff the second is redrawn below
        ``n`` until it differs from the first.
        """
        agents = self._agents
        n = len(agents)
        getrandbits = self._rng.getrandbits
        k = n.bit_length()
        pairs: list[tuple[AgentId, AgentId]] = []
        append = pairs.append
        if n <= 21:  # random.sample's pool-swap branch
            m = n - 1
            km = m.bit_length()
            last = agents[m]
            for _ in range(count):
                i = getrandbits(k)
                while i >= n:
                    i = getrandbits(k)
                j = getrandbits(km)
                while j >= m:
                    j = getrandbits(km)
                append((agents[i], last if j == i else agents[j]))
            return pairs
        for _ in range(count):
            i = getrandbits(k)
            while i >= n:
                i = getrandbits(k)
            j = getrandbits(k)
            while j >= n or j == i:
                j = getrandbits(k)
            append((agents[i], agents[j]))
        return pairs


class LeaderBiasedScheduler(Scheduler):
    """Random pairs with a configurable probability of involving the leader.

    The paper's leader-based protocols (Protocols 1-3) make progress only
    in leader interactions; in a uniform-random schedule the leader takes
    part in only ``~2/N`` of meetings.  This scheduler lets experiments
    explore how convergence cost depends on leader availability (e.g. a base
    station polling frequently), while remaining globally fair with
    probability 1 for any bias strictly between 0 and 1.

    Parameters
    ----------
    leader_bias:
        Probability that a scheduled meeting involves the leader.
    """

    display_name = "leader-biased random pairs"
    weakly_fair = True  # with probability 1
    globally_fair = True  # with probability 1
    inspects_configuration = False

    def __init__(
        self,
        population: Population,
        seed: int | None = None,
        leader_bias: float = 0.5,
    ) -> None:
        super().__init__(population, seed)
        if population.leader is None:
            raise ValueError("LeaderBiasedScheduler needs a leader")
        if not 0.0 < leader_bias < 1.0:
            raise ValueError(
                f"leader_bias must be in (0, 1) to stay fair, got {leader_bias}"
            )
        self._leader = population.leader
        self._mobile = population.mobile_agents
        self._bias = leader_bias

    def next_pair(self, config: Configuration) -> tuple[AgentId, AgentId]:
        if len(self._mobile) < 2 or self._rng.random() < self._bias:
            mobile = self._rng.choice(self._mobile)
            if self._rng.random() < 0.5:
                return self._leader, mobile
            return mobile, self._leader
        initiator, responder = self._rng.sample(self._mobile, 2)
        return initiator, responder
