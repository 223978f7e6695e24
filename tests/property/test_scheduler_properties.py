"""Property-based validation of the deterministic schedulers: fairness,
the ``period`` contract, and the homonym-preserving adversary's
incremental scoring against the per-candidate oracle."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fairness_audit import audit_scheduler
from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.selfstab_naming import SelfStabilizingNamingProtocol
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.population import Population
from repro.schedulers.adversarial import (
    EventuallyFairScheduler,
    FixedSequenceScheduler,
    HomonymPreservingScheduler,
)
from repro.schedulers.graph_restricted import (
    GraphRestrictedScheduler,
    path_edges,
)
from repro.schedulers.matching import MatchingScheduler, round_robin_matchings
from repro.schedulers.random_matching import RandomMatchingScheduler
from repro.schedulers.random_pair import (
    LeaderBiasedScheduler,
    RandomPairScheduler,
)
from repro.schedulers.round_robin import (
    InterleavedRoundRobinScheduler,
    RoundRobinScheduler,
)
from tests.oracles import OracleHomonymPreservingScheduler
from tests.property.tables import Boss, RaisingProtocol, random_tables


class TestRoundRobinFairness:
    @settings(max_examples=25)
    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=1, max_value=4),
    )
    def test_perfect_balance_over_whole_cycles(self, n, cycles):
        population = Population(n)
        scheduler = RoundRobinScheduler(population)
        config = Configuration.uniform(population, 0)
        audit = audit_scheduler(
            scheduler, config, cycles * scheduler.cycle_length
        )
        assert audit.imbalance() == 1.0

    @settings(max_examples=25)
    @given(st.integers(min_value=2, max_value=10))
    def test_worst_gap_bounded_by_cycle(self, n):
        population = Population(n)
        scheduler = RoundRobinScheduler(population)
        config = Configuration.uniform(population, 0)
        audit = audit_scheduler(
            scheduler, config, 3 * scheduler.cycle_length
        )
        assert audit.worst_gap() <= scheduler.cycle_length


class TestInterleavedFairness:
    @settings(max_examples=25)
    @given(st.integers(min_value=2, max_value=10))
    def test_every_pair_met_each_half_cycle(self, n):
        population = Population(n)
        scheduler = InterleavedRoundRobinScheduler(population)
        config = Configuration.uniform(population, 0)
        audit = audit_scheduler(
            scheduler, config, 2 * population.pair_count()
        )
        assert not audit.starving_pairs()
        assert audit.imbalance() == 1.0


class TestMatchingFairness:
    @settings(max_examples=25)
    @given(st.integers(min_value=2, max_value=12))
    def test_rotation_covers_each_pair_once(self, n):
        rounds = round_robin_matchings(n)
        seen = [frozenset(p) for matching in rounds for p in matching]
        assert len(seen) == len(set(seen)) == n * (n - 1) // 2

    @settings(max_examples=20)
    @given(st.integers(min_value=2, max_value=9))
    def test_scheduler_balanced_over_rotations(self, n):
        population = Population(n)
        scheduler = MatchingScheduler(population)
        config = Configuration.uniform(population, 0)
        audit = audit_scheduler(
            scheduler, config, 2 * population.pair_count()
        )
        assert audit.imbalance() == 1.0


def _fixed_sequence(population, seed):
    """A seeded sequence of ordered pairs, repeats allowed."""
    rng = random.Random(seed)
    pairs = list(population.ordered_pairs())
    return FixedSequenceScheduler(
        population,
        [rng.choice(pairs) for _ in range(rng.randint(1, 3 * len(pairs)))],
    )


#: The schedulers that declare a period, with its expected value.
PERIODIC = {
    "matching": (
        MatchingScheduler,
        lambda population: 2 * population.pair_count(),
    ),
    "round_robin": (
        RoundRobinScheduler,
        lambda population: 2 * population.pair_count(),
    ),
    "interleaved": (
        InterleavedRoundRobinScheduler,
        lambda population: 2 * population.pair_count(),
    ),
    "fixed_sequence": (_fixed_sequence, None),
}


def _internal_state(scheduler):
    """Everything a scheduler carries besides its population."""
    return {
        name: value.getstate() if isinstance(value, random.Random)
        else copy.deepcopy(value)
        for name, value in vars(scheduler).items()
        if name != "population"
    }


class TestPeriodContract:
    @pytest.mark.parametrize("name", sorted(PERIODIC))
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=9),
        has_leader=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
        offset=st.lists(
            st.tuples(st.booleans(), st.integers(0, 40)), max_size=6
        ),
    )
    def test_stream_and_state_repeat_every_period(
        self, name, n, has_leader, seed, offset
    ):
        population = Population(n, has_leader)
        make, expected = PERIODIC[name]
        schedulers = [make(population, seed) for _ in range(2)]
        # Reach the same arbitrary position on both, mixing single and
        # batched proposals.
        for scheduler in schedulers:
            for batched, count in offset:
                if batched:
                    scheduler.next_pairs(None, count)
                else:
                    for _ in range(count):
                        scheduler.next_pair(None)
        scheduler, twin = schedulers
        period = scheduler.period
        if expected is not None:
            assert period == expected(population)
        assert isinstance(period, int) and period > 0
        state = _internal_state(scheduler)
        first = scheduler.next_pairs(None, period)
        assert _internal_state(scheduler) == state
        second = [scheduler.next_pair(None) for _ in range(period)]
        assert second == first
        assert _internal_state(scheduler) == state
        # After whole periods the stream continues as if never drawn.
        assert scheduler.next_pairs(None, 2 * period + 3) == twin.next_pairs(
            None, 2 * period + 3
        )

    def test_randomized_inspecting_and_composite_declare_none(self):
        population = Population(5, has_leader=True)
        protocol = SymmetricGlobalNamingProtocol(5)
        schedulers = [
            RandomPairScheduler(population, seed=1),
            LeaderBiasedScheduler(population, seed=1),
            RandomMatchingScheduler(population, seed=1),
            GraphRestrictedScheduler(population, path_edges(population), 1),
            HomonymPreservingScheduler(population, protocol, seed=1),
            EventuallyFairScheduler(
                population,
                MatchingScheduler(population),
                RoundRobinScheduler(population),
                prefix_length=10,
            ),
            RoundRobinScheduler(population, seed=1, shuffle_each_cycle=True),
        ]
        assert [s.period for s in schedulers] == [None] * len(schedulers)


def _step_side_by_side(protocol, population, configs, steps, reset_at):
    """Ask the adversary and its oracle for ``steps`` pairs and return
    them, stopping at the first exception, which both must raise alike.

    ``configs`` yields the configuration of each call from the pair the
    previous call returned (``None`` on the first call).
    """
    scheduler = HomonymPreservingScheduler(population, protocol, seed=0)
    oracle = OracleHomonymPreservingScheduler(population, protocol, seed=0)
    pairs = []
    pair = None
    for step in range(steps):
        if step == reset_at:
            scheduler.reset()
            oracle.reset()
        config = configs(pair)
        try:
            pair = oracle.next_pair(config)
        except Exception as exc:
            with pytest.raises(type(exc)) as info:
                scheduler.next_pair(config)
            assert str(info.value) == str(exc)
            return pairs
        assert scheduler.next_pair(config) == pair
        pairs.append(pair)
    return pairs


class TestHomonymAdversaryMatchesOracle:
    """The O(1) candidate score picks exactly the per-candidate oracle's
    pairs: random tables (leader states, undeclared results, role
    crossings, raising pairs), N from 2 to 6 with and without a leader,
    several rounds and a reset."""

    @settings(max_examples=300, deadline=None)
    @given(random_tables(), st.data())
    def test_same_pairs_on_random_tables(self, table, data):
        n = data.draw(st.integers(min_value=2, max_value=6), label="N")
        has_leader = data.draw(st.booleans(), label="leader")
        mobile = sorted(table.mobile_state_space())
        leaders = sorted(table.leader_state_space(), key=repr)
        everything = mobile + leaders + [len(mobile) + 5, Boss(99)]
        candidates = sorted(
            {(p, q) for p in everything for q in everything}, key=repr
        )
        protocol = RaisingProtocol(
            table.table,
            mobile,
            leaders,
            symmetric=table.symmetric,
            display_name="raising fuzz",
            raising=data.draw(
                st.sets(st.sampled_from(candidates), max_size=2),
                label="raising",
            ),
        )
        population = Population(n, has_leader)
        mobile_pool = st.sampled_from(mobile + [len(mobile) + 5])
        leader_pool = st.sampled_from(everything)

        def draw_config():
            return Configuration.from_states(
                population,
                data.draw(st.lists(mobile_pool, min_size=n, max_size=n)),
                data.draw(leader_pool) if has_leader else None,
            )

        # Either one run that applies each scheduled meeting, or a fresh
        # random configuration for every call.
        fresh = data.draw(st.booleans(), label="fresh")
        current = [draw_config()]

        def configs(pair):
            if pair is not None:
                if fresh:
                    current[0] = draw_config()
                else:
                    config = current[0]
                    i, r = pair
                    outcome = protocol.transition(
                        config.state_of(i), config.state_of(r)
                    )
                    current[0] = config.apply(i, r, outcome)
            return current[0]

        rounds = population.pair_count()
        steps = data.draw(
            st.integers(min_value=rounds, max_value=3 * rounds + 2),
            label="steps",
        )
        reset_at = data.draw(
            st.integers(min_value=0, max_value=steps), label="reset_at"
        )
        _step_side_by_side(protocol, population, configs, steps, reset_at)

    @pytest.mark.parametrize(
        "protocol,has_leader,start",
        [
            (AsymmetricNamingProtocol(6), False, (0,) * 6),
            (AsymmetricNamingProtocol(5), False, (0, 1, 1, 3, 3)),
            (SelfStabilizingNamingProtocol(5), True, (0,) * 5),
            (SelfStabilizingNamingProtocol(4), True, (2, 2, 4, 4)),
        ],
        ids=["prop12-uniform", "prop12-mixed", "protocol2-uniform",
             "protocol2-mixed"],
    )
    def test_same_pairs_on_naming_runs(self, protocol, has_leader, start):
        population = Population(len(start), has_leader)
        leader = protocol.initial_leader_state() if has_leader else None
        current = [Configuration.from_states(population, start, leader)]

        def configs(pair):
            if pair is not None:
                config = current[0]
                i, r = pair
                outcome = protocol.transition(
                    config.state_of(i), config.state_of(r)
                )
                current[0] = config.apply(i, r, outcome)
            return current[0]

        pairs = _step_side_by_side(
            protocol, population, configs, 400, reset_at=150
        )
        assert len(pairs) == 400
