"""Tests for Configuration: construction, views, equivalence, updates."""

import dataclasses
import pickle
import warnings
from collections import Counter

import pytest

from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.counting import CountingLeaderState
from repro.core.leader_uniform import LeaderUniformNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.counts import CountsConfiguration, intern_initial
from repro.engine.fast import compile_table, make_simulator
from repro.engine.population import Population
from repro.engine.problems import NamingProblem
from repro.errors import BackendFallbackWarning, ConfigurationError
from repro.schedulers.random_pair import RandomPairScheduler
from tests.oracles import oracle_materialize_counts

LEADER = CountingLeaderState(0, 0)


class TestConstruction:
    def test_from_states_leaderless(self):
        pop = Population(3)
        config = Configuration.from_states(pop, (1, 2, 3))
        assert config.states == (1, 2, 3)
        assert not config.has_leader

    def test_from_states_with_leader(self):
        pop = Population(2, has_leader=True)
        config = Configuration.from_states(pop, (1, 2), LEADER)
        assert config.leader_state == LEADER
        assert config.mobile_states == (1, 2)

    def test_wrong_mobile_count_rejected(self):
        pop = Population(3)
        with pytest.raises(ConfigurationError):
            Configuration.from_states(pop, (1, 2))

    def test_missing_leader_state_rejected(self):
        pop = Population(2, has_leader=True)
        with pytest.raises(ConfigurationError):
            Configuration.from_states(pop, (1, 2))

    def test_unexpected_leader_state_rejected(self):
        pop = Population(2)
        with pytest.raises(ConfigurationError):
            Configuration.from_states(pop, (1, 2), LEADER)

    def test_uniform(self):
        pop = Population(4)
        config = Configuration.uniform(pop, 9)
        assert config.states == (9, 9, 9, 9)

    def test_leader_index_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration((1, 2), leader_index=5)


class TestUniformTally:
    @pytest.mark.parametrize(
        "population, mobile, leader",
        [
            (Population(5), 0, None),
            (Population(4, has_leader=True), 3, LEADER),
            # The leader's state equal to the mobile one: Counter merges them.
            (Population(3, has_leader=True), 7, 7),
        ],
        ids=["leaderless", "leadered", "leader-equals-mobile"],
    )
    def test_prefilled_tally_is_counter_of_states(
        self, population, mobile, leader
    ):
        config = Configuration.uniform(population, mobile, leader)
        tally = config._tally_cache
        assert tally is not None
        expected = Counter(config.states)
        assert tally == expected
        assert list(tally.items()) == list(expected.items())
        assert config.state_tally() is tally

    def test_unhashable_state_builds_without_tally(self):
        config = Configuration.uniform(Population(3), [1])
        assert config.states == ([1], [1], [1])
        assert config._tally_cache is None

    def test_unhashable_state_keeps_interning_fallback(self):
        protocol = AsymmetricNamingProtocol(4)
        table = compile_table(protocol)
        population = Population(3)
        config = Configuration.uniform(population, [1])
        counts, reason = intern_initial(
            table, len(table.mobile_indices), config
        )
        assert counts is None
        assert "outside the protocol's declared state space" in reason
        simulator = make_simulator(
            "counts", protocol, population,
            RandomPairScheduler(population, seed=1),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = simulator.run(config, max_interactions=0)
        assert result.final_configuration == config
        delegates = [
            w.message.delegate
            for w in caught
            if issubclass(w.category, BackendFallbackWarning)
        ]
        assert delegates[-1] == "reference"


class TestViews:
    def test_leader_state_raises_without_leader(self):
        config = Configuration((1, 2))
        with pytest.raises(ConfigurationError):
            _ = config.leader_state

    def test_mobile_states_skip_leader(self):
        config = Configuration((1, 2, LEADER), leader_index=2)
        assert config.mobile_states == (1, 2)

    def test_multiset(self):
        config = Configuration((1, 1, 2))
        assert config.multiset() == {1: 2, 2: 1}

    def test_multiset_excludes_leader(self):
        config = Configuration((1, 1, LEADER), leader_index=2)
        assert config.multiset() == {1: 2}

    def test_homonym_states(self):
        config = Configuration((1, 1, 2, 3, 3, 3))
        assert config.homonym_states() == {1, 3}

    def test_homonym_agents(self):
        config = Configuration((1, 1, 2, LEADER), leader_index=3)
        assert config.homonym_agents() == [0, 1]

    def test_names_distinct_true(self):
        assert Configuration((1, 2, 3)).names_distinct()

    def test_names_distinct_false(self):
        assert not Configuration((1, 2, 1)).names_distinct()

    def test_names_distinct_ignores_leader(self):
        config = Configuration((1, 2, LEADER), leader_index=2)
        assert config.names_distinct()

    def test_len_and_iter(self):
        config = Configuration((4, 5, 6))
        assert len(config) == 3
        assert list(config) == [4, 5, 6]


class TestEquivalence:
    def test_permutation_is_equivalent(self):
        a = Configuration((1, 2, 3, LEADER), leader_index=3)
        b = Configuration((3, 1, 2, LEADER), leader_index=3)
        assert a.is_equivalent(b)
        assert a.canonical() == b.canonical()

    def test_different_multiset_not_equivalent(self):
        assert not Configuration((1, 1)).is_equivalent(Configuration((1, 2)))

    def test_different_leader_state_not_equivalent(self):
        a = Configuration((1, 2, CountingLeaderState(0, 0)), leader_index=2)
        b = Configuration((1, 2, CountingLeaderState(1, 0)), leader_index=2)
        assert not a.is_equivalent(b)
        assert a.canonical() != b.canonical()

    def test_leadered_vs_leaderless_not_equivalent(self):
        a = Configuration((1, 2))
        b = Configuration((1, 2, LEADER), leader_index=2)
        assert not a.is_equivalent(b)


class TestCanonical:
    def test_numeric_sort_not_lexicographic(self):
        # repr-based sorting would order 10 before 2; sort_key must not.
        config = Configuration((10, 2, 1))
        assert config.canonical()[0] == (1, 2, 10)

    def test_mixed_state_types_sort_stably(self):
        config = Configuration((2, "name", 1, LEADER), leader_index=3)
        key = config.canonical()
        assert key[0] == (1, 2, "name")

    def test_canonical_is_cached(self):
        config = Configuration((3, 1, 2))
        assert config.canonical() is config.canonical()

    def test_cache_does_not_leak_across_instances(self):
        a = Configuration((1, 2))
        b = Configuration((2, 1))
        assert a.canonical() == b.canonical()
        assert Configuration((1, 3)).canonical() != a.canonical()


class TestUpdates:
    def test_replace_returns_new_object(self):
        config = Configuration((1, 2, 3))
        updated = config.replace({0: 9})
        assert updated.states == (9, 2, 3)
        assert config.states == (1, 2, 3)

    def test_replace_rejects_bad_agent(self):
        with pytest.raises(ConfigurationError):
            Configuration((1, 2)).replace({5: 0})

    def test_apply_orders_outcome(self):
        config = Configuration((1, 2, 3))
        after = config.apply(2, 0, (30, 10))
        assert after.states == (10, 2, 30)

    def test_apply_rejects_self_interaction(self):
        with pytest.raises(ConfigurationError):
            Configuration((1, 2)).apply(1, 1, (0, 0))

    def test_configurations_hashable(self):
        a = Configuration((1, 2, LEADER), leader_index=2)
        b = Configuration((1, 2, LEADER), leader_index=2)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestCountsEngineFinalConfigurations:
    """Every per-run counts engine returns the lazy O(S) representative."""

    @staticmethod
    def _run(backend, protocol, population, initial, budget):
        simulator = make_simulator(
            backend, protocol, population,
            RandomPairScheduler(population, seed=3), NamingProblem(),
        )
        result = simulator.run(initial, max_interactions=budget)
        assert simulator.last_run_native
        return simulator, result

    @pytest.mark.parametrize("n", [50, 20_000])
    @pytest.mark.parametrize("backend", ["counts", "leap", "fluid"])
    def test_final_configuration_is_the_oracle_of_last_counts(
        self, backend, n
    ):
        population = Population(n)
        simulator, result = self._run(
            backend, AsymmetricNamingProtocol(8), population,
            Configuration.uniform(population, 0), 5 * n,
        )
        table = simulator._table
        expected = oracle_materialize_counts(
            table, len(table.mobile_indices), simulator.last_counts, None
        )
        assert isinstance(result.final_configuration, CountsConfiguration)
        assert result.final_configuration == expected

    @pytest.mark.parametrize("backend", ["counts", "leap"])
    def test_leader_returns_to_its_slot(self, backend):
        protocol = LeaderUniformNamingProtocol(6)
        population = Population(5, has_leader=True)
        initial = Configuration.uniform(
            population,
            protocol.initial_mobile_state(),
            protocol.initial_leader_state(),
        )
        simulator, result = self._run(
            backend, protocol, population, initial, 100_000
        )
        table = simulator._table
        expected = oracle_materialize_counts(
            table, len(table.mobile_indices), simulator.last_counts,
            initial.leader_index,
        )
        final = result.final_configuration
        assert isinstance(final, CountsConfiguration)
        assert final == expected
        assert final.leader_state == expected.leader_state

    @pytest.mark.parametrize("backend", ["leap", "fluid"])
    def test_pickled_result_at_a_million_agents_is_small(self, backend):
        population = Population(1_000_000)
        _, result = self._run(
            backend, AsymmetricNamingProtocol(8), population,
            Configuration.uniform(population, 0), 10 * population.size,
        )
        assert len(pickle.dumps(result)) < 4096

    def test_str_at_a_million_agents_reads_eight_names(self):
        """``str()`` prints the text an eager configuration gives, and
        never expands the lazy one to its per-agent tuple."""
        population = Population(1_000_000)
        _, result = self._run(
            "leap", AsymmetricNamingProtocol(8), population,
            Configuration.uniform(population, 0), 10 * population.size,
        )
        final = result.final_configuration
        text = str(result)
        assert final._states_cache is None
        eager = Configuration(final.states, final.leader_index)
        assert type(eager) is Configuration
        assert text == str(
            dataclasses.replace(result, final_configuration=eager)
        )
        assert text.endswith(", ... (999992 more))")
