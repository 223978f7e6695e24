"""Property-based tests for configurations and populations."""

import pickle
from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.leader_uniform import LeaderUniformNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.counts import CountsConfiguration, materialize_counts_lazy
from repro.engine.fast import compile_table
from repro.engine.population import Population
from repro.errors import ConfigurationError
from tests.oracles import oracle_materialize_counts

state_lists = st.lists(
    st.integers(min_value=0, max_value=9), min_size=1, max_size=10
)


class TestConfigurationProperties:
    @given(state_lists)
    def test_multiset_preserved_under_permutation(self, states):
        import random

        shuffled = list(states)
        random.Random(0).shuffle(shuffled)
        a = Configuration(tuple(states))
        b = Configuration(tuple(shuffled))
        assert a.is_equivalent(b)
        assert a.canonical() == b.canonical()

    @given(state_lists)
    def test_names_distinct_iff_no_homonyms(self, states):
        config = Configuration(tuple(states))
        assert config.names_distinct() == (not config.homonym_states())

    @given(state_lists)
    def test_homonym_agents_consistent_with_states(self, states):
        config = Configuration(tuple(states))
        counts = Counter(states)
        expected = [i for i, s in enumerate(states) if counts[s] >= 2]
        assert config.homonym_agents() == expected

    @given(state_lists, st.data())
    def test_replace_roundtrip(self, states, data):
        config = Configuration(tuple(states))
        index = data.draw(
            st.integers(min_value=0, max_value=len(states) - 1)
        )
        new_state = data.draw(st.integers(min_value=0, max_value=9))
        updated = config.replace({index: new_state})
        assert updated.state_of(index) == new_state
        restored = updated.replace({index: states[index]})
        assert restored == config

    @given(state_lists, st.data())
    def test_apply_changes_exactly_two_agents(self, states, data):
        if len(states) < 2:
            return
        config = Configuration(tuple(states))
        i = data.draw(st.integers(min_value=0, max_value=len(states) - 1))
        j = data.draw(st.integers(min_value=0, max_value=len(states) - 1))
        if i == j:
            return
        after = config.apply(i, j, (99, 98))
        for k, state in enumerate(after.states):
            if k == i:
                assert state == 99
            elif k == j:
                assert state == 98
            else:
                assert state == states[k]


class TestPopulationProperties:
    @given(
        st.integers(min_value=1, max_value=20),
        st.booleans(),
    )
    def test_pair_count_matches_formula(self, n, leader):
        pop = Population(n, has_leader=leader)
        size = pop.size
        if size >= 2:
            assert pop.pair_count() == size * (size - 1) // 2
            assert len(list(pop.ordered_pairs())) == size * (size - 1)

    @given(st.integers(min_value=1, max_value=20), st.booleans())
    def test_agents_are_contiguous(self, n, leader):
        pop = Population(n, has_leader=leader)
        assert pop.agents == tuple(range(pop.size))


# ----------------------------------------------------------------------
# Counts-backed final configurations against the eager oracle
# ----------------------------------------------------------------------

#: Prop. 12 (leaderless) and Prop. 14 (initialized leader) tables.
PROP12 = compile_table(AsymmetricNamingProtocol(5))
PROP14 = compile_table(LeaderUniformNamingProtocol(4))


@st.composite
def counts_rows(draw, max_count=6):
    """``(table, n_mobile, counts, leader_pos)``: a random counts vector
    over the Prop. 12 table, or over the Prop. 14 table with one leader
    state at a random agent slot."""
    table = draw(st.sampled_from([PROP12, PROP14]))
    n_mobile = len(table.mobile_indices)
    mobile = draw(
        st.lists(
            st.integers(0, max_count), min_size=n_mobile, max_size=n_mobile
        )
    )
    counts = mobile + [0] * (table.n_states - n_mobile)
    if table is PROP12:
        return table, n_mobile, counts, None
    counts[draw(st.integers(n_mobile, table.n_states - 1))] = 1
    return table, n_mobile, counts, draw(st.integers(0, sum(mobile)))


def _leader(config):
    try:
        return config.leader_state
    except ConfigurationError:
        return "no leader"


class TestCountsConfigurationProperties:
    @given(counts_rows())
    def test_lazy_matches_the_eager_oracle(self, row):
        lazy = materialize_counts_lazy(*row)
        eager = oracle_materialize_counts(*row)
        assert isinstance(lazy, CountsConfiguration)
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager)
        assert lazy.leader_index == eager.leader_index
        assert _leader(lazy) == _leader(eager)
        assert len(lazy) == len(eager)
        assert lazy.multiset() == eager.multiset()
        assert lazy.state_tally() == eager.state_tally()
        assert lazy.names_distinct() == eager.names_distinct()
        assert lazy.mobile_states == eager.mobile_states
        assert lazy.states == eager.states

    @given(counts_rows(), st.integers(0, 12))
    def test_mobile_head_reads_the_pairs_alone(self, row, limit):
        lazy = materialize_counts_lazy(*row)
        eager = oracle_materialize_counts(*row)
        head = lazy.mobile_head(limit)
        assert lazy._states_cache is None
        assert head == eager.mobile_head(limit) == eager.mobile_states[:limit]

    @given(counts_rows())
    def test_pickle_round_trip_stays_lazy(self, row):
        lazy = materialize_counts_lazy(*row)
        size = len(pickle.dumps(lazy))
        lazy.states  # expands and caches the per-agent tuple
        assert len(pickle.dumps(lazy)) == size  # which is never shipped
        back = pickle.loads(pickle.dumps(lazy))
        assert isinstance(back, CountsConfiguration)
        assert back == oracle_materialize_counts(*row)
        assert hash(back) == hash(lazy)
        assert back.leader_index == lazy.leader_index
        assert _leader(back) == _leader(lazy)

    @given(counts_rows(max_count=1), st.integers(2**16, 2**20))
    def test_pickled_size_does_not_grow_with_n(self, row, scale):
        """The same support at N and at 1000 N pickles to the same size.

        Every count is scaled into [2^16, 2^31), where pickle spends the
        same four bytes on an integer, so any growth would be per-agent
        data.
        """
        table, n_mobile, counts, leader_pos = row
        big = [k * scale if i < n_mobile else k for i, k in enumerate(counts)]
        huge = [k * 1000 if i < n_mobile else k for i, k in enumerate(big)]
        at_n = materialize_counts_lazy(table, n_mobile, big, leader_pos)
        at_1000n = materialize_counts_lazy(table, n_mobile, huge, leader_pos)
        assert len(pickle.dumps(at_n)) == len(pickle.dumps(at_1000n))
