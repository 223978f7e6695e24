"""Tests for configuration-graph construction."""

import pytest

from repro.analysis.reachability import (
    _GRAPH_CACHE,
    arbitrary_initial_configurations,
    explore,
    one_step_edges,
    uniform_initial_configurations,
)
from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.counting import CountingProtocol
from repro.core.leader_uniform import LeaderUniformNamingProtocol
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.population import Population
from repro.errors import VerificationError


class TestOneStepEdges:
    def test_null_transitions_excluded(self):
        protocol = AsymmetricNamingProtocol(3)
        pop = Population(3)
        config = Configuration((0, 1, 2))
        assert one_step_edges(protocol, pop, config) == []

    def test_homonym_edge_found_in_both_orders(self):
        protocol = AsymmetricNamingProtocol(3)
        pop = Population(2)
        config = Configuration((1, 1))
        edges = one_step_edges(protocol, pop, config)
        assert len(edges) == 2  # (0,1) and (1,0) both non-null
        targets = {e.target.states for e in edges}
        assert targets == {(1, 2), (2, 1)}

    def test_changes_mobile_flag(self):
        protocol = AsymmetricNamingProtocol(3)
        pop = Population(2)
        edges = one_step_edges(protocol, pop, Configuration((1, 1)))
        assert all(e.changes_mobile for e in edges)

    def test_leader_only_change_not_mobile(self):
        protocol = LeaderUniformNamingProtocol(2)
        pop = Population(1, has_leader=True)
        # Agent already named 1; leader counter 1 -> meeting is null;
        # craft instead the naming step, which changes BOTH.
        from repro.core.leader_uniform import CounterLeaderState

        config = Configuration.from_states(pop, (2,), CounterLeaderState(1))
        edges = one_step_edges(protocol, pop, config)
        assert edges and all(e.changes_mobile for e in edges)

    def test_pair_label_is_unordered(self):
        protocol = AsymmetricNamingProtocol(3)
        pop = Population(2)
        edges = one_step_edges(protocol, pop, Configuration((2, 2)))
        assert all(e.pair == frozenset({0, 1}) for e in edges)


class TestExplore:
    def test_reaches_all_asymmetric_configs(self):
        protocol = AsymmetricNamingProtocol(2)
        pop = Population(2)
        graph = explore(protocol, pop, [Configuration((0, 0))])
        # From (0,0): -> (0,1)/(1,0) silent; plus the start itself.
        assert Configuration((0, 0)) in graph.nodes
        assert Configuration((0, 1)) in graph.nodes
        assert Configuration((1, 0)) in graph.nodes
        assert len(graph.nodes) == 3

    def test_initial_recorded(self):
        protocol = AsymmetricNamingProtocol(2)
        pop = Population(2)
        start = Configuration((1, 1))
        graph = explore(protocol, pop, [start])
        assert graph.initial == {start}

    def test_edge_count_and_successors(self):
        protocol = SymmetricGlobalNamingProtocol(2)
        pop = Population(2)
        start = Configuration((1, 1))
        graph = explore(protocol, pop, [start])
        succs = list(graph.successors(start))
        assert succs == [Configuration((2, 2))]
        assert graph.edge_count() >= len(graph.nodes) - 1

    def test_node_budget_enforced(self):
        protocol = CountingProtocol(4)
        pop = Population(4, has_leader=True)
        starts = arbitrary_initial_configurations(
            protocol, pop, leader_states=[protocol.initial_leader_state()]
        )
        with pytest.raises(VerificationError, match="exceeded"):
            explore(protocol, pop, starts, max_nodes=5)

    def test_rejects_size_mismatch(self):
        protocol = AsymmetricNamingProtocol(2)
        pop = Population(2)
        with pytest.raises(VerificationError):
            explore(protocol, pop, [Configuration((0, 0, 0))])

    def test_rejects_when_no_initial(self):
        from repro.analysis.model_checker import check_naming_global

        protocol = AsymmetricNamingProtocol(2)
        pop = Population(2)
        with pytest.raises(VerificationError):
            check_naming_global(protocol, pop, [])


class TestInitialConfigurationGenerators:
    def test_arbitrary_counts_leaderless(self):
        protocol = AsymmetricNamingProtocol(3)
        pop = Population(2)
        configs = list(arbitrary_initial_configurations(protocol, pop))
        assert len(configs) == 9  # 3^2

    def test_arbitrary_counts_with_leader_space(self):
        protocol = CountingProtocol(2)
        pop = Population(1, has_leader=True)
        configs = list(arbitrary_initial_configurations(protocol, pop))
        leader_count = len(protocol.leader_state_space())
        assert len(configs) == 2 * leader_count

    def test_arbitrary_with_fixed_leader(self):
        protocol = CountingProtocol(2)
        pop = Population(2, has_leader=True)
        configs = list(
            arbitrary_initial_configurations(
                protocol, pop, leader_states=[protocol.initial_leader_state()]
            )
        )
        assert len(configs) == 4  # 2^2 mobiles, one leader state
        assert all(
            c.leader_state == protocol.initial_leader_state() for c in configs
        )

    def test_uniform_designated_state(self):
        protocol = LeaderUniformNamingProtocol(3)
        pop = Population(2, has_leader=True)
        configs = list(uniform_initial_configurations(protocol, pop))
        assert len(configs) == 1
        (config,) = configs
        assert config.mobile_states == (3, 3)

    def test_uniform_fallback_enumerates_values(self):
        protocol = AsymmetricNamingProtocol(3)  # no designated init
        pop = Population(2)
        configs = list(uniform_initial_configurations(protocol, pop))
        assert len(configs) == 3
        assert all(len(set(c.mobile_states)) == 1 for c in configs)


class TestGraphCache:
    """The fingerprint-keyed exploration cache behind :func:`explore`."""

    def setup_method(self):
        _GRAPH_CACHE.clear()

    def test_equal_instances_share_one_exploration(self):
        pop = Population(3)

        def roots(p):
            return list(arbitrary_initial_configurations(p, pop))

        first = explore(SymmetricGlobalNamingProtocol(3), pop,
                        roots(SymmetricGlobalNamingProtocol(3)))
        second = explore(SymmetricGlobalNamingProtocol(3), pop,
                         roots(SymmetricGlobalNamingProtocol(3)))
        assert second is first  # cache hit: same object, no re-explore

    def test_different_roots_explore_separately(self):
        protocol = SymmetricGlobalNamingProtocol(3)
        pop = Population(3)
        all_roots = list(arbitrary_initial_configurations(protocol, pop))
        full = explore(protocol, pop, all_roots)
        partial = explore(protocol, pop, all_roots[:1])
        assert partial is not full
        assert len(partial.nodes) <= len(full.nodes)

    def test_cached_graph_still_respects_max_nodes(self):
        protocol = SymmetricGlobalNamingProtocol(3)
        pop = Population(3)
        roots = list(arbitrary_initial_configurations(protocol, pop))
        graph = explore(protocol, pop, roots)
        with pytest.raises(VerificationError, match="exceeded"):
            explore(protocol, pop, roots, max_nodes=len(graph.nodes) - 1)
