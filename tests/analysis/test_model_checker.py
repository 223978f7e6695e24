"""Tests for the global-fairness model checker (SCC machinery included)."""

import pytest

from repro.analysis.model_checker import (
    check_naming_global,
    sink_components,
    strongly_connected_components,
)
from repro.analysis.reachability import (
    arbitrary_initial_configurations,
    explore,
)
from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.population import Population
from repro.engine.protocol import TableProtocol


def graph_of(protocol, n, starts):
    pop = Population(n)
    return pop, explore(protocol, pop, starts)


class TestSCC:
    def test_silent_configs_are_singletons(self):
        protocol = AsymmetricNamingProtocol(2)
        pop, graph = graph_of(protocol, 2, [Configuration((0, 0))])
        components = strongly_connected_components(
            graph.nodes, graph.successors
        )
        assert all(len(c) == 1 for c in components)
        assert len(components) == 3

    def test_cycle_grouped_into_one_component(self):
        # Prop 13's two-agent cycle: (1,1) -> (P,P) -> (1,1).
        protocol = SymmetricGlobalNamingProtocol(3)
        pop, graph = graph_of(protocol, 2, [Configuration((1, 1))])
        components = strongly_connected_components(
            graph.nodes, graph.successors
        )
        sizes = sorted(len(c) for c in components)
        assert 2 in sizes  # the {(1,1),(3,3)} cycle

    def test_sink_components_have_no_exits(self):
        protocol = SymmetricGlobalNamingProtocol(3)
        pop, graph = graph_of(protocol, 2, [Configuration((1, 1))])
        sinks = sink_components(graph)
        for component in sinks:
            members = set(component)
            for config in component:
                assert all(
                    succ in members for succ in graph.successors(config)
                )

    def test_tarjan_handles_deep_chain(self):
        # A long linear chain: every node its own SCC.
        chain = TableProtocol(
            {(i, i): (i, i + 1) for i in range(30)},
            mobile_states=range(32),
        )
        pop = Population(2)
        graph = explore(chain, pop, [Configuration((0, 0))])
        components = strongly_connected_components(
            graph.nodes, graph.successors
        )
        assert all(len(c) == 1 for c in components)


class TestCheckNamingGlobal:
    def test_asymmetric_protocol_passes(self):
        protocol = AsymmetricNamingProtocol(3)
        pop = Population(3)
        verdict = check_naming_global(
            protocol, pop, arbitrary_initial_configurations(protocol, pop)
        )
        assert verdict.solves
        assert verdict.sink_scc_count > 0
        assert verdict.terminal_examples

    def test_prop13_passes_for_n_3(self):
        protocol = SymmetricGlobalNamingProtocol(3)
        pop = Population(3)
        verdict = check_naming_global(
            protocol, pop, arbitrary_initial_configurations(protocol, pop)
        )
        assert verdict.solves

    def test_prop13_fails_for_n_2_with_livelock_reason(self):
        protocol = SymmetricGlobalNamingProtocol(3)
        pop = Population(2)
        verdict = check_naming_global(
            protocol, pop, [Configuration((1, 1))]
        )
        assert not verdict.solves
        assert "names never stabilize" in verdict.reason
        assert verdict.counterexample is not None

    def test_do_nothing_protocol_fails_on_duplicates(self):
        protocol = TableProtocol({}, mobile_states=[0, 1])
        pop = Population(2)
        verdict = check_naming_global(
            protocol, pop, [Configuration((0, 0))]
        )
        assert not verdict.solves
        assert "duplicate names" in verdict.reason

    def test_do_nothing_protocol_passes_from_distinct_start(self):
        # Vacuously correct when already named: sink SCC is correct.
        protocol = TableProtocol({}, mobile_states=[0, 1])
        pop = Population(2)
        verdict = check_naming_global(
            protocol, pop, [Configuration((0, 1))]
        )
        assert verdict.solves

    def test_oscillating_names_detected_as_failure(self):
        # (0,1) <-> (1,0) swap forever: distinct at every instant but the
        # names never stabilize, so naming is NOT solved.
        swap = TableProtocol(
            {(0, 1): (1, 0), (1, 0): (0, 1)}, mobile_states=[0, 1]
        )
        pop = Population(2)
        verdict = check_naming_global(swap, pop, [Configuration((0, 1))])
        assert not verdict.solves
        assert "never stabilize" in verdict.reason
