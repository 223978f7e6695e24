"""Global-fairness model checking.

Fact (paper Section 2 + standard argument): in a finite transition system a
globally fair execution eventually enters a *sink* strongly connected
component of the reachability graph and then visits each of its
configurations infinitely often.  Naming demands that every mobile agent's
name is eventually fixed and distinct; inside a sink SCC that holds exactly
when every edge of the SCC preserves all mobile states (so all member
configurations share one mobile vector) and that vector is duplicate-free.

So: *a protocol solves naming under global fairness from a set of initial
configurations iff every sink SCC reachable from them is mobile-constant
with distinct names.*  This module decides that condition exactly and
produces counterexample certificates, machine-verifying Propositions 13 and
17 and refuting the ``P``-state candidates of Proposition 2's lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable

from repro.analysis.reachability import ConfigurationGraph, explore
from repro.engine.configuration import Configuration
from repro.engine.population import Population
from repro.engine.protocol import PopulationProtocol
from repro.errors import VerificationError


@dataclass
class GlobalFairnessVerdict:
    """Outcome of a global-fairness naming check.

    ``solves`` is the headline answer; on failure ``counterexample`` holds
    a configuration of an offending sink SCC and ``reason`` explains which
    requirement broke.
    """

    solves: bool
    explored_nodes: int
    sink_scc_count: int
    counterexample: Configuration | None = None
    reason: str = ""
    #: One representative configuration per correct terminal class.
    terminal_examples: list[Configuration] = field(default_factory=list)


def strongly_connected_components(
    nodes: Iterable[Hashable],
    successors: Callable[[Hashable], Iterable[Hashable]],
) -> list[list[Hashable]]:
    """Tarjan's algorithm, iterative (graphs can be deep).

    The one SCC routine of the analysis package: labelled configuration
    graphs, symbolic count rows and their fibers, and the lumped Markov
    chain all call it.  Components come out in reverse topological
    order - each before any component that reaches it - and the
    checkers report the first failing one they meet, so this order
    decides every witness.
    """
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    components: list[list] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(list(successors(root))))]
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(list(successors(succ)))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def sink_components(
    graph: ConfigurationGraph,
) -> list[list[Configuration]]:
    """SCCs with no edge leaving them (every fair run's destiny)."""
    components = strongly_connected_components(graph.nodes, graph.successors)
    membership: dict[Configuration, int] = {}
    for i, component in enumerate(components):
        for config in component:
            membership[config] = i
    sinks: list[list[Configuration]] = []
    for i, component in enumerate(components):
        is_sink = all(
            membership[target] == i
            for config in component
            for target in graph.successors(config)
        )
        if is_sink:
            sinks.append(component)
    return sinks


def check_naming_global(
    protocol: PopulationProtocol,
    population: Population,
    initial: Iterable[Configuration],
    max_nodes: int = 2_000_000,
    name_of: Callable[[object], object] | None = None,
) -> GlobalFairnessVerdict:
    """Decide whether ``protocol`` solves naming under global fairness from
    the given initial configurations, on this exact population size.

    ``name_of`` projects an agent state to its *name* variable; the paper
    requires the name - not necessarily the whole state - to be eventually
    fixed and distinct.  Defaults to the identity, which is exact for all
    the paper's protocols (their state *is* the name); the symmetrized
    transformer needs the coin-stripping projection.
    """
    initial = list(initial)
    if not initial:
        raise VerificationError("no initial configurations supplied")
    project = name_of if name_of is not None else lambda state: state

    def names_of(config: Configuration) -> tuple:
        return tuple(project(s) for s in config.mobile_states)

    graph = explore(protocol, population, initial, max_nodes=max_nodes)
    sinks = sink_components(graph)

    terminal_examples: list[Configuration] = []
    for component in sinks:
        # Every edge inside the component must preserve mobile names.
        for config in component:
            for edge in graph.edges.get(config, []):
                if edge.changes_mobile and names_of(
                    edge.source
                ) != names_of(edge.target):
                    return GlobalFairnessVerdict(
                        solves=False,
                        explored_nodes=len(graph.nodes),
                        sink_scc_count=len(sinks),
                        counterexample=config,
                        reason=(
                            "a fair execution ends in a recurrent component "
                            "where mobile states keep changing (names never "
                            "stabilize)"
                        ),
                    )
        representative = component[0]
        names = names_of(representative)
        if len(set(names)) != len(names):
            return GlobalFairnessVerdict(
                solves=False,
                explored_nodes=len(graph.nodes),
                sink_scc_count=len(sinks),
                counterexample=representative,
                reason=(
                    "a fair execution stabilizes with duplicate names: "
                    f"{names}"
                ),
            )
        terminal_examples.append(representative)
    return GlobalFairnessVerdict(
        solves=True,
        explored_nodes=len(graph.nodes),
        sink_scc_count=len(sinks),
        terminal_examples=terminal_examples,
    )
