"""Exhaustive configuration-graph construction.

For small populations and state spaces the entire transition system is
finite and explicit exploration is feasible.  Nodes are full (labelled)
configurations - agent identities preserved, which the weak-fairness
checker needs; edges carry the interacting ordered pair.  The graph is the
common substrate of both model checkers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator

from repro.engine.configuration import Configuration
from repro.engine.fast import LRU, table_fingerprint
from repro.engine.population import AgentId, Population
from repro.engine.protocol import PopulationProtocol
from repro.engine.state import State
from repro.errors import VerificationError


@dataclass(frozen=True, slots=True)
class Edge:
    """A non-null transition between configurations.

    ``pair`` is the unordered agent pair realizing it; ``changes_mobile``
    records whether any mobile agent's state differs between source and
    target (the property the naming-convergence analyses care about).
    """

    source: Configuration
    target: Configuration
    pair: frozenset[AgentId]
    changes_mobile: bool


@dataclass
class ConfigurationGraph:
    """The reachable fragment of a protocol's transition system."""

    population: Population
    nodes: set[Configuration] = field(default_factory=set)
    #: Outgoing non-null edges per node, one key per explored node in
    #: breadth-first discovery order.  Null self-loops are implicit:
    #: every configuration can always repeat a null interaction.
    edges: dict[Configuration, list[Edge]] = field(default_factory=dict)
    initial: set[Configuration] = field(default_factory=set)

    def successors(self, config: Configuration) -> Iterator[Configuration]:
        """Distinct one-step successors of ``config`` (non-null only)."""
        seen: set[Configuration] = set()
        for edge in self.edges.get(config, []):
            if edge.target not in seen:
                seen.add(edge.target)
                yield edge.target

    def edge_count(self) -> int:
        """Total number of non-null edges in the graph."""
        return sum(len(es) for es in self.edges.values())


def one_step_edges(
    protocol: PopulationProtocol,
    population: Population,
    config: Configuration,
) -> list[Edge]:
    """All non-null edges out of ``config`` (both orders of every pair)."""
    edges: list[Edge] = []
    mobile_count = population.n_mobile
    for x, y in population.unordered_pairs():
        for initiator, responder in ((x, y), (y, x)):
            p = config.state_of(initiator)
            q = config.state_of(responder)
            p2, q2 = protocol.transition(p, q)
            if (p2, q2) == (p, q):
                continue
            target = config.apply(initiator, responder, (p2, q2))
            changes_mobile = (
                initiator < mobile_count and p2 != p
            ) or (responder < mobile_count and q2 != q)
            edges.append(
                Edge(config, target, frozenset((x, y)), changes_mobile)
            )
    return edges


#: Explored graphs kept per process, keyed by protocol content
#: fingerprint + population + root set.  Repeated lint/check sweeps over
#: *equal* protocol instances (the registry builds a fresh object per
#: cell) reuse one exploration instead of re-enumerating successor
#: lists.
GRAPH_CACHE_SIZE = 32

_GRAPH_CACHE: "LRU[tuple, ConfigurationGraph]" = LRU(GRAPH_CACHE_SIZE)


def _graph_key(
    protocol: PopulationProtocol,
    population: Population,
    roots: list[Configuration],
) -> tuple | None:
    """Content key for one exploration; ``None`` when uncacheable."""
    fingerprint = table_fingerprint(protocol)
    if fingerprint is None:
        return None  # too large / not enumerable: explore uncached
    return (
        fingerprint,
        population.n_mobile,
        population.has_leader,
        tuple(sorted(repr(c.states) for c in roots)),
    )


def explore(
    protocol: PopulationProtocol,
    population: Population,
    initial: Iterable[Configuration],
    max_nodes: int = 2_000_000,
) -> ConfigurationGraph:
    """Breadth-first exploration from the given initial configurations.

    Results are cached per (protocol content fingerprint, population,
    root set), so equal protocol instances share one exploration; the
    ``max_nodes`` cap is enforced on cache hits too (a cached graph
    larger than this call's cap raises exactly as a fresh exploration
    would).
    """
    roots = list(initial)
    key = _graph_key(protocol, population, roots)
    if key is not None:
        cached = _GRAPH_CACHE.get(key)
        if cached is not None:
            if len(cached.nodes) > max_nodes:
                raise VerificationError(
                    f"configuration graph exceeded {max_nodes} nodes; "
                    "use a smaller instance"
                )
            return cached
    graph = ConfigurationGraph(population)
    queue: deque[Configuration] = deque()
    for config in roots:
        if len(config) != population.size:
            raise VerificationError(
                f"initial configuration has {len(config)} agents, "
                f"population has {population.size}"
            )
        if config not in graph.nodes:
            graph.nodes.add(config)
            graph.initial.add(config)
            queue.append(config)
    while queue:
        config = queue.popleft()
        edges = one_step_edges(protocol, population, config)
        graph.edges[config] = edges
        for edge in edges:
            if edge.target not in graph.nodes:
                if len(graph.nodes) >= max_nodes:
                    raise VerificationError(
                        f"configuration graph exceeded {max_nodes} nodes; "
                        "use a smaller instance"
                    )
                graph.nodes.add(edge.target)
                queue.append(edge.target)
    if key is not None:
        _GRAPH_CACHE[key] = graph
    return graph


def arbitrary_initial_configurations(
    protocol: PopulationProtocol,
    population: Population,
    leader_states: Iterable[State] | None = None,
) -> Iterator[Configuration]:
    """Every configuration allowed by arbitrary mobile initialization.

    ``leader_states`` restricts the leader's initial states (pass the
    protocol's single initialized state, or leave ``None`` for the full
    leader space - the self-stabilizing reading).
    """
    mobile_space = sorted(protocol.mobile_state_space())
    if population.has_leader:
        if leader_states is None:
            leaders: list[State] = sorted(
                protocol.leader_state_space(), key=repr
            )
        else:
            leaders = list(leader_states)
        if not leaders:
            raise VerificationError("no leader states to initialize from")
        for mobiles in product(mobile_space, repeat=population.n_mobile):
            for leader in leaders:
                yield Configuration.from_states(population, mobiles, leader)
    else:
        for mobiles in product(mobile_space, repeat=population.n_mobile):
            yield Configuration.from_states(population, mobiles)


def uniform_initial_configurations(
    protocol: PopulationProtocol,
    population: Population,
    leader_states: Iterable[State] | None = None,
) -> Iterator[Configuration]:
    """Configurations with all mobile agents in the protocol's designated
    initial state (falling back to every uniform value when the protocol
    does not designate one)."""
    designated = protocol.initial_mobile_state()
    values = (
        [designated]
        if designated is not None
        else sorted(protocol.mobile_state_space())
    )
    if population.has_leader:
        if leader_states is None:
            designated_leader = protocol.initial_leader_state()
            leaders = (
                [designated_leader]
                if designated_leader is not None
                else sorted(protocol.leader_state_space(), key=repr)
            )
        else:
            leaders = list(leader_states)
        for value in values:
            for leader in leaders:
                yield Configuration.uniform(population, value, leader)
    else:
        for value in values:
            yield Configuration.uniform(population, value)
