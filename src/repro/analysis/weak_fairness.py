"""Weak-fairness model checking.

Weak fairness only demands that every pair of agents *meets* infinitely
often (null meetings count).  Deciding whether a protocol solves naming
under weak fairness is therefore a different - and adversarially harder -
question than the global-fairness check.

Characterization (finite instance).  A weakly fair non-converging execution
visits some configuration ``C`` infinitely often; every agent pair then
meets on some ``C -> ... -> C`` cycle.  All such cycles stay inside
``C``'s strongly connected component ``S``, and conversely any meeting
between two configurations of ``S`` lies on a cycle through ``C``.  Hence:

    the protocol FAILS under weak fairness iff some reachable SCC ``S``
    satisfies: (1) every unordered agent pair can meet inside ``S``
    (i.e. some meeting at a configuration of ``S`` leads back into ``S``;
    null meetings allowed), and (2) some meeting inside ``S`` changes a
    mobile agent's state (names then change forever - livelock), or the
    mobile states - necessarily constant across ``S`` otherwise - contain
    duplicates (stabilization on a wrong answer).

The adversary realizing a failing SCC simply concatenates, forever, one
pair-covering cycle per pair (plus a mobile-changing cycle if one exists);
the execution is weakly fair by construction.  Conversely a weakly fair
counterexample execution yields such an SCC at any of its recurrent
configurations.  The check below decides the condition exactly,
machine-verifying Propositions 1 and 4 and Theorem 11 on small instances
and certifying Propositions 12, 14 and 16's protocols on the same
instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.analysis.model_checker import strongly_connected_components
from repro.analysis.reachability import ConfigurationGraph, explore
from repro.engine.configuration import Configuration
from repro.engine.population import Population
from repro.engine.protocol import PopulationProtocol
from repro.errors import VerificationError

#: An unordered agent pair.
Pair = frozenset


@dataclass
class WeakFairnessVerdict:
    """Outcome of a weak-fairness naming check."""

    solves: bool
    explored_nodes: int
    counterexample: Configuration | None = None
    reason: str = ""


@dataclass
class _Meeting:
    """One possible outcome of a pair meeting at a configuration."""

    pair: Pair
    target: Configuration
    changes_mobile: bool


def _meetings(
    protocol: PopulationProtocol,
    population: Population,
    config: Configuration,
    project: Callable[[object], object],
) -> list[_Meeting]:
    """Every meeting outcome at ``config``: both orders of every pair,
    null meetings included (they matter for fairness coverage).

    ``changes_mobile`` records whether a mobile agent's projected *name*
    changed (for the paper's protocols the projection is the identity).
    """
    outcomes: list[_Meeting] = []
    mobile_count = population.n_mobile
    for x, y in population.unordered_pairs():
        pair = frozenset((x, y))
        for initiator, responder in ((x, y), (y, x)):
            p = config.state_of(initiator)
            q = config.state_of(responder)
            p2, q2 = protocol.transition(p, q)
            if (p2, q2) == (p, q):
                outcomes.append(_Meeting(pair, config, False))
                continue
            target = config.apply(initiator, responder, (p2, q2))
            changes_name = (
                initiator < mobile_count and project(p2) != project(p)
            ) or (responder < mobile_count and project(q2) != project(q))
            outcomes.append(_Meeting(pair, target, changes_name))
    return outcomes


@dataclass
class _ComponentSummary:
    """Pair coverage and mobile-change information for one SCC."""

    representative: Configuration
    covered: set[Pair]
    changes_mobile: bool


def _summarize_components(
    protocol: PopulationProtocol,
    population: Population,
    graph: ConfigurationGraph,
    project: Callable[[object], object],
) -> list[_ComponentSummary]:
    summaries: list[_ComponentSummary] = []
    for component in strongly_connected_components(
        graph.nodes, graph.successors
    ):
        members = set(component)
        covered: set[Pair] = set()
        changes = False
        for node in component:
            for meeting in _meetings(protocol, population, node, project):
                if meeting.target in members:
                    covered.add(meeting.pair)
                    if meeting.changes_mobile:
                        changes = True
        summaries.append(_ComponentSummary(component[0], covered, changes))
    return summaries


def check_naming_weak(
    protocol: PopulationProtocol,
    population: Population,
    initial: Iterable[Configuration],
    max_nodes: int = 500_000,
    name_of: Callable[[object], object] | None = None,
) -> WeakFairnessVerdict:
    """Decide whether ``protocol`` solves naming under weak fairness from
    the given initial configurations, on this exact population size.

    Exact; cost is one SCC decomposition plus one pass over all meetings.
    ``name_of`` projects a mobile state to its name variable (identity by
    default; see :func:`check_naming_global`).
    """
    initial = list(initial)
    if not initial:
        raise VerificationError("no initial configurations supplied")
    project = name_of if name_of is not None else lambda state: state
    graph = explore(protocol, population, initial, max_nodes=max_nodes)
    all_pairs = {frozenset(p) for p in population.unordered_pairs()}

    for summary in _summarize_components(
        protocol, population, graph, project
    ):
        if summary.covered != all_pairs:
            continue  # no weakly fair execution can live in this component
        if summary.changes_mobile:
            return WeakFairnessVerdict(
                solves=False,
                explored_nodes=len(graph.nodes),
                counterexample=summary.representative,
                reason=(
                    "a weakly fair execution can change mobile names "
                    "forever while meeting every pair (livelock)"
                ),
            )
        names = tuple(
            project(s) for s in summary.representative.mobile_states
        )
        if len(set(names)) != len(names):
            return WeakFairnessVerdict(
                solves=False,
                explored_nodes=len(graph.nodes),
                counterexample=summary.representative,
                reason=(
                    "a weakly fair execution can stay at duplicate names "
                    f"forever: {names}"
                ),
            )
    return WeakFairnessVerdict(solves=True, explored_nodes=len(graph.nodes))


def failing_components(
    protocol: PopulationProtocol,
    population: Population,
    initial: Iterable[Configuration],
    max_nodes: int = 500_000,
    name_of: Callable[[object], object] | None = None,
) -> list[Configuration]:
    """Diagnostic: representatives of *all* SCCs witnessing failure."""
    project = name_of if name_of is not None else lambda state: state
    graph = explore(protocol, population, list(initial), max_nodes=max_nodes)
    all_pairs = {frozenset(p) for p in population.unordered_pairs()}
    witnesses: list[Configuration] = []
    for summary in _summarize_components(
        protocol, population, graph, project
    ):
        if summary.covered != all_pairs:
            continue
        names = tuple(
            project(s) for s in summary.representative.mobile_states
        )
        if summary.changes_mobile or len(set(names)) != len(names):
            witnesses.append(summary.representative)
    return witnesses
