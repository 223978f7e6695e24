"""Counterexample synthesis: from a failing SCC to a replayable schedule.

The weak-fairness checker (:mod:`repro.analysis.weak_fairness`) proves
non-convergence by exhibiting an SCC in which every agent pair can meet.
The paper's negative proofs go one step further: they *construct* the
weakly fair execution. This module automates that step - given a protocol
that fails under weak fairness, it synthesizes a concrete schedule

    ``prefix`` (reach the recurrent configuration)  +
    ``cycle``  (return to it while meeting every pair at least once)

such that replaying ``prefix, cycle, cycle, ...`` is a weakly fair
execution that never converges.  The result plugs directly into
:class:`repro.schedulers.adversarial.FixedSequenceScheduler`, so every
impossibility verdict can be *watched* in the simulator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.analysis.model_checker import strongly_connected_components
from repro.analysis.reachability import ConfigurationGraph, explore
from repro.analysis.weak_fairness import _meetings
from repro.engine.configuration import Configuration
from repro.engine.population import AgentId, Population
from repro.engine.protocol import PopulationProtocol
from repro.errors import VerificationError

#: An ordered meeting: (initiator, responder).
Meeting = tuple[AgentId, AgentId]


@dataclass
class WeakCounterexample:
    """A synthesized weakly fair non-converging execution.

    Replay ``prefix`` once from ``initial``, then ``cycle`` forever; the
    cycle starts and ends at ``recurrent`` and meets every unordered agent
    pair at least once, so the infinite execution is weakly fair.  If
    ``livelock`` is true some meeting in the cycle changes a mobile name
    on every pass; otherwise ``recurrent`` holds duplicate names and every
    cycle meeting is null.
    """

    initial: Configuration
    recurrent: Configuration
    prefix: list[Meeting]
    cycle: list[Meeting]
    livelock: bool

    def schedule(self, repetitions: int = 1) -> list[Meeting]:
        """The prefix followed by ``repetitions`` copies of the cycle."""
        return list(self.prefix) + list(self.cycle) * repetitions


def _oriented_meetings(
    protocol: PopulationProtocol,
    population: Population,
    config: Configuration,
):
    """Meetings at ``config`` with their orientation and outcome."""
    mobile_count = population.n_mobile
    for x, y in population.unordered_pairs():
        for initiator, responder in ((x, y), (y, x)):
            p = config.state_of(initiator)
            q = config.state_of(responder)
            p2, q2 = protocol.transition(p, q)
            if (p2, q2) == (p, q):
                target = config
            else:
                target = config.apply(initiator, responder, (p2, q2))
            changes = (
                initiator < mobile_count and p2 != p
            ) or (responder < mobile_count and q2 != q)
            yield (initiator, responder), target, changes


def _shortest_meeting_path(
    protocol: PopulationProtocol,
    population: Population,
    members: set[Configuration] | None,
    source: Configuration,
    goal,
) -> tuple[list[Meeting], Configuration]:
    """BFS over *meetings* (null ones included) from ``source`` to the
    first configuration satisfying ``goal``; restricted to ``members``
    when given.  Returns the meeting list and the reached configuration.
    """
    if goal(source):
        return [], source
    seen = {source}
    queue: deque[tuple[Configuration, list[Meeting]]] = deque(
        [(source, [])]
    )
    while queue:
        config, path = queue.popleft()
        for meeting, target, _ in _oriented_meetings(
            protocol, population, config
        ):
            if members is not None and target not in members:
                continue
            if goal(target):
                return path + [meeting], target
            if target not in seen:
                seen.add(target)
                queue.append((target, path + [meeting]))
    raise VerificationError("no path to the requested configuration")


def synthesize_weak_counterexample(
    protocol: PopulationProtocol,
    population: Population,
    initial: list[Configuration],
    max_nodes: int = 200_000,
) -> WeakCounterexample:
    """Build a replayable weakly fair non-converging schedule.

    Raises :class:`VerificationError` when the protocol actually solves
    naming under weak fairness from the given initial configurations (no
    counterexample exists).
    """
    if not initial:
        raise VerificationError("no initial configurations supplied")
    graph = explore(protocol, population, initial, max_nodes=max_nodes)
    all_pairs = {frozenset(p) for p in population.unordered_pairs()}

    failing = _find_failing_component(
        protocol, population, graph, all_pairs
    )
    if failing is None:
        raise VerificationError(
            f"{protocol.display_name} solves naming under weak fairness "
            "from the given starts; no counterexample exists"
        )
    members, changes = failing
    anchor = next(iter(members))

    # Reach the anchor from some initial configuration.
    origin, prefix, start = _reach_component(
        protocol, population, initial, members
    )
    if start != anchor:
        extra, _ = _shortest_meeting_path(
            protocol,
            population,
            members,
            start,
            lambda c: c == anchor,
        )
        prefix = prefix + extra

    # Build the covering cycle: for each unordered pair, walk (within the
    # component) to a configuration, take the pair's meeting, continue.
    cycle: list[Meeting] = []
    here = anchor
    for pair in sorted(all_pairs, key=sorted):
        x, y = sorted(pair)

        def can_meet_here(config: Configuration) -> bool:
            for meeting, target, _ in _oriented_meetings(
                protocol, population, config
            ):
                if frozenset(meeting) == pair and target in members:
                    return True
            return False

        walk, spot = _shortest_meeting_path(
            protocol, population, members, here, can_meet_here
        )
        cycle.extend(walk)
        meeting, target = _pick_meeting(
            protocol, population, members, spot, pair, prefer_change=changes
        )
        cycle.append(meeting)
        here = target

    if changes:
        # Ensure at least one name change per cycle pass.
        def change_possible(config: Configuration) -> bool:
            return any(
                chg and target in members
                for _, target, chg in _oriented_meetings(
                    protocol, population, config
                )
            )

        walk, spot = _shortest_meeting_path(
            protocol, population, members, here, change_possible
        )
        cycle.extend(walk)
        for meeting, target, chg in _oriented_meetings(
            protocol, population, spot
        ):
            if chg and target in members:
                cycle.append(meeting)
                here = target
                break

    # Close the loop back to the anchor.
    closing, _ = _shortest_meeting_path(
        protocol, population, members, here, lambda c: c == anchor
    )
    cycle.extend(closing)
    if not cycle:
        raise VerificationError("synthesized an empty cycle")  # unreachable
    return WeakCounterexample(
        initial=origin,
        recurrent=anchor,
        prefix=prefix,
        cycle=cycle,
        livelock=changes,
    )


def _find_failing_component(
    protocol: PopulationProtocol,
    population: Population,
    graph: ConfigurationGraph,
    all_pairs: set,
) -> tuple[set[Configuration], bool] | None:
    """The first SCC witnessing failure, plus its livelock flag."""
    for component in strongly_connected_components(
        graph.nodes, graph.successors
    ):
        members = set(component)
        covered = set()
        changes = False
        for node in component:
            for meeting in _meetings(
                protocol, population, node, lambda s: s
            ):
                if meeting.target in members:
                    covered.add(meeting.pair)
                    changes = changes or meeting.changes_mobile
        if covered != all_pairs:
            continue
        if changes or not component[0].names_distinct():
            return members, changes
    return None


def _reach_component(
    protocol: PopulationProtocol,
    population: Population,
    initial: list[Configuration],
    members: set[Configuration],
) -> tuple[Configuration, list[Meeting], Configuration]:
    """Shortest meeting path from any initial configuration into the
    component (unrestricted by membership along the way); returns the
    chosen start, the path and the entry configuration."""
    best: tuple[Configuration, list[Meeting], Configuration] | None = None
    for start in initial:
        try:
            path, reached = _shortest_meeting_path(
                protocol,
                population,
                None,
                start,
                lambda c: c in members,
            )
        except VerificationError:
            continue
        if best is None or len(path) < len(best[1]):
            best = (start, path, reached)
            if not path:
                break
    if best is None:
        raise VerificationError("failing component unreachable")
    return best


def _pick_meeting(
    protocol: PopulationProtocol,
    population: Population,
    members: set[Configuration],
    config: Configuration,
    pair,
    prefer_change: bool,
) -> tuple[Meeting, Configuration]:
    """A meeting of ``pair`` at ``config`` staying inside the component."""
    candidates = [
        (meeting, target, chg)
        for meeting, target, chg in _oriented_meetings(
            protocol, population, config
        )
        if frozenset(meeting) == pair and target in members
    ]
    if not candidates:
        raise VerificationError(
            f"pair {sorted(pair)} cannot meet inside the component here"
        )
    if prefer_change:
        for meeting, target, chg in candidates:
            if chg:
                return meeting, target
    return candidates[0][0], candidates[0][1]


def verify_counterexample(
    protocol: PopulationProtocol,
    population: Population,
    counterexample: WeakCounterexample,
    repetitions: int = 3,
) -> bool:
    """Replay the synthesized schedule and confirm its promises:

    * the prefix reaches the recurrent configuration... (after the cycle),
    * each cycle pass returns exactly to the recurrent configuration,
    * the cycle meets every unordered pair,
    * livelock cycles change some mobile state; quiet cycles never do and
      the recurrent configuration has duplicate names.
    """
    config = counterexample.initial
    for x, y in counterexample.prefix:
        p, q = config.state_of(x), config.state_of(y)
        config = config.apply(x, y, protocol.transition(p, q)) if (
            protocol.transition(p, q) != (p, q)
        ) else config
    if config != counterexample.recurrent:
        return False
    met = set()
    for _ in range(repetitions):
        changed = False
        for x, y in counterexample.cycle:
            met.add(frozenset((x, y)))
            p, q = config.state_of(x), config.state_of(y)
            p2, q2 = protocol.transition(p, q)
            if (p2, q2) != (p, q):
                before = config.mobile_states
                config = config.apply(x, y, (p2, q2))
                changed = changed or config.mobile_states != before
        if config != counterexample.recurrent:
            return False
        if counterexample.livelock and not changed:
            return False
        if not counterexample.livelock and changed:
            return False
    all_pairs = {frozenset(p) for p in population.unordered_pairs()}
    if met != all_pairs:
        return False
    if not counterexample.livelock:
        return not counterexample.recurrent.names_distinct()
    return True
