"""Exact expected convergence times via absorbing Markov chains.

Under the uniform-random scheduler, an execution is a Markov chain on
configurations.  Because protocols are uniform and agents anonymous, the
chain *lumps* onto the quotient (multiset) space: the probability of
moving between multiset classes is the same from every labelled
configuration of a class - it depends only on state counts.  The lumped
chain is tiny, so the expected number of interactions to reach a solved
configuration can be computed **exactly** by solving the absorbing-chain
linear system ``(I - Q) t = 1`` - no simulation variance, no budget.

This turns the supplementary time measurements into checkable numbers:
the simulated means of exp-s1 must agree with the linear-algebra answer,
and quantities far beyond simulation (Protocol 3's ``N = P`` sweep
expectation) become computable.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterable

import numpy

from repro.analysis.model_checker import strongly_connected_components
from repro.engine.protocol import PopulationProtocol
from repro.errors import VerificationError

#: A node of the lumped chain: (sorted tuple of mobile states, leader
#: state or None).
QuotientNode = tuple


@dataclass(frozen=True)
class ExpectedTime:
    """Exact expected interactions to absorption from one start."""

    start: QuotientNode
    expected_interactions: float


def _transition_draws(
    protocol: PopulationProtocol,
    node: QuotientNode,
    has_leader: bool,
) -> tuple[dict[QuotientNode, int], int]:
    """Outgoing one-interaction draw counts of the lumped chain.

    The scheduler draws an ordered pair of distinct agents uniformly:
    ``draws = A (A - 1)`` equally likely draws for ``A`` agents.  A
    draw's effect depends only on the states involved, so draws
    aggregate by state counts.  Returns ``(weights, draws)``, where
    ``weights[target]`` is the integer number of draws that move
    ``node`` to ``target`` (null meetings count towards ``node``
    itself); the weights sum to ``draws``.
    """
    mobile, leader = node
    counts = Counter(mobile)
    n_mobile = len(mobile)
    total_agents = n_mobile + (1 if has_leader else 0)
    draws = total_agents * (total_agents - 1)
    if draws == 0:
        return {node: 1}, 1

    def moved(remove: tuple, add: tuple) -> tuple:
        updated = counts.copy()
        for s in remove:
            updated[s] -= 1
        for s in add:
            updated[s] += 1
        return tuple(
            sorted(
                (s for s, c in updated.items() for _ in range(c)), key=repr
            )
        )

    weights: dict[QuotientNode, int] = {}

    def put(target: QuotientNode, weight: int) -> None:
        weights[target] = weights.get(target, 0) + weight

    # Mobile-mobile ordered draws.
    for p, q in permutations(counts, 2):
        weight = counts[p] * counts[q]
        p2, q2 = protocol.transition(p, q)
        if (p2, q2) == (p, q):
            put(node, weight)
        else:
            put((moved((p, q), (p2, q2)), leader), weight)
    for p, c in counts.items():
        if c >= 2:
            weight = c * (c - 1)
            p2, q2 = protocol.transition(p, p)
            if (p2, q2) == (p, p):
                put(node, weight)
            else:
                put((moved((p, p), (p2, q2)), leader), weight)

    # Leader-mobile draws, both orientations.
    if has_leader:
        for s, c in counts.items():
            for order in ("leader_first", "mobile_first"):
                if order == "leader_first":
                    l2, s2 = protocol.transition(leader, s)
                else:
                    s2, l2 = protocol.transition(s, leader)
                if (l2, s2) == (leader, s):
                    put(node, c)
                else:
                    put((moved((s,), (s2,)), l2), c)
    return weights, draws


def _explore(
    protocol: PopulationProtocol,
    initial: Iterable[QuotientNode],
    is_absorbing: Callable[[QuotientNode], bool],
    max_nodes: int,
) -> tuple[list[QuotientNode], dict[QuotientNode, int], list[dict], int]:
    """Breadth-first exploration of the lumped chain from ``initial``.

    Returns ``(nodes, index, rows, draws)``: ``rows[i]`` holds node
    ``i``'s integer draw counts (empty for absorbing nodes) and every
    row's counts sum to the same ``draws``, since the number of agents
    never changes.
    """
    initial = list(initial)
    if not initial:
        raise VerificationError("no initial quotient nodes supplied")
    has_leader = protocol.requires_leader
    nodes: list[QuotientNode] = []
    index: dict[QuotientNode, int] = {}
    rows: list[dict[QuotientNode, int]] = []
    draws = 1
    queue: deque[QuotientNode] = deque()
    for node in initial:
        if node not in index:
            index[node] = len(nodes)
            nodes.append(node)
            queue.append(node)
    while queue:
        node = queue.popleft()
        if is_absorbing(node):
            rows.append({})
            continue
        weights, draws = _transition_draws(protocol, node, has_leader)
        rows.append(weights)
        for target in weights:
            if target not in index:
                if len(nodes) >= max_nodes:
                    raise VerificationError(
                        f"lumped chain exceeded {max_nodes} nodes"
                    )
                index[target] = len(nodes)
                nodes.append(target)
                queue.append(target)
    return nodes, index, rows, draws


#: Most refinement steps :func:`_solve_refined` takes.
MAX_REFINEMENTS = 16


def _solve_refined(
    system: numpy.ndarray,
    sparse: list[list[tuple[int, int]]],
    rhs: list[int],
) -> numpy.ndarray:
    """Solve an integer linear system to full float64 accuracy.

    ``system`` is the dense float64 copy of the integer matrix whose
    rows ``sparse`` lists as ``(column, value)`` pairs, and ``rhs`` is
    an integer vector.  The callers scale ``I - Q`` by the number of
    draws, so every entry is a small integer that float64 holds
    exactly.  A float64 LU solve still loses about ``cond(system) *
    eps`` relative accuracy (cond reaches ~1e10 on Protocol 3's chain at
    N = P = 5), so the solution is refined: each step computes the
    residual ``rhs - system @ x`` exactly, in integers, solves for a
    correction, and stops once the correction stops shrinking.  Raises
    ``numpy.linalg.LinAlgError`` when the system is singular.
    """
    solution = numpy.linalg.solve(system, numpy.array(rhs, dtype=float))
    previous = numpy.inf
    for _ in range(MAX_REFINEMENTS):
        if not numpy.all(numpy.isfinite(solution)):
            break  # numerically singular: the callers reject it
        ratios = [value.as_integer_ratio() for value in solution.tolist()]
        scale = max(den for _, den in ratios)
        scaled = [num * (scale // den) for num, den in ratios]
        residual = [
            (b * scale - sum(w * scaled[j] for j, w in row)) / scale
            for row, b in zip(sparse, rhs)
        ]
        correction = numpy.linalg.solve(system, numpy.array(residual))
        size = float(numpy.max(numpy.abs(correction)))
        if not size < previous:
            break
        solution = solution + correction
        previous = size
    return solution


def _scaled_system(
    rows: list[dict],
    index: dict[QuotientNode, int],
    unknowns: list[int],
    draws: int,
) -> tuple[numpy.ndarray, list[list[tuple[int, int]]], dict[int, int]]:
    """``draws * (I - Q)`` restricted to ``unknowns``, in integers.

    Returns the dense float64 matrix, the same rows as sparse
    ``(column, value)`` lists, and the unknowns' positions.
    """
    position = {i: k for k, i in enumerate(unknowns)}
    sparse: list[list[tuple[int, int]]] = []
    for i in unknowns:
        row = {position[i]: draws}
        for target, weight in rows[i].items():
            k = position.get(index[target])
            if k is not None:
                row[k] = row.get(k, 0) - weight
        sparse.append(list(row.items()))
    system = numpy.zeros((len(unknowns), len(unknowns)))
    for k, row in enumerate(sparse):
        for j, value in row:
            system[k, j] = value
    return system, sparse, position


def expected_convergence_time(
    protocol: PopulationProtocol,
    initial: Iterable[QuotientNode],
    is_absorbing: Callable[[QuotientNode], bool],
    max_nodes: int = 20_000,
) -> dict[QuotientNode, float]:
    """Exact expected interactions to absorption for every reachable node.

    ``is_absorbing`` marks the solved classes (e.g. duplicate-free,
    silent multisets).  Solves ``draws * (I - Q) t = draws * 1``, whose
    entries are integers, with exact-residual refinement (see
    :func:`_solve_refined`), so the answer is exact to float64 precision
    however ill-conditioned the chain.  Raises
    :class:`VerificationError` when some reachable node cannot reach an
    absorbing one (infinite expectation).
    """
    nodes, index, rows, draws = _explore(
        protocol, initial, is_absorbing, max_nodes
    )
    transient = [i for i, node in enumerate(nodes) if not is_absorbing(node)]
    if not transient:
        return {node: 0.0 for node in nodes}
    system, sparse, position = _scaled_system(rows, index, transient, draws)
    try:
        times = _solve_refined(system, sparse, [draws] * len(transient))
    except numpy.linalg.LinAlgError as exc:
        raise VerificationError(
            "the chain has unreachable absorption (infinite expected "
            "time) or is ill-conditioned"
        ) from exc
    if numpy.any(times < -1e-9) or not numpy.all(numpy.isfinite(times)):
        raise VerificationError(
            "absorption is not certain from every reachable class"
        )
    result = {node: 0.0 for node in nodes}
    for i in transient:
        result[nodes[i]] = float(times[position[i]])
    return result


def absorption_probability(
    protocol: PopulationProtocol,
    initial: Iterable[QuotientNode],
    is_absorbing: Callable[[QuotientNode], bool],
    max_nodes: int = 20_000,
) -> dict[QuotientNode, float]:
    """Exact probability of *ever* reaching an absorbing class.

    The quantitative companion to the model checkers: a correct protocol
    has probability 1 everywhere; a failing one reveals *how* it fails -
    e.g. Proposition 13's two-agent cycle has probability 0, while a
    protocol with a reachable livelock trap has probability strictly
    between 0 and 1 from the trap's basin boundary.

    Method: closed recurrent non-absorbing classes (sink SCCs of the
    lumped graph that contain no absorbing node) can never absorb, so
    their probability is 0; removing them leaves a substochastic system
    ``(I - Q') p = r`` with a unique solution - the minimal non-negative
    one, i.e. the true probabilities.  It is solved scaled by the number
    of draws, with exact-residual refinement, like
    :func:`expected_convergence_time`.
    """
    nodes, index, rows, draws = _explore(
        protocol, initial, is_absorbing, max_nodes
    )
    result = {
        node: (1.0 if is_absorbing(node) else 0.0) for node in nodes
    }

    # Doomed nodes: sink SCCs of non-absorbing nodes never absorb.
    def successors(node: QuotientNode):
        return rows[index[node]].keys()

    components = strongly_connected_components(nodes, successors)
    doomed: set[QuotientNode] = set()
    for component in components:
        members = set(component)
        if any(is_absorbing(node) for node in component):
            continue
        leaves = any(
            target not in members
            for node in component
            for target in rows[index[node]]
        )
        if not leaves:
            doomed.update(members)

    solvable = [
        i
        for i, node in enumerate(nodes)
        if not is_absorbing(node) and node not in doomed
    ]
    if not solvable:
        return result
    system, sparse, position = _scaled_system(rows, index, solvable, draws)
    into_absorbing = [
        sum(w for target, w in rows[i].items() if is_absorbing(target))
        for i in solvable
    ]  # weight into doomed nodes contributes nothing
    solution = _solve_refined(system, sparse, into_absorbing)
    probabilities = numpy.clip(solution, 0.0, 1.0)
    for i in solvable:
        result[nodes[i]] = float(probabilities[position[i]])
    return result


def naming_absorbing(
    protocol: PopulationProtocol,
) -> Callable[[QuotientNode], bool]:
    """The solved predicate for naming: the class is duplicate-free AND
    silent (no realizable meeting changes anything) - a distinct-name
    class with pending renames (Protocol 3 mid-sweep, a Prop. 13 reset
    agent) is *not* absorbed yet."""

    def absorbing(node: QuotientNode) -> bool:
        mobile, leader = node
        if len(set(mobile)) != len(mobile):
            return False
        counts = Counter(mobile)
        for p, q in permutations(counts, 2):
            if protocol.transition(p, q) != (p, q):
                return False
        for p, c in counts.items():
            if c >= 2 and protocol.transition(p, p) != (p, p):
                return False
        if leader is not None:
            for s in counts:
                if protocol.transition(leader, s) != (leader, s):
                    return False
                if protocol.transition(s, leader) != (s, leader):
                    return False
        return True

    return absorbing
