"""Differential tests: symbolic checker vs the explicit labelled ones.

On every registry instance small enough for the explicit graph, the
counts-quotient frontier must agree with labelled exploration: the
quotiented reachable sets are equal, the sink components are identical
(as families of count vectors), and the weak-fairness verdict matches
:func:`repro.analysis.weak_fairness.check_naming_weak` exactly.
"""

import pytest

from repro.analysis import symbolic as S
from repro.analysis.model_checker import (
    check_naming_global,
    sink_components,
)
from repro.analysis.reachability import (
    arbitrary_initial_configurations,
    explore,
    uniform_initial_configurations,
)
from repro.analysis.weak_fairness import check_naming_weak
from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.global_naming import GlobalNamingProtocol
from repro.core.registry import protocol_for
from repro.core.spec import all_specs
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.population import Population
from repro.errors import InfeasibleSpecError

BOUND = 4
N_MOBILE = 3


def small_instances():
    """Every feasible (spec, mode) cell at the differential size."""
    cases = []
    seen = set()
    for spec in all_specs():
        try:
            protocol = protocol_for(spec, BOUND)
        except InfeasibleSpecError:
            continue
        for mode in ("arbitrary", "uniform"):
            key = (protocol.display_name, mode)
            if key in seen:
                continue
            seen.add(key)
            cases.append(
                pytest.param(
                    protocol, mode, id=f"{protocol.display_name}-{mode}"
                )
            )
    return cases


def explicit_graph(protocol, mode):
    population = Population(N_MOBILE, protocol.requires_leader)
    maker = (
        arbitrary_initial_configurations
        if mode == "arbitrary"
        else uniform_initial_configurations
    )
    initial = list(maker(protocol, population))
    return population, initial, explore(protocol, population, initial)


def symbolic_reach(protocol, mode, track_edges=False):
    system = S.CountsSystem(protocol)
    roots = system.root_matrix(N_MOBILE, mode)
    return system, S.reach(system, roots, track_edges=track_edges)


def quotient_rows(system, configs):
    return {bytes(system.encode(c)) for c in configs}


def symbolic_sink_rowsets(rs):
    """Sink SCCs of the reached quotient as frozensets of row bytes."""
    sccs = S.symbolic_sccs(rs)
    comp_of = {}
    for cid, comp in enumerate(sccs):
        for node in comp:
            comp_of[node] = cid
    leaves = {cid for cid in range(len(sccs))}
    for src, dst in zip(rs.edges_src, rs.edges_dst):
        if comp_of[src] != comp_of[dst]:
            leaves.discard(comp_of[src])
    return {
        frozenset(rs.rows[node].tobytes() for node in sccs[cid])
        for cid in leaves
    }


@pytest.mark.parametrize("protocol,mode", small_instances())
class TestDifferential:
    def test_reachable_sets_equal(self, protocol, mode):
        _, _, graph = explicit_graph(protocol, mode)
        system, rs = symbolic_reach(protocol, mode)
        explicit = quotient_rows(system, graph.nodes)
        symbolic = {bytes(row) for row in rs.rows}
        assert explicit == symbolic

    def test_sink_components_identical(self, protocol, mode):
        _, _, graph = explicit_graph(protocol, mode)
        system, rs = symbolic_reach(protocol, mode, track_edges=True)
        explicit_sinks = {
            frozenset(quotient_rows(system, comp))
            for comp in sink_components(graph)
        }
        assert explicit_sinks == symbolic_sink_rowsets(rs)

    def test_global_fairness_verdicts_agree(self, protocol, mode):
        population, initial, _ = explicit_graph(protocol, mode)
        explicit = check_naming_global(protocol, population, initial)
        symbolic = S.check_sinks(protocol, N_MOBILE, mobile_mode=mode)
        assert explicit.solves == symbolic.holds

    def test_weak_fairness_verdicts_agree(self, protocol, mode):
        population, initial, _ = explicit_graph(protocol, mode)
        explicit = check_naming_weak(protocol, population, initial)
        symbolic = S.check_liveness(protocol, N_MOBILE, mobile_mode=mode)
        assert explicit.solves == symbolic.holds
        if not symbolic.holds:
            assert symbolic.replay_validated is True


class TestAgreementWithLabelledChecker:
    """The sink check on the counts quotient must give the labelled
    global-fairness verdict, failures included - the uniform-lifting
    equivalence, checked mechanically."""

    CASES = [
        (SymmetricGlobalNamingProtocol(3), 3, None, True),
        (SymmetricGlobalNamingProtocol(3), 2, None, False),
        (SymmetricGlobalNamingProtocol(4), 3, None, True),
        (AsymmetricNamingProtocol(3), 3, None, True),
        (AsymmetricNamingProtocol(4), 2, None, True),
    ]

    @pytest.mark.parametrize(
        "protocol,n,leaders,expected",
        CASES,
        ids=lambda v: getattr(v, "display_name", str(v)),
    )
    def test_agreement(self, protocol, n, leaders, expected):
        pop = Population(n, protocol.requires_leader)
        labelled = check_naming_global(
            protocol,
            pop,
            arbitrary_initial_configurations(protocol, pop, leaders),
        )
        symbolic = S.check_sinks(
            protocol, n, mobile_mode="arbitrary", leader_states=leaders
        )
        assert labelled.solves == symbolic.holds == expected

    def test_agreement_with_leader(self):
        protocol = GlobalNamingProtocol(3)
        pop = Population(3, has_leader=True)
        leaders = [protocol.initial_leader_state()]
        labelled = check_naming_global(
            protocol,
            pop,
            arbitrary_initial_configurations(protocol, pop, leaders),
        )
        symbolic = S.check_sinks(
            protocol, 3, mobile_mode="arbitrary", leader_states=leaders
        )
        assert labelled.solves and symbolic.holds
