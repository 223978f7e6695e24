"""Tests for the symbolic frontier model checker.

Engine behavior (closure, root conventions, frontier fixpoint, masks,
SCCs) plus the counterexample round trip: every witness kind the
checker can emit is exercised on a fixture that produces it, and each
witness must replay successfully on the reference simulator.
"""

import numpy as np
import pytest

from repro.analysis import symbolic as S
from repro.analysis.enumeration import EnumLeaderState
from repro.core.global_naming import GlobalNamingProtocol
from repro.core.selfstab_naming import SelfStabilizingNamingProtocol
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.population import Population
from repro.engine.protocol import TableProtocol
from repro.errors import VerificationError

#: Never separates duplicates: the all-null protocol.  Every silent
#: configuration with a repeated state is a naming-on-silence violation.
def null_protocol():
    return TableProtocol({}, mobile_states=[0, 1])


#: Pure swap: (0, 1) alternates forever, (0, 0) and (1, 1) are silent
#: duplicates reachable only as roots.  From {0, 1} roots the sink SCC
#: keeps both names present but each *agent*'s name changes forever.
def swap_protocol():
    return TableProtocol(
        {(0, 1): (1, 0), (1, 0): (0, 1)}, mobile_states=[0, 1]
    )


#: Swap with a funnel: duplicate roots are repaired into {0, 1}, which
#: then swaps forever - the sink component itself is a livelock.
def funnel_swap_protocol():
    return TableProtocol(
        {
            (0, 0): (0, 1),
            (1, 1): (0, 1),
            (0, 1): (1, 0),
            (1, 0): (0, 1),
        },
        mobile_states=[0, 1],
    )


class StartsAtZero(TableProtocol):
    """A table protocol whose uniform start is mobile state 0."""

    def initial_mobile_state(self):
        return 0


#: Parks at duplicates without being silent: from the uniform start
#: (0, 0, 0) it reaches (3, 3, 0), where (0, 3) fires but (3, 0) is
#: null, so a weakly fair scheduler meets every pair without moving.
def parking_protocol():
    return StartsAtZero(
        {(0, 0): (3, 3), (0, 1): (0, 2), (0, 3): (1, 2), (2, 2): (3, 2)},
        mobile_states=[0, 1, 2, 3],
    )


#: Parks through the leader: at (0, 0) with leader L0 only the
#: leader-first meeting (L0, 0) fires, so a weakly fair scheduler that
#: always meets that pair as (0, L0) keeps the duplicates forever.
def leader_parking_protocol():
    l0, l1 = EnumLeaderState(0), EnumLeaderState(1)
    return StartsAtZero(
        {(l0, 0): (l1, 1), (l1, 0): (l1, 2), (0, l1): (2, l1)},
        mobile_states=[0, 1, 2],
        leader_states=[l0, l1],
    )


class TestStateClosure:
    def test_closure_contains_initial_sets(self):
        protocol = SymmetricGlobalNamingProtocol(3)
        mobile0, leader0 = S.initial_state_sets(protocol)
        closed = S.state_closure(protocol)
        assert closed is not None
        mobile, leader = closed
        assert mobile0 <= mobile
        assert leader0 <= leader

    def test_closure_within_declared_space(self):
        protocol = SelfStabilizingNamingProtocol(2)
        closed = S.state_closure(protocol)
        assert closed is not None
        mobile, leader = closed
        assert mobile <= set(protocol.mobile_state_space())
        assert leader <= set(protocol.leader_state_space())


class TestCountsSystem:
    def test_encode_decode_roundtrip(self):
        protocol = SelfStabilizingNamingProtocol(2)
        system = S.CountsSystem(protocol)
        pop = Population(3, has_leader=True)
        from repro.analysis.reachability import (
            arbitrary_initial_configurations,
        )

        for config in arbitrary_initial_configurations(protocol, pop):
            row = system.encode(config)
            back = system.decode(row, pop)
            assert sorted(map(repr, back.mobile_states)) == sorted(
                map(repr, config.mobile_states)
            )
            assert back.leader_state == config.leader_state

    def test_arbitrary_roots_enumerate_all_multisets(self):
        system = S.CountsSystem(swap_protocol())
        roots = system.root_matrix(3, "arbitrary")
        # multisets of size 3 over 2 states: C(4, 3) = 4
        assert roots.shape[0] == 4
        assert (roots.sum(axis=1) == 3).all()

    def test_uniform_roots_use_designated_state(self):
        class Designated(TableProtocol):
            def initial_mobile_state(self):
                return 0

        protocol = Designated({}, mobile_states=[0, 1])
        system = S.CountsSystem(protocol)
        roots = system.root_matrix(3, "uniform")
        assert roots.shape[0] == 1
        assert roots[0, system.midx[0]] == 3

    def test_arbitrary_leader_roots_span_full_space(self):
        protocol = SelfStabilizingNamingProtocol(2)
        system = S.CountsSystem(protocol)
        roots = system.root_matrix(2, "arbitrary")
        n_leaders = protocol.leader_space_size()
        n_multisets = roots.shape[0] // n_leaders
        assert roots.shape[0] == n_multisets * n_leaders
        assert len(np.unique(roots[:, system.M])) == n_leaders

    def test_explicit_leader_states_restrict_roots(self):
        protocol = SelfStabilizingNamingProtocol(2)
        system = S.CountsSystem(protocol)
        designated = protocol.initial_leader_state()
        roots = system.root_matrix(2, "arbitrary", [designated])
        assert len(np.unique(roots[:, system.M])) == 1

    def test_max_roots_budget_enforced(self):
        system = S.CountsSystem(swap_protocol())
        with pytest.raises(VerificationError, match="root budget"):
            system.root_matrix(3, "arbitrary", max_roots=1)

    def test_huge_leader_space_fails_fast(self):
        # P=32 declares ~1.5e11 leader states; the size hint must
        # reject enumeration instead of materializing them.
        protocol = SelfStabilizingNamingProtocol(32)
        system = S.CountsSystem(protocol)
        with pytest.raises(VerificationError, match="leader"):
            system.root_matrix(3, "arbitrary")


class TestReach:
    def test_fixpoint_covers_swap_orbit(self):
        system = S.CountsSystem(swap_protocol())
        roots = system.root_matrix(2, "arbitrary")
        rs = S.reach(system, roots)
        # all 3 count vectors of 2 agents over 2 states are reachable
        assert rs.n_nodes == 3

    def test_max_nodes_cap(self):
        # Roots are admitted unconditionally; the cap bites as soon as
        # the expansion discovers a configuration beyond them.
        protocol = SelfStabilizingNamingProtocol(3)
        system = S.CountsSystem(protocol)
        roots = system.root_matrix(
            3, "arbitrary", [protocol.initial_leader_state()]
        )
        with pytest.raises(VerificationError, match="exceeded"):
            S.reach(system, roots, max_nodes=len(roots))

    def test_path_to_replays_through_simulator(self):
        protocol = funnel_swap_protocol()
        system = S.CountsSystem(protocol)
        roots = system.root_matrix(2, "arbitrary")
        rs = S.reach(system, roots)
        # every reached node has a rule path from some root
        for node in range(rs.n_nodes):
            path = rs.path_to(node)
            assert path is not None

    def test_sccs_require_edges(self):
        system = S.CountsSystem(swap_protocol())
        roots = system.root_matrix(2, "arbitrary")
        rs = S.reach(system, roots, track_edges=False)
        with pytest.raises(VerificationError, match="track_edges"):
            S.symbolic_sccs(rs)

    def test_swap_cycle_is_one_scc(self):
        system = S.CountsSystem(swap_protocol())
        roots = system.root_matrix(2, "arbitrary")
        rs = S.reach(system, roots, track_edges=True)
        sccs = S.symbolic_sccs(rs)
        assert max(len(c) for c in sccs) == 1  # swap is a self-loop
        # in the quotient: counts {0:1, 1:1} maps to itself

    def test_sccs_in_reverse_topological_order(self):
        # Every edge stays in its component or enters an earlier one.
        # The checkers report the first failing component they meet, so
        # this order decides their witnesses.
        system = S.CountsSystem(SymmetricGlobalNamingProtocol(6))
        roots = system.root_matrix(4, "arbitrary")
        rs = S.reach(system, roots, track_edges=True)
        sccs = S.symbolic_sccs(rs)
        assert (rs.n_nodes, len(sccs)) == (210, 103)
        assert sum(len(c) > 1 for c in sccs) == 7
        position = {
            node: cid for cid, comp in enumerate(sccs) for node in comp
        }
        assert all(
            position[dst] <= position[src]
            for src, dst in zip(rs.edges_src, rs.edges_dst)
        )


class TestWitnessRoundTrip:
    """Every FAIL kind must come with a replay-validated witness."""

    def assert_fails(self, verdict, kind):
        assert not verdict.holds
        assert verdict.witness is not None
        assert verdict.witness.kind == kind
        assert verdict.replay_validated is True

    def test_silent_duplicates(self):
        verdict = S.check_reach(null_protocol(), 2, mobile_mode="arbitrary")
        self.assert_fails(verdict, "silent-duplicates")

    def test_sink_duplicates(self):
        verdict = S.check_sinks(swap_protocol(), 2, mobile_mode="arbitrary")
        self.assert_fails(verdict, "sink-duplicates")

    def test_weak_duplicates(self):
        verdict = S.check_liveness(
            swap_protocol(), 2, mobile_mode="arbitrary"
        )
        self.assert_fails(verdict, "weak-duplicates")

    def test_one_way_null_pair_parks(self):
        # The edge-free shortcut's test is null orientations, not
        # silence: (3, 3, 0) is not silent, yet it hosts a weakly fair
        # execution.
        verdict = S.check_liveness(
            parking_protocol(), 3, mobile_mode="uniform"
        )
        self.assert_fails(verdict, "weak-duplicates")
        assert verdict.witness.final.states == (3, 3, 0)

    def test_one_way_null_leader_pair_parks(self):
        protocol = leader_parking_protocol()
        roots = {"mobile_mode": "uniform", "leader_states": [EnumLeaderState(0)]}
        verdict = S.check_liveness(protocol, 2, **roots)
        self.assert_fails(verdict, "weak-duplicates")
        assert verdict.witness.final.mobile_states == (0, 0)
        assert S.check_sinks(protocol, 2, **roots).holds

    def test_sink_livelock(self):
        verdict = S.check_sinks(
            funnel_swap_protocol(), 2, mobile_mode="arbitrary"
        )
        self.assert_fails(verdict, "sink-livelock")

    def test_weak_livelock(self):
        verdict = S.check_liveness(
            funnel_swap_protocol(), 2, mobile_mode="arbitrary"
        )
        self.assert_fails(verdict, "weak-livelock")

    def test_prop13_fails_weak_but_passes_global(self):
        # The Table 1 content: the leaderless symmetric protocol needs
        # global fairness; a weakly fair adversary can livelock it.
        protocol = SymmetricGlobalNamingProtocol(3)
        live = S.check_liveness(protocol, 3, mobile_mode="arbitrary")
        self.assert_fails(live, "weak-livelock")
        sinks = S.check_sinks(protocol, 3, mobile_mode="arbitrary")
        assert sinks.holds

    def test_manual_replay_of_emitted_witness(self):
        verdict = S.check_liveness(
            funnel_swap_protocol(), 2, mobile_mode="arbitrary"
        )
        population = Population(2)
        assert S.replay_witness(
            funnel_swap_protocol(), population, verdict.witness
        )


class TestPositiveVerdicts:
    def test_prop13_passes_all_global_properties(self):
        protocol = SymmetricGlobalNamingProtocol(4)
        for prop in ("reach", "sinks"):
            verdict = S.check_property(
                protocol, prop, 3, mobile_mode="arbitrary"
            )
            assert verdict.holds, verdict.render()
            assert verdict.witness is None

    @pytest.mark.parametrize(
        "make,n,initialized",
        [
            (SymmetricGlobalNamingProtocol, 6, False),
            (GlobalNamingProtocol, 5, True),
            (SelfStabilizingNamingProtocol, 2, False),
        ],
        ids=["prop13-n6", "protocol3-n5", "protocol2-n2"],
    )
    def test_sinks_hold_at_n_equals_p(self, make, n, initialized):
        # Prop. 13 at N = P = 6 and Protocol 3 at N = P = 5 (initialized
        # leader) are out of the labelled checker's reach; Protocol 2
        # roots in every leader state.
        protocol = make(n)
        leaders = [protocol.initial_leader_state()] if initialized else None
        verdict = S.check_sinks(
            protocol, n, mobile_mode="arbitrary", leader_states=leaders
        )
        assert verdict.holds, verdict.render()

    def test_prop16_passes_all_properties(self):
        protocol = SelfStabilizingNamingProtocol(5)
        for prop in S.PROPERTIES:
            verdict = S.check_property(
                protocol,
                prop,
                3,
                mobile_mode="arbitrary",
                leader_states=[protocol.initial_leader_state()],
            )
            assert verdict.holds, verdict.render()

    def test_unknown_property_rejected(self):
        with pytest.raises(ValueError, match="unknown property"):
            S.check_property(swap_protocol(), "bogus", 2)

    def test_render_mentions_replay(self):
        verdict = S.check_reach(null_protocol(), 2, mobile_mode="arbitrary")
        assert "replayed" in verdict.render()
