"""Tests for the counts quotient: configurations up to agent relabelling.

The symbolic checker (:mod:`repro.analysis.symbolic`) encodes each
configuration as its count row and explores those rows; these tests pin
down that the encoding forgets exactly the agent labels and that the
exploration keeps the name-changing self-loops a naive quotient loses.
"""

import numpy as np
import pytest

from repro.analysis import symbolic as S
from repro.analysis.reachability import arbitrary_initial_configurations
from repro.core.counting import CountingLeaderState, CountingProtocol
from repro.core.selfstab_naming import SelfStabilizingNamingProtocol
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.population import Population
from repro.engine.protocol import TableProtocol
from repro.errors import VerificationError


def swap_protocol():
    return TableProtocol(
        {(0, 1): (1, 0), (1, 0): (0, 1)}, mobile_states=[0, 1]
    )


class TestQuotientOf:
    def test_sorts_mobile_states(self):
        system = S.CountsSystem(TableProtocol({}, mobile_states=[1, 2, 3]))
        row = system.encode(Configuration((3, 1, 2)))
        canonical = system.decode(row, Population(3))
        assert canonical.mobile_states == (1, 2, 3)
        assert not canonical.has_leader

    def test_keeps_leader_state(self):
        system = S.CountsSystem(CountingProtocol(4))
        leader = CountingLeaderState(1, 2)
        config = Configuration((3, 1, leader), leader_index=2)
        row = system.encode(config)
        canonical = system.decode(row, Population(2, has_leader=True))
        assert canonical.mobile_states == (1, 3)
        assert canonical.leader_state == leader

    def test_equivalent_configs_share_quotient(self):
        system = S.CountsSystem(TableProtocol({}, mobile_states=[1, 2]))
        assert np.array_equal(
            system.encode(Configuration((1, 2))),
            system.encode(Configuration((2, 1))),
        )


class TestExploreQuotient:
    def test_smaller_than_labelled_graph(self):
        protocol = SymmetricGlobalNamingProtocol(3)
        pop = Population(3)
        labelled = len(
            list(arbitrary_initial_configurations(protocol, pop))
        )
        quotient = len(
            S.CountsSystem(protocol).root_matrix(3, "arbitrary")
        )
        assert quotient < labelled

    def test_rejects_empty_initials(self):
        system = S.CountsSystem(swap_protocol())
        no_roots = np.empty((0, system.width), dtype=np.int32)
        with pytest.raises(VerificationError):
            S.reach(system, no_roots)

    def test_node_budget(self):
        protocol = SelfStabilizingNamingProtocol(3)
        system = S.CountsSystem(protocol)
        single_start = system.root_matrix(3, "arbitrary")[:1]
        with pytest.raises(VerificationError, match="exceeded"):
            S.reach(system, single_start, max_nodes=2)


class TestSwapSubtlety:
    def test_multiset_preserving_swap_detected(self):
        """(s, t) -> (t, s) is a quotient self-loop that changes names:
        missing it would wrongly certify a livelocking protocol."""
        system = S.CountsSystem(swap_protocol())
        both = np.zeros((1, system.width), dtype=np.int32)
        both[0, system.midx[0]] = both[0, system.midx[1]] = 1
        rs = S.reach(system, both, track_edges=True)
        assert rs.n_nodes == 1
        assert rs.n_edges == 2
        assert set(rs.edges_src) == set(rs.edges_dst) == {0}

        # Duplicate starts funnel into that swapping pair, whose only
        # edges are the self-loops: the sink check must still refuse.
        funnel = TableProtocol(
            {
                (0, 0): (0, 1),
                (1, 1): (0, 1),
                (0, 1): (1, 0),
                (1, 0): (0, 1),
            },
            mobile_states=[0, 1],
        )
        verdict = S.check_sinks(funnel, 2, mobile_mode="arbitrary")
        assert not verdict.holds
        assert "never" in verdict.reason
