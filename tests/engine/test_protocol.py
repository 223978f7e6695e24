"""Tests for the protocol abstraction and its validators."""

import pytest

from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.counting import CountingProtocol
from repro.core.global_naming import GlobalNamingProtocol
from repro.core.leader_uniform import LeaderUniformNamingProtocol
from repro.core.selfstab_naming import SelfStabilizingNamingProtocol
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.protocol import (
    TableProtocol,
    asymmetric_witnesses,
    verify_closure,
    verify_protocol,
    verify_symmetric,
)
from repro.errors import ProtocolError

ALL_PROTOCOLS = [
    AsymmetricNamingProtocol(4),
    SymmetricGlobalNamingProtocol(4),
    LeaderUniformNamingProtocol(4),
    CountingProtocol(4),
    SelfStabilizingNamingProtocol(4),
    GlobalNamingProtocol(4),
]


class TestVerifyProtocol:
    @pytest.mark.parametrize(
        "protocol", ALL_PROTOCOLS, ids=lambda p: type(p).__name__
    )
    def test_all_paper_protocols_well_formed(self, protocol):
        verify_protocol(protocol)

    def test_closure_rejects_out_of_range_output(self):
        bad = TableProtocol({(0, 0): (0, 5)}, mobile_states=[0, 1])
        with pytest.raises(ProtocolError, match="outside the mobile space"):
            verify_closure(bad)

    def test_symmetry_violation_detected(self):
        # (0, 1) -> (1, 1) but (1, 0) stays null.
        bad = TableProtocol(
            {(0, 1): (1, 1)}, mobile_states=[0, 1], symmetric=True
        )
        with pytest.raises(ProtocolError, match="asymmetric rule"):
            verify_symmetric(bad)

    def test_verify_protocol_checks_declared_symmetry(self):
        bad = TableProtocol(
            {(0, 1): (1, 1)}, mobile_states=[0, 1], symmetric=True
        )
        with pytest.raises(ProtocolError):
            verify_protocol(bad)

    def test_undeclared_symmetry_not_enforced(self):
        asym = TableProtocol(
            {(0, 1): (1, 1)}, mobile_states=[0, 1], symmetric=False
        )
        verify_protocol(asym)  # must not raise


class TestSymmetryDeclarations:
    @pytest.mark.parametrize(
        "protocol",
        [p for p in ALL_PROTOCOLS if p.symmetric],
        ids=lambda p: type(p).__name__,
    )
    def test_declared_symmetric_protocols_have_no_witnesses(self, protocol):
        assert asymmetric_witnesses(protocol) == []

    def test_asymmetric_protocol_has_witnesses(self):
        witnesses = asymmetric_witnesses(AsymmetricNamingProtocol(3))
        assert ((0, 0), ) != ()
        assert all(p == q for p, q in witnesses)
        assert witnesses  # homonym rules are oriented


class TestStateSpaceDeclarations:
    def test_asymmetric_uses_exactly_p_states(self):
        assert AsymmetricNamingProtocol(7).num_mobile_states == 7

    def test_symmetric_global_uses_p_plus_one(self):
        assert SymmetricGlobalNamingProtocol(7).num_mobile_states == 8

    def test_leader_uniform_uses_p(self):
        assert LeaderUniformNamingProtocol(7).num_mobile_states == 7

    def test_counting_uses_p(self):
        assert CountingProtocol(7).num_mobile_states == 7

    def test_selfstab_uses_p_plus_one(self):
        assert SelfStabilizingNamingProtocol(7).num_mobile_states == 8

    def test_global_naming_uses_p(self):
        assert GlobalNamingProtocol(7).num_mobile_states == 7

    def test_all_states_union(self):
        protocol = CountingProtocol(3)
        combined = protocol.all_states()
        assert protocol.mobile_state_space() <= combined
        assert protocol.leader_state_space() <= combined

    @pytest.mark.parametrize(
        "cls",
        [CountingProtocol, SelfStabilizingNamingProtocol, GlobalNamingProtocol],
    )
    def test_leader_space_built_once_per_instance(self, cls):
        protocol = cls(4)
        space = protocol.leader_state_space()
        assert protocol.leader_state_space() is space
        assert len(space) == protocol.leader_space_size()
        assert cls(4).leader_state_space() == space


class TestIsNull:
    def test_null_detection(self):
        protocol = AsymmetricNamingProtocol(3)
        assert protocol.is_null(0, 1)
        assert not protocol.is_null(1, 1)

    def test_repr_mentions_name_and_states(self):
        text = repr(AsymmetricNamingProtocol(3))
        assert "asymmetric naming" in text
        assert "3 mobile states" in text


class TestTableProtocol:
    def test_missing_entries_are_null(self):
        protocol = TableProtocol({}, mobile_states=[0, 1])
        assert protocol.transition(0, 1) == (0, 1)

    def test_table_copy_is_defensive(self):
        protocol = TableProtocol({(0, 0): (1, 1)}, mobile_states=[0, 1])
        protocol.table[(0, 0)] = (0, 0)
        assert protocol.transition(0, 0) == (1, 1)

    def test_requires_leader_follows_leader_states(self):
        from repro.analysis.enumeration import EnumLeaderState

        protocol = TableProtocol(
            {}, mobile_states=[0], leader_states=[EnumLeaderState(0)]
        )
        assert protocol.requires_leader
