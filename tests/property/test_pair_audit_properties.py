"""The one-pass pair audit answers exactly as the two scans it replaced.

Random table protocols - with leader states, results outside the
declared spaces and rules that move a state across the mobile/leader
boundary - are linted by the ``closure`` and ``symmetry`` rules and by
the oracles in :mod:`tests.oracles`.  Message, witness list, witness
order and limits must be equal, whichever of the two rules run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.protocol import (
    _unordered_state_pairs,
    asymmetric_witnesses,
    verify_closure,
    verify_protocol,
)
from repro.errors import ProtocolError
from repro.lint.rules import LintContext, check_closure, check_symmetry
from tests.oracles import (
    oracle_asymmetric_witnesses,
    oracle_closure,
    oracle_symmetry,
)
from tests.property.tables import RaisingProtocol, random_tables


RULE_SETS = [
    frozenset({"closure"}),
    frozenset({"symmetry"}),
    frozenset({"closure", "symmetry"}),
    None,
]


class TestAuditMatchesTwoScans:
    @settings(max_examples=400, deadline=None)
    @given(random_tables(), st.sampled_from(RULE_SETS))
    def test_lint_diagnostics_equal(self, protocol, rule_ids):
        ctx = LintContext(protocol=protocol, rule_ids=rule_ids)
        oracle_ctx = LintContext(protocol=protocol)
        if rule_ids is None or "closure" in rule_ids:
            assert check_closure(ctx) == oracle_closure(oracle_ctx)
        if rule_ids is None or "symmetry" in rule_ids:
            assert check_symmetry(ctx) == oracle_symmetry(oracle_ctx)

    @settings(max_examples=200, deadline=None)
    @given(
        random_tables(),
        st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    )
    def test_asymmetric_witnesses_equal(self, protocol, limit):
        assert asymmetric_witnesses(
            protocol, limit
        ) == oracle_asymmetric_witnesses(protocol, limit)

    @settings(max_examples=200, deadline=None)
    @given(random_tables())
    def test_verify_closure_reports_the_first_violation(self, protocol):
        expected = oracle_closure(LintContext(protocol=protocol))
        if not expected:
            verify_closure(protocol)
            return
        with pytest.raises(ProtocolError) as info:
            verify_closure(protocol)
        witness = expected[0].witness
        if isinstance(witness[0], dict):  # a leak: the first one is named
            assert str(info.value).endswith(witness[0]["escaped"])
        else:
            assert "raised" in str(info.value)

    @settings(max_examples=200, deadline=None)
    @given(random_tables())
    def test_verify_protocol_is_closure_then_symmetry(self, protocol):
        closure = oracle_closure(LintContext(protocol=protocol))
        asymmetric = protocol.symmetric and oracle_asymmetric_witnesses(
            protocol, 1
        )
        if not closure and not asymmetric:
            verify_protocol(protocol)
            return
        with pytest.raises(ProtocolError) as info:
            verify_protocol(protocol)
        assert ("asymmetric rule" in str(info.value)) == (not closure)


class TestRaisingPairs:
    @settings(max_examples=300, deadline=None)
    @given(random_tables(), st.data())
    def test_closure_reports_the_same_raise(self, protocol, data):
        pairs = sorted(
            {(p, q) for p in protocol.all_states() for q in protocol.all_states()},
            key=repr,
        )
        raising = data.draw(st.sets(st.sampled_from(pairs), max_size=3))
        bad = RaisingProtocol(
            protocol.table,
            protocol.mobile_state_space(),
            protocol.leader_state_space(),
            symmetric=protocol.symmetric,
            display_name="raising fuzz",
            raising=raising,
        )
        ctx = LintContext(protocol=bad)
        assert check_closure(ctx) == oracle_closure(LintContext(protocol=bad))
        # The oracle's symmetry scan propagates the exception; the rule
        # reports the asymmetric pairs before the raising one, or nothing.
        try:
            expected = oracle_symmetry(LintContext(protocol=bad))
        except RuntimeError:
            before = []
            for p, q in _unordered_state_pairs(bad):
                if (p, q) in raising or (q, p) in raising:
                    break
                p2, q2 = bad.transition(p, q)
                q3, p3 = bad.transition(q, p)
                if (p2, q2) != (p3, q3):
                    before.append([repr(p), repr(q)])
            found = check_symmetry(ctx)
            if bad.symmetric and before:
                (diag,) = found
                assert [w["pair"] for w in diag.witness] == before
            else:
                assert found == []
        else:
            assert check_symmetry(ctx) == expected
