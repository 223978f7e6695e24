"""Each lint rule catches its seeded bug and stays quiet on clean
protocols — the acceptance criterion for the static half of the lint
engine."""

import pytest

from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.selfstab_naming import SelfStabilizingNamingProtocol
from repro.core.spec import (
    Fairness,
    LeaderKind,
    MobileInit,
    ModelSpec,
    Symmetry,
)
from repro.engine.protocol import TableProtocol
from repro.lint import LintBudgets, Severity, lint_protocol
from tests.property.tables import Boss, homonym_leak_table


def by_rule(report, rule_id):
    return [d for d in report.diagnostics if d.rule == rule_id]


class UniformTableProtocol(TableProtocol):
    """A table protocol with a designated initial mobile state.

    Without one, arbitrary initialization makes every state "initial"
    and nothing is unreachable — so reachability-based rules need this.
    """

    def __init__(self, *args, initial=0, **kwargs):
        super().__init__(*args, **kwargs)
        self._initial = initial

    def initial_mobile_state(self):
        return self._initial


WEAK_ASYM = ModelSpec(
    Fairness.WEAK, Symmetry.ASYMMETRIC, LeaderKind.NONE, MobileInit.ARBITRARY
)
WEAK_SYM_LEADER = ModelSpec(
    Fairness.WEAK,
    Symmetry.SYMMETRIC,
    LeaderKind.NON_INITIALIZED,
    MobileInit.ARBITRARY,
)


class TestClosureRule:
    def test_role_leak_reported_with_witness(self):
        leaky = TableProtocol(
            {(0, 1): (0, 7)},  # 7 is not a declared state
            mobile_states=[0, 1],
            display_name="leaky",
        )
        report = lint_protocol(leaky, rules=["closure"])
        (diag,) = by_rule(report, "closure")
        assert diag.severity is Severity.ERROR
        assert diag.witness[0]["escaped"] == "7"
        assert report.exit_code() == 1

    def test_clean_protocol_quiet(self):
        report = lint_protocol(
            AsymmetricNamingProtocol(4), rules=["closure"]
        )
        assert report.diagnostics == []
        assert report.exit_code() == 0


class TestSymmetryRule:
    def test_asymmetric_under_symmetric_claim(self):
        fake = TableProtocol(
            {(0, 1): (1, 0)},
            mobile_states=[0, 1],
            symmetric=True,
            display_name="fake-symmetric",
        )
        report = lint_protocol(fake, rules=["symmetry"])
        (diag,) = by_rule(report, "symmetry")
        assert diag.severity is Severity.ERROR
        assert diag.witness[0]["pair"] == ["0", "1"]

    def test_symmetric_under_asymmetric_claim_is_fidelity_bug(self):
        secretly = TableProtocol(
            {(0, 1): (1, 1), (1, 0): (1, 1)},
            mobile_states=[0, 1],
            symmetric=False,
            display_name="secretly-symmetric",
        )
        report = lint_protocol(secretly, rules=["symmetry"])
        (diag,) = by_rule(report, "symmetry")
        assert diag.severity is Severity.ERROR
        assert "symmetric column" in diag.message

    def test_both_registered_protocols_clean(self):
        for protocol in (
            AsymmetricNamingProtocol(4),
            SelfStabilizingNamingProtocol(4),
        ):
            report = lint_protocol(protocol, rules=["symmetry"])
            assert report.diagnostics == []


class TestStateBudgetRule:
    def test_over_budget_is_error(self):
        report = lint_protocol(
            AsymmetricNamingProtocol(4),
            spec=WEAK_ASYM,
            bound=3,
            rules=["state-budget"],
        )
        (diag,) = by_rule(report, "state-budget")
        assert diag.severity is Severity.ERROR
        assert diag.witness == {"declared": 4, "optimal": 3}

    def test_under_budget_is_error_too(self):
        report = lint_protocol(
            AsymmetricNamingProtocol(3),
            spec=WEAK_ASYM,
            bound=4,
            rules=["state-budget"],
        )
        (diag,) = by_rule(report, "state-budget")
        assert "lower bound" in diag.message

    def test_exact_budget_quiet_and_spec_free_lint_skips(self):
        on_budget = lint_protocol(
            AsymmetricNamingProtocol(4),
            spec=WEAK_ASYM,
            bound=4,
            rules=["state-budget"],
        )
        assert on_budget.diagnostics == []
        no_spec = lint_protocol(
            AsymmetricNamingProtocol(4), rules=["state-budget"]
        )
        assert no_spec.diagnostics == []


class TestLeaderDisciplineRule:
    def test_leaderless_protocol_under_leader_spec_is_legal(self):
        # The paper reuses leaderless protocols when the leader buys
        # nothing (e.g. initialized leader + weak fairness + arbitrary
        # init is served by the self-stabilizing protocol).
        report = lint_protocol(
            SelfStabilizingNamingProtocol(4),
            spec=WEAK_SYM_LEADER,
            bound=4,
            rules=["leader-discipline"],
        )
        assert report.diagnostics == []

    def test_leader_required_under_leaderless_spec_is_error(self):
        needs_leader = TableProtocol(
            {},
            mobile_states=[0, 1],
            leader_states=["L"],
            symmetric=True,
            display_name="needs-leader",
        )
        report = lint_protocol(
            needs_leader,
            spec=ModelSpec(
                Fairness.GLOBAL,
                Symmetry.SYMMETRIC,
                LeaderKind.NONE,
                MobileInit.ARBITRARY,
            ),
            bound=2,
            rules=["leader-discipline"],
        )
        diags = by_rule(report, "leader-discipline")
        assert any("no leader" in d.message for d in diags)
        assert report.exit_code() == 1

    def test_asymmetric_protocol_under_symmetric_spec_is_error(self):
        report = lint_protocol(
            AsymmetricNamingProtocol(4),
            spec=ModelSpec(
                Fairness.WEAK,
                Symmetry.SYMMETRIC,
                LeaderKind.NON_INITIALIZED,
                MobileInit.ARBITRARY,
            ),
            bound=4,
            rules=["leader-discipline"],
        )
        diags = by_rule(report, "leader-discipline")
        assert any("symmetric" in d.message for d in diags)


class TestReachableStatesRule:
    def test_unreachable_mobile_state_warned(self):
        # All agents start at 0 and no transition ever produces 2.
        wasteful = UniformTableProtocol(
            {(0, 0): (0, 1)},
            mobile_states=[0, 1, 2],
            display_name="wasteful",
        )
        report = lint_protocol(wasteful, rules=["reachable-states"])
        (diag,) = by_rule(report, "reachable-states")
        assert diag.severity is Severity.WARNING
        assert "2" in diag.witness
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_budget_cap_reports_info_not_silence(self):
        report = lint_protocol(
            AsymmetricNamingProtocol(4),
            rules=["reachable-states"],
            budgets=LintBudgets(max_closure_states=2),
        )
        (diag,) = by_rule(report, "reachable-states")
        assert diag.severity is Severity.INFO
        assert "skipped" in diag.message
        assert report.exit_code(strict=True) == 0


class TestDeadTableEntriesRule:
    def test_dead_entries_classified(self):
        dead = TableProtocol(
            {
                (0, 1): (1, 1),
                (2, 2): (2, 2),  # identity: null by definition
                (5, 0): (0, 0),  # key outside the space
            },
            mobile_states=[0, 1, 2],
            display_name="dead-entries",
        )
        report = lint_protocol(dead, rules=["dead-table-entries"])
        (diag,) = by_rule(report, "dead-table-entries")
        reasons = {w["reason"] for w in diag.witness}
        assert any("identity" in r for r in reasons)
        assert any("outside" in r for r in reasons)

    def test_unreachable_key_detected(self):
        # All agents start at 0; state 2 never arises, so the (2, 0)
        # entry can never fire.
        unreachable_key = UniformTableProtocol(
            {(0, 0): (0, 1), (2, 0): (0, 0)},
            mobile_states=[0, 1, 2],
            display_name="unreachable-key",
        )
        report = lint_protocol(
            unreachable_key, rules=["dead-table-entries"]
        )
        (diag,) = by_rule(report, "dead-table-entries")
        assert any("unreachable" in w["reason"] for w in diag.witness)

    def test_non_table_protocols_skip(self):
        report = lint_protocol(
            SelfStabilizingNamingProtocol(4), rules=["dead-table-entries"]
        )
        assert report.diagnostics == []


class TestSilentConfigsNamedRule:
    def test_colliding_sink_is_error(self):
        # All interactions are null, so every initial configuration is
        # silent — including the homonymous ones.
        frozen = TableProtocol(
            {},
            mobile_states=[0, 1, 2],
            display_name="frozen",
        )
        report = lint_protocol(frozen, rules=["silent-configs-named"])
        (diag,) = by_rule(report, "silent-configs-named")
        assert diag.severity is Severity.ERROR
        assert any(len(set(names)) < len(names) for names in diag.witness)

    def test_real_protocol_clean(self):
        report = lint_protocol(
            SelfStabilizingNamingProtocol(3), rules=["silent-configs-named"]
        )
        assert by_rule(report, "silent-configs-named") == []

    def test_fallback_witnesses_in_discovery_order(self):
        # State 7 is undeclared, so the symbolic checker cannot compile
        # the table and the explicit exploration answers. Every start
        # holds a homonym pair; breadth-first from the eight starts in
        # product order, the silent configurations (two 7s each) are
        # found as below, and the report names the first five.
        report = lint_protocol(
            homonym_leak_table(), rules=["silent-configs-named"]
        )
        (diag,) = by_rule(report, "silent-configs-named")
        assert diag.witness == [
            ["7", "7", "0"],
            ["7", "0", "7"],
            ["0", "7", "7"],
            ["7", "7", "1"],
            ["7", "1", "7"],
        ]

    def test_exploration_budget_reports_info(self):
        report = lint_protocol(
            SelfStabilizingNamingProtocol(4),
            rules=["silent-configs-named"],
            budgets=LintBudgets(max_reach_roots=1),
        )
        (diag,) = by_rule(report, "silent-configs-named")
        assert diag.severity is Severity.INFO


class TestSinkDisciplineRule:
    def test_self_stabilizing_protocol_satisfies_prop6(self):
        report = lint_protocol(
            SelfStabilizingNamingProtocol(4),
            spec=ModelSpec(
                Fairness.WEAK,
                Symmetry.SYMMETRIC,
                LeaderKind.NON_INITIALIZED,
                MobileInit.ARBITRARY,
            ),
            bound=4,
            rules=["sink-discipline"],
        )
        assert report.diagnostics == []

    def test_two_sink_protocol_violates_prop6(self):
        # Symmetric, but 0-0 and 1-1 pairs both self-loop silently:
        # two sinks, so Proposition 6's unique-sink argument fails.
        two_sinks = TableProtocol(
            {(0, 2): (0, 0), (2, 0): (0, 0), (1, 2): (1, 1), (2, 1): (1, 1)},
            mobile_states=[0, 1, 2],
            symmetric=True,
            display_name="two-sinks",
        )
        report = lint_protocol(
            two_sinks,
            spec=ModelSpec(
                Fairness.WEAK,
                Symmetry.SYMMETRIC,
                LeaderKind.NON_INITIALIZED,
                MobileInit.ARBITRARY,
            ),
            bound=3,
            rules=["sink-discipline"],
        )
        diags = by_rule(report, "sink-discipline")
        assert len(diags) == 1
        assert diags[0].severity is Severity.ERROR

    def test_out_of_premises_specs_skip(self):
        report = lint_protocol(
            SelfStabilizingNamingProtocol(4),
            spec=ModelSpec(
                Fairness.GLOBAL,
                Symmetry.SYMMETRIC,
                LeaderKind.NON_INITIALIZED,
                MobileInit.ARBITRARY,
            ),
            bound=4,
            rules=["sink-discipline"],
        )
        assert report.diagnostics == []


class TestRuleSelection:
    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            lint_protocol(AsymmetricNamingProtocol(3), rules=["bogus"])


class RaisingTableProtocol(TableProtocol):
    """A two-state table protocol whose ``transition(1, 0)`` raises."""

    def transition(self, p, q):
        if (p, q) == (1, 0):
            raise RuntimeError("no rule for (1, 0)")
        return super().transition(p, q)


class TestRaisingTransition:
    """No rule raises on a raising transition; ``closure`` reports it."""

    @staticmethod
    def protocol():
        return RaisingTableProtocol(
            {}, mobile_states=[0, 1], symmetric=True, display_name="raising"
        )

    @staticmethod
    def assert_only_the_raise(report):
        (diag,) = report.diagnostics
        assert diag.rule == "closure"
        assert diag.severity is Severity.ERROR
        assert diag.message == (
            "transition(1, 0) raised RuntimeError('no rule for (1, 0)')"
        )
        assert diag.witness == ["1", "0"]

    def test_closure_alone_reports_the_raising_pair(self):
        self.assert_only_the_raise(
            lint_protocol(self.protocol(), rules=["closure"])
        )

    @pytest.mark.parametrize(
        "rule_id",
        [
            "symmetry",
            "reachable-states",
            "dead-table-entries",
            "silent-configs-named",
        ],
    )
    def test_other_rules_alone_report_nothing(self, rule_id):
        report = lint_protocol(self.protocol(), rules=[rule_id])
        assert report.diagnostics == []

    def test_all_rules_report_only_the_raise(self):
        self.assert_only_the_raise(lint_protocol(self.protocol()))

    def test_spec_rules_do_not_raise(self):
        # sink-discipline and weak-liveness run their analyses under
        # this spec.  Both states are null homonym self-loops, so the
        # two sinks violate Proposition 6 whatever (1, 0) does.
        report = lint_protocol(self.protocol(), spec=WEAK_SYM_LEADER)
        closure, sink = report.diagnostics
        assert closure.rule == "closure"
        assert closure.message.startswith("transition(1, 0) raised")
        assert sink.rule == "sink-discipline"
        assert "expected a unique sink state, found [0, 1]" in sink.message


class CountingTableProtocol(TableProtocol):
    """A table protocol that counts its ``transition`` calls."""

    calls = 0

    def transition(self, p, q):
        self.calls += 1
        return super().transition(p, q)


class TestPairAudit:
    def test_closure_and_symmetry_evaluate_each_pair_once(self):
        # Closed and symmetric, so both scans run to the end: 3 x 3
        # mobile pairs and 2 x 3 leader pairs.
        leader = Boss(0)
        protocol = CountingTableProtocol(
            {
                (1, 1): (0, 0),
                (leader, 2): (leader, 0),
                (2, leader): (0, leader),
            },
            mobile_states=[0, 1, 2],
            leader_states=[leader],
            symmetric=True,
        )
        report = lint_protocol(protocol, rules=["closure", "symmetry"])
        assert report.diagnostics == []
        assert protocol.calls == 9 + 6
