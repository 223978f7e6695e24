"""Integration tests pinning the paper's headline claims, cell by cell.

These are the reproduction's acceptance tests: each test names the paper
statement it checks and uses the strongest verification the instance size
allows (exact model checking where feasible, certified simulated
convergence elsewhere).
"""

import pytest

from repro.analysis.enumeration import (
    search,
    symmetric_leadered_protocols,
    symmetric_leaderless_protocols,
)
from repro.analysis.model_checker import check_naming_global
from repro.analysis.reachability import arbitrary_initial_configurations
from repro.analysis.weak_fairness import check_naming_weak
from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.global_naming import GlobalNamingProtocol
from repro.core.leader_uniform import LeaderUniformNamingProtocol
from repro.core.selfstab_naming import SelfStabilizingNamingProtocol
from repro.core.spec import Fairness, MobileInit
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.population import Population
from repro.engine.problems import NamingProblem
from repro.engine.simulator import Simulator
from repro.schedulers.matching import MatchingScheduler


class TestProposition1:
    """Symmetric + weak fairness + no leader: impossible."""

    def test_matching_adversary_preserves_symmetry(self):
        n = 8
        protocol = SymmetricGlobalNamingProtocol(n)
        pop = Population(n)
        scheduler = MatchingScheduler(pop)
        simulator = Simulator(protocol, pop, scheduler, NamingProblem())
        budget = 50_000 - 50_000 % (n // 2)
        result = simulator.run(Configuration.uniform(pop, 2), budget)
        assert not result.converged
        assert len(set(result.final_configuration.mobile_states)) == 1

    def test_exhaustive_weak_refutation_p2(self):
        outcome = search(
            symmetric_leaderless_protocols(2),
            sizes=[2],
            fairness=Fairness.WEAK,
            mobile_init=MobileInit.UNIFORM,
        )
        assert not outcome.any_solves


class TestProposition2:
    """P-state symmetric leaderless naming impossible (both fairness)."""

    def test_exhaustive_global_refutation_p2(self):
        outcome = search(
            symmetric_leaderless_protocols(2),
            sizes=[2],
            fairness=Fairness.GLOBAL,
            mobile_init=MobileInit.UNIFORM,
        )
        assert not outcome.any_solves


class TestProposition4:
    """P-state symmetric naming impossible with an arbitrarily
    initialized leader (here: exhaustively for bounded leader spaces)."""

    @pytest.mark.parametrize("leader_states", [1, 2])
    def test_exhaustive_refutation(self, leader_states):
        outcome = search(
            symmetric_leadered_protocols(2, leader_states),
            sizes=[2],
            fairness=Fairness.GLOBAL,
            arbitrary_leader=True,
        )
        assert not outcome.any_solves


class TestProposition4Tightness:
    """The flip side of Prop. 4: Protocol 3 works *because* its leader is
    initialized - with an arbitrary leader the same P-state protocol
    fails, exactly as the proposition demands."""

    def test_protocol3_fails_with_arbitrary_leader(self):
        from repro.analysis.symbolic import check_sinks

        protocol = GlobalNamingProtocol(2)
        # leader_states=None: every leader state is a legal start.
        verdict = check_sinks(protocol, 2, mobile_mode="arbitrary")
        assert not verdict.holds

    def test_protocol3_succeeds_with_initialized_leader(self):
        from repro.analysis.symbolic import check_sinks

        protocol = GlobalNamingProtocol(2)
        verdict = check_sinks(
            protocol,
            2,
            mobile_mode="arbitrary",
            leader_states=[protocol.initial_leader_state()],
        )
        assert verdict.holds


class TestTheorem11:
    """P-state symmetric naming impossible under weak fairness even with
    an INITIALIZED leader and non-initialized mobiles."""

    @pytest.mark.parametrize("leader_states", [1, 2])
    def test_exhaustive_refutation(self, leader_states):
        outcome = search(
            symmetric_leadered_protocols(2, leader_states),
            sizes=[2],
            fairness=Fairness.WEAK,
        )
        assert not outcome.any_solves

    def test_tightness_one_extra_state_suffices(self):
        protocol = SelfStabilizingNamingProtocol(2)  # 3 = P + 1 states
        pop = Population(2, has_leader=True)
        verdict = check_naming_weak(
            protocol, pop, arbitrary_initial_configurations(protocol, pop)
        )
        assert verdict.solves


class TestProposition12:
    """Asymmetric: P states, self-stabilizing, leaderless, any fairness."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_weak_verification(self, n):
        protocol = AsymmetricNamingProtocol(3)
        pop = Population(n)
        verdict = check_naming_weak(
            protocol, pop, arbitrary_initial_configurations(protocol, pop)
        )
        assert verdict.solves

    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_global_verification(self, n):
        protocol = AsymmetricNamingProtocol(3)
        pop = Population(n)
        verdict = check_naming_global(
            protocol, pop, arbitrary_initial_configurations(protocol, pop)
        )
        assert verdict.solves


class TestProposition13:
    """Symmetric, leaderless, self-stabilizing, global fairness,
    P + 1 states, N > 2."""

    def test_exact_verification_n3(self):
        protocol = SymmetricGlobalNamingProtocol(3)
        pop = Population(3)
        verdict = check_naming_global(
            protocol, pop, arbitrary_initial_configurations(protocol, pop)
        )
        assert verdict.solves

    def test_n_greater_than_2_is_necessary(self):
        protocol = SymmetricGlobalNamingProtocol(3)
        pop = Population(2)
        verdict = check_naming_global(
            protocol, pop, arbitrary_initial_configurations(protocol, pop)
        )
        assert not verdict.solves


class TestProposition14:
    """Initialized leader + uniform initialization: P states, weak."""

    @pytest.mark.parametrize("n,bound", [(2, 2), (3, 3), (2, 3)])
    def test_exact_verification(self, n, bound):
        protocol = LeaderUniformNamingProtocol(bound)
        pop = Population(n, has_leader=True)
        start = Configuration.uniform(
            pop,
            protocol.initial_mobile_state(),
            protocol.initial_leader_state(),
        )
        verdict = check_naming_weak(protocol, pop, [start])
        assert verdict.solves


class TestProposition16:
    """Self-stabilizing naming, weak fairness, leader, P + 1 states."""

    @pytest.mark.parametrize("n,bound", [(2, 2), (3, 3)])
    def test_exact_verification_with_arbitrary_leader(self, n, bound):
        protocol = SelfStabilizingNamingProtocol(bound)
        pop = Population(n, has_leader=True)
        verdict = check_naming_weak(
            protocol, pop, arbitrary_initial_configurations(protocol, pop)
        )
        assert verdict.solves


class TestProposition17:
    """Initialized leader, global fairness, P states (incl. N = P)."""

    @pytest.mark.parametrize("n,bound", [(2, 2), (3, 3), (2, 4), (4, 4)])
    def test_exact_verification(self, n, bound):
        protocol = GlobalNamingProtocol(bound)
        pop = Population(n, has_leader=True)
        verdict = check_naming_global(
            protocol,
            pop,
            arbitrary_initial_configurations(
                protocol, pop, leader_states=[protocol.initial_leader_state()]
            ),
        )
        assert verdict.solves

    def test_p_states_fail_under_weak_fairness_at_full_population(self):
        """The same protocol under weak fairness cannot name N = P -
        exactly why Table 1 charges P + 1 states for that cell."""
        protocol = GlobalNamingProtocol(2)
        pop = Population(2, has_leader=True)
        verdict = check_naming_weak(
            protocol,
            pop,
            arbitrary_initial_configurations(
                protocol, pop, leader_states=[protocol.initial_leader_state()]
            ),
        )
        assert not verdict.solves
