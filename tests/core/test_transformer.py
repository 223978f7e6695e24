"""Tests for the asymmetric-to-symmetric transformer (footnote 5, [17])."""

import pytest

from repro.analysis.model_checker import check_naming_global
from repro.analysis.reachability import arbitrary_initial_configurations
from repro.analysis.symbolic import check_sinks
from repro.analysis.weak_fairness import check_naming_weak
from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.counting import CountingProtocol
from repro.core.transformer import ProjectedNamingProblem, SymmetrizedProtocol
from repro.engine.configuration import Configuration
from repro.engine.population import Population
from repro.engine.protocol import verify_protocol, verify_symmetric
from repro.engine.simulator import Simulator
from repro.errors import ProtocolError
from repro.schedulers.random_pair import RandomPairScheduler


def transformed(bound):
    return SymmetrizedProtocol(AsymmetricNamingProtocol(bound))


class TestConstruction:
    def test_rejects_leadered_inner(self):
        with pytest.raises(ProtocolError):
            SymmetrizedProtocol(CountingProtocol(3))

    def test_doubles_the_state_space(self):
        protocol = transformed(5)
        assert protocol.num_mobile_states == 10  # 2P, vs P+1 for Prop. 13

    def test_transformed_protocol_is_symmetric(self):
        protocol = transformed(4)
        verify_symmetric(protocol)
        verify_protocol(protocol)

    def test_equal_coins_flip(self):
        protocol = transformed(4)
        assert protocol.transition((2, 0), (3, 0)) == ((2, 1), (3, 1))
        assert protocol.transition((2, 1), (3, 1)) == ((2, 0), (3, 0))

    def test_different_coins_run_inner_with_zero_as_initiator(self):
        protocol = transformed(4)
        # Inner rule fires only on homonyms: (s, s) -> (s, s + 1).
        assert protocol.transition((2, 0), (2, 1)) == ((2, 0), (3, 1))
        assert protocol.transition((2, 1), (2, 0)) == ((3, 1), (2, 0))

    def test_projection_strips_coin(self):
        assert SymmetrizedProtocol.project((7, 1)) == 7

    def test_initial_state_tags_inner_initial(self):
        protocol = transformed(4)
        assert protocol.initial_mobile_state() is None  # inner is selfstab


class TestConvergence:
    @pytest.mark.parametrize("n,bound", [(3, 3), (4, 4), (5, 8)])
    def test_converges_under_random_scheduler(self, n, bound):
        protocol = transformed(bound)
        pop = Population(n)
        simulator = Simulator(
            protocol,
            pop,
            RandomPairScheduler(pop, seed=n),
            ProjectedNamingProblem(),
        )
        result = simulator.run(
            Configuration.uniform(pop, (0, 0)), max_interactions=1_000_000
        )
        assert result.converged
        names = [SymmetrizedProtocol.project(s) for s in result.names()]
        assert len(set(names)) == n

    def test_two_agents_locked_in_coin_step(self):
        """Like Prop. 13, the construction cannot break a fully symmetric
        pair: equal coins flip together forever."""
        protocol = transformed(3)
        pop = Population(2)
        simulator = Simulator(
            protocol,
            pop,
            RandomPairScheduler(pop, seed=0),
            ProjectedNamingProblem(),
        )
        result = simulator.run(
            Configuration.uniform(pop, (1, 0)), max_interactions=30_000
        )
        assert not result.converged


class TestExactVerification:
    """Machine-checked footnote 5: the transformer works under global
    fairness (with 2P states) and fails under weak fairness."""

    def test_solves_global_n3_labeled_checker(self):
        protocol = transformed(3)
        pop = Population(3)
        verdict = check_naming_global(
            protocol,
            pop,
            arbitrary_initial_configurations(protocol, pop),
            name_of=SymmetrizedProtocol.project,
        )
        assert verdict.solves

    def test_solves_global_n3_quotient_checker(self):
        protocol = transformed(3)
        verdict = check_sinks(
            protocol,
            3,
            mobile_mode="arbitrary",
            name_of=SymmetrizedProtocol.project,
        )
        assert verdict.holds

    def test_fails_global_n2(self):
        protocol = transformed(3)
        verdict = check_sinks(
            protocol,
            2,
            mobile_mode="arbitrary",
            name_of=SymmetrizedProtocol.project,
        )
        assert not verdict.holds

    def test_fails_under_weak_fairness(self):
        """The transformer needs global fairness (footnote 5): the exact
        weak checker finds the coin-flip livelock."""
        protocol = transformed(3)
        pop = Population(3)
        verdict = check_naming_weak(
            protocol,
            pop,
            arbitrary_initial_configurations(protocol, pop),
            name_of=SymmetrizedProtocol.project,
        )
        assert not verdict.solves

    def test_space_comparison_with_prop13(self):
        """Footnote 5 quantified: 2P transformed states vs P + 1 native."""
        from repro.core.symmetric_global import SymmetricGlobalNamingProtocol

        for bound in (3, 5, 9):
            assert (
                transformed(bound).num_mobile_states
                > SymmetricGlobalNamingProtocol(bound).num_mobile_states
            )


class TestProjectedNamingProblem:
    def test_satisfied_on_distinct_inner_names(self):
        problem = ProjectedNamingProblem()
        config = Configuration(((0, 0), (1, 1), (2, 0)))
        assert problem.is_satisfied(config)

    def test_unsatisfied_on_inner_homonyms_despite_distinct_tags(self):
        problem = ProjectedNamingProblem()
        config = Configuration(((0, 0), (0, 1)))
        assert not problem.is_satisfied(config)

    def test_stability_is_coin_agnostic(self):
        """Distinct names with equal coins must already be certified
        stable: a one-step look at tagged pairs would wrongly pass a
        protocol whose inner rule only fires after a flip."""
        protocol = transformed(3)
        problem = ProjectedNamingProblem()
        config = Configuration(((0, 0), (1, 0), (2, 0)))
        assert problem.is_solved(protocol, config)

    def test_instability_detected_through_coins(self):
        protocol = transformed(3)
        problem = ProjectedNamingProblem()
        # Two inner homonyms: the inner rule will fire once coins differ.
        config = Configuration(((0, 0), (0, 0), (2, 0)))
        assert not problem.is_stable(protocol, config)
