"""Property-based cross-validation of the verification machinery.

Random tiny protocols are generated with hypothesis and the three
independent implementations are pitted against each other:

* the labelled global-fairness checker vs. the symbolic sink check on
  the counts quotient - they were derived separately (vector SCCs vs.
  count-row SCCs) and must agree;
* the labelled weak-fairness checker vs. the symbolic liveness check,
  whose replayed witnesses must back every FAIL;
* the weak-fairness checker vs. the counterexample synthesizer - whenever
  the checker says "fails", the synthesizer must produce a schedule that
  replays correctly, and whenever it says "solves", synthesis must fail.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.counterexample import (
    synthesize_weak_counterexample,
    verify_counterexample,
)
from repro.analysis.model_checker import check_naming_global
from repro.analysis.reachability import arbitrary_initial_configurations
from repro.analysis.symbolic import check_liveness, check_sinks
from repro.analysis.weak_fairness import check_naming_weak
from repro.engine.population import Population
from repro.engine.protocol import TableProtocol
from repro.errors import VerificationError


@st.composite
def random_protocols(draw, num_states=2):
    """A random deterministic leaderless protocol on ``num_states``."""
    states = list(range(num_states))
    table = {}
    for p in states:
        for q in states:
            out = (
                draw(st.sampled_from(states)),
                draw(st.sampled_from(states)),
            )
            if out != (p, q):
                table[(p, q)] = out
    return TableProtocol(table, states, display_name="fuzz")


class TestLabelledVsQuotient:
    @settings(max_examples=150, deadline=None)
    @given(random_protocols(), st.integers(min_value=2, max_value=3))
    def test_global_checkers_agree(self, protocol, n):
        population = Population(n)
        labelled = check_naming_global(
            protocol,
            population,
            arbitrary_initial_configurations(protocol, population),
        )
        quotient = check_sinks(protocol, n, mobile_mode="arbitrary")
        assert labelled.solves == quotient.holds

    @settings(max_examples=50, deadline=None)
    @given(random_protocols(num_states=3))
    def test_three_state_agreement(self, protocol):
        population = Population(2)
        labelled = check_naming_global(
            protocol,
            population,
            arbitrary_initial_configurations(protocol, population),
        )
        quotient = check_sinks(protocol, 2, mobile_mode="arbitrary")
        assert labelled.solves == quotient.holds

    @staticmethod
    def assert_weak_agreement(protocol, n):
        population = Population(n)
        labelled = check_naming_weak(
            protocol,
            population,
            arbitrary_initial_configurations(protocol, population),
        )
        quotient = check_liveness(protocol, n, mobile_mode="arbitrary")
        assert labelled.solves == quotient.holds, protocol.table
        if not quotient.holds:
            assert quotient.replay_validated is True

    @settings(max_examples=150, deadline=None)
    @given(random_protocols(), st.integers(min_value=2, max_value=3))
    def test_weak_checkers_agree(self, protocol, n):
        self.assert_weak_agreement(protocol, n)

    @settings(max_examples=50, deadline=None)
    @given(random_protocols(num_states=3))
    def test_weak_three_state_agreement(self, protocol):
        self.assert_weak_agreement(protocol, 3)


class TestWeakCheckerVsSynthesizer:
    @settings(max_examples=100, deadline=None)
    @given(random_protocols(), st.integers(min_value=2, max_value=3))
    def test_verdict_matches_synthesizability(self, protocol, n):
        population = Population(n)
        initial = list(
            arbitrary_initial_configurations(protocol, population)
        )
        verdict = check_naming_weak(protocol, population, initial)
        if verdict.solves:
            try:
                synthesize_weak_counterexample(
                    protocol, population, initial
                )
            except VerificationError:
                return  # expected: no counterexample exists
            raise AssertionError(
                "synthesizer found a counterexample the checker missed"
            )
        cex = synthesize_weak_counterexample(protocol, population, initial)
        assert verify_counterexample(protocol, population, cex), (
            protocol.table,
            cex,
        )


class TestFairnessHierarchy:
    @settings(max_examples=100, deadline=None)
    @given(random_protocols(), st.integers(min_value=2, max_value=3))
    def test_weak_solvability_implies_global_solvability(self, protocol, n):
        """Every globally fair execution that keeps meeting all pairs is
        weakly fair-like on finite graphs: concretely, a sink SCC that
        would break global fairness also yields a weak counterexample.
        The contrapositive - weak-solvers pass the global check - is a
        theorem on finite instances and a strong sanity invariant."""
        population = Population(n)
        initial = list(
            arbitrary_initial_configurations(protocol, population)
        )
        weak = check_naming_weak(protocol, population, initial)
        if weak.solves:
            global_verdict = check_naming_global(
                protocol, population, initial
            )
            assert global_verdict.solves
