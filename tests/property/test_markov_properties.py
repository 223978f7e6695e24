"""Property-based validation of the lumped-chain expected times.

Two independent consistency checks on random protocols:

* the returned expectations satisfy the one-step Bellman equations
  ``t(s) = 1 + sum_s' P(s -> s') t(s')`` (recomputed from scratch);
* absorbed classes report zero.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.markov import (
    _transition_draws,
    expected_convergence_time,
    naming_absorbing,
)
from repro.engine.protocol import TableProtocol
from repro.errors import VerificationError


@st.composite
def convergent_protocols(draw):
    """Random 2-state leaderless protocols; not all converge - the test
    filters on solvability via the exception contract."""
    states = [0, 1]
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


class TestBellmanConsistency:
    @settings(max_examples=120, deadline=None)
    @given(convergent_protocols(), st.integers(min_value=2, max_value=4))
    def test_one_step_equations_hold(self, protocol, n):
        from itertools import combinations_with_replacement

        starts = [
            (tuple(sorted(m)), None)
            for m in combinations_with_replacement([0, 1], n)
        ]
        absorbing = naming_absorbing(protocol)
        try:
            times = expected_convergence_time(protocol, starts, absorbing)
        except VerificationError:
            return  # the protocol does not converge from every class
        for node, expectation in times.items():
            if absorbing(node):
                assert expectation == 0.0
                continue
            weights, draws = _transition_draws(
                protocol, node, has_leader=False
            )
            assert sum(weights.values()) == draws
            bellman = 1.0 + sum(
                weight / draws * times[target]
                for target, weight in weights.items()
            )
            assert abs(bellman - expectation) < 1e-6 * max(1.0, expectation)

    @settings(max_examples=60, deadline=None)
    @given(convergent_protocols())
    def test_expectations_nonnegative(self, protocol):
        starts = [((0, 0), None), ((0, 1), None), ((1, 1), None)]
        try:
            times = expected_convergence_time(
                protocol, starts, naming_absorbing(protocol)
            )
        except VerificationError:
            return
        assert all(value >= 0 for value in times.values())
