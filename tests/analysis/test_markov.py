"""Tests for exact expected-time computation on the lumped chain."""

import math
from fractions import Fraction

import pytest

from repro.analysis.markov import (
    _explore,
    expected_convergence_time,
    naming_absorbing,
)
from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.global_naming import GlobalNamingProtocol
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.protocol import TableProtocol
from repro.errors import VerificationError


class TestNamingAbsorbing:
    def test_distinct_and_silent_is_absorbing(self):
        protocol = AsymmetricNamingProtocol(3)
        assert naming_absorbing(protocol)(((0, 1, 2), None))

    def test_duplicates_not_absorbing(self):
        protocol = AsymmetricNamingProtocol(3)
        assert not naming_absorbing(protocol)(((0, 0, 2), None))

    def test_distinct_but_renaming_pending_not_absorbing(self):
        """Protocol 3 mid-sweep: distinct names, pointer below P - the
        leader will still rename, so the class is not absorbed."""
        protocol = GlobalNamingProtocol(3)
        from repro.core.global_naming import GlobalLeaderState

        mid_sweep = ((0, 1, 2), GlobalLeaderState(3, 4, 1))
        done = ((0, 1, 2), GlobalLeaderState(3, 4, 3))
        predicate = naming_absorbing(protocol)
        assert not predicate(mid_sweep)
        assert predicate(done)

    def test_prop13_reset_agent_not_absorbing(self):
        protocol = SymmetricGlobalNamingProtocol(3)
        assert not naming_absorbing(protocol)(((1, 2, 3), None))  # 3 = reset


class TestAbsorptionProbability:
    def test_correct_protocol_absorbs_almost_surely(self):
        from repro.analysis.markov import absorption_probability

        protocol = AsymmetricNamingProtocol(3)
        start = ((0, 0, 0), None)
        probs = absorption_probability(
            protocol, [start], naming_absorbing(protocol)
        )
        assert probs[start] == pytest.approx(1.0)

    def test_prop13_two_agent_cycle_never_absorbs(self):
        from repro.analysis.markov import absorption_probability

        protocol = SymmetricGlobalNamingProtocol(3)
        start = ((1, 1), None)
        probs = absorption_probability(
            protocol, [start], naming_absorbing(protocol)
        )
        assert probs[start] == 0.0

    def test_trap_basin_gets_zero_and_escape_gets_one(self):
        from repro.analysis.markov import absorption_probability

        # (0,0) resolves to (0,1); (1,1) falls into the silent duplicate
        # trap (2,2).
        protocol = TableProtocol(
            {(0, 0): (0, 1), (1, 1): (2, 2)}, mobile_states=[0, 1, 2]
        )
        probs = absorption_probability(
            protocol,
            [((0, 0), None), ((1, 1), None)],
            naming_absorbing(protocol),
        )
        assert probs[((0, 0), None)] == pytest.approx(1.0)
        assert probs[((1, 1), None)] == 0.0

    def test_strictly_intermediate_probability(self):
        from repro.analysis.markov import absorption_probability

        # From (0,0): resolves to (0,1) - but (0,1) flips a coin: the
        # orientation (0,1) repairs to the absorbed (1,2) while (1,0)
        # collapses back to the doomed (0,0)->(3,3) trap... construct:
        # (0,0)->(0,1); (0,1)->(1,2) [absorbing-ish]; (1,0)->(3,3) trap.
        protocol = TableProtocol(
            {(0, 0): (0, 1), (0, 1): (1, 2), (1, 0): (3, 3)},
            mobile_states=[0, 1, 2, 3],
        )
        start = ((0, 1), None)
        probs = absorption_probability(
            protocol, [start], naming_absorbing(protocol)
        )
        assert 0.0 < probs[start] < 1.0

    def test_rejects_empty(self):
        from repro.analysis.markov import absorption_probability

        protocol = AsymmetricNamingProtocol(2)
        with pytest.raises(VerificationError):
            absorption_probability(
                protocol, [], naming_absorbing(protocol)
            )


class TestExpectedTime:
    def test_two_agent_homonym_pair(self):
        """Hand-computable: two agents at (0, 0) under P = 2. Every draw
        is the homonym meeting, which resolves immediately: E[T] = 1."""
        protocol = AsymmetricNamingProtocol(2)
        start = ((0, 0), None)
        times = expected_convergence_time(
            protocol, [start], naming_absorbing(protocol)
        )
        assert times[start] == pytest.approx(1.0)

    def test_absorbed_start_is_zero(self):
        protocol = AsymmetricNamingProtocol(3)
        start = ((0, 1, 2), None)
        times = expected_convergence_time(
            protocol, [start], naming_absorbing(protocol)
        )
        assert times[start] == 0.0

    def test_three_agents_hand_check(self):
        """(0,0,1) under P = 3: the homonym draw has probability 2/6 =
        1/3 (the cross draws are null), and it moves to (0,1,1) - the
        same structure again, 1/3 to reach (0,1,2).  Two geometric
        phases with p = 1/3 each: E[T] = 3 + 3 = 6."""
        protocol = AsymmetricNamingProtocol(3)
        start = ((0, 0, 1), None)
        times = expected_convergence_time(
            protocol, [start], naming_absorbing(protocol)
        )
        assert times[start] == pytest.approx(6.0)

    def test_matches_simulation_asymmetric(self):
        from repro.engine import (
            Configuration,
            NamingProblem,
            Population,
            Simulator,
        )
        from repro.schedulers import RandomPairScheduler

        n = 4
        protocol = AsymmetricNamingProtocol(n)
        start = ((0,) * n, None)
        exact = expected_convergence_time(
            protocol, [start], naming_absorbing(protocol)
        )[start]
        total = 0
        runs = 300
        for seed in range(runs):
            pop = Population(n)
            simulator = Simulator(
                protocol,
                pop,
                RandomPairScheduler(pop, seed=seed),
                NamingProblem(),
                check_interval=1,
            )
            result = simulator.run(Configuration.uniform(pop, 0))
            total += result.convergence_interaction
        assert total / runs == pytest.approx(exact, rel=0.10)

    def test_protocol3_wall_is_monotone_and_explosive(self):
        expectations = []
        for bound in (3, 4, 5):
            protocol = GlobalNamingProtocol(bound)
            start = ((0,) * bound, protocol.initial_leader_state())
            times = expected_convergence_time(
                protocol, [start], naming_absorbing(protocol)
            )
            expectations.append(times[start])
        assert expectations == sorted(expectations)
        assert expectations[1] / expectations[0] > 100
        assert expectations[2] / expectations[1] > 1000

    def test_unreachable_absorption_detected(self):
        # A pure livelock: 0 <-> 1 swap with no absorbing class reachable
        # from (0, 0) ... the all-flip protocol never reaches silence.
        flip = TableProtocol(
            {(0, 0): (1, 1), (1, 1): (0, 0)}, mobile_states=[0, 1]
        )
        with pytest.raises(VerificationError):
            expected_convergence_time(
                flip, [((0, 0), None)], naming_absorbing(flip)
            )

    def test_rejects_empty_initials(self):
        protocol = AsymmetricNamingProtocol(2)
        with pytest.raises(VerificationError):
            expected_convergence_time(
                protocol, [], naming_absorbing(protocol)
            )

    def test_node_budget(self):
        protocol = GlobalNamingProtocol(4)
        start = ((0,) * 4, protocol.initial_leader_state())
        with pytest.raises(VerificationError, match="exceeded"):
            expected_convergence_time(
                protocol,
                [start],
                naming_absorbing(protocol),
                max_nodes=3,
            )


def _rational_times(protocol, start):
    """Expected times by Gaussian elimination over ``Fraction``\\ s."""
    absorbing = naming_absorbing(protocol)
    nodes, index, rows, draws = _explore(protocol, [start], absorbing, 10_000)
    transient = [i for i, node in enumerate(nodes) if not absorbing(node)]
    position = {i: k for k, i in enumerate(transient)}
    size = len(transient)
    # Augmented rows of draws * (I - Q) t = draws * 1.
    matrix = [[Fraction(0)] * (size + 1) for _ in range(size)]
    for i in transient:
        row = matrix[position[i]]
        row[position[i]] += draws
        row[size] = Fraction(draws)
        for target, weight in rows[i].items():
            k = position.get(index[target])
            if k is not None:
                row[k] -= weight
    for col in range(size):
        pivot = next(r for r in range(col, size) if matrix[r][col])
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        top = matrix[col]
        for r, row in enumerate(matrix):
            if r != col and row[col]:
                factor = row[col] / top[col]
                for k in range(col, size + 1):
                    if top[k]:
                        row[k] -= factor * top[k]
    return {
        nodes[i]: matrix[position[i]][size] / matrix[position[i]][position[i]]
        for i in transient
    }


class TestExactSolver:
    def test_leadered_chain_matches_rational_solve(self):
        """Protocol 3 at N = P = 4: 78 transient classes, cond ~1e6.  A
        plain float64 solve is off by ~6e-13 relative; the refined solve
        must land within an ulp of the exact rational answer."""
        protocol = GlobalNamingProtocol(4)
        start = ((0,) * 4, protocol.initial_leader_state())
        times = expected_convergence_time(
            protocol, [start], naming_absorbing(protocol)
        )
        exact = _rational_times(protocol, start)
        assert len(exact) == 78
        for node, value in exact.items():
            assert abs(times[node] - float(value)) <= math.ulp(float(value))
