"""Benchmark exp-s8: exact expected convergence times by linear algebra.

Prints the exact-vs-simulated table (including the Protocol 3 wall out to
``N = P = 6``: ~2.6e14 expected interactions, solved in milliseconds) and
times the lumped-chain solves.
"""

from __future__ import annotations

import pytest

from repro.analysis.markov import expected_convergence_time, naming_absorbing
from repro.core.global_naming import GlobalNamingProtocol
from repro.experiments.exact_times import (
    render_points,
    run_exact_times,
    validate,
)


@pytest.fixture(scope="module")
def printed_exact_times():
    points = run_exact_times(validation_runs=120, max_protocol3_bound=6)
    print()
    print(render_points(points))
    assert validate(points, tolerance=0.15)
    return points


def test_bench_exact_times_battery(benchmark, printed_exact_times):
    def battery():
        points = run_exact_times(
            validation_runs=100, max_protocol3_bound=5
        )
        # Small-mean rows have high relative variance; the module fixture
        # already validated at 15% with 120 runs.
        assert validate(points, tolerance=0.35)
        return points

    benchmark.pedantic(battery, rounds=2, iterations=1)


@pytest.mark.parametrize("bound", [4, 5, 6])
def test_bench_protocol3_exact_solve(benchmark, bound):
    """The linear solve quantifying the N = P wall, per bound."""
    protocol = GlobalNamingProtocol(bound)
    start = ((0,) * bound, protocol.initial_leader_state())

    def solve():
        times = expected_convergence_time(
            protocol, [start], naming_absorbing(protocol),
            max_nodes=200_000,
        )
        assert times[start] > 0
        return times[start]

    benchmark.pedantic(solve, rounds=3, iterations=1)
