"""Benchmark exp-s5: exact-verification scaling.

Prints the full scaling table once and times the flagship checks
individually (the quotient abstraction's payoff in numbers).
"""

from __future__ import annotations

import pytest

from repro.analysis.symbolic import check_sinks
from repro.core.global_naming import GlobalNamingProtocol
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.experiments.scaling import render_points, run_scaling


@pytest.fixture(scope="module")
def printed_scaling():
    points = run_scaling(max_quotient_n=6)
    print()
    print(render_points(points))
    assert all(p.solves for p in points)
    return points


def test_bench_scaling_artifact(benchmark, printed_scaling):
    def rerun():
        points = run_scaling(max_quotient_n=5)
        assert all(p.solves for p in points)
        return points

    benchmark.pedantic(rerun, rounds=2, iterations=1)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_bench_quotient_prop13_growth(benchmark, n):
    """Quotient-check cost as N = P grows for Proposition 13."""
    protocol = SymmetricGlobalNamingProtocol(n)

    def check():
        verdict = check_sinks(protocol, n, mobile_mode="arbitrary")
        assert verdict.holds
        return verdict

    benchmark.pedantic(check, rounds=3, iterations=1)


def test_bench_quotient_protocol3_n5(benchmark):
    protocol = GlobalNamingProtocol(5)
    leaders = [protocol.initial_leader_state()]

    def check():
        verdict = check_sinks(
            protocol, 5, mobile_mode="arbitrary", leader_states=leaders
        )
        assert verdict.holds
        return verdict

    benchmark.pedantic(check, rounds=3, iterations=1)
