"""Benchmark: the exact model checkers (the verification substrate).

Times graph exploration, the global-fairness sink-SCC check and the
weak-fairness SCC-coverage check on the paper's protocols, at the instance
sizes the reproduction verifies exactly.
"""

from __future__ import annotations

import pytest

from repro.analysis.model_checker import check_naming_global
from repro.analysis.reachability import (
    arbitrary_initial_configurations,
    explore,
)
from repro.analysis.symbolic import check_sinks
from repro.analysis.weak_fairness import check_naming_weak
from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.global_naming import GlobalNamingProtocol
from repro.core.selfstab_naming import SelfStabilizingNamingProtocol
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.population import Population


def test_bench_explore_protocol2_p3_n3(benchmark):
    protocol = SelfStabilizingNamingProtocol(3)
    pop = Population(3, has_leader=True)
    initial = list(arbitrary_initial_configurations(protocol, pop))

    def build():
        graph = explore(protocol, pop, initial)
        assert len(graph.nodes) >= len(initial)
        return graph

    graph = benchmark(build)
    assert graph.edge_count() > 0


def test_bench_global_check_prop13_n4_p4(benchmark):
    protocol = SymmetricGlobalNamingProtocol(4)
    pop = Population(4)
    initial = list(arbitrary_initial_configurations(protocol, pop))

    def check():
        verdict = check_naming_global(protocol, pop, initial)
        assert verdict.solves
        return verdict

    benchmark(check)


def test_bench_global_check_protocol3_full_population(benchmark):
    protocol = GlobalNamingProtocol(4)
    pop = Population(4, has_leader=True)
    initial = list(
        arbitrary_initial_configurations(
            protocol, pop, leader_states=[protocol.initial_leader_state()]
        )
    )

    def check():
        verdict = check_naming_global(protocol, pop, initial)
        assert verdict.solves
        return verdict

    benchmark.pedantic(check, rounds=3, iterations=1)


def test_bench_weak_check_protocol2_selfstab(benchmark):
    protocol = SelfStabilizingNamingProtocol(3)
    pop = Population(3, has_leader=True)
    initial = list(arbitrary_initial_configurations(protocol, pop))

    def check():
        verdict = check_naming_weak(protocol, pop, initial)
        assert verdict.solves
        return verdict

    benchmark.pedantic(check, rounds=3, iterations=1)


def test_bench_weak_check_asymmetric(benchmark):
    protocol = AsymmetricNamingProtocol(4)
    pop = Population(4)
    initial = list(arbitrary_initial_configurations(protocol, pop))

    def check():
        verdict = check_naming_weak(protocol, pop, initial)
        assert verdict.solves
        return verdict

    benchmark(check)


def test_bench_weak_check_finds_livelock(benchmark):
    """Refutation speed: Prop. 13's protocol is NOT weakly-fair correct."""
    protocol = SymmetricGlobalNamingProtocol(3)
    pop = Population(3)
    initial = list(arbitrary_initial_configurations(protocol, pop))

    def check():
        verdict = check_naming_weak(protocol, pop, initial)
        assert not verdict.solves
        return verdict

    benchmark(check)


def test_bench_quotient_prop13_n6_p6(benchmark):
    """The sink check on the counts quotient at a size the labelled
    checker cannot touch: Proposition 13 at N = P = 6 (7^6 labelled
    mobile vectors collapse into 924 count rows)."""
    protocol = SymmetricGlobalNamingProtocol(6)

    def check():
        verdict = check_sinks(protocol, 6, mobile_mode="arbitrary")
        assert verdict.holds
        return verdict

    benchmark(check)


def test_bench_quotient_protocol3_n5_p5(benchmark):
    """Protocol 3 at N = P = 5: unreachable by simulation (the ordered
    sweep explodes super-exponentially) - decided exactly in milliseconds
    on the quotient."""
    protocol = GlobalNamingProtocol(5)
    leaders = [protocol.initial_leader_state()]

    def check():
        verdict = check_sinks(
            protocol, 5, mobile_mode="arbitrary", leader_states=leaders
        )
        assert verdict.holds
        return verdict

    benchmark(check)


def test_bench_quotient_transformer_projection(benchmark):
    """Exact verification of the footnote-5 transformer through the
    name projection (N = 4, 2P = 8 tagged states)."""
    from repro.core.transformer import SymmetrizedProtocol

    protocol = SymmetrizedProtocol(AsymmetricNamingProtocol(4))

    def check():
        verdict = check_sinks(
            protocol,
            4,
            mobile_mode="arbitrary",
            name_of=SymmetrizedProtocol.project,
        )
        assert verdict.holds
        return verdict

    benchmark(check)
