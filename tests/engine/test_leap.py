"""Tests for the multinomial leap backend (:mod:`repro.engine.leap`).

The leap backend is *approximately* distribution-equivalent to the
exact counts backend, with per-window error bounded by ``leap_eps`` and
an exact-SSA fallback below the leaping thresholds.  The tests
therefore split by regime: small populations (pure exact path) are
compared to the counts backend with KS-style convergence-time checks,
and large populations (multinomial path engaged, ``stats.leaps > 0``)
are compared on final-configuration statistics at a fixed budget.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.engine import sanitize as _sanitize
from repro.engine.configuration import Configuration
from repro.engine.fast import make_simulator
from repro.engine.leap import (
    DEFAULT_LEAP_EPS,
    DEFAULT_MIN_TAU,
    LeapSimulator,
)
from repro.engine.population import Population
from repro.engine.problems import NamingProblem, Problem
from repro.engine.trace import Trace
from repro.errors import (
    BackendFallbackWarning,
    ConvergenceError,
    SimulationError,
)
from repro.schedulers.adversarial import HomonymPreservingScheduler
from repro.schedulers.random_pair import RandomPairScheduler
from tests.engine.ks import ks_bound, ks_statistic


def build(n, bound=8, seed=0, problem=True, **kwargs):
    """A leap simulator for the asymmetric naming protocol."""
    protocol = AsymmetricNamingProtocol(bound)
    population = Population(n)
    scheduler = RandomPairScheduler(population, seed=seed)
    simulator = LeapSimulator(
        protocol,
        population,
        scheduler,
        NamingProblem() if problem else None,
        **kwargs,
    )
    return protocol, population, simulator


def uniform_initial(population, state=0):
    return Configuration.uniform(population, state)


def spread_initial(protocol, population):
    """States dealt round-robin: stationary null/non-null mix."""
    space = sorted(protocol.mobile_state_space())
    n = population.size
    states = tuple(space) * (n // len(space)) + tuple(space[: n % len(space)])
    return Configuration(states, None)


class TestConstruction:
    def test_make_simulator_builds_leap_backend(self):
        protocol = AsymmetricNamingProtocol(4)
        population = Population(5)
        scheduler = RandomPairScheduler(population, seed=0)
        simulator = make_simulator(
            "leap", protocol, population, scheduler, NamingProblem()
        )
        assert isinstance(simulator, LeapSimulator)
        assert simulator.compiled
        assert simulator.leap_eps == DEFAULT_LEAP_EPS
        assert simulator.min_tau == DEFAULT_MIN_TAU

    def test_make_simulator_forwards_leap_eps(self):
        protocol = AsymmetricNamingProtocol(4)
        population = Population(5)
        scheduler = RandomPairScheduler(population, seed=0)
        simulator = make_simulator(
            "leap",
            protocol,
            population,
            scheduler,
            NamingProblem(),
            leap_eps=0.01,
        )
        assert simulator.leap_eps == 0.01

    def test_leap_eps_rejected_by_other_backends(self):
        protocol = AsymmetricNamingProtocol(4)
        population = Population(5)
        scheduler = RandomPairScheduler(population, seed=0)
        with pytest.raises(
            SimulationError,
            match="only the approximate leap, bleap and fluid backends",
        ):
            make_simulator(
                "counts",
                protocol,
                population,
                scheduler,
                NamingProblem(),
                leap_eps=0.01,
            )

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
    def test_invalid_leap_eps_raises(self, eps):
        with pytest.raises(SimulationError, match="leap_eps"):
            build(6, leap_eps=eps)

    def test_invalid_min_tau_raises(self):
        with pytest.raises(SimulationError, match="min_tau"):
            build(6, min_tau=0)

    def test_size_mismatch_raises(self):
        _, population, simulator = build(6)
        wrong = Configuration.uniform(Population(4), 0)
        with pytest.raises(SimulationError, match="4 agents"):
            simulator.run(wrong, max_interactions=10)


class TestNativeRuns:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_converges_to_distinct_names(self, seed):
        _, population, simulator = build(8, seed=seed)
        result = simulator.run(
            uniform_initial(population), max_interactions=200_000
        )
        assert simulator.last_run_native
        assert result.converged
        names = result.names()
        assert len(set(names)) == len(names)

    def test_small_population_runs_exactly(self):
        # At N = 8 the adaptive tau collapses below the leaping
        # thresholds, so the whole run advances by exact SSA steps:
        # zero windows, zero approximation error.
        _, population, simulator = build(8, seed=1)
        result = simulator.run(
            uniform_initial(population), max_interactions=200_000
        )
        assert simulator.last_run_native
        assert result.stats.leaps == 0
        assert result.stats.repairs == 0

    def test_large_population_takes_leaps(self):
        protocol, population, simulator = build(50_000, seed=3)
        result = simulator.run(
            spread_initial(protocol, population),
            max_interactions=500_000,
        )
        assert simulator.last_run_native
        assert result.stats.leaps > 0
        assert result.stats.mean_tau > DEFAULT_MIN_TAU
        assert result.interactions == 500_000

    def test_convergence_lands_on_check_boundary(self):
        _, population, simulator = build(8, seed=2)
        result = simulator.run(
            uniform_initial(population), max_interactions=200_000
        )
        assert result.converged
        at = result.convergence_interaction
        assert at % simulator.check_interval == 0 or at == 200_000

    def test_raise_on_timeout(self):
        # Bound 4 < N = 6: naming is impossible, the budget exhausts.
        _, population, simulator = build(6, bound=4)
        with pytest.raises(ConvergenceError) as excinfo:
            simulator.run(
                uniform_initial(population),
                max_interactions=2_000,
                raise_on_timeout=True,
            )
        assert excinfo.value.interactions == 2_000

    def test_last_counts_describe_final_configuration(self):
        _, population, simulator = build(8, seed=4)
        result = simulator.run(
            uniform_initial(population), max_interactions=200_000
        )
        assert simulator.last_counts is not None
        assert sum(simulator.last_counts) == population.size
        assert result.population.size == population.size

    def test_stats_fields_populated_natively(self):
        _, population, simulator = build(8, seed=0)
        result = simulator.run(
            uniform_initial(population), max_interactions=200_000
        )
        stats = result.stats
        assert stats.leaps is not None
        assert stats.mean_tau is not None
        assert stats.repairs is not None
        assert "leaps" in str(stats)


class TestFallbacks:
    def test_trace_falls_back(self):
        _, population, simulator = build(8)
        trace = Trace(capacity=None)
        with pytest.warns(
            BackendFallbackWarning, match="need agent identities"
        ):
            result = simulator.run(
                uniform_initial(population),
                max_interactions=100_000,
                trace=trace,
            )
        assert not simulator.last_run_native
        assert simulator.last_counts is None
        assert result.converged
        assert trace.records

    def test_fault_hook_falls_back(self):
        _, population, simulator = build(8)
        calls = []

        def hook(interaction, config):
            calls.append(interaction)
            return None

        with pytest.warns(
            BackendFallbackWarning, match="rewrite per-agent"
        ):
            simulator.run(
                uniform_initial(population),
                max_interactions=50,
                fault_hook=hook,
            )
        assert not simulator.last_run_native
        assert calls

    def test_non_uniform_scheduler_falls_back_with_reason(self):
        protocol = AsymmetricNamingProtocol(4)
        population = Population(6)
        scheduler = HomonymPreservingScheduler(population, protocol, seed=0)
        simulator = LeapSimulator(
            protocol, population, scheduler, NamingProblem()
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = simulator.run(
                uniform_initial(population), max_interactions=500
            )
        fallbacks = [
            w.message
            for w in caught
            if isinstance(w.message, BackendFallbackWarning)
        ]
        assert fallbacks
        first = fallbacks[0]
        # The structured attributes mirror the warning text, so tooling
        # can dispatch on them without parsing the message.
        assert first.backend == "leap"
        assert first.delegate == "counts"
        assert "uniform-random pair scheduler" in first.reason
        assert first.reason in str(first)
        assert not simulator.last_run_native
        assert not result.converged

    def test_non_naming_problem_falls_back(self):
        class SilenceOnly(Problem):
            display_name = "silence only"

            def is_satisfied(self, config):
                return True

        protocol = AsymmetricNamingProtocol(8)
        population = Population(8)
        scheduler = RandomPairScheduler(population, seed=0)
        simulator = LeapSimulator(
            protocol, population, scheduler, SilenceOnly()
        )
        with pytest.warns(
            BackendFallbackWarning, match="only certifies the naming"
        ):
            simulator.run(uniform_initial(population), max_interactions=100)
        assert not simulator.last_run_native


class TestStatisticalEquivalence:
    def test_convergence_time_distribution_matches_counts(self):
        """KS check on convergence interactions in the exact regime.

        At N = 8 the leap backend advances by exact SSA steps, so its
        convergence-time distribution must match the exact counts
        backend's within the large-sample KS bound.
        """
        seeds = range(40)
        samples = {"counts": [], "leap": []}
        for backend in samples:
            for seed in seeds:
                protocol = AsymmetricNamingProtocol(8)
                population = Population(8)
                scheduler = RandomPairScheduler(population, seed=seed)
                simulator = make_simulator(
                    backend, protocol, population, scheduler, NamingProblem()
                )
                result = simulator.run(
                    uniform_initial(population), max_interactions=200_000
                )
                assert result.converged
                samples[backend].append(result.convergence_interaction)
        d_stat = ks_statistic(samples["counts"], samples["leap"])
        bound = ks_bound(len(samples["counts"]), len(samples["leap"]))
        assert d_stat < bound, (
            f"KS statistic {d_stat:.3f} exceeds bound {bound:.3f}"
        )

    def test_final_configuration_statistic_matches_counts(self):
        """KS check on a final-configuration statistic in the leaping
        regime.

        At N = 20,000 with a mid-flight budget the multinomial path
        carries most of the run (asserted via ``stats.leaps``), so this
        is the test that actually exercises the approximation: the
        distribution of the lowest state's final count must match the
        exact counts backend's within the KS bound at the default
        ``leap_eps``.
        """
        n = 20_000
        budget = 5 * n
        seeds = range(30)
        protocol = AsymmetricNamingProtocol(8)
        lowest = sorted(protocol.mobile_state_space())[0]
        samples = {"counts": [], "leap": []}
        leaps_taken = 0
        for backend in samples:
            for seed in seeds:
                population = Population(n)
                scheduler = RandomPairScheduler(population, seed=seed)
                simulator = make_simulator(
                    backend, protocol, population, scheduler, NamingProblem()
                )
                result = simulator.run(
                    spread_initial(protocol, population),
                    max_interactions=budget,
                )
                if backend == "leap":
                    leaps_taken += result.stats.leaps
                final = sum(
                    1 for s in result.names() if s == lowest
                )
                samples[backend].append(final)
        assert leaps_taken > 0, "the multinomial path never engaged"
        d_stat = ks_statistic(samples["counts"], samples["leap"])
        bound = ks_bound(len(samples["counts"]), len(samples["leap"]))
        assert d_stat < bound, (
            f"KS statistic {d_stat:.3f} exceeds bound {bound:.3f}"
        )


class TestSanitize:
    def test_sanitized_run_is_bit_identical(self):
        results = []
        for sanitize in (False, True):
            _, population, simulator = build(8, seed=5, sanitize=sanitize)
            results.append(
                simulator.run(
                    uniform_initial(population), max_interactions=200_000
                )
            )
        assert results[0] == results[1]

    def test_sanitizer_checks_run_with_leap_backend_name(self, monkeypatch):
        seen = []
        original = _sanitize.check_counts_vector

        def spy(backend, counts, expected_total, interaction):
            seen.append(backend)
            return original(backend, counts, expected_total, interaction)

        monkeypatch.setattr(_sanitize, "check_counts_vector", spy)
        _, population, simulator = build(8, seed=0, sanitize=True)
        simulator.run(uniform_initial(population), max_interactions=50_000)
        assert simulator.last_run_native
        assert "leap" in seen


class TestEnsembleIntegration:
    def test_run_ensemble_routes_leap_backend(self):
        from repro.engine.ensemble import run_ensemble

        protocol = AsymmetricNamingProtocol(8)
        population = Population(8)
        ensemble = run_ensemble(
            protocol,
            population,
            _ensemble_scheduler,
            _ensemble_initial,
            NamingProblem(),
            seeds=range(4),
            max_interactions=200_000,
            backend="leap",
        )
        assert len(ensemble.results) == 4
        assert all(res.converged for res in ensemble.results)


def _ensemble_scheduler(population, seed):
    return RandomPairScheduler(population, seed=seed)


def _ensemble_initial(population, seed):
    return Configuration.uniform(population, 0)
