"""Tests for the mean-field fluid backend (:mod:`repro.engine.fluid`).

The fluid backend integrates the deterministic mean-field ODE while
every stochastically active species is macroscopic, then hands the
rounded counts to the leap backend for the endgame.  The contract
therefore splits three ways: populations with no macroscopic species
run pure leap and must be *bit-identical* to ``backend="leap"``;
populations where the ODE engages must be KS-distribution-equivalent
to pure leap (the certified handoff, gated here in both the large-N
and the near-silence regime); and populations whose agent vectors
cannot exist at all go through the counts-native
:meth:`~repro.engine.fluid.FluidSimulator.run_counts` entry, exercised
up to N = 10^10.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.global_naming import GlobalNamingProtocol
from repro.engine import fluid
from repro.engine.configuration import Configuration
from repro.engine.ensemble import FLUID_MIN_POPULATION, run_ensemble
from repro.engine.fast import make_simulator
from repro.engine.fluid import (
    DEFAULT_HANDOFF_FLOOR,
    FluidSimulator,
    _round_conserving,
    ode_reuse_scope,
)
from repro.engine.leap import LeapSimulator
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

np = pytest.importorskip("numpy")


def build(n, bound=8, seed=0, problem=True, **kwargs):
    """A fluid simulator for the asymmetric naming protocol."""
    protocol = AsymmetricNamingProtocol(bound)
    population = Population(n)
    scheduler = RandomPairScheduler(population, seed=seed)
    simulator = FluidSimulator(
        protocol,
        population,
        scheduler,
        NamingProblem() if problem else None,
        **kwargs,
    )
    return protocol, population, simulator


def uniform_initial(population, state=0):
    return Configuration.uniform(population, state)


def result_key(result):
    """The observable, stream-independent outcome of one run."""
    return (
        result.converged,
        result.convergence_interaction,
        result.interactions,
        result.non_null_interactions,
        result.final_configuration,
    )


class TestConstruction:
    def test_make_simulator_builds_fluid_backend(self):
        protocol = AsymmetricNamingProtocol(4)
        population = Population(5)
        scheduler = RandomPairScheduler(population, seed=0)
        simulator = make_simulator(
            "fluid", protocol, population, scheduler, NamingProblem()
        )
        assert isinstance(simulator, FluidSimulator)
        assert simulator.compiled

    def test_invalid_handoff_floor_raises(self):
        with pytest.raises(SimulationError, match="handoff_floor"):
            build(8, handoff_floor=0)

    def test_size_mismatch_raises(self):
        _, _, simulator = build(6)
        wrong = Configuration.uniform(Population(4), 0)
        with pytest.raises(SimulationError, match="4 agents"):
            simulator.run(wrong, max_interactions=10)

    def test_default_floor_matches_leap_eps_budget(self):
        # 1/sqrt(floor) is the relative fluctuation scale of the
        # smallest fluid species; the default keeps it ~3%, aligned
        # with the leap backend's default eps.
        assert DEFAULT_HANDOFF_FLOOR == 1_000


class TestRoundConserving:
    def test_exact_integers_pass_through(self):
        x = np.array([3.0, 5.0, 2.0])
        assert _round_conserving(x, 10).tolist() == [3, 5, 2]

    def test_largest_remainders_receive_the_deficit(self):
        x = np.array([2.6, 3.3, 4.1])
        # floors sum to 9; the one missing agent goes to the largest
        # fractional remainder (0.6).
        assert _round_conserving(x, 10).tolist() == [3, 3, 4]

    def test_sum_is_conserved_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.random(7) * rng.integers(1, 10_000)
            size = int(np.floor(x).sum()) + int(rng.integers(0, 7))
            rounded = _round_conserving(x, size)
            assert int(rounded.sum()) == size
            assert (rounded >= 0).all()


class TestFallbacks:
    def test_trace_falls_back_to_leap(self):
        _, population, simulator = build(8)
        trace = Trace(capacity=None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = simulator.run(
                uniform_initial(population),
                max_interactions=100_000,
                trace=trace,
            )
        fallbacks = [
            w.message
            for w in caught
            if isinstance(w.message, BackendFallbackWarning)
        ]
        assert fallbacks
        first = fallbacks[0]
        assert first.backend == "fluid"
        assert first.delegate == "leap"
        assert not simulator.last_run_native
        assert simulator.last_counts is None
        assert result.converged
        assert trace.records

    def test_leader_population_falls_back_with_reason(self):
        protocol = GlobalNamingProtocol(4)
        population = Population(4, has_leader=True)
        scheduler = RandomPairScheduler(population, seed=3)
        simulator = FluidSimulator(
            protocol, population, scheduler, NamingProblem()
        )
        initial = Configuration.from_states(
            population,
            [sorted(protocol.mobile_state_space())[0]] * 4,
            protocol.initial_leader_state(),
        )
        with pytest.warns(
            BackendFallbackWarning, match="no mean-field limit"
        ):
            result = simulator.run(initial, max_interactions=100_000)
        assert not simulator.last_run_native
        assert result.final_configuration.leader_index is not None

    def test_non_uniform_scheduler_falls_back(self):
        protocol = AsymmetricNamingProtocol(4)
        population = Population(6)
        scheduler = HomonymPreservingScheduler(population, protocol, seed=0)
        simulator = FluidSimulator(
            protocol, population, scheduler, NamingProblem()
        )
        with pytest.warns(BackendFallbackWarning):
            simulator.run(uniform_initial(population), max_interactions=500)
        assert not simulator.last_run_native

    def test_fault_hook_falls_back(self):
        _, population, simulator = build(8)
        calls = []

        def hook(interaction, config):
            calls.append(interaction)
            return None

        with pytest.warns(BackendFallbackWarning):
            simulator.run(
                uniform_initial(population),
                max_interactions=50,
                fault_hook=hook,
            )
        assert not simulator.last_run_native
        assert calls

    def test_non_naming_problem_falls_back(self):
        class SilenceOnly(Problem):
            display_name = "silence only"

            def is_satisfied(self, config):
                return True

        protocol = AsymmetricNamingProtocol(8)
        population = Population(8)
        scheduler = RandomPairScheduler(population, seed=0)
        simulator = FluidSimulator(
            protocol, population, scheduler, SilenceOnly()
        )
        with pytest.warns(BackendFallbackWarning):
            simulator.run(uniform_initial(population), max_interactions=100)
        assert not simulator.last_run_native


class TestSmallPopulationsMatchLeapExactly:
    """Below the handoff floor there is nothing to integrate: the run
    is one stochastic leap phase consuming the identical randomness
    stream, so fluid must equal ``backend="leap"`` bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_bit_identical_to_leap(self, seed):
        n = 512
        outcomes = {}
        for backend in ("leap", "fluid"):
            protocol = AsymmetricNamingProtocol(8)
            population = Population(n)
            scheduler = RandomPairScheduler(population, seed=seed)
            simulator = make_simulator(
                backend, protocol, population, scheduler, NamingProblem()
            )
            result = simulator.run(
                uniform_initial(population), max_interactions=50_000
            )
            outcomes[backend] = result_key(result)
        assert outcomes["fluid"] == outcomes["leap"]

    def test_no_ode_steps_below_the_floor(self):
        _, population, simulator = build(512)
        result = simulator.run(
            uniform_initial(population), max_interactions=50_000
        )
        assert simulator.last_run_native
        assert result.stats.ode_steps == 0
        assert result.stats.handoff_time == 0.0
        assert result.stats.handoff_backend == "leap"

    def test_sanitized_run_is_bit_identical(self):
        results = []
        for sanitize in (False, True):
            _, population, simulator = build(512, sanitize=sanitize)
            results.append(
                result_key(
                    simulator.run(
                        uniform_initial(population), max_interactions=50_000
                    )
                )
            )
        assert results[0] == results[1]


class TestOdeFastForward:
    def test_ode_engages_above_the_floor(self):
        n = 200_000
        _, population, simulator = build(n)
        result = simulator.run(
            uniform_initial(population), max_interactions=10 * n
        )
        assert simulator.last_run_native
        stats = result.stats
        assert stats.ode_steps > 0
        assert 0.0 < stats.handoff_time <= 10 * n
        assert stats.handoff_backend == "leap"
        assert "ODE steps" in str(stats)
        # 8 names cannot cover 200,000 agents: the budget is exhausted.
        assert not result.converged
        assert result.interactions == 10 * n

    def test_final_configuration_conserves_population(self):
        n = 100_000
        protocol, population, simulator = build(n)
        result = simulator.run(
            uniform_initial(population), max_interactions=5 * n
        )
        final = result.final_configuration
        assert len(final.mobile_states) == n
        assert set(final.mobile_states) <= protocol.mobile_state_space()
        assert sum(simulator.last_counts) == n

    def test_spread_start_is_a_fixed_point(self):
        # The round-robin spread start has identical drift on every
        # state by symmetry: the step rule immediately covers the whole
        # budget, so the run is one stall-handoff plus a leap endgame.
        n = 100_000
        protocol = AsymmetricNamingProtocol(8)
        population = Population(n)
        scheduler = RandomPairScheduler(population, seed=0)
        simulator = FluidSimulator(
            protocol, population, scheduler, NamingProblem()
        )
        space = sorted(protocol.mobile_state_space())
        states = tuple(space[i % len(space)] for i in range(n))
        result = simulator.run(
            Configuration(states, None), max_interactions=5 * n
        )
        assert result.stats.ode_steps == 0
        assert result.stats.handoff_time == 0.0

    def test_raise_on_timeout(self):
        _, population, simulator = build(50_000, bound=4)
        with pytest.raises(ConvergenceError, match="did not converge"):
            simulator.run(
                uniform_initial(population),
                max_interactions=50_000,
                raise_on_timeout=True,
            )
        assert simulator.last_run_native


class TestRunCounts:
    def test_negative_count_raises(self):
        _, _, simulator = build(8)
        with pytest.raises(SimulationError, match="negative count"):
            simulator.run_counts({0: -1, 1: 9})

    def test_unknown_state_raises(self):
        _, _, simulator = build(8)
        with pytest.raises(SimulationError, match="state space"):
            simulator.run_counts({"rogue": 8})

    def test_sum_mismatch_raises(self):
        _, _, simulator = build(8)
        with pytest.raises(SimulationError, match="sum to 7"):
            simulator.run_counts({0: 7})

    def test_leader_population_raises_instead_of_delegating(self):
        protocol = GlobalNamingProtocol(4)
        population = Population(4, has_leader=True)
        scheduler = RandomPairScheduler(population, seed=0)
        simulator = FluidSimulator(
            protocol, population, scheduler, NamingProblem()
        )
        with pytest.raises(SimulationError, match="no mean-field limit"):
            simulator.run_counts({0: 4})

    def test_counts_native_result_without_materialization(self):
        n = 100_000
        _, _, simulator = build(n)
        result = simulator.run_counts({0: n}, max_interactions=5 * n)
        assert result.final_configuration is None
        assert result.final_counts is not None
        assert sum(result.final_counts.values()) == n
        assert "counts-native" in str(result)
        with pytest.raises(SimulationError, match="counts-native"):
            result.names()

    def test_materialized_result_matches_final_counts(self):
        n = 2_000
        _, _, simulator = build(n)
        result = simulator.run_counts(
            {0: n}, max_interactions=10 * n, materialize=True
        )
        final = result.final_configuration
        assert final is not None
        assert len(final.mobile_states) == n

    def test_mega_population_completes_full_horizon(self):
        # N = 10^10: an agent tuple would need ~80 GB, but the
        # counts-native fluid pipeline finishes the full 10 N naming
        # horizon in O(pairs + states) per ODE step.
        n = 10_000_000_000
        _, _, simulator = build(n)
        result = simulator.run_counts({0: n}, max_interactions=10 * n)
        assert simulator.last_run_native
        assert result.interactions == 10 * n
        assert not result.converged  # 8 names, 10^10 agents
        assert sum(result.final_counts.values()) == n
        assert result.stats.ode_steps > 0


class TestCertifiedHandoff:
    """The KS gates behind the 'certified stochastic handoff' claim:
    fluid-with-handoff and pure leap must agree in distribution, in the
    regime where the ODE carries most of the run (large N) and in the
    regime where handoff fires mid-endgame (near silence)."""

    def test_large_n_distribution_matches_pure_leap(self):
        """N = 20,000 from the uniform all-zero start: the ODE
        fast-forwards the cascade transient (asserted via
        ``ode_steps``), hands off near the fixed point, and the
        endgame's final count of the lowest state must match pure
        leap's within the KS bound."""
        n = 20_000
        budget = 40 * n
        seeds = range(30)
        protocol = AsymmetricNamingProtocol(8)
        lowest = sorted(protocol.mobile_state_space())[0]
        samples = {"leap": [], "fluid": []}
        ode_total = 0
        for backend in samples:
            for seed in seeds:
                population = Population(n)
                scheduler = RandomPairScheduler(population, seed=seed)
                simulator = make_simulator(
                    backend, protocol, population, scheduler, NamingProblem()
                )
                result = simulator.run(
                    uniform_initial(population), max_interactions=budget
                )
                if backend == "fluid":
                    ode_total += result.stats.ode_steps
                samples[backend].append(
                    sum(1 for s in result.names() if s == lowest)
                )
        assert ode_total > 0, "the ODE fast-forward never engaged"
        d_stat = ks_statistic(samples["leap"], samples["fluid"])
        bound = ks_bound(len(samples["leap"]), len(samples["fluid"]))
        assert d_stat < bound, (
            f"KS statistic {d_stat:.3f} exceeds bound {bound:.3f}"
        )

    def test_near_silence_convergence_times_match_pure_leap(self):
        """N = 64 with 64 names and a low handoff floor: the ODE runs
        until the initial species dwindles below the floor, then the
        stochastic endgame resolves the last duplicates into silence.
        Convergence-time distributions must match pure leap's."""
        n = 64
        seeds = range(40)
        samples = {"leap": [], "fluid": []}
        ode_total = 0
        for backend in samples:
            for seed in seeds:
                protocol = AsymmetricNamingProtocol(n)
                population = Population(n)
                scheduler = RandomPairScheduler(population, seed=seed)
                if backend == "fluid":
                    simulator = FluidSimulator(
                        protocol,
                        population,
                        scheduler,
                        NamingProblem(),
                        handoff_floor=8,
                    )
                else:
                    simulator = LeapSimulator(
                        protocol, population, scheduler, NamingProblem()
                    )
                result = simulator.run(
                    uniform_initial(population), max_interactions=2_000_000
                )
                assert result.converged
                if backend == "fluid":
                    ode_total += result.stats.ode_steps
                samples[backend].append(result.convergence_interaction)
        assert ode_total > 0, "the ODE fast-forward never engaged"
        d_stat = ks_statistic(samples["leap"], samples["fluid"])
        bound = ks_bound(len(samples["leap"]), len(samples["fluid"]))
        assert d_stat < bound, (
            f"KS statistic {d_stat:.3f} exceeds bound {bound:.3f}"
        )


class TestEnsembleIntegration:
    def test_auto_resolves_to_fluid_at_fluid_scale(self):
        n = FLUID_MIN_POPULATION
        protocol = AsymmetricNamingProtocol(8)
        population = Population(n)

        def scheduler_factory(population, seed):
            return RandomPairScheduler(population, seed=seed)

        def initial_factory(population, seed):
            return Configuration.uniform(population, 0)

        ensemble = run_ensemble(
            protocol,
            population,
            scheduler_factory,
            initial_factory,
            NamingProblem(),
            seeds=range(2),
            max_interactions=2 * n,
            backend="auto",
        )
        assert len(ensemble.results) == 2
        stats = ensemble.stats
        assert stats.ode_steps is not None and stats.ode_steps > 0
        assert stats.handoff_time is not None
        assert stats.handoff_backend == "leap"


# Module-level factories, so ``n_jobs=2`` can pickle them.
def _random_pair(population, seed):
    return RandomPairScheduler(population, seed=seed)


def _uniform_zero(population, seed):
    return Configuration.uniform(population, 0)


def _two_starts(population, seed):
    """Even seeds start uniform in state 0, odd seeds in state 3."""
    return Configuration.uniform(population, 3 * (seed % 2))


class TestOdeReuse:
    """A serial fluid ensemble integrates each distinct start's ODE once
    per ``run_ensemble`` call, and every result stays a lone run's."""

    N = 20_000  # the ODE engages: the start holds N >= handoff_floor

    @pytest.fixture
    def phases(self, monkeypatch):
        """Record every mean-field integration."""
        calls = []
        real = fluid._mean_field_phase

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fluid, "_mean_field_phase", spy)
        return calls

    def ensemble(self, initial_factory=_uniform_zero, **kw):
        """A fluid ensemble of four replicates, seeds 0-3."""
        population = Population(self.N)
        return run_ensemble(
            AsymmetricNamingProtocol(8), population, _random_pair,
            initial_factory, NamingProblem(), seeds=range(4),
            max_interactions=10 * self.N, backend="fluid", **kw,
        )

    def lone_run(self, seed, state=0, budget=None, **kw):
        """One run on a fresh simulator, outside any ensemble."""
        _, population, simulator = build(self.N, seed=seed, **kw)
        return simulator.run(
            uniform_initial(population, state),
            max_interactions=10 * self.N if budget is None else budget,
        )

    def test_uniform_ensemble_integrates_once(self, phases):
        results = self.ensemble().results
        assert len(phases) == 1
        assert all(r.stats.ode_steps > 0 for r in results)

    def test_two_starts_integrate_twice(self, phases):
        self.ensemble(_two_starts)
        assert len(phases) == 2

    def test_no_reuse_across_calls(self, phases):
        self.ensemble()
        self.ensemble()
        assert len(phases) == 2
        assert fluid._ODE_REUSE.get() is None

    def test_results_equal_lone_runs(self):
        ensemble = self.ensemble(_two_starts)
        for seed, result in zip(ensemble.seeds, ensemble.results):
            lone = self.lone_run(seed, state=3 * (seed % 2))
            assert result_key(result) == result_key(lone)
            assert result.stats.ode_steps == lone.stats.ode_steps
            assert result.stats.handoff_time == lone.stats.handoff_time
            assert result.stats.leaps == lone.stats.leaps

    def test_parallel_equals_serial(self):
        serial = self.ensemble(_two_starts)
        parallel = self.ensemble(_two_starts, n_jobs=2)
        assert parallel.results == serial.results
        assert [r.stats.ode_steps for r in parallel.results] == [
            r.stats.ode_steps for r in serial.results
        ]
        assert parallel.stats.handoff_time == serial.stats.handoff_time

    @pytest.mark.parametrize(
        "variant",
        [
            {"budget": 4 * N},
            {"leap_eps": 0.05},
            {"handoff_floor": 3_000},
            {"state": 3},
        ],
        ids=["budget", "leap_eps", "handoff_floor", "start"],
    )
    def test_scope_keys_every_phase_input(self, variant):
        """A run differing in one phase input never reuses another's
        handoff state."""
        base = self.lone_run(5)
        alone = self.lone_run(5, **variant)
        # Each input moves the handoff, so a reuse keyed without it
        # would change the result.
        assert result_key(alone) != result_key(base)
        with ode_reuse_scope():
            assert result_key(self.lone_run(5)) == result_key(base)
            inside = self.lone_run(5, **variant)
        assert result_key(inside) == result_key(alone)
        assert inside.stats.ode_steps == alone.stats.ode_steps
        assert inside.stats.handoff_time == alone.stats.handoff_time
