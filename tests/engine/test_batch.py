"""Tests for the batched ensemble backend (:mod:`repro.engine.batch`).

The lockstep kernel is *distribution-exact* but not stream-identical to
the per-run backends (it consumes a different randomness stream), so the
differential tests here compare per-seed verdicts exactly, bound
per-seed interaction counts within the documented order-of-magnitude
tolerance, and compare convergence-time *distributions* with a KS-style
check at N = 1000 - mirroring ``tests/engine/test_counts.py``.  What is
bit-exact, and asserted exactly, is the batch's own reproducibility:
a replicate's result is a function of its seed alone, independent of
batch size, batch composition and process chunking.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.leader_uniform import (
    CounterLeaderState,
    LeaderUniformNamingProtocol,
)
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.batch import BatchedEnsembleSimulator
from repro.engine.configuration import Configuration
from repro.engine.counts import CountSimulator
from repro.engine.fast import make_simulator
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
    """A batch simulator for the asymmetric naming protocol."""
    protocol = AsymmetricNamingProtocol(bound)
    population = Population(n)
    scheduler = RandomPairScheduler(population, seed=seed)
    simulator = BatchedEnsembleSimulator(
        protocol,
        population,
        scheduler,
        NamingProblem() if problem else None,
        **kwargs,
    )
    return protocol, population, simulator


def replicate_parts(population, seeds):
    """Schedulers and uniform initials for a replicate batch, built on
    the simulator's own population (per-run fallback delegates require
    scheduler/population identity)."""
    schedulers = [
        RandomPairScheduler(population, seed=seed) for seed in seeds
    ]
    initials = [Configuration.uniform(population, 0) for _ in seeds]
    return schedulers, initials


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
    def test_make_simulator_builds_batch_backend(self):
        protocol = AsymmetricNamingProtocol(4)
        population = Population(5)
        scheduler = RandomPairScheduler(population, seed=0)
        simulator = make_simulator(
            "batch", protocol, population, scheduler, NamingProblem()
        )
        assert isinstance(simulator, BatchedEnsembleSimulator)
        assert simulator.compiled

    def test_size_mismatch_raises(self):
        _, population, simulator = build(6)
        wrong = Configuration.uniform(Population(4), 0)
        with pytest.raises(SimulationError, match="4 agents"):
            simulator.run(wrong, max_interactions=10)

    def test_replicate_size_mismatch_raises(self):
        _, population, simulator = build(6)
        wrong = Configuration.uniform(Population(4), 0)
        scheduler = RandomPairScheduler(population, seed=1)
        with pytest.raises(SimulationError, match="4 agents"):
            simulator.run_replicates([wrong], [scheduler])

    def test_mismatched_replicate_lengths_raise(self):
        _, population, simulator = build(6)
        initial = uniform_initial(population)
        scheduler = RandomPairScheduler(population, seed=1)
        with pytest.raises(SimulationError, match="schedulers"):
            simulator.run_replicates([initial, initial], [scheduler])

    def test_empty_replicates(self):
        _, _, simulator = build(6)
        assert simulator.run_replicates([], []) == []


class TestSingleRun:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_converges_to_distinct_names(self, seed):
        _, population, simulator = build(8, seed=seed)
        result = simulator.run(
            uniform_initial(population), max_interactions=200_000
        )
        assert simulator.last_run_native
        assert result.converged
        assert result.trace is None
        names = result.final_configuration.mobile_states
        assert len(set(names)) == len(names)

    def test_already_silent_initial_configuration(self):
        protocol, population, simulator = build(8)
        space = sorted(protocol.mobile_state_space())
        initial = Configuration(tuple(space[:8]), None)
        result = simulator.run(initial, max_interactions=1_000)
        assert simulator.last_run_native
        assert result.converged
        assert result.convergence_interaction == 0
        assert result.non_null_interactions == 0

    def test_silent_with_duplicates_never_converges(self):
        # bound 1 freezes immediately: (0, 0) -> (0, 0) is null, yet the
        # names are not distinct, so the run must report non-convergence
        # at the full budget.
        _, population, simulator = build(3, bound=1)
        result = simulator.run(
            uniform_initial(population), max_interactions=500
        )
        assert simulator.last_run_native
        assert not result.converged
        assert result.interactions == 500

    def test_budget_exhaustion_and_raise_on_timeout(self):
        # N far above the name bound: naming is impossible, the run must
        # exhaust its budget and raise.
        _, population, simulator = build(20, bound=4)
        with pytest.raises(ConvergenceError, match="did not converge"):
            simulator.run(
                uniform_initial(population),
                max_interactions=5_000,
                raise_on_timeout=True,
            )
        assert simulator.last_run_native

    def test_check_interval_certifies_on_boundary(self):
        _, population, simulator = build(6, check_interval=7)
        result = simulator.run(
            uniform_initial(population), max_interactions=100_000
        )
        assert simulator.last_run_native
        assert result.converged
        assert result.convergence_interaction % 7 == 0

    def test_stats_populated(self):
        _, population, simulator = build(8)
        result = simulator.run(
            uniform_initial(population), max_interactions=50_000
        )
        assert result.stats is not None
        assert result.stats.wall_seconds >= 0.0
        assert 0.0 <= result.stats.null_fraction <= 1.0


class TestReplicates:
    def test_one_result_per_replicate_all_converge(self):
        seeds = range(8)
        _, population, simulator = build(8)
        schedulers, initials = replicate_parts(population, seeds)
        results = simulator.run_replicates(initials, schedulers)
        assert simulator.last_run_native
        assert len(results) == len(list(seeds))
        for result in results:
            assert result.converged
            names = result.final_configuration.mobile_states
            assert len(set(names)) == len(names)

    def test_rows_match_single_runs_bit_identically(self):
        """A replicate's outcome is a function of its seed alone."""
        seeds = [3, 11, 42, 7]
        _, population, simulator = build(8)
        schedulers, initials = replicate_parts(population, seeds)
        batched = simulator.run_replicates(initials, schedulers)
        for seed, initial, batch_result in zip(seeds, initials, batched):
            single = build(8, seed=seed)[2].run(
                initial, max_interactions=1_000_000
            )
            assert result_key(single) == result_key(batch_result)

    def test_batch_composition_cannot_change_results(self):
        """Splitting a batch into sub-batches is invisible per seed."""
        seeds = [0, 1, 2, 3, 4, 5]
        _, population, simulator = build(8)
        schedulers, initials = replicate_parts(population, seeds)
        whole = simulator.run_replicates(initials, schedulers)
        split = simulator.run_replicates(
            initials[:2], schedulers[:2]
        ) + simulator.run_replicates(initials[2:], schedulers[2:])
        assert [result_key(r) for r in whole] == [
            result_key(r) for r in split
        ]

    def test_per_replicate_stats_sum_to_batch_wall_clock(self):
        seeds = range(6)
        _, population, simulator = build(8)
        schedulers, initials = replicate_parts(population, seeds)
        results = simulator.run_replicates(initials, schedulers)
        shares = {r.stats.wall_seconds for r in results}
        assert len(shares) == 1  # equal attribution
        assert all(r.stats.wall_seconds >= 0.0 for r in results)


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
        assert result.converged
        assert trace.records  # the delegate honoured the trace

    def test_fault_hook_falls_back(self):
        _, population, simulator = build(8)
        calls = []

        def hook(interaction, config):
            calls.append(interaction)
            return None

        with pytest.warns(
            BackendFallbackWarning, match="rewrite per-agent"
        ) as record:
            simulator.run(
                uniform_initial(population),
                max_interactions=50,
                fault_hook=hook,
            )
        # The fallback reason travels as structured attributes too.
        batch_warning = next(
            w.message
            for w in record
            if getattr(w.message, "backend", None) == "batch"
        )
        assert batch_warning.delegate == "counts"
        assert "fault hooks" in batch_warning.reason
        assert not simulator.last_run_native
        assert calls

    def test_non_uniform_scheduler_falls_back(self):
        protocol = AsymmetricNamingProtocol(4)
        population = Population(6)
        scheduler = HomonymPreservingScheduler(population, protocol, seed=0)
        simulator = BatchedEnsembleSimulator(
            protocol, population, scheduler, NamingProblem()
        )
        with pytest.warns(
            BackendFallbackWarning,
            match="not the uniform-random pair scheduler",
        ):
            result = simulator.run(
                uniform_initial(population), max_interactions=500
            )
        assert not simulator.last_run_native
        assert not result.converged  # the adversary preserves homonyms

    def test_non_naming_problem_falls_back(self):
        class SilenceProblem(Problem):
            """Satisfied everywhere; converges at the first silence."""

            def is_satisfied(self, config):
                return True

        protocol = AsymmetricNamingProtocol(8)
        population = Population(6)
        scheduler = RandomPairScheduler(population, seed=0)
        simulator = BatchedEnsembleSimulator(
            protocol, population, scheduler, SilenceProblem()
        )
        with pytest.warns(
            BackendFallbackWarning, match="only certifies the naming"
        ):
            result = simulator.run(
                uniform_initial(population), max_interactions=200_000
            )
        assert not simulator.last_run_native
        assert result.converged

    def test_replicates_fall_back_per_run(self):
        """A batch the kernel cannot honour still returns one result per
        replicate, served by per-run counts simulators."""
        seeds = [0, 1, 2]
        _, population, simulator = build(8)
        schedulers, initials = replicate_parts(population, seeds)

        def hook(interaction, config):
            return None

        with pytest.warns(
            BackendFallbackWarning, match="rewrite per-agent"
        ):
            results = simulator.run_replicates(
                initials,
                schedulers,
                max_interactions=200_000,
                fault_hook=hook,
            )
        assert not simulator.last_run_native
        assert len(results) == 3
        assert all(r.converged for r in results)


class TestDifferentialAgainstCounts:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_verdicts_and_tolerances_match_counts(self, seed):
        """Per-seed verdicts agree exactly; interaction counts are
        independent draws from the same distribution, bounded within the
        documented order-of-magnitude tolerance."""
        protocol = AsymmetricNamingProtocol(8)
        population = Population(8)
        results = {}
        for backend in ("batch", "counts"):
            scheduler = RandomPairScheduler(population, seed=seed)
            simulator = make_simulator(
                backend, protocol, population, scheduler, NamingProblem()
            )
            results[backend] = simulator.run(
                uniform_initial(population), max_interactions=500_000
            )
        batch, counts = results["batch"], results["counts"]
        assert batch.converged == counts.converged
        assert batch.converged
        ratio = batch.convergence_interaction / counts.convergence_interaction
        assert 0.1 < ratio < 10.0, (
            f"seed {seed}: batch {batch.convergence_interaction} vs "
            f"counts {counts.convergence_interaction}"
        )

    def test_convergence_time_distribution_matches_counts_at_n_1000(self):
        """Two-sample KS-style check at N = 1000 (the bench's acceptance
        population size).

        The initial configuration is almost-distinct - names 0..997 plus
        duplicates at 996 and 997, right next to the two holes - so both
        engines resolve a handful of events separated by long (gap-
        skipped) null runs, keeping 2 x 40 runs fast.  The empirical-CDF
        gap must stay under the large-sample KS bound
        ``1.95 * sqrt((n+m)/(nm))``.
        """
        n = 1000
        protocol = AsymmetricNamingProtocol(n)
        population = Population(n)
        states = list(range(n - 2)) + [n - 4, n - 3]
        initial = Configuration(tuple(states), None)
        seeds = range(40)
        classes = {"batch": BatchedEnsembleSimulator, "counts": CountSimulator}
        samples = {"batch": [], "counts": []}
        for backend, cls in classes.items():
            for seed in seeds:
                scheduler = RandomPairScheduler(population, seed=seed)
                simulator = cls(
                    protocol,
                    population,
                    scheduler,
                    NamingProblem(),
                    compile_limit=2048,
                )
                result = simulator.run(
                    initial, max_interactions=2_000_000_000
                )
                assert result.converged
                samples[backend].append(result.convergence_interaction)

        d_stat = ks_statistic(samples["batch"], samples["counts"])
        bound = ks_bound(len(samples["batch"]), len(samples["counts"]))
        assert d_stat < bound, (
            f"KS statistic {d_stat:.3f} exceeds bound {bound:.3f}"
        )


#: (protocol, mobile agents, start state, leader state, problem,
#: check_interval, budget) of each cell :class:`TestDrawsPinned` hashes:
#: converging runs of Props. 12, 13 and 14, runs that exhaust their
#: budget (P < N cannot name), a run with no problem to certify and one
#: whose verdicts round up to an odd check interval.
PINNED_CELLS = (
    (AsymmetricNamingProtocol(8), 8, 0, None, True, None, 200_000),
    (AsymmetricNamingProtocol(4), 6, 0, None, True, None, 5_000),
    (AsymmetricNamingProtocol(8), 8, 0, None, False, None, 3_000),
    (AsymmetricNamingProtocol(8), 8, 0, None, True, 7, 200_000),
    (SymmetricGlobalNamingProtocol(8), 4, 0, None, True, None, 200_000),
    (
        LeaderUniformNamingProtocol(8), 8, 8, CounterLeaderState(1), True,
        None, 200_000,
    ),
)


class TestDrawsPinned:
    """Every batch result at 16 seeds per cell, hashed: the digest was
    computed before the lockstep loop became the module-level
    :func:`~repro.engine.batch.lockstep_ssa` shared with bleap's
    bursts, so it holds the batch engine's draws and verdicts to what
    they were."""

    def test_results_digest(self):
        digest = hashlib.sha256()
        for (
            protocol, n, start, leader, problem, interval, budget,
        ) in PINNED_CELLS:
            population = Population(n, has_leader=leader is not None)
            simulator = BatchedEnsembleSimulator(
                protocol,
                population,
                RandomPairScheduler(population, seed=0),
                NamingProblem() if problem else None,
                check_interval=interval,
            )
            seeds = range(16)
            results = simulator.run_replicates(
                [Configuration.uniform(population, start, leader)] * 16,
                [RandomPairScheduler(population, seed=s) for s in seeds],
                max_interactions=budget,
            )
            assert simulator.last_run_native
            for r in results:
                digest.update(
                    repr(
                        (
                            r.converged,
                            r.convergence_interaction,
                            r.interactions,
                            r.non_null_interactions,
                            r.final_configuration.states,
                            r.final_configuration.leader_index,
                        )
                    ).encode()
                )
        assert digest.hexdigest()[:16] == "05db695230c00d92"
