"""Tests for the ensemble runner."""

import pytest

from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.ensemble import run_ensemble
from repro.engine.population import Population
from repro.engine.problems import NamingProblem
from repro.errors import ConvergenceError, SanitizerError
from repro.schedulers.random_pair import RandomPairScheduler


def make_parts(bound=5, n=5):
    protocol = AsymmetricNamingProtocol(bound)
    population = Population(n)
    scheduler_factory = lambda pop, seed: RandomPairScheduler(pop, seed=seed)
    initial_factory = lambda pop, seed: Configuration.uniform(pop, 0)
    return protocol, population, scheduler_factory, initial_factory


# Module-level (picklable) factories for the process-parallel tests.
def _scheduler_factory(population, seed):
    return RandomPairScheduler(population, seed=seed)


def _initial_factory(population, seed):
    return Configuration.uniform(population, 0)


class TestRunEnsemble:
    def test_one_result_per_seed(self):
        protocol, population, sf, inf = make_parts()
        ensemble = run_ensemble(
            protocol, population, sf, inf, NamingProblem(), seeds=range(7)
        )
        assert len(ensemble.results) == 7
        assert ensemble.seeds == list(range(7))

    def test_convergence_rate_and_summary(self):
        protocol, population, sf, inf = make_parts()
        ensemble = run_ensemble(
            protocol, population, sf, inf, NamingProblem(), seeds=range(5)
        )
        assert ensemble.convergence_rate == 1.0
        summary = ensemble.convergence_summary()
        assert summary.count == 5
        assert ensemble.failed_seeds() == []

    def test_budget_failures_recorded(self):
        protocol, population, sf, inf = make_parts()
        ensemble = run_ensemble(
            protocol,
            population,
            sf,
            inf,
            NamingProblem(),
            seeds=range(3),
            max_interactions=1,
        )
        assert ensemble.convergence_rate == 0.0
        assert ensemble.failed_seeds() == [0, 1, 2]
        with pytest.raises(ConvergenceError):
            ensemble.convergence_summary()

    def test_require_convergence_raises_with_seed(self):
        protocol, population, sf, inf = make_parts()
        with pytest.raises(ConvergenceError, match="seed 0"):
            run_ensemble(
                protocol,
                population,
                sf,
                inf,
                NamingProblem(),
                seeds=range(3),
                max_interactions=1,
                require_convergence=True,
            )

    def test_empty_ensemble(self):
        protocol, population, sf, inf = make_parts()
        ensemble = run_ensemble(
            protocol, population, sf, inf, NamingProblem(), seeds=[]
        )
        assert ensemble.convergence_rate == 0.0

    def test_seeds_drive_distinct_runs(self):
        protocol, population, sf, inf = make_parts()
        ensemble = run_ensemble(
            protocol, population, sf, inf, NamingProblem(), seeds=[1, 2]
        )
        a, b = ensemble.results
        # Same start, different schedules: final namings usually differ;
        # at minimum the executions are independent objects.
        assert a is not b
        assert a.converged and b.converged


class TestForwardedKnobs:
    def test_check_interval_forwarded(self):
        protocol, population, sf, inf = make_parts()
        ensemble = run_ensemble(
            protocol,
            population,
            sf,
            inf,
            NamingProblem(),
            seeds=range(3),
            check_interval=7,
        )
        for result in ensemble.results:
            assert result.converged
            assert result.convergence_interaction % 7 == 0

    def test_raise_on_timeout_forwarded(self):
        protocol, population, sf, inf = make_parts()
        with pytest.raises(ConvergenceError):
            run_ensemble(
                protocol,
                population,
                sf,
                inf,
                NamingProblem(),
                seeds=range(2),
                max_interactions=1,
                raise_on_timeout=True,
            )

    def test_fault_hook_forwarded(self):
        protocol, population, sf, inf = make_parts()
        calls = []

        def hook(interaction, config):
            if interaction == 3:
                calls.append(interaction)
            return None

        ensemble = run_ensemble(
            protocol,
            population,
            sf,
            inf,
            NamingProblem(),
            seeds=range(2),
            max_interactions=2_000,
            fault_hook=hook,
        )
        assert calls == [3, 3]
        assert len(ensemble.results) == 2

    def test_unknown_backend_rejected(self):
        from repro.errors import SimulationError

        protocol, population, sf, inf = make_parts()
        with pytest.raises(SimulationError, match="unknown simulation"):
            run_ensemble(
                protocol,
                population,
                sf,
                inf,
                NamingProblem(),
                seeds=range(1),
                backend="warp",
            )


class TestSeedChunking:
    """The parallel path ships seeds to workers in contiguous chunks;
    the split must be balanced, ordered and lossless."""

    def test_chunks_are_contiguous_and_balanced(self):
        from repro.engine.ensemble import _chunk_seeds

        seeds = list(range(11))
        chunks = _chunk_seeds(seeds, 4)
        assert len(chunks) == 4
        assert [s for chunk in chunks for s in chunk] == seeds
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_seeds_drops_empty_chunks(self):
        """Surplus chunks are dropped, not dispatched as empty no-op
        worker tasks (regression: n_jobs larger than the ensemble)."""
        from repro.engine.ensemble import _chunk_seeds

        chunks = _chunk_seeds([1, 2], 5)
        assert chunks == [[1], [2]]
        assert all(chunk for chunk in chunks)

    def test_no_seeds_yields_no_chunks(self):
        from repro.engine.ensemble import _chunk_seeds

        assert _chunk_seeds([], 4) == []

    def test_chunked_serial_dispatch_matches_per_seed(self):
        """Running seeds through the chunk runner yields the same
        per-seed results as the one-seed-at-a-time path."""
        from repro.engine.ensemble import _run_chunk

        protocol, population, sf, inf = make_parts()
        common = (
            protocol,
            population,
            sf,
            inf,
            NamingProblem(),
            100_000,
            "reference",
            None,
            False,
            None,
            False,
        )
        chunked = _run_chunk((common, [0, 1, 2]))
        singles = [_run_chunk((common, [seed]))[0] for seed in (0, 1, 2)]
        assert chunked == singles


def result_key(result):
    return (
        result.converged,
        result.convergence_interaction,
        result.interactions,
        result.non_null_interactions,
        result.final_configuration,
    )


class TestBatchBackend:
    """The default ``"batch"`` path: lockstep batches, seed-identical
    across serial and process-parallel execution."""

    def test_batch_is_default_and_converges(self):
        protocol, population, sf, inf = make_parts(bound=8, n=8)
        ensemble = run_ensemble(
            protocol, population, sf, inf, NamingProblem(), seeds=range(6)
        )
        assert len(ensemble.results) == 6
        assert ensemble.convergence_rate == 1.0

    def test_serial_matches_parallel_and_overprovisioned_jobs(self):
        """n_jobs cannot change any result, even when it exceeds the
        number of seeds (the empty surplus chunks are dropped)."""
        protocol = AsymmetricNamingProtocol(8)
        population = Population(8)
        seeds = list(range(10))
        runs = {}
        for n_jobs in (1, 3, 16):
            ensemble = run_ensemble(
                protocol,
                population,
                _scheduler_factory,
                _initial_factory,
                NamingProblem(),
                seeds=seeds,
                backend="batch",
                n_jobs=n_jobs,
            )
            assert ensemble.seeds == seeds
            runs[n_jobs] = [result_key(r) for r in ensemble.results]
        assert runs[1] == runs[3] == runs[16]

    def test_require_convergence_raises_with_seed(self):
        protocol, population, sf, inf = make_parts()
        with pytest.raises(ConvergenceError, match="seed 0"):
            run_ensemble(
                protocol,
                population,
                sf,
                inf,
                NamingProblem(),
                seeds=range(3),
                max_interactions=1,
                backend="batch",
                require_convergence=True,
            )

    def test_raise_on_timeout_parity(self):
        """Same exception, same wording at n_jobs 1 and 3."""
        errors = {}
        for n_jobs in (1, 3):
            with pytest.raises(ConvergenceError, match="did not converge") as exc:
                run_ensemble(
                    AsymmetricNamingProtocol(5),
                    Population(6),
                    _scheduler_factory,
                    _initial_factory,
                    NamingProblem(),
                    seeds=range(7),
                    max_interactions=1,
                    backend="batch",
                    n_jobs=n_jobs,
                    raise_on_timeout=True,
                )
            errors[n_jobs] = str(exc.value)
        assert errors[1] == errors[3]

    def test_stats_aggregated(self):
        protocol, population, sf, inf = make_parts(bound=8, n=8)
        ensemble = run_ensemble(
            protocol, population, sf, inf, NamingProblem(), seeds=range(5)
        )
        stats = ensemble.stats
        assert stats is not None
        assert stats.wall_seconds >= 0.0
        assert stats.interactions_per_second > 0.0
        assert 0.0 <= stats.null_fraction <= 1.0
        assert stats.wall_seconds == pytest.approx(
            sum(r.stats.wall_seconds for r in ensemble.results)
        )

    def test_stats_none_without_runs(self):
        from repro.engine.ensemble import EnsembleResult

        assert EnsembleResult().stats is None


class TestAutoBackend:
    """``backend="auto"`` resolves by population size: lockstep batch
    below ``BLEAP_MIN_POPULATION``, batched tau-leaping at or above."""

    def test_auto_resolves_to_batch_at_small_n(self):
        protocol, population, sf, inf = make_parts(bound=8, n=8)
        ensemble = run_ensemble(
            protocol, population, sf, inf, NamingProblem(), seeds=range(4)
        )
        assert ensemble.convergence_rate == 1.0
        # The batch engine reports no leap statistics.
        assert ensemble.stats.leaps is None
        assert ensemble.stats.ssa_fallback_rows is None

    def test_auto_resolves_to_bleap_at_large_n(self):
        from repro.engine.ensemble import BLEAP_MIN_POPULATION

        protocol = AsymmetricNamingProtocol(8)
        population = Population(BLEAP_MIN_POPULATION)
        ensemble = run_ensemble(
            protocol,
            population,
            _scheduler_factory,
            _initial_factory,
            NamingProblem(),
            seeds=range(3),
            max_interactions=20_000,
        )
        stats = ensemble.stats
        assert stats.leaps is not None
        assert stats.ssa_fallback_rows is not None

    def test_bleap_stats_aggregated(self):
        protocol = AsymmetricNamingProtocol(8)
        population = Population(20_000)
        seeds = range(4)
        ensemble = run_ensemble(
            protocol,
            population,
            _scheduler_factory,
            _initial_factory,
            NamingProblem(),
            seeds=seeds,
            max_interactions=50_000,
            backend="bleap",
        )
        stats = ensemble.stats
        assert stats.leaps == sum(
            r.stats.leaps for r in ensemble.results
        )
        assert stats.leaps > 0
        assert stats.mean_tau > 0.0
        assert stats.repairs >= 0
        assert 0 <= stats.ssa_fallback_rows <= len(list(seeds))


# Module-level (picklable) fault hook for the cross-process sanitizer
# test: returns a wrong-size configuration at interaction 50, tripping
# the population-size invariant on the reference backend.
def _chop_hook(interaction, config):
    if interaction == 50:
        return Configuration.uniform(Population(4), 0)
    return None


class TestSanitizeAcrossProcesses:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_sanitizer_error_keeps_context(self, n_jobs):
        """``sanitize=True`` composed with ``n_jobs > 1``: the
        SanitizerError raised inside a worker must reach the parent with
        its backend and invariant ids intact (regression: default
        exception pickling preserved only ``args``, so the error crossed
        the process boundary with both attributes blanked)."""
        protocol, population, _, _ = make_parts(bound=5, n=5)
        with pytest.raises(SanitizerError) as err:
            run_ensemble(
                protocol,
                population,
                _scheduler_factory,
                _initial_factory,
                NamingProblem(),
                seeds=range(4),
                max_interactions=10_000,
                backend="reference",
                sanitize=True,
                fault_hook=_chop_hook,
                n_jobs=n_jobs,
            )
        assert err.value.backend == "reference"
        assert err.value.invariant == "population-size"
        assert err.value.interaction == 50


class _CountingInitialFactory:
    """Initial factory that counts its invocations (picklable)."""

    calls = 0  # class attribute: shared within one process

    def __call__(self, population, seed):
        type(self).calls += 1
        return Configuration.uniform(population, 0)


class TestLazyInitials:
    """The lockstep path builds initial configurations on demand."""

    def test_factory_called_once_per_seed_on_batch_path(self):
        protocol, population, sf, _ = make_parts(n=20)
        factory = _CountingInitialFactory()
        _CountingInitialFactory.calls = 0
        run_ensemble(
            protocol,
            population,
            sf,
            factory,
            NamingProblem(),
            seeds=range(6),
            max_interactions=100_000,
            backend="batch",
        )
        assert _CountingInitialFactory.calls == 6

    def test_lazy_initials_do_not_prebuild(self):
        from repro.engine.ensemble import _LazyInitials

        protocol, population, _, _ = make_parts(n=10)
        built = []

        def factory(pop, seed):
            built.append(seed)
            return Configuration.uniform(pop, 0)

        lazy = _LazyInitials(factory, population, [0, 1, 2])
        assert len(lazy) == 3
        assert built == []  # construction is free
        lazy[1]
        assert built == [1]  # indexing builds exactly one
        list(lazy)
        assert built == [1, 0, 1, 2]  # iteration builds each once

    def test_lockstep_chunking_matches_serial(self):
        protocol, population, _, _ = make_parts(n=20)
        serial = run_ensemble(
            protocol,
            population,
            _scheduler_factory,
            _initial_factory,
            NamingProblem(),
            seeds=range(8),
            max_interactions=100_000,
            backend="batch",
        )
        parallel = run_ensemble(
            protocol,
            population,
            _scheduler_factory,
            _initial_factory,
            NamingProblem(),
            seeds=range(8),
            max_interactions=100_000,
            backend="batch",
            n_jobs=2,
        )
        assert parallel.results == serial.results
        assert parallel.seeds == serial.seeds


#: A child interpreter's parallel runs, ``sys.argv[1]`` rounds of them:
#: ``n_jobs=2`` ensembles on both lockstep engines, then a burst of
#: lockstep jobs through a warm two-worker ``ServePool``.  No run can
#: converge within its budget, so every chunk does the same work and the
#: two workers finish together.
_CLEAN_EXIT_CHILD = '''
import sys

from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.ensemble import run_ensemble
from repro.engine.population import Population
from repro.engine.problems import NamingProblem
from repro.schedulers.random_pair import RandomPairScheduler
from repro.serve import JobSpec, ServePool


def scheduler(population, seed):
    return RandomPairScheduler(population, seed=seed)


def uniform(population, seed):
    return Configuration.uniform(population, 0)


def main(rounds):
    protocol = AsymmetricNamingProtocol(32)
    population = Population(30)
    for r in range(rounds):
        for backend in ("batch", "bleap"):
            run_ensemble(
                protocol, population, scheduler, uniform, NamingProblem(),
                seeds=range(8), max_interactions=500, backend=backend,
                n_jobs=2,
            )
        with ServePool(max_workers=2) as pool:
            pool.warm()
            for j in range(20):
                base = 10_000 * r + 100 * j
                spec = JobSpec(
                    protocol, population, scheduler, uniform,
                    NamingProblem(), seeds=tuple(range(base, base + 32)),
                    max_interactions=500, backend="batch",
                )
                pool.submit(spec).result(timeout=120)


if __name__ == "__main__":
    main(int(sys.argv[1]))
'''


class TestCleanExit:
    def test_parallel_runs_exit_without_stderr(self, tmp_path):
        """Parallel runs write nothing to stderr, during the run or at
        exit, and the child exits 0."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        script = tmp_path / "child.py"
        script.write_text(_CLEAN_EXIT_CHILD)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        child = subprocess.run(
            [sys.executable, str(script), "3"],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert child.returncode == 0, child.stderr
        assert child.stderr == ""
