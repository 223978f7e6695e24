"""The serve pool: bit-identity, backpressure, crash recovery."""

import os
import time

import pytest

from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.ensemble import run_ensemble
from repro.engine.population import Population
from repro.engine.problems import NamingProblem
from repro.errors import ServeError, ServeSaturatedError, WorkerCrashError
from repro.schedulers.random_pair import RandomPairScheduler
from repro.serve.pool import ServePool
from repro.serve.spec import JobSpec


def _scheduler_factory(population, seed):
    return RandomPairScheduler(population, seed=seed)


def _initial_factory(population, seed):
    return Configuration.uniform(population, 0)


def _slow_initial_factory(population, seed):
    time.sleep(0.25)
    return Configuration.uniform(population, 0)


def _crashing_initial_factory(population, seed):
    os._exit(13)


def make_spec(**overrides):
    kwargs = dict(
        protocol=AsymmetricNamingProtocol(4),
        population=Population(30),
        scheduler_factory=_scheduler_factory,
        initial_factory=_initial_factory,
        problem=NamingProblem(),
        seeds=(0, 1, 2, 3),
        max_interactions=100_000,
        backend="batch",
    )
    kwargs.update(overrides)
    return JobSpec(**kwargs)


def fresh_ensemble(spec):
    return run_ensemble(
        spec.protocol,
        spec.population,
        spec.scheduler_factory,
        spec.initial_factory,
        spec.problem,
        list(spec.seeds),
        max_interactions=spec.max_interactions,
        backend=spec.backend,
        sanitize=spec.sanitize,
    )


@pytest.fixture(scope="module")
def pool():
    with ServePool(max_workers=2) as shared:
        shared.warm()
        yield shared


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["batch", "fast"])
    @pytest.mark.parametrize("sanitize", [False, True])
    def test_pool_matches_serial_run(self, pool, backend, sanitize):
        spec = make_spec(backend=backend, sanitize=sanitize)
        reference = fresh_ensemble(spec)
        served = pool.submit(spec).result(timeout=120)
        assert served.results == reference.results
        assert served.seeds == reference.seeds

    def test_memo_replay_through_pool(self, pool):
        spec = make_spec(seeds=(40, 41, 42))
        first = pool.submit(spec)
        ensemble = first.result(timeout=120)
        second = pool.submit(spec)
        assert not first.from_memo
        assert second.from_memo
        replay = second.result()
        assert replay.results == ensemble.results
        assert replay.seeds == ensemble.seeds

    def test_progress_reaches_completion(self, pool):
        spec = make_spec(seeds=(50, 51, 52, 53, 54))
        handle = pool.submit(spec)
        snapshots = list(handle.stream())
        handle.result(timeout=120)
        final = handle.progress()
        assert snapshots[-1].done
        assert final.seeds_done == 5
        assert final.fraction == 1.0


class TestProtocolsOnly:
    """The pool publishes protocols, not compiled artifacts: a worker
    compiles each protocol on first use."""

    def test_cache_holds_protocols_and_results_only(self, tmp_path):
        with ServePool(max_workers=1, cache_dir=tmp_path) as pool:
            for backend in ("batch", "fast"):
                spec = make_spec(backend=backend, seeds=(90, 91))
                pool.submit(spec).result(timeout=120)
        kinds = {
            path.relative_to(tmp_path).parts[0]
            for path in tmp_path.rglob("*.pkl")
        }
        assert kinds == {"protocol", "results"}
        spec = make_spec(seeds=(92, 93, 94))
        with ServePool(max_workers=1, cache_dir=tmp_path) as again:
            handle = again.submit(spec)
            served = handle.result(timeout=120)
        assert not handle.from_memo
        reference = fresh_ensemble(spec)
        assert served.results == reference.results
        assert served.seeds == reference.seeds


class TestBackpressure:
    def test_nonblocking_submit_raises_when_saturated(self):
        with ServePool(max_workers=1, max_pending=1) as pool:
            pool.warm()
            slow = make_spec(
                initial_factory=_slow_initial_factory, seeds=(0, 1)
            )
            handle = pool.submit(slow)
            with pytest.raises(ServeSaturatedError) as excinfo:
                pool.submit(make_spec(seeds=(7, 8)), block=False)
            assert excinfo.value.pending == 1
            assert excinfo.value.max_pending == 1
            with pytest.raises(ServeSaturatedError):
                pool.submit(make_spec(seeds=(7, 8)), timeout=0.01)
            handle.result(timeout=120)
            # A finished job frees its slot.
            follow_up = pool.submit(make_spec(seeds=(7, 8)), block=False)
            follow_up.result(timeout=120)

    def test_blocking_submit_waits_for_a_slot(self):
        with ServePool(max_workers=1, max_pending=1) as pool:
            pool.warm()
            slow = make_spec(
                initial_factory=_slow_initial_factory, seeds=(0, 1)
            )
            first = pool.submit(slow)
            second = pool.submit(make_spec(seeds=(9, 10)), timeout=120)
            first.result(timeout=120)
            second.result(timeout=120)
            assert pool.pending_jobs == 0


class TestCrashRecovery:
    def test_worker_crash_raises_structured_error(self):
        with ServePool(max_workers=1) as pool:
            pool.warm()
            doomed = make_spec(
                initial_factory=_crashing_initial_factory, seeds=(0, 1)
            )
            handle = pool.submit(doomed)
            with pytest.raises(WorkerCrashError) as excinfo:
                handle.result(timeout=120)
            assert excinfo.value.job_id == handle.job_id
            assert excinfo.value.seeds == (0, 1)
            assert excinfo.value.reason
            assert pool.worker_crashes >= 1
            # The pool rebuilds its executor and keeps serving.
            spec = make_spec(seeds=(60, 61))
            served = pool.submit(spec).result(timeout=120)
            assert served.results == fresh_ensemble(spec).results


class TestLifecycle:
    def test_shutdown_rejects_new_jobs(self):
        pool = ServePool(max_workers=1)
        pool.shutdown()
        with pytest.raises(ServeError):
            pool.submit(make_spec())

    def test_shutdown_is_idempotent(self):
        pool = ServePool(max_workers=1)
        pool.warm()
        pool.submit(make_spec(seeds=(72,))).result(timeout=120)
        pool.shutdown()
        pool.shutdown()  # second call is a no-op, not an error
        pool.shutdown(wait=False)

    @pytest.mark.parametrize("backend", ["fast", "batch"])
    def test_job_finished_before_shutdown_stays_readable(self, backend):
        pool = ServePool(max_workers=1)
        spec = make_spec(backend=backend, seeds=(95, 96))
        handle = pool.submit(spec)
        while not handle.done():
            time.sleep(0.01)
        pool.shutdown()
        assert not pool.cache.root.exists()
        served = handle.result(timeout=120)
        assert served.results == fresh_ensemble(spec).results
        # Reading the job must not re-create the deleted cache root.
        assert not pool.cache.root.exists()

    def test_shutdown_after_context_exit_is_a_noop(self):
        with ServePool(max_workers=1) as pool:
            pool.submit(make_spec(seeds=(73,))).result(timeout=120)
        pool.shutdown()

    def test_del_shuts_down_silently(self):
        # __del__ may run at interpreter teardown with modules half
        # gone; it must never raise, and must release pool resources.
        pool = ServePool(max_workers=1)
        root = pool.cache.root
        pool.__del__()
        assert not root.exists()
        pool.__del__()  # and it is as idempotent as shutdown()

    def test_owned_cache_dir_removed_on_shutdown(self):
        pool = ServePool(max_workers=1)
        root = pool.cache.root
        pool.submit(make_spec(seeds=(70,))).result(timeout=120)
        assert root.exists()
        pool.shutdown()
        assert not root.exists()

    def test_provided_cache_dir_survives_shutdown(self, tmp_path):
        with ServePool(max_workers=1, cache_dir=tmp_path) as pool:
            pool.submit(make_spec(seeds=(71,))).result(timeout=120)
        assert tmp_path.exists()
        assert list(tmp_path.rglob("*.pkl"))

    def test_stats_counters(self, tmp_path):
        with ServePool(max_workers=1, cache_dir=tmp_path) as pool:
            spec = make_spec(seeds=(80, 81))
            pool.submit(spec).result(timeout=120)
            pool.submit(spec).result()
            stats = pool.stats()
        assert stats["jobs_submitted"] == 2
        assert stats["memo_hits"] == 1
        assert stats["pending_jobs"] == 0

    def test_lint_served_from_cache(self, tmp_path):
        with ServePool(max_workers=1, cache_dir=tmp_path) as pool:
            report = pool.lint(AsymmetricNamingProtocol(5), bound=5)
            again = pool.lint(AsymmetricNamingProtocol(5), bound=5)
        assert report.rules_run == again.rules_run
        assert len(report.diagnostics) == len(again.diagnostics)
        # The second call was served from the content-addressed cache.
        assert pool.cache.stats.hits >= 1
