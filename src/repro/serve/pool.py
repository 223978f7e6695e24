"""The persistent serve pool: sharded workers that outlive calls.

``run_ensemble(n_jobs=...)`` creates a fresh
:class:`~concurrent.futures.ProcessPoolExecutor` per call and pickles
the whole protocol into every task.  :class:`ServePool` keeps one
executor alive across calls and ships protocols **by content hash**
instead: ``submit`` publishes the pickled protocol into the pool's
:class:`~repro.serve.cache.ArtifactCache` once per fingerprint, and each
worker resolves the hash against its process-local registry or the
shared disk layer.  A worker compiles a protocol's transition table and
sampling plans on first use and keeps them in its engine caches for the
pool's life.

Jobs are chunked exactly as ``run_ensemble`` chunks them (one chunk per
worker for the lockstep engines, four per worker otherwise) and every
replicate's randomness is a pure function of its own seed, so pool
results are **bit-identical** to a serial ``run_ensemble`` with the same
spec (``tests/serve/test_pool.py`` enforces this).

Operational behavior:

* **Warm-up**: :meth:`ServePool.warm` spins up the workers and runs
  their initializer (imports of the NumPy engine stack) ahead of the
  first job; otherwise the first ``submit`` pays it.
* **Backpressure**: ``max_pending`` bounds the number of unfinished
  jobs.  ``submit(block=True)`` waits for a slot; ``block=False``
  raises :class:`~repro.errors.ServeSaturatedError` immediately.
* **Memoization**: repeated submissions of an identical spec (same
  :func:`~repro.serve.spec.job_key`) replay stored results without
  touching the workers.
* **Crash recovery**: a dying worker breaks the executor;
  affected jobs raise a structured
  :class:`~repro.errors.WorkerCrashError` (never hang), the broken
  executor is discarded, and the next submission starts a fresh one.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import wait as _wait
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.engine.ensemble import (
    _LOCKSTEP_BACKENDS,
    EnsembleResult,
    _chunk_seeds,
    _run_batch_chunk,
    _run_chunk,
)
from repro.engine.protocol import PopulationProtocol
from repro.engine.simulator import SimulationResult
from repro.errors import ServeError, ServeSaturatedError, WorkerCrashError
from repro.serve.cache import DEFAULT_MEMORY_ITEMS, ArtifactCache
from repro.serve.memo import ResultMemo, assemble
from repro.serve.spec import JobSpec, job_key, protocol_fingerprint

#: Artifact kind of the published protocols.
PROTOCOL_KIND = "protocol"

#: Smallest lockstep batch worth splitting off as its own worker chunk.
#: ``run_ensemble`` splits a single ensemble into one chunk per worker
#: because it has nothing else to parallelize over; a serving pool has
#: *other jobs*, so splitting a small job only multiplies per-batch
#: kernel setup without improving utilization.  Chunking is
#: result-invariant either way (each row's randomness is a function of
#: its own seed), so this is purely a throughput policy.
LOCKSTEP_MIN_CHUNK = 16


# ----------------------------------------------------------------------
# Worker-side state and entry points (module-level: must be picklable)
# ----------------------------------------------------------------------

#: The worker's attachment to the shared disk cache (set by the
#: initializer; ``None`` in the submitting process).
_WORKER_CACHE: ArtifactCache | None = None

#: Worker-local fingerprint -> protocol registry, so repeated chunks of
#: the same protocol skip even the disk read.
_WORKER_PROTOCOLS: dict[str, PopulationProtocol] = {}


def _warm_worker(cache_root: str | None) -> None:
    """Process-pool initializer: import the engine stack, attach the cache.

    Importing :mod:`repro.engine` pulls NumPy and registers every
    backend, so the first real chunk does not pay module-import latency;
    attaching the cache lets the worker resolve protocols by hash.
    """
    global _WORKER_CACHE
    import repro.engine  # noqa: F401  (import cost is the warm-up)

    _WORKER_CACHE = (
        ArtifactCache(cache_root) if cache_root is not None else None
    )


def _worker_ready() -> bool:
    """A no-op task used by :meth:`ServePool.warm` as a readiness probe."""
    return True


def _resolve_protocol(
    fingerprint: str | None, payload: PopulationProtocol | None
) -> PopulationProtocol:
    """Turn a task's protocol reference into a protocol instance.

    ``payload`` is only shipped for unfingerprintable protocols; every
    other task carries just the hash, resolved against the worker's
    local registry first and the shared disk cache second.
    """
    if payload is not None:
        return payload
    assert fingerprint is not None
    protocol = _WORKER_PROTOCOLS.get(fingerprint)
    if protocol is not None:
        return protocol
    if _WORKER_CACHE is None:
        raise ServeError(
            "worker has no artifact cache attached; cannot resolve "
            f"protocol {fingerprint[:12]}..."
        )
    loaded = _WORKER_CACHE.get(PROTOCOL_KIND, fingerprint)
    if loaded is None:
        raise ServeError(
            f"protocol {fingerprint[:12]}... not found in the artifact "
            "cache (was it published before submission?)"
        )
    protocol = loaded  # type: ignore[assignment]
    _WORKER_PROTOCOLS[fingerprint] = protocol
    return protocol


def _serve_chunk(task: tuple) -> list[SimulationResult]:
    """Worker entry point: run one seed chunk of a job.

    The task carries the protocol by hash (or by value when it has
    none) plus the scalar run parameters; execution reuses the exact
    ensemble chunk runners, so results match ``run_ensemble``
    bit-for-bit.
    """
    (
        fingerprint,
        payload,
        population,
        scheduler_factory,
        initial_factory,
        problem,
        max_interactions,
        backend,
        check_interval,
        sanitize,
        seeds,
    ) = task
    protocol = _resolve_protocol(fingerprint, payload)
    common = (
        protocol,
        population,
        scheduler_factory,
        initial_factory,
        problem,
        max_interactions,
        backend,
        check_interval,
        False,  # raise_on_timeout: convergence is enforced at assembly
        None,  # fault_hook: not part of the serving surface
        sanitize,
    )
    runner = (
        _run_batch_chunk if backend in _LOCKSTEP_BACKENDS else _run_chunk
    )
    return runner((common, list(seeds)))


# ----------------------------------------------------------------------
# Job handles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class JobProgress:
    """A point-in-time progress snapshot of a submitted job."""

    seeds_done: int
    seeds_total: int
    chunks_done: int
    chunks_total: int

    @property
    def done(self) -> bool:
        """Whether every chunk has completed."""
        return self.chunks_done >= self.chunks_total

    @property
    def fraction(self) -> float:
        """Completed fraction of the job's seeds, in ``[0, 1]``."""
        if self.seeds_total == 0:
            return 1.0
        return self.seeds_done / self.seeds_total


class JobHandle:
    """A submitted job: progress inspection and result retrieval.

    Returned by :meth:`ServePool.submit`.  ``result()`` blocks until
    every chunk has finished (or ``timeout`` elapses) and assembles the
    per-seed results in seed order; :meth:`progress` and :meth:`stream`
    expose chunk completion as it happens.  Memo-served jobs are born
    complete.
    """

    def __init__(
        self,
        pool: "ServePool",
        spec: JobSpec,
        key: str | None,
        job_id: int,
        futures: list[Future],
        chunks: list[list[int]],
        memo_results: list[SimulationResult] | None = None,
    ) -> None:
        self._pool = pool
        self.spec = spec
        self.key = key
        self.job_id = job_id
        self._futures = futures
        self._chunks = chunks
        self._results = memo_results
        #: Whether this handle was served from the result memo.
        self.from_memo = memo_results is not None
        self._open_chunks = len(futures)
        if not self.from_memo:
            for future in futures:
                future.add_done_callback(self._chunk_done)
            if not futures:
                pool._job_finished()

    # -- progress ------------------------------------------------------

    def _chunk_done(self, _future: Future) -> None:
        with self._pool._lock:
            self._open_chunks -= 1
            finished = self._open_chunks == 0
        if finished:
            self._pool._job_finished()

    def progress(self) -> JobProgress:
        """The job's current :class:`JobProgress` snapshot."""
        if self.from_memo:
            n = len(self.spec.seeds)
            return JobProgress(n, n, 1, 1)
        done_chunks = [f.done() for f in self._futures]
        seeds_done = sum(
            len(chunk)
            for chunk, chunk_is_done in zip(self._chunks, done_chunks)
            if chunk_is_done
        )
        return JobProgress(
            seeds_done=seeds_done,
            seeds_total=len(self.spec.seeds),
            chunks_done=sum(done_chunks),
            chunks_total=max(1, len(self._futures)),
        )

    def done(self) -> bool:
        """Whether the job has finished (successfully or not)."""
        if self._results is not None:
            return True
        return all(f.done() for f in self._futures)

    def stream(self, poll: float = 0.02) -> Iterator[JobProgress]:
        """Yield a :class:`JobProgress` on every chunk completion.

        Polls at ``poll``-second granularity and always yields the final
        (complete) snapshot last, so consumers can drive progress bars
        with ``for p in handle.stream(): ...``.
        """
        last = -1
        while True:
            snapshot = self.progress()
            if snapshot.chunks_done != last:
                last = snapshot.chunks_done
                yield snapshot
            if snapshot.done:
                return
            time.sleep(poll)

    # -- results -------------------------------------------------------

    def result(self, timeout: float | None = None) -> EnsembleResult:
        """Block for completion and assemble the ensemble, seed-ordered.

        Raises :class:`TimeoutError` when ``timeout`` elapses first,
        :class:`~repro.errors.WorkerCrashError` when a worker process
        died under the job, and re-raises any structured simulation
        error a chunk raised (``SanitizerError``, ...).  On success the
        per-seed results are memoized (when the job has a key and the
        pool is still open) and the assembled :class:`EnsembleResult` is
        bit-identical to a serial ``run_ensemble`` of the same spec.
        """
        if self._results is None:
            done, not_done = _wait(self._futures, timeout=timeout)
            if not_done:
                raise TimeoutError(
                    f"job {self.job_id} incomplete after {timeout} s: "
                    f"{len(not_done)} of {len(self._futures)} chunks "
                    "still running"
                )
            chunk_results: list = []
            for future in self._futures:
                try:
                    chunk_results.append(future.result())
                except BrokenExecutor as exc:
                    self._pool._handle_crash()
                    raise WorkerCrashError(
                        f"a worker process died while serving job "
                        f"{self.job_id}; the pool recovered but the "
                        "job's results are lost - resubmit it",
                        job_id=self.job_id,
                        seeds=self.spec.seeds,
                        reason=repr(exc),
                    ) from exc
            self._results = [r for chunk in chunk_results for r in chunk]
            # A closed pool may have deleted its owned cache root; a
            # memo store would re-create it with nothing to remove it.
            if (
                self.key is not None
                and self._pool.memo is not None
                and not self._pool._closed
            ):
                self._pool.memo.store(self.key, self._results)
        return assemble(self.spec, self._results)


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------


class ServePool:
    """A persistent, cache-backed worker pool for ensemble jobs.

    Parameters
    ----------
    max_workers:
        Worker process count (the shard width).
    cache_dir:
        Root of the shared :class:`ArtifactCache`.  ``None`` creates a
        private temporary directory, removed on :meth:`shutdown`.
    max_pending:
        Backpressure bound: the maximum number of unfinished jobs.
        ``None`` disables backpressure.
    memoize:
        Whether to serve repeated identical specs from the result memo.
    memory_items, disk_bytes:
        Forwarded to the pool's :class:`ArtifactCache`.

    Use as a context manager (``with ServePool() as pool: ...``) or
    call :meth:`shutdown` explicitly.
    """

    def __init__(
        self,
        max_workers: int = 2,
        cache_dir: str | os.PathLike | None = None,
        max_pending: int | None = None,
        memoize: bool = True,
        memory_items: int = DEFAULT_MEMORY_ITEMS,
        disk_bytes: int | None = None,
    ) -> None:
        self.max_workers = max(1, max_workers)
        self.max_pending = max_pending
        self._owns_cache_dir = cache_dir is None
        root = (
            Path(tempfile.mkdtemp(prefix="repro-serve-"))
            if cache_dir is None
            else Path(cache_dir)
        )
        self.cache = ArtifactCache(
            root, memory_items=memory_items, disk_bytes=disk_bytes
        )
        self.memo: ResultMemo | None = (
            ResultMemo(self.cache) if memoize else None
        )
        self._executor: ProcessPoolExecutor | None = None
        self._published: set[str] = set()
        self._lock = threading.Lock()
        self._slot_free = threading.Condition(self._lock)
        self._unfinished = 0
        self._next_job_id = 0
        self._closed = False
        #: Counters: submissions, memo hits, worker crashes survived.
        self.jobs_submitted = 0
        self.memo_hits = 0
        self.worker_crashes = 0

    # -- lifecycle -----------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        """Create (or return) the executor; caller holds the lock."""
        if self._closed:
            raise ServeError("the serve pool has been shut down")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_warm_worker,
                initargs=(str(self.cache.root),),
            )
        return self._executor

    def warm(self) -> None:
        """Start the workers and wait for their initializers.

        Best-effort: submits one readiness probe per worker so that by
        the time ``warm`` returns, the engine stack is imported in (at
        least) the workers that will serve the first jobs.  Calling it
        is optional - an unwarmed pool simply pays the cost on the
        first ``submit``.
        """
        with self._lock:
            executor = self._ensure_executor()
        probes = [
            executor.submit(_worker_ready)
            for _ in range(self.max_workers)
        ]
        for probe in probes:
            probe.result()

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers and release the pool's resources.

        Idempotent and safe to call from ``__del__`` or an ``atexit``
        hook: repeated calls (including concurrent ones) are no-ops
        beyond the first, and nothing here assumes the interpreter is
        fully alive.  Jobs that finished before shutdown can still be
        read; their results are not memoized.  A pool-owned temporary
        cache directory is deleted; a caller-provided ``cache_dir`` is
        left in place (it may be shared with other pools).
        """
        with self._lock:
            already_closed = self._closed
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)
        if already_closed:
            return
        if self._owns_cache_dir:
            shutil.rmtree(self.cache.root, ignore_errors=True)

    def __enter__(self) -> "ServePool":
        """Enter: the pool itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Exit: shut the pool down, waiting for the workers."""
        self.shutdown(wait=True)

    def __del__(self) -> None:
        # Last-resort cleanup for pools dropped without shutdown().
        # Interpreter teardown may run this with modules half-cleared,
        # so never let anything escape.
        try:
            self.shutdown(wait=False)
        except Exception:
            pass

    # -- submission ----------------------------------------------------

    @property
    def pending_jobs(self) -> int:
        """Number of submitted jobs not yet finished."""
        with self._lock:
            return self._unfinished

    def _job_finished(self) -> None:
        with self._slot_free:
            self._unfinished -= 1
            self._slot_free.notify_all()

    def _handle_crash(self) -> None:
        """Discard a broken executor; the next submit builds a fresh one."""
        with self._lock:
            executor, self._executor = self._executor, None
            self.worker_crashes += 1
        if executor is not None:
            executor.shutdown(wait=False)

    def _publish(self, fingerprint: str, protocol: PopulationProtocol):
        """Publish the protocol's pickle, once per hash."""
        with self._lock:
            if fingerprint in self._published:
                return
        if not self.cache.contains(PROTOCOL_KIND, fingerprint):
            self.cache.put(PROTOCOL_KIND, fingerprint, protocol)
        with self._lock:
            self._published.add(fingerprint)

    def submit(
        self,
        spec: JobSpec,
        block: bool = True,
        timeout: float | None = None,
    ) -> JobHandle:
        """Submit one ensemble job; returns its :class:`JobHandle`.

        Memo hits return a completed handle immediately (no worker
        round-trip, no backpressure accounting).  Otherwise the job's
        seeds are chunked exactly as ``run_ensemble`` would chunk them
        and dispatched to the persistent workers, with the protocol
        shipped by content hash.

        When the pool is saturated (``max_pending`` unfinished jobs),
        ``block=True`` waits up to ``timeout`` seconds for a slot
        (forever when ``None``) and ``block=False`` raises
        :class:`~repro.errors.ServeSaturatedError` immediately; the
        blocking wait raises the same error on timeout.
        """
        key = None
        if self.memo is not None:
            key = job_key(spec)
            if key is not None:
                stored = self.memo.lookup(key)
                if stored is not None and len(stored) == len(spec.seeds):
                    with self._lock:
                        self.jobs_submitted += 1
                        self.memo_hits += 1
                        job_id = self._next_job_id
                        self._next_job_id += 1
                    return JobHandle(
                        self, spec, key, job_id, [], [], stored
                    )
        with self._slot_free:
            if self.max_pending is not None:
                if not block and self._unfinished >= self.max_pending:
                    raise ServeSaturatedError(
                        f"serve pool is saturated: {self._unfinished} "
                        f"jobs pending (max_pending={self.max_pending})",
                        pending=self._unfinished,
                        max_pending=self.max_pending,
                    )
                deadline = (
                    None if timeout is None else time.monotonic() + timeout
                )
                while self._unfinished >= self.max_pending:
                    remaining = (
                        None
                        if deadline is None
                        else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise ServeSaturatedError(
                            "serve pool is saturated: timed out after "
                            f"{timeout} s waiting for a free slot "
                            f"(max_pending={self.max_pending})",
                            pending=self._unfinished,
                            max_pending=self.max_pending,
                        )
                    self._slot_free.wait(remaining)
            executor = self._ensure_executor()
            self._unfinished += 1
            self.jobs_submitted += 1
            job_id = self._next_job_id
            self._next_job_id += 1
        fingerprint = protocol_fingerprint(spec.protocol)
        payload = None
        if fingerprint is None:
            payload = spec.protocol  # ship by value: no content hash
        else:
            self._publish(fingerprint, spec.protocol)
        backend = spec.resolved_backend
        if backend in _LOCKSTEP_BACKENDS:
            n_chunks = min(
                self.max_workers,
                max(1, len(spec.seeds) // LOCKSTEP_MIN_CHUNK),
            )
        else:
            n_chunks = self.max_workers * 4
        chunks = _chunk_seeds(list(spec.seeds), max(1, n_chunks))
        try:
            futures = [
                executor.submit(
                    _serve_chunk,
                    (
                        fingerprint,
                        payload,
                        spec.population,
                        spec.scheduler_factory,
                        spec.initial_factory,
                        spec.problem,
                        spec.max_interactions,
                        backend,
                        spec.check_interval,
                        spec.sanitize,
                        tuple(chunk),
                    ),
                )
                for chunk in chunks
            ]
        except BrokenExecutor as exc:
            # The executor died between jobs; release the slot, discard
            # it, and surface a structured error so the caller can
            # resubmit against the fresh pool the next submit builds.
            self._job_finished()
            self._handle_crash()
            raise WorkerCrashError(
                f"the worker pool was broken when job {job_id} was "
                "submitted; it has been rebuilt - resubmit the job",
                job_id=job_id,
                seeds=spec.seeds,
                reason=repr(exc),
            ) from exc
        return JobHandle(self, spec, key, job_id, futures, chunks)

    # -- auxiliary services -------------------------------------------

    def lint(self, protocol: PopulationProtocol, bound: int | None = None):
        """A content-addressed cached lint report for ``protocol``.

        Delegates to :func:`repro.lint.engine.cached_lint_report` with
        the pool's artifact cache: equal protocol instances - across
        pools sharing a cache dir, across processes - reuse one stored
        report.
        """
        from repro.lint.engine import cached_lint_report

        return cached_lint_report(protocol, bound=bound, cache=self.cache)

    def stats(self) -> dict:
        """Operational counters, including the artifact-cache stats."""
        cache = self.cache.stats
        with self._lock:
            return {
                "jobs_submitted": self.jobs_submitted,
                "memo_hits": self.memo_hits,
                "worker_crashes": self.worker_crashes,
                "pending_jobs": self._unfinished,
                "artifact_memory_hits": cache.memory_hits,
                "artifact_disk_hits": cache.disk_hits,
                "artifact_misses": cache.misses,
            }
