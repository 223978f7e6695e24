"""The serving layer: amortize per-call setup across many requests.

Every direct :func:`repro.engine.ensemble.run_ensemble` call pays cold
start: a fresh :class:`~concurrent.futures.ProcessPoolExecutor`, a full
protocol pickle per task, and a recompilation of the interned transition
tables and sampling plans in every worker.  This package pays them once
per pool instead of once per call: one executor, one published pickle
per protocol, and one compile per protocol in each worker, which keeps
it for the pool's life:

* :mod:`repro.serve.cache` - :class:`ArtifactCache`, a content-addressed
  store (disk-backed, in-memory LRU on top) for published protocols,
  lint reports and memoized results, shared across protocol *instances*
  and worker processes;
* :mod:`repro.serve.spec` - canonical spec hashing:
  :func:`protocol_fingerprint` keys published protocols,
  :func:`job_key` keys memoized results on
  (spec hash, seeds, budget, backend, sanitize);
* :mod:`repro.serve.memo` - :class:`ResultMemo`, bit-identical replay of
  previously served ensembles;
* :mod:`repro.serve.pool` - :class:`ServePool`, a persistent sharded
  worker pool that outlives individual calls, ships specs by hash
  instead of pickling whole objects, warms workers once, and applies
  bounded-queue backpressure; jobs are submitted as :class:`JobSpec` and
  tracked through :class:`JobHandle` (progress streaming +
  ``result()``).

The ``serve`` section of ``repro bench``
(:mod:`repro.experiments.bench`) measures the package: a burst of small
heterogeneous jobs run cold (one ``run_ensemble`` call each), warm
(through a fresh warmed :class:`ServePool`) and memoized, with every
warm and memoized ensemble checked bit-identical to the cold one.  CI
gates the cold/warm wall-clock ratio at 3.
"""

from repro.serve.cache import ArtifactCache, CacheStats
from repro.serve.memo import ResultMemo, run_memoized
from repro.serve.pool import JobHandle, JobProgress, ServePool
from repro.serve.spec import (
    JobSpec,
    callable_token,
    job_key,
    protocol_fingerprint,
    resolve_backend,
)

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "JobHandle",
    "JobProgress",
    "JobSpec",
    "ResultMemo",
    "ServePool",
    "callable_token",
    "job_key",
    "protocol_fingerprint",
    "resolve_backend",
    "run_memoized",
]
