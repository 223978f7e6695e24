"""Canonical spec hashing: the serving layer's cache keys.

Two keys matter.  :func:`protocol_fingerprint` identifies a protocol by
*content* (canonical state ordering + non-null transition entries, via
:func:`repro.engine.fast.table_fingerprint`), so equal protocol
instances - across processes, across sessions - share one published
protocol.  :func:`job_key` extends it to a full ensemble request:
(protocol fingerprint, population, factories, problem, seeds, budget,
resolved backend, sanitize, check interval), which keys result
memoization with bit-identical replay.

Factories and problems are hashed by :func:`callable_token`.  The token
of a module-level function is its dotted path; the token of an instance
is its class's dotted path plus its ``repr`` when the class defines one
(frozen dataclasses do).  Instances of classes with the default
``object.__repr__`` are keyed by class alone - the serving layer
therefore assumes the documented :func:`repro.engine.ensemble.run_ensemble`
factory contract: factories are *pure* functions of ``(population,
seed)``, so two instances of the same factory class are interchangeable.
Stateful factories that want distinct cache identities need only define
``__repr__`` over their distinguishing fields.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import dataclass

from repro.engine.ensemble import (
    InitialFactory,
    SchedulerFactory,
    resolve_backend,
)
from repro.engine.fast import DEFAULT_COMPILE_LIMIT, table_fingerprint
from repro.engine.population import Population
from repro.engine.problems import Problem
from repro.engine.protocol import PopulationProtocol


def protocol_fingerprint(
    protocol: PopulationProtocol,
    compile_limit: int = DEFAULT_COMPILE_LIMIT,
) -> str | None:
    """Content fingerprint of ``protocol``, or ``None`` if uncompilable.

    Delegates to :func:`repro.engine.fast.table_fingerprint`: the sha256
    of the canonical state ordering and non-null transition entries.
    Protocols whose state spaces cannot be enumerated (or exceed
    ``compile_limit``) have no fingerprint; the serving layer ships them
    by value and skips artifact/result caching for them.
    """
    return table_fingerprint(protocol, compile_limit)


def callable_token(obj: object) -> str:
    """A stable, process-independent identity token for a callable.

    Module-level functions and classes token to ``module:qualname``;
    bound methods append the method name to their owner's token;
    instances token to their class path plus ``repr(obj)`` when the
    class customizes ``__repr__`` (the default ``object.__repr__``
    embeds a memory address and is excluded).  ``None`` tokens to
    ``"none"``.
    """
    if obj is None:
        return "none"
    if inspect.isfunction(obj) or inspect.isbuiltin(obj):
        return f"{obj.__module__}:{obj.__qualname__}"
    if inspect.isclass(obj):
        return f"{obj.__module__}:{obj.__qualname__}"
    if inspect.ismethod(obj):
        return f"{callable_token(obj.__self__)}.{obj.__func__.__name__}"
    cls = type(obj)
    token = f"{cls.__module__}:{cls.__qualname__}"
    if cls.__repr__ is not object.__repr__:
        return f"{token}|{obj!r}"
    return token


@dataclass(frozen=True)
class JobSpec:
    """One ensemble request, as submitted to a :class:`ServePool`.

    Mirrors the :func:`repro.engine.ensemble.run_ensemble` signature for
    the serving-friendly subset: factories must be picklable and pure in
    ``(population, seed)``, and fault hooks / traces (which defeat both
    caching and the lockstep engines) are not part of the serving
    surface - use ``run_ensemble`` directly for those.

    ``require_convergence`` is enforced at assembly time, in seed order,
    so it does not enter the memoization key: a memoized ensemble
    replays bit-identically and then raises on the same first
    non-converged seed a fresh run would.
    """

    protocol: PopulationProtocol
    population: Population
    scheduler_factory: SchedulerFactory
    initial_factory: InitialFactory
    problem: Problem | None
    seeds: tuple[int, ...]
    max_interactions: int = 1_000_000
    backend: str = "auto"
    check_interval: int | None = None
    sanitize: bool = False
    require_convergence: bool = False

    def __post_init__(self) -> None:
        # Accept any iterable of seeds; store a tuple so the spec stays
        # hashable and the job key deterministic.
        object.__setattr__(self, "seeds", tuple(self.seeds))

    @property
    def resolved_backend(self) -> str:
        """The backend that will actually serve this job."""
        return resolve_backend(self.backend, self.population)


def job_key(spec: JobSpec) -> str | None:
    """The memoization key of ``spec``, or ``None`` when uncacheable.

    sha256 over the protocol's content fingerprint, the population
    shape, the factory/problem tokens, the exact seed tuple, the
    interaction budget, the *resolved* backend, the check interval and
    the sanitize flag.  ``None`` when the protocol has no fingerprint
    (uncompilable state space) - such jobs run uncached.
    """
    fingerprint = protocol_fingerprint(spec.protocol)
    if fingerprint is None:
        return None
    h = hashlib.sha256()
    parts = (
        # The version moves whenever an engine's per-seed results change
        # (v2: bleap's exact-SSA bursts draw on the lockstep kernel), so
        # a persisted cache never replays results of older draws.
        "repro-job-v2",
        fingerprint,
        f"{spec.population.n_mobile}:{int(spec.population.has_leader)}",
        callable_token(spec.scheduler_factory),
        callable_token(spec.initial_factory),
        callable_token(spec.problem),
        ",".join(str(seed) for seed in spec.seeds),
        str(spec.max_interactions),
        spec.resolved_backend,
        str(spec.check_interval),
        str(int(spec.sanitize)),
    )
    h.update("\x00".join(parts).encode())
    return h.hexdigest()


__all__ = [
    "JobSpec",
    "callable_token",
    "job_key",
    "protocol_fingerprint",
    "resolve_backend",
]
