"""Outside-in layer tracing for the end-to-end benchmark.

The package records no spans of its own, so the benchmark records them
from outside: :meth:`Tracer.install` rebinds the public entry point of
each ``repro`` layer (:data:`LAYERS`) to a span-recording wrapper at
every module-level reference - module attributes, values of
module-level dicts (dispatch tables) and class attributes for methods -
and :meth:`Tracer.uninstall` puts every original object back.  The
untraced benchmark run therefore executes unmodified code.

Only entry points called at most once per run, batch or check are
wrapped; per-interaction code never is, so recording costs microseconds
per call.  A span's self time is its duration minus the durations of
its direct children; the self times of all spans of a pass plus the
time outside any span add up to the pass's wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Layer:
    """A traced entry point.

    ``name`` is the metric prefix ``<module>.<entry>``; ``target`` is
    ``module:function`` or ``module:Class.method``; ``counts`` derive
    summed counts from each call's return value; ``cache`` is the
    ``module:NAME`` of the process-wide cache the entry point fills, for
    a ``cache_hits`` count of calls whose result was already in it.
    """

    name: str
    target: str
    counts: tuple[tuple[str, Callable[[object], float]], ...] = ()
    cache: str | None = None


def _interactions(result) -> int:
    return result.interactions


def _rows(results) -> int:
    return len(results)


def _row_leaps(results) -> int:
    return sum(r.stats.leaps or 0 for r in results if r.stats is not None)


def _leaps(result) -> int:
    return (result.stats.leaps or 0) if result.stats is not None else 0


def _ode_steps(result) -> int:
    return (result.stats.ode_steps or 0) if result.stats is not None else 0


def _explored_nodes(verdict) -> int:
    return verdict.explored_nodes


def _reach_nodes(reach_set) -> int:
    return reach_set.n_nodes


LAYERS: tuple[Layer, ...] = (
    Layer("engine.ensemble.run_ensemble", "repro.engine.ensemble:run_ensemble"),
    Layer(
        "engine.simulator.run",
        "repro.engine.simulator:Simulator.run",
        counts=(("interactions", _interactions),),
    ),
    Layer("engine.fast.run", "repro.engine.fast:FastSimulator.run"),
    Layer(
        "engine.fast.compile_table",
        "repro.engine.fast:compile_table",
        cache="repro.engine.fast:_TABLE_CACHE",
    ),
    Layer("engine.counts.run", "repro.engine.counts:CountSimulator.run"),
    Layer("engine.counts.intern_initial", "repro.engine.counts:intern_initial"),
    Layer(
        "engine.batch.run_replicates",
        "repro.engine.batch:BatchedEnsembleSimulator.run_replicates",
        counts=(("rows", _rows),),
    ),
    Layer("engine.batch.materialize_raw", "repro.engine.batch:materialize_raw"),
    Layer(
        "engine.bleap.run_replicates",
        "repro.engine.bleap:BatchedLeapSimulator.run_replicates",
        counts=(("rows", _rows), ("leaps", _row_leaps)),
    ),
    Layer(
        "engine.leap.run",
        "repro.engine.leap:LeapSimulator.run",
        counts=(("leaps", _leaps),),
    ),
    Layer(
        "engine.fluid.run",
        "repro.engine.fluid:FluidSimulator.run",
        counts=(("ode_steps", _ode_steps),),
    ),
    Layer(
        "engine.fluid.run_counts",
        "repro.engine.fluid:FluidSimulator.run_counts",
        counts=(("ode_steps", _ode_steps),),
    ),
    Layer("core.registry.protocol_for", "repro.core.registry:protocol_for"),
    Layer(
        "analysis.weak_fairness.check_naming_weak",
        "repro.analysis.weak_fairness:check_naming_weak",
        counts=(("nodes", _explored_nodes),),
    ),
    Layer(
        "analysis.model_checker.check_naming_global",
        "repro.analysis.model_checker:check_naming_global",
        counts=(("nodes", _explored_nodes),),
    ),
    Layer("analysis.enumeration.search", "repro.analysis.enumeration:search"),
    Layer(
        "analysis.reachability.explore",
        "repro.analysis.reachability:explore",
        cache="repro.analysis.reachability:_GRAPH_CACHE",
    ),
    Layer(
        "analysis.symbolic.reach",
        "repro.analysis.symbolic:reach",
        counts=(("nodes", _reach_nodes),),
    ),
    Layer(
        "analysis.symbolic.symbolic_sccs",
        "repro.analysis.symbolic:symbolic_sccs",
    ),
    Layer("analysis.symbolic.check_reach", "repro.analysis.symbolic:check_reach"),
    Layer("analysis.symbolic.check_sinks", "repro.analysis.symbolic:check_sinks"),
    Layer(
        "analysis.symbolic.check_liveness",
        "repro.analysis.symbolic:check_liveness",
    ),
    Layer(
        "analysis.symbolic.replay_witness",
        "repro.analysis.symbolic:replay_witness",
    ),
    Layer("lint.engine.run_lint", "repro.lint.engine:run_lint"),
    Layer("lint.engine.lint_protocol", "repro.lint.engine:lint_protocol"),
    Layer("serve.pool.submit", "repro.serve.pool:ServePool.submit"),
    Layer("serve.pool.result", "repro.serve.pool:JobHandle.result"),
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric :func:`pass_metrics` emits, with its unit."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.self_s"] = "s"
        for quantity, _ in layer.counts:
            units[f"{layer.name}.{quantity}"] = "count"
        if layer.cache is not None:
            units[f"{layer.name}.cache_hits"] = "count"
    units["pass.unattributed_s"] = "s"
    return units


class Span:
    """One call of a traced entry point."""

    __slots__ = ("name", "start", "end", "parent", "request", "counts")

    def __init__(
        self,
        name: str,
        start: float,
        end: float = 0.0,
        parent: int | None = None,
        request: str = "",
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.counts: dict[str, float] = {}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``parent`` indexes into ``spans``; children nest inside their parent
    (one thread records one stack), so their durations never overlap.
    """
    own = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def pass_metrics(spans: list[Span], pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans (parents included).

    ``pass.unattributed_s`` is the pass time outside every root span, so
    the ``self_s`` values and it sum to ``pass_s``.
    """
    metrics = {name: 0.0 for name in layer_metric_units()}
    for span, own in zip(spans, self_times(spans)):
        metrics[f"{span.name}.calls"] += 1
        metrics[f"{span.name}.self_s"] += own
        for quantity, value in span.counts.items():
            metrics[f"{span.name}.{quantity}"] += value
    roots = sum(s.end - s.start for s in spans if s.parent is None)
    metrics["pass.unattributed_s"] = pass_s - roots
    return metrics


def chrome_events(spans: list[Span], origin: float) -> list[dict]:
    """Chrome trace-event ("X" complete) records for ``spans``.

    Times are microseconds since ``origin``; load the file in
    ``chrome://tracing`` or Perfetto.
    """
    return [
        {
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": 0,
            "tid": 0,
            "args": {"request": span.request, **span.counts},
        }
        for span in spans
    ]


class Tracer:
    """Records spans of the :data:`LAYERS` entry points while installed.

    ``request`` is a zero-argument callable returning the current
    request id; every span records it, so spans of one pass (or one
    served job) share an id.
    """

    def __init__(self, request: Callable[[], str] = lambda: "") -> None:
        self.request = request
        self.spans: list[Span] = []
        #: (container, key, original, is_mapping) per rebinding.
        self.patches: list[tuple[object, str, object, bool]] = []
        self._local = threading.local()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def install(self) -> None:
        """Rebind every reference to each layer's entry point."""
        if self.patches:
            raise RuntimeError("tracer is already installed")
        try:
            wrappers: dict[int, tuple[object, object]] = {}
            for layer in LAYERS:
                owner, attr = _resolve(layer.target)
                class_name, _, attr = attr.rpartition(".")
                cache = None
                if layer.cache is not None:
                    cache = getattr(*_resolve(layer.cache))
                if class_name:
                    cls = getattr(owner, class_name)
                    original = cls.__dict__[attr]
                    wrapper = self._wrap(layer, original, cache)
                    self._rebind(cls, attr, wrapper, False)
                else:
                    original = getattr(owner, attr)
                    wrappers[id(original)] = (
                        original, self._wrap(layer, original, cache)
                    )
            self._rebind_references(wrappers)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every rebound reference to its original object."""
        while self.patches:
            container, key, original, is_mapping = self.patches.pop()
            if is_mapping:
                container[key] = original
            else:
                setattr(container, key, original)

    def _rebind(self, container, key, wrapper, is_mapping: bool) -> None:
        if is_mapping:
            original = container[key]
            container[key] = wrapper
        else:
            original = container.__dict__[key]
            setattr(container, key, wrapper)
        self.patches.append((container, key, original, is_mapping))

    def _rebind_references(self, wrappers: dict) -> None:
        """Module globals, and values of module-level dicts, one level."""
        seen: set[int] = set()
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(namespace, key, hit[1], True)
                elif type(value) is dict and id(value) not in seen:
                    seen.add(id(value))
                    for k, v in list(value.items()):
                        hit = wrappers.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._rebind(value, k, hit[1], True)

    def _wrap(self, layer: Layer, original, cache):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._call(layer, original, cache, args, kwargs)

        functools.update_wrapper(traced, original)
        return traced

    def _call(self, layer: Layer, original, cache, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # A list, not ids: it keeps every cached object alive until the
        # identity test below, so an evicted one cannot lend its id.
        cached = list(cache.values()) if cache is not None else None
        index = len(self.spans)
        span = Span(
            layer.name,
            time.perf_counter(),
            parent=stack[-1] if stack else None,
            request=self.request(),
        )
        self.spans.append(span)
        stack.append(index)
        try:
            result = original(*args, **kwargs)
        finally:
            stack.pop()
            span.end = time.perf_counter()
        for quantity, count in layer.counts:
            span.counts[quantity] = count(result)
        if cached is not None:
            hit = result is not None and any(v is result for v in cached)
            span.counts["cache_hits"] = float(hit)
        return result


def _resolve(target: str) -> tuple[object, str]:
    """``module:rest`` as (the imported module, ``rest``)."""
    module_name, _, rest = target.partition(":")
    return importlib.import_module(module_name), rest
