"""One benchmark process: set up a workload, warm it up, time its passes.

``run.py`` starts this file as a fresh interpreter per workload (and
per set-up sample) and reads the JSON object it prints as its last line
of standard output.  Phases:

``setup``
    Import ``repro``, build the workload's inputs, report the time.
``measure``
    Set up, run one untimed warm-up pass, then timed passes while the
    next one is expected to end within ``--seconds`` (at least
    :data:`MIN_PASSES`).
``trace``
    Like ``measure``, but timed passes alternate untraced and traced
    (:mod:`tracing`), which yields the per-layer metrics and the
    tracing overhead; ``--chrome PATH`` also writes the spans as Chrome
    trace events.

Pass ``k`` uses seed ``S * 1000 + k`` (``k = 0`` is the warm-up), so no
result memo can serve a timed pass from an earlier one, and every pass
starts with the package's caches empty (``workloads.clear_caches``).
The calibration kernel (:mod:`calibrate`) runs after set-up and between
passes, outside the timed regions; every reported time is scaled to
reference seconds by the kernel times around it, and the wall times and
kernel times are reported too.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402

#: Fewest timed passes per measured run, however long a pass takes: one
#: per block of ``run.BLOCKS``.
MIN_PASSES = 3

#: Per-layer metrics computed here rather than from spans, with units.
EXTRA_LAYER_METRICS = {
    "engine.ladder.fallbacks": "count",
    "engine.ladder.to_reference": "count",
    "serve.pool.job_p50_ms": "ms",
    "serve.pool.job_p90_ms": "ms",
    "serve.memo.hit_ratio": "ratio",
    "serve.cache.hit_ratio": "ratio",
    "serve.pool.worker_crashes": "count",
    "trace.pass_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def serve_metrics(logs) -> dict[str, float]:
    """Job latencies and ``ServePool.stats()`` deltas over ``logs``."""
    latencies = [t for log in logs for t in log.latencies_s]
    counters = sum((log.counters for log in logs), Counter())
    hits = counters["artifact_memory_hits"] + counters["artifact_disk_hits"]
    lookups = hits + counters["artifact_misses"]
    submitted = counters["jobs_submitted"]
    return {
        "serve.pool.job_p50_ms": _quantile(latencies, 0.5) * 1e3,
        "serve.pool.job_p90_ms": _quantile(latencies, 0.9) * 1e3,
        "serve.memo.hit_ratio": (
            counters["memo_hits"] / submitted if submitted else 0.0
        ),
        "serve.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "serve.pool.worker_crashes": float(counters["worker_crashes"]),
    }


def run_timed_pass(run, inputs, seed: int, log, tracer=None) -> float:
    """Empty the caches, run one pass of ``run``, return its wall time.

    With a tracer, the pass runs with the tracer installed and counts
    backend-fallback warnings into ``log.counters``; emptying the
    caches, installing and uninstalling stay outside the timed region.
    """
    from workloads import clear_caches

    clear_caches()
    if tracer is None:
        start = time.perf_counter()
        run(inputs, seed, log)
        return time.perf_counter() - start
    from repro.errors import BackendFallbackWarning

    with tracer, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", BackendFallbackWarning)
        start = time.perf_counter()
        run(inputs, seed, log)
        elapsed = time.perf_counter() - start
    for entry in caught:
        if isinstance(entry.message, BackendFallbackWarning):
            log.counters["ladder.fallbacks"] += 1
            if entry.message.delegate == "reference":
                log.counters["ladder.to_reference"] += 1
    return elapsed


def measure(
    workload,
    inputs,
    seed: int,
    seconds: float,
    trace: bool = False,
    events: list | None = None,
) -> dict:
    """Warm up, then time passes; returns the phase's JSON payload.

    Passes run while the next one, taking as long as the last, would
    end within ``seconds``.  In trace mode odd passes run untraced and
    even passes traced, and each kind runs at least once.  The
    per-layer metrics are means over the traced passes, which keeps the
    ``self_s`` values additive.  Spans are appended to ``events`` as
    Chrome trace events when a list is given.
    """
    from calibrate import kernel_s, scaled
    from tracing import Tracer, chrome_events, pass_metrics
    from workloads import PassLog

    base = seed * 1000
    warm = PassLog(base)
    run_timed_pass(workload.warmup or workload.run_pass, inputs, base, warm)
    untraced, traced = [], []
    passes, walls, traced_s, traced_walls = [], [], [], []
    kernels = [kernel_s()]
    layer_sums: Counter = Counter()
    enough = 1 if trace else MIN_PASSES
    start = time.perf_counter()
    k = last = 0
    while (
        len(passes) < enough
        or (trace and not traced)
        or time.perf_counter() - start + last < seconds
    ):
        k += 1
        log = PassLog(base + k)
        if trace and k % 2 == 0:
            tracer = Tracer(request=lambda log=log: log.request_id)
            last = run_timed_pass(
                workload.run_pass, inputs, base + k, log, tracer
            )
            kernels.append(kernel_s())
            traced.append(log)
            traced_walls.append(last)
            traced_s.append(scaled(last, *kernels[-2:]))
            layer_sums.update(pass_metrics(tracer.spans, last))
            if events is not None:
                events.extend(chrome_events(tracer.spans, _T0))
        else:
            last = run_timed_pass(workload.run_pass, inputs, base + k, log)
            kernels.append(kernel_s())
            untraced.append(log)
            walls.append(last)
            passes.append(scaled(last, *kernels[-2:]))
    logs = [warm] + untraced + traced
    payload = {
        "pass_s": passes,
        "wall_s": walls,
        "kernel_s": kernels,
        "work_per_s": [
            log.work / elapsed for log, elapsed in zip(untraced, passes)
        ],
        "attempted": sum(log.attempted for log in logs),
        "failed": sum(log.failed for log in logs),
        "failures": [f for log in logs for f in log.failures][:5],
        "digest": warm.digest(),
    }
    if trace:
        n = len(traced)
        layers = {name: value / n for name, value in layer_sums.items()}
        ladder = sum((log.counters for log in traced), Counter())
        layers["engine.ladder.fallbacks"] = ladder["ladder.fallbacks"] / n
        layers["engine.ladder.to_reference"] = ladder["ladder.to_reference"] / n
        layers.update(serve_metrics(untraced))
        layers["trace.pass_s"] = statistics.fmean(traced_walls)
        layers["trace.overhead_ratio"] = statistics.median(
            traced_s
        ) / statistics.median(passes)
        payload["layers"] = layers
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--chrome", metavar="PATH")
    args = parser.parse_args(argv)

    from repro.errors import BackendFallbackWarning
    from workloads import WORKLOADS

    warnings.simplefilter("ignore", BackendFallbackWarning)
    workload = WORKLOADS[args.workload]
    inputs = workload.setup()
    setup_wall = time.perf_counter() - _T0
    from calibrate import kernel_s, scaled

    # Nothing is timed before set-up, so the kernel runs only after it.
    kernel = kernel_s()
    payload = {
        "setup_s": scaled(setup_wall, kernel, kernel),
        "setup_wall_s": setup_wall,
    }
    events = [] if args.chrome else None
    try:
        if args.phase != "setup":
            payload.update(
                measure(
                    workload,
                    inputs,
                    args.seed,
                    args.seconds,
                    trace=args.phase == "trace",
                    events=events,
                )
            )
    finally:
        if workload.close is not None:
            workload.close(inputs)
    if args.phase != "setup":
        # Read after ``close``: the ``served`` pool's workers have been
        # joined by then, so RUSAGE_CHILDREN covers the largest of them.
        payload["peak_rss_mb"] = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 1024
    if events is not None:
        with open(args.chrome, "w") as handle:
            json.dump(events, handle)
    import numpy

    payload["numpy"] = numpy.__version__
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
