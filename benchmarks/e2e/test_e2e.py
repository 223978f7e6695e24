"""Tests of the end-to-end benchmark itself (not of the package).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re

import pytest

import calibrate
import child
import run
import tracing
from tracing import Span, Tracer, layer_metric_units, pass_metrics, self_times
from workloads import VERIFY_CELLS, WORKLOADS, PassLog, clear_caches

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Sizes small enough that every pass runs in about a second.
TINY = {
    "table1": dict(bound=3, budget=150_000),
    "convergence": dict(bound=4, runs=2),
    "lockstep": dict(bound=8, sizes=(4, 8), prop13_sizes=(4,), runs=4),
    "large_n": dict(
        bleap_n=10_000, bleap_runs=2, fluid_n=1_000_000, fluid_runs=1,
        leap_n=10_000, counts_n=1_000_000,
    ),
    "verify": dict(
        cells=((VERIFY_CELLS[3][0], 4, 3, ("reach",), None),),
        lint_bounds=(3,),
    ),
    "served": dict(bounds=(4, 6), jobs=6, runs=2, workers=1),
}

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.errors.BackendFallbackWarning"
)


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            _span("engine.ensemble.run_ensemble", 0.0, 10.0),
            _span("engine.batch.run_replicates", 1.0, 4.0, parent=0),
            _span("engine.counts.intern_initial", 2.0, 3.0, parent=1),
            _span("engine.batch.materialize_raw", 5.0, 9.0, parent=0),
            _span("engine.ensemble.run_ensemble", 10.5, 11.0),
        ]
        assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 0.5]

        metrics = pass_metrics(spans, pass_s=12.0)
        assert metrics["engine.ensemble.run_ensemble.calls"] == 2
        assert metrics["engine.ensemble.run_ensemble.self_s"] == 3.5
        assert metrics["engine.batch.run_replicates.self_s"] == 2.0
        assert metrics["pass.unattributed_s"] == 1.5
        self_sum = sum(v for k, v in metrics.items() if k.endswith("self_s"))
        assert self_sum + metrics["pass.unattributed_s"] == 12.0

    def test_counts_are_summed(self):
        spans = [_span("engine.fast.compile_table", 0.0, 1.0)
                 for _ in range(3)]
        for span, hit in zip(spans, (0.0, 1.0, 1.0)):
            span.counts["cache_hits"] = hit
        metrics = pass_metrics(spans, pass_s=3.0)
        assert metrics["engine.fast.compile_table.calls"] == 3
        assert metrics["engine.fast.compile_table.cache_hits"] == 2


class TestTracer:
    def test_install_and_uninstall_restore_identity(self):
        import repro
        import repro.analysis.symbolic as symbolic
        import repro.engine.ensemble as ensemble
        import repro.engine.fast as fast
        from repro.engine.simulator import Simulator

        before = {
            "run_ensemble": ensemble.run_ensemble,
            "top_level": repro.run_ensemble,
            "checker": symbolic._CHECKERS["reach"],
            "method": Simulator.__dict__["run"],
            "compile": fast.compile_table,
        }
        tracer = Tracer()
        tracer.install()
        try:
            assert tracer.patches
            assert ensemble.run_ensemble is not before["run_ensemble"]
            assert repro.run_ensemble is ensemble.run_ensemble
            assert symbolic._CHECKERS["reach"] is not before["checker"]
            assert Simulator.__dict__["run"] is not before["method"]
            patched = list(tracer.patches)
        finally:
            tracer.uninstall()
        assert not tracer.patches
        for container, key, original, is_mapping in patched:
            current = (
                container[key] if is_mapping else container.__dict__[key]
            )
            assert current is original
        assert ensemble.run_ensemble is before["run_ensemble"]
        assert repro.run_ensemble is before["top_level"]
        assert symbolic._CHECKERS["reach"] is before["checker"]
        assert Simulator.__dict__["run"] is before["method"]
        assert fast.compile_table is before["compile"]

    def test_double_install_refused(self):
        with Tracer() as tracer:
            with pytest.raises(RuntimeError):
                tracer.install()
        assert not tracer.patches

    def test_cache_hits_are_measured(self):
        from repro import AsymmetricNamingProtocol
        from repro.engine import fast

        clear_caches()
        protocol = AsymmetricNamingProtocol(4)
        with Tracer() as tracer:
            fast.compile_table(protocol)
            fast.compile_table(protocol)
            fast.compile_table(AsymmetricNamingProtocol(4))
        hits = [s.counts["cache_hits"] for s in tracer.spans]
        assert hits == [0.0, 1.0, 1.0]

    def test_clear_caches_empties_them(self):
        from repro.analysis import reachability
        from repro.engine import fast

        inputs = WORKLOADS["table1"].setup(**TINY["table1"])
        WORKLOADS["table1"].run_pass(inputs, 5, PassLog(5))
        assert fast._TABLE_CACHE and reachability._GRAPH_CACHE
        clear_caches()
        assert not fast._TABLE_CACHE and not reachability._GRAPH_CACHE

    def test_spans_nest_and_share_request(self):
        workload = WORKLOADS["lockstep"]
        inputs = workload.setup(**TINY["lockstep"])
        log = PassLog(7)
        with Tracer(request=lambda: log.request_id) as tracer:
            workload.run_pass(inputs, 7, log)
        names = {span.name for span in tracer.spans}
        assert "engine.ensemble.run_ensemble" in names
        assert "engine.batch.run_replicates" in names
        roots = [s for s in tracer.spans if s.parent is None]
        assert {s.name for s in roots} == {"engine.ensemble.run_ensemble"}
        assert {s.request for s in tracer.spans} == {"7"}


class TestNames:
    def test_benchmark_lists_exactly_what_the_runner_emits(self):
        bench = run.load_benchmark()
        assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == (
            run.END_TO_END
        )
        assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
            **layer_metric_units(),
            **child.EXTRA_LAYER_METRICS,
        }
        assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
            (w.name, w.why) for w in WORKLOADS.values()
        ]

    def test_names_and_bounds_are_well_formed(self):
        bench = run.load_benchmark()
        names = [w["name"] for w in bench["workloads"]] + [
            m["name"] for m in bench["end_to_end"] + bench["per_layer"]
        ]
        assert all(NAME.fullmatch(name) for name in names)
        assert len(set(names)) == len(names)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        assert all(0 < b <= 0.25 for b in bounds.values())
        assert bounds["setup_s"] == max(bounds.values())
        assert all(len(w["why"]) <= 200 for w in bench["workloads"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_pass_at_tiny_size(name):
    workload = WORKLOADS[name]
    inputs = workload.setup(**TINY[name])
    try:
        warm = PassLog(1000)
        (workload.warmup or workload.run_pass)(inputs, 1000, warm)
        log = PassLog(1001)
        workload.run_pass(inputs, 1001, log)
    finally:
        if workload.close is not None:
            workload.close(inputs)
    for entry in (warm, log):
        assert entry.attempted > 0
        assert entry.failed == 0, entry.failures
        assert entry.work > 0


def test_traced_measure_adds_up():
    workload = WORKLOADS["lockstep"]
    inputs = workload.setup(**TINY["lockstep"])
    events: list = []
    payload = child.measure(
        workload, inputs, seed=3, seconds=0.0, trace=True, events=events
    )
    layers = payload["layers"]
    assert payload["failed"] == 0
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    total = self_sum + layers["pass.unattributed_s"]
    assert total == pytest.approx(layers["trace.pass_s"], rel=1e-9)
    assert set(layers) == set(layer_metric_units()) | set(
        child.EXTRA_LAYER_METRICS
    )
    assert events and all(e["ph"] == "X" for e in events)
    json.dumps(events)


def _report(samples: dict[str, list[float]]) -> dict:
    return {
        "workloads": {
            "w": {"metrics": {m: run.summarize(s) for m, s in samples.items()}}
        }
    }


def _verdicts(base, new) -> dict[str, str]:
    bench = {
        "end_to_end": [
            {"name": "pass_s", "better": "lower", "bound": 0.1},
            {"name": "work_per_s", "better": "higher", "bound": 0.1},
        ]
    }
    rows = run.compare_rows(_report(base), _report(new), bench)
    return {row["metric"]: row["verdict"] for row in rows}


def test_samples_are_block_medians():
    assert run.BLOCKS == 3
    assert run.block_medians([1, 2, 3, 4, 5, 6, 7]) == [1.5, 4, 6.5]
    assert run.block_medians([3, 1, 2]) == [3, 1, 2]
    summary = run.summarize([1, 2, 3, 4, 5, 6, 7, 100])
    assert summary["value"] == 4.5
    assert summary["samples"] == [2, 4.5, 7]
    assert summary["n"] == 3
    assert run.summarize([53.5])["value"] == 53.5


def test_scaling_removes_host_speed():
    ref = calibrate.REFERENCE_S
    assert calibrate.scaled(1.5, ref, ref) == pytest.approx(1.5)
    # A host at half speed: the kernel and the pass both take twice as long.
    assert calibrate.scaled(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert calibrate.scaled(3.0, ref, 3 * ref) == pytest.approx(1.5)
    assert calibrate.kernel_s() > 0


class TestCompare:
    def test_same_better_worse(self):
        base = {"pass_s": [1.0, 1.01, 0.99], "work_per_s": [100, 101, 99]}
        assert _verdicts(base, base) == {"pass_s": "same", "work_per_s": "same"}
        faster = {"pass_s": [0.8, 0.81, 0.79], "work_per_s": [130, 131, 129]}
        assert _verdicts(base, faster) == {
            "pass_s": "better", "work_per_s": "better"
        }
        assert _verdicts(faster, base) == {
            "pass_s": "worse", "work_per_s": "worse"
        }

    def test_wide_spread_is_unresolved(self):
        base = {"pass_s": [1.0, 1.0, 1.0, 1.0]}
        noisy = {"pass_s": [0.7, 1.0, 1.3, 1.6]}
        assert _verdicts(base, noisy) == {"pass_s": "unresolved"}

    def test_domination_resolves_a_wide_spread(self):
        base = {"pass_s": [1.0, 1.2, 1.4, 1.6]}
        slower = {"pass_s": [2.0, 2.4, 2.8, 3.2]}
        assert _verdicts(base, slower) == {"pass_s": "worse"}

    def test_compare_exits_nonzero_on_worse(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        new = tmp_path / "new.json"
        base.write_text(json.dumps(_report({"pass_s": [1.0, 1.0, 1.0]})))
        new.write_text(json.dumps(_report({"pass_s": [2.0, 2.0, 2.0]})))
        assert run.compare(str(base), str(base)) == 0
        assert run.compare(str(base), str(new)) == 1
        assert "worse" in capsys.readouterr().out


def test_tracer_targets_resolve():
    for layer in tracing.LAYERS:
        module, _, attr = layer.target.partition(":")
        owner = __import__(module, fromlist=["_"])
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), layer.target
