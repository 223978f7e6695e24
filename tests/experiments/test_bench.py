"""Tests for the engine and serving throughput benchmark."""

import json

import pytest

from repro.engine.fast import compile_table
from repro.errors import SimulationError
from repro.experiments import bench
from repro.experiments.bench import (
    FULL_CELLS,
    GATES,
    PARALLEL_MIN_CORES,
    REFERENCE_MAX_N,
    SECTIONS,
    SMOKE_CELLS,
    BenchPoint,
    Cell,
    ChurnProtocol,
    Gate,
    _ladder,
    _pair,
    _safe_rate,
    check_gates,
    environment,
    main,
    ratio,
    render,
    run_bench,
    write_json,
)


def point(section, engine, baseline=None, n=10, r=1, work=1000,
          seconds=1.0, workload="naming", **stats):
    """A fabricated measurement."""
    return BenchPoint(section, workload, engine, baseline, n, r, work,
                      seconds, stats)


def cells(section, table=SMOKE_CELLS):
    """The cells of one section of a table."""
    return [c for c in table if c.section == section]


def tiny_serve(repeats=1):
    """The serve cells at a test size."""
    return (
        *_pair("serve", "naming", "warm", "cold", "uniform", 20, 2, 200,
               repeats),
        Cell("serve", "naming", "memo", "cold", "uniform", 20, 2, 200,
             repeats),
    )


class TestChurnProtocol:
    def test_every_interaction_is_non_null(self):
        protocol = ChurnProtocol()
        for p in protocol.mobile_state_space():
            for q in protocol.mobile_state_space():
                assert protocol.transition(p, q) != (p, q)

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            ChurnProtocol(8)

    def test_compiles_for_the_fast_backend(self):
        assert compile_table(ChurnProtocol()) is not None


class TestCellTable:
    def test_smoke_table_is_the_ci_smoke_command(self):
        # 12 backend cells (two workloads, N in {6, 25}, three engines)
        # plus two cells each for two ensemble widths, leap, bleap,
        # fluid and parallel.
        assert len(SMOKE_CELLS) == 24
        assert {c.section for c in SMOKE_CELLS} == set(SECTIONS) - {"serve"}

    def test_full_table_adds_the_gated_naming_pair(self):
        naming = {
            c.n for c in cells("backends", FULL_CELLS)
            if c.workload == "naming"
        }
        churn = {
            c.n for c in cells("backends", FULL_CELLS)
            if c.workload == "churn"
        }
        assert naming == {10, 100, 1_000, 100_000}
        assert churn == {10, 100, 1_000}
        assert len(FULL_CELLS) == 39

    def test_baselines_run_before_the_cells_compared_with_them(self):
        for table in (FULL_CELLS, SMOKE_CELLS):
            seen = set()
            for cell in table:
                if cell.baseline is not None:
                    key = (cell.section, cell.workload, cell.baseline,
                           cell.n, cell.r)
                    assert key in seen, cell
                seen.add(cell.key)

    def test_windowed_cells_start_uniform(self):
        # The spread start is the naming protocol's mean-field
        # equilibrium: from it a windowed engine runs one leap window.
        # The exact engines keep it, so their null/non-null mix stays
        # stationary.
        for cell in (*FULL_CELLS, *SMOKE_CELLS):
            if cell.section in ("leap", "bleap", "parallel"):
                assert cell.start == "uniform", cell
            elif cell.section in ("backends", "ensemble"):
                assert cell.start == "spread", cell


class TestGates:
    def test_gate_rows_are_pinned(self):
        # The eight CI floors: cell, quantity, floor, minimum cores.  A
        # change here must be deliberate, never a silent loosening.
        assert GATES == (
            Gate(("backends", "naming", "counts", 100_000, 1), "rate",
                 1_000_000, 1),
            Gate(("ensemble", "naming", "batch", 100_000, 256), "rate",
                 2_000_000, 1),
            Gate(("ensemble", "naming", "batch", 100_000, 256),
                 "rate ratio", 1.0, 1),
            Gate(("leap", "naming", "leap", 1_000_000, 1), "rate ratio",
                 10, 1),
            Gate(("bleap", "naming", "bleap", 100_000, 256), "rate ratio",
                 5, 1),
            Gate(("fluid", "naming", "fluid", 100_000_000, 1),
                 "wall ratio", 10, 1),
            Gate(("parallel", "naming", "sharded", 100_000, 1_024),
                 "rate ratio", 2, 4),
            Gate(("serve", "naming", "warm", 100, 6), "wall ratio", 3, 1),
        )
        assert PARALLEL_MIN_CORES == 4

    def test_gated_cells_are_pinned(self):
        by_key = {c.key: c for c in FULL_CELLS}
        gated = [by_key[g.cell] for g in GATES]
        # baseline, start, budget per replicate, repeats
        assert [(c.baseline, c.start, c.budget, c.repeats) for c in gated] == [
            ("fast", "spread", 1_000_000, 1),
            ("counts", "spread", 20_000, 3),
            ("counts", "spread", 20_000, 3),
            ("counts", "uniform", 10_000_000, 1),
            ("counts", "uniform", 200_000, 2),
            ("leap", "zeros", 1_000_000_000, 1),
            ("bleap", "uniform", 200_000, 1),
            ("cold", "uniform", 2_500, 3),
        ]
        assert (bench.SERVE_JOBS, bench.SERVE_BOUNDS, bench.SERVE_WORKERS) \
            == (16, (4, 6, 8), 2)

    def test_failing_gate_is_reported(self, capsys):
        points = [point("leap", "counts", work=100),
                  point("leap", "leap", "counts", work=900)]
        gate = Gate(("leap", "naming", "leap", 10, 1), "rate ratio", 10)
        assert check_gates(points, gates=(gate,)) is False
        assert "gate leap/counts (rate ratio): 9.00x vs floor 10.00x -> FAIL" \
            in capsys.readouterr().out

    def test_missing_cell_fails(self, capsys):
        gate = Gate(("leap", "naming", "leap", 10, 1), "rate ratio", 10)
        assert check_gates([], gates=(gate,)) is False
        assert "not measured -> FAIL" in capsys.readouterr().out

    def test_gates_of_sections_not_run_are_not_checked(self, capsys):
        gate = Gate(("leap", "naming", "leap", 10, 1), "rate ratio", 10)
        assert check_gates([], sections=("fluid",), gates=(gate,))
        assert capsys.readouterr().out == ""


class TestRunBench:
    def test_smoke_run_produces_all_cells(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["--smoke", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        keys = [
            (p["section"], p["workload"], p["engine"], p["n_mobile"],
             p["replicates"])
            for p in payload["points"]
        ]
        assert keys == [c.key for c in SMOKE_CELLS]
        for p in payload["points"]:
            assert p["seconds"] >= 0
            # naming at N = 6 starts named and does no work: ratio 0.
            assert (p["speedup"] is None) == (p["baseline"] is None)
        assert payload["smoke"] is True

    def test_reference_backend_skipped_above_cap(self):
        assert [c.engine for c in _ladder("naming", REFERENCE_MAX_N, 10)] \
            == ["reference", "fast", "counts"]
        n = REFERENCE_MAX_N + 1
        ladder = _ladder("naming", n, 2_000)
        assert [(c.engine, c.baseline) for c in ladder] == [
            ("fast", None), ("counts", "fast")
        ]
        points = run_bench(ladder, seed=1)
        assert {p.engine for p in points} == {"fast", "counts"}
        # Only the counts/fast pair is reportable without a reference.
        assert [ratio(points, p) is None for p in points] == [True, False]
        for table in (FULL_CELLS, SMOKE_CELLS):
            assert all(
                c.n <= REFERENCE_MAX_N
                for c in table if c.engine == "reference"
            )

    def test_fast_reference_divergence_aborts(self, monkeypatch):
        real = bench.make_simulator

        def swapped(engine, *args, **kwargs):
            # counts draws its own randomness: its results differ.
            return real("counts" if engine == "fast" else engine, *args,
                        **kwargs)

        monkeypatch.setattr(bench, "make_simulator", swapped)
        with pytest.raises(SimulationError, match="fast and reference"):
            run_bench(_ladder("naming", 12, 2_000), seed=1)

    def test_floor_rate_reads_largest_naming_cell(self, capsys):
        gate = GATES[0]
        largest = max(
            c.n for c in cells("backends", FULL_CELLS)
            if c.workload == "naming" and c.engine == "counts"
        )
        assert gate.cell == ("backends", "naming", "counts", largest, 1)
        points = [point("backends", "counts", "fast", n=largest,
                        work=5_000_000)]
        assert check_gates(points, gates=(gate,))
        assert "gate counts (rate): 5,000,000/s vs floor 1,000,000/s -> ok" \
            in capsys.readouterr().out

    def test_json_payload_round_trips(self, tmp_path):
        points = run_bench(_ladder("naming", 6, 2_000), seed=1)
        out = tmp_path / "bench.json"
        write_json(points, str(out), seed=1, smoke=True)
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "simulator"
        assert payload["seed"] == 1
        assert len(payload["points"]) == len(points)
        assert all("speedup" in p and "stats" in p for p in payload["points"])

    def test_json_payload_records_environment(self, tmp_path):
        out = tmp_path / "bench.json"
        write_json([], str(out))
        env = json.loads(out.read_text())["environment"]
        # Perf regressions must be attributable: the report says which
        # NumPy, how many CPUs and which revision produced the numbers.
        assert set(env) == {"numpy", "cpu_count", "git_revision"}
        assert env["cpu_count"] is None or env["cpu_count"] >= 1

    def test_environment_fields_present(self):
        env = environment()
        assert set(env) == {"numpy", "cpu_count", "git_revision"}


class TestSafeRate:
    """Regression tests for the ``seconds == 0`` sentinel: a run that
    finishes inside one timer tick must read as infinitely *fast*, not
    infinitely slow (rate 0.0 would spuriously trip the gates)."""

    def test_zero_seconds_with_work_is_infinite(self):
        assert _safe_rate(100, 0.0) == float("inf")

    def test_zero_seconds_without_work_is_zero(self):
        assert _safe_rate(0, 0.0) == 0.0

    def test_positive_seconds_divides(self):
        assert _safe_rate(100, 2.0) == 50.0

    def test_bench_point_rate_never_raises(self):
        assert point("backends", "counts", seconds=0.0).rate == float("inf")

    def test_ensemble_point_runs_per_second_never_raises(self):
        p = point("ensemble", "batch", "counts", r=8, seconds=0.0)
        assert p.runs_per_second == float("inf")
        assert p.rate == float("inf")

    def test_zero_time_cell_passes_floor_gate(self):
        # The point of the sentinel: an instantaneous batch cell must
        # satisfy any floor, not fail every floor.
        batch = point("ensemble", "batch", "counts", n=100_000, r=256,
                      seconds=0.0)
        assert check_gates([batch], gates=GATES[1:2])


class TestEnsembleBench:
    def test_smoke_run_produces_both_engines_per_cell(self):
        points = run_bench(cells("ensemble"), seed=1)
        # counts and batch per (N, R) cell
        assert [(p.engine, p.replicates) for p in points] == [
            ("counts", 4), ("batch", 4), ("counts", 8), ("batch", 8)
        ]
        assert all(p.work > 0 and p.runs_per_second > 0 for p in points)
        assert all(ratio(points, p) > 0 for p in points[1::2])

    def test_ensemble_floor_rate_reads_widest_batch_cell(self):
        batch = [c for c in cells("ensemble", FULL_CELLS)
                 if c.engine == "batch"]
        widest = max(batch, key=lambda c: (c.r, c.n))
        assert GATES[1].cell == GATES[2].cell == widest.key

    def test_render_marks_batch_speedup(self):
        points = run_bench(cells("ensemble")[:2], seed=1)
        table = render(points)
        assert "ensemble throughput" in table
        assert "x vs counts" in table

    def test_json_payload_includes_ensemble_section(self, tmp_path):
        points = run_bench(cells("ensemble")[:2], seed=1)
        out = tmp_path / "bench.json"
        write_json(points, str(out))
        section = json.loads(out.read_text())["points"]
        assert [p["section"] for p in section] == ["ensemble"] * 2
        assert section[1]["speedup"] > 0
        assert section[1]["runs_per_second"] > 0


class TestLeapBench:
    def test_smoke_run_produces_both_backends(self):
        points = run_bench(cells("leap"), seed=1)
        assert [p.engine for p in points] == ["counts", "leap"]
        assert all(p.work > 0 and p.seconds >= 0 for p in points)
        stats = points[1].stats
        # From the uniform start the leap cell takes many windows, not
        # the single window the spread equilibrium allows.
        assert stats["leaps"] > 1
        assert stats["mean_tau"] > 0
        assert stats["repairs"] >= 0
        # The counts baseline has no window statistics.
        assert "leaps" not in points[0].stats

    def test_leap_speedup_requires_both_cells(self):
        counts = point("leap", "counts", work=100)
        leap = point("leap", "leap", "counts", work=700)
        assert ratio([counts, leap], leap) == 7.0
        assert ratio([leap], leap) is None
        assert ratio([counts, leap], counts) is None

    def test_render_marks_leap_speedup(self):
        table = render(run_bench(cells("leap"), seed=1))
        assert "leap throughput" in table
        assert "leaps=" in table
        assert "x vs counts" in table

    def test_json_payload_includes_leap_section(self, tmp_path):
        points = run_bench(cells("leap"), seed=1)
        out = tmp_path / "bench.json"
        write_json(points, str(out))
        section = json.loads(out.read_text())["points"]
        assert [p["engine"] for p in section] == ["counts", "leap"]
        assert section[1]["speedup"] > 0
        assert section[1]["stats"]["leaps"] > 1


class TestFluidBench:
    FLUID = _pair("fluid", "naming", "fluid", "leap", "zeros", 20_000, 1,
                  100_000)

    def test_smoke_run_produces_both_backends(self):
        points = run_bench(self.FLUID, seed=1)
        assert [p.engine for p in points] == ["leap", "fluid"]
        assert all(p.work > 0 and p.seconds >= 0 for p in points)
        # The fluid cell reports its ODE/handoff statistics; the
        # stochastic leap baseline has none.
        assert points[1].stats["ode_steps"] > 0
        assert points[1].stats["handoff_backend"] == "leap"
        assert "ode_steps" not in points[0].stats

    def test_fluid_speedup_requires_both_cells(self):
        # End to end: a wall-clock ratio, not a rate ratio.
        leap = point("fluid", "leap", seconds=6.0, work=100)
        fluid = point("fluid", "fluid", "leap", seconds=2.0, work=50)
        assert ratio([leap, fluid], fluid) == 3.0
        assert ratio([leap, fluid], fluid, "rate ratio") == 1.5
        assert ratio([fluid], fluid) is None

    def test_render_marks_fluid_speedup(self):
        table = render(run_bench(self.FLUID, seed=1))
        assert "fluid fast-forward" in table
        assert "ode_steps=" in table
        assert "x vs leap" in table

    def test_json_payload_includes_fluid_section(self, tmp_path):
        points = run_bench(self.FLUID, seed=1)
        out = tmp_path / "bench.json"
        write_json(points, str(out))
        section = json.loads(out.read_text())["points"]
        assert section[1]["speedup"] > 0
        assert section[1]["stats"]["ode_steps"] > 0
        assert section[1]["stats"]["handoff_backend"] == "leap"


class TestSectionsSelector:
    def test_sections_selector_runs_only_selected(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["--smoke", "--sections", "leap", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert {p["section"] for p in payload["points"]} == {"leap"}
        assert set(payload["section_seconds"]) == {"leap"}
        shown = capsys.readouterr().out
        assert "leap throughput" in shown
        assert "ensemble throughput" not in shown
        assert "gate" not in shown  # a smoke run checks no gate

    def test_all_sections_named(self):
        assert SECTIONS == (
            "backends", "ensemble", "leap", "bleap", "fluid", "parallel",
            "serve",
        )

    def test_unknown_section_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--sections", "nope"])
        assert exc.value.code == 2
        assert "unknown section" in capsys.readouterr().err

    def test_fluid_floor_gate_passes_on_tiny_ratio(self):
        points = run_bench(cells("fluid"), seed=1)
        gate = Gate(cells("fluid")[1].key, "wall ratio", 0.0001)
        assert check_gates(points, gates=(gate,))


class TestParallelBench:
    PARALLEL = _pair("parallel", "naming", "sharded", "bleap", "uniform",
                     2_000, 48, 200)

    def test_smoke_run_produces_both_cells(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        serial, sharded = run_bench(self.PARALLEL, seed=1)
        assert (serial.engine, sharded.engine) == ("bleap", "sharded")
        assert serial.work > 0 and serial.seconds >= 0
        assert sharded.seconds >= 0
        # Serial and sharded cells are seed-identical runs of the same
        # ensemble, so they must report identical work and counters.
        assert sharded.work == serial.work
        assert sharded.stats == {**serial.stats, "jobs": 2}
        assert ratio([serial, sharded], sharded) > 0

    def test_render_marks_speedup_and_transport(self):
        points = [
            point("parallel", "bleap", n=100, r=8, work=800, seconds=0.2),
            point("parallel", "sharded", "bleap", n=100, r=8, work=800,
                  seconds=0.1, jobs=4),
        ]
        table = render(points)
        assert "parallel execution (worker processes vs serial)" in table
        assert "2.00x vs bleap" in table
        assert "jobs=4" in table

    def test_json_payload_includes_parallel_section(self, tmp_path):
        points = run_bench(self.PARALLEL, seed=1)
        out = tmp_path / "bench.json"
        write_json(points, str(out))
        section = json.loads(out.read_text())["points"]
        assert len(section) == 2
        for cell in section:
            assert cell["seconds"] >= 0
            assert cell["work"] > 0
        assert section[1]["speedup"] > 0

    def test_json_payload_records_section_wall_clock(self, tmp_path):
        # Every section that ran reports its wall-clock cost and the
        # payload totals them.
        out = tmp_path / "bench.json"
        code = main(["--smoke", "--sections", "parallel,fluid",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert list(payload["section_seconds"]) == ["fluid", "parallel"]
        assert all(v > 0 for v in payload["section_seconds"].values())
        assert payload["total_seconds"] == pytest.approx(
            sum(payload["section_seconds"].values())
        )

    SLOW_SHARDING = [
        point("parallel", "bleap", n=100_000, r=1_024, seconds=1.0),
        point("parallel", "sharded", "bleap", n=100_000, r=1_024,
              seconds=2.0),
    ]

    def test_floor_gate_skips_below_core_floor(self, capsys, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: PARALLEL_MIN_CORES - 1)
        # A 0.5x ratio cannot fail the run on a small host: the gate is
        # reported but skipped below the core floor.
        assert check_gates(self.SLOW_SHARDING, sections=("parallel",))
        shown = capsys.readouterr().out
        assert "0.50x on 3 core(s) -> skipped" in shown

    def test_floor_gate_enforced_at_or_above_core_floor(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr("os.cpu_count", lambda: PARALLEL_MIN_CORES)
        assert not check_gates(self.SLOW_SHARDING, sections=("parallel",))
        assert "gate sharded/bleap (rate ratio): 0.50x vs floor 2.00x -> " \
            "FAIL" in capsys.readouterr().out


class TestServeBench:
    @pytest.fixture(autouse=True)
    def small_burst(self, monkeypatch):
        monkeypatch.setattr(bench, "SERVE_JOBS", 3)

    def test_three_passes_over_the_same_burst(self):
        points = run_bench(tiny_serve(), seed=1)
        assert [p.engine for p in points] == ["cold", "warm", "memo"]
        # 3 jobs x 2 seeds x 200 interactions, on every pass.
        assert {p.work for p in points} == {3 * 2 * 200}
        assert points[1].stats["memo_hits"] == 0
        assert points[2].stats["memo_hits"] == 3
        assert ratio(points, points[1]) > 0
        assert ratio(points, points[2]) > 0
        assert "serving layer" in render(points)

    def test_each_repeat_gets_a_fresh_pool(self, monkeypatch):
        from repro.serve.pool import ServePool

        pools = []
        real_warm = ServePool.warm

        def warm(self):
            pools.append(self)
            real_warm(self)

        monkeypatch.setattr(ServePool, "warm", warm)
        run_bench(tiny_serve(repeats=2)[:2], seed=1)
        assert len({id(pool) for pool in pools}) == 2
        assert len({str(pool.cache.root) for pool in pools}) == 2

    def test_mismatching_warm_ensemble_aborts(self, monkeypatch):
        real = bench.run_ensemble

        def short(*args, **kwargs):
            kwargs["max_interactions"] -= 1
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "run_ensemble", short)  # cold only
        with pytest.raises(SimulationError, match="warm and cold"):
            run_bench(tiny_serve(), seed=1)

    def test_mismatching_memo_ensemble_aborts(self, monkeypatch):
        from repro.serve.memo import ResultMemo

        real = ResultMemo.lookup

        def reversed_lookup(self, key):
            stored = real(self, key)
            return stored[::-1] if stored else stored

        monkeypatch.setattr(ResultMemo, "lookup", reversed_lookup)
        with pytest.raises(SimulationError, match="memo and cold"):
            run_bench(tiny_serve(), seed=1)

    def test_warm_memo_hit_aborts(self, monkeypatch):
        from repro.serve.pool import ServePool

        real = ServePool.submit

        def submit(self, spec, *args, **kwargs):
            self.memo_hits += 1
            return real(self, spec, *args, **kwargs)

        monkeypatch.setattr(ServePool, "submit", submit)
        with pytest.raises(SimulationError, match="hit the result memo"):
            run_bench(tiny_serve()[:2], seed=1)

    def test_serve_gate_passes_and_fails(self, capsys):
        gate = GATES[-1]
        cold = point("serve", "cold", n=100, r=6, seconds=1.0)
        for warm_seconds, passed in ((0.25, True), (0.5, False)):
            warm = point("serve", "warm", "cold", n=100, r=6,
                         seconds=warm_seconds)
            assert check_gates([cold, warm], gates=(gate,)) is passed
        shown = capsys.readouterr().out
        assert "gate warm/cold (wall ratio): 4.00x vs floor 3.00x -> ok" \
            in shown
        assert "2.00x vs floor 3.00x -> FAIL" in shown
