"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestSimulate:
    def test_default_simulation_converges(self, capsys):
        code = main(
            ["simulate", "--symmetry", "asymmetric", "-P", "5", "-N", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "converged" in out
        assert "Proposition 12" in out

    def test_symmetric_global_leaderless(self, capsys):
        code = main(
            [
                "simulate",
                "--symmetry",
                "symmetric",
                "--fairness",
                "global",
                "--leader",
                "none",
                "-P",
                "5",
                "-N",
                "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Proposition 13" in out

    def test_infeasible_model_reports_and_fails(self, capsys):
        code = main(
            [
                "simulate",
                "--symmetry",
                "symmetric",
                "--fairness",
                "weak",
                "--leader",
                "none",
            ]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "infeasible" in out

    def test_trace_flag_prints_interactions(self, capsys):
        code = main(
            [
                "simulate",
                "--symmetry",
                "asymmetric",
                "-P",
                "4",
                "-N",
                "4",
                "--trace",
                "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trace:" in out

    def test_fast_backend_matches_reference(self, capsys):
        argv = ["simulate", "--symmetry", "asymmetric", "-P", "5", "-N", "4"]
        assert main(argv + ["--backend", "reference"]) == 0
        reference_out = capsys.readouterr().out
        assert main(argv + ["--backend", "fast"]) == 0
        assert capsys.readouterr().out == reference_out

    @pytest.mark.parametrize(
        "backend", ["reference", "fast", "counts", "bleap"]
    )
    def test_verbose_prints_perf_line(self, capsys, backend):
        argv = [
            "simulate",
            "--symmetry",
            "asymmetric",
            "-P",
            "5",
            "-N",
            "4",
            "--backend",
            backend,
        ]
        assert main(argv + ["--verbose"]) == 0
        verbose_out = capsys.readouterr().out
        assert "perf      :" in verbose_out
        assert "interactions/s" in verbose_out
        assert f"[{backend} backend]" in verbose_out
        # Without --verbose the perf line must not appear (the default
        # output stays byte-identical across stream-identical backends).
        assert main(argv) == 0
        assert "perf" not in capsys.readouterr().out

    def test_large_population_prints_short_lines(self, capsys):
        """The start line is cut like the result line's names, so N =
        10^5 prints no 300 KB line; the result line itself is as before."""
        code = main(
            [
                "simulate", "--symmetry", "asymmetric", "--fairness",
                "global", "--leader", "none", "--init", "uniform",
                "-P", "8", "-N", "100000", "--backend", "counts",
                "--budget", "100000",
            ]
        )
        lines = capsys.readouterr().out.splitlines()
        assert code == 1  # 8 names cannot cover 10^5 agents
        assert max(len(line) for line in lines) <= 200
        assert "start     : (0, 0, 0, 0, 0, 0, 0, 0, ... (99992 more))" in lines
        assert (
            "result    : did not converge after 100000 interactions "
            "(59210 non-null); names = (0, 0, 0, 0, 0, 0, 0, 0, ... "
            "(99992 more))"
        ) in lines

    def test_verbose_bleap_prints_window_stats(self, capsys):
        """The tau-leaping ensemble backend's per-run stats carry the
        window counters into the --verbose perf line."""
        argv = [
            "simulate",
            "--symmetry",
            "asymmetric",
            "-P",
            "5",
            "-N",
            "4",
            "--backend",
            "bleap",
            "--verbose",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "leaps" in out
        assert "SSA-fallback rows" in out
        assert "[bleap backend]" in out

    def test_leadered_simulation(self, capsys):
        code = main(
            [
                "simulate",
                "--symmetry",
                "symmetric",
                "--fairness",
                "weak",
                "--leader",
                "initialized",
                "--init",
                "uniform",
                "-P",
                "4",
                "-N",
                "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Proposition 14" in out


class TestDelegation:
    def test_table1_delegates(self, capsys):
        code = main(["table1", "--bound", "3", "--budget", "150000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all 24 cells match the paper" in out

    def test_lower_bounds_delegates(self, capsys):
        code = main(["lower-bounds", "--skip-p3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exhaustive lower-bound verification" in out

    def test_convergence_delegates(self, capsys):
        code = main(["convergence", "--bound", "4", "--runs", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "interactions to certified convergence" in out

    def test_convergence_verbose_bleap_stats(self, capsys):
        code = main(
            [
                "convergence",
                "--bound",
                "4",
                "--runs",
                "3",
                "--backend",
                "bleap",
                "--verbose",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ensemble performance per cell:" in out
        assert "SSA-fallback rows" in out

    def test_recovery_delegates(self, capsys):
        code = main(
            ["recovery", "--bound", "4", "--n", "3", "--runs", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "re-convergence" in out

    def test_ablation_delegates(self, capsys):
        code = main(["ablation", "--bound", "4", "--budget", "100000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scheduler ablation" in out

    def test_scaling_delegates(self, capsys):
        code = main(["scaling", "--max-n", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exact-verification scaling" in out

    def test_time_study_delegates(self, capsys):
        code = main(["time-study", "--bound", "6", "--runs", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "power-law fits" in out

    def test_bench_delegates(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--smoke",
                "--sections",
                "backends",
                "--out",
                str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "backend throughput" in out
        payload = out_path.read_text()
        assert '"speedup"' in payload
        assert '"fast"' in payload


class TestShow:
    def test_show_prints_rules(self, capsys):
        code = main(
            [
                "show",
                "--symmetry",
                "symmetric",
                "--fairness",
                "global",
                "--leader",
                "none",
                "-P",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Proposition 13" in out
        assert "->" in out

    def test_show_infeasible(self, capsys):
        code = main(
            [
                "show",
                "--symmetry",
                "symmetric",
                "--fairness",
                "weak",
                "--leader",
                "none",
            ]
        )
        assert code == 2
        assert "infeasible" in capsys.readouterr().out


class TestParser:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--fairness", "chaotic"])

    @pytest.mark.parametrize(
        "command", ["convergence", "scaling", "time-study", "tradeoffs"]
    )
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_non_positive_jobs_is_a_usage_error(self, capsys, command, jobs):
        with pytest.raises(SystemExit) as exc:
            main([command, "--jobs", jobs])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --jobs: must be a positive integer" in err


def exit_status(argv):
    """``main``'s exit status, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestInvalidSizes:
    """An invalid size is an invalid invocation: exit 2, not a traceback
    (exit 1 would read as a failed run)."""

    @pytest.mark.parametrize("command", ["show", "simulate"])
    @pytest.mark.parametrize(
        "flags",
        [["-P", "0"], ["-P", "1"], ["--symmetry", "asymmetric", "-P", "0"]],
        ids=["P0", "P1-prop13", "P0-asymmetric"],
    )
    def test_invalid_bound(self, capsys, command, flags):
        assert exit_status([command, *flags]) == 2
        out, err = capsys.readouterr()
        assert "invalid bound: the bound P must be" in out
        assert "Traceback" not in out + err

    def test_empty_population_is_a_usage_error(self, capsys):
        assert exit_status(["simulate", "-N", "0"]) == 2
        out, err = capsys.readouterr()
        assert "argument --n/-N: must be a positive integer, got 0" in err
        assert "Traceback" not in out + err

    def test_unschedulable_population(self, capsys):
        # One mobile agent and no leader: nobody to meet.
        assert exit_status(["simulate", "-N", "1"]) == 2
        out, err = capsys.readouterr()
        assert "invalid population: scheduling needs at least two" in out
        assert "Traceback" not in out + err

    def test_single_agent_with_a_leader_still_runs(self, capsys):
        code = exit_status(
            ["simulate", "--symmetry", "asymmetric", "--leader",
             "initialized", "-P", "3", "-N", "1"]
        )
        assert code == 0
        assert "converged" in capsys.readouterr().out
