"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.engine.configuration import Configuration

#: ``repro simulate`` arguments and their whole stdout, recorded when a
#: uniform start was still built from an N-element list.
PINNED_SIMULATE = {
    "--symmetry symmetric --fairness weak --leader initialized --init "
    "uniform -P 4 -N 4": (
        "model     : symmetric rules, weak fairness, initialized leader, "
        "uniform mobile init\n"
        "protocol  : leader + uniform init naming (Prop. 14) "
        "(Proposition 14)\n"
        "states    : 4 per mobile agent (paper optimum: 4)\n"
        "population: N = 4, P = 4\n"
        "start     : (4, 4, 4, 4)\n"
        "result    : converged after 16 interactions (3 non-null); "
        "names = (3, 4, 2, 1)\n"
    ),
    "--symmetry asymmetric --fairness global --leader none --init uniform "
    "-P 16 -N 12 --seed 5": (
        "model     : asymmetric rules, global fairness, no leader, uniform "
        "mobile init\n"
        "protocol  : asymmetric naming (Prop. 12) (Proposition 12)\n"
        "states    : 16 per mobile agent (paper optimum: 16)\n"
        "population: N = 12, P = 16\n"
        "start     : (0, 0, 0, 0, 0, 0, 0, 0, ... (4 more))\n"
        "result    : converged after 1040 interactions (66 non-null); "
        "names = (5, 8, 0, 9, 10, 11, 1, 6, ... (4 more))\n"
    ),
    "--symmetry symmetric --fairness global --leader initialized --init "
    "uniform -P 12 -N 10 --seed 3": (
        "model     : symmetric rules, global fairness, initialized leader, "
        "uniform mobile init\n"
        "protocol  : global-fairness naming, Protocol 3 (Prop. 17) "
        "(Proposition 17)\n"
        "states    : 12 per mobile agent (paper optimum: 12)\n"
        "population: N = 10, P = 12\n"
        "start     : (0, 0, 0, 0, 0, 0, 0, 0, ... (2 more))\n"
        "result    : converged after 14256 interactions (1018 non-null); "
        "names = (4, 8, 10, 9, 6, 2, 3, 7, ... (2 more))\n"
    ),
    "--symmetry asymmetric --fairness global --leader none --init "
    "arbitrary -P 16 -N 12 --seed 5": (
        "model     : asymmetric rules, global fairness, no leader, "
        "arbitrary mobile init\n"
        "protocol  : asymmetric naming (Prop. 12) (Proposition 12)\n"
        "states    : 16 per mobile agent (paper optimum: 16)\n"
        "population: N = 12, P = 16\n"
        "start     : (8, 11, 0, 14, 7, 1, 5, 3, ... (4 more))\n"
        "result    : converged after 144 interactions (4 non-null); "
        "names = (9, 13, 0, 14, 7, 1, 5, 3, ... (4 more))\n"
    ),
}


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


class TestSimulateStart:
    @pytest.mark.parametrize("argv", list(PINNED_SIMULATE))
    def test_output_is_unchanged(self, capsys, argv):
        assert main(["simulate", *argv.split()]) == 0
        assert capsys.readouterr().out == PINNED_SIMULATE[argv]

    @pytest.mark.parametrize(
        "argv, state",
        [
            ("--symmetry symmetric --fairness weak --leader initialized "
             "--init uniform -P 4 -N 4", 4),
            ("--symmetry asymmetric --fairness global --leader none "
             "--init uniform -P 16 -N 12", 0),
        ],
    )
    def test_uniform_start_carries_its_tally(self, monkeypatch, argv, state):
        """The start equals the list-built one and arrives with its
        state tally, so interning it hashes no per-agent state."""
        seen = []
        make_simulator = cli.make_simulator

        def spy(*args, **kwargs):
            simulator = make_simulator(*args, **kwargs)
            run = simulator.run

            def capture(initial, **kw):
                seen.append((simulator, initial, initial._tally_cache))
                return run(initial, **kw)

            simulator.run = capture
            return simulator

        monkeypatch.setattr(cli, "make_simulator", spy)
        assert main(["simulate", *argv.split()]) == 0
        ((simulator, initial, tally),) = seen
        population = simulator.population
        leader = (
            simulator.protocol.initial_leader_state()
            if population.has_leader
            else None
        )
        expected = Configuration.from_states(
            population, [state] * population.n_mobile, leader
        )
        assert initial == expected
        assert expected._tally_cache is None
        assert tally is not None and tally == expected.state_tally()


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


class TestInvalidLeapEps:
    """A ``--leap-eps`` the backend refuses is a usage error: one line,
    exit 2, nothing on stderr."""

    @pytest.mark.parametrize(
        ("backend", "eps", "reason"),
        [
            ("counts", "0.05", "does not accept leap_eps"),
            ("leap", "2", "leap_eps must be in (0, 1), got 2.0"),
        ],
    )
    def test_refused_leap_eps(self, capsys, backend, eps, reason):
        argv = ["simulate", "--backend", backend, "--leap-eps", eps]
        assert exit_status(argv) == 2
        out, err = capsys.readouterr()
        assert out.startswith("invalid --leap-eps: ")
        assert reason in out
        assert out.count("\n") == 1
        assert err == ""

    def test_valid_leap_eps_still_runs(self, capsys):
        argv = ["simulate", "--backend", "leap", "--leap-eps", "0.05"]
        assert exit_status(argv) == 0
        assert "converged" in capsys.readouterr().out
