"""Tests for the ``repro check`` CLI and its verdict memoization."""

import json

import pytest

from repro.analysis.check import cached_check, main as check_main
from repro.analysis.symbolic import SymbolicVerdict
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.serve.cache import ArtifactCache


class TestCheckCli:
    def test_default_properties_follow_the_model_claim(self, capsys):
        # A global-fairness model is not checked for weak-fairness
        # liveness by default (Prop. 13 legitimately livelocks there).
        assert check_main(["-P", "5", "-N", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS: reach" in out
        assert "PASS: sinks" in out
        assert "liveness" not in out

    def test_weak_model_includes_liveness(self, capsys):
        code = check_main(
            ["--fairness", "weak", "--leader", "initialized",
             "-P", "5", "-N", "3"]
        )
        assert code == 0
        assert "PASS: liveness" in capsys.readouterr().out

    def test_explicit_property_override_fails_with_witness(self, capsys):
        # Forcing the liveness check onto the global-fairness protocol
        # must produce a replay-validated counterexample and exit 1.
        code = check_main(["-P", "4", "-N", "3", "--property", "liveness"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL: liveness" in out
        assert "counterexample (weak-livelock)" in out
        assert "replayed on the reference simulator" in out

    def test_infeasible_model_exits_2(self, capsys):
        code = check_main(
            ["--fairness", "weak", "--leader", "none", "-P", "4"]
        )
        assert code == 2
        assert "infeasible" in capsys.readouterr().out

    def test_budget_escape_exits_2(self, capsys):
        # P=32 with a non-initialized leader declares ~1.5e11 leader
        # states; the checker must refuse cleanly, not enumerate them.
        code = check_main(
            ["--fairness", "weak", "--leader", "non-initialized",
             "-P", "32", "-N", "3"]
        )
        assert code == 2
        assert "check aborted" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["-P", "0"], "invalid bound: the bound P must be"),
            (["-P", "1"], "invalid bound: the bound P must be at least 2"),
            (["-N", "0"], "argument --n/-N: must be a positive integer"),
        ],
        ids=["P0", "P1", "N0"],
    )
    def test_invalid_size_exits_2(self, capsys, flags, message):
        try:
            code = check_main(flags)
        except SystemExit as exc:  # argparse rejects it at parse time
            code = exc.code
        assert code == 2
        out, err = capsys.readouterr()
        assert message in out + err
        assert "Traceback" not in out + err

    def test_json_output(self, capsys):
        assert check_main(["-P", "4", "-N", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bound"] == 4
        assert {v["prop"] for v in data["verdicts"]} == {"reach", "sinks"}
        assert all(v["holds"] for v in data["verdicts"])

    def test_dispatch_through_main_cli(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["check", "-P", "4", "-N", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_cache_dir_round_trip(self, tmp_path, capsys):
        args = ["-P", "5", "-N", "3", "--cache-dir", str(tmp_path)]
        assert check_main(args) == 0
        capsys.readouterr()
        assert check_main(args) == 0  # served from the artifact cache
        assert "PASS" in capsys.readouterr().out
        assert list(tmp_path.glob("check/*/*.pkl"))


class TestCachedCheck:
    def test_verdict_memoized_by_content(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        first = cached_check(
            SymmetricGlobalNamingProtocol(4), "reach", 3,
            mobile_mode="arbitrary", cache=cache,
        )
        second = cached_check(
            SymmetricGlobalNamingProtocol(4), "reach", 3,
            mobile_mode="arbitrary", cache=cache,
        )
        assert isinstance(first, SymbolicVerdict) and first.holds
        assert second.holds == first.holds
        assert cache.stats.hits >= 1

    def test_distinct_parameters_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        protocol = SymmetricGlobalNamingProtocol(4)
        cached_check(protocol, "reach", 3, cache=cache)
        before = cache.stats.misses
        cached_check(protocol, "sinks", 3, cache=cache)
        assert cache.stats.misses > before

    def test_no_cache_falls_through(self):
        verdict = cached_check(
            SymmetricGlobalNamingProtocol(3), "reach", 3, cache=None
        )
        assert verdict.holds


#: The four P = 32 cells of CI's ``check`` job: flags, then per verdict
#: (property, explored count vectors, edges, details).  Every verdict
#: holds.
CI_CELLS = {
    "prop13": (
        ["--fairness", "global", "--symmetry", "symmetric",
         "--leader", "none"],
        [
            ("reach", 6545, 0, {"roots": 6545}),
            ("sinks", 6545, 3201, {
                "roots": 6545,
                "sink_sccs": 4960,
                "unique_sink_violation": (
                    "symmetric leaderless naming (Prop. 13): expected a "
                    "unique sink state, found [1, 32]"
                ),
            }),
        ],
    ),
    "prop16": (
        ["--fairness", "weak", "--symmetry", "symmetric",
         "--leader", "initialized"],
        [
            ("reach", 7254, 0, {"roots": 6545}),
            ("sinks", 7254, 40664,
             {"roots": 6545, "sink_sccs": 4, "unique_sink": "0"}),
            ("liveness", 7254, 40664,
             {"roots": 6545, "candidates_checked": 1202}),
        ],
    ),
    "prop12": (
        ["--fairness", "global", "--symmetry", "asymmetric",
         "--leader", "none"],
        [
            ("reach", 5984, 0, {"roots": 5984}),
            ("sinks", 5984, 1024, {"roots": 5984, "sink_sccs": 4960}),
        ],
    ),
    "prop12-weak": (
        ["--fairness", "weak", "--symmetry", "asymmetric",
         "--leader", "none"],
        [
            ("reach", 5984, 0, {"roots": 5984}),
            ("sinks", 5984, 1024, {"roots": 5984, "sink_sccs": 4960}),
            ("liveness", 5984, 1024,
             {"roots": 5984, "candidates_checked": 1024}),
        ],
    ),
}


class TestCiCells:
    """``repro check --json`` on CI's P = 32 cells, pinned verdict by
    verdict."""

    @pytest.mark.parametrize("cell", sorted(CI_CELLS))
    def test_verdicts_pinned(self, capsys, cell):
        flags, expected = CI_CELLS[cell]
        code = check_main(
            flags + ["--init", "arbitrary", "-P", "32", "-N", "3", "--json"]
        )
        assert code == 0
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert [
            (v["prop"], v["holds"], v["explored"], v["edges"], v["details"])
            for v in verdicts
        ] == [
            (prop, True, explored, edges, details)
            for prop, explored, edges, details in expected
        ]
