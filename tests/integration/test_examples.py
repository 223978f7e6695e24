"""The examples must keep running: each is executed as a subprocess."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, timeout: int = 600) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "final names" in out
        assert "asymmetric naming" in out

    def test_sensor_network(self):
        out = run_example("sensor_network.py")
        assert "self-stabilizing bootstrap" in out
        assert "transient fault burst" in out
        assert "recovered after" in out

    def test_anonymous_social(self):
        out = run_example("anonymous_social.py")
        assert "naming 7 equal peers" in out
        assert "converged = False" in out  # the N = 2 demonstration

    def test_impossibility_tour(self):
        out = run_example("impossibility_tour.py")
        assert "all six impossibility demonstrations hold" in out

    def test_reproduce_table1(self):
        out = run_example("reproduce_table1.py")
        assert "cells matching the paper: 24/24" in out

    def test_leader_election(self):
        out = run_example("leader_election.py")
        assert "electing a leader" in out
        assert out.count("re-elected agent") == 3

    def test_exact_analysis(self):
        out = run_example("exact_analysis.py")
        assert "solves naming under global fairness : True" in out
        assert "1,962,289,959" in out
