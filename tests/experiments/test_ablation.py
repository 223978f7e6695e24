"""Tests for the scheduler-ablation experiment."""

import pytest

from repro.experiments.ablation import render_points, run_ablation


@pytest.fixture(scope="module")
def points():
    return run_ablation(bound=4, seed=3, budget=120_000)


class TestAblation:
    def test_all_expectations_met(self, points):
        mismatches = [p for p in points if not p.matches]
        assert not mismatches, [
            (p.protocol, p.scheduler, p.expect_convergence, p.converged)
            for p in mismatches
        ]

    def test_asymmetric_beats_every_scheduler(self, points):
        asym = [
            p
            for p in points
            if "Prop. 12" in p.protocol and "symmetrized" not in p.protocol
        ]
        assert len(asym) == 4
        assert all(p.converged for p in asym)

    def test_transformer_needs_global_fairness(self, points):
        transformed = [p for p in points if "symmetrized" in p.protocol]
        assert len(transformed) == 2
        random_row = next(
            p for p in transformed if "random" in p.scheduler
        )
        matching_row = next(
            p for p in transformed if "matching" in p.scheduler
        )
        assert random_row.converged
        assert not matching_row.converged

    def test_prop13_livelocks_under_matching_adversary(self, points):
        livelock = [
            p
            for p in points
            if "Prop. 13" in p.protocol and "matching" in p.scheduler
        ]
        assert livelock and not livelock[0].converged

    def test_protocol2_converges_under_weak_schedulers(self, points):
        p2 = [p for p in points if "Protocol 2" in p.protocol]
        assert len(p2) == 3
        assert all(p.converged for p in p2)

    def test_adversary_rows_pinned(self, points):
        # The homonym-preserving adversary is deterministic: its rows
        # must not move when its scoring is reimplemented.
        adversary = {
            p.protocol: p.interactions
            for p in points
            if p.scheduler == "homonym-preserving adversary"
        }
        assert adversary == {
            "asymmetric naming (Prop. 12)": 32,
            "self-stabilizing naming, Protocol 2 (Prop. 16)": 80,
        }

    def test_render(self, points):
        text = render_points(points)
        assert "scheduler ablation" in text
        assert "livelock" in text
