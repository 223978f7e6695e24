"""Experiment ``exp-s8``: exact expected convergence times.

Simulation estimates expectations with variance and a budget; the lumped
(multiset) Markov chain computes them *exactly* by linear algebra
(:mod:`repro.analysis.markov`).  This experiment

1. validates the lumping on simulable instances - the exact expectation
   must sit inside the simulated means' confidence band, and
2. pushes where simulation cannot go: Protocol 3's ``N = P`` sweep
   expectation is ~3.0e5 interactions at ``P = 4``, ~2.0e9 at ``P = 5``
   and ~2.6e14 at ``P = 6`` - the super-exponential wall in exact
   numbers, each computed in well under a second.

``python -m repro.experiments.exact_times`` prints the table.
"""

from __future__ import annotations

import argparse
import math
import time
from dataclasses import dataclass

from repro.analysis.markov import (
    QuotientNode,
    expected_convergence_time,
    naming_absorbing,
)
from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.global_naming import GlobalNamingProtocol
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.population import Population
from repro.engine.problems import NamingProblem
from repro.engine.protocol import PopulationProtocol
from repro.engine.simulator import Simulator
from repro.experiments.report import render_table
from repro.schedulers.random_pair import RandomPairScheduler


@dataclass(frozen=True)
class ExactTimePoint:
    """One (protocol, start) exact expectation, optionally simulated."""

    protocol: str
    n_mobile: int
    bound: int
    exact: float
    simulated_mean: float | None
    runs: int
    seconds: float


def _simulate_mean(
    protocol: PopulationProtocol,
    n_mobile: int,
    start: QuotientNode,
    runs: int,
    budget: int,
) -> float:
    mobile, leader = start
    population = Population(n_mobile, protocol.requires_leader)
    total = 0
    for seed in range(runs):
        scheduler = RandomPairScheduler(population, seed=seed)
        simulator = Simulator(
            protocol, population, scheduler, NamingProblem(),
            check_interval=1,
        )
        initial = Configuration.from_states(population, mobile, leader)
        result = simulator.run(initial, max_interactions=budget)
        assert result.converged, "simulation budget too small"
        total += result.convergence_interaction
    return total / runs


def exact_point(
    protocol: PopulationProtocol,
    n_mobile: int,
    bound: int,
    start: QuotientNode,
    runs: int = 0,
    budget: int = 2_000_000,
    max_nodes: int = 100_000,
) -> ExactTimePoint:
    """Exact expectation from ``start``; simulated too when ``runs > 0``."""
    begun = time.perf_counter()
    times = expected_convergence_time(
        protocol, [start], naming_absorbing(protocol), max_nodes=max_nodes
    )
    exact = times[start]
    elapsed = time.perf_counter() - begun
    simulated = (
        _simulate_mean(protocol, n_mobile, start, runs, budget)
        if runs
        else None
    )
    return ExactTimePoint(
        protocol=protocol.display_name,
        n_mobile=n_mobile,
        bound=bound,
        exact=exact,
        simulated_mean=simulated,
        runs=runs,
        seconds=elapsed,
    )


def run_exact_times(
    validation_runs: int = 120, max_protocol3_bound: int = 6
) -> list[ExactTimePoint]:
    """The default exp-s8 battery."""
    points: list[ExactTimePoint] = []

    # Validation tier: exact vs simulated on cheap instances.
    for n in (3, 4, 5):
        protocol = AsymmetricNamingProtocol(n)
        start = ((0,) * n, None)
        points.append(
            exact_point(protocol, n, n, start, runs=validation_runs)
        )
    for n in (3, 4, 5):
        protocol = SymmetricGlobalNamingProtocol(n)
        start = ((n,) * n, None)
        points.append(
            exact_point(protocol, n, n, start, runs=validation_runs)
        )

    # Beyond-simulation tier: Protocol 3's N = P sweep.
    for bound in range(3, max_protocol3_bound + 1):
        protocol = GlobalNamingProtocol(bound)
        start = ((0,) * bound, protocol.initial_leader_state())
        runs = validation_runs if bound == 3 else 0
        points.append(
            exact_point(protocol, bound, bound, start, runs=runs)
        )
    return points


def render_points(points: list[ExactTimePoint]) -> str:
    """Render the exact-vs-simulated expectations as a text table."""
    rows = []
    for p in points:
        simulated = (
            f"{p.simulated_mean:,.1f} ({p.runs} runs)"
            if p.simulated_mean is not None
            else "out of simulation reach"
        )
        rows.append(
            (
                p.protocol,
                p.n_mobile,
                f"{p.exact:,.1f}",
                simulated,
                f"{p.seconds * 1000:.0f} ms",
            )
        )
    return render_table(
        ("protocol", "N = P", "exact E[interactions]", "simulated mean",
         "solve time"),
        rows,
        title="exact expected convergence times (exp-s8)",
    )


def validate(points: list[ExactTimePoint], tolerance: float = 0.15) -> bool:
    """Whether every simulated mean sits within ``tolerance`` (relative)
    of its exact expectation."""
    for p in points:
        if p.simulated_mean is None or p.exact == 0:
            continue
        if not math.isclose(
            p.simulated_mean, p.exact, rel_tol=tolerance
        ):
            return False
    return True


def main(argv: list[str] | None = None) -> int:
    """Run exp-s8 from the command line."""
    parser = argparse.ArgumentParser(
        description="Exact expected convergence times by linear algebra."
    )
    parser.add_argument("--runs", type=int, default=120)
    parser.add_argument("--max-protocol3", type=int, default=6)
    args = parser.parse_args(argv)
    points = run_exact_times(
        validation_runs=args.runs, max_protocol3_bound=args.max_protocol3
    )
    print(render_points(points))
    ok = validate(points)
    print(
        "\nsimulated means within 15% of exact expectations: "
        f"{'yes' if ok else 'NO'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
