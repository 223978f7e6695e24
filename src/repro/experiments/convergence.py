"""Experiment ``exp-s1``: convergence cost versus population size.

The paper is an exact *space* study and makes no time claims; this
supplementary experiment measures what the space-optimal protocols cost in
interactions, for each positive Table 1 cell, under the randomized
scheduler (the standard cost model of the population-protocol literature).

``python -m repro.experiments.convergence`` prints one series per protocol:
mean/median/p90 interactions to certified convergence as ``N`` grows.
``--backend`` selects the simulation engine (default ``auto``: batched
tau-leaping ``bleap`` at large N, lockstep ``batch`` below, falling back
down the backend ladder per run when needed), ``--jobs K`` fans seeds
out over processes, and ``--verbose`` appends each cell's aggregated
wall-clock/throughput stats (including leap-window counts when the
tau-leaping engine served the cell).
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field

from repro.analysis.stats import Summary, summarize
from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.global_naming import GlobalNamingProtocol
from repro.core.leader_uniform import LeaderUniformNamingProtocol
from repro.core.selfstab_naming import SelfStabilizingNamingProtocol
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.ensemble import run_ensemble
from repro.engine.fast import BACKENDS
from repro.engine.population import Population
from repro.engine.problems import NamingProblem
from repro.engine.protocol import PopulationProtocol
from repro.engine.simulator import RunStats
from repro.errors import ConvergenceError
from repro.experiments.report import render_table, worker_count
from repro.schedulers.random_pair import RandomPairScheduler


@dataclass(frozen=True)
class SeriesPoint:
    """Summary of one (protocol, N) cell.

    ``stats`` aggregates the cell's ensemble performance
    (:attr:`repro.engine.ensemble.EnsembleResult.stats`); excluded from
    equality because wall-clock numbers differ between otherwise
    identical runs.
    """

    protocol: str
    n_mobile: int
    bound: int
    summary: Summary
    stats: RunStats | None = field(default=None, compare=False)


def _initial_for(
    protocol: PopulationProtocol,
    population: Population,
    rng: random.Random,
    uniform: bool,
) -> Configuration:
    mobile_space = sorted(protocol.mobile_state_space())
    leader = (
        protocol.initial_leader_state() if population.has_leader else None
    )
    if uniform:
        designated = protocol.initial_mobile_state()
        value = designated if designated is not None else mobile_space[0]
        return Configuration.uniform(population, value, leader)
    mobiles = tuple(
        rng.choice(mobile_space) for _ in range(population.n_mobile)
    )
    return Configuration.from_states(population, mobiles, leader)


def _scheduler_for_seed(population: Population, seed: int):
    """Scheduler factory for :func:`repro.engine.ensemble.run_ensemble`.

    Module-level (not a lambda) so ``n_jobs > 1`` can pickle it.
    """
    return RandomPairScheduler(population, seed=seed)


@dataclass(frozen=True)
class _InitialFactory:
    """Picklable initial-configuration factory wrapping ``_initial_for``."""

    protocol: PopulationProtocol
    uniform: bool

    def __call__(self, population: Population, seed: int) -> Configuration:
        """Build the seed's initial configuration."""
        return _initial_for(
            self.protocol, population, random.Random(seed), self.uniform
        )


def measure(
    protocol: PopulationProtocol,
    n_mobile: int,
    bound: int,
    seeds: range,
    budget: int,
    uniform: bool = False,
    backend: str = "auto",
    n_jobs: int = 1,
) -> SeriesPoint:
    """Interactions-to-convergence sample for one protocol instance."""
    population = Population(n_mobile, protocol.requires_leader)
    ensemble = run_ensemble(
        protocol,
        population,
        _scheduler_for_seed,
        _InitialFactory(protocol, uniform),
        NamingProblem(),
        seeds=seeds,
        max_interactions=budget,
        backend=backend,
        n_jobs=n_jobs,
    )
    sample: list[int] = []
    for seed, result in zip(ensemble.seeds, ensemble.results):
        if not result.converged:
            raise ConvergenceError(
                f"{protocol.display_name} (N={n_mobile}, seed={seed}) "
                f"did not converge within {budget} interactions",
                interactions=result.interactions,
            )
        assert result.convergence_interaction is not None
        sample.append(result.convergence_interaction)
    return SeriesPoint(
        protocol=protocol.display_name,
        n_mobile=n_mobile,
        bound=bound,
        summary=summarize(sample),
        stats=ensemble.stats,
    )


def protocol_series(bound: int) -> list[tuple[PopulationProtocol, list[int], bool]]:
    """The (protocol, sizes, uniform-start) series measured by default.

    Protocol 3's ``N = P`` point is included only for small bounds (its
    randomized cost grows super-exponentially; the paper makes no time
    claims there).
    """
    sizes_full = list(range(2, bound + 1))
    sizes_gt2 = [n for n in sizes_full if n > 2]
    protocol3_sizes = [
        n for n in sizes_full if n < bound or bound <= 3
    ]
    return [
        (AsymmetricNamingProtocol(bound), sizes_full, False),
        (SymmetricGlobalNamingProtocol(bound), sizes_gt2, False),
        (LeaderUniformNamingProtocol(bound), sizes_full, True),
        (SelfStabilizingNamingProtocol(bound), sizes_full, False),
        (GlobalNamingProtocol(bound), protocol3_sizes, False),
    ]


def run_convergence(
    bound: int = 8,
    runs: int = 20,
    budget: int = 2_000_000,
    backend: str = "auto",
    n_jobs: int = 1,
) -> list[SeriesPoint]:
    """Measure every default series; returns all points."""
    points: list[SeriesPoint] = []
    for protocol, sizes, uniform in protocol_series(bound):
        for n in sizes:
            points.append(
                measure(
                    protocol,
                    n,
                    bound,
                    seeds=range(runs),
                    budget=budget,
                    uniform=uniform,
                    backend=backend,
                    n_jobs=n_jobs,
                )
            )
    return points


def render_stats(points: list[SeriesPoint]) -> str:
    """Render per-cell ensemble performance lines (``--verbose``)."""
    lines = ["ensemble performance per cell:"]
    for p in points:
        if p.stats is None:
            lines.append(f"  {p.protocol} N={p.n_mobile}: no stats")
        else:
            lines.append(f"  {p.protocol} N={p.n_mobile}: {p.stats}")
    return "\n".join(lines)


def render_points(points: list[SeriesPoint]) -> str:
    """Render the convergence series as an aligned text table."""
    rows = [
        (
            p.protocol,
            p.n_mobile,
            p.bound,
            f"{p.summary.mean:.0f}",
            f"{p.summary.median:.0f}",
            f"{p.summary.p90:.0f}",
            p.summary.maximum,
        )
        for p in points
    ]
    return render_table(
        ("protocol", "N", "P", "mean", "median", "p90", "max"),
        rows,
        title="interactions to certified convergence (random scheduler)",
    )


def main(argv: list[str] | None = None) -> int:
    """Run exp-s1 from the command line."""
    parser = argparse.ArgumentParser(
        description="Convergence cost of the naming protocols."
    )
    parser.add_argument("--bound", type=int, default=8)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--budget", type=int, default=2_000_000)
    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS) + ["auto"],
        default="auto",
        help="simulation engine (auto picks bleap at large N, batch "
        "below; both run all seeds in lockstep and every backend is "
        "statistically equivalent)",
    )
    parser.add_argument(
        "--jobs",
        type=worker_count,
        default=1,
        help="worker processes for per-seed runs",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also print per-cell ensemble wall-clock/throughput stats",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the series as JSON"
    )
    args = parser.parse_args(argv)
    points = run_convergence(
        args.bound, args.runs, args.budget, args.backend, args.jobs
    )
    print(render_points(points))
    if args.verbose:
        print()
        print(render_stats(points))
    if args.json:
        from repro.reporting.jsonio import dump

        dump(points, args.json)
        print(f"\nJSON written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
