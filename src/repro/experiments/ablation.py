"""Experiment ``exp-s4``: scheduler ablation.

The same protocol meets very different adversaries: the randomized
scheduler (globally fair w.p. 1), deterministic round robin and the
homonym-preserving adversary (both weakly fair), and the matching-phase
scheduler of Proposition 1's proof.  This experiment runs each positive
protocol under each scheduler it is specified for, plus the mismatched
combinations the paper predicts to fail:

* Proposition 13's protocol (global fairness only) under the weakly fair
  round robin - the paper implies it may livelock, and it does;
* any symmetric protocol under the matching adversary from a uniform even
  start - never converges (Proposition 1).

``python -m repro.experiments.ablation`` prints the matrix.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.selfstab_naming import SelfStabilizingNamingProtocol
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.core.transformer import ProjectedNamingProblem, SymmetrizedProtocol
from repro.engine.configuration import Configuration
from repro.engine.population import Population
from repro.engine.problems import NamingProblem
from repro.engine.protocol import PopulationProtocol
from repro.engine.fast import make_simulator
from repro.experiments.report import check_mark, render_table
from repro.schedulers.adversarial import HomonymPreservingScheduler
from repro.schedulers.base import Scheduler
from repro.schedulers.matching import MatchingScheduler
from repro.schedulers.random_pair import RandomPairScheduler
from repro.schedulers.round_robin import RoundRobinScheduler


@dataclass(frozen=True)
class AblationPoint:
    """One (protocol, scheduler) combination."""

    protocol: str
    scheduler: str
    n_mobile: int
    expect_convergence: bool
    converged: bool
    interactions: int

    @property
    def matches(self) -> bool:
        return self.converged == self.expect_convergence


def _run(
    protocol: PopulationProtocol,
    population: Population,
    scheduler: Scheduler,
    initial: Configuration,
    expect: bool,
    budget: int,
    problem=None,
) -> AblationPoint:
    # Oblivious schedulers run on the fast engine, which skips the
    # repeating cycles of the periodic ones exactly; an inspecting
    # adversary needs the reference loop either way.
    simulator = make_simulator(
        "reference" if scheduler.inspects_configuration else "fast",
        protocol,
        population,
        scheduler,
        problem or NamingProblem(),
    )
    result = simulator.run(initial, max_interactions=budget)
    return AblationPoint(
        protocol=protocol.display_name,
        scheduler=scheduler.display_name,
        n_mobile=population.n_mobile,
        expect_convergence=expect,
        converged=result.converged,
        interactions=(
            result.convergence_interaction
            if result.convergence_interaction is not None
            else result.interactions
        ),
    )


def run_ablation(
    bound: int = 6, seed: int = 7, budget: int = 500_000
) -> list[AblationPoint]:
    """The default scheduler-ablation matrix."""
    points: list[AblationPoint] = []
    n = bound  # even bound keeps the matching adversary exact
    if n % 2:
        n -= 1

    # Asymmetric protocol: correct under EVERY fair scheduler.
    protocol: PopulationProtocol = AsymmetricNamingProtocol(bound)
    population = Population(n)
    start = Configuration.uniform(population, 0)
    for scheduler in (
        RandomPairScheduler(population, seed=seed),
        RoundRobinScheduler(population, seed=seed),
        HomonymPreservingScheduler(population, protocol, seed=seed),
        MatchingScheduler(population, seed=seed),
    ):
        points.append(
            _run(protocol, population, scheduler, start, True, budget)
        )

    # Prop. 13 protocol: global fairness only.
    protocol = SymmetricGlobalNamingProtocol(bound)
    start = Configuration.uniform(population, 1)
    points.append(
        _run(
            protocol,
            population,
            RandomPairScheduler(population, seed=seed),
            start,
            True,
            budget,
        )
    )
    # A weakly fair scheduler may livelock it: Proposition 1's matching
    # adversary provably does from a uniform start (phases of disjoint
    # meetings keep all agents in identical states forever).
    points.append(
        _run(
            protocol,
            population,
            MatchingScheduler(population, seed=seed),
            start,
            False,
            budget - budget % max(1, n // 2),
        )
    )

    # Protocol 2: weakly fair schedulers suffice (and random w.p. 1).
    protocol = SelfStabilizingNamingProtocol(bound)
    leadered = Population(n, has_leader=True)
    start = Configuration.uniform(
        leadered, 0, protocol.initial_leader_state()
    )
    for scheduler in (
        RoundRobinScheduler(leadered, seed=seed),
        HomonymPreservingScheduler(leadered, protocol, seed=seed),
        RandomPairScheduler(leadered, seed=seed),
    ):
        points.append(
            _run(protocol, leadered, scheduler, start, True, budget)
        )

    # Footnote 5's transformer: the symmetrized asymmetric protocol pays
    # 2P states and, like every matching-synchronized symmetric protocol,
    # livelocks under Proposition 1's adversary while converging under the
    # randomized (globally fair) scheduler.
    transformed = SymmetrizedProtocol(AsymmetricNamingProtocol(bound))
    population = Population(n)
    start = Configuration.uniform(population, (0, 0))
    problem = ProjectedNamingProblem()
    points.append(
        _run(
            transformed,
            population,
            RandomPairScheduler(population, seed=seed),
            start,
            True,
            budget,
            problem=problem,
        )
    )
    points.append(
        _run(
            transformed,
            population,
            MatchingScheduler(population, seed=seed),
            start,
            False,
            budget - budget % max(1, n // 2),
            problem=problem,
        )
    )
    return points


def render_points(points: list[AblationPoint]) -> str:
    """Render the ablation matrix as an aligned text table."""
    rows = [
        (
            p.protocol,
            p.scheduler,
            p.n_mobile,
            "converge" if p.expect_convergence else "livelock",
            "converged" if p.converged else "no convergence",
            p.interactions,
            check_mark(p.matches),
        )
        for p in points
    ]
    return render_table(
        (
            "protocol",
            "scheduler",
            "N",
            "expected",
            "observed",
            "interactions",
            "verdict",
        ),
        rows,
        title="scheduler ablation",
    )


def main(argv: list[str] | None = None) -> int:
    """Run exp-s4 from the command line."""
    parser = argparse.ArgumentParser(description="Scheduler ablation matrix.")
    parser.add_argument("--bound", type=int, default=6)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--budget", type=int, default=500_000)
    args = parser.parse_args(argv)
    points = run_ablation(args.bound, args.seed, args.budget)
    print(render_points(points))
    return 0 if all(p.matches for p in points) else 1


if __name__ == "__main__":
    raise SystemExit(main())
