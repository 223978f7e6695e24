"""Experiment ``table1``: regenerate the paper's Table 1 empirically.

For every combination of the four model parameters the harness produces a
measured verdict and compares it to the paper's:

* **Feasible cells** - build the registry's space-optimal protocol, check
  its declared state count against the paper's exact bound, run it to
  certified convergence under schedulers of the right fairness class (from
  adversarial and random starts), and *exactly* model-check a small
  instance with the matching fairness checker.
* **The infeasible cell** (symmetric rules, weak fairness, no leader) -
  demonstrate Proposition 1's matching adversary preserving symmetry
  forever on a concrete symmetric protocol, and (in thorough mode)
  exhaustively refute every 2-state symmetric leaderless protocol.

``python -m repro.experiments.table1`` (or the ``repro-table1`` script)
prints the regenerated table.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

from repro.analysis.enumeration import search, symmetric_leaderless_protocols
from repro.analysis.symbolic import check_liveness, check_sinks
from repro.core.global_naming import GlobalNamingProtocol
from repro.core.registry import protocol_for
from repro.core.spec import (
    CellResult,
    Fairness,
    LeaderKind,
    MobileInit,
    ModelSpec,
    Symmetry,
    all_specs,
    table1_cell,
)
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.fast import BACKENDS, make_simulator
from repro.engine.population import Population
from repro.engine.problems import NamingProblem
from repro.engine.protocol import PopulationProtocol
from repro.engine.state import State
from repro.experiments.report import check_mark, render_table
from repro.schedulers.adversarial import HomonymPreservingScheduler
from repro.schedulers.base import Scheduler
from repro.schedulers.matching import MatchingScheduler
from repro.schedulers.random_pair import RandomPairScheduler
from repro.schedulers.round_robin import RoundRobinScheduler

#: Population sizes whose exact model checking stays cheap.
_CHECK_BOUND = 3


@dataclass
class Table1Row:
    """One regenerated cell of Table 1."""

    spec: ModelSpec
    expected: CellResult
    measured_feasible: bool
    measured_states: int | None
    match: bool
    evidence: list[str] = field(default_factory=list)


def _start_spaces(
    protocol: PopulationProtocol, spec: ModelSpec
) -> tuple[list[State], list[State]]:
    """The sorted state spaces :func:`_random_initials` draws from.

    The mobile space in natural order; the leader space by ``repr``, and
    only for a cell whose starts take a leader state from it (an
    initialized leader with a designated state draws nothing), else
    empty.  The draws index into these orders.
    """
    mobile_space = sorted(protocol.mobile_state_space())
    draws_leader = protocol.requires_leader and (
        spec.leader is not LeaderKind.INITIALIZED
        or protocol.initial_leader_state() is None
    )
    leader_space = (
        sorted(protocol.leader_state_space(), key=repr) if draws_leader else []
    )
    return mobile_space, leader_space


def _random_initials(
    protocol: PopulationProtocol,
    population: Population,
    spec: ModelSpec,
    seed: int,
    samples: int,
    mobile_space: list[State],
    leader_space: list[State],
) -> list[Configuration]:
    """Starting configurations matching the spec's initialization model,
    drawn from the spaces :func:`_start_spaces` sorted."""
    import random

    rng = random.Random(seed)

    def leader_state() -> object | None:
        if not population.has_leader:
            return None
        if spec.leader is LeaderKind.INITIALIZED:
            designated = protocol.initial_leader_state()
            return designated if designated is not None else leader_space[0]
        return rng.choice(leader_space)

    configs: list[Configuration] = []
    if spec.mobile_init is MobileInit.UNIFORM:
        designated = protocol.initial_mobile_state()
        value = designated if designated is not None else mobile_space[0]
        for _ in range(samples):
            configs.append(
                Configuration.uniform(population, value, leader_state())
            )
    else:
        # Arbitrary initialization: adversarial all-same plus random states.
        configs.append(
            Configuration.uniform(population, mobile_space[0], leader_state())
        )
        for _ in range(samples - 1):
            mobiles = tuple(
                rng.choice(mobile_space)
                for _ in range(population.n_mobile)
            )
            configs.append(
                Configuration.from_states(population, mobiles, leader_state())
            )
    return configs


def _schedulers_for(
    spec: ModelSpec,
    population: Population,
    protocol: PopulationProtocol,
    seed: int,
) -> list[Scheduler]:
    if spec.fairness is Fairness.WEAK:
        return [
            RoundRobinScheduler(population, seed=seed),
            HomonymPreservingScheduler(population, protocol, seed=seed),
        ]
    return [RandomPairScheduler(population, seed=seed)]


def _simulation_sizes(spec: ModelSpec, bound: int) -> list[int]:
    """Population sizes to simulate for a feasible cell.

    Proposition 13's protocol requires ``N > 2``; Protocol 3's ``N = P``
    sweep is only *practically* simulable for small ``P`` (its cost under
    the randomized scheduler grows super-exponentially - the paper makes
    no time claims), larger bounds are covered by the exact checker.
    """
    sizes = sorted({2, 3, max(2, bound // 2), bound})
    sizes = [n for n in sizes if n <= bound]
    uses_prop13 = (
        spec.symmetry is Symmetry.SYMMETRIC
        and spec.fairness is Fairness.GLOBAL
        and spec.leader is not LeaderKind.INITIALIZED
    )
    if uses_prop13:
        sizes = [n for n in sizes if n > 2]
    uses_protocol3 = (
        spec.symmetry is Symmetry.SYMMETRIC
        and spec.fairness is Fairness.GLOBAL
        and spec.leader is LeaderKind.INITIALIZED
    )
    if uses_protocol3 and bound > 3:
        sizes = [n for n in sizes if n < bound]
    return sizes


def _check_sizes(spec: ModelSpec) -> list[int]:
    """Population sizes of the exact check: ``N`` in {2, 3}, or {3} for
    Proposition 13, whose protocol requires ``N > 2``."""
    if (
        spec.symmetry is Symmetry.SYMMETRIC
        and spec.fairness is Fairness.GLOBAL
        and spec.leader is not LeaderKind.INITIALIZED
    ):
        return [3]
    return [2, 3]


def _check_roots(spec: ModelSpec, protocol: PopulationProtocol) -> dict:
    """The cell's initial configurations as root keywords of the
    symbolic checkers: uniform or arbitrary mobile states, and an
    initialized leader in its designated state (else any state)."""
    return {
        "mobile_mode": (
            "uniform"
            if spec.mobile_init is MobileInit.UNIFORM
            else "arbitrary"
        ),
        "leader_states": (
            [protocol.initial_leader_state()]
            if spec.leader is LeaderKind.INITIALIZED
            else None
        ),
    }


def _exact_check(spec: ModelSpec, evidence: list[str]) -> bool:
    """Exact model checking of the cell at the small bound ``_CHECK_BOUND``.

    Agents are anonymous, so the counts quotient is exact: weak-fairness
    cells are decided by :func:`~repro.analysis.symbolic.check_liveness`,
    global ones by :func:`~repro.analysis.symbolic.check_sinks`.
    """
    bound = _CHECK_BOUND
    protocol = protocol_for(spec, bound)
    check = check_liveness if spec.fairness is Fairness.WEAK else check_sinks
    roots = _check_roots(spec, protocol)
    for n in _check_sizes(spec):
        verdict = check(protocol, n, **roots)
        if not verdict.holds:
            evidence.append(
                f"exact {spec.fairness.value} check FAILED at "
                f"P={bound}, N={n}: {verdict.reason}"
            )
            return False
        evidence.append(
            f"exact {spec.fairness.value} check passed at P={bound}, N={n} "
            f"({verdict.explored} count vectors)"
        )
    return True


def _feasible_cell(
    spec: ModelSpec,
    bound: int,
    seed: int,
    budget: int,
    samples: int,
    backend: str = "reference",
) -> Table1Row:
    expected = table1_cell(spec)
    evidence: list[str] = []
    protocol = protocol_for(spec, bound)
    states = protocol.num_mobile_states
    expected_states = expected.optimal_states(bound)
    states_match = states == expected_states
    evidence.append(
        f"registry protocol '{protocol.display_name}' uses {states} mobile "
        f"states (paper: {expected_states})"
    )

    mobile_space, leader_space = _start_spaces(protocol, spec)
    all_converged = True
    for n in _simulation_sizes(spec, bound):
        population = Population(n, protocol.requires_leader)
        for scheduler in _schedulers_for(spec, population, protocol, seed):
            for initial in _random_initials(
                protocol,
                population,
                spec,
                seed,
                samples,
                mobile_space,
                leader_space,
            ):
                simulator = make_simulator(
                    backend, protocol, population, scheduler, NamingProblem()
                )
                scheduler.reset()
                result = simulator.run(initial, max_interactions=budget)
                if not result.converged:
                    all_converged = False
                    evidence.append(
                        f"NO convergence: N={n}, "
                        f"{scheduler.display_name}, start "
                        f"{initial.mobile_states}"
                    )
    if all_converged:
        evidence.append(
            "all simulations reached certified naming "
            f"(sizes {_simulation_sizes(spec, bound)})"
        )

    exact_ok = _exact_check(spec, evidence)
    feasible = all_converged and exact_ok
    return Table1Row(
        spec=spec,
        expected=expected,
        measured_feasible=feasible,
        measured_states=states,
        match=feasible and states_match,
        evidence=evidence,
    )


def _infeasible_cell(
    spec: ModelSpec,
    bound: int,
    seed: int,
    budget: int,
    thorough: bool,
    backend: str = "reference",
) -> Table1Row:
    expected = table1_cell(spec)
    evidence: list[str] = []

    # Proposition 1's adversary versus a concrete symmetric protocol: the
    # matching scheduler keeps an even, uniformly started population fully
    # symmetric forever (we run it for the whole budget; the fast engine
    # skips the run's repeating cycles exactly).
    even_n = bound if bound % 2 == 0 else bound + 1
    protocol = SymmetricGlobalNamingProtocol(even_n)
    population = Population(even_n)
    scheduler = MatchingScheduler(population, seed=seed)
    initial = Configuration.uniform(population, 1)
    simulator = make_simulator(
        backend, protocol, population, scheduler, NamingProblem()
    )
    # Symmetry holds at phase boundaries (a phase is even_n // 2 disjoint
    # meetings applied one after another), so stop exactly on one.
    phase_length = even_n // 2
    rounded_budget = max(phase_length, budget - budget % phase_length)
    result = simulator.run(initial, max_interactions=rounded_budget)
    symmetric_forever = (
        not result.converged
        and len(set(result.final_configuration.mobile_states)) == 1
    )
    evidence.append(
        "Prop. 1 adversary kept a uniformly started symmetric population "
        f"perfectly symmetric for {result.interactions} interactions: "
        f"{symmetric_forever}"
    )

    refuted_all = True
    if thorough:
        outcome = search(
            symmetric_leaderless_protocols(2),
            sizes=[2],
            fairness=Fairness.WEAK,
            mobile_init=spec.mobile_init,
        )
        refuted_all = not outcome.any_solves
        evidence.append(
            f"exhaustive search: {outcome.total} two-state symmetric "
            f"leaderless protocols, {len(outcome.solving)} solve naming"
        )

    infeasible = symmetric_forever and refuted_all
    return Table1Row(
        spec=spec,
        expected=expected,
        measured_feasible=not infeasible,
        measured_states=None,
        match=infeasible,
        evidence=evidence,
    )


def run_table1(
    bound: int = 5,
    seed: int = 2018,
    budget: int = 400_000,
    samples: int = 3,
    thorough: bool = False,
    backend: str = "reference",
) -> list[Table1Row]:
    """Regenerate every cell of Table 1.

    Parameters
    ----------
    bound:
        The bound ``P`` used for the simulated instances.
    budget:
        Interaction budget per simulation.
    samples:
        Initial configurations sampled per (size, scheduler).
    thorough:
        Also run the exhaustive 2-state refutation for the impossible cell.
    backend:
        Simulation backend (any key of
        :data:`repro.engine.fast.BACKENDS`; the ensemble engines
        ``"batch"``/``"bleap"`` serve each run as a width-1 batch);
        verdicts are identical either way, the array/counts engines
        regenerate the table quicker.
    """
    rows: list[Table1Row] = []
    for spec in all_specs():
        if table1_cell(spec).feasible:
            rows.append(
                _feasible_cell(spec, bound, seed, budget, samples, backend)
            )
        else:
            rows.append(
                _infeasible_cell(
                    spec, bound, seed, budget, thorough, backend
                )
            )
    return rows


def render_rows(rows: list[Table1Row], bound: int) -> str:
    """Render regenerated rows next to the paper's claims."""
    table_rows = []
    for row in rows:
        expected_states = (
            row.expected.optimal_states(bound)
            if row.expected.feasible
            else "-"
        )
        table_rows.append(
            (
                row.spec.symmetry.value,
                row.spec.fairness.value,
                row.spec.leader.value,
                row.spec.mobile_init.value,
                "yes" if row.expected.feasible else "no",
                expected_states,
                "yes" if row.measured_feasible else "no",
                row.measured_states if row.measured_states is not None else "-",
                check_mark(row.match),
            )
        )
    return render_table(
        (
            "rules",
            "fairness",
            "leader",
            "mobile init",
            "paper feasible",
            "paper states",
            "measured feasible",
            "measured states",
            "verdict",
        ),
        table_rows,
        title=f"Table 1 regeneration (P = {bound})",
    )


def name_bound(text: str) -> int:
    """Argparse type of ``--bound``: at least 2, so that every simulated
    population has two agents to schedule."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    """Regenerate Table 1 from the command line."""
    parser = argparse.ArgumentParser(
        description="Regenerate Table 1 of the paper."
    )
    parser.add_argument(
        "--bound", type=name_bound, default=5, help="the bound P (at least 2)"
    )
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument(
        "--budget", type=int, default=400_000, help="interactions per run"
    )
    parser.add_argument(
        "--thorough",
        action="store_true",
        help="add the exhaustive 2-state refutation of the impossible cell",
    )
    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="reference",
        help="simulation engine (verdicts identical either way)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the regenerated rows as JSON",
    )
    args = parser.parse_args(argv)
    rows = run_table1(
        bound=args.bound,
        seed=args.seed,
        budget=args.budget,
        thorough=args.thorough,
        backend=args.backend,
    )
    print(render_rows(rows, args.bound))
    if args.json:
        from repro.reporting.jsonio import dump

        dump(rows, args.json)
        print(f"\nJSON written to {args.json}")
    mismatches = [row for row in rows if not row.match]
    if mismatches:
        print(f"\n{len(mismatches)} MISMATCHES:")
        for row in mismatches:
            print(f"* {row.spec.describe()}")
            for item in row.evidence:
                print(f"    - {item}")
        return 1
    print(f"\nall {len(rows)} cells match the paper")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
