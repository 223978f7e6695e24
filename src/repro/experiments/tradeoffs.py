"""Experiment ``exp-s7``: the space / assumptions / cost trade-off table.

Table 1 answers "how many states"; this synthesis experiment joins it
with the measured costs into the one table a systems reader asks for:
for a fixed bound ``P``, what does each protocol require (fairness,
leader, initialization), what does it pay in states, how fast does it
converge, and how expensive is recovery from a full collapse?

``python -m repro.experiments.tradeoffs`` prints the table.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.analysis.stats import Summary
from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.global_naming import GlobalNamingProtocol
from repro.core.leader_uniform import LeaderUniformNamingProtocol
from repro.core.selfstab_naming import SelfStabilizingNamingProtocol
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.fast import BACKENDS
from repro.engine.population import Population
from repro.engine.protocol import PopulationProtocol
from repro.experiments.convergence import measure
from repro.experiments.recovery import measure_recovery
from repro.experiments.report import render_table, worker_count
from repro.faults.injection import corrupt_all_mobile_to


@dataclass(frozen=True)
class TradeoffRow:
    """One protocol's full profile at a fixed bound."""

    protocol: str
    reference: str
    states: int
    rules: str
    fairness: str
    leader: str
    initialization: str
    convergence: Summary
    recovery: Summary | None


def _profile(
    protocol: PopulationProtocol,
    reference: str,
    fairness: str,
    leader: str,
    initialization: str,
    n_mobile: int,
    bound: int,
    runs: int,
    budget: int,
    uniform_start: bool,
    self_stabilizing: bool,
    backend: str = "batch",
    n_jobs: int = 1,
) -> TradeoffRow:
    convergence = measure(
        protocol,
        n_mobile,
        bound,
        seeds=range(runs),
        budget=budget,
        uniform=uniform_start,
        backend=backend,
        n_jobs=n_jobs,
    )
    recovery = None
    if self_stabilizing:
        population = Population(n_mobile, protocol.requires_leader)
        collapse_state = sorted(protocol.mobile_state_space())[0]
        recovery = measure_recovery(
            protocol,
            population,
            corrupt_all_mobile_to(population, collapse_state),
            "full collapse",
            seeds=range(runs),
            budget=budget,
        ).summary
    return TradeoffRow(
        protocol=protocol.display_name,
        reference=reference,
        states=protocol.num_mobile_states,
        rules="asymmetric" if not protocol.symmetric else "symmetric",
        fairness=fairness,
        leader=leader,
        initialization=initialization,
        convergence=convergence.summary,
        recovery=recovery,
    )


def run_tradeoffs(
    bound: int = 8,
    n_mobile: int = 6,
    runs: int = 12,
    budget: int = 5_000_000,
    backend: str = "batch",
    n_jobs: int = 1,
) -> list[TradeoffRow]:
    """Profile every positive protocol at one bound."""
    return [
        _profile(
            AsymmetricNamingProtocol(bound),
            "Prop. 12",
            "weak",
            "none",
            "none (self-stab.)",
            n_mobile,
            bound,
            runs,
            budget,
            uniform_start=False,
            self_stabilizing=True,
            backend=backend,
            n_jobs=n_jobs,
        ),
        _profile(
            SymmetricGlobalNamingProtocol(bound),
            "Prop. 13",
            "global",
            "none",
            "none (self-stab., N > 2)",
            n_mobile,
            bound,
            runs,
            budget,
            uniform_start=False,
            self_stabilizing=True,
            backend=backend,
            n_jobs=n_jobs,
        ),
        _profile(
            LeaderUniformNamingProtocol(bound),
            "Prop. 14",
            "weak",
            "initialized",
            "uniform",
            n_mobile,
            bound,
            runs,
            budget,
            uniform_start=True,
            self_stabilizing=False,
            backend=backend,
            n_jobs=n_jobs,
        ),
        _profile(
            SelfStabilizingNamingProtocol(bound),
            "Prop. 16",
            "weak",
            "present (any state)",
            "none (self-stab.)",
            n_mobile,
            bound,
            runs,
            budget,
            uniform_start=False,
            self_stabilizing=True,
            backend=backend,
            n_jobs=n_jobs,
        ),
        _profile(
            GlobalNamingProtocol(bound),
            "Prop. 17",
            "global (for N = P)",
            "initialized",
            "mobiles arbitrary",
            n_mobile,
            bound,
            runs,
            budget,
            uniform_start=False,
            self_stabilizing=False,
            backend=backend,
            n_jobs=n_jobs,
        ),
    ]


def render_rows(rows: list[TradeoffRow], bound: int) -> str:
    """Render the trade-off profiles as an aligned text table."""
    table = [
        (
            row.reference,
            row.states,
            row.rules,
            row.fairness,
            row.leader,
            row.initialization,
            f"{row.convergence.mean:.0f}",
            f"{row.recovery.mean:.0f}" if row.recovery else "n/a",
        )
        for row in rows
    ]
    return render_table(
        (
            "protocol",
            "states",
            "rules",
            "fairness",
            "leader",
            "init",
            "convergence",
            "recovery",
        ),
        table,
        title=f"space / assumptions / cost trade-offs (P = {bound}, exp-s7)",
    )


def main(argv: list[str] | None = None) -> int:
    """Run exp-s7 from the command line."""
    parser = argparse.ArgumentParser(
        description="The space/assumptions/cost trade-off synthesis."
    )
    parser.add_argument("--bound", type=int, default=8)
    parser.add_argument("--n", type=int, default=6, dest="n_mobile")
    parser.add_argument("--runs", type=int, default=12)
    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="batch",
        help="simulation engine for the convergence columns",
    )
    parser.add_argument(
        "--jobs",
        type=worker_count,
        default=1,
        help="worker processes for per-seed runs",
    )
    args = parser.parse_args(argv)
    rows = run_tradeoffs(
        args.bound, args.n_mobile, args.runs,
        backend=args.backend, n_jobs=args.jobs,
    )
    print(render_rows(rows, args.bound))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
