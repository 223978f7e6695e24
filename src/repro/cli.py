"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``        regenerate the paper's Table 1 (the headline experiment)
``convergence``   supplementary exp-s1: convergence cost vs population size
``recovery``      supplementary exp-s2: self-stabilizing fault recovery
``ablation``      supplementary exp-s4: scheduler ablation matrix
``lower-bounds``  supplementary exp-s3: exhaustive lower-bound verification
``bench``         engine and serving throughput benchmark: one table of
                  cells in seven sections (per-run backends, ensembles,
                  leap, bleap, fluid, parallel, serve) and the CI gates
``lint``          static well-formedness audit of all registered protocols
``check``         symbolic model checker: verify naming properties on the
                  counts quotient, with replay-validated counterexamples
``simulate``      run one naming protocol chosen by model parameters
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.core.registry import protocol_for
from repro.core.spec import (
    Fairness,
    LeaderKind,
    MobileInit,
    ModelSpec,
    Symmetry,
    table1_cell,
)
from repro.engine.configuration import Configuration
from repro.engine.population import Population
from repro.engine.problems import NamingProblem
from repro.engine.protocol import PopulationProtocol
from repro.engine.simulator import abbreviate_states
from repro.engine.fast import BACKENDS, make_simulator
from repro.engine.trace import Trace
from repro.errors import (
    InfeasibleSpecError,
    ProtocolError,
    SchedulerError,
    SimulationError,
)
from repro.schedulers.random_pair import RandomPairScheduler
from repro.schedulers.round_robin import RoundRobinScheduler

#: The commands that run their module's own argparse ``main(argv)``, in
#: ``repro --help`` order: command -> module, imported on dispatch only.
_DELEGATED: dict[str, str] = {
    "table1": "repro.experiments.table1",
    "convergence": "repro.experiments.convergence",
    "recovery": "repro.experiments.recovery",
    "ablation": "repro.experiments.ablation",
    "lower-bounds": "repro.experiments.lower_bounds",
    "scaling": "repro.experiments.scaling",
    "time-study": "repro.experiments.time_study",
    "tradeoffs": "repro.experiments.tradeoffs",
    "report": "repro.experiments.full_report",
    "exact-times": "repro.experiments.exact_times",
    "bench": "repro.experiments.bench",
    "lint": "repro.lint.cli",
    "check": "repro.analysis.check",
}

#: The four model flags of ``show``, ``simulate`` and ``check``, in
#: ``ModelSpec`` field order: flag -> (choice -> value, default).
_MODEL_FLAGS: dict[str, tuple[dict, str]] = {
    "fairness": ({f.value: f for f in Fairness}, "global"),
    "symmetry": ({s.value: s for s in Symmetry}, "symmetric"),
    "leader": (
        {
            "none": LeaderKind.NONE,
            "non-initialized": LeaderKind.NON_INITIALIZED,
            "initialized": LeaderKind.INITIALIZED,
        },
        "none",
    ),
    "init": ({i.value: i for i in MobileInit}, "arbitrary"),
}


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    """Declare ``--fairness``, ``--symmetry``, ``--leader`` and ``--init``."""
    for flag, (choices, default) in _MODEL_FLAGS.items():
        parser.add_argument(
            f"--{flag}", choices=sorted(choices), default=default
        )


def _model(
    args: argparse.Namespace,
) -> tuple[ModelSpec, PopulationProtocol] | None:
    """The spec the model flags name and its protocol at ``args.bound``.

    Prints why and returns ``None`` when the model is infeasible or the
    protocol rejects the bound; the commands then exit with status 2.
    """
    spec = ModelSpec(
        *(
            choices[getattr(args, flag)]
            for flag, (choices, _) in _MODEL_FLAGS.items()
        )
    )
    try:
        return spec, protocol_for(spec, args.bound)
    except InfeasibleSpecError as exc:
        print(f"infeasible model: {exc}")
    except ProtocolError as exc:
        print(f"invalid bound: {exc}")
    return None


def population_size(text: str) -> int:
    """Argparse type of ``-N``: a mobile population of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.reporting.rules import render_rules

    model = _model(args)
    if model is None:
        return 2
    spec, protocol = model
    cell = table1_cell(spec)
    print(f"model : {spec.describe()}")
    print(f"paper : {cell.protocol_ref}, optimal "
          f"{cell.optimal_states(args.bound)} states")
    print()
    print(render_rules(protocol, max_rules=args.max_rules))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import random

    model = _model(args)
    if model is None:
        return 2
    spec, protocol = model
    cell = table1_cell(spec)
    population = Population(args.n, protocol.requires_leader)
    try:
        if spec.fairness is Fairness.WEAK:
            scheduler = RoundRobinScheduler(
                population, seed=args.seed, shuffle_each_cycle=True
            )
        else:
            scheduler = RandomPairScheduler(population, seed=args.seed)
    except SchedulerError as exc:
        print(f"invalid population: {exc}")
        return 2

    rng = random.Random(args.seed)
    mobile_space = sorted(protocol.mobile_state_space())
    mobiles = None  # None: a uniform start
    if spec.mobile_init is not MobileInit.UNIFORM:
        mobiles = [rng.choice(mobile_space) for _ in range(args.n)]
    leader = None
    if population.has_leader:
        if spec.leader is LeaderKind.INITIALIZED:
            leader = protocol.initial_leader_state()
        else:
            leader = rng.choice(
                sorted(protocol.leader_state_space(), key=repr)
            )
    if mobiles is None:
        # A uniform start carries its state tally, so interning it
        # never hashes the N identical states.
        value = protocol.initial_mobile_state()
        initial = Configuration.uniform(
            population, mobile_space[0] if value is None else value, leader
        )
    else:
        initial = Configuration.from_states(population, mobiles, leader)

    trace = Trace(capacity=args.trace) if args.trace else None
    try:
        simulator = make_simulator(
            args.backend,
            protocol,
            population,
            scheduler,
            NamingProblem(),
            leap_eps=args.leap_eps,
        )
    except SimulationError as exc:
        print(f"invalid --leap-eps: {exc}")
        return 2
    result = simulator.run(
        initial, max_interactions=args.budget, trace=trace
    )

    print(f"model     : {spec.describe()}")
    print(f"protocol  : {protocol.display_name} ({cell.protocol_ref})")
    print(
        f"states    : {protocol.num_mobile_states} per mobile agent "
        f"(paper optimum: {cell.optimal_states(args.bound)})"
    )
    print(f"population: N = {args.n}, P = {args.bound}")
    print(f"start     : {abbreviate_states(initial)}")
    print(f"result    : {result}")
    if args.verbose and result.stats is not None:
        print(f"perf      : {result.stats} [{args.backend} backend]")
    if trace is not None:
        print()
        print(trace.describe(limit=args.trace))
    return 0 if result.converged else 1


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (``python -m repro``)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Space-Optimal Naming in Population "
            "Protocols' (Burman, Beauquier, Sohier; PODC 2018)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command in _DELEGATED:
        sub.add_parser(command, add_help=False)

    show = sub.add_parser(
        "show", help="print a protocol's transition rules by model"
    )
    _add_model_flags(show)
    show.add_argument("--bound", "-P", type=int, default=4)
    show.add_argument("--max-rules", type=int, default=60)

    simulate = sub.add_parser(
        "simulate", help="run one naming protocol by model parameters"
    )
    _add_model_flags(simulate)
    simulate.add_argument("--bound", "-P", type=int, default=8)
    simulate.add_argument("--n", "-N", type=population_size, default=6)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--budget", type=int, default=2_000_000)
    simulate.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="reference",
        help=(
            "simulation engine: fast is stream-identical to reference; "
            "counts is count-based and statistically equivalent; leap "
            "aggregates many interactions per step (approximate, "
            "tunable via --leap-eps); bleap is the batched tau-leaping "
            "ensemble engine (a single run is a width-1 batch); fluid "
            "fast-forwards the mean-field ODE and hands the endgame to "
            "leap (large populations)"
        ),
    )
    simulate.add_argument(
        "--leap-eps",
        type=float,
        default=None,
        metavar="EPS",
        help=(
            "leap, bleap and fluid backends only: relative-change bound "
            "of the adaptive tau selection, which fluid also applies to "
            "its ODE steps (smaller = more accurate, slower; default 0.03)"
        ),
    )
    simulate.add_argument(
        "--trace",
        type=int,
        default=0,
        metavar="K",
        help="print the last K non-null interactions",
    )
    simulate.add_argument(
        "--verbose",
        "-v",
        action="store_true",
        help="also print run performance stats (wall time, rate, nulls)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: dispatch to experiments or the simulate/show
    commands; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _DELEGATED:
        module = importlib.import_module(_DELEGATED[argv[0]])
        return module.main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "show":
        return _cmd_show(args)
    return _cmd_simulate(args)


if __name__ == "__main__":
    raise SystemExit(main())
