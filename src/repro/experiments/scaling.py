"""Experiment ``exp-s5``: exact-verification scaling (plus, with
``--simulate``, a large-N simulation-backend sweep).

How far does each verification technique reach?  This experiment measures
explored state-space sizes and wall-clock time for the labelled checker,
the symbolic sink check on the counts quotient
(:func:`repro.analysis.symbolic.check_sinks`) and the weak-fairness
checker across instance sizes, on the paper's protocols.  It quantifies
the reproduction's verification story: the quotient abstraction buys
roughly ``N!`` and pushes exact verification past everything simulation
can certify (most strikingly Protocol 3 at ``N = P = 5``).

The ``--simulate`` mode asks the complementary question - how far does
*simulation* reach?  It sweeps the asymmetric naming dynamics
(Proposition 12) up to ten billion agents on the fast, count-based,
leap and fluid backends, measuring interactions/second at each size.
The fast backend's rate is size-independent but it stops being
practical to *hold* the population beyond ~10^5 agents; the counts
backend keeps O(states) memory and a size-independent rate to
N = 10^6; the approximate leap backend aggregates whole windows of
interactions per multinomial draw and completes the full ``10 N``
naming horizon to N = 10^8, where the O(N) agent-vector edges (initial
tuple, state-tally interning) become *its* wall; the mean-field fluid
backend runs counts-native (never building an agent vector at all) and
alone finishes the full horizon at N = 10^9-10^10.  (The sweep times
single runs; for many-replicate workloads at these sizes the batched
tau-leaping ensemble engine ``bleap`` applies the same windowing to a
whole replicate matrix at once - benchmarked by ``repro bench``.)

``python -m repro.experiments.scaling`` prints the table.  Points are
independent, so ``--jobs K`` fans them out over worker processes;
``--backend`` restricts the sweep to one backend's cells.
"""

from __future__ import annotations

import argparse
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.analysis.model_checker import check_naming_global
from repro.analysis.reachability import arbitrary_initial_configurations
from repro.analysis.symbolic import check_sinks
from repro.analysis.weak_fairness import check_naming_weak
from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.global_naming import GlobalNamingProtocol
from repro.core.selfstab_naming import SelfStabilizingNamingProtocol
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.fast import make_simulator
from repro.engine.population import Population
from repro.engine.problems import NamingProblem
from repro.experiments.report import render_table, worker_count
from repro.schedulers.random_pair import RandomPairScheduler


@dataclass(frozen=True)
class ScalePoint:
    """One (protocol, size, technique) measurement."""

    protocol: str
    n_mobile: int
    bound: int
    technique: str
    nodes: int
    seconds: float
    solves: bool


def _point_specs(max_quotient_n: int) -> list[tuple[str, int, str]]:
    """The (protocol label, N, technique) cells of the default study.

    Plain tuples so that ``run_scaling(n_jobs > 1)`` can pickle them to
    worker processes; :func:`_run_point` rebuilds the heavyweight objects
    on the worker side.
    """
    specs: list[tuple[str, int, str]] = []

    # Proposition 13's protocol: labelled vs quotient, N = P.
    for n in range(3, max_quotient_n + 1):
        if n <= 4:  # labelled blow-up: (n+1)^n nodes
            specs.append(("Prop. 13", n, "global (labelled)"))
        specs.append(("Prop. 13", n, "global (quotient)"))

    # Protocol 3: the N = P case nobody can simulate.
    for n in range(2, min(max_quotient_n, 5) + 1):
        if n <= 4:
            specs.append(("Protocol 3", n, "global (labelled)"))
        specs.append(("Protocol 3", n, "global (quotient)"))

    # Protocol 2 under the weak checker (self-stabilizing: full space).
    for n in (2, 3):
        specs.append(("Protocol 2", n, "weak (labelled)"))
    return specs


def _run_point(spec: tuple[str, int, str]) -> ScalePoint:
    """Build and time one (protocol, size, technique) measurement.

    Module-level so process pools can pickle it.
    """
    label, n, technique = spec
    if label == "Prop. 13":
        protocol = SymmetricGlobalNamingProtocol(n)
        population = Population(n)
        leaders = None
    elif label == "Protocol 3":
        protocol = GlobalNamingProtocol(n)
        population = Population(n, has_leader=True)
        leaders = [protocol.initial_leader_state()]
    else:
        protocol = SelfStabilizingNamingProtocol(n)
        population = Population(n, has_leader=True)
        leaders = None

    start = time.perf_counter()
    if technique == "global (quotient)":
        symbolic = check_sinks(
            protocol, n, mobile_mode="arbitrary", leader_states=leaders
        )
        nodes, solves = symbolic.explored, symbolic.holds
    else:
        check = (
            check_naming_global
            if technique == "global (labelled)"
            else check_naming_weak
        )
        verdict = check(
            protocol,
            population,
            arbitrary_initial_configurations(protocol, population, leaders),
        )
        nodes, solves = verdict.explored_nodes, verdict.solves
    return ScalePoint(
        protocol=label,
        n_mobile=n,
        bound=n,
        technique=technique,
        nodes=nodes,
        seconds=time.perf_counter() - start,
        solves=solves,
    )


@dataclass(frozen=True)
class SimulationScalePoint:
    """One (backend, N) simulation-throughput measurement."""

    backend: str
    n_mobile: int
    interactions: int
    non_null_interactions: int
    seconds: float

    @property
    def rate(self) -> float:
        """Interactions per second."""
        return self.interactions / self.seconds if self.seconds else 0.0


#: Population sizes of the default ``--simulate`` sweep.  Sizes
#: 10^7-10^8 are served by the windowed leap and fluid backends;
#: 10^9-10^10 by the counts-native fluid backend alone - no agent
#: vector of that size can even be built.
SIMULATION_SIZES = (
    10**3, 10**4, 10**5, 10**6, 10**7, 10**8, 10**9, 10**10,
)

#: Largest population the fast (per-agent) backend is swept to; above
#: this only the count-based backends run.
FAST_MAX_N = 10**5

#: Largest population the exact counts backend is swept to; above this
#: only the windowed backends run (their per-window cost is independent
#: of both N and the interaction budget).
COUNTS_MAX_N = 10**6

#: Largest population the leap backend is swept to.  Its windows are
#: size-independent, but its run contract still builds, interns and
#: materializes O(N) agent vectors - affordable to 10^8, not beyond.
LEAP_MAX_N = 10**8

#: Smallest population the fluid backend is swept at; below this the
#: mean-field fast-forward degenerates to the leap cell it would wrap.
FLUID_MIN_N = 10**6

#: Interaction budget per cell: the standard ``10 N`` horizon, capped
#: for the exact (per-interaction-cost) backends so large-N cells stay
#: affordable.  The leap backend takes the full uncapped horizon - that
#: is the point of the demonstration.
EXACT_BUDGET_CAP = 2_000_000

#: Name bound of the swept asymmetric naming dynamics; with N far above
#: it the workload never converges, so every budgeted interaction is
#: measured.
SIMULATION_BOUND = 8


def _run_simulation_point(
    spec: tuple[str, int, int],
) -> SimulationScalePoint:
    """Time one (backend, N) sweep cell.  Module-level for pickling."""
    backend, n, seed = spec
    protocol = AsymmetricNamingProtocol(SIMULATION_BOUND)
    population = Population(n)
    scheduler = RandomPairScheduler(population, seed=seed)
    simulator = make_simulator(
        backend, protocol, population, scheduler, NamingProblem()
    )
    space = sorted(protocol.mobile_state_space())
    if backend == "fluid":
        # Counts-native: the same spread start as the other cells, as a
        # {state: count} tally - at N = 10^9-10^10 an agent tuple could
        # not be built at all.
        base, extra = divmod(n, len(space))
        counts = {
            state: base + (1 if i < extra else 0)
            for i, state in enumerate(space)
        }
        start = time.perf_counter()
        result = simulator.run_counts(counts, max_interactions=10 * n)
        return SimulationScalePoint(
            backend=backend,
            n_mobile=n,
            interactions=result.interactions,
            non_null_interactions=result.non_null_interactions,
            seconds=time.perf_counter() - start,
        )
    # Tuple concatenation builds the spread initial at C speed; the
    # genexpr equivalent costs ~10 s alone at N = 10^8.
    initial = Configuration(
        tuple(space) * (n // len(space)) + tuple(space[: n % len(space)]),
        None,
    )
    budget = 10 * n if backend == "leap" else min(10 * n, EXACT_BUDGET_CAP)
    start = time.perf_counter()
    result = simulator.run(initial, max_interactions=budget)
    return SimulationScalePoint(
        backend=backend,
        n_mobile=n,
        interactions=result.interactions,
        non_null_interactions=result.non_null_interactions,
        seconds=time.perf_counter() - start,
    )


def run_simulation_scaling(
    max_n: int = 10**6,
    seed: int = 2018,
    n_jobs: int = 1,
    backends: tuple[str, ...] = ("fast", "counts", "leap", "fluid"),
) -> list[SimulationScalePoint]:
    """Sweep the naming dynamics across backends and population sizes.

    The fast backend runs up to :data:`FAST_MAX_N`, the exact counts
    backend up to :data:`COUNTS_MAX_N`, the leap backend up to
    :data:`LEAP_MAX_N`, and the counts-native fluid backend from
    :data:`FLUID_MIN_N` to every size up to ``max_n`` (it alone reaches
    N = 10^9-10^10).  ``backends`` restricts the sweep (the
    ``--backend`` CLI flag).
    """
    specs = [
        (backend, n, seed)
        for n in SIMULATION_SIZES
        if n <= max_n
        for backend in backends
        if (backend == "fluid" and n >= FLUID_MIN_N)
        or (backend == "leap" and n <= LEAP_MAX_N)
        or (backend == "counts" and n <= COUNTS_MAX_N)
        or (backend == "fast" and n <= FAST_MAX_N)
    ]
    if n_jobs > 1 and len(specs) > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            return list(pool.map(_run_simulation_point, specs))
    return [_run_simulation_point(spec) for spec in specs]


def render_simulation_points(points: list[SimulationScalePoint]) -> str:
    """Render the simulation sweep as an aligned text table."""
    rows = [
        (
            p.n_mobile,
            p.backend,
            p.interactions,
            p.non_null_interactions,
            f"{p.seconds * 1000:.0f} ms",
            f"{p.rate:,.0f}/s",
        )
        for p in points
    ]
    return render_table(
        ("N", "backend", "interactions", "non-null", "time", "rate"),
        rows,
        title=(
            "simulation scaling: asymmetric naming dynamics "
            f"(P = {SIMULATION_BOUND}, uniform random scheduler)"
        ),
    )


def run_scaling(
    max_quotient_n: int = 6, n_jobs: int = 1
) -> list[ScalePoint]:
    """The default scaling study; ``n_jobs > 1`` measures points in
    parallel worker processes (per-point timings are unaffected)."""
    specs = _point_specs(max_quotient_n)
    if n_jobs > 1 and len(specs) > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            return list(pool.map(_run_point, specs))
    return [_run_point(spec) for spec in specs]


def render_points(points: list[ScalePoint]) -> str:
    """Render the scaling measurements as an aligned text table."""
    rows = [
        (
            p.protocol,
            p.n_mobile,
            p.technique,
            p.nodes,
            f"{p.seconds * 1000:.0f} ms",
            "solves" if p.solves else "FAILS",
        )
        for p in points
    ]
    return render_table(
        ("protocol", "N = P", "technique", "explored", "time", "verdict"),
        rows,
        title="exact-verification scaling (exp-s5)",
    )


def main(argv: list[str] | None = None) -> int:
    """Run exp-s5 from the command line."""
    parser = argparse.ArgumentParser(
        description="Exact-verification scaling measurements."
    )
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument(
        "--jobs",
        type=worker_count,
        default=1,
        help="worker processes for independent points",
    )
    parser.add_argument(
        "--simulate",
        action="store_true",
        help=(
            "run the large-N simulation-backend sweep instead of the "
            "exact-verification study (--max-n is the largest population)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=2018, help="--simulate scheduler seed"
    )
    parser.add_argument(
        "--backend",
        choices=("fast", "counts", "leap", "fluid"),
        default=None,
        help="restrict the --simulate sweep to one backend's cells",
    )
    args = parser.parse_args(argv)
    if args.simulate:
        max_n = args.max_n if args.max_n > 6 else 10**10
        backends = (
            (args.backend,)
            if args.backend
            else ("fast", "counts", "leap", "fluid")
        )
        sim_points = run_simulation_scaling(
            max_n=max_n, seed=args.seed, n_jobs=args.jobs,
            backends=backends,
        )
        print(render_simulation_points(sim_points))
        return 0
    points = run_scaling(max_quotient_n=args.max_n, n_jobs=args.jobs)
    print(render_points(points))
    return 0 if all(p.solves for p in points) else 1


if __name__ == "__main__":
    raise SystemExit(main())
