"""Experiment ``exp-s6``: empirical time-complexity of the protocols.

The paper's conclusion names "the study of the time complexity aspects of
naming" as future work.  This experiment takes the first empirical step:
it measures interactions-to-convergence across population sizes under the
randomized scheduler and fits power laws ``cost ~ a * N^b`` (ordinary
least squares on log-log points), reporting the growth exponent per
protocol.  For Protocol 3's ``N = P`` sweep it instead reports the
measured blow-up against the ``P^P``-flavoured prediction of the sweep
analysis.

Exponents are environment-noisy; the experiment asserts only coarse,
stable facts (positive growth; the self-stabilizing protocols grow at
least as fast as the initialized one).

``python -m repro.experiments.time_study`` prints the fits.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass

from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.global_naming import GlobalNamingProtocol
from repro.core.leader_uniform import LeaderUniformNamingProtocol
from repro.core.selfstab_naming import SelfStabilizingNamingProtocol
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.fast import BACKENDS
from repro.engine.protocol import PopulationProtocol
from repro.errors import VerificationError
from repro.experiments.convergence import measure
from repro.experiments.report import render_table, worker_count


@dataclass(frozen=True)
class PowerLawFit:
    """``cost ~ coefficient * N^exponent`` fitted on log-log means."""

    protocol: str
    sizes: tuple[int, ...]
    means: tuple[float, ...]
    exponent: float
    coefficient: float
    r_squared: float


def fit_power_law(
    sizes: list[int], means: list[float], label: str
) -> PowerLawFit:
    """Least-squares fit of ``log(mean) = b log(N) + log(a)``."""
    if len(sizes) != len(means) or len(sizes) < 2:
        raise VerificationError("need at least two (size, mean) points")
    if any(m <= 0 for m in means):
        raise VerificationError("means must be positive to take logs")
    xs = [math.log(n) for n in sizes]
    ys = [math.log(m) for m in means]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        raise VerificationError("degenerate fit: all sizes equal")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)
    )
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(
        protocol=label,
        sizes=tuple(sizes),
        means=tuple(means),
        exponent=slope,
        coefficient=math.exp(intercept),
        r_squared=r_squared,
    )


def measure_series(
    protocol: PopulationProtocol,
    sizes: list[int],
    bound: int,
    runs: int,
    budget: int,
    uniform: bool = False,
    backend: str = "batch",
    n_jobs: int = 1,
) -> PowerLawFit:
    """Measure a size series and fit its power law."""
    means = []
    kept_sizes = []
    for n in sizes:
        point = measure(
            protocol, n, bound, seeds=range(runs), budget=budget,
            uniform=uniform, backend=backend, n_jobs=n_jobs,
        )
        if point.summary.mean > 0:
            kept_sizes.append(n)
            means.append(point.summary.mean)
    return fit_power_law(kept_sizes, means, protocol.display_name)


def run_time_study(
    bound: int = 10,
    runs: int = 20,
    budget: int = 10_000_000,
    backend: str = "batch",
    n_jobs: int = 1,
) -> list[PowerLawFit]:
    """Fit growth exponents for every positive protocol (N < P regimes
    where applicable)."""
    sizes = list(range(3, bound + 1))
    series = [
        (AsymmetricNamingProtocol(bound), sizes, False),
        (SymmetricGlobalNamingProtocol(bound), sizes, False),
        (LeaderUniformNamingProtocol(bound), sizes, True),
        (SelfStabilizingNamingProtocol(bound), sizes, False),
        (GlobalNamingProtocol(bound), [n for n in sizes if n < bound], False),
    ]
    return [
        measure_series(
            protocol, series_sizes, bound, runs, budget,
            uniform=uniform, backend=backend, n_jobs=n_jobs,
        )
        for protocol, series_sizes, uniform in series
    ]


def protocol3_blowup(
    max_bound: int = 4,
    runs: int = 10,
    budget: int = 30_000_000,
    backend: str = "batch",
    n_jobs: int = 1,
) -> list[tuple[int, float]]:
    """Measured N = P sweep cost for Protocol 3 at tiny bounds: the
    super-exponential wall in numbers."""
    points = []
    for bound in range(2, max_bound + 1):
        point = measure(
            GlobalNamingProtocol(bound),
            bound,
            bound,
            seeds=range(runs),
            budget=budget,
            backend=backend,
            n_jobs=n_jobs,
        )
        points.append((bound, point.summary.mean))
    return points


def render_fits(fits: list[PowerLawFit]) -> str:
    """Render the power-law fits as an aligned text table."""
    rows = [
        (
            f.protocol,
            f"N in {f.sizes[0]}..{f.sizes[-1]}",
            f"{f.exponent:.2f}",
            f"{f.coefficient:.2f}",
            f"{f.r_squared:.3f}",
        )
        for f in fits
    ]
    return render_table(
        ("protocol", "range", "exponent b", "coefficient a", "R^2"),
        rows,
        title="power-law fits: interactions ~ a * N^b (exp-s6)",
    )


def main(argv: list[str] | None = None) -> int:
    """Run exp-s6 from the command line."""
    parser = argparse.ArgumentParser(
        description="Empirical time-complexity study (the paper's stated "
        "future work)."
    )
    parser.add_argument("--bound", type=int, default=10)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument(
        "--blowup",
        action="store_true",
        help="also measure Protocol 3's N = P sweep cost (slow)",
    )
    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="batch",
        help="simulation engine (batch runs all seeds in lockstep)",
    )
    parser.add_argument(
        "--jobs",
        type=worker_count,
        default=1,
        help="worker processes for per-seed runs",
    )
    args = parser.parse_args(argv)
    fits = run_time_study(
        bound=args.bound, runs=args.runs, backend=args.backend,
        n_jobs=args.jobs,
    )
    print(render_fits(fits))
    if args.blowup:
        print()
        print("Protocol 3, N = P sweep (mean interactions):")
        for bound, mean in protocol3_blowup(
            backend=args.backend, n_jobs=args.jobs
        ):
            print(f"  P = {bound}: {mean:,.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
