"""Tests for the batched tau-leaping ensemble backend
(:mod:`repro.engine.bleap`).

The bleap engine fuses the lockstep batch kernel with per-row adaptive
tau-leaping, so the tests pin both inherited contracts: seed identity
(a replicate's result is a function of its seed alone, independent of
batch width and process chunking - the batch engine's contract) and
approximate distribution-equivalence under KS-style bounds in both
regimes (the leap engine's contract): against the per-run leap backend
in the leap-friendly large-N regime, and against the exact batch
backend in the SSA-fallback regimes (small N, near-silence).  The
structured ``bleap -> batch`` fallback and its pickling across
``n_jobs > 1`` process boundaries are covered at the end.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
import warnings

import numpy as np
import pytest

from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.leader_uniform import (
    CounterLeaderState,
    LeaderUniformNamingProtocol,
)
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine import bleap
from repro.engine import sanitize as _sanitize
from repro.engine.batch import COL
from repro.engine.bleap import BatchedLeapSimulator
from repro.engine.configuration import Configuration
from repro.engine.ensemble import run_ensemble
from repro.engine.fast import make_simulator
from repro.engine.leap import DEFAULT_LEAP_EPS, DEFAULT_MIN_TAU, EXACT_BURST
from repro.engine.population import Population
from repro.engine.problems import NamingProblem
from repro.errors import (
    BackendFallbackWarning,
    ConvergenceError,
    SanitizerError,
    SimulationError,
)
from repro.schedulers.random_pair import RandomPairScheduler
from repro.schedulers.round_robin import RoundRobinScheduler
from tests.engine.ks import ks_bound, ks_statistic
from tests.oracles import oracle_lockstep_row


def build(n, bound=8, seed=0, problem=True, **kwargs):
    """A bleap simulator for the asymmetric naming protocol."""
    protocol = AsymmetricNamingProtocol(bound)
    population = Population(n)
    scheduler = RandomPairScheduler(population, seed=seed)
    simulator = BatchedLeapSimulator(
        protocol,
        population,
        scheduler,
        NamingProblem() if problem else None,
        **kwargs,
    )
    return protocol, population, simulator


def uniform_initial(population, state=0):
    return Configuration.uniform(population, state)


def spread_initial(protocol, population):
    """States dealt round-robin: stationary null/non-null mix."""
    space = sorted(protocol.mobile_state_space())
    n = population.size
    states = tuple(space) * (n // len(space)) + tuple(space[: n % len(space)])
    return Configuration(states, None)


def result_key(result):
    """Everything but wall-clock stats (which legitimately vary)."""
    return (
        result.converged,
        result.convergence_interaction,
        result.interactions,
        result.non_null_interactions,
        result.final_configuration,
    )


# Module-level (picklable) factories for the process-parallel tests.
def _scheduler_factory(population, seed):
    return RandomPairScheduler(population, seed=seed)


def _initial_factory(population, seed):
    return Configuration.uniform(population, 0)


def _round_robin_factory(population, seed):
    return RoundRobinScheduler(population, seed=seed)


# One duplicate pair in an otherwise-distinct configuration: a single
# event away from silence, the sparse endgame where bleap's adaptive
# tau collapses and rows drop to exact SSA.
def _near_silent_initial(population, seed):
    n = population.size
    states = tuple(range(n - 1)) + (n - 2,)
    return Configuration(states, None)


class TestConstruction:
    def test_make_simulator_builds_bleap_backend(self):
        protocol = AsymmetricNamingProtocol(4)
        population = Population(5)
        scheduler = RandomPairScheduler(population, seed=0)
        simulator = make_simulator(
            "bleap", protocol, population, scheduler, NamingProblem()
        )
        assert isinstance(simulator, BatchedLeapSimulator)
        assert simulator.compiled
        assert simulator.leap_eps == DEFAULT_LEAP_EPS
        assert simulator.min_tau == DEFAULT_MIN_TAU

    def test_make_simulator_forwards_leap_eps(self):
        protocol = AsymmetricNamingProtocol(4)
        population = Population(5)
        scheduler = RandomPairScheduler(population, seed=0)
        simulator = make_simulator(
            "bleap",
            protocol,
            population,
            scheduler,
            NamingProblem(),
            leap_eps=0.01,
        )
        assert simulator.leap_eps == 0.01

    def test_invalid_knobs_rejected(self):
        with pytest.raises(SimulationError, match="leap_eps"):
            build(5, leap_eps=1.5)
        with pytest.raises(SimulationError, match="min_tau"):
            build(5, min_tau=0)

    def test_wrong_population_size_rejected(self):
        _, _, simulator = build(5)
        with pytest.raises(SimulationError, match="agents"):
            simulator.run(uniform_initial(Population(4)))

    def test_mismatched_replicate_lists_rejected(self):
        _, population, simulator = build(5)
        with pytest.raises(SimulationError, match="schedulers"):
            simulator.run_replicates(
                [uniform_initial(population)],
                [],
            )


class TestSingleRun:
    def test_small_population_converges_exactly(self):
        """At N = 6 every window collapses: the run is served by the
        exact SSA path and must produce a valid naming."""
        _, population, simulator = build(6, seed=3)
        result = simulator.run(
            uniform_initial(population), max_interactions=200_000
        )
        assert simulator.last_run_native
        assert result.converged
        names = result.names()
        assert len(set(names)) == len(names)
        stats = result.stats
        assert stats.leaps == 0
        assert stats.ssa_fallback_rows == 1

    def test_large_population_engages_multinomial_path(self):
        """At N = 20,000 under a mid-flight budget the multinomial
        window path must carry the run (``stats.leaps > 0``)."""
        protocol, population, simulator = build(20_000)
        result = simulator.run(
            spread_initial(protocol, population), max_interactions=100_000
        )
        assert simulator.last_run_native
        assert result.interactions == 100_000
        stats = result.stats
        assert stats.leaps > 0
        assert stats.mean_tau > 0
        assert stats.ssa_fallback_rows in (0, 1)

    def test_raise_on_timeout(self):
        protocol, population, simulator = build(20_000)
        with pytest.raises(ConvergenceError):
            simulator.run(
                spread_initial(protocol, population),
                max_interactions=1_000,
                raise_on_timeout=True,
            )


class TestSeedIdentity:
    """A replicate's result is a function of its seed alone."""

    def test_batch_width_cannot_change_results(self):
        protocol, population, simulator = build(1_000)
        initial = spread_initial(protocol, population)
        schedulers = [
            RandomPairScheduler(population, seed=s) for s in range(10)
        ]
        whole = simulator.run_replicates(
            [initial] * 10, schedulers, max_interactions=50_000
        )
        halves = simulator.run_replicates(
            [initial] * 5, schedulers[:5], max_interactions=50_000
        ) + simulator.run_replicates(
            [initial] * 5, schedulers[5:], max_interactions=50_000
        )
        assert [result_key(r) for r in whole] == [
            result_key(r) for r in halves
        ]

    def test_single_run_matches_batch_row(self):
        protocol, population, simulator = build(1_000, seed=7)
        initial = spread_initial(protocol, population)
        single = simulator.run(initial, max_interactions=50_000)
        row = simulator.run_replicates(
            [initial],
            [RandomPairScheduler(population, seed=7)],
            max_interactions=50_000,
        )[0]
        assert result_key(single) == result_key(row)

    def test_serial_matches_parallel_chunking(self):
        """``n_jobs`` chunking cannot change any result."""
        protocol = AsymmetricNamingProtocol(8)
        population = Population(1_000)
        seeds = list(range(9))
        runs = {}
        for n_jobs in (1, 3):
            ensemble = run_ensemble(
                protocol,
                population,
                _scheduler_factory,
                _initial_factory,
                NamingProblem(),
                seeds=seeds,
                max_interactions=50_000,
                backend="bleap",
                n_jobs=n_jobs,
            )
            assert ensemble.seeds == seeds
            runs[n_jobs] = [result_key(r) for r in ensemble.results]
        assert runs[1] == runs[3]


def _oracle_kernel(
    C, start, generators, plan, deltas, size, budget, cap=None, **_
):
    """:func:`repro.engine.batch.lockstep_ssa` one row at a time, on the
    scalar oracle."""
    pos = np.array(start, dtype=np.int64)
    events = np.zeros(len(C), dtype=np.int64)
    for r in range(len(C)):
        pos[r], events[r] = oracle_lockstep_row(
            C[r], int(pos[r]), generators[r], plan, deltas, size, budget, cap
        )
    return pos, events


#: name -> (protocol, mobile agents, start state, leader state, budget,
#: seeds, sanitize, what the case must exercise).
BURST_CASES = {
    "prop12-P8-N1e5-uniform": (
        AsymmetricNamingProtocol(8), 100_000, 0, None, 1_000_000,
        range(3), False, "leap-and-ssa",
    ),
    "prop12-P256-N200": (
        AsymmetricNamingProtocol(256), 200, 0, None, 40_000,
        range(2), False, "ssa-only",
    ),
    "prop13-P64-N1e4": (
        SymmetricGlobalNamingProtocol(64), 10_000, 0, None, 100_000,
        range(2), False, "leap-and-ssa",
    ),
    "prop14-P16-leader": (
        LeaderUniformNamingProtocol(16), 16, 16, CounterLeaderState(1),
        100_000, range(6), False, "silent-mid-burst",
    ),
    "prop12-P8-N1e4-sanitize": (
        AsymmetricNamingProtocol(8), 10_000, 0, None, 100_000,
        range(2), True, "leap-and-ssa",
    ),
    "budget-mid-burst": (
        AsymmetricNamingProtocol(8), 1_000, 0, None, 3_333,
        range(4), False, "budget-mid-burst",
    ),
    "silent-mid-burst": (
        AsymmetricNamingProtocol(8), 8, 0, None, 100_000,
        range(4), False, "silent-mid-burst",
    ),
}


def _burst_raw(name, seeds=None):
    """Run one :data:`BURST_CASES` case natively, on its own seeds or on
    ``seeds``; returns (raw, simulator)."""
    protocol, n, start, leader, budget, case_seeds, sanitize, _ = (
        BURST_CASES[name]
    )
    seeds = case_seeds if seeds is None else seeds
    population = Population(n, has_leader=leader is not None)
    simulator = BatchedLeapSimulator(
        protocol,
        population,
        RandomPairScheduler(population, seed=0),
        NamingProblem(),
        sanitize=sanitize,
    )
    initial = Configuration.uniform(population, start, leader)
    admitted, reason = simulator._intern_rows([initial] * len(seeds))
    assert reason is None, reason
    rows, leaders = admitted
    return simulator._raw(rows, leaders, list(seeds), budget), simulator


class TestExactBurst:
    """Bursts run on the batch engine's lockstep kernel, yet every row
    draws exactly what the scalar oracle draws: every count and scalar
    of every row must match, on Prop. 12, 13 and 14 plans, sanitized,
    and on bursts cut short by the budget or by silence."""

    @pytest.mark.parametrize("name", list(BURST_CASES))
    def test_matches_reference_burst(self, name, monkeypatch):
        outcomes = []
        kernel = bleap.lockstep_ssa

        def spy(C, start, generators, plan, deltas, size, budget, **kw):
            assert kw["cap"] == EXACT_BURST
            pos, events = kernel(
                C, start, generators, plan, deltas, size, budget, **kw
            )
            weight = (C[:, plan.pair_i] * (C[:, plan.pair_j] - plan.diag)).sum(
                axis=1
            )
            outcomes.extend(
                zip(events.tolist(), (pos == budget).tolist(), weight == 0)
            )
            return pos, events

        monkeypatch.setattr(bleap, "lockstep_ssa", spy)
        raw, simulator = _burst_raw(name)
        monkeypatch.setattr(bleap, "lockstep_ssa", _oracle_kernel)
        reference, _ = _burst_raw(name)
        assert np.array_equal(raw.counts, reference.counts)
        assert np.array_equal(raw.scalars, reference.scalars)

        assert outcomes, "no row reached the exact-SSA burst"
        cut = [o for o in outcomes if 0 < o[0] < EXACT_BURST]
        expect = BURST_CASES[name][-1]
        leaps = raw.scalars[:, COL["leaps"]]
        if expect == "leap-and-ssa":
            assert leaps.any() and raw.scalars[:, COL["ssa_rows"]].any()
        elif expect == "ssa-only":
            assert not leaps.any()
        elif expect == "budget-mid-burst":
            assert any(at_budget and not silent for _, at_budget, silent in cut)
        elif expect == "silent-mid-burst":
            assert any(silent for _, _, silent in cut)
            assert (raw.scalars[:, COL["conv_at"]] >= 0).all()

    def test_kernel_matches_scalar_oracle_from_staggered_starts(self):
        """The kernel itself, uncapped and capped, against the oracle:
        rows start at different positions, some are or fall silent, and
        the budget cuts the runs of others."""
        simulator = build(8)[2]
        plan, deltas = simulator._plan, simulator._leap.deltas
        rng = np.random.default_rng(0)
        rows = [rng.multinomial(8, [1 / 8] * 8) for _ in range(14)]
        rows += [np.ones(8, dtype=np.int64), [2, 0, 1, 1, 1, 1, 1, 1]]
        block = np.array(rows, dtype=np.int64)
        start = rng.integers(0, 300, len(block))
        for cap, budget in ((None, 400), (8, 400), (3, 320)):
            runs = []
            for kernel in (bleap.lockstep_ssa, _oracle_kernel):
                C = block.copy()
                generators = [
                    np.random.default_rng(s) for s in range(len(block))
                ]
                pos, events = kernel(
                    C, start, generators, plan, deltas, 8, budget, cap=cap
                )
                runs.append((C, pos, events, [g.random() for g in generators]))
            (C, pos, events, draws), (C_o, pos_o, events_o, draws_o) = runs
            assert np.array_equal(C, C_o)
            assert pos.tolist() == pos_o.tolist()
            assert events.tolist() == events_o.tolist()
            # Equal next draws: both consumed as many uniforms per row.
            assert draws == draws_o
            assert (pos == budget).any() and (pos < budget).any()
            assert pos[-2] == start[-2]  # the all-distinct row is silent
            assert (events > 0).any()
            if cap is not None:
                assert events.max() == cap

    def test_sanitizer_error_inside_a_burst_names_bleap(self, monkeypatch):
        """A count corrupted by a burst's own event trips the kernel's
        next step check, which reports the bleap backend."""
        kernel = bleap.lockstep_ssa

        def leaky(C, start, generators, plan, deltas, *args, **kw):
            bad = deltas.copy()
            bad[:, 0] += 1  # every event adds an agent
            return kernel(C, start, generators, plan, bad, *args, **kw)

        monkeypatch.setattr(bleap, "lockstep_ssa", leaky)
        _, population, simulator = build(8, sanitize=True)
        with pytest.raises(SanitizerError) as excinfo:
            simulator.run(uniform_initial(population))
        assert excinfo.value.backend == "bleap"
        assert excinfo.value.invariant == "population-size"
        assert "lockstep_ssa" in [e.name for e in excinfo.traceback]


class TestBurstGrouping:
    """Which rows burst together cannot change any row's result."""

    @pytest.mark.parametrize(
        "name",
        ["prop12-P8-N1e5-uniform", "prop12-P256-N200", "prop14-P16-leader"],
    )
    def test_rows_bursting_alone_equal_rows_bursting_together(
        self, name, monkeypatch
    ):
        widths = []
        kernel = bleap.lockstep_ssa

        def spy(C, *args, **kw):
            widths.append(len(C))
            return kernel(C, *args, **kw)

        monkeypatch.setattr(bleap, "lockstep_ssa", spy)
        together, _ = _burst_raw(name)
        assert max(widths) > 1, "no two rows burst together"
        seeds = BURST_CASES[name][5]
        widths.clear()
        for r, seed in enumerate(seeds):
            alone, _ = _burst_raw(name, seeds=[seed])
            assert np.array_equal(alone.counts[0], together.counts[r])
            assert np.array_equal(alone.scalars[0], together.scalars[r])
        assert set(widths) == {1}


class TestStatisticalEquivalence:
    def test_convergence_times_match_batch_in_exact_regime(self):
        """KS check against the exact batch engine at N = 8, where
        every bleap row is served by the SSA fallback."""
        protocol = AsymmetricNamingProtocol(8)
        population = Population(8)
        seeds = range(40)
        samples = {}
        for backend in ("batch", "bleap"):
            ensemble = run_ensemble(
                protocol,
                population,
                _scheduler_factory,
                _initial_factory,
                NamingProblem(),
                seeds=seeds,
                max_interactions=200_000,
                backend=backend,
            )
            assert ensemble.convergence_rate == 1.0
            samples[backend] = [
                r.convergence_interaction for r in ensemble.results
            ]
        d_stat = ks_statistic(samples["batch"], samples["bleap"])
        bound = ks_bound(len(samples["batch"]), len(samples["bleap"]))
        assert d_stat < bound, (
            f"KS statistic {d_stat:.3f} exceeds bound {bound:.3f}"
        )

    def test_convergence_times_match_batch_near_silence(self):
        """KS check in the sparse endgame: one duplicate pair in an
        otherwise-distinct configuration, where the expected event rate
        is ~2/N^2 and bleap must drop to exact SSA stepping."""
        protocol = AsymmetricNamingProtocol(256)
        population = Population(200)
        seeds = range(30)
        samples = {}
        ssa_rows = 0
        for backend in ("batch", "bleap"):
            ensemble = run_ensemble(
                protocol,
                population,
                _scheduler_factory,
                _near_silent_initial,
                NamingProblem(),
                seeds=seeds,
                max_interactions=400_000,
                backend=backend,
            )
            assert ensemble.convergence_rate == 1.0
            if backend == "bleap":
                ssa_rows = ensemble.stats.ssa_fallback_rows
            samples[backend] = [
                r.convergence_interaction for r in ensemble.results
            ]
        assert ssa_rows > 0, "the exact-SSA fallback never engaged"
        d_stat = ks_statistic(samples["batch"], samples["bleap"])
        bound = ks_bound(len(samples["batch"]), len(samples["bleap"]))
        assert d_stat < bound, (
            f"KS statistic {d_stat:.3f} exceeds bound {bound:.3f}"
        )

    def test_final_configuration_statistic_matches_leap(self):
        """KS check against the per-run leap backend in the leaping
        regime: at N = 20,000 under a mid-flight budget both engines
        run on the multinomial path, and the distribution of the lowest
        state's final count must agree within the KS bound."""
        n = 20_000
        budget = 5 * n
        seeds = range(30)
        protocol = AsymmetricNamingProtocol(8)
        lowest = sorted(protocol.mobile_state_space())[0]
        samples = {"leap": [], "bleap": []}
        leaps_taken = 0
        population = Population(n)
        initial = spread_initial(protocol, population)
        for seed in seeds:
            scheduler = RandomPairScheduler(population, seed=seed)
            simulator = make_simulator(
                "leap", protocol, population, scheduler, NamingProblem()
            )
            result = simulator.run(initial, max_interactions=budget)
            samples["leap"].append(
                sum(1 for s in result.names() if s == lowest)
            )
        _, _, simulator = build(n)
        results = simulator.run_replicates(
            [initial] * len(seeds),
            [RandomPairScheduler(population, seed=s) for s in seeds],
            max_interactions=budget,
        )
        for result in results:
            leaps_taken += result.stats.leaps
            samples["bleap"].append(
                sum(1 for s in result.names() if s == lowest)
            )
        assert leaps_taken > 0, "the multinomial path never engaged"
        d_stat = ks_statistic(samples["leap"], samples["bleap"])
        bound = ks_bound(len(samples["leap"]), len(samples["bleap"]))
        assert d_stat < bound, (
            f"KS statistic {d_stat:.3f} exceeds bound {bound:.3f}"
        )

    def test_final_configuration_statistic_matches_batch(self):
        """KS check against the exact batch engine in the leaping
        regime - the cross-engine counterpart of the leap comparison
        above, so the approximation is pinned to an exact lockstep
        reference too."""
        n = 20_000
        budget = 5 * n
        seeds = range(30)
        protocol = AsymmetricNamingProtocol(8)
        lowest = sorted(protocol.mobile_state_space())[0]
        population = Population(n)
        initial = spread_initial(protocol, population)
        samples = {}
        for backend in ("batch", "bleap"):
            simulator = make_simulator(
                backend,
                protocol,
                population,
                RandomPairScheduler(population, seed=0),
                NamingProblem(),
            )
            results = simulator.run_replicates(
                [initial] * len(seeds),
                [RandomPairScheduler(population, seed=s) for s in seeds],
                max_interactions=budget,
            )
            samples[backend] = [
                sum(1 for s in r.names() if s == lowest) for r in results
            ]
        d_stat = ks_statistic(samples["batch"], samples["bleap"])
        bound = ks_bound(len(samples["batch"]), len(samples["bleap"]))
        assert d_stat < bound, (
            f"KS statistic {d_stat:.3f} exceeds bound {bound:.3f}"
        )


class TestFallback:
    def test_non_uniform_scheduler_falls_back_structured(self):
        """A non-uniform scheduler trips the shared lockstep
        preconditions: bleap warns with structured attributes and
        delegates to batch, which cascades down the ladder."""
        protocol = AsymmetricNamingProtocol(8)
        population = Population(6)
        scheduler = RoundRobinScheduler(population, seed=0)
        simulator = BatchedLeapSimulator(
            protocol, population, scheduler, NamingProblem()
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = simulator.run(
                uniform_initial(population), max_interactions=100_000
            )
        assert not simulator.last_run_native
        assert result.converged
        fallbacks = [
            w.message
            for w in caught
            if isinstance(w.message, BackendFallbackWarning)
        ]
        assert fallbacks, "no fallback warning was emitted"
        first = fallbacks[0]
        assert first.backend == "bleap"
        assert first.delegate == "batch"
        assert "uniform-random" in first.reason
        # The delegate applies its own preconditions and continues down
        # the ladder with its own structured warning.
        assert any(w.backend == "batch" for w in fallbacks[1:])

    def test_fault_hook_falls_back(self):
        _, population, simulator = build(6)
        with pytest.warns(BackendFallbackWarning):
            result = simulator.run(
                uniform_initial(population),
                max_interactions=100_000,
                fault_hook=lambda interaction, config: None,
            )
        assert not simulator.last_run_native
        assert result.converged


class TestWarningAcrossProcesses:
    def test_warning_pickle_round_trip(self):
        original = BackendFallbackWarning(
            "bleap backend falling back to the batch simulator: reason",
            backend="bleap",
            delegate="batch",
            reason="reason",
        )
        clone = pickle.loads(pickle.dumps(original))
        assert isinstance(clone, BackendFallbackWarning)
        assert clone.args == original.args
        assert clone.backend == "bleap"
        assert clone.delegate == "batch"
        assert clone.reason == "reason"

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers must inherit the parent's warning filters",
    )
    def test_escalated_fallback_crosses_process_boundary(self):
        """``simplefilter("error")`` composed with ``n_jobs > 1``: the
        fallback warning raised inside a worker must reach the parent
        with its structured attributes intact (exercising
        ``BackendFallbackWarning.__reduce__``)."""
        protocol = AsymmetricNamingProtocol(8)
        population = Population(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", BackendFallbackWarning)
            with pytest.raises(BackendFallbackWarning) as excinfo:
                run_ensemble(
                    protocol,
                    population,
                    _round_robin_factory,
                    _initial_factory,
                    NamingProblem(),
                    seeds=range(4),
                    max_interactions=10_000,
                    backend="bleap",
                    n_jobs=2,
                )
        assert excinfo.value.backend == "bleap"
        assert excinfo.value.delegate == "batch"
        assert "uniform-random" in excinfo.value.reason


class TestSanitize:
    def test_sanitized_run_is_bit_identical(self):
        protocol = AsymmetricNamingProtocol(8)
        population = Population(1_000)
        initial = spread_initial(protocol, population)
        results = []
        for sanitize in (False, True):
            _, _, simulator = build(1_000, seed=5, sanitize=sanitize)
            results.append(
                simulator.run(initial, max_interactions=50_000)
            )
        assert result_key(results[0]) == result_key(results[1])

    def test_sanitizer_checks_run_with_bleap_backend_name(
        self, monkeypatch
    ):
        seen = []
        original = _sanitize.check_counts_rows

        def spy(backend, rows, row_ids, expected_total, step):
            seen.append(backend)
            return original(backend, rows, row_ids, expected_total, step)

        monkeypatch.setattr(_sanitize, "check_counts_rows", spy)
        protocol, population, simulator = build(1_000, sanitize=True)
        simulator.run(
            spread_initial(protocol, population), max_interactions=50_000
        )
        assert seen and set(seen) == {"bleap"}

    def test_injected_corruption_is_caught(self, monkeypatch):
        """A corrupted counts matrix must raise a structured
        SanitizerError at the next window refresh."""
        protocol, population, simulator = build(1_000, sanitize=True)

        calls = {"n": 0}
        original = _sanitize.check_counts_rows

        def corrupt(backend, rows, row_ids, expected_total, step):
            original(backend, rows, row_ids, expected_total, step)
            if calls["n"] == 0 and rows.size:
                # Simulate a kernel corrupting a count between two
                # refreshes: the next check must trip.
                rows[0, 0] += 1
                calls["n"] += 1
                original(backend, rows, row_ids, expected_total, step)

        monkeypatch.setattr(_sanitize, "check_counts_rows", corrupt)
        with pytest.raises(SanitizerError) as excinfo:
            simulator.run(
                spread_initial(protocol, population),
                max_interactions=50_000,
            )
        assert excinfo.value.backend == "bleap"
        assert excinfo.value.invariant == "population-size"
