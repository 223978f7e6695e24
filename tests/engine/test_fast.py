"""Differential tests: the fast backend versus the reference simulator.

The tentpole guarantee of :mod:`repro.engine.fast` is bit-identity: for
any protocol, seed and budget the two backends must return *equal*
``SimulationResult`` dataclasses (converged flag, interaction counts,
convergence interaction, final configuration - everything).  These tests
enforce that over fixed protocol suites, Hypothesis-generated random
table protocols, traces, observers and parallel ensembles.
"""

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.counting import CountingProtocol
from repro.core.global_naming import GlobalNamingProtocol
from repro.core.selfstab_naming import (
    SelfStabilizingNamingProtocol,
    SelfStabLeaderState,
)
from repro.core.symmetric_global import SymmetricGlobalNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.counts import CountSimulator
from repro.engine.ensemble import run_ensemble
from repro.engine.fast import (
    BACKENDS,
    LRU,
    TABLE_CACHE_SIZE,
    FastSimulator,
    LazyTransitionTable,
    compile_table,
    make_simulator,
    table_fingerprint,
)
from repro.engine.population import Population
from repro.engine.problems import NamingProblem
from repro.engine.protocol import TableProtocol
from repro.engine.simulator import Simulator
from repro.engine.trace import Trace
from repro.errors import BackendFallbackWarning, SimulationError
from repro.schedulers.adversarial import (
    FixedSequenceScheduler,
    HomonymPreservingScheduler,
)
from repro.schedulers.base import Scheduler
from repro.schedulers.matching import MatchingScheduler
from repro.schedulers.random_pair import RandomPairScheduler
from repro.schedulers.round_robin import (
    InterleavedRoundRobinScheduler,
    RoundRobinScheduler,
)
from tests.oracles import OracleLRU


def _initial_for(protocol, population, seed, uniform=False):
    rng = random.Random(seed)
    mobile_space = sorted(protocol.mobile_state_space())
    leader = (
        protocol.initial_leader_state() if population.has_leader else None
    )
    if uniform:
        value = protocol.initial_mobile_state()
        if value is None:
            value = mobile_space[0]
        return Configuration.uniform(population, value, leader)
    mobiles = tuple(
        rng.choice(mobile_space) for _ in range(population.n_mobile)
    )
    return Configuration.from_states(population, mobiles, leader)


def run_both(protocol, n, seed, budget=30_000, uniform=False, problem=...):
    """Run both backends on the same (protocol, N, seed); return results."""
    if problem is ...:
        problem = NamingProblem()
    results = {}
    for backend in ("reference", "fast"):
        population = Population(n, protocol.requires_leader)
        scheduler = RandomPairScheduler(population, seed=seed)
        simulator = make_simulator(
            backend, protocol, population, scheduler, problem
        )
        initial = _initial_for(protocol, population, seed, uniform)
        results[backend] = simulator.run(initial, max_interactions=budget)
    return results["reference"], results["fast"]


class TestDifferentialFixedProtocols:
    @pytest.mark.parametrize("seed", range(8))
    def test_leaderless_asymmetric(self, seed):
        ref, fast = run_both(AsymmetricNamingProtocol(5), 5, seed)
        assert ref == fast

    @pytest.mark.parametrize("seed", range(4))
    def test_leaderless_symmetric(self, seed):
        ref, fast = run_both(SymmetricGlobalNamingProtocol(4), 4, seed)
        assert ref == fast

    @pytest.mark.parametrize("seed", range(4))
    def test_leader_protocol(self, seed):
        ref, fast = run_both(GlobalNamingProtocol(4), 3, seed)
        assert ref == fast

    @pytest.mark.parametrize("seed", range(4))
    def test_self_stabilizing_leader_protocol(self, seed):
        ref, fast = run_both(SelfStabilizingNamingProtocol(4), 4, seed)
        assert ref == fast

    @pytest.mark.parametrize("seed", range(3))
    def test_large_population_batched_sampler(self, seed):
        # N > 21 exercises the inlined getrandbits rejection sampler.
        ref, fast = run_both(
            AsymmetricNamingProtocol(30), 30, seed, budget=50_000
        )
        assert ref == fast

    def test_no_problem_runs_whole_budget(self):
        ref, fast = run_both(
            AsymmetricNamingProtocol(5), 5, seed=3, budget=2_000, problem=None
        )
        assert ref == fast
        assert ref.interactions == 2_000

    def test_generic_problem_subclass_matches(self):
        # A NamingProblem *subclass* must not take the specialized O(1)
        # predicate path; the generic path must still be bit-identical.
        class StrictNaming(NamingProblem):
            """Identity subclass; forces the generic check path."""

        ref, fast = run_both(
            AsymmetricNamingProtocol(5), 5, seed=1, problem=StrictNaming()
        )
        assert ref == fast
        assert ref.converged


def _table_protocols(draw):
    k = draw(st.integers(min_value=2, max_value=4))
    states = list(range(k))
    table = {}
    for p in states:
        for q in states:
            if draw(st.booleans()):
                p2 = draw(st.sampled_from(states))
                q2 = draw(st.sampled_from(states))
                table[(p, q)] = (p2, q2)
    return TableProtocol(table, states)


class TestDifferentialRandomProtocols:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_table_protocols_agree(self, data):
        protocol = _table_protocols(data.draw)
        n = data.draw(st.integers(min_value=2, max_value=12))
        seed = data.draw(st.integers(min_value=0, max_value=2**16))
        ref, fast = run_both(protocol, n, seed, budget=2_000)
        assert ref == fast


class TestDifferentialInstrumentation:
    def test_traces_identical(self):
        protocol = AsymmetricNamingProtocol(5)
        traces = {}
        results = {}
        for backend in ("reference", "fast"):
            population = Population(5)
            scheduler = RandomPairScheduler(population, seed=7)
            simulator = make_simulator(
                backend, protocol, population, scheduler, NamingProblem()
            )
            trace = Trace(capacity=None)
            results[backend] = simulator.run(
                Configuration.uniform(population, 0),
                max_interactions=5_000,
                trace=trace,
            )
            traces[backend] = trace
        assert traces["fast"].records == traces["reference"].records
        # Results minus the trace objects themselves must match too.
        results["fast"].trace = results["reference"].trace = None
        assert results["fast"] == results["reference"]

    def test_observers_see_identical_streams(self):
        protocol = AsymmetricNamingProtocol(5)
        seen = {}
        for backend in ("reference", "fast"):
            population = Population(5)
            scheduler = RandomPairScheduler(population, seed=11)
            simulator = make_simulator(
                backend, protocol, population, scheduler, NamingProblem()
            )
            events = []
            simulator.run(
                Configuration.uniform(population, 0),
                max_interactions=5_000,
                observer=lambda i, c: events.append((i, c)),
            )
            seen[backend] = events
        assert seen["fast"] == seen["reference"]


class TestBatchSamplingStreamIdentity:
    @pytest.mark.parametrize("n", [2, 5, 21, 22, 64, 100])
    def test_next_pairs_matches_next_pair_stream(self, n):
        population = Population(n)
        a = RandomPairScheduler(population, seed=13)
        b = RandomPairScheduler(population, seed=13)
        scalar = [a.next_pair(None) for _ in range(500)]
        batched = b.next_pairs(None, 500)
        assert scalar == batched

    @pytest.mark.parametrize("has_leader", [False, True])
    @pytest.mark.parametrize("n", [*range(2, 23), 40])
    def test_interleaved_batches_continue_the_stream(self, n, has_leader):
        # Every size up to one past random.sample's pool-swap cutoff
        # (21 agents), so each inlined branch is pinned to the stdlib on
        # whichever Python runs the suite.
        population = Population(n, has_leader)
        a = RandomPairScheduler(population, seed=29 + n)
        b = RandomPairScheduler(population, seed=29 + n)
        scalar = [a.next_pair(None) for _ in range(320)]
        batched = (
            b.next_pairs(None, 150)
            + [b.next_pair(None)]
            + b.next_pairs(None, 169)
        )
        assert scalar == batched
        assert a._rng.getstate() == b._rng.getstate()

    def test_default_next_pairs_delegates_to_next_pair(self):
        class Fixed(Scheduler):
            """Deterministic two-agent scheduler for the base-class hook."""

            def next_pair(self, config):
                return (0, 1)

        scheduler = Fixed(Population(2))
        assert scheduler.next_pairs(None, 3) == [(0, 1)] * 3


def _run_pair(protocol, population, initial, seed, budget, problem):
    """Run ``reference`` and ``fast`` from ``initial``.

    Returns both results and the fast simulator.
    """
    results = {}
    for backend in ("reference", "fast"):
        scheduler = RandomPairScheduler(population, seed=seed)
        simulator = make_simulator(
            backend, protocol, population, scheduler, problem
        )
        results[backend] = simulator.run(initial, max_interactions=budget)
    return results["reference"], results["fast"], simulator


#: The leader protocols whose declared leader space exceeds the compile
#: limit at P = 9 (Protocol 1, and Protocols 2 and 3 of Props. 16/17).
LAZY_PROTOCOLS = (
    CountingProtocol(9),
    SelfStabilizingNamingProtocol(9),
    GlobalNamingProtocol(9),
)


class TestLazyLeaderRows:
    """Leader protocols over the compile limit run on lazy tables."""

    @pytest.mark.parametrize(
        "protocol", LAZY_PROTOCOLS, ids=lambda p: type(p).__name__
    )
    def test_no_eager_table_or_fingerprint(self, protocol):
        assert compile_table(protocol) is None
        assert table_fingerprint(protocol) is None

    @pytest.mark.parametrize(
        "protocol", LAZY_PROTOCOLS, ids=lambda p: type(p).__name__
    )
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_size_below_the_bound_matches_reference(self, protocol, n):
        for seed in range(3):
            population = Population(n, has_leader=True)
            initial = _initial_for(protocol, population, seed)
            ref, fast, simulator = _run_pair(
                protocol, population, initial, seed, 200_000, NamingProblem()
            )
            assert simulator.last_run_fast
            assert isinstance(simulator._table, LazyTransitionTable)
            assert ref == fast
            assert ref.converged

    @pytest.mark.parametrize("seed", range(3))
    def test_unfinished_sweep_matches_reference(self, seed):
        # Protocol 3 at N = P: the ordered sweep does not finish within
        # the budget, but both engines must spend it identically.
        protocol = GlobalNamingProtocol(5)
        population = Population(5, has_leader=True)
        initial = _initial_for(protocol, population, seed)
        ref, fast, simulator = _run_pair(
            protocol, population, initial, seed, 50_000, NamingProblem()
        )
        assert simulator.last_run_fast
        assert ref == fast
        assert not ref.converged
        assert ref.interactions == 50_000

    def test_arbitrary_leader_starts_match_reference(self):
        protocol = SelfStabilizingNamingProtocol(9)
        k_max = protocol.leader_space_size() // (protocol.bound + 2) - 1
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(1, protocol.bound)
            leader = SelfStabLeaderState(
                rng.randint(0, protocol.bound + 1), rng.randint(0, k_max)
            )
            population = Population(n, has_leader=True)
            initial = Configuration.from_states(
                population,
                [rng.randint(0, protocol.bound) for _ in range(n)],
                leader,
            )
            ref, fast, simulator = _run_pair(
                protocol, population, initial, seed, 500_000, NamingProblem()
            )
            assert simulator.last_run_fast
            assert ref == fast
            assert ref.converged

    def test_trace_observer_and_sanitizer_match_reference(self):
        protocol = SelfStabilizingNamingProtocol(9)
        population = Population(7, has_leader=True)
        initial = _initial_for(protocol, population, seed=5)
        seen = {}
        for backend in ("reference", "fast"):
            scheduler = RandomPairScheduler(population, seed=5)
            simulator = make_simulator(
                backend, protocol, population, scheduler, NamingProblem(),
                sanitize=True,
            )
            trace = Trace(capacity=None)
            events = []
            result = simulator.run(
                initial,
                max_interactions=200_000,
                trace=trace,
                observer=lambda i, c: events.append((i, c)),
            )
            result.trace = None
            seen[backend] = (result, trace.records, events)
        assert simulator.last_run_fast
        assert seen["fast"] == seen["reference"]
        assert seen["fast"][0].converged

    def test_sanitizer_rejects_an_undeclared_leader_state(self):
        from repro.core.global_naming import GlobalLeaderState
        from repro.errors import SanitizerError

        protocol = GlobalNamingProtocol(9)
        population = Population(4, has_leader=True)
        rogue = Configuration.from_states(
            population, [0, 1, 2, 3], GlobalLeaderState(99, 0, 0)
        )
        for backend in ("reference", "fast"):
            simulator = make_simulator(
                backend,
                protocol,
                population,
                RandomPairScheduler(population, seed=1),
                NamingProblem(),
                sanitize=True,
            )
            with pytest.raises(SanitizerError, match="declared leader space"):
                simulator.run(rogue, max_interactions=1_000)

    def test_runs_share_the_protocols_lazy_table(self):
        protocol = GlobalNamingProtocol(9)
        population = Population(6, has_leader=True)
        tables = set()
        for seed in range(3):
            simulator = FastSimulator(
                protocol,
                population,
                RandomPairScheduler(population, seed=seed),
                NamingProblem(),
            )
            simulator.run(_initial_for(protocol, population, seed))
            tables.add(simulator._table)
        assert len(tables) == 1
        # The declared leader space has 25,700 states; the table holds
        # only the mobile states and the leader states the runs visited.
        assert protocol.leader_space_size() == 25_700
        assert tables.pop().n_states < 1_000

    def test_oversized_mobile_space_still_falls_back(self):
        protocol = GlobalNamingProtocol(9)
        population = Population(3, has_leader=True)
        simulator = FastSimulator(
            protocol,
            population,
            RandomPairScheduler(population, seed=0),
            NamingProblem(),
            compile_limit=8,
        )
        assert not simulator.compiled
        with pytest.warns(
            BackendFallbackWarning, match="could not be compiled"
        ):
            simulator.run(
                _initial_for(protocol, population, 0), max_interactions=100
            )
        assert not simulator.last_run_fast

    def test_convergence_cells_match_reference_without_reference_fallback(
        self,
    ):
        from repro.experiments.convergence import measure, protocol_series

        for protocol, sizes, uniform in protocol_series(9):
            leadered = protocol.requires_leader and compile_table(
                protocol
            ) is None
            for n in sizes:
                reference = measure(
                    protocol, n, 9, range(3), 2_000_000, uniform,
                    backend="reference",
                )
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    fast = measure(
                        protocol, n, 9, range(3), 2_000_000, uniform,
                        backend="fast",
                    )
                    auto = measure(protocol, n, 9, range(3), 2_000_000, uniform)
                assert fast == reference
                if leadered:
                    # batch -> counts -> fast: the ladder stops at fast.
                    assert auto == reference
                assert not [
                    w
                    for w in caught
                    if issubclass(w.category, BackendFallbackWarning)
                    and w.message.delegate == "reference"
                ]


class TestRoleBoundaryCrossing:
    """Rules that move a state across the mobile/leader boundary."""

    #: The leader-only state "L" reaches a mobile agent, after which the
    #: leader-only pair ("L", "L") becomes schedulable.
    PROTOCOL = TableProtocol(
        {(0, "L"): ("L", "L"), ("L", "L"): (1, 1)},
        mobile_states=(0, 1),
        leader_states=("L",),
    )

    @pytest.mark.parametrize("backend", ["fast", "counts", "batch"])
    def test_matches_reference(self, backend):
        population = Population(3, has_leader=True)
        initial = Configuration.from_states(population, [0, 1, 1], "L")
        for seed in range(20):
            results = {}
            for name in ("reference", backend):
                scheduler = RandomPairScheduler(population, seed=seed)
                simulator = make_simulator(
                    name, self.PROTOCOL, population, scheduler, None
                )
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", BackendFallbackWarning)
                    results[name] = simulator.run(
                        initial, max_interactions=200
                    )
            assert results[backend] == results["reference"]
            assert results["reference"].final_configuration.states == (
                1, 1, 1, 1,
            )

    def test_fast_path_serves_the_crossing_run(self):
        population = Population(3, has_leader=True)
        simulator = FastSimulator(
            self.PROTOCOL,
            population,
            RandomPairScheduler(population, seed=0),
            None,
        )
        assert not compile_table(self.PROTOCOL).closed
        with warnings.catch_warnings():
            warnings.simplefilter("error", BackendFallbackWarning)
            result = simulator.run(
                Configuration.from_states(population, [0, 1, 1], "L"),
                max_interactions=200,
            )
        assert simulator.last_run_fast
        assert isinstance(simulator._table, LazyTransitionTable)
        assert not simulator._table.closed
        assert result.non_null_interactions == 2


def _fixed_sequence(population, seed):
    """Every ordered pair in seeded order, then a third of them again."""
    pairs = list(population.ordered_pairs())
    random.Random(seed).shuffle(pairs)
    return FixedSequenceScheduler(
        population, pairs + pairs[: len(pairs) // 3 + 1], seed=seed
    )


def _shuffled_round_robin(population, seed):
    return RoundRobinScheduler(population, seed=seed, shuffle_each_cycle=True)


#: Factories ``(population, seed) -> scheduler`` for the deterministic
#: schedulers; the shuffled round robin is the one that declares no period.
DETERMINISTIC_SCHEDULERS = {
    "matching": MatchingScheduler,
    "round_robin": RoundRobinScheduler,
    "round_robin_shuffled": _shuffled_round_robin,
    "interleaved": InterleavedRoundRobinScheduler,
    "fixed_sequence": _fixed_sequence,
}

#: ``(protocol, N)`` per table kind.  Under these weakly fair schedules
#: Prop. 13 and Protocol 3 at N = P livelock; the others converge.
PERIODIC_CASES = {
    "prop12-eager": (AsymmetricNamingProtocol(5), 5),
    "prop13-eager": (SymmetricGlobalNamingProtocol(6), 6),
    "protocol2-eager-leader": (SelfStabilizingNamingProtocol(4), 4),
    "protocol3-eager-leader": (GlobalNamingProtocol(4), 4),
    "protocol2-lazy-leader": (SelfStabilizingNamingProtocol(9), 6),
    "protocol3-lazy-leader": (GlobalNamingProtocol(5), 5),
}

#: Two agents holding 0 and 1 both become 2; every other pair is null.
#: From [0, 1, 0, 1] a run falls silent with duplicate names, a fixed
#: point that is never solved.
ZERO_ACTIVITY = TableProtocol({(0, 1): (2, 2)}, mobile_states=(0, 1, 2))


def _prop1_start():
    """Proposition 1's setting: N = 6, no leader, a uniform start."""
    population = Population(6)
    return population, Configuration.uniform(population, 1)


def _run_periodic(
    protocol,
    population,
    make_scheduler,
    initial,
    budget,
    problem=...,
    check_interval=None,
    sanitize=False,
    instrument=None,
):
    """Run ``reference`` and ``fast`` under one deterministic scheduler.

    ``instrument`` is ``None``, ``"trace"`` or ``"observer"``.  Returns,
    per backend, the result (trace detached), the trace records or
    observer events, the scheduler's next pairs after the run (a period,
    or one cycle of a shuffled round robin) and the number of pairs the
    run drew through ``next_pairs``.
    """
    if problem is ...:
        problem = NamingProblem()
    out = {}
    for backend in ("reference", "fast"):
        scheduler = make_scheduler(population, 3)
        drawn = [0]
        batched = scheduler.next_pairs

        def counting(config, count, batched=batched, drawn=drawn):
            drawn[0] += count
            return batched(config, count)

        scheduler.next_pairs = counting
        simulator = make_simulator(
            backend, protocol, population, scheduler, problem,
            check_interval, sanitize=sanitize,
        )
        kwargs = {}
        events = []
        if instrument == "trace":
            kwargs["trace"] = Trace(capacity=None)
        elif instrument == "observer":
            kwargs["observer"] = lambda i, c: events.append((i, c))
        result = simulator.run(initial, max_interactions=budget, **kwargs)
        if instrument == "trace":
            events = result.trace.records
            result.trace = None
        horizon = scheduler.period or 2 * population.pair_count()
        after = [scheduler.next_pair(None) for _ in range(horizon)]
        out[backend] = (result, events, after, drawn[0])
    return out["reference"], out["fast"]


class TestPeriodicFastForward:
    """Whole cycles of a periodic schedule are skipped, exactly."""

    @pytest.mark.parametrize("case", sorted(PERIODIC_CASES))
    @pytest.mark.parametrize("name", sorted(DETERMINISTIC_SCHEDULERS))
    @pytest.mark.parametrize("uniform", [True, False])
    def test_matches_reference(self, case, name, uniform):
        protocol, n = PERIODIC_CASES[case]
        population = Population(n, protocol.requires_leader)
        initial = _initial_for(protocol, population, 7, uniform)
        make_scheduler = DETERMINISTIC_SCHEDULERS[name]
        # 12,345 is a multiple of no stride, so a remainder always runs.
        ref, fast = _run_periodic(
            protocol, population, make_scheduler, initial, 12_345
        )
        assert fast[:3] == ref[:3]
        result, drawn = ref[0], fast[3]
        if make_scheduler(population, 3).period and not result.converged:
            assert drawn < result.interactions
        else:
            assert drawn == result.interactions

    @pytest.mark.parametrize("budget", [999, 50_001])
    def test_prop1_livelock_is_certified_in_one_stride(self, budget):
        # period 30 (two rotations of 15 pairs) and check interval 16:
        # stride 240.  The uniform start recurs at interaction 240, so
        # the run draws one stride plus the budget's remainder.  The
        # budgets end on phase boundaries, where symmetry holds.
        population, initial = _prop1_start()
        ref, fast = _run_periodic(
            SymmetricGlobalNamingProtocol(6), population, MatchingScheduler,
            initial, budget,
        )
        assert fast[:3] == ref[:3]
        assert not ref[0].converged
        assert ref[0].interactions == budget
        assert len(set(ref[0].final_configuration.mobile_states)) == 1
        assert fast[3] == 240 + budget % 240

    @pytest.mark.parametrize("name", ["matching", "round_robin"])
    def test_zero_activity_cycle(self, name):
        population = Population(4)
        initial = Configuration.from_states(population, (0, 1, 0, 1))
        ref, fast = _run_periodic(
            ZERO_ACTIVITY, population, DETERMINISTIC_SCHEDULERS[name],
            initial, 40_003,
        )
        assert fast[:3] == ref[:3]
        assert not ref[0].converged
        assert ref[0].non_null_interactions == 2
        assert ref[0].final_configuration.mobile_states == (2, 2, 2, 2)
        assert fast[3] < 1_000

    @pytest.mark.parametrize("check_interval", [1, 7, 45])
    def test_check_interval_override(self, check_interval):
        population, initial = _prop1_start()
        ref, fast = _run_periodic(
            SymmetricGlobalNamingProtocol(6), population, MatchingScheduler,
            initial, 30_011, check_interval=check_interval,
        )
        assert fast[:3] == ref[:3]
        assert not ref[0].converged
        assert fast[3] < 2_000

    @pytest.mark.parametrize(
        "bypass", ["trace", "observer", "sanitize", "subclass", "shuffled"]
    )
    def test_not_engaged_off_the_plain_path(self, bypass):
        class StrictNaming(NamingProblem):
            """Identity subclass; may not take the silence shortcut."""

        protocol = SymmetricGlobalNamingProtocol(6)
        population, initial = _prop1_start()
        make_scheduler = MatchingScheduler
        kwargs = {}
        if bypass in ("trace", "observer"):
            kwargs["instrument"] = bypass
        elif bypass == "sanitize":
            kwargs["sanitize"] = True
        elif bypass == "subclass":
            kwargs["problem"] = StrictNaming()
        else:
            protocol = ZERO_ACTIVITY
            population = Population(4)
            initial = Configuration.from_states(population, (0, 1, 0, 1))
            make_scheduler = _shuffled_round_robin
        ref, fast = _run_periodic(
            protocol, population, make_scheduler, initial, 5_001, **kwargs
        )
        assert fast[:3] == ref[:3]
        assert not ref[0].converged
        assert fast[3] == 5_001
        if bypass in ("trace", "observer"):
            assert ref[1]


class TestFallbacks:
    def test_adversarial_scheduler_falls_back(self):
        protocol = SymmetricGlobalNamingProtocol(4)
        population = Population(4)
        scheduler = HomonymPreservingScheduler(population, protocol, seed=0)
        simulator = FastSimulator(
            protocol, population, scheduler, NamingProblem()
        )
        with pytest.warns(
            BackendFallbackWarning, match="inspects the configuration"
        ):
            result = simulator.run(
                Configuration.uniform(population, 1), max_interactions=500
            )
        assert not simulator.last_run_fast
        assert not result.converged  # the adversary preserves homonyms

    def test_fault_hook_falls_back(self):
        protocol = AsymmetricNamingProtocol(4)
        population = Population(4)
        scheduler = RandomPairScheduler(population, seed=0)
        simulator = FastSimulator(
            protocol, population, scheduler, NamingProblem()
        )
        calls = []

        def hook(interaction, config):
            calls.append(interaction)
            return None

        with pytest.warns(BackendFallbackWarning, match="fault hooks"):
            simulator.run(
                Configuration.uniform(population, 0),
                max_interactions=50,
                fault_hook=hook,
            )
        assert not simulator.last_run_fast
        assert calls

    def test_oversized_state_space_falls_back(self):
        protocol = AsymmetricNamingProtocol(5)
        population = Population(5)
        scheduler = RandomPairScheduler(population, seed=2)
        simulator = FastSimulator(
            protocol,
            population,
            scheduler,
            NamingProblem(),
            compile_limit=1,
        )
        assert not simulator.compiled
        with pytest.warns(
            BackendFallbackWarning, match="could not be compiled"
        ):
            result = simulator.run(
                Configuration.uniform(population, 0),
                max_interactions=30_000,
            )
        assert not simulator.last_run_fast
        # Fallback still matches a plain reference run.
        reference = Simulator(
            protocol,
            population,
            RandomPairScheduler(population, seed=2),
            NamingProblem(),
        )
        pop2 = reference.population
        assert result == reference.run(
            Configuration.uniform(pop2, 0), max_interactions=30_000
        )

    def test_out_of_space_initial_state_falls_back(self):
        protocol = AsymmetricNamingProtocol(4)
        population = Population(3)
        scheduler = RandomPairScheduler(population, seed=0)
        simulator = FastSimulator(
            protocol, population, scheduler, NamingProblem()
        )
        rogue = Configuration.from_states(population, (0, 1, "rogue"))
        with pytest.warns(
            BackendFallbackWarning, match="outside the protocol's declared"
        ):
            simulator.run(rogue, max_interactions=100)
        assert not simulator.last_run_fast

    def test_uncompilable_protocol_returns_none(self):
        class Unbounded(AsymmetricNamingProtocol):
            """State space that refuses enumeration."""

            def mobile_state_space(self):
                raise NotImplementedError("unbounded")

        assert compile_table(Unbounded(4)) is None

    def test_size_mismatch_raises_like_reference(self):
        protocol = AsymmetricNamingProtocol(4)
        population = Population(4)
        scheduler = RandomPairScheduler(population, seed=0)
        simulator = FastSimulator(
            protocol, population, scheduler, NamingProblem()
        )
        wrong = Configuration.uniform(Population(3), 0)
        with pytest.raises(SimulationError, match="3 agents"):
            simulator.run(wrong)


class TestBackendRegistry:
    def test_registry_contents(self):
        from repro.engine.batch import BatchedEnsembleSimulator
        from repro.engine.bleap import BatchedLeapSimulator
        from repro.engine.fluid import FluidSimulator
        from repro.engine.leap import LeapSimulator

        assert BACKENDS == {
            "reference": Simulator,
            "fast": FastSimulator,
            "counts": CountSimulator,
            "batch": BatchedEnsembleSimulator,
            "leap": LeapSimulator,
            "bleap": BatchedLeapSimulator,
            "fluid": FluidSimulator,
        }

    def test_make_simulator_builds_each(self):
        protocol = AsymmetricNamingProtocol(4)
        population = Population(4)
        for backend, cls in BACKENDS.items():
            scheduler = RandomPairScheduler(population, seed=0)
            assert isinstance(
                make_simulator(
                    backend, protocol, population, scheduler, NamingProblem()
                ),
                cls,
            )

    def test_unknown_backend_rejected(self):
        protocol = AsymmetricNamingProtocol(4)
        population = Population(4)
        scheduler = RandomPairScheduler(population, seed=0)
        with pytest.raises(SimulationError, match="unknown simulation"):
            make_simulator("turbo", protocol, population, scheduler)


def _sched_factory(population, seed):
    return RandomPairScheduler(population, seed=seed)


def _init_factory(population, seed):
    return Configuration.uniform(population, 0)


class TestParallelEnsembles:
    @pytest.mark.parametrize(
        "backend, sanitize",
        [
            pytest.param(
                backend,
                sanitize,
                id=f"{backend}-sanitized" if sanitize else backend,
            )
            for sanitize in (False, True)
            for backend in sorted(BACKENDS)
        ],
    )
    def test_n_jobs_results_seed_identical_to_serial(self, backend, sanitize):
        protocol = AsymmetricNamingProtocol(5)
        population = Population(5)
        runs = {}
        for n_jobs in (1, 2):
            runs[n_jobs] = run_ensemble(
                protocol,
                population,
                _sched_factory,
                _init_factory,
                NamingProblem(),
                seeds=range(4),
                max_interactions=50_000,
                backend=backend,
                n_jobs=n_jobs,
                sanitize=sanitize,
            )
        assert runs[1].seeds == runs[2].seeds
        assert runs[1].results == runs[2].results

    def test_backends_agree_within_ensembles(self):
        protocol = AsymmetricNamingProtocol(5)
        population = Population(5)
        per_backend = {
            backend: run_ensemble(
                protocol,
                population,
                _sched_factory,
                _init_factory,
                NamingProblem(),
                seeds=range(5),
                max_interactions=50_000,
                backend=backend,
            )
            for backend in sorted(BACKENDS)
        }
        assert per_backend["fast"].results == per_backend["reference"].results

    def test_invalid_n_jobs_rejected(self):
        protocol = AsymmetricNamingProtocol(5)
        population = Population(5)
        with pytest.raises(ValueError, match="n_jobs"):
            run_ensemble(
                protocol,
                population,
                _sched_factory,
                _init_factory,
                NamingProblem(),
                seeds=range(2),
                n_jobs=0,
            )


class TestContentAddressedTableCache:
    """Compiled tables are shared by content, not object identity."""

    def test_equal_instances_share_one_table(self):
        table1 = compile_table(AsymmetricNamingProtocol(5))
        table2 = compile_table(AsymmetricNamingProtocol(5))
        assert table1 is table2

    def test_same_instance_is_cached(self):
        protocol = AsymmetricNamingProtocol(5)
        assert compile_table(protocol) is compile_table(protocol)

    def test_different_protocols_get_different_tables(self):
        table1 = compile_table(AsymmetricNamingProtocol(4))
        table2 = compile_table(AsymmetricNamingProtocol(5))
        assert table1 is not table2
        assert table1.fingerprint != table2.fingerprint

    def test_fingerprint_bytes_are_pinned(self):
        # Fingerprints key serve jobs and on-disk artifacts across
        # releases; the row layout of the fast engine must not move them.
        assert table_fingerprint(AsymmetricNamingProtocol(5)) == (
            "85216a6e85644d948c6a1122b30f3e6ebb7f9f82fd4c0efc4dbb47aeddb8f9fa"
        )
        assert table_fingerprint(GlobalNamingProtocol(3)) == (
            "83afa08cc8d9c63655a1432dc2527f24378ddf4c45649a1c4d950f7179c98a6e"
        )
        # Protocols 1 and 2: their transitions must not move either.
        assert table_fingerprint(CountingProtocol(3)) == (
            "fabebdbffdfd3ee64a9e5b60c3ff98951537a9f2aefca9b82225f03d192a4b9b"
        )
        assert table_fingerprint(CountingProtocol(5)) == (
            "c8ebe459ed84f2e3b19f62bf100d9ecd657269ddbaf1bfa8713e1494fab45ec5"
        )
        assert table_fingerprint(SelfStabilizingNamingProtocol(3)) == (
            "e3ba84bd1dbb15c2566de4c1c93eaf54ab522be7de80ae0ac280216f5e163989"
        )
        assert table_fingerprint(SelfStabilizingNamingProtocol(5)) == (
            "bdacb10b58ab0f29e11ceadcee7159602bb954c006dd0690a0a00f6c2f0237e7"
        )

    def test_fingerprint_stable_across_instances(self):
        fp1 = table_fingerprint(AsymmetricNamingProtocol(6))
        fp2 = table_fingerprint(AsymmetricNamingProtocol(6))
        assert fp1 is not None
        assert fp1 == fp2

    def test_table_pickle_roundtrip_keeps_fingerprint(self):
        import pickle

        table = compile_table(AsymmetricNamingProtocol(5))
        clone = pickle.loads(pickle.dumps(table))
        assert clone.fingerprint == table.fingerprint
        assert clone.states == table.states
        assert clone.delta == table.delta

    def test_equal_instances_share_one_plan_of_each_kind(self):
        from repro.engine.leap import LeapSimulator

        population = Population(6)
        first, second = (
            LeapSimulator(
                AsymmetricNamingProtocol(5),
                population,
                RandomPairScheduler(population, seed=0),
                NamingProblem(),
            )
            for _ in range(2)
        )
        assert second._plan is first._plan
        assert second._leap is first._leap


def _distinct_table_protocol(i: int) -> TableProtocol:
    """The ``i``-th of 256 four-state tables, each with its own content."""
    a, b, c, d = ((i >> shift) % 4 for shift in (0, 2, 4, 6))
    return TableProtocol({(0, 1): (a, b), (1, 0): (c, d)}, range(4))


class TestOneLRU:
    """Every artifact cache is one bounded :class:`LRU`."""

    def test_each_cache_is_an_lru_with_its_bound(self, tmp_path):
        from repro.analysis import reachability
        from repro.engine import counts, fast, leap
        from repro.serve.cache import ArtifactCache

        for cache, bound in (
            (fast._TABLE_CACHE, 128),
            (counts._PLAN_CACHE, 128),
            (leap._LEAP_CACHE, 128),
            (reachability._GRAPH_CACHE, 32),
            (ArtifactCache(tmp_path, memory_items=7)._mem, 7),
        ):
            assert isinstance(cache, LRU)
            assert cache.maxsize == bound

    def test_table_cache_drops_the_least_recently_used(self):
        from repro.engine import fast

        protocols = [
            _distinct_table_protocol(i) for i in range(TABLE_CACHE_SIZE + 2)
        ]
        fast._TABLE_CACHE.clear()
        tables = [compile_table(protocol) for protocol in protocols]
        assert len({table.fingerprint for table in tables}) == len(tables)
        assert len(fast._TABLE_CACHE) == TABLE_CACHE_SIZE
        assert list(fast._TABLE_CACHE.values()) == tables[2:]

    @settings(max_examples=200, deadline=None)
    @given(
        maxsize=st.integers(1, 5),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("get"), st.integers(0, 7)),
                st.tuples(st.just("set"), st.integers(0, 7), st.integers()),
                st.tuples(st.just("clear")),
            ),
            max_size=60,
        ),
    )
    def test_matches_the_ordered_dict_oracle(self, maxsize, ops):
        lru, oracle = LRU(maxsize), OracleLRU(maxsize)
        for op in ops:
            if op[0] == "get":
                assert lru.get(op[1]) == oracle.get(op[1])
            elif op[0] == "set":
                lru[op[1]] = op[2]
                oracle.put(op[1], op[2])
            else:
                lru.clear()
                oracle.clear()
            assert list(lru.items()) == list(oracle.entries.items())
            assert lru.evictions == oracle.evictions


class TestCompileLimitOnCacheHit:
    """A cached table answers ``compile_limit`` as a cold compile with
    that limit would, whichever limit compiled it first."""

    @pytest.mark.parametrize("warm_first", [False, True])
    def test_eager_table(self, warm_first):
        protocol = AsymmetricNamingProtocol(8)
        if warm_first:
            assert compile_table(protocol) is not None
        assert compile_table(protocol, 2) is None
        assert compile_table(protocol) is not None

    @pytest.mark.parametrize("warm_first", [False, True])
    def test_lazy_table(self, warm_first):
        # Nine mobile states, and a leader space far over the default
        # limit: the fast backend runs it on a lazy table.
        protocol = GlobalNamingProtocol(9)
        population = Population(3, has_leader=True)

        def compiled(**kwargs) -> bool:
            return FastSimulator(
                protocol,
                population,
                RandomPairScheduler(population, seed=0),
                NamingProblem(),
                **kwargs,
            ).compiled

        if warm_first:
            assert compiled()
        assert not compiled(compile_limit=8)
        assert compiled()
