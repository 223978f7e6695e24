"""The backend ladder's fallback contract, pinned rung by rung.

Each counts-native rung - ``counts``, ``leap``, ``fluid``, ``batch`` and
``bleap`` - refuses the runs its kernel cannot honour and hands them one
rung down with a :class:`~repro.errors.BackendFallbackWarning`, and the
rung below may refuse again.  :data:`LADDER` pins, for every rung under
every refusal cause, the full chain of ``(backend, delegate, reason)``
warnings a run emits and the run's ``(converged, interactions,
non_null_interactions)``; :data:`REPLICATES` pins the same for the
lockstep rungs' ``run_replicates``.  The reasons are spelled out in
:data:`REASONS`, so any change to a sentence, to the order in which the
refusals are tried, or to where a refused run lands shows up here.
:data:`DIGESTS` pins the native paths: a digest of every per-seed result
of the counts, leap, fluid and bleap rungs.
"""

from __future__ import annotations

import hashlib
import warnings

import pytest

from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.core.counting import CountingProtocol
from repro.core.leader_uniform import (
    CounterLeaderState,
    LeaderUniformNamingProtocol,
)
from repro.engine.batch import BatchedEnsembleSimulator
from repro.engine.bleap import BatchedLeapSimulator
from repro.engine.configuration import Configuration
from repro.engine.counts import CountSimulator
from repro.engine.fluid import FluidSimulator
from repro.engine.leap import LeapSimulator
from repro.engine.population import Population
from repro.engine.problems import CountingProblem, NamingProblem
from repro.engine.protocol import TableProtocol
from repro.engine.trace import Trace
from repro.errors import BackendFallbackWarning
from repro.schedulers.random_pair import RandomPairScheduler
from repro.schedulers.round_robin import RoundRobinScheduler
from tests.property.tables import Boss

#: The five counts-native rungs, by backend name.
RUNGS = {
    "counts": CountSimulator,
    "leap": LeapSimulator,
    "fluid": FluidSimulator,
    "batch": BatchedEnsembleSimulator,
    "bleap": BatchedLeapSimulator,
}

#: Interaction budget of every pinned run: the reference rung at the
#: bottom of the ladder pays per interaction.
BUDGET = 4_000


def _role_crossing() -> TableProtocol:
    """Homonyms 1 meet and one of them becomes a leader-only state.

    Declared leaderless, so that the fluid rung, which refuses every
    leader population first, reaches the role check too.
    """
    protocol = TableProtocol(
        {(0, 0): (0, 1), (1, 1): (1, Boss(0))},
        mobile_states=(0, 1),
        leader_states=(Boss(0),),
        display_name="role crossing",
    )
    protocol.requires_leader = False
    return protocol


def _setup(cause: str, seed: int = 0):
    """``(protocol, population, scheduler, problem, initial, run kwargs,
    constructor kwargs)`` of a refusal cause, or of several joined by
    ``+``, on a fresh protocol instance (so an earlier compile cannot
    answer for this one)."""
    protocol = AsymmetricNamingProtocol(8)
    population = Population(8)
    problem = NamingProblem()
    start = 0
    leader = None
    run: dict = {}
    ctor: dict = {}
    scheduler_class = RandomPairScheduler
    causes = cause.split("+")
    for part in causes:
        if part == "uncompilable":
            ctor["compile_limit"] = 4
        elif part == "role-crossing":
            protocol = _role_crossing()
            population = Population(4)
        elif part == "round-robin":
            scheduler_class = RoundRobinScheduler
        elif part == "fault-hook":
            run["fault_hook"] = lambda interaction, config: None
        elif part == "trace":
            run["trace"] = Trace(capacity=16)
        elif part == "observer":
            run["observer"] = lambda interaction, config: None
        elif part == "counting":
            protocol = CountingProtocol(4)
            population = Population(4, has_leader=True)
            problem = CountingProblem(4)
            start, leader = 1, protocol.initial_leader_state()
        elif part == "non-invariant":
            # The problem declares that it reads agent identities.
            problem.permutation_invariant = False
        elif part == "leader":
            protocol = LeaderUniformNamingProtocol(8)
            population = Population(8, has_leader=True)
            start, leader = 8, CounterLeaderState(1)
    if "out-of-space" in causes:
        initial = Configuration.from_states(
            population, (0, 1, 2, 3, 4, 5, 6, "rogue")
        )
    else:
        initial = Configuration.uniform(population, start, leader)
    scheduler = scheduler_class(population, seed=seed)
    return protocol, population, scheduler, problem, initial, run, ctor


def _chain(caught) -> list[tuple[str, str, str]]:
    return [
        (w.message.backend, w.message.delegate, w.message.reason)
        for w in caught
        if isinstance(w.message, BackendFallbackWarning)
    ]


def _outcome(result) -> tuple[bool, int, int]:
    return (
        result.converged,
        result.interactions,
        result.non_null_interactions,
    )


def ladder_run(backend: str, cause: str):
    """One run of ``backend`` under ``cause``: (warnings, outcome)."""
    protocol, population, scheduler, problem, initial, run, ctor = _setup(
        cause
    )
    simulator = RUNGS[backend](
        protocol, population, scheduler, problem, **ctor
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = simulator.run(initial, max_interactions=BUDGET, **run)
    return _chain(caught), _outcome(result)


#: Replicates per pinned ``run_replicates`` call.
R = 3


def replicates_run(backend: str, cause: str):
    """One ``run_replicates`` call of ``backend`` under ``cause``: the
    warnings and one outcome per replicate.  Only the last replicate
    carries the cause where it is a scheduler or a start."""
    protocol, population, scheduler, problem, initial, run, ctor = _setup(
        cause
    )
    schedulers = [RandomPairScheduler(population, seed=s) for s in range(R)]
    # Built on the first replicate's scheduler, as an ensemble builds
    # it, so a refusal can only come from the replicates' own.
    simulator = RUNGS[backend](
        protocol, population, schedulers[0], problem, **ctor
    )
    clean = (
        Configuration.uniform(population, 0)
        if cause == "out-of-space"
        else initial
    )
    initials = [clean] * (R - 1) + [initial]
    if cause == "round-robin":
        schedulers[-1] = scheduler
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = simulator.run_replicates(
            initials,
            schedulers,
            max_interactions=BUDGET,
            fault_hook=run.get("fault_hook"),
        )
    return _chain(caught), [_outcome(r) for r in results]


CAUSES = (
    "uncompilable",
    "role-crossing",
    "round-robin",
    "fault-hook",
    "trace",
    "observer",
    "counting",
    "non-invariant",
    "out-of-space",
    "leader",
)

#: Several causes at once, each with every cause that comes later in
#: :func:`~repro.engine.counts.native_refusal`'s order: the first
#: listed must be the one reported, which pins that order.
STACKED = (
    "role-crossing+round-robin+fault-hook+trace+non-invariant",
    "round-robin+fault-hook+trace+observer+non-invariant",
    "fault-hook+trace+non-invariant",
    "trace+observer+non-invariant",
    "counting+non-invariant",
    "uncompilable+leader",
)

#: ``run_replicates`` takes no trace or observer.
REPLICATE_CAUSES = tuple(
    c
    for c in CAUSES + STACKED
    if "trace" not in c and "observer" not in c
)

#: Every fallback reason the pinned runs emit, by short name.
REASONS = {
    "uncompiled": (
        "the protocol's state space could not be compiled to a transition "
        "table (unhashable, unenumerable or oversized)"
    ),
    "role": (
        "a rule moves a state across the mobile/leader role boundary, so "
        "counts alone cannot identify the leader"
    ),
    "rr-counts": (
        "scheduler 'round robin' is not the uniform-random pair scheduler "
        "(counts sampling assumes independent uniform ordered pairs)"
    ),
    "rr-leap": (
        "scheduler 'round robin' is not the uniform-random pair scheduler "
        "(multinomial leaping assumes independent uniform ordered pairs)"
    ),
    "rr-lockstep": (
        "scheduler 'round robin' is not the uniform-random pair scheduler "
        "(lockstep sampling assumes independent uniform ordered pairs)"
    ),
    "hook": "fault hooks rewrite per-agent configurations",
    "fast-hook": "fault hooks mutate whole configurations per interaction",
    "identities": "traces and observers need agent identities",
    "leap-naming": (
        "the leap kernel only certifies the naming problem; other problems "
        "run on the exact counts backend"
    ),
    "lockstep-naming": (
        "the lockstep kernel only certifies the naming problem; other "
        "problems run per-replicate"
    ),
    "invariant": (
        "the problem is not permutation-invariant, so it cannot be "
        "evaluated on a canonical representative"
    ),
    "foreign": (
        "the initial configuration holds states outside the protocol's "
        "declared state space"
    ),
    "leader": (
        "a count-1 leader species has no mean-field limit (the fluid drift "
        "treats all species as continuous densities)"
    ),
}


def expand(chain: str) -> list[tuple[str, str, str]]:
    """``"a>b:name c>d:name"`` as ``[(a, b, reason), (c, d, reason)]``."""
    hops = []
    for hop in chain.split():
        pair, _, name = hop.partition(":")
        backend, _, delegate = pair.partition(">")
        hops.append((backend, delegate, REASONS[name]))
    return hops



#: ``(rung, cause)`` -> (warning chain, ``(converged, interactions,
#: non_null_interactions)``) of one :func:`ladder_run`.
LADDER = {
    ("counts", "uncompilable"): (
        "counts>fast:uncompiled fast>reference:uncompiled",
        (True, 240, 28),
    ),
    ("counts", "role-crossing"): ("counts>fast:role", (False, 4000, 5)),
    ("counts", "round-robin"): ("counts>fast:rr-counts", (True, 64, 28)),
    ("counts", "fault-hook"): (
        "counts>fast:hook fast>reference:fast-hook",
        (True, 240, 28),
    ),
    ("counts", "trace"): ("counts>fast:identities", (True, 240, 28)),
    ("counts", "observer"): ("counts>fast:identities", (True, 240, 28)),
    ("counts", "counting"): ("", (True, 128, 13)),
    ("counts", "non-invariant"): ("counts>fast:invariant", (True, 240, 28)),
    ("counts", "out-of-space"): (
        "counts>fast:foreign fast>reference:foreign",
        (True, 0, 0),
    ),
    ("counts", "leader"): ("", (True, 80, 7)),
    ("counts", "role-crossing+round-robin+fault-hook+trace+non-invariant"): (
        "counts>fast:role fast>reference:fast-hook",
        (False, 4000, 5),
    ),
    ("counts", "round-robin+fault-hook+trace+observer+non-invariant"): (
        "counts>fast:rr-counts fast>reference:fast-hook",
        (True, 64, 28),
    ),
    ("counts", "fault-hook+trace+non-invariant"): (
        "counts>fast:hook fast>reference:fast-hook",
        (True, 240, 28),
    ),
    ("counts", "trace+observer+non-invariant"): (
        "counts>fast:identities",
        (True, 240, 28),
    ),
    ("counts", "counting+non-invariant"): (
        "counts>fast:invariant",
        (True, 96, 12),
    ),
    ("counts", "uncompilable+leader"): (
        "counts>fast:uncompiled fast>reference:uncompiled",
        (True, 32, 7),
    ),
    ("leap", "uncompilable"): (
        "leap>counts:uncompiled counts>fast:uncompiled "
        "fast>reference:uncompiled",
        (True, 240, 28),
    ),
    ("leap", "role-crossing"): (
        "leap>counts:role counts>fast:role",
        (False, 4000, 5),
    ),
    ("leap", "round-robin"): (
        "leap>counts:rr-leap counts>fast:rr-counts",
        (True, 64, 28),
    ),
    ("leap", "fault-hook"): (
        "leap>counts:hook counts>fast:hook fast>reference:fast-hook",
        (True, 240, 28),
    ),
    ("leap", "trace"): (
        "leap>counts:identities counts>fast:identities",
        (True, 240, 28),
    ),
    ("leap", "observer"): (
        "leap>counts:identities counts>fast:identities",
        (True, 240, 28),
    ),
    ("leap", "counting"): ("leap>counts:leap-naming", (True, 128, 13)),
    ("leap", "non-invariant"): (
        "leap>counts:invariant counts>fast:invariant",
        (True, 240, 28),
    ),
    ("leap", "out-of-space"): (
        "leap>counts:foreign counts>fast:foreign fast>reference:foreign",
        (True, 0, 0),
    ),
    ("leap", "leader"): ("", (True, 128, 7)),
    ("leap", "role-crossing+round-robin+fault-hook+trace+non-invariant"): (
        "leap>counts:role counts>fast:role fast>reference:fast-hook",
        (False, 4000, 5),
    ),
    ("leap", "round-robin+fault-hook+trace+observer+non-invariant"): (
        "leap>counts:rr-leap counts>fast:rr-counts fast>reference:fast-hook",
        (True, 64, 28),
    ),
    ("leap", "fault-hook+trace+non-invariant"): (
        "leap>counts:hook counts>fast:hook fast>reference:fast-hook",
        (True, 240, 28),
    ),
    ("leap", "trace+observer+non-invariant"): (
        "leap>counts:identities counts>fast:identities",
        (True, 240, 28),
    ),
    ("leap", "counting+non-invariant"): (
        "leap>counts:leap-naming counts>fast:invariant",
        (True, 96, 12),
    ),
    ("leap", "uncompilable+leader"): (
        "leap>counts:uncompiled counts>fast:uncompiled "
        "fast>reference:uncompiled",
        (True, 32, 7),
    ),
    ("fluid", "uncompilable"): (
        "fluid>leap:uncompiled leap>counts:uncompiled "
        "counts>fast:uncompiled fast>reference:uncompiled",
        (True, 240, 28),
    ),
    ("fluid", "role-crossing"): (
        "fluid>leap:role leap>counts:role counts>fast:role",
        (False, 4000, 5),
    ),
    ("fluid", "round-robin"): (
        "fluid>leap:rr-leap leap>counts:rr-leap counts>fast:rr-counts",
        (True, 64, 28),
    ),
    ("fluid", "fault-hook"): (
        "fluid>leap:hook leap>counts:hook counts>fast:hook "
        "fast>reference:fast-hook",
        (True, 240, 28),
    ),
    ("fluid", "trace"): (
        "fluid>leap:identities leap>counts:identities counts>fast:identities",
        (True, 240, 28),
    ),
    ("fluid", "observer"): (
        "fluid>leap:identities leap>counts:identities counts>fast:identities",
        (True, 240, 28),
    ),
    ("fluid", "counting"): (
        "fluid>leap:leader leap>counts:leap-naming",
        (True, 128, 13),
    ),
    ("fluid", "non-invariant"): (
        "fluid>leap:invariant leap>counts:invariant counts>fast:invariant",
        (True, 240, 28),
    ),
    ("fluid", "out-of-space"): (
        "fluid>leap:foreign leap>counts:foreign counts>fast:foreign "
        "fast>reference:foreign",
        (True, 0, 0),
    ),
    ("fluid", "leader"): ("fluid>leap:leader", (True, 128, 7)),
    ("fluid", "role-crossing+round-robin+fault-hook+trace+non-invariant"): (
        "fluid>leap:role leap>counts:role counts>fast:role "
        "fast>reference:fast-hook",
        (False, 4000, 5),
    ),
    ("fluid", "round-robin+fault-hook+trace+observer+non-invariant"): (
        "fluid>leap:rr-leap leap>counts:rr-leap counts>fast:rr-counts "
        "fast>reference:fast-hook",
        (True, 64, 28),
    ),
    ("fluid", "fault-hook+trace+non-invariant"): (
        "fluid>leap:hook leap>counts:hook counts>fast:hook "
        "fast>reference:fast-hook",
        (True, 240, 28),
    ),
    ("fluid", "trace+observer+non-invariant"): (
        "fluid>leap:identities leap>counts:identities counts>fast:identities",
        (True, 240, 28),
    ),
    ("fluid", "counting+non-invariant"): (
        "fluid>leap:leader leap>counts:leap-naming counts>fast:invariant",
        (True, 96, 12),
    ),
    ("fluid", "uncompilable+leader"): (
        "fluid>leap:uncompiled leap>counts:uncompiled "
        "counts>fast:uncompiled fast>reference:uncompiled",
        (True, 32, 7),
    ),
    ("batch", "uncompilable"): (
        "batch>counts:uncompiled counts>fast:uncompiled "
        "fast>reference:uncompiled",
        (True, 240, 28),
    ),
    ("batch", "role-crossing"): (
        "batch>counts:role counts>fast:role",
        (False, 4000, 5),
    ),
    ("batch", "round-robin"): (
        "batch>counts:rr-lockstep counts>fast:rr-counts",
        (True, 64, 28),
    ),
    ("batch", "fault-hook"): (
        "batch>counts:hook counts>fast:hook fast>reference:fast-hook",
        (True, 240, 28),
    ),
    ("batch", "trace"): (
        "batch>counts:identities counts>fast:identities",
        (True, 240, 28),
    ),
    ("batch", "observer"): (
        "batch>counts:identities counts>fast:identities",
        (True, 240, 28),
    ),
    ("batch", "counting"): ("batch>counts:lockstep-naming", (True, 128, 13)),
    ("batch", "non-invariant"): (
        "batch>counts:invariant counts>fast:invariant",
        (True, 240, 28),
    ),
    ("batch", "out-of-space"): (
        "batch>counts:foreign counts>fast:foreign fast>reference:foreign",
        (True, 0, 0),
    ),
    ("batch", "leader"): ("", (True, 48, 7)),
    ("batch", "role-crossing+round-robin+fault-hook+trace+non-invariant"): (
        "batch>counts:role counts>fast:role fast>reference:fast-hook",
        (False, 4000, 5),
    ),
    ("batch", "round-robin+fault-hook+trace+observer+non-invariant"): (
        "batch>counts:rr-lockstep counts>fast:rr-counts "
        "fast>reference:fast-hook",
        (True, 64, 28),
    ),
    ("batch", "fault-hook+trace+non-invariant"): (
        "batch>counts:hook counts>fast:hook fast>reference:fast-hook",
        (True, 240, 28),
    ),
    ("batch", "trace+observer+non-invariant"): (
        "batch>counts:identities counts>fast:identities",
        (True, 240, 28),
    ),
    ("batch", "counting+non-invariant"): (
        "batch>counts:lockstep-naming counts>fast:invariant",
        (True, 96, 12),
    ),
    ("batch", "uncompilable+leader"): (
        "batch>counts:uncompiled counts>fast:uncompiled "
        "fast>reference:uncompiled",
        (True, 32, 7),
    ),
    ("bleap", "uncompilable"): (
        "bleap>batch:uncompiled batch>counts:uncompiled "
        "counts>fast:uncompiled fast>reference:uncompiled",
        (True, 240, 28),
    ),
    ("bleap", "role-crossing"): (
        "bleap>batch:role batch>counts:role counts>fast:role",
        (False, 4000, 5),
    ),
    ("bleap", "round-robin"): (
        "bleap>batch:rr-lockstep batch>counts:rr-lockstep "
        "counts>fast:rr-counts",
        (True, 64, 28),
    ),
    ("bleap", "fault-hook"): (
        "bleap>batch:hook batch>counts:hook counts>fast:hook "
        "fast>reference:fast-hook",
        (True, 240, 28),
    ),
    ("bleap", "trace"): (
        "bleap>batch:identities batch>counts:identities "
        "counts>fast:identities",
        (True, 240, 28),
    ),
    ("bleap", "observer"): (
        "bleap>batch:identities batch>counts:identities "
        "counts>fast:identities",
        (True, 240, 28),
    ),
    ("bleap", "counting"): (
        "bleap>batch:lockstep-naming batch>counts:lockstep-naming",
        (True, 128, 13),
    ),
    ("bleap", "non-invariant"): (
        "bleap>batch:invariant batch>counts:invariant counts>fast:invariant",
        (True, 240, 28),
    ),
    ("bleap", "out-of-space"): (
        "bleap>batch:foreign batch>counts:foreign counts>fast:foreign "
        "fast>reference:foreign",
        (True, 0, 0),
    ),
    ("bleap", "leader"): ("", (True, 48, 7)),
    ("bleap", "role-crossing+round-robin+fault-hook+trace+non-invariant"): (
        "bleap>batch:role batch>counts:role counts>fast:role "
        "fast>reference:fast-hook",
        (False, 4000, 5),
    ),
    ("bleap", "round-robin+fault-hook+trace+observer+non-invariant"): (
        "bleap>batch:rr-lockstep batch>counts:rr-lockstep "
        "counts>fast:rr-counts fast>reference:fast-hook",
        (True, 64, 28),
    ),
    ("bleap", "fault-hook+trace+non-invariant"): (
        "bleap>batch:hook batch>counts:hook counts>fast:hook "
        "fast>reference:fast-hook",
        (True, 240, 28),
    ),
    ("bleap", "trace+observer+non-invariant"): (
        "bleap>batch:identities batch>counts:identities "
        "counts>fast:identities",
        (True, 240, 28),
    ),
    ("bleap", "counting+non-invariant"): (
        "bleap>batch:lockstep-naming batch>counts:lockstep-naming "
        "counts>fast:invariant",
        (True, 96, 12),
    ),
    ("bleap", "uncompilable+leader"): (
        "bleap>batch:uncompiled batch>counts:uncompiled "
        "counts>fast:uncompiled fast>reference:uncompiled",
        (True, 32, 7),
    ),
}

#: ``(rung, cause)`` -> (warning chain, one outcome per replicate) of one
#: :func:`replicates_run`.
REPLICATES = {
    ("batch", "uncompilable"): (
        "batch>counts:uncompiled counts>fast:uncompiled "
        "fast>reference:uncompiled counts>fast:uncompiled "
        "fast>reference:uncompiled counts>fast:uncompiled "
        "fast>reference:uncompiled",
        ((True, 240, 28), (True, 224, 28), (True, 240, 28)),
    ),
    ("batch", "role-crossing"): (
        "batch>counts:role counts>fast:role counts>fast:role counts>fast:role",
        ((False, 4000, 5), (False, 4000, 5), (False, 4000, 5)),
    ),
    ("batch", "round-robin"): (
        "batch>counts:rr-lockstep counts>fast:rr-counts",
        ((True, 224, 28), (True, 272, 28), (True, 64, 28)),
    ),
    ("batch", "fault-hook"): (
        "batch>counts:hook counts>fast:hook fast>reference:fast-hook "
        "counts>fast:hook fast>reference:fast-hook counts>fast:hook "
        "fast>reference:fast-hook",
        ((True, 240, 28), (True, 224, 28), (True, 240, 28)),
    ),
    ("batch", "counting"): (
        "batch>counts:lockstep-naming",
        ((True, 128, 13), (True, 80, 12), (True, 64, 13)),
    ),
    ("batch", "non-invariant"): (
        "batch>counts:invariant counts>fast:invariant "
        "counts>fast:invariant counts>fast:invariant",
        ((True, 240, 28), (True, 224, 28), (True, 240, 28)),
    ),
    ("batch", "out-of-space"): (
        "batch>counts:foreign counts>fast:foreign fast>reference:foreign",
        ((True, 224, 28), (True, 272, 28), (True, 0, 0)),
    ),
    ("batch", "leader"): ("", ((True, 48, 7), (True, 64, 7), (True, 64, 7))),
    ("batch", "counting+non-invariant"): (
        "batch>counts:lockstep-naming counts>fast:invariant "
        "counts>fast:invariant counts>fast:invariant",
        ((True, 96, 12), (True, 48, 12), (True, 64, 12)),
    ),
    ("batch", "uncompilable+leader"): (
        "batch>counts:uncompiled counts>fast:uncompiled "
        "fast>reference:uncompiled counts>fast:uncompiled "
        "fast>reference:uncompiled counts>fast:uncompiled "
        "fast>reference:uncompiled",
        ((True, 32, 7), (True, 48, 7), (True, 16, 7)),
    ),
    ("bleap", "uncompilable"): (
        "bleap>batch:uncompiled batch>counts:uncompiled "
        "counts>fast:uncompiled fast>reference:uncompiled "
        "counts>fast:uncompiled fast>reference:uncompiled "
        "counts>fast:uncompiled fast>reference:uncompiled",
        ((True, 240, 28), (True, 224, 28), (True, 240, 28)),
    ),
    ("bleap", "role-crossing"): (
        "bleap>batch:role batch>counts:role counts>fast:role "
        "counts>fast:role counts>fast:role",
        ((False, 4000, 5), (False, 4000, 5), (False, 4000, 5)),
    ),
    ("bleap", "round-robin"): (
        "bleap>batch:rr-lockstep batch>counts:rr-lockstep "
        "counts>fast:rr-counts",
        ((True, 224, 28), (True, 272, 28), (True, 64, 28)),
    ),
    ("bleap", "fault-hook"): (
        "bleap>batch:hook batch>counts:hook counts>fast:hook "
        "fast>reference:fast-hook counts>fast:hook "
        "fast>reference:fast-hook counts>fast:hook "
        "fast>reference:fast-hook",
        ((True, 240, 28), (True, 224, 28), (True, 240, 28)),
    ),
    ("bleap", "counting"): (
        "bleap>batch:lockstep-naming batch>counts:lockstep-naming",
        ((True, 128, 13), (True, 80, 12), (True, 64, 13)),
    ),
    ("bleap", "non-invariant"): (
        "bleap>batch:invariant batch>counts:invariant "
        "counts>fast:invariant counts>fast:invariant counts>fast:invariant",
        ((True, 240, 28), (True, 224, 28), (True, 240, 28)),
    ),
    ("bleap", "out-of-space"): (
        "bleap>batch:foreign batch>counts:foreign counts>fast:foreign "
        "fast>reference:foreign",
        ((True, 224, 28), (True, 272, 28), (True, 0, 0)),
    ),
    ("bleap", "leader"): ("", ((True, 48, 7), (True, 64, 7), (True, 64, 7))),
    ("bleap", "counting+non-invariant"): (
        "bleap>batch:lockstep-naming batch>counts:lockstep-naming "
        "counts>fast:invariant counts>fast:invariant counts>fast:invariant",
        ((True, 96, 12), (True, 48, 12), (True, 64, 12)),
    ),
    ("bleap", "uncompilable+leader"): (
        "bleap>batch:uncompiled batch>counts:uncompiled "
        "counts>fast:uncompiled fast>reference:uncompiled "
        "counts>fast:uncompiled fast>reference:uncompiled "
        "counts>fast:uncompiled fast>reference:uncompiled",
        ((True, 32, 7), (True, 48, 7), (True, 16, 7)),
    ),
}


@pytest.mark.parametrize("backend", list(RUNGS))
@pytest.mark.parametrize("cause", CAUSES + STACKED)
def test_run_ladder_pinned(backend, cause):
    chain, outcome = LADDER[backend, cause]
    assert ladder_run(backend, cause) == (expand(chain), outcome)


@pytest.mark.parametrize("backend", ["batch", "bleap"])
@pytest.mark.parametrize("cause", REPLICATE_CAUSES)
def test_replicates_ladder_pinned(backend, cause):
    chain, outcomes = REPLICATES[backend, cause]
    assert replicates_run(backend, cause) == (expand(chain), list(outcomes))


def test_pins_cover_every_rung_and_cause():
    assert set(LADDER) == {(b, c) for b in RUNGS for c in CAUSES + STACKED}
    assert set(REPLICATES) == {
        (b, c) for b in ("batch", "bleap") for c in REPLICATE_CAUSES
    }


#: ``(P, N, budget, seeds)`` of each cell :func:`test_results_digest`
#: hashes, all Prop. 12 from the uniform start: a small converging cell
#: on the exact paths, and one at N = 4000 (P < N cannot name, so every
#: run reaches its 10 N budget) where leap and bleap take multinomial
#: windows and fluid integrates before its handoff.
DIGEST_CELLS = ((8, 8, 200_000, range(16)), (8, 4_000, 40_000, range(4)))

#: The first 16 hex digits of :func:`results_digest` per rung; the
#: batch rung's own pin is ``test_batch.py::TestDrawsPinned``.
DIGESTS = {
    "counts": "3a2620f1ede7f490",
    "leap": "f5bee8f88ec76f1b",
    "fluid": "282202cca84da86f",
    "bleap": "d47359715798ebf4",
}


def results_digest(backend: str) -> str:
    """Every result of ``backend`` on :data:`DIGEST_CELLS`, hashed: one
    run per seed on the per-run rungs, one ``run_replicates`` per cell
    on bleap."""
    digest = hashlib.sha256()
    for bound, n, budget, seeds in DIGEST_CELLS:
        protocol = AsymmetricNamingProtocol(bound)
        population = Population(n)
        initial = Configuration.uniform(population, 0)
        schedulers = [RandomPairScheduler(population, seed=s) for s in seeds]
        simulators = [
            RUNGS[backend](protocol, population, scheduler, NamingProblem())
            for scheduler in schedulers
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", BackendFallbackWarning)
            if backend == "bleap":
                results = simulators[0].run_replicates(
                    [initial] * len(schedulers), schedulers, budget
                )
            else:
                results = [
                    simulator.run(initial, max_interactions=budget)
                    for simulator in simulators
                ]
        for r in results:
            stats = r.stats
            digest.update(
                repr(
                    (
                        r.converged,
                        r.convergence_interaction,
                        r.interactions,
                        r.non_null_interactions,
                        r.final_configuration.states,
                        r.final_configuration.leader_index,
                        stats.leaps,
                        stats.repairs,
                        stats.ode_steps,
                    )
                ).encode()
            )
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("backend", list(DIGESTS))
def test_results_digest(backend):
    assert results_digest(backend) == DIGESTS[backend]
