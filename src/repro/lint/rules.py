"""The lint rule registry and the rules themselves.

Each rule is a function from a :class:`LintContext` (one protocol, with
optional :class:`~repro.core.spec.ModelSpec` / bound context) to a list
of :class:`~repro.lint.diagnostics.Diagnostic`\\ s.  Rules register
through the :func:`rule` decorator under a stable kebab-case id and one
of two scopes:

``protocol``
    Depends only on the protocol instance - closure, symmetry of the
    actual table, reachability.  The engine runs these once per
    (protocol, bound), on one context, so a protocol serving several
    Table 1 cells is analyzed once.  ``closure`` and ``symmetry`` read
    one :func:`~repro.engine.protocol.audit_pairs` pass, computed at
    most once per context, which evaluates each schedulable ordered
    state pair once for both.
``spec``
    Compares the protocol against its model specification - the Table 1
    state budget, role/claim conformance, the Section 3.1 sink
    discipline.  Cheap, run per cell.

Rules report findings; they never raise on a bad protocol.  A transition
that raises is reported by ``closure`` (the first raising pair); every
other rule whose analysis it cuts short reports nothing.  Exhaustive
sub-analyses run through a ladder: the symbolic counts-quotient engine
(:mod:`repro.analysis.symbolic`) first, the explicit labelled
enumeration as a fallback, and only when both exceed their
:class:`LintBudgets` caps does the rule emit an ``INFO`` diagnostic
recording the skip (with a structured ``skipped_budget`` field), so a
clean report documents its own coverage.  At the default budgets the
full registry sweep reports zero skips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.analysis.reachability import (
    arbitrary_initial_configurations,
    explore,
    uniform_initial_configurations,
)
from repro.analysis.sink import unique_sink
from repro.analysis.symbolic import (
    check_liveness as _symbolic_liveness,
    check_reach as _symbolic_reach,
    initial_state_sets,
    state_closure,
)
from repro.core.spec import CellResult, LeaderKind, ModelSpec, Symmetry
from repro.engine.population import Population
from repro.engine.problems import is_silent
from repro.engine.protocol import (
    PairAudit,
    PopulationProtocol,
    TableProtocol,
    audit_pairs,
)
from repro.engine.state import State, is_leader_state
from repro.errors import VerificationError
from repro.lint.diagnostics import Diagnostic, Severity

#: How many concrete witnesses a single finding carries at most.
WITNESS_LIMIT = 5


@dataclass(frozen=True)
class LintBudgets:
    """Caps on the exhaustive sub-analyses.

    Protocols exceeding a cap are skipped by the affected rule with an
    ``INFO`` diagnostic (never silently): soundness over completeness.
    The defaults clear the full registry sweep at bounds {3, 5, 8} with
    zero skips - the frontier-incremental closure and the symbolic
    counts-quotient engine handle the ~10^4-state leader space of the
    self-stabilizing protocols directly.
    """

    #: Largest combined state space for the state-closure analyses
    #: (reachable-states, dead-table-entries).
    max_closure_states: int = 25_000
    #: Mobile population size for the configuration-graph search.
    reach_population: int = 3
    #: Largest number of initial configurations to explore from.
    max_reach_roots: int = 6_000
    #: Largest configuration-graph size explored.
    max_reach_nodes: int = 60_000


@dataclass
class LintContext:
    """Everything a rule may look at.

    ``spec``/``bound``/``cell`` are ``None`` when linting a standalone
    protocol outside the Table 1 sweep; spec-scope rules then skip their
    spec-dependent checks.
    """

    protocol: PopulationProtocol
    spec: ModelSpec | None = None
    bound: int | None = None
    cell: CellResult | None = None
    budgets: LintBudgets = field(default_factory=LintBudgets)
    #: Ids of the rules that will run on this context (``None``: all);
    #: the pair audit runs only the scans they read.
    rule_ids: frozenset[str] | None = None
    _audit: PairAudit | None = field(default=None, init=False, repr=False)

    def pair_audit(self) -> PairAudit:
        """The ``closure``/``symmetry`` pair audit, computed once."""
        if self._audit is None:

            def wanted(rule_id: str) -> bool:
                return self.rule_ids is None or rule_id in self.rule_ids

            self._audit = audit_pairs(
                self.protocol,
                leak_limit=WITNESS_LIMIT if wanted("closure") else 0,
                asym_limit=(
                    (WITNESS_LIMIT if self.protocol.symmetric else 1)
                    if wanted("symmetry")
                    else 0
                ),
            )
        return self._audit

    def diag(
        self,
        rule_id: str,
        severity: Severity,
        message: str,
        witness=None,
        skipped_budget: str | None = None,
    ) -> Diagnostic:
        """Build a diagnostic carrying this context."""
        return Diagnostic(
            rule=rule_id,
            severity=severity,
            message=message,
            protocol=self.protocol.display_name,
            spec=self.spec.describe() if self.spec is not None else None,
            bound=self.bound,
            witness=witness,
            skipped_budget=skipped_budget,
        )


@dataclass(frozen=True)
class LintRule:
    """A registered rule: stable id, scope, one-line description."""

    id: str
    scope: str  # "protocol" | "spec"
    description: str
    fn: Callable[[LintContext], list[Diagnostic]]


#: The rule registry, in registration (= documentation) order.
RULES: dict[str, LintRule] = {}


def rule(rule_id: str, scope: str, description: str):
    """Register a lint rule under ``rule_id``."""

    def register(fn: Callable[[LintContext], list[Diagnostic]]):
        if rule_id in RULES:
            raise ValueError(f"duplicate lint rule id {rule_id!r}")
        RULES[rule_id] = LintRule(rule_id, scope, description, fn)
        return fn

    return register


def _fmt_state(state: State) -> str:
    return repr(state)


# ----------------------------------------------------------------------
# Protocol-scope rules
# ----------------------------------------------------------------------


@rule(
    "closure",
    "protocol",
    "transitions stay inside the declared state spaces and preserve "
    "each position's mobile/leader role",
)
def check_closure(ctx: LintContext) -> list[Diagnostic]:
    """Every transition stays in-space and preserves roles."""
    audit = ctx.pair_audit()
    if audit.raised is not None:
        p, q, exc = audit.raised
        return [
            ctx.diag(
                "closure",
                Severity.ERROR,
                f"transition({p!r}, {q!r}) raised {exc!r}",
                witness=[_fmt_state(p), _fmt_state(q)],
            )
        ]
    if not audit.leaks:
        return []
    witnesses = [
        {
            "pair": [_fmt_state(s) for s in leak.pair],
            "result": [_fmt_state(s) for s in leak.result],
            "escaped": _fmt_state(leak.after),
        }
        for leak in audit.leaks
    ]
    return [
        ctx.diag(
            "closure",
            Severity.ERROR,
            f"{len(witnesses)}+ transition(s) leave the declared state "
            "space or move a state across the mobile/leader role "
            "boundary",
            witness=witnesses,
        )
    ]


@rule(
    "symmetry",
    "protocol",
    "the symmetric/asymmetric declaration matches the actual transition "
    "table, in both directions",
)
def check_symmetry(ctx: LintContext) -> list[Diagnostic]:
    """The symmetry declaration matches the table, both ways."""
    protocol = ctx.protocol
    audit = ctx.pair_audit()
    witnesses = audit.asymmetric
    if audit.asymmetry_raised is not None and not witnesses:
        return []  # a raising transition cut the scan; `closure` reports it
    if protocol.symmetric and witnesses:
        rendered = []
        for p, q in witnesses[:WITNESS_LIMIT]:
            p2, q2 = protocol.transition(p, q)
            q3, p3 = protocol.transition(q, p)
            rendered.append(
                {
                    "pair": [_fmt_state(p), _fmt_state(q)],
                    "forward": [_fmt_state(p2), _fmt_state(q2)],
                    "mirrored": [_fmt_state(p3), _fmt_state(q3)],
                }
            )
        return [
            ctx.diag(
                "symmetry",
                Severity.ERROR,
                "declared symmetric but the transition table has "
                f"{len(witnesses)}+ asymmetric rule(s)",
                witness=rendered,
            )
        ]
    if not protocol.symmetric and not witnesses:
        # The converse direction is a paper-fidelity bug: Table 1's
        # asymmetric column exists *because* an asymmetric rule buys one
        # state - a secretly-symmetric table belongs in the other column.
        return [
            ctx.diag(
                "symmetry",
                Severity.ERROR,
                "declared asymmetric but every rule in the transition "
                "table is symmetric; the protocol belongs in Table 1's "
                "symmetric column",
            )
        ]
    return []


# The state-closure analysis lives in repro.analysis.symbolic (the
# frontier-incremental version pairs only *new* states against the known
# set per iteration, which is what lets the default closure budget cover
# the ~10^4-state leader spaces); these aliases keep the historical rule
# helper names importable.
_initial_state_sets = initial_state_sets
_state_closure = state_closure


@rule(
    "reachable-states",
    "protocol",
    "every declared mobile state is reachable from the declared initial "
    "configurations (wasted states contradict space-optimality)",
)
def check_reachable_states(ctx: LintContext) -> list[Diagnostic]:
    """No declared mobile state is dead weight."""
    protocol = ctx.protocol
    n_states = len(protocol.all_states())
    if n_states > ctx.budgets.max_closure_states:
        return [
            ctx.diag(
                "reachable-states",
                Severity.INFO,
                f"skipped: {n_states} states exceed the closure budget "
                f"of {ctx.budgets.max_closure_states}",
                skipped_budget="max_closure_states",
            )
        ]
    try:
        closure = _state_closure(protocol)
    except Exception:
        return []  # a raising transition; `closure` reports it
    if closure is None:
        return []  # escaped the declared spaces; `closure` rule reports it
    mobiles_reached, _leaders_reached = closure
    unreached = sorted(
        protocol.mobile_state_space() - mobiles_reached, key=repr
    )
    if not unreached:
        return []
    # Leader states are deliberately not flagged: large leader spaces
    # over-approximate the leader's bookkeeping range and the paper's
    # space measure counts mobile states only.
    return [
        ctx.diag(
            "reachable-states",
            Severity.WARNING,
            f"{len(unreached)} declared mobile state(s) are unreachable "
            "from the declared initial configurations",
            witness=[_fmt_state(s) for s in unreached[:WITNESS_LIMIT]],
        )
    ]


@rule(
    "dead-table-entries",
    "protocol",
    "explicit TableProtocol entries that can never fire: identity "
    "entries, unschedulable pairs, out-of-space or unreachable keys",
)
def check_dead_table_entries(ctx: LintContext) -> list[Diagnostic]:
    """Explicit table entries must be able to fire."""
    protocol = ctx.protocol
    if not isinstance(protocol, TableProtocol):
        return []
    mobile = protocol.mobile_state_space()
    leader = protocol.leader_state_space()
    known = mobile | leader
    dead: list[dict] = []
    closure = None
    if len(known) <= ctx.budgets.max_closure_states:
        try:
            closure = _state_closure(protocol)
        except Exception:
            pass  # a raising transition; `closure` reports it
    for (p, q), (p2, q2) in protocol.table.items():
        entry = {
            "pair": [_fmt_state(p), _fmt_state(q)],
            "result": [_fmt_state(p2), _fmt_state(q2)],
        }
        if (p2, q2) == (p, q):
            entry["reason"] = "identity entry (null by definition)"
        elif p not in known or q not in known:
            entry["reason"] = "key state outside the declared spaces"
        elif is_leader_state(p) and is_leader_state(q):
            entry["reason"] = (
                "leader/leader pair (a population has one leader)"
            )
        elif closure is not None and not all(
            s in closure[0] or s in closure[1] for s in (p, q)
        ):
            entry["reason"] = (
                "key state unreachable from the initial configurations"
            )
        else:
            continue
        dead.append(entry)
    if not dead:
        return []
    return [
        ctx.diag(
            "dead-table-entries",
            Severity.WARNING,
            f"{len(dead)} table entr{'y is' if len(dead) == 1 else 'ies are'}"
            " dead (can never fire as a non-null interaction)",
            witness=dead[:WITNESS_LIMIT],
        )
    ]


@rule(
    "silent-configs-named",
    "protocol",
    "every silent configuration reachable from the declared initial "
    "configurations assigns pairwise-distinct names",
)
def check_silent_configs_named(ctx: LintContext) -> list[Diagnostic]:
    """Reachable silent configurations carry distinct names.

    Ladder: the symbolic counts-quotient frontier first (multiset roots,
    exact, scales with the quotient), the explicit labelled exploration
    as a fallback (it has no well-formedness precondition, so it still
    covers protocols whose transitions escape the declared spaces), and
    an ``INFO`` skip only when both are out of budget.
    """
    protocol = ctx.protocol
    budgets = ctx.budgets
    n_mobile = budgets.reach_population
    population = Population(n_mobile, protocol.requires_leader)
    designated_leader = protocol.initial_leader_state()
    try:
        verdict = _symbolic_reach(
            protocol,
            n_mobile,
            leader_states=(
                [designated_leader]
                if designated_leader is not None
                else None
            ),
            max_nodes=budgets.max_reach_nodes,
            max_roots=budgets.max_reach_roots,
        )
    except VerificationError:
        pass  # out of budget or not quotient-compilable; go explicit
    except Exception:
        return []  # a raising transition; `closure` reports it
    else:
        if verdict.holds:
            return []
        witness = verdict.witness
        return [
            ctx.diag(
                "silent-configs-named",
                Severity.ERROR,
                f"a reachable silent configuration carries duplicate "
                f"names (N = {n_mobile}); silence is terminal, so naming "
                "can never be solved from it (counterexample "
                "replay-validated on the reference simulator)",
                witness={
                    "names": [
                        _fmt_state(s)
                        for s in witness.final.mobile_states
                    ],
                    "initial": [
                        _fmt_state(s)
                        for s in witness.initial.mobile_states
                    ],
                    "meetings": list(witness.meetings),
                },
            )
        ]
    if protocol.initial_mobile_state() is not None:
        roots_iter: Iterable = uniform_initial_configurations(
            protocol, population
        )
    else:
        designated_leader = protocol.initial_leader_state()
        leader_states = (
            [designated_leader] if designated_leader is not None else None
        )
        n_leaders = (
            1
            if designated_leader is not None
            else max(1, len(protocol.leader_state_space()))
        )
        n_roots = len(protocol.mobile_state_space()) ** n_mobile
        if protocol.requires_leader:
            n_roots *= n_leaders
        if n_roots > budgets.max_reach_roots:
            return [
                ctx.diag(
                    "silent-configs-named",
                    Severity.INFO,
                    f"skipped: {n_roots} initial configurations exceed "
                    f"the exploration budget of {budgets.max_reach_roots}",
                    skipped_budget="max_reach_roots",
                )
            ]
        roots_iter = arbitrary_initial_configurations(
            protocol, population, leader_states
        )
    try:
        graph = explore(
            protocol,
            population,
            roots_iter,
            max_nodes=budgets.max_reach_nodes,
        )
    except VerificationError as exc:
        return [
            ctx.diag(
                "silent-configs-named",
                Severity.INFO,
                f"skipped: {exc}",
                skipped_budget="max_reach_nodes",
            )
        ]
    except Exception:
        return []  # a raising transition; `closure` reports it
    colliding: list[list[str]] = []
    # Breadth-first discovery order, so a report names the same first
    # witnesses on every run (``graph.nodes`` is a set).
    for config in graph.edges:
        if not is_silent(protocol, config):
            continue
        names = config.mobile_states
        if len(set(names)) != len(names):
            colliding.append([_fmt_state(s) for s in names])
            if len(colliding) >= WITNESS_LIMIT:
                break
    if not colliding:
        return []
    return [
        ctx.diag(
            "silent-configs-named",
            Severity.ERROR,
            f"{len(colliding)}+ reachable silent configuration(s) carry "
            f"duplicate names (N = {n_mobile}); silence is terminal, so "
            "naming can never be solved from them",
            witness=colliding,
        )
    ]


# ----------------------------------------------------------------------
# Spec-scope rules
# ----------------------------------------------------------------------


@rule(
    "state-budget",
    "spec",
    "the mobile state count equals the Table 1 optimum (P or P+1) for "
    "the protocol's model specification",
)
def check_state_budget(ctx: LintContext) -> list[Diagnostic]:
    """Mobile state count equals the Table 1 optimum."""
    if ctx.cell is None or ctx.bound is None:
        return []
    optimal = ctx.cell.optimal_states(ctx.bound)
    if optimal is None:
        return []
    declared = ctx.protocol.num_mobile_states
    if declared == optimal:
        return []
    if declared > optimal:
        message = (
            f"{declared} mobile states exceed the Table 1 optimum of "
            f"{optimal} (= P{'+1' if ctx.cell.extra_states else ''}); the "
            "space-optimality claim is violated"
        )
    else:
        message = (
            f"{declared} mobile states undercut the proven lower bound "
            f"of {optimal}; either the protocol is broken or the paper's "
            "bound is - check the registry wiring"
        )
    return [
        ctx.diag(
            "state-budget",
            Severity.ERROR,
            message,
            witness={"declared": declared, "optimal": optimal},
        )
    ]


@rule(
    "leader-discipline",
    "spec",
    "leader requirements, initial states and the symmetry claim agree "
    "with the protocol's declarations and the model specification",
)
def check_leader_discipline(ctx: LintContext) -> list[Diagnostic]:
    """Leader/symmetry declarations agree with the model."""
    protocol = ctx.protocol
    diags: list[Diagnostic] = []
    leader_space = protocol.leader_state_space()
    if protocol.requires_leader and not leader_space:
        diags.append(
            ctx.diag(
                "leader-discipline",
                Severity.ERROR,
                "requires a leader but declares an empty leader state "
                "space",
            )
        )
    if not protocol.requires_leader and leader_space:
        diags.append(
            ctx.diag(
                "leader-discipline",
                Severity.WARNING,
                "declares leader states but does not require a leader; "
                "they can never be scheduled",
            )
        )
    init_mobile = protocol.initial_mobile_state()
    if (
        init_mobile is not None
        and init_mobile not in protocol.mobile_state_space()
    ):
        diags.append(
            ctx.diag(
                "leader-discipline",
                Severity.ERROR,
                "the designated initial mobile state is outside the "
                "mobile state space",
                witness=_fmt_state(init_mobile),
            )
        )
    init_leader = protocol.initial_leader_state()
    if init_leader is not None and init_leader not in leader_space:
        diags.append(
            ctx.diag(
                "leader-discipline",
                Severity.ERROR,
                "the designated initial leader state is outside the "
                "leader state space",
                witness=_fmt_state(init_leader),
            )
        )
    spec = ctx.spec
    if spec is not None:
        if spec.leader is LeaderKind.NONE and protocol.requires_leader:
            diags.append(
                ctx.diag(
                    "leader-discipline",
                    Severity.ERROR,
                    "the model has no leader but the protocol requires "
                    "one",
                )
            )
        # The converse (a leader model served by a leaderless protocol)
        # is legitimate: the paper reuses leaderless protocols when the
        # leader buys nothing (e.g. Proposition 13 under a leader).
        if (
            spec.symmetry is Symmetry.SYMMETRIC
            and not protocol.symmetric
        ):
            diags.append(
                ctx.diag(
                    "leader-discipline",
                    Severity.ERROR,
                    "the model only admits symmetric rules but the "
                    "protocol declares asymmetric ones",
                )
            )
    return diags


@rule(
    "sink-discipline",
    "spec",
    "under the Section 3.1 premises (symmetric rules, weak fairness, "
    "arbitrary init) the protocol has a unique sink with an immediate "
    "self-loop (Proposition 6)",
)
def check_sink_discipline(ctx: LintContext) -> list[Diagnostic]:
    """Proposition 6's unique-sink property under its premises."""
    protocol = ctx.protocol
    spec = ctx.spec
    # Proposition 6 is proved for correct symmetric naming protocols in
    # the self-stabilizing weak-fairness setting; outside those premises
    # multiple homonym cycles are legitimate (e.g. the global-fairness
    # leaderless protocol's period-2 cycle).
    if spec is None or not protocol.symmetric:
        return []
    from repro.core.spec import Fairness, MobileInit

    if (
        spec.fairness is not Fairness.WEAK
        or spec.mobile_init is not MobileInit.ARBITRARY
    ):
        return []
    try:
        unique_sink(protocol)
    except VerificationError as exc:
        return [
            ctx.diag(
                "sink-discipline",
                Severity.ERROR,
                f"Proposition 6 violated: {exc}",
            )
        ]
    except Exception:
        return []  # a raising transition; `closure` reports it
    return []


@rule(
    "weak-liveness",
    "spec",
    "under weak fairness the protocol admits no weakly fair livelock or "
    "duplicate-name parking (symbolic counts-quotient fiber search at "
    "N = reach_population)",
)
def check_weak_liveness(ctx: LintContext) -> list[Diagnostic]:
    """Weak-fairness naming holds at the lint population size.

    Runs the symbolic liveness checker with spec-matched roots.  The
    NON_INITIALIZED leader cells are deliberately left to ``repro
    check``: their root space is the full declared leader state space
    (~10^4 states at P = 8), which is on-demand verification territory,
    not a per-sweep lint premise.
    """
    protocol = ctx.protocol
    spec = ctx.spec
    budgets = ctx.budgets
    from repro.core.spec import Fairness, MobileInit

    if spec is None or spec.fairness is not Fairness.WEAK:
        return []
    if (
        protocol.requires_leader
        and spec.leader is not LeaderKind.INITIALIZED
    ):
        return []  # full-leader-space roots: `repro check` territory
    mobile_mode = (
        "uniform"
        if spec.mobile_init is MobileInit.UNIFORM
        else "arbitrary"
    )
    leader_states = None
    if protocol.requires_leader:
        designated = protocol.initial_leader_state()
        if designated is None:
            return []  # INITIALIZED cell without a designated leader
        leader_states = [designated]
    try:
        verdict = _symbolic_liveness(
            protocol,
            budgets.reach_population,
            mobile_mode=mobile_mode,
            leader_states=leader_states,
            max_nodes=budgets.max_reach_nodes,
            max_roots=budgets.max_reach_roots,
        )
    except VerificationError as exc:
        return [
            ctx.diag(
                "weak-liveness",
                Severity.INFO,
                f"skipped: {exc}",
                skipped_budget="max_reach_nodes",
            )
        ]
    except Exception:
        return []  # a raising transition; `closure` reports it
    if verdict.holds:
        return []
    witness = verdict.witness
    return [
        ctx.diag(
            "weak-liveness",
            Severity.ERROR,
            f"{verdict.reason} (N = {budgets.reach_population}; "
            "counterexample schedule replay-validated on the reference "
            "simulator)",
            witness={
                "kind": witness.kind,
                "initial": [
                    _fmt_state(s) for s in witness.initial.mobile_states
                ],
                "meetings": list(witness.meetings),
                "rounds": list(witness.round_ends),
            },
        )
    ]
