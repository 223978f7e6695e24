"""The lint driver: sweep Table 1 or audit a single protocol.

:func:`run_lint` walks every feasible :class:`~repro.core.spec.ModelSpec`
cell at each requested bound, instantiates the registered protocol via
:func:`repro.core.registry.protocol_for`, and runs every selected rule on
it.  Protocol-scope rules (closure, symmetry, reachability) depend only
on the protocol instance, which the registry shares across several
cells, so they run once per ``(protocol type, display name, bound)``,
all on the context of its first cell, and their findings are emitted
once.  Infeasible cells are checked too: the registry must *refuse* to
build a protocol there (the paper's impossibility result), and a
protocol coming back anyway is an error.

:func:`lint_protocol` audits one protocol outside the sweep - the entry
point for linting hand-built :class:`~repro.engine.protocol.TableProtocol`
instances, e.g. in tests that seed deliberate bugs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.registry import protocol_for
from repro.core.spec import ModelSpec, all_specs, table1_cell
from repro.engine.protocol import PopulationProtocol
from repro.errors import InfeasibleSpecError
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.rules import RULES, LintBudgets, LintContext, LintRule

#: Default name-range bounds swept by ``repro lint``.
DEFAULT_BOUNDS: tuple[int, ...] = (3, 5, 8)


def select_rules(rule_ids: Sequence[str] | None = None) -> list[LintRule]:
    """Resolve a rule-id selection against the registry.

    ``None`` selects every registered rule.  Unknown ids raise
    ``ValueError`` listing the valid ones, so CLI typos fail loudly
    instead of silently linting nothing.
    """
    if rule_ids is None:
        return list(RULES.values())
    selected = []
    for rule_id in rule_ids:
        if rule_id not in RULES:
            known = ", ".join(sorted(RULES))
            raise ValueError(
                f"unknown lint rule {rule_id!r}; known rules: {known}"
            )
        selected.append(RULES[rule_id])
    return selected


def lint_protocol(
    protocol: PopulationProtocol,
    spec: ModelSpec | None = None,
    bound: int | None = None,
    rules: Sequence[str] | None = None,
    budgets: LintBudgets | None = None,
) -> LintReport:
    """Audit one protocol instance.

    With ``spec``/``bound`` the spec-scope rules (state budget, leader
    discipline, sink discipline) run against that Table 1 cell;
    without them they restrict to their spec-independent checks.
    """
    selected = select_rules(rules)
    ctx = LintContext(
        protocol=protocol,
        spec=spec,
        bound=bound,
        cell=table1_cell(spec) if spec is not None else None,
        budgets=budgets if budgets is not None else LintBudgets(),
        rule_ids=frozenset(r.id for r in selected),
    )
    report = LintReport(
        protocols_checked=1,
        bounds=(bound,) if bound is not None else (),
        rules_run=tuple(r.id for r in selected),
    )
    for lint_rule in selected:
        report.extend(lint_rule.fn(ctx))
    return report


def cached_lint_report(
    protocol: PopulationProtocol,
    spec: ModelSpec | None = None,
    bound: int | None = None,
    rules: Sequence[str] | None = None,
    budgets: LintBudgets | None = None,
    cache=None,
) -> LintReport:
    """:func:`lint_protocol`, memoized in a content-addressed cache.

    ``cache`` is a :class:`repro.serve.cache.ArtifactCache` (or any
    object with its ``get``/``put`` interface).  The report is keyed on
    the protocol's *content* fingerprint plus the audit parameters, so
    equal protocol instances - across processes sharing a cache root -
    reuse one stored report.  Protocols without a fingerprint, or calls
    without a cache, fall through to a plain :func:`lint_protocol`.
    """
    import hashlib

    if cache is None:
        return lint_protocol(protocol, spec, bound, rules, budgets)
    from repro.engine.fast import table_fingerprint

    fingerprint = table_fingerprint(protocol)
    if fingerprint is None:
        return lint_protocol(protocol, spec, bound, rules, budgets)
    parts = (
        "repro-lint-v1",
        fingerprint,
        spec.describe() if spec is not None else "none",
        str(bound),
        ",".join(rules) if rules is not None else "all",
        repr(budgets) if budgets is not None else "default",
    )
    key = hashlib.sha256("\x00".join(parts).encode()).hexdigest()
    stored = cache.get("lint", key)
    if isinstance(stored, LintReport):
        return stored
    report = lint_protocol(protocol, spec, bound, rules, budgets)
    cache.put("lint", key, report)
    return report


def run_lint(
    bounds: Iterable[int] = DEFAULT_BOUNDS,
    rules: Sequence[str] | None = None,
    specs: Iterable[ModelSpec] | None = None,
    budgets: LintBudgets | None = None,
) -> LintReport:
    """Exhaustively audit every protocol the registry can build.

    For each (spec, bound) cell: feasible cells must yield a protocol
    (registry failures are reported, not raised) and the selected rules
    run on it; infeasible cells must raise
    :class:`~repro.errors.InfeasibleSpecError`.
    """
    bounds = tuple(bounds)
    budgets = budgets if budgets is not None else LintBudgets()
    selected = select_rules(rules)
    rule_ids = frozenset(r.id for r in selected)
    spec_list = list(specs) if specs is not None else list(all_specs())
    report = LintReport(
        bounds=bounds, rules_run=tuple(r.id for r in selected)
    )
    # (protocol type, display name, bound, rule id) -> already reported.
    protocol_scope_seen: set[tuple[str, str, int, str]] = set()
    protocols_seen: set[tuple[str, str, int]] = set()
    for spec in spec_list:
        cell = table1_cell(spec)
        for bound in bounds:
            report.cells_checked += 1
            if not cell.feasible:
                diag = _check_infeasible_cell(spec, bound)
                if diag is not None:
                    report.extend([diag])
                continue
            try:
                protocol = protocol_for(spec, bound)
            except Exception as exc:
                report.extend(
                    [
                        Diagnostic(
                            rule="registry",
                            severity=Severity.ERROR,
                            message=(
                                "the registry failed to build a protocol "
                                f"for a feasible cell: {exc!r}"
                            ),
                            protocol="<registry>",
                            spec=spec.describe(),
                            bound=bound,
                        )
                    ]
                )
                continue
            ctx = LintContext(
                protocol=protocol,
                spec=spec,
                bound=bound,
                cell=cell,
                budgets=budgets,
                rule_ids=rule_ids,
            )
            identity = (type(protocol).__name__, protocol.display_name, bound)
            if identity not in protocols_seen:
                protocols_seen.add(identity)
                report.protocols_checked += 1
            for lint_rule in selected:
                if lint_rule.scope == "protocol":
                    key = identity + (lint_rule.id,)
                    if key in protocol_scope_seen:
                        continue
                    protocol_scope_seen.add(key)
                report.extend(lint_rule.fn(ctx))
    return report


def _check_infeasible_cell(spec: ModelSpec, bound: int) -> Diagnostic | None:
    """The registry must refuse infeasible cells (Proposition 9)."""
    try:
        protocol = protocol_for(spec, bound)
    except InfeasibleSpecError:
        return None
    except Exception as exc:
        return Diagnostic(
            rule="registry",
            severity=Severity.ERROR,
            message=(
                "an infeasible cell must raise InfeasibleSpecError, got "
                f"{exc!r}"
            ),
            protocol="<registry>",
            spec=spec.describe(),
            bound=bound,
        )
    return Diagnostic(
        rule="registry",
        severity=Severity.ERROR,
        message=(
            "the registry built a protocol for a cell the paper proves "
            "infeasible (symmetric rules, weak fairness, no leader)"
        ),
        protocol=protocol.display_name,
        spec=spec.describe(),
        bound=bound,
    )
