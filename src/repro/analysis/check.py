"""``repro check``: the symbolic model-checking front end.

Picks a protocol by the same four model parameters as ``repro
simulate``, then verifies any subset of the symbolic properties
(:data:`repro.analysis.symbolic.PROPERTIES`) on the counts-vector
quotient at the requested name bound and population:

``reach``
    No reachable silent configuration carries duplicate names
    (naming-on-silence, the safety core of Definition 1).
``sinks``
    Every reachable sink SCC is free of name-changing internal edges
    and duplicate names - the global-fairness naming condition
    (Prop. 6 discipline).
``liveness``
    Weak-fairness naming: no reachable component lets a weakly fair
    scheduler trap the population while names keep changing or stay
    duplicated (exact, via candidate-SCC fiber expansion).

FAIL verdicts come with a concrete counterexample - an initial
configuration and an explicit meeting schedule - that has already been
replayed and re-checked on the reference simulator before being shown.

Verdicts are memoized through
:class:`repro.serve.cache.ArtifactCache` (pass ``--cache-dir``), keyed
on the protocol's *content* fingerprint plus the instance and property,
mirroring :func:`repro.lint.engine.cached_lint_report`: repeated CI
runs over unchanged protocol tables reuse stored verdicts.

Exit codes: 0 all requested properties hold; 1 a property fails
(counterexample found); 2 the model is infeasible, the bound escapes
the analysis budgets, or the invocation is invalid.
"""

from __future__ import annotations

import argparse
import hashlib
from typing import Sequence

from repro.analysis.symbolic import (
    PROPERTIES,
    SymbolicVerdict,
    check_property,
)
from repro.cli import _add_model_flags, _model, population_size
from repro.core.spec import Fairness, LeaderKind, MobileInit, table1_cell
from repro.engine.protocol import PopulationProtocol
from repro.engine.state import State
from repro.errors import VerificationError

#: Bump when the verdict schema or the checking semantics change, so
#: stale cached verdicts from older versions are never reused.
CACHE_TAG = "repro-check-v1"


def cached_check(
    protocol: PopulationProtocol,
    prop: str,
    n_mobile: int,
    mobile_mode: str = "auto",
    leader_states: Sequence[State] | None = None,
    max_nodes: int = 2_000_000,
    max_roots: int | None = None,
    cache=None,
) -> SymbolicVerdict:
    """:func:`repro.analysis.symbolic.check_property`, memoized.

    ``cache`` is a :class:`repro.serve.cache.ArtifactCache` (or any
    object with its ``get``/``put`` interface).  Verdicts are keyed on
    the protocol's *content* fingerprint plus the instance parameters
    (population, property, root conventions, budgets), so equal
    protocol instances - across processes sharing a cache root - reuse
    one verified result.  Protocols without a fingerprint, or calls
    without a cache, fall through to a plain check.
    """
    kwargs = dict(
        mobile_mode=mobile_mode,
        leader_states=leader_states,
        max_nodes=max_nodes,
        max_roots=max_roots,
    )
    if cache is None:
        return check_property(protocol, prop, n_mobile, **kwargs)
    from repro.engine.fast import table_fingerprint

    fingerprint = table_fingerprint(protocol)
    if fingerprint is None:
        return check_property(protocol, prop, n_mobile, **kwargs)
    parts = (
        CACHE_TAG,
        fingerprint,
        prop,
        str(n_mobile),
        mobile_mode,
        (
            ",".join(sorted(repr(s) for s in leader_states))
            if leader_states is not None
            else "full"
        ),
        str(max_nodes),
        str(max_roots),
    )
    key = hashlib.sha256("\x00".join(parts).encode()).hexdigest()
    stored = cache.get("check", key)
    if isinstance(stored, SymbolicVerdict):
        return stored
    verdict = check_property(protocol, prop, n_mobile, **kwargs)
    cache.put("check", key, verdict)
    return verdict


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro check`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro check",
        description=(
            "Symbolically model-check a naming protocol on the counts "
            "quotient: reachability safety, sink-SCC discipline, and "
            "weak-fairness liveness, with replay-validated "
            "counterexamples."
        ),
    )
    _add_model_flags(parser)
    parser.add_argument(
        "--bound",
        "-P",
        type=int,
        default=8,
        help="name-range bound P (default: %(default)s)",
    )
    parser.add_argument(
        "--n",
        "-N",
        type=population_size,
        default=3,
        help="mobile population size (default: %(default)s)",
    )
    parser.add_argument(
        "--property",
        dest="properties",
        nargs="+",
        choices=PROPERTIES,
        default=None,
        metavar="PROP",
        help=(
            "properties to verify: "
            + ", ".join(PROPERTIES)
            + " (default: the ones the model claims - reach and sinks "
            "always, liveness only under weak fairness, where the "
            "paper's protocols must name under *every* weakly fair "
            "schedule)"
        ),
    )
    parser.add_argument(
        "--max-nodes",
        type=int,
        default=2_000_000,
        help="quotient frontier cap (default: %(default)s)",
    )
    parser.add_argument(
        "--max-roots",
        type=int,
        default=None,
        help=(
            "cap on initial count vectors; exceeding it aborts instead "
            "of silently truncating (default: unlimited)"
        ),
    )
    parser.add_argument(
        "--full-leader-space",
        action="store_true",
        help=(
            "root the frontier in every leader state even for "
            "initialized-leader models (the self-stabilizing reading; "
            "default for non-initialized leaders)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=(
            "memoize verdicts in an artifact cache rooted here, keyed "
            "by protocol content fingerprint"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the verdicts as JSON instead of text",
    )
    return parser


def _witness_lines(verdict: SymbolicVerdict) -> list[str]:
    """Render a FAIL verdict's counterexample as indented text."""
    witness = verdict.witness
    if witness is None:
        return []
    lines = [
        f"    counterexample ({witness.kind}):",
        f"      initial : {witness.initial.states}",
    ]
    meetings = witness.meetings
    head = meetings[: witness.checkpoint]
    tail = meetings[witness.checkpoint:]
    lines.append(
        f"      schedule: {len(head)} meeting(s) to the violation"
        + (f", then {len(tail)} demonstrating recurrence" if tail else "")
    )
    lines.append(f"        reach : {head}")
    if tail:
        label = "rounds" if witness.round_ends else "lasso"
        lines.append(f"        {label:<6}: {tail}")
    lines.append(f"      final   : {witness.final.states}")
    lines.append(f"      violation: {witness.description}")
    return lines


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro check``; returns the exit code."""
    args = build_parser().parse_args(argv)
    model = _model(args)
    if model is None:
        return 2
    spec, protocol = model
    cell = table1_cell(spec)

    # Root conventions mirror the explicit checkers: an initialized
    # leader starts in its designated state; a non-initialized leader
    # (and --full-leader-space) roots in the entire leader space.
    leader_states = None
    if (
        protocol.requires_leader
        and spec.leader is LeaderKind.INITIALIZED
        and not args.full_leader_space
    ):
        designated = protocol.initial_leader_state()
        if designated is not None:
            leader_states = [designated]
    mobile_mode = (
        "uniform" if spec.mobile_init is MobileInit.UNIFORM else "arbitrary"
    )

    cache = None
    if args.cache_dir:
        from repro.serve.cache import ArtifactCache

        cache = ArtifactCache(args.cache_dir)

    properties = args.properties
    if properties is None:
        # The model's own claims: naming-on-silence and sink discipline
        # always; weak-fairness liveness only when the spec promises it
        # (global-fairness protocols may legitimately livelock under a
        # merely weakly fair adversary - e.g. Prop. 13).
        properties = ["reach", "sinks"]
        if spec.fairness is Fairness.WEAK:
            properties.append("liveness")

    verdicts: list[SymbolicVerdict] = []
    for prop in properties:
        try:
            verdict = cached_check(
                protocol,
                prop,
                args.n,
                mobile_mode=mobile_mode,
                leader_states=leader_states,
                max_nodes=args.max_nodes,
                max_roots=args.max_roots,
                cache=cache,
            )
        except VerificationError as exc:
            print(f"check aborted: {prop}: {exc}")
            return 2
        verdicts.append(verdict)

    if args.json:
        from repro.reporting.jsonio import dumps

        print(
            dumps(
                {
                    "model": spec.describe(),
                    "protocol": protocol.display_name,
                    "paper": cell.protocol_ref,
                    "bound": args.bound,
                    "n_mobile": args.n,
                    "verdicts": verdicts,
                }
            )
        )
    else:
        print(f"model   : {spec.describe()}")
        print(f"protocol: {protocol.display_name} ({cell.protocol_ref}), "
              f"P = {args.bound}, N = {args.n}")
        for verdict in verdicts:
            print(verdict.render())
            for line in _witness_lines(verdict):
                print(line)
    return 0 if all(v.holds for v in verdicts) else 1


if __name__ == "__main__":
    raise SystemExit(main())
