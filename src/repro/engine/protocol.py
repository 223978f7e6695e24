"""The population-protocol abstraction.

A protocol is a deterministic pairwise transition function over a finite
state space (paper, Section 2).  Concrete protocols subclass
:class:`PopulationProtocol` and implement :meth:`transition` plus the state
space descriptors; validators below check the model-level well-formedness
conditions (determinism is structural, range discipline and symmetry are
checked by enumeration).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import chain, product
from typing import Any, Iterable, NamedTuple, Sequence

from repro.engine.state import State, is_leader_state
from repro.errors import ProtocolError


class PopulationProtocol(ABC):
    """A deterministic population protocol.

    Subclasses must set :attr:`display_name` and :attr:`symmetric` and
    implement the abstract methods.  ``transition`` must be a pure function:
    the engine may call it any number of times for the same inputs.
    """

    #: Human-readable protocol name (used in reports and reprs).
    display_name: str = "population protocol"

    #: Whether the protocol *claims* symmetric transition rules.  Verified
    #: against the actual transition function by :func:`verify_symmetric`.
    symmetric: bool = False

    #: Whether the protocol requires a leader agent in the population.
    requires_leader: bool = False

    @abstractmethod
    def transition(self, p: State, q: State) -> tuple[State, State]:
        """The transition rule ``(p, q) -> (p', q')``.

        ``p`` is the initiator's state and ``q`` the responder's.  Null
        transitions return ``(p, q)`` unchanged.
        """

    @abstractmethod
    def mobile_state_space(self) -> frozenset[State]:
        """The finite set of states a mobile agent may hold."""

    def leader_state_space(self) -> frozenset[State]:
        """The finite set of reachable leader states (empty if leaderless).

        Protocols with a leader must override this; the default reflects a
        leaderless protocol.
        """
        return frozenset()

    def leader_space_size(self) -> int:
        """Number of declared leader states, without enumerating them.

        Size gates (the fast-path table compiler, the symbolic root
        enumerator) consult this *before* materializing
        :meth:`leader_state_space`.  The default counts the enumerated
        space; protocols whose leader space is combinatorially large
        (exponential in the name bound) must override it with the
        closed-form count, or the gate itself triggers the enumeration
        it exists to avoid.
        """
        return len(self.leader_state_space())

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------

    def initial_mobile_state(self) -> State | None:
        """The designated uniform initial mobile state, if the protocol
        relies on uniform initialization; ``None`` for self-stabilizing
        protocols (any mobile state is a legal start)."""
        return None

    def initial_leader_state(self) -> State | None:
        """The designated initial leader state, if the protocol relies on an
        initialized leader; ``None`` otherwise."""
        return None

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def num_mobile_states(self) -> int:
        """The paper's space-complexity measure: states per mobile agent."""
        return len(self.mobile_state_space())

    def is_null(self, p: State, q: State) -> bool:
        """Whether the rule applied to ``(p, q)`` leaves both unchanged."""
        return self.transition(p, q) == (p, q)

    def all_states(self) -> frozenset[State]:
        """Union of mobile and leader state spaces."""
        return self.mobile_state_space() | self.leader_state_space()

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.display_name!r} "
            f"({self.num_mobile_states} mobile states)>"
        )


# ----------------------------------------------------------------------
# Validators
# ----------------------------------------------------------------------


def _state_pairs(protocol: PopulationProtocol) -> Iterable[tuple[State, State]]:
    """Ordered state pairs the engine could ever feed to ``transition``.

    Leader/leader pairs are excluded: a population has at most one leader.
    """
    mobile = sorted(protocol.mobile_state_space(), key=repr)
    leader = sorted(protocol.leader_state_space(), key=repr)
    yield from product(mobile, mobile)
    for ls in leader:
        for ms in mobile:
            yield (ls, ms)
            yield (ms, ls)


class Leak(NamedTuple):
    """A transition that leaves the declared spaces or crosses roles.

    ``before`` is the first position of ``pair`` whose result ``after``
    lies outside the space of ``before``'s role.
    """

    pair: tuple[State, State]
    result: tuple[State, State]
    before: State
    after: State


@dataclass
class PairAudit:
    """What one pass over the schedulable ordered state pairs found.

    ``leaks`` holds the first leaks in :func:`_state_pairs` order, and
    ``raised`` the first pair in that order whose transition raised, if
    the closure scan reached it.  ``asymmetric`` holds asymmetric pairs
    in :func:`_unordered_state_pairs` order, and ``asymmetry_raised`` the
    pair whose raising transition cut that scan short.  Raised entries
    are ``(p, q, exception)``.
    """

    leaks: list[Leak] = field(default_factory=list)
    raised: tuple[State, State, Exception] | None = None
    asymmetric: list[tuple[State, State]] = field(default_factory=list)
    asymmetry_raised: tuple[State, State, Exception] | None = None


def audit_pairs(
    protocol: PopulationProtocol,
    leak_limit: int = 0,
    asym_limit: int | None = 0,
) -> PairAudit:
    """Evaluate each schedulable ordered state pair once, for the closure
    and symmetry scans together.

    The closure scan stops after ``leak_limit`` leaks or at the first
    raising pair; the symmetry scan after ``asym_limit`` asymmetric
    pairs (``None``: never) or at the first pair with a raising
    orientation.  A limit of 0 turns a scan off, and the pass ends once
    both scans have stopped.  The mobile block is evaluated whole, in
    product order, since its mirrored pairs lie in other rows; then each
    leader ``l`` and mobile ``m`` give ``(l, m)`` and ``(m, l)``
    together, which is all both scans need of them, and nothing is kept
    per leader pair.
    """
    audit = PairAudit()
    leaks, asymmetric = audit.leaks, audit.asymmetric
    mobile_space = protocol.mobile_state_space()
    leader_space = protocol.leader_state_space()
    mobile = sorted(mobile_space, key=repr)
    transition = protocol.transition

    def space(state: State) -> frozenset[State]:
        return leader_space if is_leader_state(state) else mobile_space

    def evaluate(p: State, q: State) -> tuple[State, State] | Exception:
        try:
            p2, q2 = transition(p, q)
        except Exception as exc:
            return exc
        return p2, q2

    # Outcomes, or the exception raised, of the mobile pairs by index.
    block: list[list[Any]] = [[evaluate(p, q) for q in mobile] for p in mobile]
    closure_on = leak_limit > 0
    for (p, q), out in zip(product(mobile, mobile), chain(*block)):
        if not closure_on:
            break
        if isinstance(out, Exception):
            audit.raised = (p, q, out)
            closure_on = False
            break
        for before, after in zip((p, q), out):
            if after not in space(before):
                leaks.append(Leak((p, q), out, before, after))
                closure_on = len(leaks) < leak_limit
                break
    symmetry_on = asym_limit is None or asym_limit > 0
    n = len(mobile)
    for a, b in ((a, b) for a in range(n) for b in range(a, n)):
        if not symmetry_on:
            break
        forward, mirrored = block[a][b], block[b][a]
        raised = [out for out in (forward, mirrored) if isinstance(out, Exception)]
        if raised:
            audit.asymmetry_raised = (mobile[a], mobile[b], raised[0])
            symmetry_on = False
        elif forward != mirrored[::-1]:
            asymmetric.append((mobile[a], mobile[b]))
            symmetry_on = asym_limit is None or len(asymmetric) < asym_limit
    if not (closure_on or symmetry_on):
        return audit

    roles = [(m, space(m)) for m in mobile]
    for ls in sorted(leader_space, key=repr):
        lspace = space(ls)
        for ms, mspace in roles:
            try:
                l2, m2 = transition(ls, ms)
            except Exception as exc:
                if closure_on:
                    audit.raised = (ls, ms, exc)
                if symmetry_on:
                    audit.asymmetry_raised = (ls, ms, exc)
                return audit
            if closure_on and (l2 not in lspace or m2 not in mspace):
                escaped = (ls, l2) if l2 not in lspace else (ms, m2)
                leaks.append(Leak((ls, ms), (l2, m2), *escaped))
                closure_on = len(leaks) < leak_limit
                if not (closure_on or symmetry_on):
                    return audit
            try:
                m3, l3 = transition(ms, ls)
            except Exception as exc:
                if closure_on:
                    audit.raised = (ms, ls, exc)
                if symmetry_on:
                    audit.asymmetry_raised = (ls, ms, exc)
                return audit
            if closure_on and (m3 not in mspace or l3 not in lspace):
                escaped = (ms, m3) if m3 not in mspace else (ls, l3)
                leaks.append(Leak((ms, ls), (m3, l3), *escaped))
                closure_on = len(leaks) < leak_limit
            if symmetry_on and (l2, m2) != (l3, m3):
                asymmetric.append((ls, ms))
                symmetry_on = asym_limit is None or len(asymmetric) < asym_limit
            if not (closure_on or symmetry_on):
                return audit
    return audit


def _raise_closure_error(
    protocol: PopulationProtocol, audit: PairAudit
) -> None:
    """Raise :class:`ProtocolError` for the audit's first closure finding."""
    if audit.raised is not None:
        p, q, exc = audit.raised
        raise ProtocolError(
            f"{protocol.display_name}: transition({p!r}, {q!r}) raised {exc!r}"
        ) from exc
    if audit.leaks:
        before, after = audit.leaks[0].before, audit.leaks[0].after
        if is_leader_state(before):
            raise ProtocolError(
                f"{protocol.display_name}: leader state {before!r} "
                f"mapped outside the leader space: {after!r}"
            )
        raise ProtocolError(
            f"{protocol.display_name}: mobile state {before!r} "
            f"mapped outside the mobile space: {after!r}"
        )


def _raise_asymmetry_error(
    protocol: PopulationProtocol, p: State, q: State
) -> None:
    p2, q2 = protocol.transition(p, q)
    q3, p3 = protocol.transition(q, p)
    raise ProtocolError(
        f"{protocol.display_name}: asymmetric rule detected: "
        f"({p!r}, {q!r}) -> ({p2!r}, {q2!r}) but "
        f"({q!r}, {p!r}) -> ({q3!r}, {p3!r})"
    )


def verify_closure(protocol: PopulationProtocol) -> None:
    """Check that every transition stays inside the declared state spaces
    and preserves the mobile/leader role of each position.

    Raises :class:`ProtocolError` on the first violation.
    """
    _raise_closure_error(protocol, audit_pairs(protocol, leak_limit=1))


def _unordered_state_pairs(
    protocol: PopulationProtocol,
) -> Iterable[tuple[State, State]]:
    """One representative per unordered schedulable state pair.

    Symmetry is a property of unordered pairs - ``(p, q)`` violates it
    exactly when ``(q, p)`` does - so the symmetry scans need each pair
    only once.  The diagonal ``(p, p)`` is included (a rule may split two
    equal states asymmetrically).
    """
    mobile = sorted(protocol.mobile_state_space(), key=repr)
    leader = sorted(protocol.leader_state_space(), key=repr)
    for a, p in enumerate(mobile):
        for q in mobile[a:]:
            yield (p, q)
    for ls in leader:
        for ms in mobile:
            yield (ls, ms)


def verify_symmetric(protocol: PopulationProtocol) -> None:
    """Check the paper's symmetry condition on the transition function:
    ``(p, q) -> (p', q')`` implies ``(q, p) -> (q', p')``.

    Raises :class:`ProtocolError` on the first violating pair.  Delegates
    to :func:`asymmetric_witnesses`, which scans each unordered pair once.
    """
    witnesses = asymmetric_witnesses(protocol, limit=1)
    if witnesses:
        _raise_asymmetry_error(protocol, *witnesses[0])


def verify_protocol(protocol: PopulationProtocol) -> None:
    """Run all applicable well-formedness checks on ``protocol``.

    Closure and, for a protocol declared symmetric, symmetry come from
    one :func:`audit_pairs` pass; a closure violation is reported first.
    """
    if protocol.requires_leader and not protocol.leader_state_space():
        raise ProtocolError(
            f"{protocol.display_name}: requires a leader but declares an "
            "empty leader state space"
        )
    audit = audit_pairs(
        protocol, leak_limit=1, asym_limit=1 if protocol.symmetric else 0
    )
    _raise_closure_error(protocol, audit)
    if audit.asymmetry_raised is not None:
        raise audit.asymmetry_raised[2]
    if audit.asymmetric:
        _raise_asymmetry_error(protocol, *audit.asymmetric[0])


def asymmetric_witnesses(
    protocol: PopulationProtocol,
    limit: int | None = None,
) -> list[tuple[State, State]]:
    """Return the pairs on which the protocol behaves asymmetrically.

    Useful for reporting; an empty list means the transition function is
    symmetric regardless of the protocol's declaration.  Each unordered
    pair is scanned - and reported - exactly once, in the canonical order
    of :func:`_unordered_state_pairs` (asymmetry of ``(p, q)`` implies
    asymmetry of ``(q, p)``, so the mirror carries no information).
    ``limit`` stops the scan after that many witnesses.  A transition
    that raises before the scan ends propagates its exception.
    """
    audit = audit_pairs(protocol, asym_limit=limit)
    if audit.asymmetry_raised is not None:
        raise audit.asymmetry_raised[2]
    return audit.asymmetric


class TableProtocol(PopulationProtocol):
    """A protocol defined by an explicit transition table.

    Used by the exhaustive-enumeration lower-bound machinery
    (:mod:`repro.analysis.enumeration`) and handy for tests.  The table maps
    ordered state pairs to ordered state pairs; missing entries are null.
    """

    def __init__(
        self,
        table: dict[tuple[State, State], tuple[State, State]],
        mobile_states: Sequence[State],
        leader_states: Sequence[State] = (),
        symmetric: bool = False,
        display_name: str = "table protocol",
    ) -> None:
        self._table = dict(table)
        self._mobile = frozenset(mobile_states)
        self._leader = frozenset(leader_states)
        self.symmetric = symmetric
        self.requires_leader = bool(self._leader)
        self.display_name = display_name

    def transition(self, p: State, q: State) -> tuple[State, State]:
        return self._table.get((p, q), (p, q))

    def mobile_state_space(self) -> frozenset[State]:
        return self._mobile

    def leader_state_space(self) -> frozenset[State]:
        return self._leader

    @property
    def table(self) -> dict[tuple[State, State], tuple[State, State]]:
        """A copy of the non-null entries of the transition table."""
        return dict(self._table)
