"""Protocol 2 / Proposition 16: self-stabilizing symmetric naming under
weak fairness with a (possibly arbitrarily initialized) leader, using
``P + 1`` states per mobile agent.

This is Protocol 1 with three changes:

* mobile states gain one extra value (space ``{0, ..., P}``), so the
  universal sequence becomes ``U* = U_P`` and naming also succeeds for
  ``N = P`` (Theorem 15's observation);
* the line-2 guard relaxes from ``n < P`` to ``n <= P``;
* a *reset* (lines 11-12): when the guess has overshot (``n > P``) and an
  unnamed agent shows up, BST restarts with ``n = k = 0``.  An arbitrarily
  corrupted BST state therefore self-corrects: either naming completes
  without a reset, or the guess grows past ``P`` and exactly one reset
  replays the well-initialized behaviour.

By Theorem 11 this is space optimal: no ``P``-state symmetric protocol can
name arbitrarily initialized agents under weak fairness, even with an
initialized leader.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.counting import SINK_STATE, protocol1_leader_step
from repro.core.usequence import sequence_length
from repro.engine.protocol import PopulationProtocol
from repro.engine.state import LeaderState, State
from repro.errors import ProtocolError


@dataclass(frozen=True)
class SelfStabLeaderState(LeaderState):
    """BST variables of Protocol 2: ``n`` in ``[0, P+1]``, ``k`` in
    ``[0, 2^P]`` - both may start arbitrarily (self-stabilization)."""

    n: int
    k: int


class SelfStabilizingNamingProtocol(PopulationProtocol):
    """Protocol 2: self-stabilizing naming, weak fairness, ``P + 1`` states.

    Mobile states ``{0, ..., P}``, arbitrary initialization of everything
    (mobile agents *and* BST).

    Parameters
    ----------
    bound:
        The known upper bound ``P`` on the number of mobile agents.
    """

    display_name = "self-stabilizing naming, Protocol 2 (Prop. 16)"
    symmetric = True
    requires_leader = True

    def __init__(self, bound: int) -> None:
        if bound < 1:
            raise ProtocolError(f"the bound P must be positive, got {bound}")
        self.bound = bound
        self._mobile = frozenset(range(bound + 1))
        self._leaders: frozenset[State] | None = None
        # The top of the pointer's domain, ``l_P + 1``.
        self._k_cap = sequence_length(bound) + 1

    # -- state spaces ---------------------------------------------------

    def mobile_state_space(self) -> frozenset[State]:
        return self._mobile

    def leader_state_space(self) -> frozenset[State]:
        """All legal BST states (any may occur initially).  Exponential in
        ``P``; enumerate only for small bounds.  Built once per
        instance."""
        if self._leaders is None:
            self._leaders = frozenset(
                SelfStabLeaderState(n, k)
                for n in range(self.bound + 2)
                for k in range(self._k_cap + 1)
            )
        return self._leaders

    def leader_space_size(self) -> int:
        """``(P + 2) * (l_P + 2)`` in closed form (no enumeration)."""
        return (self.bound + 2) * (self._k_cap + 1)

    def initial_leader_state(self) -> SelfStabLeaderState:
        """The ``(0, 0)`` state a freshly deployed BST would use.

        Self-stabilization means correctness does *not* depend on it: the
        protocol converges from every leader state (the test suite checks
        all of them exhaustively for small bounds).
        """
        return SelfStabLeaderState(0, 0)

    # -- transition function -------------------------------------------

    def transition(self, p: State, q: State) -> tuple[State, State]:
        p_leads = isinstance(p, LeaderState)
        q_leads = isinstance(q, LeaderState)
        if p_leads and not q_leads:
            return self._bst_rule(p, q)
        if q_leads and not p_leads:
            leader, name = self._bst_rule(q, p)
            return name, leader
        return self._mobile_rule(p, q)

    def _bst_rule(
        self, leader: SelfStabLeaderState, name: int
    ) -> tuple[SelfStabLeaderState, int]:
        n, k = leader.n, leader.k
        if n <= self.bound and (name == SINK_STATE or name > n):
            # Lines 2-9: the Protocol 1 core with U* = U_P.
            n, k, name = protocol1_leader_step(
                n, k, name, self.bound, self._k_cap
            )
            return SelfStabLeaderState(n, k), name
        if n > self.bound and name == SINK_STATE:
            # Lines 11-12: naming has failed; reset and restart.
            return SelfStabLeaderState(0, 0), name
        return leader, name

    def _mobile_rule(self, p: int, q: int) -> tuple[int, int]:
        """Lines 14-16: interacting homonyms dissolve to the sink."""
        if p == q and p != SINK_STATE:
            return SINK_STATE, SINK_STATE
        return p, q
