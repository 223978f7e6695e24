"""Protocol 3 / Proposition 17: symmetric naming under global fairness
with an initialized leader and only ``P`` states per mobile agent.

For ``N < P`` this is exactly Protocol 1, which already names the agents
(Theorem 15).  The ``N = P`` case - impossible to name under weak fairness
with ``P`` states (Theorem 11) - is handled by lines 11-16: once the guess
has reached ``P``, BST keeps a pointer ``name_ptr``; meeting an agent named
exactly ``name_ptr`` advances the pointer, meeting anything else renames
that agent to ``name_ptr`` and resets the pointer.  Only the *ordered
sweep* - BST meeting agents named ``0, 1, ..., P-1`` consecutively - drives
the pointer to ``P``, after which every interaction is null: all ``P``
names ``{0, ..., P-1}`` are then in use and distinct.  The ordered sweep is
reachable from every configuration, so global fairness guarantees it
eventually happens.

The sweep's cost under the randomized scheduler grows like ``P^P`` leader
meetings, the price of squeezing into ``P`` states; experiments keep
``N = P`` instances small (the paper makes no time claims).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.counting import SINK_STATE, protocol1_leader_step
from repro.core.usequence import sequence_length
from repro.engine.protocol import PopulationProtocol
from repro.engine.state import LeaderState, State
from repro.errors import ProtocolError


@dataclass(frozen=True)
class GlobalLeaderState(LeaderState):
    """BST variables of Protocol 3: the Protocol 1 pair ``(n, k)`` plus the
    sweep pointer ``name_ptr`` in ``[0, P]``."""

    n: int
    k: int
    name_ptr: int


class GlobalNamingProtocol(PopulationProtocol):
    """Protocol 3: naming under global fairness, initialized leader,
    ``P`` states per (arbitrarily initialized) mobile agent.

    Parameters
    ----------
    bound:
        The known upper bound ``P`` on the number of mobile agents.
    """

    display_name = "global-fairness naming, Protocol 3 (Prop. 17)"
    symmetric = True
    requires_leader = True

    def __init__(self, bound: int) -> None:
        if bound < 1:
            raise ProtocolError(f"the bound P must be positive, got {bound}")
        self.bound = bound
        self._mobile = frozenset(range(bound))
        self._leaders: frozenset[State] | None = None
        # The top of the pointer's domain, ``l_{P-1} + 1`` (1 when P = 1).
        self._k_cap = sequence_length(bound - 1) + 1 if bound > 1 else 1

    # -- state spaces ---------------------------------------------------

    def mobile_state_space(self) -> frozenset[State]:
        return self._mobile

    def leader_state_space(self) -> frozenset[State]:
        """Reachable BST states.  Exponential in ``P``; enumerate only for
        small bounds.  Built once per instance."""
        if self._leaders is None:
            self._leaders = frozenset(
                GlobalLeaderState(n, k, ptr)
                for n in range(self.bound + 1)
                for k in range(self._k_cap + 1)
                for ptr in range(self.bound + 1)
            )
        return self._leaders

    def leader_space_size(self) -> int:
        """``(P + 1)^2 * (k_max + 1)`` in closed form (no enumeration)."""
        return (self.bound + 1) * (self._k_cap + 1) * (self.bound + 1)

    def initial_leader_state(self) -> State:
        return GlobalLeaderState(0, 0, 0)

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
        self, leader: GlobalLeaderState, name: int
    ) -> tuple[GlobalLeaderState, int]:
        n, k, ptr = leader.n, leader.k, leader.name_ptr
        if n < self.bound and (name == SINK_STATE or name > n):
            # Lines 2-9: the Protocol 1 core (counting / naming for N < P).
            n, k, name = protocol1_leader_step(
                n, k, name, self.bound - 1, self._k_cap
            )
            return GlobalLeaderState(n, k, ptr), name
        if n == self.bound and ptr < self.bound:
            # Lines 11-16: the ordered sweep for the N = P case.
            if name == ptr:
                return GlobalLeaderState(n, k, ptr + 1), name
            return GlobalLeaderState(n, k, 0), ptr
        return leader, name

    def _mobile_rule(self, p: int, q: int) -> tuple[int, int]:
        """Lines 18-20: interacting homonyms dissolve to the sink."""
        if p == q and p != SINK_STATE:
            return SINK_STATE, SINK_STATE
        return p, q
