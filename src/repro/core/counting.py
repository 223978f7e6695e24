"""Protocol 1: space-optimal counting under weak fairness (from [11],
Beauquier-Burman-Claviere-Sohier, DISC 2015).

This is the substrate both leader-based naming protocols (Protocols 2 and 3)
build on.  The base station BST repeatedly guesses the population size
(variable ``n``), naming zero-state agents along the universal sequence
``U* = U_{P-1}`` (variable ``k`` points into it); interacting homonyms
dissolve to the special state 0, signalling BST that the current guess
failed.  Theorem 15: under weak fairness, with arbitrarily initialized
mobile agents and an initialized BST, ``n`` converges to ``N`` for any
``N <= P``, and for ``N < P`` the agents are moreover left with distinct
names in ``{1, ..., N}``.

Implementation notes
--------------------
* ``U*(k)`` is computed with the ruler-function closed form
  (:func:`repro.core.usequence.u_element`); nothing exponential is stored.
* When the guess increments to its final value the pointer ``k`` may step
  just past ``U_{P-1}``; the ruler value there is ``P``, which does not fit
  the ``P``-state mobile space ``{0, ..., P-1}``.  The agent is then left
  in state 0 - harmless for counting (the guess has already converged), and
  exactly the hook Protocol 3 exploits for the ``N = P`` naming case.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.usequence import sequence_length, u_element
from repro.engine.protocol import PopulationProtocol
from repro.engine.state import LeaderState, State
from repro.errors import ProtocolError

#: The paper's special mobile state: "unnamed / homonym detected".
SINK_STATE = 0


@dataclass(frozen=True)
class CountingLeaderState(LeaderState):
    """BST variables of Protocol 1: the guess ``n`` and the pointer ``k``."""

    n: int
    k: int


def protocol1_leader_step(
    n: int, k: int, name: int, max_name: int, k_cap: int
) -> tuple[int, int, int]:
    """One BST interaction of the Protocol 1 core (lines 3-9).

    Shared by Protocols 1, 2 and 3, which differ only in the line-2 guard
    they apply *before* calling this (``n < P`` vs ``n <= P``), in
    ``max_name`` (``P - 1`` vs ``P``) and in what they wrap around the core.

    ``k_cap`` is the top of the pointer's declared domain (``2^{P-1}`` for
    Protocol 1/3, ``2^P`` for Protocol 2); the increment of line 4
    saturates there.  Along well-initialized executions the cap is never
    hit (the guess freezes first), so this only pins down the behaviour on
    the arbitrary initial BST states self-stabilization must tolerate - in
    that regime any saturated pointer already exceeds every ``l_n``, so the
    guess still races to the reset threshold exactly as in the paper.

    Returns the updated ``(n, k, name)``; callers must only invoke it when
    the line-2 guard (``name == 0`` or ``name > n``) holds.
    """
    if name == SINK_STATE:
        k = min(k + 1, k_cap)  # line 4: advance along U*
    elif name > n:
        k = sequence_length(n) + 1  # line 6: population larger than n
    if k > sequence_length(n):
        n += 1  # line 8
    value = u_element(k) if k >= 1 else SINK_STATE
    # Line 9, guarded against the one-past-the-end overflow (see module
    # docstring): a value outside the mobile space leaves the agent unnamed.
    name = value if value <= max_name else SINK_STATE
    return n, k, name


class CountingProtocol(PopulationProtocol):
    """Protocol 1: counting (and, for ``N < P``, naming) under weak fairness.

    Mobile states ``{0, ..., P-1}`` (arbitrary initialization); BST state
    ``(n, k)`` initialized to ``(0, 0)``.

    Parameters
    ----------
    bound:
        The known upper bound ``P`` on the number of mobile agents.
    """

    display_name = "space-optimal counting, Protocol 1 [11]"
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
        """Reachable BST states: ``n`` in ``[0, P]``, ``k`` in
        ``[0, 2^{P-1}]``.  Exponential in ``P``; enumerate only for small
        bounds (verification and model checking).  Built once per
        instance."""
        if self._leaders is None:
            self._leaders = frozenset(
                CountingLeaderState(n, k)
                for n in range(self.bound + 1)
                for k in range(self._k_cap + 1)
            )
        return self._leaders

    def leader_space_size(self) -> int:
        """``(P + 1) * (k_max + 1)`` in closed form (no enumeration)."""
        return (self.bound + 1) * (self._k_cap + 1)

    def initial_leader_state(self) -> State:
        return CountingLeaderState(0, 0)

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
        self, leader: CountingLeaderState, name: int
    ) -> tuple[CountingLeaderState, int]:
        """Lines 1-9 of Protocol 1."""
        n, k = leader.n, leader.k
        if n < self.bound and (name == SINK_STATE or name > n):
            n, k, name = protocol1_leader_step(
                n, k, name, self.bound - 1, self._k_cap
            )
            return CountingLeaderState(n, k), name
        return leader, name

    def _mobile_rule(self, p: int, q: int) -> tuple[int, int]:
        """Lines 10-12: interacting homonyms dissolve to the sink."""
        if p == q and p != SINK_STATE:
            return SINK_STATE, SINK_STATE
        return p, q
