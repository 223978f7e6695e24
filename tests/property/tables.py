"""A hypothesis strategy for random table protocols with a leader.

The tables mix well-formed rules with the ill-formed kinds that the
validators, the lint rules and the symbolic compiler must handle: results
outside the declared spaces and rules that move a state across the
mobile/leader role boundary.  Two fixed helpers sit beside it: a table
whose transition raises on chosen pairs, and a leaking table with known
silent homonymous configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import strategies as st

from repro.engine.protocol import TableProtocol
from repro.engine.state import LeaderState


@dataclass(frozen=True)
class Boss(LeaderState):
    """A test leader state."""

    v: int


@st.composite
def random_tables(draw, max_mobile=4, max_leaders=3, wild=True):
    """A random table protocol, optionally mirrored into symmetric rules.

    Each schedulable pair is null, maps into its own roles' declared
    spaces, or (``wild``) maps anywhere in a pool that also holds an
    undeclared mobile and an undeclared leader state.
    """
    n_mobile = draw(st.integers(min_value=1, max_value=max_mobile))
    n_leaders = draw(st.integers(min_value=0, max_value=max_leaders))
    mobile = list(range(n_mobile))
    leaders = [Boss(v) for v in range(n_leaders)]
    anywhere = mobile + leaders + [n_mobile + 5, Boss(n_leaders + 5)]

    def outcome(p, q):
        kinds = ["null", "in-role", "in-role"] + (["any"] if wild else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "null":
            return None
        if kind == "in-role":
            pools = [leaders if isinstance(s, Boss) else mobile for s in (p, q)]
            return tuple(draw(st.sampled_from(pool)) for pool in pools)
        return (draw(st.sampled_from(anywhere)), draw(st.sampled_from(anywhere)))

    pairs = [(p, q) for p in mobile for q in mobile]
    pairs += [(ls, m) for ls in leaders for m in mobile]
    pairs += [(m, ls) for ls in leaders for m in mobile]
    mirrored = draw(st.booleans())
    table = {}
    drawn = set()
    for p, q in pairs:
        if mirrored and (q, p) in drawn:
            if (q, p) not in table:
                continue  # the mirror is null, so this orientation is too
            b, a = table[(q, p)]
            out = (a, b)
        else:
            drawn.add((p, q))
            out = outcome(p, q)
            if out is None:
                continue
            if mirrored and p == q:
                out = (out[0], out[0])
        if out != (p, q):
            table[(p, q)] = out
    return TableProtocol(
        table,
        mobile,
        leaders,
        symmetric=draw(st.booleans()),
        display_name="table fuzz",
    )


class RaisingProtocol(TableProtocol):
    """A table protocol whose transition raises on a set of pairs."""

    def __init__(self, *args, raising=(), **kwargs):
        super().__init__(*args, **kwargs)
        self._raising = set(raising)

    def transition(self, p, q):
        if (p, q) in self._raising:
            raise RuntimeError(f"no rule for {(p, q)!r}")
        return super().transition(p, q)


def homonym_leak_table() -> TableProtocol:
    """Meeting homonyms both leave the declared space ``{0, 1}`` for 7.

    Leaderless, arbitrary initialization.  At ``N = 3`` every start holds
    a homonym pair and so is not silent; the silent configurations
    reached are the six that hold two 7s.
    """
    return TableProtocol(
        {(0, 0): (7, 7), (1, 1): (7, 7)},
        mobile_states=[0, 1],
        display_name="homonym leak",
    )
