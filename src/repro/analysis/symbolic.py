"""Symbolic frontier model checking on the counts quotient.

The explicit checkers in :mod:`repro.analysis` walk *labelled*
configuration graphs (one node per agent-indexed state vector), which
caps exhaustive verification at tiny populations.  Population protocols
are uniform, so the transition system factors through the *counts
quotient*: a configuration is a vector of per-state counts (plus the
leader's state), and an interaction is a sparse delta on that vector.
This module ports the frontier/fixpoint style of set-based model
checking (reach/react) onto that quotient:

* :class:`CountsSystem` compiles a protocol into packed NumPy transition
  rules - one delta row per non-null ordered state pair, with
  leader-state rules compiled lazily per *encountered* leader state, so
  a 10^4-state leader space costs only what the frontier touches.
* :func:`reach` runs a breadth-first fixpoint over hashed count rows,
  recording predecessor links (for witness paths) and, on request, the
  full edge relation (for SCC analysis).
* :func:`check_reach` / :func:`check_sinks` / :func:`check_liveness`
  decide naming-on-silence, sink-SCC discipline and weak-fairness
  liveness as frontier-intersection / SCC / trap-fixpoint queries.

Every FAIL verdict carries a :class:`SymbolicWitness` - a concrete
initial configuration plus an explicit meeting schedule - and is
replay-validated step by step through the reference
:class:`~repro.engine.simulator.Simulator` before it is reported.

Soundness.  Reachability and sink-SCC discipline are *exact* on the
quotient (uniformity: the labelled graph and the quotient graph have the
same reachable count vectors and corresponding SCC structure).  The
weak-fairness check is exact too, via a two-level scheme: the quotient
frontier finds *candidate* SCCs (an internal name-changing edge or a
duplicate-name member - every labelled failure projects into one), and
only their *fibers* (the labelled configurations over those count
vectors - multinomially many in N, independent of the state bound P)
are expanded for the exact labelled SCC + pair-coverage
characterization of :mod:`repro.analysis.weak_fairness`.  A candidate
without an internal edge is settled from its count row alone: its
fiber has no edges, so it hosts a weakly fair execution iff every
present agent pair has a null orientation.  Agent
anonymity makes the fiber graph permutation-symmetric, which is what
lets a quotient witness path be re-anchored onto a concrete violating
component.  The differential tests gate this equivalence against the
explicit labelled checker on every instance small enough for both.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement, permutations
from typing import Callable, Iterable

import numpy as np

from repro.analysis.model_checker import strongly_connected_components
from repro.engine.configuration import Configuration
from repro.engine.population import Population
from repro.engine.problems import is_silent
from repro.engine.protocol import PopulationProtocol
from repro.engine.state import State, is_leader_state, sort_key
from repro.errors import VerificationError

#: An ordered meeting: (initiator, responder) agent ids.
Meeting = tuple[int, int]

#: Hard ceiling on enumerated initial count vectors when no explicit
#: ``max_roots`` budget is given.  Matches the default frontier cap of
#: :func:`reach` - more roots than that could never be explored anyway,
#: and failing before enumeration keeps protocols whose declared leader
#: space is exponential in the bound from exhausting memory.
MAX_ENUMERATED_ROOTS = 2_000_000


# ----------------------------------------------------------------------
# State closure (frontier-incremental)
# ----------------------------------------------------------------------


def initial_state_sets(protocol: PopulationProtocol) -> tuple[set, set]:
    """The mobile/leader states legal in an initial configuration.

    A designated uniform initial state restricts the set to it; a
    ``None`` designation (the self-stabilizing reading) admits the full
    space.
    """
    designated = protocol.initial_mobile_state()
    mobiles = (
        {designated}
        if designated is not None
        else set(protocol.mobile_state_space())
    )
    leader_designated = protocol.initial_leader_state()
    leaders = (
        {leader_designated}
        if leader_designated is not None
        else set(protocol.leader_state_space())
    )
    return mobiles, leaders


def state_closure(
    protocol: PopulationProtocol,
) -> tuple[set, set] | None:
    """States reachable from the declared initial states, role-split.

    A sound over-approximation of configuration reachability: it tracks
    which *states* can ever occur (ignoring counts), so a state outside
    the closure is unreachable in every population under every
    scheduler.  Frontier-incremental: each newly discovered state is
    paired once against every state known so far, so the total cost is
    O(|closure|^2) transition calls rather than the quadratic-per-
    iteration rescan of a naive fixpoint.  Returns
    ``(mobile_reached, leader_reached)``, or ``None`` when the closure
    escapes the declared spaces (the ``closure`` lint rule reports that
    separately).
    """
    mobile_space = protocol.mobile_state_space()
    leader_space = protocol.leader_state_space()
    mobiles, leaders = initial_state_sets(protocol)
    queue: deque[State] = deque(mobiles)
    queue.extend(leaders)

    def absorb(state: State) -> bool:
        """Intern a freshly produced state; True if it escapes."""
        if is_leader_state(state):
            if state in leaders:
                return False
            if state not in leader_space:
                return True
            leaders.add(state)
        else:
            if state in mobiles:
                return False
            if state not in mobile_space:
                return True
            mobiles.add(state)
        queue.append(state)
        return False

    while queue:
        new = queue.popleft()
        # Pair the new state against everything known, both orders.
        # Leader/leader pairs are unschedulable (one leader) and skipped.
        if is_leader_state(new):
            partners: Iterable[State] = list(mobiles)
        else:
            partners = list(mobiles) + list(leaders)
        for other in partners:
            for x, y in ((new, other), (other, new)):
                if is_leader_state(x) and is_leader_state(y):
                    continue
                for produced in protocol.transition(x, y):
                    if absorb(produced):
                        return None
        if not is_leader_state(new):
            for produced in protocol.transition(new, new):
                if absorb(produced):
                    return None
    return mobiles, leaders


# ----------------------------------------------------------------------
# Compilation: protocol -> packed counts-quotient transition system
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicRule:
    """One non-null interaction rule on the counts quotient.

    ``before``/``after`` are the actual states in (initiator, responder)
    order; ``changes_name`` records whether a mobile participant's
    *projected name* differs across the rule.
    """

    rid: int
    kind: str  # "mm" (mobile-mobile) or "lm" (leader involved)
    before: tuple[State, State]
    after: tuple[State, State]
    changes_name: bool


@dataclass
class _LeaderGroup:
    """Lazily compiled leader-mobile rules for one leader state."""

    #: Mobile state index of the mobile participant, per rule.
    s: np.ndarray
    #: Interned index of the post-interaction leader state, per rule.
    post: np.ndarray
    #: Mobile-counts delta row per rule (leader column zeroed).
    delta: np.ndarray
    #: Global rule id per rule.
    rid: np.ndarray
    #: Whether the (leader, mobile) orientation is non-null, per mobile
    #: state index; same for (mobile, leader).
    nonnull_lf: np.ndarray
    nonnull_mf: np.ndarray
    #: (mobile state index, orientation 0=leader-first) -> rule position.
    rule_pos: dict[tuple[int, int], int]


class CountsSystem:
    """A protocol compiled onto the counts quotient.

    A node is an ``int32`` row of length ``width``: one count per mobile
    state (sorted by :func:`repro.engine.state.sort_key`) plus, for
    leader protocols, a trailing column holding the *interned index* of
    the leader state.  Leader states are interned on first encounter, so
    huge declared leader spaces cost nothing until the frontier reaches
    them.

    Raises :class:`VerificationError` at compile (or lazy leader
    compile) time when a transition leaves the declared mobile space or
    moves a state across the mobile/leader role boundary - the explicit
    checkers have no such precondition, which is exactly why the lint
    ladder falls back to them.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        name_of: Callable[[State], object] | None = None,
    ) -> None:
        self.protocol = protocol
        self.project = name_of if name_of is not None else lambda s: s
        self.mobile: list[State] = sorted(
            protocol.mobile_state_space(), key=sort_key
        )
        if not self.mobile:
            raise VerificationError(
                f"{protocol.display_name}: empty mobile state space"
            )
        self.midx: dict[State, int] = {
            s: i for i, s in enumerate(self.mobile)
        }
        self.M = len(self.mobile)
        self.has_leader = protocol.requires_leader
        self.width = self.M + (1 if self.has_leader else 0)
        self.rules: list[SymbolicRule] = []
        # Interned leader states, discovered lazily.
        self._leaders: list[State] = []
        self._lidx: dict[State, int] = {}
        self._leader_groups: dict[int, _LeaderGroup] = {}
        # Name projection: M x n_names incidence matrix.
        names = [self.project(s) for s in self.mobile]
        name_order = sorted(set(names), key=sort_key)
        name_col = {n: c for c, n in enumerate(name_order)}
        self.name_matrix = np.zeros((self.M, len(name_order)), dtype=np.int32)
        for i, n in enumerate(names):
            self.name_matrix[i, name_col[n]] = 1
        self._compile_mobile_rules()

    # -- compilation ---------------------------------------------------

    def _mobile_index(self, state: State, context: str) -> int:
        idx = self.midx.get(state)
        if idx is None:
            raise VerificationError(
                f"{self.protocol.display_name}: {context} produced "
                f"{state!r}, outside the declared mobile state space"
            )
        return idx

    def _compile_mobile_rules(self) -> None:
        M = self.M
        self._mm_null = np.ones((M, M), dtype=bool)
        self._mm_rule = np.full((M, M), -1, dtype=np.int64)
        mm_i: list[int] = []
        mm_j: list[int] = []
        deltas: list[np.ndarray] = []
        rids: list[int] = []
        for i, p in enumerate(self.mobile):
            for j, q in enumerate(self.mobile):
                p2, q2 = self.protocol.transition(p, q)
                if (p2, q2) == (p, q):
                    continue
                context = f"transition({p!r}, {q!r})"
                if is_leader_state(p2) or is_leader_state(q2):
                    raise VerificationError(
                        f"{self.protocol.display_name}: {context} turned a "
                        "mobile agent into a leader state"
                    )
                i2 = self._mobile_index(p2, context)
                j2 = self._mobile_index(q2, context)
                delta = np.zeros(self.width, dtype=np.int32)
                delta[i] -= 1
                delta[j] -= 1
                delta[i2] += 1
                delta[j2] += 1
                rid = len(self.rules)
                changes = self.project(p2) != self.project(p) or (
                    self.project(q2) != self.project(q)
                )
                self.rules.append(
                    SymbolicRule(rid, "mm", (p, q), (p2, q2), changes)
                )
                self._mm_null[i, j] = False
                self._mm_rule[i, j] = rid
                mm_i.append(i)
                mm_j.append(j)
                deltas.append(delta)
                rids.append(rid)
        self._mm_i = np.asarray(mm_i, dtype=np.int64)
        self._mm_j = np.asarray(mm_j, dtype=np.int64)
        self._mm_delta = (
            np.stack(deltas)
            if deltas
            else np.zeros((0, self.width), dtype=np.int32)
        )
        self._mm_rid = np.asarray(rids, dtype=np.int64)

    def leader_index(self, state: State) -> int:
        """Intern a leader state, assigning it a stable row value."""
        idx = self._lidx.get(state)
        if idx is None:
            if not is_leader_state(state):
                raise VerificationError(
                    f"{self.protocol.display_name}: {state!r} is not a "
                    "leader state"
                )
            idx = len(self._leaders)
            self._leaders.append(state)
            self._lidx[state] = idx
        return idx

    def leader_state(self, index: int) -> State:
        """The leader state interned at ``index``."""
        return self._leaders[index]

    def leader_group(self, index: int) -> _LeaderGroup:
        """The (lazily compiled) leader-mobile rules for one leader."""
        group = self._leader_groups.get(index)
        if group is not None:
            return group
        leader = self._leaders[index]
        s_list: list[int] = []
        post_list: list[int] = []
        delta_list: list[np.ndarray] = []
        rid_list: list[int] = []
        nonnull_lf = np.zeros(self.M, dtype=bool)
        nonnull_mf = np.zeros(self.M, dtype=bool)
        rule_pos: dict[tuple[int, int], int] = {}
        for i, m in enumerate(self.mobile):
            for orient, args in enumerate(((leader, m), (m, leader))):
                out = self.protocol.transition(*args)
                if out == args:
                    continue
                context = f"transition({args[0]!r}, {args[1]!r})"
                if orient == 0:
                    leader2, m2 = out
                else:
                    m2, leader2 = out
                if not is_leader_state(leader2) or is_leader_state(m2):
                    raise VerificationError(
                        f"{self.protocol.display_name}: {context} moved a "
                        "state across the mobile/leader role boundary"
                    )
                i2 = self._mobile_index(m2, context)
                delta = np.zeros(self.width, dtype=np.int32)
                delta[i] -= 1
                delta[i2] += 1
                rid = len(self.rules)
                self.rules.append(
                    SymbolicRule(
                        rid,
                        "lm",
                        args,
                        out,
                        self.project(m2) != self.project(m),
                    )
                )
                rule_pos[(i, orient)] = len(s_list)
                (nonnull_lf if orient == 0 else nonnull_mf)[i] = True
                s_list.append(i)
                post_list.append(self.leader_index(leader2))
                delta_list.append(delta)
                rid_list.append(rid)
        group = _LeaderGroup(
            s=np.asarray(s_list, dtype=np.int64),
            post=np.asarray(post_list, dtype=np.int64),
            delta=(
                np.stack(delta_list)
                if delta_list
                else np.zeros((0, self.width), dtype=np.int32)
            ),
            rid=np.asarray(rid_list, dtype=np.int64),
            nonnull_lf=nonnull_lf,
            nonnull_mf=nonnull_mf,
            rule_pos=rule_pos,
        )
        self._leader_groups[index] = group
        return group

    # -- encoding ------------------------------------------------------

    def encode(self, config: Configuration) -> np.ndarray:
        """The count row of a labelled configuration."""
        row = np.zeros(self.width, dtype=np.int32)
        for s in config.mobile_states:
            row[self._mobile_index(s, "configuration")] += 1
        if self.has_leader:
            row[self.M] = self.leader_index(config.leader_state)
        return row

    def decode(self, row: np.ndarray, population: Population) -> Configuration:
        """A canonical labelled representative of a count row."""
        mobiles: list[State] = []
        for i in range(self.M):
            mobiles.extend([self.mobile[i]] * int(row[i]))
        leader = (
            self._leaders[int(row[self.M])] if self.has_leader else None
        )
        return Configuration.from_states(population, mobiles, leader)

    def count_summary(self, row: np.ndarray) -> dict[str, int]:
        """JSON-friendly rendering of a count row."""
        summary = {
            repr(self.mobile[i]): int(row[i])
            for i in range(self.M)
            if row[i]
        }
        if self.has_leader:
            summary["leader"] = repr(self._leaders[int(row[self.M])])
        return summary

    # -- roots ---------------------------------------------------------

    def root_matrix(
        self,
        n_mobile: int,
        mobile_mode: str = "auto",
        leader_states: Iterable[State] | None = None,
        max_roots: int | None = None,
    ) -> np.ndarray:
        """Initial count rows for a population of ``n_mobile`` agents.

        ``mobile_mode``: ``"uniform"`` puts all agents in the designated
        initial state (every uniform value when none is designated),
        ``"arbitrary"`` enumerates all multisets, ``"auto"`` picks
        uniform exactly when the protocol designates an initial state.
        ``leader_states`` defaults to the full declared leader space for
        arbitrary mobile init (the self-stabilizing reading) and to the
        designated initial leader (when one exists) for uniform init,
        matching the explicit root enumerators in
        :mod:`repro.analysis.reachability`.
        """
        if mobile_mode == "auto":
            mobile_mode = (
                "uniform"
                if self.protocol.initial_mobile_state() is not None
                else "arbitrary"
            )
        if mobile_mode == "uniform":
            designated = self.protocol.initial_mobile_state()
            values = [designated] if designated is not None else self.mobile
            mobile_rows = np.zeros((len(values), self.M), dtype=np.int32)
            for k, value in enumerate(values):
                i = self._mobile_index(value, "initial state")
                mobile_rows[k, i] = n_mobile
        elif mobile_mode == "arbitrary":
            count = _multiset_count(self.M, n_mobile)
            if max_roots is not None and count > max_roots:
                raise VerificationError(
                    f"{count} initial count vectors exceed the root "
                    f"budget of {max_roots}"
                )
            # One multiset per row, in combinations_with_replacement order.
            members = np.fromiter(
                chain.from_iterable(
                    combinations_with_replacement(range(self.M), n_mobile)
                ),
                dtype=np.intp,
                count=count * n_mobile,
            )
            mobile_rows = np.zeros((count, self.M), dtype=np.int32)
            np.add.at(
                mobile_rows,
                (np.repeat(np.arange(count), n_mobile), members),
                1,
            )
        else:
            raise ValueError(f"unknown mobile_mode {mobile_mode!r}")
        if not self.has_leader:
            roots = mobile_rows
        else:
            if leader_states is None:
                # Mirror the explicit root conventions: arbitrary mobile
                # init reads self-stabilizing (full leader space);
                # uniform init starts from the designated leader when
                # one exists.
                designated_leader = (
                    self.protocol.initial_leader_state()
                    if mobile_mode == "uniform"
                    else None
                )
                if designated_leader is not None:
                    leader_states = [designated_leader]
                else:
                    # Fail fast on the closed-form size hint before
                    # materializing a leader space that is exponential
                    # in the name bound.
                    size = self.protocol.leader_space_size()
                    total = len(mobile_rows) * size
                    cap = (
                        max_roots
                        if max_roots is not None
                        else MAX_ENUMERATED_ROOTS
                    )
                    if total > cap:
                        raise VerificationError(
                            f"{total} initial count vectors ({size} "
                            f"declared leader states) exceed the root "
                            f"budget of {cap}; pass leader_states or "
                            "lower the bound"
                        )
                    leader_states = sorted(
                        self.protocol.leader_state_space(), key=sort_key
                    )
            leader_idx = np.asarray(
                [self.leader_index(s) for s in leader_states], dtype=np.int32
            )
            if not len(leader_idx):
                raise VerificationError("no leader states to initialize from")
            # Every mobile row with every leader, mobile-major.
            roots = np.empty(
                (len(mobile_rows) * len(leader_idx), self.width),
                dtype=np.int32,
            )
            roots[:, : self.M] = np.repeat(
                mobile_rows, len(leader_idx), axis=0
            )
            roots[:, self.M] = np.tile(leader_idx, len(mobile_rows))
        if max_roots is not None and len(roots) > max_roots:
            raise VerificationError(
                f"{len(roots)} initial count vectors exceed the root "
                f"budget of {max_roots}"
            )
        return roots


def _multiset_count(m: int, n: int) -> int:
    """C(m + n - 1, n): multisets of size n over m states."""
    from math import comb

    return comb(m + n - 1, n)


# ----------------------------------------------------------------------
# Frontier fixpoint reachability
# ----------------------------------------------------------------------


@dataclass
class ReachSet:
    """The reachable fragment of the counts quotient.

    ``levels`` holds the count rows of each BFS level as one matrix, in
    node-id order, and :attr:`rows` stacks them (node ``k`` is
    ``rows[k]``); ``index`` maps packed rows to node ids.
    ``pred``/``pred_rule`` form the BFS predecessor forest (roots carry
    ``-1``), from which :func:`path_to` extracts shortest witness paths.
    When the reach ran with ``track_edges=True`` the full edge relation
    is kept as ``int64`` arrays for SCC/liveness analysis.
    """

    system: CountsSystem
    levels: list[np.ndarray]
    index: dict[bytes, int]
    n_roots: int
    pred: list[int]
    pred_rule: list[int]
    edges_src: np.ndarray | None = None
    edges_dst: np.ndarray | None = None
    edges_rule: np.ndarray | None = None

    @property
    def rows(self) -> np.ndarray:
        """Every node's count row; the levels are stacked on first use."""
        if len(self.levels) > 1:
            self.levels = [np.concatenate(self.levels)]
        return self.levels[0]

    @property
    def n_nodes(self) -> int:
        return len(self.pred)

    @property
    def n_edges(self) -> int:
        return len(self.edges_src) if self.edges_src is not None else 0

    def node_of(self, row: np.ndarray) -> int | None:
        """The node id of a count row, or ``None`` if unreachable."""
        return self.index.get(row.astype(np.int32).tobytes())

    def path_to(self, node: int) -> tuple[int, list[int]]:
        """(root node, rule ids) of the BFS path reaching ``node``."""
        rids: list[int] = []
        here = node
        while self.pred[here] >= 0:
            rids.append(self.pred_rule[here])
            here = self.pred[here]
        rids.reverse()
        return here, rids


def _intern(
    index: dict[bytes, int], keys: list[bytes], max_nodes: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Give the unseen ``keys`` node ids in order of first appearance.

    Returns the node id of every key and the positions of the first
    occurrence of each new id, in id order.  Raises
    :class:`VerificationError` when the new ids would take the node
    count past ``max_nodes``.
    """
    base = len(index)
    fresh = [k for k in dict.fromkeys(keys) if k not in index]
    if fresh and max_nodes is not None and base + len(fresh) > max_nodes:
        raise VerificationError(
            f"symbolic frontier exceeded {max_nodes} nodes; use a smaller "
            "instance"
        )
    index.update(zip(fresh, range(base, base + len(fresh))))
    ids = np.fromiter(
        map(index.__getitem__, keys), dtype=np.int64, count=len(keys)
    )
    new = np.flatnonzero(ids >= base)
    if len(new) > len(fresh):  # a new key repeats: keep its first place
        new = new[np.unique(ids[new], return_index=True)[1]]
    return ids, new


def _successor_batches(
    system: CountsSystem, level: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """``(source rows, successor rows, rule id)`` for each rule enabled
    somewhere in ``level``: mobile-mobile rules first, then the leader
    rules bucketed by the level's leader values in increasing order."""
    M = system.M
    batches = []
    for t in range(len(system._mm_rid)):
        i = system._mm_i[t]
        j = system._mm_j[t]
        if i == j:
            mask = level[:, i] >= 2
        else:
            mask = (level[:, i] >= 1) & (level[:, j] >= 1)
        src = np.flatnonzero(mask)
        if len(src):
            succ = level[src] + system._mm_delta[t]
            batches.append((src, succ, int(system._mm_rid[t])))
    if system.has_leader:
        lv = level[:, M]
        for li in np.unique(lv):
            sel = np.flatnonzero(lv == li)
            group = system.leader_group(int(li))
            for g in range(len(group.rid)):
                src = sel[level[sel, group.s[g]] >= 1]
                if not len(src):
                    continue
                succ = level[src] + group.delta[g]
                succ[:, M] = group.post[g]
                batches.append((src, succ, int(group.rid[g])))
    return batches


def reach(
    system: CountsSystem,
    roots: np.ndarray,
    max_nodes: int = 2_000_000,
    track_edges: bool = False,
) -> ReachSet:
    """Breadth-first frontier fixpoint over the counts quotient.

    Successors are generated rule-batched: each compiled rule applies
    its guard mask and delta row to the whole frontier level at once,
    and each batch is deduplicated against the visited set with dict
    operations on its packed rows.  New nodes are numbered in order of
    first appearance, batch by batch.  Raises :class:`VerificationError`
    when the reachable set exceeds ``max_nodes``.
    """
    roots = np.ascontiguousarray(roots, dtype=np.int32)
    packed = np.dtype((np.void, roots.itemsize * system.width))

    def keys_of(block: np.ndarray) -> list[bytes]:
        return block.view(packed).ravel().tolist()

    index: dict[bytes, int] = {}
    _, first = _intern(index, keys_of(roots), None)
    if not len(first):
        raise VerificationError("no initial count vectors supplied")
    level = roots[first]
    rs = ReachSet(
        system=system,
        levels=[level],
        index=index,
        n_roots=len(level),
        pred=[-1] * len(level),
        pred_rule=[-1] * len(level),
    )
    edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    start = 0  # node id of the level's first row
    while True:
        fresh: list[np.ndarray] = []
        # All of a level's batches are built before any is interned, so
        # an error compiling its leader rules comes before the node cap.
        for src_local, succ, rid in _successor_batches(system, level):
            tgt, new = _intern(index, keys_of(succ), max_nodes)
            src = src_local + start
            if len(new):
                fresh.append(succ[new])
                rs.pred.extend(src[new].tolist())
                rs.pred_rule.extend([rid] * len(new))
            if track_edges:
                edges.append((src, tgt, np.full(len(tgt), rid, np.int64)))
        if not fresh:
            break
        start += len(level)
        level = np.concatenate(fresh)
        rs.levels.append(level)
    if track_edges:
        parts = list(zip(*edges)) or [[np.zeros(0, dtype=np.int64)]] * 3
        rs.edges_src, rs.edges_dst, rs.edges_rule = (
            np.concatenate(part) for part in parts
        )
    return rs


# ----------------------------------------------------------------------
# Node-level predicates (vectorized)
# ----------------------------------------------------------------------


def silent_mask(rs: ReachSet) -> np.ndarray:
    """Per-node: no non-null interaction is enabled (silence)."""
    system = rs.system
    N = rs.rows
    enabled = np.zeros(len(N), dtype=bool)
    for t in range(len(system._mm_rid)):
        i = system._mm_i[t]
        j = system._mm_j[t]
        if i == j:
            enabled |= N[:, i] >= 2
        else:
            enabled |= (N[:, i] >= 1) & (N[:, j] >= 1)
    if system.has_leader:
        lv = N[:, system.M]
        for li in np.unique(lv):
            sel = np.nonzero(lv == li)[0]
            group = system.leader_group(int(li))
            sub = np.zeros(len(sel), dtype=bool)
            for g in range(len(group.rid)):
                sub |= N[sel, group.s[g]] >= 1
            enabled[sel] |= sub
    return ~enabled


def duplicate_mask(rs: ReachSet) -> np.ndarray:
    """Per-node: two mobile agents share a projected name."""
    counts = rs.rows[:, : rs.system.M]
    names = rs.system.name_matrix
    if names.shape[1] == names.shape[0]:
        # An injective projection only permutes the count columns.
        return (counts >= 2).any(axis=1)
    return ((counts @ names) >= 2).any(axis=1)


def parking_mask(rs: ReachSet) -> np.ndarray:
    """Per-node: every agent pair present has a null orientation.

    At such a row a weakly fair scheduler can meet every pair without
    changing a state, so an execution may stay there forever.  Mobile
    states ``i, j`` form a present pair when both occur (``i == j``:
    twice) and are null if ``(i, j)`` or ``(j, i)`` is; the leader and a
    present state ``i`` are null unless both orientations fire.  Not
    silence: with asymmetric rules a pair may be null one way only.
    """
    system = rs.system
    M = system.M
    N = rs.rows
    counts = N[:, :M]
    present = counts >= 1
    blocked = ~(system._mm_null | system._mm_null.T)
    parks = ~((counts >= 2) & np.diag(blocked)).any(axis=1)
    np.fill_diagonal(blocked, False)
    parks &= ~(present & (present @ blocked)).any(axis=1)
    if system.has_leader:
        lv = N[:, M]
        stuck = np.zeros((int(lv.max()) + 1, M), dtype=bool)
        for li in np.unique(lv):
            group = system.leader_group(int(li))
            stuck[li] = group.nonnull_lf & group.nonnull_mf
        parks &= ~(present & stuck[lv]).any(axis=1)
    return parks


# ----------------------------------------------------------------------
# SCC analysis over the packed graph
# ----------------------------------------------------------------------


def _adjacency(
    n_nodes: int, edges_src: np.ndarray, edges_dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated CSR adjacency (offsets, targets), each node's
    targets in increasing order."""
    keys = np.unique(
        np.asarray(edges_src, dtype=np.int64) * n_nodes
        + np.asarray(edges_dst, dtype=np.int64)
    )
    offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(keys // n_nodes, minlength=n_nodes), out=offsets[1:]
    )
    return offsets, keys % n_nodes


def symbolic_sccs(rs: ReachSet) -> list[list[int]]:
    """SCCs of the reached quotient (requires ``track_edges=True``).

    The search starts from node ids in increasing order and visits each
    node's distinct targets in increasing order, so the component order
    of :func:`~repro.analysis.model_checker.strongly_connected_components`
    (each component before any that reaches it) is deterministic.
    """
    if rs.edges_src is None or rs.edges_dst is None:
        raise VerificationError(
            "SCC analysis needs a reach with track_edges=True"
        )
    offsets, targets = _adjacency(rs.n_nodes, rs.edges_src, rs.edges_dst)
    # Python lists: the search indexes them one element at a time,
    # which NumPy arrays make several times slower.
    bounds = offsets.tolist()
    flat = targets.tolist()
    successors = [flat[bounds[k]:bounds[k + 1]] for k in range(rs.n_nodes)]
    return strongly_connected_components(
        range(rs.n_nodes), successors.__getitem__
    )


@dataclass
class _Components:
    """The SCCs of a reach set, with its edges labelled by component.

    ``src``/``dst``/``rid`` are the recorded edges as arrays.  Per edge,
    ``internal`` says both ends lie in one component, and ``live`` that
    the edge is internal and its rule changes a projected name.
    """

    members: list[list[int]]
    comp_of: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    rid: np.ndarray
    internal: np.ndarray
    live: np.ndarray


def _components(rs: ReachSet) -> _Components:
    """:func:`symbolic_sccs` plus the per-edge bookkeeping that the sink
    and liveness checks share."""
    members = symbolic_sccs(rs)
    comp_of = np.zeros(rs.n_nodes, dtype=np.int64)
    for cid, comp in enumerate(members):
        comp_of[comp] = cid
    src = np.asarray(rs.edges_src, dtype=np.int64)
    dst = np.asarray(rs.edges_dst, dtype=np.int64)
    rid = np.asarray(rs.edges_rule, dtype=np.int64)
    changes = np.asarray(
        [r.changes_name for r in rs.system.rules], dtype=bool
    )
    internal = comp_of[src] == comp_of[dst]
    return _Components(
        members, comp_of, src, dst, rid, internal, internal & changes[rid]
    )


# ----------------------------------------------------------------------
# Witnesses: lifting quotient paths to replayable labelled schedules
# ----------------------------------------------------------------------


@dataclass
class SymbolicWitness:
    """A replayable counterexample extracted from the quotient.

    ``meetings`` is an explicit (initiator, responder) schedule from
    ``initial``; ``checkpoint`` is the index into ``meetings`` after
    which the execution first sits on the violating count vector
    (``violating_counts``); the remaining meetings (a quotient lasso or
    the fairness rounds of a liveness witness) demonstrate recurrence.
    :func:`replay_witness` re-executes the schedule on the reference
    simulator and re-checks the claimed violation.
    """

    kind: str
    initial: Configuration
    meetings: list[Meeting]
    checkpoint: int
    final: Configuration
    violating_counts: dict[str, int]
    description: str
    #: Liveness only: meeting-index boundaries of the fairness rounds.
    round_ends: list[int] = field(default_factory=list)


class _Lifter:
    """Realizes quotient rules as concrete agent meetings."""

    def __init__(
        self, system: CountsSystem, population: Population, config: Configuration
    ) -> None:
        self.system = system
        self.population = population
        self.config = config
        self.meetings: list[Meeting] = []

    def _agent_in(self, state: State, exclude: int = -1) -> int:
        for agent in range(self.population.n_mobile):
            if agent != exclude and self.config.state_of(agent) == state:
                return agent
        raise VerificationError(
            f"no mobile agent in state {state!r} to realize a rule"
        )

    def apply_rule(self, rule: SymbolicRule) -> None:
        """Pick agents matching the rule's reactants and interact them."""
        p, q = rule.before
        if rule.kind == "mm":
            x = self._agent_in(p)
            y = self._agent_in(q, exclude=x)
        elif is_leader_state(p):
            x = self.population.leader
            y = self._agent_in(q)
        else:
            x = self._agent_in(p)
            y = self.population.leader
        self.meet(x, y)

    def meet(self, initiator: int, responder: int) -> None:
        """Schedule one meeting (null or not) and apply its outcome."""
        p = self.config.state_of(initiator)
        q = self.config.state_of(responder)
        outcome = self.system.protocol.transition(p, q)
        self.meetings.append((initiator, responder))
        if outcome != (p, q):
            self.config = self.config.apply(initiator, responder, outcome)

    def quotient_node(self, rs: ReachSet) -> int:
        node = rs.node_of(self.system.encode(self.config))
        if node is None:
            raise VerificationError(
                "lifted execution left the reached quotient"
            )
        return node


def lift_path(
    rs: ReachSet, node: int, population: Population
) -> tuple[Configuration, list[Meeting], Configuration]:
    """Realize the BFS witness path to ``node`` as concrete meetings.

    Returns ``(initial, meetings, final)``; the final labelled
    configuration's counts equal ``rs.rows[node]``.
    """
    root, rids = rs.path_to(node)
    initial = rs.system.decode(rs.rows[root], population)
    lifter = _Lifter(rs.system, population, initial)
    for rid in rids:
        lifter.apply_rule(rs.system.rules[rid])
    if not np.array_equal(rs.system.encode(lifter.config), rs.rows[node]):
        raise VerificationError(
            "witness path lifting diverged from the quotient"
        )  # internal consistency; never expected
    return initial, lifter.meetings, lifter.config


def _quotient_bfs(
    rs: ReachSet,
    start: int,
    goal: Callable[[int], bool],
    members: set[int],
) -> list[int]:
    """Rule ids of a shortest in-``members`` path from ``start`` to a
    node satisfying ``goal`` (start included)."""
    if goal(start):
        return []
    seen = {start}
    queue: deque[tuple[int, list[int]]] = deque([(start, [])])
    while queue:
        node, path = queue.popleft()
        for tgt, rid in _enabled_rules(rs, node):
            if tgt not in members or tgt in seen:
                continue
            if goal(tgt):
                return path + [rid]
            seen.add(tgt)
            queue.append((tgt, path + [rid]))
    raise VerificationError("no in-component path to the requested node")


def _enabled_rules(rs: ReachSet, node: int) -> list[tuple[int, int]]:
    """(target node, rule id) for every rule enabled at ``node``."""
    system = rs.system
    row = rs.rows[node]
    out: list[tuple[int, int]] = []
    for t in range(len(system._mm_rid)):
        i = system._mm_i[t]
        j = system._mm_j[t]
        need = 2 if i == j else 1
        if row[i] < need or row[j] < 1:
            continue
        tgt = rs.node_of(row + system._mm_delta[t])
        if tgt is not None:
            out.append((tgt, int(system._mm_rid[t])))
    if system.has_leader:
        group = system.leader_group(int(row[system.M]))
        for g in range(len(group.rid)):
            if row[group.s[g]] < 1:
                continue
            succ = row + group.delta[g]
            succ[system.M] = group.post[g]
            tgt = rs.node_of(succ)
            if tgt is not None:
                out.append((tgt, int(group.rid[g])))
    return out


def replay_witness(
    protocol: PopulationProtocol,
    population: Population,
    witness: SymbolicWitness,
    name_of: Callable[[State], object] | None = None,
) -> bool:
    """Replay a witness schedule through the reference simulator and
    re-check its claims.

    The schedule runs on :class:`~repro.engine.simulator.Simulator` with
    a :class:`~repro.schedulers.adversarial.FixedSequenceScheduler`, so
    the counterexample is validated against the same engine the
    experiments use, not against this module's own arithmetic.
    """
    from repro.engine.simulator import Simulator
    from repro.schedulers.adversarial import FixedSequenceScheduler

    project = name_of if name_of is not None else lambda s: s
    if not witness.meetings:
        # A root is itself the violation; nothing to schedule.
        return _witness_claims_hold(
            protocol, witness, witness.initial, project
        )
    scheduler = FixedSequenceScheduler(population, witness.meetings)
    simulator = Simulator(protocol, population, scheduler, problem=None)
    result = simulator.run(
        witness.initial, max_interactions=len(witness.meetings)
    )
    final = result.final_configuration
    if final != witness.final:
        return False
    return _witness_claims_hold(protocol, witness, final, project)


def _witness_claims_hold(
    protocol: PopulationProtocol,
    witness: SymbolicWitness,
    final: Configuration,
    project: Callable[[State], object],
) -> bool:
    """Re-derive the violation claims on the replayed configuration."""

    def names(config: Configuration) -> tuple:
        return tuple(project(s) for s in config.mobile_states)

    def has_duplicates(config: Configuration) -> bool:
        ns = names(config)
        return len(set(ns)) != len(ns)

    # Re-walk the schedule with bare transition applications to inspect
    # the checkpoint configuration and the per-round behavior.
    config = witness.initial
    checkpoint_config = config if witness.checkpoint == 0 else None
    changed_after = False
    round_pairs: set[frozenset] = set()
    round_changed = False
    rounds_ok = True
    round_ends = list(witness.round_ends)
    for k, (x, y) in enumerate(witness.meetings):
        p, q = config.state_of(x), config.state_of(y)
        outcome = protocol.transition(p, q)
        if outcome != (p, q):
            before = names(config)
            config = config.apply(x, y, outcome)
            if k >= witness.checkpoint and names(config) != before:
                changed_after = True
                round_changed = True
        if k >= witness.checkpoint:
            round_pairs.add(frozenset((x, y)))
        if round_ends and k == round_ends[0] - 1:
            round_ends.pop(0)
            all_pairs = {
                frozenset(p)
                for p in Population(
                    len(witness.initial.mobile_states),
                    witness.initial.has_leader,
                ).unordered_pairs()
            }
            if round_pairs < all_pairs:
                rounds_ok = False
            if witness.kind == "weak-livelock" and not round_changed:
                rounds_ok = False
            round_pairs = set()
            round_changed = False
        if k + 1 == witness.checkpoint:
            checkpoint_config = config
    if checkpoint_config is None:
        checkpoint_config = config
    if config != final:
        return False

    kind = witness.kind
    if kind == "silent-duplicates":
        return is_silent(protocol, final) and has_duplicates(final)
    if kind in ("sink-livelock", "sink-duplicates"):
        # The lasso must return to the checkpoint's equivalence class
        # (same mobile multiset and leader state - the quotient node).
        same_class = checkpoint_config.is_equivalent(final)
        if kind == "sink-livelock":
            return same_class and changed_after
        return has_duplicates(checkpoint_config) and not changed_after
    if kind in ("weak-livelock", "weak-duplicates"):
        if not rounds_ok:
            return False
        if kind == "weak-livelock":
            return changed_after
        return not changed_after and has_duplicates(final)
    return False


# ----------------------------------------------------------------------
# Weak-fairness liveness on the fiber of a candidate SCC
# ----------------------------------------------------------------------


def _fiber_assignments(
    system: CountsSystem, row: np.ndarray, population: Population
) -> list[Configuration]:
    """All labelled configurations whose counts vector is ``row``."""
    states: list[State] = []
    for i, s in enumerate(system.mobile):
        states.extend([s] * int(row[i]))
    leader = (
        system.leader_state(int(row[system.M]))
        if system.has_leader
        else None
    )
    seen: set[tuple] = set()
    out: list[Configuration] = []
    for perm in permutations(states):
        if perm in seen:
            continue
        seen.add(perm)
        out.append(
            Configuration.from_states(population, list(perm), leader)
        )
    return out


@dataclass
class _FiberGraph:
    """The labelled meeting graph over one quotient SCC's fiber.

    Keys are full labelled state tuples (``Configuration.states``);
    edges keep only meetings whose outcome stays over the SCC, which is
    exactly the subgraph a weakly fair execution confined to the SCC can
    use.
    """

    configs: dict  # key -> Configuration
    nulls: dict  # key -> set of frozenset agent pairs with a null meeting
    edges: dict  # key -> list of (target key, x, y, changes_name)
    components: list  # list of key lists (labelled SCCs)
    comp_of: dict  # key -> component index
    kinds: dict  # component index -> "weak-livelock" | "weak-duplicates"


def _fiber_graph(
    rs: ReachSet,
    comp: list[int],
    population: Population,
    max_fiber: int,
) -> _FiberGraph:
    """Expand one candidate quotient SCC into its labelled fiber and run
    the exact weak-fairness SCC + pair-coverage analysis on it."""
    system = rs.system
    protocol = system.protocol
    project = system.project
    comp_set = set(comp)
    configs: dict = {}
    for node in comp:
        for cfg in _fiber_assignments(system, rs.rows[node], population):
            configs[cfg.states] = cfg
        if len(configs) > max_fiber:
            raise VerificationError(
                f"{protocol.display_name}: labelled fiber of a candidate "
                f"component exceeded {max_fiber} configurations; use a "
                "smaller population or raise max_fiber"
            )
    nulls: dict = {key: set() for key in configs}
    edges: dict = {key: [] for key in configs}
    for key, cfg in configs.items():
        names = tuple(project(s) for s in cfg.mobile_states)
        for x, y in population.ordered_pairs():
            p, q = cfg.state_of(x), cfg.state_of(y)
            outcome = protocol.transition(p, q)
            if outcome == (p, q):
                nulls[key].add(frozenset((x, y)))
                continue
            after = cfg.apply(x, y, outcome)
            if rs.node_of(system.encode(after)) not in comp_set:
                continue
            after_names = tuple(
                project(s) for s in after.mobile_states
            )
            edges[key].append(
                (after.states, x, y, after_names != names)
            )

    def successors(key: tuple) -> list[tuple]:
        return [tkey for tkey, _, _, _ in edges[key]]

    components = strongly_connected_components(list(configs), successors)
    comp_of = {
        key: cid
        for cid, members in enumerate(components)
        for key in members
    }
    all_pairs = {frozenset(p) for p in population.unordered_pairs()}
    kinds: dict = {}
    for cid, members in enumerate(components):
        member_set = set(members)
        covered: set = set()
        changes = False
        for key in members:
            covered |= nulls[key]
            for tkey, x, y, chg in edges[key]:
                if tkey in member_set:
                    covered.add(frozenset((x, y)))
                    changes = changes or chg
        if covered != all_pairs:
            continue  # no weakly fair execution can live here
        if changes:
            kinds[cid] = "weak-livelock"
        else:
            rep = configs[members[0]]
            names = [project(s) for s in rep.mobile_states]
            if len(set(names)) != len(names):
                kinds[cid] = "weak-duplicates"
    return _FiberGraph(configs, nulls, edges, components, comp_of, kinds)


# ----------------------------------------------------------------------
# Property checkers
# ----------------------------------------------------------------------

#: The properties ``repro check`` understands.
PROPERTIES: tuple[str, ...] = ("reach", "sinks", "liveness")


@dataclass
class SymbolicVerdict:
    """Outcome of one symbolic property check."""

    prop: str
    holds: bool
    protocol: str
    n_mobile: int
    explored: int
    edges: int
    reason: str = ""
    witness: SymbolicWitness | None = None
    #: ``True`` when the witness replayed successfully on the reference
    #: simulator; ``None`` for PASS verdicts (nothing to replay).
    replay_validated: bool | None = None
    details: dict = field(default_factory=dict)

    def render(self) -> str:
        """One-line summary for the CLI."""
        status = "PASS" if self.holds else "FAIL"
        line = (
            f"{status}: {self.prop}: {self.protocol} (N={self.n_mobile}): "
            f"{self.explored} quotient nodes"
        )
        if self.edges:
            line += f", {self.edges} edges"
        if self.reason:
            line += f": {self.reason}"
        if self.replay_validated:
            line += " [witness replayed on the reference simulator]"
        return line


def _finish_fail(
    verdict: SymbolicVerdict,
    protocol: PopulationProtocol,
    population: Population,
    name_of: Callable[[State], object] | None,
    validate: bool,
) -> SymbolicVerdict:
    """Replay-validate a FAIL verdict's witness before reporting it."""
    if validate and verdict.witness is not None:
        ok = replay_witness(protocol, population, verdict.witness, name_of)
        if not ok:
            raise VerificationError(
                f"{protocol.display_name}: symbolic {verdict.prop} "
                "counterexample failed replay validation on the "
                "reference simulator"
            )
        verdict.replay_validated = True
    return verdict


def check_reach(
    protocol: PopulationProtocol,
    n_mobile: int,
    mobile_mode: str = "auto",
    leader_states: Iterable[State] | None = None,
    max_nodes: int = 2_000_000,
    max_roots: int | None = None,
    name_of: Callable[[State], object] | None = None,
    validate: bool = True,
) -> SymbolicVerdict:
    """Naming-on-silence as a frontier-intersection query.

    Silence is terminal, so a reachable silent configuration with
    duplicate projected names refutes naming under *every* fairness
    notion.  Exact on the quotient.
    """
    system = CountsSystem(protocol, name_of)
    population = Population(n_mobile, protocol.requires_leader)
    roots = system.root_matrix(
        n_mobile, mobile_mode, leader_states, max_roots
    )
    rs = reach(system, roots, max_nodes=max_nodes)
    violating = np.nonzero(silent_mask(rs) & duplicate_mask(rs))[0]
    if not len(violating):
        return SymbolicVerdict(
            prop="reach",
            holds=True,
            protocol=protocol.display_name,
            n_mobile=n_mobile,
            explored=rs.n_nodes,
            edges=0,
            reason="every reachable silent configuration is duplicate-free",
            details={"roots": int(rs.n_roots)},
        )
    node = int(violating[0])
    initial, meetings, final = lift_path(rs, node, population)
    witness = SymbolicWitness(
        kind="silent-duplicates",
        initial=initial,
        meetings=meetings,
        checkpoint=len(meetings),
        final=final,
        violating_counts=system.count_summary(rs.rows[node]),
        description=(
            "a reachable silent configuration carries duplicate names; "
            "silence is terminal, so naming can never be solved from it"
        ),
    )
    verdict = SymbolicVerdict(
        prop="reach",
        holds=False,
        protocol=protocol.display_name,
        n_mobile=n_mobile,
        explored=rs.n_nodes,
        edges=0,
        reason=witness.description,
        witness=witness,
        details={
            "roots": int(rs.n_roots),
            "violating_silent_nodes": int(len(violating)),
        },
    )
    return _finish_fail(verdict, protocol, population, name_of, validate)


def check_sinks(
    protocol: PopulationProtocol,
    n_mobile: int,
    mobile_mode: str = "auto",
    leader_states: Iterable[State] | None = None,
    max_nodes: int = 2_000_000,
    max_roots: int | None = None,
    name_of: Callable[[State], object] | None = None,
    validate: bool = True,
) -> SymbolicVerdict:
    """Sink-SCC naming discipline on the quotient.

    Exactly the global-fairness naming condition: every reachable sink
    SCC must be free of name-changing internal edges (livelock) and
    consist of duplicate-free name vectors.  A rule that keeps the count
    row but changes names, such as a swap ``(s, t) -> (t, s)``, is kept
    as a self-loop edge, so such a livelock is caught too.  For
    symmetric protocols the details also record the Proposition 6
    state-level unique-sink audit.
    """
    system = CountsSystem(protocol, name_of)
    population = Population(n_mobile, protocol.requires_leader)
    roots = system.root_matrix(
        n_mobile, mobile_mode, leader_states, max_roots
    )
    rs = reach(system, roots, max_nodes=max_nodes, track_edges=True)
    sccs = _components(rs)
    leaves = np.zeros(len(sccs.members), dtype=bool)
    livelock = np.zeros(len(sccs.members), dtype=bool)
    np.logical_or.at(leaves, sccs.comp_of[sccs.src[~sccs.internal]], True)
    np.logical_or.at(livelock, sccs.comp_of[sccs.src[sccs.live]], True)
    dup = duplicate_mask(rs)

    details: dict = {"roots": int(rs.n_roots), "sink_sccs": 0}
    if protocol.symmetric:
        from repro.analysis.sink import unique_sink

        try:
            details["unique_sink"] = repr(unique_sink(protocol))
        except VerificationError as exc:
            details["unique_sink_violation"] = str(exc)

    for cid, comp in enumerate(sccs.members):
        if leaves[cid]:
            continue
        details["sink_sccs"] += 1
        if livelock[cid]:
            witness = _sink_lasso_witness(rs, comp, sccs, population)
            verdict = SymbolicVerdict(
                prop="sinks",
                holds=False,
                protocol=protocol.display_name,
                n_mobile=n_mobile,
                explored=rs.n_nodes,
                edges=rs.n_edges,
                reason=(
                    "a fair execution ends in a recurrent component "
                    "where mobile names keep changing (names never "
                    "stabilize)"
                ),
                witness=witness,
                details=details,
            )
            return _finish_fail(
                verdict, protocol, population, name_of, validate
            )
        if dup[comp[0]]:
            node = comp[0]
            initial, meetings, final = lift_path(rs, node, population)
            witness = SymbolicWitness(
                kind="sink-duplicates",
                initial=initial,
                meetings=meetings,
                checkpoint=len(meetings),
                final=final,
                violating_counts=system.count_summary(rs.rows[node]),
                description=(
                    "a fair execution stabilizes in a sink component "
                    "with duplicate names"
                ),
            )
            verdict = SymbolicVerdict(
                prop="sinks",
                holds=False,
                protocol=protocol.display_name,
                n_mobile=n_mobile,
                explored=rs.n_nodes,
                edges=rs.n_edges,
                reason=witness.description,
                witness=witness,
                details=details,
            )
            return _finish_fail(
                verdict, protocol, population, name_of, validate
            )
    return SymbolicVerdict(
        prop="sinks",
        holds=True,
        protocol=protocol.display_name,
        n_mobile=n_mobile,
        explored=rs.n_nodes,
        edges=rs.n_edges,
        reason=(
            f"{details['sink_sccs']} sink component(s), all "
            "name-constant with distinct names"
        ),
        details=details,
    )


def _sink_lasso_witness(
    rs: ReachSet,
    comp: list[int],
    sccs: _Components,
    population: Population,
) -> SymbolicWitness:
    """Prefix to a sink component + an internal lasso through a
    name-changing edge, realized as concrete meetings."""
    system = rs.system
    members = set(comp)
    cid = sccs.comp_of[comp[0]]
    edge = np.nonzero((sccs.comp_of[sccs.src] == cid) & sccs.live)[0][0]
    u, v = int(sccs.src[edge]), int(sccs.dst[edge])
    change_rid = int(sccs.rid[edge])
    anchor = comp[0]
    initial, prefix, config = lift_path(rs, anchor, population)
    lifter = _Lifter(system, population, config)
    for step in _quotient_bfs(rs, anchor, lambda n: n == u, members):
        lifter.apply_rule(system.rules[step])
    lifter.apply_rule(system.rules[change_rid])
    for step in _quotient_bfs(rs, v, lambda n: n == anchor, members):
        lifter.apply_rule(system.rules[step])
    return SymbolicWitness(
        kind="sink-livelock",
        initial=initial,
        meetings=prefix + lifter.meetings,
        checkpoint=len(prefix),
        final=lifter.config,
        violating_counts=system.count_summary(rs.rows[anchor]),
        description=(
            "a lasso inside a sink component changes mobile names and "
            "returns to its anchor configuration class"
        ),
    )


def check_liveness(
    protocol: PopulationProtocol,
    n_mobile: int,
    mobile_mode: str = "auto",
    leader_states: Iterable[State] | None = None,
    max_nodes: int = 2_000_000,
    max_roots: int | None = None,
    name_of: Callable[[State], object] | None = None,
    validate: bool = True,
    rounds: int = 2,
    max_fiber: int = 200_000,
) -> SymbolicVerdict:
    """Weak-fairness naming via candidate-SCC fiber expansion.

    The quotient frontier filters the reachable space down to candidate
    SCCs (internal name-changing edge or duplicate-name member).  A
    candidate without an internal edge is one row that every non-null
    meeting leaves, so it hosts a weakly fair execution iff
    :func:`parking_mask` holds there; only the candidates left are
    expanded into fibers for the exact labelled SCC + pair-coverage
    characterization, so the verdict matches
    :func:`repro.analysis.weak_fairness.check_naming_weak` while the
    exploration scales with the quotient.  FAIL verdicts come with a
    constructive weakly fair schedule (every agent pair meets every
    round), replay-validated on the reference simulator.
    """
    system = CountsSystem(protocol, name_of)
    population = Population(n_mobile, protocol.requires_leader)
    roots = system.root_matrix(
        n_mobile, mobile_mode, leader_states, max_roots
    )
    rs = reach(system, roots, max_nodes=max_nodes, track_edges=True)
    sccs = _components(rs)
    candidate = np.zeros(len(sccs.members), dtype=bool)
    np.logical_or.at(candidate, sccs.comp_of, duplicate_mask(rs))
    np.logical_or.at(candidate, sccs.comp_of[sccs.src[sccs.live]], True)
    has_edges = np.zeros(len(sccs.members), dtype=bool)
    np.logical_or.at(has_edges, sccs.comp_of[sccs.src[sccs.internal]], True)
    parks = parking_mask(rs)

    candidates_checked = 0
    for cid, comp in enumerate(sccs.members):
        if not candidate[cid]:
            continue
        candidates_checked += 1
        if not has_edges[cid] and not parks[comp[0]]:
            # One row without a self-loop: every non-null meeting leaves
            # it, so each labelled configuration over it is its own fiber
            # SCC, covering just the pairs with a null orientation.
            continue
        fiber = _fiber_graph(rs, comp, population, max_fiber)
        if not fiber.kinds:
            continue
        vcid = min(fiber.kinds)
        kind = fiber.kinds[vcid]
        witness = _liveness_witness(
            rs, fiber, vcid, population, rounds
        )
        verdict = SymbolicVerdict(
            prop="liveness",
            holds=False,
            protocol=protocol.display_name,
            n_mobile=n_mobile,
            explored=rs.n_nodes,
            edges=rs.n_edges,
            reason=(
                "a weakly fair execution can change mobile names "
                "forever while meeting every pair (livelock)"
                if kind == "weak-livelock"
                else "a weakly fair execution can stay at duplicate "
                "names forever"
            ),
            witness=witness,
            details={
                "roots": int(rs.n_roots),
                "component_size": len(fiber.components[vcid]),
            },
        )
        return _finish_fail(
            verdict, protocol, population, name_of, validate
        )
    return SymbolicVerdict(
        prop="liveness",
        holds=True,
        protocol=protocol.display_name,
        n_mobile=n_mobile,
        explored=rs.n_nodes,
        edges=rs.n_edges,
        reason=(
            "no reachable component admits a weakly fair livelock or "
            "duplicate-name parking"
        ),
        details={
            "roots": int(rs.n_roots),
            "candidates_checked": candidates_checked,
        },
    )


def _liveness_witness(
    rs: ReachSet,
    fiber: _FiberGraph,
    vcid: int,
    population: Population,
    rounds: int,
) -> SymbolicWitness:
    """A concrete weakly fair schedule inside a violating labelled
    component.

    The quotient prefix is lifted to a concrete configuration; by agent
    anonymity its labelled component is a permutation image of the
    violating one, so the analysis kinds carry over.  Each fairness
    round meets every unordered pair once - in place when the meeting
    is null or internal, else after a BFS walk to a configuration where
    it is - and livelock rounds weave in one name-changing edge.
    """
    system = rs.system
    project = system.project

    # Re-anchor onto the component containing the lifted entry config.
    entry_node = rs.node_of(
        system.encode(fiber.configs[fiber.components[vcid][0]])
    )
    initial, prefix, config = lift_path(rs, entry_node, population)
    acid = fiber.comp_of[config.states]
    kind = fiber.kinds.get(acid)
    if kind is None:
        raise VerificationError(
            "fiber component lost its violation under re-anchoring"
        )  # internal consistency; never expected
    members = set(fiber.components[acid])

    def names(cfg: Configuration) -> tuple:
        return tuple(project(s) for s in cfg.mobile_states)

    def internal_meetings(key: tuple) -> list[tuple]:
        return [
            (tkey, x, y, chg)
            for tkey, x, y, chg in fiber.edges[key]
            if tkey in members
        ]

    def walk_to(cfg: Configuration, good) -> tuple[Configuration, list]:
        """BFS inside the component to a config satisfying ``good``."""
        if good(cfg.states):
            return cfg, []
        seen = {cfg.states}
        queue = deque([(cfg, [])])
        while queue:
            cur, path = queue.popleft()
            for tkey, x, y, _ in internal_meetings(cur.states):
                if tkey in seen:
                    continue
                seen.add(tkey)
                nxt = cur.apply(
                    x, y, _meeting_outcome(system, cur, x, y)
                )
                step = path + [(x, y)]
                if good(tkey):
                    return nxt, step
                queue.append((nxt, step))
        raise VerificationError(
            "no in-component configuration satisfies the scheduling goal"
        )  # internal consistency; never expected

    meetings: list[Meeting] = []
    round_ends: list[int] = []
    for _ in range(rounds):
        round_changed = False
        for pair in sorted(
            tuple(sorted(p)) for p in population.unordered_pairs()
        ):
            fpair = frozenset(pair)

            def safe_here(key: tuple) -> bool:
                if fpair in fiber.nulls[key]:
                    return True
                return any(
                    frozenset((x, y)) == fpair
                    for _, x, y, _ in internal_meetings(key)
                )

            prev = config
            config, walk = walk_to(config, safe_here)
            for x, y in walk:
                before_walk = names(prev)
                prev = prev.apply(
                    x, y, _meeting_outcome(system, prev, x, y)
                )
                if names(prev) != before_walk:
                    round_changed = True
            meetings.extend(walk)
            before = names(config)
            config, step = _meet_pair(
                system, fiber, members, config, fpair
            )
            meetings.append(step)
            if names(config) != before:
                round_changed = True
        if kind == "weak-livelock" and not round_changed:

            def has_change(key: tuple) -> bool:
                return any(
                    chg for _, _, _, chg in internal_meetings(key)
                )

            config, walk = walk_to(config, has_change)
            meetings.extend(walk)
            for tkey, x, y, chg in internal_meetings(config.states):
                if chg:
                    config = config.apply(
                        x, y, _meeting_outcome(system, config, x, y)
                    )
                    meetings.append((x, y))
                    break
        round_ends.append(len(prefix) + len(meetings))
    rep_node = rs.node_of(system.encode(config))
    return SymbolicWitness(
        kind=kind,
        initial=initial,
        meetings=prefix + meetings,
        checkpoint=len(prefix),
        final=config,
        violating_counts=system.count_summary(rs.rows[rep_node]),
        description=(
            "a weakly fair schedule (every pair meets every round) that "
            + (
                "changes mobile names on every round"
                if kind == "weak-livelock"
                else "stays on duplicate names forever"
            )
        ),
        round_ends=round_ends,
    )


def _meeting_outcome(
    system: CountsSystem, cfg: Configuration, x: int, y: int
) -> tuple[State, State]:
    return system.protocol.transition(cfg.state_of(x), cfg.state_of(y))


def _meet_pair(
    system: CountsSystem,
    fiber: _FiberGraph,
    members: set,
    config: Configuration,
    fpair: frozenset,
) -> tuple[Configuration, Meeting]:
    """Meet one unordered pair at ``config`` via a null meeting or an
    in-component edge (the caller guarantees one exists)."""
    x, y = sorted(fpair)
    if fpair in fiber.nulls[config.states]:
        for initiator, responder in ((x, y), (y, x)):
            p = config.state_of(initiator)
            q = config.state_of(responder)
            if system.protocol.transition(p, q) == (p, q):
                return config, (initiator, responder)
    for tkey, a, b, _ in fiber.edges[config.states]:
        if frozenset((a, b)) == fpair and tkey in members:
            outcome = _meeting_outcome(system, config, a, b)
            return config.apply(a, b, outcome), (a, b)
    raise VerificationError(
        "pair has no safe meeting at the scheduled configuration"
    )  # internal consistency; never expected


_CHECKERS: dict[str, Callable[..., SymbolicVerdict]] = {
    "reach": check_reach,
    "sinks": check_sinks,
    "liveness": check_liveness,
}


def check_property(
    protocol: PopulationProtocol,
    prop: str,
    n_mobile: int,
    **kwargs,
) -> SymbolicVerdict:
    """Dispatch to :func:`check_reach` / :func:`check_sinks` /
    :func:`check_liveness` by property name."""
    checker = _CHECKERS.get(prop)
    if checker is None:
        known = ", ".join(PROPERTIES)
        raise ValueError(f"unknown property {prop!r}; known: {known}")
    return checker(protocol, n_mobile, **kwargs)
