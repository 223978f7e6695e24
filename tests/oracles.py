"""Reference implementations kept as differential oracles.

These are the straightforward versions that the library's faster code
replaced: the two-loop ``closure``/``symmetry`` lint scans (one over
ordered pairs, one calling ``transition`` on both orientations of each
unordered pair), the symbolic checker's per-successor frontier loop
with its root, adjacency and duplicate-name helpers, and the
homonym-preserving adversary that scores every candidate meeting on a
whole new configuration, the eager expansion of a counts vector into a
per-agent configuration, the lockstep exact-SSA kernel as a scalar
loop over one row, and the ``OrderedDict`` LRU each artifact cache
once carried by hand.  The differential tests hold the library to
exactly their answers: same diagnostics, same witness order, same node
numbering, same scheduled pairs, equal final configurations, equal
counts and positions, equal cache contents in equal order.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from repro.analysis.symbolic import CountsSystem
from repro.engine.batch import REFILL_STEPS
from repro.engine.configuration import Configuration
from repro.engine.fast import TransitionTable
from repro.engine.population import AgentId, Population
from repro.engine.protocol import (
    PopulationProtocol,
    _state_pairs,
    _unordered_state_pairs,
)
from repro.engine.state import State, is_leader_state, sort_key
from repro.errors import VerificationError
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.rules import WITNESS_LIMIT, LintContext
from repro.schedulers.base import FairnessMonitor, Scheduler

# ----------------------------------------------------------------------
# Lint: closure and symmetry as two separate scans
# ----------------------------------------------------------------------


def oracle_asymmetric_witnesses(
    protocol: PopulationProtocol, limit: int | None = None
) -> list[tuple[State, State]]:
    """Asymmetric unordered pairs, both orientations evaluated per pair."""
    witnesses: list[tuple[State, State]] = []
    for p, q in _unordered_state_pairs(protocol):
        p2, q2 = protocol.transition(p, q)
        q3, p3 = protocol.transition(q, p)
        if (p2, q2) != (p3, q3):
            witnesses.append((p, q))
            if limit is not None and len(witnesses) >= limit:
                break
    return witnesses


def oracle_closure(ctx: LintContext) -> list[Diagnostic]:
    """The ``closure`` rule as one loop over :func:`_state_pairs`."""
    protocol = ctx.protocol
    mobile = protocol.mobile_state_space()
    leader = protocol.leader_state_space()
    witnesses: list = []
    for p, q in _state_pairs(protocol):
        try:
            p2, q2 = protocol.transition(p, q)
        except Exception as exc:
            return [
                ctx.diag(
                    "closure",
                    Severity.ERROR,
                    f"transition({p!r}, {q!r}) raised {exc!r}",
                    witness=[repr(p), repr(q)],
                )
            ]
        for before, after in ((p, p2), (q, q2)):
            leaky = (
                after not in leader
                if is_leader_state(before)
                else after not in mobile
            )
            if leaky:
                witnesses.append(
                    {
                        "pair": [repr(p), repr(q)],
                        "result": [repr(p2), repr(q2)],
                        "escaped": repr(after),
                    }
                )
                break
        if len(witnesses) >= WITNESS_LIMIT:
            break
    if not witnesses:
        return []
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


def oracle_symmetry(ctx: LintContext) -> list[Diagnostic]:
    """The ``symmetry`` rule on :func:`oracle_asymmetric_witnesses`."""
    protocol = ctx.protocol
    witnesses = oracle_asymmetric_witnesses(
        protocol, limit=WITNESS_LIMIT if protocol.symmetric else 1
    )
    if protocol.symmetric and witnesses:
        rendered = []
        for p, q in witnesses[:WITNESS_LIMIT]:
            p2, q2 = protocol.transition(p, q)
            q3, p3 = protocol.transition(q, p)
            rendered.append(
                {
                    "pair": [repr(p), repr(q)],
                    "forward": [repr(p2), repr(q2)],
                    "mirrored": [repr(p3), repr(q3)],
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


# ----------------------------------------------------------------------
# Symbolic checker: the per-successor frontier loop
# ----------------------------------------------------------------------


class OracleReach(NamedTuple):
    rows: list[np.ndarray]
    index: dict[bytes, int]
    n_roots: int
    pred: list[int]
    pred_rule: list[int]
    edges_src: list[int]
    edges_dst: list[int]
    edges_rule: list[int]


def oracle_reach(
    system: CountsSystem,
    roots: np.ndarray,
    max_nodes: int = 2_000_000,
) -> OracleReach:
    """Breadth-first reach that dedups one successor at a time."""
    rs = OracleReach([], {}, 0, [], [], [], [], [])
    frontier: list[int] = []
    for row in np.asarray(roots, dtype=np.int32):
        key = row.tobytes()
        if key not in rs.index:
            node = len(rs.rows)
            rs.index[key] = node
            rs.rows.append(row.copy())
            rs.pred.append(-1)
            rs.pred_rule.append(-1)
            frontier.append(node)
    rs = rs._replace(n_roots=len(rs.rows))
    if not rs.rows:
        raise VerificationError("no initial count vectors supplied")
    M = system.M
    while frontier:
        F = np.stack([rs.rows[k] for k in frontier])
        batches = []
        for t in range(len(system._mm_rid)):
            i = system._mm_i[t]
            j = system._mm_j[t]
            if i == j:
                mask = F[:, i] >= 2
            else:
                mask = (F[:, i] >= 1) & (F[:, j] >= 1)
            src_local = np.nonzero(mask)[0]
            if not len(src_local):
                continue
            succ = F[src_local] + system._mm_delta[t]
            rid = np.full(len(src_local), system._mm_rid[t], dtype=np.int64)
            batches.append((src_local, succ, rid))
        if system.has_leader:
            lv = F[:, M]
            for li in np.unique(lv):
                sel = np.nonzero(lv == li)[0]
                group = system.leader_group(int(li))
                for g in range(len(group.rid)):
                    mask = F[sel, group.s[g]] >= 1
                    src_local = sel[mask]
                    if not len(src_local):
                        continue
                    succ = F[src_local] + group.delta[g]
                    succ[:, M] = group.post[g]
                    rid = np.full(
                        len(src_local), group.rid[g], dtype=np.int64
                    )
                    batches.append((src_local, succ, rid))
        next_frontier: list[int] = []
        for src_local, succ, rid in batches:
            for n in range(len(src_local)):
                key = succ[n].tobytes()
                src = frontier[src_local[n]]
                tgt = rs.index.get(key)
                if tgt is None:
                    if len(rs.rows) >= max_nodes:
                        raise VerificationError(
                            f"symbolic frontier exceeded {max_nodes} "
                            "nodes; use a smaller instance"
                        )
                    tgt = len(rs.rows)
                    rs.index[key] = tgt
                    rs.rows.append(succ[n].copy())
                    rs.pred.append(src)
                    rs.pred_rule.append(int(rid[n]))
                    next_frontier.append(tgt)
                rs.edges_src.append(src)
                rs.edges_dst.append(tgt)
                rs.edges_rule.append(int(rid[n]))
        frontier = next_frontier
    return rs


def oracle_root_matrix(
    system: CountsSystem, n_mobile: int, mobile_mode: str
) -> np.ndarray:
    """Initial count rows built one row at a time, for a protocol that
    designates no initial states (every mobile row with every declared
    leader state)."""
    protocol = system.protocol
    if mobile_mode == "uniform":
        mobile_rows = []
        for value in system.mobile:
            row = np.zeros(system.M, dtype=np.int32)
            row[system.midx[value]] = n_mobile
            mobile_rows.append(row)
    else:
        mobile_rows = []
        for combo in combinations_with_replacement(
            range(system.M), n_mobile
        ):
            row = np.zeros(system.M, dtype=np.int32)
            for i in combo:
                row[i] += 1
            mobile_rows.append(row)
    if not system.has_leader:
        return np.stack(mobile_rows)
    leaders = sorted(protocol.leader_state_space(), key=sort_key)
    leader_idx = [system.leader_index(s) for s in leaders]
    roots = np.zeros(
        (len(mobile_rows) * len(leader_idx), system.width), dtype=np.int32
    )
    k = 0
    for mrow in mobile_rows:
        for li in leader_idx:
            roots[k, : system.M] = mrow
            roots[k, system.M] = li
            k += 1
    return roots


def oracle_adjacency(
    n_nodes: int, edges_src, edges_dst
) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency from ``np.unique`` over (source, target) rows."""
    if not len(edges_src):
        return np.zeros(n_nodes + 1, dtype=np.int64), np.zeros(
            0, dtype=np.int64
        )
    pairs = np.stack(
        [
            np.asarray(edges_src, dtype=np.int64),
            np.asarray(edges_dst, dtype=np.int64),
        ],
        axis=1,
    )
    pairs = np.unique(pairs, axis=0)
    offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.add.at(offsets, pairs[:, 0] + 1, 1)
    np.cumsum(offsets, out=offsets)
    return offsets, pairs[:, 1].copy()


def oracle_duplicate_mask(system: CountsSystem, rows: np.ndarray) -> np.ndarray:
    """Per row: two mobile agents share a projected name (matmul)."""
    name_counts = rows[:, : system.M] @ system.name_matrix
    return (name_counts >= 2).any(axis=1)


# ----------------------------------------------------------------------
# Artifact caches: the hand-rolled OrderedDict LRU
# ----------------------------------------------------------------------


class OracleLRU:
    """The LRU idiom each artifact cache carried before :class:`LRU`.

    ``get`` refreshes a found entry; ``put`` inserts, refreshes and pops
    the oldest entries past ``maxsize``, counting each pop.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.entries: OrderedDict = OrderedDict()
        self.evictions = 0

    def get(self, key):
        value = self.entries.get(key)
        if value is not None:
            self.entries.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self.entries[key] = value
        self.entries.move_to_end(key)
        while len(self.entries) > self.maxsize:
            self.entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self.entries.clear()


# ----------------------------------------------------------------------
# Counts engines: the eager final configuration
# ----------------------------------------------------------------------


def oracle_materialize_counts(
    table: TransitionTable,
    n_mobile: int,
    counts,
    leader_pos: int | None,
) -> Configuration:
    """The canonical representative of a counts vector, built in O(N).

    Mobile states are expanded in interned order into one per-agent
    tuple; the leader, the unique count among leader-only indices, is
    inserted at ``leader_pos``.
    """
    objs = table.states
    states: list = []
    for i in range(n_mobile):
        states.extend([objs[i]] * int(counts[i]))
    if leader_pos is None:
        return Configuration(tuple(states), None)
    leader_state = next(
        objs[i] for i in range(n_mobile, table.n_states) if counts[i]
    )
    states.insert(leader_pos, leader_state)
    return Configuration(tuple(states), leader_pos)


def oracle_lockstep_row(c, pos, rng, plan, deltas, size, budget, cap=None):
    """One row of :func:`repro.engine.batch.lockstep_ssa`, as a scalar
    loop.

    Reads the uniforms the kernel prefetches for the row: ``2 * refill``
    of them whenever the row's step count reaches a multiple of ``refill
    = min(cap, REFILL_STEPS)`` (so one block of ``2 * cap`` for a burst
    capped at ``cap <= REFILL_STEPS``), two per step.  Step ``k``
    computes the gap to the next non-null event as ``1 + floor(log(max(u1,
    1e-300)) / log1p(W * (-1 / (N (N - 1)))))`` with the kernel's own
    float64 operations (NumPy's ``log`` and ``log1p``, whose last bit
    can differ from :mod:`math`'s), and picks the event as ``#{cum <= u2
    * W}`` over the int64 cumulative pair weights.  Stops at the cap, at
    silence (staying at the last event) or before an event that would
    pass ``budget`` (ending there).  Updates counts row ``c`` in place;
    returns ``(pos, events)``.
    """
    refill = REFILL_STEPS if cap is None else min(cap, REFILL_STEPS)
    neg_inv_total = -1.0 / (size * (size - 1))
    events = 0
    while cap is None or events < cap:
        k = events % refill
        if k == 0:
            u = rng.random(2 * refill)
            log_u1 = np.log(np.maximum(u[0::2], 1e-300))
        w = c[plan.pair_i] * (c[plan.pair_j] - plan.diag)
        weight = np.float64(w.sum())
        if weight == 0:
            break
        gap = np.floor(log_u1[k] / np.log1p(weight * neg_inv_total)) + 1.0
        if gap + pos > budget:
            pos = budget
            break
        pos += int(gap)
        f = int((np.cumsum(w) <= np.float64(u[2 * k + 1]) * weight).sum())
        c += deltas[f]
        events += 1
    return pos, events


# ----------------------------------------------------------------------
# Schedulers: the adversary that scores a whole configuration per meeting
# ----------------------------------------------------------------------


class OracleHomonymPreservingScheduler(Scheduler):
    """The homonym-preserving adversary, scored per candidate meeting.

    Each call sorts the pending frozensets of a :class:`FairnessMonitor`
    and scores every non-null candidate on the configuration it would
    produce: ``Configuration.apply``, then ``homonym_agents()`` and
    ``set(mobile_states)``.
    """

    display_name = "homonym-preserving adversary"
    weakly_fair = True

    def __init__(
        self,
        population: Population,
        protocol: PopulationProtocol,
        seed: int | None = None,
    ) -> None:
        super().__init__(population, seed)
        self._protocol = protocol
        self._monitor = FairnessMonitor(population)

    def next_pair(self, config: Configuration) -> tuple[AgentId, AgentId]:
        pending = sorted(
            (tuple(sorted(pair)) for pair in self._monitor.pending_pairs),
        )
        best: tuple[int, int, tuple[AgentId, AgentId]] | None = None
        for x, y in pending:
            for initiator, responder in ((x, y), (y, x)):
                p = config.state_of(initiator)
                q = config.state_of(responder)
                p2, q2 = self._protocol.transition(p, q)
                if (p2, q2) == (p, q):
                    self._monitor.observe(initiator, responder)
                    return initiator, responder
                after = config.apply(initiator, responder, (p2, q2))
                score = (
                    len(after.homonym_agents()),
                    -len(set(after.mobile_states)),
                )
                if best is None or score > best[:2]:
                    best = (*score, (initiator, responder))
        assert best is not None  # pending is never empty within a round
        initiator, responder = best[2]
        self._monitor.observe(initiator, responder)
        return initiator, responder

    def reset(self) -> None:
        self._monitor = FairnessMonitor(self.population)
