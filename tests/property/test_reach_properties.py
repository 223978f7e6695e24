"""The batch-deduplicating frontier numbers nodes as the per-successor loop.

:func:`repro.analysis.symbolic.reach` interns each rule batch of a BFS
level at once; :func:`tests.oracles.oracle_reach` is the loop it
replaced, which interned one successor at a time.  On random table
protocols with leader states, out-of-space results and role-crossing
rules, both must give the same rows, predecessor forest, edges and node
count, raise the same compile error, and raise at the same
``max_nodes``.  The root, adjacency and duplicate-name helpers are held
to their per-row versions the same way, and whole verdicts to the ones
computed on the oracle's reach.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import symbolic
from repro.analysis.symbolic import (
    CountsSystem,
    ReachSet,
    _adjacency,
    duplicate_mask,
    reach,
)
from repro.errors import VerificationError
from tests.oracles import (
    oracle_adjacency,
    oracle_duplicate_mask,
    oracle_reach,
    oracle_root_matrix,
)
from tests.property.tables import random_tables


def tables(max_mobile, max_leaders):
    """Random tables, half of them free of out-of-space results."""
    return st.booleans().flatmap(
        lambda wild: random_tables(max_mobile, max_leaders, wild)
    )


def outcome(fn, *args, **kwargs):
    """``("ok", result)`` or ``("raised", VerificationError message)``."""
    try:
        return "ok", fn(*args, **kwargs)
    except VerificationError as exc:
        return "raised", str(exc)


def same_roots(ours, theirs, data, n_mobile):
    """Roots built on both systems (so both intern the same leaders),
    with some rows repeated or dropped."""
    mode = data.draw(st.sampled_from(["uniform", "arbitrary"]))
    roots = ours.root_matrix(n_mobile, mode)
    assert np.array_equal(theirs.root_matrix(n_mobile, mode), roots)
    picks = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(roots) - 1),
            min_size=1,
            max_size=2 * len(roots),
        )
        | st.just(list(range(len(roots))))
    )
    return roots[picks]


class TestReachMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(
        tables(max_mobile=4, max_leaders=3),
        st.integers(min_value=1, max_value=3),
        st.data(),
    )
    def test_same_nodes_forest_and_edges(self, protocol, n_mobile, data):
        compiled = outcome(CountsSystem, protocol)
        if compiled[0] == "raised":
            return  # both sides share the compiler
        ours, theirs = compiled[1], CountsSystem(protocol)
        roots = same_roots(ours, theirs, data, n_mobile)
        max_nodes = data.draw(
            st.sampled_from([2_000_000, 1, len(roots), len(roots) + 3, 12])
        )
        new = outcome(reach, ours, roots, max_nodes, track_edges=True)
        old = outcome(oracle_reach, theirs, roots, max_nodes)
        assert new[0] == old[0]
        if new[0] == "raised":
            assert new[1] == old[1]
            return
        rs, expected = new[1], old[1]
        assert rs.n_nodes == len(expected.rows)
        assert rs.n_roots == expected.n_roots
        assert np.array_equal(rs.rows, np.stack(expected.rows))
        assert rs.pred == expected.pred
        assert rs.pred_rule == expected.pred_rule
        assert rs.index == expected.index
        for ours_edges, their_edges in (
            (rs.edges_src, expected.edges_src),
            (rs.edges_dst, expected.edges_dst),
            (rs.edges_rule, expected.edges_rule),
        ):
            assert ours_edges.dtype == np.int64
            assert ours_edges.tolist() == their_edges
        fresh = CountsSystem(protocol)
        same_roots(fresh, CountsSystem(protocol), data, n_mobile)
        untracked = reach(fresh, roots, max_nodes)
        assert untracked.edges_src is None and untracked.n_edges == 0
        assert np.array_equal(untracked.rows, rs.rows)
        assert untracked.pred == rs.pred
        offsets, targets = _adjacency(rs.n_nodes, rs.edges_src, rs.edges_dst)
        want_offsets, want_targets = oracle_adjacency(
            rs.n_nodes, expected.edges_src, expected.edges_dst
        )
        assert np.array_equal(offsets, want_offsets)
        assert np.array_equal(targets, want_targets)

    @settings(max_examples=200, deadline=None)
    @given(
        tables(max_mobile=4, max_leaders=3),
        st.integers(min_value=1, max_value=3),
        st.sampled_from(["uniform", "arbitrary"]),
    )
    def test_root_matrix_matches_row_loop(self, protocol, n_mobile, mode):
        compiled = outcome(CountsSystem, protocol)
        if compiled[0] == "raised":
            return
        ours, theirs = compiled[1], CountsSystem(protocol)
        assert np.array_equal(
            ours.root_matrix(n_mobile, mode),
            oracle_root_matrix(theirs, n_mobile, mode),
        )
        assert ours._leaders == theirs._leaders

    @settings(max_examples=200, deadline=None)
    @given(
        tables(max_mobile=4, max_leaders=0),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([None, 2, 3]),
    )
    def test_duplicate_mask_matches_matmul(self, protocol, n_mobile, modulus):
        name_of = None if modulus is None else (lambda s: s % modulus)
        compiled = outcome(CountsSystem, protocol, name_of)
        if compiled[0] == "raised":
            return
        system = compiled[1]
        rs = reach(system, system.root_matrix(n_mobile, "arbitrary"))
        assert np.array_equal(
            duplicate_mask(rs), oracle_duplicate_mask(system, rs.rows)
        )


def _oracle_reach_set(system, roots, max_nodes=2_000_000, track_edges=False):
    """The oracle's reach, packaged as a :class:`ReachSet`."""
    old = oracle_reach(system, roots, max_nodes)
    rs = ReachSet(
        system=system,
        levels=[np.stack(old.rows)],
        index=old.index,
        n_roots=old.n_roots,
        pred=old.pred,
        pred_rule=old.pred_rule,
    )
    if track_edges:
        rs.edges_src = np.asarray(old.edges_src, dtype=np.int64)
        rs.edges_dst = np.asarray(old.edges_dst, dtype=np.int64)
        rs.edges_rule = np.asarray(old.edges_rule, dtype=np.int64)
    return rs


def _verdict_facts(verdict):
    witness = verdict.witness
    return (
        verdict.holds,
        verdict.explored,
        verdict.edges,
        verdict.reason,
        verdict.details,
        verdict.replay_validated,
        None
        if witness is None
        else (
            witness.kind,
            witness.initial,
            witness.meetings,
            witness.checkpoint,
            witness.final,
            witness.violating_counts,
            witness.round_ends,
        ),
    )


class TestVerdictsMatchOracleReach:
    @settings(max_examples=300, deadline=None)
    @given(
        tables(max_mobile=3, max_leaders=2),
        st.integers(min_value=2, max_value=3),
        st.sampled_from(["reach", "sinks", "liveness"]),
        st.sampled_from(["uniform", "arbitrary"]),
    )
    def test_same_verdict_and_witness(self, protocol, n_mobile, prop, mode):
        new = outcome(
            symbolic.check_property, protocol, prop, n_mobile,
            mobile_mode=mode,
        )
        with mock.patch.object(symbolic, "reach", _oracle_reach_set):
            old = outcome(
                symbolic.check_property, protocol, prop, n_mobile,
                mobile_mode=mode,
            )
        assert new[0] == old[0]
        if new[0] == "raised":
            assert new[1] == old[1]
        else:
            assert _verdict_facts(new[1]) == _verdict_facts(old[1])
