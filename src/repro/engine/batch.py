"""The batched ensemble backend: R replicate runs advanced in lockstep.

The experiment suites (convergence-rate curves, Table 1 certification,
expected-naming-time estimates) are ensembles: hundreds of independent
replicates of the *same* protocol on the *same* population size, differing
only in their random seed.  The per-run backends - even the O(1)
:class:`~repro.engine.counts.CountSimulator` - pay Python-interpreter
overhead per replicate per event.  This module removes it: because every
replicate lives on the same interned state space, an ensemble is a single
``(R, S)`` counts **matrix** ``C`` whose row ``r`` is replicate ``r``'s
counts vector, and one NumPy kernel step advances *every* unfinished
replicate by exactly one non-null event.

Kernel step (all arrays masked to the active rows)
--------------------------------------------------

1.  **True weights.**  ``w[r, f] = C[r, i_f] * (C[r, j_f] - [i_f = j_f])``
    for every non-null pair ``f`` of the precompiled
    :class:`~repro.engine.fast.TransitionTable`; ``W[r] = w[r].sum()``.
    This generalizes the counts backend's sampler to a row axis - and
    because the weights are recomputed from the *current* counts each
    step, no envelope or thinning is needed: every draw is already exact.
2.  **Silence.**  Rows with ``W == 0`` are frozen forever (every
    realizable meeting is null); they leave the kernel via the row mask,
    without resizing the matrix.
3.  **Geometric gap.**  The run of nulls before the next non-null event
    is ``Geometric(p)`` with ``p = W / N(N-1)``, drawn for all rows at
    once by inverse transform: ``gap = 1 + floor(ln u1 / ln(1 - p))``.
    Rows whose gap crosses the interaction budget stop (a naming run
    that is not yet silent cannot be converged, so no final check is
    needed beyond the silent case).
4.  **Event.**  The event index is categorical over the row's weights:
    ``f = #{cum w <= u2 * W}``; each row's counts move by row ``f`` of
    the precompiled per-pair delta matrix (``-1`` at the meeting pair,
    ``+1`` at the result pair), applied to all rows in one fancy-index
    add.

The kernel's cost is per *step* (one non-null event per active row),
independent of N: the weight gather runs off a flat index table that is
rebuilt only when the active-row set shrinks, and per-row uniforms are
prefetched in blocks (:data:`REFILL_STEPS`) so the per-step Python
overhead stays a handful of whole-array NumPy calls.

The loop is one module-level function, :func:`lockstep_ssa`, which
returns each row's final position and event count and leaves naming
verdicts to its caller.  This engine runs it once from interaction 0
with no cap.  The tau-leaping ensemble engine (:mod:`repro.engine.bleap`)
runs it for its exact-SSA bursts: on the rows that burst at one window
refresh, from their current positions, capped at
:data:`~repro.engine.leap.EXACT_BURST` events.

Randomness and reproducibility
------------------------------

Every row draws from its **own** :class:`numpy.random.Generator`, seeded
with its scheduler's seed, and consumes two uniforms per kernel step it
participates in.  They are prefetched ``2 * min(cap, REFILL_STEPS)`` at
a time (``REFILL_STEPS`` with no cap); the ones a row does not reach
before it stops are discarded, which shifts that row's later stream
(bleap's next window or burst) by an amount fixed by its own
trajectory.  A row's trajectory is therefore a function of its seed
alone - independent of the other rows in the batch, of the batch size,
and of how an ensemble is chunked across worker processes.  Serial,
parallel and single-run executions of the same seed are bit-identical.

Exactness contract (the documented sampling-equivalence tolerance)
------------------------------------------------------------------

Like the counts backend, the lockstep path is *distribution-exact*: it
simulates the identical counts Markov chain, with identical
convergence-check semantics (checks fire at ``check_interval``
boundaries; a silent-and-distinct row converges at the first boundary at
or after its last event, capped at the budget).  It is **not**
stream-identical to any per-run backend - it consumes a different
randomness stream - so per-seed results agree with per-run ``counts``
execution in *verdict* (named/silent, duplicate-frozen, budget-exhausted
is a.s. identical for almost-surely-converging workloads) while
interaction counts are independent draws from the same distribution.
Tests bound per-seed interaction counts within an order of magnitude and
compare the ensembles distributionally (KS), mirroring
``tests/engine/test_counts.py``.

Ensembles the lockstep view cannot honour - non-uniform schedulers,
fault hooks, traces/observers, problems that are not the
permutation-invariant naming problem, open-role protocols (see
:func:`~repro.engine.counts.native_refusal`) - fall back to per-run
:class:`~repro.engine.counts.CountSimulator` execution (which continues
down the ladder ``counts -> fast -> reference``), with a
:class:`~repro.errors.BackendFallbackWarning` naming the reason.
:class:`LockstepRung` holds what this engine and bleap share: the
ensemble entry :meth:`~LockstepRung.run_replicates`, its one-pass
interning and its fallback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as _np

from repro.engine import sanitize as _sanitize
from repro.engine.configuration import Configuration
from repro.engine.counts import (
    CountSimulator,
    CountsRung,
    intern_initial,
    materialize_counts_lazy,
    native_refusal,
)
from repro.engine.fast import BACKENDS, DEFAULT_COMPILE_LIMIT, warn_fallback
from repro.engine.leap import _leap_plan_for
from repro.engine.population import Population
from repro.engine.problems import Problem
from repro.engine.protocol import PopulationProtocol
from repro.engine.simulator import FaultHook, RunStats, SimulationResult
from repro.errors import ConvergenceError, SimulationError
from repro.schedulers.base import Scheduler

#: Kernel steps between per-row uniform-buffer refills.  Each active row
#: consumes two uniforms per step, so a refill draws ``2 * REFILL_STEPS``
#: values from each live row's generator, or ``2 * cap`` when a call's
#: event cap is smaller (a bleap burst: exactly one refill per burst).
#: Sizing trade-off: the refill is the kernel's only per-row Python
#: loop, so larger blocks amortize it over more steps; draws prefetched
#: past a row's end are discarded (each row owns its generator, so the
#: waste cannot perturb any other row, and it moves the row's own later
#: draws deterministically).  128 halves the loop frequency of the
#: original 64 while keeping the buffer small (2 KiB per row); at R =
#: 256 that is the difference between ~4 and ~2 generator calls per
#: kernel step.
REFILL_STEPS = 128

#: Column layout of :attr:`LockstepRaw.scalars` - one int64 row per
#: replicate, fixed width, so a whole ensemble's non-matrix outcome fits
#: one (R, :data:`N_SCALARS`) block.  ``leader_pos`` encodes ``None`` as
#: ``-1``; the leap columns stay zero on the exact batch kernel
#: (``has_leap`` on the raw says whether they are meaningful).
SCALAR_FIELDS = (
    "interactions",
    "events",
    "conv_at",
    "leader_pos",
    "leaps",
    "leap_interactions",
    "repairs",
    "ssa_rows",
)
N_SCALARS = len(SCALAR_FIELDS)

#: Scalar column indices by name (module-level so both lockstep kernels
#: and :func:`materialize_raw` agree on one layout).
COL = {name: k for k, name in enumerate(SCALAR_FIELDS)}


@dataclass
class LockstepRaw:
    """A lockstep kernel's outcome before result materialization.

    ``counts`` is the final (R, S) counts matrix, ``scalars`` the
    (R, :data:`N_SCALARS`) per-replicate outcome block laid out by
    :data:`SCALAR_FIELDS`.  This is the whole result:
    :func:`materialize_raw` turns it into
    :class:`~repro.engine.simulator.SimulationResult` objects.
    """

    counts: "object"  # (R, S) int64 ndarray
    scalars: "object"  # (R, N_SCALARS) int64 ndarray
    has_leap: bool
    wall_seconds: float

    @property
    def n_rows(self) -> int:
        return len(self.counts)


def materialize_raw(
    table,
    n_mobile: int,
    population: Population,
    display_name: str,
    raw: LockstepRaw,
    max_interactions: int,
    raise_on_timeout: bool,
) -> list[SimulationResult]:
    """Build per-replicate results from a kernel's raw arrays.

    Shared by both lockstep kernels: final configurations are lazy
    :class:`~repro.engine.counts.CountsConfiguration` representatives
    (O(S) per row - the O(N) expansion happens only if a caller looks)
    and wall clock is attributed in equal per-row shares.
    """
    n_rows = raw.n_rows
    share = raw.wall_seconds / n_rows if n_rows else 0.0
    scalars = raw.scalars
    has_leap = raw.has_leap
    results = []
    for r in range(n_rows):
        row = scalars[r]
        interactions = int(row[COL["interactions"]])
        non_null = int(row[COL["events"]])
        conv = int(row[COL["conv_at"]])
        converged_at = conv if conv >= 0 else None
        converged = converged_at is not None
        if not converged and raise_on_timeout:
            raise ConvergenceError(
                f"{display_name} did not converge "
                f"within {max_interactions} interactions",
                interactions=interactions,
            )
        leader_pos = int(row[COL["leader_pos"]])
        if has_leap:
            n_leaps = int(row[COL["leaps"]])
            leaps = n_leaps
            mean_tau = (
                int(row[COL["leap_interactions"]]) / n_leaps
                if n_leaps
                else 0.0
            )
            repairs = int(row[COL["repairs"]])
            ssa_fallback_rows = int(row[COL["ssa_rows"]])
        else:
            leaps = mean_tau = repairs = ssa_fallback_rows = None
        results.append(
            SimulationResult(
                converged=converged,
                interactions=interactions,
                non_null_interactions=non_null,
                final_configuration=materialize_counts_lazy(
                    table,
                    n_mobile,
                    raw.counts[r],
                    leader_pos if leader_pos >= 0 else None,
                ),
                population=population,
                trace=None,
                convergence_interaction=converged_at,
                faults_injected=0,
                stats=RunStats(
                    wall_seconds=share,
                    interactions_per_second=(
                        interactions / share if share > 0 else 0.0
                    ),
                    null_fraction=(
                        (interactions - non_null) / interactions
                        if interactions
                        else 0.0
                    ),
                    leaps=leaps,
                    mean_tau=mean_tau,
                    repairs=repairs,
                    ssa_fallback_rows=ssa_fallback_rows,
                ),
            )
        )
    return results


def lockstep_ssa(
    C,
    start,
    generators: list,
    plan,
    deltas,
    size: int,
    budget: int,
    cap: int | None = None,
    sanitize: str | None = None,
    row_ids=None,
):
    """Advance every row of counts matrix ``C`` by exact SSA events, in
    lockstep: one NumPy step moves every active row by one non-null
    event (see the module docstring).

    ``C`` is the (k, S) int64 working matrix, updated in place; row
    ``r`` starts at interaction ``start[r]`` and draws only from
    ``generators[r]``.  ``plan`` supplies the non-null pair arrays
    (``pair_i``, ``pair_j``, ``diag``) and ``deltas`` their aggregate
    delta rows (the leap plan's).  ``size`` is the population size N
    and ``budget`` the interaction budget.  A row stops when:

    - its next event would pass ``budget``: it ends at the budget;
    - it is silent: it stays at the position of its last event;
    - it has fired ``cap`` events (``None``: no cap).

    Randomness: a refill draws ``2 * min(cap, REFILL_STEPS)`` uniforms
    from each live row's generator, two per step.  Since every row
    starts at step 0 of the call, how many refills a row sees depends
    on its own trajectory alone; draws a row does not reach are
    discarded, which shifts that row's later stream deterministically.
    ``sanitize`` names the backend a sanitizer error reports (``None``:
    no checks); ``row_ids`` are the replicate indices it reports
    (default: ``C``'s row numbers).

    Returns ``(pos, events)``: int64 arrays of each row's final position
    and the number of events it fired.  Naming verdicts are the
    caller's.
    """
    np = _np
    pair_i, pair_j, diag = plan.pair_i, plan.pair_j, plan.diag
    n_rows, n_states = C.shape
    total_pairs = size * (size - 1)
    pos = np.array(start, dtype=np.int64)  # interactions, nulls included
    events = np.zeros(n_rows, dtype=np.int64)  # non-null interactions
    if row_ids is None:
        row_ids = np.arange(n_rows, dtype=np.int64)
    refill = REFILL_STEPS if cap is None else min(cap, REFILL_STEPS)

    # ``deltas`` holds per-pair aggregate delta rows (-1 at the meeting
    # pair, +1 at the result pair): one gather + one in-place add
    # applies a whole step, replacing the four-way np.add.at scatter
    # whose unbuffered per-index loop dominated the step at small
    # widths.
    pair_cols = np.concatenate((pair_i, pair_j))
    n_pairs = pair_i.shape[0]

    # Hot-loop state is *front-compacted*: the first ``n_act`` rows
    # of every working array are the live rows (aligned with ``idx``),
    # so the common no-drop step runs on contiguous view slices of
    # preallocated buffers - no per-step gather/scatter into the full
    # matrix, no per-step allocations, and the flat gather index table
    # is a fixed prefix slice.  ``pos``/``events`` are written back
    # only when a row is dropped (or capped); a row's event count is
    # simply the number of steps it participated in (one event per
    # step), tracked by ``steps_done``.
    idx = np.arange(n_rows, dtype=np.int64)
    C_act = C.copy()  # live working rows; written back to C on drop
    C_act_flat = C_act.reshape(-1)
    all_cols = (
        np.arange(n_rows, dtype=np.int64) * n_states
    )[:, None] + pair_cols
    # ``pos`` is carried as float64 in the hot loop: positions stay
    # exact (they are integers far below 2^53) and the geometric-gap
    # arithmetic then runs entirely inside one preallocated float
    # buffer, with no per-step astype allocation.
    pos_f = pos.astype(np.float64)
    buffer = np.empty((n_rows, 2 * refill))
    log_u1 = np.empty((n_rows, refill))
    cnt_full = np.empty((n_rows, 2 * n_pairs), dtype=np.int64)
    w_full = np.empty((n_rows, n_pairs), dtype=np.int64)
    cum_full = np.empty((n_rows, n_pairs), dtype=np.int64)
    f_full = np.empty(n_rows, dtype=np.float64)
    t_full = np.empty(n_rows, dtype=np.float64)
    pick_full = np.empty((n_rows, n_pairs), dtype=bool)
    fi_full = np.empty(n_rows, dtype=np.int64)
    d_full = np.empty((n_rows, n_states), dtype=np.int64)
    n_act = n_rows
    step_in_buffer = refill  # forces a refill on the first step
    steps_done = 0
    neg_inv_total = -1.0 / total_pairs

    def compact(keep: "np.ndarray") -> None:
        """Move the surviving rows to the front of every buffer."""
        nonlocal n_act
        survivors = int(keep.sum())
        C_act[:survivors] = C_act[:n_act][keep]
        pos_f[:survivors] = pos_f[:n_act][keep]
        buffer[:survivors] = buffer[:n_act][keep]
        log_u1[:survivors] = log_u1[:n_act][keep]
        cum_full[:survivors] = cum_full[:n_act][keep]
        n_act = survivors

    def views(n: int):
        """The hot-loop view bundle over the first ``n`` rows.

        Rebuilt only when the active set shrinks: every view is a
        GC-tracked allocation, and creating tens of them per step kept
        the young-generation collector cycling (and rescanning freshly
        materialized result tuples) for the whole kernel.
        """
        cnt = cnt_full[:n]
        cum = cum_full[:n]
        t = t_full[:n]
        weight = cum[:, -1] if n_pairs else np.zeros(n, dtype=np.int64)
        return (
            C_act[:n],
            cnt,
            cnt[:, :n_pairs],
            cnt[:, n_pairs:],
            w_full[:n],
            cum,
            weight,
            f_full[:n],
            t,
            t[:, None],
            pick_full[:n],
            fi_full[:n],
            d_full[:n],
            pos_f[:n],
            all_cols[:n],
            log_u1[:n],
            buffer[:n],
        )

    (
        C_v, cnt_v, ci_v, cj_v, w_v, cum_v, weight, fb, t_v, t_col,
        pick_v, fi_v, d_v, pos_v, cols_v, log_v, buf_v,
    ) = views(n_act)

    err_state = np.errstate(divide="ignore")
    err_state.__enter__()  # hoisted: ln(0) = -inf is expected at p = 1
    try:
        while n_act and (cap is None or steps_done < cap):
            if sanitize is not None:
                # Kernel-step cadence: the previous step's add is the
                # only writer of C_act, so corruption surfaces here.
                _sanitize.check_counts_rows(
                    sanitize, C_v, row_ids[idx], size, steps_done
                )
            # Both kernel gathers pass mode="clip", because under the
            # default "raise" NumPy gathers a ``take`` with ``out=``
            # into a temporary buffer first.  Clipping never changes a
            # value, as no index is out of range: here each is a row
            # offset r * n_states (r < n_rows) plus a pair column below
            # n_states; below, the pick ``fi`` counts the columns with
            # cum <= t = u2 * W.  t is computed from the float64
            # rounding of W = cum[-1], and less_equal compares cum in
            # that same rounding.  As u2 < 1 and W >= 1 on every row
            # that reaches the pick (silent rows drop first),
            # t < float64(W) at every N, so cum[-1] never counts and
            # fi < n_pairs.
            C_act_flat.take(cols_v, out=cnt_v, mode="clip")
            np.subtract(cj_v, diag, out=w_v)
            np.multiply(ci_v, w_v, out=w_v)
            w_v.cumsum(axis=1, out=cum_v)
            # A silent row (weight 0, including the n_pairs == 0
            # degenerate protocol) is not tested for here: its
            # geometric gap comes out +inf, so the budget branch below
            # catches and drops it.  The uniforms it consumes on the
            # way are drawn from its own generator - every other row's
            # stream, and so every other result, is unchanged.

            # -- two uniforms per active row per step, from its own
            # generator, via a buffered refill; the log of the u1 half
            # is taken once per refill, vectorized --
            if step_in_buffer == refill:
                for i in range(n_act):
                    buf_v[i] = generators[idx[i]].random(2 * refill)
                np.log(np.maximum(buf_v[:, 0::2], 1e-300), out=log_v)
                step_in_buffer = 0
            u1_log = log_v[:, step_in_buffer]
            u2 = buf_v[:, 2 * step_in_buffer + 1]
            step_in_buffer += 1

            # -- geometric gap to the next non-null event, by inverse
            # transform; p == 1 gives ln(0) = -inf and so gap 1, while
            # a silent row (p == 0) gives gap +inf.  ``u1`` is clamped
            # away from 0 so the finite ratios never overflow: with
            # weight >= 1 the gap is at most ~690 * N(N-1), comfortably
            # inside float64's exact-int range.  ``fb`` ends the block
            # holding the candidate new positions
            # (pos + floor(gap) + 1) --
            np.multiply(weight, neg_inv_total, out=fb)
            np.log1p(fb, out=fb)
            np.divide(u1_log, fb, out=fb)
            np.floor(fb, out=fb)
            np.add(fb, 1.0, out=fb)
            np.add(fb, pos_v, out=fb)

            # -- budget exhausted mid-gap, or silent (gap +inf): write
            # the row back and drop it.  A silent row stays at its last
            # event; any other ends at the budget --
            if fb.max() > budget:
                over = fb > budget
                oidx = idx[over]
                events[oidx] = steps_done
                C[oidx] = C_v[over]
                pos[oidx] = np.where(weight[over] == 0, pos_v[over], budget)
                keep = ~over
                idx = idx[keep]
                npos_kept = fb[keep]
                u2 = u2[keep]  # fancy copy, taken before compaction
                compact(keep)
                if not n_act:
                    continue
                (
                    C_v, cnt_v, ci_v, cj_v, w_v, cum_v, weight, fb, t_v,
                    t_col, pick_v, fi_v, d_v, pos_v, cols_v, log_v, buf_v,
                ) = views(n_act)
                pos_v[:] = npos_kept
            else:
                pos_v[:] = fb

            # -- categorical event pick over the row's true weights --
            np.multiply(u2, weight, out=t_v)
            np.less_equal(cum_v, t_col, out=pick_v)
            np.add.reduce(pick_v, axis=1, out=fi_v)

            # -- apply the transitions: each row moves by its event's
            # aggregate delta row, added in place to the compacted
            # working rows --
            deltas.take(fi_v, axis=0, out=d_v, mode="clip")
            np.add(C_v, d_v, out=C_v)
            steps_done += 1
    finally:
        err_state.__exit__(None, None, None)

    if n_act:  # rows that reached the cap
        C[idx] = C_v
        pos[idx] = pos_v
        events[idx] = steps_done
    return pos, events


class LockstepRung(CountsRung):
    """A counts rung that also runs whole ensembles in lockstep.

    What the batch and bleap engines share: both advance R replicates
    as one ``(R, S)`` counts matrix, admit the same runs (the lockstep
    sampling and naming-only refusals of :func:`native_refusal`) and
    serve a single :meth:`run` as a batch of R = 1.  A subclass supplies
    the kernel, :meth:`_raw`, and the ensemble fallback,
    :meth:`_replicates_below`.
    """

    sampling = "lockstep sampling"
    naming_only = (
        "the lockstep kernel only certifies the naming problem; other "
        "problems run per-replicate"
    )

    def run_replicates(
        self,
        initials: "Sequence[Configuration]",
        schedulers: list[Scheduler],
        max_interactions: int = 1_000_000,
        raise_on_timeout: bool = False,
        fault_hook: FaultHook | None = None,
    ) -> list[SimulationResult]:
        """Run one replicate per (initial, scheduler) pair, in lockstep.

        Returns one :class:`SimulationResult` per replicate, in input
        order.  Replicate ``r`` draws only from a generator seeded with
        ``schedulers[r].seed``, so its result is independent of the other
        replicates, of the batch width and of ``n_jobs`` chunking, and
        identical to a single-run :meth:`run` with the same seed.
        Ensembles the kernel cannot honour go to the rung's fallback
        (:meth:`_replicates_below`).

        ``initials`` may be any sequence, including a lazy one (see
        :class:`repro.engine.ensemble._LazyInitials`): the native path
        consumes it in a single pass, interning each configuration as it
        is produced, so O(N)-sized configurations never need to exist
        all at once.
        """
        if len(initials) != len(schedulers):
            raise SimulationError(
                f"{len(initials)} initial configurations for "
                f"{len(schedulers)} schedulers"
            )
        if not len(initials):
            return []
        admitted = None
        reason = native_refusal(
            self._table, self._plan, schedulers, self.problem, fault_hook,
            None, None, self.sampling, self.naming_only,
        )
        if reason is None:
            admitted, reason = self._intern_rows(initials)
        if reason is not None:
            warn_fallback(self.backend, self.delegate, reason)
            self.last_run_native = False
            return self._replicates_below(
                initials, schedulers, max_interactions, raise_on_timeout,
                fault_hook,
            )
        self.last_run_native = True
        rows, leaders = admitted
        return self._replicates(
            rows,
            leaders,
            [getattr(s, "seed", None) for s in schedulers],
            max_interactions,
            raise_on_timeout,
        )

    def _intern(self, initial: Configuration):
        return self._intern_rows([initial])

    def _intern_rows(self, initials: "Sequence[Configuration]"):
        """Intern every start, or explain why one cannot be.

        Returns ``((rows, leader_positions), None)`` or ``(None,
        reason)``.  Size validation, interning and leader-position
        collection share one pass over ``initials``, so a lazy sequence
        is realized exactly once on the native path (each configuration
        can be garbage collected as soon as its counts row exists).
        """
        rows: list[list[int]] = []
        leaders: list[int | None] = []
        for initial in initials:
            self._check_size(initial)
            counts, reason = intern_initial(
                self._table, self._plan.n_mobile, initial
            )
            if reason is not None:
                return None, reason
            rows.append(counts)
            leaders.append(initial.leader_index)
        return (rows, leaders), None

    def _run_admitted(
        self,
        initial: Configuration,
        admitted,
        max_interactions: int,
        raise_on_timeout: bool,
    ) -> SimulationResult:
        rows, leaders = admitted
        return self._replicates(
            rows,
            leaders,
            [getattr(self.scheduler, "seed", None)],
            max_interactions,
            raise_on_timeout,
        )[0]

    def _replicates(
        self,
        rows: list[list[int]],
        leader_positions: list[int | None],
        seeds: list[int | None],
        max_interactions: int,
        raise_on_timeout: bool,
    ) -> list[SimulationResult]:
        """Advance all rows on the kernel, then build their results."""
        raw = self._raw(rows, leader_positions, seeds, max_interactions)
        return materialize_raw(
            self._table,
            self._plan.n_mobile,
            self.population,
            self.protocol.display_name,
            raw,
            max_interactions,
            raise_on_timeout,
        )

    def _raw(
        self,
        rows: list[list[int]],
        leader_positions: list[int | None],
        seeds: list[int | None],
        budget: int,
    ) -> LockstepRaw:
        """The kernel: advance all rows to silence, convergence or the
        budget."""
        raise NotImplementedError

    def _replicates_below(
        self,
        initials: "Sequence[Configuration]",
        schedulers: list[Scheduler],
        max_interactions: int,
        raise_on_timeout: bool,
        fault_hook: FaultHook | None,
    ) -> list[SimulationResult]:
        """Serve a refused ensemble one rung down."""
        raise NotImplementedError


class BatchedEnsembleSimulator(LockstepRung):
    """Lockstep simulator for ensembles of replicate runs.

    Accepts the same constructor arguments and exposes the same
    single-run :meth:`run` contract as the other backends (registered as
    ``BACKENDS["batch"]``), plus :meth:`run_replicates`, which advances
    R replicates as one ``(R, S)`` counts matrix.  Runs served natively
    are statistically equivalent to the per-run counts backend (same
    Markov chain, same convergence semantics); ensembles the lockstep
    view cannot honour delegate to per-run
    :class:`~repro.engine.counts.CountSimulator` execution with a
    :class:`~repro.errors.BackendFallbackWarning`.
    :attr:`last_run_native` reports which path served the last call.

    Parameters
    ----------
    protocol, population, scheduler, problem, check_interval:
        As for :class:`~repro.engine.simulator.Simulator`.  The
        constructor's scheduler seeds the single-run :meth:`run` path;
        :meth:`run_replicates` takes one scheduler per replicate.
    compile_limit:
        Largest state-space size eagerly compiled (shared with the fast
        and counts backends); larger protocols delegate.
    sanitize:
        Arm the runtime sanitizer (see :mod:`repro.engine.sanitize`):
        the lockstep kernel checks every active row of the counts matrix
        (nonnegative entries summing to the population size) at every
        kernel step and once on the final matrix; delegated runs inherit
        the counts backend's sanitizer.  Checks never consume
        randomness, so per-seed results are unchanged.
    """

    backend = "batch"
    delegate = "counts"
    # Bound in the class itself, not only inherited: the end-to-end
    # benchmark's tracer reads each backend's ``run_replicates`` from
    # the class ``__dict__``.
    run_replicates = LockstepRung.run_replicates

    def __init__(
        self,
        protocol: PopulationProtocol,
        population: Population,
        scheduler: Scheduler,
        problem: Problem | None = None,
        check_interval: int | None = None,
        compile_limit: int = DEFAULT_COMPILE_LIMIT,
        sanitize: bool = False,
    ) -> None:
        # The counts simulator validates the wiring, compiles the shared
        # table/plan, and serves as the per-run fallback delegate (which
        # may itself continue down the ladder to fast/reference).
        super().__init__(
            CountSimulator(
                protocol, population, scheduler, problem, check_interval,
                compile_limit, sanitize=sanitize,
            )
        )
        self._requested_check_interval = check_interval
        self._compile_limit = compile_limit

    def _replicates_below(
        self,
        initials: "Sequence[Configuration]",
        schedulers: list[Scheduler],
        max_interactions: int,
        raise_on_timeout: bool,
        fault_hook: FaultHook | None,
    ) -> list[SimulationResult]:
        """One :class:`~repro.engine.counts.CountSimulator` per
        replicate."""
        return [
            CountSimulator(
                self.protocol,
                self.population,
                scheduler,
                self.problem,
                self._requested_check_interval,
                self._compile_limit,
                sanitize=self.sanitize,
            ).run(
                initial,
                max_interactions=max_interactions,
                fault_hook=fault_hook,
                raise_on_timeout=raise_on_timeout,
            )
            for initial, scheduler in zip(initials, schedulers)
        ]

    def _raw(
        self,
        rows: list[list[int]],
        leader_positions: list[int | None],
        seeds: list[int | None],
        budget: int,
    ) -> LockstepRaw:
        """Advance all rows to silence, convergence or the budget."""
        np = _np
        started = time.perf_counter()
        plan = self._plan
        C = np.asarray(rows, dtype=np.int64)
        n_rows = len(C)
        pos, events = lockstep_ssa(
            C,
            np.zeros(n_rows, dtype=np.int64),
            [np.random.default_rng(seed) for seed in seeds],
            plan,
            _leap_plan_for(self.protocol, plan).deltas,
            self.population.size,
            budget,
            sanitize="batch" if self.sanitize else None,
        )

        # Naming is solved iff a row is silent with all mobile counts
        # <= 1; the verdict can only be delivered at a check boundary,
        # the first one at/after the last event (capped at the budget) -
        # the position the per-run backends report.  Every other row
        # ends at the budget.  With no cap, the kernel stops a row short
        # of the budget only when it is silent; a row at the budget is
        # silent only if its last event, landing exactly there,
        # silenced it.
        conv_at = np.full(n_rows, -1, dtype=np.int64)  # -1: not converged
        if self.problem is not None:
            distinct = (C[:, : plan.n_mobile] < 2).all(axis=1)
            silent = pos < budget
            late = np.flatnonzero(distinct & ~silent)
            if late.size:
                C_late = C[late]
                silent[late] = (
                    C_late[:, plan.pair_i]
                    * (C_late[:, plan.pair_j] - plan.diag)
                ).sum(axis=1) == 0
            done = np.flatnonzero(silent & distinct)
            spos = pos[done]
            conv_at[done] = np.minimum(
                spos + (-spos) % self.check_interval, budget
            )
        if self.sanitize:
            _sanitize.check_counts_rows(
                "batch",
                C,
                np.arange(n_rows, dtype=np.int64),
                self.population.size,
                int(events.max(initial=0)),
            )

        elapsed = time.perf_counter() - started
        scalars = np.zeros((n_rows, N_SCALARS), dtype=np.int64)
        scalars[:, COL["interactions"]] = np.where(
            conv_at >= 0, conv_at, budget
        )
        scalars[:, COL["events"]] = events
        scalars[:, COL["conv_at"]] = conv_at
        scalars[:, COL["leader_pos"]] = [
            -1 if p is None else p for p in leader_positions
        ]
        return LockstepRaw(
            counts=C,
            scalars=scalars,
            has_leap=False,
            wall_seconds=elapsed,
        )


BACKENDS["batch"] = BatchedEnsembleSimulator
