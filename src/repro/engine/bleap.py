"""The batched tau-leaping ensemble backend: multinomial windows over a
whole replicate matrix.

The two fastest tiers of the backend ladder did not compose: the batch
engine (:mod:`repro.engine.batch`) advances every replicate of an
ensemble in lockstep but pays one kernel step per *event*, while the
leap engine (:mod:`repro.engine.leap`) aggregates whole windows of
events into one multinomial draw but serves one *run* at a time.  This
module fuses them.  An ensemble is the same ``(R, S)`` counts matrix
``C`` the batch engine uses - row ``r`` is replicate ``r``'s counts
vector - but each kernel iteration advances every active row by a whole
tau-leap window:

1.  **Propensities.**  ``w[r, f] = C[r, i_f] * (C[r, j_f] - [i_f =
    j_f])`` for every non-null pair ``f``, all rows at once.  Rows whose
    total weight is zero are silent forever; they are finalized (naming
    verdict straight off the counts row, delivered at the next
    ``check_interval`` boundary) and leave the kernel via the row mask.
2.  **Per-row adaptive tau.**  The Gillespie/Petzold eps-control of the
    leap backend, vectorized over rows: with per-interaction drift
    ``mu = p @ D`` and diffusion ``sigma^2 = p @ (D * D)``, each row's
    tau is capped so no state's expected change or variance inside the
    window exceeds ``max(leap_eps * c_s, 1)``, then clipped to the
    row's remaining budget.  (The reductions are evaluated row-wise -
    ``einsum`` rather than a BLAS matmul - so a row's tau is a function
    of that row alone, independent of which other rows share the batch.)
3.  **Batched multinomial window.**  Every row whose tau clears the
    leap thresholds draws its per-pair firing counts
    ``Multinomial(tau_r, (p_1, ..., p_F, p_null))`` from **its own**
    generator, and the stacked draws are applied to all leaping rows in
    a single vectorized ``K @ D`` update of the counts matrix.  A draw
    that would push any count negative is discarded and redrawn with
    tau halved (counted in ``RunStats.repairs``), exactly as in the
    per-run leap backend.
4.  **Exact-SSA bursts.**  Rows whose adaptive tau collapses below
    ``min_tau``, whose window would hold fewer than
    ``MIN_WINDOW_EVENTS`` expected events (the sparse endgame near
    silence), or whose repair loop collapsed, advance by a burst of
    *exact* SSA steps instead - geometric null-gap plus categorical
    event pick, the same chain the counts backend samples - and are
    re-examined for leaping at the next refresh.  All rows that burst
    at one refresh run together on the batch engine's lockstep kernel
    (:func:`~repro.engine.batch.lockstep_ssa`), one NumPy step per
    event, for up to :data:`~repro.engine.leap.EXACT_BURST` events; a
    row that falls silent stays at its last event and is finalized at
    the next refresh, and one whose next event would pass the budget
    ends there.  ``RunStats.ssa_fallback_rows`` records (per row: 0 or
    1) whether a row ever took the exact path, so ensembles report how
    many replicates leapt versus stepped.

Randomness and reproducibility
------------------------------

As in the batch engine, every row draws only from its own
:class:`numpy.random.Generator`, seeded with its scheduler's seed, and
every per-row quantity (tau, propensities, repair decisions) is computed
from that row's state alone.  A window draws its multinomial from the
row's generator; a burst draws exactly ``2 * EXACT_BURST`` uniforms
from it up front (per step, one for the inverse-transform gap and one
for the event pick), however many events the burst fires and whichever
rows burst with it.  A row's trajectory is therefore a function of its
seed - independent of the batch width, of which rows share its bursts,
and of how an ensemble is chunked across worker processes.  Serial,
parallel and single-run executions of the same seed are bit-identical.

Exactness contract
------------------

Like the per-run leap backend, native runs are *approximately*
distribution-equivalent to the exact counts chain, with the error
bounded per window by ``leap_eps``; rows served by the SSA fallback are
exact.  Convergence semantics are windowed: silence is tested at every
refresh and a silent row's convergence interaction is rounded up to the
next ``check_interval`` boundary (capped at the budget).  Distributional
accuracy against the leap and batch backends is validated in
``tests/engine/test_bleap.py`` under KS-style bounds, in both the
leap-friendly (large N) and SSA-fallback (small N, near-silence)
regimes.

When armed, the sanitizer checks every active counts row (nonnegative
entries summing to the population size) at *window-refresh* granularity
- the bleap analog of the leap backend's per-refresh checks - at every
step of a burst, and once on the final matrix; every check reports the
``bleap`` backend.  The post-silence-change invariant is enforced
structurally: a row observed silent is finalized and dropped at that
same refresh, so no later window can touch it.

Ensembles the bleap view cannot honour - non-uniform schedulers, fault
hooks, traces/observers, problems that are not the permutation-invariant
naming problem, open-role protocols, uncompilable state spaces (the
batch engine's refusals, :class:`~repro.engine.batch.LockstepRung`) -
fall back to the lockstep batch engine with a structured
:class:`~repro.errors.BackendFallbackWarning` (``backend="bleap"``,
``delegate="batch"``), which applies its own preconditions and continues
down the ladder ``batch -> counts -> fast -> reference``.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as _np

from repro.engine import sanitize as _sanitize
from repro.engine.batch import (
    COL,
    N_SCALARS,
    BatchedEnsembleSimulator,
    LockstepRaw,
    LockstepRung,
    lockstep_ssa,
)
from repro.engine.configuration import Configuration
from repro.engine.fast import BACKENDS, DEFAULT_COMPILE_LIMIT
from repro.engine.leap import (
    DEFAULT_LEAP_EPS,
    DEFAULT_MIN_TAU,
    EXACT_BURST,
    MIN_WINDOW_EVENTS,
    _leap_plan_for,
    check_leap_knobs,
)
from repro.engine.population import Population
from repro.engine.problems import Problem
from repro.engine.protocol import PopulationProtocol
from repro.engine.simulator import FaultHook, SimulationResult
from repro.schedulers.base import Scheduler


class BatchedLeapSimulator(LockstepRung):
    """Lockstep tau-leaping simulator for ensembles of replicate runs.

    Accepts the same constructor arguments and exposes the same
    single-run :meth:`run` contract as the other backends (registered as
    ``BACKENDS["bleap"]``), plus :meth:`run_replicates`, which advances
    R replicates as one ``(R, S)`` counts matrix with per-row adaptive
    multinomial windows (see the module docstring).  Ensembles the
    windowed view cannot honour delegate to the lockstep
    :class:`~repro.engine.batch.BatchedEnsembleSimulator` with a
    structured :class:`~repro.errors.BackendFallbackWarning`.
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
    leap_eps:
        Relative per-window change bound of the per-row adaptive tau
        selection (``--leap-eps`` on the CLIs).  Smaller is more
        accurate and slower; the default
        :data:`~repro.engine.leap.DEFAULT_LEAP_EPS` passes the KS
        validation suite.
    min_tau:
        Rows whose adaptive tau falls below this advance by exact SSA
        bursts instead, so small populations never pay leap error.
    sanitize:
        Arm the runtime sanitizer (see :mod:`repro.engine.sanitize`):
        the native kernel checks every active counts row at
        window-refresh granularity and once on the final matrix;
        delegated runs inherit the batch backend's sanitizer.  Checks
        never consume randomness, so per-seed results are unchanged.
    """

    backend = "bleap"
    delegate = "batch"
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
        leap_eps: float = DEFAULT_LEAP_EPS,
        min_tau: int = DEFAULT_MIN_TAU,
        sanitize: bool = False,
    ) -> None:
        check_leap_knobs(leap_eps, min_tau)
        # The batch simulator validates the wiring, compiles the shared
        # table/plan and serves as the fallback delegate (which may
        # itself continue down the ladder to counts/fast/reference).
        super().__init__(
            BatchedEnsembleSimulator(
                protocol, population, scheduler, problem, check_interval,
                compile_limit, sanitize=sanitize,
            )
        )
        self.leap_eps = leap_eps
        self.min_tau = min_tau
        self._leap = (
            _leap_plan_for(protocol, self._plan)
            if self._plan is not None
            else None
        )

    def _replicates_below(
        self,
        initials: "Sequence[Configuration]",
        schedulers: list[Scheduler],
        max_interactions: int,
        raise_on_timeout: bool,
        fault_hook: FaultHook | None,
    ) -> list[SimulationResult]:
        """The lockstep batch engine's own ``run_replicates``."""
        return self._below.run_replicates(
            initials,
            schedulers,
            max_interactions=max_interactions,
            raise_on_timeout=raise_on_timeout,
            fault_hook=fault_hook,
        )

    # ------------------------------------------------------------------
    # The windowed lockstep kernel
    # ------------------------------------------------------------------

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
        n_mobile = plan.n_mobile
        pair_i, pair_j, diag = plan.pair_i, plan.pair_j, plan.diag
        deltas = self._leap.deltas
        deltas_sq = self._leap.deltas_sq
        n_pairs = pair_i.shape[0]
        size = self.population.size
        total_pairs = size * (size - 1)
        eps = self.leap_eps
        min_tau = self.min_tau
        check_interval = self.check_interval
        checking = self.problem is not None

        n_rows = len(rows)
        C = np.asarray(rows, dtype=np.int64)
        pos = np.zeros(n_rows, dtype=np.int64)  # interactions, nulls incl.
        events = np.zeros(n_rows, dtype=np.int64)  # non-null interactions
        conv_at = np.full(n_rows, -1, dtype=np.int64)  # -1: not converged
        leaps = np.zeros(n_rows, dtype=np.int64)
        leap_interactions = np.zeros(n_rows, dtype=np.int64)
        repairs = np.zeros(n_rows, dtype=np.int64)
        ssa_rows = np.zeros(n_rows, dtype=bool)

        # Per-row generators: a row's stream is a function of its own
        # seed, so results are invariant under batching and chunking.
        generators = [np.random.default_rng(seed) for seed in seeds]

        idx = np.arange(n_rows, dtype=np.int64)  # active rows
        refresh = 0
        sanitizing = self.sanitize

        while idx.size:
            refresh += 1
            if sanitizing:
                # Window-refresh cadence: between refreshes the matrix
                # moves only through vetted (repaired) window applies or
                # exact bursts (checked at every step), so corruption
                # surfaces here.
                _sanitize.check_counts_rows(
                    "bleap", C[idx], idx, size, refresh
                )
            Cact = C[idx]
            w = Cact[:, pair_i] * (Cact[:, pair_j] - diag)
            weight = w.sum(axis=1)

            # -- silence: frozen forever; finalize and drop the row.
            # The naming verdict can only be delivered at a check
            # boundary: the first one at/after the last event, capped at
            # the budget - the position the per-run backends report --
            silent = weight == 0
            if silent.any():
                sidx = idx[silent]
                if checking:
                    distinct = (C[sidx, :n_mobile] < 2).all(axis=1)
                    spos = pos[sidx]
                    at = np.minimum(
                        spos + (-spos) % check_interval, budget
                    )
                    converged = sidx[distinct]
                    conv_at[converged] = at[distinct]
                    pos[converged] = at[distinct]
                    pos[sidx[~distinct]] = budget
                else:
                    pos[sidx] = budget
                keep = ~silent
                idx = idx[keep]
                if not idx.size:
                    break
                Cact = C[idx]
                w = w[keep]
                weight = weight[keep]

            # -- per-row adaptive tau (Gillespie/Petzold): bound each
            # state's expected change and variance inside the window by
            # max(eps * count, 1), then clip to the remaining budget.
            # einsum keeps every reduction row-wise (seed identity) --
            p = w / total_pairs
            mu = np.einsum("ap,ps->as", p, deltas)
            sig2 = np.einsum("ap,ps->as", p, deltas_sq)
            cap = np.maximum(eps * Cact, 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                t_drift = np.where(
                    mu != 0.0, cap / np.abs(mu), np.inf
                ).min(axis=1)
                t_noise = np.where(
                    sig2 > 0.0, cap * cap / sig2, np.inf
                ).min(axis=1)
            rem = (budget - pos[idx]).astype(np.float64)
            tau = np.minimum(
                np.minimum(t_drift, t_noise), rem
            ).astype(np.int64)
            leap_ok = (tau >= min_tau) & (
                tau * (weight / total_pairs) >= MIN_WINDOW_EVENTS
            )

            # -- batched multinomial window over the leaping rows: one
            # per-row draw from the row's own generator, one vectorized
            # K @ D apply for all feasible rows.  Infeasible draws are
            # repaired per row (tau halved, redrawn); a collapsed
            # repair drops the row to this refresh's SSA burst --
            ssa_sel = list(np.flatnonzero(~leap_ok))
            if leap_ok.any():
                l_sel = np.flatnonzero(leap_ok)
                tau_l = tau[l_sel]
                pv = np.empty((l_sel.size, n_pairs + 1))
                pv[:, :n_pairs] = p[l_sel]
                pv[:, n_pairs] = np.maximum(
                    0.0, 1.0 - p[l_sel].sum(axis=1)
                )
                pv /= pv.sum(axis=1, keepdims=True)
                K = np.empty((l_sel.size, n_pairs), dtype=np.int64)
                for i, a in enumerate(l_sel):
                    K[i] = generators[idx[a]].multinomial(
                        int(tau_l[i]), pv[i]
                    )[:n_pairs]
                C_next = C[idx[l_sel]] + K @ deltas
                bad = (C_next < 0).any(axis=1)
                good = ~bad
                gidx = idx[l_sel[good]]
                C[gidx] = C_next[good]
                pos[gidx] += tau_l[good]
                events[gidx] += K[good].sum(axis=1)
                leaps[gidx] += 1
                leap_interactions[gidx] += tau_l[good]
                for i in np.flatnonzero(bad):
                    a = l_sel[i]
                    r = idx[a]
                    rng = generators[r]
                    repairs[r] += 1  # the infeasible batched draw
                    t = int(tau_l[i]) >> 1
                    applied = False
                    while t >= min_tau:
                        k = rng.multinomial(t, pv[i])[:n_pairs]
                        c_next = C[r] + k @ deltas
                        if (c_next >= 0).all():
                            C[r] = c_next
                            pos[r] += t
                            events[r] += int(k.sum())
                            leaps[r] += 1
                            leap_interactions[r] += t
                            applied = True
                            break
                        repairs[r] += 1
                        t >>= 1
                    if not applied:
                        ssa_sel.append(a)

            # -- exact-SSA burst on the batch engine's lockstep kernel:
            # every bursting row advances together by up to EXACT_BURST
            # events.  Serves collapsed-tau churn, small populations
            # and the sparse endgame; a row that falls silent stays at
            # its last event and is finalized at the next refresh, any
            # other rejoins tau estimation there --
            if ssa_sel:
                rs = idx[ssa_sel]
                block = C[rs]
                pos[rs], fired = lockstep_ssa(
                    block,
                    pos[rs],
                    [generators[r] for r in rs],
                    plan,
                    deltas,
                    size,
                    budget,
                    cap=EXACT_BURST,
                    sanitize="bleap" if sanitizing else None,
                    row_ids=rs,
                )
                C[rs] = block
                events[rs] += fired
                ssa_rows[rs] = True

            # -- budget exhausted: drop the row from the active set (a
            # final silence check below catches runs ending exactly at
            # silence, matching the per-run leap backend) --
            exhausted = pos[idx] >= budget
            if exhausted.any():
                idx = idx[~exhausted]

        # Final check: the budget may end exactly at silence.
        if checking:
            unconv = np.flatnonzero(conv_at < 0)
            if unconv.size:
                Cu = C[unconv]
                wu = (Cu[:, pair_i] * (Cu[:, pair_j] - diag)).sum(axis=1)
                distinct = (Cu[:, :n_mobile] < 2).all(axis=1)
                hit = (wu == 0) & distinct
                conv_at[unconv[hit]] = pos[unconv[hit]]

        if sanitizing:
            _sanitize.check_counts_rows(
                "bleap",
                C,
                np.arange(n_rows, dtype=np.int64),
                size,
                refresh,
            )

        elapsed = time.perf_counter() - started
        scalars = np.zeros((n_rows, N_SCALARS), dtype=np.int64)
        scalars[:, COL["interactions"]] = pos
        scalars[:, COL["events"]] = events
        scalars[:, COL["conv_at"]] = conv_at
        scalars[:, COL["leader_pos"]] = [
            -1 if p is None else p for p in leader_positions
        ]
        scalars[:, COL["leaps"]] = leaps
        scalars[:, COL["leap_interactions"]] = leap_interactions
        scalars[:, COL["repairs"]] = repairs
        scalars[:, COL["ssa_rows"]] = ssa_rows
        return LockstepRaw(
            counts=C,
            scalars=scalars,
            has_leap=True,
            wall_seconds=elapsed,
        )


BACKENDS["bleap"] = BatchedLeapSimulator
