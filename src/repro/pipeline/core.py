"""The cycle-level SMT out-of-order core.

Models the Table IV machine: ICOUNT-style fetch of up to ``fetch_width``
instructions from up to ``fetch_max_threads`` threads per cycle, a front-end
pipeline of ``frontend_depth`` cycles, register renaming against shared
int/fp rename-register pools, shared ROB/LSQ and per-class issue queues,
oldest-first issue to the functional-unit pools, a shared write buffer that
stores drain through after commit, and per-thread commit with a shared
commit-width budget.

Fetch policies plug in through :class:`repro.policies.base.FetchPolicy`
hooks; flushes squash a thread's youngest instructions, undo the rename map
from per-instruction records, release all held resources, and rewind the
thread's (stateless, regenerable) trace index.

Branch handling is trace-driven: wrong-path instructions are never fetched;
a mispredicted branch instead blocks its thread's fetch until the branch
resolves, and the front-end refill supplies the redirect penalty.

The engine optionally *fast-forwards* over cycles in which provably nothing
can happen (no fetch-eligible thread, empty ready queues, no dispatchable or
committable instruction) by jumping to the next scheduled event; tests
verify cycle-exact equivalence with the naive loop.

Implementation notes (perf): this file is the simulator's hot loop — every
experiment bottoms out in :meth:`SMTCore.step` (or its fused copy inside
:meth:`SMTCore._run_until`).  Beyond the usual local/bound-method hoists,
per-op tables and config snapshotting, the engine is *event-driven where
the original was per-cycle*: fetch eligibility lives in an incrementally
maintained candidate list updated only on stall/unstall transitions
(``ThreadState._sync_policy_stall``), branch- and policy-stall cycles are
accounted as wait intervals, dispatch latches rejected heads against a
resource-release epoch and head-ready times (and replays a proven
all-blocked stall verdict without re-scanning while that epoch holds),
the commit stage runs behind an exact head-completion gate, whole-stage
wake latches skip provably idle fetch/dispatch cycles, and retired
``DynInstr`` records are pool-recycled under explicit reference
accounting.  The data layout is scan-free where the original was
scan-heavy: completions/detections/write-buffer drains ride cycle-bucketed
calendar queues (see the event wheels in ``__init__``) instead of tuple
heaps, each thread's rename map is a flat array indexed by the dense
architectural register number, and the dispatch/commit rotations are
filtered through activity bitmasks (``_fe_mask``/``_heads_mask``) with a
lazily built per-(mask, start) rotation cache.  Several bodies are
deliberately duplicated for speed (``step``/the fused loop,
``_commit``/``_commit_one``, ``_dispatch``/``_try_dispatch``,
``_complete``/its inlined copies, the base fetch_order/fetch_pending and
non-memory ``_execute`` bodies inlined into the fused loop and
``_issue``) — keep them in sync; the golden-stats matrix
(``tests/test_golden_stats.py``, {1,2,4,8} threads x all eight paper
policies plus runahead) pins every copy to the pre-optimization core
cycle-for-cycle.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.branch import BTB, GShare
from repro.config import SMTConfig
from repro.isa import FU_CLASS_BY_OP, FuClass
from repro.memory.hierarchy import MemoryHierarchy, ServiceLevel
from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.stats import CoreStats
from repro.pipeline.thread_state import ThreadState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.policies.base import FetchPolicy
    from repro.workloads.trace import SyntheticTrace


#: Upper bound on pooled DynInstr records; enough to absorb the live
#: population of the largest configured window plus fetch queues.
_DI_POOL_CAP = 4096

#: Age order for draining a multi-entry wheel bucket (see the calendar
#: queues in :meth:`SMTCore.__init__`): sorting by ``gseq`` reproduces
#: the old heaps' (cycle, age) pop order exactly.
_BY_GSEQ = attrgetter("gseq")

#: ICOUNT priority for the fetch-order fast path inlined into the fused
#: run loop (keep in sync with :mod:`repro.policies.base`).
_BY_ICOUNT = attrgetter("icount")


class SimulationDeadlock(RuntimeError):
    """Raised when no future event can ever change pipeline state."""


class SimulationLimitExceeded(RuntimeError):
    """Raised when the cycle budget runs out before the commit target."""


class SMTCore:
    """One simulated SMT processor instance (single run, single workload)."""

    # The hot loop reads dozens of core attributes per cycle; with ~55
    # instance attributes the CPython inline-values optimization does not
    # hold, so slots keep every ``self.X`` a fixed-offset load.  The
    # trailing ``__dict__`` keeps ad-hoc attribute assignment (tests spy
    # by monkeypatching instance methods) working.
    __slots__ = (
        "cfg", "hierarchy", "threads", "policy", "gshare", "btb", "cycle",
        "_gseq", "_ready", "_ready_by_op",
        "_ready_int", "_ready_ldst", "_ready_fp",
        "_num_int_alu", "_num_ldst", "_num_fp",
        "_wheel_mask", "_ev_buckets", "_ev_marks", "_ev_over",
        "_dt_buckets", "_dt_marks", "_dt_over",
        "_wb_buckets", "_wb_marks", "_wb_over", "_wb_used",
        "rob_used", "lsq_used", "iq_used", "fq_used",
        "int_regs_used", "fp_regs_used",
        "_fe_capacity", "stats", "_line_shift", "_measure_start",
        "_track_ll_dep", "_rob_size", "_lsq_size", "_int_iq_size",
        "_fp_iq_size", "_int_rename_regs", "_fp_rename_regs",
        "_commit_width", "_decode_width", "_fetch_width",
        "_fetch_max_threads", "_frontend_depth", "_wb_entries",
        "_fast_forward", "_rotations", "_fetch_candidates",
        "_fe_mask", "_heads_mask", "_rot_cache", "_full_mask",
        "_policy_on_resource_stall",
        "_release_epoch", "_committed_watermark", "_commit_pending",
        "_di_pool", "_policy_fetch_order", "_policy_fetch_pending",
        "_policy_can_dispatch", "_policy_on_fetch", "_policy_on_fetch_load",
        "_policy_on_load_complete", "_commit_stage", "_dispatch_stage",
        "_issue_stage", "_complete_is_base", "_execute_is_base",
        "_hier_load", "_hier_ifetch", "_hier_store", "_n_threads",
        "_fetch_wake", "_fetch_order_is_base", "_dispatch_wake",
        "_stall_latch_until", "_stall_latch_epoch",
        "__dict__",
    )

    def __init__(self, cfg: SMTConfig, traces: list[SyntheticTrace],
                 policy: FetchPolicy,
                 hierarchy: MemoryHierarchy | None = None):
        if len(traces) != cfg.num_threads:
            raise ValueError(
                f"expected {cfg.num_threads} traces, got {len(traces)}")
        self.cfg = cfg
        self.hierarchy = hierarchy or MemoryHierarchy(cfg.memory)
        # Hot hierarchy entry points as single-hop bound methods.
        self._hier_load = self.hierarchy.load
        self._hier_ifetch = self.hierarchy.ifetch
        self._hier_store = self.hierarchy.store
        self._n_threads = cfg.num_threads
        self.threads = tuple(ThreadState(tid, trace, cfg)
                             for tid, trace in enumerate(traces))
        self.policy = policy
        self.gshare = GShare(cfg.gshare_entries, cfg.num_threads)
        self.btb = BTB(cfg.btb_entries, cfg.btb_assoc)
        self.cycle = 0
        self._gseq = 0
        # Calendar ("event wheel") queues for completions, long-latency
        # detections and write-buffer drains, replacing three heaps: a
        # ring of per-cycle buckets indexed by ``when & _wheel_mask``
        # absorbs every in-horizon event hop with a plain list append
        # instead of a ``(cycle, seq, di)`` tuple heappush; an int heap
        # of *armed bucket cycles* (``*_marks``, one entry per distinct
        # pending cycle) keeps the O(1) earliest-event peek the
        # fast-forward probe needs; and a spill heap (``*_over``) takes
        # the rare past-horizon schedule (``serialize_long_latency`` can
        # defer completions arbitrarily far).  A bucket is drained
        # exactly at its own cycle — fast-forward jumps are bounded by
        # the armed marks, so an armed cycle is never skipped — and is
        # sorted by ``gseq`` only when it holds several records, keeping
        # the heap's (cycle, age) pop order exact.  The write-buffer
        # wheel stores plain per-cycle drain *counts* with the occupancy
        # tracked in ``_wb_used``.
        mem_cfg = cfg.memory
        horizon = 2 * (mem_cfg.mem_latency + mem_cfg.tlb_miss_penalty) + 512
        wheel = max(1024, min(1 << horizon.bit_length(), 1 << 16))
        self._wheel_mask = wheel - 1
        # Bucket lists materialize lazily (None until a slot's first use):
        # a fresh core allocates two flat None-arrays instead of thousands
        # of empty lists, and the steady state reuses the same few hot
        # buckets.  ``None`` and ``[]`` are both "empty" at the drains.
        self._ev_buckets: list[list[DynInstr] | None] = [None] * wheel
        self._ev_marks: list[int] = []
        self._ev_over: list[tuple[int, int, DynInstr]] = []
        self._dt_buckets: list[list[DynInstr] | None] = [None] * wheel
        self._dt_marks: list[int] = []
        self._dt_over: list[tuple[int, int, DynInstr]] = []
        self._wb_buckets: list[int] = [0] * wheel
        self._wb_marks: list[int] = []
        self._wb_over: list[int] = []
        self._wb_used = 0
        self._ready: dict[FuClass, list[tuple[int, DynInstr]]] = {
            FuClass.INT_ALU: [], FuClass.LDST: [], FuClass.FP: []}
        #: The same ready queues, addressable by ``int(op)`` with a single
        #: tuple index (hot path) instead of two enum-keyed dict lookups.
        self._ready_by_op: tuple[list, ...] = tuple(
            self._ready[FU_CLASS_BY_OP[i]] for i in range(len(FU_CLASS_BY_OP)))
        # The three FU-pool ready queues and their slot counts as direct
        # attributes: the issue stage and the fast-forward probe touch
        # them every cycle.
        self._ready_int = self._ready[FuClass.INT_ALU]
        self._ready_ldst = self._ready[FuClass.LDST]
        self._ready_fp = self._ready[FuClass.FP]
        self._num_int_alu = cfg.num_int_alu
        self._num_ldst = cfg.num_ldst
        self._num_fp = cfg.num_fp
        self.rob_used = 0
        self.lsq_used = 0
        self.iq_used = 0
        self.fq_used = 0
        self.int_regs_used = 0
        self.fp_regs_used = 0
        # The front-end queue must hold frontend_depth cycles of in-flight
        # instructions *plus* headroom for new fetch groups, or fetch
        # stalls every other cycle at full throughput.
        self._fe_capacity = (cfg.frontend_depth + 2) * cfg.fetch_width
        self.stats = CoreStats(threads=[ts.stats for ts in self.threads])
        self._line_shift = cfg.memory.line_size.bit_length() - 1
        self._measure_start = 0
        self._track_ll_dep = cfg.predictors.dependence_aware
        # Config limits snapshotted off the frozen dataclass: plain slots
        # on self are one attribute hop instead of two in the stage loops.
        self._rob_size = cfg.rob_size
        self._lsq_size = cfg.lsq_size
        self._int_iq_size = cfg.int_iq_size
        self._fp_iq_size = cfg.fp_iq_size
        self._int_rename_regs = cfg.int_rename_regs
        self._fp_rename_regs = cfg.fp_rename_regs
        self._commit_width = cfg.commit_width
        self._decode_width = cfg.decode_width
        self._fetch_width = cfg.fetch_width
        self._fetch_max_threads = cfg.fetch_max_threads
        self._frontend_depth = cfg.frontend_depth
        self._wb_entries = cfg.write_buffer_entries
        self._fast_forward = cfg.fast_forward
        # Precomputed commit/dispatch rotation orders: _rotations[s] is the
        # thread list starting at thread s, so the per-cycle rotation is a
        # single tuple index instead of n modulo operations.
        n = cfg.num_threads
        self._rotations = tuple(
            tuple(self.threads[(s + i) % n] for i in range(n))
            for s in range(n))
        # Activity bitmasks over the thread set: ``_fe_mask`` holds the
        # threads with a non-empty front-end queue (maintained at fetch
        # appends, dispatch pops and flushes), ``_heads_mask`` the
        # threads whose ROB head is completed (the ``head_ready``
        # transitions).  ``_rot_cache[mask * n + start]`` lazily
        # materializes the rotation order starting at ``start`` filtered
        # to the mask's threads, so the per-cycle dispatch/commit scans
        # iterate only the threads that can possibly act — at 8 threads
        # the full-rotation scans were >60% provably idle hops.  The
        # cache covers n <= 8 (the table is n * 2^n entries); larger
        # machines fall back to the plain full rotations.
        self._fe_mask = 0
        self._heads_mask = 0
        self._full_mask = (1 << n) - 1
        self._rot_cache: list | None = (
            [None] * (n << n) if n <= 8 else None)
        # Event-maintained fetch-eligibility structure: the policy-unstalled
        # threads in tid order, re-derived only on stall/unstall transitions
        # (ThreadState._sync_policy_stall) instead of per cycle.  An empty
        # list means every thread is policy-stalled (the COT case).
        for ts in self.threads:
            ts.core = self
        self._fetch_candidates: list[ThreadState] = list(self.threads)
        # Shared-resource release epoch: bumped whenever any shared counter
        # (ROB/LSQ/IQ/regs) *decreases*.  The dispatch stage latches a
        # head rejected by a resource gate against the epoch and re-asserts
        # the rejection without re-proving it while the epoch is unchanged.
        self._release_epoch = 0
        # Highest per-thread committed count this measurement phase; lets
        # the run loop stop-check in O(1) instead of scanning every thread
        # every cycle.
        self._committed_watermark = 0
        # Event-driven commit gate: set by _complete (a completed record
        # may be or become a ROB head) and kept set by _commit while a
        # budget-limited pass or a write-buffer-blocked store head could
        # still make progress; cleared only when a full pass proves every
        # head is absent or incomplete.  RunaheadCore never clears it —
        # its commit stage can make progress on incomplete heads.
        self._commit_pending = False
        # Retired-DynInstr free list (None disables pooling — RunaheadCore
        # opts out because INV/pseudo-retire state can outlive commit).
        self._di_pool: list[DynInstr] | None = []
        policy.attach(self)
        # Bound-method hoists for the two policy calls made every cycle.
        # The policy is attached exactly once, at construction.
        self._policy_fetch_order = policy.fetch_order
        self._policy_fetch_pending = policy.fetch_pending
        # Per-instruction hooks elided when the policy keeps the marked
        # no-op defaults (None means "skip the call").
        cls = type(policy)
        self._policy_can_dispatch = (
            None if getattr(cls.can_dispatch, "_is_default_hook", False)
            else policy.can_dispatch)
        fetch_hook = (
            None if getattr(cls.on_fetch, "_is_default_hook", False)
            else policy.on_fetch)
        if fetch_hook is not None and cls.on_fetch_loads_only:
            # The policy declares its hook a no-op for non-loads: route
            # it to the loads-only call site in _fetch_thread.
            self._policy_on_fetch = None
            self._policy_on_fetch_load = fetch_hook
        else:
            self._policy_on_fetch = fetch_hook
            self._policy_on_fetch_load = None
        self._policy_on_load_complete = (
            None if getattr(cls.on_load_complete, "_is_default_hook", False)
            else policy.on_load_complete)
        self._policy_on_resource_stall = (
            None if getattr(cls.on_resource_stall, "_is_default_hook", False)
            else policy.on_resource_stall)
        # Stage methods bound once (subclass overrides resolve here); saves
        # a method lookup per stage per cycle in step().
        self._commit_stage = self._commit
        self._dispatch_stage = self._dispatch
        self._issue_stage = self._issue
        # step() inlines the completion-event loop only when _complete is
        # not overridden (RunaheadCore adds exit-runahead handling there).
        self._complete_is_base = type(self)._complete is SMTCore._complete
        # _issue inlines _execute's non-memory fast path only while the
        # class implementation is the base one (instance monkeypatches
        # are re-checked per stage call against ``__dict__``).
        self._execute_is_base = type(self)._execute is SMTCore._execute
        # Fetch-wake latch: earliest cycle fetch_order could be non-empty
        # again after returning empty (0 = probe every cycle).  Armed only
        # for the marked base eligibility rules; disarmed (reset to 0) by
        # branch resolution, front-end pops, flushes and candidate
        # rebuilds — the only non-time-bound eligibility changes.
        self._fetch_wake = 0
        self._fetch_order_is_base = (
            getattr(cls.fetch_order, "_is_base_impl", False)
            and getattr(cls.fetch_pending, "_is_base_impl", False))
        # Dispatch-wake latch: armed by the base dispatch stage when a
        # full pass saw no ready head anywhere (so no resource-stall
        # accounting can be owed) — the stage call is skipped until the
        # earliest observed head-ready time, a fetch into an empty queue,
        # or a flush.
        self._dispatch_wake = 0
        # Stall-verdict latch: armed when a full dispatch pass concluded
        # "every ready head is blocked by a full shared resource" under a
        # policy whose ``on_resource_stall`` hook is the marked no-op and
        # with no dispatch cap.  While the release epoch is unchanged and
        # no absent head can have arrived by time (``_stall_latch_until``
        # bounds that; fetch into an empty queue and flushes disarm), the
        # verdict — one resource-stall cycle — is replayed without
        # re-running the scan.
        self._stall_latch_until = 0
        self._stall_latch_epoch = -1

    # ------------------------------------------------------------------ #
    # top-level driving
    # ------------------------------------------------------------------ #

    def run(self, max_commits: int, max_cycles: int | None = None,
            warmup: int = 0) -> CoreStats:
        """Simulate until any thread commits ``max_commits`` instructions.

        This is the paper's multiprogram methodology (Section 5): the run
        stops when the first program reaches its instruction budget.  With
        ``warmup`` > 0, the run first executes until some thread commits
        that many instructions, then resets all measurements (caches,
        predictors and branch state stay warm) before the measured phase.
        """
        self.begin_measurement(warmup, max_cycles)
        self.advance_to(max_commits, max_cycles)
        return self.stats

    def begin_measurement(self, warmup: int,
                          max_cycles: int | None = None) -> None:
        """Execute the warmup phase (if any) and zero the measurements.

        Half of the :meth:`run` protocol, exposed so incremental drivers
        (:meth:`repro.api.Session.iter_intervals`) share the exact
        warmup/settle/reset sequence instead of re-implementing it.
        """
        if warmup > 0:
            try:
                self._run_until(warmup, max_cycles)
            finally:
                self._settle_stall_accounting()
            self.reset_measurement()

    def advance_to(self, commits: int,
                   max_cycles: int | None = None) -> bool:
        """Resume the measured phase until ``commits`` is reached.

        The other half of the :meth:`run` protocol, resumable: call with
        increasing targets to step one simulation in increments.  Settles
        open stall intervals and refreshes ``stats.cycles`` /
        ``stats.ll_intervals`` on every return, so the statistics are
        consistent at each boundary; returns True once some thread has
        committed ``commits`` instructions.
        """
        if self._committed_watermark < commits:
            try:
                self._run_until(commits, max_cycles)
            finally:
                self._settle_stall_accounting()
        self.stats.cycles = self.cycle - self._measure_start
        self.stats.ll_intervals = self.hierarchy.ll_intervals
        return self._committed_watermark >= commits

    def release(self) -> None:
        """Break this finished core's reference cycles; it must not run
        again.

        The threads and the policy point back at the core, and the stage
        slots hold methods bound to it, so a discarded core otherwise
        stays alive until the next full garbage collection.  Callers
        that keep only the statistics call this to let reference
        counting free the core at once.
        """
        for ts in self.threads:
            ts.core = None
        self.policy.core = None
        self._commit_stage = self._dispatch_stage = self._issue_stage = None

    def _run_until(self, max_commits: int, max_cycles: int | None) -> None:
        limit = max_cycles if max_cycles is not None else self.cfg.max_cycles
        # The commit watermark is maintained by the commit stage and reset
        # with the measurement phase, so the stop check is O(1) per cycle
        # instead of a per-thread scan.
        if type(self).step is not SMTCore.step or not self._complete_is_base:
            # A subclass changed per-cycle behavior: drive it generically.
            step = self.step
            while True:
                step()
                if self._committed_watermark >= max_commits:
                    return
                if self.cycle >= limit:
                    raise SimulationLimitExceeded(
                        f"exceeded {limit} cycles without reaching "
                        f"{max_commits} commits")
        # step(), fused into the driving loop so the run-lifetime
        # invariants (event/ready/write-buffer structures, stage bindings,
        # policy hooks, fetch limits) are hoisted once per run instead of
        # re-read every cycle.  This is the third copy of the cycle body
        # (step() and _complete() remain the canonical, overridable
        # forms); the golden-stats matrix pins all of them to identical
        # architectural behavior.  Keep them in sync.
        mask = self._wheel_mask
        ev_buckets = self._ev_buckets
        ev_marks = self._ev_marks
        ev_over = self._ev_over
        dt_buckets = self._dt_buckets
        dt_marks = self._dt_marks
        dt_over = self._dt_over
        wb_buckets = self._wb_buckets
        wb_marks = self._wb_marks
        wb_over = self._wb_over
        ready_int = self._ready_int
        ready_ldst = self._ready_ldst
        ready_fp = self._ready_fp
        ready_by_op = self._ready_by_op
        threads = self.threads
        commit_stage = self._commit_stage
        dispatch_stage = self._dispatch_stage
        issue_stage = self._issue_stage
        fetch_thread = self._fetch_thread
        next_cycle = self._next_cycle
        policy_fetch_order = self._policy_fetch_order
        policy_fetch_pending = self._policy_fetch_pending
        on_load_complete = self._policy_on_load_complete
        on_ll_detect = self.policy.on_ll_detect
        fetch_width = self._fetch_width
        fetch_max_threads = self._fetch_max_threads
        fast_forward = self._fast_forward
        fetch_order_is_base = self._fetch_order_is_base
        fe_capacity = self._fe_capacity
        can_fetch_one = fetch_max_threads >= 1 and fetch_width >= 1
        # Stable for the run: the candidate list is edited in place by
        # the stall/unstall transitions, never replaced.
        fetch_candidates = self._fetch_candidates
        while True:
            cycle = self.cycle
            bucket = ev_buckets[cycle & mask]
            if bucket or (ev_over and ev_over[0][0] <= cycle):
                # completion loop — keep in sync with step()/_complete()
                if bucket is None:
                    bucket = ev_buckets[cycle & mask] = []
                while ev_over and ev_over[0][0] <= cycle:
                    bucket.append(heappop(ev_over)[2])
                while ev_marks and ev_marks[0] <= cycle:
                    heappop(ev_marks)
                n_due = len(bucket)
                if n_due > 1:
                    if n_due == 2:
                        a, b = bucket
                        if b.gseq < a.gseq:   # age order, no key array
                            bucket[0] = b
                            bucket[1] = a
                    else:
                        bucket.sort(key=_BY_GSEQ)
                for di in bucket:
                    ts = threads[di.thread]
                    if di.is_load and di.pending == -1:
                        ts.outstanding_misses -= 1
                    if di.squashed:
                        continue
                    di.completed = True
                    window = ts.window
                    if window and window[0] is di:
                        # Only a completed *head* can unblock commit: the
                        # gate and the head mask move together.
                        ts.head_ready = True
                        self._heads_mask |= ts.tid_bit
                        self._commit_pending = True
                    w = di.waiter0
                    if w is not None:
                        di.waiter0 = None
                        w.pending -= 1
                        if (w.pending == 0 and not w.squashed
                                and w.in_iq and not w.issued):
                            heappush(ready_by_op[w.instr.op_i],
                                     (w.gseq, w))
                        waiters = di.waiters
                        if waiters is not None:
                            di.waiters = None
                            for w in waiters:
                                w.pending -= 1
                                if (w.pending == 0 and not w.squashed
                                        and w.in_iq and not w.issued):
                                    heappush(ready_by_op[w.instr.op_i],
                                             (w.gseq, w))
                    if di.is_branch and ts.waiting_branch is di:
                        ts.waiting_branch = None
                        ts.stats.branch_stall_cycles += \
                            cycle - ts.branch_wait_since
                        if ts.fetch_blocked_until < cycle + 1:
                            ts.fetch_blocked_until = cycle + 1
                        self._fetch_wake = 0
                    if di.is_load and on_load_complete is not None:
                        on_load_complete(di, ts)
                bucket.clear()
            bucket = dt_buckets[cycle & mask]
            if bucket or (dt_over and dt_over[0][0] <= cycle):
                if bucket is None:
                    bucket = dt_buckets[cycle & mask] = []
                while dt_over and dt_over[0][0] <= cycle:
                    bucket.append(heappop(dt_over)[2])
                while dt_marks and dt_marks[0] <= cycle:
                    heappop(dt_marks)
                n_due = len(bucket)
                if n_due > 1:
                    if n_due == 2:
                        a, b = bucket
                        if b.gseq < a.gseq:   # age order, no key array
                            bucket[0] = b
                            bucket[1] = a
                    else:
                        bucket.sort(key=_BY_GSEQ)
                for di in bucket:
                    di.in_detects = False
                    if di.squashed or di.completed:
                        continue
                    on_ll_detect(di, threads[di.thread])
                bucket.clear()
            wcnt = wb_buckets[cycle & mask]
            if wcnt:
                wb_buckets[cycle & mask] = 0
                self._wb_used -= wcnt
                while wb_marks and wb_marks[0] <= cycle:
                    heappop(wb_marks)
            if wb_over and wb_over[0] <= cycle:
                while wb_over and wb_over[0] <= cycle:
                    heappop(wb_over)
                    self._wb_used -= 1
            if self._commit_pending:
                commit_stage(cycle)
            if ready_int or ready_ldst or ready_fp:
                issue_stage(cycle)
            if cycle >= self._dispatch_wake:
                if (cycle < self._stall_latch_until
                        and self._stall_latch_epoch == self._release_epoch):
                    # Proven stall verdict still holds: account the cycle
                    # without re-running the scan (hook is a no-op).
                    self.stats.resource_stall_cycles += 1
                else:
                    dispatch_stage(cycle)
            if cycle >= self._fetch_wake:
                if fetch_order_is_base:
                    # Base ICOUNT eligibility, inlined from
                    # FetchPolicy.fetch_order (keep in sync): candidates
                    # are event-maintained, only time-varying conditions
                    # are probed, and the single-eligible case — the
                    # overwhelmingly common shape — drives the fetch
                    # burst directly without materializing an order.
                    candidates = fetch_candidates
                    if candidates:
                        first = None
                        rest = None
                        for ts in candidates:
                            if (ts.fetch_blocked_until <= cycle
                                    and ts.waiting_branch is None
                                    and len(ts.fe_queue) < fe_capacity):
                                if first is None:
                                    first = ts
                                elif rest is None:
                                    rest = [first, ts]
                                else:
                                    rest.append(ts)
                        if rest is None:
                            if first is None:
                                self._fetch_wake = \
                                    self._compute_fetch_wake(cycle)
                            elif can_fetch_one:
                                fetch_thread(first, fetch_width, cycle,
                                             False)
                        else:
                            if len(rest) == 2:
                                a, b = rest
                                # Matches the stable sort: ties keep
                                # tid order.
                                if b.icount < a.icount:
                                    rest[0] = b
                                    rest[1] = a
                            else:
                                rest.sort(key=_BY_ICOUNT)
                            budget = fetch_width
                            remaining_threads = fetch_max_threads
                            for ts in rest:
                                if remaining_threads == 0 or budget == 0:
                                    break
                                remaining_threads -= 1
                                budget -= fetch_thread(ts, budget, cycle,
                                                       False)
                    else:
                        # COT (every thread policy-stalled): cold path,
                        # through the policy method.
                        order = policy_fetch_order(cycle)
                        if order:
                            budget = fetch_width
                            remaining_threads = fetch_max_threads
                            for ts, ignore_stall in order:
                                if remaining_threads == 0 or budget == 0:
                                    break
                                remaining_threads -= 1
                                budget -= fetch_thread(ts, budget, cycle,
                                                       ignore_stall)
                        else:
                            self._fetch_wake = \
                                self._compute_fetch_wake(cycle)
                else:
                    order = policy_fetch_order(cycle)
                    if order:
                        budget = fetch_width
                        remaining_threads = fetch_max_threads
                        for ts, ignore_stall in order:
                            if remaining_threads == 0 or budget == 0:
                                break
                            remaining_threads -= 1
                            budget -= fetch_thread(ts, budget, cycle,
                                                   ignore_stall)
            nxt = cycle + 1
            if not fast_forward or ready_int or ready_ldst or ready_fp:
                self.cycle = nxt
            elif nxt < self._fetch_wake:
                self.cycle = nxt = next_cycle(cycle)
            elif fetch_order_is_base:
                # Base fetch_pending, inlined (keep in sync): would any
                # thread be fetch-eligible next cycle?
                pending = False
                for ts in (fetch_candidates or threads):
                    if (ts.fetch_blocked_until <= nxt
                            and ts.waiting_branch is None
                            and len(ts.fe_queue) < fe_capacity):
                        pending = True
                        break
                if pending:
                    self.cycle = nxt
                else:
                    self.cycle = nxt = next_cycle(cycle)
            elif policy_fetch_pending(nxt):
                self.cycle = nxt
            else:
                self.cycle = nxt = next_cycle(cycle)
            if self._committed_watermark >= max_commits:
                return
            if nxt >= limit:
                raise SimulationLimitExceeded(
                    f"exceeded {limit} cycles without reaching "
                    f"{max_commits} commits")

    def _settle_stall_accounting(self) -> None:
        """Credit the still-open branch/policy-wait intervals up to ``cycle``.

        Branch-stall and policy-stall cycles are accounted at wait *end*
        (resolve, squash, unstall); a run that stops mid-wait settles the
        open tails here so the totals match the per-cycle scans they
        replaced, cycle for cycle.
        """
        cycle = self.cycle
        for ts in self.threads:
            if ts.waiting_branch is not None:
                ts.stats.branch_stall_cycles += cycle - ts.branch_wait_since
                ts.branch_wait_since = cycle
            if ts.policy_stalled_flag:
                ts.stats.policy_stall_cycles += cycle - ts.policy_stall_since
                ts.policy_stall_since = cycle

    def reset_measurement(self) -> None:
        """Zero all statistics while keeping microarchitectural state warm.

        Used to discard cold-start transients (cold caches and TLBs, empty
        predictors) from measurements; the pipeline contents, predictor
        tables and cache state are untouched.
        """
        from repro.pipeline.stats import ThreadStats

        for i, ts in enumerate(self.threads):
            fresh = ThreadStats()
            ts.stats = fresh
            self.stats.threads[i] = fresh
            if ts.commit_cycles is not None:
                ts.commit_cycles = []
            if ts.waiting_branch is not None:
                # The open branch wait straddles the measurement boundary;
                # only its measured-phase tail may count.
                ts.branch_wait_since = self.cycle
            if ts.policy_stalled_flag:
                # Same for an open policy stall.
                ts.policy_stall_since = self.cycle
            # The LLSR's register stays warm but its *sample log* is
            # measurement state: cold-start compulsory misses would
            # otherwise pollute the Figure 4 distance distribution.
            ts.llsr.measured = []
            ts.llsr.suppressed = 0
        self.stats.resource_stall_cycles = 0
        hierarchy = self.hierarchy
        hierarchy.ll_intervals = []
        hierarchy.ll_loads_per_thread = {}
        hierarchy.demand_loads = 0
        hierarchy.merged_loads = 0
        hierarchy.prefetch_covered = 0
        self._committed_watermark = 0
        self._measure_start = self.cycle

    def step(self) -> None:
        """Advance one cycle (or fast-forward to the next event)."""
        cycle = self.cycle
        mask = self._wheel_mask
        ev_bucket = self._ev_buckets[cycle & mask]
        ev_over = self._ev_over
        dt_bucket = self._dt_buckets[cycle & mask]
        dt_over = self._dt_over
        if (ev_bucket or dt_bucket
                or (ev_over and ev_over[0][0] <= cycle)
                or (dt_over and dt_over[0][0] <= cycle)):
            if not self._complete_is_base:
                self._process_events(cycle)
            else:
                # _process_events/_complete, inlined (the completion loop
                # runs nearly every active cycle and the two calls per
                # event were measurable).  Keep in sync with _complete.
                if ev_bucket or (ev_over and ev_over[0][0] <= cycle):
                    threads = self.threads
                    on_load_complete = self._policy_on_load_complete
                    ev_marks = self._ev_marks
                    if ev_bucket is None:
                        ev_bucket = self._ev_buckets[cycle & mask] = []
                    while ev_over and ev_over[0][0] <= cycle:
                        ev_bucket.append(heappop(ev_over)[2])
                    while ev_marks and ev_marks[0] <= cycle:
                        heappop(ev_marks)
                    n_due = len(ev_bucket)
                    if n_due > 1:
                        if n_due == 2:
                            a, b = ev_bucket
                            if b.gseq < a.gseq:   # age order, no key array
                                ev_bucket[0] = b
                                ev_bucket[1] = a
                        else:
                            ev_bucket.sort(key=_BY_GSEQ)
                    for di in ev_bucket:
                        ts = threads[di.thread]
                        if di.is_load and di.pending == -1:
                            ts.outstanding_misses -= 1
                        if di.squashed:
                            continue
                        di.completed = True
                        window = ts.window
                        if window and window[0] is di:
                            ts.head_ready = True
                            self._heads_mask |= ts.tid_bit
                            self._commit_pending = True
                        w = di.waiter0
                        if w is not None:
                            di.waiter0 = None
                            ready_by_op = self._ready_by_op
                            w.pending -= 1
                            if (w.pending == 0 and not w.squashed
                                    and w.in_iq and not w.issued):
                                heappush(ready_by_op[w.instr.op_i],
                                         (w.gseq, w))
                            waiters = di.waiters
                            if waiters is not None:
                                di.waiters = None
                                for w in waiters:
                                    w.pending -= 1
                                    if (w.pending == 0 and not w.squashed
                                            and w.in_iq and not w.issued):
                                        heappush(ready_by_op[w.instr.op_i],
                                                 (w.gseq, w))
                        if di.is_branch and ts.waiting_branch is di:
                            ts.waiting_branch = None
                            ts.stats.branch_stall_cycles += \
                                cycle - ts.branch_wait_since
                            if ts.fetch_blocked_until < cycle + 1:
                                ts.fetch_blocked_until = cycle + 1
                            self._fetch_wake = 0
                        if di.is_load and on_load_complete is not None:
                            on_load_complete(di, ts)
                    ev_bucket.clear()
                if dt_bucket or (dt_over and dt_over[0][0] <= cycle):
                    on_ll_detect = self.policy.on_ll_detect
                    threads = self.threads
                    dt_marks = self._dt_marks
                    if dt_bucket is None:
                        dt_bucket = self._dt_buckets[cycle & mask] = []
                    while dt_over and dt_over[0][0] <= cycle:
                        dt_bucket.append(heappop(dt_over)[2])
                    while dt_marks and dt_marks[0] <= cycle:
                        heappop(dt_marks)
                    n_due = len(dt_bucket)
                    if n_due > 1:
                        if n_due == 2:
                            a, b = dt_bucket
                            if b.gseq < a.gseq:   # age order, no key array
                                dt_bucket[0] = b
                                dt_bucket[1] = a
                        else:
                            dt_bucket.sort(key=_BY_GSEQ)
                    for di in dt_bucket:
                        di.in_detects = False
                        if di.squashed or di.completed:
                            continue
                        on_ll_detect(di, threads[di.thread])
                    dt_bucket.clear()
        # drain the write buffer
        wcnt = self._wb_buckets[cycle & mask]
        if wcnt:
            self._wb_buckets[cycle & mask] = 0
            self._wb_used -= wcnt
            wb_marks = self._wb_marks
            while wb_marks and wb_marks[0] <= cycle:
                heappop(wb_marks)
        wb_over = self._wb_over
        if wb_over and wb_over[0] <= cycle:
            while wb_over and wb_over[0] <= cycle:
                heappop(wb_over)
                self._wb_used -= 1
        if self._commit_pending:
            self._commit_stage(cycle)
        if self._ready_int or self._ready_ldst or self._ready_fp:
            self._issue_stage(cycle)
        if cycle >= self._dispatch_wake:
            if (cycle < self._stall_latch_until
                    and self._stall_latch_epoch == self._release_epoch):
                # Proven stall verdict still holds (see _dispatch).
                self.stats.resource_stall_cycles += 1
            else:
                self._dispatch_stage(cycle)
        # fetch (inlined driver; _fetch_thread does the per-thread work)
        if cycle >= self._fetch_wake:
            order = self._policy_fetch_order(cycle)
            if order:
                budget = self._fetch_width
                remaining_threads = self._fetch_max_threads
                fetch_thread = self._fetch_thread
                for ts, ignore_stall in order:
                    if remaining_threads == 0 or budget == 0:
                        break
                    remaining_threads -= 1
                    budget -= fetch_thread(ts, budget, cycle, ignore_stall)
            elif self._fetch_order_is_base:
                self._fetch_wake = self._compute_fetch_wake(cycle)
        # (policy-stall cycles are accounted as stall intervals by
        # ThreadState._sync_policy_stall / _settle_stall_accounting, not by
        # an all-threads scan here.)
        nxt = cycle + 1
        if self._fast_forward:
            # Fast path of the fast-forward probe: if next cycle can issue
            # or fetch, there is nothing to skip and no need to build the
            # candidate list in _next_cycle.  Ready-queue checks come
            # first — three slot loads against a policy call.
            if (self._ready_int or self._ready_ldst or self._ready_fp
                    or (nxt >= self._fetch_wake
                        and self._policy_fetch_pending(nxt))):
                self.cycle = nxt
            else:
                self.cycle = self._next_cycle(cycle)
        else:
            self.cycle = nxt

    # ------------------------------------------------------------------ #
    # events (execution completions, long-latency detections)
    # ------------------------------------------------------------------ #

    def _process_events(self, cycle: int) -> None:
        mask = self._wheel_mask
        bucket = self._ev_buckets[cycle & mask]
        ev_over = self._ev_over
        if bucket or (ev_over and ev_over[0][0] <= cycle):
            ev_marks = self._ev_marks
            if bucket is None:
                bucket = self._ev_buckets[cycle & mask] = []
            while ev_over and ev_over[0][0] <= cycle:
                bucket.append(heappop(ev_over)[2])
            while ev_marks and ev_marks[0] <= cycle:
                heappop(ev_marks)
            n_due = len(bucket)
            if n_due > 1:
                if n_due == 2:
                    a, b = bucket
                    if b.gseq < a.gseq:   # age order, no key array
                        bucket[0] = b
                        bucket[1] = a
                else:
                    bucket.sort(key=_BY_GSEQ)
            complete = self._complete
            for di in bucket:
                complete(di, cycle)
            bucket.clear()
        bucket = self._dt_buckets[cycle & mask]
        dt_over = self._dt_over
        if bucket or (dt_over and dt_over[0][0] <= cycle):
            dt_marks = self._dt_marks
            if bucket is None:
                bucket = self._dt_buckets[cycle & mask] = []
            while dt_over and dt_over[0][0] <= cycle:
                bucket.append(heappop(dt_over)[2])
            while dt_marks and dt_marks[0] <= cycle:
                heappop(dt_marks)
            n_due = len(bucket)
            if n_due > 1:
                if n_due == 2:
                    a, b = bucket
                    if b.gseq < a.gseq:   # age order, no key array
                        bucket[0] = b
                        bucket[1] = a
                else:
                    bucket.sort(key=_BY_GSEQ)
            on_ll_detect = self.policy.on_ll_detect
            threads = self.threads
            for di in bucket:
                di.in_detects = False
                if di.squashed or di.completed:
                    continue
                on_ll_detect(di, threads[di.thread])
            bucket.clear()

    def _complete(self, di: DynInstr, cycle: int) -> None:
        ts = self.threads[di.thread]
        if di.is_load and di.pending == -1:  # counted as outstanding miss
            ts.outstanding_misses -= 1
        if di.squashed:
            return
        di.completed = True
        self._commit_pending = True   # unconditional: RunaheadCore's commit
        #                               stage acts on incomplete heads too
        window = ts.window
        if window and window[0] is di:
            ts.head_ready = True
            self._heads_mask |= ts.tid_bit
        w = di.waiter0
        if w is not None:
            di.waiter0 = None
            ready_by_op = self._ready_by_op
            w.pending -= 1
            if w.pending == 0 and not w.squashed and w.in_iq and not w.issued:
                heappush(ready_by_op[w.instr.op_i], (w.gseq, w))
            waiters = di.waiters
            if waiters is not None:
                di.waiters = None
                for w in waiters:
                    w.pending -= 1
                    if (w.pending == 0 and not w.squashed
                            and w.in_iq and not w.issued):
                        heappush(ready_by_op[w.instr.op_i], (w.gseq, w))
        if di.is_branch and ts.waiting_branch is di:
            ts.waiting_branch = None
            ts.stats.branch_stall_cycles += cycle - ts.branch_wait_since
            if ts.fetch_blocked_until < cycle + 1:
                ts.fetch_blocked_until = cycle + 1
            self._fetch_wake = 0
        if di.is_load:
            on_load_complete = self._policy_on_load_complete
            if on_load_complete is not None:
                on_load_complete(di, ts)

    # ------------------------------------------------------------------ #
    # commit
    # ------------------------------------------------------------------ #

    def _commit(self, cycle: int) -> None:
        # The full _commit_one body runs inline: every instruction retires
        # through this loop, and the method call per commit plus the
        # re-hoisting of shared state per attempt was measurable.
        # _commit_one remains the overridable, self-contained form;
        # RunaheadCore overrides _commit with the plain rotation loop
        # because its _commit_one can make progress on heads the inline
        # checks would skip (runahead entry, pseudo-retire).  Keep the two
        # bodies in sync.
        threads = self.threads
        n = self._n_threads
        budget = self._commit_width
        heads_mask = self._heads_mask
        # Rotate by cycle number (not by call count) so fast-forwarded and
        # naive runs stay cycle-exact; the rotation is filtered to the
        # ready-head mask so idle threads are never even iterated.
        if n == 1:
            order = threads
        else:
            rot_cache = self._rot_cache
            if rot_cache is None:
                order = self._rotations[cycle % n]
            else:
                slot = heads_mask * n + cycle % n
                order = rot_cache[slot]
                if order is None:
                    order = tuple(
                        ts for ts in self._rotations[cycle % n]
                        if heads_mask >> ts.tid & 1)
                    rot_cache[slot] = order
        wb_entries = self._wb_entries
        pool = self._di_pool
        # Per-retire bookkeeping is batched across the pass
        # (TODO(perf/commit-bookkeeping), closed): the shared resource
        # counters, the watermark, and the release epoch live in locals
        # for the whole stage (nothing inside the loop observes them),
        # and consecutive non-long-latency retires advance each thread's
        # LLSR as one staged zero run (``ts.llsr_zeros``), coalesced into
        # a single ``commit_zeros`` ring advance — flushed before any
        # same-thread long-latency commit and again after the loop, so
        # LLSR order and every measurement it fires are exactly the
        # per-retire sequence's.
        rob_used = self.rob_used
        lsq_used = self.lsq_used
        int_regs_used = self.int_regs_used
        fp_regs_used = self.fp_regs_used
        watermark = self._committed_watermark
        measure_start = self._measure_start
        # A thread's head only changes when that thread commits, so after
        # the first rotation pass another lap is owed only while some
        # thread is still making progress; ``head_ready`` makes re-probing
        # a stale thread two cheap ops, so the lap re-walks the (already
        # mask-filtered) order instead of building per-pass recheck lists.
        while budget > 0:
            progress = False
            for ts in order:
                if budget == 0:
                    break
                if not ts.head_ready:
                    continue
                window = ts.window
                di = window[0]
                instr = di.instr
                if di.is_store:
                    if self._wb_used >= wb_entries:
                        # Write buffer full: the head stays completed, so
                        # its ``heads_mask`` bit keeps the commit gate set
                        # and the retry happens by time.
                        continue
                    result = self._hier_store(ts.tid, instr.pc,
                                              instr.addr, cycle)
                    self._schedule_wb_drain(result.complete_cycle, cycle)
                window.popleft()
                if not window or not window[0].completed:
                    ts.head_ready = False
                    heads_mask &= ~ts.tid_bit
                rob_used -= 1
                ts.rob_count -= 1
                st = ts.stats
                committed = st.committed + 1
                st.committed = committed
                if committed > watermark:
                    watermark = committed
                if ts.commit_cycles is not None:
                    ts.commit_cycles.append(cycle - measure_start)
                if di.is_load or di.is_store:
                    ts.lsq_count -= 1
                    lsq_used -= 1
                if di.has_dest:
                    if di.dest_fp:
                        ts.fp_regs -= 1
                        fp_regs_used -= 1
                    else:
                        ts.int_regs -= 1
                        int_regs_used -= 1
                dependent = False
                parents = di.ll_parents
                if parents is not None:
                    dependent = any(p.is_ll or p.ll_dep for p in parents)
                    di.ll_dep = dependent
                    di.ll_parents = None
                    for p in parents:
                        p.refs -= 1
                        if (p.retired and not p.refs and pool is not None
                                and len(pool) < _DI_POOL_CAP
                                and not p.in_detects
                                and p not in ts.ll_owners):
                            pool.append(p)
                if di.is_load and di.is_ll:
                    z = ts.llsr_zeros
                    if z:
                        ts.llsr_zeros = 0
                        ts.llsr_commit_zeros(z)
                    ts.llsr_commit(True, instr.pc, dependent)
                else:
                    ts.llsr_zeros += 1
                old = di.old_map
                if old is not None:
                    di.old_map = None
                    old.refs -= 1
                    if (old.retired and not old.refs and pool is not None
                            and len(pool) < _DI_POOL_CAP
                            and not old.in_detects
                            and old not in ts.ll_owners):
                        pool.append(old)
                di.retired = True
                if (not di.refs and pool is not None
                        and len(pool) < _DI_POOL_CAP and not di.in_detects
                        and di not in ts.ll_owners):
                    pool.append(di)
                budget -= 1
                progress = True
            if not progress:
                break
        if budget < self._commit_width:   # at least one retire happened
            for ts in order:
                z = ts.llsr_zeros
                if z:
                    ts.llsr_zeros = 0
                    ts.llsr_commit_zeros(z)
            self._committed_watermark = watermark
            self._release_epoch += 1
            self.rob_used = rob_used
            self.lsq_used = lsq_used
            self.int_regs_used = int_regs_used
            self.fp_regs_used = fp_regs_used
            self._heads_mask = heads_mask
        # Keep the gate set exactly while leftover progress is possible:
        # a non-zero head mask means a budget-limited pass left
        # committable heads, or a write-buffer-blocked store head (which
        # unblocks by time) is still ready.
        self._commit_pending = heads_mask != 0

    def _commit_one(self, ts: ThreadState, cycle: int) -> bool:
        window = ts.window
        if not window:
            return False
        di = window[0]
        if not di.completed:
            return False
        instr = di.instr
        if di.is_store:
            if self._wb_used >= self._wb_entries:
                return False
            result = self.hierarchy.store(ts.tid, instr.pc, instr.addr, cycle)
            self._schedule_wb_drain(result.complete_cycle, cycle)
        window.popleft()
        if window and window[0].completed:
            ts.head_ready = True
            self._heads_mask |= ts.tid_bit
        else:
            ts.head_ready = False
            self._heads_mask &= ~ts.tid_bit
        ts.rob_count -= 1
        self.rob_used -= 1
        if di.is_load or di.is_store:
            ts.lsq_count -= 1
            self.lsq_used -= 1
        if di.has_dest:
            if di.dest_fp:
                ts.fp_regs -= 1
                self.fp_regs_used -= 1
            else:
                ts.int_regs -= 1
                self.int_regs_used -= 1
        self._release_epoch += 1
        st = ts.stats
        committed = st.committed + 1
        st.committed = committed
        if committed > self._committed_watermark:
            self._committed_watermark = committed
        if ts.commit_cycles is not None:
            ts.commit_cycles.append(cycle - self._measure_start)
        dependent = False
        parents = di.ll_parents
        if parents is not None:
            # Producers committed before us, so their long-latency outcome
            # and inherited dependence are final by now.
            dependent = any(p.is_ll or p.ll_dep for p in parents)
            di.ll_dep = dependent
            di.ll_parents = None
            for p in parents:
                p.refs -= 1
                if p.retired and not p.refs:
                    self._maybe_recycle(p, ts)
        ts.llsr.commit(di.is_load and di.is_ll, instr.pc,
                       dependent=dependent)
        # Retire the record.  The rename-undo backref it held dies with
        # the commit (a committed instruction can never be flushed), and
        # the record itself returns to the pool once nothing long-lived
        # (rename-current entry, a younger old_map, captured ll_parents)
        # still points at it — usually via the backref decrement of the
        # next same-register writer's commit.
        old = di.old_map
        if old is not None:
            di.old_map = None
            old.refs -= 1
            if old.retired and not old.refs:
                self._maybe_recycle(old, ts)
        di.retired = True
        if not di.refs:
            self._maybe_recycle(di, ts)
        return True

    def _maybe_recycle(self, di: DynInstr, ts: ThreadState) -> None:
        """Return a retired, unreferenced instruction record to the pool.

        Callers guarantee ``di.retired and di.refs == 0``; the remaining
        guards exclude the rare records with a still-queued long-latency
        detection event or a live fetch-gating ownership (both keyed on
        object identity, so reuse would alias them).  Records that fail a
        guard are simply left to the garbage collector.
        """
        pool = self._di_pool
        if (pool is not None and len(pool) < _DI_POOL_CAP
                and not di.in_detects and di not in ts.ll_owners):
            pool.append(di)

    # ------------------------------------------------------------------ #
    # event-wheel scheduling (cold-path forms; the hot paths inline the
    # same pushes — keep them in sync)
    # ------------------------------------------------------------------ #

    def _schedule_completion(self, di: DynInstr, when: int,
                             cycle: int) -> None:
        """Queue ``di``'s completion event at ``when``.

        Heap-equivalent semantics: a ``when`` at or before the current
        cycle lands at ``cycle + 1`` — exactly when the old heap would
        have popped it (the drain for ``cycle`` has already run).
        """
        if when <= cycle:
            when = cycle + 1
        mask = self._wheel_mask
        if when - cycle <= mask:
            idx = when & mask
            bucket = self._ev_buckets[idx]
            if bucket:
                bucket.append(di)
            else:
                if bucket is None:
                    self._ev_buckets[idx] = [di]
                else:
                    bucket.append(di)
                heappush(self._ev_marks, when)
        else:
            heappush(self._ev_over, (when, di.gseq, di))

    def _schedule_wb_drain(self, when: int, cycle: int) -> None:
        """Occupy one write-buffer entry until ``when``."""
        if when <= cycle:
            when = cycle + 1
        mask = self._wheel_mask
        if when - cycle <= mask:
            idx = when & mask
            if not self._wb_buckets[idx]:
                heappush(self._wb_marks, when)
            self._wb_buckets[idx] += 1
        else:
            heappush(self._wb_over, when)
        self._wb_used += 1

    # ------------------------------------------------------------------ #
    # issue / execute
    # ------------------------------------------------------------------ #

    def _issue(self, cycle: int) -> None:
        # self._execute is looked up per call (not bound at construction)
        # on purpose: RunaheadCore overrides it, and tests monkeypatch it
        # on instances to spy on the issue stream.  The non-memory fast
        # path (fixed-latency completion, no hierarchy, no predictors) is
        # additionally inlined below — one wheel push instead of a Python
        # call per ALU/FP/store instruction — but only when ``_execute``
        # is provably unshadowed: neither overridden on the class
        # (RunaheadCore) nor monkeypatched on the instance (test spies).
        execute = self._execute
        inline = (self._execute_is_base
                  and "_execute" not in self.__dict__)
        threads = self.threads
        ev_buckets = self._ev_buckets
        ev_marks = self._ev_marks
        mask = self._wheel_mask
        issued = False
        queue = self._ready_int
        if queue:
            slots = self._num_int_alu
            while queue and slots > 0:
                _, di = heappop(queue)
                if di.squashed or di.issued or di.completed:
                    continue
                if inline:
                    # _execute's non-load body — keep in sync.
                    ts = threads[di.thread]
                    di.issued = True
                    if di.in_iq:
                        di.in_iq = False
                        if di.iq_is_fp:
                            ts.fq_count -= 1
                            self.fq_used -= 1
                        else:
                            ts.iq_count -= 1
                            self.iq_used -= 1
                        ts.icount -= 1
                    completion = cycle + di.instr.latency
                    idx = completion & mask   # always in-horizon (<= 4)
                    bucket = ev_buckets[idx]
                    if bucket:
                        bucket.append(di)
                    else:
                        if bucket is None:
                            ev_buckets[idx] = [di]
                        else:
                            bucket.append(di)
                        heappush(ev_marks, completion)
                else:
                    execute(di, cycle)
                slots -= 1
                issued = True
        queue = self._ready_ldst
        if queue:
            slots = self._num_ldst
            while queue and slots > 0:
                _, di = heappop(queue)
                if di.squashed or di.issued or di.completed:
                    continue
                if inline and not di.is_load:
                    # Stores at execute are address generation only; the
                    # memory access happens at commit via the write
                    # buffer.  Same non-load body as above.
                    ts = threads[di.thread]
                    di.issued = True
                    if di.in_iq:
                        di.in_iq = False
                        if di.iq_is_fp:
                            ts.fq_count -= 1
                            self.fq_used -= 1
                        else:
                            ts.iq_count -= 1
                            self.iq_used -= 1
                        ts.icount -= 1
                    completion = cycle + di.instr.latency
                    idx = completion & mask
                    bucket = ev_buckets[idx]
                    if bucket:
                        bucket.append(di)
                    else:
                        if bucket is None:
                            ev_buckets[idx] = [di]
                        else:
                            bucket.append(di)
                        heappush(ev_marks, completion)
                else:
                    execute(di, cycle)
                slots -= 1
                issued = True
        queue = self._ready_fp
        if queue:
            slots = self._num_fp
            while queue and slots > 0:
                _, di = heappop(queue)
                if di.squashed or di.issued or di.completed:
                    continue
                if inline:
                    ts = threads[di.thread]
                    di.issued = True
                    if di.in_iq:
                        di.in_iq = False
                        if di.iq_is_fp:
                            ts.fq_count -= 1
                            self.fq_used -= 1
                        else:
                            ts.iq_count -= 1
                            self.iq_used -= 1
                        ts.icount -= 1
                    completion = cycle + di.instr.latency
                    idx = completion & mask
                    bucket = ev_buckets[idx]
                    if bucket:
                        bucket.append(di)
                    else:
                        if bucket is None:
                            ev_buckets[idx] = [di]
                        else:
                            bucket.append(di)
                        heappush(ev_marks, completion)
                else:
                    execute(di, cycle)
                slots -= 1
                issued = True
        if issued:
            # Issuing freed IQ slots (every executed instruction held one):
            # one epoch bump covers the whole stage.
            self._release_epoch += 1

    def _execute(self, di: DynInstr, cycle: int) -> None:
        ts = self.threads[di.thread]
        di.issued = True
        if di.in_iq:
            di.in_iq = False
            if di.iq_is_fp:
                ts.fq_count -= 1
                self.fq_used -= 1
            else:
                ts.iq_count -= 1
                self.iq_used -= 1
            ts.icount -= 1
            # (the release-epoch bump for the IQ slot is batched at the
            # end of _issue — nothing reads the epoch mid-issue.)
        instr = di.instr
        if di.is_load:
            result = self._hier_load(
                ts.tid, instr.pc, instr.addr, cycle + instr.latency)
            completion = result.complete_cycle
            is_ll = result.long_latency
            di.is_ll = is_ll
            di.level = result.level
            stats = ts.stats
            stats.loads_executed += 1
            ts.lll_pred.train(instr.pc, is_ll)
            predicted = di.predicted_ll
            if predicted is not None:
                stats.lll_pred_loads += 1
                if predicted == is_ll:
                    stats.lll_pred_correct += 1
                if is_ll:
                    stats.lll_pred_miss_actual += 1
                    if predicted:
                        stats.lll_pred_miss_correct += 1
            if is_ll:
                stats.ll_loads += 1
            if result.trigger:
                di.in_detects = True
                # Detection wheel push (detect horizons are L2-bounded,
                # but the spill guard keeps odd configs exact).
                when = result.detect_cycle
                if when <= cycle:
                    when = cycle + 1
                mask = self._wheel_mask
                if when - cycle <= mask:
                    idx = when & mask
                    bucket = self._dt_buckets[idx]
                    if bucket:
                        bucket.append(di)
                    else:
                        if bucket is None:
                            self._dt_buckets[idx] = [di]
                        else:
                            bucket.append(di)
                        heappush(self._dt_marks, when)
                else:
                    heappush(self._dt_over, (when, di.gseq, di))
            di.fill_line = result.fill_line
            if result.level is not ServiceLevel.L1:
                ts.outstanding_misses += 1
                di.pending = -1  # marks "counted as outstanding miss"
        else:
            completion = cycle + instr.latency
        # Completion wheel push (every path lands strictly after
        # ``cycle``, so no clamp is needed here — see _schedule_completion
        # for the cold-path form with the clamp).
        mask = self._wheel_mask
        if completion - cycle <= mask:
            idx = completion & mask
            bucket = self._ev_buckets[idx]
            if bucket:
                bucket.append(di)
            else:
                if bucket is None:
                    self._ev_buckets[idx] = [di]
                else:
                    bucket.append(di)
                heappush(self._ev_marks, completion)
        else:
            heappush(self._ev_over, (completion, di.gseq, di))

    # ------------------------------------------------------------------ #
    # dispatch (rename + resource allocation)
    # ------------------------------------------------------------------ #

    def _dispatch(self, cycle: int) -> None:
        # The resource gates and the rename/allocate sequence are the body
        # of _try_dispatch, inlined: dispatch attempts run every cycle and
        # mostly *reject* (a full shared structure blocks the head for
        # hundreds of cycles during a memory stall), so the method call
        # per attempt was pure overhead.  _try_dispatch remains the
        # overridable/self-contained form; RunaheadCore overrides
        # _dispatch with the plain per-attempt loop because its
        # _try_dispatch must observe every attempt to propagate INV.
        #
        # A head rejected by a *shared-resource* gate is latched against
        # the release epoch: with the same head and no release since, the
        # same gate must fail again (shared counters only grew), so the
        # rejection is re-asserted without re-proving it.  Policy-cap
        # rejections (can_dispatch) are never latched — their verdict may
        # change with any co-runner state.
        budget = self._decode_width
        any_ready = False
        blocked_by_resource = False
        dispatched = 0
        n = self._n_threads
        release_epoch = self._release_epoch
        hoisted = False
        # The rotation (offset from commit) is filtered to the threads
        # with a non-empty front-end queue: nothing below can act on an
        # empty one, and at high thread counts most rotation hops were
        # exactly that.
        if n == 1:
            order = self.threads
        else:
            rot_cache = self._rot_cache
            slot = (cycle + 1) % n
            fe_mask = self._fe_mask
            if rot_cache is None or fe_mask == self._full_mask:
                order = self._rotations[slot]
            else:
                key = fe_mask * n + slot
                order = rot_cache[key]
                if order is None:
                    order = tuple(
                        ts for ts in self._rotations[slot]
                        if fe_mask >> ts.tid & 1)
                    rot_cache[key] = order
        for ts in order:
            if budget == 0:
                break
            if cycle < ts.dispatch_wait_until:
                continue  # head not through the front end yet
            fe = ts.fe_queue
            if not fe:
                continue
            head = fe[0]
            if head is ts.dispatch_blocked_head:
                if ts.dispatch_blocked_epoch == release_epoch:
                    any_ready = True
                    blocked_by_resource = True
                    continue
                ts.dispatch_blocked_head = None
            if head.fe_ready > cycle:
                ts.dispatch_wait_until = head.fe_ready
                continue
            if not hoisted:
                hoisted = True
                # Shared counters as locals for the whole stage: nothing
                # between individual dispatches observes them
                # (can_dispatch reads only per-thread counts), so batching
                # the read-modify-writes is observationally identical;
                # they are written back before the resource-stall hook,
                # which may flush.  Hoisted lazily: most cycles skip every
                # thread and would waste the nine-local prologue.
                rob_used = self.rob_used
                lsq_used = self.lsq_used
                iq_used = self.iq_used
                fq_used = self.fq_used
                int_regs_used = self.int_regs_used
                fp_regs_used = self.fp_regs_used
                track_dep = self._track_ll_dep
                can_dispatch = self._policy_can_dispatch  # None: allow-all
                ready_by_op = self._ready_by_op
                rob_size = self._rob_size
                lsq_size = self._lsq_size
                int_iq_size = self._int_iq_size
                fp_iq_size = self._fp_iq_size
                int_rename_regs = self._int_rename_regs
                fp_rename_regs = self._fp_rename_regs
                fe_capacity = self._fe_capacity
                # When every shared structure has at least ``budget``
                # slots of headroom, no per-instruction resource gate can
                # fail anywhere in this stage call (dispatches consume at
                # most one slot per structure each, and ``budget`` bounds
                # the total), so the whole gate block is skipped.
                gates_free = (
                    rob_size - rob_used >= budget
                    and lsq_size - lsq_used >= budget
                    and int_iq_size - iq_used >= budget
                    and fp_iq_size - fq_used >= budget
                    and int_rename_regs - int_regs_used >= budget
                    and fp_rename_regs - fp_regs_used >= budget)
            rename_map = ts.rename_map
            window_append = ts.window.append
            fe_was_full = len(fe) >= fe_capacity
            # Per-thread counters as locals for this thread's burst;
            # flushed back before any can_dispatch call (the one consumer
            # that may read them mid-burst) and at burst end.
            tl_rob = ts.rob_count
            tl_lsq = ts.lsq_count
            tl_iq = ts.iq_count
            tl_fq = ts.fq_count
            tl_ir = ts.int_regs
            tl_fr = ts.fp_regs
            tl_dirty = False
            while budget > 0 and fe:
                di = fe[0]
                if di.fe_ready > cycle:
                    ts.dispatch_wait_until = di.fe_ready
                    break
                any_ready = True
                instr = di.instr
                is_mem = di.is_load or di.is_store
                fp_queue = instr.fp_queue
                if not gates_free:
                    # Shared-resource gates (block => resource stall).
                    if rob_used >= rob_size:
                        ts.dispatch_blocked_head = di
                        ts.dispatch_blocked_epoch = release_epoch
                        blocked_by_resource = True
                        break
                    if is_mem and lsq_used >= lsq_size:
                        ts.dispatch_blocked_head = di
                        ts.dispatch_blocked_epoch = release_epoch
                        blocked_by_resource = True
                        break
                    if fp_queue:
                        if fq_used >= fp_iq_size:
                            ts.dispatch_blocked_head = di
                            ts.dispatch_blocked_epoch = release_epoch
                            blocked_by_resource = True
                            break
                    elif iq_used >= int_iq_size:
                        ts.dispatch_blocked_head = di
                        ts.dispatch_blocked_epoch = release_epoch
                        blocked_by_resource = True
                        break
                    if di.has_dest:
                        if di.dest_fp:
                            if fp_regs_used >= fp_rename_regs:
                                ts.dispatch_blocked_head = di
                                ts.dispatch_blocked_epoch = release_epoch
                                blocked_by_resource = True
                                break
                        elif int_regs_used >= int_rename_regs:
                            ts.dispatch_blocked_head = di
                            ts.dispatch_blocked_epoch = release_epoch
                            blocked_by_resource = True
                            break
                if can_dispatch is not None:
                    if tl_dirty:
                        tl_dirty = False
                        ts.rob_count = tl_rob
                        ts.lsq_count = tl_lsq
                        ts.iq_count = tl_iq
                        ts.fq_count = tl_fq
                        ts.int_regs = tl_ir
                        ts.fp_regs = tl_fr
                    if not can_dispatch(ts, di):
                        break  # policy cap, not a resource stall
                # All checks passed: allocate and rename.  (No ``di.inv``
                # handling here: only RunaheadCore produces INV records,
                # and it dispatches through _try_dispatch.)
                rob_used += 1
                tl_rob += 1
                tl_dirty = True
                if is_mem:
                    lsq_used += 1
                    tl_lsq += 1
                if fp_queue:
                    fq_used += 1
                    tl_fq += 1
                else:
                    iq_used += 1
                    tl_iq += 1
                di.in_iq = True
                di.iq_is_fp = fp_queue
                parents: list[DynInstr] | None = [] if track_dep else None
                for src in instr.srcs:
                    prod = rename_map[src]
                    if prod is None:
                        continue
                    if track_dep and (prod.is_load
                                      or prod.ll_parents is not None
                                      or prod.ll_dep):
                        parents.append(prod)
                        prod.refs += 1
                    if not prod.completed:
                        di.pending += 1
                        if prod.waiter0 is None:
                            prod.waiter0 = di
                        elif prod.waiters is None:
                            prod.waiters = [di]
                        else:
                            prod.waiters.append(di)
                if parents:
                    di.ll_parents = tuple(parents)
                if di.has_dest:
                    dest = instr.dest
                    di.old_map = rename_map[dest]
                    rename_map[dest] = di
                    di.refs += 1  # rename-current; the old entry's ref
                    #              transfers to the old_map backref
                    if di.dest_fp:
                        fp_regs_used += 1
                        tl_fr += 1
                    else:
                        int_regs_used += 1
                        tl_ir += 1
                window_append(di)
                if di.pending == 0:
                    heappush(ready_by_op[instr.op_i], (di.gseq, di))
                fe.popleft()
                budget -= 1
                dispatched += 1
            if tl_dirty:
                ts.rob_count = tl_rob
                ts.lsq_count = tl_lsq
                ts.iq_count = tl_iq
                ts.fq_count = tl_fq
                ts.int_regs = tl_ir
                ts.fp_regs = tl_fr
            if fe_was_full and len(fe) < fe_capacity:
                # Pops opened fetch-queue headroom: eligibility changed.
                self._fetch_wake = 0
            if not fe:
                self._fe_mask &= ~ts.tid_bit
        if dispatched:
            self.rob_used = rob_used
            self.lsq_used = lsq_used
            self.iq_used = iq_used
            self.fq_used = fq_used
            self.int_regs_used = int_regs_used
            self.fp_regs_used = fp_regs_used
        elif not any_ready and self._policy_can_dispatch is None:
            # No head anywhere was through the front end: nothing to
            # dispatch (and no resource-stall cycle to account) before the
            # earliest observed head-ready time.  Empty queues re-arm via
            # the fetch stage; a policy with a dispatch cap must be probed
            # every cycle, so the latch stays disarmed for it.
            wake = cycle + (1 << 30)
            for ts in self.threads:
                wait_until = ts.dispatch_wait_until
                if cycle < wait_until < wake:
                    wake = wait_until
            self._dispatch_wake = wake
        if any_ready and dispatched == 0 and blocked_by_resource:
            self.stats.resource_stall_cycles += 1
            on_resource_stall = self._policy_on_resource_stall
            if on_resource_stall is not None:   # None: marked no-op hook
                on_resource_stall(cycle)
            elif self._policy_can_dispatch is None:
                # Every ready head hit a full shared resource, the hook
                # is a no-op and there is no dispatch cap: the verdict
                # repeats until a release (epoch, captured *before* any
                # hook could flush), a head arriving through the front
                # end by time, or a fetch/flush invalidation.
                wake = cycle + (1 << 30)
                for ts in self.threads:
                    wait_until = ts.dispatch_wait_until
                    if cycle < wait_until < wake:
                        wake = wait_until
                self._stall_latch_until = wake
                self._stall_latch_epoch = release_epoch

    def _try_dispatch(self, ts: ThreadState, di: DynInstr) -> bool | None:
        """Dispatch ``di``; returns None on success, else whether the block
        was caused by a full shared resource (vs. a policy cap)."""
        if self.rob_used >= self._rob_size:
            return True
        instr = di.instr
        is_mem = di.is_load or di.is_store
        if is_mem and self.lsq_used >= self._lsq_size:
            return True
        fp_queue = instr.fp_queue
        if fp_queue:
            if self.fq_used >= self._fp_iq_size:
                return True
        elif self.iq_used >= self._int_iq_size:
            return True
        if di.has_dest:
            if di.dest_fp:
                if self.fp_regs_used >= self._fp_rename_regs:
                    return True
            elif self.int_regs_used >= self._int_rename_regs:
                return True
        if not self.policy.can_dispatch(ts, di):
            return False
        # All checks passed: allocate and rename.
        self.rob_used += 1
        ts.rob_count += 1
        if is_mem:
            self.lsq_used += 1
            ts.lsq_count += 1
        if fp_queue:
            self.fq_used += 1
            ts.fq_count += 1
        else:
            self.iq_used += 1
            ts.iq_count += 1
        di.in_iq = True
        di.iq_is_fp = fp_queue
        rename_map = ts.rename_map
        track_dep = self._track_ll_dep
        parents: list[DynInstr] | None = [] if track_dep else None
        # Runahead INV instructions carry bogus values: they neither wait
        # for producers nor execute for real (see repro.runahead.core).
        wait = not di.inv
        for src in instr.srcs:
            prod = rename_map[src]
            if prod is None:
                continue
            if track_dep and (prod.is_load or prod.ll_parents is not None
                              or prod.ll_dep):
                parents.append(prod)
                prod.refs += 1
            if wait and not prod.completed:
                di.pending += 1
                if prod.waiter0 is None:
                    prod.waiter0 = di
                elif prod.waiters is None:
                    prod.waiters = [di]
                else:
                    prod.waiters.append(di)
        if parents:
            di.ll_parents = tuple(parents)
        if di.has_dest:
            dest = instr.dest
            di.old_map = rename_map[dest]
            rename_map[dest] = di
            di.refs += 1  # rename-current; the old entry's ref transfers
            #              to the old_map backref
            if di.dest_fp:
                self.fp_regs_used += 1
                ts.fp_regs += 1
            else:
                self.int_regs_used += 1
                ts.int_regs += 1
        ts.window.append(di)
        if di.pending == 0:
            heappush(self._ready_by_op[instr.op_i], (di.gseq, di))
        return None

    # ------------------------------------------------------------------ #
    # fetch
    # ------------------------------------------------------------------ #

    def fetchable(self, ts: ThreadState, cycle: int) -> bool:
        """Base (policy-independent) fetch eligibility for ``ts``."""
        return (ts.fetch_blocked_until <= cycle
                and ts.waiting_branch is None
                and len(ts.fe_queue) < self._fe_capacity)

    def _rebuild_fetch_candidates(self) -> None:
        """Re-derive the policy-unstalled thread list (tid order).

        Normal operation maintains the list *incrementally* (a remove or
        tid-ordered insert per stall/unstall transition — see
        :meth:`ThreadState._sync_policy_stall`); this full rebuild is the
        recovery form for tests and tools that mutate stall state behind
        the transition function's back.  The list object's identity is
        stable for the core's lifetime (the fused run loop hoists it), so
        the rebuild mutates in place.
        """
        self._fetch_candidates[:] = [ts for ts in self.threads
                                     if not ts.policy_stalled_flag]
        self._fetch_wake = 0

    def _compute_fetch_wake(self, cycle: int) -> int:
        """Earliest cycle an empty fetch order could refill by *time*.

        Called right after fetch_order returned empty.  Threads blocked on
        I-fetch or redirect refill unblock at a known cycle; every other
        blocker (branch wait, full fetch queue, policy stall) clears
        through an event that resets the latch to 0.  A far-future result
        is fine: the fast-forward machinery still bounds progress and
        diagnoses genuine wedges.
        """
        wake = cycle + (1 << 30)
        for ts in self.threads:
            blocked_until = ts.fetch_blocked_until
            if cycle < blocked_until < wake:
                wake = blocked_until
        return wake

    def in_runahead(self, ts: ThreadState) -> bool:
        """Whether ``ts`` is speculating past a blocked long-latency load.

        Always False on the base core; :class:`repro.runahead.RunaheadCore`
        overrides this.  Policies consult it to suppress fetch-window
        bookkeeping during runahead episodes.
        """
        return False

    def _fetch_thread(self, ts: ThreadState, budget: int, cycle: int,
                      ignore_stall: bool) -> int:
        trace_get = ts.trace_get
        trace_static = ts.trace_static   # None: duck-typed stub trace
        body_len = ts.trace_body_len
        # pc_address(), inlined: every trace maps PCs affinely at 4 bytes
        # per instruction ("code region, 4 bytes per static instruction"),
        # so the cached origin folds the constant part and the
        # per-instruction cost is arithmetic rather than a method call.
        pc_origin = ts.pc_origin
        on_fetch = self._policy_on_fetch       # None: no-op for all instrs
        on_fetch_load = self._policy_on_fetch_load  # None: not loads-only
        fe_queue = ts.fe_queue
        fe_append = ts.fe_append
        line_shift = self._line_shift
        fe_ready = cycle + self._frontend_depth
        tid = ts.tid
        gseq = self._gseq
        allowed_end = ts.allowed_end
        count = 0
        fe_was_empty = not fe_queue
        limit = self._fe_capacity - len(fe_queue)
        if budget < limit:
            limit = budget
        pool = self._di_pool
        while count < limit:
            fetch_index = ts.fetch_index
            if not ignore_stall and allowed_end is not None \
                    and fetch_index > allowed_end:
                break
            if trace_static is not None:
                # get(), fast half inlined: iteration-invariant slots are
                # pre-materialized; only varying slots pay the call.
                instr = trace_static[fetch_index % body_len]
                if instr is None:
                    instr = trace_get(fetch_index)
            else:
                instr = trace_get(fetch_index)
            pc_addr = pc_origin + instr.pc * 4
            line = pc_addr >> line_shift
            if line != ts.last_ifetch_line:
                done = self._hier_ifetch(tid, pc_addr, cycle)
                ts.last_ifetch_line = line
                if done > cycle:
                    ts.fetch_blocked_until = done
                    break
            gseq += 1
            if pool:
                di = pool.pop()
                # DynInstr.reinit, inlined (one call per fetched
                # instruction was measurable) — keep in sync.
                di.instr = instr
                di.thread = tid
                di.seq = fetch_index
                di.gseq = gseq
                di.pending = 0
                di.fe_ready = fe_ready
                di.issued = False
                di.completed = False
                di.has_dest = instr.has_dest
                di.dest_fp = instr.dest_fp
                di.is_load = instr.is_load
                di.is_store = instr.is_store
                di.is_branch = instr.is_branch
                di.is_ll = False
                di.fill_line = None
                di.ll_dep = False
                di.retired = False
            else:
                di = DynInstr(instr, tid, fetch_index, gseq, fe_ready)
            fe_append(di)
            ts.fetch_index = fetch_index + 1
            ts.icount += 1
            count += 1
            if di.is_load:
                di.predicted_ll = ts.lll_predict(instr.pc)
                if on_fetch_load is not None:
                    on_fetch_load(di, ts)
                    allowed_end = ts.allowed_end  # the hook may update it
            if di.is_branch:
                taken = instr.taken
                prediction = self.gshare.update(instr.pc, taken, tid)
                target_known = True
                if taken:
                    target_known = self.btb.lookup(instr.pc)
                    self.btb.insert(instr.pc)
                if prediction != taken or not target_known:
                    ts.waiting_branch = di
                    ts.branch_wait_since = cycle
                    if on_fetch is not None:
                        on_fetch(di, ts)
                    break
                if on_fetch is not None:
                    on_fetch(di, ts)
                if taken:
                    # A correctly-predicted taken branch ends the block.
                    break
            elif on_fetch is not None:
                on_fetch(di, ts)
            if on_fetch is not None:
                allowed_end = ts.allowed_end  # the hook may update it
        self._gseq = gseq
        if count:
            # Batched: nothing inside the burst reads the fetched counter.
            ts.stats.fetched += count
            if fe_was_empty:
                # A fresh head exists where dispatch saw nothing.
                self._dispatch_wake = 0
                self._stall_latch_until = 0
                self._fe_mask |= 1 << tid
        # The fetch index may have crossed allowed_end mid-burst; fold the
        # transition into the event-driven stall state.
        ts._sync_policy_stall(cycle)
        return count

    # ------------------------------------------------------------------ #
    # flush (policy-triggered squash)
    # ------------------------------------------------------------------ #

    def flush_thread(self, ts: ThreadState, after_seq: int,
                     cancel_fills: bool | None = None) -> int:
        """Squash all of ``ts``'s instructions younger than ``after_seq``.

        Rewinds fetch to ``after_seq + 1``; returns the number of squashed
        instructions.  ``cancel_fills`` overrides the configured squash
        semantics: ``False`` lets in-flight cache fills of squashed loads
        continue (runahead exit — the fills *are* the prefetches), ``None``
        defers to ``cfg.memory.cancel_squashed_fills``.
        """
        squashed = 0
        fe = ts.fe_queue
        icount_delta = 0
        while fe and fe[-1].seq > after_seq:
            di = fe.pop()
            di.squashed = True
            icount_delta += 1
            squashed += 1
        if cancel_fills is None:
            cancel_fills = self.cfg.memory.cancel_squashed_fills
        window = ts.window
        rename_map = ts.rename_map
        ll_owners = ts.ll_owners
        cycle = self.cycle
        # Per-resource releases are tallied locally and applied once after
        # the loop; a deep flush (up to a ROB slice) would otherwise do
        # six read-modify-writes per squashed instruction.  Nothing inside
        # the loop observes the shared counters (clear_owner touches only
        # the policy-stall bookkeeping, cancel_fill only the hierarchy).
        rob_delta = lsq_delta = iq_delta = fq_delta = 0
        int_regs_delta = fp_regs_delta = 0
        while window and window[-1].seq > after_seq:
            di = window.pop()
            di.squashed = True
            squashed += 1
            if cancel_fills and di.fill_line is not None and not di.completed:
                self.hierarchy.cancel_fill(di.fill_line, di.instr.addr,
                                           cycle)
            rob_delta += 1
            if di.is_load or di.is_store:
                lsq_delta += 1
            if di.in_iq:
                di.in_iq = False
                icount_delta += 1
                if di.iq_is_fp:
                    fq_delta += 1
                else:
                    iq_delta += 1
            if di.has_dest:
                # Undo the rename: the old mapping's backref transfers
                # back to being the current entry; the squashed record
                # drops its own current-entry ref.
                rename_map[di.instr.dest] = di.old_map
                di.refs -= 1
                if di.dest_fp:
                    fp_regs_delta += 1
                else:
                    int_regs_delta += 1
            parents = di.ll_parents
            if parents is not None:
                di.ll_parents = None
                for p in parents:
                    p.refs -= 1
                    if p.retired and not p.refs:
                        self._maybe_recycle(p, ts)
            if di in ll_owners:
                ts.clear_owner(di, cycle)
        if rob_delta:
            ts.rob_count -= rob_delta
            self.rob_used -= rob_delta
        if lsq_delta:
            ts.lsq_count -= lsq_delta
            self.lsq_used -= lsq_delta
        if iq_delta:
            ts.iq_count -= iq_delta
            self.iq_used -= iq_delta
        if fq_delta:
            ts.fq_count -= fq_delta
            self.fq_used -= fq_delta
        if int_regs_delta:
            ts.int_regs -= int_regs_delta
            self.int_regs_used -= int_regs_delta
        if fp_regs_delta:
            ts.fp_regs -= fp_regs_delta
            self.fp_regs_used -= fp_regs_delta
        if icount_delta:
            ts.icount -= icount_delta
        if ts.waiting_branch is not None and ts.waiting_branch.squashed:
            ts.waiting_branch = None
            ts.stats.branch_stall_cycles += self.cycle - ts.branch_wait_since
        ts.fetch_index = after_seq + 1
        ts.last_ifetch_line = -1
        # The squash may have removed the ROB head (or the whole window)
        # and may have emptied the front-end queue; re-derive the
        # event-maintained head flag and both activity masks.
        bit = ts.tid_bit
        if window and window[0].completed:
            ts.head_ready = True
            self._heads_mask |= bit
        else:
            ts.head_ready = False
            self._heads_mask &= ~bit
        if fe:
            self._fe_mask |= bit
        else:
            self._fe_mask &= ~bit
        ts.stats.squashed += squashed
        ts.stats.flushes += 1
        # Squashing released shared resources and rewound the fetch index:
        # invalidate dispatch and fetch latches, re-derive the stall state.
        self._release_epoch += 1
        self._fetch_wake = 0
        self._dispatch_wake = 0
        self._stall_latch_until = 0
        ts._sync_policy_stall(cycle)
        return squashed

    # ------------------------------------------------------------------ #
    # fast-forward
    # ------------------------------------------------------------------ #

    def _head_retirable(self, ts: ThreadState, wb_full: bool) -> bool:
        """Can ``ts``'s ROB head make commit-stage progress next cycle?

        Part of the fast-forward probe; :class:`repro.runahead.RunaheadCore`
        overrides it because pseudo-retirement and runahead entry can make
        progress on heads the base commit stage would stall on.
        """
        window = ts.window
        if not window or not window[0].completed:
            return False
        return not window[0].is_store or not wb_full

    def _next_cycle(self, cycle: int) -> int:
        # step() has already established that nothing can fetch or issue
        # at ``nxt``; find the earliest future cycle where anything can
        # happen, or prove the pipeline is wedged.  The wheel mark heaps
        # are exact indexes of the pending bucket cycles (one int per
        # armed cycle, stale marks popped at drain), so the earliest-
        # event peeks stay O(1) without the old tuple heaps.
        nxt = cycle + 1
        candidates = []
        wb_full = self._wb_used >= self._wb_entries
        head_retirable = self._head_retirable
        for ts in self.threads:
            if head_retirable(ts, wb_full):
                return nxt
            fe = ts.fe_queue
            if fe:
                head_ready = fe[0].fe_ready
                if head_ready <= nxt:
                    return nxt
                candidates.append(head_ready)
            if ts.fetch_blocked_until > nxt:
                candidates.append(ts.fetch_blocked_until)
        if self._ev_marks:
            candidates.append(self._ev_marks[0])
        if self._ev_over:
            candidates.append(self._ev_over[0][0])
        if self._dt_marks:
            candidates.append(self._dt_marks[0])
        if self._dt_over:
            candidates.append(self._dt_over[0][0])
        if self._wb_marks:
            candidates.append(self._wb_marks[0])
        if self._wb_over:
            candidates.append(self._wb_over[0])
        if not candidates:
            raise SimulationDeadlock(
                f"no future events at cycle {cycle}; pipeline is wedged")
        target = min(candidates)
        if target <= nxt:
            return nxt
        # (skipped policy-stall cycles are covered by the open stall
        # intervals — no transition can occur in a skipped cycle.)
        return target
