"""Compiled C-extension engine backend (``cext``).

:class:`CextCore` keeps the pipeline state as parallel flat columns
indexed by *arena slot* (struct-of-arrays; see
:mod:`repro.pipeline.dyninstr` for the column schema and the packed
heap/wheel entry encoding), and ``_cext_engine.c`` (checked in next to
this file) runs the whole cycle body over those columns: the fused
``_run_until`` loop, the event-wheel drains, commit, issue, dispatch and
fetch.  All state lives in ordinary Python objects (columns, wheels,
heaps, ``ThreadState``), so stats, golden fixtures, sanitizers and
policies see what the object engine would show them.  The C also runs
the per-instruction bookkeeping the object engine does in Python: it
generates a :class:`~repro.workloads.trace.SyntheticTrace`'s
instructions from the trace's per-slot rows, runs the fast-forward probe
(raising :class:`~repro.pipeline.core.SimulationDeadlock` itself),
advances the LLSR over runs of non-long-latency retires and checks the
policy-stall predicate.  It also runs the common branch of the memory
hierarchy and the predictors on their own objects: a load, store or
instruction fetch that hits the TLB and the L1 with no fill in flight
(with the stride predictor's update), ``MissPatternPredictor.predict``/
``train``, ``GShare.update`` and ``BTB.lookup``/``insert``.  It does so
only for objects whose type is exactly the stock class, reached through
the stock bound methods (checked once per ``run_until``; each routine
checks its object's type on every call), so
subclasses, ablation predictors and the object engine keep their Python
methods; the module functions ``hier_access``, ``lll_predict``,
``lll_train``, ``gshare_update``, ``btb_lookup`` and ``btb_insert``
expose the same routines.  It crosses back into Python only at:

* policy hooks;
* the memory hierarchy (``load``/``ifetch``/``store``) for every miss,
  merge into an in-flight fill and TLB miss, and for a load whose
  stride-table entry does not exist yet: the Python hierarchy, shared
  with the object engine, stays the one definition of those paths;
* ``MissPatternPredictor.train`` to create a table entry, and every
  method of a non-stock predictor;
* :meth:`CextCore.flush_thread` and :meth:`CextCore._soa_grow`;
* ``LLSR.commit_zeros`` when a 1 exits the register's head during the
  advance (its measurement must fire in order), ``LLSR.commit`` for
  long-latency retires, and ``ThreadState._sync_policy_stall`` on a
  stall transition;
* ``trace.get`` for duck-typed traces, and for a row whose address
  arithmetic would overflow 64 bits.

:attr:`CextCore.counters` counts these callouts by kind
(:data:`CALLOUT_KINDS`).

Architectural behavior is bit-identical to
:class:`~repro.pipeline.core.SMTCore`; the golden matrix pins it.

The arena's contracts, which the C relies on and
:mod:`repro.pipeline.sanitize` checks:

* **Packed int heap/wheel entries** ``(gseq << SLOT_SHIFT) | slot``:
  the age stamp orders entries oldest-first and doubles as the
  generation check that defuses references to a reclaimed slot.
* **Explicit slot reclamation** at the last point the engine can reach
  a slot — retire with no live references, flush, or the drain of the
  final queued event; stale references are defused by the generation
  check, the ``F_FREED`` bit, or the dead-view tombstone of
  policy-retained :class:`~repro.pipeline.dyninstr.SoAView` proxies.
* **Pristine free list**: every free site leaves its slot with
  ``pending == 0``, ``refs == 0``, ``waiter0 == -1`` and
  ``waiters``/``old_map``/``ll_parents``/``fill_line``/``view`` clear,
  so allocation writes only the columns that vary per instruction.

Views are created lazily, only when a policy hook or test touches a
record, so hook-free policies (plain ICOUNT) allocate nothing per
instruction.  Subclassing the object engine's per-record internals
(:class:`repro.runahead.RunaheadCore`-style) is unsupported: policies
that declare a ``core_class`` keep the object engine, and the
overridable object-engine extension points raise here.

The extension is built lazily from the checked-in C source with the
host's own compiler (``cc``/``gcc``/``clang`` — no Cython, no mypyc) and
cached by source hash, so the first use on a machine pays one compile
and later uses load the cached shared object.  Where the probe succeeds
``cext`` is the default engine: every unpinned run resolves to it (see
:func:`repro.experiments.runner.core_for`).  When no toolchain exists
the probe fails quietly: :func:`load_cext_core` returns ``None``, the
``backends`` registry simply omits ``cext``, unpinned runs use the
object engine, and constructing a :class:`CextCore` raises instead of
simulating.

Environment knobs:

* ``REPRO_CEXT=0`` disables the backend entirely (probe reports it), so
  every run uses the object engine: the way to select it process-wide.
* ``REPRO_CEXT_CACHE`` overrides the build-cache directory.
* ``REPRO_SANITIZE=1`` selects :class:`~repro.pipeline.sanitize.
  CheckedCextCore`, which runs this same compiled loop in per-commit
  chunks and checks the arena between chunks.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from types import MappingProxyType, ModuleType
from typing import TYPE_CHECKING, Any

from repro.isa import NUM_ARCH_REGS
from repro.memory.hierarchy import AccessResult, MemoryHierarchy, ServiceLevel
from repro.pipeline.core import (
    SimulationDeadlock,
    SimulationLimitExceeded,
    SMTCore,
)
from repro.pipeline.dyninstr import (
    F_COMPLETED,
    F_DEST_FP,
    F_FREED,
    F_HAS_DEST,
    F_IN_DETECTS,
    F_IN_IQ,
    F_INV,
    F_IQ_FP,
    F_IS_BRANCH,
    F_IS_LL,
    F_IS_LOAD,
    F_IS_STORE,
    F_ISSUED,
    F_LL_DEP,
    F_RETIRED,
    F_SQUASHED,
    SLOT_SHIFT,
    SoAView,
    instr_flags,
)
from repro.pipeline.stats import CoreStats, ThreadStats
from repro.pipeline.thread_state import ThreadState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import SMTConfig
    from repro.policies.base import FetchPolicy
    from repro.workloads.trace import SyntheticTrace

__all__ = [
    "CALLOUT_KINDS",
    "CextCore",
    "cext_status",
    "load_cext_core",
]

_SOURCE = Path(__file__).with_name("_cext_engine.c")

#: Initial arena capacity (slots); the arena doubles on demand, bounded
#: by the packed-entry slot width.
_INITIAL_CAPACITY = 2048

_F_MEM = F_IS_LOAD | F_IS_STORE

#: The kinds of Python callout the compiled loop counts, in the order of
#: ``CextCore.counters`` (``setup`` checks the C copy against this).
CALLOUT_KINDS = (
    "hier_load", "hier_store", "hier_ifetch", "lll_predict", "lll_train",
    "gshare_update", "btb_lookup", "btb_insert", "llsr_commit",
    "llsr_commit_zeros", "sync_policy_stall", "policy_hook", "trace_get",
    "soa_grow", "flush",
)
_FLUSH = CALLOUT_KINDS.index("flush")

# Probe/build outcome, memoized for the life of the process:
# (engine module | None, human-readable status string).
_state: tuple[ModuleType | None, str] | None = None


def _find_compiler() -> str | None:
    """The first usable C compiler, honoring ``CC``; ``None`` if none."""
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_CEXT_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-cext"


def _build(compiler: str) -> Path:
    """Compile (or reuse) the extension; returns the shared-object path."""
    source = _SOURCE.read_bytes()
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    key = hashlib.sha256(
        source
        + sys.implementation.cache_tag.encode()
        + suffix.encode()
        + Path(compiler).name.encode()).hexdigest()[:16]
    out = _cache_dir() / f"_cext_engine-{key}{suffix}"
    if out.exists():
        return out
    include = sysconfig.get_paths()["include"]
    if not (Path(include) / "Python.h").exists():
        raise RuntimeError(f"no Python.h under {include}")
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    cmd = [compiler, "-O2", "-fPIC", "-shared", "-I", include,
           str(_SOURCE), "-o", str(tmp)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-8:]
        raise RuntimeError(
            "cext build failed: " + " | ".join(tail))
    os.replace(tmp, out)  # atomic: concurrent builders race harmlessly
    return out


def _setup_namespace() -> dict[str, Any]:
    """Everything ``_cext_engine.setup`` resolves offsets/constants from."""
    from repro.branch import BTB, GShare
    from repro.isa.instruction import Instr
    from repro.memory import (
        TLB,
        Cache,
        StreamBufferPrefetcher,
        StridePredictor,
        stride_predictor,
    )
    from repro.predictors import miss_pattern
    from repro.predictors.llsr import LLSR
    from repro.workloads import trace
    return {
        "core": CextCore,
        "ts": ThreadState,
        "stats": ThreadStats,
        "core_stats": CoreStats,
        "instr": Instr,
        "llsr": LLSR,
        "result": AccessResult,
        "view_cls": SoAView,
        "limit_exc": SimulationLimitExceeded,
        "deadlock_exc": SimulationDeadlock,
        "l1_level": ServiceLevel.L1,
        # The stock classes whose hit paths run in C (exact type only).
        "hier": MemoryHierarchy,
        "cache": Cache,
        "tlb": TLB,
        "prefetcher": StreamBufferPrefetcher,
        "stride": StridePredictor,
        "stride_entry": stride_predictor._Entry,
        "mpp": miss_pattern.MissPatternPredictor,
        "mpp_entry": miss_pattern._Entry,
        "gshare": GShare,
        "btb": BTB,
        "callout_kinds": CALLOUT_KINDS,
        # setup() cross-checks these against the compiled-in copies so a
        # drift in the Python flag layout fails loudly, not bit-rottenly.
        "flags": {
            "F_IN_IQ": F_IN_IQ, "F_IQ_FP": F_IQ_FP, "F_ISSUED": F_ISSUED,
            "F_COMPLETED": F_COMPLETED, "F_HAS_DEST": F_HAS_DEST,
            "F_DEST_FP": F_DEST_FP, "F_SQUASHED": F_SQUASHED,
            "F_IS_LOAD": F_IS_LOAD, "F_IS_STORE": F_IS_STORE,
            "F_IS_BRANCH": F_IS_BRANCH, "F_IS_LL": F_IS_LL,
            "F_INV": F_INV, "F_LL_DEP": F_LL_DEP, "F_RETIRED": F_RETIRED,
            "F_IN_DETECTS": F_IN_DETECTS, "F_FREED": F_FREED,
            "SLOT_SHIFT": SLOT_SHIFT,
            "ROW_LINEAR": trace.ROW_LINEAR, "ROW_HASHED": trace.ROW_HASHED,
            "ROW_BURST": trace.ROW_BURST, "ROW_BRANCH": trace.ROW_BRANCH,
        },
    }


def _probe() -> tuple[ModuleType | None, str]:
    if os.environ.get("REPRO_CEXT", "").strip() == "0":
        return None, "disabled by REPRO_CEXT=0"
    compiler = _find_compiler()
    if compiler is None:
        return None, "no C compiler on PATH (tried $CC, cc, gcc, clang)"
    try:
        path = _build(compiler)
        spec = importlib.util.spec_from_file_location(
            "repro.pipeline._cext_engine", path)
        if spec is None or spec.loader is None:
            return None, f"could not create import spec for {path}"
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.setup(_setup_namespace())
    except Exception as exc:  # noqa: BLE001 - probe must never raise
        return None, f"build/load failed: {exc}"
    return module, f"built with {compiler} -> {path}"


def _engine() -> ModuleType | None:
    global _state
    if _state is None:
        _state = _probe()
    return _state[0]


def cext_status() -> str:
    """A one-line human-readable probe outcome (never raises)."""
    engine = _engine()
    assert _state is not None
    return ("available: " if engine is not None else "unavailable: ") \
        + _state[1]


def _require_engine() -> ModuleType:
    """The loaded extension; raises when the probe failed."""
    engine = _engine()
    if engine is None:
        raise RuntimeError(
            f"the cext backend is {cext_status()}; run with backend "
            f"'object' instead")
    return engine


class CextCore(SMTCore):
    """The struct-of-arrays engine whose cycle body is compiled C.

    Only the cold paths the C calls back into stay in Python:
    :meth:`flush_thread` (policy-triggered squash) and :meth:`_soa_grow`
    (arena growth); the module docstring lists the other callouts.  The
    two ``_cext_*`` slots cache the policy-class hook markers the C reads
    per run.
    """

    __slots__ = (
        "_capacity", "_free",
        "_col_instr", "_col_thread", "_col_seq", "_col_gseq",
        "_col_packed",
        "_col_pending", "_col_fe_ready", "_col_flags", "_col_refs",
        "_col_waiter0", "_col_waiters", "_col_old_map", "_col_ll_parents",
        "_col_pred_ll", "_col_fill_line", "_col_level", "_col_views",
        "_cext_olc_cleanup_only", "_cext_ll_detect_is_base",
        "_cext_counts",
    )

    def __init__(self, cfg: SMTConfig, traces: list[SyntheticTrace],
                 policy: FetchPolicy,
                 hierarchy: MemoryHierarchy | None = None):
        _require_engine()
        super().__init__(cfg, traces, policy, hierarchy)
        # Object-record pooling is meaningless here (no records).
        self._di_pool = None
        cap = _INITIAL_CAPACITY
        self._capacity = cap
        self._col_instr: list = [None] * cap
        self._col_thread = [0] * cap
        self._col_seq = [0] * cap
        # -1 never matches a packed entry's stamp (gseq starts at 1), so
        # an unallocated slot defuses every stale reference.
        self._col_gseq = [-1] * cap
        # The slot's own packed stamp ``(gseq << SLOT_SHIFT) | slot``,
        # written once at allocation: generation checks become one
        # allocation-free int equality against the queued entry instead
        # of a shift (whose result CPython would have to box per check),
        # and re-pushing a slot reuses the stamp.  0 never matches a
        # queued entry (their gseq is >= 1).
        self._col_packed = [0] * cap
        self._col_pending = [0] * cap
        self._col_fe_ready = [0] * cap
        self._col_flags = [F_FREED] * cap
        self._col_refs = [0] * cap
        self._col_waiter0 = [-1] * cap
        self._col_waiters: list = [None] * cap
        self._col_old_map = [-1] * cap
        self._col_ll_parents: list = [None] * cap
        self._col_pred_ll: list = [None] * cap
        self._col_fill_line: list = [None] * cap
        self._col_level: list = [None] * cap
        self._col_views: list = [None] * cap
        # Free-list stack, seeded so pop() hands out slot 0 first.  Every
        # slot on it is *pristine* (see the module docstring): the alloc
        # path relies on pending/refs/waiter0/waiters/old_map/ll_parents/
        # fill_line/view being clear and does not re-write them.
        self._free = list(range(cap - 1, -1, -1))
        for ts in self.threads:
            # The rename map holds slot numbers (-1 = no in-flight
            # producer) instead of record references.
            ts.rename_map = [-1] * NUM_ARCH_REGS
            trace_static = ts.trace_static
            if trace_static is not None:
                # A row's prototype carries the class bits of every
                # instruction the row generates.
                rows = ts.trace_rows or [None] * len(trace_static)
                ts.trace_flags = [
                    instr_flags(instr) if instr is not None
                    else None if row is None else instr_flags(row[1])
                    for instr, row in zip(trace_static, rows)]
        pcls = type(policy)
        self._cext_olc_cleanup_only = bool(getattr(
            pcls.on_load_complete, "_identity_keyed_cleanup", False))
        self._cext_ll_detect_is_base = bool(getattr(
            pcls.on_ll_detect, "_is_default_hook", False))
        # Running callout totals by kind; the C adds each run's counts.
        self._cext_counts = [0] * len(CALLOUT_KINDS)

    @property
    def counters(self) -> MappingProxyType[str, int]:
        """Python callouts the compiled loop made, by kind (read-only).

        Totals over the core's life, brought up to date when each
        ``run_until`` returns.  They count calls, never time, so equal
        runs give equal counters.
        """
        return MappingProxyType(dict(zip(CALLOUT_KINDS, self._cext_counts)))

    def _run_until(self, max_commits: int, max_cycles: int | None) -> None:
        limit = max_cycles if max_cycles is not None else self.cfg.max_cycles
        _require_engine().run_until(self, max_commits, limit)

    def release(self) -> None:
        # Cached views point back at the core too.
        super().release()
        for v in self._col_views:
            if v is not None:
                v._core = None

    # ------------------------------------------------------------------ #
    # arena
    # ------------------------------------------------------------------ #

    def view(self, slot: int) -> SoAView:
        """The (cached, generation-stamped) view of ``slot``'s occupant."""
        v = self._col_views[slot]
        if v is None:
            v = self._col_views[slot] = SoAView(self, slot,
                                                self._col_gseq[slot])
        return v

    def _soa_grow(self) -> None:
        """Double the arena in place (cold; all columns keep identity)."""
        old = self._capacity
        new = old * 2
        if new > (1 << SLOT_SHIFT):
            raise RuntimeError(
                f"SoA arena cannot grow past {1 << SLOT_SHIFT} slots")
        self._col_instr.extend([None] * old)
        self._col_thread.extend([0] * old)
        self._col_seq.extend([0] * old)
        self._col_gseq.extend([-1] * old)
        self._col_packed.extend([0] * old)
        self._col_pending.extend([0] * old)
        self._col_fe_ready.extend([0] * old)
        self._col_flags.extend([F_FREED] * old)
        self._col_refs.extend([0] * old)
        self._col_waiter0.extend([-1] * old)
        self._col_waiters.extend([None] * old)
        self._col_old_map.extend([-1] * old)
        self._col_ll_parents.extend([None] * old)
        self._col_pred_ll.extend([None] * old)
        self._col_fill_line.extend([None] * old)
        self._col_level.extend([None] * old)
        self._col_views.extend([None] * old)
        self._free.extend(range(new - 1, old - 1, -1))
        self._capacity = new

    # ------------------------------------------------------------------ #
    # object-engine extension points that cannot apply here
    # ------------------------------------------------------------------ #

    def _object_engine_only(self, *_args: Any) -> Any:
        raise NotImplementedError(
            "CextCore runs the cycle body in compiled code; subclass the "
            "object engine (backend 'object') instead")

    # The fast-forward probe runs in the C loop; the inherited one would
    # read slot numbers as records.
    step = _complete = _process_events = _execute = _commit_one = \
        _try_dispatch = _next_cycle = _head_retirable = _object_engine_only

    # ------------------------------------------------------------------ #
    # flush (policy-triggered squash)
    # ------------------------------------------------------------------ #

    def flush_thread(self, ts: ThreadState, after_seq: int,
                     cancel_fills: bool | None = None) -> int:
        self._cext_counts[_FLUSH] += 1
        # Mirrors SMTCore.flush_thread; squashed slots are reclaimed here
        # unless a queued event (completion of a counted miss, a pending
        # detection) or a policy ownership still needs them — those free
        # at their respective drains.  Keep in sync.
        squashed = 0
        fe = ts.fe_queue
        icount_delta = 0
        col_instr = self._col_instr
        col_seq = self._col_seq
        col_pending = self._col_pending
        col_flags = self._col_flags
        col_refs = self._col_refs
        col_waiter0 = self._col_waiter0
        col_waiters = self._col_waiters
        col_old_map = self._col_old_map
        col_ll_parents = self._col_ll_parents
        col_fill_line = self._col_fill_line
        col_views = self._col_views
        free = self._free
        ll_owners = ts.ll_owners
        while fe and col_seq[fe[-1]] > after_seq:
            s = fe.pop()
            fl = col_flags[s] | F_SQUASHED
            icount_delta += 1
            squashed += 1
            # Never dispatched: no references, no queued events — still
            # pristine but for a possible hook-created view.  Only a
            # policy fetch-gating ownership can still reach the slot.
            v = col_views[s]
            if v is None or v not in ll_owners:
                col_views[s] = None
                col_flags[s] = fl | F_FREED
                free.append(s)
            else:
                col_flags[s] = fl
        if cancel_fills is None:
            cancel_fills = self.cfg.memory.cancel_squashed_fills
        window = ts.window
        rename_map = ts.rename_map
        cycle = self.cycle
        rob_delta = lsq_delta = iq_delta = fq_delta = 0
        int_regs_delta = fp_regs_delta = 0
        while window and col_seq[window[-1]] > after_seq:
            s = window.pop()
            fl = col_flags[s] | F_SQUASHED
            squashed += 1
            if cancel_fills and col_fill_line[s] is not None \
                    and not fl & F_COMPLETED:
                self.hierarchy.cancel_fill(col_fill_line[s],
                                           col_instr[s].addr, cycle)
            rob_delta += 1
            if fl & _F_MEM:
                lsq_delta += 1
            if fl & F_IN_IQ:
                fl &= ~F_IN_IQ
                icount_delta += 1
                if fl & F_IQ_FP:
                    fq_delta += 1
                else:
                    iq_delta += 1
            if fl & F_HAS_DEST:
                # Undo the rename: the old mapping becomes current again;
                # the squashed slot drops its own current-entry ref.
                rename_map[col_instr[s].dest] = col_old_map[s]
                col_refs[s] -= 1
                if fl & F_DEST_FP:
                    fp_regs_delta += 1
                else:
                    int_regs_delta += 1
            parents = col_ll_parents[s]
            if parents is not None:
                col_ll_parents[s] = None
                for p in parents:
                    r = col_refs[p] - 1
                    col_refs[p] = r
                    if not r:
                        pfl = col_flags[p]
                        if (pfl & F_RETIRED
                                and not pfl & (F_IN_DETECTS | F_FREED)):
                            v = col_views[p]
                            if v is None or v not in ll_owners:
                                col_fill_line[p] = None
                                col_views[p] = None
                                col_flags[p] = pfl | F_FREED
                                free.append(p)
            v = col_views[s]
            if v is not None and v in ll_owners:
                ts.clear_owner(v, cycle)
            # Reclaim unless a queued event still needs the slot: a
            # counted outstanding miss (pending == -1, cleared at its
            # completion drain) or a pending detection (freed at the
            # detect drain).  Restore the pristine invariant; a live
            # producer may still hold this slot's waiter registration,
            # which the drains defuse on the F_FREED bit.
            if (not col_refs[s] and col_pending[s] != -1
                    and not fl & (F_IN_DETECTS | F_FREED)):
                col_pending[s] = 0
                col_waiter0[s] = -1
                col_waiters[s] = None
                col_old_map[s] = -1
                col_fill_line[s] = None
                col_views[s] = None
                col_flags[s] = fl | F_FREED
                free.append(s)
            else:
                col_flags[s] = fl
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
        wb = ts.waiting_branch
        if wb is not None and col_flags[wb] & F_SQUASHED:
            ts.waiting_branch = None
            ts.stats.branch_stall_cycles += self.cycle - ts.branch_wait_since
        ts.fetch_index = after_seq + 1
        ts.last_ifetch_line = -1
        bit = ts.tid_bit
        if window and col_flags[window[0]] & F_COMPLETED:
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
        self._release_epoch += 1
        self._fetch_wake = 0
        self._dispatch_wake = 0
        self._stall_latch_until = 0
        ts._sync_policy_stall(cycle)
        return squashed


def load_cext_core() -> type[CextCore] | None:
    """:class:`CextCore` when the extension builds and loads, else ``None``.

    The ``backends`` registry's conditional entry point; never raises.
    """
    return CextCore if _engine() is not None else None
