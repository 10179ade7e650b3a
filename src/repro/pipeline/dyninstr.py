"""In-flight dynamic instruction record.

Two representations share this module:

* :class:`DynInstr` — the classic one-object-per-instruction record used
  by the ``object`` engine backend (and by :class:`repro.runahead.core.
  RunaheadCore`, which subclasses the object engine's commit machinery).
* The **struct-of-arrays column schema** used by the ``cext`` backend
  (:class:`repro.pipeline.cext.CextCore`): every ``DynInstr`` field becomes
  a flat per-slot column, the eleven booleans collapse into one integer
  ``flags`` word (bit layout below), and cross-record references become
  slot indices.  :class:`SoAView` is the thin per-slot proxy handed to
  policies and hooks so the policy surface never sees a raw slot number.

Heap and event-wheel entries in the cext engine are *packed* ints,
``(gseq << SLOT_SHIFT) | slot``: the global age stamp in the high bits
makes plain integer comparison reproduce oldest-first ordering (``gseq``
is unique per dynamic instruction), and the embedded stamp doubles as a
generation check — an entry whose stamp no longer matches the slot's
current ``gseq`` refers to a squashed instruction whose slot was
reclaimed, and is skipped exactly where the object engine skips the
squashed record it still holds a reference to.
"""

from __future__ import annotations

from repro.isa import Instr

#: Slot-index width of packed heap/wheel entries: supports arenas up to
#: ``2**SLOT_SHIFT`` slots (the arena asserts this bound when growing).
SLOT_SHIFT = 20
SLOT_MASK = (1 << SLOT_SHIFT) - 1

# ``flags`` column bit layout (one bit per DynInstr boolean).  The five
# F_CLS_* bits are instruction-class constants copied from the immutable
# ``Instr`` (see :func:`instr_flags`); the rest is mutable pipeline state.
F_IN_IQ = 1 << 0
F_IQ_FP = 1 << 1
F_ISSUED = 1 << 2
F_COMPLETED = 1 << 3
F_HAS_DEST = 1 << 4
F_DEST_FP = 1 << 5
F_SQUASHED = 1 << 6
F_IS_LOAD = 1 << 7
F_IS_STORE = 1 << 8
F_IS_BRANCH = 1 << 9
F_IS_LL = 1 << 10
F_INV = 1 << 11
F_LL_DEP = 1 << 12
F_RETIRED = 1 << 13
F_IN_DETECTS = 1 << 14
#: Set while a slot sits on the free list; reinit clears it.  Guards the
#: reclaim sites against double-freeing a slot that is reachable from
#: more than one stale structure (e.g. a squashed instruction freed at
#: flush whose completion event is still queued).
F_FREED = 1 << 15

_CLS_BITS = ((F_HAS_DEST, "has_dest"), (F_DEST_FP, "dest_fp"),
             (F_IS_LOAD, "is_load"), (F_IS_STORE, "is_store"),
             (F_IS_BRANCH, "is_branch"))


def instr_flags(instr: Instr) -> int:
    """The fetch-time ``flags`` word for one static instruction.

    Exactly the class bits a fresh :class:`DynInstr` copies in
    ``__init__``; every mutable bit starts clear.
    """
    flags = 0
    if instr.has_dest:
        flags |= F_HAS_DEST
    if instr.dest_fp:
        flags |= F_DEST_FP
    if instr.is_load:
        flags |= F_IS_LOAD
    elif instr.is_store:
        flags |= F_IS_STORE
    elif instr.is_branch:
        flags |= F_IS_BRANCH
    return flags


class DynInstr:
    """One instruction occupying pipeline resources.

    ``seq`` is the per-thread dynamic index (equal to the trace index, which
    makes flush-and-refetch a simple index rewind); ``gseq`` is a global age
    stamp used for oldest-first issue ordering.

    Records are pool-recycled by the core (see ``SMTCore._di_pool``):
    ``refs`` counts the long-lived references that outlive the window slot
    (the rename-map current entry, younger instructions' ``old_map``
    undo records, and captured ``ll_parents``), ``retired`` marks
    architectural commit, and ``in_detects`` marks a still-queued
    long-latency detection event.  A record returns to the pool only when
    it is retired with ``refs == 0`` and no queued detection, so a pooled
    object is never reachable from live simulation state.
    """

    __slots__ = (
        "instr", "thread", "seq", "gseq",
        "pending", "waiter0", "waiters",
        "fe_ready", "in_iq", "iq_is_fp", "issued",
        "completed",
        "has_dest", "dest_fp", "old_map",
        "squashed",
        "is_load", "is_store", "is_branch",
        "is_ll", "predicted_ll", "fill_line",
        "level", "inv", "ll_parents", "ll_dep",
        "refs", "retired", "in_detects",
    )

    def __init__(self, instr: Instr, thread: int, seq: int, gseq: int,
                 fe_ready: int):
        self.instr = instr
        self.thread = thread
        self.seq = seq
        self.gseq = gseq
        self.pending = 0
        # Dependents blocked on this record: the common single waiter
        # lives inline in ``waiter0`` (no list allocation); ``waiters``
        # holds the overflow and is only non-None when ``waiter0`` is.
        self.waiter0: DynInstr | None = None
        self.waiters: list[DynInstr] | None = None
        self.fe_ready = fe_ready
        self.in_iq = False
        self.iq_is_fp = False
        self.issued = False
        self.completed = False
        # Class flags are precomputed on the (immutable) Instr.
        self.has_dest = instr.has_dest
        self.dest_fp = instr.dest_fp
        self.old_map: DynInstr | None = None
        self.squashed = False
        self.is_load = instr.is_load
        self.is_store = instr.is_store
        self.is_branch = instr.is_branch
        self.is_ll = False
        self.predicted_ll: bool | None = None
        self.fill_line: int | None = None
        # Memory level that serviced this load (set at execute).
        self.level = None
        # Runahead "bogus value" flag: the result of this instruction is
        # invalid and must not reach memory (Mutlu et al. 2003).
        self.inv = False
        # Producers this instruction may inherit a long-latency dependence
        # from (populated only when dependence tracking is enabled), and
        # the resolved transitively-dependent flag (final at commit).
        self.ll_parents: tuple[DynInstr, ...] | None = None
        self.ll_dep = False
        self.refs = 0
        self.retired = False
        self.in_detects = False

    def reinit(self, instr: Instr, thread: int, seq: int, gseq: int,
               fe_ready: int) -> None:
        """Re-arm a pooled record: ``__init__`` minus the pool invariants.

        The commit-path recycle guards admit a record to the pool only
        when it retired with no live references, so these fields are
        *provably* already pristine and are not re-written here:
        ``waiter0``/``waiters``/``old_map``/``ll_parents`` are ``None``
        (drained at completion / cleared at commit), ``squashed`` and
        ``inv`` are False (committed records are neither; RunaheadCore,
        the only INV producer, opts out of pooling), ``in_iq`` is False
        (issue cleared it), ``refs`` is 0 and ``in_detects`` False
        (recycle guards).  Three further fields may carry a stale value
        but are always written before their first possible read in the
        new lifetime, so they are skipped too: ``iq_is_fp`` (written at
        dispatch; every read is gated on ``in_iq``), ``predicted_ll``
        (written at fetch for loads; every read is gated on
        ``is_load``), and ``level`` (written at execute for loads; read
        only for completed loads).  ``tests/test_pool.py`` cross-checks
        a reused record against a fresh one field by field, modulo that
        documented skip list.

        The fetch loop inlines this body (``SMTCore._fetch_thread``) —
        keep the two in sync.
        """
        self.instr = instr
        self.thread = thread
        self.seq = seq
        self.gseq = gseq
        self.pending = 0         # loads park -1 here as a miss marker
        self.fe_ready = fe_ready
        self.issued = False
        self.completed = False
        self.has_dest = instr.has_dest
        self.dest_fp = instr.dest_fp
        self.is_load = instr.is_load
        self.is_store = instr.is_store
        self.is_branch = instr.is_branch
        self.is_ll = False
        self.fill_line = None
        self.ll_dep = False
        self.retired = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join((
            "Q" if self.in_iq else "",
            "I" if self.issued else "",
            "C" if self.completed else "",
            "X" if self.squashed else "",
            "L" if self.is_ll else "",
        ))
        return (f"<DynInstr t{self.thread} #{self.seq} "
                f"{self.instr.op.name} {flags}>")


class SoAView:
    """Read/write proxy presenting one SoA arena slot as a ``DynInstr``.

    Views are created *lazily*, at most one per dynamic instruction (the
    arena caches the live occupant's view in ``CextCore._col_views``), so
    object identity is as stable as the underlying instruction: every
    hook invocation for the same dynamic instruction passes the same
    view, and identity-keyed policy state (``ThreadState.ll_owners``,
    PDG's in-flight set) behaves exactly as with real records.  Policies
    that never touch a record cost the engine nothing.

    A view is stamped with its instruction's ``gseq``.  Once the slot is
    reclaimed and refetched the stamp no longer matches and the view is
    *dead*: its boolean properties then report the squashed tombstone
    (``squashed`` True, every other flag False), which is how a policy
    that retained a reference past a flush observes exactly what it
    would have observed on the GC-kept object record.  Non-boolean
    properties of a dead view are unspecified (no surviving caller reads
    them — the retaining policies all filter on ``squashed`` first).

    Views are the *cold* interface — policies, hooks, and tests.  The
    engine's hot loops index the columns directly.
    """

    __slots__ = ("_core", "_slot", "_gseq")

    def __init__(self, core, slot: int, gseq: int):
        self._core = core
        self._slot = slot
        self._gseq = gseq

    @property
    def slot(self) -> int:
        return self._slot

    @property
    def live(self) -> bool:
        """Whether this view still denotes its original instruction."""
        return self._core._col_gseq[self._slot] == self._gseq

    @property
    def waiter0(self) -> SoAView | None:
        packed = self._core._col_waiter0[self._slot]
        if packed < 0:
            return None
        core = self._core
        slot = packed & SLOT_MASK
        if core._col_gseq[slot] != packed >> SLOT_SHIFT:
            return None          # stale: the waiter's slot was reclaimed
        return core.view(slot)

    @property
    def waiters(self) -> list[SoAView] | None:
        packed_list = self._core._col_waiters[self._slot]
        if packed_list is None:
            return None
        core = self._core
        gseq = core._col_gseq
        return [core.view(p & SLOT_MASK) for p in packed_list
                if gseq[p & SLOT_MASK] == p >> SLOT_SHIFT]

    @property
    def old_map(self) -> SoAView | None:
        slot = self._core._col_old_map[self._slot]
        return None if slot < 0 else self._core.view(slot)

    @property
    def ll_parents(self) -> tuple[SoAView, ...] | None:
        slots = self._core._col_ll_parents[self._slot]
        if slots is None:
            return None
        core = self._core
        return tuple(core.view(s) for s in slots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join((
            "Q" if self.in_iq else "",
            "I" if self.issued else "",
            "C" if self.completed else "",
            "X" if self.squashed else "",
            "L" if self.is_ll else "",
        ))
        return (f"<SoAView s{self._slot} t{self.thread} #{self.seq} "
                f"{self.instr.op.name} {flags}>")


def _column_property(col: str) -> property:
    def _get(self):
        return getattr(self._core, col)[self._slot]

    def _set(self, value):
        getattr(self._core, col)[self._slot] = value

    return property(_get, _set)


def _flag_property(bit: int) -> property:
    # Dead views (slot reclaimed and refetched) tombstone as "squashed":
    # the retaining policies filter on ``squashed``/``completed`` before
    # touching anything else, and a squashed-True/others-False read is
    # exactly what the GC-kept object record would have produced.
    dead_value = bit == F_SQUASHED

    def _get(self):
        core = self._core
        slot = self._slot
        if core._col_gseq[slot] != self._gseq:
            return dead_value
        return bool(core._col_flags[slot] & bit)

    def _set(self, value):
        col = self._core._col_flags
        if value:
            col[self._slot] |= bit
        else:
            col[self._slot] &= ~bit

    return property(_get, _set)


for _name, _col in (("instr", "_col_instr"), ("thread", "_col_thread"),
                    ("seq", "_col_seq"), ("gseq", "_col_gseq"),
                    ("pending", "_col_pending"),
                    ("fe_ready", "_col_fe_ready"), ("refs", "_col_refs"),
                    ("predicted_ll", "_col_pred_ll"),
                    ("fill_line", "_col_fill_line"),
                    ("level", "_col_level")):
    setattr(SoAView, _name, _column_property(_col))
for _name, _bit in (("in_iq", F_IN_IQ), ("iq_is_fp", F_IQ_FP),
                    ("issued", F_ISSUED), ("completed", F_COMPLETED),
                    ("has_dest", F_HAS_DEST), ("dest_fp", F_DEST_FP),
                    ("squashed", F_SQUASHED), ("is_load", F_IS_LOAD),
                    ("is_store", F_IS_STORE), ("is_branch", F_IS_BRANCH),
                    ("is_ll", F_IS_LL), ("inv", F_INV),
                    ("ll_dep", F_LL_DEP), ("retired", F_RETIRED),
                    ("in_detects", F_IN_DETECTS)):
    setattr(SoAView, _name, _flag_property(_bit))
del _name, _col, _bit
