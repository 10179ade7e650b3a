"""Opt-in runtime sanitizer for the engine allocation paths.

``REPRO_SANITIZE=1`` makes :func:`repro.experiments.runner.core_for`
return *checked* engine subclasses (:class:`CheckedSMTCore`,
:class:`CheckedCextCore`) that check the two recycling allocators — the
object engine's retired-``DynInstr`` pool and the ``cext`` engine's
arena free list — with the classic allocator-sanitizer checks:

* **double-free** — a record/slot returned to the pool twice;
* **use-after-free** — a pooled record reachable from live pipeline
  state, or a pooled record/slot whose pristine invariants were mutated
  while it sat on the free list;
* **leak** — an arena slot that is neither freed nor reachable from any
  live root (front-end queues, windows, rename maps, event wheels,
  waiter/old-map/parent edges, policy-held views);
* **event-wheel monotonicity** — an armed calendar-queue entry dated
  before the current cycle (an event the fast-forward probe skipped
  would silently never fire).

The two engines are checked at different grains:

* :class:`CheckedSMTCore` overrides :meth:`~repro.pipeline.core.SMTCore.
  step`, which ``SMTCore._run_until`` answers by driving the simulation
  one observable ``step()`` per cycle; its pool checks run at every free
  and allocation, and the use-after-free scan when ``advance_to``
  returns.
* :class:`CheckedCextCore` runs the *compiled* loop — the code an
  unsanitized ``cext`` run executes — in per-commit chunks
  (``run_until`` with ``max_commits = watermark + 1``) and checks the
  wheels, the free list's contents and the leak scan between chunks.
  The C pushes and pops the free list through the list C API, so the
  checks read its contents rather than intercepting calls.

Sanitized runs are slower but **bit-exact**: the golden matrix passes
under ``REPRO_SANITIZE=1`` on both backends, and the ``golden-sanitize``
CI leg holds it there.

With the variable unset the module is never imported and the engines
run their unchecked allocators — zero cost when off.

Violations raise :class:`SanitizerError`, an ``AssertionError``
subclass, so they fail tests loudly and are distinguishable from
engine exceptions.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import itemgetter
import os
from typing import TYPE_CHECKING, Any

from repro.pipeline.cext import CextCore
from repro.pipeline.core import SMTCore
from repro.pipeline.dyninstr import F_FREED, SLOT_MASK, SoAView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.dyninstr import DynInstr

#: Environment variable that switches the sanitizer on ("" / "0" = off).
SANITIZE_ENV = "REPRO_SANITIZE"


def sanitize_enabled() -> bool:
    """The REPRO_SANITIZE knob (default off)."""
    return os.environ.get(SANITIZE_ENV, "") not in ("", "0")


class SanitizerError(AssertionError):
    """An engine allocator invariant was violated under REPRO_SANITIZE."""


def checked_variant(cls: type) -> type:
    """The checked subclass for a stock engine class.

    Specialized cores (runahead's ``core_class``) pass through
    unchanged — they opt out of pooling anyway and own their driving
    loops, so the allocator checks have nothing to attach to.
    """
    if cls is SMTCore:
        return CheckedSMTCore
    if cls is CextCore:
        return CheckedCextCore
    return cls


# --------------------------------------------------------------------- #
# event-wheel monotonicity (shared by both engines)
# --------------------------------------------------------------------- #

def _check_wheels(core: SMTCore, cycle: int) -> None:
    """No armed calendar entry may be dated before the current cycle.

    Buckets drain exactly at their own cycle and every fast-forward jump
    is bounded by the armed marks, so an entry dated ``< cycle`` before
    a cycle is simulated is an event that was skipped and will never
    fire.
    """
    for name in ("_ev_marks", "_dt_marks", "_wb_marks"):
        marks = getattr(core, name)
        if marks and marks[0] < cycle:
            raise SanitizerError(
                f"event wheel non-monotonic: {name}[0]={marks[0]} is "
                f"before cycle {cycle} (skipped bucket)")
    for name in ("_ev_over", "_dt_over"):
        over = getattr(core, name)
        if over and over[0][0] < cycle:
            raise SanitizerError(
                f"event wheel non-monotonic: {name} head due at "
                f"{over[0][0]} is before cycle {cycle}")
    wb_over = core._wb_over
    if wb_over and wb_over[0] < cycle:
        raise SanitizerError(
            f"event wheel non-monotonic: _wb_over head due at "
            f"{wb_over[0]} is before cycle {cycle}")


# --------------------------------------------------------------------- #
# object engine: checked DynInstr pool
# --------------------------------------------------------------------- #

def _assert_pristine_record(di: DynInstr, when: str) -> None:
    """The pool-entry contract (the recycle guards, re-stated)."""
    if not di.retired:
        raise SanitizerError(
            f"{when}: pooled DynInstr t{di.thread}#{di.seq} is not "
            f"retired")
    if di.refs:
        raise SanitizerError(
            f"{when}: pooled DynInstr t{di.thread}#{di.seq} still has "
            f"refs={di.refs}")
    if di.in_detects:
        raise SanitizerError(
            f"{when}: pooled DynInstr t{di.thread}#{di.seq} has a "
            f"queued long-latency detection")


class CheckedPool(list):
    """A DynInstr free list that checks the recycle contract.

    Drop-in for the plain list in ``SMTCore._di_pool`` (the engine only
    ever calls ``append``/``pop``/``len``/truth on it).  Tracks pooled
    object identities to catch double-frees at ``append`` and re-checks
    the pristine contract at ``pop`` — a record mutated *while pooled*
    is a use-after-free by whoever kept the reference.
    """

    __slots__ = ("_ids",)

    def __init__(self, items: Iterable = ()):
        super().__init__(items)
        self._ids = {id(di) for di in self}

    def append(self, di: DynInstr) -> None:
        ids = self._ids
        if id(di) in ids:
            raise SanitizerError(
                f"double free: DynInstr t{di.thread}#{di.seq} returned "
                f"to the pool twice")
        _assert_pristine_record(di, "free")
        ids.add(id(di))
        super().append(di)

    def pop(self, index: int = -1) -> DynInstr:
        di = super().pop(index)
        self._ids.discard(id(di))
        _assert_pristine_record(di, "alloc (mutated while pooled)")
        return di


class CheckedSMTCore(SMTCore):
    """Object engine with the DynInstr pool under sanitizer checks."""

    __slots__ = ()

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        if self._di_pool is not None:
            self._di_pool = CheckedPool(self._di_pool)

    # Overriding step() makes _run_until drive the core generically —
    # one observable call per cycle instead of the fused loop.
    def step(self) -> None:
        cycle = self.cycle
        _check_wheels(self, cycle)
        super().step()
        if self.cycle <= cycle:
            raise SanitizerError(
                f"step() did not advance the cycle (stuck at {cycle})")

    def advance_to(self, commits: int,
                   max_cycles: int | None = None) -> bool:
        done = super().advance_to(commits, max_cycles)
        self.sanitize_check()
        return done

    def sanitize_check(self) -> None:
        """Scan live pipeline state for pooled (freed) records."""
        pool = self._di_pool
        if not isinstance(pool, CheckedPool):
            return
        ids = pool._ids
        if len(ids) != len(pool):
            raise SanitizerError(
                f"pool identity set out of sync: {len(ids)} ids for "
                f"{len(pool)} pooled records")

        def check(di: DynInstr, where: str) -> None:
            if id(di) in ids:
                raise SanitizerError(
                    f"use after free: pooled DynInstr t{di.thread}"
                    f"#{di.seq} still reachable from {where}")

        for ts in self.threads:
            for di in ts.fe_queue:
                check(di, f"thread {ts.tid} fe_queue")
            for di in ts.window:
                check(di, f"thread {ts.tid} window")
            for di in ts.rename_map:
                if di is not None:
                    check(di, f"thread {ts.tid} rename_map")
            if ts.waiting_branch is not None:
                check(ts.waiting_branch, f"thread {ts.tid} waiting_branch")
            for di in ts.ll_owners:
                check(di, f"thread {ts.tid} ll_owners")
        for name in ("_ev_buckets", "_dt_buckets"):
            for bucket in getattr(self, name):
                if bucket:
                    for di in bucket:
                        check(di, name)
        for name in ("_ev_over", "_dt_over"):
            for entry in getattr(self, name):
                check(entry[2], name)


# --------------------------------------------------------------------- #
# cext engine: the compiled loop in checked chunks
# --------------------------------------------------------------------- #

#: The free-list pristine-slot contract: the columns the allocation path
#: relies on being clear and does not re-write, with their clear values.
_PRISTINE = (("_col_pending", 0), ("_col_refs", 0), ("_col_waiter0", -1),
             ("_col_waiters", None), ("_col_old_map", -1),
             ("_col_ll_parents", None), ("_col_fill_line", None),
             ("_col_views", None))


def _iter_views(obj: Any, depth: int = 0) -> Iterator[SoAView]:
    """Every SoAView reachable through plain containers (bounded)."""
    if isinstance(obj, SoAView):
        yield obj
    elif depth < 4:
        if isinstance(obj, dict):
            for k, v in obj.items():
                yield from _iter_views(k, depth + 1)
                yield from _iter_views(v, depth + 1)
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for v in obj:
                yield from _iter_views(v, depth + 1)


class CheckedCextCore(CextCore):
    """The ``cext`` backend under ``REPRO_SANITIZE=1``.

    :meth:`_run_until` calls the compiled ``run_until`` once per commit
    watermark step and runs :meth:`sanitize_check` (plus the wheel
    check) between calls, so a sanitized ``cext`` run executes the same
    C an unsanitized one does, with the arena checked at every commit.
    """

    __slots__ = ()

    def _run_until(self, max_commits: int, max_cycles: int | None) -> None:
        run_chunk = super()._run_until
        while self._committed_watermark < max_commits:
            _check_wheels(self, self.cycle)
            run_chunk(self._committed_watermark + 1, max_cycles)
            self.sanitize_check()

    def sanitize_check(self) -> None:
        """Free-list contents plus the leak scan (the C bypasses any
        list-method override, so the list is read, not intercepted)."""
        free = self._free
        free_slots = set(free)
        if len(free_slots) != len(free):
            dup = next(s for s in free if free.count(s) > 1)
            raise SanitizerError(
                f"double free: slot {dup} is on the arena free list "
                f"{free.count(dup)} times")
        if free:
            pick = itemgetter(*free, free[0])   # always a tuple
            for col, clear in _PRISTINE:
                values = pick(getattr(self, col))[:-1]
                if values.count(clear) != len(values):
                    s, value = next((s, v) for s, v in zip(free, values)
                                    if v is not clear and v != clear)
                    raise SanitizerError(
                        f"freed slot {s} is not pristine: {col}[{s}] == "
                        f"{value!r} (expected {clear!r})")
            flags = self._col_flags
            for s in free:
                if not flags[s] & F_FREED:
                    raise SanitizerError(
                        f"slot {s} is on the free list without F_FREED")
        allocated = set(range(self._capacity)).difference(free_slots)
        for s in allocated:
            if self._col_flags[s] & F_FREED:
                raise SanitizerError(
                    f"slot {s} has F_FREED but is not on the free list "
                    f"(lost to the allocator)")
        leaked = allocated - self._live_slots()
        if leaked:
            s = min(leaked)
            raise SanitizerError(
                f"leak: slot {s} (t{self._col_thread[s]}"
                f"#{self._col_seq[s]}) is neither freed nor reachable "
                f"from any live root")

    def _live_slots(self) -> set[int]:
        """Slots reachable from the live roots, transitively."""
        cap = self._capacity
        packed_col = self._col_packed
        live: set[int] = set()
        pend: list[int] = []

        def add(s: int) -> None:
            if 0 <= s < cap and s not in live:
                live.add(s)
                pend.append(s)

        def add_packed(p: int) -> None:
            s = p & SLOT_MASK
            if 0 <= s < cap and packed_col[s] == p:
                add(s)

        for ts in self.threads:
            for s in ts.fe_queue:
                add(s)
            for s in ts.window:
                add(s)
            for s in ts.rename_map:
                if s >= 0:
                    add(s)
            if ts.waiting_branch is not None:
                add(ts.waiting_branch)
            for view in _iter_views(ts.ll_owners):
                add(view._slot)
            for view in _iter_views(ts.policy_data):
                add(view._slot)
        for name in ("_ev_buckets", "_dt_buckets"):
            for bucket in getattr(self, name):
                if bucket:
                    for p in bucket:
                        add_packed(p)
        for name in ("_ev_over", "_dt_over"):
            for entry in getattr(self, name):
                add_packed(entry[1])
        for queue in (self._ready_int, self._ready_ldst, self._ready_fp):
            for p in queue:
                add_packed(p)
        old_map = self._col_old_map
        waiter0 = self._col_waiter0
        waiters = self._col_waiters
        ll_parents = self._col_ll_parents
        while pend:
            s = pend.pop()
            if old_map[s] >= 0:
                add(old_map[s])
            w0 = waiter0[s]
            if w0 != -1:
                add_packed(w0)
            wl = waiters[s]
            if wl is not None:
                for w in wl:
                    add_packed(w)
            ps = ll_parents[s]
            if ps is not None:
                for p in ps:
                    add(p)
        return live
