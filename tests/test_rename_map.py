"""Array-backed rename map vs a dict-oracle implementation.

The dispatch stage renames through a fixed per-thread array indexed by
the dense architectural register number (``ThreadState.rename_map``); the
pre-optimization engine used a plain dict with ``.get`` defaulting to
``None``.  These tests run the *same* randomized simulation twice — once
on the real array-backed thread state and once with a dict-backed
stand-in implementing exactly the original semantics injected into every
thread — drive random flush/commit/dispatch event mixes through the real
engine (random programs, random mid-run flush injections), and require
bit-identical architectural outcomes plus structurally identical rename
state at every checkpoint.

Same style as ``tests/test_fetch_priority.py``: hypothesis generates the
event sequences, the production transition functions execute them, and
an independent implementation is the oracle.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import StubTrace, needs_cext
from repro.config import SMTConfig
from repro.isa import NUM_ARCH_REGS, Instr, Op
from repro.pipeline.core import SMTCore
from repro.policies import make_policy


class DictRenameMap:
    """The original dict-based rename map, as an indexable stand-in.

    Implements exactly the pre-optimization semantics: a missing
    register reads as ``None`` (the dict used ``.get``), any register
    may be written, and flush undo may store ``None`` back.  The engine
    only uses ``[reg]`` reads and writes, so this drops into
    ``ThreadState.rename_map`` unchanged.
    """

    def __init__(self):
        self._d = {}

    def __getitem__(self, reg):
        return self._d.get(reg)

    def __setitem__(self, reg, value):
        self._d[reg] = value

    def __iter__(self):
        # Iteration support mirrors the array's: dense register order.
        return (self._d.get(reg) for reg in range(NUM_ARCH_REGS))


def _random_program(draw, length: int) -> list[Instr]:
    """A random register-pressure-heavy loop body."""
    kinds = st.sampled_from(("alu", "fp", "load", "store", "branch"))
    instrs: list[Instr] = []
    int_reg = st.integers(min_value=1, max_value=31)
    fp_reg = st.integers(min_value=32, max_value=63)
    for pc in range(length):
        kind = draw(kinds)
        srcs = tuple(draw(int_reg) for _ in range(draw(
            st.integers(min_value=0, max_value=2))))
        if kind == "alu":
            instrs.append(Instr(pc, Op.IALU, draw(int_reg), srcs))
        elif kind == "fp":
            instrs.append(Instr(pc, Op.FALU, draw(fp_reg),
                                (draw(fp_reg),)))
        elif kind == "load":
            instrs.append(Instr(pc, Op.LOAD, draw(int_reg), srcs,
                                addr=draw(st.integers(0, 1 << 14)) * 8))
        elif kind == "store":
            instrs.append(Instr(pc, Op.STORE, None, srcs or (1,),
                                addr=draw(st.integers(0, 1 << 14)) * 8))
        else:
            instrs.append(Instr(pc, Op.BRANCH, None, srcs,
                                taken=draw(st.booleans())))
    return instrs


def _build_core(programs, dict_oracle: bool) -> SMTCore:
    cfg = SMTConfig(num_threads=len(programs))
    traces = [StubTrace(body, base=(tid + 1) << 33)
              for tid, body in enumerate(programs)]
    core = SMTCore(cfg, traces, make_policy("icount"))
    if dict_oracle:
        for ts in core.threads:
            ts.rename_map = DictRenameMap()
    return core


def _rename_shape(core: SMTCore):
    """Structural (identity-free) view of every thread's rename state."""
    shape = []
    for ts in core.threads:
        regs = []
        for reg, prod in enumerate(ts.rename_map):
            if prod is None:
                regs.append(None)
            else:
                regs.append((reg, prod.seq, prod.gseq, prod.retired,
                             prod.completed, prod.squashed, prod.refs))
        shape.append(regs)
    return shape


def _stats_shape(core: SMTCore):
    return [(t.fetched, t.committed, t.squashed, t.flushes,
             t.loads_executed)
            for t in (ts.stats for ts in core.threads)]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_array_rename_matches_dict_oracle(data):
    """Random dispatch/flush/commit mixes: array == dict, exactly."""
    draw = data.draw
    # The shared ROB (256) must divide evenly across threads.
    num_threads = draw(st.sampled_from((1, 2, 4)))
    programs = [_random_program(draw, draw(st.integers(6, 14)))
                for _ in range(num_threads)]
    real = _build_core(programs, dict_oracle=False)
    oracle = _build_core(programs, dict_oracle=True)

    # A schedule of (run-this-many-cycles, flush-event) segments; the
    # flushes hit both cores identically, injecting the squash/undo path
    # at arbitrary points of the dispatch/commit interleaving.
    segments = draw(st.lists(
        st.tuples(st.integers(min_value=5, max_value=120),
                  st.booleans(),
                  st.integers(min_value=0, max_value=num_threads - 1),
                  st.integers(min_value=0, max_value=40)),
        min_size=2, max_size=8))
    for cycles, do_flush, tid, rewind in segments:
        for _ in range(cycles):
            real.step()
            oracle.step()
        if do_flush:
            ts_r = real.threads[tid]
            ts_o = oracle.threads[tid]
            assert ts_r.fetch_index == ts_o.fetch_index
            after_seq = max(ts_r.fetch_index - 1 - rewind, 0)
            real.flush_thread(ts_r, after_seq)
            oracle.flush_thread(ts_o, after_seq)
        assert real.cycle == oracle.cycle
        assert _rename_shape(real) == _rename_shape(oracle)
        assert _stats_shape(real) == _stats_shape(oracle)

    assert _rename_shape(real) == _rename_shape(oracle)
    assert _stats_shape(real) == _stats_shape(oracle)


def _soa_rename_shape(core):
    """The SoA columns' rename state, in the object engine's shape.

    The arena's map holds slot numbers; project each mapped slot's columns
    onto the same (reg, seq, gseq, retired, completed, squashed) tuple
    ``_rename_shape`` builds from record attributes.  Reference counts
    are *not* compared: the arena counts rename-current occupancy as a
    reference (slot lifetime), the object engine does not (GC does).
    """
    from repro.pipeline.dyninstr import (
        F_COMPLETED,
        F_RETIRED,
        F_SQUASHED,
    )

    shape = []
    for ts in core.threads:
        regs = []
        for reg, slot in enumerate(ts.rename_map):
            if slot < 0:
                regs.append(None)
            else:
                fl = core._col_flags[slot]
                regs.append((reg, core._col_seq[slot],
                             core._col_gseq[slot],
                             bool(fl & F_RETIRED),
                             bool(fl & F_COMPLETED),
                             bool(fl & F_SQUASHED)))
        shape.append(regs)
    return shape


@needs_cext
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_soa_rename_columns_match_object_records(data):
    """Object engine as the oracle for the ``cext`` rename columns.

    The same random programs and flush injections drive an
    :class:`SMTCore` and a :class:`CextCore` through the same commit
    checkpoints (``begin_measurement``/``advance_to``); at every
    checkpoint both must stand at the same cycle, the arena's
    slot-number map must project onto exactly the object engine's
    record map (minus identity and refcounts), and the architectural
    stats must agree.
    """
    from repro.pipeline.cext import CextCore

    draw = data.draw
    num_threads = draw(st.sampled_from((1, 2, 4)))
    programs = [_random_program(draw, draw(st.integers(6, 14)))
                for _ in range(num_threads)]
    obj = _build_core(programs, dict_oracle=False)
    cfg = SMTConfig(num_threads=num_threads)
    traces = [StubTrace(body, base=(tid + 1) << 33)
              for tid, body in enumerate(programs)]
    cext = CextCore(cfg, traces, make_policy("icount"))

    def _obj_shape_no_refs():
        return [[None if entry is None else entry[:6]
                 for entry in regs]
                for regs in _rename_shape(obj)]

    segments = draw(st.lists(
        st.tuples(st.integers(min_value=1, max_value=40),
                  st.booleans(),
                  st.integers(min_value=0, max_value=num_threads - 1),
                  st.integers(min_value=0, max_value=40)),
        min_size=2, max_size=8))
    obj.begin_measurement(0)
    cext.begin_measurement(0)
    target = 0
    for commits, do_flush, tid, rewind in segments:
        target += commits
        obj.advance_to(target)
        cext.advance_to(target)
        if do_flush:
            ts_o = obj.threads[tid]
            ts_s = cext.threads[tid]
            assert ts_o.fetch_index == ts_s.fetch_index
            after_seq = max(ts_o.fetch_index - 1 - rewind, 0)
            obj.flush_thread(ts_o, after_seq)
            cext.flush_thread(ts_s, after_seq)
        assert obj.cycle == cext.cycle
        assert _obj_shape_no_refs() == _soa_rename_shape(cext)
        assert _stats_shape(obj) == _stats_shape(cext)

    assert _obj_shape_no_refs() == _soa_rename_shape(cext)
    assert _stats_shape(obj) == _stats_shape(cext)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rename_entries_are_youngest_unsquashed_writers(data):
    """The array holds, per register, the youngest surviving writer.

    Independent invariant (no second engine): after any random run and
    flush mix, each non-``None`` rename entry must be the writer with
    the largest ``seq`` among this thread's dispatched, un-squashed
    instructions targeting that register — and must never be squashed
    (flush undo restores the older mapping).
    """
    draw = data.draw
    num_threads = draw(st.integers(min_value=1, max_value=2))
    programs = [_random_program(draw, draw(st.integers(6, 12)))
                for _ in range(num_threads)]
    core = _build_core(programs, dict_oracle=False)
    for cycles, do_flush, rewind in draw(st.lists(
            st.tuples(st.integers(5, 150), st.booleans(),
                      st.integers(0, 30)),
            min_size=1, max_size=6)):
        for _ in range(cycles):
            core.step()
        if do_flush:
            ts = core.threads[draw(st.integers(0, num_threads - 1))]
            core.flush_thread(ts, max(ts.fetch_index - 1 - rewind, 0))
    for ts in core.threads:
        in_window = {}
        for di in ts.window:
            if di.has_dest and not di.squashed:
                dest = di.instr.dest
                if dest not in in_window or di.seq > in_window[dest].seq:
                    in_window[dest] = di
        for reg, prod in enumerate(ts.rename_map):
            if prod is None:
                continue
            assert not prod.squashed, (
                f"r{reg} maps to a squashed producer")
            newest = in_window.get(reg)
            if newest is not None:
                assert prod is newest, (
                    f"r{reg}: map entry seq={prod.seq} but window holds "
                    f"younger writer seq={newest.seq}")
