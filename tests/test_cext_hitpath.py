"""The compiled hit paths of the memory hierarchy and the predictors.

``_cext_engine`` runs the common branch of ``MemoryHierarchy.load``,
``store`` and ``ifetch`` (a TLB hit plus an L1 hit with no fill in
flight), of ``MissPatternPredictor.predict``/``train``, ``GShare.update``
and ``BTB.lookup``/``insert`` on the Python objects themselves, and
calls the Python method for everything else.  These tests drive those
routines through their module-level entry points (the ones ``run_until``
uses) against a twin driven by the pure-Python methods, and compare the
returned timing and the full state, dict key order and every counter,
after every access.

Subclass instances must always fall back.  Each subclass below calls the
stock method and then leaves a mark in a counter, so a C path that
skipped the override would show up as a state difference.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from conftest import btb_state, gshare_state, hierarchy_state, lll_state, needs_cext
from repro.branch import BTB, GShare
from repro.config import scaled_config, scaled_memory
from repro.experiments import runner
from repro.experiments.profile import clear_profile_cache, profile_benchmark
from repro.memory import (
    TLB,
    Cache,
    MemoryHierarchy,
    ServiceLevel,
    StreamBufferPrefetcher,
    StridePredictor,
)
from repro.memory.hierarchy import AccessResult
from repro.pipeline import cext
from repro.pipeline.cext import CextCore
from repro.policies import make_policy
from repro.predictors import MissPatternPredictor

pytestmark = needs_cext


def engine():
    return cext._require_engine()


# ---------------------------------------------------------------------- #
# marked subclasses (same slots, so ``obj.__class__ = Sub`` swaps them in)
# ---------------------------------------------------------------------- #

class _Hierarchy(MemoryHierarchy):
    __slots__ = ()

    def load(self, thread, pc, addr, cycle):
        self.prefetch_covered += 1000
        return super().load(thread, pc, addr, cycle)

    def store(self, thread, pc, addr, cycle):
        self.prefetch_covered += 1000
        return super().store(thread, pc, addr, cycle)

    def ifetch(self, thread, addr, cycle):
        self.prefetch_covered += 1000
        return super().ifetch(thread, addr, cycle)


class _Cache(Cache):
    __slots__ = ()

    def lookup(self, addr):
        self.misses += 1000
        return super().lookup(addr)


class _TLB(TLB):
    __slots__ = ()

    def lookup(self, addr):
        self.misses += 1000
        return super().lookup(addr)


class _Prefetcher(StreamBufferPrefetcher):
    __slots__ = ()

    def observe_load(self, pc, addr):
        self.lookups += 1000
        super().observe_load(pc, addr)


class _Stride(StridePredictor):
    __slots__ = ()

    def observe(self, pc, addr):
        super().observe(pc, addr)
        super().observe(pc, addr)     # a double update marks the table


class _MissPattern(MissPatternPredictor):
    __slots__ = ()

    def predict(self, pc):
        self.lookups += 1000
        return super().predict(pc)

    def train(self, pc, long_latency):
        self.predicted_ll += 1000
        super().train(pc, long_latency)


class _GShare(GShare):
    __slots__ = ()

    def update(self, pc, taken, thread=0):
        self.predictions += 1000
        return super().update(pc, taken, thread)


class _BTB(BTB):
    __slots__ = ()

    def lookup(self, pc):
        self.misses += 1000
        return super().lookup(pc)

    def insert(self, pc):
        self.hits += 1000
        super().insert(pc)


#: name -> (function that picks the object out of a hierarchy, subclass)
_HIER_SUBCLASSES = {
    "hierarchy": (lambda h: h, _Hierarchy),
    "l1i": (lambda h: h.l1i, _Cache),
    "l1d": (lambda h: h.l1d, _Cache),
    "itlb": (lambda h: h.itlb, _TLB),
    "dtlb": (lambda h: h.dtlb, _TLB),
    "prefetcher": (lambda h: h.prefetcher, _Prefetcher),
    "stride_predictor": (lambda h: h.prefetcher.stride_predictor, _Stride),
}


# ---------------------------------------------------------------------- #
# the hierarchy
# ---------------------------------------------------------------------- #

#: A small machine: 32-set L1s, 16/32-entry TLBs, so a short stream
#: mixes hits, misses, evictions and TLB misses.
_MEM = scaled_memory(16)
_PAGE = _MEM.dtlb.page_size
_LINE = _MEM.line_size


def _make(prefetch: bool, serialize: bool) -> MemoryHierarchy:
    mem = replace(_MEM, serialize_long_latency=serialize,
                  prefetcher=replace(_MEM.prefetcher, enabled=prefetch))
    return MemoryHierarchy(mem)


def _addr(page: int, line: int) -> int:
    # Spread pages over the sets; line 33 still aliases line 1.
    return page * _PAGE + (line + 3 * page) * _LINE + 8


_HOT_PAGES = range(5)
_LINES = (0, 1, 2, 33)


def _warm(h: MemoryHierarchy) -> int:
    """Bring the hot lines in through Python; returns the next cycle."""
    cycle = 0
    for page in _HOT_PAGES:
        for line in _LINES:
            cycle += 1000
            h.load(0, 0, _addr(page, line), cycle)
            h.ifetch(0, _addr(page, line), cycle)
    return cycle + 1000


def _same_result(kind: str, got, want) -> None:
    """``got`` (C entry point) and ``want`` (Python) report one timing."""
    if kind == "ifetch":
        assert got == want
    elif isinstance(got, int):            # the C hit path ran
        assert isinstance(want, AccessResult)
        assert (want.complete_cycle, want.level, want.long_latency,
                want.trigger, want.fill_line, want.tlb_miss) \
            == (got, ServiceLevel.L1, False, False, None, False)
    else:
        assert isinstance(got, AccessResult)
        assert {n: getattr(got, n) for n in AccessResult.__slots__} \
            == {n: getattr(want, n) for n in AccessResult.__slots__}


_access = st.tuples(
    st.sampled_from(("load",) * 5 + ("store", "store", "ifetch", "ifetch",
                                      "cancel")),
    st.integers(0, 1),                        # thread
    st.integers(0, 23),                       # load pc
    # page: one of 5 hot pages 80% of the time, else one of 41 more
    # (past the 32-entry dTLB's reach)
    st.integers(0, 200).map(lambda p: p - 155 if p >= 160 else p % 5),
    st.sampled_from(_LINES),                  # line in page
    st.sampled_from((0, 0, 1, 3, 40, 400, 2000)),   # cycle step
)


@settings(max_examples=60, deadline=None)
@given(prefetch=st.booleans(), serialize=st.booleans(),
       subclass=st.one_of(st.none(), st.sampled_from(tuple(_HIER_SUBCLASSES))),
       stream=st.lists(_access, min_size=20, max_size=150))
def test_hierarchy_matches_python(prefetch, serialize, subclass, stream):
    c_side, py_side = _make(prefetch, serialize), _make(prefetch, serialize)
    swapped = subclass is not None and (prefetch or subclass not in (
        "prefetcher", "stride_predictor"))
    if swapped:
        pick, cls = _HIER_SUBCLASSES[subclass]
        pick(c_side).__class__ = cls
        pick(py_side).__class__ = cls
    access = engine().hier_access
    cycle = _warm(c_side)
    assert _warm(py_side) == cycle
    for kind, tid, pc, page, line, step in stream:
        cycle += step
        addr = _addr(page, line)
        if kind == "cancel":
            ln = addr // _LINE
            assert c_side.cancel_fill(ln, addr, cycle) \
                == py_side.cancel_fill(ln, addr, cycle)
            continue
        got = access(c_side, kind, tid, pc, addr, cycle)
        if kind == "ifetch":
            want = py_side.ifetch(tid, addr, cycle)
        else:
            want = getattr(py_side, kind)(tid, pc, addr, cycle)
        if swapped and kind != "ifetch":
            assert isinstance(got, AccessResult), "a subclass must fall back"
        _same_result(kind, got, want)
        assert hierarchy_state(c_side) == hierarchy_state(py_side)


class TestHierarchyBranches:
    """Directed cases: which branch runs where."""

    def test_repeat_load_and_store_hit_in_c(self):
        h = _make(prefetch=True, serialize=False)
        access = engine().hier_access
        miss = access(h, "load", 0, 5, 4096, 10)
        assert isinstance(miss, AccessResult)            # cold: Python
        assert access(h, "load", 0, 5, 4096, 1000) \
            == 1000 + _MEM.l1_latency                    # hit: C
        assert access(h, "store", 0, 6, 4100, 1001) \
            == 1001 + _MEM.l1_latency
        assert h.demand_loads == 2

    def test_merge_falls_back_and_stale_fill_is_dropped(self):
        h = _make(prefetch=False, serialize=False)
        access = engine().hier_access
        first = access(h, "load", 0, 5, 8192, 0)
        line = first.fill_line
        assert h._pending[line][0] == first.complete_cycle
        merged = access(h, "load", 0, 5, 8192, 10)       # fill in flight
        assert merged.level is ServiceLevel.MERGE
        late = first.complete_cycle + 5
        assert access(h, "load", 0, 5, 8192, late) \
            == late + _MEM.l1_latency                    # C drops it
        assert line not in h._pending

    def test_serialized_hit_stays_in_c(self):
        h = _make(prefetch=False, serialize=True)
        access = engine().hier_access
        access(h, "load", 0, 5, 8192, 0)
        assert access(h, "load", 0, 5, 8192, 5000) == 5000 + _MEM.l1_latency

    def test_ifetch_in_flight_falls_back(self):
        h = _make(prefetch=False, serialize=False)
        access = engine().hier_access
        done = access(h, "ifetch", 0, 0, 1 << 20, 0)
        assert done == _MEM.tlb_miss_penalty + _MEM.mem_latency
        assert access(h, "ifetch", 0, 0, 1 << 20, 1) == done
        assert access(h, "ifetch", 0, 0, 1 << 20, done + 1) == done + 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            engine().hier_access(_make(False, False), "prefetch", 0, 0, 0, 0)


# ---------------------------------------------------------------------- #
# the predictors
# ---------------------------------------------------------------------- #

_pred_ops = st.lists(st.tuples(
    st.integers(0, 4),               # operation selector
    st.integers(0, 70),              # pc
    st.booleans(),                   # long latency / taken
    st.integers(0, 1),               # thread
), min_size=20, max_size=200)


@settings(max_examples=60, deadline=None)
@given(subclass=st.booleans(), ops=_pred_ops)
def test_predictors_match_python(subclass, ops):
    eng = engine()
    # Small tables: saturating counters, aliasing and BTB evictions.
    mp_c, mp_py = MissPatternPredictor(16, 3), MissPatternPredictor(16, 3)
    gs_c, gs_py = GShare(16, 2), GShare(16, 2)
    btb_c, btb_py = BTB(8, 2), BTB(8, 2)
    if subclass:
        for obj, cls in ((mp_c, _MissPattern), (mp_py, _MissPattern),
                         (gs_c, _GShare), (gs_py, _GShare),
                         (btb_c, _BTB), (btb_py, _BTB)):
            obj.__class__ = cls
    for op, pc, flag, tid in ops:
        if op == 0:
            got, want = eng.lll_predict(mp_c, pc), mp_py.predict(pc)
        elif op == 1:
            got, want = eng.lll_train(mp_c, pc, flag), mp_py.train(pc, flag)
        elif op == 2:
            got = eng.gshare_update(gs_c, pc, flag, tid)
            want = gs_py.update(pc, flag, tid)
        elif op == 3:
            got, want = eng.btb_lookup(btb_c, pc), btb_py.lookup(pc)
        else:
            got, want = eng.btb_insert(btb_c, pc), btb_py.insert(pc)
        assert got == want and type(got) is type(want)
        assert lll_state(mp_c) == lll_state(mp_py)
        assert gshare_state(gs_c) == gshare_state(gs_py)
        assert btb_state(btb_c) == btb_state(btb_py)


# ---------------------------------------------------------------------- #
# in the engine: callout counters
# ---------------------------------------------------------------------- #

def _accesses(core) -> int:
    """Hierarchy accesses: each load/store looks up the dTLB once, each
    ifetch the iTLB."""
    h = core.hierarchy
    return h.dtlb.hits + h.dtlb.misses + h.itlb.hits + h.itlb.misses


def _hier_callouts(core) -> int:
    c = core.counters
    return c["hier_load"] + c["hier_store"] + c["hier_ifetch"]


def test_counters_are_a_readonly_mapping():
    cfg = scaled_config(num_threads=1, scale=16)
    trace = runner.trace_for("gcc", cfg)
    core = CextCore(cfg, [trace], make_policy("icount"))
    assert set(core.counters) == set(cext.CALLOUT_KINDS)
    assert not any(core.counters.values())
    core.run(1500, warmup=300)
    first = dict(core.counters)
    with pytest.raises(TypeError):
        core.counters["hier_load"] = 0
    again = CextCore(cfg, [trace], make_policy("icount"))
    again.run(1500, warmup=300)
    assert dict(again.counters) == first          # deterministic


def test_profile_run_hits_in_c(monkeypatch):
    """A stock single-thread profile makes fewer hierarchy callouts than
    2% of its memory accesses."""
    cores = []
    release = CextCore.release

    def keep(core):
        cores.append(core)
        release(core)

    monkeypatch.setattr(CextCore, "release", keep)
    monkeypatch.setattr(runner, "default_backend", lambda: "cext")
    clear_profile_cache()
    profile_benchmark("gcc", max_commits=4000)
    clear_profile_cache()
    (core,) = cores
    assert _accesses(core) > 10_000
    assert _hier_callouts(core) < 0.02 * _accesses(core), dict(core.counters)


def test_subclassed_hierarchy_falls_back_in_the_engine():
    """A hierarchy subclass keeps every access in Python, and the run is
    still bit-identical to the object engine."""
    cfg = scaled_config(num_threads=1, scale=16)
    trace = runner.trace_for("gcc", cfg)

    class Plain(MemoryHierarchy):
        __slots__ = ()

    def run(core_cls, hierarchy):
        core = core_cls(cfg, [trace], make_policy("icount"), hierarchy)
        return core, core.run(1500, warmup=300)

    sub, sub_stats = run(CextCore, Plain(cfg.memory))
    assert _hier_callouts(sub) == _accesses(sub)
    stock, stock_stats = run(CextCore, None)
    assert _hier_callouts(stock) < _accesses(stock)
    obj, obj_stats = run(runner.SMTCore, None)
    assert sub_stats == stock_stats == obj_stats
    assert hierarchy_state(sub.hierarchy) == hierarchy_state(obj.hierarchy)
