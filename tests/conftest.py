"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.config import scaled_config
from repro.isa import Instr, Op
from repro.pipeline.cext import load_cext_core
from repro.testing import isolated_result_store

#: Marks tests of the compiled ``cext`` backend, which exists only where
#: the lazy toolchain probe and build succeed.
needs_cext = pytest.mark.skipif(load_cext_core() is None,
                                reason="cext backend not buildable here")


def pytest_addoption(parser):
    parser.addoption(
        "--differential-cases", type=int, default=2, metavar="N",
        help="hypothesis cases per policy in the object-vs-cext "
             "differential slice (tests/test_differential.py); default 2, "
             "the nightly leg runs 60")


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_store(tmp_path_factory):
    """Pin the repro.jobs engine environment for the whole session.

    Keeps the suite hermetic in both directions: tests never touch the
    user's ``~/.cache/repro``, and ambient ``REPRO_CACHE=0`` /
    ``REPRO_JOBS`` settings can't flip the behaviors the tests assert.
    Shares its save/apply/restore logic with benchmarks/test_claims.py via
    :mod:`repro.testing`.
    """
    with isolated_result_store(str(tmp_path_factory.mktemp("repro-cache"))):
        yield


class StubTrace:
    """A minimal trace for directed pipeline tests.

    Wraps a finite list of instructions and repeats it cyclically (the
    pipeline never expects a trace to end).  PC addresses place the code in
    a small dedicated region so the I-cache behaves as for real traces.
    """

    def __init__(self, instrs, base: int = 0):
        if not instrs:
            raise ValueError("need at least one instruction")
        self.instrs = list(instrs)
        self.base = base
        self.body_len = len(self.instrs)

    def get(self, index: int) -> Instr:
        return self.instrs[index % self.body_len]

    def pc_address(self, pc: int) -> int:
        return self.base + pc * 4


def alu(pc: int, dest: int = 4, srcs=(2,)) -> Instr:
    return Instr(pc, Op.IALU, dest, tuple(srcs))


def load(pc: int, addr: int, dest: int = 5, srcs=(1,)) -> Instr:
    return Instr(pc, Op.LOAD, dest, tuple(srcs), addr=addr)


def store(pc: int, addr: int, srcs=(3, 1)) -> Instr:
    return Instr(pc, Op.STORE, None, tuple(srcs), addr=addr)


def branch(pc: int, taken: bool, srcs=(4,)) -> Instr:
    return Instr(pc, Op.BRANCH, None, tuple(srcs), taken=taken)


# ---------------------------------------------------------------------- #
# full hierarchy / predictor state, for engine and hit-path differentials
# ---------------------------------------------------------------------- #

def _slots(obj) -> tuple:
    """Every slot value of a slotted table entry."""
    return tuple(getattr(obj, name) for name in type(obj).__slots__)


def table_state(table: dict) -> list:
    """A predictor table: key order, and each entry's slot values."""
    return [(k, _slots(e) if hasattr(type(e), "__slots__") else e)
            for k, e in table.items()]


def cache_state(cache) -> tuple:
    return [list(s) for s in cache._sets], cache.hits, cache.misses


def tlb_state(tlb) -> tuple:
    return list(tlb._entries), tlb.hits, tlb.misses


def prefetcher_state(pf) -> tuple | None:
    if pf is None:
        return None
    buffers = [(list(b.entries.items()), b.next_addr, b.stride, b.last_used,
                b.valid, b.hits_since_alloc, b.alloc_cycle)
               for b in pf._buffers]
    return (table_state(pf.stride_predictor._table), buffers, pf.hits,
            pf.lookups, pf.allocations, pf.prefetches_issued)


def lll_state(pred) -> tuple:
    """A long-latency load predictor: its table and every counter."""
    return tuple(table_state(v) if isinstance(v, dict) else v
                 for v in _slots(pred))


def hierarchy_state(h) -> tuple:
    """Everything a memory hierarchy holds, LRU key order included."""
    return (
        [cache_state(c) for c in (h.l1i, h.l1d, h.l2, h.l3)],
        [tlb_state(t) for t in (h.itlb, h.dtlb)],
        list(h._pending.items()), list(h._fill_ends), h._last_ll_end,
        prefetcher_state(h.prefetcher), list(h.ll_intervals),
        list(h.ll_loads_per_thread.items()), h.demand_loads,
        h.merged_loads, h.prefetch_covered)


def gshare_state(gs) -> tuple:
    return list(gs._table), list(gs._history), gs.predictions, \
        gs.mispredictions


def btb_state(btb) -> tuple:
    return [list(s) for s in btb._sets], btb.hits, btb.misses


def engine_state(core) -> tuple:
    """The (hierarchy, predictors) state a run leaves behind."""
    predictors = (gshare_state(core.gshare), btb_state(core.btb),
                  [lll_state(ts.lll_pred) for ts in core.threads])
    return hierarchy_state(core.hierarchy), predictors



@pytest.fixture
def quick_config():
    """A small, fast config for directed pipeline tests."""
    return scaled_config(num_threads=1, scale=16)


@pytest.fixture
def smt2_config():
    return scaled_config(num_threads=2, scale=16)
