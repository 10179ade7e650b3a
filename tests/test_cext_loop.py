"""What the compiled loop does without calling back into Python.

The ``cext`` engine generates a :class:`~repro.workloads.trace.
SyntheticTrace`'s instructions from the trace's per-slot rows, runs the
fast-forward probe and raises :class:`~repro.pipeline.core.
SimulationDeadlock` itself.  These tests pin each against the Python
definitions: the instructions the C built equal ``trace.get``'s field
for field, a row whose arithmetic overflows 64 bits falls back to
``trace.get``, a ``SyntheticTrace`` is never asked for an instruction,
and a wedged pipeline fails the same way on both engines.
"""

from __future__ import annotations

import pytest

from conftest import needs_cext
from repro import registry
from repro.config import scaled_config
from repro.experiments.runner import build_core, trace_for
from repro.isa import Instr
from repro.pipeline import SMTCore
from repro.pipeline.cext import CextCore
from repro.pipeline.core import SimulationDeadlock
from repro.pipeline.dyninstr import F_FREED
from repro.policies import FetchPolicy, make_policy
from repro.workloads.spec import BenchmarkSpec
from repro.workloads.trace import SyntheticTrace

pytestmark = needs_cext

BENCHMARKS = registry.benchmarks.names()
CFG8 = scaled_config(num_threads=8, scale=16)


def _live_instrs(core: CextCore):
    """``(thread, seq, instr)`` of every occupied arena slot."""
    for s in range(core._capacity):
        if not core._col_flags[s] & F_FREED:
            yield (core._col_thread[s], core._col_seq[s],
                   core._col_instr[s])


def _same_instr(a: Instr, b: Instr) -> bool:
    return all(type(getattr(a, f)) is type(getattr(b, f))
               and getattr(a, f) == getattr(b, f) for f in Instr.__slots__)


@pytest.mark.parametrize("seed", range(5))
def test_generated_instructions_match_trace_get(seed):
    # Every program in every thread slot: slot k of run j holds program
    # (j + k) mod N, so each one is placed at thread bases 0-7.
    checked = 0
    for j in range(len(BENCHMARKS)):
        names = [BENCHMARKS[(j + k) % len(BENCHMARKS)] for k in range(8)]
        core = build_core(names, CFG8, "mlp_flush", seed=seed,
                          backend="cext")
        core.run(120, warmup=0)
        for tid, seq, instr in _live_instrs(core):
            expected = core.threads[tid].trace.get(seq)
            assert _same_instr(instr, expected), (names[tid], seq)
            checked += 1
    assert checked > 1000


def _stream_trace_core(core_cls, stride: int, policy: str = "icount"):
    cfg = scaled_config(num_threads=2, scale=16)
    spec = BenchmarkSpec("huge_stride", streams=2, stream_stride=stride,
                         stream_stores=1, hot_loads=2, int_ops=4)
    traces = [SyntheticTrace(spec, cfg.memory, seed=7, base=1 << 40,
                             pc_base=1 << 20),
              trace_for("mcf", cfg, slot=1)]
    pol = make_policy(policy)
    return core_cls(cfg, traces, pol)


@pytest.mark.parametrize("stride", [1 << 62, (1 << 64) + 8])
def test_row_overflow_falls_back_to_trace_get(stride, monkeypatch):
    # 2**62 fits a row field but its product with the iteration does
    # not; 2**64 + 8 does not fit at all.  Either way the C must ask
    # trace.get, and both engines must still agree.
    calls = []
    get = SyntheticTrace.get

    def spy(self, index):
        calls.append(index)
        return get(self, index)

    monkeypatch.setattr(SyntheticTrace, "get", spy)
    cext = _stream_trace_core(CextCore, stride).run(400, warmup=100)
    assert calls
    obj = _stream_trace_core(SMTCore, stride).run(400, warmup=100)
    assert cext == obj


def test_cext_never_calls_synthetic_trace_get(monkeypatch):
    calls = []
    get = SyntheticTrace.get

    def spy(self, index):
        calls.append(index)
        return get(self, index)

    monkeypatch.setattr(SyntheticTrace, "get", spy)
    for j in range(0, len(BENCHMARKS), 8):
        names = [BENCHMARKS[(j + k) % len(BENCHMARKS)] for k in range(8)]
        core = build_core(names, CFG8, "mlp_stall", backend="cext")
        core.run(300, warmup=50)
        assert sum(ts.stats.fetched for ts in core.threads) > 0
    assert calls == []


class _WedgedPolicy(FetchPolicy):
    """Never lets a thread fetch, so no event is ever scheduled."""

    __slots__ = ()

    name = "test_wedged"

    def fetch_order(self, cycle):
        return []

    def fetch_pending(self, cycle):
        return False


@pytest.fixture
def wedged_policy():
    registry.register("policies", _WedgedPolicy.name, _WedgedPolicy)
    try:
        yield _WedgedPolicy.name
    finally:
        registry.policies.unregister(_WedgedPolicy.name)


def test_both_engines_detect_a_wedged_pipeline(wedged_policy):
    cfg = scaled_config(num_threads=2, scale=16)
    messages = {}
    for backend in ("object", "cext"):
        core = build_core(("mcf", "twolf"), cfg, wedged_policy,
                          backend=backend)
        with pytest.raises(SimulationDeadlock) as exc:
            core.run(100, warmup=0)
        messages[backend] = str(exc.value)
    assert messages["cext"] == messages["object"]
    assert "pipeline is wedged" in messages["cext"]


def test_object_engine_fast_forward_is_not_inherited():
    core = build_core(("mcf", "twolf"), scaled_config(num_threads=2,
                                                      scale=16),
                      backend="cext")
    with pytest.raises(NotImplementedError):
        core._next_cycle(0)
    with pytest.raises(NotImplementedError):
        core._head_retirable(core.threads[0], False)
