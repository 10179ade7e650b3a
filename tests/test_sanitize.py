"""The REPRO_SANITIZE runtime sanitizer: wiring, exactness, detection.

Pins the three contracts of :mod:`repro.pipeline.sanitize`: the env
knob swaps the checked subclass of whichever engine ``core_for``
resolved (and only then — off means the module is not even imported);
a sanitized
run is bit-exact with a stock one on both backends, and a sanitized
``cext`` run executes the compiled loop; and the checks actually fire —
planted double-frees, a record mutated while pooled, a slot mutated
while on the arena free list and a leaked slot all raise
:class:`~repro.pipeline.sanitize.SanitizerError`.
"""

from __future__ import annotations

import pytest

from conftest import needs_cext
from repro import registry
from repro.config import scaled_config
from repro.experiments.runner import core_for, default_backend, trace_for
from repro.pipeline import cext as cext_mod
from repro.pipeline.cext import CextCore
from repro.pipeline.core import SMTCore
from repro.pipeline.dyninstr import F_FREED
from repro.pipeline.sanitize import (
    CheckedCextCore,
    CheckedPool,
    CheckedSMTCore,
    SanitizerError,
    checked_variant,
    sanitize_enabled,
)
from repro.policies import make_policy
from repro.runahead import RunaheadCore

CFG2 = scaled_config(num_threads=2, scale=16)


def _build(core_cls, policy="mlp_flush", cfg=CFG2):
    pol = make_policy(policy)
    traces = [trace_for(name, cfg, slot=i)
              for i, name in enumerate(("mcf", "swim"))]
    return core_cls(cfg, traces, pol)


def _run(core_cls, commits=1_500):
    core = _build(core_cls)
    stats = core.run(commits, warmup=300)
    return core, stats


def _default_core() -> type:
    return registry.backends.get(default_backend())


class TestWiring:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled()
        assert core_for(make_policy("icount")) is _default_core()
        assert core_for(make_policy("icount"), "object") is SMTCore

    def test_env_selects_checked_cores(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()
        assert core_for(make_policy("icount")) \
            is checked_variant(_default_core())
        assert core_for(make_policy("icount"), "object") is CheckedSMTCore
        assert checked_variant(CextCore) is CheckedCextCore

    def test_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled()
        assert core_for(make_policy("icount")) is _default_core()
        assert core_for(make_policy("icount"), "object") is SMTCore

    def test_specialized_cores_bypass(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert core_for(make_policy("runahead")) is RunaheadCore
        assert checked_variant(RunaheadCore) is RunaheadCore


class TestBitExactness:
    def test_object_engine(self):
        _, stock = _run(SMTCore)
        _, checked = _run(CheckedSMTCore)
        assert checked == stock

    @needs_cext
    def test_cext_engine(self):
        _, stock = _run(CextCore)
        _, checked = _run(CheckedCextCore)
        assert checked == stock

    @needs_cext
    def test_sanitized_cext_runs_the_compiled_loop(self, monkeypatch):
        # Every chunk goes through the extension's run_until, one commit
        # watermark step at a time; no Python cycle body exists to fall
        # back to (CextCore.step raises).
        engine = cext_mod._engine()
        targets = []

        class Spy:
            def run_until(self, core, max_commits, limit):
                targets.append(max_commits)
                engine.run_until(core, max_commits, limit)

        monkeypatch.setattr(cext_mod, "_state", (Spy(), "spy"))
        core, _ = _run(CheckedCextCore, commits=400)
        assert len(targets) > 100
        assert targets[-1] <= core._committed_watermark
        with pytest.raises(NotImplementedError):
            core.step()


class TestObjectEngineDetection:
    def test_double_free_caught(self):
        core, _ = _run(CheckedSMTCore)
        pool = core._di_pool
        assert isinstance(pool, CheckedPool) and pool
        di = pool.pop()
        pool.append(di)
        with pytest.raises(SanitizerError, match="double free"):
            pool.append(di)

    def test_unretired_free_caught(self):
        core, _ = _run(CheckedSMTCore)
        pool = core._di_pool
        di = pool.pop()
        di.retired = False
        with pytest.raises(SanitizerError, match="not retired"):
            pool.append(di)
        di.retired = True   # leave the pool record consistent

    def test_mutated_while_pooled_caught(self):
        core, _ = _run(CheckedSMTCore)
        pool = core._di_pool
        pool[-1].refs = 1
        with pytest.raises(SanitizerError, match="mutated while pooled"):
            pool.pop()

    def test_use_after_free_scan(self):
        core, _ = _run(CheckedSMTCore)
        pool = core._di_pool
        core.threads[0].window.append(pool[-1])
        with pytest.raises(SanitizerError, match="use after free"):
            core.sanitize_check()
        core.threads[0].window.pop()
        core.sanitize_check()   # restored state passes again


@needs_cext
class TestCextEngineDetection:
    def test_double_free_caught(self):
        core, _ = _run(CheckedCextCore, commits=400)
        free = core._free
        assert free
        free.append(free[-1])
        with pytest.raises(SanitizerError, match="double free"):
            core.sanitize_check()
        free.pop()
        core.sanitize_check()   # restored state passes again

    def test_dirty_slot_free_caught(self):
        core, _ = _run(CheckedCextCore, commits=400)
        free = core._free
        s = free.pop()
        core._col_pending[s] = 1
        free.append(s)
        with pytest.raises(SanitizerError, match="not pristine"):
            core.sanitize_check()
        core._col_pending[s] = 0
        core.sanitize_check()

    def test_mutated_while_freed_caught(self):
        core, _ = _run(CheckedCextCore, commits=400)
        s = core._free[0]
        core._col_waiter0[s] = 7
        with pytest.raises(SanitizerError, match=r"waiter0\[.*== 7"):
            core.sanitize_check()
        core._col_waiter0[s] = -1

    def test_leak_scan_flags_lost_slot(self):
        core, _ = _run(CheckedCextCore, commits=400)
        s = core._free.pop()                 # allocated...
        core._col_flags[s] &= ~F_FREED      # ...but reachable from nowhere
        with pytest.raises(SanitizerError, match="leak"):
            core.sanitize_check()
        core._col_flags[s] |= F_FREED
        core._free.append(s)
        core.sanitize_check()

    def test_planted_defect_stops_the_run(self, monkeypatch):
        # The checks run between compiled chunks, not only at the end:
        # a slot dirtied on the free list fails the very next chunk.
        core = _build(CheckedCextCore)
        core._col_refs[core._free[0]] = 3
        with pytest.raises(SanitizerError, match="not pristine"):
            core.run(1_500, warmup=300)
        assert core._committed_watermark == 1
