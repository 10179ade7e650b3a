"""Per-RunSpec engine-backend selection (the ``backends`` registry kind).

Covers the ``backends`` registry entries and core resolution: an
unpinned run takes the default engine (``cext`` when it is built,
``object`` otherwise), an explicit backend pins its engine, and a
policy's ``core_class`` beats both.  Also the ``repro.runspec/2``
schema — backend validation, serialization that omits an unpinned
backend, v1 document compatibility — the content-hash guarantee (the
backend is not part of the hash; unpinned hashes are byte-identical to
the pre-backend scheme, pinned by literal), the baseline mode naming for
per-backend perf sections, the refusal of the retired ``soa`` backend
everywhere a backend is named, and end-to-end execution equivalence of
the object and ``cext`` engines through the public
:class:`repro.api.Session` entry points.

The plumbing tests need a second backend name that exists on every
host, compiler or not: the ``fake_backend`` fixture registers a trivial
:class:`SMTCore` subclass for the duration of a test.
"""

from __future__ import annotations

import gc

import pytest

from conftest import needs_cext
from repro import registry
from repro.api import RunSpec, Session, SpecError
from repro.config import scaled_config
from repro.experiments.profile import clear_profile_cache, profile_benchmark
from repro.experiments.runner import (
    build_core,
    core_for,
    default_backend,
    run_single,
)
from repro.jobs import JobSpec, run_jobs
from repro.perf.baselines import BaselineError, mode_name, validate_doc
from repro.pipeline import SMTCore
from repro.pipeline import cext as cext_mod
from repro.pipeline.cext import CextCore, cext_status, load_cext_core
from repro.policies import make_policy
from repro.runahead import RunaheadCore

CFG2 = scaled_config(num_threads=2, scale=16)

_CEXT_BUILDABLE = load_cext_core() is not None


class _FakeCore(SMTCore):
    """A registered-only stand-in backend (simulates as the object one)."""

    __slots__ = ()


@pytest.fixture
def fake_backend():
    registry.backends.register("fake", _FakeCore)
    yield "fake"
    registry.backends.unregister("fake")


@pytest.fixture
def no_cext(monkeypatch):
    """The backends table of a process started with ``REPRO_CEXT=0``
    (or on a host without a compiler): the probe reports the engine
    disabled and a freshly loaded registry lists ``object`` only."""
    monkeypatch.setenv("REPRO_CEXT", "0")
    monkeypatch.setattr(cext_mod, "_state", None)
    monkeypatch.setattr(registry, "backends",
                        registry.Registry("backend", registry._load_backends))
    assert registry.backends.names() == ("object",)


def _spec(backend=None, **kw):
    kw.setdefault("max_commits", 800)
    kw.setdefault("warmup", 400)
    return RunSpec(workload=("mcf", "swim"), config=CFG2,
                   policy="mlp_flush", backend=backend, **kw)


class TestRegistry:
    def test_both_engines_registered(self):
        expected = {"object", "cext"} if _CEXT_BUILDABLE else {"object"}
        assert set(registry.backends.names()) == expected
        assert registry.backends.get("object") is SMTCore

    def test_kind_aliases(self):
        assert registry.canonical_kind("backend") == "backends"
        assert registry.canonical_kind("backends") == "backends"
        assert "backends" in registry.KINDS
        assert registry.get("backend", "object") is SMTCore

    def test_unknown_backend_error_names_known(self):
        with pytest.raises(registry.RegistryError) as exc:
            registry.backends.get("simd")
        assert "known: " in str(exc.value)
        assert "object" in str(exc.value)


class TestCextRegistration:
    @needs_cext
    def test_registered_when_buildable(self):
        assert "cext" in registry.backends
        assert registry.backends.get("cext") is CextCore
        assert issubclass(CextCore, SMTCore)
        assert cext_status().startswith("available")

    @needs_cext
    def test_core_resolution(self):
        assert core_for(make_policy("mlp_flush"), "cext") is CextCore
        # A policy-owned core still beats the requested backend.
        assert core_for(make_policy("runahead"), "cext") is RunaheadCore

    def test_disabled_probe_omits_the_entry(self, monkeypatch):
        # Simulate a toolchain-less host: with the probe reporting
        # unavailable, a fresh backends registry lists only the object
        # engine and load_cext_core() degrades to None without raising.
        monkeypatch.setenv("REPRO_CEXT", "0")
        monkeypatch.setattr(cext_mod, "_state", None)
        assert load_cext_core() is None
        assert cext_status() == "unavailable: disabled by REPRO_CEXT=0"
        fresh = registry.Registry("backend", registry._load_backends)
        assert fresh.names() == ("object",)
        monkeypatch.setattr(cext_mod, "_state", None)  # re-probe later

    def test_refuses_to_build_without_engine(self, monkeypatch):
        # A spec naming the backend can outlive the probe result; a
        # CextCore built then must say so, not simulate some other way.
        from repro.experiments.runner import trace_for
        monkeypatch.setattr(cext_mod, "_state", (None, "forced off"))
        traces = [trace_for(name, CFG2, slot=i)
                  for i, name in enumerate(("mcf", "swim"))]
        with pytest.raises(RuntimeError, match="unavailable: forced off"):
            CextCore(CFG2, traces, make_policy("icount"))


class TestCoreResolution:
    def test_default_is_object_engine(self, no_cext):
        # Without the compiled engine the unpinned default falls back to
        # the object engine, for plain and policy-gated runs alike.
        assert default_backend() == "object"
        assert core_for(make_policy("icount")) is SMTCore
        assert core_for(make_policy("mlp_flush")) is SMTCore

    @needs_cext
    def test_default_is_cext_when_built(self):
        assert default_backend() == "cext"
        assert core_for(make_policy("icount")) is CextCore
        assert core_for(make_policy("mlp_flush")) is CextCore

    def test_explicit_object_pins_the_object_engine(self):
        # Holds whether or not cext is built: a pin beats the default.
        assert core_for(make_policy("icount"), "object") is SMTCore
        assert core_for(make_policy("mlp_flush"), "object") is SMTCore

    @pytest.mark.parametrize("backend", [None, "object"])
    def test_runahead_keeps_its_core_class(self, backend):
        assert core_for(make_policy("runahead"), backend) is RunaheadCore
        assert core_for(make_policy("mlp_runahead"), backend) \
            is RunaheadCore

    def test_cext_disabled_process_runs_the_object_engine(self):
        # End to end in a fresh interpreter, as ``REPRO_CEXT=0`` is
        # meant to be used: the default, the table and the CLI agree.
        import os
        import subprocess
        import sys
        code = (
            "from repro import registry\n"
            "from repro.experiments.runner import build_core\n"
            "from repro.config import scaled_config\n"
            "cfg = scaled_config(num_threads=1, scale=16)\n"
            "print(registry.backends.names())\n"
            "print(type(build_core(('mcf',), cfg)).__name__)\n"
            "from repro.cli import main\n"
            "main(['list', 'backends'])\n")
        env = dict(os.environ, REPRO_CEXT="0")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        lines = out.stdout.splitlines()
        assert lines[0] == "('object',)"
        assert lines[1] == "SMTCore"
        assert any(line.startswith("  object") and "[default]" in line
                   for line in lines)
        assert "  (cext unavailable: disabled by REPRO_CEXT=0)" in lines

    def test_registered_backend_selects_its_core(self, fake_backend):
        assert core_for(make_policy("mlp_flush"), fake_backend) is _FakeCore

    def test_policy_core_class_beats_backend(self, fake_backend):
        # Runahead is only implemented on its own engine; asking for
        # another backend must not desynchronize it.
        assert core_for(make_policy("runahead"), fake_backend) is RunaheadCore

    def test_unknown_backend_raises(self):
        with pytest.raises(registry.RegistryError):
            core_for(make_policy("icount"), "simd")


class TestSpecValidation:
    def test_unknown_backend_refused(self):
        with pytest.raises(SpecError, match="backend"):
            _spec(backend="simd")

    def test_non_string_backend_refused(self):
        with pytest.raises(SpecError):
            _spec(backend=7)

    def test_unpinned_is_the_default(self):
        assert _spec().backend is None
        assert JobSpec.from_runspec(_spec()).backend is None


class TestSerialization:
    def test_default_backend_serializes_away(self):
        # Unpinned writes no key; a pin, even to ``object``, is written.
        doc = _spec().to_doc()
        assert doc["schema"] == "repro.runspec/2"
        assert "backend" not in doc
        assert _spec(backend="object").to_doc()["backend"] == "object"

    def test_non_default_backend_serializes(self, fake_backend):
        doc = _spec(backend=fake_backend).to_doc()
        assert doc["backend"] == "fake"

    @pytest.mark.parametrize("backend", ["object", "fake", None])
    def test_json_roundtrip(self, backend, fake_backend):
        spec = _spec(backend=backend)
        again = RunSpec.from_json(spec.to_json())
        assert again == spec
        assert again.backend == backend

    def test_v1_document_still_loads(self):
        # A v1 document predates the field and loads unpinned, hashing
        # exactly as it always did.
        doc = _spec().to_doc()
        doc["schema"] = "repro.runspec/1"
        spec = RunSpec.from_doc(doc)
        assert spec == _spec()
        assert spec.backend is None
        assert spec.content_hash() == TestHashStability._PINNED

    def test_v1_document_with_backend_refused(self, fake_backend):
        # A /1-stamped doc carrying the /2-only field is mis-stamped,
        # not forward-compatible.
        doc = _spec(backend=fake_backend).to_doc()
        doc["schema"] = "repro.runspec/1"
        with pytest.raises(SpecError, match="backend"):
            RunSpec.from_doc(doc)

    def test_str_names_non_default_backend(self, fake_backend):
        assert str(_spec()).endswith("@800")
        assert str(_spec(backend="object")).endswith("@800+object")
        assert str(_spec(backend=fake_backend)).endswith("@800+fake")


class TestHashStability:
    #: ``_spec()``'s content hash under the pre-backend (PR 6) scheme.
    #: An unpinned spec must keep producing exactly this value — warm
    #: result stores and committed hashes must survive the default
    #: engine's change.
    _PINNED = ("00e1f993ce0ccb4ff30e7ff366a60e25"
               "277d1f5f43e52911df092b62e7f445a0")

    def test_default_backend_hash_unchanged(self):
        assert _spec().content_hash() == self._PINNED

    def test_backend_leaves_the_hash_unchanged(self, fake_backend):
        # The engines are bit-identical (the golden matrix and the
        # differential tests hold them to it), so which one runs is an
        # execution choice: a pinned spec shares the unpinned result.
        for backend in ("object", fake_backend):
            assert _spec(backend=backend).content_hash() == self._PINNED

    @needs_cext
    def test_cext_pin_shares_the_unpinned_hash(self):
        # Neither the pin nor the toolchain, compiler version or probe
        # outcome leaks into the key.
        assert _spec(backend="cext").content_hash() == self._PINNED

    @pytest.mark.parametrize("backend", ["object", "fake"])
    def test_content_hash_matches_jobspec_cache_key(self, backend,
                                                    fake_backend):
        spec = _spec(backend=backend)
        assert spec.content_hash() == JobSpec.from_runspec(spec).cache_key()


class TestBaselineModes:
    def test_mode_names(self):
        assert mode_name(False) == "full"
        assert mode_name(True) == "quick"
        assert mode_name(False, "fake") == "full-fake"
        assert mode_name(True, "fake") == "quick-fake"
        assert mode_name(False, "cext") == "full-cext"
        assert mode_name(True, "cext") == "quick-cext"

    def test_validate_accepts_suffixed_modes(self):
        entry = {"wall_s": 1.0, "cycles": 10, "instructions": 5}
        doc = {"schema": "repro.perf/1",
               "modes": {"full-cext": {"calibration_s": 0.1,
                                       "scenarios": {"s": dict(entry)}}}}
        validate_doc(doc)  # must not raise

    def test_validate_rejects_unknown_mode_base(self):
        doc = {"schema": "repro.perf/1",
               "modes": {"warm-cext": {"calibration_s": 0.1,
                                       "scenarios": {}}}}
        with pytest.raises(BaselineError, match="unknown mode"):
            validate_doc(doc)


class TestGoldenCli:
    def test_regeneration_refuses_non_default_backend(self, tmp_path,
                                                      capsys, fake_backend):
        from repro.perf.golden import main
        out = tmp_path / "golden.json"
        assert main(["--backend", fake_backend, str(out)]) == 2
        assert not out.exists()
        assert "--check" in capsys.readouterr().err

    def test_check_requires_a_fixture(self, tmp_path, capsys, fake_backend):
        from repro.perf.golden import main
        missing = tmp_path / "nope.json"
        assert main(["--check", "--backend", fake_backend,
                     str(missing)]) == 1
        assert "no golden fixture" in capsys.readouterr().err


class TestRetiredSoaBackend:
    """``soa`` is gone: every way of naming it fails the way any unknown
    backend does, with the registry's "unknown backend …; known: …"."""

    def test_runspec_refuses(self):
        with pytest.raises(SpecError, match=r"unknown backend 'soa'; known: "):
            _spec(backend="soa")

    def test_spec_document_refuses(self):
        doc = _spec().to_doc()
        doc["backend"] = "soa"
        with pytest.raises(SpecError, match=r"unknown backend 'soa'; known: "):
            RunSpec.from_doc(doc)

    @pytest.mark.parametrize("argv", [
        ["perf", "compare", "--quick", "--backend", "soa"],
        ["perf", "update", "--quick", "--backend", "soa"],
        ["perf", "profile", "st_icount", "--quick", "--backend", "soa"],
        ["perf", "duel", "st_icount", "--quick", "--backends", "object,soa"],
    ], ids=["compare", "update", "profile", "duel"])
    def test_perf_cli_exits_2(self, argv, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unknown backend 'soa'; known: " in capsys.readouterr().err

    def test_golden_check_exits_2(self, tmp_path, capsys):
        from repro.perf.golden import main
        assert main(["--check", "--backend", "soa",
                     str(tmp_path / "golden.json")]) == 2
        assert "unknown backend 'soa'; known: " in capsys.readouterr().err


class TestExecutionEquivalence:
    def _small(self, backend=None):
        return RunSpec(workload=("mcf", "swim"), config=CFG2,
                       policy="mlp_flush", max_commits=600, warmup=200,
                       backend=backend)

    @needs_cext
    def test_simulate_is_backend_independent(self):
        # Unpinned runs the default (cext here); the object pin still
        # runs the object engine, with identical results.
        stats_o, core_o = Session(store=None).simulate(self._small("object"))
        stats_d, core_d = Session(store=None).simulate(self._small())
        assert type(core_o) is SMTCore
        assert type(core_d) is CextCore
        assert stats_o == stats_d
        assert core_o.cycle == core_d.cycle

    @needs_cext
    def test_scored_run_is_backend_independent(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        session = Session()
        r_obj = session.run(self._small("object"))
        assert session.last_report.executed == 3    # 2 baselines + 1 run
        r_cext = session.run(self._small("cext"))
        assert r_obj.stp == r_cext.stp
        assert r_obj.antt == r_cext.antt
        assert r_obj.ipcs == r_cext.ipcs
        # The backend is not part of the key: the cext-pinned spec is
        # the same experiment and is served from the store.
        assert session.last_report.cache_hits == 1
        assert session.last_report.executed == 0

    @needs_cext
    def test_iter_intervals_is_backend_independent(self):
        session = Session(store=None)
        snaps_o = list(session.iter_intervals(self._small("object"),
                                              every=200))
        snaps_c = list(session.iter_intervals(self._small("cext"),
                                              every=200))
        assert snaps_o == snaps_c
        assert snaps_o[-1].done


class TestRelease:
    """A finished core its caller discards is freed by reference
    counting, without waiting for the cyclic collector."""

    @staticmethod
    def _live_cores() -> int:
        return sum(issubclass(type(o), SMTCore) for o in gc.get_objects())

    def _surviving_cores(self, fn) -> int:
        gc.collect()
        gc.disable()
        try:
            before = self._live_cores()
            fn()
            return self._live_cores() - before
        finally:
            gc.enable()

    @staticmethod
    def _run(backend, release):
        core = build_core(("mcf", "swim"), CFG2, "mlp_flush",
                          backend=backend)
        core.run(600, warmup=200)
        if release:
            core.release()

    @pytest.mark.parametrize("backend", registry.backends.names())
    def test_release_breaks_the_cycles(self, backend):
        assert self._surviving_cores(lambda: self._run(backend, True)) == 0
        # The control: unreleased, the cycles keep the core alive.
        assert self._surviving_cores(lambda: self._run(backend, False)) == 1

    def test_callers_that_discard_cores_release_them(self):
        cfg1 = scaled_config(num_threads=1, scale=16)

        def discard():
            run_jobs([JobSpec.workload(("mcf", "swim"), CFG2, "mlp_flush",
                                       600, warmup=200)],
                     workers=1, store=None)
            run_single("mcf", cfg1, 600, warmup=200)
            clear_profile_cache()
            profile_benchmark("mcf", cfg1, max_commits=600)
            clear_profile_cache()
        assert self._surviving_cores(discard) == 0
