"""Per-RunSpec engine-backend selection (the ``backends`` registry kind).

Covers the ``backends`` registry entries and core resolution precedence
(a policy's ``core_class`` beats the requested backend), the
``repro.runspec/2`` schema — backend validation, serialization that
omits the default, v1 document compatibility — the content-hash
stability guarantee (default-backend hashes are byte-identical to the
pre-backend scheme, pinned by literal), the baseline mode naming for
per-backend perf sections, the refusal of the retired ``soa`` backend
everywhere a backend is named, and end-to-end execution equivalence of
the object and ``cext`` engines through the public
:class:`repro.api.Session` entry points.

The plumbing tests need a second backend name that exists on every
host, compiler or not: the ``fake_backend`` fixture registers a trivial
:class:`SMTCore` subclass for the duration of a test.
"""

from __future__ import annotations

import pytest

from conftest import needs_cext
from repro import registry
from repro.api import RunSpec, Session, SpecError
from repro.config import scaled_config
from repro.experiments.runner import core_for
from repro.jobs import JobSpec
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


def _spec(backend="object", **kw):
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
    def test_default_is_object_engine(self):
        assert core_for(make_policy("icount")) is SMTCore
        assert core_for(make_policy("icount"), "object") is SMTCore

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


class TestSerialization:
    def test_default_backend_serializes_away(self):
        doc = _spec().to_doc()
        assert doc["schema"] == "repro.runspec/2"
        assert "backend" not in doc

    def test_non_default_backend_serializes(self, fake_backend):
        doc = _spec(backend=fake_backend).to_doc()
        assert doc["backend"] == "fake"

    @pytest.mark.parametrize("backend", ["object", "fake"])
    def test_json_roundtrip(self, backend, fake_backend):
        spec = _spec(backend=backend)
        again = RunSpec.from_json(spec.to_json())
        assert again == spec
        assert again.backend == backend

    def test_v1_document_still_loads(self):
        doc = _spec().to_doc()
        doc["schema"] = "repro.runspec/1"
        spec = RunSpec.from_doc(doc)
        assert spec == _spec()
        assert spec.backend == "object"

    def test_v1_document_with_backend_refused(self, fake_backend):
        # A /1-stamped doc carrying the /2-only field is mis-stamped,
        # not forward-compatible.
        doc = _spec(backend=fake_backend).to_doc()
        doc["schema"] = "repro.runspec/1"
        with pytest.raises(SpecError, match="backend"):
            RunSpec.from_doc(doc)

    def test_str_names_non_default_backend(self, fake_backend):
        assert str(_spec()).endswith("@800")
        assert str(_spec(backend=fake_backend)).endswith("@800+fake")


class TestHashStability:
    #: ``_spec()``'s content hash under the pre-backend (PR 6) scheme.
    #: The default backend must keep producing exactly this value —
    #: warm result stores and committed hashes must survive the /2 bump.
    _PINNED = ("00e1f993ce0ccb4ff30e7ff366a60e25"
               "277d1f5f43e52911df092b62e7f445a0")

    def test_default_backend_hash_unchanged(self):
        assert _spec().content_hash() == self._PINNED

    def test_non_default_backend_changes_the_hash(self, fake_backend):
        # The engines are bit-identical by contract, but caching another
        # backend's run under the object key would mask an equivalence
        # regression.
        assert _spec(backend=fake_backend).content_hash() != self._PINNED

    @needs_cext
    def test_cext_hash_is_its_own_and_stable(self, fake_backend):
        # Its own cache key (never aliases another backend's results)
        # and a pure function of the spec document — the toolchain,
        # compiler version, and probe outcome must not leak into it.
        h = _spec(backend="cext").content_hash()
        assert h != self._PINNED
        assert h != _spec(backend=fake_backend).content_hash()
        assert h == _spec(backend="cext").content_hash()

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
    def _small(self, backend):
        return RunSpec(workload=("mcf", "swim"), config=CFG2,
                       policy="mlp_flush", max_commits=600, warmup=200,
                       backend=backend)

    @needs_cext
    def test_simulate_is_backend_independent(self):
        stats_o, core_o = Session(store=None).simulate(self._small("object"))
        stats_c, core_c = Session(store=None).simulate(self._small("cext"))
        assert type(core_o) is SMTCore
        assert type(core_c) is CextCore
        assert stats_o == stats_c
        assert core_o.cycle == core_c.cycle

    @needs_cext
    def test_scored_run_is_backend_independent(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        session = Session()
        r_obj = session.run(self._small("object"))
        r_cext = session.run(self._small("cext"))
        assert r_obj.stp == r_cext.stp
        assert r_obj.antt == r_cext.antt
        assert r_obj.ipcs == r_cext.ipcs
        # The single-thread baselines carry no backend, so the cext run
        # reuses the object run's cached CPI_ST cells.
        assert session.last_report.baselines_cached == 2
        assert session.last_report.baselines_executed == 0

    @needs_cext
    def test_iter_intervals_is_backend_independent(self):
        session = Session(store=None)
        snaps_o = list(session.iter_intervals(self._small("object"),
                                              every=200))
        snaps_c = list(session.iter_intervals(self._small("cext"),
                                              every=200))
        assert snaps_o == snaps_c
        assert snaps_o[-1].done
