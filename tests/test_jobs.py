"""Tests for the repro.jobs subsystem: spec hashing, the persistent
result store, and the parallel batch executor."""

from __future__ import annotations

import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

from repro.config import scaled_config
from repro.experiments import (
    clear_baseline_cache,
    default_config,
    evaluate_workload,
    single_thread_baseline,
)
from repro.experiments.policy_comparison import compare_policies
from repro.jobs import (
    SCHEMA_VERSION,
    JobSpec,
    ResultStore,
    UncacheableJobError,
    run_jobs,
)
from repro.jobs.executor import counters, default_workers
from repro.jobs.store import default_store

CFG = scaled_config(num_threads=2, scale=16)
COMMITS = 1500
WARMUP = 300


def _specs(policies=("icount", "flush"), workloads=(("mcf", "twolf"),)):
    return [JobSpec.workload(names, CFG, policy, COMMITS, warmup=WARMUP)
            for names in workloads for policy in policies]


class TestJobSpec:
    def test_key_is_stable(self):
        a = JobSpec.workload(("mcf", "twolf"), CFG, "flush", COMMITS,
                             warmup=WARMUP)
        b = JobSpec.workload(("mcf", "twolf"), CFG, "flush", COMMITS,
                             warmup=WARMUP)
        assert a == b
        assert a.cache_key() == b.cache_key()

    @pytest.mark.parametrize("other", [
        JobSpec.workload(("mcf", "twolf"), CFG, "icount", COMMITS,
                         warmup=WARMUP),
        JobSpec.workload(("twolf", "mcf"), CFG, "flush", COMMITS,
                         warmup=WARMUP),
        JobSpec.workload(("mcf", "twolf"), CFG, "flush", COMMITS + 1,
                         warmup=WARMUP),
        JobSpec.workload(("mcf", "twolf"), CFG, "flush", COMMITS,
                         warmup=WARMUP + 1),
        JobSpec.workload(("mcf", "twolf"),
                         scaled_config(num_threads=2, scale=8),
                         "flush", COMMITS, warmup=WARMUP),
        JobSpec.workload(("mcf", "twolf"), CFG, "flush", COMMITS,
                         warmup=WARMUP, threshold=3),
    ])
    def test_key_sees_every_field(self, other):
        base = JobSpec.workload(("mcf", "twolf"), CFG, "flush", COMMITS,
                                warmup=WARMUP)
        assert base.cache_key() != other.cache_key()

    def test_thread_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            JobSpec.workload(("mcf",), CFG, "icount", COMMITS)

    def test_baseline_specs_follow_workload_order(self):
        spec = JobSpec.workload(("swim", "mcf"), CFG, "flush", COMMITS,
                                warmup=WARMUP)
        bases = spec.baseline_specs()
        assert [b.names[0] for b in bases] == ["swim", "mcf"]
        assert all(b.config.num_threads == 1 for b in bases)
        assert all(b.policy == "icount" for b in bases)

    def test_unserializable_kwargs_are_uncacheable(self):
        spec = JobSpec.workload(("mcf", "twolf"), CFG, "flush", COMMITS,
                                warmup=WARMUP, hook=object())
        with pytest.raises(UncacheableJobError):
            spec.cache_key()

    def test_config_cache_key_is_content_based(self):
        assert CFG.cache_key() == scaled_config(num_threads=2,
                                                scale=16).cache_key()
        assert CFG.cache_key() != scaled_config(num_threads=4,
                                                scale=16).cache_key()

    def test_keys_are_memoized_and_unchanged(self, monkeypatch):
        # Memoizing must not move a single key: these literals are the
        # keys the unmemoized hashing produced.
        from repro.jobs import spec as spec_mod
        calls = []
        real = spec_mod.content_key

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)
        monkeypatch.setattr(spec_mod, "content_key", counting)
        cfg = scaled_config(num_threads=2, scale=16)
        work = JobSpec.workload(("mcf", "twolf"), cfg, "flush", COMMITS,
                                warmup=WARMUP)
        base = JobSpec.baseline("mcf", cfg, COMMITS, warmup=WARMUP)
        for _ in range(3):
            assert cfg.cache_key() == (
                "8d106d5390f5d5d7078e7b116e439fe9"
                "e868c58305f1cd72698c750751320219")
            assert work.cache_key() == (
                "5bde9e5d976e765cda4e29dde7b70cd2"
                "cd68be60862f14b1a1c6cc517f95426c")
            assert base.cache_key() == (
                "80912b1d2d49e3b30963b6f4a06bd651"
                "cb5b169bdf8361ae776e7830b218ca41")
        assert calls == ["workload", "baseline"]

    def test_config_memo_is_invisible(self):
        from dataclasses import asdict, replace
        import pickle
        cfg = scaled_config(num_threads=2, scale=16)
        key = cfg.cache_key()
        assert "_cache_key" not in asdict(cfg)
        assert cfg == scaled_config(num_threads=2, scale=16)
        assert replace(cfg, rob_size=128).cache_key() != key
        assert pickle.loads(pickle.dumps(cfg)).cache_key() == key


class TestResultStore:
    def test_workload_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = _specs()[0]
        result = run_jobs([spec], workers=1, store=None)[spec]
        assert store.put(spec, result)
        back = store.get(spec)
        assert back is not result
        assert back.names == result.names
        assert back.stp == result.stp and back.antt == result.antt
        assert back.st_cpis == result.st_cpis
        assert back.stats.cycles == result.stats.cycles
        assert back.stats.threads == result.stats.threads
        assert back.stats.ll_intervals == result.stats.ll_intervals

    def test_put_bytes_match_the_streaming_encoder(self, tmp_path):
        # put() encodes with the one-shot C encoder; the file must hold
        # exactly what the pure-Python streaming ``json.dump`` writes, so
        # entries stay byte-identical to those already on disk.
        import io

        from repro import __version__
        from repro.jobs.store import encode_result

        store = ResultStore(tmp_path)
        spec = _specs()[0]
        result = run_jobs([spec], workers=1, store=None)[spec]
        assert store.put(spec, result)
        entry = {"schema": SCHEMA_VERSION, "repro": __version__,
                 "kind": spec.kind, "payload": encode_result(result)}
        reference = io.StringIO()
        json.dump(entry, reference, separators=(",", ":"))
        written = store.path_for(spec).read_bytes()
        assert written == reference.getvalue().encode()
        assert b'"stp":' in written and b'"ll_intervals":' in written

    def test_baseline_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = JobSpec.baseline("gap", CFG, COMMITS, warmup=WARMUP)
        result = run_jobs([spec], workers=1, store=None)[spec]
        store.put(spec, result)
        back = store.get(spec)
        assert back.commit_cycles == result.commit_cycles
        assert back.cpi_at(1000) == result.cpi_at(1000)

    def test_corrupt_entry_reads_as_miss_and_is_removed(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = JobSpec.baseline("gap", CFG, COMMITS, warmup=WARMUP)
        result = run_jobs([spec], workers=1, store=None)[spec]
        store.put(spec, result)
        store.path_for(spec).write_text("{not json")
        assert store.get(spec) is None
        assert not store.path_for(spec).exists()
        # The store still works after the bad entry is discarded.
        store.put(spec, result)
        assert store.get(spec) is not None

    def test_stale_schema_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = JobSpec.baseline("gap", CFG, COMMITS, warmup=WARMUP)
        result = run_jobs([spec], workers=1, store=None)[spec]
        store.put(spec, result)
        entry = json.loads(store.path_for(spec).read_text())
        entry["schema"] = SCHEMA_VERSION + 1
        store.path_for(spec).write_text(json.dumps(entry))
        assert store.get(spec) is None

    def test_missing_dir_is_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "never-created")
        assert len(store) == 0
        assert store.clear() == 0
        assert store.get(_specs()[0]) is None


class TestExecutor:
    def test_second_batch_simulates_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = _specs(policies=("icount", "flush"),
                       workloads=(("mcf", "twolf"), ("swim", "mcf")))
        first = run_jobs(specs, workers=1, store=store)
        assert first.report.executed > 0
        second = run_jobs(specs, workers=1, store=store)
        assert second.report.executed == 0
        assert second.report.cache_hits == len(specs)
        for spec in specs:
            assert second[spec].stp == first[spec].stp
            assert second[spec].antt == first[spec].antt

    def test_shared_baselines_simulate_once_per_batch(self, tmp_path):
        # Three workloads over only three distinct benchmarks: the batch
        # must run exactly three baseline simulations, not six.
        specs = _specs(policies=("icount",),
                       workloads=(("mcf", "twolf"), ("mcf", "swim"),
                                  ("swim", "twolf")))
        batch = run_jobs(specs, workers=1, store=ResultStore(tmp_path))
        assert batch.report.baselines_executed == 3

    def test_parallel_is_bit_identical_to_serial(self):
        specs = _specs(policies=("icount", "flush", "mlp_flush"))
        serial = run_jobs(specs, workers=1, store=None)
        parallel = run_jobs(specs, workers=4, store=None)
        assert parallel.report.workers == 4
        for spec in specs:
            assert parallel[spec].stp == serial[spec].stp
            assert parallel[spec].antt == serial[spec].antt
            assert parallel[spec].committed == serial[spec].committed
            assert parallel[spec].st_cpis == serial[spec].st_cpis

    def test_engine_matches_evaluate_workload(self, tmp_path):
        spec = _specs(policies=("flush",))[0]
        engine = run_jobs([spec], workers=2, store=None)[spec]
        clear_baseline_cache()
        direct = evaluate_workload(("mcf", "twolf"), CFG, "flush", COMMITS,
                                   warmup=WARMUP)
        assert engine.stp == direct.stp
        assert engine.antt == direct.antt

    def test_progress_reports_every_job(self, tmp_path):
        lines = []
        specs = _specs(policies=("icount", "flush"))
        store = ResultStore(tmp_path)
        run_jobs(specs, workers=1, store=store, progress=lines.append)
        assert sum("[baseline]" in line for line in lines) == 2
        assert sum("STP=" in line for line in lines) == 2
        lines.clear()
        run_jobs(specs, workers=1, store=store, progress=lines.append)
        assert all(line.startswith("[cached]") for line in lines)

    def test_duplicate_submissions_collapse(self, tmp_path):
        spec = _specs(policies=("icount",))[0]
        batch = run_jobs([spec, spec, spec], workers=1,
                         store=ResultStore(tmp_path))
        assert batch.report.submitted == 3
        assert batch.report.unique == 1

    def test_store_resolved_baselines_count_as_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        run_jobs(_specs(policies=("icount",)), workers=1, store=store)
        # New policy, same workload: the workload cell misses but both
        # baselines come from the store — that must show in the report.
        batch = run_jobs(_specs(policies=("flush",)), workers=1,
                         store=store)
        assert batch.report.cache_hits == 0
        assert batch.report.baselines_cached == 2
        assert batch.report.baselines_executed == 0
        assert batch.report.executed == 1

    def test_list_kwargs_are_hashable_and_cacheable(self, tmp_path):
        # JSON-able container kwargs must flow through the batch
        # machinery (specs are bookkept by content key, not object hash).
        store = ResultStore(tmp_path)
        plain = _specs(policies=("icount",))[0]
        result = run_jobs([plain], workers=1, store=None)[plain]
        spec = JobSpec.workload(("mcf", "twolf"), CFG, "icount", COMMITS,
                                warmup=WARMUP, weights=[1, 2])
        twin = JobSpec.workload(("mcf", "twolf"), CFG, "icount", COMMITS,
                                warmup=WARMUP, weights=[1, 2])
        assert spec.cache_key() == twin.cache_key()
        store.put(spec, result)
        batch = run_jobs([spec, twin], workers=1, store=store)
        assert batch.report.unique == 1
        assert batch.report.executed == 0
        assert batch[twin].stp == result.stp

    def test_unpicklable_kwargs_do_not_poison_the_pool(self):
        # An uncacheable spec runs in-process even with a pool active, so
        # the failure surfaced is the policy's own TypeError for the bad
        # kwarg — not a PicklingError that kills the whole batch.
        good = _specs(policies=("icount",))[0]
        bad = JobSpec.workload(("mcf", "twolf"), CFG, "icount", COMMITS,
                               warmup=WARMUP, hook=lambda: None)
        with pytest.raises(TypeError):
            run_jobs([good, bad], workers=4, store=None)

    def test_unhashable_kwargs_do_not_crash_dedup(self):
        from repro.jobs.executor import _key
        a = JobSpec.workload(("mcf", "twolf"), CFG, "icount", COMMITS,
                             warmup=WARMUP, hook=object())
        b = JobSpec.workload(("mcf", "twolf"), CFG, "icount", COMMITS,
                             warmup=WARMUP, hook=object())
        # Uncacheable specs degrade to identity keys: distinct, stable,
        # and never colliding with real content keys.
        assert _key(a) != _key(b)
        assert _key(a) == _key(a)
        assert _key(a).startswith("uncacheable:")

    def test_default_workers_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_workers() == 6
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        assert default_workers() == 1


class TestCrossProcessReuse:
    def test_results_persist_across_processes(self, tmp_path):
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        script = (
            "from repro.config import scaled_config\n"
            "from repro.jobs import JobSpec, run_jobs\n"
            "cfg = scaled_config(num_threads=2, scale=16)\n"
            "spec = JobSpec.workload(('mcf', 'twolf'), cfg, 'icount', "
            f"{COMMITS}, warmup={WARMUP})\n"
            "batch = run_jobs([spec], workers=1)\n"
            "print(batch.report.executed)\n")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "3"   # 1 workload + 2 baselines
        # This process now resolves the same job purely from disk.
        spec = JobSpec.workload(("mcf", "twolf"), CFG, "icount", COMMITS,
                                warmup=WARMUP)
        batch = run_jobs([spec], workers=1, store=ResultStore(tmp_path))
        assert batch.report.executed == 0
        assert batch.report.cache_hits == 1


class TestExperimentLayerIntegration:
    def test_policy_comparison_second_run_is_pure_cache(self, monkeypatch,
                                                        tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_baseline_cache(disk=False)
        cfg = default_config(num_threads=2)
        workloads = [("mcf", "twolf"), ("swim", "mcf")]
        policies = ("icount", "flush")
        first = compare_policies(workloads, policies, cfg, COMMITS)
        executed_after_first = counters()["executed"]
        clear_baseline_cache(disk=False)   # drop in-process cache only
        second = compare_policies(workloads, policies, cfg, COMMITS)
        assert counters()["executed"] == executed_after_first
        for key, cell in first.items():
            assert second[key].stp == cell.stp
            assert second[key].antt == cell.antt

    def test_repro_jobs_env_is_bit_identical(self, monkeypatch, tmp_path):
        cfg = default_config(num_threads=2)
        workloads = [("mcf", "twolf")]
        policies = ("icount", "mlp_flush")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        clear_baseline_cache(disk=False)
        serial = compare_policies(workloads, policies, cfg, COMMITS)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        monkeypatch.setenv("REPRO_JOBS", "4")
        clear_baseline_cache(disk=False)
        parallel = compare_policies(workloads, policies, cfg, COMMITS)
        for key, cell in serial.items():
            assert parallel[key].stp == cell.stp
            assert parallel[key].antt == cell.antt
            assert parallel[key].ipcs == cell.ipcs

    def test_clear_baseline_cache_clears_disk_store(self, monkeypatch,
                                                    tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        single_thread_baseline("gap", CFG, COMMITS, warmup=WARMUP)
        store = default_store()
        assert store is not None and len(store) == 1
        clear_baseline_cache()
        assert len(store) == 0

    def test_clear_disk_false_keeps_store(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        single_thread_baseline("gap", CFG, COMMITS, warmup=WARMUP)
        clear_baseline_cache(disk=False)
        store = default_store()
        assert store is not None and len(store) == 1

    def test_cache_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert default_store() is None
