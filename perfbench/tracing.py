"""Span recorder and layer wrappers for the traced benchmark pass.

A traced pass installs wrappers on the module attributes through which
each layer's public entry points are looked up at call time (for example
``repro.jobs.executor.simulate_baseline``), so the program runs unchanged
and only its callers see a timed stand-in.  Nothing the engine inspects
is wrapped: not the policy ``on_*`` hooks (``_is_default_hook`` elision
reads them), not the core's stage methods, not the memory hierarchy.
Engine cores are handed to their callers behind :class:`_TracedCore`,
which times ``run`` and forwards everything else to the real core.

Spans are kept in memory as ``(id, parent, name, start, end)`` and
written out when the pass ends.  In a pooled batch the workers' spans
and counters stay in the workers; only each job's seconds come back
with its result (see :func:`_timed_call`), so a pooled pass is traced
from the parent's side.

This module imports nothing from ``repro`` at load time, so
``run.py`` and readers of the span files can use :func:`self_times`
without importing the program.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
import functools
import importlib
import itertools
import json
from pathlib import Path
import time

#: Span name -> layer, for the self-time table.
LAYER_OF = {
    "pass": "unattributed",
    "workloads.trace": "workloads",
    "api.specs": "api",
    "api.run_many": "api",
    "api.content_hash": "api",
    "jobs.cache_key": "jobs.spec",
    "jobs.store.get": "jobs.store",
    "jobs.store.put": "jobs.store",
    "jobs.run_jobs": "jobs.executor",
    "jobs.executor.batch": "jobs.executor",
    "jobs.executor.pool": "jobs.executor",
    "baselines": "experiments.baselines",
    "experiments.run_workload": "experiments",
    "experiments.characterize": "experiments",
    "experiments.profile": "experiments",
    "experiments.serialized_run": "experiments",
    "pipeline.build": "pipeline",
    "pipeline": "pipeline",
    "metrics.scoring": "metrics",
    "report.format": "report",
}

class Recorder:
    """In-memory spans plus per-name totals and counters for one pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = True
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter[str] = Counter()       # spans per name
        self.seconds: Counter[str] = Counter()     # inclusive seconds
        self.counts: Counter[str] = Counter()      # layer counters
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.hits: list[tuple[object, object]] = []     # (store, spec)
        self.writes: list[tuple[object, object]] = []   # (store, spec)
        self._stack = [0]
        self._ids = itertools.count(1)

    def _close(self, sid: int, parent: int, name: str,
               t0: float, t1: float) -> None:
        self.spans.append((sid, parent, name, t0, t1))
        self.calls[name] += 1
        self.seconds[name] += t1 - t0

    @contextmanager
    def span(self, name: str):
        sid, parent = next(self._ids), self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._close(sid, parent, name, t0, t1)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as a span; ``after(result, args)`` runs once
        the span is closed."""
        rec = self

        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            with rec.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result
        return traced

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid,
                                     "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def _timed_call(fn, spec):
    """Run one executor job, returning ``(result, seconds)``.

    Replaces the job function handed to the executor's pool, so each job
    reports the seconds it took where it ran.
    """
    t0 = time.perf_counter()
    result = fn(spec)
    return result, time.perf_counter() - t0


class _TracedCore:
    """Caller-side handle on a real engine core: times ``run`` only."""

    __slots__ = ("_core", "_rec")

    def __init__(self, core, rec: Recorder):
        object.__setattr__(self, "_core", core)
        object.__setattr__(self, "_rec", rec)

    def run(self, *args, **kwargs):
        rec, core = self._rec, self._core
        if not rec.enabled:
            return core.run(*args, **kwargs)
        with rec.span("pipeline"):
            stats = core.run(*args, **kwargs)
        _sid, _parent, _name, t0, t1 = rec.spans[-1]
        rec.samples["pipeline.cell_s"].append(t1 - t0)
        rec.counts["pipeline.sims"] += 1
        rec.counts["pipeline.sim_cycles"] += stats.cycles
        rec.counts["pipeline.sim_instructions"] += sum(
            t.committed for t in stats.threads)
        rec.counts["pipeline.engine." + type(core).__name__] += 1
        return stats

    def __getattr__(self, name):
        return getattr(self._core, name)

    def __setattr__(self, name, value):
        setattr(self._core, name, value)


def _core_factory(rec: Recorder, cls):
    def make(*args, **kwargs):
        with rec.span("pipeline.build"):
            core = cls(*args, **kwargs)
        return _TracedCore(core, rec)
    make.perfbench_factory = True
    return make


def install(rec: Recorder) -> None:
    """Wrap every layer entry point of the program for this process."""
    # By module path: ``repro.experiments`` re-exports functions named
    # like some of its modules (``characterize``).
    (session, api_spec, characterize, profile, runner, executor, job_spec,
     store) = (importlib.import_module(f"repro.{name}") for name in (
         "api.session", "api.spec", "experiments.characterize",
         "experiments.profile", "experiments.runner", "jobs.executor",
         "jobs.spec", "jobs.store"))

    counts = rec.counts

    trace_fn = runner._cached_trace
    traced_trace = rec.wrap("workloads.trace", trace_fn)

    def cached_trace(*args):
        misses = trace_fn.cache_info().misses
        result = traced_trace(*args)
        if rec.enabled and trace_fn.cache_info().misses > misses:
            _sid, _parent, _name, t0, t1 = rec.spans[-1]
            counts["workloads.traces_built"] += 1
            rec.seconds["workloads.trace_build"] += t1 - t0
        return result
    runner._cached_trace = cached_trace

    runner.SMTCore = _core_factory(rec, runner.SMTCore)
    profile.SMTCore = _core_factory(rec, profile.SMTCore)
    core_for = runner.core_for

    def traced_core_for(*args, **kwargs):
        cls = core_for(*args, **kwargs)
        if getattr(cls, "perfbench_factory", False):
            return cls
        return _core_factory(rec, cls)
    runner.core_for = traced_core_for

    api_spec.content_key = rec.wrap("api.content_hash", api_spec.content_key)
    job_spec.content_key = rec.wrap("jobs.cache_key", job_spec.content_key)

    def after_get(result, args):
        if result is not None:
            rec.hits.append((args[0], args[1]))

    def after_put(result, args):
        if result:
            rec.writes.append((args[0], args[1]))
    store.ResultStore.get = rec.wrap("jobs.store.get", store.ResultStore.get,
                                     after_get)
    store.ResultStore.put = rec.wrap("jobs.store.put", store.ResultStore.put,
                                     after_put)

    session.run_jobs = rec.wrap("jobs.run_jobs", session.run_jobs)
    batch = {pooled: rec.wrap(name, executor._run_batch)
             for pooled, name in ((True, "jobs.executor.pool"),
                                  (False, "jobs.executor.batch"))}

    def traced_run_batch(fn, specs, workers):
        pooled = workers > 1 and len(specs) > 1
        out = batch[pooled](functools.partial(_timed_call, fn), specs,
                            workers)
        for _result, seconds in out:
            counts["jobs.executor.jobs"] += 1
            rec.seconds["jobs.executor.job"] += seconds
        return [result for result, _seconds in out]
    executor._run_batch = traced_run_batch

    def after_baseline(_result, _args):
        counts["baselines.sims"] += 1
    executor.simulate_baseline = rec.wrap(
        "baselines", executor.simulate_baseline, after_baseline)
    executor.run_workload = rec.wrap(
        "experiments.run_workload", executor.run_workload)
    executor.build_workload_result = rec.wrap(
        "metrics.scoring", executor.build_workload_result)
    characterize.profile_benchmark = rec.wrap(
        "experiments.profile", characterize.profile_benchmark)
    characterize.run_single = rec.wrap(
        "experiments.serialized_run", characterize.run_single)


def self_times(spans) -> Counter:
    """Seconds per span name not covered by that span's child spans."""
    covered: Counter[int] = Counter()
    for _sid, parent, _name, t0, t1 in spans:
        covered[parent] += t1 - t0
    out: Counter[str] = Counter()
    for sid, _parent, name, t0, t1 in spans:
        out[name] += (t1 - t0) - covered[sid]
    return out


def layer_self_times(spans) -> dict[str, float]:
    out: Counter[str] = Counter()
    for name, seconds in self_times(spans).items():
        out[LAYER_OF.get(name, name)] += seconds
    return dict(out)
