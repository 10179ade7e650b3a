"""One benchmark pass in a fresh interpreter.

Run by ``run.py`` (never by hand)::

    python3 perfbench/passes.py '<json request>'

The request names the workload kind (``fig9`` or ``table1``), seeds,
worker count, budget and whether to trace.  The pass imports the
program, resolves the engine backends and builds its configs (the
set-up a user pays on every command, measured separately as
``setup_s``), then times one user-level command: the Fig. 9 grid through
``repro.api`` once per seed, or ``characterize()`` for Table I, each
followed by the summary table the figure runner prints.  Everything
after the timed region (result digests, model counters, fidelity rows,
store accounting) is untimed.  The result is written as JSON to the
request's ``out`` path.
"""

from __future__ import annotations

from contextlib import nullcontext
import importlib
import json
from pathlib import Path
import resource
import statistics
import sys
import time

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402

MODEL_FIELDS = ("fetched", "committed", "squashed", "flushes", "ll_loads",
                "policy_stall_cycles")


def model_counters(stats_list) -> dict[str, float]:
    """The simulated ``CoreStats`` counters summed over ``stats_list``."""
    out = dict.fromkeys(("cycles", "resource_stall_cycles")
                        + MODEL_FIELDS, 0)
    for stats in stats_list:
        out["cycles"] += stats.cycles
        out["resource_stall_cycles"] += stats.resource_stall_cycles
        for thread in stats.threads:
            for name in MODEL_FIELDS:
                out[name] += getattr(thread, name)
    out["useful_fetch_ratio"] = (out["committed"] / out["fetched"]
                                 if out["fetched"] else 0.0)
    return out


def span_of(rec):
    """The recorder's span context manager, or a no-op when untraced."""
    return rec.span if rec is not None else (lambda _name: nullcontext())


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest waited-for child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# --------------------------------------------------------------------- #
# Fig. 9
# --------------------------------------------------------------------- #

def fig9_fidelity(cells, workloads, policies) -> list[dict]:
    """mlp_flush's STP/ANTT gain over icount and flush on each half of
    the grid, beside the paper's Section 6.3.1 figures."""
    from repro.experiments.paper_data import TWO_THREAD_HEADLINES
    from repro.experiments.policy_comparison import summarize_policies
    halves = {"MLP": workloads[:6], "MIX": workloads[6:]}
    rows = []
    for half, names in halves.items():
        summary = summarize_policies(cells, names, policies)
        stp_new, antt_new = summary["mlp_flush"]
        for base in ("icount", "flush"):
            stp_base, antt_base = summary[base]
            paper_stp, paper_antt = TWO_THREAD_HEADLINES[(half, base)]
            for metric, measured, paper in (
                    ("STP", stp_new / stp_base - 1.0, paper_stp),
                    ("ANTT", 1.0 - antt_new / antt_base, paper_antt)):
                rows.append({"half": half, "baseline": base,
                             "metric": metric,
                             "measured_pp": 100.0 * measured,
                             "paper_pp": 100.0 * paper,
                             "err_pp": abs(100.0 * (measured - paper))})
    return rows


def fig9_pass(req: dict, rec) -> dict:
    from repro.api import RunSpec, Session
    from repro.experiments import default_config
    from repro.experiments.policy_comparison import (
        cells_from_results,
        format_summary,
        summarize_policies,
    )
    from repro.jobs import JobSpec, counters, default_store
    from repro.policies import MAIN_COMPARISON
    from repro.workloads import TWO_THREAD_MIXED, TWO_THREAD_MLP

    if rec is not None:
        tracing.install(rec)
    span = span_of(rec)
    cfg = default_config(num_threads=2)
    workloads = [tuple(w) for w in TWO_THREAD_MLP[:6] + TWO_THREAD_MIXED[:6]]
    budget, workers = req["budget"], req["workers"]
    store = default_store()
    entries_before = len(store)
    jobs_before = counters()

    grids, reports = [], []
    t0 = time.perf_counter()
    with span("pass"):
        for seed in req["seeds"]:
            with span("api.specs"):
                specs = [RunSpec(workload=names, config=cfg, policy=policy,
                                 max_commits=budget, seed=seed)
                         for names in workloads
                         for policy in MAIN_COMPARISON]
            session = Session(workers=workers)
            with span("api.run_many"):
                results = session.run_many(specs)
            cells = cells_from_results(specs, results)
            with span("metrics.scoring"):
                summary = summarize_policies(cells, workloads,
                                             MAIN_COMPARISON)
            with span("report.format"):
                format_summary(summary)
            grids.append((seed, specs, results, cells))
            reports.append(session.last_report)
    wall = time.perf_counter() - t0

    if rec is not None:
        rec.enabled = False
    jobs_after = counters()
    instructions = 0
    unpersisted = 0
    out_cells = []
    for (seed, specs, results, _cells), report in zip(grids, reports):
        for spec, result in zip(specs, results):
            committed = [t.committed for t in result.stats.threads]
            instructions += sum(committed)
            out_cells.append({"seed": seed, "names": list(spec.workload),
                              "policy": spec.policy, "stp": result.stp,
                              "antt": result.antt,
                              "cycles": result.stats.cycles,
                              "committed": committed})
        if report.baselines_executed:
            names = sorted({n for spec in specs for n in spec.workload})
            for name in names:
                base = store.get(JobSpec.baseline(name, cfg, budget,
                                                  seed=seed))
                if base is None:
                    unpersisted += 1
                else:
                    instructions += base.stats.threads[0].committed
    seed0, _specs, results0, cells0 = grids[0]
    return {
        "wall_s": wall,
        "cells": out_cells,
        "specs": len(out_cells),
        "sim_instructions": instructions,
        "executed": jobs_after["executed"] - jobs_before["executed"],
        "cache_hits": jobs_after["cache_hits"] - jobs_before["cache_hits"],
        "store_entries_added": len(store) - entries_before,
        "unpersisted_baselines": unpersisted,
        "model": model_counters(r.stats for r in results0),
        "fidelity": fig9_fidelity(cells0, workloads, MAIN_COMPARISON),
        "fidelity_seed": seed0,
    }


# --------------------------------------------------------------------- #
# Table I
# --------------------------------------------------------------------- #

def table1_pass(req: dict, rec) -> dict:
    from repro.experiments.defaults import characterization_config
    from repro.experiments.profile import profile_benchmark

    characterize_mod = importlib.import_module(
        "repro.experiments.characterize")
    # The serialized-memory runs' statistics are not part of the rows;
    # keep their committed counts for the simulated-instruction total.
    serialized: list[int] = []
    run_single = characterize_mod.run_single

    def counted_run_single(*args, **kwargs):
        stats = run_single(*args, **kwargs)
        serialized.append(stats.threads[0].committed)
        return stats
    characterize_mod.run_single = counted_run_single
    if rec is not None:
        tracing.install(rec)
    span = span_of(rec)
    budget = req["budget"]
    cfg = characterization_config()

    t0 = time.perf_counter()
    with span("pass"):
        with span("experiments.characterize"):
            rows = characterize_mod.characterize(cfg=cfg,
                                                 max_commits=budget)
        with span("report.format"):
            characterize_mod.format_table(rows)
    wall = time.perf_counter() - t0

    if rec is not None:
        rec.enabled = False
    profiles = [profile_benchmark(row.name, cfg, budget) for row in rows]
    instructions = sum(serialized) + sum(
        p.stats.threads[0].committed for p in profiles)
    return {
        "wall_s": wall,
        "rows": [{"name": r.name, "lll_per_kilo": r.lll_per_kilo,
                  "mlp": r.mlp, "mlp_impact": r.mlp_impact,
                  "category": r.category, "ipc": r.ipc,
                  "paper_mlp_impact": r.paper_mlp_impact,
                  "paper_category": r.paper_category} for r in rows],
        "sim_instructions": instructions,
        "model": model_counters(p.stats for p in profiles),
    }


# --------------------------------------------------------------------- #
# per-layer metrics of a traced pass
# --------------------------------------------------------------------- #

def _quantile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(rec, result: dict,
                  workers: int) -> tuple[dict[str, float], dict[str, int]]:
    sec, calls, counts = rec.seconds, rec.calls, rec.counts
    self_s = tracing.self_times(rec.spans)
    gets = calls["jobs.store.get"]
    bytes_read = sum(store.path_for(spec).stat().st_size
                     for store, spec in rec.hits)
    bytes_written = sum(store.path_for(spec).stat().st_size
                        for store, spec in rec.writes)
    cycles = counts["pipeline.sim_cycles"]
    pool_wait = sec["jobs.executor.pool"]
    cells = rec.samples["pipeline.cell_s"]
    engines = {k.rsplit(".", 1)[1]: v for k, v in counts.items()
               if k.startswith("pipeline.engine.")}
    out = {
        "workloads.traces_built": counts["workloads.traces_built"],
        "workloads.trace_build_s": sec["workloads.trace_build"],
        "api.specs": result.get("specs", 0),
        "api.spec_build_s": sec["api.specs"],
        "api.content_hash_s": sec["api.content_hash"],
        "api.self_s": self_s["api.run_many"],
        "jobs.cache_key_calls": calls["jobs.cache_key"],
        "jobs.cache_key_s": sec["jobs.cache_key"],
        "jobs.store.gets": gets,
        "jobs.store.hit_ratio": len(rec.hits) / gets if gets else 0.0,
        "jobs.store.get_s": self_s["jobs.store.get"],
        "jobs.store.bytes_read": bytes_read,
        "jobs.store.puts": len(rec.writes),
        "jobs.store.put_s": self_s["jobs.store.put"],
        "jobs.store.bytes_written": bytes_written,
        "jobs.executor.self_s": (self_s["jobs.run_jobs"]
                                 + self_s["jobs.executor.batch"]),
        "jobs.executor.pool_wait_s": pool_wait,
        "jobs.executor.job_s": sec["jobs.executor.job"],
        "jobs.executor.pool_efficiency": (
            sec["jobs.executor.job"] / (workers * pool_wait)
            if pool_wait else 0.0),
        "jobs.executor.executed": result.get("executed", 0),
        "jobs.executor.cache_hits": result.get("cache_hits", 0),
        "baselines.sims": counts["baselines.sims"],
        "baselines.s": sec["baselines"],
        "pipeline.sims": counts["pipeline.sims"],
        "pipeline.s": sec["pipeline"],
        "pipeline.build_s": sec["pipeline.build"],
        "pipeline.ns_per_cycle": (1e9 * sec["pipeline"] / cycles
                                  if cycles else 0.0),
        "pipeline.sim_cycles": cycles,
        "pipeline.sim_instructions": counts["pipeline.sim_instructions"],
        "pipeline.cell_p50_s": _quantile(cells, 50),
        "pipeline.cell_p85_s": _quantile(cells, 85),
        "pipeline.object_engine_sims": engines.get("SMTCore", 0),
        "pipeline.cext_engine_sims": engines.get("CextCore", 0),
        "experiments.profile_s": sec["experiments.profile"],
        "experiments.serialized_run_s": sec["experiments.serialized_run"],
        "metrics.scoring_s": sec["metrics.scoring"],
        "report.format_s": sec["report.format"],
        "trace.spans": len(rec.spans),
    }
    return out, engines


# --------------------------------------------------------------------- #

def main(argv: list[str]) -> int:
    req = json.loads(argv[1])
    rec = None
    if req["trace"]:
        rec = tracing.Recorder(req["run_id"])
    # Set-up, untimed here: imports, the backend probe, configs.
    from repro import registry
    registry.backends.names()
    if req["kind"] == "fig9":
        result = fig9_pass(req, rec)
    else:
        result = table1_pass(req, rec)
    result["peak_rss_mb"] = peak_rss_mb()
    if rec is not None:
        layers, engines = layer_metrics(rec, result, req["workers"])
        result["layers"] = layers
        result["engines"] = engines
        result["layer_self_s"] = tracing.layer_self_times(rec.spans)
        rec.write_spans(Path(req["spans"]))
    Path(req["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
