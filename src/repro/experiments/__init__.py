"""Experiment drivers that regenerate every table and figure of the paper.

The experiment index is :mod:`repro.experiments.claims`.  Each driver
returns plain data (dataclasses / dicts) so that the claims table, the
examples, and the tests can all share them.
"""

from repro.experiments.characterize import CharacterizationRow, characterize
from repro.experiments.defaults import (
    default_commits,
    default_config,
    default_single_config,
    scaled,
)
from repro.experiments.policy_comparison import (
    PolicyCell,
    cells_from_batch,
    compare_policies,
    summarize_policies,
)
from repro.experiments.profile import ProfileResult, profile_benchmark
from repro.experiments.runner import (
    SingleThreadResult,
    WorkloadResult,
    build_core,
    build_workload_result,
    clear_baseline_cache,
    evaluate_workload,
    run_single,
    run_workload,
    simulate_baseline,
    single_thread_baseline,
    trace_for,
)
from repro.experiments.sweeps import memory_latency_sweep, window_size_sweep

__all__ = [
    "CharacterizationRow",
    "PolicyCell",
    "ProfileResult",
    "SingleThreadResult",
    "WorkloadResult",
    "build_core",
    "build_workload_result",
    "cells_from_batch",
    "characterize",
    "clear_baseline_cache",
    "compare_policies",
    "default_commits",
    "default_config",
    "default_single_config",
    "evaluate_workload",
    "memory_latency_sweep",
    "profile_benchmark",
    "run_single",
    "run_workload",
    "scaled",
    "simulate_baseline",
    "single_thread_baseline",
    "summarize_policies",
    "trace_for",
    "window_size_sweep",
]
