"""Default experiment scale.

The paper simulates 200M-instruction SimPoints of SPEC CPU2000 on SMTSIM;
a pure-Python cycle-level simulator cannot.  The default experiment scale
runs each program for ~tens of thousands of instructions on a machine whose
caches are 16× smaller (structure, associativity, latencies and the core
are unchanged; workload footprints are defined relative to L3 capacity, so
the miss *rates* are preserved — see DESIGN.md).

Environment knobs:

* ``REPRO_COMMITS``  — per-thread instruction budget (default 20000).
* ``REPRO_WARMUP``   — cold-start instructions discarded before measuring
  (default 4000).
* ``REPRO_SCALE``    — multiplier applied to instruction budgets.
* ``REPRO_FULL=1``   — run the full Table II/III workload lists instead of
  the representative subsets of :mod:`repro.experiments.claims`.
"""

from __future__ import annotations

from dataclasses import replace
import os

from repro.config import SMTConfig, scaled_config

_CACHE_SCALE = 16


def scaled() -> float:
    """The REPRO_SCALE budget multiplier."""
    return float(os.environ.get("REPRO_SCALE", "1"))


def default_commits(base: int = 20_000) -> int:
    """Per-thread instruction budget, scaled by the environment."""
    env = os.environ.get("REPRO_COMMITS")
    commits = int(env) if env else base
    return max(int(commits * scaled()), 1_000)


def default_config(num_threads: int = 2, **overrides) -> SMTConfig:
    """The default experiment machine: Table IV core, 16×-scaled caches."""
    return scaled_config(num_threads=num_threads, scale=_CACHE_SCALE,
                         **overrides)


def default_single_config(**overrides) -> SMTConfig:
    """Single-threaded variant for CPI_ST baselines and characterization."""
    return default_config(num_threads=1, **overrides)


def characterization_config(**overrides) -> SMTConfig:
    """Single-threaded machine *without* the prefetcher.

    Table I and Figures 1/4/6/7/8 characterize the programs on a plain
    256-entry-ROB machine (the paper's original HPCA setup); the hardware
    prefetcher belongs to the SMT baseline of Table IV.
    """
    cfg = default_single_config(**overrides)
    mem = replace(cfg.memory,
                  prefetcher=replace(cfg.memory.prefetcher, enabled=False))
    return replace(cfg, memory=mem)


def default_warmup() -> int:
    """Cold-start instructions to execute before measurement begins."""
    env = os.environ.get("REPRO_WARMUP")
    return int(env) if env else 4_000


def full_runs() -> bool:
    return os.environ.get("REPRO_FULL", "0") not in ("0", "", "false")
