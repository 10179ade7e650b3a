"""Differential slice: the object and ``cext`` engines agree on random specs.

The golden matrix pins 34 hand-picked cells; this slice samples the
wider spec space — every registered policy that runs on the selectable
engines (those without a ``core_class``), 1/2/4/8 threads, non-default
ROB sizes and memory latencies, trace seeds 0–4 and random workloads —
and requires the full :class:`~repro.pipeline.stats.CoreStats` of the
two engines to be equal.  Two hypothesis cases per policy keep it
tier-1 fast.  Hypothesis tries the simplest example first, and each
policy's strategies are rotated to start from a different corner of the
space, so the first cases alone cover every thread count, ROB size,
latency and seed; the second case per policy is random.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from conftest import needs_cext
from repro import registry
from repro.config import scaled_config, with_memory_latency, with_window_size
from repro.experiments.runner import build_core

POLICIES = tuple(name for name, cls in registry.policies.items()
                 if cls.core_class is None)
THREADS = (1, 2, 4, 8)
ROB_SIZES = (64, 128, 192)          # default 256; all divide by 8
MEM_LATENCIES = (50, 150, 500)      # default 350
SEEDS = (0, 1, 2, 3, 4)
BENCHMARKS = registry.benchmarks.names()


def _rotated(values: tuple, k: int) -> tuple:
    k %= len(values)
    return values[k:] + values[:k]


@needs_cext
@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_object_and_cext_stats_agree(policy, data):
    k = POLICIES.index(policy)
    draw = data.draw
    threads = draw(st.sampled_from(_rotated(THREADS, k)))
    rob = draw(st.sampled_from(_rotated(ROB_SIZES, k)))
    latency = draw(st.sampled_from(_rotated(MEM_LATENCIES, k // 2)))
    seed = draw(st.sampled_from(_rotated(SEEDS, k)))
    names = draw(st.permutations(_rotated(BENCHMARKS, 3 * k)))[:threads]
    commits = draw(st.integers(min_value=300, max_value=600))
    cfg = with_memory_latency(
        with_window_size(scaled_config(num_threads=threads), rob), latency)

    def stats(backend):
        core = build_core(names, cfg, policy, seed=seed, backend=backend)
        return core.run(commits, warmup=150)

    assert stats("cext") == stats("object"), (
        f"{policy} {threads}t rob={rob} mem={latency} seed={seed} "
        f"{names} @{commits}: engines diverged")
