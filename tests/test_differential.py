"""Differential slice: the object and ``cext`` engines agree on random specs.

The golden matrix pins 34 hand-picked cells; this slice samples the
wider spec space — every registered policy that runs on the selectable
engines (those without a ``core_class``), 1/2/4/8 threads, non-default
ROB sizes and memory latencies, trace seeds 0–4 and random workloads —
and requires the full :class:`~repro.pipeline.stats.CoreStats` of the
two engines, every thread's full LLSR state, and the whole state of the
memory hierarchy and the predictors to be equal: each cache set's and
TLB's key order (an LRU drift can stay invisible in the statistics for
a long time) and hit/miss counters, the pending fills, the stride
table, the stream buffers, the miss-pattern tables, gshare's table and
history, and the BTB sets.  Two
hypothesis cases per policy keep it tier-1 fast; ``--differential-cases
N`` (see ``conftest.py``) sets the count for the nightly leg.
Hypothesis tries the simplest example first, and each
policy's strategies are rotated to start from a different corner of the
space, so the first cases alone cover every thread count, ROB size,
latency and seed; the second case per policy is random.

The single-thread paths behind the paper's baselines and Table I are
compared the same way: :func:`~repro.experiments.runner.simulate_baseline`
(stats and the per-commit cycle stamps CPI_ST is read from) and
:func:`~repro.experiments.profile.profile_benchmark` (the whole
:class:`~repro.experiments.profile.ProfileResult`: MLP distances,
predictor accuracies, stats), each on a burst-kernel program and on a
program that misses steadily, together with the hierarchy and predictor
state of the finished core.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from conftest import engine_state, needs_cext
from repro import registry
from repro.config import (
    scaled_config,
    single_thread_variant,
    with_memory_latency,
    with_window_size,
)
from repro.experiments import runner
from repro.experiments.profile import clear_profile_cache, profile_benchmark
from repro.experiments.runner import build_core, simulate_baseline
from repro.pipeline import SMTCore
from repro.pipeline.cext import CextCore
from repro.policies import make_policy

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


def _llsr_state(llsr) -> tuple:
    """Everything the LLSR holds: measurements, ring and counters."""
    return (llsr.measured, llsr._bits, llsr._pcs, llsr._head, llsr._total,
            llsr._filled, llsr._last_one_total)


@pytest.fixture
def released_states(monkeypatch):
    """The :func:`engine_state` of every core released, in order."""
    states = []
    release = SMTCore.release

    def record(core):
        states.append(engine_state(core))
        release(core)

    monkeypatch.setattr(SMTCore, "release", record)
    return states


@needs_cext
@pytest.mark.parametrize("policy", POLICIES)
def test_object_and_cext_stats_agree(policy, request):
    cases = request.config.getoption("differential_cases")
    check = settings(max_examples=cases, deadline=None)(
        given(data=st.data())(_check_engines_agree))
    check(policy)


def _check_engines_agree(policy, data):
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

    def run(backend):
        core = build_core(names, cfg, policy, seed=seed, backend=backend)
        stats = core.run(commits, warmup=150)
        return (stats, [_llsr_state(ts.llsr) for ts in core.threads],
                engine_state(core))

    (cext_stats, cext_llsrs, cext_state), (obj_stats, obj_llsrs, obj_state) \
        = run("cext"), run("object")
    case = (f"{policy} {threads}t rob={rob} mem={latency} seed={seed} "
            f"{names} @{commits}")
    assert cext_stats == obj_stats, f"{case}: engines diverged"
    assert cext_llsrs == obj_llsrs, f"{case}: LLSR states diverged"
    assert cext_state[0] == obj_state[0], f"{case}: hierarchies diverged"
    assert cext_state[1] == obj_state[1], f"{case}: predictors diverged"


#: vortex runs a burst kernel (a miss cluster every 20 iterations); mcf
#: misses steadily, with no bursts.
SINGLE_THREAD_PROGRAMS = ("vortex", "mcf")
_ENGINE_CORES = {"object": SMTCore, "cext": CextCore}


@pytest.fixture
def default_engine(monkeypatch):
    """Point unpinned runs (baselines, profiles) at one engine."""
    def use(backend):
        monkeypatch.setattr(runner, "default_backend", lambda: backend)
        assert runner.core_for(make_policy("icount")) \
            is _ENGINE_CORES[backend]
    return use


@needs_cext
@pytest.mark.parametrize("name", SINGLE_THREAD_PROGRAMS)
def test_baseline_agrees(name, default_engine, released_states):
    cfg = single_thread_variant(scaled_config(num_threads=2, scale=16))

    def baseline(backend):
        default_engine(backend)
        return simulate_baseline(name, cfg, 1500, warmup=300, seed=1)

    obj, cext = baseline("object"), baseline("cext")
    assert len(obj.commit_cycles) >= 1500
    assert cext.commit_cycles == obj.commit_cycles
    assert cext.stats == obj.stats
    obj_state, cext_state = released_states
    assert cext_state == obj_state


@needs_cext
@pytest.mark.parametrize("name", SINGLE_THREAD_PROGRAMS)
def test_profile_agrees(name, default_engine, released_states):
    def profile(backend):
        default_engine(backend)
        clear_profile_cache()
        return profile_benchmark(name, max_commits=2000)

    obj, cext = profile("object"), profile("cext")
    clear_profile_cache()
    assert obj.mlp_distances
    assert cext == obj
    obj_state, cext_state = released_states
    assert cext_state == obj_state
