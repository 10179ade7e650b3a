"""The paper's claims: one table entry per figure, ablation or extension.

Each entry defines one experiment once — its workloads and policies (a
quick grid and the ``REPRO_FULL=1`` grid of the paper's full Table
II/III lists), its default budget, a measurement built on the drivers
of :mod:`repro.experiments`, a plain-text renderer, and named checks
that hold the measurement to the paper's shape claims.  Three
front-ends iterate the table:

* ``repro figure <id> [budget]`` (:mod:`repro.experiments.figures`)
  prints one entry's table and checks;
* ``python -m repro.experiments.report`` renders every entry;
* ``python -m pytest benchmarks/ -q`` asserts every entry's checks.

Budgets resolve through :func:`resolve_budget`, so ``REPRO_COMMITS`` and
``REPRO_SCALE`` act alike everywhere.  The defaults must clear the
slow-thread bootstrap scale: in extreme speed-asymmetric pairs
(lucas-fma3d with the prefetcher) the memory-bound thread needs enough
commits past warmup to push 128+ instructions through its LLSR and train
the MLP predictor; below ~16K commits its measurement is all cold-start
transient.

Absolute numbers differ from the paper (synthetic workloads, scaled
caches, short runs), so checks compare *shape* — who wins, roughly by
how much, where trends go.  Most measured values are ratios of two
policies' STP, ANTT or IPC; a paper value, where one exists, is stated
in the same units.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
import math
import operator
import textwrap
from typing import Any

from repro.experiments import paper_data
from repro.experiments.characterize import characterize, format_table
from repro.experiments.defaults import (
    default_commits,
    default_config,
    full_runs,
)
from repro.experiments.policy_comparison import (
    compare_policies,
    format_summary,
    summarize_policies,
)
from repro.experiments.profile import profile_benchmark
from repro.experiments.runner import (
    clear_baseline_cache,
    evaluate_workload,
    run_single,
    run_workload,
    trace_for,
)
from repro.experiments.single_thread import mean_speedup, prefetcher_comparison
from repro.experiments.sweeps import memory_latency_sweep, window_size_sweep
from repro.pipeline import SMTCore
from repro.policies import ALTERNATIVES, MAIN_COMPARISON, make_policy
from repro.report import format_table as text_table
from repro.workloads import (
    FOUR_THREAD_WORKLOADS,
    TABLE_I,
    TWO_THREAD_ILP,
    TWO_THREAD_MIXED,
    TWO_THREAD_MLP,
)

# --------------------------------------------------------------------- #
# checks and entries
# --------------------------------------------------------------------- #

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Check:
    """One named claim evaluated on a measurement."""

    id: str
    claim: str
    measured: float
    predicate: str
    passed: bool
    paper: float | None = None

    def __str__(self) -> str:
        paper = "" if self.paper is None else f"; paper {self.paper:.4g}"
        return (f"{'PASS' if self.passed else 'FAIL'} {self.id}: "
                f"{self.measured:.4g} (want {self.predicate}{paper})\n"
                f"     {self.claim}")


def check(id: str, claim: str, measured: float, op: str, bound: float,
          paper: float | None = None) -> Check:
    """Evaluate ``measured <op> bound``; the predicate text and the test
    come from the same ``op`` and ``bound``."""
    measured = float(measured)
    return Check(id, claim, measured, f"{op} {bound:g}",
                 bool(_OPS[op](measured, bound)), paper)


def ratio(a: float, b: float) -> float:
    """``a / b`` for non-negative values, with ``a / 0`` as ``inf`` (or
    0 when ``a`` is 0 too), so ``ratio(a, b) <= k`` reads ``a <= b * k``."""
    if b:
        return a / b
    return math.inf if a > 0 else 0.0


def format_checks(checks) -> str:
    if not checks:
        return "checks: none (this entry records measurements only)"
    passed = sum(c.passed for c in checks)
    lines = [f"checks: {passed}/{len(checks)} pass"]
    lines += [f"  {line}" for c in checks for line in str(c).split("\n")]
    return "\n".join(lines)


@dataclass(frozen=True)
class Entry:
    """One figure, ablation or extension of the evaluation."""

    id: str
    title: str
    budget: int
    #: ``(grid, budget) -> data``, built on the experiment drivers.
    measure: Callable[[Any, int], Any]
    render: Callable[[Any], str]
    checks: Callable[[Any], list[Check]]
    quick: Any = None
    #: The grid under ``REPRO_FULL=1``; None when it equals ``quick``.
    full: Any = None

    def grid(self) -> Any:
        if full_runs() and self.full is not None:
            return self.full
        return self.quick

    def run(self, budget: int | None = None) -> Outcome:
        if budget is None:
            budget = resolve_budget(self)
        data = self.measure(self.grid(), budget)
        return Outcome(self, budget, self.render(data),
                       tuple(self.checks(data)))


@dataclass(frozen=True)
class Outcome:
    entry: Entry
    budget: int
    text: str
    checks: tuple[Check, ...]


def resolve_budget(entry: Entry) -> int:
    """The entry's budget after ``REPRO_COMMITS`` and ``REPRO_SCALE``."""
    return default_commits(entry.budget)


# --------------------------------------------------------------------- #
# grids and shared helpers
# --------------------------------------------------------------------- #

PROGRAMS = tuple(sorted(TABLE_I))

#: Representative two-thread subsets by Table II class.
QUICK_2T = {
    "ILP": (("vortex", "parser"), ("crafty", "twolf"), ("gcc", "gap")),
    "MLP": (("mcf", "swim"), ("mcf", "galgel"), ("lucas", "fma3d"),
            ("swim", "mesa")),
    "MIX": (("swim", "perlbmk"), ("fma3d", "twolf"), ("vpr", "mcf"),
            ("equake", "perlbmk")),
}
FULL_2T = {"ILP": TWO_THREAD_ILP, "MLP": TWO_THREAD_MLP,
           "MIX": TWO_THREAD_MIXED}
QUICK_4T = (("vortex", "parser", "crafty", "twolf"),
            ("mgrid", "vortex", "swim", "twolf"),
            ("lucas", "fma3d", "equake", "perlbmk"),
            ("apsi", "mesa", "mcf", "swim"))
FULL_4T = tuple(w for group in FOUR_THREAD_WORKLOADS.values() for w in group)

SWEEP_PAIRS = (("swim", "twolf"), ("vpr", "mcf"), ("fma3d", "twolf"))
PARTITIONING = ("icount", "static", "dcra", "mlp_flush")

_HEAD2 = paper_data.TWO_THREAD_HEADLINES
_HEAD4 = paper_data.FOUR_THREAD_HEADLINES


def _note(text: str) -> str:
    """Prose under a table, wrapped paragraph by paragraph."""
    return "\n".join(textwrap.fill(p, 78) for p in text.split("\n"))


def _policy_groups(policies, threads=2):
    """Measure: one batch over every group, summarized per group."""
    def measure(groups, budget):
        if not isinstance(groups, dict):
            groups = {f"{threads}T": groups}
        workloads = [w for ws in groups.values() for w in ws]
        cells = compare_policies(workloads, policies,
                                 default_config(num_threads=threads), budget)
        return {label: summarize_policies(cells, ws, policies)
                for label, ws in groups.items()}
    return measure


def _render_groups(baseline="icount", note=""):
    def render(summaries):
        parts = [f"[{label}]\n{format_summary(s, baseline=baseline)}"
                 for label, s in summaries.items()]
        return "\n\n".join(parts + ([_note(note)] if note else []))
    return render


def _stp(summary, a, b):
    return ratio(summary[a][0], summary[b][0])


def _antt(summary, a, b):
    return ratio(summary[a][1], summary[b][1])


def _render_sweep(x_name):
    def render(results):
        policies = list(next(iter(results.values())))
        rows = [(str(x), *(f"{s[p][0]:.3f}/{s[p][1]:.3f}" for p in policies))
                for x, s in results.items()]
        return text_table((x_name, *policies), rows) + "\n" + _note(
            "(each cell: STP / ANTT relative to ICOUNT at the same design "
            "point; STP > 1 and ANTT < 1 are better)")
    return render


def _with(cfg, **parts):
    """``cfg`` with fields of its sub-configs replaced, e.g.
    ``memory={"cancel_squashed_fills": False}``."""
    return replace(cfg, **{name: replace(getattr(cfg, name), **fields)
                           for name, fields in parts.items()})


# --------------------------------------------------------------------- #
# Table I / Figures 1, 4, 5, 6-8: single-threaded characterization
# --------------------------------------------------------------------- #

def _table1_render(rows):
    agree = sum(r.category_matches_paper for r in rows)
    return (f"{format_table(rows)}\n\nILP/MLP classification agreement: "
            f"{agree}/{len(rows)} benchmarks match the paper")


def _table1_checks(rows):
    agree = sum(r.category_matches_paper for r in rows)
    return [check("table1.class_agreement",
                  "the ILP/MLP class matches the paper on all but 3 programs",
                  agree, ">=", len(TABLE_I) - 3)]


FIG4_PROGRAMS = ("fma3d", "applu", "swim", "mcf", "equake", "lucas")
FIG4_POINTS = (0, 16, 32, 48, 64, 80, 96, 112, 127)


def _fig4_measure(programs, budget):
    return {name: dict(profile_benchmark(name, max_commits=budget)
                       .distance_cdf(list(FIG4_POINTS)))
            for name in programs}


def _fig4_render(cdfs):
    rows = [(name, *(f"{cdf.get(p, 0.0):.2f}" for p in FIG4_POINTS))
            for name, cdf in cdfs.items()]
    paper = "; ".join(f"{k}: {v}"
                      for k, v in paper_data.MLP_DISTANCE_SHAPES.items())
    return (text_table(("program", *map(str, FIG4_POINTS)), rows)
            + "\n" + _note("(fraction of measured MLP distances <= the "
                            f"column distance)\npaper: {paper}"))


def _fig4_checks(cdfs):
    return [
        check("fig4.lucas_short", "lucas's MLP lives at short distances "
              "(CDF at 48)", cdfs["lucas"].get(48, 0.0), ">", 0.9),
        check("fig4.mcf_long", "mcf's MLP extends to long distances "
              "(CDF at 48)", cdfs["mcf"].get(48, 0.0), "<", 0.6),
    ]


STREAMING = ("swim", "applu", "fma3d", "mgrid", "lucas", "wupwise")


def _fig5_render(rows):
    table = text_table(("benchmark", "IPC w/ pf", "IPC w/o", "speedup"),
                       [(r.name, r.ipc_with, r.ipc_without,
                         f"{r.speedup:.2f}x") for r in rows])
    return (f"{table}\n\nharmonic-mean speedup: {mean_speedup(rows):.3f}x "
            f"(paper: {paper_data.PREFETCHER_HMEAN_SPEEDUP}x)")


def _fig5_checks(rows):
    return [
        check("fig5.hmean_speedup", "the prefetcher helps on average "
              "(harmonic-mean IPC speedup)", mean_speedup(rows), ">", 1.0,
              paper=paper_data.PREFETCHER_HMEAN_SPEEDUP),
        check("fig5.streaming_speedup", "streaming codes benefit "
              "substantially (best speedup among them)",
              max(r.speedup for r in rows if r.name in STREAMING), ">", 1.2),
    ]


def _fig6_averages(profiles):
    with_loads = [p for p in profiles.values()
                  if p.stats.threads[0].lll_pred_loads]
    mlp = [p for name, p in profiles.items()
           if TABLE_I[name].category == "MLP"]
    return (sum(p.lll_accuracy for p in with_loads) / len(with_loads),
            sum(p.mlp_binary_accuracy for p in mlp) / len(mlp),
            sum(p.mlp_distance_accuracy for p in mlp) / len(mlp))


def _fig6_render(profiles):
    table = text_table(
        ("benchmark", "LLL acc", "miss acc", "MLP binary", "MLP dist"),
        [(name, f"{p.lll_accuracy:.1%}", f"{p.lll_miss_accuracy:.1%}",
          f"{p.mlp_binary_accuracy:.1%}", f"{p.mlp_distance_accuracy:.1%}")
         for name, p in profiles.items()])
    lll, binary, dist = _fig6_averages(profiles)
    return (f"{table}\n\n"
            f"average LLL hit/miss accuracy: {lll:.1%} (paper: "
            f"{paper_data.LLL_PREDICTOR['mean_accuracy_per_load']:.1%})\n"
            f"average binary MLP accuracy (MLP codes): {binary:.1%} "
            f"(paper: {paper_data.MLP_PREDICTOR['binary_accuracy']:.1%})\n"
            f"average far-enough distance accuracy (MLP codes): {dist:.1%} "
            f"(paper: {paper_data.MLP_PREDICTOR['distance_accuracy']:.1%})")


def _fig6_checks(profiles):
    lll, binary, _dist = _fig6_averages(profiles)
    return [
        check("fig6.lll_accuracy", "mean long-latency load predictor "
              "accuracy per load", lll, ">", 0.90,
              paper=paper_data.LLL_PREDICTOR["mean_accuracy_per_load"]),
        check("fig6.mlp_binary_accuracy", "mean binary MLP prediction "
              "accuracy on MLP-intensive codes", binary, ">", 0.70,
              paper=paper_data.MLP_PREDICTOR["binary_accuracy"]),
    ]


# --------------------------------------------------------------------- #
# Figures 9-23: policy comparisons and sweeps
# --------------------------------------------------------------------- #

def _fig9_checks(s):
    mlp, mix, ilp = s["MLP"], s["MIX"], s["ILP"]

    def best_antt(summary):
        return ratio(summary["mlp_flush"][1],
                     min(v[1] for v in summary.values()))
    return [
        check("fig9.mlp_best_antt", "mlp_flush's ANTT is within 10% of the "
              "best policy's on MLP workloads", best_antt(mlp), "<=", 1.10),
        check("fig9.mix_best_antt", "mlp_flush's ANTT is within 5% of the "
              "best policy's on mixed workloads", best_antt(mix), "<=", 1.05),
        check("fig9.mlp_stp_vs_icount", "mlp_flush beats ICOUNT's STP on "
              "MLP workloads", _stp(mlp, "mlp_flush", "icount"), ">", 1.0,
              paper=1 + _HEAD2[("MLP", "icount")][0]),
        check("fig9.mix_stp_vs_icount", "mlp_flush beats ICOUNT's STP on "
              "mixed workloads", _stp(mix, "mlp_flush", "icount"), ">", 1.0,
              paper=1 + _HEAD2[("MIX", "icount")][0]),
        check("fig9.ilp_stp_vs_flush", "mlp_flush's STP is within 10% of "
              "flush's on ILP workloads (|ratio - 1|)",
              abs(_stp(ilp, "mlp_flush", "flush") - 1.0), "<", 0.10),
    ]


_FIG9_NOTE = (
    "paper (Section 6.3.1): mlp_flush vs ICOUNT on MLP workloads "
    f"+{_HEAD2[('MLP', 'icount')][0]:.1%} STP / "
    f"-{_HEAD2[('MLP', 'icount')][1]:.1%} ANTT; on mixed workloads "
    f"+{_HEAD2[('MIX', 'icount')][0]:.1%} STP / "
    f"-{_HEAD2[('MIX', 'icount')][1]:.1%} ANTT, and "
    f"-{_HEAD2[('MIX', 'flush')][1]:.1%} ANTT vs flush; on ILP workloads "
    "mlp_flush ~ flush")

FIG11_PAIRS = (("mcf", "swim"), ("mcf", "galgel"), ("lucas", "fma3d"),
               ("swim", "twolf"), ("fma3d", "twolf"), ("vpr", "mcf"))
FIG11_POLICIES = ("icount", "flush", "mlp_flush")


def _fig11_measure(pairs, budget):
    cfg = default_config(num_threads=2)
    return {(names, policy): evaluate_workload(names, cfg, policy,
                                               budget).ipcs
            for names in pairs for policy in FIG11_POLICIES}


def _fig11_render(ipcs):
    table = text_table(("workload", "policy", "IPC(t0)", "IPC(t1)", "total"),
                       [("-".join(names), policy, *v, sum(v))
                        for (names, policy), v in ipcs.items()])
    return table + "\n" + _note(
        "paper: blind flush serializes mcf's MLP; mlp_flush keeps mcf near "
        "its ICOUNT speed while galgel keeps most of its gain")


def _fig11_checks(ipcs):
    pair = ("mcf", "galgel")
    return [check("fig11.mcf_ipc_kept", "mlp_flush keeps mcf's IPC (paired "
                  "with galgel) within 5% of flush's or better",
                  ratio(ipcs[(pair, "mlp_flush")][0],
                        ipcs[(pair, "flush")][0]), ">=", 0.95)]


def _fig13_checks(s):
    s = s["4T"]
    return [
        check("fig13.antt_vs_icount", "mlp_flush improves ANTT over ICOUNT "
              "at four threads", _antt(s, "mlp_flush", "icount"), "<", 1.0,
              paper=1 - _HEAD4[("ALL", "icount")][1]),
        check("fig13.stp_vs_icount", "mlp_flush's STP is within 5% of "
              "ICOUNT's or better at four threads",
              _stp(s, "mlp_flush", "icount"), ">", 0.95,
              paper=1 + _HEAD4[("ALL", "icount")][0]),
    ]


_FIG13_NOTE = (
    f"paper (Section 6.3.2): mlp_flush ANTT "
    f"{_HEAD4[('ALL', 'icount')][1]:.1%} better than ICOUNT and "
    f"{_HEAD4[('ALL', 'flush')][1]:.1%} better than flush; STP ~ flush, "
    f"~{_HEAD4[('ALL', 'icount')][0]:.0%} over ICOUNT")

MEMORY_LATENCIES = (200, 400, 600, 800)
WINDOW_SIZES = (128, 256, 512, 1024)


def _fig15_measure(pairs, budget):
    return memory_latency_sweep(
        pairs, ("icount", "stall", "flush", "mlp_flush"),
        latencies=MEMORY_LATENCIES, cfg=default_config(2),
        max_commits=budget)


def _fig15_checks(results):
    first = results[MEMORY_LATENCIES[0]]["mlp_flush"][0]
    last = results[MEMORY_LATENCIES[-1]]["mlp_flush"][0]
    return [
        check("fig15.stp_at_800", "mlp_flush beats ICOUNT's STP at the "
              "longest latency (STP relative to ICOUNT)", last, ">", 1.0),
        check("fig15.stp_trend", "mlp_flush's STP advantage does not shrink "
              "from 200 to 800 cycles by more than 10% (ratio of the two)",
              ratio(last, first), ">=", 0.9),
    ]


def _fig17_measure(pairs, budget):
    return window_size_sweep(pairs, ("icount", "flush", "mlp_flush"),
                             rob_sizes=WINDOW_SIZES, cfg=default_config(2),
                             max_commits=budget)


def _fig17_checks(results):
    return [check("fig17.antt_vs_flush_at_1024", "mlp_flush's ANTT "
                  "advantage over flush survives the largest window",
                  _antt(results[WINDOW_SIZES[-1]], "mlp_flush", "flush"),
                  "<=", 1.05)]


def _fig20_checks(s):
    return [check("fig20.distance_vs_binary_antt", "distance prediction (b) "
                  "does not lose ANTT to binary prediction (c) on MLP "
                  "workloads", _antt(s["MLP"], "mlp_flush",
                                     "binary_mlp_flush"), "<=", 1.10)]


def _fig22_checks(s):
    mlp = s["MLP"]
    mem_antt = paper_data.PARTITIONING_HEADLINES["mlpflush_better_mem_antt"]
    return [
        check("fig22.dcra_stp_vs_static", "DCRA's STP is within 10% of "
              "static partitioning's or better on MLP workloads",
              _stp(mlp, "dcra", "static"), ">=", 0.9),
        check("fig22.antt_vs_icount", "mlp_flush improves ANTT over ICOUNT "
              "on MLP workloads", _antt(mlp, "mlp_flush", "icount"),
              "<", 1.0),
        check("fig22.antt_vs_dcra", "mlp_flush's ANTT is within 15% of "
              "DCRA's on MLP workloads", _antt(mlp, "mlp_flush", "dcra"),
              "<=", 1.15, paper=1 - mem_antt),
    ]


_FIG22_NOTE = (
    "paper (Section 6.6): DCRA edges mlp_flush on ILP workloads (~3%); "
    "mlp_flush gives "
    f"{paper_data.PARTITIONING_HEADLINES['mlpflush_better_mem_antt']:.1%} "
    "better ANTT on MLP and mixed workloads.\n"
    "Known deviation: on these synthetic pairs DCRA's fixed slow-thread "
    "bonus edges mlp_flush on ANTT.  Every dynamic scheme still clearly "
    "beats ICOUNT and static splitting, but the DCRA-vs-mlp_flush margin "
    "sits inside this simulator's noise band and flips sign against the "
    "paper.")
_FIG22_4T_NOTE = (
    "paper (Section 6.6): mlp_flush gives "
    f"{paper_data.PARTITIONING_HEADLINES['mlpflush_better_4t_mlp_antt']:.1%}"
    " better ANTT than DCRA on four-thread MLP workloads")

# --------------------------------------------------------------------- #
# extensions beyond the paper
# --------------------------------------------------------------------- #

RUNAHEAD_PAIRS = (("mcf", "swim"), ("mcf", "galgel"), ("lucas", "fma3d"),
                  ("swim", "twolf"), ("vpr", "mcf"))
RUNAHEAD_POLICIES = ("icount", "flush", "mlp_flush", "runahead",
                     "mlp_runahead")


def _runahead_measure(pairs, budget):
    cfg = default_config(num_threads=2)
    cells = compare_policies(pairs, RUNAHEAD_POLICIES, cfg, budget)
    summary = summarize_policies(cells, pairs, RUNAHEAD_POLICIES)
    episodes = {policy: sum(t.runahead_entries for t in run_workload(
                    ("mcf", "swim"), cfg, policy, budget)[0].threads)
                for policy in ("runahead", "mlp_runahead")}
    return summary, episodes


def _runahead_render(data):
    summary, episodes = data
    return (f"{format_summary(summary)}\n\nrunahead episodes on mcf-swim: "
            f"plain={episodes['runahead']}, "
            f"MLP-gated={episodes['mlp_runahead']}\n" + _note(
                "Reading: runahead frees resources like flush but keeps the "
                "thread prefetching, so it wins on memory-bound mixes; the "
                "MLP-gated hybrid serves short-distance misses with the "
                "cheaper flush (examples/runahead_hybrid.py sweeps its "
                "threshold)."))


def _runahead_checks(data):
    s, episodes = data
    return [
        check("ext-runahead.stp_vs_flush", "runahead out-throughputs blind "
              "flush on MLP-heavy mixes", _stp(s, "runahead", "flush"),
              ">", 1.0),
        check("ext-runahead.antt_vs_icount", "runahead improves ANTT over "
              "ICOUNT", _antt(s, "runahead", "icount"), "<", 1.0),
        check("ext-runahead.hybrid_stp", "the MLP-gated hybrid's STP is "
              "within 2% of its flush fallback's or better",
              _stp(s, "mlp_runahead", "mlp_flush"), ">", 0.98),
        check("ext-runahead.hybrid_episodes", "gating does not materially "
              "increase runahead episodes on mcf-swim",
              ratio(episodes["mlp_runahead"], episodes["runahead"]),
              "<=", 1.25),
    ]


PARTITIONING_PAIRS = (("mcf", "swim"), ("swim", "galgel"),
                      ("lucas", "fma3d"), ("swim", "twolf"), ("vpr", "mcf"))


def _partitioning_checks(summaries):
    s = summaries["2T"]
    return [
        check("ext-partitioning.mlp_flush_stp", "mlp_flush out-throughputs "
              "ICOUNT on MLP mixes", _stp(s, "mlp_flush", "icount"),
              ">", 1.0),
        check("ext-partitioning.mlp_dcra_antt", "distance-scaled bonuses do "
              "not lose more than 5% ANTT to DCRA's fixed ones",
              _antt(s, "mlp_dcra", "dcra"), "<=", 1.05),
        check("ext-partitioning.learning_stp", "learning partitioning's STP "
              "stays within 15% of ICOUNT's", _stp(s, "learning", "icount"),
              ">", 0.85),
        check("ext-partitioning.learning_antt", "even slow feedback beats no "
              "resource management on ANTT", _antt(s, "learning", "icount"),
              "<", 1.0),
    ]


_PARTITIONING_NOTE = (
    "Reading: MLP-distance awareness improves both its flush host "
    "(mlp_flush vs icount) and its partitioning host (mlp_dcra vs dcra).  "
    "DG's 2-miss gate is strong on symmetric MLP+MLP pairs but cannot open "
    "the window further for long-distance programs; epoch-based learning "
    "trails every event-driven scheme on these short phase-heavy runs, the "
    "paper's responsiveness argument.")

CGMT_PAIRS = (("swim", "twolf"), ("mcf", "galgel"), ("applu", "twolf"))


def _cgmt_measure(pairs, budget):
    cfg = default_config(num_threads=2)
    rows = {}
    for names in pairs:
        for policy in ("cgmt", "mlp_cgmt"):
            result = evaluate_workload(names, cfg, policy, budget)
            stats, core = run_workload(names, cfg, policy, budget)
            rows[("-".join(names), policy)] = (
                result.stp, result.antt, result.ipcs[0],
                stats.threads[0].squashed, core.policy.switches)
    return rows


def _cgmt_render(rows):
    table = text_table(("workload", "policy", "STP", "ANTT", "IPC(mlp)",
                        "squashed", "switches"),
                       [(*key, *row) for key, row in rows.items()])
    return table + "\n" + _note(
        "Reading: waiting for the burst's last miss before switching keeps "
        "the memory thread's in-flight work, so squashes drop on every mix; "
        "IPC gains where the MLP window is short relative to the quantum "
        "(swim), while very long windows (applu) hold shared resources "
        "across the switch.")


def _cgmt_checks(rows):
    pairs = sorted({w for w, _ in rows})
    return [
        check("ext-cgmt.squashed", "MLP-aware switching squashes no more "
              "than switch-on-miss on every mix (worst ratio)",
              max(ratio(rows[(w, "mlp_cgmt")][3], rows[(w, "cgmt")][3])
                  for w in pairs), "<=", 1.0),
        check("ext-cgmt.ipc_wins", "MLP-aware switching keeps the memory "
              "thread's IPC within 2% or better on at least one mix "
              "(count)", sum(rows[(w, "mlp_cgmt")][2]
                             >= rows[(w, "cgmt")][2] * 0.98 for w in pairs),
              ">=", 1),
    ]


# --------------------------------------------------------------------- #
# ablations
# --------------------------------------------------------------------- #

DEPENDENCE_PAIRS = (("mcf", "twolf"), ("swim", "twolf"))


def _dependence_measure(pairs, budget):
    rows = {}
    for dep_aware in (False, True):
        cfg = _with(default_config(2),
                    predictors={"dependence_aware": dep_aware})
        clear_baseline_cache(disk=False)
        for names in pairs:
            result = evaluate_workload(names, cfg, "mlp_flush", budget)
            _, core = run_workload(names, cfg, "mlp_flush", budget)
            llsr = core.threads[0].llsr
            measured = [d for _, d in llsr.measured]
            rows[("dep-aware" if dep_aware else "plain", "-".join(names))] = (
                result.stp, result.antt, llsr.suppressed,
                sum(measured) / len(measured) if measured else 0.0)
    clear_baseline_cache(disk=False)
    return rows


def _dependence_render(rows):
    table = text_table(("LLSR", "workload", "STP", "ANTT", "suppressed",
                        "mean dist"),
                       [(*key, *row) for key, row in rows.items()])
    return table + "\n" + _note(
        "Reading: dependent chase misses cannot overlap, so counting them "
        "only buys mcf window it cannot use; filtering them returns that "
        "window to the co-runner.  (Under mlp_flush the runs diverge, so the "
        "mean distance can move either way; tests/test_llsr_dependence.py "
        "checks the per-PC shrink under ICOUNT.)")


def _dependence_checks(rows):
    def suppressed(llsr, workload):
        return rows[(llsr, workload)][2]
    return [
        check("ablation-dependence-llsr.mcf_suppressed", "mcf's chase misses "
              "are recognized as dependent (suppressed insertions)",
              suppressed("dep-aware", "mcf-twolf"), ">", 0),
        check("ablation-dependence-llsr.plain_filters_nothing", "the plain "
              "LLSR filters nothing", suppressed("plain", "mcf-twolf"),
              "==", 0),
        check("ablation-dependence-llsr.swim_rarer", "stream misses are "
              "independent: swim suppresses no more than mcf (ratio)",
              ratio(suppressed("dep-aware", "swim-twolf"),
                    suppressed("dep-aware", "mcf-twolf")), "<=", 1.0),
    ]


LLSR_LENGTHS = (32, 64, 128, 256)


def _llsr_length_measure(programs, budget):
    out = {}
    for name in programs:
        for length in LLSR_LENGTHS:
            cfg = replace(default_config(num_threads=1),
                          llsr_length_override=length)
            core = SMTCore(cfg, [trace_for(name, cfg)], make_policy("icount"))
            core.run(budget)
            ds = sorted(d for _, d in core.threads[0].llsr.measured)
            out[(name, length)] = (
                len(ds), sum(ds) / len(ds) if ds else 0.0,
                ds[int(0.95 * (len(ds) - 1))] if ds else 0)
    return out


def _llsr_length_render(rows):
    table = text_table(("program", "length", "samples", "mean", "p95"),
                       [(*key, *row) for key, row in rows.items()])
    return table + "\n" + _note(
        "paper (Fig. 4): lucas's MLP lives below distance 40; mcf's extends "
        "past 100, so short LLSRs clip mcf but not lucas")


def _llsr_length_checks(rows):
    programs = sorted({name for name, _ in rows})
    p95 = {key: row[2] for key, row in rows.items()}
    drops = sum(p95[(name, a)] > p95[(name, b)] for name in programs
                for a, b in zip(LLSR_LENGTHS, LLSR_LENGTHS[1:]))
    return [
        check("ablation-llsr-length.p95_within_length", "no measured "
              "distance exceeds the LLSR (worst p95 / length)",
              max(ratio(v, length) for (_, length), v in p95.items()),
              "<=", 1.0),
        check("ablation-llsr-length.p95_monotone", "the p95 distance never "
              "drops as the LLSR grows (drops counted)", drops, "==", 0),
        check("ablation-llsr-length.mcf_long_range", "mcf's long-range MLP "
              "keeps growing with the window (p95 at 256 / at 32)",
              ratio(p95[("mcf", 256)], p95[("mcf", 32)]), ">", 1.0),
    ]


LLL_KINDS = ("miss_pattern", "last_value", "two_bit")
ACCURACY_PROGRAMS = ("swim", "applu", "equake", "mcf")


def _predictor_config(kind, entries=2048, num_threads=2):
    return _with(default_config(num_threads),
                 predictors={"lll_kind": kind, "lll_entries": entries})


def _predictors_measure(programs, budget):
    accuracy = {
        kind: {name: run_single(name, _predictor_config(kind, num_threads=1),
                                budget, warmup=1000)
               .threads[0].lll_predictor_accuracy for name in programs}
        for kind in LLL_KINDS}
    policy = {}
    for kind in LLL_KINDS:
        clear_baseline_cache(disk=False)
        result = evaluate_workload(("swim", "twolf"), _predictor_config(kind),
                                   "mlp_stall", budget)
        policy[kind] = (result.stp, result.antt)
    small = run_single("swim", _predictor_config("miss_pattern", entries=64,
                                                 num_threads=1),
                       budget, warmup=1000)
    clear_baseline_cache(disk=False)
    return accuracy, policy, small.threads[0].lll_predictor_accuracy


def _predictors_render(data):
    accuracy, policy, small = data
    table = text_table(("predictor", *ACCURACY_PROGRAMS),
                       [(kind, *per.values())
                        for kind, per in accuracy.items()])
    runs = ", ".join(f"{k}: STP={s:.3f}/ANTT={a:.3f}"
                     for k, (s, a) in policy.items())
    return (f"{table}\n\n" + _note(f"mlp_stall on swim-twolf: {runs}")
            + "\nmiss_pattern on swim, 2048 vs 64 entries: "
            f"{accuracy['miss_pattern']['swim']:.3f} vs {small:.3f}\n"
            + _note("paper (Section 4.1): the miss-pattern predictor "
                    "outperforms the alternatives"))


def _predictors_checks(data):
    accuracy, _policy, small = data
    mean = {k: sum(v.values()) / len(v) for k, v in accuracy.items()}
    return [
        check("ablation-predictors.miss_pattern_vs_two_bit", "miss-pattern "
              "at least matches the 2-bit counter (mean accuracy "
              "difference)", mean["miss_pattern"] - mean["two_bit"],
              ">=", -0.02),
        check("ablation-predictors.miss_pattern_accuracy", "miss-pattern "
              "mean accuracy stays in a plausible range",
              mean["miss_pattern"], ">=", 0.85,
              paper=paper_data.LLL_PREDICTOR["mean_accuracy_per_load"]),
        check("ablation-predictors.small_table", "a 32x smaller table does "
              "not outperform the full one on swim (accuracy difference)",
              small - accuracy["miss_pattern"]["swim"], "<=", 0.02),
    ]


SQUASH_PAIRS = (("mcf", "galgel"), ("swim", "twolf"), ("lucas", "fma3d"))


def _squash_measure(pairs, budget):
    rows = {}
    for cancel in (True, False):
        cfg = _with(default_config(2),
                    memory={"cancel_squashed_fills": cancel})
        clear_baseline_cache(disk=False)
        for names in pairs:
            for policy in ("flush", "mlp_flush"):
                r = evaluate_workload(names, cfg, policy, budget)
                rows[("cancelled" if cancel else "survive", "-".join(names),
                      policy)] = (r.stp, r.antt)
    clear_baseline_cache(disk=False)
    return rows


def _squash_render(rows):
    table = text_table(("fills", "workload", "policy", "STP", "ANTT"),
                       [(*key, *row) for key, row in rows.items()])
    return table + "\n" + _note(
        "Reading: with fills surviving, blind flush stops destroying MLP "
        "and closes much of the gap to the MLP-aware policy; the paper's "
        "contrast depends on era-accurate squash semantics.")


def _squash_checks(rows):
    return [check("ablation-squash-semantics.results", "the ablation "
                  "produces results (rows)", len(rows), ">", 0)]


# --------------------------------------------------------------------- #
# the table
# --------------------------------------------------------------------- #

ENTRIES: tuple[Entry, ...] = (
    Entry("table1", "Table I / Figure 1: MLP characterization (measured vs "
          "paper)", 12_000,
          lambda programs, budget: characterize(list(programs),
                                                max_commits=budget),
          _table1_render, _table1_checks, quick=PROGRAMS),
    Entry("fig4", "Figure 4: CDF of the measured MLP distance (128-entry "
          "LLSR)", 12_000, _fig4_measure, _fig4_render, _fig4_checks,
          quick=FIG4_PROGRAMS),
    Entry("fig5", "Figure 5: IPC with vs without hardware prefetching",
          10_000,
          lambda programs, budget: prefetcher_comparison(
              list(programs), max_commits=budget),
          _fig5_render, _fig5_checks, quick=PROGRAMS),
    Entry("fig6", "Figures 6/7/8: predictor accuracies", 12_000,
          lambda programs, budget: {
              name: profile_benchmark(name, max_commits=budget)
              for name in programs},
          _fig6_render, _fig6_checks, quick=PROGRAMS),
    Entry("fig9", "Figures 9/10: two-thread STP & ANTT by policy and class",
          20_000, _policy_groups(MAIN_COMPARISON), _render_groups(
              note=_FIG9_NOTE), _fig9_checks, quick=QUICK_2T, full=FULL_2T),
    Entry("fig11", "Figures 11/12: per-thread IPC stacks", 20_000,
          _fig11_measure, _fig11_render, _fig11_checks, quick=FIG11_PAIRS),
    Entry("fig13", "Figures 13/14: four-thread STP & ANTT by policy", 6_000,
          _policy_groups(MAIN_COMPARISON, threads=4),
          _render_groups(note=_FIG13_NOTE), _fig13_checks, quick=QUICK_4T,
          full=FULL_4T),
    Entry("fig15", "Figures 15/16: STP & ANTT vs memory latency", 6_000,
          _fig15_measure, _render_sweep("latency"), _fig15_checks,
          quick=SWEEP_PAIRS),
    Entry("fig17", "Figures 17/18: STP & ANTT vs window size", 6_000,
          _fig17_measure, _render_sweep("ROB"), _fig17_checks,
          quick=SWEEP_PAIRS),
    Entry("fig20", "Figures 20/21: alternative MLP-aware policies", 20_000,
          _policy_groups(ALTERNATIVES), _render_groups(
              baseline="flush", note="(a) flush, (b) mlp_flush, (c) "
              "binary_mlp_flush, (d) mlp_flush_rs, (e) binary_mlp_flush_rs.  "
              "paper (Section 6.5): distance prediction beats binary "
              "prediction, (b) > (c) and (d) > (e); (d) wins on MLP-heavy "
              "pairs, (b) on mixed pairs"), _fig20_checks,
          quick={k: QUICK_2T[k] for k in ("MLP", "MIX")},
          full={k: FULL_2T[k] for k in ("MLP", "MIX")}),
    Entry("fig22", "Figures 22/23: MLP-aware flush vs static partitioning "
          "and DCRA (two threads)", 20_000, _policy_groups(PARTITIONING),
          _render_groups(note=_FIG22_NOTE), _fig22_checks, quick=QUICK_2T,
          full=FULL_2T),
    Entry("fig22-4t", "Figures 22/23: MLP-aware flush vs static "
          "partitioning and DCRA (four threads)", 6_000,
          _policy_groups(PARTITIONING, threads=4),
          _render_groups(note=_FIG22_4T_NOTE),
          lambda _summaries: [], quick=QUICK_4T, full=FULL_4T),
    Entry("ext-runahead", "Extension (Section 7.2): runahead threads vs "
          "the flush family", 20_000, _runahead_measure, _runahead_render,
          _runahead_checks, quick=RUNAHEAD_PAIRS),
    Entry("ext-partitioning", "Extension: gating, learning and MLP-aware "
          "DCRA vs MLP-aware flush", 20_000,
          _policy_groups(("icount", "dg", "pdg", "learning", "dcra",
                          "mlp_dcra", "mlp_flush")),
          _render_groups(note=_PARTITIONING_NOTE), _partitioning_checks,
          quick=PARTITIONING_PAIRS),
    Entry("ext-cgmt", "Extension (Section 7.3): CGMT switch-on-miss vs "
          "MLP-aware switching", 20_000, _cgmt_measure, _cgmt_render,
          _cgmt_checks, quick=CGMT_PAIRS),
    Entry("ablation-dependence-llsr", "Ablation (Section 4.2): plain vs "
          "dependence-aware LLSR under mlp_flush", 20_000,
          _dependence_measure, _dependence_render, _dependence_checks,
          quick=DEPENDENCE_PAIRS),
    Entry("ablation-llsr-length", "Ablation: LLSR length vs observable MLP "
          "distance", 20_000, _llsr_length_measure, _llsr_length_render,
          _llsr_length_checks, quick=("lucas", "mcf")),
    Entry("ablation-predictors", "Ablation (Section 4.1): long-latency load "
          "predictor design", 20_000, _predictors_measure,
          _predictors_render, _predictors_checks, quick=ACCURACY_PROGRAMS),
    Entry("ablation-squash-semantics", "Ablation: cancelled (paper-era) vs "
          "surviving (modern) squashed fills", 20_000, _squash_measure,
          _squash_render, _squash_checks, quick=SQUASH_PAIRS),
)

BY_ID = {entry.id: entry for entry in ENTRIES}
