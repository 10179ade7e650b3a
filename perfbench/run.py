"""End-to-end benchmark of the Fig. 9 and Table I commands.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig9_cold --seed 0 --seconds 45 --trace 0

Workloads (see README.md in this directory for why each exists, and why
``BENCHMARK.json`` gates only ``fig9_cold`` and ``table1``):

* ``fig9_cold``    the Fig. 9 grid (72 cells, 13 shared baselines) on an
                   empty result store, one worker;
* ``fig9_warm``    the same grid at three consecutive seeds, resolved
                   from a store an untimed set-up filled;
* ``fig9_cold_j2`` ``fig9_cold`` with two worker processes;
* ``table1``       ``characterize()`` over all 26 programs.

Every pass runs in a fresh interpreter (``passes.py``) with a hermetic
``REPRO_*`` environment, so each is what a user's command pays.  Passes
repeat until the next one would overrun ``--seconds``.  The run checks
every result against ``reference.json``, prints the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced pass (``--trace
1``), and ends with one JSON line.  Run state lives under ``.perfbench/``
at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from pathlib import Path
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
CEXT_CACHE = STATE / "cext"

#: Seeds ``0 .. REFERENCE_SEEDS-1`` of the Fig. 9 grid are recorded in
#: ``reference.json``.
REFERENCE_SEEDS = 32
#: Fig. 9 and Table I instruction budgets, and the warmup for both.
FIG9_BUDGET = 3000
TABLE1_BUDGET = 2000
WARMUP = 1000
#: Consecutive seeds ``fig9_warm`` resolves per pass.
WARM_SEEDS = 3
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_SAMPLES = 9
#: Iterations of the fixed host-speed loop timed before every pass.
CALIBRATION_LOOPS = 400_000
#: A pass still running this many seconds after the run started is
#: killed and counted as failed, so every run ends within three minutes.
RUN_LIMIT_S = 170

WORKLOADS = {
    "fig9_cold": {"kind": "fig9", "workers": 1, "seeds": 1},
    "fig9_warm": {"kind": "fig9", "workers": 1, "seeds": WARM_SEEDS},
    "fig9_cold_j2": {"kind": "fig9", "workers": 2, "seeds": 1},
    "table1": {"kind": "table1", "workers": 1, "seeds": 1},
}

CELLS_PER_GRID = 72
TABLE1_ROWS = 26
TABLE1_FIELDS = ("name", "lll_per_kilo", "mlp", "mlp_impact", "category",
                 "ipc")

FIDELITY_NOTE = ("fidelity is of the scaled model (16x smaller caches, "
                 "synthetic traces, short budgets), not the paper's "
                 "SimPoint setup")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, broken set-up)."""


# --------------------------------------------------------------------- #
# environment and child processes
# --------------------------------------------------------------------- #

def hermetic_env() -> dict[str, str]:
    """This process's environment minus every ``REPRO_*`` variable,
    plus the benchmark's own."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env["REPRO_CEXT_CACHE"] = str(CEXT_CACHE)
    env["REPRO_WARMUP"] = str(WARMUP)
    return env


def run_child(args: list[str], env: dict[str, str],
              timeout: float) -> tuple[subprocess.CompletedProcess, float]:
    """Run a child in its own process group; kill the group on timeout.

    Returns the completed process and its wall seconds.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {timeout:.0f} s"
    wall = time.perf_counter() - t0
    return subprocess.CompletedProcess(args, proc.returncode, out, err), wall


def probe(env: dict[str, str]) -> tuple[dict, float]:
    proc, wall = run_child([str(HERE / "probe.py")], env, 120)
    if proc.returncode != 0:
        raise BenchError("set-up probe failed:\n" + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def ensure_cext(env: dict[str, str]) -> float:
    """Build the compiled engine into the benchmark's cache, untimed.

    Returns the seconds of the build that filled the cache (0.0 when no
    compiler is available); later runs read it back from the cache.
    """
    record = CEXT_CACHE / "build.json"
    before = set(CEXT_CACHE.glob("_cext_engine-*"))
    info, wall = probe(env)
    if set(CEXT_CACHE.glob("_cext_engine-*")) - before:
        CEXT_CACHE.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps({"cext_build_s": wall}))
    if "cext" not in info["backends"] or not record.exists():
        return 0.0
    return json.loads(record.read_text())["cext_build_s"]


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop: how fast the host runs now.

    Reported beside ``wall_s`` so that a run taken while the host was in
    a slow phase can be told from a slower program.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - t0


def measure_setup(env: dict[str, str]) -> dict[str, float]:
    samples = [probe(env) for _ in range(SETUP_SAMPLES)]
    return {
        "setup_s": statistics.median(wall for _info, wall in samples),
        "setup.import_s": statistics.median(
            info["import_s"] for info, _wall in samples),
        "setup.backend_probe_s": statistics.median(
            info["backend_probe_s"] for info, _wall in samples),
        "setup.config_s": statistics.median(
            info["config_s"] for info, _wall in samples),
    }


class Runner:
    """Runs the passes of one benchmark run and keeps their results."""

    def __init__(self, workload: str, seed: int, env: dict[str, str],
                 rundir: Path):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.env = env
        self.rundir = rundir
        self.count = 0
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def seeds(self) -> list[int]:
        return list(range(self.seed, self.seed + self.spec["seeds"]))

    def run_pass(self, *, trace: bool = False, workers: int | None = None,
                 store: Path | None = None, seeds: list[int] | None = None
                 ) -> tuple[dict | None, str, float]:
        """One pass in a fresh interpreter: ``(result, error, wall)``."""
        self.count += 1
        tag = f"{self.workload}-{self.seed}-{self.count}"
        own_store = store is None
        store = store or self.rundir / f"store-{self.count}"
        req = {"kind": self.spec["kind"], "seeds": seeds or self.seeds(),
               "workers": workers or self.spec["workers"],
               "budget": (FIG9_BUDGET if self.spec["kind"] == "fig9"
                          else TABLE1_BUDGET),
               "trace": trace, "run_id": tag,
               "out": str(self.rundir / f"{tag}.json"),
               "spans": str(self.rundir / f"{tag}.spans.jsonl")}
        env = dict(self.env, REPRO_CACHE_DIR=str(store))
        proc, wall = run_child([str(HERE / "passes.py"), json.dumps(req)],
                               env, max(self.deadline - time.perf_counter(),
                                        1.0))
        if own_store:
            shutil.rmtree(store, ignore_errors=True)
        if proc.returncode != 0:
            return None, proc.stderr[-2000:], wall
        result = json.loads(Path(req["out"]).read_text())
        if trace:
            result["spans_path"] = req["spans"]
        return result, "", wall


# --------------------------------------------------------------------- #
# correctness
# --------------------------------------------------------------------- #

def cell_digest(cell: dict) -> str:
    """Digest of what must be bit-identical: STP, ANTT, cycles and the
    per-thread committed counts."""
    blob = json.dumps([cell["names"], cell["policy"], repr(cell["stp"]),
                       repr(cell["antt"]), cell["cycles"],
                       cell["committed"]])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def cell_key(cell: dict) -> str:
    return f"{cell['seed']}:{'-'.join(cell['names'])}:{cell['policy']}"


def load_reference() -> dict:
    ref = json.loads((HERE / "reference.json").read_text())
    params = {"fig9_budget": FIG9_BUDGET, "table1_budget": TABLE1_BUDGET,
              "warmup": WARMUP}
    if ref["params"] != params:
        raise BenchError(f"reference.json was recorded with {ref['params']},"
                         f" the benchmark runs {params}")
    recorded = {str(seed) for seed in range(REFERENCE_SEEDS)}
    if set(ref["fig9"]["digests"]) != recorded:
        raise BenchError("reference.json does not hold exactly the Fig. 9 "
                         f"seeds 0..{REFERENCE_SEEDS - 1}; re-record it")
    return ref


class Checker:
    """Counts operations attempted and failed across a run's passes.

    An operation is one grid cell or one Table I row.  It fails when its
    pass crashed, or when its result differs from the recorded reference
    (or, for a seed the reference does not cover, from the first pass of
    this run; such a run also makes an untimed pass at a recorded seed,
    see :meth:`check_reference`).  A pass whose model counters or
    fidelity rows differ from the reference or the first pass fails all
    of its operations.  So does a fig9 pass whose simulated baselines are
    missing from the store afterwards, and a ``fig9_warm`` pass that
    simulated or stored anything.
    """

    def __init__(self, workload: str, seeds: list[int], ref: dict):
        self.kind = WORKLOADS[workload]["kind"]
        self.warm = workload == "fig9_warm"
        self.seeds = seeds
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.expected: dict[str, str] = {}
        self.fidelity: list | None = None
        if self.kind == "fig9":
            self.model = ref["fig9"]["model"].get(str(seeds[0]))
            for seed in seeds:
                digests = ref["fig9"]["digests"].get(str(seed), {})
                self.expected.update(
                    {f"{seed}:{key}": d for key, d in digests.items()})
            self.covered = len(self.expected) == self.ops()
        else:
            self.model = ref["table1"]["model"]
            self.covered = True

    def ops(self) -> int:
        if self.kind == "fig9":
            return CELLS_PER_GRID * len(self.seeds)
        return TABLE1_ROWS

    def prime(self, result: dict | None) -> None:
        """Adopt an untimed pass's cells as expected where the reference
        has none (the ``fig9_warm`` fill)."""
        if result is not None:
            for cell in result["cells"]:
                self.expected.setdefault(cell_key(cell), cell_digest(cell))

    def check(self, result: dict | None, error: str) -> None:
        """Account the operations of one timed pass."""
        total = self.ops()
        self.attempted += total
        if result is None:
            self.notes.append("pass crashed: " + error.strip()[-300:])
            self.failed += total
            return
        if self.kind == "fig9":
            bad = self._check_cells(result["cells"])
            if result["unpersisted_baselines"]:
                self.notes.append(
                    f"{result['unpersisted_baselines']} simulated baselines "
                    "missing from the store after the pass")
                bad = total
            if self.warm and (result["executed"]
                              or result["store_entries_added"]):
                self.notes.append(
                    f"warm pass simulated {result['executed']} jobs and "
                    f"stored {result['store_entries_added']} entries")
                bad = total
        else:
            bad = self._check_rows(result["rows"])
        fidelity = result.get("fidelity")
        if self.model is None:
            self.model = result["model"]
        if self.fidelity is None:
            self.fidelity = fidelity
        if result["model"] != self.model or fidelity != self.fidelity:
            self.notes.append("model counters or fidelity rows differ")
            bad = total
        self.failed += bad

    def reference_seed(self) -> int | None:
        """A recorded seed to check the code against, when the run's own
        seeds are not all in ``reference.json``; else ``None``."""
        if self.covered:
            return None
        return self.seeds[0] % REFERENCE_SEEDS

    def check_reference(self, result: dict | None, error: str,
                        seed: int) -> None:
        """Account an untimed one-grid pass at recorded ``seed``.

        Without it, a change that alters every pass the same way would go
        unseen on a seed the reference does not cover.
        """
        self.attempted += CELLS_PER_GRID
        if result is None:
            self.notes.append(f"reference pass at seed {seed} crashed: "
                              + error.strip()[-300:])
            self.failed += CELLS_PER_GRID
            return
        digests = self.ref["fig9"]["digests"][str(seed)]
        bad = sum(digests.get(cell_key(cell).split(":", 1)[1])
                  != cell_digest(cell) for cell in result["cells"])
        bad += max(CELLS_PER_GRID - len(result["cells"]), 0)
        if result["model"] != self.ref["fig9"]["model"][str(seed)]:
            bad = CELLS_PER_GRID
        if bad:
            self.notes.append(f"reference pass at seed {seed}: {bad} of "
                              f"{CELLS_PER_GRID} cells differ from "
                              "reference.json")
        self.failed += bad

    def _check_cells(self, cells: list[dict]) -> int:
        bad = 0
        for cell in cells:
            key, digest = cell_key(cell), cell_digest(cell)
            if digest != self.expected.setdefault(key, digest):
                bad += 1
                if len(self.notes) < 5:
                    self.notes.append(f"cell {key} differs")
        return bad + max(self.ops() - len(cells), 0)

    def _check_rows(self, rows: list[dict]) -> int:
        ref_rows = {r["name"]: r for r in self.ref["table1"]["rows"]}
        bad = 0
        for row in rows:
            ref = ref_rows.get(row["name"])
            if ref is None or any(row[f] != ref[f] for f in TABLE1_FIELDS):
                bad += 1
                if len(self.notes) < 5:
                    self.notes.append(f"row {row['name']} differs")
        return bad + max(TABLE1_ROWS - len(rows), 0)


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "sim_kips": "kips",
                    "peak_rss_mb": "MB", "ok_frac": "fraction"}


def fidelity_summary(kind: str, first: dict) -> dict[str, float]:
    if kind == "fig9":
        rows = first["fidelity"]
        return {
            "stp_gain_err_pp": statistics.mean(
                r["err_pp"] for r in rows if r["metric"] == "STP"),
            "antt_gain_err_pp": statistics.mean(
                r["err_pp"] for r in rows if r["metric"] == "ANTT"),
        }
    return {"class_agree": sum(r["category"] == r["paper_category"]
                               for r in first["rows"])}


def print_fidelity(kind: str, first: dict, summary: dict) -> None:
    print(f"fidelity ({FIDELITY_NOTE}):")
    if kind == "fig9":
        print(f"  seed {first['fidelity_seed']}: mlp_flush gain over "
              "baseline, percentage points")
        print(f"  {'half':<5} {'baseline':<9} {'metric':<6} "
              f"{'measured':>9} {'paper':>7} {'|err|':>7}")
        for r in first["fidelity"]:
            print(f"  {r['half']:<5} {r['baseline']:<9} {r['metric']:<6} "
                  f"{r['measured_pp']:>+9.2f} {r['paper_pp']:>+7.1f} "
                  f"{r['err_pp']:>7.2f}")
        print(f"  stp_gain_err_pp  {summary['stp_gain_err_pp']:.4f} pp")
        print(f"  antt_gain_err_pp {summary['antt_gain_err_pp']:.4f} pp")
    else:
        print(f"  {'program':<10} {'impact':>8} {'paper':>8} "
              f"{'class':>6} {'paper':>6}")
        for r in first["rows"]:
            mark = "" if r["category"] == r["paper_category"] else "  <-"
            print(f"  {r['name']:<10} {r['mlp_impact']:>8.1%} "
                  f"{r['paper_mlp_impact']:>8.1%} {r['category']:>6} "
                  f"{r['paper_category']:>6}{mark}")
        print(f"  class_agree {summary['class_agree']}/{TABLE1_ROWS} rows")


def model_metrics(first: dict, fidelity: dict) -> dict[str, float]:
    out = {f"model.{k}": v for k, v in first["model"].items()
           if k != "committed"}
    out["model.stp_gain_err_pp"] = fidelity.get("stp_gain_err_pp", 0.0)
    out["model.antt_gain_err_pp"] = fidelity.get("antt_gain_err_pp", 0.0)
    out["model.class_agree"] = fidelity.get("class_agree", 0)
    return out


def print_layers(traced: dict, overhead: float) -> None:
    wall = traced["wall_s"]
    print(f"self time by layer (traced pass, wall {wall:.4f} s, "
          f"tracing overhead {overhead:+.4f} s):")
    for layer, secs in sorted(traced["layer_self_s"].items(),
                              key=lambda kv: -kv[1]):
        print(f"  {layer:<22} {secs:>9.4f} s {100 * secs / wall:>6.1f}%")
    engines = ", ".join(f"{k} x{v}" for k, v in
                        sorted(traced["engines"].items())) or "none"
    print(f"  engine classes used: {engines}")
    print(f"  spans: {traced['spans_path']}")


# --------------------------------------------------------------------- #

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def run(args: argparse.Namespace) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} "
                         "is missing")
    ref = load_reference()
    env = hermetic_env()
    STATE.mkdir(exist_ok=True)
    rundir = STATE / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir()
    try:
        return measure(args, env, ref, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def measure(args: argparse.Namespace, env: dict[str, str], ref: dict,
            rundir: Path) -> dict:
    workload = args.workload
    runner = Runner(workload, args.seed, env, rundir)
    kind = runner.spec["kind"]
    checker = Checker(workload, runner.seeds(), ref)
    cext_build_s = ensure_cext(env)
    setup = measure_setup(env)

    fill_store = None
    if workload == "fig9_warm":
        fill_store = rundir / "warm-store"
        fill, error, _wall = runner.run_pass(workers=2, store=fill_store)
        if fill is None:
            checker.notes.append("warm-store fill crashed: "
                                 + error.strip()[-300:])
        checker.prime(fill)
    ref_seed = checker.reference_seed()
    if ref_seed is not None:
        result, error, _wall = runner.run_pass(seeds=[ref_seed])
        checker.check_reference(result, error, ref_seed)

    plan = (False, True) if args.trace else (False,)
    untraced, traced, rounds, calibration = [], [], [], []
    start = time.perf_counter()
    while True:
        calibration.append(calibrate())
        t0 = time.perf_counter()
        for trace in plan:
            result, error, _wall = runner.run_pass(trace=trace,
                                                   store=fill_store)
            checker.check(result, error)
            if result is not None:
                (traced if trace else untraced).append(result)
        rounds.append(time.perf_counter() - t0)
        now = time.perf_counter()
        if (now - start + statistics.median(rounds) > args.seconds
                or now >= runner.deadline):
            break
    if not untraced or (args.trace and not traced):
        raise BenchError("every pass failed:\n" + "\n".join(checker.notes))

    first = untraced[0]
    wall = statistics.median(r["wall_s"] for r in untraced)
    calibration_s = statistics.median(calibration)
    fidelity = fidelity_summary(kind, first)
    print(f"== {workload}  seed {args.seed}  "
          f"(seeds {runner.seeds()}, workers {runner.spec['workers']}, "
          f"budget {FIG9_BUDGET if kind == 'fig9' else TABLE1_BUDGET}, "
          f"warmup {WARMUP}) ==")
    print(f"passes: {len(untraced)} untraced"
          + (f", {len(traced)} traced" if args.trace else "")
          + "; walls " + " ".join(f"{r['wall_s']:.3f}" for r in untraced)
          + " s")
    e2e = {
        "wall_s": wall,
        "setup_s": setup["setup_s"],
        "sim_kips": statistics.median(
            r["sim_instructions"] / 1000.0 / r["wall_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "ok_frac": 1.0 - checker.failed / checker.attempted,
    }
    print("end-to-end:")
    for name, value in e2e.items():
        print(f"  {name:<12} {value:.4f} {END_TO_END_UNITS[name]}")
    print(f"  failed_frac  {checker.failed / checker.attempted:.4f} "
          f"({checker.failed} of {checker.attempted} operations)")
    print(f"host speed: calibration loop {calibration_s:.4f} s (median of "
          f"{len(calibration)}, one before each pass); compare it across "
          "runs before reading a change in wall_s")
    print_fidelity(kind, first, fidelity)
    print(f"correctness: {checker.attempted - checker.failed}/"
          f"{checker.attempted} operations match "
          + ("reference.json" if checker.covered
             else "the first pass (not every seed is in reference.json) "
                  f"and, at seed {ref_seed}, reference.json"))
    for note in checker.notes:
        print(f"  ! {note}")

    if not args.trace:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}
    else:
        layer_keys = traced[0]["layers"].keys()
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in layer_keys}
        overhead = (statistics.median(r["wall_s"] for r in traced) - wall)
        layers.update({k: v for k, v in setup.items() if k != "setup_s"})
        layers["setup.cext_build_s"] = cext_build_s
        layers.update(model_metrics(first, fidelity))
        layers["trace.overhead_s"] = overhead
        layers["host.calibration_s"] = calibration_s
        shown = sorted(traced, key=lambda r: r["wall_s"])[len(traced) // 2]
        keep = STATE / "last_trace"
        keep.mkdir(exist_ok=True)
        spans = keep / f"{workload}.spans.jsonl"
        shutil.copyfile(shown["spans_path"], spans)
        shown["spans_path"] = str(spans.relative_to(ROOT))
        print_layers(shown, overhead)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(layers.items())}
    return {"correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_pp"):
        return "pp"
    if name.endswith(("ratio", "efficiency")):
        return "fraction"
    if name.endswith("ns_per_cycle"):
        return "ns"
    if name.endswith("bytes_read") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
