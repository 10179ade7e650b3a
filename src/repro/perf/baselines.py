"""Schema-stamped throughput baselines (``BENCH_perf.json``).

The committed baseline at the repo root records, per canonical scenario
and per mode (``full`` / ``quick``), the min-of-N wall time together with
the simulated-cycle and committed-instruction counts of the run, plus a
machine calibration score (see :func:`repro.perf.harness.calibrate`).

Comparisons are *calibration-normalized*: a measurement on a machine 2x
slower than the baseline writer's also posts a ~2x calibration spin, so
the regression ratio cancels raw machine speed and isolates what the CI
gate actually cares about — simulator work per unit of Python work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
import json
from pathlib import Path
import platform

from repro.perf.harness import BenchResult, SuiteResult

SCHEMA = "repro.perf/1"
BASELINE_NAME = "BENCH_perf.json"

#: Default regression gate: >25% calibration-normalized slowdown fails.
DEFAULT_MAX_REGRESSION = 0.25


class BaselineError(ValueError):
    """Raised for unreadable, unstamped, or wrong-schema baseline files."""


def repo_root() -> Path:
    """The checkout root (``src/repro/perf`` -> three levels up)."""
    return Path(__file__).resolve().parents[3]


def baseline_path(explicit: str | Path | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    return repo_root() / BASELINE_NAME


# --------------------------------------------------------------------- #
# serialization
# --------------------------------------------------------------------- #

def result_to_dict(r: BenchResult) -> dict:
    d = {
        "wall_s": round(r.wall_s, 6),
        "runs": [round(x, 6) for x in r.runs],
        "cycles": r.cycles,
        "instructions": r.instructions,
        "cycles_per_sec": round(r.cycles_per_sec, 1),
        "policy": r.policy,
        "threads": r.threads,
        "commits": r.commits,
    }
    # The default engine serializes away (like RunSpec.backend), keeping
    # object-backend baseline entries byte-identical to pre-backend ones.
    if r.backend != "object":
        d["backend"] = r.backend
    return d


def result_from_dict(name: str, d: dict, quick: bool) -> BenchResult:
    return BenchResult(
        name=name, wall_s=float(d["wall_s"]),
        runs=[float(x) for x in d.get("runs", [d["wall_s"]])],
        cycles=int(d["cycles"]), instructions=int(d["instructions"]),
        quick=quick, policy=d.get("policy", ""),
        threads=int(d.get("threads", 0)), commits=int(d.get("commits", 0)),
        backend=d.get("backend", "object"))


def mode_name(quick: bool, backend: str = "object") -> str:
    """The baseline ``modes`` key for one (quick, backend) combination.

    The object engine keeps the historical bare ``full`` / ``quick``
    keys; other backends get a ``-<backend>`` suffix (``full-cext``), so
    one document can hold every combination side by side and old
    baselines stay valid under the current schema.
    """
    mode = "quick" if quick else "full"
    return mode if backend == "object" else f"{mode}-{backend}"


def suite_to_doc(suite: SuiteResult) -> dict:
    """One harness pass as a standalone schema-stamped document.

    The calibration score lives *per mode*: the modes may be refreshed
    on different machines, and each mode's scenario walls are only
    meaningful against the calibration measured alongside them.
    """
    mode = mode_name(suite.quick, suite.backend)
    return {
        "schema": SCHEMA,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "modes": {
            mode: {
                "calibration_s": round(suite.calibration_s, 6),
                "scenarios": {r.name: result_to_dict(r)
                              for r in suite.results},
            },
        },
    }


def load_baseline(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise BaselineError(f"no baseline at {path}; run "
                            f"`python -m repro perf update` to create one")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise BaselineError(f"baseline {path} is not valid JSON: {exc}") from exc
    validate_doc(doc, where=str(path))
    return doc


def validate_doc(doc: dict, where: str = "<doc>") -> None:
    """Schema check; raises :class:`BaselineError` with a precise reason."""
    if not isinstance(doc, dict):
        raise BaselineError(f"{where}: baseline document must be an object")
    if doc.get("schema") != SCHEMA:
        raise BaselineError(
            f"{where}: schema {doc.get('schema')!r} != {SCHEMA!r}; "
            f"refresh the baseline with `python -m repro perf update`")
    modes = doc.get("modes")
    if not isinstance(modes, dict) or not modes:
        raise BaselineError(f"{where}: missing 'modes' section")
    for mode, section in modes.items():
        base = mode.split("-", 1)[0]
        if base not in ("full", "quick"):
            raise BaselineError(f"{where}: unknown mode {mode!r}")
        if not isinstance(section, dict):
            raise BaselineError(f"{where}: mode {mode!r} must be an object")
        if not isinstance(section.get("calibration_s"), (int, float)):
            raise BaselineError(
                f"{where}: mode {mode!r} lacks 'calibration_s'")
        scenarios = section.get("scenarios")
        if not isinstance(scenarios, dict):
            raise BaselineError(
                f"{where}: mode {mode!r} lacks 'scenarios'")
        for name, entry in scenarios.items():
            if not isinstance(entry, dict):
                raise BaselineError(
                    f"{where}: scenario {name!r} ({mode}) must be an object")
            for key in ("wall_s", "cycles", "instructions"):
                if key not in entry:
                    raise BaselineError(
                        f"{where}: scenario {name!r} ({mode}) lacks {key!r}")


def write_baseline(suite: SuiteResult, path: str | Path | None = None,
                   merge: bool = True) -> Path:
    """Write (or merge one mode into) the baseline file.

    With ``merge``, an existing valid baseline keeps its other mode's
    entries — refreshing the quick numbers does not discard the full ones.
    """
    path = baseline_path(path)
    doc = suite_to_doc(suite)
    if merge and path.exists():
        try:
            old = load_baseline(path)
        except BaselineError:
            old = None
        if old is not None:
            merged_modes = dict(old.get("modes", {}))
            merged_modes.update(doc["modes"])
            doc["modes"] = merged_modes
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


# --------------------------------------------------------------------- #
# comparison
# --------------------------------------------------------------------- #

@dataclass
class ScenarioDelta:
    """Calibration-normalized comparison of one scenario."""

    name: str
    current_wall_s: float
    baseline_wall_s: float
    ratio: float            # normalized current/baseline; >1 is slower
    speedup: float          # normalized baseline/current; >1 is faster
    regressed: bool
    work_drift: bool        # simulated cycles/instructions changed


@dataclass
class CompareReport:
    """Outcome of ``repro perf compare``."""

    deltas: list[ScenarioDelta] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)   # not in baseline
    mode: str = "full"
    max_regression: float = DEFAULT_MAX_REGRESSION
    calibration_ratio: float = 1.0   # current machine speed / baseline's

    @property
    def regressions(self) -> list[ScenarioDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def geomean_speedup(self) -> float:
        if not self.deltas:
            return 1.0
        prod = 1.0
        for d in self.deltas:
            prod *= d.speedup
        return prod ** (1.0 / len(self.deltas))


def compare(suite: SuiteResult, baseline: dict,
            max_regression: float = DEFAULT_MAX_REGRESSION) -> CompareReport:
    """Gate a fresh suite run against a loaded baseline document.

    A scenario regresses when its calibration-normalized wall time exceeds
    the baseline's by more than ``max_regression`` (0.25 = 25% slower).
    Scenarios absent from the baseline are listed, not failed — a new
    scenario must be able to land before its baseline does.  A baseline
    without the requested *mode* raises :class:`BaselineError` instead of
    silently comparing an empty section (which would report "ok" while
    gating nothing).
    """
    mode = mode_name(suite.quick, suite.backend)
    section = baseline.get("modes", {}).get(mode)
    if section is None:
        have = ", ".join(sorted(baseline.get("modes", {}))) or "none"
        flags = "".join(
            (" --quick" if suite.quick else "",
             f" --backend {suite.backend}"
             if suite.backend != "object" else ""))
        raise BaselineError(
            f"baseline has no {mode!r} mode section (has: {have}); "
            f"refresh it with `python -m repro perf update{flags}`")
    entries = section.get("scenarios", {})
    base_calib = float(section.get("calibration_s") or 0.0)
    calib_ratio = (suite.calibration_s / base_calib) if base_calib else 1.0
    report = CompareReport(mode=mode, max_regression=max_regression,
                           calibration_ratio=calib_ratio)
    for r in suite.results:
        entry = entries.get(r.name)
        if entry is None:
            report.missing.append(r.name)
            continue
        base = result_from_dict(r.name, entry, quick=suite.quick)
        # Normalize: how much slower is this run than the baseline run,
        # after discounting how much slower this *machine* is.
        denom = base.wall_s * (calib_ratio if base_calib else 1.0)
        ratio = r.wall_s / denom if denom else float("inf")
        work_drift = (base.cycles != r.cycles
                      or base.instructions != r.instructions)
        report.deltas.append(ScenarioDelta(
            name=r.name, current_wall_s=r.wall_s,
            baseline_wall_s=base.wall_s, ratio=ratio,
            speedup=1.0 / ratio if ratio else float("inf"),
            regressed=ratio > 1.0 + max_regression,
            work_drift=work_drift))
    return report
