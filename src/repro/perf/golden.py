"""Golden architectural stats: the cycle-exactness contract.

Hot-loop optimizations in :mod:`repro.pipeline.core` are only admissible
if they are *cycle-exact* — same committed-cycle counts, same IPC, same
flush and stall counters, for every policy class.  This module defines a
fixed-seed scenario matrix ({1,2,4,8} threads x every paper policy:
{icount, stall, pred_stall, flush, mlp_stall, mlp_flush, dcra,
mlp_dcra}) and serializes each cell's :class:`repro.pipeline.stats.
CoreStats` to a stable dict.  ``tests/test_golden_stats.py`` compares a
fresh simulation of every cell against the committed fixture
``tests/golden/golden_stats.json``, which was generated *before* the
optimizations landed.

Regenerate (only when an intentional behavior change invalidates it):

    python -m repro.perf.golden tests/golden/golden_stats.json

The regenerator refuses to overwrite a fixture whose ``schema`` stamp
differs from :data:`GOLDEN_SCHEMA` (a mismatch means the checkout and
the fixture disagree about what the numbers *mean*); pass ``--force``
after verifying the schema change is intentional.

The fixture is backend-independent: every selectable engine core must
reproduce it bit for bit, so it is always *regenerated* with the default
object engine and *checked* against any backend::

    python -m repro.perf.golden --check --backend cext

``--check`` simulates every cell and compares against the committed
fixture without writing anything (exit 1 on any mismatch, exit 2 for an
unknown backend) — the CI leg that holds the compiled engine to the
cycle-exactness contract.
"""

from __future__ import annotations

import json
from pathlib import Path
import sys

from repro.perf.scenarios import Scenario, run_scenario

GOLDEN_SCHEMA = "repro.golden/1"

#: Policies spanning the distinct engine paths: plain rotation, fetch
#: gating (detected and front-end-predicted), flush/refetch,
#: predictor-driven MLP-aware gating and flushing, and the DCRA
#: dispatch-cap (``can_dispatch``) path, plain and MLP-weighted.  This is
#: the full paper policy set, so no policy-side hot path can be touched
#: without a golden cell noticing.
GOLDEN_POLICIES = ("icount", "stall", "pred_stall", "flush", "mlp_stall",
                   "mlp_flush", "dcra", "mlp_dcra")

#: Runahead rides on :class:`repro.runahead.RunaheadCore`, which keeps
#: its own generic commit/dispatch loops (and the self-contained
#: ``_try_dispatch``) while the base core inlines them — these cells pin
#: that second code path so the two can never silently diverge.
GOLDEN_RUNAHEAD_POLICIES = ("runahead", "mlp_runahead")

_WORKLOADS = {
    1: ("mcf",),
    2: ("mcf", "swim"),
    4: ("mgrid", "vortex", "swim", "twolf"),
    # The 8-thread stress mix (same as ``smt8_mlp_flush_stress``): twice
    # the paper's largest configuration, admissible because the shared
    # ROB (256) still divides evenly.  These cells pin the thread-count
    # regime the data-layout pass was built for.
    8: ("mcf", "swim", "mgrid", "vortex", "twolf", "equake", "art",
        "lucas"),
}


def golden_matrix() -> tuple[Scenario, ...]:
    """The fixed-seed equivalence matrix (budgets sized for test speed)."""
    base = tuple(
        Scenario(f"golden_{n}t_{policy}", workload, policy,
                 commits=1_500, warmup=400, quick_commits=1_500)
        for n, workload in sorted(_WORKLOADS.items())
        for policy in GOLDEN_POLICIES)
    runahead = tuple(
        Scenario(f"golden_2t_{policy}", _WORKLOADS[2], policy,
                 commits=1_500, warmup=400, quick_commits=1_500)
        for policy in GOLDEN_RUNAHEAD_POLICIES)
    return base + runahead


def snapshot_cell(sc: Scenario, backend: str = "object") -> dict:
    """Simulate one cell and capture every architecturally-visible count."""
    stats, core = run_scenario(sc, backend=backend)
    return {
        "workload": list(sc.workload),
        "policy": sc.policy,
        "commits": sc.commits,
        "warmup": sc.warmup,
        "cycles": stats.cycles,
        "total_cycles": core.cycle,
        "resource_stall_cycles": stats.resource_stall_cycles,
        "total_ipc": round(stats.total_ipc, 9),
        "mlp": round(stats.mlp, 9),
        "ll_interval_count": len(stats.ll_intervals),
        "threads": [
            {
                "committed": t.committed,
                "fetched": t.fetched,
                "squashed": t.squashed,
                "flushes": t.flushes,
                "loads_executed": t.loads_executed,
                "ll_loads": t.ll_loads,
                "policy_stall_cycles": t.policy_stall_cycles,
                "branch_stall_cycles": t.branch_stall_cycles,
                "runahead_entries": t.runahead_entries,
                "runahead_exits": t.runahead_exits,
                "runahead_pseudo_retired": t.runahead_pseudo_retired,
                "ipc": round(stats.ipc(i), 9),
            }
            for i, t in enumerate(stats.threads)
        ],
    }


def collect_golden(backend: str = "object") -> dict:
    return {
        "schema": GOLDEN_SCHEMA,
        "cells": {sc.name: snapshot_cell(sc, backend=backend)
                  for sc in golden_matrix()},
    }


def check_against_fixture(path: Path, backend: str = "object",
                          progress=None,
                          max_threads: int | None = None) -> list[str]:
    """Simulate every cell under ``backend``; return mismatched names.

    The bit-exactness check behind ``--check``: each cell's fresh
    snapshot must equal the committed fixture's, field for field.  Cells
    absent from the fixture count as mismatches (a matrix/fixture drift
    is a failure, not a skip).  ``max_threads`` restricts the run to
    cells with at most that many threads — a smoke subset for slow
    configurations (the sanitized CI leg); full equivalence claims use
    the whole matrix.  Raises :class:`ValueError` for a missing or
    wrong-schema fixture.
    """
    if not path.exists():
        raise ValueError(f"no golden fixture at {path}")
    check_fixture_schema(path)
    fixture = json.loads(path.read_text())["cells"]
    bad: list[str] = []
    for sc in golden_matrix():
        if max_threads is not None and sc.num_threads > max_threads:
            continue
        fresh = snapshot_cell(sc, backend=backend)
        ok = fixture.get(sc.name) == fresh
        if not ok:
            bad.append(sc.name)
        if progress is not None:
            progress(f"[golden] {sc.name} ({backend}): "
                     f"{'ok' if ok else 'MISMATCH'}")
    return bad


def check_fixture_schema(path: Path) -> None:
    """Refuse to touch a fixture stamped with a different schema.

    A schema mismatch means this checkout and the committed fixture
    disagree about what the golden numbers mean; silently regenerating
    (or comparing) across that boundary would launder a semantic change
    into a "baseline refresh".  Raises :class:`ValueError` with the two
    schema stamps; an unreadable file raises too (a corrupt fixture is
    not a license to overwrite it).
    """
    if not path.exists():
        return
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path} is not valid JSON ({exc}); inspect or delete it "
            f"before regenerating") from None
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != GOLDEN_SCHEMA:
        raise ValueError(
            f"{path} is stamped {found!r} but this checkout expects "
            f"{GOLDEN_SCHEMA!r}; re-run with --force only if the schema "
            f"change is intentional")


def _default_fixture() -> Path:
    return (Path(__file__).resolve().parents[3] / "tests" / "golden"
            / "golden_stats.json")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    force = "--force" in argv
    check = "--check" in argv
    argv = [a for a in argv if a not in ("--force", "--check")]
    backend = "object"
    if "--backend" in argv:
        i = argv.index("--backend")
        try:
            backend = argv[i + 1]
        except IndexError:
            print("--backend requires a value", file=sys.stderr)
            return 2
        del argv[i:i + 2]
    if backend != "object":
        from repro import registry
        try:
            registry.backends.get(backend)
        except registry.RegistryError as exc:
            print(exc, file=sys.stderr)
            return 2
    max_threads: int | None = None
    if "--max-threads" in argv:
        i = argv.index("--max-threads")
        try:
            max_threads = int(argv[i + 1])
        except (IndexError, ValueError):
            print("--max-threads requires an integer", file=sys.stderr)
            return 2
        del argv[i:i + 2]
    out = Path(argv[0]) if argv else _default_fixture()
    if check:
        try:
            bad = check_against_fixture(out, backend=backend,
                                        progress=print,
                                        max_threads=max_threads)
        except ValueError as exc:
            print(f"cannot check: {exc}", file=sys.stderr)
            return 1
        total = sum(1 for sc in golden_matrix()
                    if max_threads is None or sc.num_threads <= max_threads)
        print(f"BAD: {len(bad)} of {total} cells ({backend} backend)"
              + (f": {', '.join(bad)}" if bad else ""))
        return 1 if bad else 0
    if max_threads is not None:
        print("--max-threads only applies to --check (the fixture is "
              "always regenerated in full)", file=sys.stderr)
        return 2
    if backend != "object":
        # The fixture is the object engine's output by definition;
        # regenerating it from another backend would make the contract
        # circular.
        print("regeneration always uses the object engine; use --check "
              "to verify another backend", file=sys.stderr)
        return 2
    if not force:
        try:
            check_fixture_schema(out)
        except ValueError as exc:
            print(f"refusing to regenerate: {exc}", file=sys.stderr)
            return 1
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = collect_golden()
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(doc['cells'])} golden cells to {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - fixture regeneration entry
    raise SystemExit(main())
