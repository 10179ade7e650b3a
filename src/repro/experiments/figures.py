"""Command-line figure runner: ``python -m repro.experiments.figures <id>``.

Regenerates one entry of :mod:`repro.experiments.claims` — a paper
table or figure, an ablation or an extension — and prints its table and
checks.  The exit code is 0 whether or not the checks pass (the bench
suite under ``benchmarks/`` is the gate).  Run with no arguments for the
list of entries.
"""

from __future__ import annotations

import sys

from repro.experiments import claims


def _engine_footer(before: dict[str, int]) -> str | None:
    """One-line summary of what the jobs engine did for this figure.

    None when the entry never touched the engine (table1/fig5 simulate
    directly) — printing "0 simulated" there would misreport real work.
    """
    from repro.jobs import counters, default_store, default_workers
    done = {k: v - before[k] for k, v in counters().items()}
    if not any(done.values()):
        return None
    store = default_store()
    where = str(store.root) if store is not None else "disabled"
    return (f"[jobs] {done['executed']} simulated, "
            f"{done['cache_hits']} cache hits; "
            f"workers={default_workers()}, store={where}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    entry = claims.BY_ID.get(argv[0]) if argv else None
    if entry is None:
        print("usage: python -m repro.experiments.figures <target> [budget]")
        for e in claims.ENTRIES:
            print(f"  {e.id:<26} {e.title}")
        return 1
    from repro.jobs import counters
    budget = (int(argv[1]) if len(argv) > 1
              else claims.resolve_budget(entry))
    print(f"== {entry.title} (budget {budget} instructions/thread) ==")
    before = counters()
    outcome = entry.run(budget)
    print(outcome.text)
    print()
    print(claims.format_checks(outcome.checks))
    footer = _engine_footer(before)
    if footer is not None:
        print(f"\n{footer}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
