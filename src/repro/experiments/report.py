"""Paper-vs-measured report: every entry of the claims table, rendered.

``python -m repro.experiments.report [commits] [output-path]`` runs every
entry of :mod:`repro.experiments.claims` and writes one Markdown
document — each entry's table and its computed checks — to stdout, or
to ``output-path`` when one is given.  ``commits`` overrides every
entry's budget; without it each entry runs at its own default budget
(after ``REPRO_COMMITS``/``REPRO_SCALE``).
"""

from __future__ import annotations

import sys
import time

from repro.experiments import claims

PREAMBLE = """\
# Paper vs. measured

Every table and figure of the paper's evaluation, plus the ablations and
extensions beyond it, regenerated on this repository's simulator and
synthetic SPEC CPU2000 analogs.  **Absolute numbers are not expected to
match** — the paper ran 200M-instruction SimPoints of Alpha SPEC binaries
on SMTSIM; this repository runs calibrated synthetic analogs on a
16x-scaled memory hierarchy for tens of thousands of instructions per
thread.  What must match is the paper's argument: who wins, in which
workload class, and how the gap moves with the microarchitecture.  Each
section's checks are computed from its own measurement.

Regeneration:

```
python -m repro.experiments.report [commits] [path]   # this document
python -m repro figure <id> [budget]                  # one section
python -m pytest benchmarks/ -q                       # assert every check
```
"""


def render_section(outcome: claims.Outcome) -> str:
    entry = outcome.entry
    return (f"## {entry.title}\n\n"
            f"`repro figure {entry.id}` at {outcome.budget} "
            f"instructions/thread.\n\n"
            f"```text\n{outcome.text}\n```\n\n"
            f"```text\n{claims.format_checks(outcome.checks)}\n```\n")


def generate(commits: int | None = None, progress=None) -> str:
    """Run every entry of the claims table; returns the document."""
    parts = [PREAMBLE]
    for entry in claims.ENTRIES:
        start = time.time()
        parts.append(render_section(entry.run(commits)))
        if progress is not None:
            progress(f"  {entry.id}: {time.time() - start:.1f}s")
    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    commits = int(argv[0]) if argv else None
    text = generate(commits,
                    progress=lambda line: print(line, file=sys.stderr))
    if len(argv) > 1:
        with open(argv[1], "w") as fh:
            fh.write(text)
        print(f"wrote {argv[1]}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
