"""Record ``reference.json``: the results every benchmark run is checked
against.

Usage, from the root of a checkout::

    python3 perfbench/record_reference.py

Runs the Fig. 9 grid once per seed below ``run.REFERENCE_SEEDS`` (two
workers, fresh store) and Table I once, through the same pass code the
benchmark times, and stores per-cell digests, the model counters of
each seed's grid, and the full Table I rows.  Re-record only when a
change is meant to alter simulated results; a change that only speeds
up the simulator must pass against the existing file.
"""

from __future__ import annotations

import json
import shutil

import run


def main() -> int:
    env = run.hermetic_env()
    run.STATE.mkdir(exist_ok=True)
    rundir = run.STATE / "record-reference"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir()
    run.ensure_cext(env)
    ref = {"params": {"fig9_budget": run.FIG9_BUDGET,
                      "table1_budget": run.TABLE1_BUDGET,
                      "warmup": run.WARMUP},
           "fig9": {"digests": {}, "model": {}},
           "table1": {}}
    for seed in range(run.REFERENCE_SEEDS):
        runner = run.Runner("fig9_cold", seed, env, rundir)
        result, error, wall = runner.run_pass(workers=2)
        if result is None:
            raise SystemExit(f"seed {seed} failed:\n{error}")
        ref["fig9"]["digests"][str(seed)] = {
            run.cell_key(cell).split(":", 1)[1]: run.cell_digest(cell)
            for cell in result["cells"]}
        ref["fig9"]["model"][str(seed)] = result["model"]
        print(f"fig9 seed {seed}: {wall:.1f} s", flush=True)
    runner = run.Runner("table1", 0, env, rundir)
    result, error, wall = runner.run_pass()
    if result is None:
        raise SystemExit(f"table1 failed:\n{error}")
    ref["table1"]["rows"] = [{f: row[f] for f in run.TABLE1_FIELDS}
                             for row in result["rows"]]
    ref["table1"]["model"] = result["model"]
    print(f"table1: {wall:.1f} s")
    (run.HERE / "reference.json").write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(rundir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
