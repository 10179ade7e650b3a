"""Persistent on-disk result store for simulation jobs.

Memoizes :class:`~repro.experiments.runner.WorkloadResult` and
:class:`~repro.experiments.runner.SingleThreadResult` payloads across
processes and runs.  Entries live as one JSON file per job under
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``), named by the job's
content key, with the layout::

    {"schema": 1, "repro": "<package version>", "kind": "...",
     "payload": {...}}

Robustness rules:

* A corrupt, truncated, or unreadable entry is a *miss*, never an error;
  the stale file is removed when possible.
* An entry written under a different schema or package version is stale
  and also reads as a miss (the package version participates in the
  content key too, so version bumps simply re-key the cache).
* Writes are atomic (temp file + ``os.replace``), so parallel workers can
  race on the same entry without tearing it.

Set ``REPRO_CACHE=0`` to disable the store entirely.

Import-cycle note: result types are imported lazily inside the codec —
:mod:`repro.experiments` modules are allowed to import this module at call
time only, while this module may not pull them in at load time.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path
import tempfile
from typing import Any

from repro import __version__
from repro.jobs.spec import SCHEMA_VERSION, JobSpec, UncacheableJobError
from repro.pipeline.stats import CoreStats, ThreadStats


def cache_enabled() -> bool:
    """The REPRO_CACHE knob (default on)."""
    return os.environ.get("REPRO_CACHE", "1") not in ("0", "", "false")


def cache_root() -> Path:
    """The store directory: ``REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


# --------------------------------------------------------------------- #
# payload codec
# --------------------------------------------------------------------- #

def _encode_stats(stats: CoreStats) -> dict[str, Any]:
    return {
        "cycles": stats.cycles,
        "resource_stall_cycles": stats.resource_stall_cycles,
        "ll_intervals": [list(iv) for iv in stats.ll_intervals],
        "threads": [asdict(t) for t in stats.threads],
        "commit_cycle_trace": stats.commit_cycle_trace,
    }


def _decode_stats(data: dict[str, Any]) -> CoreStats:
    return CoreStats(
        cycles=data["cycles"],
        threads=[ThreadStats(**t) for t in data["threads"]],
        resource_stall_cycles=data["resource_stall_cycles"],
        ll_intervals=[tuple(iv) for iv in data["ll_intervals"]],
        commit_cycle_trace=data.get("commit_cycle_trace"),
    )


def encode_result(result) -> dict[str, Any]:
    """Encode a SingleThreadResult or WorkloadResult to a JSON tree."""
    from repro.experiments.runner import SingleThreadResult, WorkloadResult
    if isinstance(result, SingleThreadResult):
        return {"name": result.name,
                "stats": _encode_stats(result.stats),
                "commit_cycles": list(result.commit_cycles)}
    if isinstance(result, WorkloadResult):
        return {"names": list(result.names),
                "policy": result.policy,
                "stats": _encode_stats(result.stats),
                "committed": list(result.committed),
                "st_cpis": list(result.st_cpis),
                "mt_cpis": list(result.mt_cpis),
                "stp": result.stp,
                "antt": result.antt,
                "ipcs": list(result.ipcs)}
    raise TypeError(f"cannot encode {type(result).__name__}")


def decode_result(kind: str, payload: dict[str, Any]):
    """Rebuild the result object a payload was encoded from."""
    from repro.experiments.runner import SingleThreadResult, WorkloadResult
    if kind == "baseline":
        return SingleThreadResult(
            name=payload["name"],
            stats=_decode_stats(payload["stats"]),
            commit_cycles=list(payload["commit_cycles"]))
    if kind == "workload":
        return WorkloadResult(
            names=tuple(payload["names"]),
            policy=payload["policy"],
            stats=_decode_stats(payload["stats"]),
            committed=tuple(payload["committed"]),
            st_cpis=tuple(payload["st_cpis"]),
            mt_cpis=tuple(payload["mt_cpis"]),
            stp=payload["stp"],
            antt=payload["antt"],
            ipcs=tuple(payload["ipcs"]))
    raise ValueError(f"unknown result kind {kind!r}")


# --------------------------------------------------------------------- #
# the store
# --------------------------------------------------------------------- #

class ResultStore:
    """One directory of memoized job results."""

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else cache_root()

    def path_for(self, spec: JobSpec) -> Path:
        return self.root / f"{spec.cache_key()}.json"

    def get(self, spec: JobSpec):
        """The memoized result for ``spec``, or None on any kind of miss."""
        try:
            path = self.path_for(spec)
        except UncacheableJobError:
            return None
        try:
            text = path.read_text()
        except OSError:          # plain miss (or unreadable) — nothing
            return None          # on disk worth discarding
        try:
            entry = json.loads(text)
        except ValueError:
            self._discard(path)
            return None
        try:
            if (entry["schema"] != SCHEMA_VERSION
                    or entry["repro"] != __version__
                    or entry["kind"] != spec.kind):
                return None
            return decode_result(entry["kind"], entry["payload"])
        except (KeyError, TypeError, ValueError):
            self._discard(path)
            return None

    def put(self, spec: JobSpec, result) -> bool:
        """Persist ``result``; False if the spec is uncacheable or the
        filesystem refuses (the engine treats both as cache-off)."""
        try:
            path = self.path_for(spec)
        except UncacheableJobError:
            return False
        entry = {"schema": SCHEMA_VERSION, "repro": __version__,
                 "kind": spec.kind, "payload": encode_result(result)}
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            # One-shot ``dumps`` runs the C encoder; ``dump`` streams
            # through the pure-Python one.  The bytes are identical.
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(entry, separators=(",", ":")))
            os.replace(tmp, path)
            return True
        except OSError:
            return False

    def entries(self) -> list[Path]:
        try:
            return sorted(self.root.glob("*.json"))
        except OSError:
            return []

    def __len__(self) -> int:
        return len(self.entries())

    def size_bytes(self) -> int:
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted."""
        removed = 0
        for path in self.entries():
            if self._discard(path):
                removed += 1
        return removed

    @staticmethod
    def _discard(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False


def default_store() -> ResultStore | None:
    """The environment-configured store, or None when caching is off."""
    if not cache_enabled():
        return None
    return ResultStore()
