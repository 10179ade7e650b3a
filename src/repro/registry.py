"""One uniform name table for policies, benchmarks, scenarios, backends
and static-analysis checkers.

The paper's evaluation grid is indexed by names three ways — fetch-policy
names (``repro.policies.POLICIES``), benchmark-analog names
(``repro.workloads.BENCHMARKS``), and canonical perf-scenario names
(``repro.perf.CANONICAL_SCENARIOS``).  Those tables grew independently
with three lookup idioms; this module is the single front door over all
of them:

* :func:`get` / :func:`names` / :func:`register` — uniform access by
  ``(kind, name)``, where ``kind`` is one of :data:`KINDS`.
* ``repro list <kind>`` enumerates any kind from the CLI.
* :mod:`repro.api` validates every :class:`~repro.api.RunSpec` field
  against these registries, so a spec that constructs is a spec that
  resolves.

The legacy tables stay importable (and stay the place the *built-in*
entries are defined); each registry pulls them in lazily on first
access, which keeps this module import-cycle-free.  Entries registered
here at runtime (e.g. an out-of-tree policy) are visible to
``make_policy`` / ``benchmark`` / ``scenario_by_name`` as well, because
those lookups now route through the registries.

Registrations are **per process**.  The jobs executor's worker pool
(``REPRO_JOBS`` > 1) re-imports modules in each worker under spawn-type
start methods, so a registration made imperatively in the parent is not
there when a worker calls ``make_policy``.  Register at *import time* —
in a module every process imports (the loader functions below show the
pattern) — or run runtime-registered entries with ``workers=1``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Any


class RegistryError(KeyError):
    """Unknown name or kind, or a conflicting registration."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return self.args[0] if self.args else ""


class Registry:
    """A named table of one kind of object, lazily seeded with built-ins."""

    def __init__(self, kind: str,
                 loader: Callable[[Registry], None] | None = None):
        self.kind = kind
        self._entries: dict[str, Any] = {}
        self._loader = loader
        self._loaded = loader is None

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            # Mark first: the loader imports the defining module, which may
            # itself consult this registry while initializing.  A loader
            # failure un-marks so the real error resurfaces on the next
            # lookup instead of a bogus empty-registry "unknown name"
            # (the loaders use setdefault, so retrying is idempotent).
            self._loaded = True
            try:
                self._loader(self)
            except BaseException:
                self._loaded = False
                raise

    def register(self, name: str, obj: Any, *,
                 overwrite: bool = False) -> Any:
        """Add ``obj`` under ``name``; returns ``obj`` (decorator-friendly).

        Re-registering an existing name raises unless ``overwrite=True`` —
        silently shadowing a built-in policy or benchmark would corrupt
        content-hashed job keys that embed only the *name*.
        """
        self._ensure_loaded()
        if not overwrite and name in self._entries:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered; pass "
                f"overwrite=True to replace it")
        self._entries[name] = obj
        return obj

    def unregister(self, name: str) -> Any:
        """Remove and return the entry under ``name`` (or raise).

        The undo for a runtime :meth:`register` — temporary entries in
        tests and plugins clean up through here, never by poking the
        internal table.
        """
        self._ensure_loaded()
        try:
            return self._entries.pop(name)
        except KeyError:
            raise RegistryError(
                f"cannot unregister unknown {self.kind} {name!r}") from None

    def get(self, name: str) -> Any:
        self._ensure_loaded()
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names())
            raise RegistryError(
                f"unknown {self.kind} {name!r}; known: {known}") from None

    def names(self) -> tuple[str, ...]:
        self._ensure_loaded()
        return tuple(sorted(self._entries))

    def items(self) -> list[tuple[str, Any]]:
        self._ensure_loaded()
        return sorted(self._entries.items())

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return name in self._entries

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __repr__(self) -> str:
        state = f"{len(self._entries)} entries" if self._loaded else "unloaded"
        return f"<Registry {self.kind}: {state}>"


def _load_policies(reg: Registry) -> None:
    from repro.policies import POLICIES
    for name, cls in POLICIES.items():
        reg._entries.setdefault(name, cls)


def _load_benchmarks(reg: Registry) -> None:
    from repro.workloads.registry import BENCHMARKS
    for name, spec in BENCHMARKS.items():
        reg._entries.setdefault(name, spec)


def _load_scenarios(reg: Registry) -> None:
    from repro.perf.scenarios import CANONICAL_SCENARIOS
    for sc in CANONICAL_SCENARIOS:
        reg._entries.setdefault(sc.name, sc)


def _load_checkers(reg: Registry) -> None:
    from repro.analysis import CHECKERS
    for name, fn in CHECKERS.items():
        reg._entries.setdefault(name, fn)


def _load_backends(reg: Registry) -> None:
    # ``object`` is the DynInstr-object engine; ``cext`` is the compiled
    # struct-of-arrays loop over the same pipeline (bit-identical
    # architectural outcome, different in-memory representation).  A
    # policy's ``core_class`` (e.g. runahead) always takes precedence
    # over the selected backend — see ``repro.experiments.runner``.
    # ``cext`` registers only when the lazy toolchain probe + build
    # succeed, so on a compiler-less host the table lists ``object`` only.
    from repro.pipeline import SMTCore
    from repro.pipeline.cext import load_cext_core
    reg._entries.setdefault("object", SMTCore)
    cext_core = load_cext_core()
    if cext_core is not None:
        reg._entries.setdefault("cext", cext_core)


#: The five registries, by kind.  ``policies`` maps name -> policy class,
#: ``benchmarks`` maps name -> :class:`~repro.workloads.BenchmarkSpec`,
#: ``scenarios`` maps name -> :class:`~repro.perf.Scenario`,
#: ``backends`` maps name -> engine core class
#: (:class:`~repro.pipeline.SMTCore` subclasses), and ``checkers`` maps
#: name -> static-analysis checker callable (:mod:`repro.analysis`).
policies = Registry("policy", _load_policies)
benchmarks = Registry("benchmark", _load_benchmarks)
scenarios = Registry("scenario", _load_scenarios)
backends = Registry("backend", _load_backends)
checkers = Registry("checker", _load_checkers)

KINDS: dict[str, Registry] = {
    "policies": policies,
    "benchmarks": benchmarks,
    "scenarios": scenarios,
    "backends": backends,
    "checkers": checkers,
}

#: Singular spellings accepted anywhere a kind is named (CLI included).
_KIND_ALIASES = {"policy": "policies", "benchmark": "benchmarks",
                 "scenario": "scenarios", "backend": "backends",
                 "checker": "checkers"}


def canonical_kind(kind: str) -> str:
    """The plural registry kind for any accepted spelling, or raise."""
    canonical = _KIND_ALIASES.get(kind, kind)
    if canonical not in KINDS:
        known = ", ".join(sorted(KINDS))
        raise RegistryError(
            f"unknown registry kind {kind!r}; known kinds: {known}")
    return canonical


def registry_for(kind: str) -> Registry:
    """The registry for ``kind`` (singular or plural spelling)."""
    return KINDS[canonical_kind(kind)]


def register(kind: str, name: str, obj: Any, *,
             overwrite: bool = False) -> Any:
    """Register ``obj`` as ``name`` in the ``kind`` registry."""
    return registry_for(kind).register(name, obj, overwrite=overwrite)


def get(kind: str, name: str) -> Any:
    """Look up ``name`` in the ``kind`` registry."""
    return registry_for(kind).get(name)


def names(kind: str) -> tuple[str, ...]:
    """All registered names of ``kind``, sorted."""
    return registry_for(kind).names()


__all__ = [
    "KINDS",
    "Registry",
    "RegistryError",
    "backends",
    "benchmarks",
    "canonical_kind",
    "checkers",
    "get",
    "names",
    "policies",
    "register",
    "registry_for",
    "scenarios",
]
