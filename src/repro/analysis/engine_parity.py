"""engine-parity-lint: the ``cext`` engine mirrors the object engine.

The compiled backend (``cext.py`` plus ``_cext_engine.c``) re-implements
the object engine's cycle body over struct-of-arrays columns and must
stay *architecturally identical* — the 34-cell golden matrix pins the
numbers, but only for the policies and stats it samples.  This checker
pins the structural contract directly:

1. **Hook parity** — the set of policy hooks ``cext.py`` and the C
   source reach (``self.policy.on_X`` reads, the ``_policy_*`` elision
   attributes bound in ``SMTCore.__init__``, and the hook names the C
   interns or resolves by name) must equal the set ``core.py`` invokes.
   A hook called by one engine and not the other means one backend
   silently ignores a whole policy mechanism.
2. **Column coverage** — every ``DynInstr`` ``__slots__`` entry must map
   to a ``SoAView`` accessor: an explicit property, a ``_col_*`` column
   property from the generation loop, or a packed flag bit; and every
   ``_col_*`` column the view reads must be a ``CextCore`` slot in
   ``cext.py``.  A DynInstr field without a column is invisible to the
   ``cext`` engine's policies.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.base import (Finding, SRC_ROOT, dotted_name,
                                 parse_file, rel, string_elements)

CHECKER = "engine-parity-lint"

_PIPELINE = SRC_ROOT / "repro" / "pipeline"

#: The policy hook vocabulary (everything FetchPolicy exposes to cores).
HOOKS = frozenset({
    "fetch_order", "fetch_pending", "on_fetch", "on_ll_detect",
    "on_load_complete", "can_dispatch", "on_resource_stall",
})

#: Elision attributes bound in ``SMTCore.__init__`` -> the hook each
#: one stands for (reading the attribute *is* invoking the hook).
POLICY_ATTR_HOOKS = {
    "_policy_fetch_order": "fetch_order",
    "_policy_fetch_pending": "fetch_pending",
    "_policy_on_fetch": "on_fetch",
    "_policy_on_fetch_load": "on_fetch",
    "_policy_on_load_complete": "on_load_complete",
    "_policy_can_dispatch": "can_dispatch",
    "_policy_on_resource_stall": "on_resource_stall",
}


def _hooks_used(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in HOOKS:
                used.add(node.attr)
            elif node.attr in POLICY_ATTR_HOOKS:
                used.add(POLICY_ATTR_HOOKS[node.attr])
        elif isinstance(node, ast.Constant) and node.value in HOOKS:
            # getattr(cls.on_X, ...) elision probes name hooks as strings
            used.add(node.value)
    return used


def _hooks_used_c(text: str) -> set[str]:
    """Hook call sites in the C engine source (text scan, not AST).

    The compiled loop reaches each hook through the same artifacts the
    Python engines use — the ``_policy_*`` elision slots (resolved by
    name in its offset table) and the literal hook attribute names it
    interns — so their spellings appearing in the source *is* the
    call-site set.
    """
    used: set[str] = set()
    for attr, hook in POLICY_ATTR_HOOKS.items():
        if f'"{attr}"' in text:
            used.add(hook)
    for hook in HOOKS:
        if f'"{hook}"' in text:
            used.add(hook)
    return used


def _soa_view_accessors(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Every attribute name SoAView exposes (explicit + generated), and
    every ``_col_*`` core column the module reads (attribute or string).
    """
    columns: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_col_"):
            columns.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.startswith("_col_")):
            columns.add(node.value)
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "SoAView":
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    for tgt in stmt.targets:
                        if isinstance(tgt, ast.Name):
                            names.add(tgt.id)
        elif isinstance(node, ast.For):
            # for _name, _x in ((...), ...): setattr(SoAView, _name, ...)
            is_view_loop = any(
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and dotted_name(stmt.value.func) == "setattr"
                and stmt.value.args
                and dotted_name(stmt.value.args[0]) == "SoAView"
                for stmt in node.body)
            if not is_view_loop or not isinstance(node.iter,
                                                  (ast.Tuple, ast.List)):
                continue
            for elt in node.iter.elts:
                if (isinstance(elt, (ast.Tuple, ast.List)) and elt.elts
                        and isinstance(elt.elts[0], ast.Constant)
                        and isinstance(elt.elts[0].value, str)):
                    names.add(elt.elts[0].value)
    return names, columns


def _class_slots(tree: ast.Module, cls: str) -> list[str]:
    """The string entries of ``cls.__slots__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign)
                        and any(isinstance(t, ast.Name)
                                and t.id == "__slots__"
                                for t in stmt.targets)):
                    return string_elements(stmt.value) or []
    return []


def check(core_path: Path | None = None,
          dyninstr_path: Path | None = None,
          cext_path: Path | None = None,
          cext_c_path: Path | None = None) -> list[Finding]:
    """Run engine-parity-lint (default: the real pipeline modules)."""
    core_path = core_path or _PIPELINE / "core.py"
    dyninstr_path = dyninstr_path or _PIPELINE / "dyninstr.py"
    cext_path = cext_path or _PIPELINE / "cext.py"
    cext_c_path = cext_c_path or _PIPELINE / "_cext_engine.c"
    cext_tree = parse_file(cext_path)
    findings: list[Finding] = []

    # 1. hook parity: the cext driver (the elision markers it caches and
    # the hooks flush_thread reaches) plus the C engine (every
    # offset-table/interned call site) against the object engine.
    core_hooks = _hooks_used(parse_file(core_path))
    cext_hooks = (_hooks_used(cext_tree)
                  | _hooks_used_c(cext_c_path.read_text()))
    for hook in sorted(core_hooks - cext_hooks):
        findings.append(Finding(
            CHECKER, rel(cext_c_path), 1,
            f"policy hook {hook!r} is invoked by {rel(core_path)} "
            f"but never by the cext backend"))
    for hook in sorted(cext_hooks - core_hooks):
        findings.append(Finding(
            CHECKER, rel(core_path), 1,
            f"policy hook {hook!r} is invoked by the cext backend "
            f"but never by the object engine"))

    # 2. DynInstr slot -> SoAView accessor -> CextCore column coverage
    dyn_tree = parse_file(dyninstr_path)
    accessors, columns = _soa_view_accessors(dyn_tree)
    for slot in _class_slots(dyn_tree, "DynInstr"):
        if slot not in accessors:
            findings.append(Finding(
                CHECKER, rel(dyninstr_path), 1,
                f"DynInstr slot {slot!r} has no SoAView accessor "
                f"(column property, flag bit, or explicit property)"))
    for col in sorted(columns - set(_class_slots(cext_tree, "CextCore"))):
        findings.append(Finding(
            CHECKER, rel(cext_path), 1,
            f"SoAView column {col!r} is not a CextCore slot"))
    return findings
