"""slots-lint: hot classes declare ``__slots__`` and write only slots.

Every class in the engine packages (:data:`~repro.analysis.base.ENGINE_PACKAGES`)
must either declare ``__slots__`` (a literal of strings), be a
``@dataclass(slots=True)``, be an exception or enum type, or appear on
the explicit allowlist.  Additionally every ``self.X`` assignment anywhere
in a class must resolve to a slot declared by the class or one of its
(in-scope) bases — the mistake this catches is the stray attribute that
silently re-grows a ``__dict__``-free class a per-instance dict, or dies
with ``AttributeError`` only on a cold path.

A ``"__dict__"`` entry anywhere in the slots chain is a deliberate
wildcard (``SMTCore`` uses it so tests can monkeypatch instance
methods): the declaration requirement still applies, the per-assignment
resolution is skipped.

Classes are keyed by module and name, so two modules' same-named
classes (the private ``_Entry`` of several predictor tables) never
stand in for each other.  A base name resolves in the defining module
first, then to the one in-scope class of that name; a name that several
other modules define is ambiguous and treated as an unknown base.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.base import (Finding, dotted_name, package_files,
                                 parse_file, rel, string_elements,
                                 walk_classes)

CHECKER = "slots-lint"

#: Classes intentionally left with a ``__dict__``, name -> reason.
#: Kept empty on purpose: the tree is clean today, and a new entry needs
#: a review arguing why the class can afford a per-instance dict.
ALLOWED_DICT_CLASSES: dict[str, str] = {}

#: Builtin bases that do not hand their subclasses a ``__dict__``.
_SLOTTED_BUILTINS = {"object", "list", "dict", "tuple", "int", "str"}

_EXCEPTION_BUILTINS = {
    "BaseException", "Exception", "ArithmeticError", "AssertionError",
    "AttributeError", "KeyError", "LookupError", "NotImplementedError",
    "RuntimeError", "TypeError", "ValueError",
}

#: Enum members are singletons built by the metaclass; ``__slots__``
#: does not apply to them.
_ENUM_BUILTINS = {"Enum", "IntEnum", "Flag", "IntFlag", "StrEnum"}


@dataclass
class _ClassInfo:
    name: str
    path: Path
    line: int
    bases: list[str]
    slots: list[str] | None = None      # None: no literal __slots__
    has_slots_stmt: bool = False        # a __slots__ assignment exists
    is_dataclass: bool = False
    dataclass_slots: bool = False
    fields: list[str] = field(default_factory=list)
    self_writes: list[tuple[str, int]] = field(default_factory=list)


def _is_dataclass_decorator(dec: ast.expr) -> tuple[bool, bool]:
    """(is a dataclass decorator, has slots=True) for one decorator."""
    call = dec if isinstance(dec, ast.Call) else None
    target = call.func if call is not None else dec
    name = dotted_name(target)
    if name is None or name.split(".")[-1] != "dataclass":
        return False, False
    slots = False
    if call is not None:
        for kw in call.keywords:
            if kw.arg == "slots" and isinstance(kw.value, ast.Constant):
                slots = bool(kw.value.value)
    return True, slots


def _collect_self_writes(body: Iterable[ast.stmt],
                         out: list[tuple[str, int]]) -> None:
    """All ``self.X`` stores under ``body``, skipping nested classes."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef):
            continue                     # a nested class has its own self
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        tstack = list(targets)
        while tstack:
            t = tstack.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                tstack.extend(t.elts)
            elif isinstance(t, ast.Starred):
                tstack.append(t.value)
            elif (isinstance(t, ast.Attribute)
                  and isinstance(t.value, ast.Name)
                  and t.value.id == "self"):
                out.append((t.attr, t.lineno))
        stack.extend(ast.iter_child_nodes(node))


def _class_info(cls: ast.ClassDef, path: Path) -> _ClassInfo:
    info = _ClassInfo(
        name=cls.name, path=path, line=cls.lineno,
        bases=[n for n in (dotted_name(b) for b in cls.bases)
               if n is not None])
    for dec in cls.decorator_list:
        is_dc, slots = _is_dataclass_decorator(dec)
        if is_dc:
            info.is_dataclass = True
            info.dataclass_slots = slots
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name) and tgt.id == "__slots__":
                    info.has_slots_stmt = True
                    info.slots = string_elements(stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            tgt = stmt.target
            if isinstance(tgt, ast.Name):
                if tgt.id == "__slots__":
                    info.has_slots_stmt = True
                    if stmt.value is not None:
                        info.slots = string_elements(stmt.value)
                elif info.is_dataclass:
                    ann = ast.unparse(stmt.annotation)
                    if "ClassVar" not in ann:
                        info.fields.append(tgt.id)
    _collect_self_writes(
        [s for s in cls.body
         if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))],
        info.self_writes)
    return info


class _Table:
    """The in-scope classes, keyed by (defining file, name)."""

    def __init__(self) -> None:
        self.by_key: dict[tuple[Path, str], _ClassInfo] = {}
        self.by_name: dict[str, list[_ClassInfo]] = {}

    def add(self, info: _ClassInfo) -> None:
        self.by_key[(info.path, info.name)] = info
        self.by_name.setdefault(info.name, []).append(info)

    def resolve(self, base: str, module: Path) -> _ClassInfo | None:
        """The class a base name of a class in ``module`` refers to."""
        tail = base.split(".")[-1]
        if "." not in base:              # a dotted base is imported
            local = self.by_key.get((module, tail))
            if local is not None:
                return local
        candidates = self.by_name.get(tail, [])
        return candidates[0] if len(candidates) == 1 else None


def _is_exempt(info: _ClassInfo, table: _Table,
               seen: frozenset[tuple[Path, str]] = frozenset()) -> bool:
    """Whether ``info`` is an exception or enum type."""
    for base in info.bases:
        tail = base.split(".")[-1]
        if (tail in _EXCEPTION_BUILTINS or tail.endswith("Error")
                or tail in _ENUM_BUILTINS):
            return True
        parent = table.resolve(base, info.path)
        if parent is not None and (parent.path, parent.name) not in seen:
            if _is_exempt(parent, table,
                          seen | {(parent.path, parent.name)}):
                return True
    return False


def _slot_chain(info: _ClassInfo, table: _Table,
                ) -> tuple[set[str], bool]:
    """(union of declared slots/fields up the chain, chain is wildcard).

    The chain is a wildcard — assignment checks are meaningless — when
    any ancestor keeps a ``__dict__``: an explicit ``"__dict__"`` slot,
    a computed ``__slots__``, an allowlisted class, or an unknown
    external base that is not a slot-free builtin.
    """
    names: set[str] = set()
    wildcard = False
    stack: list[_ClassInfo | str] = [info]
    seen: set[tuple[Path, str]] = set()
    while stack:
        ci = stack.pop()
        if isinstance(ci, str):          # a base with no in-scope class
            if ci.split(".")[-1] not in _SLOTTED_BUILTINS:
                wildcard = True
            continue
        if (ci.path, ci.name) in seen:
            continue
        seen.add((ci.path, ci.name))
        if ci.name in ALLOWED_DICT_CLASSES:
            wildcard = True
        if ci.is_dataclass:
            names.update(ci.fields)
            if not ci.dataclass_slots:
                wildcard = True
        elif ci.has_slots_stmt:
            if ci.slots is None or "__dict__" in ci.slots:
                wildcard = True
            else:
                names.update(ci.slots)
        else:
            wildcard = True
        for base in ci.bases:
            stack.append(table.resolve(base, ci.path) or base)
    return names, wildcard


def check(files: Sequence[Path] | None = None) -> list[Finding]:
    """Run slots-lint over ``files`` (default: the engine packages)."""
    if files is None:
        files = package_files()
    table = _Table()
    order: list[_ClassInfo] = []
    for path in files:
        for cls in walk_classes(parse_file(path)):
            info = _class_info(cls, path)
            table.add(info)
            order.append(info)

    findings: list[Finding] = []
    for info in order:
        if info.name in ALLOWED_DICT_CLASSES or _is_exempt(info, table):
            continue
        if info.is_dataclass:
            if not info.dataclass_slots:
                findings.append(Finding(
                    CHECKER, rel(info.path), info.line,
                    f"dataclass {info.name} must pass slots=True "
                    f"(or be allowlisted)"))
                continue
        elif not info.has_slots_stmt:
            findings.append(Finding(
                CHECKER, rel(info.path), info.line,
                f"class {info.name} does not declare __slots__"))
            continue
        slots, wildcard = _slot_chain(info, table)
        if wildcard:
            continue
        for attr, line in info.self_writes:
            if attr not in slots:
                findings.append(Finding(
                    CHECKER, rel(info.path), line,
                    f"{info.name}.{attr} is assigned but is not a "
                    f"declared slot of {info.name} or its bases"))
    return findings
