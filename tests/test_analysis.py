"""The repro.analysis static checkers: clean tree + known-bad fixtures.

Two directions: the *meta-test* runs every checker over the real tree
and requires zero findings (``repro lint`` must stay clean — fix the
violation or allowlist it with a written reason, never skip the test),
and the per-checker tests point each checker at a known-bad fixture
under ``tests/data/analysis/`` and require it to flag the planted
violations (a checker that cannot fail its fixture has rotted into a
no-op).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import registry
from repro.analysis import (
    CHECKERS,
    Finding,
    determinism_lint,
    engine_parity,
    hook_elision,
    registry_lint,
    run_checkers,
    slots_lint,
)
from repro.cli import main

DATA = Path(__file__).resolve().parent / "data" / "analysis"


def _messages(findings: list[Finding]) -> str:
    return "\n".join(str(f) for f in findings)


class TestRealTreeClean:
    """The dogfood half: the shipped tree passes its own lints."""

    def test_all_checkers_clean(self):
        findings = run_checkers()
        assert findings == [], _messages(findings)

    def test_lint_cli_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().err

    def test_lint_cli_json_clean(self, capsys):
        assert main(["lint", "--json"]) == 0
        assert capsys.readouterr().out.strip() == "[]"


class TestRegistryKind:
    def test_checkers_registered(self):
        assert set(registry.checkers.names()) == set(CHECKERS)

    def test_unknown_checker_name(self):
        with pytest.raises(registry.RegistryError):
            run_checkers(["not-a-checker"])

    def test_single_checker_selection(self):
        assert run_checkers(["slots-lint"]) == []


class TestFindingValue:
    def test_str_and_dict(self):
        f = Finding("slots-lint", "src/x.py", 3, "boom")
        assert str(f) == "src/x.py:3: [slots-lint] boom"
        assert f.to_dict() == {"checker": "slots-lint", "path": "src/x.py",
                               "line": 3, "message": "boom"}


class TestSlotsLintFixture:
    def test_flags_planted_violations(self):
        findings = slots_lint.check(files=[DATA / "bad_slots.py"])
        text = _messages(findings)
        assert "NoSlots does not declare __slots__" in text
        assert "WrongSlot.b is assigned" in text
        assert "ChildOfWrongSlot.d is assigned" in text
        # Inherited and own slots resolve: a/c are never flagged.
        assert ".a is assigned" not in text
        assert ".c is assigned" not in text


class TestDeterminismLintFixture:
    def test_flags_planted_violations(self):
        findings = determinism_lint.check(
            files=[DATA / "bad_determinism.py"])
        text = _messages(findings)
        assert "time.time" in text
        assert "datetime.now" in text
        assert "random" in text
        assert text.count("unordered set") == 2


class TestEngineParityFixture:
    def test_flags_planted_violations(self):
        findings = engine_parity.check(
            core_path=DATA / "bad_core.py",
            dyninstr_path=DATA / "bad_dyninstr.py",
            cext_path=DATA / "bad_cext.py",
            cext_c_path=DATA / "bad_cext.c")
        text = _messages(findings)
        assert "'on_ll_detect'" in text          # hook lost in the C twin
        assert "'mystery'" in text               # slot with no accessor
        assert "'seq'" not in text               # covered by the property
        assert "'_col_ghost' is not a CextCore slot" in text
        assert "'_col_seq'" not in text          # declared by CextCore


class TestHookElisionFixture:
    def test_flags_planted_violations(self):
        findings = hook_elision.check(
            base_path=DATA / "bad_base.py",
            engine_files=[DATA / "bad_engine.py"])
        text = _messages(findings)
        assert "on_fetch has a no-op default body but no" in text
        assert "on_load_complete is marked _is_default_hook" in text
        assert "probes _is_default_hook on 'on_never'" in text


class TestRegistryLintFixture:
    def test_flags_undocumented_names(self):
        # A backend registered for the test: the backend table must not
        # depend on whether this host can build cext.
        registry.backends.register("fake", object)
        try:
            findings = registry_lint.check(doc_path=DATA / "bad_api_doc.md")
        finally:
            registry.backends.unregister("fake")
        text = _messages(findings)
        # The sparse doc backticks only `icount` and `object`.
        assert "'mlp_flush' is not documented" in text
        assert "'fake' is not documented" in text
        assert "'slots-lint' is not documented" in text
        assert "'icount' is not" not in text
        assert "'object' is not" not in text
