"""The claims table and its three front-ends: ``repro figure``, the
report and the bench module under ``benchmarks/``."""

import importlib.util
import os
from pathlib import Path
import re
import subprocess
import sys

from repro.cli import main as cli_main
from repro.experiments import claims, report
from repro.workloads import (
    FOUR_THREAD_WORKLOADS,
    TWO_THREAD_ILP,
    TWO_THREAD_MIXED,
    TWO_THREAD_MLP,
)

BENCH_MODULE = Path(__file__).parent.parent / "benchmarks" / "test_claims.py"
#: Cheap at a tiny budget, and its checks pass there.
CHEAP = claims.BY_ID["ablation-dependence-llsr"]


def _check_lines(text):
    return re.findall(r"^\s*(?:PASS|FAIL) .*$", text, flags=re.M)


class TestTable:
    def test_ids_unique(self):
        ids = [e.id for e in claims.ENTRIES]
        assert len(ids) == len(set(ids))
        assert set(claims.BY_ID) == set(ids)

    def test_figure_lists_every_id(self, capsys):
        assert cli_main(["figure"]) == 1
        out = capsys.readouterr().out
        for entry in claims.ENTRIES:
            assert f"  {entry.id} " in out

    def test_unknown_id_lists_targets(self, capsys):
        assert cli_main(["figure", "fig99"]) == 1
        assert "fig9 " in capsys.readouterr().out

    def test_full_grids(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert claims.BY_ID["fig9"].grid() == {
            "ILP": TWO_THREAD_ILP, "MLP": TWO_THREAD_MLP,
            "MIX": TWO_THREAD_MIXED}
        every_quad = [w for group in FOUR_THREAD_WORKLOADS.values()
                      for w in group]
        for eid in ("fig13", "fig22-4t"):
            assert list(claims.BY_ID[eid].grid()) == every_quad

    def test_quick_grids_are_subsets_of_the_full_lists(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        quick = claims.BY_ID["fig9"].grid()
        assert quick == claims.QUICK_2T
        for label, pairs in quick.items():
            assert set(pairs) <= set(claims.FULL_2T[label])
        assert set(claims.BY_ID["fig13"].grid()) <= set(claims.FULL_4T)

    def test_scale_halves_every_budget(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMMITS", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        for entry in claims.ENTRIES:
            assert claims.resolve_budget(entry) == entry.budget // 2

    def test_check_predicates(self):
        assert claims.check("x.a", "", 1.0, "<=", 1.10).passed
        failed = claims.check("x.b", "claim", 2.0, "<", 1.0, paper=0.8)
        assert not failed.passed
        assert str(failed) == "FAIL x.b: 2 (want < 1; paper 0.8)\n     claim"
        assert claims.ratio(0, 0) == 0.0
        assert claims.ratio(1, 0) == float("inf")

    def test_cli_import_does_not_load_the_table(self):
        code = ("import sys, repro.cli; "
                "print('repro.experiments.claims' in sys.modules)")
        src = str(Path(claims.__file__).parents[2])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True,
                             text=True).stdout
        assert out.strip() == "False"


class TestFrontEnds:
    def test_report_without_path_writes_no_file(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(claims, "ENTRIES", (CHEAP,))
        monkeypatch.chdir(tmp_path)
        assert report.main(["1000"]) == 0
        assert list(tmp_path.iterdir()) == []
        out = capsys.readouterr().out
        assert out.startswith("# Paper vs. measured")
        assert f"`repro figure {CHEAP.id}` at 1000" in out
        assert report.main(["1000", "doc.md"]) == 0
        assert (tmp_path / "doc.md").read_text() == out

    def test_three_front_ends_agree(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_COMMITS", "1000")
        assert cli_main(["figure", CHEAP.id]) == 0
        figure = _check_lines(capsys.readouterr().out)
        monkeypatch.setattr(claims, "ENTRIES", (CHEAP,))
        doc = _check_lines(report.generate())
        spec = importlib.util.spec_from_file_location("bench_claims",
                                                      BENCH_MODULE)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        bench.test_claims(CHEAP)
        benched = _check_lines(capsys.readouterr().out)
        assert len(figure) == 3
        assert figure == doc == benched

