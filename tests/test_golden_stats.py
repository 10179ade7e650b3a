"""Cycle-exactness regression matrix for the optimized SMT core.

The fixture ``tests/golden/golden_stats.json`` was generated from the
*pre-optimization* core (``python -m repro.perf.golden``); every cell of
the fixed-seed {1,2,4}-thread x {icount, stall, flush, mlp_stall} matrix
must still reproduce its committed-cycle counts, IPC, flush counts, and
stall counters bit-for-bit.  A diff here means a hot-loop "optimization"
changed architectural behavior — that is a bug, not a baseline refresh,
unless the change to the timing model was intentional and reviewed.

Every cell runs under *all* selectable engine backends (``object``
always; the compiled ``cext`` when the host toolchain can build it):
one fixture is the cycle-exactness contract that licenses picking a
backend per :class:`repro.api.RunSpec` without touching result
semantics.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf.golden import (
    GOLDEN_SCHEMA,
    golden_matrix,
    snapshot_cell,
)
from repro.pipeline.cext import load_cext_core

_BACKENDS = ("object",) + (
    ("cext",) if load_cext_core() is not None else ())

_FIXTURE = Path(__file__).parent / "golden" / "golden_stats.json"


def _load_fixture() -> dict:
    doc = json.loads(_FIXTURE.read_text())
    assert doc["schema"] == GOLDEN_SCHEMA
    return doc


_MATRIX = {sc.name: sc for sc in golden_matrix()}


def test_fixture_covers_matrix():
    doc = _load_fixture()
    assert set(doc["cells"]) == set(_MATRIX), (
        "golden fixture out of sync with the matrix definition; "
        "regenerate with `python -m repro.perf.golden`")


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("cell", sorted(_MATRIX), ids=str)
def test_golden_cell(cell, backend):
    expected = _load_fixture()["cells"][cell]
    actual = snapshot_cell(_MATRIX[cell], backend=backend)
    assert actual == expected, (
        f"{cell} ({backend} backend): architectural stats diverged "
        f"from the pinned pre-optimization core")
