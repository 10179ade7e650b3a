"""The paper's shape claims as a test suite: one test per claims entry.

``python -m pytest benchmarks/ -q`` runs every entry of
:mod:`repro.experiments.claims` at its default budget and fails on any
failing check; add ``-s`` to see each entry's table.  Knobs:
``REPRO_COMMITS``/``REPRO_SCALE`` (budgets), ``REPRO_FULL=1`` (the
paper's full Table II/III lists), ``REPRO_JOBS`` (worker processes).
The persistent result store (``REPRO_CACHE_DIR``, default
``~/.cache/repro``) stays warm across runs.
"""

import pytest

from repro.experiments import claims
from repro.testing import resolved_result_store


@pytest.fixture(scope="module", autouse=True)
def _pinned_result_store():
    """Pin the resolved store location for the whole module, so every
    worker subprocess of a ``REPRO_JOBS`` batch sees one store."""
    with resolved_result_store():
        yield


@pytest.mark.parametrize("entry", claims.ENTRIES, ids=lambda e: e.id)
def test_claims(entry):
    outcome = entry.run()
    print(f"\n== {entry.title} (budget {outcome.budget}) ==")
    print(outcome.text)
    report = claims.format_checks(outcome.checks)
    print(report)
    assert all(c.passed for c in outcome.checks), report
