"""The cycle-level out-of-order SMT pipeline (the SMTSIM substitute).

Two interchangeable engine cores implement the same pipeline:
:class:`SMTCore` keeps one :class:`DynInstr` object per in-flight
instruction, while :class:`CextCore` keeps the same state as parallel
flat arrays indexed by pool slot (struct-of-arrays) and runs the cycle
body in a lazily compiled C extension.  They are bit-identical
architecturally — the golden-stats matrix pins every policy under both
— and are selected per run through the ``backends`` registry (see
:mod:`repro.registry` and ``RunSpec.backend``); an unpinned run takes
``cext`` where it builds.

``CextCore`` is re-exported lazily: importing the package must not pay
for the second engine unless it is actually used.
"""

from repro.pipeline.core import SMTCore
from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.stats import CoreStats, ThreadStats
from repro.pipeline.thread_state import ThreadState

__all__ = ["CextCore", "CoreStats", "DynInstr", "SMTCore", "ThreadState",
           "ThreadStats"]


def __getattr__(name):
    if name == "CextCore":
        from repro.pipeline.cext import CextCore
        return CextCore
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
