"""Small shared utilities (deterministic hashing, math helpers)."""

from repro.util.hashing import bounded, mix64, mix64_step, uniform_double

__all__ = ["mix64", "mix64_step", "uniform_double", "bounded"]
