"""Stateless deterministic pseudo-randomness.

Trace generation must be a pure function of ``(seed, pc, iteration)`` so a
flushed thread can re-fetch *exactly* the same instructions after a pipeline
squash, without replaying generator state.  A splitmix64-style finalizer
gives high-quality 64-bit hashes from structured keys.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


def mix64(*keys: int) -> int:
    """Hash one or more integers into a well-mixed 64-bit value."""
    h = 0x9E3779B97F4A7C15
    for k in keys:
        h = mix64_step(h, k)
    return h


def mix64_step(h: int, key: int) -> int:
    """One more :func:`mix64` round: ``mix64(*keys, k) ==
    mix64_step(mix64(*keys), k)``.

    Lets a caller hash a fixed key prefix once and mix only the varying
    last key per call (the trace generator's per-iteration hashes).
    """
    h = (h + (key & _MASK)) & _MASK
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _MASK
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK
    h ^= h >> 31
    return h


def uniform_double(*keys: int) -> float:
    """Deterministic uniform float in [0, 1) derived from ``keys``."""
    return mix64(*keys) / float(1 << 64)


def bounded(n: int, *keys: int) -> int:
    """Deterministic integer in [0, n) derived from ``keys``."""
    if n <= 0:
        raise ValueError("bound must be positive")
    return mix64(*keys) % n
