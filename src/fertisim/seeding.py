"""Stateless deterministic pseudo-random values derived from integer keys.

Everything in the simulator that looks random (per-plant growth jitter,
irrigation response lag, each frame's camera noise) is a pure function of a
seed plus a context key, so trajectories are reproducible bit-for-bit and
independent of call order.
"""

from __future__ import annotations

from collections.abc import Iterable

_MASK64 = (1 << 64) - 1


def _mix(x: int) -> int:
    # splitmix64 finalizer
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _absorb(acc: int, part: int) -> int:
    return _mix((acc ^ (int(part) & _MASK64)) + 0x9E3779B97F4A7C15)


def key_hash(*parts: int) -> int:
    """Map integer keys to a reproducible integer in [0, 2**64).

    Each key is taken modulo 2**64, so keys meant to differ must stay below it.
    """
    acc = 0
    for p in parts:
        acc = _absorb(acc, p)
    return acc


def unit_hashes(prefix: tuple[int, ...], lasts: Iterable[int]) -> list[float]:
    """A reproducible float in [0, 1) from ``key_hash(*prefix, last)`` for each of ``lasts``,
    the prefix hashed once: the top 53 bits of the hash, scaled."""
    acc = key_hash(*prefix)
    return [(_absorb(acc, last) >> 11) * 2.0**-53 for last in lasts]
