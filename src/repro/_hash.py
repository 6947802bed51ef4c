"""Small deterministic integer mixing utilities.

Path providers use hash-based rotation to spread capped multipath
enumerations over parallel links/switches.  A proper avalanche mix is
required: simple multiplicative hashes leak low-bit structure (e.g. all even
keys selecting the same parallel link), which shows up as artificial
hot-spots in the flow-level simulator.

:func:`mix64_array` and :func:`tuple_hash_array` are bit-exact ``uint64``
replicas of :func:`mix64` and of CPython's ``hash((value,))``, so route
ranking can run over whole arrays of candidates.  Both work modulo 2**64,
as :func:`mix64` does, and return a negative hash in its two's complement.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mix64", "mix64_array", "tuple_hash_array"]

_MASK = (1 << 64) - 1


def mix64(key: int) -> int:
    """SplitMix64 finaliser: a cheap, well-mixed 64-bit integer hash."""
    z = (key + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


_U = np.uint64


def mix64_array(keys: np.ndarray) -> np.ndarray:
    """:func:`mix64` of every element (``uint64``; signed input wraps)."""
    z = np.asarray(keys).astype(np.uint64) + _U(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U(30))) * _U(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U(27))) * _U(0x94D049BB133111EB)
    return z ^ (z >> _U(31))


# CPython's integer hash modulus and tuple-hash constants (Objects/tupleobject.c,
# the xxHash-based tuple hash of CPython 3.8 and later; 64-bit builds)
_MODULUS = _U((1 << 61) - 1)
_XXPRIME_1 = _U(11400714785074694791)
_XXPRIME_2 = _U(14029467366897019727)
_XXPRIME_5 = _U(2870177450012600261)
_ONE_ITEM_LENGTH = _U(1 ^ (2870177450012600261 ^ 3527539))


def tuple_hash_array(values: np.ndarray) -> np.ndarray:
    """``hash((v,))`` of every ``int64`` element, as ``uint64``.

    An int hashes to ``sign(v) * (|v| mod (2**61 - 1))``, with -1 mapped to
    -2; the tuple hash then takes one xxHash round over that lane.
    """
    v = np.asarray(values, dtype=np.int64)
    negative = v < 0
    magnitude = np.where(negative, _U(0) - v.astype(np.uint64), v.astype(np.uint64))
    lane = magnitude % _MODULUS
    lane = np.where(negative, _U(0) - lane, lane)
    lane = np.where(lane == _U(_MASK), _U(_MASK - 1), lane)
    acc = _XXPRIME_5 + lane * _XXPRIME_2
    acc = ((acc << _U(31)) | (acc >> _U(33))) * _XXPRIME_1
    acc = acc + _ONE_ITEM_LENGTH
    return np.where(acc == _U(_MASK), _U(1546275796), acc)
