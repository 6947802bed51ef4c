"""The array hash replicas equal the scalar hashes they stand in for.

Route ranking runs :func:`repro._hash.mix64_array` and
:func:`repro._hash.tuple_hash_array` over whole candidate arrays, so a
single differing bit would reorder routes.  Both are pinned against
:func:`repro._hash.mix64` and the builtin ``hash((value,))`` on the edges of
CPython's integer hash (its modulus ``2**61 - 1``, ``hash(-1) == -2``) and
of ``int64``, and on random values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._hash import mix64, mix64_array, tuple_hash_array

_MASK = (1 << 64) - 1
_MODULUS = (1 << 61) - 1

EDGE_VALUES = [
    0, 1, -1, 2, -2,
    _MODULUS - 1, _MODULUS, _MODULUS + 1, -_MODULUS, -(_MODULUS + 1),
    1 << 61, -(1 << 61), 2 * _MODULUS, 2 * _MODULUS - 1,
    (1 << 62), (1 << 63) - 1, -((1 << 63) - 1), -(1 << 63),
]


def _values():
    rng = np.random.default_rng(2024)
    random = rng.integers(-(1 << 63), (1 << 63) - 1, 4000, dtype=np.int64, endpoint=True)
    return np.concatenate([np.array(EDGE_VALUES, dtype=np.int64), random])


def test_minus_one_hashes_to_minus_two():
    assert hash(-1) == -2
    assert int(tuple_hash_array(np.array([-1]))[0]) == hash((-1,)) & _MASK


@pytest.mark.parametrize("value", EDGE_VALUES)
def test_tuple_hash_edge_values(value):
    assert int(tuple_hash_array(np.array([value], dtype=np.int64))[0]) == hash((value,)) & _MASK


def test_tuple_hash_matches_builtin():
    values = _values()
    got = tuple_hash_array(values)
    assert got.dtype == np.uint64
    assert got.tolist() == [hash((v,)) & _MASK for v in values.tolist()]


def test_mix64_matches_scalar():
    values = _values()
    got = mix64_array(values)
    assert got.dtype == np.uint64
    assert got.tolist() == [mix64(v) for v in values.tolist()]


def test_mix64_of_xor_with_negative_hash_wraps_like_python():
    """Route ranking hashes ``key ^ hash((link,))``; a negative tuple hash
    is the same ``uint64`` as Python's arbitrary-precision xor modulo 2**64."""
    values = _values()
    keys = mix64_array(np.arange(len(values)))
    got = mix64_array(keys ^ tuple_hash_array(values))
    want = [mix64(int(k) ^ hash((v,))) for k, v in zip(keys.tolist(), values.tolist())]
    assert got.tolist() == want
