"""Deterministic hashing for partitioning.

CPython randomizes ``hash(str)``/``hash(bytes)`` per process, which would
make reducer partitions (and therefore per-partition test expectations)
unstable across runs.  ``stable_hash`` is a process-independent FNV-1a
over a canonical byte encoding of the common key types;
``stable_hash_many`` computes the same values for a whole batch of keys,
running the byte loop across the batch in numpy instead of down each
key in Python.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def _fnv1a(data: bytes, h: int = _FNV_OFFSET) -> int:
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    return h


def stable_hash(key: Hashable) -> int:
    """64-bit process-independent hash of a key.

    Supports bytes, str, int, float, bool, None and (nested) tuples of
    those; anything else falls back to hashing its ``repr`` (documented
    as stable only if the type's repr is).
    """
    if isinstance(key, bytes):
        return _fnv1a(b"b:" + key)
    if isinstance(key, str):
        return _fnv1a(b"s:" + key.encode("utf-8"))
    if isinstance(key, bool):  # before int: bool is an int subclass
        return _fnv1a(b"B:1" if key else b"B:0")
    if isinstance(key, int):
        return _fnv1a(b"i:" + str(key).encode("ascii"))
    if isinstance(key, float):
        return _fnv1a(b"f:" + repr(key).encode("ascii"))
    if key is None:
        return _fnv1a(b"n:")
    if isinstance(key, tuple):
        h = _FNV_OFFSET
        for item in key:
            h ^= stable_hash(item)
            h = (h * _FNV_PRIME) & _MASK
        return h
    return _fnv1a(b"r:" + repr(key).encode("utf-8", "backslashreplace"))


#: Below this many keys still running, a numpy step per byte position
#: costs more than finishing those keys one at a time.
_MIN_COLUMN = 16


def _fnv1a_many(prefix: bytes, datas: list[bytes]) -> list[int]:
    """``[_fnv1a(prefix + d) for d in datas]``, column-wise.

    Keys all of one width (sort's ten-byte keys; the lengths array says
    so) are a matrix: one xor and one wrapping ``uint64`` multiply per
    byte position, straight down its columns.  Otherwise, with the keys
    ordered longest first, those still running at byte position ``j``
    are the first ``live`` of that order: one gather, one xor and one
    multiply per position cover them all.  Once fewer than
    :data:`_MIN_COLUMN` are left (a small batch, or a few long
    stragglers) the scalar loop finishes each from the state it has
    reached.
    """
    n = len(datas)
    lengths = np.fromiter(map(len, datas), dtype=np.int64, count=n)
    flat = np.frombuffer(b"".join(datas), dtype=np.uint8)
    prime = np.uint64(_FNV_PRIME)
    h = np.full(n, _fnv1a(prefix), dtype=np.uint64)
    if n >= _MIN_COLUMN and lengths.min() == lengths.max():
        for column in flat.reshape(n, int(lengths[0])).T:
            h ^= column
            h *= prime
        return h.tolist()
    # From here ``h`` is in ``order``.
    order = np.argsort(-lengths, kind="stable")
    falling = -lengths[order]
    starts = (np.cumsum(lengths) - lengths)[order]
    j = 0
    while True:
        live = int(np.searchsorted(falling, -j))  # keys longer than j
        if live < _MIN_COLUMN:
            break
        h[:live] ^= flat[starts[:live] + j]
        h[:live] *= prime
        j += 1
    for slot in range(live):
        data = datas[order[slot]]
        h[slot] = _fnv1a(data[j:], int(h[slot]))
    out = np.empty(n, dtype=np.uint64)
    out[order] = h
    return out.tolist()


def stable_hash_many(keys: Iterable[Hashable]) -> list[int]:
    """``[stable_hash(key) for key in keys]``, computed a batch at a time.

    ``bytes`` and ``str`` keys — the partitioning keys of every bundled
    app — go through the column-wise FNV-1a; every other key (and any
    subclass of the two) is hashed by :func:`stable_hash` itself.  The
    values, and with them partition membership, the hash ring and every
    seeded fault roll, are the same by construction.
    """
    keys = list(keys)
    kinds = set(map(type, keys))
    if kinds == {bytes}:
        return _fnv1a_many(b"b:", keys)
    if kinds == {str}:
        return _fnv1a_many(b"s:", list(map(str.encode, keys)))
    if kinds.isdisjoint((bytes, str)):
        return list(map(stable_hash, keys))
    # A mixed batch: each kind's keys are a batch of their own.
    out = [0] * len(keys)
    for kind in kinds:
        where = [i for i, key in enumerate(keys) if type(key) is kind]
        hashed = stable_hash_many([keys[i] for i in where])
        for i, value in zip(where, hashed):
            out[i] = value
    return out
