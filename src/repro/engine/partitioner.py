"""Key partitioners for the dataflow engine.

Shuffles route each (key, value) record to the partition returned by the
partitioner. Hashing is done with a stable FNV-1a over ``repr(key)``
rather than Python's builtin ``hash`` — the builtin is salted per process
for strings, and a simulator whose partition sizes change between runs
would make every timing test flaky.

``repr``-stability is what makes this safe to use across *real*
processes too (the sharded Eq-6 sweep's shard layout has to come out
the same in the process that recovers a durable store as in the one
that wrote it): for the key types the engine shuffles —
``str``, ``bytes``, ``int``, ``bool``, ``None``, and ``float``, plus
tuples of them — CPython's ``repr`` is a pure function of the value.
Floats in particular repr as the shortest round-tripping decimal string
(guaranteed since CPython 3.1), identical in every process and on every
platform for finite values, infinities and NaN; so a tuple key like
``("u42", 3.5)`` lands on the same partition in every process. Two
classes of keys silently violate this and are rejected with
:class:`~repro.errors.EngineError` instead of partitioning
nondeterministically: objects falling back to ``object.__repr__``
(their repr embeds the per-process ``id()``) and sets/frozensets at any
nesting depth (their repr order follows the per-process string hash
salt).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import EngineError


def _has_id_based_repr(key: object) -> bool:
    """Whether *key* (or an element of it) reprs via ``object.__repr__``,
    whose output embeds the per-process ``id()``."""
    if type(key).__repr__ is object.__repr__:
        return True
    if isinstance(key, (tuple, list, set, frozenset)):
        return any(_has_id_based_repr(element) for element in key)
    if isinstance(key, dict):
        return any(_has_id_based_repr(e) for pair in key.items() for e in pair)
    return False


def _has_unordered_part(key: object) -> bool:
    """Whether *key* contains a set or frozenset anywhere.

    Set iteration (and therefore repr) order follows the per-process
    string hash salt, so an unordered collection reprs differently in
    different processes even when its *value* is identical — the same
    silent cross-process divergence the id-based-repr guard exists for.
    """
    if isinstance(key, (set, frozenset)):
        return True
    if isinstance(key, (tuple, list)):
        return any(_has_unordered_part(element) for element in key)
    if isinstance(key, dict):
        return any(_has_unordered_part(e) for pair in key.items() for e in pair)
    return False


def stable_hash(key: object) -> int:
    """Deterministic 64-bit FNV-1a hash of ``repr(key)``.

    Stable across processes, runs and platforms for keys whose ``repr``
    is value-determined (strings, bytes, numbers — including floats, see
    module docstring — and tuples thereof). Keys that fall back to the
    id-based default ``object.__repr__`` raise
    :class:`~repro.errors.EngineError`: hashing them would assign
    different partitions in different processes.
    """
    if isinstance(key, (set, frozenset, tuple, list, dict)):
        if _has_unordered_part(key):
            raise EngineError(f"set in key {key!r}: repr order varies per process")
    data = repr(key).encode("utf-8")
    # The substring is a cheap prescreen: only reprs that could embed an
    # id() pay the recursive type walk, so value-typed keys (the shuffle
    # hot path) cost one scan of a string we already built.
    if b" at 0x" in data and _has_id_based_repr(key):
        raise EngineError(f"id-based repr on key {key!r}; hash varies per process")
    value = 0xCBF29CE484222325
    for byte in data:
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


class HashPartitioner:
    """Route keys to ``stable_hash(key) % n_partitions``."""

    __slots__ = ("n_partitions",)

    def __init__(self, n_partitions: int) -> None:
        if n_partitions <= 0:
            raise EngineError(f"n_partitions must be positive, got {n_partitions}")
        self.n_partitions = n_partitions

    def partition_of(self, key: object) -> int:
        """The partition index for *key*."""
        return stable_hash(key) % self.n_partitions

    def assign(self, keys: Iterable[object]) -> list[int]:
        """Partition indexes for a batch of keys, in input order.

        The bulk entry point the sharded sweep uses to split a store's
        interned user list into shards with one call.
        """
        n = self.n_partitions
        return [stable_hash(key) % n for key in keys]

    def split(self, keys: Sequence[object]) -> list[list[int]]:
        """Partition a key sequence into per-partition *position* lists.

        Returns ``n_partitions`` lists; list ``p`` holds the positions
        (ascending) of the keys routed to partition ``p``. Positions
        rather than keys because callers shard *indexed* stores — the
        position doubles as the interned row index.
        """
        parts: list[list[int]] = [[] for _ in range(self.n_partitions)]
        for position, partition in enumerate(self.assign(keys)):
            parts[partition].append(position)
        return parts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashPartitioner):
            return False
        return other.n_partitions == self.n_partitions

    def __hash__(self) -> int:
        return hash(("HashPartitioner", self.n_partitions))
