"""A :class:`KeyValueStore` that stamps when each write is served.

The store is handed to the program through the public ``store=`` /
``add_stream(store=)`` parameters.  It keeps the parent's behaviour and
adds a record of every promoted version: when it was promoted
(``perf_counter``), which keys it put or deleted, and the full table of
a bulk load.  From that record the benchmark reads freshness (event due
time to the promote that serves it) and replays the table to check the
program's output.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.serving import KeyValueStore


@dataclass
class Promotion:
    """One promoted version."""

    at: float
    version: int
    #: Keys put (value) or deleted (``None``) in the version.
    writes: Dict[int, Optional[list]]
    #: The records of a bulk load, or ``None`` for a point-write version.
    bulk: Optional[Mapping[int, list]]


class StampedStore(KeyValueStore):
    """Records every promotion; see the module docstring.

    With ``timing_lock`` the transaction lock is a :class:`TimingLock`,
    which adds up the time writers wait for it.

    Writers hold the store's transaction lock from staging to promote,
    so the per-version bookkeeping needs no lock of its own.
    """

    def __init__(self, timing_lock: bool = False) -> None:
        super().__init__()
        if timing_lock:
            self.lock = TimingLock()
        self._writes: Dict[int, Dict[int, Optional[list]]] = {}
        self._bulk: Dict[int, Mapping[int, list]] = {}
        self.promotions: List[Promotion] = []
        #: key -> perf_counter of the first promote that put or deleted it.
        self.served_at: Dict[int, float] = {}

    def put(self, version: int, key: int, value) -> None:
        super().put(version, key, value)
        self._writes.setdefault(version, {})[key] = value

    def delete(self, version: int, key: int) -> None:
        super().delete(version, key)
        self._writes.setdefault(version, {})[key] = None

    def bulk_load(self, version: int, records: Mapping[int, list]) -> None:
        super().bulk_load(version, records)
        self._bulk[version] = records

    def promote(self, version: int) -> None:
        super().promote(version)
        at = time.perf_counter()
        writes = self._writes.pop(version, {})
        for key in writes:
            self.served_at.setdefault(key, at)
        self.promotions.append(Promotion(at, version, writes,
                                         self._bulk.pop(version, None)))

    def abandon(self, version: int) -> None:
        super().abandon(version)
        self._writes.pop(version, None)
        self._bulk.pop(version, None)

    def table(self) -> Dict[int, list]:
        """The serving table, read through the public point-read API."""
        return {key: self.get(key) for key in list(self.keys())}


def replay(promotions: List[Promotion]) -> Dict[int, list]:
    """The serving table the promotions imply: a bulk load replaces the
    table (a full load stages an empty version), point writes apply on
    top of the table they were copied from."""
    table: Dict[int, list] = {}
    for promotion in promotions:
        if promotion.bulk is not None:
            table = dict(promotion.bulk)
        for key, value in promotion.writes.items():
            if value is None:
                table.pop(key, None)
            else:
                table[key] = value
    return table


class TimingLock:
    """A reentrant lock that adds the time spent waiting to acquire it
    to :attr:`wait_s`; installed as a store's transaction lock in the
    traced run."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._count_lock = threading.Lock()
        self.wait_s = 0.0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        start = time.perf_counter()
        acquired = self._lock.acquire(blocking, timeout)
        waited = time.perf_counter() - start
        with self._count_lock:
            self.wait_s += waited
        return acquired

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> "TimingLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
