"""Open-loop event generator for the NRT workloads.

Sellers act independently of how busy the service is, so the load is
open-loop: one asyncio producer sends each event at its scheduled time
whatever the state of the queues, and latency is measured from that
scheduled time.  A stall therefore shows in the latency of every event
behind it, and the producer reports how late it ran.

The schedule is drawn before the timed phase from the run seed: Poisson
arrivals at a fixed rate, each event touching an item no other event of
the run touches, so the promote that first writes an item is the one
that serves its event.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from repro.serving import ItemEvent, ItemEventKind

#: Events sent back to back before the producer yields to the loop, so
#: a producer that has fallen behind cannot starve the consumers.
MAX_BURST = 64


@dataclass
class Schedule:
    """Events of one open-loop step, with their due times (seconds from
    the step start) in send order."""

    rate: float
    duration: float
    due: List[float]
    events: List[ItemEvent]


def poisson_due(rng: np.random.Generator, rate: float,
                duration: float) -> List[float]:
    """Arrival times of a Poisson process on ``[0, duration)``."""
    expected = int(rate * duration)
    gaps = rng.exponential(1.0 / rate, size=expected + 8 * int(
        expected ** 0.5) + 16)
    due = np.cumsum(gaps)
    return due[due < duration].tolist()


class EventMix:
    """Draws item events: revisions of existing items, creates of new
    items and deletes, in the given shares.  Every event names a
    distinct item.

    Args:
        rng: Source of the kinds, items and titles.
        existing: Item ids present in the serving table.
        next_new_id: First id handed to a created item.
        titles: ``(title, leaf_id)`` pairs consumed in order.
        revised, created: Shares of revisions and creates; the rest
            are deletes.
    """

    def __init__(self, rng: np.random.Generator, existing: Sequence[int],
                 next_new_id: int, titles, revised: float = 0.85,
                 created: float = 0.12) -> None:
        self._revised = revised
        self._created = created
        self._rng = rng
        self._existing = [int(i) for i in rng.permutation(existing)]
        self._next_new_id = next_new_id
        self._titles = iter(titles)

    def draw(self, due: Sequence[float]) -> List[ItemEvent]:
        """One event per due time, stamped with it as event time."""
        kinds = self._rng.random(len(due))
        events = []
        for at, roll in zip(due, kinds.tolist()):
            title, leaf_id = next(self._titles)
            if not self._existing or (self._revised <= roll
                                      < self._revised + self._created):
                # A create whenever every existing item has had its event.
                kind, item_id = ItemEventKind.CREATED, self._next_new_id
                self._next_new_id += 1
            elif roll < self._revised:
                kind, item_id = ItemEventKind.REVISED, self._existing.pop()
            else:
                kind, item_id = ItemEventKind.DELETED, self._existing.pop()
            events.append(ItemEvent(kind=kind, item_id=item_id,
                                    title=title, leaf_id=leaf_id,
                                    timestamp=at))
        return events


async def produce(schedule: Schedule, submit: Callable, t0: float,
                  sent: List[float]) -> None:
    """Send every event of ``schedule`` at ``t0 + due``.

    ``submit(event)`` is awaited per event (it may block on
    backpressure); ``sent`` receives each event's actual send time.
    """
    burst = 0
    for due, event in zip(schedule.due, schedule.events):
        wait = t0 + due - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
            burst = 0
        elif burst >= MAX_BURST:
            await asyncio.sleep(0)
            burst = 0
        sent.append(time.perf_counter())
        await submit(event)
        burst += 1
