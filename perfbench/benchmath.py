"""The benchmark's own arithmetic, kept free of the program so it can be
tested on its own (``python3 -m pytest perfbench``).

* :func:`tail_percentile` — the percentile rule: report the highest
  percentile with at least ten samples beyond it.
* :func:`self_times` — a span's duration minus the part of its interval
  that its child spans cover (children may overlap or run on other
  threads, so their union is subtracted, clipped to the parent), and
  :func:`wall_shares`, the same split evenly where spans on several
  threads ran at once.
* :func:`backlog_growing` — whether an open-loop step left work queued
  faster than it was served.
* :func:`failed_frac` — failures over attempts, with the base checked.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles the rule may report, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile in :data:`PERCENTILES` that has at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it (``None`` when even
    the median has not)."""
    for q in PERCENTILES:
        # Integer arithmetic: n * (100 - q) / 100 >= MIN_BEYOND.
        if round(n * (1000 - round(q * 10))) >= MIN_BEYOND * 1000:
            return q
    return None


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def self_intervals(spans: Sequence[Tuple[int, Optional[int], float, float]]
                   ) -> List[Tuple[float, float, int]]:
    """The parts ``(lo, hi, span_id)`` of each span ``(span_id,
    parent_id, start, end)`` that none of its children cover.

    A child's interval is clipped to its parent's first, so a child that
    outlives its parent (an adopted span on another thread) never takes
    more than the parent's own interval.
    """
    by_id = {span_id: (start, end) for span_id, _p, start, end in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _span_id, parent_id, start, end in spans:
        if parent_id is None or parent_id not in by_id:
            continue
        p_start, p_end = by_id[parent_id]
        lo, hi = max(start, p_start), min(end, p_end)
        if hi > lo:
            children.setdefault(parent_id, []).append((lo, hi))
    out: List[Tuple[float, float, int]] = []
    for span_id, (start, end) in by_id.items():
        cursor = start
        for lo, hi in sorted(children.get(span_id, ())):
            if lo > cursor:
                out.append((cursor, lo, span_id))
            cursor = max(cursor, hi)
        if end > cursor:
            out.append((cursor, end, span_id))
    return out


def self_times(spans: Sequence[Tuple[int, Optional[int], float, float]]
               ) -> Dict[int, float]:
    """Self time of each span: its duration minus the union of its
    children's intervals (see :func:`self_intervals`)."""
    out = {span_id: 0.0 for span_id, _p, _s, _e in spans}
    for lo, hi, span_id in self_intervals(spans):
        out[span_id] += hi - lo
    return out


def wall_shares(spans: Sequence[Tuple[int, Optional[int], float, float]]
                ) -> Dict[int, float]:
    """Self time split by wall clock: where the self intervals of ``k``
    spans (on ``k`` threads) overlap, each gets ``1/k`` of the overlap.

    The shares therefore sum to the wall time some span covered, never
    more, so per-layer sums close against the wall time of the run.
    """
    intervals = self_intervals(spans)
    deltas: Dict[float, int] = {}
    for lo, hi, _span_id in intervals:
        deltas[lo] = deltas.get(lo, 0) + 1
        deltas[hi] = deltas.get(hi, 0) - 1
    times = sorted(deltas)
    # cumulative[t] = integral of 1/k from the first event up to t.
    cumulative: Dict[float, float] = {}
    acc, active = 0.0, 0
    for t, t_next in zip(times, times[1:] + times[-1:]):
        cumulative[t] = acc
        active += deltas[t]
        if active > 0:
            acc += (t_next - t) / active
    out = {span_id: 0.0 for span_id, _p, _s, _e in spans}
    for lo, hi, span_id in intervals:
        out[span_id] += cumulative[hi] - cumulative[lo]
    return out


def backlog(scheduled: Sequence[float], served: Sequence[float],
            t: float) -> int:
    """Events due by ``t`` and not yet served at ``t``."""
    return sum(1 for due, done in zip(scheduled, served)
               if due <= t < done)


def backlog_growing(scheduled: Sequence[float], served: Sequence[float],
                    t0: float, t1: float, tolerance: int) -> bool:
    """Whether the backlog grew over the step ``[t0, t1]``.

    The backlog is sampled at the end of the step's first and last
    quarters; it is growing when the later sample exceeds the earlier
    one by more than ``tolerance`` events (a window's worth per stream
    is normal batching, not a backlog).
    """
    quarter = (t1 - t0) / 4.0
    early = backlog(scheduled, served, t0 + quarter)
    late = backlog(scheduled, served, t1)
    return late - early > tolerance


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations as a share of attempted ones."""
    if attempted < 1:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(
            f"failed must lie in [0, attempted={attempted}], got {failed}")
    return failed / attempted

