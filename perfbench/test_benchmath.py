"""Self-tests of the benchmark's own arithmetic (``benchmath.py``).

Run with ``python3 -m pytest perfbench``; they need neither the program
nor numpy.
"""

from __future__ import annotations

import pytest

import benchmath


class TestTailPercentile:
    def test_p99_needs_ten_samples_beyond(self):
        assert benchmath.tail_percentile(1000) == 99.0
        assert benchmath.tail_percentile(999) == 95.0

    def test_p999_from_ten_thousand(self):
        assert benchmath.tail_percentile(10_000) == 99.9
        assert benchmath.tail_percentile(9_999) == 99.0

    def test_small_counts_fall_back_to_lower_percentiles(self):
        assert benchmath.tail_percentile(200) == 95.0
        assert benchmath.tail_percentile(100) == 90.0
        assert benchmath.tail_percentile(40) == 75.0
        assert benchmath.tail_percentile(20) == 50.0
        assert benchmath.tail_percentile(19) is None

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert benchmath.percentile(values, 50) == 50
        assert benchmath.percentile(values, 99) == 99
        assert benchmath.percentile(values, 100) == 100
        assert benchmath.percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            benchmath.percentile([], 50)


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        spans = [(1, None, 0.0, 10.0), (2, 1, 1.0, 3.0), (3, 2, 1.5, 2.5)]
        own = benchmath.self_times(spans)
        assert own == pytest.approx({1: 8.0, 2: 1.0, 3: 1.0})

    def test_overlapping_children_count_once(self):
        # Two children on two threads overlap on [4, 6]: the parent
        # loses their union (2..8 = 6), not their sum (8).
        spans = [(1, None, 0.0, 10.0), (2, 1, 2.0, 6.0), (3, 1, 4.0, 8.0)]
        assert benchmath.self_times(spans)[1] == pytest.approx(4.0)

    def test_child_outliving_parent_is_clipped(self):
        spans = [(1, None, 0.0, 5.0), (2, 1, 3.0, 9.0)]
        own = benchmath.self_times(spans)
        assert own[1] == pytest.approx(3.0)
        assert own[2] == pytest.approx(6.0)

    def test_wall_shares_split_concurrent_self_time(self):
        # Two roots on two threads overlap on [2, 4]; each gets half.
        spans = [(1, None, 0.0, 4.0), (2, None, 2.0, 6.0)]
        shares = benchmath.wall_shares(spans)
        assert shares == pytest.approx({1: 3.0, 2: 3.0})
        assert sum(shares.values()) == pytest.approx(6.0)

    def test_wall_shares_close_against_covered_wall(self):
        spans = [(1, None, 0.0, 10.0), (2, 1, 1.0, 7.0), (3, 1, 2.0, 9.0),
                 (4, 3, 2.5, 3.0), (5, None, 12.0, 13.0)]
        shares = benchmath.wall_shares(spans)
        assert sum(shares.values()) == pytest.approx(11.0)
        assert all(value >= 0 for value in shares.values())


class TestBacklog:
    def test_served_on_time_is_not_growing(self):
        due = [i * 0.01 for i in range(400)]
        served = [t + 0.02 for t in due]
        assert not benchmath.backlog_growing(due, served, 0.0, 4.0, 5)

    def test_service_slower_than_arrivals_is_growing(self):
        due = [i * 0.01 for i in range(400)]
        served = [i * 0.02 for i in range(400)]   # half the arrival rate
        assert benchmath.backlog_growing(due, served, 0.0, 4.0, 5)

    def test_constant_batching_delay_within_tolerance(self):
        due = [i * 0.01 for i in range(400)]
        served = [(int(t / 0.1) + 1) * 0.1 for t in due]   # 10-event windows
        assert not benchmath.backlog_growing(due, served, 0.0, 4.0, 10)

    def test_never_served_counts_as_backlog(self):
        due = [i * 0.01 for i in range(400)]
        served = [float("inf")] * 400
        assert benchmath.backlog(due, served, 1.0) == 101
        assert benchmath.backlog_growing(due, served, 0.0, 4.0, 5)


class TestFailedFrac:
    def test_ratio_over_attempted(self):
        assert benchmath.failed_frac(0, 10) == 0.0
        assert benchmath.failed_frac(3, 12) == 0.25

    def test_base_must_be_positive(self):
        with pytest.raises(ValueError):
            benchmath.failed_frac(0, 0)

    def test_failures_cannot_exceed_attempts(self):
        with pytest.raises(ValueError):
            benchmath.failed_frac(11, 10)
        with pytest.raises(ValueError):
            benchmath.failed_frac(-1, 10)

