"""Unit tests for the OpenMP-style schedules."""

import numpy as np
import pytest

from repro.parallel.scheduling import (
    dynamic_schedule,
    guided_schedule,
    make_schedule,
    static_schedule,
)


def _coverage(schedule, n):
    """Chunks must tile [0, n) exactly, in order, without overlap."""
    bounds = schedule.bounds
    return bounds[0] == 0 and bounds[-1] == n and bool(np.all(np.diff(bounds) > 0))


def _sizes(schedule):
    return np.diff(schedule.bounds).tolist()


class TestStatic:
    def test_partitions_iteration_space(self):
        sched = static_schedule(100, 4)
        assert _coverage(sched, 100)
        assert sched.chunks == 4
        assert sched.owners.tolist() == [0, 1, 2, 3]

    def test_more_threads_than_items(self):
        """Threads left without a chunk keep their ids; the rest own one."""
        sched = static_schedule(2, 8)
        assert _coverage(sched, 2)
        assert all(size >= 1 for size in _sizes(sched))
        assert sched.owners.tolist() == [3, 7]

    def test_skewed_costs_imbalanced(self):
        """Static chunks ignore cost skew — the guided-schedule motivation."""
        costs = np.ones(100)
        costs[:10] = 1000.0  # hub nodes at the front
        sched = static_schedule(costs.size, 4)
        chunk_costs = np.add.reduceat(costs, sched.bounds[:-1])
        assert chunk_costs.max() > 5 * chunk_costs.min()


class TestDynamic:
    def test_default_chunk_size(self):
        sched = dynamic_schedule(1000, 4)
        assert _coverage(sched, 1000)
        assert set(_sizes(sched)[:-1]) == {1000 // 64}
        assert sched.chunks > 4

    def test_unassigned_threads(self):
        assert dynamic_schedule(10, 2).owners is None


class TestGuided:
    def test_decreasing_chunk_sizes(self):
        sched = guided_schedule(1000, 4)
        sizes = _sizes(sched)
        assert _coverage(sched, 1000)
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[0] == 250  # ceil(1000 / 4)
        assert sizes[-1] == 1

    def test_single_thread_one_chunk(self):
        sched = guided_schedule(50, 1)
        assert sched.chunks == 1


class TestMakeSchedule:
    @pytest.mark.parametrize("kind", ["static", "dynamic", "guided"])
    def test_dispatch(self, kind):
        sched = make_schedule(kind, 20, 2)
        assert sched.kind == kind
        assert _coverage(sched, 20)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_schedule("fair", 5, 2)

    def test_empty_iteration_space(self):
        for kind in ("static", "dynamic", "guided"):
            sched = make_schedule(kind, 0, 4)
            assert sched.chunks == 0
