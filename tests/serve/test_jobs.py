"""JobQueue: caching, coalescing, backpressure, timeouts, error isolation,
pipelined dispatch and graph leases."""

from __future__ import annotations

import asyncio
import glob
import os
import sys
import threading

import numpy as np
import pytest

from repro.community import make_detector
from repro.graph import generators
from repro.graph import io as graph_io
from repro.parallel.backend import resolve_backend, shared_memory_available
from repro.serve.jobs import JobQueue, JobTimeout, QueueFull
from repro.serve.protocol import decode_labels
from repro.serve.registry import GraphRegistry

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="pipelining needs a process pool"
)


@pytest.fixture
def graph():
    g, _ = generators.planted_partition(200, 4, 0.3, 0.02, seed=5)
    return g


def _run(coro):
    return asyncio.run(coro)


async def _with_queue(graph, body, **kwargs):
    with GraphRegistry(capacity=4) as registry:
        registry.add("g", graph)
        queue = JobQueue(registry, workers=1, **kwargs)
        await queue.start()
        try:
            return await body(queue)
        finally:
            await queue.close()


def test_submit_matches_direct_detection(graph):
    async def body(queue):
        return await queue.submit("g", "plm", seed=3)

    payload = _run(_with_queue(graph, body))
    direct = make_detector("plm", seed=3).run(graph).partition.labels
    served = decode_labels(payload["labels"])
    assert served.tobytes() == direct.tobytes()
    assert payload["cached"] is False


def test_repeat_request_hits_cache(graph):
    async def body(queue):
        first = await queue.submit("g", "plp", seed=1)
        second = await queue.submit("g", "plp", seed=1)
        return first, second, dict(queue.stats)

    first, second, stats = _run(_with_queue(graph, body))
    assert first["cached"] is False and second["cached"] is True
    assert stats["cache_hits"] == 1 and stats["jobs"] == 1
    assert first["labels"] == second["labels"]  # same encoded bytes


def test_workers_param_does_not_split_cache(graph):
    """`workers` is host-only: both requests map to one cache entry."""

    async def body(queue):
        a = await queue.submit("g", "plm", {"workers": 1}, seed=0)
        b = await queue.submit("g", "plm", {"workers": 4}, seed=0)
        return a, b, dict(queue.stats)

    a, b, stats = _run(_with_queue(graph, body))
    assert b["cached"] is True
    assert a["labels"] == b["labels"]


def test_seed_in_params_wins_over_argument(graph):
    async def body(queue):
        explicit = await queue.submit("g", "plp", {"seed": 7}, seed=0)
        plain = await queue.submit("g", "plp", seed=7)
        return explicit, plain

    explicit, plain = _run(_with_queue(graph, body))
    assert explicit["seed"] == 7
    assert plain["cached"] is True  # same canonical key
    assert explicit["labels"] == plain["labels"]


def test_concurrent_identical_requests_coalesce(graph):
    async def body(queue):
        payloads = await asyncio.gather(
            *(queue.submit("g", "plm", seed=9) for _ in range(6))
        )
        return payloads, dict(queue.stats)

    payloads, stats = _run(_with_queue(graph, body))
    blobs = {p["labels"]["b64"] for p in payloads}
    assert len(blobs) == 1
    # One ran; the rest either coalesced onto it or hit the cache.
    assert stats["jobs"] == 1
    assert stats["coalesced"] + stats["cache_hits"] == 5


def test_bad_algorithm_and_params_rejected_before_pool(graph):
    async def body(queue):
        with pytest.raises(ValueError):
            await queue.submit("g", "krustyclust")
        with pytest.raises(ValueError):
            await queue.submit("g", "plm", {"frobnicate": 1})
        with pytest.raises(KeyError):
            await queue.submit("missing", "plm")
        return dict(queue.stats)

    stats = _run(_with_queue(graph, body))
    assert stats["jobs"] == 0


def test_backpressure_raises_queue_full(graph):
    """With max_pending=1 and the dispatcher never started, the second
    distinct submit must be rejected immediately."""

    async def body():
        with GraphRegistry(capacity=4) as registry:
            registry.add("g", graph)
            queue = JobQueue(registry, workers=1, max_pending=1)
            queue._queue = asyncio.Queue(maxsize=1)  # bounded, no dispatcher
            waiter = asyncio.ensure_future(queue.submit("g", "plm", seed=0))
            await asyncio.sleep(0.01)  # let the first submit enqueue
            with pytest.raises(QueueFull):
                await queue.submit("g", "plm", seed=1)
            waiter.cancel()
            try:
                await waiter
            except asyncio.CancelledError:
                pass
            return dict(queue.stats)

    stats = _run(body())
    assert stats["rejected"] == 1


def test_timeout_raises_job_timeout_and_cancels_unstarted(graph):
    async def body():
        with GraphRegistry(capacity=4) as registry:
            registry.add("g", graph)
            queue = JobQueue(registry, workers=1)
            queue._queue = asyncio.Queue(maxsize=4)  # dispatcher not running
            with pytest.raises(JobTimeout):
                await queue.submit("g", "plm", seed=0, timeout=0.05)
            return dict(queue.stats)

    stats = _run(body())
    assert stats["timeouts"] == 1
    assert stats["cancelled"] == 1


def test_failing_job_reports_error_not_batch_loss(graph):
    """A job that raises inside the worker fails alone; a sibling
    submitted beside it still completes."""

    async def body(queue):
        bad = queue.submit("g", "plm", {"gamma": float("nan")}, seed=0)
        good = queue.submit("g", "plp", seed=0)
        results = await asyncio.gather(bad, good, return_exceptions=True)
        return results, dict(queue.stats)

    results, stats = _run(_with_queue(graph, body))
    bad, good = results
    # NaN gamma either fails loudly (RuntimeError from the worker) or
    # produces a partition; either way the good job must succeed.
    assert isinstance(good, dict) and good["k"] >= 1
    if isinstance(bad, Exception):
        assert stats["errors"] == 1


def test_label_payload_roundtrip_is_byte_exact(graph):
    async def body(queue):
        return await queue.submit("g", "louvain", seed=2)

    payload = _run(_with_queue(graph, body))
    direct = make_detector("louvain", seed=2).run(graph).partition.labels
    served = decode_labels(payload["labels"])
    assert served.dtype == direct.dtype
    np.testing.assert_array_equal(served, direct)


# -- pipelined dispatch: one job per free pool worker -----------------------
def _gate_runs(queue, gate):
    """Hold every dispatch in its executor thread until ``gate`` opens;
    returns the list of seeds whose dispatch began."""
    ran: list[int] = []
    run = queue._run

    def gated(job):
        ran.append(job.seed)
        assert gate.wait(30), "gate never opened"
        return run(job)

    queue._run = gated
    return ran


async def _until(predicate, limit=10.0):
    deadline = asyncio.get_running_loop().time() + limit
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition not reached"
        await asyncio.sleep(0.005)


@needs_shm
def test_two_jobs_run_at_once_on_two_workers(graph):
    async def body():
        with GraphRegistry(capacity=4) as registry:
            registry.add("g", graph)
            queue = JobQueue(registry, workers=2)
            await queue.start()
            both = threading.Barrier(2, timeout=30)
            run = queue._run

            def together(job):  # passes only if both jobs run at once
                both.wait()
                return run(job)

            queue._run = together
            try:
                payloads = await asyncio.gather(
                    queue.submit("g", "plp", seed=0), queue.submit("g", "plp", seed=1)
                )
            finally:
                await queue.close()
            return payloads, dict(queue.stats)

    payloads, stats = _run(body())
    assert stats["peak_running"] == 2
    assert stats["batches"] == stats["jobs"] == 2
    assert stats["running"] == 0
    for seed, payload in enumerate(payloads):
        direct = make_detector("plp", seed=seed).run(graph).partition.labels
        assert decode_labels(payload["labels"]).tobytes() == direct.tobytes()


@needs_shm
def test_job_queued_behind_busy_slots_is_cancelled_on_timeout(graph):
    async def body():
        with GraphRegistry(capacity=4) as registry:
            registry.add("g", graph)
            queue = JobQueue(registry, workers=2)
            await queue.start()
            gate = threading.Event()
            ran = _gate_runs(queue, gate)
            try:
                busy = [
                    asyncio.ensure_future(queue.submit("g", "plp", seed=s))
                    for s in (0, 1)
                ]
                await _until(lambda: queue.stats["running"] == 2)
                with pytest.raises(JobTimeout):
                    await queue.submit("g", "plp", seed=2, timeout=0.05)
                gate.set()
                await asyncio.gather(*busy)
                await asyncio.sleep(0.05)  # a wrongly dispatched job would start
            finally:
                gate.set()
                await queue.close()
            return ran, dict(queue.stats)

    ran, stats = _run(body())
    assert sorted(ran) == [0, 1]
    assert stats["cancelled"] == 1 and stats["timeouts"] == 1
    assert stats["batches"] == 2


@needs_shm
def test_close_fails_inflight_waiter_promptly_without_leaking_shm(graph):
    before = set(glob.glob("/dev/shm/*"))

    async def body():
        registry = GraphRegistry(capacity=4)
        registry.add("g", graph)
        queue = JobQueue(registry, workers=2)
        await queue.start()
        gate = threading.Event()
        share = registry.share

        def gated_share(graph_id):  # holds the lease while it waits
            handle = share(graph_id)
            assert gate.wait(30), "gate never opened"
            return handle

        registry.share = gated_share
        try:
            waiter = asyncio.ensure_future(queue.submit("g", "plm", seed=0))
            await _until(lambda: queue.stats["running"] == 1)
            closing = asyncio.ensure_future(queue.close())
            with pytest.raises(RuntimeError, match="job queue closed"):
                await asyncio.wait_for(waiter, 5.0)
            # close() waits for the dispatch in flight to return its lease.
            assert not closing.done()
            gate.set()
            await asyncio.wait_for(closing, 60.0)
            assert queue.stats["running"] == 0
        finally:
            gate.set()
            await queue.close()
            registry.close()

    _run(body())
    leaked = set(glob.glob("/dev/shm/*")) - before
    assert not leaked, f"leaked shm segments: {leaked}"


@needs_shm
def test_inflight_graph_survives_eviction_by_concurrent_job(tmp_path):
    """Capacity 1 and two graphs: sharing the second graph evicts the
    first while its job is still on the way to a worker."""
    graphs = [
        generators.planted_partition(200, 4, 0.3, 0.02, seed=s)[0] for s in (5, 6)
    ]

    async def body():
        with GraphRegistry(capacity=1) as registry:
            for i, g in enumerate(graphs):
                path = os.fspath(tmp_path / f"g{i}.npz")
                graph_io.save_npz(g, path)
                registry.add(f"g{i}", path)
            queue = JobQueue(registry, workers=2)
            await queue.start()
            try:
                return await asyncio.gather(
                    queue.submit("g0", "plp", seed=0), queue.submit("g1", "plp", seed=0)
                )
            finally:
                await queue.close()

    payloads = _run(body())
    for g, payload in zip(graphs, payloads):
        direct = make_detector("plp", seed=0).run(g).partition.labels
        assert decode_labels(payload["labels"]).tobytes() == direct.tobytes()


@needs_shm
def test_leases_hold_under_many_racing_evictions(tmp_path):
    """More pool workers than cores, four graphs through one hot slot and
    a short switch interval: every job still reads its own graph, and
    every segment is unlinked once the queue and registry close."""
    graphs = [
        generators.planted_partition(200, 4, 0.3, 0.02, seed=s)[0] for s in range(4)
    ]
    before = set(glob.glob("/dev/shm/*"))

    async def body():
        with GraphRegistry(capacity=1) as registry:
            for i, g in enumerate(graphs):
                path = os.fspath(tmp_path / f"g{i}.npz")
                graph_io.save_npz(g, path)
                registry.add(f"g{i}", path)
            queue = JobQueue(registry, workers=4)
            await queue.start()
            try:
                return await asyncio.gather(
                    *(queue.submit(f"g{i % 4}", "plp", seed=i // 4) for i in range(12))
                ), dict(queue.stats)
            finally:
                await queue.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        payloads, stats = _run(body())
    finally:
        sys.setswitchinterval(interval)
        resolve_backend(4).shutdown()
    assert stats["errors"] == 0 and stats["peak_running"] >= 2
    for i, payload in enumerate(payloads):
        direct = make_detector("plp", seed=i // 4).run(graphs[i % 4]).partition.labels
        assert decode_labels(payload["labels"]).tobytes() == direct.tobytes()
    leaked = set(glob.glob("/dev/shm/*")) - before
    assert not leaked, f"leaked shm segments: {leaked}"
