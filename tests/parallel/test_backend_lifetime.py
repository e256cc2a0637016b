"""Backend-lifetime regressions a long-lived server would trip over daily.

Four bugs, one test module:

1. a backend used as a context manager stayed cached in the resolver, so
   the next ``resolve_backend(n)`` handed out a dead backend whose shared
   segments were already released;
2. a mid-flight ``BrokenProcessPool`` degraded the whole surviving batch
   to inline serial execution instead of restarting the pool once;
3. a transient shared-memory probe failure was cached as ``False``
   forever, silently pinning the process to serial;
4. pool workers kept the ``REPRO_*`` environment they were started with,
   so a kernel policy set later never reached them.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

import repro.parallel.backend as B
from repro.community import EPP
from repro.graph import generators
from repro.parallel.backend import (
    ProcessPoolBackend,
    SerialBackend,
    materialize,
    resolve_backend,
    shared_memory_available,
    shm_degradation,
    shutdown_all,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on this host"
)

_SHM_DIR = "/dev/shm"


def _shm_segments() -> set[str]:
    if not os.path.isdir(_SHM_DIR):
        return set()
    return {n for n in os.listdir(_SHM_DIR) if n.startswith("psm_")}


@pytest.fixture
def clean_pools():
    before = _shm_segments()
    yield
    shutdown_all()
    assert _shm_segments() <= before, "leaked /dev/shm segments"


# -- task functions must be module-level to pickle into workers ------------
def _degree_sum(graph) -> float:
    graph = materialize(graph)
    return float(graph.weights.sum())


def _kill_worker_once(flag_path: str, value: int) -> int:
    """SIGKILL the hosting worker the first time, succeed on the retry."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def _kill_any_worker(value: str) -> str:
    """SIGKILL every pool worker that runs it; survives only inline."""
    if os.environ.get(B._IN_WORKER_ENV):
        os.kill(os.getpid(), signal.SIGKILL)
    return value


# -- bug 1: shutdown must evict from the resolver cache --------------------
def test_resolve_after_context_manager_gets_live_backend(clean_pools):
    graph = generators.erdos_renyi(40, 0.2, seed=1)
    first = resolve_backend(2)
    with first as backend:
        shared = backend.share_graph(graph)
        assert backend.map(_degree_sum, [(shared,)]) == [_degree_sum(graph)]
    assert first.closed
    # The resolver must not hand the dead backend back out...
    second = resolve_backend(2)
    assert second is not first
    assert not second.closed
    # ...and the replacement must actually run tasks on fresh segments.
    shared = second.share_graph(graph)
    assert not shared.closed
    assert second.map(_degree_sum, [(shared,)] * 3) == [_degree_sum(graph)] * 3


def test_shutdown_backend_revives_cleanly_when_reused(clean_pools):
    # Callers holding the old reference get lazy revival, not dead handles.
    graph = generators.erdos_renyi(30, 0.2, seed=2)
    backend = ProcessPoolBackend(2)
    with backend:
        old_handle = backend.share_graph(graph)
    assert backend.closed and old_handle.closed
    fresh = backend.share_graph(graph)  # recreated, not the released one
    assert not fresh.closed
    assert backend.map(_degree_sum, [(fresh,)]) == [_degree_sum(graph)]
    assert not backend.closed
    backend.shutdown()


# -- bug 2: a killed worker must not degrade the batch to one core ---------
def test_broken_pool_restarts_once_and_resubmits_survivors(clean_pools, tmp_path):
    flag = os.fspath(tmp_path / "killed-once")
    backend = ProcessPoolBackend(2)
    try:
        tasks = [(flag, i) for i in range(6)]
        assert backend.map(_kill_worker_once, tasks) == list(range(6))
        assert backend.restarts == 1
        # The fresh pool stays in service for the next batch.
        assert backend._pool is not None
        assert backend.map(_kill_worker_once, [(flag, 99)]) == [99]
        assert backend.restarts == 1
    finally:
        backend.shutdown()


def test_broken_pool_falls_back_inline_only_after_second_breakage(clean_pools):
    backend = ProcessPoolBackend(2)
    try:
        # Kills the first pool, kills the restarted pool, then runs inline.
        assert backend.map(_kill_any_worker, [("ok",)]) == ["ok"]
        assert backend.restarts == 1
    finally:
        backend.shutdown()


# -- bug 3: a transient shm probe failure must not stick -------------------
def test_shm_probe_failure_is_reprobed_and_surfaced(monkeypatch, clean_pools):
    from multiprocessing import shared_memory

    calls = {"n": 0}
    real = shared_memory.SharedMemory

    def flaky(*args, **kwargs):
        calls["n"] += 1
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(B, "_SHM_AVAILABLE", None)
    monkeypatch.setattr(B, "_SHM_LAST_ERROR", None)
    monkeypatch.setattr(shared_memory, "SharedMemory", flaky)
    assert not shared_memory_available()
    assert "No space left" in shm_degradation()
    assert isinstance(resolve_backend(2), SerialBackend)
    assert calls["n"] >= 1
    # /dev/shm drains; the very next resolve must recover on its own.
    monkeypatch.setattr(shared_memory, "SharedMemory", real)
    assert shared_memory_available()
    assert shm_degradation() is None
    assert isinstance(resolve_backend(2), ProcessPoolBackend)


def test_epp_reports_backend_degradation(monkeypatch):
    graph, _ = generators.planted_partition(120, 4, 0.3, 0.02, seed=3)
    monkeypatch.setattr(B, "_SHM_AVAILABLE", None)
    monkeypatch.setattr(
        B, "_SHM_LAST_ERROR", "shared memory unavailable: OSError: probe"
    )
    # With the module flagged degraded, shared_memory_available() would
    # normally re-probe and clear it; force the probe to keep failing.
    from multiprocessing import shared_memory

    def flaky(*args, **kwargs):
        raise OSError("probe")

    monkeypatch.setattr(shared_memory, "SharedMemory", flaky)
    result = EPP(threads=4, seed=1, ensemble_size=2, workers=2).run(graph)
    assert "backend_degraded" in result.info
    assert "probe" in result.info["backend_degraded"]
    # And a run that never asked for workers stays silent.
    serial = EPP(threads=4, seed=1, ensemble_size=2, workers=1).run(graph)
    assert "backend_degraded" not in serial.info


# -- bug 4: a REPRO_* policy set after the pool started must reach it ------
def test_policy_set_after_pool_start_reaches_workers(clean_pools, monkeypatch):
    from repro.community._kernels_numba import FALLBACK_ENV
    from repro.parallel.racecheck import RACECHECK_ENV

    graph, _ = generators.planted_partition(120, 4, 0.3, 0.02, seed=3)
    monkeypatch.delenv(RACECHECK_ENV, raising=False)  # would pin EPP inline
    monkeypatch.delenv(FALLBACK_ENV, raising=False)
    backend = resolve_backend(2)
    backend.map(os.getpid, [(), ()])  # workers start without the flag
    monkeypatch.setenv(FALLBACK_ENV, "1")
    runs = [
        EPP(threads=4, seed=1, ensemble_size=2, workers=w, kernel_backend="numba")
        .run(graph)
        .labels.tobytes()
        for w in (2, 1)
    ]
    assert runs[0] == runs[1]
