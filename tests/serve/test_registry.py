"""GraphRegistry: lazy loads, LRU pinning, npz spills, shm lifetime."""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.graph import generators
from repro.graph import io as graph_io
from repro.parallel.backend import SharedGraph, materialize, shared_memory_available
from repro.serve.registry import GraphRegistry


@pytest.fixture
def graph():
    g, _ = generators.planted_partition(200, 4, 0.3, 0.02, seed=7)
    return g


@pytest.fixture
def graph_path(tmp_path, graph):
    path = tmp_path / "pp.npz"
    graph_io.save_npz(graph, os.fspath(path))
    return os.fspath(path)


def _shm_listing():
    return set(glob.glob("/dev/shm/*"))


def _shm_listing_names():
    return {os.path.basename(path) for path in _shm_listing()}


def test_add_path_stays_cold(graph_path):
    with GraphRegistry(capacity=2) as reg:
        row = reg.add("pp", graph_path)
        assert row["state"] == "cold"
        assert row["n"] is None  # not loaded yet
        assert reg.stats["cold_loads"] == 0


def test_pin_loads_and_returns_same_graph(graph, graph_path):
    with GraphRegistry(capacity=2) as reg:
        reg.add("pp", graph_path)
        pinned = reg.pin("pp")
        assert pinned.n == graph.n and pinned.m == graph.m
        np.testing.assert_array_equal(pinned.indices, graph.indices)
        assert reg.describe("pp")["state"] == "hot"
        assert reg.stats["cold_loads"] == 1
        reg.pin("pp")  # warm pin: no second load
        assert reg.stats["cold_loads"] == 1


def test_add_graph_object_is_immediately_hot(graph):
    with GraphRegistry(capacity=2) as reg:
        row = reg.add("mem", graph)
        assert row["state"] == "hot"
        assert row["n"] == graph.n


def test_lru_eviction_keeps_capacity(graph):
    with GraphRegistry(capacity=2) as reg:
        for i in range(4):
            reg.add(f"g{i}", graph)
        hot = [r["graph_id"] for r in reg.list() if r["state"] == "hot"]
        assert len(hot) == 2
        # Most recently added survive.
        assert hot == ["g2", "g3"]
        assert reg.stats["evictions"] == 2


def test_evicted_graph_reloads_identically(graph):
    """An in-memory graph with no source must spill to .npz and reload
    bit-identical."""
    with GraphRegistry(capacity=1) as reg:
        reg.add("a", graph)
        reg.evict("a")
        assert reg.describe("a")["state"] == "cold"
        assert reg.stats["spills"] == 1
        back = reg.pin("a")
        np.testing.assert_array_equal(back.indptr, graph.indptr)
        np.testing.assert_array_equal(back.indices, graph.indices)
        np.testing.assert_array_equal(back.weights, graph.weights)


def test_npz_source_never_spills(graph_path):
    with GraphRegistry(capacity=1) as reg:
        reg.add("pp", graph_path)
        reg.pin("pp")
        reg.evict("pp")
        assert reg.stats["spills"] == 0  # the source file is the cache
        reg.pin("pp")


def test_share_returns_materializable_handle(graph):
    with GraphRegistry(capacity=2) as reg:
        reg.add("a", graph)
        handle = reg.share("a")
        try:
            if shared_memory_available():
                assert isinstance(handle, SharedGraph)
            got = materialize(handle)
            np.testing.assert_array_equal(got.indices, graph.indices)
        finally:
            reg.release(handle)


def test_shared_lease_outlives_eviction(graph):
    """An eviction drops only the registry's reference: the segments a
    job leased stay linked until the job hands the lease back."""
    if not shared_memory_available():
        pytest.skip("no shared memory on this host")
    with GraphRegistry(capacity=1) as reg:
        reg.add("a", graph)
        handle = reg.share("a")
        names = set(handle.segment_names)
        reg.add("b", graph)  # capacity 1: evicts "a"
        assert reg.describe("a")["state"] == "cold"
        assert names <= _shm_listing_names()
        reg.release(handle)
        assert not names & _shm_listing_names()


def test_close_releases_all_segments(graph):
    before = _shm_listing()
    reg = GraphRegistry(capacity=4)
    for i in range(3):
        reg.add(f"g{i}", graph)
    assert len(reg.segment_names()) > 0 or not shared_memory_available()
    reg.close()
    assert reg.segment_names() == set()
    leaked = _shm_listing() - before
    assert not leaked, f"leaked shm segments: {leaked}"


def test_unknown_graph_raises_keyerror():
    with GraphRegistry() as reg:
        with pytest.raises(KeyError):
            reg.pin("nope")
        assert "nope" not in reg


def test_readd_replaces_entry(graph, graph_path):
    with GraphRegistry(capacity=2) as reg:
        reg.add("x", graph)
        reg.add("x", graph_path)  # replace hot in-memory with cold path
        assert reg.describe("x")["state"] == "cold"
        assert len(reg.ids()) == 1


def test_shm_stats_tracks_pinned_segments(graph, graph_path):
    if not shared_memory_available():
        pytest.skip("no shared memory on this host")
    with GraphRegistry(capacity=2) as reg:
        assert reg.shm_stats() == {"segments": 0, "bytes": 0, "per_graph": []}
        reg.add("mem", graph)
        reg.add("pp", graph_path)
        reg.pin("pp")
        stats = reg.shm_stats()
        assert stats["segments"] == sum(
            row["segments"] for row in stats["per_graph"]
        )
        assert stats["bytes"] == sum(row["bytes"] for row in stats["per_graph"])
        assert {row["graph_id"] for row in stats["per_graph"]} == {"mem", "pp"}
        assert stats["bytes"] > 0 and stats["segments"] > 0
        # describe() mirrors the per-entry numbers.
        row = reg.describe("pp")
        assert row["shm_segments"] > 0 and row["shm_bytes"] > 0
        reg.evict("pp")
        after = reg.shm_stats()
        assert {row["graph_id"] for row in after["per_graph"]} == {"mem"}
        assert reg.describe("pp")["shm_segments"] == 0
