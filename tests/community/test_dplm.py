"""Tests for incremental parallel Louvain (DynamicPLM)."""

import numpy as np
import pytest

from repro.community import PLM, DynamicPLM
from repro.graph import DynamicGraph, generators
from repro.parallel.machine import PAPER_MACHINE
from repro.parallel.runtime import ParallelRuntime
from repro.partition.compare import normalized_mutual_information
from repro.partition.quality import modularity


@pytest.fixture
def planted():
    graph, truth = generators.planted_partition(2000, 10, 0.05, 0.001, seed=30)
    return graph, truth


def _community_churn(graph, truth, n_comms=2, per=20, seed=0):
    """Intra-community adds and removals confined to ``n_comms`` communities."""
    rng = np.random.default_rng(seed)
    us0, vs0, _ = graph.edge_array()
    intra = truth[us0] == truth[vs0]
    dyn = DynamicGraph.from_graph(graph)
    comms = rng.choice(int(truth.max()) + 1, size=n_comms, replace=False)
    usl, vsl, kl = [], [], []
    for c in comms:
        members = np.flatnonzero(truth == c)
        au = rng.choice(members, size=per)
        av = rng.choice(members, size=per)
        keep = au != av
        usl.append(au[keep])
        vsl.append(av[keep])
        kl.append(np.zeros(int(keep.sum()), np.uint8))
        cand = np.flatnonzero(intra & (truth[us0] == c))
        pick = rng.choice(cand, size=min(per // 2, cand.size), replace=False)
        usl.append(us0[pick])
        vsl.append(vs0[pick])
        kl.append(np.ones(pick.size, np.uint8))
    dyn.apply_events(
        np.concatenate(usl), np.concatenate(vsl), kinds=np.concatenate(kl)
    )
    return dyn.freeze(), dyn.drain_events()


class TestProtocol:
    def test_update_before_run_rejected(self, planted):
        graph, _ = planted
        with pytest.raises(RuntimeError):
            DynamicPLM().update(graph, [])

    def test_node_count_change_rejected(self, planted):
        graph, _ = planted
        dplm = DynamicPLM(seed=0)
        dplm.run(graph)
        with pytest.raises(ValueError):
            dplm.update(generators.ring(5), [])

    def test_bad_full_threshold_rejected(self):
        with pytest.raises(ValueError):
            DynamicPLM(full_threshold=1.5)

    def test_empty_batch_is_noop(self, planted):
        graph, _ = planted
        dplm = DynamicPLM(seed=0)
        first = dplm.run(graph)
        updated = dplm.update(graph, [])
        assert updated.info["mode"] == "noop"
        assert np.array_equal(updated.labels, first.labels)


class TestIncrementalQuality:
    def test_incremental_tracks_full_recompute(self, planted):
        graph, truth = planted
        dplm = DynamicPLM(threads=8, seed=1)
        dplm.run(graph)
        new_graph, events = _community_churn(graph, truth, seed=1)
        result = dplm.update(new_graph, events)
        assert result.info["mode"] == "incremental"
        assert result.info["dirty_fraction"] <= dplm.full_threshold
        scratch = PLM(threads=8, seed=1).run(new_graph)
        nmi = normalized_mutual_information(result.labels, scratch.labels)
        assert nmi >= 0.95
        assert modularity(new_graph, result.partition) == pytest.approx(
            modularity(new_graph, scratch.partition), abs=0.02
        )

    def test_full_fallback_when_dirty_explodes(self, planted):
        graph, truth = planted
        dplm = DynamicPLM(threads=8, seed=2, full_threshold=0.0)
        dplm.run(graph)
        new_graph, events = _community_churn(graph, truth, seed=2)
        result = dplm.update(new_graph, events)
        assert result.info["mode"] == "full"
        assert result.info["dirty_fraction"] > 0.0

    def test_successive_batches(self, planted):
        graph, truth = planted
        dplm = DynamicPLM(threads=8, seed=3)
        dplm.run(graph)
        current = graph
        for batch in range(3):
            current, events = _community_churn(graph, truth, seed=10 + batch)
            result = dplm.update(current, events)
            assert result.labels.min() >= 0
            assert result.labels.max() < current.n
            assert modularity(current, result.partition) > 0.4

    def test_info_reports_batch(self, planted):
        graph, truth = planted
        dplm = DynamicPLM(seed=4)
        dplm.run(graph)
        new_graph, events = _community_churn(graph, truth, seed=4)
        result = dplm.update(new_graph, events)
        assert result.info["events"] == len(events)
        assert result.info["seeds"] >= 1
        assert result.info["dirty_communities"] >= 1


class TestInternals:
    def test_canonical_seed(self):
        prev = np.array([5, 5, 9, 2, 2])
        canon = DynamicPLM._canonical_seed(prev)
        assert canon.tolist() == [0, 0, 2, 3, 3]

    def test_all_true_mask_is_bit_identical_to_none(self, planted):
        # The mask hook must not perturb the legacy PLM move phase: an
        # all-True mask sweeps the same node set in the same order.
        graph, _ = planted
        results = []
        for mask in (None, np.ones(graph.n, dtype=bool)):
            plm = PLM(threads=4, seed=5)
            runtime = ParallelRuntime(PAPER_MACHINE, threads=4)
            labels = np.arange(graph.n, dtype=np.int64)
            ret = plm._move_phase(graph, labels, runtime, "move", mask=mask)
            results.append((ret, labels))
        assert results[0][0] == results[1][0]
        assert np.array_equal(results[0][1], results[1][1])
