"""Tests for the shared vectorized neighborhood kernels."""

import numpy as np
import pytest

from repro.community._kernels import gather_neighborhoods, segmented_argmax
from repro.community._moves import _group
from repro.graph import GraphBuilder, from_edges


@pytest.fixture
def weighted_graph():
    # 0 -1.0- 1, 0 -2.0- 2, 1 -0.5- 2, loop at 2 (3.0)
    b = GraphBuilder(3)
    b.add_edge(0, 1, 1.0)
    b.add_edge(0, 2, 2.0)
    b.add_edge(1, 2, 0.5)
    b.add_edge(2, 2, 3.0)
    return b.build()


class TestGather:
    def test_flattening(self, weighted_graph):
        seg, nbrs, ws = gather_neighborhoods(weighted_graph, np.array([0, 2]))
        # Node 0 has neighbors 1, 2; node 2 has 0, 1 (loop excluded).
        assert seg.tolist() == [0, 0, 1, 1]
        assert nbrs.tolist() == [1, 2, 0, 1]
        assert ws.tolist() == [1.0, 2.0, 2.0, 0.5]

    def test_loops_excluded(self, weighted_graph):
        seg, nbrs, _ = gather_neighborhoods(weighted_graph, np.array([2]))
        assert 2 not in nbrs.tolist()

    def test_empty_nodes(self, weighted_graph):
        seg, nbrs, ws = gather_neighborhoods(weighted_graph, np.array([], dtype=int))
        assert seg.size == nbrs.size == ws.size == 0

    def test_isolated_node(self):
        g = GraphBuilder(3).build()
        seg, nbrs, _ = gather_neighborhoods(g, np.array([0, 1]))
        assert seg.size == 0


def grouped(graph, nodes, labels):
    """The shared (node, label) group-by over ``nodes``' neighbor rows."""
    nodes = np.asarray(nodes)
    labels = np.asarray(labels)
    seg, nbrs, ws = gather_neighborhoods(graph, nodes)
    width = max(graph.n, int(labels.max()) + 1)
    return _group(seg * width, labels[nbrs], ws, labels[nodes], width, 0)


class TestGroupLabelWeights:
    def test_aggregation(self, weighted_graph):
        labels = np.array([7, 7, 9])
        gseg, glab, gw, _ = grouped(weighted_graph, [0], labels)
        # Node 0: weight 1.0 to label 7 (node 1), 2.0 to label 9 (node 2).
        lookup = {(int(s), int(l)): w for s, l, w in zip(gseg, glab, gw)}
        assert lookup == {(0, 7): 1.0, (0, 9): 2.0}

    def test_same_label_neighbors_summed(self):
        g = from_edges(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 4.0)])
        labels = np.array([0, 5, 5, 6])
        _, glab, gw, _ = grouped(g, [0], labels)
        lookup = dict(zip(glab.tolist(), gw.tolist()))
        assert lookup == {5: 3.0, 6: 4.0}

    def test_weight_to_label(self, weighted_graph):
        labels = np.array([7, 7, 9])
        *_, w_cur = grouped(weighted_graph, [0, 1], labels)
        # Node 0 -> label 7 weight 1.0; node 1 -> label 7 weight 1.0.
        assert w_cur.tolist() == [1.0, 1.0]

    def test_weight_to_absent_label_zero(self, weighted_graph):
        labels = np.array([1, 2, 3])
        *_, w_cur = grouped(weighted_graph, [0], labels)
        assert w_cur[0] == 0.0

    def test_argmax_per_segment(self, weighted_graph):
        labels = np.array([7, 7, 9])
        gseg, glab, gw, _ = grouped(weighted_graph, [0], labels)
        rows = segmented_argmax(gseg, gw, last=True)
        assert gseg[rows].tolist() == [0]
        assert glab[rows[0]] == 9  # weight 2.0 beats 1.0
        assert gw[rows[0]] == 2.0

    def test_argmax_custom_score(self, weighted_graph):
        labels = np.array([7, 7, 9])
        gseg, glab, gw, _ = grouped(weighted_graph, [0], labels)
        # Invert the scores: label 7 should now win.
        rows = segmented_argmax(gseg, -gw, last=True)
        assert glab[rows[0]] == 7

    def test_argmax_empty_segment(self):
        # Node 1 has no neighbor rows, so no argmax row names it.
        g = from_edges(3, [(0, 2, 1.0)])
        gseg, _, gw, _ = grouped(g, [0, 1], np.array([0, 1, 2]))
        assert gseg[segmented_argmax(gseg, gw, last=True)].tolist() == [0]

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        from repro.graph import generators

        g = generators.erdos_renyi(40, 0.2, seed=3)
        labels = rng.integers(0, 5, size=40)
        gseg, glab, gw, _ = grouped(g, np.arange(40), labels)
        rows = segmented_argmax(gseg, gw, last=True)
        has = np.zeros(40, dtype=bool)
        has[gseg[rows]] = True
        best_lab = dict(zip(gseg[rows].tolist(), glab[rows].tolist()))
        best_w = dict(zip(gseg[rows].tolist(), gw[rows].tolist()))
        for v in range(40):
            nbrs = g.neighbors(v)
            ws = g.neighbor_weights(v)
            keep = nbrs != v
            nbrs, ws = nbrs[keep], ws[keep]
            if nbrs.size == 0:
                assert not has[v]
                continue
            agg = {}
            for u, w in zip(nbrs, ws):
                agg[labels[u]] = agg.get(labels[u], 0.0) + w
            expected_w = max(agg.values())
            assert has[v]
            assert best_w[v] == pytest.approx(expected_w)
            # Tie-break: the largest label among maxima.
            maxima = [l for l, w in agg.items() if np.isclose(w, expected_w)]
            assert best_lab[v] == max(maxima)
