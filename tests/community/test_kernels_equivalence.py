"""Property-style equivalence tests for the vectorized chunk kernels.

Every kernel is pitted against a naive per-node dict reference on random
weighted graphs *with self-loops*, across several seeds — the reference is
obviously correct, the kernels are fast; they must agree.
"""

import numpy as np
import pytest

from repro.community._kernels import (
    NeighborhoodCache,
    gather_neighborhoods,
    neighborhood_cache,
    segmented_argmax,
)
from repro.community._moves import _group
from repro.graph import GraphBuilder


def random_loopy_graph(n: int, n_edges: int, rng: np.random.Generator):
    """Random weighted multigraph-free graph including some self-loops."""
    b = GraphBuilder(n)
    seen = set()
    while len(seen) < n_edges:
        u = int(rng.integers(0, n))
        # ~10% self-loops.
        v = u if rng.random() < 0.1 else int(rng.integers(0, n))
        if (min(u, v), max(u, v)) in seen:
            continue
        seen.add((min(u, v), max(u, v)))
        b.add_edge(u, v, float(rng.uniform(0.1, 5.0)))
    return b.build()


def reference_label_weights(graph, nodes, labels):
    """Per chunk position: {neighbor label -> summed weight}, loops excluded."""
    out = []
    for v in nodes:
        agg: dict[int, float] = {}
        nbrs = graph.neighbors(int(v))
        ws = graph.neighbor_weights(int(v))
        for u, w in zip(nbrs, ws):
            if u == v:
                continue
            agg[int(labels[u])] = agg.get(int(labels[u]), 0.0) + float(w)
        out.append(agg)
    return out


def grouped(graph, nodes, labels, cur=None):
    """The shared (node, label) group-by of ``nodes``' neighbor rows."""
    seg, nbrs, ws = gather_neighborhoods(graph, nodes)
    cur = labels[nodes] if cur is None else cur
    return _group(seg * graph.n, labels[nbrs], ws, cur, graph.n, 0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_group_label_weights_matches_dict_reference(seed):
    rng = np.random.default_rng(seed)
    graph = random_loopy_graph(60, 200, rng)
    labels = rng.integers(0, 12, size=graph.n).astype(np.int64)
    nodes = rng.permutation(graph.n)[:40].astype(np.int64)
    gseg, glab, gw, _ = grouped(graph, nodes, labels)
    got = [dict() for _ in range(nodes.size)]
    for s, l, w in zip(gseg, glab, gw):
        got[int(s)][int(l)] = float(w)
    expected = reference_label_weights(graph, nodes, labels)
    for g, e in zip(got, expected):
        assert g.keys() == e.keys()
        for lab in e:
            assert g[lab] == pytest.approx(e[lab], rel=0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weight_to_label_matches_dict_reference(seed):
    rng = np.random.default_rng(seed + 10)
    graph = random_loopy_graph(50, 160, rng)
    labels = rng.integers(0, 9, size=graph.n).astype(np.int64)
    nodes = rng.permutation(graph.n)[:30].astype(np.int64)
    *_, w_cur = grouped(graph, nodes, labels)
    expected = reference_label_weights(graph, nodes, labels)
    cur = labels[nodes]
    for pos in range(nodes.size):
        assert w_cur[pos] == pytest.approx(
            expected[pos].get(int(cur[pos]), 0.0), rel=0, abs=1e-12
        )


def test_weight_to_label_current_beyond_key_width():
    # Labels >= the fused key width cannot appear among neighbors; their
    # weight must be exactly 0 (and must not alias another fused key).
    rng = np.random.default_rng(5)
    graph = random_loopy_graph(40, 120, rng)
    labels = rng.integers(0, 6, size=graph.n).astype(np.int64)
    nodes = np.arange(graph.n, dtype=np.int64)
    huge = np.full(graph.n, 10_000_000, dtype=np.int64)
    *_, w_cur = grouped(graph, nodes, labels, cur=huge)
    assert np.all(w_cur == 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_argmax_per_segment_matches_dict_reference(seed):
    rng = np.random.default_rng(seed + 20)
    graph = random_loopy_graph(50, 150, rng)
    labels = rng.integers(0, 7, size=graph.n).astype(np.int64)
    nodes = np.arange(graph.n, dtype=np.int64)
    gseg, glab, gw, _ = grouped(graph, nodes, labels)
    rows = segmented_argmax(gseg, gw, last=True)
    best = {int(gseg[r]): (int(glab[r]), float(gw[r])) for r in rows}
    expected = reference_label_weights(graph, nodes, labels)
    for v in range(graph.n):
        if not expected[v]:
            assert v not in best
            continue
        top = max(expected[v].values())
        best_lab, best_w = best[v]
        assert best_w == pytest.approx(top, rel=0, abs=1e-12)
        # Tie-break: largest label among (float-noise-tolerant) maxima.
        maxima = [l for l, w in expected[v].items() if np.isclose(w, top)]
        assert best_lab in maxima


class TestNeighborhoodCache:
    def test_memoized_per_graph(self):
        rng = np.random.default_rng(1)
        graph = random_loopy_graph(20, 40, rng)
        assert neighborhood_cache(graph) is neighborhood_cache(graph)

    def test_gather_matches_module_function(self):
        rng = np.random.default_rng(2)
        graph = random_loopy_graph(30, 90, rng)
        cache = NeighborhoodCache(graph)
        nodes = rng.permutation(graph.n)[:17].astype(np.int64)
        seg_a, nbrs_a, ws_a = cache.gather(nodes)
        seg_b, nbrs_b, ws_b = gather_neighborhoods(graph, nodes)
        assert np.array_equal(seg_a, seg_b)
        assert np.array_equal(nbrs_a, nbrs_b)
        assert np.array_equal(ws_a, ws_b)

    def test_loops_excluded_counts(self):
        b = GraphBuilder(3)
        b.add_edge(0, 1, 1.0)
        b.add_edge(1, 1, 2.0)
        b.add_edge(1, 2, 3.0)
        cache = NeighborhoodCache(b.build())
        assert cache.counts.tolist() == [1, 2, 1]


class TestSweepPlan:
    def test_contiguous_blocks_match_gather(self):
        rng = np.random.default_rng(3)
        graph = random_loopy_graph(64, 200, rng)
        cache = neighborhood_cache(graph)
        order = rng.permutation(graph.n).astype(np.int64)
        plan = cache.plan(order)
        for lo in range(0, order.size, 7):
            chunk = order[lo : lo + 7]
            # A block finds its start from its first node, then slices.
            assert plan.inv[chunk[0]] == lo
            a, b = plan.bounds[lo], plan.bounds[lo + chunk.size]
            seg_b, nbrs_b, ws_b = cache.gather(chunk)
            assert np.array_equal(plan.seg[a:b] - lo, seg_b)
            assert np.array_equal(plan.nbrs[a:b], nbrs_b)
            assert np.array_equal(plan.ws[a:b], ws_b)
