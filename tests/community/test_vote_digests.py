"""Pinned outputs of the label-propagation family.

Every detector that votes for a dominant label (PLP, DPLP, sharded PLP
at k = 1, 2 and 4, and EPP over PLP bases) must keep producing the same
labels *and* the same simulated time on fixed inputs — the companion of
``test_move_digests.py`` for the vote kernel. Digests are sha256 over
the label bytes followed by the IEEE bytes of ``timing.total``; a
refactor of the vote that changes a single float anywhere on its path
(group order, jitter, tie rule, the merge sweep's self-loop term)
changes a digest. Sharded labels must also stay shard-count independent.

To re-pin after an *intended* behaviour change, print ``_digests()``
and paste the result.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.community import make_detector
from repro.graph import DynamicGraph, Graph
from tests.community.test_move_digests import _digest, _graphs

_SHARDS = (1, 2, 4)


def _label_digest(labels: np.ndarray) -> str:
    data = np.ascontiguousarray(labels, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _stream_digest(graph) -> str:
    """Ten random churn batches through DPLP, all digests chained."""
    rng = np.random.default_rng(13)
    dplp = make_detector("dplp", threads=8, seed=2)
    result = dplp.run(graph)
    h = hashlib.sha256(_digest(result.labels, result.timing.total).encode())
    dyn = DynamicGraph.from_graph(graph)
    for _ in range(10):
        au = rng.integers(0, graph.n, size=4)
        av = rng.integers(0, graph.n, size=4)
        keep = au != av
        us0, vs0, _ = graph.edge_array()
        drop = rng.choice(us0.size, size=2, replace=False)
        us = np.concatenate([au[keep], us0[drop]])
        vs = np.concatenate([av[keep], vs0[drop]])
        kinds = np.concatenate(
            [np.zeros(int(keep.sum()), np.uint8), np.ones(drop.size, np.uint8)]
        )
        dyn.apply_events(us, vs, kinds=kinds)
        graph = dyn.freeze()
        result = dplp.update(graph, dyn.drain_events())
        h.update(_digest(result.labels, result.timing.total).encode())
    return h.hexdigest()[:16]


def _vote_graphs():
    graphs = _graphs()
    # The lean twin stores int32 indices and float32 weights, so its
    # vote sums and scales in float32 (the dyadic weights are exact
    # there, hence the same labels as the wide graph).
    wide = graphs["weighted"]
    graphs["weighted-lean"] = Graph(
        wide.indptr, wide.indices, wide.weights, "weighted-lean", "lean"
    )
    return graphs


def _digests() -> tuple[dict[str, str], dict[str, set[str]]]:
    out = {}
    shard_labels: dict[str, set[str]] = {}
    for gname, graph in _vote_graphs().items():
        result = make_detector("plp", threads=8, seed=1).run(graph)
        out[f"plp/{gname}"] = _digest(result.labels, result.timing.total)
        for k in _SHARDS:
            result = make_detector(
                "splp", threads=8, seed=1, shards=k, workers=1
            ).run(graph)
            out[f"splp-k{k}/{gname}"] = _digest(result.labels, result.timing.total)
            shard_labels.setdefault(gname, set()).add(_label_digest(result.labels))
        result = make_detector("epp", threads=8, seed=1, workers=1).run(graph)
        out[f"epp/{gname}"] = _digest(result.labels, result.timing.total)
        out[f"dplp-stream/{gname}"] = _stream_digest(graph)
    return out, shard_labels


PINNED = {
    "dplp-stream/planted": "4450aa673fc4d518",
    "dplp-stream/rmat": "43afa02c6db5a0be",
    "dplp-stream/weighted": "94dc0321d0f22c61",
    "dplp-stream/weighted-lean": "94dc0321d0f22c61",
    "epp/planted": "6cd2ed1ce8c1b630",
    "epp/rmat": "299f7feceea6d483",
    "epp/weighted": "41fd1e7d60c1f3c1",
    "epp/weighted-lean": "41fd1e7d60c1f3c1",
    "plp/planted": "5ed134e435701791",
    "plp/rmat": "4e3eac793bbe2433",
    "plp/weighted": "93b2e6b0b97edd1f",
    "plp/weighted-lean": "93b2e6b0b97edd1f",
    "splp-k1/planted": "94f8a863921590e4",
    "splp-k1/rmat": "bf2829a32942aef3",
    "splp-k1/weighted": "8032763ae49f9de3",
    "splp-k1/weighted-lean": "8032763ae49f9de3",
    "splp-k2/planted": "7d4261d38342337f",
    "splp-k2/rmat": "915ada128688f81c",
    "splp-k2/weighted": "c7502bcccbb101ce",
    "splp-k2/weighted-lean": "c7502bcccbb101ce",
    "splp-k4/planted": "d1a8c27735d941b1",
    "splp-k4/rmat": "7b78b09ec79c30a0",
    "splp-k4/weighted": "a90de8ec09ec1c22",
    "splp-k4/weighted-lean": "a90de8ec09ec1c22",
}


@pytest.fixture(scope="module")
def digests():
    return _digests()


@pytest.mark.parametrize("key", sorted(PINNED))
def test_output_digest_pinned(digests, key):
    assert digests[0][key] == PINNED[key]


def test_every_digest_is_pinned(digests):
    assert set(digests[0]) == set(PINNED)


def test_sharded_labels_are_shard_count_independent(digests):
    for gname, seen in digests[1].items():
        assert len(seen) == 1, gname
