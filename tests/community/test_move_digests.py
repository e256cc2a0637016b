"""Pinned outputs of the Louvain-family detectors.

Every detector that moves nodes by modularity gain (PLM, PLMR, DPLM,
Grappolo, SyncLouvain, sequential Louvain) must keep producing the same
labels *and* the same simulated time on fixed inputs. The digests below
are sha256 over the label bytes followed by the IEEE bytes of
``timing.total``; a refactor of the move kernel that changes a single
float anywhere on the path (group order, gain association, tie rule,
commit accumulation order) changes a digest.

To re-pin after an *intended* behaviour change, print ``_digests()``
and paste the result.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.community import make_detector
from repro.graph import DynamicGraph, generators
from repro.graph.builder import GraphBuilder


def _weighted_ties(n: int = 160, seed: int = 7):
    """Random graph with dyadic weights: many gains tie exactly."""
    rng = np.random.default_rng(seed)
    us = rng.integers(0, n, size=4 * n)
    vs = rng.integers(0, n, size=4 * n)
    keep = us != vs
    ws = rng.choice([0.25, 0.5, 1.0, 1.5], size=int(keep.sum()))
    builder = GraphBuilder(n)
    builder.add_edges(us[keep], vs[keep], ws)
    return builder.build(name="weighted-ties")


def _graphs():
    planted, _ = generators.planted_partition(240, 6, 0.12, 0.01, seed=3)
    return {
        "planted": planted,
        "rmat": generators.rmat(8, 6, seed=4),
        "weighted": _weighted_ties(),
    }


def _digest(labels: np.ndarray, total: float) -> str:
    h = hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int64).tobytes())
    h.update(struct.pack("<d", float(total)))
    return h.hexdigest()[:16]


def _stream_digest(graph) -> str:
    """Ten churn batches through DPLM, all digests chained.

    Every batch adds and removes edges inside the current community of
    one node of the smallest first-run community with at least eight
    members, so the updates take the incremental (masked move phase) path
    rather than a full rerun.
    """
    rng = np.random.default_rng(11)
    dplm = make_detector("dplm", threads=8, seed=2)
    result = dplm.run(graph)
    h = hashlib.sha256(_digest(result.labels, result.timing.total).encode())
    dyn = DynamicGraph.from_graph(graph)
    sizes = np.bincount(result.labels)
    smallest = np.argmin(np.where(sizes >= 8, sizes, graph.n))
    anchor = int(np.flatnonzero(result.labels == smallest)[0])
    modes = []
    for _ in range(10):
        members = np.flatnonzero(result.labels == result.labels[anchor])
        au = rng.choice(members, size=4)
        av = rng.choice(members, size=4)
        keep = au != av
        us0, vs0, _ = graph.edge_array()
        inside = np.flatnonzero(np.isin(us0, members) & np.isin(vs0, members))
        drop = rng.choice(inside, size=min(2, inside.size), replace=False)
        us = np.concatenate([au[keep], us0[drop]])
        vs = np.concatenate([av[keep], vs0[drop]])
        kinds = np.concatenate(
            [np.zeros(int(keep.sum()), np.uint8), np.ones(drop.size, np.uint8)]
        )
        dyn.apply_events(us, vs, kinds=kinds)
        graph = dyn.freeze()
        result = dplm.update(graph, dyn.drain_events())
        modes.append(result.info["mode"])
        h.update(_digest(result.labels, result.timing.total).encode())
    assert "incremental" in modes
    return h.hexdigest()[:16]


_ALGORITHMS = ("plm", "plmr", "grappolo", "slouvain", "louvain")


def _digests() -> dict[str, str]:
    out = {}
    for gname, graph in _graphs().items():
        for alg in _ALGORITHMS:
            result = make_detector(alg, threads=8, seed=1).run(graph)
            out[f"{alg}/{gname}"] = _digest(result.labels, result.timing.total)
        out[f"dplm-stream/{gname}"] = _stream_digest(graph)
    return out


PINNED = {
    "dplm-stream/planted": "d8900f3f78c9e2b1",
    "dplm-stream/rmat": "1ea8945bdf3d08dd",
    "dplm-stream/weighted": "92a1e337638e88b6",
    "grappolo/planted": "3041dbe95a6bec4f",
    "grappolo/rmat": "3207a118c9a61f00",
    "grappolo/weighted": "9b4df18a50e67f1c",
    "louvain/planted": "5686a940d229f2d1",
    "louvain/rmat": "ad66cb3bade91317",
    "louvain/weighted": "95c5e2f53a11fdb8",
    "plm/planted": "8df53b110166c1dd",
    "plm/rmat": "e40fb813ba1ccc01",
    "plm/weighted": "386e2e3eea489bea",
    "plmr/planted": "14f6d16a35b0d99b",
    "plmr/rmat": "53f313bc4eacd05b",
    "plmr/weighted": "2800371a72bb86ee",
    "slouvain/planted": "f7c1a683fef289ed",
    "slouvain/rmat": "10c52db99fdf779e",
    "slouvain/weighted": "7e1df002a07e41b2",
}


@pytest.fixture(scope="module")
def digests():
    return _digests()


@pytest.mark.parametrize("key", sorted(PINNED))
def test_output_digest_pinned(digests, key):
    assert digests[key] == PINNED[key]


def test_every_digest_is_pinned(digests):
    assert set(digests) == set(PINNED)
