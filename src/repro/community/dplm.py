"""DPLM — dynamic (incremental) parallel Louvain.

The modularity counterpart of :class:`~repro.community.dplp.DynamicPLP`:
after a batch of edge events, only the communities touching an event
endpoint can profitably restructure, so the previous partition is reused
as a warm start. ``update`` marks *dirty communities* from the event
batch (the communities of every event endpoint), dissolves exactly those
into singletons, and re-runs the
PLM move phase restricted to the dissolved region — scoring gains
against the full shared community-volume state, so dirty nodes can join
or found communities while the *frozen remainder* keeps its labels. The
result is then coarsened as usual and the standard PLM recursion
finishes the hierarchy on the (much smaller) coarse graph, where frozen
communities participate as single coarse nodes. When the dirty region
exceeds ``full_threshold`` of the nodes the warm start stops paying and
``update`` transparently falls back to a full PLM run.

Quality is pinned within tolerance of a full recompute (tested via NMI
on planted churn; benchmarked continuously by the ``dplm_incremental_ab``
entry of ``BENCH_stream.json``).

Protocol::

    dplm = DynamicPLM(threads=32)
    result = dplm.run(graph)                  # full PLM on the snapshot
    ...                                       # apply events to a
                                              # DynamicGraph, then:
    result = dplm.update(dyn.freeze(), dyn.drain_events())
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.community.base import DetectionResult
from repro.community.plm import PLM
from repro.graph.coarsening import coarsen, prolong
from repro.graph.csr import Graph
from repro.graph.dynamic import EventBatch, GraphEvent
from repro.parallel.machine import PAPER_MACHINE
from repro.parallel.runtime import ParallelRuntime
from repro.partition.partition import Partition

__all__ = ["DynamicPLM"]


class DynamicPLM(PLM):
    """Parallel Louvain with incremental batch updates.

    Constructor parameters are those of :class:`~repro.community.plm.PLM`
    plus ``full_threshold`` — the dirty-node fraction beyond which
    ``update`` falls back to a full recompute. ``run`` computes a
    solution from scratch and remembers it; ``update`` continues from the
    remembered solution after a batch of edge events.
    """

    name = "DPLM"

    def __init__(self, *args, full_threshold: float = 0.25, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not 0.0 <= full_threshold <= 1.0:
            raise ValueError("full_threshold must be in [0, 1]")
        self.full_threshold = float(full_threshold)
        self._labels: np.ndarray | None = None

    def run(
        self, graph: Graph, runtime: ParallelRuntime | None = None
    ) -> DetectionResult:
        result = super().run(graph, runtime=runtime)
        self._labels = result.labels.copy()
        return result

    # ------------------------------------------------------------------
    def _dirty_region(
        self, graph: Graph, prev: np.ndarray, seeds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dirty communities of a batch and the node mask they span.

        A community is dirty when an event endpoint belongs to it; its
        *whole* membership is then re-evaluated, not just the endpoints —
        a deletion can split a community anywhere, not only at the deleted
        edge. Neighboring communities stay frozen at this level (their
        shared volumes are still live in the move phase, and the coarse
        recursion re-evaluates them at community granularity), which keeps
        the dirty region local instead of cascading one hop per batch.
        """
        dirty_comms = np.unique(prev[seeds])
        mask = np.isin(prev, dirty_comms)
        return dirty_comms, mask

    @staticmethod
    def _canonical_seed(prev: np.ndarray) -> np.ndarray:
        """Relabel every community to its minimum member node id.

        Guarantees labels stay in ``[0, n)`` (the move phase's bincount
        contract) and that dissolving dirty nodes to their own ids cannot
        collide with a frozen community's label (a frozen community keeps
        its min member, who is frozen too).
        """
        _, inv = np.unique(prev, return_inverse=True)
        rep = np.full(int(inv.max(initial=-1)) + 1, prev.size, dtype=np.int64)
        np.minimum.at(rep, inv, np.arange(prev.size, dtype=np.int64))
        return rep[inv]

    def update(
        self,
        graph: Graph,
        events: "EventBatch | list[GraphEvent]",
        runtime: ParallelRuntime | None = None,
    ) -> DetectionResult:
        """Refresh the solution after ``events`` were applied to the graph.

        ``graph`` is the *post-update* snapshot; ``events`` the drained
        edit log. Requires a prior ``run`` on a graph with the same node
        count. ``info["mode"]`` records which path ran: ``"incremental"``
        (dirty-region move + coarse recursion), ``"full"`` (dirty
        fraction above ``full_threshold``) or ``"noop"`` (empty batch).
        """
        if self._labels is None:
            raise RuntimeError("call run() before update()")
        if self._labels.shape != (graph.n,):
            raise ValueError("node count changed; rerun from scratch")
        if runtime is None:
            runtime = ParallelRuntime(PAPER_MACHINE, threads=self.threads)

        events = EventBatch.from_events(events)
        seeds = events.endpoints()
        if seeds.size == 0:
            snap = runtime.snapshot()
            info: dict[str, Any] = {
                "mode": "noop",
                "events": 0,
                "seeds": 0,
                "dirty_fraction": 0.0,
                "gamma": self.gamma,
            }
            return DetectionResult(
                Partition(self._labels.copy()), runtime.report_since(snap), info
            )

        prev = self._canonical_seed(self._labels)
        dirty_comms, mask = self._dirty_region(graph, prev, seeds)
        dirty_fraction = float(np.count_nonzero(mask)) / max(1, graph.n)
        if dirty_fraction > self.full_threshold:
            result = self.run(graph, runtime=runtime)
            info = dict(result.info)
            info.update(
                mode="full",
                events=len(events),
                seeds=int(seeds.size),
                dirty_fraction=dirty_fraction,
                dirty_communities=int(dirty_comms.size),
            )
            return DetectionResult(result.partition, result.timing, info)

        snap = runtime.snapshot()
        info = {
            "sweeps_per_level": [],
            "refine_sweeps_per_level": [],
            "gamma": self.gamma,
            "mode": "incremental",
            "events": len(events),
            "seeds": int(seeds.size),
            "dirty_fraction": dirty_fraction,
            "dirty_communities": int(dirty_comms.size),
        }
        labels = prev.copy()
        # Dissolve the dirty region to singletons; the frozen remainder
        # keeps its (min-member) labels and full volume in the shared
        # state, so dirty nodes can rejoin frozen communities.
        labels[mask] = np.flatnonzero(mask)
        _, sweeps = self._move_phase(graph, labels, runtime, "update", mask=mask)
        info["sweeps_per_level"].append(sweeps)
        # Coarsen the whole graph by the repaired labelling and finish
        # with the standard PLM recursion: the frozen remainder rides
        # along as one coarse node per community, so cross-community
        # merges the full algorithm would make remain possible.
        result = coarsen(graph, labels)
        runtime.charge_coarsening(graph.indices.size, result.graph.n)
        if result.graph.n < graph.n:
            coarse_labels = self._detect(result.graph, runtime, 1, info)
            labels = prolong(coarse_labels, result)
            runtime.charge(float(graph.n), parallel=True)
            if self.refine:
                _, refine_sweeps = self._move_phase(
                    graph, labels, runtime, "refine", mask=mask
                )
                info["refine_sweeps_per_level"].append(refine_sweeps)
        info["levels"] = len(info["sweeps_per_level"])
        self._labels = labels.copy()
        timing = runtime.report_since(snap)
        return DetectionResult(Partition(labels), timing, info)
