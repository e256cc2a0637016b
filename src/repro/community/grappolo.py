"""Grappolo — distance-1-colored parallel Louvain (Lu & Halappanavar).

Reimplements the parallel Louvain heuristics of Lu, Halappanavar &
Kalyanaraman, *Parallel Heuristics for Scalable Community Detection*
(arXiv:1410.1237, the "Grappolo" code) on the simulated shared-memory
runtime:

* **coloring-based partitioning** — a distance-1 graph coloring
  (Jones–Plassmann with random priorities) partitions the vertices into
  independent sets; the move phase processes one color class at a time,
  all of its vertices in parallel. No two vertices evaluated
  concurrently are adjacent, so concurrent moves cannot read each
  other's labels — the races PLM embraces are *structurally impossible*
  here, and the racecheck contract for this detector is an **empty
  whitelist** (any cross-block conflict on its shared arrays is a bug,
  see docs/CORRECTNESS.md);
* **vertex following** — degree-1 vertices never justify their own
  community; they are pre-merged into their sole neighbor before the
  first level (mutual degree-1 pairs collapse onto the smaller id),
  shrinking the first — most expensive — level;
* **minimum-label tie-break** — among equal-gain target communities a
  vertex picks the smallest label. Together with snapshot-pure gain
  evaluation this makes the detector **byte-identical across thread
  counts, schedules and chunkings** (strict determinism, unlike PLM
  whose interleaving-dependent results are only pinned per machine).

Community volumes are *not* updated mid-class: gains are evaluated
against the class-start state and all volume transfers are applied at
the class barrier in node-id order, mirroring Grappolo's iteration-
frozen ``vol`` vectors and keeping float accumulation order fixed.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.community._kernels import (
    gather_neighborhoods,
    neighborhood_cache,
)
from repro.community._moves import apply_transfers, best_moves
from repro.community.base import CommunityDetector
from repro.graph.coarsening import coarsen, prolong
from repro.graph.csr import Graph
from repro.parallel.runtime import ParallelRuntime
from repro.partition.quality import modularity

__all__ = ["Grappolo", "color_graph"]


def color_graph(
    graph: Graph, seed: int = 0
) -> tuple[np.ndarray, int]:
    """Distance-1 color ``graph`` (Jones–Plassmann, random priorities).

    Every node gets a color such that no two adjacent nodes share one
    (self-loops are ignored — a node is not its own neighbor for
    coloring purposes). Rounds extract the independent set of uncolored
    nodes whose random priority beats every uncolored neighbor and give
    each member the smallest color unused in its neighborhood, so the
    result is deterministic given ``seed`` and typically uses close to
    ``max_degree + 1`` colors.

    Returns ``(colors, num_colors)`` with ``colors`` an ``int64`` array
    of length ``graph.n``.
    """
    n = graph.n
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors, 0
    rng = np.random.default_rng(seed)
    priority = rng.permutation(n)
    degrees = graph.degrees()
    # Isolated nodes have no constraints.
    colors[degrees == 0] = 0
    uncolored = colors < 0
    while uncolored.any():
        need = np.flatnonzero(uncolored)
        # Gathers exclude self-loop entries, so a node never blocks
        # itself; a node whose only entry is a self-loop gathers an empty
        # segment and becomes a candidate immediately (seg_max stays -1).
        seg, nbrs, _ = gather_neighborhoods(graph, need)
        pr = np.where(uncolored[nbrs], priority[nbrs], np.int64(-1))
        seg_max = np.full(need.size, np.int64(-1))
        np.maximum.at(seg_max, seg, pr)
        cand = need[priority[need] > seg_max]
        # Smallest color absent among already-colored neighbors (mex).
        csg, cnb, _ = gather_neighborhoods(graph, cand)
        ncol = colors[cnb]
        valid = ncol >= 0
        mex = np.zeros(cand.size, dtype=np.int64)
        if valid.any():
            csg_v = csg[valid]
            ncol_v = ncol[valid]
            width = int(ncol_v.max()) + 2
            uniq = np.unique(csg_v * width + ncol_v)
            useg, ucol = np.divmod(uniq, width)
            run_start = np.empty(uniq.size, dtype=bool)
            run_start[0] = True
            np.not_equal(useg[1:], useg[:-1], out=run_start[1:])
            starts = np.flatnonzero(run_start)
            run_idx = np.cumsum(run_start) - 1
            rank = np.arange(uniq.size, dtype=np.int64) - starts[run_idx]
            # mex = rank of the first gap in the 0,1,2,... color run, or
            # the run length when the used colors are gapless.
            big = np.int64(np.iinfo(np.int64).max)
            bad = np.where(ucol != rank, rank, big)
            first_bad = np.minimum.reduceat(bad, starts)
            counts = np.diff(np.append(starts, uniq.size))
            mex[useg[starts]] = np.where(first_bad < big, first_bad, counts)
        colors[cand] = mex
        uncolored[cand] = False
    return colors, int(colors.max()) + 1


def _vertex_following(graph: Graph) -> np.ndarray | None:
    """Lu/Halappanavar vertex following: merge degree-1 nodes upward.

    Returns a label array mapping every node to its merge target (a
    degree-1 node follows its sole neighbor; a mutual degree-1 pair
    collapses onto the smaller id; everyone else keeps its own id), or
    ``None`` when the graph has no followable vertex.
    """
    n = graph.n
    deg = np.diff(graph.indptr)
    deg1 = np.flatnonzero(deg == 1)
    if deg1.size == 0:
        return None
    target = graph.indices[graph.indptr[deg1]].astype(np.int64)
    keep = target != deg1  # a lone self-loop has nothing to follow
    deg1 = deg1[keep]
    target = target[keep]
    if deg1.size == 0:
        return None
    follow = np.arange(n, dtype=np.int64)
    follow[deg1] = target
    # Mutual pairs (isolated edges) would otherwise point at each other;
    # both endpoints collapse onto the smaller id. Longer follow chains
    # cannot occur: a middle node of a path has degree 2.
    ids = np.arange(n, dtype=np.int64)
    mutual = np.flatnonzero((follow[follow] == ids) & (follow != ids))
    follow[mutual] = np.minimum(mutual, follow[mutual])
    return follow


class Grappolo(CommunityDetector):
    """Colored parallel Louvain with vertex following.

    Parameters
    ----------
    threads:
        Simulated thread count.
    gamma:
        Modularity resolution (1.0 = standard).
    max_sweeps:
        Cap on full color-cycle sweeps per level.
    max_levels:
        Cap on hierarchy depth.
    min_gain:
        Stop a level once a sweep improves modularity by less than this
        (Lu/Halappanavar's phase termination threshold).
    vertex_following:
        Pre-merge degree-1 vertices before the first level (default on).
    schedule:
        Loop schedule for the per-class move loops.
    seed:
        Seed for the coloring priorities (per level).
    """

    name = "Grappolo"

    def __init__(
        self,
        threads: int = 1,
        gamma: float = 1.0,
        max_sweeps: int = 32,
        max_levels: int = 64,
        min_gain: float = 1e-6,
        vertex_following: bool = True,
        schedule: str = "guided",
        seed: int = 0,
    ) -> None:
        super().__init__(threads=threads)
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        if min_gain < 0:
            raise ValueError("min_gain must be non-negative")
        self.gamma = gamma
        self.max_sweeps = max_sweeps
        self.max_levels = max_levels
        self.min_gain = min_gain
        self.vertex_following = vertex_following
        self.schedule = schedule
        self.seed = seed

    # ------------------------------------------------------------------
    def _move_phase(
        self,
        graph: Graph,
        labels: np.ndarray,
        runtime: ParallelRuntime,
        colors: np.ndarray,
        num_colors: int,
        info: dict[str, Any],
    ) -> bool:
        """One level of colored move sweeps. Mutates ``labels`` in place.

        A sweep walks the color classes in ascending order; each class
        is one conflict-free ``parallel_for``. Gains are evaluated
        against the class-start community volumes (``comm_vol`` is only
        written at the class barrier, in node-id order), so the outcome
        is independent of chunking, schedule and thread count.
        """
        n = graph.n
        omega = graph.total_edge_weight
        if omega == 0 or n == 0:
            info["sweeps_per_level"].append(0)
            return False
        volumes = graph.volumes()
        degrees = graph.degrees()
        cache = neighborhood_cache(graph)
        comm_vol = np.bincount(labels, weights=volumes, minlength=n).astype(
            np.float64
        )
        gamma = self.gamma
        rc = runtime.racecheck
        if rc is not None:
            # Shared-memory contract (docs/CORRECTNESS.md): the coloring
            # makes concurrent blocks touch disjoint, non-adjacent
            # vertices and volumes are only written at class barriers, so
            # *no* races are tolerated — empty whitelists. The racecheck
            # run machine-verifies the coloring argument.
            labels = rc.track(labels, "grappolo.labels")
            comm_vol = rc.track(comm_vol, "grappolo.comm_vol")
        pending: list[tuple[np.ndarray, ...]] = []

        def kernel(chunk: np.ndarray):
            seg, nbrs, ws = cache.gather(chunk)
            decision = best_moves(
                seg * n, labels[nbrs], ws, labels[chunk], volumes[chunk],
                comm_vol, omega, gamma, n,
            )
            if decision is None:
                return None
            pos, dst = decision
            moved = chunk[pos]
            return moved, labels[moved], dst, volumes[moved]

        def commit(update) -> None:
            if update is None:
                return
            nodes, src, dst, vol = update
            # Labels have a single writer (the node's own block) and no
            # concurrent reader (no class member is adjacent to another),
            # so in-commit writes are safe; volume transfers wait for the
            # class barrier to keep float accumulation order fixed.
            labels[nodes] = dst
            pending.append((nodes, src, dst, vol))

        classes = [
            np.flatnonzero((colors == c) & (degrees > 0))
            for c in range(num_colors)
        ]
        sweeps = 0
        changed_any = False
        best_mod = modularity(graph, np.asarray(labels), gamma=gamma)
        best_labels = np.asarray(labels).copy()
        bad_sweeps = 0
        with runtime.section("move"):
            while sweeps < self.max_sweeps:
                sweep_moves = 0
                for cls in classes:
                    if cls.size == 0:
                        continue
                    grain = max(
                        1, min(32, cls.size // (runtime.threads * 8))
                    )
                    runtime.parallel_for(
                        cls,
                        kernel,
                        commit,
                        costs=degrees[cls].astype(np.float64) + 3.0,
                        schedule=self.schedule,
                        grain=grain,
                        memory_bound=0.45,
                        loop="grappolo.move",
                    )
                    sweep_moves += apply_transfers(comm_vol, pending)  # barrier
                sweeps += 1
                if sweep_moves == 0:
                    break
                changed_any = True
                # Colored sweeps are not strictly monotone (same-class
                # nodes may pile into one community on shared class-start
                # volumes), so keep the best labelling and stop once the
                # per-sweep gain falls below the threshold.
                cur_mod = modularity(graph, np.asarray(labels), gamma=gamma)
                gain = cur_mod - best_mod
                if cur_mod > best_mod + 1e-12:
                    best_mod = cur_mod
                    np.copyto(best_labels, labels)
                    bad_sweeps = 0
                else:
                    bad_sweeps += 1
                    if bad_sweeps >= 2:
                        np.copyto(labels, best_labels)
                        break
                if gain < self.min_gain and gain >= 0:
                    break
        info["sweeps_per_level"].append(sweeps)
        return changed_any

    # ------------------------------------------------------------------
    def _detect(
        self,
        graph: Graph,
        runtime: ParallelRuntime,
        level: int,
        info: dict[str, Any],
    ) -> np.ndarray:
        """Color, move, coarsen, recurse, prolong — one hierarchy level."""
        labels = np.arange(graph.n, dtype=np.int64)
        with runtime.section("color"):
            colors, num_colors = color_graph(graph, seed=self.seed + level)
            # Jones-Plassmann cost: every round scans the remaining
            # adjacency; charge one full parallel adjacency pass per
            # color produced (the usual small-constant bound).
            runtime.charge(
                float(graph.indices.size) * max(1, num_colors) * 0.1,
                parallel=True,
            )
        info["colors_per_level"].append(num_colors)
        changed = self._move_phase(
            graph, labels, runtime, colors, num_colors, info
        )
        if not changed or level + 1 >= self.max_levels:
            return labels
        result = coarsen(graph, labels)
        runtime.charge_coarsening(graph.indices.size, result.graph.n)
        if result.graph.n >= graph.n:
            return labels
        coarse_labels = self._detect(result.graph, runtime, level + 1, info)
        labels = prolong(coarse_labels, result)
        runtime.charge(float(graph.n), parallel=True)  # prolongation pass
        return labels

    def _run(
        self, graph: Graph, runtime: ParallelRuntime
    ) -> tuple[np.ndarray, dict[str, Any]]:
        info: dict[str, Any] = {
            "sweeps_per_level": [],
            "colors_per_level": [],
            "vertex_following_merged": 0,
            "gamma": self.gamma,
        }
        work = graph
        vf_result = None
        if self.vertex_following and graph.n:
            follow = _vertex_following(graph)
            if follow is not None:
                with runtime.section("vertex-following"):
                    runtime.charge(float(graph.n), parallel=True)
                    vf_result = coarsen(graph, follow, name=f"{graph.name}/vf")
                    runtime.charge_coarsening(
                        graph.indices.size, vf_result.graph.n
                    )
                info["vertex_following_merged"] = int(
                    graph.n - vf_result.graph.n
                )
                work = vf_result.graph
        labels = self._detect(work, runtime, 0, info)
        if vf_result is not None:
            labels = prolong(labels, vf_result)
            runtime.charge(float(graph.n), parallel=True)
        info["levels"] = len(info["sweeps_per_level"])
        return labels, info
