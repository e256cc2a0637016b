"""SyncLouvain — synchronised Louvain with probabilistic moves.

Reimplements the synchronised Louvain method of Chiêm, Delvenne &
Saerens (arXiv:1702.04645) on the simulated shared-memory runtime. Where
classic (asynchronous) Louvain serialises node moves, the synchronised
variant evaluates **every** node against the same sweep-start snapshot
and commits all moves at a barrier — the natural fit for bulk-
synchronous parallel hardware. Pure synchronous updating oscillates
(two nodes that would join each other swap forever, each seeing only
the snapshot); the paper's remedy is the **probabilistic move rule**:
a node that found a positive-gain move executes it only with
probability ``p`` (default 0.5), which breaks the symmetry of any
oscillation cycle while keeping every sweep embarrassingly parallel.

Determinism contract: the coin flips are a deterministic hash of
``(node, target, sweep, seed)``, decisions read only the sweep-start
snapshot, label commits have a single writer each, and volume transfers
apply at the sweep barrier in node-id order — so results are
**byte-identical across thread counts, schedules and chunkings**
(strict, like PLP/Grappolo; unlike PLM). The racecheck whitelist is
empty: kernels never read the shared arrays mid-sweep (they read the
snapshot), so any cross-block conflict is a bug by definition.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.community._kernels import neighborhood_cache
from repro.community._moves import _hash_jitter, apply_transfers, best_moves
from repro.community.base import CommunityDetector
from repro.graph.coarsening import coarsen, prolong
from repro.graph.csr import Graph
from repro.parallel.runtime import ParallelRuntime
from repro.partition.quality import modularity

__all__ = ["SyncLouvain"]


class SyncLouvain(CommunityDetector):
    """Synchronised Louvain (Chiêm et al.) with probabilistic moves.

    Parameters
    ----------
    threads:
        Simulated thread count.
    gamma:
        Modularity resolution (1.0 = standard).
    move_probability:
        Probability that a node with a positive-gain candidate move
        executes it this sweep (the paper's oscillation breaker;
        ``0 < p <= 1``, default 0.5).
    max_sweeps:
        Cap on synchronous sweeps per level.
    max_levels:
        Cap on hierarchy depth.
    patience:
        Sweeps without modularity improvement tolerated before the level
        reverts to its best labelling and stops (the probabilistic rule
        converges in expectation, not monotonically).
    schedule:
        Loop schedule for the sweep (cannot affect results — kept for
        cost-model symmetry with the other detectors).
    seed:
        Seed for the move-acceptance hash.
    """

    name = "SyncLouvain"

    def __init__(
        self,
        threads: int = 1,
        gamma: float = 1.0,
        move_probability: float = 0.5,
        max_sweeps: int = 64,
        max_levels: int = 64,
        patience: int = 3,
        schedule: str = "guided",
        seed: int = 0,
    ) -> None:
        super().__init__(threads=threads)
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        if not 0.0 < move_probability <= 1.0:
            raise ValueError("move_probability must be in (0, 1]")
        if patience < 1:
            raise ValueError("patience must be positive")
        self.gamma = gamma
        self.move_probability = move_probability
        self.max_sweeps = max_sweeps
        self.max_levels = max_levels
        self.patience = patience
        self.schedule = schedule
        self.seed = seed

    # ------------------------------------------------------------------
    def _move_phase(
        self,
        graph: Graph,
        labels: np.ndarray,
        runtime: ParallelRuntime,
        level: int,
        info: dict[str, Any],
    ) -> bool:
        """Synchronous sweeps until no node has a candidate move.

        Mutates ``labels`` in place; returns whether anything moved.
        Every sweep snapshots labels + community volumes, lets all nodes
        decide (and coin-flip) against the snapshot in parallel, then
        commits labels and applies volume transfers at the barrier.
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
        p = self.move_probability
        rc = runtime.racecheck
        if rc is not None:
            # Shared-memory contract (docs/CORRECTNESS.md): kernels read
            # only the sweep-start snapshot, labels have one writer per
            # index and volumes are written at the barrier only — no
            # races are tolerated, empty whitelists.
            labels = rc.track(labels, "slouvain.labels")
            comm_vol = rc.track(comm_vol, "slouvain.comm_vol")
        # The acceptance salt must depend only on (seed, level, sweep) so
        # results are schedule-independent; draw the base from a private
        # stream per (seed, level).
        base_salt = np.uint64(
            np.random.default_rng([self.seed, level]).integers(1, 2**63)
        )
        state: dict[str, Any] = {
            "candidates": 0, "snap": None, "vol_snap": None, "salt": base_salt,
        }
        pending: list[tuple[np.ndarray, ...]] = []
        # The item set is the same every sweep: one plan per level, sliced
        # per block at ``inv[chunk[0]]`` like PLM's.
        items = np.flatnonzero(degrees > 0)
        plan = cache.plan(items)
        inv, bounds, nbrs, ws = plan.inv, plan.bounds, plan.nbrs, plan.ws
        key_base = plan.seg * n

        def kernel(chunk: np.ndarray):
            lo = inv[chunk[0]]
            a = bounds[lo]
            b = bounds[lo + chunk.size]
            snap = state["snap"]
            decision = best_moves(
                key_base[a:b], snap[nbrs[a:b]], ws[a:b], snap[chunk],
                volumes[chunk], state["vol_snap"], omega, gamma, n, base=lo,
            )
            if decision is None:
                return None
            pos, dst = decision
            cand = chunk[pos]
            # Probabilistic synchronous rule: execute each candidate move
            # with probability p, decided by a deterministic hash so the
            # outcome is a pure function of (node, target, sweep, seed).
            accept = _hash_jitter(cand, dst, state["salt"]) < p
            if not accept.any():
                return None, int(cand.size)
            moved = cand[accept]
            return (moved, snap[moved], dst[accept], volumes[moved]), int(
                cand.size
            )

        def commit(update) -> None:
            if update is None:
                return
            batch, candidates = update
            state["candidates"] += candidates
            if batch is None:
                return
            nodes, src, dst, vol = batch
            labels[nodes] = dst
            pending.append((nodes, src, dst, vol))

        costs = degrees[items].astype(np.float64) + 3.0
        grain = max(1, min(32, items.size // (runtime.threads * 8)))
        sweeps = 0
        changed_any = False
        best_mod = modularity(graph, np.asarray(labels), gamma=gamma)
        best_labels = np.asarray(labels).copy()
        bad_sweeps = 0
        with runtime.section("move"):
            while sweeps < self.max_sweeps and items.size:
                state["candidates"] = 0
                state["salt"] = base_salt + np.uint64(sweeps * 1_000_003)
                # Sweep-start snapshots: plain arrays, so kernel reads
                # bypass the tracked shared state entirely.
                state["snap"] = np.asarray(labels).copy()
                state["vol_snap"] = np.asarray(comm_vol).copy()
                runtime.charge(float(n), parallel=True)  # snapshot pass
                runtime.parallel_for(
                    items,
                    kernel,
                    commit,
                    costs=costs,
                    schedule=self.schedule,
                    grain=grain,
                    memory_bound=0.45,
                    loop="slouvain.move",
                )
                moves = apply_transfers(comm_vol, pending)  # sweep barrier
                sweeps += 1
                if state["candidates"] == 0:
                    # True synchronous local optimum: not a single node
                    # found a positive-gain move against the snapshot.
                    break
                if moves == 0:
                    # Candidates existed but every coin flip failed; the
                    # next sweep rehashes with a fresh salt.
                    continue
                changed_any = True
                cur_mod = modularity(graph, np.asarray(labels), gamma=gamma)
                if cur_mod > best_mod + 1e-12:
                    best_mod = cur_mod
                    np.copyto(best_labels, labels)
                    bad_sweeps = 0
                else:
                    bad_sweeps += 1
                    if bad_sweeps >= self.patience:
                        np.copyto(labels, best_labels)
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
        """Move, coarsen, recurse, prolong — one hierarchy level."""
        labels = np.arange(graph.n, dtype=np.int64)
        changed = self._move_phase(graph, labels, runtime, level, info)
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
            "gamma": self.gamma,
            "move_probability": self.move_probability,
        }
        labels = self._detect(graph, runtime, 0, info)
        info["levels"] = len(info["sweeps_per_level"])
        return labels, info
