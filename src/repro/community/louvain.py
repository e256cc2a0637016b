"""Sequential Louvain method (Blondel et al.), the paper's §V-E(a) baseline.

The original implementation processes nodes strictly sequentially in an
explicitly randomized order, so every move sees fully up-to-date community
state — no stale data, slightly better modularity than PLM, no parallel
speedup. We reproduce both properties: moves apply immediately (sequential
semantics) and all work is charged to a single simulated thread regardless
of the configured thread count.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.community._kernels import neighborhood_cache
from repro.community._moves import best_moves
from repro.community.base import CommunityDetector
from repro.graph.coarsening import coarsen, prolong
from repro.graph.csr import Graph
from repro.parallel.runtime import ParallelRuntime

__all__ = ["Louvain"]

#: Nodes per speculative block of the vectorized sequential sweep. Larger
#: blocks amortize the group-by better but invalidate more speculated
#: moves (each invalidation pays a scalar recompute).
_SWEEP_BLOCK = 256


class Louvain(CommunityDetector):
    """Original sequential Louvain method with randomized node order.

    Parameters
    ----------
    gamma:
        Modularity resolution (1.0 = standard).
    max_sweeps / max_levels:
        Safety caps as in :class:`~repro.community.plm.PLM`.
    seed:
        Node-order randomization seed.
    """

    name = "Louvain"

    def __init__(
        self,
        gamma: float = 1.0,
        max_sweeps: int = 64,
        max_levels: int = 64,
        seed: int = 0,
        vectorized: bool = True,
    ) -> None:
        super().__init__(threads=1)
        self.gamma = gamma
        self.max_sweeps = max_sweeps
        self.max_levels = max_levels
        self.seed = seed
        self.vectorized = vectorized

    # ------------------------------------------------------------------
    def _scalar_move(
        self,
        u: int,
        graph: Graph,
        labels: np.ndarray,
        comm_vol: np.ndarray,
        volumes: np.ndarray,
        omega: float,
    ) -> int:
        """Evaluate and (maybe) apply the move of ``u`` against live state.

        Returns the destination community, or -1 if ``u`` stays. This is
        the exact original per-node body; the vectorized sweep calls it
        for nodes whose speculative proposal was invalidated.
        """
        indptr, indices, weights = graph.indptr, graph.indices, graph.weights
        start, stop = indptr[u], indptr[u + 1]
        nbrs = indices[start:stop]
        ws = weights[start:stop]
        not_loop = nbrs != u
        nbrs = nbrs[not_loop]
        ws = ws[not_loop]
        if nbrs.size == 0:
            return -1
        cur = labels[u]
        nbr_labels = labels[nbrs]
        cand, inv = np.unique(nbr_labels, return_inverse=True)
        w_to = np.bincount(inv, weights=ws)
        pos_cur = np.searchsorted(cand, cur)
        w_cur = (
            w_to[pos_cur]
            if pos_cur < cand.size and cand[pos_cur] == cur
            else 0.0
        )
        vol_u = volumes[u]
        vol_c_wo_u = comm_vol[cur] - vol_u
        delta = (w_to - w_cur) / omega + (
            self.gamma * vol_u * (vol_c_wo_u - comm_vol[cand]) / (2 * omega**2)
        )
        delta[cand == cur] = -np.inf
        best = int(np.argmax(delta))
        if delta[best] > 1e-15:
            dst = int(cand[best])
            labels[u] = dst
            comm_vol[cur] -= vol_u
            comm_vol[dst] += vol_u
            return dst
        return -1

    def _move_phase_sequential(
        self,
        graph: Graph,
        labels: np.ndarray,
        runtime: ParallelRuntime,
        rng: np.random.Generator,
    ) -> tuple[bool, int]:
        """Strictly sequential move phase: each move commits immediately."""
        if self.vectorized:
            return self._move_phase_sequential_vectorized(
                graph, labels, runtime, rng
            )
        return self._move_phase_sequential_scalar(graph, labels, runtime, rng)

    def _move_phase_sequential_scalar(
        self,
        graph: Graph,
        labels: np.ndarray,
        runtime: ParallelRuntime,
        rng: np.random.Generator,
    ) -> tuple[bool, int]:
        """Per-node loop over the permuted order (pre-vectorization body).

        Kept verbatim as the regression baseline: the vectorized sweep
        must reproduce its labels byte-for-byte and its simulated charges
        exactly (see ``tests/community/test_louvain_vectorized.py``).
        """
        n = graph.n
        omega = graph.total_edge_weight
        if omega == 0 or n == 0:
            return False, 0
        volumes = graph.volumes()
        degrees = graph.degrees()
        comm_vol = np.bincount(labels, weights=volumes, minlength=n).astype(
            np.float64
        )
        changed_any = False
        sweeps = 0
        nodes = np.flatnonzero(degrees > 0)
        while sweeps < self.max_sweeps:
            order = rng.permutation(nodes)
            moves = 0
            work = 0.0
            for u in order:
                nbr_count = graph.indptr[u + 1] - graph.indptr[u]
                loop_free = nbr_count - np.count_nonzero(
                    graph.indices[graph.indptr[u] : graph.indptr[u + 1]] == u
                )
                work += loop_free + 3.0
                if self._scalar_move(
                    u, graph, labels, comm_vol, volumes, omega
                ) >= 0:
                    moves += 1
            sweeps += 1
            # Sequential semantics: all work on one (turbo) core, plus the
            # explicit permutation pass.
            runtime.charge(work + n * 0.5, parallel=False)
            if moves == 0:
                break
            changed_any = True
        return changed_any, sweeps

    def _move_phase_sequential_vectorized(
        self,
        graph: Graph,
        labels: np.ndarray,
        runtime: ParallelRuntime,
        rng: np.random.Generator,
    ) -> tuple[bool, int]:
        """Block-speculative sweep with byte-identical sequential semantics.

        Nodes are processed in the same permuted order as the scalar
        sweep, in blocks of ``_SWEEP_BLOCK``. Each block's best-move
        proposals come from one :func:`~repro.community._moves.best_moves`
        call against the state frozen at block start (ties toward the
        smaller label, like ``np.argmax`` in the scalar body); the commit
        pass walks the block in order and accepts a proposal only if
        nothing it depends on — a neighbor's label, the node's community
        volume, or any candidate community's volume — changed earlier in
        the block. Invalidated nodes fall back to the exact scalar
        evaluation against live state, so the accepted moves (and the
        floats behind them) are bit-for-bit those of the scalar sweep.
        """
        n = graph.n
        omega = graph.total_edge_weight
        if omega == 0 or n == 0:
            return False, 0
        volumes = graph.volumes()
        degrees = graph.degrees()
        comm_vol = np.bincount(labels, weights=volumes, minlength=n)
        cache = neighborhood_cache(graph)
        c_indptr, c_counts = cache.indptr, cache.counts

        moved_in_block = np.zeros(n, dtype=bool)
        vol_touched = np.zeros(n, dtype=bool)

        changed_any = False
        sweeps = 0
        nodes = np.flatnonzero(degrees > 0)
        while sweeps < self.max_sweeps:
            order = rng.permutation(nodes)
            moves = 0
            work = 0.0
            for lo in range(0, order.size, _SWEEP_BLOCK):
                chunk = order[lo : lo + _SWEEP_BLOCK]
                seg, nbrs, ws = cache.gather(chunk)
                cur = labels[chunk]
                proposal = np.full(chunk.size, -1, dtype=np.int64)
                decision = best_moves(
                    seg * n, labels[nbrs], ws, cur, volumes[chunk], comm_vol,
                    omega, self.gamma, n,
                )
                if decision is not None:
                    proposal[decision[0]] = decision[1]

                touched_nodes: list[int] = []
                touched_comms: list[int] = []
                for j in range(chunk.size):
                    u = int(chunk[j])
                    cnt = int(c_counts[u])
                    work += cnt + 3.0
                    if cnt == 0:
                        continue
                    cu = int(cur[j])
                    nb = cache.indices[c_indptr[u] : c_indptr[u + 1]]
                    # With no neighbor moved yet, labels[nb] are still the
                    # block-start labels: u's candidate communities.
                    valid = (
                        not moved_in_block[nb].any()
                        and not vol_touched[cu]
                        and not vol_touched[labels[nb]].any()
                    )
                    if valid:
                        dst = int(proposal[j])
                        if dst < 0:
                            continue
                        vu = volumes[u]
                        labels[u] = dst
                        comm_vol[cu] -= vu
                        comm_vol[dst] += vu
                    else:
                        # Only u itself can relabel u, so its source
                        # community is still its block-start label.
                        dst = self._scalar_move(
                            u, graph, labels, comm_vol, volumes, omega
                        )
                        if dst < 0:
                            continue
                    moved_in_block[u] = True
                    vol_touched[dst] = True
                    vol_touched[cu] = True
                    touched_nodes.append(u)
                    touched_comms.append(dst)
                    touched_comms.append(cu)
                    moves += 1
                if touched_nodes:
                    moved_in_block[touched_nodes] = False
                    vol_touched[touched_comms] = False
            sweeps += 1
            # Sequential semantics: all work on one (turbo) core, plus the
            # explicit permutation pass.
            runtime.charge(work + n * 0.5, parallel=False)
            if moves == 0:
                break
            changed_any = True
        return changed_any, sweeps

    # ------------------------------------------------------------------
    def _detect(
        self,
        graph: Graph,
        runtime: ParallelRuntime,
        level: int,
        rng: np.random.Generator,
        info: dict[str, Any],
    ) -> np.ndarray:
        labels = np.arange(graph.n, dtype=np.int64)
        with runtime.section("move"):
            changed, sweeps = self._move_phase_sequential(graph, labels, runtime, rng)
        info["sweeps_per_level"].append(sweeps)
        if not changed or level + 1 >= self.max_levels:
            return labels
        result = coarsen(graph, labels)
        runtime.charge(float(graph.indices.size) * 1.5, parallel=False)
        if result.graph.n >= graph.n:
            return labels
        coarse = self._detect(result.graph, runtime, level + 1, rng, info)
        runtime.charge(float(graph.n), parallel=False)
        return prolong(coarse, result)

    def _run(
        self, graph: Graph, runtime: ParallelRuntime
    ) -> tuple[np.ndarray, dict[str, Any]]:
        rng = np.random.default_rng(self.seed)
        info: dict[str, Any] = {"sweeps_per_level": []}
        labels = self._detect(graph, runtime, 0, rng, info)
        info["levels"] = len(info["sweeps_per_level"])
        return labels, info
