"""PLM / PLMR — Parallel Louvain Method (paper §III-B/C, Algorithms 2-4).

The Louvain method alternates a *move phase* — repeatedly moving nodes to
the neighboring community with the locally maximal modularity gain — with
coarsening by the resulting communities, recursing until the move phase
makes no change, then prolonging solutions back down the hierarchy. PLMR
adds one more move phase (refinement) after each prolongation.

Parallelization follows the paper:

* node moves are evaluated and performed chunk-parallel over a shared
  label array and a shared community-volume array. Chunks in simulated
  flight do not see each other's moves (stale ``Delta mod`` scores); the
  volume array is only mutated at chunk commit, modelling the per-volume
  locking of the C++ implementation. Occasional modularity-decreasing
  moves therefore occur and are corrected in later sweeps — matching the
  paper's observation that quality is not hurt;
* the gain of moving ``u`` from ``C`` to ``D`` is computed from the local
  neighborhood only (paper's closed form):

  ``delta = (w(u,D) - w(u,C\\u)) / w(E)
          + gamma * vol(u) * (vol(C\\u) - vol(D)) / (2 w(E)^2)``

* coarsening uses the per-thread partial-graph scheme (aggregation result
  exact, cost charged through the runtime), and the coarse level recurses
  with the same thread budget.

The resolution parameter ``gamma`` (1.0 = standard modularity) varies the
community size resolution (§III-B).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.community._kernels import kernel_module, neighborhood_cache
from repro.community._moves import best_moves
from repro.community.backends import (
    resolve_kernel_backend,
    validate_kernel_backend,
)
from repro.community.base import CommunityDetector
from repro.graph.coarsening import coarsen, prolong
from repro.graph.csr import Graph
from repro.parallel.runtime import ParallelRuntime
from repro.partition.quality import modularity

__all__ = ["PLM", "PLMR"]


class PLM(CommunityDetector):
    """Parallel Louvain method.

    Parameters
    ----------
    threads:
        Simulated thread count.
    gamma:
        Modularity resolution (1.0 = standard).
    refine:
        Add the PLMR refinement move phase after each prolongation.
    max_sweeps:
        Cap on move-phase sweeps per level (paper iterates to stability;
        the cap is a safety net against pathological oscillation).
    max_levels:
        Cap on hierarchy depth.
    schedule:
        Loop schedule for the move phase (paper: ``guided``).
    seed:
        Tie-breaking seed (kept for API symmetry; PLM itself is
        deterministic given the runtime interleaving).
    audit_modularity:
        Recompute full modularity after every sweep and record
        ``abs(incremental - full)`` in ``modularity_audit`` (testing hook;
        the move phase itself always uses the incremental value).
    kernel_backend:
        Who executes the hot loops: ``"numpy"`` (vectorized, default),
        ``"numba"`` (compiled, requires the optional dependency) or
        ``"auto"``; ``None`` consults ``REPRO_KERNEL_BACKEND``. Both
        backends are byte-identical — see
        :mod:`repro.community.backends`.
    """

    name = "PLM"

    def __init__(
        self,
        threads: int = 1,
        gamma: float = 1.0,
        refine: bool = False,
        max_sweeps: int = 32,
        max_levels: int = 64,
        schedule: str = "guided",
        seed: int = 0,
        audit_modularity: bool = False,
        kernel_backend: str | None = None,
    ) -> None:
        super().__init__(threads=threads)
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        if kernel_backend is not None:
            validate_kernel_backend(kernel_backend)
        self.kernel_backend = kernel_backend
        self.gamma = gamma
        self.refine = refine
        self.max_sweeps = max_sweeps
        self.max_levels = max_levels
        self.schedule = schedule
        self.seed = seed
        self.audit_modularity = audit_modularity
        #: abs(incremental - full) per audited sweep (see audit_modularity).
        self.modularity_audit: list[float] = []
        if refine:
            self.name = "PLMR"

    # ------------------------------------------------------------------
    def _move_phase(
        self,
        graph: Graph,
        labels: np.ndarray,
        runtime: ParallelRuntime,
        section: str,
        mask: np.ndarray | None = None,
    ) -> tuple[bool, int]:
        """Algorithm 2: repeat parallel node moves until stable.

        Mutates ``labels`` in place; returns (changed_any, sweeps).
        ``mask`` (optional bool array of size n) restricts the sweep to a
        node subset — the incremental-PLM hook: only masked nodes are
        re-evaluated, but gains are scored against the full shared
        community state, so masked nodes may join (or leave) frozen
        communities. ``mask=None`` is bit-identical to the historical
        unrestricted sweep.

        Each grain block asks :func:`~repro.community._moves.best_moves`
        (or its compiled twin) for its nodes' best moves against the
        *live* shared state, ties toward the larger label; blocks still in
        simulated flight are invisible to it (stale reads). For host speed
        the sweep order's neighborhoods and the key part ``plan.seg * n``
        are built once per sweep and sliced per block, and modularity is
        tracked incrementally (see ``audit_modularity``).
        """
        n = graph.n
        omega = graph.total_edge_weight
        if omega == 0 or n == 0:
            return False, 0
        volumes = graph.volumes()
        degrees = graph.degrees()
        cache = neighborhood_cache(graph)
        # Shared community-volume and size arrays (indexed by label id;
        # labels are 0..n-1 at most since they start as node ids/compacted).
        comm_vol = np.bincount(labels, weights=volumes, minlength=n)
        comm_size = np.bincount(labels, minlength=n).astype(np.int64)
        gamma = self.gamma
        rc = runtime.racecheck
        # Resolve the backend per phase: the detector stores only the
        # policy string, so instances stay picklable for EPP's process
        # pool and pool workers resolve against their own environment.
        # Racecheck wraps the shared arrays in an ndarray-subclass view
        # the compiled kernels cannot consume; backends are byte-
        # identical, so checking the NumPy path validates the schedule
        # for both.
        backend = resolve_kernel_backend(self.kernel_backend)
        knb = kernel_module(backend) if rc is None else None
        if rc is not None:
            # Shared-memory contract (docs/CORRECTNESS.md): gain kernels
            # read labels/volumes/sizes stale (§III-B benign races); the
            # volume/size transfers run at commit time under the modeled
            # per-community lock (accumulate_ok).
            labels = rc.track(labels, "plm.labels", stale_read_ok=True)
            comm_vol = rc.track(
                comm_vol, "plm.comm_vol", stale_read_ok=True, accumulate_ok=True
            )
            comm_size = rc.track(
                comm_size, "plm.comm_size", stale_read_ok=True, accumulate_ok=True
            )
        if knb is not None:
            scratch = knb.KernelScratch(n, cache.weights.dtype)
            denom = 2.0 * omega * omega
        moved_batches: list[np.ndarray] = []
        rng = np.random.default_rng(self.seed)

        def kernel(chunk: np.ndarray):
            # The executor hands out contiguous slices of the sweep order;
            # the per-sweep arrays below are rebound before every sweep. A
            # node's label and volume cannot change before its own block
            # runs, so slices of the sweep-start ``labels_ord``/``vol_ord``
            # are the live values.
            lo = inv[chunk[0]]
            hi = lo + chunk.size
            a = bounds[lo]
            b = bounds[hi]
            if a == b:
                return None
            cur = labels_ord[lo:hi]
            vol_u = vol_ord[lo:hi]
            if knb is not None:
                pos = np.empty(cur.size, dtype=np.int64)
                dst = np.empty(cur.size, dtype=np.int64)
                count = knb.plm_decide_block(
                    cur, vol_u, labels, bounds, int(lo), nbrs, ws,
                    comm_vol, comm_size, omega, gamma, denom,
                    scratch.weight, scratch.mark, scratch.touched,
                    scratch.stamp, pos, dst,
                )
                pos = pos[:count]
                dst = dst[:count]
            else:
                decision = best_moves(
                    key_base[a:b], labels[nbrs[a:b]], ws[a:b], cur, vol_u,
                    comm_vol, omega, gamma, n, base=lo, larger_label=True,
                )
                if decision is None:
                    return None
                pos, dst = decision
                # Symmetry breaking for concurrent evaluation: two
                # singletons may see the symmetric move (u -> {v},
                # v -> {u}) as profitable on mutually stale data and swap
                # forever. Allow a singleton -> singleton move only toward
                # the smaller community id (the standard remedy in
                # parallel Louvain codes; the compiled twin applies it
                # inside its scan).
                src = cur[pos]
                swap = (comm_size[src] == 1) & (comm_size[dst] == 1) & (dst > src)
                if swap.any():
                    pos = pos[~swap]
                    dst = dst[~swap]
            if pos.size == 0:
                return None
            return chunk[pos], cur[pos], dst, vol_u[pos]

        def commit(update) -> None:
            if update is None:
                return
            nodes, src, dst, vol_u = update
            # A node's label is written only by its own kernel, so src is
            # still current; volumes transfer under the simulated lock.
            labels[nodes] = dst
            np.subtract.at(comm_vol, src, vol_u)
            np.add.at(comm_vol, dst, vol_u)
            np.subtract.at(comm_size, src, 1)
            np.add.at(comm_size, dst, 1)
            moved_batches.append(nodes)

        sweeps = 0
        changed_any = False
        if mask is None:
            nodes_all = np.flatnonzero(degrees > 0)
        else:
            nodes_all = np.flatnonzero((degrees > 0) & mask)
        if nodes_all.size == 0:
            return False, 0
        # Commit granularity: per-node on small item counts (where a whole
        # sweep would otherwise be in flight at once and livelock on fully
        # stale data), coarser on large ones where the relative staleness
        # window is tiny anyway.
        grain = max(1, min(32, nodes_all.size // (runtime.threads * 8)))
        # Quality guard against stale-data oscillation: keep the best
        # labelling seen and revert to it if sweeps stop improving
        # modularity (real codes escape these cycles through scheduling
        # nondeterminism; our deterministic simulation needs the guard).
        # Modularity is tracked incrementally: the O(m) intra-community
        # weight is computed once here, then updated per sweep from the
        # moved nodes' neighborhoods only.
        us, vs, ws_e = graph.edge_array()
        intra = float(ws_e[labels[us] == labels[vs]].sum())

        def incremental_modularity() -> float:
            return intra / omega - gamma * float(
                np.dot(comm_vol, comm_vol)
            ) / (4.0 * omega * omega)

        best_mod = incremental_modularity()
        best_labels = labels.copy()
        start_labels = np.empty_like(labels)
        # Reused per-sweep buffers.
        order = np.empty_like(nodes_all)
        base_costs = degrees.astype(np.float64) + 3.0
        costs = np.empty(nodes_all.size, dtype=np.float64)
        bad_sweeps = 0
        with runtime.section(section):
            while sweeps < self.max_sweeps:
                moved_batches.clear()
                np.copyto(start_labels, labels)
                # Fresh node order per sweep. The C++ code gets this "for
                # free" from nondeterministic thread scheduling; our
                # simulated schedule is deterministic, so an explicit
                # permutation stands in for it (it also breaks residual
                # same-block move cycles). The shuffle itself is charged
                # as a parallel pass. (copyto + in-place shuffle draws the
                # same stream as rng.permutation without the fresh copy.)
                np.copyto(order, nodes_all)
                rng.shuffle(order)
                np.take(base_costs, order, out=costs)
                plan = cache.plan(order)
                inv, bounds, nbrs, ws = plan.inv, plan.bounds, plan.nbrs, plan.ws
                labels_ord = labels[order]
                vol_ord = volumes[order]
                # The compiled kernel scans instead of sorting.
                key_base = plan.seg * n if knb is None else None
                runtime.charge(nodes_all.size * 0.5, parallel=True)
                runtime.parallel_for(
                    order,
                    kernel,
                    commit,
                    costs=costs,
                    schedule=self.schedule,
                    grain=grain,
                    # Gain computation is arithmetic-heavier than a label
                    # scan, so PLM saturates memory bandwidth later than
                    # PLP (~12x vs ~8x speedup in the paper).
                    memory_bound=0.45,
                    loop=f"{self.name.lower()}.{section}",
                )
                sweeps += 1
                if not moved_batches:
                    break
                changed_any = True
                # Incremental intra update: each non-loop edge incident to
                # a moved node appears once in the gather if one endpoint
                # moved, twice (factor 0.5 each) if both did; self-loops
                # never change intra status. A node moves at most once per
                # sweep, so "neighbor moved" is exactly a label difference
                # against the sweep-start snapshot.
                moved = np.concatenate(moved_batches)
                seg_m, nbrs_m, ws_m = cache.gather(moved)
                if seg_m.size:
                    la_u = labels[moved][seg_m]
                    lb_u = start_labels[moved][seg_m]
                    la_v = labels[nbrs_m]
                    lb_v = start_labels[nbrs_m]
                    factor = np.where(la_v != lb_v, 0.5, 1.0)
                    intra += float(
                        np.sum(
                            ws_m
                            * factor
                            * (
                                (la_u == la_v).astype(np.float64)
                                - (lb_u == lb_v)
                            )
                        )
                    )
                current_mod = incremental_modularity()
                if self.audit_modularity:
                    self.modularity_audit.append(
                        abs(
                            current_mod
                            - modularity(graph, labels, gamma=self.gamma)
                        )
                    )
                if current_mod > best_mod + 1e-12:
                    best_mod = current_mod
                    np.copyto(best_labels, labels)
                    bad_sweeps = 0
                else:
                    bad_sweeps += 1
                    if bad_sweeps >= 2:
                        np.copyto(labels, best_labels)
                        break
        return changed_any, sweeps

    # ------------------------------------------------------------------
    def _detect(
        self,
        graph: Graph,
        runtime: ParallelRuntime,
        level: int,
        info: dict[str, Any],
    ) -> np.ndarray:
        """Algorithms 3/4: move, coarsen, recurse, prolong[, refine]."""
        labels = np.arange(graph.n, dtype=np.int64)
        changed, sweeps = self._move_phase(graph, labels, runtime, "move")
        info["sweeps_per_level"].append(sweeps)
        if not changed or level + 1 >= self.max_levels:
            return labels
        result = coarsen(graph, labels)
        runtime.charge_coarsening(graph.indices.size, result.graph.n)
        if result.graph.n >= graph.n:
            return labels
        coarse_labels = self._detect(result.graph, runtime, level + 1, info)
        labels = prolong(coarse_labels, result)
        runtime.charge(float(graph.n), parallel=True)  # prolongation pass
        if self.refine:
            _, refine_sweeps = self._move_phase(graph, labels, runtime, "refine")
            info["refine_sweeps_per_level"].append(refine_sweeps)
        return labels

    def _run(
        self, graph: Graph, runtime: ParallelRuntime
    ) -> tuple[np.ndarray, dict[str, Any]]:
        info: dict[str, Any] = {
            "sweeps_per_level": [],
            "refine_sweeps_per_level": [],
            "gamma": self.gamma,
        }
        labels = self._detect(graph, runtime, 0, info)
        info["levels"] = len(info["sweeps_per_level"])
        info["kernel_backend"] = resolve_kernel_backend(self.kernel_backend)
        return labels, info


class PLMR(PLM):
    """Parallel Louvain method with refinement (paper §III-C).

    Identical to :class:`PLM` with ``refine=True``: after each prolongation
    an additional move phase re-evaluates node assignments in view of the
    coarser level's changes.
    """

    name = "PLMR"

    def __init__(self, threads: int = 1, gamma: float = 1.0, **kwargs) -> None:
        kwargs.pop("refine", None)
        super().__init__(threads=threads, gamma=gamma, refine=True, **kwargs)
