"""Tests for parallel label propagation (PLP)."""

import numpy as np
import pytest

from repro.community import PLP
from repro.community._kernels import gather_neighborhoods
from repro.community._moves import _hash_jitter
from repro.graph import GraphBuilder, generators
from repro.parallel.runtime import ParallelRuntime
from repro.partition.compare import jaccard_index
from repro.partition.quality import modularity


class TestBasicBehaviour:
    def test_two_cliques(self, clique_pair):
        result = PLP(seed=0).run(clique_pair)
        assert result.partition.k == 2
        expected = np.array([0] * 5 + [1] * 5)
        assert jaccard_index(result.labels, expected) == 1.0

    def test_isolated_nodes_keep_own_label(self):
        from repro.graph import GraphBuilder

        g = GraphBuilder(4).build()
        result = PLP(seed=0).run(g)
        assert result.partition.k == 4

    def test_empty_graph(self):
        from repro.graph import GraphBuilder

        result = PLP(seed=0).run(GraphBuilder(0).build())
        assert result.partition.n == 0

    def test_planted_partition_recovered(self, planted):
        graph, truth = planted
        result = PLP(threads=8, seed=1).run(graph)
        assert jaccard_index(result.labels, truth) > 0.9

    def test_weighted_dominance(self):
        """A heavy edge dominates many light ones in label choice."""
        from repro.graph import GraphBuilder

        # Node 0 linked lightly to clique {1,2,3}, heavily to clique {4,5,6}.
        b = GraphBuilder(7)
        for u, v in [(1, 2), (1, 3), (2, 3)]:
            b.add_edge(u, v, 1.0)
        for u, v in [(4, 5), (4, 6), (5, 6)]:
            b.add_edge(u, v, 10.0)
        b.add_edge(0, 1, 0.1)
        b.add_edge(0, 4, 5.0)
        result = PLP(seed=0).run(b.build())
        labels = result.labels
        assert labels[0] == labels[4]
        assert labels[0] != labels[1]

    def test_result_info_fields(self, clique_pair):
        result = PLP(seed=0).run(clique_pair)
        assert result.info["iterations"] >= 1
        assert len(result.info["per_iteration"]) == result.info["iterations"]
        assert all(
            set(it) == {"active", "updated"} for it in result.info["per_iteration"]
        )


class TestConvergenceMachinery:
    def test_threshold_cuts_iterations(self):
        g = generators.holme_kim(3000, 3, 0.4, seed=5)
        full = PLP(theta_factor=0.0, seed=2).run(g)
        cut = PLP(theta_factor=1e-2, seed=2).run(g)
        assert cut.info["iterations"] <= full.info["iterations"]

    def test_max_iterations_respected(self, planted):
        graph, _ = planted
        result = PLP(max_iterations=2, seed=0).run(graph)
        assert result.info["iterations"] <= 2

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            PLP(theta_factor=-1.0)

    def test_converges_without_cap(self):
        g = generators.watts_strogatz(2000, 4, 0.05, seed=6)
        result = PLP(theta_factor=0.0, max_iterations=500, seed=3).run(g)
        assert result.info["iterations"] < 200


class TestParallelBehaviour:
    def test_quality_stable_across_threads(self, planted):
        graph, truth = planted
        mods = []
        for threads in (1, 8, 32):
            result = PLP(threads=threads, seed=4).run(graph)
            mods.append(modularity(graph, result.partition))
        assert max(mods) - min(mods) < 0.1

    def test_more_threads_less_simulated_time(self):
        g = generators.holme_kim(5000, 4, 0.4, seed=7)
        t1 = PLP(threads=1, seed=5).run(g).timing.total
        t16 = PLP(threads=16, seed=5).run(g).timing.total
        assert t16 < t1

    def test_deterministic_given_seed_and_threads(self, planted):
        graph, _ = planted
        a = PLP(threads=8, seed=6).run(graph)
        b = PLP(threads=8, seed=6).run(graph)
        assert np.array_equal(a.labels, b.labels)
        assert a.timing.total == b.timing.total

    def test_randomize_order_charges_time(self, planted):
        graph, _ = planted
        plain = PLP(threads=8, seed=7).run(graph)
        rand = PLP(threads=8, randomize_order=True, seed=7).run(graph)
        # Same iterations -> strictly more simulated time for the shuffle.
        assert rand.timing.total > 0
        assert rand.timing.total >= plain.timing.total * 0.5  # sanity

    def test_schedule_option(self, planted):
        graph, _ = planted
        for schedule in ("static", "dynamic", "guided"):
            result = PLP(threads=8, schedule=schedule, seed=8).run(graph)
            assert result.partition.k >= 1


class TestCommitSemantics:
    """The reactivation-ordering fix and exact sequential equivalence."""

    @staticmethod
    def _reactivation_gadget(copies=8):
        """``copies`` disjoint 4-node gadgets A-B-X-Z exposing the bug.

        Within one gadget (edges A-B w=2, A-Z w=1, B-X w=3; A and B share
        a label, X and Z have their own): A's label is dominant (stable)
        while B moves to X's label. If A and B land in the *same* commit
        block and stable nodes are deactivated after the move's
        reactivation, A goes inactive despite its neighborhood changing
        and stays stuck on a label no neighbor carries.
        """
        b = GraphBuilder(4 * copies)
        labels = np.arange(4 * copies, dtype=np.int64)
        active = np.zeros(4 * copies, dtype=bool)
        for i in range(copies):
            a, bb, x, z = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
            b.add_edge(a, bb, 2.0)
            b.add_edge(a, z, 1.0)
            b.add_edge(bb, x, 3.0)
            labels[a] = bb  # A and B share B's label
            active[a] = active[bb] = True
        return b.build(), labels, active

    def test_stable_nodes_deactivated_before_reactivation(self):
        """Regression for the commit ordering in PLP's update.

        Seed 3 is chosen so the first iteration's permutation puts several
        (A, B) gadget pairs inside one grain-2 block (16 active items, one
        thread). With the fixed ordering every A follows its neighborhood
        to X's label; with deactivation applied last, those As are
        deactivated in the same commit that changed their neighborhood and
        can never converge.
        """
        graph, labels, active = self._reactivation_gadget()
        plp = PLP(threads=1, theta_factor=0.0)
        runtime = ParallelRuntime(threads=1)
        rng = np.random.default_rng(3)
        plp._propagate(graph, labels, active, runtime, rng, "propagate")
        for i in range(8):
            a, x = 4 * i, 4 * i + 2
            assert labels[a] == labels[x], f"gadget {i}: A stuck on a dead label"

    def test_single_thread_matches_sequential_reference(self):
        """threads=1, grain=1 is *exactly* sequential-asynchronous.

        A plain Python loop replicating Algorithm 1 node by node (visiting
        the same permuted order, applying every update immediately) must
        produce bitwise-identical labels.
        """
        edges = [
            (0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5),
            (5, 6), (6, 7), (7, 8), (6, 8), (8, 9), (9, 10), (10, 11),
            (9, 11), (2, 6), (4, 9),
        ]
        b = GraphBuilder(12)
        for u, v in edges:
            b.add_edge(u, v, 1.0)
        graph = b.build()
        seed = 17

        # _run gives the raw label array (run() would canonicalize ids).
        plp = PLP(threads=1, theta_factor=0.0, seed=seed)
        plp_labels, _ = plp._run(graph, ParallelRuntime(threads=1))

        # Reference: same RNG consumption, same scores, immediate updates.
        labels = np.arange(12, dtype=np.int64)
        degrees = graph.degrees()
        active = degrees > 0
        rng = np.random.default_rng(seed)
        base_salt = np.uint64(rng.integers(1, 2**63))
        iteration = 0
        while iteration < 128:
            items = np.flatnonzero(active & (degrees > 0))
            if items.size == 0:
                break
            items = rng.permutation(items)
            with np.errstate(over="ignore"):
                salt = base_salt + np.uint64(iteration * 1_000_003)
            updated = 0
            for u in items:
                _, nbrs, ws = gather_neighborhoods(graph, np.array([u]))
                labs, inv = np.unique(labels[nbrs], return_inverse=True)
                weights = np.zeros(labs.size)
                np.add.at(weights, inv, ws)
                node_ids = np.full(labs.size, u, dtype=np.int64)
                score = weights + 1e-9 * (1.0 + weights) * _hash_jitter(
                    node_ids, labs, salt
                )
                # argmax with ties toward the larger label
                order = np.lexsort((labs, score))
                best_lab, best_w = labs[order[-1]], score[order[-1]]
                cur = labels[u]
                cur_w = float(weights[labs == cur][0]) if cur in labs else 0.0
                cur_score = cur_w + 1e-9 * (1.0 + cur_w) * _hash_jitter(
                    np.array([u]), np.array([cur]), salt
                )
                if best_w > cur_score and best_lab != cur:
                    labels[u] = best_lab
                    updated += 1
                    active[nbrs] = True
                else:
                    active[u] = False
            iteration += 1
            if updated == 0:
                break

        assert np.array_equal(plp_labels, labels)

    def test_loop_telemetry_labelled(self, planted):
        graph, _ = planted
        result = PLP(threads=8, seed=4).run(graph)
        assert set(result.timing.loops) == {"plp.propagate"}
        tel = result.timing.loops["plp.propagate"]
        assert tel.calls == result.info["iterations"]
        assert 0.0 <= tel.overhead_share <= 1.0
        assert tel.imbalance >= 1.0


class TestPerturbation:
    """§V-D seed-set perturbations for ensemble diversity."""

    def test_deactivate_seeds_still_valid(self, planted):
        graph, truth = planted
        result = PLP(seed=9, perturbation="deactivate-seeds").run(graph)
        assert result.partition.n == graph.n
        # Quality stays in the same regime (the paper found no reproducible
        # effect of seed deactivation).
        from repro.partition.compare import jaccard_index

        assert jaccard_index(result.labels, truth) > 0.6

    def test_activate_seeds_propagates_outward(self, planted):
        graph, _ = planted
        result = PLP(
            seed=9, perturbation="activate-seeds", perturbation_fraction=0.1
        ).run(graph)
        # Updates still reach a large part of the graph via reactivation.
        assert result.partition.k < graph.n

    def test_invalid_perturbation_rejected(self):
        with pytest.raises(ValueError):
            PLP(perturbation="explode")
        with pytest.raises(ValueError):
            PLP(perturbation="activate-seeds", perturbation_fraction=0.0)
