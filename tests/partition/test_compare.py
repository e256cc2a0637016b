"""Tests for partition comparison measures."""

import tracemalloc

import numpy as np
import pytest

from repro.partition.compare import (
    adjusted_rand_index,
    jaccard_dissimilarity,
    jaccard_index,
    normalized_mutual_information,
    pair_counts,
    rand_index,
)


A = np.array([0, 0, 1, 1, 2, 2])
B = np.array([0, 0, 0, 1, 1, 1])


class TestPairCounts:
    def test_hand_computed(self):
        n11, n10, n01, n00 = pair_counts(A, B)
        # Together in A: (0,1),(2,3),(4,5) = 3 pairs.
        # Together in B: (0,1),(0,2),(1,2),(3,4),(3,5),(4,5) = 6 pairs.
        # Together in both: (0,1),(4,5) = 2.
        assert n11 == 2
        assert n10 == 1
        assert n01 == 4
        assert n00 == 15 - 2 - 1 - 4

    def test_identical(self):
        n11, n10, n01, n00 = pair_counts(A, A)
        assert n10 == n01 == 0
        assert n11 == 3

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            pair_counts(A, B[:-1])

    def test_empty(self):
        assert pair_counts(np.empty(0), np.empty(0)) == (0, 0, 0, 0)


class TestJaccard:
    def test_identical_is_one(self):
        assert jaccard_index(A, A) == 1.0

    def test_label_permutation_invariant(self):
        assert jaccard_index(A, (A + 1) % 3) == 1.0

    def test_hand_value(self):
        assert jaccard_index(A, B) == pytest.approx(2 / (2 + 1 + 4))

    def test_dissimilarity_complement(self):
        assert jaccard_dissimilarity(A, B) == pytest.approx(1 - jaccard_index(A, B))

    def test_singletons_vs_one(self):
        s = np.arange(6)
        o = np.zeros(6, dtype=int)
        assert jaccard_index(s, o) == 0.0


class TestRand:
    def test_identical(self):
        assert rand_index(A, A) == 1.0
        assert adjusted_rand_index(A, A) == 1.0

    def test_hand_value(self):
        assert rand_index(A, B) == pytest.approx((2 + 8) / 15)

    def test_ari_independent_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 5, size=3000)
        b = rng.integers(0, 5, size=3000)
        assert abs(adjusted_rand_index(a, b)) < 0.02

    def test_ari_below_one_for_different(self):
        assert adjusted_rand_index(A, B) < 1.0


class TestNMI:
    def test_identical(self):
        assert normalized_mutual_information(A, A) == pytest.approx(1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 4, size=5000)
        b = rng.integers(0, 4, size=5000)
        assert normalized_mutual_information(a, b) < 0.01

    def test_permutation_invariant(self):
        perm = np.array([2, 0, 1])
        assert normalized_mutual_information(A, perm[A]) == pytest.approx(1.0)

    def test_range(self):
        v = normalized_mutual_information(A, B)
        assert 0.0 <= v <= 1.0

    def test_trivial_partitions(self):
        o = np.zeros(5, dtype=int)
        assert normalized_mutual_information(o, o) == 1.0


class TestContingencyMemory:
    """The contingency table holds only nonzero cells: O(n), not ka x kb."""

    @pytest.mark.parametrize(
        "measure", [pair_counts, adjusted_rand_index, normalized_mutual_information]
    )
    def test_peak_memory_is_linear_in_n(self, measure):
        # 2000 communities on each side: a dense table would be 4M cells
        # (32 MB per copy); the sparse one has at most n = 4000.
        n = 4000
        rng = np.random.default_rng(5)
        a = np.arange(n) // 2
        b = rng.permutation(n) // 2
        measure(a, b)  # warm up lazy imports outside the window
        tracemalloc.start()
        try:
            measure(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
