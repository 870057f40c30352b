from itertools import combinations

import numpy as np
import pytest

from orthosep import clustering
from orthosep.clustering import ClusterResult, kmeans, masks_from_clusters, select_target
from orthosep.errors import DataError, OrthosepError, ShapeError
from orthosep.signal import Waveform


def brute_force_two_partition_inertia(x):
    """Optimal 2-means inertia by enumerating all 2-partitions."""
    n = len(x)
    best = np.inf
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            a = x[list(subset)]
            b = np.delete(x, list(subset), axis=0)
            inertia = (
                np.sum((a - a.mean(axis=0)) ** 2) + np.sum((b - b.mean(axis=0)) ** 2)
            )
            best = min(best, inertia)
    return best


def lloyd_direct(x, centroids, max_iter, tol):
    """Reference oracle: Lloyd iterations with distances from a direct
    (N, C, K) difference array and centroids as per-cluster means."""
    prev_inertia = np.inf
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        d2 = np.sum((x[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(len(x)), labels].sum())
        assert inertia <= prev_inertia + 1e-9 * max(1.0, prev_inertia)
        prev_inertia = inertia
        new_centroids = centroids.copy()
        for j in range(centroids.shape[0]):
            members = x[labels == j]
            if len(members):
                new_centroids[j] = members.mean(axis=0)
            else:
                # re-seed an empty cluster to the farthest point
                far = np.argmax(d2[np.arange(len(x)), labels])
                new_centroids[j] = x[far]
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < tol:
            break
    d2 = np.sum((x[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(len(x)), labels].sum())
    return labels, centroids, inertia, iterations


def hartigan_refine_loop(x, labels, c, max_passes=50):
    """Reference oracle: Hartigan's single-point rule as a per-point loop.
    Returns the labels and the number of moves."""
    labels = labels.copy()
    moves = 0
    counts = np.bincount(labels, minlength=c).astype(np.float64)
    sums = np.zeros((c, x.shape[1]))
    for j in range(c):
        if counts[j]:
            sums[j] = x[labels == j].sum(axis=0)
    for _ in range(max_passes):
        improved = False
        for i in range(x.shape[0]):
            a = labels[i]
            if counts[a] <= 1:
                continue
            d_a = np.sum((x[i] - sums[a] / counts[a]) ** 2)
            removal = counts[a] / (counts[a] - 1.0) * d_a
            best_delta, best_b = 0.0, a
            for b in range(c):
                if b == a or counts[b] == 0:
                    continue
                d_b = np.sum((x[i] - sums[b] / counts[b]) ** 2)
                addition = counts[b] / (counts[b] + 1.0) * d_b
                if removal - addition > best_delta + 1e-12:
                    best_delta, best_b = removal - addition, b
            if best_b != a:
                sums[a] -= x[i]
                counts[a] -= 1.0
                sums[best_b] += x[i]
                counts[best_b] += 1.0
                labels[i] = best_b
                improved = True
                moves += 1
        if not improved:
            break
    return labels, moves


def inertia_of(x, labels, c):
    return sum(
        np.sum((x[labels == j] - x[labels == j].mean(axis=0)) ** 2)
        for j in range(c) if np.any(labels == j)
    )


def clouds(seed, n, c, k):
    """Unit-norm rows around c random directions, overlapping enough that
    Lloyd leaves Hartigan moves to make."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((c, k))
    x = centers[rng.integers(0, c, n)] + 1.5 * rng.standard_normal((n, k))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestHartigan:
    @pytest.mark.parametrize("c", [2, 3, 4])
    @pytest.mark.parametrize("start", ["lloyd", "random"])
    @pytest.mark.parametrize("n,k", [(7, 1), (60, 2), (300, 5), (2500, 20)])
    def test_matches_per_point_loop(self, c, start, n, k):
        seed = 100 * c + n + k
        x = clouds(seed, n, c, k)
        rng = np.random.default_rng(seed)
        if start == "random":
            labels = rng.integers(0, c, n)
        else:
            centroids = clustering._kmeans_pp_init(x, c, rng)
            labels = clustering._lloyd(x, centroids, 300, 1e-6)[0]
        refined, moves = clustering._hartigan_refine(x, labels, c)
        expected, expected_moves = hartigan_refine_loop(x, labels, c)
        assert np.array_equal(refined, expected)
        assert moves == expected_moves

    def test_empty_cluster_stays_empty(self):
        x = clouds(1, 50, 3, 4)
        labels = np.random.default_rng(1).integers(0, 2, 50)
        refined, _ = clustering._hartigan_refine(x, labels, 3)
        assert np.array_equal(refined, hartigan_refine_loop(x, labels, 3)[0])
        assert not np.any(refined == 2)

    def test_near_tie_goes_to_lowest_index(self):
        # point 0 gains 2.3e-13 more by joining cluster 2 than cluster 1;
        # a target must beat the best so far by more than 1e-12
        x = np.array([[0.0], [30.0], [10.0], [10.0], [-10.0 + 2e-14], [-10.0 + 2e-14]])
        labels = np.array([0, 0, 1, 1, 2, 2])
        refined, moves = clustering._hartigan_refine(x, labels, 3)
        assert np.array_equal(refined, [1, 0, 1, 1, 2, 2])
        assert moves == 1
        assert np.array_equal(refined, hartigan_refine_loop(x, labels, 3)[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_no_single_move_lowers_inertia(self, seed):
        c = 2 + seed % 3
        x = clouds(seed, 120, c, 3)
        labels = kmeans(x, c, seed=seed, restarts=1).assignments
        base = inertia_of(x, labels, c)
        for i in range(len(x)):
            if np.sum(labels == labels[i]) == 1:
                continue
            for b in range(c):
                if b == labels[i]:
                    continue
                moved = labels.copy()
                moved[i] = b
                assert inertia_of(x, moved, c) > base - 1e-9

    def test_worse_refinement_raises(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(+1, 0.05, (20, 2)), rng.normal(-1, 0.05, (20, 2))])

        def scramble(x, labels, c):
            worse = labels.copy()
            worse[::2] = 1 - worse[::2]
            return worse, len(worse[::2])

        monkeypatch.setattr(clustering, "_hartigan_refine", scramble)
        with pytest.raises(OrthosepError, match="inertia increased"):
            kmeans(x, 2, seed=0)


class TestLloyd:
    @pytest.mark.parametrize("c", [2, 3, 4])
    @pytest.mark.parametrize("n,k", [(7, 1), (60, 2), (300, 5), (2500, 20)])
    def test_matches_direct_difference(self, c, n, k):
        seed = 100 * c + n + k
        x = clouds(seed, n, c, k)
        for r in range(3):
            init = clustering._kmeans_pp_init(x, c, np.random.default_rng([seed, r]))
            labels, centroids, inertia, iterations = clustering._lloyd(x, init, 300, 1e-6)
            e_labels, e_centroids, e_inertia, e_iterations = lloyd_direct(x, init, 300, 1e-6)
            assert np.array_equal(labels, e_labels)
            assert iterations == e_iterations
            assert inertia == pytest.approx(e_inertia, rel=1e-9, abs=1e-12)
            assert np.allclose(centroids, e_centroids, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_far_from_origin(self, c):
        # ‖x‖² ≈ 2e13 here, so the uncentred expansion loses every digit
        # of a distance of order 1
        x = clouds(c, 1000, c, 2) + 1e6
        init = clustering._kmeans_pp_init(x, c, np.random.default_rng(c))
        labels, _, inertia, iterations = clustering._lloyd(x, init, 300, 1e-6)
        e_labels, _, e_inertia, e_iterations = lloyd_direct(x, init, 300, 1e-6)
        assert np.array_equal(labels, e_labels)
        assert iterations == e_iterations
        assert inertia == pytest.approx(e_inertia, rel=1e-9)

    def test_identical_centroids_reseed_farthest_point(self):
        x = clouds(5, 200, 2, 3)
        init = np.stack([x[0], x[0]])
        # every point ties and goes to cluster 0; cluster 1 is empty
        far = np.argmax(np.sum((x - x[0]) ** 2, axis=1))
        _, centroids, _, _ = clustering._lloyd(x, init, 1, 1e-6)
        assert np.allclose(centroids[0], x.mean(axis=0), rtol=0, atol=1e-12)
        assert np.allclose(centroids[1], x[far], rtol=0, atol=1e-12)
        result = clustering._lloyd(x, init, 300, 1e-6)
        expected = lloyd_direct(x, init, 300, 1e-6)
        assert np.array_equal(result[0], expected[0])
        assert result[3] == expected[3]

    def test_far_centroid_reseeded(self):
        x = clouds(6, 200, 3, 3)
        init = np.vstack([clustering._kmeans_pp_init(x, 2, np.random.default_rng(6)),
                          np.full((1, 3), 100.0)])
        # no point is nearest to centroid 2, so it moves to the point
        # farthest from its own centroid
        d2 = np.sum((x[:, None, :] - init[None, :, :]) ** 2, axis=2)
        far = np.argmax(d2.min(axis=1))
        _, centroids, _, _ = clustering._lloyd(x, init, 1, 1e-6)
        assert np.allclose(centroids[2], x[far], rtol=0, atol=1e-12)
        labels, _, _, iterations = clustering._lloyd(x, init, 300, 1e-6)
        expected = lloyd_direct(x, init, 300, 1e-6)
        assert np.array_equal(labels, expected[0])
        assert iterations == expected[3]


class TestKmeans:
    def test_separable_clouds(self):
        rng = np.random.default_rng(0)
        a = rng.normal([+1, 0], 0.05, size=(20, 2))
        b = rng.normal([-1, 0], 0.05, size=(20, 2))
        x = np.vstack([a, b])
        result = kmeans(x, 2, seed=0)
        labels = result.assignments
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[20]
        within = np.sum((a - a.mean(axis=0)) ** 2) + np.sum((b - b.mean(axis=0)) ** 2)
        assert result.inertia == pytest.approx(within, rel=1e-9)

    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 3))
        result = kmeans(x, 1, seed=0)
        assert np.allclose(result.centroids[0], x.mean(axis=0))
        assert result.inertia == pytest.approx(np.sum((x - x.mean(axis=0)) ** 2))

    def test_n_equals_c(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 2))
        result = kmeans(x, 4, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)
        assert sorted(result.assignments) == [0, 1, 2, 3]

    def test_too_few_points(self):
        with pytest.raises(DataError):
            kmeans(np.ones((2, 2)), 3)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 4))
        a = kmeans(x, 2, seed=7)
        b = kmeans(x, 2, seed=7)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.inertia == b.inertia

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_mostly(self, seed):
        # stochastic property checked at scale in the acceptance suite;
        # here every instance should already be solved with 10 restarts
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((10, 2))
        result = kmeans(x, 2, seed=0, restarts=10)
        optimal = brute_force_two_partition_inertia(x)
        assert result.inertia <= optimal * 1.10 + 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input(self, bad):
        x = np.random.default_rng(6).standard_normal((40, 3))
        x[17, 1] = bad
        with pytest.raises(DataError, match="NaN or infinite"):
            kmeans(x, 2)

    def test_diagnostics(self):
        x = clouds(7, 300, 3, 4)
        result = kmeans(x, 3, seed=7, restarts=4)
        assert len(result.restart_inertias) == 4
        assert result.inertia == min(result.restart_inertias)
        winner = result.restart_inertias.index(result.inertia)
        init = clustering._kmeans_pp_init(x, 3, np.random.default_rng([7, winner]))
        labels, _, _, iterations = clustering._lloyd(x, init, 300, 1e-6)
        assert result.iterations == iterations
        assert result.hartigan_moves == hartigan_refine_loop(x, labels, 3)[1]
        assert result.hartigan_moves > 0


class TestMasksFromClusters:
    def _result(self, labels, c=2):
        labels = np.asarray(labels)
        return ClusterResult(
            assignments=labels, centroids=np.zeros((c, 2)), inertia=0.0, iterations=1
        )

    def test_all_one_cluster(self):
        masks = masks_from_clusters(self._result([0] * 6), 2, 3)
        assert np.array_equal(masks[0], np.ones((2, 3)))
        assert np.array_equal(masks[1], np.zeros((2, 3)))

    def test_alternating_checkerboard(self):
        masks = masks_from_clusters(self._result([0, 1] * 3), 2, 3)
        assert np.array_equal(masks[0] + masks[1], np.ones((2, 3)))
        assert masks[0][0, 0] == 1 and masks[0][0, 1] == 0

    def test_matches_per_bin_lookup(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 2, 20)
        masks = masks_from_clusters(self._result(labels), 4, 5)
        for t in range(4):
            for f in range(5):
                assert masks[labels[t * 5 + f]][t, f] == 1.0

    def test_complementarity(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, 12)
        masks = masks_from_clusters(self._result(labels, c=3), 3, 4)
        assert np.array_equal(sum(masks), np.ones((3, 4)))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            masks_from_clusters(self._result([0] * 6), 2, 4)


class TestSelectTarget:
    def _w(self, samples):
        return Waveform(np.asarray(samples, dtype=float), 16000)

    def test_picks_dominant(self):
        idx, order = select_target([self._w([1.0, 1.0]), self._w([0.5, 0.5])])
        assert idx == 0
        assert order == [0, 1]

    def test_tie_breaks_low_index(self):
        idx, _ = select_target([self._w([0.5, 0.5]), self._w([0.5, -0.5])])
        assert idx == 0

    def test_three_streams(self):
        streams = [self._w([0.1] * 4), self._w([0.5] * 4), self._w([0.3] * 4)]
        idx, order = select_target(streams)
        assert idx == 1
        assert order == [1, 2, 0]

    def test_all_silent_rejected(self):
        with pytest.raises(DataError):
            select_target([self._w([0, 0]), self._w([0, 0])])

    def test_needs_two(self):
        with pytest.raises(DataError):
            select_target([self._w([1.0])])
