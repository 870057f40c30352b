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


def kmeans_reference(x, c, seed=0, max_iter=300, tol=1e-6, restarts=5):
    """Reference oracle: the restart loop refining every restart with the
    per-point Hartigan loop; nothing is skipped or screened."""
    best, restart_inertias = None, []
    for r in range(restarts):
        init = clustering._kmeans_pp_init(x, c, np.random.default_rng([seed, r]))
        labels, centroids, inertia, iterations = clustering._lloyd(x, init, max_iter, tol)
        refined, moves = hartigan_refine_loop(x, labels, c)
        if moves:
            labels = refined
            for j in range(c):
                if np.any(labels == j):
                    centroids[j] = x[labels == j].mean(axis=0)
            diffs = x - centroids[labels]
            inertia = float(np.sum(diffs * diffs))
        restart_inertias.append(inertia)
        if best is None or best.inertia - inertia > 1e-12 * best.inertia:
            best = ClusterResult(assignments=labels, centroids=centroids, inertia=inertia,
                                 iterations=iterations, hartigan_moves=moves)
    best.restart_inertias = tuple(restart_inertias)
    return best


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

    def test_gain_inside_screen_margin(self):
        # point 2 gains 2.3e-10 by moving to cluster 1: above the 1e-12 of
        # the rule, far inside the screen's margin (~1e-3 at this scale),
        # and the screen's expansion alone puts it at -1.2e-10
        s = 1000.0
        x = np.array([[-s], [-s], [29.437251522859412], [s], [s], [s]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        gain = 1.5 * np.sum((x[2] - x[:3].mean(axis=0)) ** 2) - 0.75 * np.sum((x[2] - s) ** 2)
        assert 1e-12 < gain < 1e-9
        refined, moves = clustering._hartigan_refine(x, labels, 2)
        expected, expected_moves = hartigan_refine_loop(x, labels, 2)
        assert np.array_equal(refined, expected)
        assert moves == expected_moves
        assert refined[2] == 1

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

    def test_nearest_ties_go_to_lowest_index(self):
        # distances from points 0, 2 and -3 to centroids 3, -1 and 1 are
        # (9, 1, 1), (1, 9, 1) and (36, 4, 16), all exact in floats
        x = np.array([[0.0], [2.0], [-3.0]])
        centroids = np.array([[3.0], [-1.0], [1.0]])
        labels, d2 = clustering._nearest(x.T.copy(), np.sum(x * x, axis=1), centroids)
        assert labels.tolist() == [1, 0, 1]
        assert d2.tolist() == [1.0, 1.0, 4.0]

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

    @pytest.mark.parametrize("c,seed,n,k,data", [
        (2, 3, 200, 2, "plain"), (2, 3, 200, 2, "shifted"), (2, 4, 200, 2, "rounded"),
        (3, 0, 400, 3, "plain"), (3, 0, 400, 3, "shifted"), (3, 4, 400, 3, "rounded"),
    ])
    def test_repeated_partitions_match_reference(self, monkeypatch, c, seed, n, k, data):
        x = clouds(seed, n, c, k)
        if data == "shifted":
            x = x + 1e6
        if data == "rounded":
            x = np.round(8.0 * x) / 8.0
            assert len(np.unique(x, axis=0)) < n  # duplicate points

        def key(labels):
            return (labels ^ labels[0] if c == 2 else labels).tobytes()

        # some restarts end Lloyd in a partition that an earlier one
        # reached, and Hartigan moves points from it; for C=2 a repeat has
        # its labels swapped
        partitions = [
            clustering._lloyd(x, clustering._kmeans_pp_init(
                x, c, np.random.default_rng([seed, r])), 300, 1e-6)[0]
            for r in range(5)
        ]
        keys = [key(p) for p in partitions]
        if c == 2:
            assert any(key(p) == key(q) and p[0] != q[0] for p in partitions for q in partitions)
        refine = clustering._hartigan_refine
        calls = []

        def counting_refine(x, labels, c):
            out = refine(x, labels, c)
            calls.append((key(labels), out[1]))
            return out

        monkeypatch.setattr(clustering, "_hartigan_refine", counting_refine)
        result = kmeans(x, c, seed=seed)
        # one refinement per distinct partition
        assert len(calls) == len(set(keys)) < 5
        assert any(keys.count(k) > 1 and moves for k, moves in calls)
        expected = kmeans_reference(x, c, seed=seed)
        assert np.array_equal(result.assignments, expected.assignments)
        assert np.array_equal(result.centroids, expected.centroids)
        assert result.inertia == expected.inertia
        assert result.iterations == expected.iterations
        assert result.restart_inertias == expected.restart_inertias
        assert result.hartigan_moves == expected.hartigan_moves

    def test_winner_must_beat_the_best_by_a_relative_1e_12(self, monkeypatch):
        # every restart reaches the same Hartigan-stable partition; scale
        # their Lloyd inertias so that only restart 3 is lower by more than
        # the last bits
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(+1, 0.05, (20, 2)), rng.normal(-1, 0.05, (20, 2))])
        scale = iter([1.0, 1 - 1e-15, 1 - 2e-15, 1 - 1e-9, 1 - 1e-9 - 1e-15])
        lloyd = clustering._lloyd

        def scaled_lloyd(*args):
            labels, centroids, inertia, iterations = lloyd(*args)
            return labels, centroids, inertia * next(scale), iterations

        monkeypatch.setattr(clustering, "_lloyd", scaled_lloyd)
        result = kmeans(x, 2, seed=0)
        assert result.hartigan_moves == 0
        assert result.restart_inertias[4] < result.restart_inertias[3]
        assert result.inertia == result.restart_inertias[3]

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
