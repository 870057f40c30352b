import numpy as np
import pytest

from orthosep.embedding import (
    combined_loss,
    covariance,
    covariance_to_csv,
    dc_loss,
    loss_gradient,
    normalize_rows,
    off_diagonal_ratio,
    penalty,
)
from orthosep.errors import ConfigError, ShapeError


def random_instance(seed, n=32, k=8, c=2):
    rng = np.random.default_rng(seed)
    v = normalize_rows(rng.standard_normal((n, k)))
    y = np.zeros((n, c))
    y[np.arange(n), rng.integers(0, c, n)] = 1.0
    return v, y


def dense_dc(v, y):
    return np.linalg.norm(v @ v.T - y @ y.T, "fro") ** 2


def dense_penalty(v):
    return np.linalg.norm(v.T @ v - np.eye(v.shape[1]), "fro") ** 2


class TestNormalizeRows:
    def test_three_four_five(self):
        out = normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]])

    def test_unit_rows_unchanged(self):
        rng = np.random.default_rng(0)
        v = normalize_rows(rng.standard_normal((10, 4)))
        assert np.allclose(normalize_rows(v), v, atol=1e-12)

    def test_zero_row_convention(self):
        out = normalize_rows(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        assert np.array_equal(out[0], [1.0, 0.0, 0.0])

    def test_all_rows_unit_norm(self):
        rng = np.random.default_rng(1)
        out = normalize_rows(rng.standard_normal((50, 6)) * 10)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


class TestDcLoss:
    def test_perfect_match_is_zero(self):
        y = np.zeros((8, 3))
        y[np.arange(8), np.arange(8) % 3] = 1.0
        assert dc_loss(y, y) == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_hand_case(self):
        # V rows both [1]: VV^T all-ones; Y = I: YY^T = I; diff has two
        # off-diagonal ones -> squared Frobenius norm 2
        v = np.array([[1.0], [1.0]])
        y = np.eye(2)
        assert dc_loss(v, y) == pytest.approx(2.0)
        assert dense_dc(v, y) == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_oracle(self, seed):
        v, y = random_instance(seed, n=48, k=7, c=3)
        low = dc_loss(v, y)
        dense = dense_dc(v, y)
        assert low == pytest.approx(dense, rel=1e-6)

    def test_nonnegative(self):
        for seed in range(20):
            v, y = random_instance(seed, n=20, k=5)
            assert dc_loss(v, y) >= -1e-9

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeError):
            dc_loss(np.ones((4, 2)), np.ones((3, 2)))

    def test_column_permutation_invariance_of_y(self):
        # relabeling the sources cannot change the objective
        v, y = random_instance(3, n=30, k=6, c=3)
        perm = np.array([2, 0, 1])
        assert dc_loss(v, y[:, perm]) == pytest.approx(dc_loss(v, y), rel=1e-12)

    def test_row_permutation_covariance(self):
        v, y = random_instance(4, n=25, k=5)
        perm = np.random.default_rng(0).permutation(25)
        assert dc_loss(v[perm], y[perm]) == pytest.approx(dc_loss(v, y), rel=1e-12)


class TestPenalty:
    def test_orthonormal_columns_zero(self):
        v = np.eye(10)[:, :4]
        assert penalty(v) == pytest.approx(0.0, abs=1e-12)

    def test_hand_case(self):
        assert penalty(np.array([[1.0], [1.0]])) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((40, rng.integers(2, 17)))
        assert penalty(v) == pytest.approx(dense_penalty(v), abs=1e-9, rel=1e-9)

    def test_nonnegative(self):
        for seed in range(20):
            v, _ = random_instance(seed, n=20, k=5)
            assert penalty(v) >= -1e-9

    def test_zero_iff_orthonormal(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((20, 5)))
        assert penalty(q) == pytest.approx(0.0, abs=1e-9)
        # perturb: no longer orthonormal, penalty strictly positive
        assert penalty(q + 0.01) > 1e-6


class TestCombinedLoss:
    def test_lambda_zero_is_dc_only(self):
        v, y = random_instance(0)
        breakdown = combined_loss(v, y, 0.0)
        assert breakdown.total == dc_loss(v, y)

    def test_hand_case_sum(self):
        v = np.array([[1.0], [1.0]])
        y = np.eye(2)
        assert combined_loss(v, y, 1.0).total == pytest.approx(3.0)

    def test_linearity_in_lambda(self):
        v, y = random_instance(2)
        b = combined_loss(v, y, 2.0)
        assert b.total == pytest.approx(b.dc_term + 2.0 * b.penalty_term, rel=1e-12)

    def test_negative_lambda_rejected(self):
        v, y = random_instance(1)
        with pytest.raises(ConfigError):
            combined_loss(v, y, -0.5)


class TestLossGradient:
    def test_penalty_gradient_zero_at_orthonormal(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        y = np.zeros((12, 2))
        y[np.arange(12), np.arange(12) % 2] = 1.0
        with_pen = loss_gradient(q, y, 1.0)
        without = loss_gradient(q, y, 0.0)
        assert np.allclose(with_pen, without, atol=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        v = normalize_rows(rng.standard_normal((6, 3)))
        y = np.zeros((6, 2))
        y[np.arange(6), rng.integers(0, 2, 6)] = 1.0
        lam = float(rng.uniform(0, 2))
        grad = loss_gradient(v, y, lam)
        h = 1e-4
        for i in range(6):
            for j in range(3):
                vp, vm = v.copy(), v.copy()
                vp[i, j] += h
                vm[i, j] -= h
                fd = (combined_loss(vp, y, lam).total - combined_loss(vm, y, lam).total) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_lambda_zero_matches_dc_gradient(self):
        v, y = random_instance(5)
        assert np.array_equal(loss_gradient(v, y, 0.0), loss_gradient(v, y, 0))


class TestCovariance:
    def test_identical_rows_zero(self):
        v = np.tile([0.3, 0.4, 0.5], (10, 1))
        assert np.allclose(covariance(v), 0.0)

    def test_two_point_hand_case(self):
        v = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert np.allclose(covariance(v), [[2.0, 0.0], [0.0, 0.0]])

    def test_symmetric_psd(self):
        rng = np.random.default_rng(11)
        c = covariance(rng.standard_normal((100, 8)))
        assert np.allclose(c, c.T, atol=1e-9)
        assert np.min(np.linalg.eigvalsh(c)) >= -1e-9

    def test_needs_two_rows(self):
        with pytest.raises(ShapeError):
            covariance(np.ones((1, 3)))


class TestOffDiagonalRatio:
    def test_diagonal_matrix_zero(self):
        assert off_diagonal_ratio(np.diag([1.0, 2.0, 3.0])) == 0.0

    def test_all_ones_counting(self):
        k = 5
        assert off_diagonal_ratio(np.ones((k, k))) == pytest.approx((k**2 - k) / k**2)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((6, 6))
        m = m + m.T
        off = sum(m[i, j] ** 2 for i in range(6) for j in range(6) if i != j)
        total = sum(m[i, j] ** 2 for i in range(6) for j in range(6))
        assert off_diagonal_ratio(m) == pytest.approx(off / total, rel=1e-12)

    def test_needs_k_at_least_two(self):
        with pytest.raises(ShapeError):
            off_diagonal_ratio(np.ones((1, 1)))


def test_covariance_csv_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    c = covariance(rng.standard_normal((50, 4)))
    path = tmp_path / "cov.csv"
    covariance_to_csv(c, path)
    back = np.loadtxt(path, delimiter=",")
    assert np.array_equal(back, c)
