"""Embedding-space objective: affinity loss, orthonormality penalty,
combined cost, analytic gradient and covariance diagnostics.

An embedding matrix V is a plain (N, K) float array whose rows are
unit-norm; a label indicator Y is an (N, C) one-hot 0/1 array. N is the
number of time-frequency bins (T * F, flattened row-major). All losses
are computed low-rank: no N x N matrix is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class LossBreakdown:
    dc_term: float
    penalty_term: float
    lam: float

    @property
    def total(self):
        return self.dc_term + self.lam * self.penalty_term


def normalize_rows(raw: np.ndarray) -> np.ndarray:
    """Scale every row to unit L2 norm. Zero rows map to e1 by convention."""
    raw = np.asarray(raw, dtype=np.float64)
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    zero = norms[:, 0] == 0.0
    out = raw / np.where(norms == 0.0, 1.0, norms)
    if np.any(zero):
        out[zero] = 0.0
        out[zero, 0] = 1.0
    return out


def _check_rows(v, y):
    v = np.asarray(v, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if v.shape[0] != y.shape[0]:
        raise ShapeError(f"row-count mismatch: V has {v.shape[0]} rows, Y has {y.shape[0]}")
    return v, y


def dc_loss(v: np.ndarray, y: np.ndarray) -> float:
    """Affinity-matching loss ||VV^T - YY^T||_F^2 via its low-rank expansion

        ||V^T V||_F^2 - 2 ||V^T Y||_F^2 + ||Y^T Y||_F^2,

    which costs O(N K^2 + N K C + N C^2) instead of O(N^2).
    """
    v, y = _check_rows(v, y)
    vtv = v.T @ v
    vty = v.T @ y
    yty = y.T @ y
    return float(np.sum(vtv**2) - 2.0 * np.sum(vty**2) + np.sum(yty**2))


def penalty(v: np.ndarray) -> float:
    """Orthonormality penalty ||V^T V - I||_F^2, expanded low-rank as
    ||V^T V||_F^2 - 2 ||V||_F^2 + K."""
    v = np.asarray(v, dtype=np.float64)
    k = v.shape[1]
    vtv = v.T @ v
    return float(np.sum(vtv**2) - 2.0 * np.sum(v**2) + k)


def combined_loss(v: np.ndarray, y: np.ndarray, lam: float = 1.0) -> LossBreakdown:
    """Affinity loss plus lam times the orthonormality penalty.

    lam=1 is the full regularized objective, lam=0 the plain affinity
    baseline.
    """
    if lam < 0:
        raise ConfigError(f"lambda must be non-negative, got {lam}")
    return LossBreakdown(dc_term=dc_loss(v, y), penalty_term=penalty(v), lam=lam)


def loss_gradient(v: np.ndarray, y: np.ndarray, lam: float = 1.0) -> np.ndarray:
    """Gradient of combined_loss with respect to V:

        4 (V (V^T V) - Y (Y^T V)) + lam * 4 V (V^T V - I).

    Computed low-rank; returns an (N, K) array.
    """
    if lam < 0:
        raise ConfigError(f"lambda must be non-negative, got {lam}")
    v, y = _check_rows(v, y)
    vtv = v.T @ v
    grad = 4.0 * (v @ vtv - y @ (y.T @ v))
    if lam != 0.0:
        grad += lam * 4.0 * (v @ vtv - v)
    return grad


def covariance(v: np.ndarray) -> np.ndarray:
    """Sample covariance of the K embedding dimensions across the N rows
    (mean-centered, divisor N - 1)."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[0] < 2:
        raise ShapeError(f"need at least 2 rows for covariance, got {v.shape[0]}")
    centered = v - v.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (v.shape[0] - 1)
    return 0.5 * (cov + cov.T)  # enforce exact symmetry


def off_diagonal_ratio(c: np.ndarray) -> float:
    """Share of squared mass off the diagonal: in [0, 1], 0 for diagonal
    matrices."""
    c = np.asarray(c, dtype=np.float64)
    if c.shape[0] < 2 or c.shape[0] != c.shape[1]:
        raise ShapeError(f"need a square K x K matrix with K >= 2, got shape {c.shape}")
    total = float(np.sum(c**2))
    if total == 0.0:
        return 0.0
    diag = float(np.sum(np.diag(c) ** 2))
    return (total - diag) / total


def covariance_to_csv(c: np.ndarray, path) -> None:
    """Row-major full-precision CSV export of a covariance matrix."""
    c = np.asarray(c, dtype=np.float64)
    with open(path, "w") as f:
        for row in c:
            f.write(",".join(repr(float(x)) for x in row) + "\n")
