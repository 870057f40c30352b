"""K-means over embedding rows and conversion of cluster labels to
binary time-frequency masks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, OrthosepError, ShapeError


@dataclass
class ClusterResult:
    assignments: np.ndarray  # (N,) int labels in [0, C)
    centroids: np.ndarray  # (C, K)
    inertia: float
    iterations: int  # Lloyd iterations of the winning restart
    # diagnostics: the final inertia of every restart, in restart order,
    # and the Hartigan moves of the winning restart
    restart_inertias: tuple[float, ...] = ()
    hartigan_moves: int = 0


def _kmeans_pp_init(x, c, rng):
    n = x.shape[0]
    centroids = np.empty((c, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = np.sum((x - centroids[0]) ** 2, axis=1)
    for j in range(1, c):
        total = d2.sum()
        if total == 0.0:
            centroids[j] = x[rng.integers(n)]
            continue
        probs = d2 / total
        centroids[j] = x[rng.choice(n, p=probs)]
        if j < c - 1:  # nothing reads the distances to the last centroid
            d2 = np.minimum(d2, np.sum((x - centroids[j]) ** 2, axis=1))
    return centroids


def _check_not_increased(inertia, prev):
    """Lloyd steps and Hartigan moves never raise the inertia; allow only
    rounding, which grows with the inertia itself."""
    if inertia > prev + 1e-9 * max(1.0, prev):
        raise OrthosepError(f"k-means inertia increased from {prev!r} to {inertia!r}")


def _centre(x):
    """Mean of the rows, the rows centred on it stored as columns, and
    their squared norms."""
    mu = x.mean(axis=0)
    xt = (x - mu).T.copy()
    return mu, xt, np.einsum("ij,ij->j", xt, xt)


def _lloyd(x, centroids, max_iter, tol):
    """Lloyd iterations from ``centroids``; an empty cluster is re-seeded
    to the point farthest from its own centroid.

    Distances come from the expansion ‖x − c‖² = ‖x‖² − 2·x·c + ‖c‖², one
    (C, K)×(K, N) product per iteration, and the new centroids from one
    one-hot product. Far from the origin the expansion cancels
    catastrophically, so it runs on the data centred on its mean. The
    points are stored as columns: with few clusters, the product in this
    orientation is several times faster than (N, K)×(K, C)."""
    mu, xt, x2 = _centre(x)
    centroids = centroids - mu
    c = centroids.shape[0]
    clusters = np.arange(c)[:, None]
    prev_inertia = np.inf
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        labels, d2 = _nearest(xt, x2, centroids)
        inertia = float(d2.sum())
        _check_not_increased(inertia, prev_inertia)
        prev_inertia = inertia
        counts = np.bincount(labels, minlength=c)
        sums = (labels == clusters).astype(np.float64) @ xt.T
        new_centroids = sums / np.maximum(counts, 1)[:, None]
        empty = counts == 0
        if empty.any():
            new_centroids[empty] = xt[:, np.argmax(d2)]
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < tol:
            break
    labels, d2 = _nearest(xt, x2, centroids)
    return labels, centroids + mu, float(d2.sum()), iterations


def _nearest(xt, x2, centroids):
    """Label of each column's nearest centroid (lowest index on ties) and
    its squared distance, clipped at zero against rounding.

    A running strict comparison over the few centroid rows picks the same
    labels as ``argmin`` along the short, strided axis 0 at a fraction of
    its cost."""
    d2 = x2 - 2.0 * (centroids @ xt) + np.einsum("ij,ij->i", centroids, centroids)[:, None]
    labels = np.zeros(d2.shape[1], dtype=np.intp)
    best = d2[0]
    for j in range(1, len(d2)):
        labels[d2[j] < best] = j
        best = np.minimum(best, d2[j])
    return labels, np.maximum(best, 0.0)


# points judged at once right after a move: the next mover is often close
# (from a poor start every other point moves), and a block with no mover
# doubles the next one
_SCAN_BLOCK = 16


def _hartigan_refine(x, labels, c, max_passes=50):
    """Single-point reassignment passes after Lloyd convergence.

    A point moves when the exact inertia change of the move is negative
    (n_a/(n_a-1)·d_a² removal gain vs n_b/(n_b+1)·d_b² insertion cost),
    which escapes Lloyd-stable local optima on small inputs. Every move
    strictly decreases inertia, so termination is guaranteed. Returns the
    labels and the number of moves made.

    Points are visited in index order and each move is applied before the
    next point is judged (Hartigan & Wong 1979). Rather than visit one
    point at a time, numpy judges a block of points against the current
    sums and counts and the first mover in it is applied; the scan then
    resumes right after that point. The first block of a pass is the whole
    array; after a move a block holds 16 points, and a block with no mover
    is skipped and the next one is twice as long, so a pass costs
    O(N + moves·block) array work and a few Python steps per move, not one
    per point. Within a block, ``_screen`` discards the rows that cannot
    move and only the rest get the exact rule. The labels equal those of
    a per-point loop.
    """
    labels = labels.copy()
    n = x.shape[0]
    moves = 0
    counts = np.bincount(labels, minlength=c).astype(np.float64)
    sums = np.zeros((c, x.shape[1]))
    for j in range(c):
        if counts[j]:
            sums[j] = x[labels == j].sum(axis=0)
    mu, xt, x2 = _centre(x)
    for _ in range(max_passes):
        improved = False
        start, size = 0, n
        while start < n:
            stop = min(start + size, n)
            rows = start + _screen(xt[:, start:stop], x2[start:stop], labels[start:stop],
                                   sums, counts, mu)
            offset, b = _first_move(x[rows], labels[rows], sums, counts) if len(rows) else (-1, -1)
            if offset < 0:
                start, size = stop, 2 * size
                continue
            i = rows[offset]
            a = labels[i]
            sums[a] -= x[i]
            counts[a] -= 1.0
            sums[b] += x[i]
            counts[b] += 1.0
            labels[i] = b
            improved = True
            moves += 1
            start, size = i + 1, _SCAN_BLOCK
        if not improved:
            break
    return labels, moves


def _screen(xt, x2, lb, sums, counts, mu):
    """Offsets of the columns of ``xt`` (points centred on ``mu``) that
    Hartigan's rule might move, in index order.

    Every distance comes from one small product, as in Lloyd:
    ‖x − m‖² = ‖x − μ‖² − 2·(x − μ)·(m − μ) + ‖m − μ‖². Its rounding error
    is a few K·eps·(‖x − μ‖² + ‖m − μ‖²), so a point is kept when its best
    screened gain is above 1e-12 − margin, with the margin
    1e-9·(max‖x − μ‖² + max‖m − μ‖² + 1) many orders of magnitude wider:
    a discarded point could not have moved under the exact rule."""
    live = np.flatnonzero(counts)
    mc = sums[live] / counts[live][:, None] - mu
    m2 = np.einsum("ij,ij->i", mc, mc)
    d = x2 - 2.0 * (mc @ xt) + m2[:, None]
    cols = np.arange(len(lb))
    own_row = np.searchsorted(live, lb)
    own = counts[lb]
    with np.errstate(divide="ignore", invalid="ignore"):
        removal = own / (own - 1.0) * d[own_row, cols]
    gain = removal - (counts[live] / (counts[live] + 1.0))[:, None] * d
    gain[own_row, cols] = -np.inf
    margin = 1e-9 * (float(x2.max()) + float(m2.max()) + 1.0)
    return np.flatnonzero((own > 1) & (gain.max(axis=0) > 1e-12 - margin))


def _first_move(xb, lb, sums, counts):
    """(offset, target) of the first row of ``xb`` that Hartigan's rule
    moves, or (-1, -1). Every float is computed as the per-point rule
    computes it: the same centroid division, the same row sum, and the
    targets tried in index order, each having to beat the best gain so
    far by more than 1e-12."""
    rows = np.arange(len(lb))
    d = np.full((len(lb), len(counts)), np.nan)
    for j in np.flatnonzero(counts):
        d[:, j] = np.sum((xb - sums[j] / counts[j]) ** 2, axis=1)
    own = counts[lb]
    with np.errstate(divide="ignore", invalid="ignore"):
        removal = own / (own - 1.0) * d[rows, lb]
    best_gain = np.zeros(len(lb))
    best = lb.copy()
    for j in np.flatnonzero(counts):
        gain = removal - counts[j] / (counts[j] + 1.0) * d[:, j]
        wins = (lb != j) & (gain > best_gain + 1e-12)
        best_gain[wins] = gain[wins]
        best[wins] = j
    moves = (own > 1) & (best != lb)
    if not moves.any():
        return -1, -1
    offset = int(np.argmax(moves))
    return offset, int(best[offset])


def kmeans(
    v: np.ndarray,
    c: int,
    seed: int = 0,
    max_iter: int = 300,
    tol: float = 1e-6,
    restarts: int = 5,
) -> ClusterResult:
    """Seeded k-means++ with Lloyd iterations, Hartigan refinement and
    deterministic restarts. The minimum-inertia restart wins, but a later
    restart must beat the best so far by more than a relative 1e-12, so the
    last bits of a sum never choose between restarts that reach the same
    partition."""
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected (N, K) matrix, got shape {x.shape}")
    if c < 1 or x.shape[0] < c:
        raise DataError(f"need N >= C >= 1, got N={x.shape[0]}, C={c}")
    if not np.isfinite(x).all():
        raise DataError("k-means input holds NaN or infinite values")
    best = None
    restart_inertias = []
    # Hartigan is a deterministic function of the partition, and for C=2
    # symmetric under swapping the two labels: a restart whose Lloyd
    # partition an earlier one reached ends where that one ended. Maps the
    # partition to its refined inertia, or to None if Hartigan moved nothing.
    refined_inertia = {}
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        centroids = _kmeans_pp_init(x, c, rng)
        labels, centroids, inertia, iterations = _lloyd(x, centroids, max_iter, tol)
        key = (labels ^ labels[0] if c == 2 else labels).tobytes()
        moves = 0
        if key not in refined_inertia:
            refined, moves = _hartigan_refine(x, labels, c)
            if moves:
                labels = refined
                for j in range(c):
                    members = x[labels == j]
                    if len(members):
                        centroids[j] = members.mean(axis=0)
                diffs = x - centroids[labels]
                new_inertia = float(np.sum(diffs * diffs))
                _check_not_increased(new_inertia, inertia)
                inertia = new_inertia
            refined_inertia[key] = inertia if moves else None
        elif refined_inertia[key] is not None:
            # equal to the earlier restart's inertia, so it cannot win
            restart_inertias.append(refined_inertia[key])
            continue
        restart_inertias.append(inertia)
        if best is None or best.inertia - inertia > 1e-12 * best.inertia:
            best = ClusterResult(
                assignments=labels, centroids=centroids, inertia=inertia,
                iterations=iterations, hartigan_moves=moves,
            )
    best.restart_inertias = tuple(restart_inertias)
    return best


def masks_from_clusters(result: ClusterResult, num_frames: int, num_bins: int):
    """Per-cluster binary (T, F) masks; complementary by construction."""
    labels = result.assignments
    if labels.shape[0] != num_frames * num_bins:
        raise ShapeError(
            f"{labels.shape[0]} assignments != {num_frames} * {num_bins} bins"
        )
    c = result.centroids.shape[0]
    return [
        (labels == j).astype(np.float64).reshape(num_frames, num_bins)
        for j in range(c)
    ]


def select_target(separated):
    """Index of the maximum-mean-power stream (lowest index on ties) plus
    the power-descending ordering of all streams."""
    if len(separated) < 2:
        raise DataError(f"need at least 2 streams, got {len(separated)}")
    powers = np.array([w.power() for w in separated])
    if np.all(powers == 0.0):
        raise DataError("all separated streams are silent")
    # stable sort keeps the lowest index first among equal powers
    ordering = list(np.argsort(-powers, kind="stable"))
    return int(ordering[0]), ordering
