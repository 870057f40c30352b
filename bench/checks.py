"""Independent checks of the program's outputs.

Each check recomputes a quantity in its own way, or tests a property the
output must have, and raises CheckFailed when the output is wrong. They
depend on numpy alone, so a fault in the program cannot hide in a shared
helper.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    pass


def _fail_unless(ok, message):
    if not ok:
        raise CheckFailed(message)


def dense_loss(v, y, lam, block=512):
    """||VV^T - YY^T||_F^2 + lam ||V^T V - I||_F^2, with the N x N affinity
    difference formed explicitly, one block of rows at a time."""
    v = np.asarray(v, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    total = 0.0
    for s in range(0, v.shape[0], block):
        diff = v[s : s + block] @ v.T - y[s : s + block] @ y.T
        total += float(np.vdot(diff, diff))
    gram = v.T @ v - np.eye(v.shape[1])
    return total + lam * float(np.vdot(gram, gram))


def check_loss(v, y, lam, reported, rtol=1e-9):
    """The program's combined loss equals the dense loss to rtol."""
    dense = dense_loss(v, y, lam)
    err = abs(reported - dense) / abs(dense)
    _fail_unless(err <= rtol, f"loss {reported!r} vs dense {dense!r}: relative error {err:.3g}")


def _directional_derivative(v, y, lam, d, h):
    """Five-point central difference of the dense loss along d; exact up
    to rounding, because the loss is a quartic polynomial along any line."""
    f = [dense_loss(v + k * h * d, y, lam) for k in (-2, -1, 1, 2)]
    return (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)


def check_gradient(v, y, lam, grad, seed=0, rtol=1e-6, h=1e-2):
    """<grad, D> matches the dense loss's directional derivative along two
    unit directions: the reported gradient's own (which catches a wrong
    scale) and a random one (which catches a wrong direction). The error
    is measured against ||grad||_F."""
    grad = np.asarray(grad, dtype=np.float64)
    norm = float(np.linalg.norm(grad))
    _fail_unless(norm > 0.0, "gradient is zero")
    rand = np.random.default_rng(seed).standard_normal(grad.shape)
    for label, d in (("gradient", grad / norm), ("random", rand / np.linalg.norm(rand))):
        fd = _directional_derivative(v, y, lam, d, h)
        err = abs(float(np.vdot(grad, d)) - fd) / norm
        _fail_unless(err <= rtol, f"{label} direction: <grad, D> vs finite difference {fd!r}: error {err:.3g} of ||grad||")


def check_unit_rows(v, tol=1e-12):
    err = float(np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)))
    _fail_unless(err <= tol, f"embedding rows are not unit-norm: max |norm - 1| = {err:.3g}")


def check_loss_decreased(log):
    first, last = log[0]["mean_total"], log[-1]["mean_total"]
    _fail_unless(last < first, f"last epoch mean loss {last!r} is not below the first {first!r}")


def check_masks(masks):
    """Binary masks that sum to exactly 1 at every bin."""
    stack = np.asarray(masks, dtype=np.float64)
    _fail_unless(np.all((stack == 0.0) | (stack == 1.0)), "masks are not binary")
    _fail_unless(np.all(stack.sum(axis=0) == 1.0), "masks do not sum to 1 at every bin")


def check_reconstruction(waveforms, mixture, trim, tol=1e-9):
    """The separated waveforms sum to the mixture on the interior (one
    analysis frame trimmed from each end)."""
    total = np.sum([np.asarray(w) for w in waveforms], axis=0)
    n = len(total)
    err = float(np.max(np.abs(total[trim : n - trim] - np.asarray(mixture)[trim : n - trim])))
    _fail_unless(err <= tol, f"separated sources miss the mixture by {err:.3g}")
    return err


def hartigan_gain(x, labels):
    """Largest decrease of k-means inertia that moving a single point to
    another cluster would give (negative when no move helps)."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    c = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=c).astype(np.float64)
    means = np.stack([x[labels == j].mean(axis=0) if counts[j] else np.zeros(x.shape[1]) for j in range(c)])
    d2 = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    rows = np.arange(len(x))
    n_own = counts[labels]
    with np.errstate(divide="ignore", invalid="ignore"):
        removal = np.where(n_own > 1, n_own / (n_own - 1.0) * d2[rows, labels], -np.inf)
    addition = counts / (counts + 1.0) * d2
    addition[rows, labels] = np.inf
    addition[:, counts == 0] = np.inf
    return float(np.max(removal - addition.min(axis=1)))


def check_hartigan(x, labels, tol=1e-9):
    gain = hartigan_gain(x, labels)
    _fail_unless(gain <= tol, f"moving one point lowers the inertia by {gain:.3g}")
    return gain


def projection_sdr(estimate, reference):
    """10 log10 of the energy of the estimate's projection on the
    reference over the energy of the rest."""
    e = np.asarray(estimate, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    target = (np.dot(e, r) / np.dot(r, r)) * r
    rest = e - target
    return 10.0 * np.log10(np.dot(target, target) / np.dot(rest, rest))


def check_sdr(estimate, reference, reported, tol=1e-9):
    own = projection_sdr(estimate, reference)
    _fail_unless(abs(own - reported) <= tol, f"SDR {reported!r} dB vs own {own!r} dB")
    return own


def check_records(records, ids, methods=("dc", "proposed")):
    """Finite SDRs, mask error rates of at most one half, and every method
    on exactly the same mixture ids."""
    for r in records:
        _fail_unless(np.isfinite(r.sdr_db) and np.isfinite(r.sdr_mean_db), f"{r.method} {r.id}: SDR is not finite")
        _fail_unless(0.0 <= r.mask_error_rate <= 0.5, f"{r.method} {r.id}: mask error rate {r.mask_error_rate}")
    for m in methods:
        covered = sorted(r.id for r in records if r.method == m)
        _fail_unless(covered == sorted(ids), f"method {m} covers {covered}, expected {sorted(ids)}")
