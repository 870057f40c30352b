"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line. Criterion 5 trains six desk-scale models and
dominates the runtime of the whole suite (about 6 minutes on a 2-core
x86-64 machine)."""

import time
from itertools import combinations

import numpy as np
import pytest

from orthosep import embedding, metrics, pipeline
from orthosep.clustering import kmeans
from orthosep.cli import main as cli_main
from orthosep.dataset import CorpusConfig, build_corpus, render_mixture
from orthosep.network import (
    NetworkConfig,
    TrainingConfig,
    backward,
    forward,
    init_params,
    named_arrays,
    train,
)
from orthosep.signal import StftConfig, apply_mask, istft, log_magnitude, stft


def verdict(number, name, ok):
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_loss_identities():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        n = int(rng.integers(4, 65))
        k = int(rng.integers(2, 17))
        c = int(rng.integers(2, 5))
        v = embedding.normalize_rows(rng.standard_normal((n, k)))
        y = np.zeros((n, c))
        y[np.arange(n), rng.integers(0, c, n)] = 1.0
        dense_dc = np.linalg.norm(v @ v.T - y @ y.T, "fro") ** 2
        dense_pen = np.linalg.norm(v.T @ v - np.eye(k), "fro") ** 2
        ok &= abs(embedding.dc_loss(v, y) - dense_dc) <= 1e-6 * max(dense_dc, 1.0)
        ok &= abs(embedding.penalty(v) - dense_pen) <= 1e-6 * max(dense_pen, 1.0)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    verdict(1, f"low-rank loss identities, 200 instances in {elapsed:.2f}s", ok)


def test_criterion_2_gradient_suite():
    start = time.perf_counter()
    ok = True
    # loss-level: analytic gradient of the combined objective vs central
    # differences at step 1e-4
    for seed in range(20):
        rng = np.random.default_rng(seed)
        v = embedding.normalize_rows(rng.standard_normal((6, 3)))
        y = np.zeros((6, 2))
        y[np.arange(6), rng.integers(0, 2, 6)] = 1.0
        lam = float(rng.uniform(0, 2))
        grad = embedding.loss_gradient(v, y, lam)
        h = 1e-4
        for i in range(6):
            for j in range(3):
                vp, vm = v.copy(), v.copy()
                vp[i, j] += h
                vm[i, j] -= h
                fd = (
                    embedding.combined_loss(vp, y, lam).total
                    - embedding.combined_loss(vm, y, lam).total
                ) / (2 * h)
                ok &= abs(fd - grad[i, j]) <= 1e-4 * max(abs(fd), abs(grad[i, j])) + 1e-8
    # network-level: full backpropagation vs central differences at step
    # 1e-6 (the small step keeps finite-difference truncation error from
    # the row-normalization curvature below the 1e-3 comparison band; the
    # error shrinks as h^2, confirming truncation rather than a gradient bug)
    cfg = NetworkConfig(input_dim=4, hidden=3, num_bilstm_layers=2,
                        embedding_dim=2, dropout_rate=0.5)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = init_params(cfg, seed=seed)
        features = rng.standard_normal((3, cfg.input_dim))
        y = np.zeros((12, 2))
        y[np.arange(12), rng.integers(0, 2, 12)] = 1.0
        _, grads = backward(params, cfg, features, y, 1.0, rng_seed=seed)
        gnames = named_arrays(grads)
        h = 1e-6
        for name, arr in named_arrays(params).items():
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lp = backward(params, cfg, features, y, 1.0, rng_seed=seed)[0].total
                arr[idx] = orig - h
                lm = backward(params, cfg, features, y, 1.0, rng_seed=seed)[0].total
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                g = gnames[name][idx]
                ok &= abs(fd - g) <= 1e-3 * max(abs(fd), abs(g)) + 1e-6
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    verdict(2, f"gradients match finite differences, 20 seeds in {elapsed:.1f}s", ok)


def test_criterion_3_orthonormality_behavior():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((50, 8)))
    ok = embedding.penalty(q) < 1e-9
    # plain gradient descent on the penalty alone from a random start
    v = rng.standard_normal((200, 10))
    reached = None
    for step in range(1000):
        v = v - 1e-3 * (4.0 * v @ (v.T @ v - np.eye(10)))
        if embedding.off_diagonal_ratio(v.T @ v) < 0.01:
            reached = step
            break
    ok &= reached is not None
    verdict(3, f"penalty zero at orthonormal V; descent decorrelates by step {reached}",
            ok)


def test_criterion_4_pipeline_oracle():
    entries = build_corpus(CorpusConfig(n_train=10, n_val=10, n_eval=20,
                                        duration_s=0.5, seed=7))
    cfg = StftConfig()
    scores = []
    for entry in entries:
        if entry.split != "eval":
            continue
        mixture, target, interferer = render_mixture(entry)
        mix_spec = stft(mixture, cfg)
        specs = [stft(target, cfg), stft(interferer, cfg)]
        masks, waves = pipeline.oracle_separate(mix_spec, specs)
        refs = [pipeline.interior_samples(istft(s), cfg.fft_size) for s in specs]
        est = [pipeline.interior_samples(w, cfg.fft_size) for w in waves]
        scores.extend(metrics.sdr(e, r) for e, r in zip(est, refs))
    mean_sdr = float(np.mean(scores))
    ok = mean_sdr >= 10.0
    verdict(4, f"IBM-oracle mean SDR {mean_sdr:.2f} dB over 20 mixtures (floor 10)", ok)


DESK_STFT = StftConfig()
DESK_NET = NetworkConfig(input_dim=DESK_STFT.num_bins, hidden=32,
                         num_bilstm_layers=2, embedding_dim=20, dropout_rate=0.5)
DESK_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def desk_runs():
    """Six desk-scale trainings (lambda 0 and 1, three seeds each) with
    eval-split penalty, pooled-covariance, and SDR summaries."""
    entries = build_corpus(CorpusConfig(n_train=100, n_val=20, n_eval=20,
                                        duration_s=0.3, seed=42))
    eval_entries = [e for e in entries if e.split == "eval"]

    def eval_mean_penalty(params):
        vals = []
        for entry in eval_entries:
            mixture, _, _ = render_mixture(entry)
            features = log_magnitude(stft(mixture, DESK_STFT))
            vals.append(embedding.penalty(forward(params, DESK_NET, features)))
        return float(np.mean(vals))

    out = {}
    for seed in DESK_SEEDS:
        models = {}
        for lam, method in ((0.0, "dc"), (1.0, "proposed")):
            params, _ = train(entries, DESK_NET, TrainingConfig(
                lam=lam, learning_rate=1e-4, epochs=50, seed=seed, stft=DESK_STFT))
            pooled = pipeline.pooled_embeddings(entries, params, DESK_NET, DESK_STFT)
            models[method] = {
                "params": params,
                "penalty": eval_mean_penalty(params),
                "cov_ratio": embedding.off_diagonal_ratio(embedding.covariance(pooled)),
            }
        records = pipeline.evaluate_manifest(
            entries,
            {m: (models[m]["params"], DESK_NET) for m in models},
            DESK_STFT,
            seed=seed,
        )
        for method in models:
            models[method]["sdr"] = float(np.mean(
                [r.sdr_db for r in records if r.method == method]
            ))
        out[seed] = models
    return out


def test_criterion_5_directional_regularization_effect(desk_runs):
    ok = True
    lines = []
    for seed, models in desk_runs.items():
        dc, prop = models["dc"], models["proposed"]
        ok &= prop["penalty"] < dc["penalty"]
        ok &= prop["cov_ratio"] < dc["cov_ratio"]
        lines.append(
            f"seed {seed}: penalty {prop['penalty']:.3g} vs {dc['penalty']:.3g}, "
            f"cov off-diag {prop['cov_ratio']:.4f} vs {dc['cov_ratio']:.4f}, "
            f"eval SDR {prop['sdr']:.2f} vs {dc['sdr']:.2f} dB (regularized vs baseline)"
        )
    for line in lines:
        print(line)
    verdict(5, "regularized model decorrelates embeddings on every seed", ok)


def brute_force_two_partition_inertia(x):
    n = len(x)
    best = np.inf
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            a = x[list(subset)]
            b = np.delete(x, list(subset), axis=0)
            best = min(best, np.sum((a - a.mean(axis=0)) ** 2)
                       + np.sum((b - b.mean(axis=0)) ** 2))
    return best


def test_criterion_6_clustering_suite():
    agree = 0
    trials = 100
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        x = rng.standard_normal((n, 2))
        result = kmeans(x, 2, seed=0, restarts=10)
        optimal = brute_force_two_partition_inertia(x)
        # Lloyd iterations assert inertia monotonicity internally on every run
        agree += result.inertia <= optimal * (1 + 1e-9) + 1e-12
    rate = agree / trials
    ok = rate >= 0.95
    verdict(6, f"k-means finds the optimal 2-partition on {rate:.0%} of instances", ok)


def test_criterion_7_metrics_exactness():
    rng = np.random.default_rng(70)
    ref = rng.standard_normal(512)
    noise = rng.standard_normal(512)
    noise -= (noise @ ref) / (ref @ ref) * ref
    noise *= np.linalg.norm(ref) / np.linalg.norm(noise)
    est = ref + 0.3 * noise
    ok = abs(metrics.sdr(5.0 * est, ref) - metrics.sdr(est, ref)) <= 1e-9
    ok &= abs(metrics.sdr(ref + noise, ref)) <= 1e-9
    masks = (rng.random((4, 4)) > 0.5).astype(float)
    ideal = (rng.random((4, 4)) > 0.5).astype(float)
    direct = metrics.mask_error_rate([masks, 1 - masks], [ideal, 1 - ideal])
    swapped = metrics.mask_error_rate([1 - masks, masks], [1 - ideal, ideal])
    ok &= abs(direct - swapped) <= 1e-9
    a, b = ref + 0.1 * noise, ref + 0.7 * noise
    ok &= abs(metrics.improved_npa(a, b, ref) + metrics.improved_npa(b, a, ref)) <= 1e-9
    verdict(7, "SDR/mask-error/NPA identities exact within 1e-9", ok)


def test_criterion_8_end_to_end_determinism(tmp_path, monkeypatch):
    def run_once(root):
        root.mkdir()
        monkeypatch.chdir(root)
        assert cli_main([
            "--seed", "3", "synth", "--out", "corpus", "--n-train", "10",
            "--n-val", "10", "--n-eval", "10", "--duration", "0.25",
        ]) == 0
        assert cli_main([
            "--seed", "0", "train", "--manifest", "corpus/manifest.jsonl",
            "--out", "model", "--hidden", "4", "--embedding-dim", "2",
            "--epochs", "2", "--fft-size", "256", "--hop", "128",
            "--lambda", "1.0",
        ]) == 0
        assert cli_main([
            "--seed", "1", "evaluate", "--manifest", "corpus/manifest.jsonl",
            "--checkpoint", "model/checkpoint.osep", "--out", "report",
            "--fft-size", "256", "--hop", "128",
        ]) == 0

    run_once(tmp_path / "a")
    run_once(tmp_path / "b")
    ok = True
    for rel in ("corpus/manifest.jsonl", "model/checkpoint.osep",
                "model/training_log.csv", "report/records.csv", "report/report.csv"):
        ok &= (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    verdict(8, "synth/train/evaluate artifacts bit-identical across two runs", ok)
