"""End-to-end separation and evaluation: network forward, clustering to
masks, reconstruction and per-utterance metric records.

Metric references are the clean sources passed through the same
analysis/synthesis chain as the estimates, and waveform metrics are
computed on the interior region (one frame trimmed from each end):
least-squares overlap-add divides by near-zero window sums at the edges,
which would amplify masking error unboundedly there.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from . import metrics
from .clustering import kmeans, masks_from_clusters, select_target
from .dataset import compute_ibm, indicator_to_masks, render_mixture
from .errors import DataError
from .network import forward
from .signal import StftConfig, Spectrogram, apply_mask, istft, log_magnitude, stft


def separate_spectrogram(params, net_cfg, mix_spec: Spectrogram,
                         num_sources: int = 2, seed: int = 0,
                         floor_eps: float = 1e-7):
    """Cluster the network embeddings of a mixture into binary masks and
    reconstruct one waveform per source. Returns (masks, waveforms, V)."""
    features = log_magnitude(mix_spec, floor_eps)
    v = forward(params, net_cfg, features, train_mode=False)
    result = kmeans(v, num_sources, seed=seed)
    masks = masks_from_clusters(result, mix_spec.num_frames, mix_spec.num_bins)
    waveforms = [istft(apply_mask(mix_spec, m)) for m in masks]
    return masks, waveforms, v


def oracle_masks(source_specs):
    """Ideal binary masks of clean sources (power-dominance per bin)."""
    y = compute_ibm(source_specs)
    t, f = source_specs[0].bins.shape
    return indicator_to_masks(y, t, f)


def oracle_separate(mix_spec: Spectrogram, source_specs):
    """(masks, waveforms) of IBM-oracle separation of a mixture."""
    masks = oracle_masks(source_specs)
    waveforms = [istft(apply_mask(mix_spec, m)) for m in masks]
    return masks, waveforms


def interior_samples(w, fft_size: int):
    """Samples with one analysis frame trimmed from each end."""
    return w.samples[fft_size:-fft_size]


def _best_permutation(estimates, references):
    """Source-to-reference matching maximizing the total SDR."""
    best_perm, best_score = None, -np.inf
    for perm in permutations(range(len(references))):
        score = sum(
            metrics.sdr(estimates[perm[c]], references[c])
            for c in range(len(references))
        )
        if score > best_score:
            best_perm, best_score = perm, score
    return best_perm


def evaluate_entry(entry, models, stft_cfg: StftConfig, seed: int = 0,
                   entry_index: int = 0, floor_eps: float = 1e-7):
    """Metric records for one eval mixture.

    models maps a method name ("dc" / "proposed") to (params, net_cfg).
    """
    mixture, target, interferer = render_mixture(entry)
    mix_spec = stft(mixture, stft_cfg)
    source_specs = [stft(target, stft_cfg), stft(interferer, stft_cfg)]
    ibm = oracle_masks(source_specs)
    trim = stft_cfg.fft_size
    # references reconstructed through the same analysis/synthesis chain
    refs = [interior_samples(istft(s), trim) for s in source_specs]
    ibm_recons = [interior_samples(istft(apply_mask(mix_spec, m)), trim) for m in ibm]

    records = []
    for method, (params, net_cfg) in models.items():
        est_masks, est_waves, _ = separate_spectrogram(
            params, net_cfg, mix_spec, num_sources=2,
            seed=[seed, entry_index], floor_eps=floor_eps,
        )
        est = [interior_samples(w, trim) for w in est_waves]
        perm = _best_permutation(est, refs)
        sdr_per_ref = [metrics.sdr(est[perm[c]], refs[c]) for c in range(len(refs))]
        target_stream, _ = select_target(est_waves)
        # reference index this dominant stream was matched to
        target_ref = perm.index(target_stream)
        npa_db = metrics.npa(est[target_stream], ibm_recons[target_ref])
        err = metrics.mask_error_rate(est_masks, ibm)
        records.append(
            metrics.UtteranceRecord(
                id=entry.id,
                method=method,
                embedding_dim=net_cfg.embedding_dim,
                sir_db=entry.sir_db,
                family_pair=entry.family_pair,
                sdr_db=sdr_per_ref[target_ref],
                sdr_mean_db=float(np.mean(sdr_per_ref)),
                npa_db=npa_db,
                mask_error_rate=err,
            )
        )
    return records


def evaluate_manifest(entries, models, stft_cfg: StftConfig, seed: int = 0,
                      floor_eps: float = 1e-7):
    """Records for every eval-split entry, ordered by utterance id."""
    eval_entries = sorted(
        (e for e in entries if e.split == "eval"), key=lambda e: e.id
    )
    if not eval_entries:
        raise DataError("the manifest has no eval entries")
    records = []
    for idx, entry in enumerate(eval_entries):
        records.extend(
            evaluate_entry(entry, models, stft_cfg, seed=seed, entry_index=idx,
                           floor_eps=floor_eps)
        )
    return records


def pooled_embeddings(entries, params, net_cfg, stft_cfg: StftConfig,
                      floor_eps: float = 1e-7, split: str = "eval"):
    """Embedding rows of every utterance in a split, stacked (for pooled
    covariance diagnostics)."""
    rows = []
    for entry in sorted((e for e in entries if e.split == split), key=lambda e: e.id):
        mixture, _, _ = render_mixture(entry)
        features = log_magnitude(stft(mixture, stft_cfg), floor_eps)
        rows.append(forward(params, net_cfg, features, train_mode=False))
    if not rows:
        raise DataError(f"the manifest has no {split} entries")
    return np.vstack(rows)
