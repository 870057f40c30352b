"""The benchmark's workloads.

A workload builds its inputs from the seed in set-up, runs one operation
per item of its panel (a round), and checks the outputs after timing.
Operations are deterministic: every round repeats the first one exactly,
and `same` says whether two outputs of one item are identical.

All models use the desk shape: F=257 bins, H=32 cells per direction,
two BLSTM layers, K=20, dropout 0.5, learning rate 1e-4, batch 1.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

import checks
from orthosep import dataset, embedding, metrics, network, pipeline
from orthosep.signal import StftConfig, apply_mask, istft, stft

STFT = StftConfig()
DESK = network.NetworkConfig(input_dim=STFT.num_bins, hidden=32, num_bilstm_layers=2,
                             embedding_dim=20, dropout_rate=0.5)
STRATA = len(dataset.SIR_GRID_DB) * len(dataset.FAMILY_PAIRS)  # 10


def _params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in
               zip(network.named_arrays(a).values(), network.named_arrays(b).values()))


class TrainShort:
    """`network.train` with lambda=1 on 0.3 s clips (T=17, N=4,369): one
    clip per stratum, two epochs, so one call is 20 Adam steps. Forward,
    BPTT and Adam, with no k-means."""

    name = "train-short"
    clip_s = 0.3
    epochs = 2

    def __init__(self, seed, workdir):
        self.entries = dataset.build_corpus(dataset.CorpusConfig(
            n_train=STRATA, n_val=0, n_eval=0, duration_s=self.clip_s, seed=seed))
        self.hyper = network.TrainingConfig(lam=1.0, learning_rate=1e-4,
                                            epochs=self.epochs, seed=seed, stft=STFT)
        self.panel = [None]
        self.audio_per_op = len(self.entries) * self.clip_s * self.epochs

    def op(self, _item):
        return network.train(self.entries, DESK, self.hyper)

    @staticmethod
    def same(a, b):
        return a[1] == b[1] and _params_equal(a[0], b[0])

    def check(self, outputs):
        params, log = outputs[0]
        checks.check_loss_decreased(log)
        features, y, _ = network.prepare_example(self.entries[0], STFT)
        v = network.forward(params, DESK, features, train_mode=False)
        checks.check_unit_rows(v)
        lam = self.hyper.lam
        checks.check_loss(v, y, lam, embedding.combined_loss(v, y, lam).total)
        checks.check_gradient(v, y, lam, embedding.loss_gradient(v, y, lam))
        return {"first_epoch_loss": log[0]["mean_total"], "last_epoch_loss": log[-1]["mean_total"]}


class EvaluateShort:
    """`pipeline.evaluate_entry` on 0.3 s eval mixtures (T=17, N=4,369),
    two per stratum, with a lambda=0 "dc" and a lambda=1 "proposed" model:
    two `separate_spectrogram` calls (k-means is nearly all of each) plus
    rendering, STFT/ISTFT and the metrics of one evaluated mixture.

    The two models are trained in set-up on a fixed corpus of 0.3 s clips,
    independent of the seed, and pass through save_checkpoint and
    load_checkpoint. The seed draws the eval mixtures and the k-means
    seed."""

    name = "evaluate-short"
    clip_s = 0.3
    # The k-means time of one evaluated mixture varies about 30% from one
    # mixture to the next, so a round holds many short mixtures: its total
    # then varies little from seed to seed. A round of 20 takes about 30 s,
    # which fits in one run of 40 s.
    eval_clips = 2 * STRATA
    train_clips = 2 * STRATA
    train_epochs = 10

    def __init__(self, seed, workdir):
        self.seed = seed
        train_corpus = dataset.build_corpus(dataset.CorpusConfig(
            n_train=self.train_clips, n_val=0, n_eval=0, duration_s=self.clip_s, seed=0))
        self.models = {}
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            for method, lam in (("dc", 0.0), ("proposed", 1.0)):
                hyper = network.TrainingConfig(lam=lam, learning_rate=1e-4,
                                               epochs=self.train_epochs, seed=0, stft=STFT)
                params, _ = network.train(train_corpus, DESK, hyper)
                path = Path(tmp) / f"{method}.osep"
                network.save_checkpoint(params, DESK, path, train_lambda=lam)
                loaded, cfg, _ = network.load_checkpoint(path)
                self.models[method] = (loaded, cfg)
        self.panel = list(enumerate(dataset.build_corpus(dataset.CorpusConfig(
            n_train=0, n_val=0, n_eval=self.eval_clips, duration_s=self.clip_s, seed=seed))))
        self.audio_per_op = self.clip_s

    def op(self, item):
        index, entry = item
        return pipeline.evaluate_entry(entry, self.models, STFT, seed=self.seed,
                                       entry_index=index)

    @staticmethod
    def same(a, b):
        return a == b

    def check(self, outputs):
        records = [r for recs in outputs for r in recs]
        checks.check_records(records, [e.id for _, e in self.panel])
        # the `orthosep separate` path on the first mixture
        mixture, _, _ = dataset.render_mixture(self.panel[0][1])
        mix_spec = stft(mixture, STFT)
        params, cfg = self.models["proposed"]
        masks, waves, v = pipeline.separate_spectrogram(params, cfg, mix_spec, seed=self.seed)
        checks.check_masks(masks)
        recon_err = checks.check_reconstruction([w.samples for w in waves], mixture.samples,
                                                STFT.fft_size)
        labels = np.argmax(np.stack([m.reshape(-1) for m in masks]), axis=0)
        gain = checks.check_hartigan(v, labels)
        # projection SDR of IBM-oracle reconstructions, against metrics.sdr
        trim = STFT.fft_size
        sdrs = []
        for _, entry in self.panel:
            mixture, target, interferer = dataset.render_mixture(entry)
            mix_spec = stft(mixture, STFT)
            sources = [stft(target, STFT), stft(interferer, STFT)]
            power = np.stack([np.abs(s.bins) ** 2 for s in sources])
            ibm = [(np.argmax(power, axis=0) == c).astype(np.float64) for c in range(2)]
            for c in range(2):
                est = istft(apply_mask(mix_spec, ibm[c])).samples[trim:-trim]
                ref = istft(sources[c]).samples[trim:-trim]
                sdrs.append(checks.check_sdr(est, ref, metrics.sdr(est, ref)))
        oracle_mean = float(np.mean(sdrs))
        if oracle_mean < 10.0:
            raise checks.CheckFailed(f"IBM-oracle mean SDR {oracle_mean:.2f} dB is below 10 dB")
        return {"reconstruction_error": recon_err, "largest_hartigan_gain": gain,
                "oracle_sdr_mean_db": oracle_mean,
                "mean_sdr_db": {m: float(np.mean([r.sdr_db for r in records if r.method == m]))
                                for m in self.models}}


WORKLOADS = {w.name: w for w in (TrainShort, EvaluateShort)}
