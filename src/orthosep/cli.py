"""Command-line surface: synth, train, separate, evaluate, export-cov.

A JSON config file (--config) supplies defaults; explicit flags override
it. Every command echoes its effective configuration into the output
directory for provenance.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import embedding, metrics, pipeline
from .dataset import CorpusConfig, build_corpus, read_manifest, render_mixture, write_manifest
from .errors import ConfigError, DataError, IoError, OrthosepError
from .network import (
    NetworkConfig,
    TrainingConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    write_training_log,
)
from .signal import StftConfig, stft
from .wavio import read_wav, write_wav

EXIT_CODES = {
    "config": 2,
    "data": 3,
    "shape": 3,
    "audio-format": 3,
    "io": 4,
    "checkpoint": 5,
    "divergence": 6,
    "internal": 1,
}


def _load_config_file(path):
    if path is None:
        return {}
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as e:
        raise IoError(f"cannot read config file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON in config file {path}: {e}") from e
    if not isinstance(cfg, dict) or not all(isinstance(v, dict) for v in cfg.values()):
        raise ConfigError(f"config file {path} must be a JSON object of sections, "
                          f"each an object of settings")
    return cfg


def _resolve(args, file_cfg, section, key, default):
    """Flag value if given, else config-file value, else default. A file
    value must be a finite JSON number, and an integral one where default
    is an int; it is returned as the type of default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    kind = type(default)
    value = file_cfg.get(section, {}).get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (kind is int and isinstance(value, float) and not value.is_integer())
            or (kind is float and not abs(value) <= sys.float_info.max)):
        expected = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"config file setting {section}.{key} must be {expected}, "
                          f"got {json.dumps(value)}")
    return kind(value)


def _make_outdir(path):
    outdir = Path(path)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _echo_config(outdir, effective):
    with open(Path(outdir) / "effective-config.json", "w") as f:
        json.dump(effective, f, indent=2, sort_keys=True)


def _load_checkpoint(path, stft_cfg):
    """(params, net_cfg, meta) of a checkpoint whose input width matches
    the frequency bins of the STFT settings in effect."""
    params, net_cfg, meta = load_checkpoint(path)
    if net_cfg.input_dim != stft_cfg.num_bins:
        raise ConfigError(
            f"checkpoint {path} expects {net_cfg.input_dim} frequency bins, "
            f"--fft-size {stft_cfg.fft_size} gives {stft_cfg.num_bins}"
        )
    return params, net_cfg, meta


def _stft_config(args, file_cfg):
    return StftConfig(
        fft_size=_resolve(args, file_cfg, "stft", "fft_size", 512),
        hop=_resolve(args, file_cfg, "stft", "hop", 256),
    )


def cmd_synth(args, file_cfg):
    cfg = CorpusConfig(
        n_train=_resolve(args, file_cfg, "corpus", "n_train", 100),
        n_val=_resolve(args, file_cfg, "corpus", "n_val", 20),
        n_eval=_resolve(args, file_cfg, "corpus", "n_eval", 20),
        duration_s=_resolve(args, file_cfg, "corpus", "duration_s", 0.5),
        seed=int(args.seed),
    )
    outdir = _make_outdir(args.out)
    entries = build_corpus(cfg)
    wav_dir = outdir / "wav"
    wav_dir.mkdir(exist_ok=True)
    for entry in entries:
        mixture, target, interferer = render_mixture(entry)
        entry.mix_path = str(wav_dir / f"{entry.id}-mix.wav")
        entry.target_path = str(wav_dir / f"{entry.id}-target.wav")
        entry.interferer_path = str(wav_dir / f"{entry.id}-interferer.wav")
        write_wav(entry.mix_path, mixture)
        write_wav(entry.target_path, target)
        write_wav(entry.interferer_path, interferer)
    write_manifest(entries, outdir / "manifest.jsonl")
    _echo_config(outdir, {"command": "synth", "corpus": cfg.__dict__, "seed": args.seed})
    print(f"wrote {len(entries)} mixtures to {outdir}")
    return 0


def cmd_train(args, file_cfg):
    entries = read_manifest(args.manifest)
    stft_cfg = _stft_config(args, file_cfg)
    net_cfg = NetworkConfig(
        input_dim=stft_cfg.num_bins,
        hidden=_resolve(args, file_cfg, "network", "hidden", 32),
        num_bilstm_layers=_resolve(args, file_cfg, "network", "layers", 2),
        embedding_dim=_resolve(args, file_cfg, "network", "embedding_dim", 20),
        dropout_rate=_resolve(args, file_cfg, "network", "dropout", 0.5),
    )
    hyper = TrainingConfig(
        lam=_resolve(args, file_cfg, "training", "lam", 1.0),
        learning_rate=_resolve(args, file_cfg, "training", "lr", 1e-4),
        epochs=_resolve(args, file_cfg, "training", "epochs", 50),
        seed=int(args.seed),
        stft=stft_cfg,
    )
    outdir = _make_outdir(args.out)
    params, log = train(entries, net_cfg, hyper)
    save_checkpoint(params, net_cfg, outdir / "checkpoint.osep", train_lambda=hyper.lam)
    write_training_log(log, outdir / "training_log.csv")
    _echo_config(
        outdir,
        {
            "command": "train",
            "network": net_cfg.__dict__,
            "training": {
                "lam": hyper.lam, "lr": hyper.learning_rate,
                "epochs": hyper.epochs, "seed": hyper.seed,
            },
            "stft": {"fft_size": stft_cfg.fft_size, "hop": stft_cfg.hop},
        },
    )
    if log and log[-1].get("diverged"):
        print("training diverged; last good checkpoint retained", file=sys.stderr)
        return EXIT_CODES["divergence"]
    print(f"trained {hyper.epochs} epochs; final mean loss {log[-1]['mean_total']:.4f}")
    return 0


def cmd_separate(args, file_cfg):
    if args.sources < 2:
        raise ConfigError(f"--sources must be at least 2, got {args.sources}")
    stft_cfg = _stft_config(args, file_cfg)
    mix = read_wav(args.mix)
    if mix.power() == 0.0:
        raise DataError("zero-power source")
    mix_spec = stft(mix, stft_cfg)
    if args.oracle_ibm:
        if not args.refs or len(args.refs) < 2:
            raise ConfigError("--oracle-ibm requires at least two --refs WAVs")
        ref_specs = [stft(read_wav(p), stft_cfg) for p in args.refs]
        masks, waves = pipeline.oracle_separate(mix_spec, ref_specs)
    else:
        if args.checkpoint is None:
            raise ConfigError("either --checkpoint or --oracle-ibm is required")
        params, net_cfg, _ = _load_checkpoint(args.checkpoint, stft_cfg)
        masks, waves, _ = pipeline.separate_spectrogram(
            params, net_cfg, mix_spec, num_sources=int(args.sources),
            seed=int(args.seed),
        )
    outdir = _make_outdir(args.out)
    for c, w in enumerate(waves):
        write_wav(outdir / f"source_{c}.wav", w)
    if args.dump_masks:
        for c, m in enumerate(masks):
            np.savetxt(outdir / f"mask_{c}.csv", m, fmt="%d", delimiter=",")
    _echo_config(outdir, {"command": "separate", "mix": str(args.mix),
                          "oracle_ibm": bool(args.oracle_ibm), "seed": args.seed})
    print(f"wrote {len(waves)} separated sources to {outdir}")
    return 0


def _load_models(args, stft_cfg):
    models = {}
    params, net_cfg, meta = _load_checkpoint(args.checkpoint, stft_cfg)
    label = "dc" if meta["train_lambda"] == 0.0 else "proposed"
    if args.baseline_checkpoint:
        models[label] = (params, net_cfg)
        b_params, b_cfg, _ = _load_checkpoint(args.baseline_checkpoint, stft_cfg)
        models["dc"] = (b_params, b_cfg)
        if label == "dc":
            raise ConfigError(
                "primary checkpoint was trained with lambda 0; pass the "
                "regularized model first and the baseline second"
            )
    else:
        models[label] = (params, net_cfg)
    return models


def cmd_evaluate(args, file_cfg):
    entries = read_manifest(args.manifest)
    stft_cfg = _stft_config(args, file_cfg)
    models = _load_models(args, stft_cfg)
    records = pipeline.evaluate_manifest(entries, models, stft_cfg, seed=int(args.seed))
    report = metrics.aggregate(records)
    outdir = _make_outdir(args.out)
    metrics.records_to_csv(records, outdir / "records.csv")
    metrics.report_to_csv(report, outdir / "report.csv")
    text = metrics.report_to_text(report)
    with open(outdir / "report.txt", "w") as f:
        f.write(text)
    _echo_config(outdir, {"command": "evaluate", "manifest": str(args.manifest),
                          "methods": report.methods, "seed": args.seed})
    print(text, end="")
    return 0


def cmd_export_cov(args, file_cfg):
    entries = read_manifest(args.manifest)
    stft_cfg = _stft_config(args, file_cfg)
    params, net_cfg, _ = _load_checkpoint(args.checkpoint, stft_cfg)
    pooled = pipeline.pooled_embeddings(entries, params, net_cfg, stft_cfg)
    cov = embedding.covariance(pooled)
    ratio = embedding.off_diagonal_ratio(cov)
    outdir = _make_outdir(args.out)
    embedding.covariance_to_csv(cov, outdir / "covariance.csv")
    _echo_config(outdir, {"command": "export-cov", "checkpoint": str(args.checkpoint),
                          "seed": args.seed})
    print(f"off_diagonal_ratio: {ratio!r}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orthosep",
        description="Two-source separation with orthonormality-regularized embeddings",
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus + manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--n-train", dest="n_train", type=int)
    p.add_argument("--n-val", dest="n_val", type=int)
    p.add_argument("--n-eval", dest="n_eval", type=int)
    p.add_argument("--duration", dest="duration_s", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train an embedding network")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lambda", dest="lam", type=float,
                   help="penalty weight; 0 trains the plain baseline")
    p.add_argument("--lr", dest="lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--embedding-dim", dest="embedding_dim", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--fft-size", dest="fft_size", type=int)
    p.add_argument("--hop", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("separate", help="separate one mixture WAV")
    p.add_argument("--checkpoint")
    p.add_argument("--mix", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sources", type=int, default=2)
    p.add_argument("--oracle-ibm", action="store_true",
                   help="bypass the network and use ideal masks from --refs")
    p.add_argument("--refs", nargs="*")
    p.add_argument("--dump-masks", action="store_true")
    p.add_argument("--fft-size", dest="fft_size", type=int)
    p.add_argument("--hop", type=int)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("evaluate", help="metric tables over the eval split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--baseline-checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--fft-size", dest="fft_size", type=int)
    p.add_argument("--hop", type=int)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-cov", help="pooled embedding covariance CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fft-size", dest="fft_size", type=int)
    p.add_argument("--hop", type=int)
    p.set_defaults(func=cmd_export_cov)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_cfg = _load_config_file(args.config)
        return args.func(args, file_cfg)
    except OrthosepError as e:
        print(f"error [{e.category}]: {e}", file=sys.stderr)
        return EXIT_CODES.get(e.category, 1)
    except OSError as e:  # a failed write or directory creation
        print(f"error [io]: {e}", file=sys.stderr)
        return EXIT_CODES["io"]


if __name__ == "__main__":
    sys.exit(main())
