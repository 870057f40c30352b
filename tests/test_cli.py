import json

import numpy as np
import pytest

from orthosep.cli import main
from orthosep.dataset import read_manifest
from orthosep.network import load_checkpoint, save_checkpoint
from orthosep.signal import StftConfig, Waveform, apply_mask, stft
from orthosep.wavio import read_wav, write_wav


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = run(
        "--seed", 3, "synth", "--out", out,
        "--n-train", 10, "--n-val", 10, "--n-eval", 10, "--duration", 0.25,
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("model")
    code = run(
        "--seed", 0, "train", "--manifest", corpus / "manifest.jsonl", "--out", out,
        "--hidden", 6, "--embedding-dim", 3, "--epochs", 2,
        "--fft-size", 256, "--hop", 128, "--lambda", 1.0, "--lr", 1e-3,
    )
    assert code == 0
    return out


class TestSynth:
    def test_outputs_exist(self, corpus):
        entries = read_manifest(corpus / "manifest.jsonl")
        assert len(entries) == 30
        for e in entries[:3]:
            assert read_wav(e.mix_path).sample_rate == 16000
        assert (corpus / "effective-config.json").exists()

    def test_idempotent(self, corpus, tmp_path):
        code = run(
            "--seed", 3, "synth", "--out", tmp_path,
            "--n-train", 10, "--n-val", 10, "--n-eval", 10, "--duration", 0.25,
        )
        assert code == 0
        a = (corpus / "manifest.jsonl").read_text()
        b = (tmp_path / "manifest.jsonl").read_text()
        # identical apart from the output directory prefix in paths
        assert a.replace(str(corpus), str(tmp_path)) == b

    def test_indivisible_counts_exit_config(self, tmp_path):
        code = run("synth", "--out", tmp_path, "--n-train", 7)
        assert code == 2


class TestTrain:
    def test_artifacts(self, trained):
        assert (trained / "checkpoint.osep").exists()
        log = (trained / "training_log.csv").read_text().splitlines()
        assert log[0] == "epoch,mean_dc,mean_penalty,mean_total"
        assert len(log) == 3

    def test_lambda_zero_excludes_penalty_from_total(self, corpus, tmp_path):
        code = run(
            "--seed", 0, "train", "--manifest", corpus / "manifest.jsonl",
            "--out", tmp_path, "--hidden", 4, "--embedding-dim", 2, "--epochs", 1,
            "--fft-size", 256, "--hop", 128, "--lambda", 0.0,
        )
        assert code == 0
        header, row = (tmp_path / "training_log.csv").read_text().splitlines()
        _, dc, pen, total = row.split(",")
        assert float(pen) > 0.0  # still reported
        assert float(total) == pytest.approx(float(dc))

    def test_same_seed_identical_checkpoint(self, corpus, trained, tmp_path):
        code = run(
            "--seed", 0, "train", "--manifest", corpus / "manifest.jsonl",
            "--out", tmp_path, "--hidden", 6, "--embedding-dim", 3, "--epochs", 2,
            "--fft-size", 256, "--hop", 128, "--lambda", 1.0, "--lr", 1e-3,
        )
        assert code == 0
        assert (tmp_path / "checkpoint.osep").read_bytes() == (
            trained / "checkpoint.osep"
        ).read_bytes()


class TestSeparate:
    def test_oracle_ibm_outputs_sum_to_mixture(self, corpus, tmp_path):
        entries = read_manifest(corpus / "manifest.jsonl")
        e = entries[0]
        code = run(
            "separate", "--mix", e.mix_path, "--out", tmp_path,
            "--oracle-ibm", "--refs", e.target_path, e.interferer_path,
            "--dump-masks", "--fft-size", 256, "--hop", 128,
        )
        assert code == 0
        mask0 = np.loadtxt(tmp_path / "mask_0.csv", delimiter=",")
        mask1 = np.loadtxt(tmp_path / "mask_1.csv", delimiter=",")
        assert np.array_equal(mask0 + mask1, np.ones_like(mask0))
        cfg = StftConfig(fft_size=256, hop=128)
        mix_spec = stft(read_wav(e.mix_path), cfg)
        s0 = stft(read_wav(tmp_path / "source_0.wav"), cfg)
        s1 = stft(read_wav(tmp_path / "source_1.wav"), cfg)
        total = apply_mask(mix_spec, np.ones_like(mask0))
        # separated streams partition the mixture's bins (16-bit quantization)
        assert np.abs((s0.bins + s1.bins) - total.bins).max() < 0.5

    def test_network_separation_runs(self, corpus, trained, tmp_path):
        e = read_manifest(corpus / "manifest.jsonl")[0]
        code = run(
            "separate", "--checkpoint", trained / "checkpoint.osep",
            "--mix", e.mix_path, "--out", tmp_path,
            "--fft-size", 256, "--hop", 128,
        )
        assert code == 0
        assert (tmp_path / "source_0.wav").exists()
        assert (tmp_path / "source_1.wav").exists()

    def test_zero_signal_rejected(self, tmp_path):
        silent = tmp_path / "silent.wav"
        write_wav(silent, Waveform(np.zeros(8000), 16000))
        code = run("separate", "--mix", silent, "--out", tmp_path / "out",
                   "--oracle-ibm", "--refs", silent, silent)
        assert code == 3

    def test_incompatible_checkpoint_dims(self, corpus, trained, tmp_path):
        e = read_manifest(corpus / "manifest.jsonl")[0]
        code = run(
            "separate", "--checkpoint", trained / "checkpoint.osep",
            "--mix", e.mix_path, "--out", tmp_path,
            "--fft-size", 512, "--hop", 256,
        )
        assert code == 2


class TestEvaluate:
    def test_reports_written(self, corpus, trained, tmp_path):
        code = run(
            "--seed", 1, "evaluate", "--manifest", corpus / "manifest.jsonl",
            "--checkpoint", trained / "checkpoint.osep", "--out", tmp_path,
            "--fft-size", 256, "--hop", 128,
        )
        assert code == 0
        assert (tmp_path / "records.csv").exists()
        assert (tmp_path / "report.csv").exists()
        assert "SDR (dB) vs SIR" in (tmp_path / "report.txt").read_text()

    def test_two_checkpoints_mask_quality(self, corpus, trained, tmp_path):
        baseline = tmp_path / "baseline"
        code = run(
            "--seed", 0, "train", "--manifest", corpus / "manifest.jsonl",
            "--out", baseline, "--hidden", 6, "--embedding-dim", 3, "--epochs", 1,
            "--fft-size", 256, "--hop", 128, "--lambda", 0.0,
        )
        assert code == 0
        out = tmp_path / "eval"
        code = run(
            "--seed", 1, "evaluate", "--manifest", corpus / "manifest.jsonl",
            "--checkpoint", trained / "checkpoint.osep",
            "--baseline-checkpoint", baseline / "checkpoint.osep", "--out", out,
            "--fft-size", 256, "--hop", 128,
        )
        assert code == 0
        assert "Mask quality" in (out / "report.txt").read_text()


class TestExportCov:
    def test_covariance_csv(self, corpus, trained, tmp_path, capsys):
        code = run(
            "export-cov", "--checkpoint", trained / "checkpoint.osep",
            "--manifest", corpus / "manifest.jsonl", "--out", tmp_path,
            "--fft-size", 256, "--hop", 128,
        )
        assert code == 0
        cov = np.loadtxt(tmp_path / "covariance.csv", delimiter=",")
        assert cov.shape == (3, 3)
        assert "off_diagonal_ratio" in capsys.readouterr().out


class TestErrors:
    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run("--config", bad, "synth", "--out", tmp_path / "o")
        assert code == 2

    def test_missing_checkpoint(self, tmp_path, corpus):
        e = read_manifest(corpus / "manifest.jsonl")[0]
        code = run("separate", "--checkpoint", tmp_path / "nope.osep",
                   "--mix", e.mix_path, "--out", tmp_path)
        assert code == 4

    def test_missing_mix(self, tmp_path):
        code = run("separate", "--mix", tmp_path / "nope.wav", "--out", tmp_path / "o",
                   "--oracle-ibm", "--refs", tmp_path / "a.wav", tmp_path / "b.wav")
        assert code == 4

    @pytest.mark.parametrize("content", [b"not a wav", b""])
    def test_non_wav_input(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(content)
        code = run("separate", "--mix", bad, "--out", tmp_path / "o",
                   "--oracle-ibm", "--refs", bad, bad)
        assert code == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_non_finite_embeddings(self, corpus, trained, tmp_path, capsys):
        params, cfg, _ = load_checkpoint(trained / "checkpoint.osep")
        params.flat[:] = np.nan
        bad = tmp_path / "nan.osep"
        save_checkpoint(params, cfg, bad)
        e = read_manifest(corpus / "manifest.jsonl")[0]
        code = run("separate", "--checkpoint", bad, "--mix", e.mix_path,
                   "--out", tmp_path / "o", "--fft-size", 256, "--hop", 128)
        assert code == 3
        assert "NaN or infinite" in capsys.readouterr().err

    def test_missing_manifest(self, tmp_path):
        code = run("train", "--manifest", tmp_path / "nope.jsonl", "--out", tmp_path / "o")
        assert code == 4
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", ['{"id": "x",', '{"id": "x", "colour": "red"}', "[1, 2]"])
    def test_malformed_manifest(self, tmp_path, line):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(line + "\n")
        code = run("train", "--manifest", manifest, "--out", tmp_path / "o")
        assert code == 3

    @pytest.mark.parametrize("flag,value", [("--epochs", 0), ("--lr", -1e-3), ("--lr", "nan"),
                                            ("--lambda", "nan"), ("--lambda", "inf")])
    def test_bad_training_hyperparameters(self, corpus, tmp_path, flag, value):
        out = tmp_path / "o"
        code = run("train", "--manifest", corpus / "manifest.jsonl", "--out", out,
                   "--hidden", 4, "--embedding-dim", 2, "--fft-size", 256, "--hop", 128,
                   flag, value)
        assert code == 2
        assert not out.exists()

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus": {"n_train": 10, "n_val": 10,
                                              "n_eval": 10, "duration_s": 0.25}}))
        code = run("--config", cfg, "--seed", 3, "synth", "--out", tmp_path / "o")
        assert code == 0
        assert len(read_manifest(tmp_path / "o" / "manifest.jsonl")) == 30

    @pytest.mark.parametrize("content", ["[1, 2]", '{"corpus": 5}'])
    def test_config_not_an_object_of_sections(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code = run("--config", cfg, "synth", "--out", tmp_path / "o")
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "export-cov"])
    def test_no_eval_entries(self, corpus, trained, tmp_path, capsys, command):
        lines = (corpus / "manifest.jsonl").read_text().splitlines()
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(line + "\n" for line in lines
                                    if json.loads(line)["split"] != "eval"))
        code = run(command, "--manifest", manifest, "--checkpoint", trained / "checkpoint.osep",
                   "--out", tmp_path / "o", "--fft-size", 256, "--hop", 128)
        assert code == 3
        assert "no eval entries" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["synth", "train", "separate", "evaluate"])
    def test_out_is_a_file(self, corpus, trained, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("not a directory")
        e = read_manifest(corpus / "manifest.jsonl")[0]
        manifest = corpus / "manifest.jsonl"
        checkpoint = trained / "checkpoint.osep"
        argv = {
            "synth": ["--n-train", 10, "--n-val", 0, "--n-eval", 0, "--duration", 0.25],
            "train": ["--manifest", manifest, "--hidden", 4, "--embedding-dim", 2,
                      "--epochs", 1, "--fft-size", 256, "--hop", 128],
            "separate": ["--mix", e.mix_path, "--oracle-ibm",
                         "--refs", e.target_path, e.interferer_path],
            "evaluate": ["--manifest", manifest, "--checkpoint", checkpoint,
                         "--fft-size", 256, "--hop", 128],
        }[command]
        code = run(command, "--out", out, *argv)
        assert code == 4
        assert "Traceback" not in capsys.readouterr().err
        assert out.read_text() == "not a directory"

    @pytest.mark.parametrize("command,taken", [("separate", "source_0.wav"),
                                               ("evaluate", "records.csv")])
    def test_output_file_is_a_directory(self, corpus, trained, tmp_path, capsys, command,
                                        taken):
        out = tmp_path / "o"
        (out / taken).mkdir(parents=True)
        e = read_manifest(corpus / "manifest.jsonl")[0]
        argv = {
            "separate": ["--mix", e.mix_path, "--oracle-ibm",
                         "--refs", e.target_path, e.interferer_path],
            "evaluate": ["--manifest", corpus / "manifest.jsonl",
                         "--checkpoint", trained / "checkpoint.osep",
                         "--fft-size", 256, "--hop", 128],
        }[command]
        code = run(command, "--out", out, *argv)
        assert code == 4
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("duration,expected", [(0.001, 0), ("nan", 2), ("inf", 2)])
    def test_synth_duration_extremes(self, tmp_path, capsys, duration, expected):
        code = run("synth", "--out", tmp_path / "o", "--n-train", 10, "--n-val", 0,
                   "--n-eval", 0, "--duration", duration)
        assert code == expected
        assert "Traceback" not in capsys.readouterr().err

    def test_fewer_than_two_sources(self, corpus, trained, tmp_path, capsys):
        e = read_manifest(corpus / "manifest.jsonl")[0]
        code = run("separate", "--checkpoint", trained / "checkpoint.osep", "--mix", e.mix_path,
                   "--out", tmp_path / "o", "--sources", 1, "--fft-size", 256, "--hop", 128)
        assert code == 2
        assert "--sources" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
