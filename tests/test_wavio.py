import wave

import numpy as np
import pytest

from orthosep.errors import AudioFormatError
from orthosep.signal import Waveform
from orthosep.wavio import read_wav, write_wav


def test_round_trip_within_quantization(tmp_path):
    rng = np.random.default_rng(0)
    w = Waveform(rng.uniform(-0.9, 0.9, 1000), 16000)
    path = tmp_path / "x.wav"
    write_wav(path, w)
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert len(back) == 1000
    assert np.max(np.abs(back.samples - w.samples)) <= 1.0 / 32768


def test_rejects_wrong_rate(tmp_path):
    path = tmp_path / "x.wav"
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(44100)
        f.writeframes(b"\x00\x00" * 10)
    with pytest.raises(AudioFormatError, match="44100"):
        read_wav(path)


def test_rejects_stereo(tmp_path):
    path = tmp_path / "x.wav"
    with wave.open(str(path), "wb") as f:
        f.setnchannels(2)
        f.setsampwidth(2)
        f.setframerate(16000)
        f.writeframes(b"\x00\x00\x00\x00" * 10)
    with pytest.raises(AudioFormatError, match="mono"):
        read_wav(path)


def test_rejects_8bit(tmp_path):
    path = tmp_path / "x.wav"
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(1)
        f.setframerate(16000)
        f.writeframes(b"\x00" * 10)
    with pytest.raises(AudioFormatError, match="16-bit"):
        read_wav(path)


def test_rejects_data_cut_inside_a_sample(tmp_path):
    path = tmp_path / "x.wav"
    write_wav(path, Waveform(np.zeros(10), 16000))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(AudioFormatError, match="inside a sample"):
        read_wav(path)


def test_write_refuses_other_rate(tmp_path):
    with pytest.raises(AudioFormatError):
        write_wav(tmp_path / "x.wav", Waveform(np.zeros(10), 8000))


def test_write_clips(tmp_path):
    path = tmp_path / "x.wav"
    write_wav(path, Waveform(np.array([2.0, -2.0]), 16000))
    back = read_wav(path)
    assert back.samples[0] == pytest.approx(32767 / 32768)
    assert back.samples[1] == pytest.approx(-1.0)
