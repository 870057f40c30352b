"""WAV file IO, restricted to mono 16-bit PCM at 16 kHz."""

from __future__ import annotations

import wave

import numpy as np

from .errors import AudioFormatError, IoError
from .signal import Waveform

REQUIRED_RATE = 16000
_SCALE = 32768.0


def read_wav(path, expected_rate: int = REQUIRED_RATE) -> Waveform:
    try:
        f = wave.open(str(path), "rb")
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
    except (wave.Error, EOFError) as e:  # EOFError: an empty or truncated header
        reason = str(e) or "truncated header"
        raise AudioFormatError(f"{path}: not a readable WAV file: {reason}") from e
    with f:
        channels = f.getnchannels()
        width = f.getsampwidth()
        rate = f.getframerate()
        raw = f.readframes(f.getnframes())
    if channels != 1:
        raise AudioFormatError(f"{path}: expected mono, got {channels} channels")
    if width != 2:
        raise AudioFormatError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
    if len(raw) % width:
        raise AudioFormatError(f"{path}: sample data ends inside a sample")
    if rate != expected_rate:
        raise AudioFormatError(f"{path}: expected {expected_rate} Hz, got {rate} Hz")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / _SCALE
    return Waveform(samples=samples, sample_rate=rate)


def write_wav(path, w: Waveform) -> None:
    if w.sample_rate != REQUIRED_RATE:
        raise AudioFormatError(
            f"{path}: refusing to write {w.sample_rate} Hz (only {REQUIRED_RATE} supported)"
        )
    clipped = np.clip(w.samples, -1.0, 32767.0 / _SCALE)
    pcm = np.round(clipped * _SCALE).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(w.sample_rate)
        f.writeframes(pcm.tobytes())
