"""STFT analysis/synthesis and spectral feature extraction.

Conventions used throughout the package:

* spectrograms are (T, F) complex arrays, F = fft_size // 2 + 1 one-sided bins
* time-frequency bins flatten row-major, i.e. row index = t * F + f
* synthesis is least-squares overlap-add with window-sum normalization
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError

# Added to |X| before the log, so that silent bins give a finite feature.
LOG_FLOOR = 1e-7


@dataclass(frozen=True)
class StftConfig:
    fft_size: int = 512
    hop: int = 256

    def __post_init__(self):
        if self.fft_size <= 0 or (self.fft_size & (self.fft_size - 1)) != 0:
            raise ConfigError(f"fft_size must be a power of two, got {self.fft_size}")
        if not 0 < self.hop <= self.fft_size:
            raise ConfigError(f"hop must be in (0, fft_size], got {self.hop}")

    @property
    def num_bins(self):
        return self.fft_size // 2 + 1


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ShapeError(f"waveform must be 1-d, got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("waveform contains non-finite samples")

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self):
        return len(self.samples) / self.sample_rate

    def power(self):
        """Mean squared amplitude."""
        return float(np.mean(self.samples**2))


@dataclass
class Spectrogram:
    bins: np.ndarray  # (T, F) complex
    config: StftConfig
    sample_rate: int = 16000

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=np.complex128)
        if self.bins.ndim != 2:
            raise ShapeError(f"spectrogram must be 2-d, got shape {self.bins.shape}")
        if self.bins.shape[1] != self.config.num_bins:
            raise ShapeError(
                f"expected {self.config.num_bins} frequency bins, got {self.bins.shape[1]}"
            )
        if not np.all(np.isfinite(self.bins)):
            raise DataError("spectrogram contains non-finite bins")

    @property
    def num_frames(self):
        return self.bins.shape[0]

    @property
    def num_bins(self):
        return self.bins.shape[1]


def hann_periodic(n):
    """Periodic Hann window (COLA-compliant at 50% overlap)."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft(w: Waveform, cfg: StftConfig = StftConfig()) -> Spectrogram:
    """Short-time Fourier transform.

    Frames are hop-spaced with no centering pad; trailing samples that do
    not fill a full frame are dropped.
    """
    n, hop = cfg.fft_size, cfg.hop
    x = w.samples
    if len(x) < n:
        raise DataError(f"input too short: {len(x)} samples < one frame of {n}")
    num_frames = (len(x) - n) // hop + 1
    window = hann_periodic(n)
    idx = np.arange(n)[None, :] + hop * np.arange(num_frames)[:, None]
    frames = x[idx] * window[None, :]
    bins = np.fft.rfft(frames, axis=1)
    return Spectrogram(bins=bins, config=cfg, sample_rate=w.sample_rate)


def istft(s: Spectrogram) -> Waveform:
    """Inverse STFT by least-squares overlap-add.

    Each frame is inverse-transformed, weighted by the analysis window
    again and accumulated; the result is divided by the summed squared
    window, which is floored at 1e-12 where it underflows.
    """
    cfg = s.config
    n, hop = cfg.fft_size, cfg.hop
    window = hann_periodic(n)
    num_frames = s.num_frames
    length = (num_frames - 1) * hop + n
    acc = np.zeros(length)
    wsum = np.zeros(length)
    frames = np.fft.irfft(s.bins, n=n, axis=1)
    for t in range(num_frames):
        start = t * hop
        acc[start : start + n] += frames[t] * window
        wsum[start : start + n] += window**2
    return Waveform(samples=acc / np.maximum(wsum, 1e-12), sample_rate=s.sample_rate)


def log_magnitude(s: Spectrogram) -> np.ndarray:
    """Log spectral magnitude feature matrix, ln(|X| + LOG_FLOOR), shape (T, F)."""
    return np.log(np.abs(s.bins) + LOG_FLOOR)


def apply_mask(mix: Spectrogram, mask: np.ndarray) -> Spectrogram:
    """Elementwise mask application; the mixture phase is preserved."""
    mask = np.asarray(mask)
    if mask.shape != mix.bins.shape:
        raise ShapeError(f"mask shape {mask.shape} != spectrogram shape {mix.bins.shape}")
    return Spectrogram(
        bins=mix.bins * mask, config=mix.config, sample_rate=mix.sample_rate
    )
