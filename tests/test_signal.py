import numpy as np
import pytest

from orthosep.errors import ConfigError, DataError, ShapeError
from orthosep.signal import (
    LOG_FLOOR,
    Spectrogram,
    StftConfig,
    Waveform,
    apply_mask,
    hann_periodic,
    istft,
    log_magnitude,
    stft,
)


def random_waveform(n, seed=0, rate=16000):
    rng = np.random.default_rng(seed)
    return Waveform(rng.uniform(-0.5, 0.5, n), rate)


class TestStft:
    def test_dc_signal_energy_in_dc_region(self):
        # windowed DC: all energy in the window mainlobe (bins 0 and 1),
        # bin 0 carrying the window sum
        cfg = StftConfig(fft_size=8, hop=4)
        s = stft(Waveform(np.ones(32), 16000), cfg)
        w = hann_periodic(8)
        assert np.allclose(s.bins[:, 0].real, w.sum())
        assert np.allclose(np.abs(s.bins[:, 2:]), 0.0, atol=1e-12)

    def test_sine_at_quarter_rate_peaks_at_bin_128(self):
        fs = 16000
        t = np.arange(fs) / fs
        w = Waveform(np.sin(2 * np.pi * (fs / 4) * t), fs)
        s = stft(w, StftConfig(fft_size=512, hop=256))
        mags = np.abs(s.bins)
        assert np.all(np.argmax(mags, axis=1) == 128)

    def test_frame_count(self):
        cfg = StftConfig(fft_size=8, hop=4)
        s = stft(Waveform(np.ones(35), 16000), cfg)
        assert s.num_frames == (35 - 8) // 4 + 1
        assert s.num_bins == 5

    def test_too_short_input(self):
        with pytest.raises(DataError, match="input too short"):
            stft(Waveform(np.ones(100), 16000), StftConfig(fft_size=512, hop=256))

    def test_parseval_per_frame(self):
        cfg = StftConfig(fft_size=64, hop=32)
        w = random_waveform(1000, seed=3)
        s = stft(w, cfg)
        window = hann_periodic(64)
        for t in range(s.num_frames):
            frame = w.samples[t * 32 : t * 32 + 64] * window
            time_energy = np.sum(frame**2)
            mags = np.abs(s.bins[t]) ** 2
            spec_energy = (mags[0] + mags[-1] + 2 * np.sum(mags[1:-1])) / 64
            assert spec_energy == pytest.approx(time_energy, rel=1e-6)


class TestIstft:
    def test_round_trip_interior(self):
        cfg = StftConfig()
        w = random_waveform(16000, seed=1)
        r = istft(stft(w, cfg))
        n = cfg.fft_size
        rms = np.sqrt(np.mean((r.samples[n:-n] - w.samples[n : len(r.samples) - n]) ** 2))
        assert rms < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_small_config(self, seed):
        cfg = StftConfig(fft_size=32, hop=16)
        w = random_waveform(600, seed=seed)
        r = istft(stft(w, cfg))
        rms = np.sqrt(np.mean((r.samples[32:-32] - w.samples[32 : len(r.samples) - 32]) ** 2))
        assert rms < 1e-6

    def test_zero_spectrogram(self):
        cfg = StftConfig(fft_size=8, hop=4)
        s = Spectrogram(np.zeros((5, 5), dtype=complex), cfg)
        assert np.all(istft(s).samples == 0.0)

    def test_single_frame_hand_case(self):
        # one frame: OLA divides the windowed frame by the squared window,
        # recovering the frame except where the window is zero
        cfg = StftConfig(fft_size=8, hop=4)
        rng = np.random.default_rng(9)
        frame = rng.uniform(-1, 1, 8)
        window = hann_periodic(8)
        s = Spectrogram(np.fft.rfft(frame * window)[None, :], cfg)
        out = istft(s)
        assert np.allclose(out.samples[1:], frame[1:], atol=1e-12)
        assert out.samples[0] == 0.0  # periodic hann is 0 at sample 0


class TestLogMagnitude:
    def test_inverse_of_ln(self):
        cfg = StftConfig(fft_size=8, hop=4)
        s = Spectrogram(np.full((2, 5), np.e - LOG_FLOOR, dtype=complex), cfg)
        assert np.allclose(log_magnitude(s), 1.0)

    def test_zero_spectrogram_floor(self):
        cfg = StftConfig(fft_size=8, hop=4)
        s = Spectrogram(np.zeros((3, 5), dtype=complex), cfg)
        assert np.allclose(log_magnitude(s), np.log(1e-7))

    def test_matches_scalar_loop(self):
        cfg = StftConfig(fft_size=8, hop=4)
        rng = np.random.default_rng(4)
        bins = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        s = Spectrogram(bins, cfg)
        got = log_magnitude(s)
        for t in range(6):
            for f in range(5):
                assert got[t, f] == pytest.approx(np.log(abs(bins[t, f]) + 1e-7))


class TestApplyMask:
    def _spec(self, seed=0, shape=(4, 5)):
        rng = np.random.default_rng(seed)
        bins = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return Spectrogram(bins, StftConfig(fft_size=8, hop=4))

    def test_ones_mask_identity(self):
        s = self._spec()
        assert np.array_equal(apply_mask(s, np.ones((4, 5))).bins, s.bins)

    def test_zeros_mask(self):
        s = self._spec()
        assert np.all(apply_mask(s, np.zeros((4, 5))).bins == 0.0)

    def test_checkerboard(self):
        s = self._spec(seed=2)
        mask = np.indices((4, 5)).sum(axis=0) % 2
        out = apply_mask(s, mask)
        assert np.all(out.bins[mask == 0] == 0.0)
        assert np.array_equal(out.bins[mask == 1], s.bins[mask == 1])

    def test_disjoint_masks_sum(self):
        s = self._spec(seed=5)
        mask = (np.indices((4, 5)).sum(axis=0) % 2).astype(float)
        a = apply_mask(s, mask)
        b = apply_mask(s, 1.0 - mask)
        assert np.allclose(a.bins + b.bins, s.bins)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            apply_mask(self._spec(), np.ones((3, 5)))


class TestValidation:
    def test_bad_stft_config(self):
        with pytest.raises(ConfigError):
            StftConfig(fft_size=500, hop=256)
        with pytest.raises(ConfigError):
            StftConfig(fft_size=512, hop=0)

    def test_nonfinite_waveform_rejected(self):
        with pytest.raises(DataError):
            Waveform(np.array([0.0, np.nan]), 16000)

    def test_bad_sample_rate(self):
        with pytest.raises(ConfigError):
            Waveform(np.zeros(4), 0)
