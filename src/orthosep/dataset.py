"""Synthetic two-source corpus: source families, SIR-controlled mixing,
ideal-binary-mask targets and deterministic train/val/eval manifests.

Two synthetic source families stand in for speaker classes: harmonic
complexes with disjoint fundamental ranges plus a weak band-limited noise
floor. "Same-family" mixtures therefore genuinely overlap spectrally,
"mixed-family" mixtures do not.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError, IoError, ShapeError
from .signal import Waveform

SIR_GRID_DB = (3.0, 6.0, 9.0, 12.0, 15.0)
FAMILY_PAIRS = ("same", "mixed")


@dataclass(frozen=True)
class SourceFamily:
    id: str
    f0_range: tuple  # Hz, disjoint between families
    harmonic_cutoff: float  # Hz
    noise_band: tuple  # Hz
    vibrato_range: tuple  # Hz, F0 modulation rate


FAMILY_A = SourceFamily(
    id="A",
    f0_range=(90.0, 150.0),
    harmonic_cutoff=2000.0,
    noise_band=(80.0, 400.0),
    vibrato_range=(4.0, 6.0),
)
FAMILY_B = SourceFamily(
    id="B",
    f0_range=(500.0, 850.0),
    harmonic_cutoff=6000.0,
    noise_band=(2000.0, 4000.0),
    vibrato_range=(5.0, 8.0),
)

_FAMILIES = {"A": FAMILY_A, "B": FAMILY_B}


def get_family(family_id: str) -> SourceFamily:
    try:
        return _FAMILIES[family_id]
    except KeyError:
        raise ConfigError(f"unknown source family {family_id!r}") from None


def _syllable_envelope(n, sample_rate, rng, segment_s=0.08):
    """Random per-segment gains with smooth 10 ms transitions; squares the
    draws so some segments are near-silent, like pauses between syllables."""
    seg = max(1, int(segment_s * sample_rate))
    num_segments = -(-n // seg)
    gains = rng.uniform(0.0, 1.0, size=num_segments) ** 2 + 0.02
    env = np.repeat(gains, seg)[:n]
    ramp = int(0.010 * sample_rate)
    # smooth only where the ramp fits: np.convolve(mode="same") returns
    # max(n, ramp) samples
    if 1 < ramp <= n:
        kernel = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(ramp) / ramp)
        kernel /= kernel.sum()
        env = np.convolve(env, kernel, mode="same")
    return env


def synth_source(
    family: SourceFamily, duration_s: float, seed: int, sample_rate: int = 16000
) -> Waveform:
    """Deterministic synthetic source: a vibrato harmonic complex in the
    family's band, gated by a syllable-like random envelope, plus a quiet
    band-limited noise floor. The gating and vibrato give the sparse
    time-frequency structure binary masking relies on.

    Identical (family, seed, duration) always yields bit-identical audio.
    """
    if not 0 < duration_s < np.inf or round(duration_s * sample_rate) < 1:
        raise ConfigError(
            f"duration must be finite and at least one sample long, got {duration_s}")
    rng = np.random.default_rng([seed, ord(family.id)])
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate

    f0 = rng.uniform(*family.f0_range)
    vib_rate = rng.uniform(*family.vibrato_range)
    vib_phase = rng.uniform(0.0, 2.0 * np.pi)
    f0_track = f0 * (1.0 + 0.04 * np.sin(2.0 * np.pi * vib_rate * t + vib_phase))
    base_phase = 2.0 * np.pi * np.cumsum(f0_track) / sample_rate
    num_harmonics = max(1, int(family.harmonic_cutoff // f0))
    x = np.zeros(n)
    for h in range(1, num_harmonics + 1):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x += (1.0 / h**2) * np.sin(h * base_phase + phase)

    x *= _syllable_envelope(n, sample_rate, rng)

    # band-limited noise floor ~25 dB below the harmonic part
    noise = rng.standard_normal(n)
    spec = np.fft.rfft(noise)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    spec[(freqs < family.noise_band[0]) | (freqs > family.noise_band[1])] = 0.0
    noise = np.fft.irfft(spec, n=n)
    noise_rms = np.sqrt(np.mean(noise**2))
    if noise_rms > 0:
        x += noise / noise_rms * np.sqrt(np.mean(x**2)) * 10 ** (-25 / 20)

    x *= 0.1 / np.sqrt(np.mean(x**2))
    return Waveform(samples=x, sample_rate=sample_rate)


def mix_at_sir(target: Waveform, interferer: Waveform, sir_db: float):
    """Scale the interferer so the target/interferer power ratio is sir_db,
    then sum. Returns (mixture, interferer_scale)."""
    if len(target) != len(interferer):
        raise ShapeError(
            f"length mismatch: target {len(target)} vs interferer {len(interferer)}"
        )
    if target.sample_rate != interferer.sample_rate:
        raise DataError("sample-rate mismatch between target and interferer")
    if not np.isfinite(sir_db):
        raise ConfigError(f"sir_db must be finite, got {sir_db}")
    p_t, p_i = target.power(), interferer.power()
    if p_t == 0.0 or p_i == 0.0:
        raise DataError("zero-power source")
    scale = float(np.sqrt(p_t / (p_i * 10.0 ** (sir_db / 10.0))))
    mixture = Waveform(
        samples=target.samples + scale * interferer.samples,
        sample_rate=target.sample_rate,
    )
    return mixture, scale


def compute_ibm(sources) -> np.ndarray:
    """Ideal-binary-mask label indicator: (N, C) one-hot array with a 1 in
    the column of the power-dominant source per time-frequency bin.

    Ties break to the lowest source index. Rows flatten (T, F) row-major.
    """
    if len(sources) < 2:
        raise DataError(f"need at least 2 sources, got {len(sources)}")
    shape = sources[0].bins.shape
    for s in sources[1:]:
        if s.bins.shape != shape:
            raise ShapeError(f"spectrogram shape mismatch: {s.bins.shape} vs {shape}")
    power = np.stack([np.abs(s.bins) ** 2 for s in sources], axis=-1)  # (T, F, C)
    dominant = np.argmax(power, axis=-1).reshape(-1)
    y = np.zeros((dominant.size, len(sources)))
    y[np.arange(dominant.size), dominant] = 1.0
    return y


def indicator_to_masks(y: np.ndarray, num_frames: int, num_bins: int):
    """Per-source binary (T, F) masks from an (N, C) label indicator."""
    y = np.asarray(y)
    if y.shape[0] != num_frames * num_bins:
        raise ShapeError(f"{y.shape[0]} rows != {num_frames} * {num_bins} bins")
    return [y[:, c].reshape(num_frames, num_bins) for c in range(y.shape[1])]


@dataclass
class ManifestEntry:
    id: str
    split: str  # train | val | eval
    sir_db: float
    family_pair: str  # same | mixed
    target_family: str
    interferer_family: str
    target_seed: int
    interferer_seed: int
    duration_s: float
    sample_rate: int
    mix_path: str | None = None
    target_path: str | None = None
    interferer_path: str | None = None


@dataclass(frozen=True)
class CorpusConfig:
    n_train: int = 100
    n_val: int = 20
    n_eval: int = 20
    duration_s: float = 0.5
    sample_rate: int = 16000
    sir_grid: tuple = SIR_GRID_DB
    seed: int = 0


def build_corpus(cfg: CorpusConfig):
    """Deterministic manifest of mixture specs, every split stratified
    evenly over the SIR grid x family pairings."""
    strata = [(sir, pair) for sir in cfg.sir_grid for pair in FAMILY_PAIRS]
    entries = []
    for split, count in (("train", cfg.n_train), ("val", cfg.n_val), ("eval", cfg.n_eval)):
        if count % len(strata) != 0:
            raise ConfigError(
                f"{split} count {count} not divisible by {len(strata)} strata "
                f"(remainder {count % len(strata)})"
            )
        per_cell = count // len(strata)
        idx = 0
        for sir, pair in strata:
            for j in range(per_cell):
                rng = np.random.default_rng([cfg.seed, _split_code(split), idx])
                if pair == "same":
                    fam = "A" if rng.integers(2) == 0 else "B"
                    fams = (fam, fam)
                else:
                    fams = ("A", "B") if rng.integers(2) == 0 else ("B", "A")
                seeds = rng.integers(0, 2**31 - 1, size=2)
                entries.append(
                    ManifestEntry(
                        id=f"{split}-{idx:04d}",
                        split=split,
                        sir_db=float(sir),
                        family_pair=pair,
                        target_family=fams[0],
                        interferer_family=fams[1],
                        target_seed=int(seeds[0]),
                        interferer_seed=int(seeds[1]),
                        duration_s=cfg.duration_s,
                        sample_rate=cfg.sample_rate,
                    )
                )
                idx += 1
    return entries


def _split_code(split):
    return {"train": 1, "val": 2, "eval": 3}[split]


def render_sources(entry: ManifestEntry):
    """(target, interferer) waveforms for a manifest entry, either loaded
    from the recorded WAV paths or regenerated from the stored seeds."""
    if entry.target_path and entry.interferer_path:
        from .wavio import read_wav

        return read_wav(entry.target_path), read_wav(entry.interferer_path)
    target = synth_source(
        get_family(entry.target_family), entry.duration_s, entry.target_seed,
        entry.sample_rate,
    )
    interferer = synth_source(
        get_family(entry.interferer_family), entry.duration_s, entry.interferer_seed,
        entry.sample_rate,
    )
    return target, interferer


def render_mixture(entry: ManifestEntry):
    """(mixture, target, scaled_interferer) for a manifest entry."""
    target, interferer = render_sources(entry)
    mixture, scale = mix_at_sir(target, interferer, entry.sir_db)
    scaled = Waveform(
        samples=scale * interferer.samples, sample_rate=interferer.sample_rate
    )
    return mixture, target, scaled


def write_manifest(entries, path) -> None:
    with open(path, "w") as f:
        for e in entries:
            f.write(json.dumps(asdict(e), sort_keys=True) + "\n")


def read_manifest(path):
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as e:
        raise IoError(f"cannot read manifest {path}: {e}") from e
    entries = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if line:
            try:
                entries.append(ManifestEntry(**json.loads(line)))
            except (json.JSONDecodeError, TypeError) as e:
                raise DataError(f"{path}:{number}: not a manifest entry: {e}") from e
    return entries
