"""Recurrent embedding network: stacked bidirectional LSTM layers, a dense
tanh output layer producing one K-dimensional embedding per time-frequency
bin, reverse-mode gradients of the combined objective, Adam updates and
the training loop.

All math is float64 numpy. Checkpoints quantize parameters to float32
(see save_checkpoint).
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field

import numpy as np

from . import embedding
from .dataset import compute_ibm, render_mixture
from .errors import CheckpointError, ConfigError, IoError, ShapeError, TrainingDiverged
from .signal import StftConfig, log_magnitude, stft


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int  # F, frequency bins per frame
    hidden: int = 32  # cells per direction
    num_bilstm_layers: int = 2
    embedding_dim: int = 20
    dropout_rate: float = 0.5

    def __post_init__(self):
        if self.input_dim <= 0 or self.hidden <= 0 or self.embedding_dim <= 0:
            raise ConfigError("input_dim, hidden and embedding_dim must be positive")
        if self.num_bilstm_layers <= 0:
            raise ConfigError("need at least one recurrent layer")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


@dataclass
class LstmParams:
    wx: np.ndarray  # (D, 4H), gate order i|f|g|o
    wh: np.ndarray  # (H, 4H)
    b: np.ndarray  # (4H,)


@dataclass
class BiLstmParams:
    fwd: LstmParams
    bwd: LstmParams


@dataclass
class ModelParameters:
    layers: list
    dense_w: np.ndarray  # (2H, F*K)
    dense_b: np.ndarray  # (F*K,)


def init_params(cfg: NetworkConfig, seed: int = 0) -> ModelParameters:
    """Uniform +-1/sqrt(fan_in) initialization, biases zero."""
    rng = np.random.default_rng(seed)

    def uniform(fan_in, shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    layers = []
    for layer in range(cfg.num_bilstm_layers):
        d = cfg.input_dim if layer == 0 else 2 * cfg.hidden
        h = cfg.hidden
        directions = []
        for _ in range(2):
            directions.append(
                LstmParams(
                    wx=uniform(d, (d, 4 * h)),
                    wh=uniform(h, (h, 4 * h)),
                    b=np.zeros(4 * h),
                )
            )
        layers.append(BiLstmParams(fwd=directions[0], bwd=directions[1]))
    out_dim = cfg.input_dim * cfg.embedding_dim
    return ModelParameters(
        layers=layers,
        dense_w=uniform(2 * cfg.hidden, (2 * cfg.hidden, out_dim)),
        dense_b=np.zeros(out_dim),
    )


def named_arrays(params: ModelParameters):
    """Flat ordered name -> array view of all parameters."""
    out = {}
    for i, layer in enumerate(params.layers):
        for direction in ("fwd", "bwd"):
            p = getattr(layer, direction)
            out[f"layer{i}.{direction}.wx"] = p.wx
            out[f"layer{i}.{direction}.wh"] = p.wh
            out[f"layer{i}.{direction}.b"] = p.b
    out["dense.w"] = params.dense_w
    out["dense.b"] = params.dense_b
    return out


def clone_params(params: ModelParameters) -> ModelParameters:
    layers = [
        BiLstmParams(
            fwd=LstmParams(l.fwd.wx.copy(), l.fwd.wh.copy(), l.fwd.b.copy()),
            bwd=LstmParams(l.bwd.wx.copy(), l.bwd.wh.copy(), l.bwd.b.copy()),
        )
        for l in params.layers
    ]
    return ModelParameters(
        layers=layers, dense_w=params.dense_w.copy(), dense_b=params.dense_b.copy()
    )


def zeros_like_params(params: ModelParameters) -> ModelParameters:
    out = clone_params(params)
    for arr in named_arrays(out).values():
        arr[...] = 0.0
    return out


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _lstm_forward(p: LstmParams, x):
    """One LSTM direction over a (T, D) sequence; returns outputs and the
    cache needed for backprop."""
    t_steps = x.shape[0]
    h_dim = p.wh.shape[0]
    zx = x @ p.wx + p.b
    i = np.empty((t_steps, h_dim))
    f = np.empty((t_steps, h_dim))
    g = np.empty((t_steps, h_dim))
    o = np.empty((t_steps, h_dim))
    c = np.empty((t_steps, h_dim))
    h = np.empty((t_steps, h_dim))
    h_prev = np.zeros(h_dim)
    c_prev = np.zeros(h_dim)
    for t in range(t_steps):
        z = zx[t] + h_prev @ p.wh
        i[t] = _sigmoid(z[:h_dim])
        f[t] = _sigmoid(z[h_dim : 2 * h_dim])
        g[t] = np.tanh(z[2 * h_dim : 3 * h_dim])
        o[t] = _sigmoid(z[3 * h_dim :])
        c[t] = f[t] * c_prev + i[t] * g[t]
        h[t] = o[t] * np.tanh(c[t])
        h_prev, c_prev = h[t], c[t]
    cache = {"x": x, "i": i, "f": f, "g": g, "o": o, "c": c, "h": h}
    return h, cache


def _lstm_backward(p: LstmParams, cache, dh_out):
    """BPTT through one LSTM direction. Returns (dx, grads)."""
    x, i, f, g, o, c = (cache[k] for k in ("x", "i", "f", "g", "o", "c"))
    h = cache["h"]
    t_steps, h_dim = i.shape
    dwx = np.zeros_like(p.wx)
    dwh = np.zeros_like(p.wh)
    db = np.zeros_like(p.b)
    dx = np.empty_like(x)
    dh_next = np.zeros(h_dim)
    dc_next = np.zeros(h_dim)
    for t in range(t_steps - 1, -1, -1):
        c_prev = c[t - 1] if t > 0 else np.zeros(h_dim)
        h_prev = h[t - 1] if t > 0 else np.zeros(h_dim)
        tanh_c = np.tanh(c[t])
        dh = dh_out[t] + dh_next
        do = dh * tanh_c
        dc = dh * o[t] * (1.0 - tanh_c**2) + dc_next
        di = dc * g[t]
        df = dc * c_prev
        dg = dc * i[t]
        dz = np.concatenate(
            [
                di * i[t] * (1.0 - i[t]),
                df * f[t] * (1.0 - f[t]),
                dg * (1.0 - g[t] ** 2),
                do * o[t] * (1.0 - o[t]),
            ]
        )
        dwx += np.outer(x[t], dz)
        dwh += np.outer(h_prev, dz)
        db += dz
        dx[t] = dz @ p.wx.T
        dh_next = dz @ p.wh.T
        dc_next = dc * f[t]
    return dx, LstmParams(wx=dwx, wh=dwh, b=db)


def _forward_cache(params, cfg, features, train_mode, rng_seed):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != cfg.input_dim:
        raise ShapeError(
            f"features shape {features.shape} incompatible with input_dim {cfg.input_dim}"
        )
    rng = np.random.default_rng(rng_seed)
    x = features
    layer_caches = []
    for layer_idx, layer in enumerate(params.layers):
        h_f, cache_f = _lstm_forward(layer.fwd, x)
        h_b_rev, cache_b = _lstm_forward(layer.bwd, x[::-1])
        out = np.concatenate([h_f, h_b_rev[::-1]], axis=1)
        drop_mask = None
        if (
            train_mode
            and cfg.dropout_rate > 0.0
            and layer_idx < len(params.layers) - 1
        ):
            keep = 1.0 - cfg.dropout_rate
            drop_mask = (rng.random(out.shape) < keep) / keep
            out = out * drop_mask
        layer_caches.append(
            {"fwd": cache_f, "bwd": cache_b, "drop_mask": drop_mask, "pre_drop": None}
        )
        x = out
    z = x @ params.dense_w + params.dense_b  # (T, F*K)
    a = np.tanh(z)
    t_frames = features.shape[0]
    v_raw = a.reshape(t_frames * cfg.input_dim, cfg.embedding_dim)
    norms = np.linalg.norm(v_raw, axis=1, keepdims=True)
    v = embedding.normalize_rows(v_raw)
    cache = {
        "features": features,
        "layers": layer_caches,
        "last_hidden": x,
        "a": a,
        "v_raw": v_raw,
        "norms": norms,
        "v": v,
    }
    return v, cache


def forward(
    params: ModelParameters,
    cfg: NetworkConfig,
    features: np.ndarray,
    train_mode: bool = False,
    rng_seed: int = 0,
) -> np.ndarray:
    """Embedding matrix for a (T, F) feature matrix: (T*F, K) with
    unit-norm rows. Dropout is applied between recurrent layers only in
    train_mode, with masks drawn deterministically from rng_seed."""
    v, _ = _forward_cache(params, cfg, features, train_mode, rng_seed)
    return v


def backward(
    params: ModelParameters,
    cfg: NetworkConfig,
    features: np.ndarray,
    y: np.ndarray,
    lam: float,
    train_mode: bool = True,
    rng_seed: int = 0,
    row_mask: np.ndarray = None,
):
    """Loss and reverse-mode parameter gradients of the combined objective
    evaluated on the forward embeddings.

    row_mask optionally restricts the objective to a boolean subset of
    time-frequency bins (excluded rows contribute no loss or gradient).
    """
    v, cache = _forward_cache(params, cfg, features, train_mode, rng_seed)
    if not np.all(np.isfinite(v)):
        raise TrainingDiverged("non-finite tensor: embeddings")

    if row_mask is not None:
        row_mask = np.asarray(row_mask, dtype=bool)
        loss = embedding.combined_loss(v[row_mask], y[row_mask], lam)
        dv = np.zeros_like(v)
        dv[row_mask] = embedding.loss_gradient(v[row_mask], y[row_mask], lam)
    else:
        loss = embedding.combined_loss(v, y, lam)
        dv = embedding.loss_gradient(v, y, lam)
    if not np.isfinite(loss.total):
        raise TrainingDiverged("non-finite tensor: loss")

    # normalization: dv_raw = (dv - v (v . dv)) / ||v_raw||, zero rows excluded
    norms = cache["norms"]
    inner = np.sum(cache["v"] * dv, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    dv_raw = (dv - cache["v"] * inner) / safe
    dv_raw[norms[:, 0] == 0.0] = 0.0

    t_frames = features.shape[0]
    da = dv_raw.reshape(t_frames, cfg.input_dim * cfg.embedding_dim)
    dz = da * (1.0 - cache["a"] ** 2)
    grads = zeros_like_params(params)
    grads.dense_w[...] = cache["last_hidden"].T @ dz
    grads.dense_b[...] = dz.sum(axis=0)
    dx = dz @ params.dense_w.T
    h = cfg.hidden
    for layer_idx in range(len(params.layers) - 1, -1, -1):
        layer_cache = cache["layers"][layer_idx]
        if layer_cache["drop_mask"] is not None:
            dx = dx * layer_cache["drop_mask"]
        dh_f = dx[:, :h]
        dh_b = dx[:, h:][::-1]
        dx_f, g_f = _lstm_backward(params.layers[layer_idx].fwd, layer_cache["fwd"], dh_f)
        dx_b, g_b = _lstm_backward(params.layers[layer_idx].bwd, layer_cache["bwd"], dh_b)
        grads.layers[layer_idx] = BiLstmParams(fwd=g_f, bwd=g_b)
        dx = dx_f + dx_b[::-1]
    return loss, grads


@dataclass
class OptimizerState:
    m: dict
    v: dict
    step: int
    learning_rate: float

    @classmethod
    def fresh(cls, params: ModelParameters, learning_rate: float = 1e-4):
        names = named_arrays(params)
        return cls(
            m={k: np.zeros_like(a) for k, a in names.items()},
            v={k: np.zeros_like(a) for k, a in names.items()},
            step=0,
            learning_rate=learning_rate,
        )


def adam_step(
    params: ModelParameters,
    grads: ModelParameters,
    state: OptimizerState,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """One bias-corrected Adam update; returns (new_params, new_state)."""
    new_params = clone_params(params)
    new_m = {}
    new_v = {}
    step = state.step + 1
    p_arrays = named_arrays(new_params)
    g_arrays = named_arrays(grads)
    for name, p in p_arrays.items():
        g = g_arrays[name]
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        v = beta2 * state.v[name] + (1.0 - beta2) * g**2
        m_hat = m / (1.0 - beta1**step)
        v_hat = v / (1.0 - beta2**step)
        p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        new_m[name] = m
        new_v[name] = v
    return new_params, OptimizerState(
        m=new_m, v=new_v, step=step, learning_rate=state.learning_rate
    )


@dataclass(frozen=True)
class TrainingConfig:
    lam: float = 1.0
    learning_rate: float = 1e-4
    epochs: int = 50
    seed: int = 0
    stft: StftConfig = field(default_factory=StftConfig)
    floor_eps: float = 1e-7
    energy_cutoff_db: float = None  # keep all bins when None

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"need at least one epoch, got {self.epochs}")
        # zero is allowed: it runs the whole loop and leaves the parameters as set
        if not 0.0 <= self.learning_rate < np.inf:
            raise ConfigError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}"
            )


def prepare_example(entry, stft_cfg: StftConfig, floor_eps: float = 1e-7,
                    energy_cutoff_db: float = None):
    """(features, label indicator, row mask) for one manifest entry."""
    mixture, target, interferer = render_mixture(entry)
    mix_spec = stft(mixture, stft_cfg)
    specs = [stft(target, stft_cfg), stft(interferer, stft_cfg)]
    features = log_magnitude(mix_spec, floor_eps)
    y = compute_ibm(specs)
    row_mask = None
    if energy_cutoff_db is not None:
        row_mask = embedding.energy_row_mask(mix_spec.magnitude(), energy_cutoff_db)
    return features, y, row_mask


def train(manifest_entries, net_cfg: NetworkConfig, hyper: TrainingConfig):
    """Per-utterance (batch size 1) Adam training over the whole corpus.

    Returns (params, log) where log is a list of per-epoch dicts with mean
    loss terms. Deterministic for a fixed seed. On a non-finite loss the
    run aborts and the last finished epoch's parameters are returned with
    the log entry flagged.
    """
    entries = [e for e in manifest_entries if e.split == "train"]
    if not entries:
        raise ConfigError("training split is empty")
    examples = [
        prepare_example(e, hyper.stft, hyper.floor_eps, hyper.energy_cutoff_db)
        for e in entries
    ]
    params = init_params(net_cfg, seed=hyper.seed)
    state = OptimizerState.fresh(params, hyper.learning_rate)
    log = []
    last_good = clone_params(params)
    for epoch in range(hyper.epochs):
        order = np.random.default_rng([hyper.seed, epoch]).permutation(len(examples))
        dc_terms, pen_terms, totals = [], [], []
        try:
            for j, idx in enumerate(order):
                features, y, row_mask = examples[idx]
                loss, grads = backward(
                    params,
                    net_cfg,
                    features,
                    y,
                    hyper.lam,
                    train_mode=True,
                    rng_seed=[hyper.seed, epoch, int(idx)],
                    row_mask=row_mask,
                )
                params, state = adam_step(params, grads, state)
                dc_terms.append(loss.dc_term)
                pen_terms.append(loss.penalty_term)
                totals.append(loss.total)
        except TrainingDiverged:
            log.append({"epoch": epoch, "mean_dc": float("nan"),
                        "mean_penalty": float("nan"), "mean_total": float("nan"),
                        "diverged": True})
            return last_good, log
        log.append(
            {
                "epoch": epoch,
                "mean_dc": float(np.mean(dc_terms)),
                "mean_penalty": float(np.mean(pen_terms)),
                "mean_total": float(np.mean(totals)),
                "diverged": False,
            }
        )
        last_good = clone_params(params)
    return params, log


def write_training_log(log, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "mean_dc", "mean_penalty", "mean_total"])
        for row in log:
            writer.writerow(
                [row["epoch"], repr(row["mean_dc"]), repr(row["mean_penalty"]),
                 repr(row["mean_total"])]
            )


_MAGIC = b"OSEP"
_VERSION = 1


def save_checkpoint(params: ModelParameters, cfg: NetworkConfig, path,
                    train_lambda: float = -1.0) -> None:
    """Versioned little-endian binary checkpoint; parameter blocks are
    stored as 32-bit floats (loading therefore returns float32-precision
    values)."""
    names = named_arrays(params)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(
            struct.pack(
                "<IIIIdd",
                cfg.input_dim,
                cfg.hidden,
                cfg.num_bilstm_layers,
                cfg.embedding_dim,
                cfg.dropout_rate,
                train_lambda,
            )
        )
        f.write(struct.pack("<I", len(names)))
        for name, arr in names.items():
            encoded = name.encode()
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                f.write(struct.pack("<I", dim))
            f.write(arr.astype("<f4").tobytes())


def load_checkpoint(path):
    """Returns (params, cfg, meta). Raises CheckpointError on bad magic,
    version, truncation or inconsistent shapes."""

    def take(f, n, what):
        data = f.read(n)
        if len(data) != n:
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        return data

    try:
        f = open(path, "rb")
    except OSError as e:
        raise IoError(f"cannot read checkpoint {path}: {e}") from e
    with f:
        if take(f, 4, "magic") != _MAGIC:
            raise CheckpointError("bad magic: not an orthosep checkpoint")
        (version,) = struct.unpack("<I", take(f, 4, "version"))
        if version != _VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        input_dim, hidden, layers, k, dropout, train_lambda = struct.unpack(
            "<IIIIdd", take(f, 32, "config")
        )
        cfg = NetworkConfig(
            input_dim=input_dim,
            hidden=hidden,
            num_bilstm_layers=layers,
            embedding_dim=k,
            dropout_rate=dropout,
        )
        (num_blocks,) = struct.unpack("<I", take(f, 4, "block count"))
        blocks = {}
        for _ in range(num_blocks):
            (name_len,) = struct.unpack("<H", take(f, 2, "name length"))
            name = take(f, name_len, "name").decode()
            (ndim,) = struct.unpack("<B", take(f, 1, "ndim"))
            shape = tuple(
                struct.unpack("<I", take(f, 4, "shape"))[0] for _ in range(ndim)
            )
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(take(f, 4 * count, f"block {name}"), dtype="<f4")
            blocks[name] = data.reshape(shape).astype(np.float64)
    params = init_params(cfg, seed=0)
    expected = named_arrays(params)
    if set(blocks) != set(expected):
        raise CheckpointError(
            f"parameter blocks {sorted(blocks)} do not match config-implied "
            f"blocks {sorted(expected)}"
        )
    for name, arr in expected.items():
        if blocks[name].shape != arr.shape:
            raise CheckpointError(
                f"block {name} has shape {blocks[name].shape}, expected {arr.shape}"
            )
        arr[...] = blocks[name]
    meta = {"train_lambda": train_lambda}
    return params, cfg, meta
