"""Recurrent embedding network: stacked bidirectional LSTM layers, a dense
tanh output layer producing one K-dimensional embedding per time-frequency
bin, reverse-mode gradients of the combined objective, Adam updates and
the training loop.

All math is float64 numpy. Checkpoints quantize parameters to float32
(see save_checkpoint).
"""

from __future__ import annotations

import csv
import math
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


def layout(cfg: NetworkConfig):
    """(name, shape) of every parameter tensor, in the order of
    initialization, of the flat buffer and of checkpoint blocks. LSTM
    weights are (input width, 4H) with gate order i|f|g|o."""
    h = cfg.hidden
    out_dim = cfg.input_dim * cfg.embedding_dim
    shapes = []
    for layer in range(cfg.num_bilstm_layers):
        d = cfg.input_dim if layer == 0 else 2 * h
        for direction in ("fwd", "bwd"):
            shapes += [(f"layer{layer}.{direction}.wx", (d, 4 * h)),
                       (f"layer{layer}.{direction}.wh", (h, 4 * h)),
                       (f"layer{layer}.{direction}.b", (4 * h,))]
    return tuple(shapes + [("dense.w", (2 * h, out_dim)), ("dense.b", (out_dim,))])


class ModelParameters:
    """Every parameter in one float64 vector, `flat`, laid out as `shapes`
    (see `layout`). `arrays` maps each name to a C-contiguous view of
    `flat` with that tensor's shape, so writing a view writes the vector."""

    def __init__(self, shapes, flat=None):
        sizes = [math.prod(shape) for _, shape in shapes]
        self.shapes = shapes
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        self.arrays, start = {}, 0
        for (name, shape), size in zip(shapes, sizes):
            self.arrays[name] = self.flat[start : start + size].reshape(shape)
            start += size


def init_params(cfg: NetworkConfig, seed: int = 0) -> ModelParameters:
    """Uniform +-1/sqrt(fan_in) initialization, biases zero."""
    rng = np.random.default_rng(seed)
    params = ModelParameters(layout(cfg))
    for arr in params.arrays.values():
        if arr.ndim == 2:  # a weight matrix; its fan-in is its row count
            bound = 1.0 / np.sqrt(arr.shape[0])
            arr[...] = rng.uniform(-bound, bound, size=arr.shape)
    return params


def named_arrays(params: ModelParameters):
    """Ordered name -> view of every parameter tensor."""
    return params.arrays


def clone_params(params: ModelParameters) -> ModelParameters:
    return ModelParameters(params.shapes, params.flat.copy())


def zeros_like_params(params: ModelParameters) -> ModelParameters:
    return ModelParameters(params.shapes)


def _direction(params: ModelParameters, layer: int, direction: str):
    """(wx, wh, b) views of one LSTM direction."""
    prefix = f"layer{layer}.{direction}."
    return tuple(params.arrays[prefix + k] for k in ("wx", "wh", "b"))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _lstm_forward(w, x):
    """One LSTM direction with weights w = (wx, wh, b) over a (T, D)
    sequence; returns outputs and the cache needed for backprop."""
    wx, wh, b = w
    t_steps = x.shape[0]
    h_dim = wh.shape[0]
    zx = x @ wx + b
    i = np.empty((t_steps, h_dim))
    f = np.empty((t_steps, h_dim))
    g = np.empty((t_steps, h_dim))
    o = np.empty((t_steps, h_dim))
    c = np.empty((t_steps, h_dim))
    h = np.empty((t_steps, h_dim))
    h_prev = np.zeros(h_dim)
    c_prev = np.zeros(h_dim)
    for t in range(t_steps):
        z = zx[t] + h_prev @ wh
        i[t] = _sigmoid(z[:h_dim])
        f[t] = _sigmoid(z[h_dim : 2 * h_dim])
        g[t] = np.tanh(z[2 * h_dim : 3 * h_dim])
        o[t] = _sigmoid(z[3 * h_dim :])
        c[t] = f[t] * c_prev + i[t] * g[t]
        h[t] = o[t] * np.tanh(c[t])
        h_prev, c_prev = h[t], c[t]
    cache = {"x": x, "i": i, "f": f, "g": g, "o": o, "c": c, "h": h}
    return h, cache


def _lstm_backward(w, cache, dh_out, grads):
    """BPTT through one LSTM direction with weights w = (wx, wh, b).
    Writes the weight gradients into the views grads = (dwx, dwh, db) and
    returns dx. Only the dh/dc recurrence runs step by step; it keeps the
    pre-activation gradients dZ (T, 4H), and the weight gradients and dx
    are then one matrix product each over all steps (Appleyard, Kocisky
    & Blunsom 2016, arXiv:1604.01946)."""
    wx, wh, _ = w
    dwx, dwh, db = grads
    x, i, f, g, o, c, h = (cache[k] for k in ("x", "i", "f", "g", "o", "c", "h"))
    t_steps, h_dim = i.shape
    dz = np.empty((t_steps, 4 * h_dim))
    dh_next = np.zeros(h_dim)
    dc_next = np.zeros(h_dim)
    for t in range(t_steps - 1, -1, -1):
        c_prev = c[t - 1] if t > 0 else np.zeros(h_dim)
        tanh_c = np.tanh(c[t])
        dh = dh_out[t] + dh_next
        dc = dh * o[t] * (1.0 - tanh_c**2) + dc_next
        dz[t, :h_dim] = dc * g[t] * i[t] * (1.0 - i[t])
        dz[t, h_dim : 2 * h_dim] = dc * c_prev * f[t] * (1.0 - f[t])
        dz[t, 2 * h_dim : 3 * h_dim] = dc * i[t] * (1.0 - g[t] ** 2)
        dz[t, 3 * h_dim :] = dh * tanh_c * o[t] * (1.0 - o[t])
        dh_next = dz[t] @ wh.T
        dc_next = dc * f[t]
    dwx[...] = x.T @ dz
    dwh[...] = h[:-1].T @ dz[1:]  # h_prev is zero at t = 0
    db[...] = dz.sum(axis=0)
    return dz @ wx.T


def _forward_cache(params, cfg, features, train_mode, rng_seed):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != cfg.input_dim:
        raise ShapeError(
            f"features shape {features.shape} incompatible with input_dim {cfg.input_dim}"
        )
    rng = np.random.default_rng(rng_seed)
    x = features
    layer_caches = []
    for layer_idx in range(cfg.num_bilstm_layers):
        h_f, cache_f = _lstm_forward(_direction(params, layer_idx, "fwd"), x)
        h_b_rev, cache_b = _lstm_forward(_direction(params, layer_idx, "bwd"), x[::-1])
        out = np.concatenate([h_f, h_b_rev[::-1]], axis=1)
        drop_mask = None
        if (
            train_mode
            and cfg.dropout_rate > 0.0
            and layer_idx < cfg.num_bilstm_layers - 1
        ):
            keep = 1.0 - cfg.dropout_rate
            drop_mask = (rng.random(out.shape) < keep) / keep
            out = out * drop_mask
        layer_caches.append({"fwd": cache_f, "bwd": cache_b, "drop_mask": drop_mask})
        x = out
    z = x @ params.arrays["dense.w"] + params.arrays["dense.b"]  # (T, F*K)
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
):
    """Loss and reverse-mode parameter gradients of the combined objective
    over every time-frequency bin, evaluated on the forward embeddings."""
    v, cache = _forward_cache(params, cfg, features, train_mode, rng_seed)
    if not np.all(np.isfinite(v)):
        raise TrainingDiverged("non-finite tensor: embeddings")

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
    grads.arrays["dense.w"][...] = cache["last_hidden"].T @ dz
    grads.arrays["dense.b"][...] = dz.sum(axis=0)
    dx = dz @ params.arrays["dense.w"].T
    h = cfg.hidden
    for layer_idx in range(cfg.num_bilstm_layers - 1, -1, -1):
        layer_cache = cache["layers"][layer_idx]
        if layer_cache["drop_mask"] is not None:
            dx = dx * layer_cache["drop_mask"]
        dx_f = _lstm_backward(_direction(params, layer_idx, "fwd"), layer_cache["fwd"],
                              dx[:, :h], _direction(grads, layer_idx, "fwd"))
        dx_b = _lstm_backward(_direction(params, layer_idx, "bwd"), layer_cache["bwd"],
                              dx[:, h:][::-1], _direction(grads, layer_idx, "bwd"))
        dx = dx_f + dx_b[::-1]
    return loss, grads


@dataclass
class OptimizerState:
    """Adam moments m and v, flat like the parameters, and two scratch
    vectors of the same size, so that a step allocates nothing."""

    m: np.ndarray
    v: np.ndarray
    step: int
    learning_rate: float
    scratch: tuple

    @classmethod
    def fresh(cls, params: ModelParameters, learning_rate: float = 1e-4):
        n = params.flat.size
        return cls(m=np.zeros(n), v=np.zeros(n), step=0, learning_rate=learning_rate,
                   scratch=(np.empty(n), np.empty(n)))


def adam_step(
    params: ModelParameters,
    grads: ModelParameters,
    state: OptimizerState,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """One bias-corrected Adam update (Kingma & Ba 2014, Algorithm 1), made
    in place on params, state.m and state.v; returns (params, state).

    Every element takes the operations of
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g**2
        p -= lr * (m / (1 - beta1**step)) / (sqrt(v / (1 - beta2**step)) + eps)
    in exactly this order, with nothing fused or regrouped, so the update is
    that formula bit for bit.
    """
    g, m, v = grads.flat, state.m, state.v
    a, b = state.scratch
    state.step += 1
    np.multiply(g, 1.0 - beta1, out=a)
    m *= beta1
    m += a
    np.square(g, out=a)
    a *= 1.0 - beta2
    v *= beta2
    v += a
    np.divide(m, 1.0 - beta1**state.step, out=a)
    a *= state.learning_rate
    np.divide(v, 1.0 - beta2**state.step, out=b)
    np.sqrt(b, out=b)
    b += eps
    a /= b
    params.flat -= a
    return params, state


@dataclass(frozen=True)
class TrainingConfig:
    lam: float = 1.0
    learning_rate: float = 1e-4
    epochs: int = 50
    seed: int = 0
    stft: StftConfig = field(default_factory=StftConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"need at least one epoch, got {self.epochs}")
        if not 0.0 <= self.lam < np.inf:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        # zero is allowed: it runs the whole loop and leaves the parameters as set
        if not 0.0 <= self.learning_rate < np.inf:
            raise ConfigError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}"
            )


def prepare_example(entry, stft_cfg: StftConfig):
    """(features, label indicator, mixture spectrogram) for one manifest
    entry. The features are those that separation computes from the same
    mixture."""
    mixture, target, interferer = render_mixture(entry)
    mix_spec = stft(mixture, stft_cfg)
    y = compute_ibm([stft(target, stft_cfg), stft(interferer, stft_cfg)])
    return log_magnitude(mix_spec), y, mix_spec


def train(manifest_entries, net_cfg: NetworkConfig, hyper: TrainingConfig):
    """Per-utterance (batch size 1) Adam training over the whole corpus.

    Returns (params, log) where log is a list of per-epoch dicts with mean
    loss terms. Deterministic for a fixed seed. On a non-finite loss the
    run aborts and the last finished epoch's parameters are returned with
    the log entry flagged. The returned parameters are a copy taken at the
    end of an epoch, never the buffer that Adam updates in place.
    """
    entries = [e for e in manifest_entries if e.split == "train"]
    if not entries:
        raise ConfigError("training split is empty")
    examples = [prepare_example(e, hyper.stft)[:2] for e in entries]
    params = init_params(net_cfg, seed=hyper.seed)
    state = OptimizerState.fresh(params, hyper.learning_rate)
    log = []
    last_good = clone_params(params)
    for epoch in range(hyper.epochs):
        order = np.random.default_rng([hyper.seed, epoch]).permutation(len(examples))
        dc_terms, pen_terms, totals = [], [], []
        try:
            for j, idx in enumerate(order):
                features, y = examples[idx]
                loss, grads = backward(
                    params,
                    net_cfg,
                    features,
                    y,
                    hyper.lam,
                    train_mode=True,
                    rng_seed=[hyper.seed, epoch, int(idx)],
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
    return last_good, log


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
        try:
            cfg = NetworkConfig(
                input_dim=input_dim,
                hidden=hidden,
                num_bilstm_layers=layers,
                embedding_dim=k,
                dropout_rate=dropout,
            )
        except ConfigError as e:
            raise CheckpointError(f"checkpoint header holds an invalid config: {e}") from e
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
            blocks[name] = data.reshape(shape)
    shapes = layout(cfg)
    expected = dict(shapes)
    if set(blocks) != set(expected):
        raise CheckpointError(
            f"parameter blocks {sorted(blocks)} do not match config-implied "
            f"blocks {sorted(expected)}"
        )
    for name, shape in expected.items():
        if blocks[name].shape != shape:
            raise CheckpointError(
                f"block {name} has shape {blocks[name].shape}, expected {shape}"
            )
    params = ModelParameters(shapes)
    for name, arr in params.arrays.items():
        arr[...] = blocks[name]
    meta = {"train_lambda": train_lambda}
    return params, cfg, meta
