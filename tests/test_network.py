import hashlib
import struct

import numpy as np
import pytest

from orthosep import embedding
from orthosep.dataset import CorpusConfig, build_corpus
from orthosep.errors import CheckpointError, ConfigError
from orthosep.network import (
    NetworkConfig,
    OptimizerState,
    TrainingConfig,
    _direction,
    _lstm_backward,
    _lstm_forward,
    adam_step,
    backward,
    clone_params,
    forward,
    init_params,
    load_checkpoint,
    named_arrays,
    save_checkpoint,
    train,
    write_training_log,
    zeros_like_params,
)
from orthosep.signal import StftConfig

TINY = NetworkConfig(input_dim=4, hidden=3, num_bilstm_layers=2, embedding_dim=2,
                     dropout_rate=0.5)


def tiny_case(seed, t_frames=3):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((t_frames, TINY.input_dim))
    n = t_frames * TINY.input_dim
    y = np.zeros((n, 2))
    y[np.arange(n), rng.integers(0, 2, n)] = 1.0
    return features, y


def quantized(params):
    """Parameters rounded to checkpoint (float32) precision."""
    out = clone_params(params)
    for arr in named_arrays(out).values():
        arr[...] = arr.astype(np.float32).astype(np.float64)
    return out


class TestForward:
    def test_deterministic_in_eval_mode(self):
        params = init_params(TINY, seed=1)
        features, _ = tiny_case(1)
        a = forward(params, TINY, features)
        b = forward(params, TINY, features)
        assert np.array_equal(a, b)

    def test_rows_unit_norm(self):
        params = init_params(TINY, seed=2)
        features, _ = tiny_case(2, t_frames=5)
        v = forward(params, TINY, features)
        assert v.shape == (5 * 4, 2)
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-6)

    def test_zero_weights_closed_form(self):
        # all-zero weights: recurrent outputs vanish, so the embedding of
        # bin (t, f) is tanh(bias) reshaped per frequency, row-normalized
        params = init_params(TINY, seed=0)
        for arr in named_arrays(params).values():
            arr[...] = 0.0
        rng = np.random.default_rng(5)
        dense_b = named_arrays(params)["dense.b"]
        dense_b[...] = rng.uniform(-1, 1, dense_b.shape)
        features, _ = tiny_case(3, t_frames=4)
        v = forward(params, TINY, features)
        per_bin = np.tanh(dense_b).reshape(TINY.input_dim, TINY.embedding_dim)
        expected = embedding.normalize_rows(per_bin)
        for t in range(4):
            assert np.allclose(v[t * 4 : (t + 1) * 4], expected, atol=1e-12)

    def test_dropout_only_in_train_mode(self):
        params = init_params(TINY, seed=3)
        features, _ = tiny_case(4)
        eval_out = forward(params, TINY, features, train_mode=False, rng_seed=1)
        train_out = forward(params, TINY, features, train_mode=True, rng_seed=1)
        assert not np.array_equal(eval_out, train_out)

    def test_feature_width_mismatch(self):
        params = init_params(TINY, seed=0)
        with pytest.raises(Exception):
            forward(params, TINY, np.zeros((3, 7)))


class TestBackward:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        params = init_params(TINY, seed=seed)
        features, y = tiny_case(seed)
        _, grads = backward(params, TINY, features, y, 1.0, rng_seed=seed)
        names = named_arrays(params)
        gnames = named_arrays(grads)
        h = 1e-5
        for name, arr in names.items():
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lp = backward(params, TINY, features, y, 1.0, rng_seed=seed)[0].total
                arr[idx] = orig - h
                lm = backward(params, TINY, features, y, 1.0, rng_seed=seed)[0].total
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                g = gnames[name][idx]
                assert abs(fd - g) <= 1e-3 * max(abs(fd), abs(g)) + 1e-6, (
                    f"{name}{idx}: fd={fd} analytic={g}"
                )

    def test_gradients_linear_in_lambda(self):
        params = init_params(TINY, seed=7)
        features, y = tiny_case(7)
        g0 = named_arrays(backward(params, TINY, features, y, 0.0, rng_seed=1)[1])
        g1 = named_arrays(backward(params, TINY, features, y, 1.0, rng_seed=1)[1])
        g2 = named_arrays(backward(params, TINY, features, y, 2.0, rng_seed=1)[1])
        for name in g0:
            assert np.allclose(g2[name] - g0[name], 2.0 * (g1[name] - g0[name]),
                               rtol=1e-9, atol=1e-9)

    def test_fixed_dropout_seed_reproducible(self):
        params = init_params(TINY, seed=8)
        features, y = tiny_case(8)
        la, ga = backward(params, TINY, features, y, 1.0, rng_seed=9)
        lb, gb = backward(params, TINY, features, y, 1.0, rng_seed=9)
        assert la.total == lb.total
        for name, arr in named_arrays(ga).items():
            assert np.array_equal(arr, named_arrays(gb)[name])

    def test_loss_matches_embedding_core_on_forward_output(self):
        params = init_params(TINY, seed=9)
        features, y = tiny_case(9)
        loss, _ = backward(params, TINY, features, y, 1.0, train_mode=True, rng_seed=4)
        v = forward(params, TINY, features, train_mode=True, rng_seed=4)
        direct = embedding.combined_loss(v, y, 1.0)
        assert loss.total == pytest.approx(direct.total, abs=1e-9)
        assert loss.dc_term == pytest.approx(direct.dc_term, abs=1e-9)

    def test_row_mask_restricts_loss(self):
        params = init_params(TINY, seed=10)
        features, y = tiny_case(10)
        mask = np.zeros(12, dtype=bool)
        mask[:6] = True
        loss, grads = backward(params, TINY, features, y, 1.0, train_mode=False,
                               row_mask=mask)
        v = forward(params, TINY, features)
        direct = embedding.combined_loss(v[mask], y[mask], 1.0)
        assert loss.total == pytest.approx(direct.total, abs=1e-9)


def reference_lstm_backward(wx, wh, cache, dh_out):
    """The per-step BPTT loop that the hoisted one replaced: the weight
    products and dx are formed inside the time loop, one np.outer per
    step. Returns (dx, dwx, dwh, db)."""
    x, i, f, g, o, c, h = (cache[k] for k in ("x", "i", "f", "g", "o", "c", "h"))
    t_steps, h_dim = i.shape
    dwx, dwh, db = np.zeros_like(wx), np.zeros_like(wh), np.zeros(4 * h_dim)
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
        dz = np.concatenate([dc * g[t] * i[t] * (1.0 - i[t]),
                             dc * c_prev * f[t] * (1.0 - f[t]),
                             dc * i[t] * (1.0 - g[t] ** 2),
                             do * o[t] * (1.0 - o[t])])
        dwx += np.outer(x[t], dz)
        dwh += np.outer(h_prev, dz)
        db += dz
        dx[t] = dz @ wx.T
        dh_next = dz @ wh.T
        dc_next = dc * f[t]
    return dx, dwx, dwh, db


class TestLstmBackward:
    @pytest.mark.parametrize("t_steps", [1, 6])
    @pytest.mark.parametrize("layer", [0, 1])
    def test_matches_per_step_loop(self, t_steps, layer):
        params = init_params(TINY, seed=4)
        w = _direction(params, layer, "fwd")
        rng = np.random.default_rng(t_steps)
        _, cache = _lstm_forward(w, rng.standard_normal((t_steps, w[0].shape[0])))
        dh_out = rng.standard_normal((t_steps, TINY.hidden))
        grads = _direction(zeros_like_params(params), layer, "fwd")
        dx = _lstm_backward(w, cache, dh_out, grads)
        for got, want in zip((dx, *grads), reference_lstm_backward(w[0], w[1], cache, dh_out)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def reference_adam_step(params, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-tensor Adam loop that the flat in-place update replaced: new
    parameter, m and v arrays for every tensor at every step."""
    step += 1
    new_params, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = grads[name]
        new_m[name] = beta1 * m[name] + (1.0 - beta1) * g
        new_v[name] = beta2 * v[name] + (1.0 - beta2) * g**2
        m_hat = new_m[name] / (1.0 - beta1**step)
        v_hat = new_v[name] / (1.0 - beta2**step)
        new_params[name] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_params, new_m, new_v, step


class TestAdam:
    def test_matches_per_tensor_loop_bit_for_bit(self):
        params = init_params(TINY, seed=3)
        ref = {k: a.copy() for k, a in named_arrays(params).items()}
        m = {k: np.zeros_like(a) for k, a in ref.items()}
        v = {k: np.zeros_like(a) for k, a in ref.items()}
        step = 0
        state = OptimizerState.fresh(params, 1e-2)
        grads = zeros_like_params(params)
        rng = np.random.default_rng(1)
        for _ in range(6):
            grads.flat[...] = rng.standard_normal(grads.flat.shape)
            params, state = adam_step(params, grads, state)
            ref, m, v, step = reference_adam_step(ref, named_arrays(grads), m, v, step, 1e-2)
        assert state.step == step
        for name, arr in named_arrays(params).items():
            assert np.array_equal(arr, ref[name])
        assert np.array_equal(state.m, np.concatenate([a.ravel() for a in m.values()]))
        assert np.array_equal(state.v, np.concatenate([a.ravel() for a in v.values()]))

    def test_zero_gradient_no_change(self):
        params = init_params(TINY, seed=0)
        grads = zeros_like_params(params)
        state = OptimizerState.fresh(params, 1e-3)
        new_params, new_state = adam_step(clone_params(params), grads, state)
        for name, arr in named_arrays(params).items():
            assert np.array_equal(arr, named_arrays(new_params)[name])
        assert new_state.step == 1

    def test_first_step_hand_formula(self):
        params = init_params(TINY, seed=1)
        grads = clone_params(params)
        rng = np.random.default_rng(0)
        for arr in named_arrays(grads).values():
            arr[...] = rng.standard_normal(arr.shape)
        lr, eps = 1e-3, 1e-8
        state = OptimizerState.fresh(params, lr)
        new_params, _ = adam_step(clone_params(params), grads, state, eps=eps)
        for name, p_old in named_arrays(params).items():
            g = named_arrays(grads)[name]
            # bias-corrected first step: m_hat = g, v_hat = g^2
            expected = p_old - lr * g / (np.sqrt(g**2) + eps)
            assert np.allclose(named_arrays(new_params)[name], expected, atol=1e-12)

    def test_constant_gradient_step_size_approaches_lr(self):
        params = init_params(TINY, seed=2)
        grads = zeros_like_params(params)
        named_arrays(grads)["dense.b"][...] = 0.5
        lr = 1e-3
        state = OptimizerState.fresh(params, lr)
        prev = named_arrays(params)["dense.b"].copy()
        for _ in range(500):
            params, state = adam_step(params, grads, state)
        cur = named_arrays(params)["dense.b"].copy()
        last_step = None
        params, state = adam_step(params, grads, state)
        last_step = np.abs(named_arrays(params)["dense.b"] - cur)
        assert np.allclose(last_step, lr, rtol=0.01)


def toy_manifest():
    cfg = CorpusConfig(n_train=10, n_val=10, n_eval=10, duration_s=0.25, seed=11)
    return build_corpus(cfg)


TOY_STFT = StftConfig(fft_size=256, hop=128)
TOY_NET = NetworkConfig(input_dim=129, hidden=8, num_bilstm_layers=2,
                        embedding_dim=4, dropout_rate=0.5)


class TestTrain:
    def test_zero_lr_leaves_params_unchanged(self):
        entries = toy_manifest()
        hyper = TrainingConfig(lam=1.0, learning_rate=0.0, epochs=1, seed=0,
                               stft=TOY_STFT)
        params, log = train(entries, TOY_NET, hyper)
        fresh = init_params(TOY_NET, seed=0)
        for name, arr in named_arrays(params).items():
            assert np.array_equal(arr, named_arrays(fresh)[name])
        assert len(log) == 1 and "mean_total" in log[0]

    def test_loss_decreases_on_toy_corpus(self):
        entries = toy_manifest()
        hyper = TrainingConfig(lam=1.0, learning_rate=1e-3, epochs=30, seed=0,
                               stft=TOY_STFT)
        _, log = train(entries, TOY_NET, hyper)
        assert log[-1]["mean_total"] < log[0]["mean_total"]

    def test_regularized_run_beats_baseline_on_penalty(self):
        # optimizing the penalty must leave it lower than not optimizing it
        entries = toy_manifest()
        kw = dict(learning_rate=1e-3, epochs=30, seed=0, stft=TOY_STFT)
        _, log1 = train(entries, TOY_NET, TrainingConfig(lam=1.0, **kw))
        _, log0 = train(entries, TOY_NET, TrainingConfig(lam=0.0, **kw))
        assert log1[-1]["mean_penalty"] < log0[-1]["mean_penalty"]

    def test_reproducible_log(self):
        entries = toy_manifest()
        hyper = TrainingConfig(lam=1.0, learning_rate=1e-3, epochs=2, seed=5,
                               stft=TOY_STFT)
        _, log_a = train(entries, TOY_NET, hyper)
        _, log_b = train(entries, TOY_NET, hyper)
        assert log_a == log_b

    def test_empty_training_split_rejected(self):
        entries = [e for e in toy_manifest() if e.split == "eval"]
        with pytest.raises(ConfigError):
            train(entries, TOY_NET, TrainingConfig(epochs=1))

    def test_log_csv(self, tmp_path):
        log = [{"epoch": 0, "mean_dc": 1.5, "mean_penalty": 0.5, "mean_total": 2.0,
                "diverged": False}]
        path = tmp_path / "log.csv"
        write_training_log(log, path)
        text = path.read_text().splitlines()
        assert text[0] == "epoch,mean_dc,mean_penalty,mean_total"
        assert text[1].startswith("0,1.5,0.5,2.0")


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        params = quantized(init_params(TINY, seed=4))
        path = tmp_path / "model.osep"
        save_checkpoint(params, TINY, path, train_lambda=1.0)
        loaded, cfg, meta = load_checkpoint(path)
        assert cfg == TINY
        assert meta["train_lambda"] == 1.0
        for name, arr in named_arrays(params).items():
            assert np.array_equal(arr, named_arrays(loaded)[name])

    def test_initial_checkpoint_bytes_pinned(self, tmp_path):
        # pins the initialization draw order and the block layout on disk
        path = tmp_path / "model.osep"
        save_checkpoint(init_params(TINY, seed=0), TINY, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "4bea8f11804b29b52c99370f4ce98e688e3249f2c14a5ba4d7b228a980ff1d2b"
        )

    def test_save_is_deterministic(self, tmp_path):
        params = init_params(TINY, seed=4)
        a, b = tmp_path / "a.osep", tmp_path / "b.osep"
        save_checkpoint(params, TINY, a)
        save_checkpoint(params, TINY, b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.osep"
        save_checkpoint(init_params(TINY, seed=0), TINY, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.osep"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_zero_dimension_header_rejected(self, tmp_path):
        path = tmp_path / "model.osep"
        header = struct.pack("<IIIIdd", 0, 0, 0, 0, 0.5, -1.0)
        path.write_bytes(b"OSEP" + struct.pack("<I", 1) + header + struct.pack("<I", 0))
        with pytest.raises(CheckpointError, match="invalid config"):
            load_checkpoint(path)

    def test_dimension_mismatch_reported(self, tmp_path):
        path = tmp_path / "model.osep"
        save_checkpoint(init_params(TINY, seed=0), TINY, path)
        # rewrite the stored embedding_dim: blocks no longer fit the config
        data = bytearray(path.read_bytes())
        data[20:24] = struct.pack("<I", TINY.embedding_dim + 3)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="shape|blocks|truncated"):
            load_checkpoint(path)
