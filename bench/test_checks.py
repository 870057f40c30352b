"""Each checker of the benchmark accepts a correct output and rejects a
deliberately broken one; the traced run reports exactly the per-layer
metrics BENCHMARK.json lists."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from orthosep import embedding, metrics  # noqa: E402
from tracing import Tracer  # noqa: E402


def _unit_rows(n, k, seed):
    v = np.random.default_rng(seed).standard_normal((n, k))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _labels(n, seed):
    y = np.zeros((n, 2))
    y[np.arange(n), np.random.default_rng(seed).integers(0, 2, n)] = 1.0
    return y


def test_masks_must_be_complementary():
    rng = np.random.default_rng(0)
    m = (rng.random((6, 9)) < 0.5).astype(float)
    checks.check_masks([m, 1.0 - m])
    broken = 1.0 - m
    broken[2, 3] = 1.0 - broken[2, 3]
    with pytest.raises(checks.CheckFailed):
        checks.check_masks([m, broken])


def test_hartigan_rejects_one_point_in_the_wrong_cluster():
    rng = np.random.default_rng(1)
    x = np.vstack([rng.normal(0.0, 0.1, (40, 3)), rng.normal(5.0, 0.1, (40, 3))])
    labels = np.repeat([0, 1], 40)
    assert checks.check_hartigan(x, labels) < 0.0
    broken = labels.copy()
    broken[7] = 1
    with pytest.raises(checks.CheckFailed):
        checks.check_hartigan(x, broken)


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_gradient_scaled_by_one_percent_is_rejected(lam):
    v, y = _unit_rows(300, 5, 2), _labels(300, 3)
    grad = embedding.loss_gradient(v, y, lam)
    checks.check_gradient(v, y, lam, grad)
    with pytest.raises(checks.CheckFailed):
        checks.check_gradient(v, y, lam, 1.01 * grad)


def test_loss_must_match_the_dense_loss():
    v, y = _unit_rows(300, 5, 4), _labels(300, 5)
    total = embedding.combined_loss(v, y, 1.0).total
    checks.check_loss(v, y, 1.0, total)
    with pytest.raises(checks.CheckFailed):
        checks.check_loss(v, y, 1.0, total * (1.0 + 1e-6))


def test_sdr_off_by_a_tenth_of_a_db_is_rejected():
    rng = np.random.default_rng(6)
    ref = rng.standard_normal(4000)
    est = ref + 0.1 * rng.standard_normal(4000)
    reported = metrics.sdr(est, ref)
    checks.check_sdr(est, ref, reported)
    with pytest.raises(checks.CheckFailed):
        checks.check_sdr(est, ref, reported + 0.1)


def test_reconstruction_must_sum_to_the_mixture():
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal(100), rng.standard_normal(100)
    checks.check_reconstruction([a, b], a + b, trim=10)
    broken = a.copy()
    broken[50] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_reconstruction([broken, b], a + b, trim=10)


def test_traced_metrics_are_those_benchmark_json_lists():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    reported = {name: unit for name, (_, unit) in Tracer().metrics().items()}
    assert reported == {m["name"]: m["unit"] for m in spec["per_layer"]}
