import numpy as np
import pytest

from orthosep import metrics, pipeline
from orthosep.errors import DataError, ShapeError
from orthosep.metrics import (
    UtteranceRecord,
    aggregate,
    improved_npa,
    mask_error_rate,
    npa,
    records_to_csv,
    relative_error_improvement,
    report_to_csv,
    report_to_text,
    sdr,
)


def orthogonal_pair(n=256, seed=0):
    """Reference plus an exactly orthogonal equal-energy noise vector."""
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(n)
    noise = rng.standard_normal(n)
    noise -= (noise @ ref) / (ref @ ref) * ref
    noise *= np.linalg.norm(ref) / np.linalg.norm(noise)
    return ref, noise


class TestSdr:
    def test_identical_capped_high(self):
        ref, _ = orthogonal_pair()
        assert sdr(ref, ref) == 100.0

    def test_pure_gain_removed(self):
        ref, _ = orthogonal_pair(seed=1)
        assert sdr(0.5 * ref, ref) == 100.0

    def test_equal_power_orthogonal_noise_is_zero(self):
        ref, noise = orthogonal_pair(seed=2)
        assert sdr(ref + noise, ref) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("scale", [0.1, 0.7, 3.3, 10.0])
    def test_scale_invariance(self, scale):
        ref, noise = orthogonal_pair(seed=3)
        est = ref + 0.3 * noise
        assert sdr(scale * est, ref) == pytest.approx(sdr(est, ref), abs=1e-9)

    def test_silent_reference_rejected(self):
        with pytest.raises(DataError, match="silent reference"):
            sdr(np.ones(8), np.zeros(8))

    def test_silent_estimate_capped_low(self):
        assert sdr(np.zeros(8), np.ones(8)) == -100.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            sdr(np.ones(4), np.ones(5))


class TestNpa:
    def test_oracle_estimate_capped_high(self):
        ref, _ = orthogonal_pair(seed=4)
        assert npa(ref, ref) == 100.0

    def test_orthogonal_estimate_capped_low(self):
        ref, noise = orthogonal_pair(seed=5)
        assert npa(noise, ref) == pytest.approx(-100.0)

    def test_half_aligned_is_zero(self):
        ref, noise = orthogonal_pair(seed=6)
        unit_ref = ref / np.linalg.norm(ref)
        unit_noise = noise / np.linalg.norm(noise)
        est = unit_ref / np.sqrt(2) + unit_noise / np.sqrt(2)
        assert npa(est, ref) == pytest.approx(0.0, abs=1e-9)


class TestImprovedNpa:
    def test_identical_estimates_zero(self):
        ref, noise = orthogonal_pair(seed=7)
        est = ref + 0.1 * noise
        assert improved_npa(est, est, ref) == 0.0

    def test_oracle_vs_half_aligned(self):
        ref, noise = orthogonal_pair(seed=8)
        unit_ref = ref / np.linalg.norm(ref)
        unit_noise = noise / np.linalg.norm(noise)
        half = unit_ref / np.sqrt(2) + unit_noise / np.sqrt(2)
        assert improved_npa(ref, half, ref) == pytest.approx(100.0, abs=1e-9)

    def test_antisymmetry(self):
        ref, noise = orthogonal_pair(seed=9)
        a = ref + 0.1 * noise
        b = ref + 0.7 * noise
        assert improved_npa(a, b, ref) == -improved_npa(b, a, ref)


class TestMaskErrorRate:
    def test_identical_masks(self):
        m = np.eye(4)
        assert mask_error_rate(m, m) == 0.0

    def test_inverted_masks_zero_after_permutation(self):
        rng = np.random.default_rng(0)
        m = (rng.random((4, 4)) > 0.5).astype(float)
        assert mask_error_rate(1.0 - m, m) == 0.0

    def test_one_bin_of_sixteen(self):
        ideal = np.zeros((4, 4))
        est = ideal.copy()
        est[0, 0] = 1.0
        assert mask_error_rate(est, ideal) == pytest.approx(1 / 16)

    def test_simultaneous_label_permutation_invariance(self):
        rng = np.random.default_rng(1)
        est = (rng.random((4, 4)) > 0.5).astype(float)
        ideal = (rng.random((4, 4)) > 0.5).astype(float)
        direct = mask_error_rate([est, 1 - est], [ideal, 1 - ideal])
        swapped = mask_error_rate([1 - est, est], [1 - ideal, ideal])
        assert direct == swapped

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mask_error_rate(np.ones((2, 2)), np.ones((3, 3)))


class TestRelativeErrorImprovement:
    def test_equal_errors(self):
        assert relative_error_improvement(0.1, 0.1) == 0.0

    def test_ten_percent(self):
        assert relative_error_improvement(0.10, 0.09) == pytest.approx(10.0)

    def test_regression_negative(self):
        assert relative_error_improvement(0.10, 0.12) == pytest.approx(-20.0)

    def test_zero_baseline_not_applicable(self):
        assert relative_error_improvement(0.0, 0.1) is None


def make_record(id, method, sir, sdr_val, pair="same", dim=20, npa_val=1.0, err=0.1):
    return UtteranceRecord(
        id=id, method=method, embedding_dim=dim, sir_db=sir, family_pair=pair,
        sdr_db=sdr_val, sdr_mean_db=sdr_val, npa_db=npa_val, mask_error_rate=err,
    )


class TestAggregate:
    def test_single_record(self):
        report = aggregate([make_record("u0", "proposed", 3.0, 5.0)])
        assert report.sdr_by_sir[(20, "proposed")][3.0] == 5.0
        assert report.sdr_by_sir[(20, "proposed")]["avg"] == 5.0

    def test_disjoint_id_sets_rejected(self):
        records = [
            make_record("u0", "dc", 3.0, 5.0),
            make_record("u1", "proposed", 3.0, 6.0),
        ]
        with pytest.raises(DataError, match="u0|u1"):
            aggregate(records)

    def test_known_means(self):
        records = [
            make_record("u0", "dc", 3.0, 4.0),
            make_record("u1", "dc", 9.0, 8.0),
            make_record("u0", "proposed", 3.0, 5.0),
            make_record("u1", "proposed", 9.0, 9.0),
        ]
        report = aggregate(records)
        assert report.sdr_by_sir[(20, "dc")]["avg"] == pytest.approx(6.0)
        assert report.sdr_by_sir[(20, "proposed")]["avg"] == pytest.approx(7.0)

    def test_improvement_equals_mean_difference(self):
        rng = np.random.default_rng(2)
        records = []
        for i in range(10):
            records.append(make_record(f"u{i}", "dc", 3.0, rng.normal(5)))
            records.append(make_record(f"u{i}", "proposed", 3.0, rng.normal(6)))
        report = aggregate(records)
        dc_mean = np.mean([r.sdr_db for r in records if r.method == "dc"])
        prop_mean = np.mean([r.sdr_db for r in records if r.method == "proposed"])
        delta = report.sdr_by_sir[(20, "proposed")]["avg"] - report.sdr_by_sir[(20, "dc")]["avg"]
        assert delta == pytest.approx(prop_mean - dc_mean, abs=1e-12)

    def test_mask_quality_table(self):
        records = [
            make_record("u0", "dc", 3.0, 5.0, npa_val=1.0, err=0.10),
            make_record("u0", "proposed", 3.0, 6.0, npa_val=1.5, err=0.09),
        ]
        report = aggregate(records)
        cell = report.mask_quality[3.0]
        assert cell["improved_npa"] == pytest.approx(0.5)
        assert cell["relative_error_pct"] == pytest.approx(10.0)

    def test_every_cell_is_the_mean_of_the_records_it_selects(self, tmp_path):
        # dc at K=20 and proposed at K=40, as `evaluate --baseline-checkpoint`
        # gives for models that differ in K: the (20, proposed) and (40, dc)
        # cells select no record and read nan, n/a in the text.
        rng = np.random.default_rng(5)
        sirs, pairs = (3.0, 9.0, 15.0), ("mixed", "same")
        records = []
        for i in range(12):
            sir, pair = sirs[i % 3], pairs[i % 2]
            for method, dim in (("dc", 20), ("proposed", 40)):
                err = 0.0 if (method, sir) == ("dc", 15.0) else rng.uniform(0.05, 0.3)
                records.append(make_record(f"u{i:02d}", method, sir, rng.normal(8, 3),
                                           pair=pair, dim=dim, npa_val=rng.normal(2),
                                           err=err))
        report = aggregate(records)

        def mean(value, **where):
            vals = [getattr(r, value) for r in records
                    if all(getattr(r, k) == v for k, v in where.items())]
            return float(np.mean(vals)) if vals else float("nan")

        cells = [(d, m) for d in (20, 40) for m in ("dc", "proposed")]
        assert report.methods == ["dc", "proposed"]
        assert report.sir_values == list(sirs)
        assert list(report.sdr_by_sir) == cells
        assert list(report.sdr_by_family) == cells
        for d, m in cells:
            at = {"embedding_dim": d, "method": m}
            expected = {s: mean("sdr_db", sir_db=s, **at) for s in sirs}
            expected["avg"] = mean("sdr_db", **at)
            assert list(report.sdr_by_sir[(d, m)]) == [*sirs, "avg"]
            np.testing.assert_equal(report.sdr_by_sir[(d, m)], expected)
            assert list(report.sdr_by_family[(d, m)]) == list(pairs)
            np.testing.assert_equal(report.sdr_by_family[(d, m)],
                                    {p: mean("sdr_db", family_pair=p, **at) for p in pairs})
        assert np.isnan(report.sdr_by_sir[(20, "proposed")]["avg"])
        assert np.isnan(report.sdr_by_family[(40, "dc")]["same"])

        assert list(report.mask_quality) == list(sirs)
        for s in sirs:
            npa_dc = mean("npa_db", sir_db=s, method="dc")
            npa_prop = mean("npa_db", sir_db=s, method="proposed")
            err_dc = mean("mask_error_rate", sir_db=s, method="dc")
            err_prop = mean("mask_error_rate", sir_db=s, method="proposed")
            assert report.mask_quality[s] == {
                "improved_npa": npa_prop - npa_dc,
                "relative_error_pct": relative_error_improvement(err_dc, err_prop),
            }
        assert report.mask_quality[15.0]["relative_error_pct"] is None

        sir_table = report_to_text(report).split("\n\n")[0].splitlines()[2:]
        rows = {tuple(line.split()[:2]): line.split()[2:] for line in sir_table}
        assert rows[("20", "proposed")] == ["n/a"] * 4
        assert rows[("40", "dc")] == ["n/a"] * 4
        assert rows[("20", "improve")] == ["n/a"] * 4
        assert "n/a" not in rows[("20", "dc")]
        report_to_csv(report, tmp_path / "report.csv")
        csv_text = (tmp_path / "report.csv").read_text()
        assert "sdr_by_sir,20,proposed,avg,nan\n" in csv_text
        assert "mask_quality,,,relative_error_pct@15.0,n/a\n" in csv_text


def test_report_rendering(tmp_path):
    records = [
        make_record("u0", "dc", 3.0, 5.0),
        make_record("u0", "proposed", 3.0, 6.0),
    ]
    report = aggregate(records)
    text = report_to_text(report)
    assert "SDR (dB) vs SIR" in text
    assert "Avg." in text
    records_to_csv(records, tmp_path / "records.csv")
    report_to_csv(report, tmp_path / "report.csv")
    assert (tmp_path / "records.csv").read_text().count("\n") == 3
    assert "sdr_by_sir" in (tmp_path / "report.csv").read_text()


def test_best_permutation_scores_each_pair_once(monkeypatch):
    ref, noise = orthogonal_pair(seed=10)
    other, _ = orthogonal_pair(seed=11)
    refs = [ref, other]
    est = [other + 0.3 * noise, ref + 0.1 * noise]  # in the opposite order
    expected = [sdr(est[1], refs[0]), sdr(est[0], refs[1])]
    calls = []
    monkeypatch.setattr(metrics, "sdr", lambda e, r: calls.append(1) or sdr(e, r))
    perm, sdr_per_ref = pipeline._best_permutation(est, refs)
    assert perm == (1, 0)
    assert sdr_per_ref == expected
    assert len(calls) == 4
