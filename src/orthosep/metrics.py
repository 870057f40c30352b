"""Separation quality metrics and stratified report aggregation.

SDR here is the single-reference projection decomposition: the estimate is
split into its component along the reference and the residual. dB values
are capped at +-100 so reports stay serializable.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import DataError, ShapeError
from .signal import Waveform

DB_CAP = 100.0


def _ratio_db(num, den):
    if num <= 0.0:
        return -DB_CAP
    if den <= 0.0:
        return DB_CAP
    return float(np.clip(10.0 * np.log10(num / den), -DB_CAP, DB_CAP))


def _project(estimate, reference):
    est = np.asarray(estimate.samples if isinstance(estimate, Waveform) else estimate)
    ref = np.asarray(reference.samples if isinstance(reference, Waveform) else reference)
    if est.shape != ref.shape:
        raise ShapeError(f"length mismatch: {est.shape} vs {ref.shape}")
    ref_energy = float(ref @ ref)
    if ref_energy == 0.0:
        raise DataError("silent reference")
    s_target = (float(est @ ref) / ref_energy) * ref
    return est, s_target


def sdr(estimate, reference) -> float:
    """Signal-to-distortion ratio in dB: energy of the reference-aligned
    component over the residual energy. Scale-invariant in the estimate."""
    est, s_target = _project(estimate, reference)
    residual = est - s_target
    return _ratio_db(float(s_target @ s_target), float(residual @ residual))


def npa(estimate, reference) -> float:
    """Projection-alignment score in dB: aligned energy over the remaining
    (non-aligned) energy of the estimate."""
    est, s_target = _project(estimate, reference)
    aligned = float(s_target @ s_target)
    rest = float(est @ est) - aligned
    return _ratio_db(aligned, rest)


def improved_npa(proposed_est, baseline_est, reference) -> float:
    """Alignment improvement of the proposed estimate over the baseline,
    as a difference of (capped) npa values."""
    return npa(proposed_est, reference) - npa(baseline_est, reference)


def _as_mask_list(m):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 2:
        return [m, 1.0 - m]  # two complementary sources
    return [np.asarray(x, dtype=np.float64) for x in m]


def mask_error_rate(estimated, ideal) -> float:
    """Fraction of bins where the estimated mask disagrees with the ideal
    one, minimized over the source-label permutation.

    Accepts either lists of per-source (T, F) masks or a single (T, F)
    mask per side (interpreted as the two-source complementary pair).
    """
    est = _as_mask_list(estimated)
    ref = _as_mask_list(ideal)
    if len(est) != len(ref):
        raise ShapeError(f"source count mismatch: {len(est)} vs {len(ref)}")
    for a, b in zip(est, ref):
        if a.shape != b.shape:
            raise ShapeError(f"mask shape mismatch: {a.shape} vs {b.shape}")
    n_bins = est[0].size
    best = 1.0
    for perm in permutations(range(len(est))):
        wrong = sum(
            int(np.count_nonzero(est[perm[c]] != ref[c])) for c in range(len(ref))
        )
        best = min(best, wrong / (n_bins * len(ref)))
    return best


def relative_error_improvement(err_baseline: float, err_proposed: float):
    """Percent reduction of the proposed error over the baseline error.
    None when the baseline error is zero (undefined)."""
    if err_baseline == 0.0:
        return None
    return 100.0 * (err_baseline - err_proposed) / err_baseline


@dataclass
class UtteranceRecord:
    id: str
    method: str  # "dc" (baseline) or "proposed"
    embedding_dim: int
    sir_db: float
    family_pair: str
    sdr_db: float  # dominant-power target stream
    sdr_mean_db: float  # mean over both output streams
    npa_db: float
    mask_error_rate: float


@dataclass
class MetricsReport:
    methods: list
    sir_values: list
    sdr_by_sir: dict  # (dim, method) -> {sir: mean, "avg": mean}
    sdr_by_family: dict  # (dim, method) -> {pair: mean}
    mask_quality: dict  # sir -> {"improved_npa": x, "relative_error_pct": y or None}


def _mean(cells, *key):
    """Mean of one cell's values in record order; nan for an empty cell."""
    values = cells.get(key)
    return float(np.mean(values)) if values else float("nan")


def aggregate(records) -> MetricsReport:
    """Stratified means with method deltas, from one pass that groups the
    record values by table cell. All methods must cover the identical set
    of mixture ids."""
    ids = defaultdict(set)
    dims, sirs, pairs = set(), set(), set()
    cells = defaultdict(list)  # (table, ...cell key) -> values in record order
    for r in records:
        d, m = r.embedding_dim, r.method
        ids[m].add(r.id)
        dims.add(d)
        sirs.add(r.sir_db)
        pairs.add(r.family_pair)
        cells["sir", d, m, r.sir_db].append(r.sdr_db)
        cells["sir", d, m, "avg"].append(r.sdr_db)
        cells["pair", d, m, r.family_pair].append(r.sdr_db)
        cells["npa", m, r.sir_db].append(r.npa_db)
        cells["err", m, r.sir_db].append(r.mask_error_rate)
    methods = sorted(ids)
    for m in methods[1:]:
        if ids[m] != ids[methods[0]]:
            missing = sorted(ids[methods[0]] ^ ids[m])
            raise DataError(
                f"methods evaluated on different mixture sets; mismatched ids: {missing}"
            )
    dims, sirs, pairs = sorted(dims), sorted(sirs), sorted(pairs)
    sdr_by_sir = {(d, m): {k: _mean(cells, "sir", d, m, k) for k in [*sirs, "avg"]}
                  for d in dims for m in methods}
    sdr_by_family = {(d, m): {p: _mean(cells, "pair", d, m, p) for p in pairs}
                     for d in dims for m in methods}
    mask_quality = {}
    if {"dc", "proposed"} <= set(methods):
        for sir in sirs:
            mask_quality[sir] = {
                "improved_npa": _mean(cells, "npa", "proposed", sir)
                - _mean(cells, "npa", "dc", sir),
                "relative_error_pct": relative_error_improvement(
                    _mean(cells, "err", "dc", sir), _mean(cells, "err", "proposed", sir)
                ),
            }
    return MetricsReport(methods, sirs, sdr_by_sir, sdr_by_family, mask_quality)


def records_to_csv(records, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["id", "method", "embedding_dim", "sir_db", "family_pair",
             "sdr_db", "sdr_mean_db", "npa_db", "mask_error_rate"]
        )
        for r in records:
            writer.writerow(
                [r.id, r.method, r.embedding_dim, r.sir_db, r.family_pair,
                 repr(r.sdr_db), repr(r.sdr_mean_db), repr(r.npa_db),
                 repr(r.mask_error_rate)]
            )


def report_to_csv(report: MetricsReport, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["table", "embedding_dim", "method", "key", "value"])
        for (dim, m), cell in report.sdr_by_sir.items():
            for key, value in cell.items():
                writer.writerow(["sdr_by_sir", dim, m, key, repr(value)])
        for (dim, m), cell in report.sdr_by_family.items():
            for key, value in cell.items():
                writer.writerow(["sdr_by_family", dim, m, key, repr(value)])
        for sir, cell in report.mask_quality.items():
            for key, value in cell.items():
                writer.writerow(
                    ["mask_quality", "", "", f"{key}@{sir}",
                     "n/a" if value is None else repr(value)]
                )


def _fmt(x):
    return "  n/a" if x is None or not np.isfinite(x) else f"{x:6.2f}"


def report_to_text(report: MetricsReport) -> str:
    """Pretty tables: SDR stratified by SIR (with an Avg. column), SDR by
    family pairing, and mask-quality deltas when both methods are present."""
    lines = []
    sirs = report.sir_values
    lines.append("SDR (dB) vs SIR")
    header = "Dim  Method    " + "".join(f"{s:>7.0f}" for s in sirs) + "   Avg."
    lines.append(header)
    dims = sorted({dim for dim, _ in report.sdr_by_sir})
    for dim in dims:
        for m in report.methods:
            cell = report.sdr_by_sir[(dim, m)]
            row = f"{dim:>3d}  {m:<8s}" + "".join(
                f" {_fmt(cell[s])}" for s in sirs
            ) + f" {_fmt(cell['avg'])}"
            lines.append(row)
        if {"dc", "proposed"} <= set(report.methods):
            dc = report.sdr_by_sir[(dim, "dc")]
            prop = report.sdr_by_sir[(dim, "proposed")]
            row = f"{dim:>3d}  improve " + "".join(
                f" {_fmt(prop[s] - dc[s])}" for s in sirs
            ) + f" {_fmt(prop['avg'] - dc['avg'])}"
            lines.append(row)
    lines.append("")
    lines.append("SDR (dB) vs family pairing")
    pairs = sorted(next(iter(report.sdr_by_family.values())).keys()) if report.sdr_by_family else []
    lines.append("Dim  Method    " + "".join(f"{p:>8s}" for p in pairs))
    for dim in dims:
        for m in report.methods:
            cell = report.sdr_by_family[(dim, m)]
            lines.append(
                f"{dim:>3d}  {m:<8s}" + "".join(f"  {_fmt(cell[p])}" for p in pairs)
            )
    if report.mask_quality:
        lines.append("")
        lines.append("Mask quality (proposed vs dc)")
        lines.append("SIR   improved NPA (dB)   relative error rate (%)")
        for sir in sirs:
            cell = report.mask_quality[sir]
            lines.append(
                f"{sir:>4.0f}   {_fmt(cell['improved_npa'])}              "
                f"{_fmt(cell['relative_error_pct'])}"
            )
    return "\n".join(lines) + "\n"
