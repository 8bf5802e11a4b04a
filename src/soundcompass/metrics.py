"""Extraction-quality and spatial-fidelity metrics.

SNR-family scores are capped at +-100 dB BEFORE improvement subtraction, so a
perfect estimate against a -3 dB mixture reports an improvement of 103 dB
rather than infinity. Multichannel scores are computed per channel and
averaged. Spatial cues (ILD, IPD, ITD) are per mic pair; pairs with a silent
channel are flagged undefined (NaN) and excluded from mean absolute errors.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .audio_io import MultichannelWaveform
from .spectral import FFT_SIZE, HOP, WINDOW, stft

SNR_CAP_DB = 100.0
ENERGY_FLOOR = 1e-12
IPD_GATE_DB = -60.0

CSV_HEADER = ["scene_id", "source_id", "snri_db", "si_snri_db", "d_ild_db", "d_ipd_rad", "d_itd_us"]
PER_PAIR_HEADER = ["scene_id", "source_id", "i", "j", "d_ild_db", "d_ipd_rad", "d_itd_us"]


def _cap(db: float) -> float:
    return max(-SNR_CAP_DB, min(SNR_CAP_DB, db))


def _ratio_db(num: float, den: float) -> float:
    if num <= 0.0:  # a silent estimate scores the floor even when its residual is 0 too
        return -SNR_CAP_DB
    if den <= 0.0:
        return SNR_CAP_DB
    return _cap(10.0 * math.log10(num / den))


def _as_2d(x) -> np.ndarray:
    if isinstance(x, MultichannelWaveform):
        return x.samples
    a = np.asarray(x, dtype=np.float64)
    return a[None, :] if a.ndim == 1 else a


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel inner product a[c] . b[c] of two [C, S] arrays."""
    return np.einsum("cs,cs->c", a, b)


def _energies(x: np.ndarray) -> np.ndarray:
    """Per-channel energy sum(x[c]^2) of a [C, S] array."""
    return _row_dots(x, x)


def _checked_2d(est, ref):
    """(est, ref, per-channel reference energy) as [C, S] arrays."""
    e, r = _as_2d(est), _as_2d(ref)
    if e.shape != r.shape:
        raise ValueError(f"shape mismatch {e.shape} vs {r.shape}")
    rr = _energies(r)
    silent = np.flatnonzero(rr <= 0.0)
    if silent.size:
        raise ValueError(f"reference channel {silent[0]} is all zero")
    return e, r, rr


def _mean_ratio_db(num: np.ndarray, den: np.ndarray) -> float:
    """Channel mean of the per-channel capped ratios."""
    return float(np.mean([_ratio_db(float(n), float(d)) for n, d in zip(num, den)]))


def snr(est, ref) -> float:
    """10 log10(||ref||^2 / ||est - ref||^2), channel-averaged, capped +-100."""
    e, r, rr = _checked_2d(est, ref)
    return _mean_ratio_db(rr, _energies(e - r))


def si_snr(est, ref) -> float:
    """Scale-invariant SNR: project est onto ref, compare to the residual."""
    e, r, rr = _checked_2d(est, ref)
    scale = _row_dots(e, r) / rr  # s_target = scale * r
    # row-major even when r is a channel-interleaved WAV view, so that the
    # subtraction runs along contiguous rows
    resid = np.multiply(scale[:, None], r, order="C")
    np.subtract(e, resid, out=resid)
    # ||s_target||^2 = scale^2 rr, so s_target needs no array of its own
    return _mean_ratio_db(scale * scale * rr, _energies(resid))


def snr_i(est, ref, mixture) -> float:
    """SNR improvement over the unprocessed mixture (caps applied first)."""
    return snr(est, ref) - snr(mixture, ref)


def si_snr_i(est, ref, mixture) -> float:
    return si_snr(est, ref) - si_snr(mixture, ref)


# ---------------------------------------------------------------------------
# Spatial cues


def _ild_db(energies: np.ndarray, i: int, j: int) -> float:
    """Inter-channel level difference 10 log10(E_i/E_j); NaN if a channel is silent."""
    ei, ej = float(energies[i]), float(energies[j])
    if ei < ENERGY_FLOOR or ej < ENERGY_FLOOR:
        return math.nan
    return 10.0 * math.log10(ei / ej)


def gcc_phat_itd(w: MultichannelWaveform, pair: tuple[int, int], max_lag_s: float) -> float:
    """Time difference of arrival in seconds; positive when channel j lags i.

    Whitened cross-correlation: peak lag of ifft(X_j conj(X_i)/|.|) within
    +-max_lag_s, refined by a 3-point parabolic fit. NaN for silent channels.
    The transform has nfft = the smallest power of two >= S + max_lag points,
    so no searched lag wraps around; only PHAT's frequency grid differs from
    the full 2S - 1 transform's, which moves ITDs by at most 0.89 us on 4 s
    benchmark mixtures (see _gcc_phat_itds).
    """
    return _gcc_phat_itds(w, [_check_pair(pair, w.num_channels)], max_lag_s)[0]


def _gcc_phat_itds(w: MultichannelWaveform, pairs: list, max_lag_s: float) -> list[float]:
    """gcc_phat_itd for each of several checked pairs of one signal.

    Each channel a defined pair uses is transformed and whitened once; the
    product of two whitened spectra is the whitened cross-spectrum. Each
    pair's correlation is reduced to its searched lags before the next pair
    is formed, so memory does not grow with the pair count.

    The lag window is round(max_lag_s * fs), capped at nfft_full // 2 - 1 where
    nfft_full is the power of two above 2S - 1 that holds every lag. The
    transform then takes nfft = the smallest power of two >= S + max_lag: a
    lag l with |l| <= max_lag aliases only with l -+ nfft, and |l -+ nfft| >= S
    lies outside the linear correlation's support, so every lag read is still
    a linear-correlation lag (the rule extractor._lag_spectra uses). Only the
    frequency grid that PHAT whitens on changes with nfft: against a transform
    at nfft_full, the per-pair ITDs of 4 s benchmark mixtures move by at most
    0.89 us (1.4% of a sample), and the evaluate reports of
    scripts/output_digests.py by at most 0.052 us. A capped window keeps
    nfft_full.
    """
    x = w.samples
    live = _energies(x) >= ENERGY_FLOOR
    defined = [bool(live[i] and live[j]) for i, j in pairs]
    if not any(defined):
        return [math.nan] * len(pairs)
    if not (max_lag_s > 0 and math.isfinite(max_lag_s)):
        raise ValueError(f"max_lag_s must be positive and finite, got {max_lag_s}")
    s = x.shape[1]
    nfft_full = 1 << max(1, (2 * s - 1).bit_length())
    # capped before rounding, which rounds the same, so a huge finite max_lag_s cannot overflow
    max_lag = round(min(max_lag_s * w.sample_rate, nfft_full // 2 - 1))
    nfft = 1 << (s + max_lag - 1).bit_length()
    lags = np.arange(-max_lag, max_lag + 1)

    white = {}
    for c in {c for p, ok in zip(pairs, defined) if ok for c in p}:
        spec = np.fft.rfft(x[c], nfft)
        mag = np.abs(spec)
        np.divide(spec, mag, out=spec, where=mag > 0)  # bins with mag 0 stay 0
        white[c] = spec
    del mag

    itds = []
    for (i, j), ok in zip(pairs, defined):
        if not ok:
            itds.append(math.nan)
            continue
        cross = np.conj(white[i])
        cross *= white[j]
        vals = np.fft.irfft(cross, nfft)[lags % nfft]
        itds.append(_refined_peak_lag(vals, lags) / w.sample_rate)
    return itds


def _refined_peak_lag(vals: np.ndarray, lags: np.ndarray) -> float:
    """Lag of the largest value, refined by a 3-point parabolic fit."""
    k = int(np.argmax(vals))
    peak_lag = float(lags[k])
    if 0 < k < len(vals) - 1:
        y0, y1, y2 = vals[k - 1], vals[k], vals[k + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0:
            peak_lag += 0.5 * (y0 - y2) / denom
    return peak_lag


def _check_pair(pair, m: int) -> tuple[int, int]:
    i, j = int(pair[0]), int(pair[1])
    if i == j or not (0 <= i < m and 0 <= j < m):
        raise ValueError(f"pair {pair} must be two distinct channels below {m}")
    return i, j


@dataclass
class PairErrors:
    pair: tuple[int, int]
    d_ild_db: float
    d_ipd_rad: float
    d_itd_us: float

    @property
    def defined(self) -> bool:
        return not (
            math.isnan(self.d_ild_db) or math.isnan(self.d_ipd_rad) or math.isnan(self.d_itd_us)
        )


def spatial_errors(
    est: MultichannelWaveform,
    ref: MultichannelWaveform,
    max_lag_s: float | None = None,
) -> tuple[float, float, float, list]:
    """MAE of ILD/IPD/ITD cues over all channel pairs, est vs ref.

    IPD differences are averaged only over bins whose smallest magnitude
    across the four involved spectra stays within 60 dB of the overall peak;
    phases of near-silent bins are noise. Returns (d_ild_db, d_ipd_rad,
    d_itd_us, per_pair) where undefined pairs are excluded from the means; with
    no defined pair (one channel has none) the means are NaN.
    """
    if est.samples.shape != ref.samples.shape or est.sample_rate != ref.sample_rate:
        raise ValueError("est and ref must share shape and sample rate")
    m = est.num_channels
    if max_lag_s is None:
        max_lag_s = 64 / est.sample_rate

    x_est = stft(est, WINDOW, FFT_SIZE, HOP).values
    x_ref = stft(ref, WINDOW, FFT_SIZE, HOP).values
    mag_est, mag_ref = np.abs(x_est), np.abs(x_ref)
    peak = max(mag_est.max(), mag_ref.max())
    gate = peak * 10.0 ** (IPD_GATE_DB / 20.0)
    # peak == 0: a zero gate would admit every silent bin
    loud = (mag_est >= gate) & (mag_ref >= gate) & (peak > 0.0)

    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    first, second = [i for i, _ in pairs], [j for _, j in pairs]
    mask = loud[first] & loud[second]
    # IPD_est - IPD_ref per pair from one phase per channel and signal,
    # wrapped to [-pi, pi]; exactly 0 when est == ref
    phase = np.angle(x_est) - np.angle(x_ref)
    diff = phase[second] - phase[first]
    diff -= (2.0 * np.pi) * np.rint(diff / (2.0 * np.pi))
    np.abs(diff, out=diff)

    e_est, e_ref = _energies(est.samples), _energies(ref.samples)
    itd_est = _gcc_phat_itds(est, pairs, max_lag_s)
    itd_ref = _gcc_phat_itds(ref, pairs, max_lag_s)
    per_pair = []
    for p, (i, j) in enumerate(pairs):
        d_ild = abs(_ild_db(e_est, i, j) - _ild_db(e_ref, i, j))
        d_ipd = float(diff[p][mask[p]].mean()) if mask[p].any() else math.nan
        d_itd = abs(itd_est[p] - itd_ref[p]) * 1e6
        per_pair.append(PairErrors((i, j), d_ild, d_ipd, d_itd))

    def mean_defined(vals):
        ok = [v for v in vals if not math.isnan(v)]
        return float(np.mean(ok)) if ok else math.nan

    return (
        mean_defined([p.d_ild_db for p in per_pair]),
        mean_defined([p.d_ipd_rad for p in per_pair]),
        mean_defined([p.d_itd_us for p in per_pair]),
        per_pair,
    )


# ---------------------------------------------------------------------------
# Reports


@dataclass
class MetricsReport:
    scene_id: str
    source_id: str
    snri_db: float
    si_snri_db: float
    d_ild_db: float
    d_ipd_rad: float
    d_itd_us: float
    per_pair: list = field(default_factory=list)

    def row(self) -> list[str]:
        return [self.scene_id, self.source_id] + [
            f"{v:.6f}" for v in (self.snri_db, self.si_snri_db, self.d_ild_db, self.d_ipd_rad, self.d_itd_us)
        ]


def evaluate_extraction(
    est: MultichannelWaveform,
    ref: MultichannelWaveform,
    mixture: MultichannelWaveform,
    scene_id: str = "",
    source_id: str = "",
    max_lag_s: float | None = None,
) -> MetricsReport:
    d_ild, d_ipd, d_itd, pairs = spatial_errors(est, ref, max_lag_s=max_lag_s)
    return MetricsReport(
        scene_id=scene_id,
        source_id=source_id,
        snri_db=snr_i(est, ref, mixture),
        si_snri_db=si_snr_i(est, ref, mixture),
        d_ild_db=d_ild,
        d_ipd_rad=d_ipd,
        d_itd_us=d_itd,
        per_pair=pairs,
    )


def write_reports_csv(reports: list, path) -> None:
    """One row per report plus a trailing mean row over finite values."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow(r.row())
        cols = []
        for name in ("snri_db", "si_snri_db", "d_ild_db", "d_ipd_rad", "d_itd_us"):
            vals = [getattr(r, name) for r in reports if not math.isnan(getattr(r, name))]
            cols.append(f"{float(np.mean(vals)):.6f}" if vals else "nan")
        writer.writerow(["mean", ""] + cols)


def write_per_pair_csv(reports: list, path) -> None:
    """One row per mic pair of each report, formatted as write_reports_csv's rows."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(PER_PAIR_HEADER)
        for r in reports:
            for p in r.per_pair:
                errors = (p.d_ild_db, p.d_ipd_rad, p.d_itd_us)
                writer.writerow([r.scene_id, r.source_id, *p.pair] + [f"{v:.6f}" for v in errors])
