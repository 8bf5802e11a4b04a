import csv
import math
import tracemalloc

import numpy as np
import pytest
from scipy.signal import correlate

from soundcompass import (
    MetricsReport,
    MultichannelWaveform,
    evaluate_extraction,
    gcc_phat_itd,
    si_snr,
    si_snr_i,
    snr,
    snr_i,
    spatial_errors,
    write_reports_csv,
)
from soundcompass.delays import delay_signal
from soundcompass.metrics import (
    CSV_HEADER,
    ENERGY_FLOOR,
    IPD_GATE_DB,
    _gcc_phat_itds,
    _ratio_db,
)
from soundcompass.spectral import HOP as DEFAULT_HOP
from soundcompass.spectral import WINDOW as DEFAULT_WINDOW
from soundcompass.spectral import stft

FS = 16000


# ---------------------------------------------------------------------------
# SNR family


def test_snr_perfect_is_capped_at_100(rng):
    ref = rng.standard_normal(1000)
    assert snr(ref, ref) == 100.0
    assert si_snr(ref, ref) == 100.0


def test_si_snr_orthogonal_est_is_minus_100(rng):
    ref = np.zeros(8)
    ref[0] = 1.0
    est = np.zeros(8)
    est[1] = 1.0  # no component along ref
    assert si_snr(est, ref) == -100.0


def test_si_snr_silent_est_is_minus_100(rng):
    ref = rng.standard_normal((2, 64))
    # the residual is zero too, but a silent estimate holds none of the target
    assert si_snr(np.zeros_like(ref), ref) == -100.0


def test_snr_zero_db_for_equal_energy_orthogonal_noise():
    ref = np.zeros(16)
    ref[0] = 2.0
    noise = np.zeros(16)
    noise[1] = 2.0
    assert snr(ref + noise, ref) == pytest.approx(0.0, abs=1e-12)


def test_snr_known_value(rng):
    ref = rng.standard_normal(4096)
    noise = rng.standard_normal(4096)
    noise -= (noise @ ref) / (ref @ ref) * ref  # orthogonalize
    noise *= np.linalg.norm(ref) / np.linalg.norm(noise) / 10.0  # -20 dB
    assert snr(ref + noise, ref) == pytest.approx(20.0, abs=1e-9)


def test_si_snr_scale_invariant(rng):
    ref = rng.standard_normal(2048)
    est = ref + 0.1 * rng.standard_normal(2048)
    base = si_snr(est, ref)
    assert si_snr(3.7 * est, ref) == pytest.approx(base, abs=1e-9)
    assert si_snr(-2.0 * est, ref) == pytest.approx(base, abs=1e-9)
    # plain SNR is not scale invariant
    assert abs(snr(3.7 * est, ref) - snr(est, ref)) > 1.0


def test_improvement_zero_when_est_is_mixture(rng):
    ref = rng.standard_normal(1024)
    mixture = ref + rng.standard_normal(1024)
    assert snr_i(mixture, ref, mixture) == 0.0
    assert si_snr_i(mixture, ref, mixture) == 0.0


def test_cap_applied_before_improvement(rng):
    # raw est SNR of 103 dB must clamp to 100 before the mixture SNR (3 dB)
    # is subtracted: improvement reads 97, never 100
    ref = rng.standard_normal(4096)
    ref /= np.linalg.norm(ref)
    noise = rng.standard_normal(4096)
    noise -= (noise @ ref) * ref
    noise /= np.linalg.norm(noise)
    est = ref + noise * 10.0 ** (-103.0 / 20.0)
    mixture = ref + noise * 10.0 ** (-3.0 / 20.0)
    assert snr(est, ref) == 100.0
    assert snr_i(est, ref, mixture) == pytest.approx(100.0 - 3.0, abs=1e-9)
    # noisy mixture at -3 dB: the capped difference may exceed 100
    bad_mix = ref + noise * 10.0 ** (3.0 / 20.0)
    assert snr_i(est, ref, bad_mix) == pytest.approx(100.0 - (-3.0), abs=1e-9)


def test_snr_multichannel_average(rng):
    ref = rng.standard_normal((2, 512))
    noise = np.zeros_like(ref)
    for ch in range(2):
        n = rng.standard_normal(512)
        n -= (n @ ref[ch]) / (ref[ch] @ ref[ch]) * ref[ch]
        n *= np.linalg.norm(ref[ch]) / np.linalg.norm(n)
        noise[ch] = n * (0.1 if ch == 0 else 1.0)  # 20 dB and 0 dB
    assert snr(ref + noise, ref) == pytest.approx(10.0, abs=1e-9)


def test_snr_rejects_zero_reference(rng):
    with pytest.raises(ValueError):
        snr(rng.standard_normal(100), np.zeros(100))
    with pytest.raises(ValueError):
        si_snr(rng.standard_normal(100), np.zeros(100))


def test_snr_rejects_shape_mismatch(rng):
    with pytest.raises(ValueError):
        snr(rng.standard_normal(100), rng.standard_normal(101))


# ---------------------------------------------------------------------------
# ILD


def test_ild_values(rng):
    """spatial_errors' per-pair ILD error is |ILD_est - ILD_ref|, ILD = 10 log10(E_i/E_j)."""
    x = rng.standard_normal(2000)
    same = MultichannelWaveform(np.stack([x, x]), FS)
    louder_0 = MultichannelWaveform(np.stack([2.0 * x, x]), FS)
    louder_1 = MultichannelWaveform(np.stack([x, 2.0 * x]), FS)
    (p,) = spatial_errors(same, same)[3]
    assert p.d_ild_db == 0.0
    (p,) = spatial_errors(louder_0, same)[3]
    assert p.d_ild_db == pytest.approx(10.0 * math.log10(4.0), abs=1e-12)
    (p,) = spatial_errors(louder_0, louder_1)[3]
    assert p.d_ild_db == pytest.approx(20.0 * math.log10(4.0), abs=1e-12)


def test_ild_silent_channel_nan(rng):
    est = MultichannelWaveform(np.stack([rng.standard_normal(2000), np.zeros(2000)]), FS)
    ref = MultichannelWaveform(rng.standard_normal((2, 2000)), FS)
    (p,) = spatial_errors(est, ref)[3]
    assert math.isnan(p.d_ild_db) and not p.defined


# ---------------------------------------------------------------------------
# GCC-PHAT ITD


def brute_force_lag(xi, xj):
    """Plain cross-correlation peak, positive when x_j lags x_i."""
    c = correlate(xj, xi, mode="full")
    return int(np.argmax(c)) - (len(xi) - 1)


def test_gcc_matches_brute_force_oracle():
    rng = np.random.default_rng(123)
    n = 1024
    for trial in range(100):
        lag = int(rng.integers(-32, 33))
        base = rng.standard_normal(n + 64)
        xi = base[32 : 32 + n]
        xj = base[32 - lag : 32 - lag + n]  # x_j delayed by lag relative to x_i
        w = MultichannelWaveform(np.stack([xi, xj]), FS)
        got = gcc_phat_itd(w, (0, 1), max_lag_s=40.0 / FS)
        want = brute_force_lag(xi, xj) / FS
        assert got == pytest.approx(want, abs=0.25 / FS), (trial, lag)


def test_gcc_antisymmetry(rng):
    base = rng.standard_normal(2048 + 16)
    xi, xj = base[8 : 8 + 2048], base[3 : 3 + 2048]
    w = MultichannelWaveform(np.stack([xi, xj]), FS)
    a = gcc_phat_itd(w, (0, 1), max_lag_s=20.0 / FS)
    b = gcc_phat_itd(w, (1, 0), max_lag_s=20.0 / FS)
    assert a == pytest.approx(-b, abs=0.1 / FS)


def test_gcc_subsample_resolution(rng):
    x = rng.standard_normal(4096)
    frac_lag = 2.3
    xj = delay_signal(x, frac_lag)
    w = MultichannelWaveform(np.stack([x, xj]), FS)
    got = gcc_phat_itd(w, (0, 1), max_lag_s=16.0 / FS)
    assert got == pytest.approx(frac_lag / FS, abs=0.25 / FS)


def test_gcc_silent_channel_nan(rng):
    w = MultichannelWaveform(np.stack([rng.standard_normal(512), np.zeros(512)]), FS)
    assert math.isnan(gcc_phat_itd(w, (0, 1), max_lag_s=1e-3))


def test_gcc_zero_lag(rng):
    x = rng.standard_normal(1024)
    w = MultichannelWaveform(np.stack([x, x]), FS)
    assert gcc_phat_itd(w, (0, 1), max_lag_s=1e-3) == pytest.approx(0.0, abs=1e-9)


def test_gcc_respects_search_window(rng):
    # true lag 20 samples, window only +-10: the reported peak stays inside
    base = rng.standard_normal(1200)
    xi, xj = base[20:1044], base[0:1024]
    w = MultichannelWaveform(np.stack([xi, xj]), FS)
    got = gcc_phat_itd(w, (0, 1), max_lag_s=10.0 / FS)
    assert abs(got) <= 10.5 / FS


# ---------------------------------------------------------------------------
# Spatial error aggregation


def test_spatial_errors_identity(rng):
    x = MultichannelWaveform(rng.standard_normal((4, 8000)), FS)
    d_ild, d_ipd, d_itd, pairs = spatial_errors(x, x)
    assert d_ild == 0.0
    assert d_ipd == pytest.approx(0.0, abs=1e-12)
    assert d_itd == pytest.approx(0.0, abs=1e-9)
    assert len(pairs) == 6  # 4 choose 2


def test_spatial_errors_scaled_channel(rng):
    ref = rng.standard_normal((2, 8000))
    est = ref.copy()
    est[0] *= 2.0
    d_ild, d_ipd, d_itd, _ = spatial_errors(
        MultichannelWaveform(est, FS), MultichannelWaveform(ref, FS)
    )
    assert d_ild == pytest.approx(10.0 * math.log10(4.0), abs=1e-9)
    assert d_ipd == pytest.approx(0.0, abs=1e-9)  # positive scaling keeps phase
    assert d_itd == pytest.approx(0.0, abs=1e-9)


def test_spatial_errors_silent_pair_nan(rng):
    est = np.zeros((2, 4000))
    ref = np.zeros((2, 4000))
    d_ild, d_ipd, d_itd, pairs = spatial_errors(
        MultichannelWaveform(est, FS), MultichannelWaveform(ref, FS)
    )
    assert math.isnan(d_ild) and math.isnan(d_ipd) and math.isnan(d_itd)
    assert not pairs[0].defined


def test_spatial_errors_validation(rng):
    a = MultichannelWaveform(rng.standard_normal((2, 1000)), FS)
    b = MultichannelWaveform(rng.standard_normal((2, 999)), FS)
    mono = MultichannelWaveform(rng.standard_normal((1, 1000)), FS)
    with pytest.raises(ValueError):
        spatial_errors(a, b)
    # one channel has no pairs, so every mean is NaN, as for undefined pairs
    d_ild, d_ipd, d_itd, pairs = spatial_errors(mono, mono)
    assert math.isnan(d_ild) and math.isnan(d_ipd) and math.isnan(d_itd)
    assert pairs == []


# ---------------------------------------------------------------------------
# Reference-pinned kernels: the per-channel and per-pair loops these
# functions replaced, kept here as references


def loop_snr(est, ref):
    e, r = np.atleast_2d(est), np.atleast_2d(ref)
    vals = []
    for ch in range(r.shape[0]):
        rr = float(r[ch] @ r[ch])
        if rr <= 0.0:
            raise ValueError(f"reference channel {ch} is all zero")
        vals.append(_ratio_db(rr, float((e[ch] - r[ch]) @ (e[ch] - r[ch]))))
    return float(np.mean(vals))


def loop_si_snr(est, ref):
    e, r = np.atleast_2d(est), np.atleast_2d(ref)
    vals = []
    for ch in range(r.shape[0]):
        rr = float(r[ch] @ r[ch])
        if rr <= 0.0:
            raise ValueError(f"reference channel {ch} is all zero")
        s_target = (float(e[ch] @ r[ch]) / rr) * r[ch]
        resid = e[ch] - s_target
        vals.append(_ratio_db(float(s_target @ s_target), float(resid @ resid)))
    return float(np.mean(vals))


def pair_gcc_phat_itd_at(w, pair, max_lag_s, wrap_free):
    """Both channels transformed per call, every lag inverted.

    The transform is nfft_full points (the power of two above 2S - 1), or with
    wrap_free the smallest power of two >= S + max_lag.
    """
    i, j = pair
    xi, xj = w.samples[i], w.samples[j]
    if float(xi @ xi) < ENERGY_FLOOR or float(xj @ xj) < ENERGY_FLOOR:
        return math.nan
    s = xi.shape[0]
    nfft = 1 << max(1, (2 * s - 1).bit_length())
    max_lag = min(int(round(max_lag_s * w.sample_rate)), nfft // 2 - 1)
    if wrap_free:
        nfft = 1 << (s + max_lag - 1).bit_length()
    cross = np.fft.rfft(xj, nfft) * np.conj(np.fft.rfft(xi, nfft))
    mag = np.abs(cross)
    cross = np.where(mag > 0, cross / np.maximum(mag, 1e-300), 0.0)
    corr = np.fft.irfft(cross, nfft)
    lags = np.arange(-max_lag, max_lag + 1)
    vals = corr[lags % nfft]
    k = int(np.argmax(vals))
    peak_lag = float(lags[k])
    if 0 < k < len(vals) - 1:
        y0, y1, y2 = vals[k - 1], vals[k], vals[k + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0:
            peak_lag += 0.5 * (y0 - y2) / denom
    return peak_lag / w.sample_rate


def per_pair_gcc_phat_itd(w, pair, max_lag_s):
    """The reference: the shortest transform that no searched lag wraps around."""
    return pair_gcc_phat_itd_at(w, pair, max_lag_s, wrap_free=True)


def full_length_gcc_phat_itd(w, pair, max_lag_s):
    """The oracle that holds every lag of the correlation: nfft_full points."""
    return pair_gcc_phat_itd_at(w, pair, max_lag_s, wrap_free=False)


def pair_ild_db(w, i, j):
    """10 log10(E_i/E_j) of one pair; NaN if a channel is silent."""
    ei, ej = (float(w.samples[c] @ w.samples[c]) for c in (i, j))
    if ei < ENERGY_FLOOR or ej < ENERGY_FLOOR:
        return math.nan
    return 10.0 * math.log10(ei / ej)


def per_pair_spatial_errors(est, ref, max_lag_s=None):
    """One ILD and IPD per pair and signal from fresh energies and complex spectra, ITD per call."""
    m = est.num_channels
    if max_lag_s is None:
        max_lag_s = 64 / est.sample_rate
    spec_est = stft(est, DEFAULT_WINDOW, DEFAULT_WINDOW.length, DEFAULT_HOP)
    spec_ref = stft(ref, DEFAULT_WINDOW, DEFAULT_WINDOW.length, DEFAULT_HOP)
    x_est, x_ref = spec_est.values, spec_ref.values
    mag_est, mag_ref = np.abs(x_est), np.abs(x_ref)
    peak = max(mag_est.max(), mag_ref.max())
    gate = peak * 10.0 ** (IPD_GATE_DB / 20.0)
    rows = []
    for i in range(m):
        for j in range(i + 1, m):
            d_ild = abs(pair_ild_db(est, i, j) - pair_ild_db(ref, i, j))
            mask = (
                (mag_est[i] >= gate)
                & (mag_est[j] >= gate)
                & (mag_ref[i] >= gate)
                & (mag_ref[j] >= gate)
                & (peak > 0.0)
            )
            if mask.any():
                ipd_est = np.angle(x_est[j] * np.conj(x_est[i]))
                ipd_ref = np.angle(x_ref[j] * np.conj(x_ref[i]))
                diff = np.angle(np.exp(1j * (ipd_est - ipd_ref)))
                d_ipd = float(np.abs(diff[mask]).mean())
            else:
                d_ipd = math.nan
            itd_e = per_pair_gcc_phat_itd(est, (i, j), max_lag_s)
            itd_r = per_pair_gcc_phat_itd(ref, (i, j), max_lag_s)
            rows.append((d_ild, d_ipd, abs(itd_e - itd_r) * 1e6))
    return np.array(rows)


def spatial_pair(rng, m, n=6000):
    """est/ref: delayed copies of one source per channel, plus independent noise."""
    src = rng.standard_normal(n + 64)
    ref = np.stack([src[8 + 3 * c : 8 + 3 * c + n] for c in range(m)]) + 0.3 * rng.standard_normal((m, n))
    est = 0.8 * ref + 0.4 * rng.standard_normal((m, n))
    return MultichannelWaveform(est, FS), MultichannelWaveform(ref, FS)


SPATIAL_BOUND = 1e-9  # per-pair dB / rad / us; set before measuring


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("max_lag_s", [None, 5.0 / FS, 1.0], ids=["default", "5-lags", "above-cap"])
def test_spatial_errors_match_per_pair_loop(rng, m, max_lag_s):
    est, ref = spatial_pair(rng, m)
    if max_lag_s == 1.0:  # 16000 lags, capped at nfft/2 - 1
        est = MultichannelWaveform(est.samples[:, :300], FS)
        ref = MultichannelWaveform(ref.samples[:, :300], FS)
    *means, per_pair = spatial_errors(est, ref, max_lag_s=max_lag_s)
    got = np.array([(p.d_ild_db, p.d_ipd_rad, p.d_itd_us) for p in per_pair])
    want = per_pair_spatial_errors(est, ref, max_lag_s)
    assert [p.pair for p in per_pair] == [(i, j) for i in range(m) for j in range(i + 1, m)]
    np.testing.assert_allclose(got, want, rtol=0, atol=SPATIAL_BOUND)
    np.testing.assert_allclose(means, np.nanmean(want, axis=0), rtol=0, atol=SPATIAL_BOUND)


def test_spatial_errors_silent_channel_matches_per_pair_loop(rng):
    est, ref = spatial_pair(rng, 4)
    est.samples[2] = 0.0
    *means, per_pair = spatial_errors(est, ref, max_lag_s=5.0 / FS)
    got = np.array([(p.d_ild_db, p.d_ipd_rad, p.d_itd_us) for p in per_pair])
    want = per_pair_spatial_errors(est, ref, 5.0 / FS)
    silent = [2 in p.pair for p in per_pair]
    assert [not p.defined for p in per_pair] == silent
    np.testing.assert_allclose(got, want, rtol=0, atol=SPATIAL_BOUND)
    np.testing.assert_allclose(means, np.nanmean(want, axis=0), rtol=0, atol=SPATIAL_BOUND)


def test_spatial_errors_all_silent_matches_per_pair_loop():
    zero = MultichannelWaveform(np.zeros((4, 2000)), FS)  # peak == 0
    *means, per_pair = spatial_errors(zero, zero)
    got = np.array([(p.d_ild_db, p.d_ipd_rad, p.d_itd_us) for p in per_pair])
    assert np.isnan(got).all() and np.isnan(per_pair_spatial_errors(zero, zero)).all()
    assert all(math.isnan(v) for v in means)


@pytest.mark.parametrize("max_lag_s", [2.0 / FS, 6.0 / FS, 64.0 / FS, 1.0])
def test_gcc_phat_itd_matches_per_pair_loop(rng, max_lag_s):
    est, _ = spatial_pair(rng, 4, n=3000)
    for pair in [(0, 1), (1, 0), (0, 3), (3, 2)]:
        got = gcc_phat_itd(est, pair, max_lag_s)
        want = per_pair_gcc_phat_itd(est, pair, max_lag_s)
        assert abs(got - want) * 1e6 <= SPATIAL_BOUND, pair


GCC_DRIFT_BOUND = 0.05  # samples, against the full-length transform; set before measuring


@pytest.mark.parametrize("max_lag_s", [16.0 / FS, 64.0 / FS, 1.0])
def test_gcc_phat_itd_drift_from_full_length_transform(rng, max_lag_s):
    """Only the grid PHAT whitens on changes: each pair's ITD stays within 0.05 sample.

    Every window holds the true lags (at most 9 samples). A window that cuts the
    peak off reads the largest edge value of the noise, which can move by whole
    samples with the grid on either transform.
    """
    for n in (300, 3000):
        est, ref = spatial_pair(rng, 4, n=n)
        for w in (est, ref):
            for pair in [(i, j) for i in range(4) for j in range(i + 1, 4)]:
                got = gcc_phat_itd(w, pair, max_lag_s)
                want = full_length_gcc_phat_itd(w, pair, max_lag_s)
                assert abs(got - want) * FS <= GCC_DRIFT_BOUND, (n, pair)


def test_gcc_phat_itd_fractional_delays_as_accurate_as_full_length(rng):
    """Noise delayed by 0.1..0.9 sample: the mean |ITD error| is no worse than nfft_full's + 0.01 sample."""
    x = rng.standard_normal(4000)
    delays = np.arange(1, 10) / 10
    errs, full_errs = [], []
    for d in delays:
        w = MultichannelWaveform(np.stack([x, delay_signal(x, d)]), FS)
        errs.append(abs(gcc_phat_itd(w, (0, 1), 8.0 / FS) * FS - d))
        full_errs.append(abs(full_length_gcc_phat_itd(w, (0, 1), 8.0 / FS) * FS - d))
    assert np.mean(errs) <= np.mean(full_errs) + 0.01, (errs, full_errs)


def test_gcc_phat_itd_pairs_peak_allocation(rng):
    """All six pairs of a 4-channel, 4 s input hold no more than a few spectra.

    Four whitened spectra take 32 nfft bytes, one pair's cross-spectrum and
    correlation 16 nfft; 64 nfft leaves room for FFT scratch but not for the
    cross-spectra of every pair at once. nfft is the wrap-free length for 5
    lags, half the full-length transform's.
    """
    w = MultichannelWaveform(rng.standard_normal((4, 4 * FS)), FS)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    nfft = 1 << (w.num_samples + 5 - 1).bit_length()
    tracemalloc.start()
    try:
        itds = _gcc_phat_itds(w, pairs, 5.0 / FS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(itds) == 6
    assert peak <= 64 * nfft, peak / nfft


def test_gcc_phat_itd_checks_kept(rng):
    w = MultichannelWaveform(np.stack([rng.standard_normal(512), np.zeros(512), rng.standard_normal(512)]), FS)
    assert math.isnan(gcc_phat_itd(w, (0, 1), max_lag_s=0.0))  # silent first, as before
    with pytest.raises(ValueError, match="max_lag_s must be positive"):
        gcc_phat_itd(w, (0, 2), max_lag_s=0.0)
    for bad in (math.inf, math.nan, -math.inf):
        assert math.isnan(gcc_phat_itd(w, (0, 1), max_lag_s=bad))  # silent first here too
        with pytest.raises(ValueError, match="max_lag_s must be positive and finite"):
            gcc_phat_itd(w, (0, 2), max_lag_s=bad)
        with pytest.raises(ValueError, match="max_lag_s must be positive and finite"):
            spatial_errors(w, w, max_lag_s=bad)
    with pytest.raises(ValueError, match="two distinct channels"):
        gcc_phat_itd(w, (1, 1), max_lag_s=1e-3)


def test_snr_family_matches_channel_loop(rng):
    ref = rng.standard_normal((4, 5000))
    cases = [
        0.9 * ref + 0.1 * rng.standard_normal(ref.shape),
        ref,  # +100 dB cap on every channel
        np.stack([ref[0], -ref[1], np.zeros(5000), ref[3] + 1e-3]),  # mixed caps
    ]
    interleaved = np.asfortranarray(ref)  # the layout read_wav returns
    for est in cases:
        for r in (ref, interleaved):
            assert snr(est, r) == pytest.approx(loop_snr(est, ref), abs=1e-9)
            assert si_snr(est, r) == pytest.approx(loop_si_snr(est, ref), abs=1e-9)
    ref[2] = 0.0
    for fn in (snr, si_snr):
        with pytest.raises(ValueError, match="reference channel 2 is all zero"):
            fn(ref + 1.0, ref)


# ---------------------------------------------------------------------------
# Reports


def test_report_row_formatting():
    r = MetricsReport("sc", "s0", 1.23456789, -2.0, 0.5, 0.125, 31.25)
    row = r.row()
    assert row[0] == "sc" and row[1] == "s0"
    assert row[2] == "1.234568"
    assert row[3] == "-2.000000"


def test_evaluate_extraction_identity(rng):
    ref = MultichannelWaveform(rng.standard_normal((2, 8000)), FS)
    mix = MultichannelWaveform(ref.samples + rng.standard_normal((2, 8000)), FS)
    rep = evaluate_extraction(ref, ref, mix, scene_id="a", source_id="0")
    assert rep.snri_db > 0.0
    assert rep.d_ild_db == 0.0
    assert rep.d_itd_us == pytest.approx(0.0, abs=1e-6)


def test_write_reports_csv(tmp_path):
    reports = [
        MetricsReport("a", "0", 1.0, 2.0, 0.5, 0.1, 10.0),
        MetricsReport("b", "0", 3.0, 4.0, 1.5, math.nan, 20.0),
    ]
    path = tmp_path / "r.csv"
    write_reports_csv(reports, path)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == CSV_HEADER
    assert rows[1][0] == "a" and rows[2][0] == "b"
    mean = rows[3]
    assert mean[0] == "mean"
    assert float(mean[2]) == pytest.approx(2.0)  # mean of snri
    assert float(mean[5]) == pytest.approx(0.1)  # nan excluded from d_ipd mean
    assert float(mean[6]) == pytest.approx(15.0)
