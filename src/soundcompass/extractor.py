"""Classical steered extraction: delay-and-sum driven by a direction clue.

Far-field model: a plane wave from unit direction u reaches the mic at offset
r_m a time (u . r_m)/c earlier than the array center, so the steering delay is
tau_m = -(u . r_m)/c. Channels are advanced by their steering delays, averaged
(coherent at the steered direction, incoherent elsewhere), and the estimate is
re-projected to M channels by re-applying each delay so spatial metrics remain
computable against multichannel references.

contour_grid measures how extraction quality falls off as the clue moves away
from a bearing: one SI-SNR improvement per (azimuth, elevation) offset.
"""

from __future__ import annotations

import math

import numpy as np

from . import metrics
from .audio_io import MultichannelWaveform
from .clues import DoAClue
from .delays import KERNEL_HALF, KERNEL_TAPS, SPEED_OF_SOUND, delay_signal, fractional_delay_kernel

CONTOUR_CHUNK = 256  # grid points contour_grid scores at once; a default 13x13 grid is one chunk


def steering_delays(offsets: np.ndarray, clue: DoAClue) -> np.ndarray:
    """tau_m = -(u . r_m)/c in seconds, [M]."""
    offsets = np.asarray(offsets, dtype=np.float64)
    if offsets.ndim != 2 or offsets.shape[1] != 3:
        raise ValueError("offsets must be [M x 3]")
    u = clue.unit_vector()
    return -(offsets @ u) / SPEED_OF_SOUND


def delay_and_sum(
    mixture: MultichannelWaveform, clue: DoAClue, offsets: np.ndarray
) -> MultichannelWaveform:
    """Steer, average, re-project; M=1 input passes through untouched."""
    if not (math.isfinite(clue.azimuth) and math.isfinite(clue.polar)):
        raise ValueError("clue angles must be finite")
    offsets = np.asarray(offsets, dtype=np.float64)
    m = mixture.num_channels
    if offsets.shape[0] != m:
        raise ValueError(f"{offsets.shape[0]} offsets for {m} channels")
    if m == 1:
        return MultichannelWaveform(mixture.samples.copy(), mixture.sample_rate)

    fs = mixture.sample_rate
    delays = steering_delays(offsets, clue) * fs  # samples
    aligned = np.stack(
        [delay_signal(mixture.samples[ch], -delays[ch]) for ch in range(m)]
    )
    est = aligned.mean(axis=0)
    out = np.stack([delay_signal(est, delays[ch]) for ch in range(m)])
    return MultichannelWaveform(out, fs)


def _kernel_spectra(delays: np.ndarray, n: int) -> np.ndarray:
    """rfft of the filter that delay_signal applies for each delay, on an n-sample circle.

    delay_signal(x, d)[t] = sum_u h[u] x[t - u] over the zero-filled signal,
    with h[u] = kernel[u + KERNEL_HALF - floor(d)]; h[u] sits at index u mod n.
    Returns [*delays.shape, n // 2 + 1].
    """
    d_int = np.floor(delays)
    kernels = fractional_delay_kernel((delays - d_int)[..., None])
    lags = np.arange(KERNEL_TAPS) - KERNEL_HALF + d_int[..., None].astype(int)
    placed = np.zeros(delays.shape + (n,))
    np.put_along_axis(placed, lags % n, kernels, axis=-1)
    return np.fft.rfft(placed)


def _lag_spectra(x: np.ndarray, y: np.ndarray, lags: int, n: int) -> np.ndarray:
    """Spectra on an n-sample circle of c[i, k, l] = sum_t x[i, t] y[k, t + l] for |l| <= lags.

    The correlations are taken once over the whole signal by FFT; lags past
    +-lags are dropped. Returns [len(x), len(y), n // 2 + 1].
    """
    s = x.shape[1]
    nfft = 1 << (s + lags - 1).bit_length()  # no wrap-around within +-lags
    xs = np.fft.rfft(x, nfft)
    ys = np.fft.rfft(y, nfft)
    keep = np.r_[0 : lags + 1, -lags:0]
    out = np.empty((len(x), len(y), n // 2 + 1), dtype=complex)
    for i, xi in enumerate(xs):  # one channel at a time keeps the [len(y), nfft] temporaries small
        window = np.zeros((len(y), n))
        window[:, keep] = np.fft.irfft(np.conj(xi) * ys, nfft)[:, keep]
        out[i] = np.fft.rfft(window)
    return out


def _edge_sums(x, r, align, project, lo: int, hi: int, half: int):
    """Corrections to every point's (||out_c||^2, <out_c, r_c>) from output samples [lo, hi), [P, M] each.

    The correlation sums score an output whose aligned estimate runs past the
    signal's ends. On [lo, hi) that output is subtracted and delay_and_sum's
    own, which zero-fills the estimate outside [0, S), is added. Every filter
    reaches at most half samples, so these outputs read the mixture only
    within 2 * half samples of [lo, hi); the circle of align/project must
    hold hi - lo + 4 * half samples.
    """
    m, s = x.shape
    n = 2 * (align.shape[-1] - 1)
    j0 = max(0, lo - 2 * half)
    seg = x[:, j0 : min(s, hi + 2 * half)]
    origin = j0 - 2 * half  # sample index at circle position 0
    placed = np.zeros((m, n))
    placed[:, 2 * half : 2 * half + seg.shape[1]] = seg
    spec = np.fft.rfft(placed)
    est = sum(align[:, i] * spec[i] for i in range(m)) / m  # aligned estimate, [P, n // 2 + 1]
    full = np.fft.irfft(project * est[:, None], n)
    t = np.arange(origin, origin + n)
    zero_filled = np.fft.rfft(np.fft.irfft(est, n) * ((t >= 0) & (t < s)))
    trunc = np.fft.irfft(project * zero_filled[:, None], n)
    a, b = max(lo, 0), min(hi, s)  # the part of [lo, hi) inside the signal
    full_in = full[..., a - origin : b - origin]
    trunc_in = trunc[..., a - origin : b - origin]
    energy = (trunc_in * trunc_in).sum(-1) - (full[..., lo - origin : hi - origin] ** 2).sum(-1)
    dot = ((trunc_in - full_in) * r[:, a:b]).sum(-1)
    return energy, dot


def contour_grid(
    mixture: MultichannelWaveform,
    ref: MultichannelWaveform,
    offsets: np.ndarray,
    clue: DoAClue,
    grid,
    jobs: int = 1,
) -> np.ndarray:
    """SI-SNR improvement of delay_and_sum steered at each offset from clue, [len(grid)].

    grid holds (d_az, d_el) offsets in degrees; the steered elevation is
    clamped to [-90, 90]. Each entry equals
    si_snr_i(delay_and_sum(mixture, steered, offsets), ref, mixture) to
    within rounding, but no point touches the signal. Per output channel c,
    SI-SNR needs only <out_c, r_c> and ||out_c||^2, and both are bilinear in
    the mixture: out_c is the mixture through alignment composed with
    re-projection. So the mixture's channel auto- and cross-correlations,
    and its cross-correlations with the reference, are taken once over the
    lags the composed kernels reach, and each point is a kernel-weighted sum
    over them (the steered-response-power identity of DiBiase, Silverman &
    Brandstein, 2001), evaluated in the frequency domain for all points at
    once. Those sums describe an estimate that runs past the signal's ends;
    _edge_sums swaps in the zero-filled one on a strip at each end. The strip
    and the lag window follow from the largest steering delay the array
    allows, so a point's value does not depend on the rest of the grid.
    Chunks of CONTOUR_CHUNK points run on up to jobs threads; no sum crosses chunks.

    A signal no longer than the two edge strips is scored point by point,
    serially: there the sums only cancel against the strips, and the rounding
    left would decide the ratio of an output channel that its kernels barely
    or never reach, as when the signal is shorter than the steering delays.
    """
    az, el = clue.to_degrees()
    clues = [DoAClue.from_degrees(az + d_az, min(max(el + d_el, -90.0), 90.0)) for d_az, d_el in grid]
    base = metrics.si_snr(mixture, ref)
    offsets = np.asarray(offsets, dtype=np.float64)
    m, s = mixture.samples.shape
    if offsets.shape[0] != m:
        raise ValueError(f"{offsets.shape[0]} offsets for {m} channels")
    if m == 1:  # delay_and_sum passes mono input through unchanged
        return np.zeros(len(clues))

    x, r = mixture.samples, ref.samples
    fs = mixture.sample_rate
    # every delay_signal kernel lies within +-half lags, whatever the clue: |floor(d)| <= int(reach) + 2
    reach = float(np.linalg.norm(offsets, axis=1).max()) * fs / SPEED_OF_SOUND
    half = KERNEL_HALF + int(reach) + 2
    if s <= 2 * half:
        return np.array([metrics.si_snr(delay_and_sum(mixture, c, offsets), ref) for c in clues]) - base
    lags = 4 * half  # reach of the correlation of two composed (alignment then re-projection) kernels
    n = 1 << (2 * lags).bit_length()  # holds lags -lags..lags apart, and an edge strip's 7 * half samples

    delays = np.array([steering_delays(offsets, c) for c in clues]).reshape(-1, m) * fs
    corr = _lag_spectra(x, np.concatenate([x, r]), lags, n)  # [M, 2M, n // 2 + 1]
    xx, xr = corr[:, :m], corr[:, m:]

    # Parseval on the circle: sum over a real spectrum's half, interior bins twice
    weights = np.full(n // 2 + 1, 2.0 / n)
    weights[[0, -1]] = 1.0 / n
    energy, dot = np.empty((2, len(delays), m))

    def score(chunks):  # writes only these chunks of energy and dot
        for chunk in chunks:
            align = _kernel_spectra(-delays[chunk], n)  # [P, M, n // 2 + 1]
            project = _kernel_spectra(delays[chunk], n)
            steered = sum(xx[:, j] * align[:, j, None] for j in range(m))  # [P, M, n // 2 + 1]
            power = (np.conj(align) * steered).real.sum(axis=1) / (m * m)  # steered response power, [P, n // 2 + 1]
            energy[chunk] = (project.real**2 + project.imag**2) * power[:, None] @ weights
            cross = sum(np.conj(align[:, i, None]) * xr[i] for i in range(m)) / m  # [P, M, n // 2 + 1]
            dot[chunk] = (np.conj(project) * cross).real @ weights
            # the zero-filled ends differ within half samples of each end
            for lo, hi in ((-2 * half, half), (s - half, s + 2 * half)):
                d_energy, d_dot = _edge_sums(x, r, align, project, lo, hi, half)
                energy[chunk] += d_energy
                dot[chunk] += d_dot

    chunks = [slice(i, i + CONTOUR_CHUNK) for i in range(0, len(delays), CONTOUR_CHUNK)]
    jobs = min(jobs, len(chunks))  # no idle threads
    if jobs > 1:  # each thread takes every jobs-th chunk
        from concurrent.futures import ThreadPoolExecutor  # imported here: a serial run loads no pool
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(score, [chunks[k::jobs] for k in range(jobs)]))  # reads every result, so errors propagate
    else:
        score(chunks)

    rr = metrics._energies(r)
    scale = dot / rr
    num = scale * scale * rr
    den = energy - scale * dot
    return np.array([metrics._mean_ratio_db(a, b) for a, b in zip(num, den)]) - base
