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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _steering_taps(delays: np.ndarray, half: int) -> np.ndarray:
    """The filter that delay_signal applies for each delay, as taps at lags -half..half: [*delays.shape, 2 * half + 1].

    delay_signal(x, d)[t] = sum_u h[u] x[t - u] over the zero-filled signal,
    with h[u] = kernel[u + KERNEL_HALF - floor(d)]; h[u] sits at index u + half.
    """
    d_int = np.floor(delays)
    kernels = fractional_delay_kernel((delays - d_int)[..., None])
    lags = np.arange(KERNEL_TAPS) + (half - KERNEL_HALF) + d_int[..., None].astype(int)
    taps = np.zeros(delays.shape + (2 * half + 1,))
    np.put_along_axis(taps, lags, kernels, axis=-1)
    return taps


def _lag_spectra(y: np.ndarray, m: int, lags: int, n: int) -> np.ndarray:
    """Spectra on an n-sample circle of c[i, k, l] = sum_t y[i, t] y[k, t + l] for i < m and |l| <= lags.

    The correlations are taken once over the whole signal by FFT; lags past
    +-lags are dropped. Returns [m, len(y), n // 2 + 1].
    """
    nfft = 1 << (y.shape[1] + lags - 1).bit_length()  # no wrap-around within +-lags
    ys = np.fft.rfft(y, nfft)
    keep = np.r_[0 : lags + 1, -lags:0]
    out = np.empty((m, len(y), n // 2 + 1), dtype=complex)
    for i, yi in enumerate(ys[:m]):  # one channel at a time keeps the [len(y), nfft] temporaries small
        window = np.zeros((len(y), n))
        window[:, keep] = np.fft.irfft(np.conj(yi) * ys, nfft)[:, keep]
        out[i] = np.fft.rfft(window)
    return out


def _steered(x, r, align, project, lo: int, hi: int):
    """(||out_c||^2, <out_c, r_c>) of every point on output samples [lo, hi), by definition: [2, 2, P, M].

    out_c is x through the align taps, averaged, then through project[c]
    ([P, M, 2 * half + 1] taps each). [0] is delay_and_sum's own output: its
    estimate is zero-filled outside [0, S) and it is cut to [0, S). In [1]
    both run on, as in the correlation sums. Each stacked product multiplies
    one point, so a point's bits do not depend on the rest of its chunk.
    """
    m, s = x.shape
    half = align.shape[-1] // 2
    width = 2 * half + 1
    t0 = lo - 2 * half  # the mixture reaches [lo, hi) through both filters from [t0, hi + 2 * half)
    a, b = max(t0, 0), min(hi + 2 * half, s)
    seg = np.pad(x[:, a:b], ((0, 0), (a - t0, hi + 2 * half - b)))  # zero-filled
    # tap k weighs sample t - (k - half) into sample t: windows[i, j * width + k] = x[j, t0 + i + 2 * half - k]
    windows = sliding_window_view(seg, width, axis=1)[..., ::-1].transpose(1, 0, 2).reshape(-1, m * width)
    est = (windows @ align.reshape(len(align), -1, 1))[..., 0] / m  # estimate samples [lo - half, hi + half), [P, .]
    t = np.arange(lo - half, hi + half)
    kept = slice(max(lo, 0) - lo, min(hi, s) - lo)  # the output samples inside [0, S)
    ref = r[:, max(lo, 0) : min(hi, s)]

    def reproject(e):  # [P, M, hi - lo]: tap k of project[c] weighs e[i + 2 * half - k] into out_c[lo + i]
        return project @ sliding_window_view(e, width, axis=-1)[..., ::-1].swapaxes(-1, -2)

    cut = reproject(est * ((t >= 0) & (t < s)))[..., kept]
    run_on = reproject(est)
    return np.array([[(cut**2).sum(-1), (cut * ref).sum(-1)], [(run_on**2).sum(-1), (run_on[..., kept] * ref).sum(-1)]])


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
    within rounding. Per output channel c, SI-SNR needs only <out_c, r_c>
    and ||out_c||^2, both bilinear in the mixture, which reaches out_c
    through alignment composed with re-projection. So the mixture's
    correlations with itself and with the reference are taken once over the
    lags the composed kernels reach, and each point is a kernel-weighted sum
    over them (the steered-response-power identity of DiBiase, Silverman &
    Brandstein, 2001), in the frequency domain for all points at once. Those
    sums describe an output that runs past the signal's ends; on a strip at
    each end, _steered swaps in delay_and_sum's own output, steered by
    definition, and a signal no longer than the two strips is steered by
    definition throughout. The strip and the lag window follow from the
    largest steering delay the array allows, so a point's value does not
    depend on the rest of the grid. Chunks of CONTOUR_CHUNK points run on up
    to jobs threads; no sum crosses chunks.
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
    lags = 4 * half  # reach of the correlation of two composed (alignment then re-projection) kernels
    n = 1 << (2 * lags).bit_length()  # holds lags -lags..lags apart

    delays = np.array([steering_delays(offsets, c) for c in clues]).reshape(-1, m) * fs
    xx, xr = np.split(_lag_spectra(np.concatenate([x, r]), m, lags, n), [m], axis=1)  # [M, M, n // 2 + 1] each

    # Parseval on the circle: sum over a real spectrum's half, interior bins twice
    weights = np.full(n // 2 + 1, 2.0 / n)
    weights[[0, -1]] = 1.0 / n
    energy, dot = sums = np.empty((2, len(delays), m))  # ||out_c||^2 and <out_c, r_c> per point and channel

    def spectra(taps):  # rfft of [P, M, 2 * half + 1] taps on the n-sample circle, lag u at u mod n
        placed = np.zeros(taps.shape[:-1] + (n,))
        placed[..., np.arange(-half, half + 1) % n] = taps
        return np.fft.rfft(placed)

    def score(chunks):  # writes only these chunks of sums
        for chunk in chunks:
            align_taps, project_taps = _steering_taps(-delays[chunk], half), _steering_taps(delays[chunk], half)
            if s <= 2 * half:  # the end strips cover the whole signal
                sums[:, chunk] = _steered(x, r, align_taps, project_taps, 0, s)[0]
                continue
            align, project = spectra(align_taps), spectra(project_taps)
            steered = sum(xx[:, j] * align[:, j, None] for j in range(m))  # [P, M, n // 2 + 1]
            power = (np.conj(align) * steered).real.sum(axis=1) / (m * m)  # steered response power, [P, n // 2 + 1]
            energy[chunk] = (project.real**2 + project.imag**2) * power[:, None] @ weights
            cross = sum(np.conj(align[:, i, None]) * xr[i] for i in range(m)) / m  # [P, M, n // 2 + 1]
            dot[chunk] = (np.conj(project) * cross).real @ weights
            # delay_and_sum's output differs from the sums' only up to half samples inside either end, 2 * half outside
            for lo, hi in ((-2 * half, half), (s - half, s + 2 * half)):
                cut, run_on = _steered(x, r, align_taps, project_taps, lo, hi)
                sums[:, chunk] += cut - run_on

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
