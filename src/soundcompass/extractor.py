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

# contour_grid aligns this many points per matrix product; together with
# ALIGN_ROWS output samples per product it bounds the working set to a few
# tens of MB for 4-channel, 4 s mixtures at 16 kHz
CONTOUR_BLOCK = 32
ALIGN_ROWS = 2048


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


def _aligned_means(x: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Channel means of delay_signal(x[ch], shifts[p, ch]) for P points at once, [P, S].

    Every point's windowed-sinc taps (with their integer shifts folded in)
    are one column of a matrix, so each block of output samples is one
    matrix product against a window of the mixture instead of P x M
    convolutions. Equal to the per-point path up to summation order.
    """
    m, s = x.shape
    p = shifts.shape[0]
    d_int = np.floor(shifts).astype(int)
    lo = -KERNEL_HALF - int(d_int.max())  # est[n] reads x[n + lo .. n + hi]
    hi = KERNEL_HALF - int(d_int.min())
    width = hi - lo + 1
    taps = np.zeros((m, width, p))
    for i in range(p):
        for ch in range(m):
            kernel = fractional_delay_kernel(shifts[i, ch] - d_int[i, ch])
            # tap t multiplies x[n + KERNEL_HALF - d_int - t]: reversed, the last tap comes first
            r0 = KERNEL_HALF - d_int[i, ch] - (KERNEL_TAPS - 1) - lo
            taps[ch, r0 : r0 + KERNEL_TAPS, i] = kernel[::-1] / m
    taps = taps.reshape(m * width, p)

    pad = max(0, -lo)
    padded = np.zeros((m, pad + s + max(0, hi)))
    padded[:, pad : pad + s] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, width, axis=1)
    est = np.empty((p, s))
    for n0 in range(0, s, ALIGN_ROWS):
        n1 = min(n0 + ALIGN_ROWS, s)
        rows = windows[:, pad + lo + n0 : pad + lo + n1].transpose(1, 0, 2)
        est[:, n0:n1] = (np.ascontiguousarray(rows).reshape(n1 - n0, m * width) @ taps).T
    return est


def contour_grid(
    mixture: MultichannelWaveform,
    ref: MultichannelWaveform,
    offsets: np.ndarray,
    clue: DoAClue,
    grid,
) -> np.ndarray:
    """SI-SNR improvement of delay_and_sum steered at each offset from clue, [len(grid)].

    grid holds (d_az, d_el) offsets in degrees; the steered elevation is
    clamped to [-90, 90]. Each entry equals
    si_snr_i(delay_and_sum(mixture, steered, offsets), ref, mixture) to
    within summation order: the mixture's own SI-SNR is computed once, and
    the alignment step runs for CONTOUR_BLOCK points at a time.
    """
    az, el = clue.to_degrees()
    clues = [DoAClue.from_degrees(az + d_az, min(max(el + d_el, -90.0), 90.0)) for d_az, d_el in grid]
    base = metrics.si_snr(mixture, ref)
    offsets = np.asarray(offsets, dtype=np.float64)
    if offsets.shape[0] != mixture.num_channels:
        raise ValueError(f"{offsets.shape[0]} offsets for {mixture.num_channels} channels")
    if mixture.num_channels == 1:  # delay_and_sum passes mono input through unchanged
        return np.zeros(len(clues))

    delays = np.array([steering_delays(offsets, c) for c in clues]) * mixture.sample_rate
    out = np.empty(len(clues))
    for p0 in range(0, len(clues), CONTOUR_BLOCK):
        aligned = _aligned_means(mixture.samples, -delays[p0 : p0 + CONTOUR_BLOCK])
        for p, est in enumerate(aligned, p0):
            steered = np.stack([delay_signal(est, d) for d in delays[p]])
            out[p] = metrics.si_snr(steered, ref) - base
    return out
