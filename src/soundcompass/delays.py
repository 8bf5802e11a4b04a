"""Windowed-sinc fractional delays, shared by the simulator and beamformer."""

from __future__ import annotations

import numpy as np

SPEED_OF_SOUND = 343.0  # m/s
KERNEL_TAPS = 81
KERNEL_HALF = KERNEL_TAPS // 2  # 40


def fractional_delay_kernel(frac: float) -> np.ndarray:
    """81-tap Hann-windowed sinc whose peak sits frac samples past center.

    Convolving x with this kernel evaluates the bandlimited interpolant of x
    at a lag of (KERNEL_HALF + frac) samples.
    """
    t = np.arange(KERNEL_TAPS) - KERNEL_HALF - frac
    window = 0.5 * (1.0 + np.cos(np.pi * t / (KERNEL_HALF + 1)))
    window[np.abs(t) > KERNEL_HALF + 1] = 0.0
    return np.sinc(t) * window


def delay_signal(x: np.ndarray, delay_samples: float) -> np.ndarray:
    """Shift x by delay_samples (positive = later), same length, zero-filled.

    Works on [S] or [M, S] arrays; the same delay applies to every channel.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    s = x.shape[1]
    d_int = int(np.floor(delay_samples))
    frac = delay_samples - d_int
    kernel = fractional_delay_kernel(frac)
    out = np.zeros_like(x)
    start = KERNEL_HALF - d_int  # out[n] = full[n + start]
    for ch in range(x.shape[0]):
        full = np.convolve(x[ch], kernel)  # full[n] ~= x(n - KERNEL_HALF - frac)
        src_lo = max(start, 0)
        src_hi = min(start + s, full.shape[0])
        if src_hi > src_lo:
            out[ch, src_lo - start : src_hi - start] = full[src_lo:src_hi]
    return out[0] if squeeze else out
