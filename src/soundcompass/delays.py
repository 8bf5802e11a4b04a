"""Windowed-sinc fractional delays, shared by the simulator and beamformer."""

from __future__ import annotations

import numpy as np

SPEED_OF_SOUND = 343.0  # m/s
KERNEL_TAPS = 81
KERNEL_HALF = KERNEL_TAPS // 2  # 40


def fractional_delay_kernel(frac: float) -> np.ndarray:
    """81-tap Hann-windowed sinc whose peak sits frac samples past center.

    Convolving x with this kernel evaluates the bandlimited interpolant of x
    at a lag of (KERNEL_HALF + frac) samples. An array frac of shape [..., 1]
    gives one kernel per entry, [..., KERNEL_TAPS].
    """
    t = np.arange(KERNEL_TAPS) - KERNEL_HALF - frac
    window = 0.5 * (1.0 + np.cos(np.pi * t / (KERNEL_HALF + 1)))
    window[np.abs(t) > KERNEL_HALF + 1] = 0.0
    return np.sinc(t) * window


def delay_signal(x: np.ndarray, delay_samples: float) -> np.ndarray:
    """Shift the [S] signal x by delay_samples (positive = later), same length, zero-filled."""
    x = np.asarray(x, dtype=np.float64)
    d_int = int(np.floor(delay_samples))
    frac = delay_samples - d_int
    full = np.convolve(x, fractional_delay_kernel(frac))  # full[n] ~= x(n - KERNEL_HALF - frac)
    start = KERNEL_HALF - d_int  # out[n] = full[n + start]
    src_lo = max(start, 0)
    src_hi = min(start + x.shape[0], full.shape[0])
    out = np.zeros_like(x)
    if src_hi > src_lo:
        out[src_lo - start : src_hi - start] = full[src_lo:src_hi]
    return out
