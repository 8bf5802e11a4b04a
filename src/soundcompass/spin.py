"""Pairwise-product spatial features from stacked spectrogram planes.

Only this module stacks the complex STFT into 2M real planes (M real parts,
then M imaginary parts). Each is scaled by the per-(t,f) norm over all planes,
so every plane lies in [-1, 1] pointwise. All (2M)^2 ordered pairwise products
then also lie in [-1, 1]; products of a real and an imaginary plane carry the
inter-channel phase information that a magnitude-only frontend drops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .buffers import recycled_empty
from .spectral import ComplexSpectrogram

EPS_NORM = 1e-12
LOG_FLOOR = 1e-7  # log_magnitude's floor: log(max(|X|, LOG_FLOOR))


@dataclass
class SpinFeature:
    """pairwise [P=(2M)^2, T, F] products of the planes [Re_0..Re_{M-1}, Im_0..Im_{M-1}] (from spin_forward, a bin-major view)."""

    pairwise: np.ndarray
    num_channels: int

    def __post_init__(self):
        self.pairwise = np.asarray(self.pairwise, dtype=np.float64)
        m2 = 2 * self.num_channels
        if self.pairwise.shape[0] != m2 * m2:
            raise ValueError(
                f"expected {m2 * m2} pairwise planes for {self.num_channels} channels, "
                f"got {self.pairwise.shape[0]}"
            )


def normalize_planes(planes: np.ndarray) -> np.ndarray:
    """Scale [2M, T, F] planes to unit norm across the plane axis per (t, f).

    Cells where the norm over all planes is below EPS_NORM are zeroed rather
    than amplified; their products contribute nothing.
    """
    planes = np.asarray(planes, dtype=np.float64)
    norm = np.sqrt((planes**2).sum(axis=0, keepdims=True))
    return np.where(norm > EPS_NORM, planes / np.maximum(norm, EPS_NORM), 0.0)


def spin_forward(spec: ComplexSpectrogram) -> SpinFeature:
    """Stack spec into planes, normalize them, take all ordered pairwise products: a [(2M)^2, T, F] view of [F, (2M)^2, T]."""
    planes = np.concatenate([spec.values.real, spec.values.imag])  # [2M, T, F]
    unit = normalize_planes(planes)
    m2, t, f = unit.shape
    u = np.ascontiguousarray(unit.transpose(2, 0, 1))  # [F, 2M, T]
    store = np.multiply(u[:, :, None], u[:, None, :], out=recycled_empty((f, m2, m2, t)))
    pairwise = store.reshape(f, m2 * m2, t).transpose(1, 2, 0)
    return SpinFeature(pairwise=pairwise, num_channels=spec.num_channels)


def log_magnitude(spec: ComplexSpectrogram) -> np.ndarray:
    """[2M, T, F] log(max(|X_m|, LOG_FLOOR)), one row per plane: the Re and Im rows of a channel alike."""
    log_mag = np.log(np.maximum(np.abs(spec.values), LOG_FLOOR))  # [M, T, F]
    return np.concatenate([log_mag, log_mag])


def pair_index(a: int, b: int, num_channels: int) -> int:
    """Flat index of plane-a x plane-b in the pairwise tensor."""
    m2 = 2 * num_channels
    if not (0 <= a < m2 and 0 <= b < m2):
        raise ValueError(f"plane indices must be in [0, {m2})")
    return a * m2 + b


def recover_ipd(feat: SpinFeature, i: int, j: int) -> np.ndarray:
    """Inter-channel phase difference angle(X_j) - angle(X_i) from products.

    With r_m = Re(X_m)/n and i_m = Im(X_m)/n (same per-cell normalizer n),
    the scaling cancels in atan2: tan(phi_j - phi_i) uses
    sin = i_j r_i - r_j i_i and cos = r_j r_i + i_j i_i. Result in (-pi, pi].
    Cells with zero norm give 0.
    """
    m = feat.num_channels
    if not (0 <= i < m and 0 <= j < m):
        raise ValueError(f"channel indices must be in [0, {m})")
    re_i, im_i = i, m + i
    re_j, im_j = j, m + j
    p = feat.pairwise
    sin_term = p[pair_index(im_j, re_i, m)] - p[pair_index(re_j, im_i, m)]
    cos_term = p[pair_index(re_j, re_i, m)] + p[pair_index(im_j, im_i, m)]
    return np.arctan2(sin_term, cos_term)
