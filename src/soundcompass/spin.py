"""Pairwise-product spatial features from stacked spectrogram planes.

Each of the 2M real planes (M real parts, M imaginary parts) is scaled by the
per-(t,f) norm over all planes, so every plane lies in [-1, 1] pointwise.
All (2M)^2 ordered pairwise products then also lie in [-1, 1]; products of a
real and an imaginary plane carry the inter-channel phase information that a
magnitude-only frontend drops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .buffers import recycled_empty
from .spectral import ComplexSpectrogram

EPS_NORM = 1e-12
LOG_FLOOR = 1e-7


@dataclass
class SpinFeature:
    """pairwise [P=(2M)^2, T, F] product tensor plus log-magnitude side input."""

    pairwise: np.ndarray
    log_mag: np.ndarray
    num_channels: int

    def __post_init__(self):
        self.pairwise = np.asarray(self.pairwise, dtype=np.float64)
        self.log_mag = np.asarray(self.log_mag, dtype=np.float64)
        m2 = 2 * self.num_channels
        if self.pairwise.shape[0] != m2 * m2:
            raise ValueError(
                f"expected {m2 * m2} pairwise planes for {self.num_channels} channels, "
                f"got {self.pairwise.shape[0]}"
            )
        if self.log_mag.shape != (m2,) + self.pairwise.shape[1:]:
            raise ValueError("log_mag must be [2M, T, F] matching pairwise [.., T, F]")


def normalize_planes(planes: np.ndarray, eps: float = EPS_NORM) -> np.ndarray:
    """Scale [2M, T, F] planes to unit norm across the plane axis per (t, f).

    Cells where the norm over all planes is below eps are zeroed rather than
    amplified; their products contribute nothing.
    """
    planes = np.asarray(planes, dtype=np.float64)
    norm = np.sqrt((planes**2).sum(axis=0, keepdims=True))
    scaled = np.where(norm > eps, planes / np.maximum(norm, eps), 0.0)
    return scaled


def spin_forward(spec: ComplexSpectrogram) -> SpinFeature:
    """All ordered pairwise products of the normalized planes, [(2M)^2, T, F]."""
    unit = normalize_planes(spec.planes)
    m2 = unit.shape[0]
    pairwise = np.multiply(unit[:, None], unit[None, :], out=recycled_empty((m2, m2) + unit.shape[1:]))
    pairwise = pairwise.reshape(m2 * m2, *unit.shape[1:])
    mag = np.abs(spec.as_complex())
    log_mag_half = np.log(np.maximum(mag, LOG_FLOOR))
    log_mag = np.concatenate([log_mag_half, log_mag_half], axis=0)
    return SpinFeature(pairwise=pairwise, log_mag=log_mag, num_channels=spec.num_channels)


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
    mc = m * 2
    sin_term = p[im_j * mc + re_i] - p[re_j * mc + im_i]
    cos_term = p[re_j * mc + re_i] + p[im_j * mc + im_i]
    return np.arctan2(sin_term, cos_term)
