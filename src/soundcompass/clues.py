"""Direction-of-arrival clues and their embeddings.

Directions use the polar convention: theta is measured from +z (0 = straight
up, pi/2 = horizon), phi is azimuth from +x toward +y. The CLI speaks degrees
and elevation-above-horizon; conversion helpers live here so everything past
the boundary is radians/polar.

The main embedding stacks real and imaginary parts of the complex spherical
harmonics Y_n^m up to order N (length 2(N+1)^2). A sinusoidal cyclic encoding
of the raw angles is provided as a comparison baseline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass
class DoAClue:
    """Direction: azimuth in [0, 2pi), polar angle in [0, pi]."""

    azimuth: float
    polar: float

    def __post_init__(self):
        if not (math.isfinite(self.azimuth) and math.isfinite(self.polar)):
            raise ValueError("angles must be finite")
        if not (0.0 <= self.polar <= math.pi):
            raise ValueError(f"polar angle {self.polar} outside [0, pi]")
        self.azimuth = self.azimuth % TWO_PI

    @classmethod
    def from_degrees(cls, azimuth_deg: float, elevation_deg: float) -> "DoAClue":
        """Elevation is above the horizon; polar = 90deg - elevation."""
        return cls(math.radians(azimuth_deg), math.radians(90.0 - elevation_deg))

    def to_degrees(self) -> tuple[float, float]:
        """(azimuth_deg, elevation_deg above horizon)."""
        return math.degrees(self.azimuth), 90.0 - math.degrees(self.polar)

    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.polar)
        return np.array(
            [st * math.cos(self.azimuth), st * math.sin(self.azimuth), math.cos(self.polar)]
        )

    @classmethod
    def from_vector(cls, v) -> "DoAClue":
        v = np.asarray(v, dtype=np.float64)
        r = float(np.linalg.norm(v))
        if r == 0.0:
            raise ValueError("zero vector has no direction")
        polar = math.acos(max(-1.0, min(1.0, v[2] / r)))
        azimuth = math.atan2(v[1], v[0])
        return cls(azimuth, polar)

    def angular_distance(self, other: "DoAClue") -> float:
        dot = float(np.dot(self.unit_vector(), other.unit_vector()))
        return math.acos(max(-1.0, min(1.0, dot)))


def assoc_legendre(n: int, m: int, x: float) -> float:
    """P_n^m(x) with Condon-Shortley phase, by upward recurrence in n.

    P_m^m = (-1)^m (2m-1)!! (1-x^2)^{m/2}, then
    P_{m+1}^m = x(2m+1)P_m^m, then
    (n-m) P_n^m = x(2n-1) P_{n-1}^m - (n+m-1) P_{n-2}^m.
    """
    if m < 0 or m > n:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")
    if abs(x) > 1.0:
        raise ValueError(f"argument {x} outside [-1, 1]")
    pmm = 1.0
    if m > 0:
        somx2 = math.sqrt((1.0 - x) * (1.0 + x))
        fact = 1.0
        for _ in range(m):
            pmm *= -fact * somx2
            fact += 2.0
    if n == m:
        return pmm
    pmmp1 = x * (2.0 * m + 1.0) * pmm
    if n == m + 1:
        return pmmp1
    pll = 0.0
    for ll in range(m + 2, n + 1):
        pll = (x * (2.0 * ll - 1.0) * pmmp1 - (ll + m - 1.0) * pmm) / (ll - m)
        pmm, pmmp1 = pmmp1, pll
    return pll


def sh_complex(n: int, m: int, theta: float, phi: float) -> complex:
    """Orthonormal complex spherical harmonic Y_n^m(theta, phi).

    m >= 0: sqrt((2n+1)/(4pi) (n-m)!/(n+m)!) P_n^m(cos theta) e^{i m phi};
    m < 0 via Y_n^{-m} = (-1)^m conj(Y_n^m).
    """
    if n < 0:
        raise ValueError(f"order n must be >= 0, got {n}")
    if abs(m) > n:
        raise ValueError(f"need |m| <= n, got n={n}, m={m}")
    if m < 0:
        return (-1) ** (-m) * sh_complex(n, -m, theta, phi).conjugate()
    norm = math.sqrt(
        (2 * n + 1) / (4.0 * math.pi) * math.factorial(n - m) / math.factorial(n + m)
    )
    p = assoc_legendre(n, m, math.cos(theta))
    return norm * p * complex(math.cos(m * phi), math.sin(m * phi))


@dataclass
class ClueEmbedding:
    """Direction embedding vector.

    kind="sh": order is the max harmonic order N, length 2(N+1)^2.
    kind="cyc_pos": order is the octave count (vector length / 4).
    """

    vector: np.ndarray
    order: int
    kind: str = "sh"

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64).ravel()
        if self.kind not in ("sh", "cyc_pos"):
            raise ValueError(f"unknown embedding kind {self.kind!r}")
        if self.kind == "sh" and self.vector.size != 2 * (self.order + 1) ** 2:
            raise ValueError(
                f"sh embedding of order {self.order} needs length "
                f"{2 * (self.order + 1) ** 2}, got {self.vector.size}"
            )
        if not np.isfinite(self.vector).all():
            raise ValueError("embedding vector must be finite")

    @property
    def dim(self) -> int:
        return self.vector.size

    def to_json(self) -> str:
        return json.dumps(
            {"kind": self.kind, "order": self.order, "vector": self.vector.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "ClueEmbedding":
        d = json.loads(text)
        return cls(np.array(d["vector"]), int(d["order"]), d["kind"])


def encode_sh(clue: DoAClue, order: int = 5) -> ClueEmbedding:
    """[Re Y_n^m ...] then [Im Y_n^m ...], n = 0..N major, m = -n..n ascending."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    vals = [
        sh_complex(n, m, clue.polar, clue.azimuth)
        for n in range(order + 1)
        for m in range(-n, n + 1)
    ]
    vec = np.concatenate([[v.real for v in vals], [v.imag for v in vals]])
    return ClueEmbedding(vec, order, "sh")


def encode_cyc_pos(clue: DoAClue, dim: int = 72) -> ClueEmbedding:
    """Sinusoids at octave frequencies: [sin 2^k phi, cos 2^k phi]_k then same in theta."""
    if dim % 4 != 0 or dim <= 0:
        raise ValueError(f"dim must be a positive multiple of 4, got {dim}")
    octaves = dim // 4
    parts = []
    for angle in (clue.azimuth, clue.polar):
        for k in range(octaves):
            f = 2.0**k
            parts.extend([math.sin(f * angle), math.cos(f * angle)])
    return ClueEmbedding(np.array(parts), octaves, "cyc_pos")


@dataclass
class TimeVaryingClue:
    """Per-frame scaled copies of a static embedding, [T x dim]."""

    matrix: np.ndarray
    activation_source_len: int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] < 1:
            raise ValueError("matrix must be [T x dim] with T >= 1")
        if self.activation_source_len < 1:
            raise ValueError("activation_source_len must be >= 1")

    @property
    def num_frames(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def build_time_varying_clue(
    emb: ClueEmbedding, activation: np.ndarray, num_frames: int
) -> TimeVaryingClue:
    """Interpolate the activation to num_frames, scale the embedding per frame.

    Endpoints map to endpoints: target frame t samples the activation at
    position t*(T'-1)/max(T-1, 1). Interpolating the scalar activation first
    keeps every output row an exact nonnegative multiple of the static
    embedding.
    """
    activation = np.asarray(activation, dtype=np.float64).ravel()
    if activation.size < 1 or num_frames < 1:
        raise ValueError("need at least one activation value and one output frame")
    if not ((activation >= 0) & (activation <= 1)).all():  # NaN fails too
        raise ValueError("activation values must lie in [0, 1]")
    t_src = activation.size
    pos = np.arange(num_frames) * (t_src - 1) / max(num_frames - 1, 1)
    scale = np.interp(pos, np.arange(t_src), activation)
    matrix = scale[:, None] * emb.vector[None, :]
    return TimeVaryingClue(matrix, t_src)
