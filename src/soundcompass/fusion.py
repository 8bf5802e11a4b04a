"""Per-subband fusion of pairwise spatial features with a direction embedding.

Each band runs the same wiring: the clue vector goes through a small encoder
(linear, adaptive layer norm, PReLU) whose output is mapped to a scale gamma
and shift beta per feature channel; the band feature is then modulated with a
residual connection, out = x + gamma*x + beta. gamma and beta vary per
(channel, frame) and broadcast across the band's frequency bins. A
time-varying clue supplies one encoder input per frame; a static embedding is
a one-frame clue whose gamma and beta broadcast across frames.

Everything here is a deterministic forward pass plus hand-derived reverse-mode
gradients; there is no training loop. The gradient code is checked against
central finite differences (see finite_difference_check).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .spectral import BandLayout, split_bands
from .spin import SpinFeature

ADANORM_EPS = 1e-5
FD_STEP = 1e-5  # central-difference step of finite_difference_check


def _finite(name, a):
    if not np.isfinite(a).all():
        raise ValueError(f"non-finite values in {name}")


@dataclass
class EncoderWeights:
    """linear -> adaptive layer norm -> PReLU block parameters.

    The norm standardizes over the output axis (mean 0, variance 1, eps
    1e-5), rescales by (1 - k_ada * y) elementwise, then applies learned
    gain and bias. k_ada is a weight so checks can perturb it.
    """

    w: np.ndarray
    b: np.ndarray
    gain: np.ndarray
    bias: np.ndarray
    prelu_slope: float = 0.25
    k_ada: float = 0.1

    @property
    def dim_in(self) -> int:
        return self.w.shape[1]

    @property
    def dim_out(self) -> int:
        return self.w.shape[0]


@dataclass
class BandFusionWeights:
    """All parameters for one band: feature encoder, clue encoder, gamma/beta heads."""

    feat: EncoderWeights
    clue: EncoderWeights
    w_gamma: np.ndarray
    b_gamma: np.ndarray
    w_beta: np.ndarray
    b_beta: np.ndarray

    @property
    def num_channels(self) -> int:
        return self.w_gamma.shape[0]


@dataclass
class FusionWeights:
    bands: list

    @property
    def num_bands(self) -> int:
        return len(self.bands)


@dataclass
class FusedFeature:
    """Per-band modulated tensors [C_k x T x F_k] sharing one frame axis."""

    bands: list
    layout: BandLayout

    def __post_init__(self):
        if len(self.bands) != self.layout.num_bands:
            raise ValueError("band count mismatch with layout")
        t0 = self.bands[0].shape[1]
        for k, b in enumerate(self.bands):
            if b.ndim != 3 or b.shape[1] != t0:
                raise ValueError(f"band {k} must be [C x {t0} x F_k]")
            lo, hi = self.layout.bands[k]
            if b.shape[2] != hi - lo + 1:
                raise ValueError(f"band {k} width {b.shape[2]} != layout width {hi - lo + 1}")


def _encode_columns(cols: np.ndarray, w: EncoderWeights):
    """PReLU(AdaNorm(W c + b)) for each column c of a [..., dim_in, N] array.

    One (batched) matrix product for all columns, then the norm over the
    channel axis (-2) and the PReLU in place. Returns the output
    [..., dim_out, N] with the standardized pre-activation y [..., dim_out, N]
    and its scale s [..., N], which the backward pass reuses.
    """
    a = w.w @ cols
    a += w.b[:, None]
    a -= a.mean(axis=-2, keepdims=True)
    s = np.einsum("...ij,...ij->...j", a, a)
    s /= a.shape[-2]
    s += ADANORM_EPS
    np.sqrt(s, out=s)
    a /= s[..., None, :]  # a is now y, standardized over the channel axis
    z = a * -w.k_ada
    z += 1.0
    z *= a
    z *= w.gain[:, None]
    z += w.bias[:, None]
    _prelu(z, w.prelu_slope)
    return z, a, s


def _prelu(z: np.ndarray, slope: float) -> None:
    """In-place PReLU with the masked multiply's bits, branch-free as max(z, slope z) for 0 < slope <= 1.

    Slope 0 keeps the mask (+inf * 0 is NaN), and so does a negative slope (the max flips a zero's sign).
    """
    if 0.0 < slope <= 1.0:
        np.maximum(z, z * slope, out=z)
    else:
        np.multiply(z, slope, out=z, where=z < 0.0)


def _clue_matrix(clue, dim_expected: int, num_frames: int) -> tuple[np.ndarray, bool]:
    """Coerce a [dim] vector or a [T x dim] matrix to [Tc x dim]:
    one row if static, num_frames rows if not."""
    mat = np.asarray(clue, dtype=np.float64)
    if mat.ndim == 1:
        mat, static = mat[None, :], True
    elif mat.ndim == 2:
        static = False
    else:
        raise ValueError("clue must be a vector or [T x dim] matrix")
    if mat.shape[-1] != dim_expected:
        raise ValueError(f"clue dim {mat.shape[-1]} != encoder input {dim_expected}")
    if not static and mat.shape[0] != num_frames:
        raise ValueError(f"time-varying clue has {mat.shape[0]} frames, features have {num_frames}")
    _finite("clue", mat)
    return mat, static


def _clue_forward(clue_mat: np.ndarray, bw: BandFusionWeights):
    """Clue encoder and gamma/beta heads, channel-first: h, y [H, Tc], s [Tc],
    gamma, beta [C, Tc]."""
    h, y, s = _encode_columns(clue_mat.T, bw.clue)
    gamma = bw.w_gamma @ h
    gamma += bw.b_gamma[:, None]
    beta = bw.w_beta @ h
    beta += bw.b_beta[:, None]
    return h, y, s, gamma, beta


def film_fuse(feat_k: np.ndarray, clue, bw: BandFusionWeights) -> np.ndarray:
    """out[c,t,f] = feat[c,t,f] * (1 + gamma[c,t]) + beta[c,t]."""
    feat_k = np.asarray(feat_k, dtype=np.float64)
    if feat_k.ndim != 3:
        raise ValueError("feat_k must be [C x T x F]")
    if feat_k.shape[0] != bw.num_channels:
        raise ValueError(f"feature channels {feat_k.shape[0]} != weights {bw.num_channels}")
    _finite("film_fuse input", feat_k)
    clue_mat, _ = _clue_matrix(clue, bw.clue.dim_in, feat_k.shape[1])
    _, _, _, gamma, beta = _clue_forward(clue_mat, bw)
    # a static clue's single column broadcasts over the frames
    out = feat_k * (1.0 + gamma[:, :, None])
    out += beta[:, :, None]
    return out


def encode_band_feature(band: np.ndarray, w: EncoderWeights) -> np.ndarray:
    """Mix [P, T, F_k] input planes down to the band's C_k channels at every (t, f).

    The clue encoder's block, run bin-major as one batched product over
    [F_k, P, T]: free for a split_bands view of spin_forward output, one copy
    for any other layout. Returns a [C_k, T, F_k] view of [F_k, C_k, T] storage.
    """
    band = np.asarray(band)
    x = band.reshape(band.shape[0], -1, band.shape[-1] if band.ndim > 1 else 1)  # [P, T, F_k]
    cols = np.ascontiguousarray(np.moveaxis(x, -1, 0), dtype=np.float64)  # [F_k, P, T]
    _finite("encoding_block input", cols)
    if cols.shape[1] != w.dim_in:
        raise ValueError(f"input width {cols.shape[1]} != weight input {w.dim_in}")
    out, _, _ = _encode_columns(cols, w)
    return np.moveaxis(out, 0, -1).reshape((w.dim_out,) + band.shape[1:])


def fuse_all_bands(spin: SpinFeature, layout: BandLayout, clue, weights: FusionWeights) -> FusedFeature:
    if weights.num_bands != layout.num_bands:
        raise ValueError(
            f"weights cover {weights.num_bands} bands, layout has {layout.num_bands}"
        )
    bands = split_bands(spin.pairwise, layout)
    fused = []
    for k, (band, bw) in enumerate(zip(bands, weights.bands)):
        try:
            enc = encode_band_feature(band, bw.feat)
            fused.append(film_fuse(enc, clue, bw))
        except ValueError as e:
            raise ValueError(f"band {k}: {e}") from e
    return FusedFeature(fused, layout)


# ---------------------------------------------------------------------------
# Reverse-mode gradients for the clue-conditioned modulation


def film_gradients(feat_k: np.ndarray, clue, bw: BandFusionWeights, upstream: np.ndarray):
    """Gradients of <upstream, film_fuse(feat_k, clue, bw)>.

    Returns a dict with d_feat, d_clue (matching the clue's own shape), then
    one entry per parameter film_fuse reads, keyed by where it lives: clue.w,
    clue.b, clue.gain, clue.bias, clue.prelu_slope, clue.k_ada (the clue
    encoder's fields), then w_gamma, b_gamma, w_beta, b_beta (the band's).
    """
    feat_k = np.asarray(feat_k, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != feat_k.shape:
        raise ValueError("upstream gradient must match feature shape")
    clue_mat, static = _clue_matrix(clue, bw.clue.dim_in, feat_k.shape[1])
    h, y, s, gamma, _ = _clue_forward(clue_mat, bw)

    d_feat = upstream * (1.0 + gamma[:, :, None])
    g_gamma = np.einsum("ctf,ctf->ct", upstream, feat_k)  # [C, T]
    g_beta = np.einsum("ctf->ct", upstream)
    if static:  # one clue column modulates every frame
        g_gamma = g_gamma.sum(axis=1, keepdims=True)
        g_beta = g_beta.sum(axis=1, keepdims=True)

    w = bw.clue
    yw = (1.0 - w.k_ada * y) * y
    z = w.gain[:, None] * yw + w.bias[:, None]  # the PReLU input, recomputed from y
    d_w_gamma = g_gamma @ h.T
    d_b_gamma = g_gamma.sum(axis=1)
    d_w_beta = g_beta @ h.T
    d_b_beta = g_beta.sum(axis=1)

    g_h = bw.w_gamma.T @ g_gamma + bw.w_beta.T @ g_beta  # [H, Tc]
    g_z = g_h * np.where(z >= 0.0, 1.0, w.prelu_slope)
    d_slope = float((g_h * z * (z < 0.0)).sum())
    g_yw = g_z * w.gain[:, None]
    d_gain = (g_z * yw).sum(axis=1)
    d_bias = g_z.sum(axis=1)
    g_y = g_yw * (1.0 - 2.0 * w.k_ada * y)
    d_k_ada = float((g_yw * (-(y**2))).sum())
    # standardization backward: y = (a - mean a)/s with s fixed by a
    g_a = (g_y - g_y.mean(axis=0) - y * (g_y * y).mean(axis=0)) / s
    d_w = g_a @ clue_mat
    d_b = g_a.sum(axis=1)
    d_clue = g_a.T @ w.w
    if static:
        d_clue = d_clue[0]

    return {
        "d_feat": d_feat,
        "d_clue": d_clue,
        "clue.w": d_w,
        "clue.b": d_b,
        "clue.gain": d_gain,
        "clue.bias": d_bias,
        "clue.prelu_slope": d_slope,
        "clue.k_ada": d_k_ada,
        "w_gamma": d_w_gamma,
        "b_gamma": d_b_gamma,
        "w_beta": d_w_beta,
        "b_beta": d_b_beta,
    }


def finite_difference_check(
    bw: BandFusionWeights,
    feat_k: np.ndarray,
    clue,
    upstream: np.ndarray,
    num_coords: int = 10,
    rng: np.random.Generator | None = None,
):
    """Compare analytic gradients to central differences at random coordinates.

    Perturbs the feature, the clue and every parameter film_gradients returns,
    in its key order, each on a copy: max(1, num_coords // 6) coordinates of
    an array, the value of a float.
    Returns (max_relative_error, checked_count). Coordinates where both the
    analytic and numeric values are tiny (< 1e-12) count as exact.
    """
    rng = rng or np.random.default_rng(0)
    grads = film_gradients(feat_k, clue, bw, upstream)
    inputs = SimpleNamespace(feat=feat_k, clue=np.asarray(clue, dtype=np.float64))

    def loss_at(obj, attr, idx, delta):
        saved = getattr(obj, attr)
        moved = np.array(saved, dtype=np.float64)  # a float becomes a 0-d array, idx ()
        moved[idx] += delta
        setattr(obj, attr, moved)
        try:
            return float((upstream * film_fuse(inputs.feat, inputs.clue, bw)).sum())
        finally:
            setattr(obj, attr, saved)

    max_rel, checked = 0.0, 0
    for key, grad in grads.items():  # d_feat, d_clue, then "clue.<field>" or a band field
        owner, _, attr = key.rpartition(".")
        obj = getattr(bw, owner) if owner else bw
        if key.startswith("d_"):
            obj, attr = inputs, key[2:]
        shape = np.shape(getattr(obj, attr))
        for _ in range(max(1, num_coords // 6) if shape else 1):
            idx = tuple(rng.integers(0, d) for d in shape)
            numeric = (loss_at(obj, attr, idx, FD_STEP) - loss_at(obj, attr, idx, -FD_STEP)) / (2.0 * FD_STEP)
            analytic = np.asarray(grad)[idx]
            checked += 1
            denom = max(abs(analytic), abs(numeric))
            if denom >= 1e-12:
                max_rel = max(max_rel, abs(analytic - numeric) / denom)
    return max_rel, checked


# ---------------------------------------------------------------------------
# Initialization


def _init_encoder(rng, dim_in: int, dim_out: int) -> EncoderWeights:
    lim = 1.0 / np.sqrt(dim_in)
    return EncoderWeights(
        w=rng.uniform(-lim, lim, (dim_out, dim_in)),
        b=rng.uniform(-lim, lim, dim_out),
        gain=np.ones(dim_out),
        bias=np.zeros(dim_out),
        prelu_slope=0.25,
        k_ada=0.1,
    )


def init_fusion_weights(
    layout: BandLayout,
    dim_clue: int,
    c_in: int,
    c_band: int = 16,
    hidden: int = 64,
    seed: int = 0,
) -> FusionWeights:
    """Seeded uniform(+-1/sqrt(fan_in)) weights for every band."""
    rng = np.random.default_rng(seed)
    lim = 1.0 / np.sqrt(hidden)
    bands = []
    for _ in range(layout.num_bands):
        feat = _init_encoder(rng, c_in, c_band)
        clue = _init_encoder(rng, dim_clue, hidden)
        bands.append(
            BandFusionWeights(
                feat=feat,
                clue=clue,
                w_gamma=rng.uniform(-lim, lim, (c_band, hidden)),
                b_gamma=rng.uniform(-lim, lim, c_band),
                w_beta=rng.uniform(-lim, lim, (c_band, hidden)),
                b_beta=rng.uniform(-lim, lim, c_band),
            )
        )
    return FusionWeights(bands)
