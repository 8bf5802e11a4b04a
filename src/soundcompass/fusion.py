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

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .clues import ClueEmbedding, TimeVaryingClue
from .spectral import BandLayout, split_bands
from .spin import SpinFeature

ADANORM_EPS = 1e-5


def _finite(name, *arrays):
    for a in arrays:
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

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.gain = np.asarray(self.gain, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        # a weight file holds a scalar as a 1-element tensor; ValueError unless one value
        self.prelu_slope = np.asarray(self.prelu_slope, dtype=np.float64).item()
        self.k_ada = np.asarray(self.k_ada, dtype=np.float64).item()
        if self.w.ndim != 2:
            raise ValueError("w must be [out x in]")
        out = self.w.shape[0]
        for name, v in (("b", self.b), ("gain", self.gain), ("bias", self.bias)):
            if v.shape != (out,):
                raise ValueError(f"{name} must have shape [{out}]")
        _finite("encoder weights", self.w, self.b, self.gain, self.bias)
        if not (np.isfinite(self.prelu_slope) and np.isfinite(self.k_ada)):
            raise ValueError("prelu_slope and k_ada must be finite")

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

    def __post_init__(self):
        self.w_gamma = np.asarray(self.w_gamma, dtype=np.float64)
        self.b_gamma = np.asarray(self.b_gamma, dtype=np.float64)
        self.w_beta = np.asarray(self.w_beta, dtype=np.float64)
        self.b_beta = np.asarray(self.b_beta, dtype=np.float64)
        c, h = self.w_gamma.shape
        if h != self.clue.dim_out:
            raise ValueError("gamma head input width must match clue encoder output")
        if self.w_beta.shape != (c, h) or self.b_gamma.shape != (c,) or self.b_beta.shape != (c,):
            raise ValueError("gamma/beta head shapes inconsistent")
        if c != self.feat.dim_out:
            raise ValueError("head output width must match feature encoder output")
        _finite("fusion heads", self.w_gamma, self.b_gamma, self.w_beta, self.b_beta)

    @property
    def num_channels(self) -> int:
        return self.w_gamma.shape[0]


# The 16 parameters of a band, in weight-file order. Each row gives the file
# name suffix (after "band{k}."), the owner (the "feat" or "clue" encoder, or
# None for the band itself), the attribute, and the film_gradients key (None
# for the feature encoder, which film_fuse does not read).
BAND_PARAMS = (
    ("feat.w", "feat", "w", None),
    ("feat.b", "feat", "b", None),
    ("feat.gain", "feat", "gain", None),
    ("feat.bias", "feat", "bias", None),
    ("feat.prelu_slope", "feat", "prelu_slope", None),
    ("feat.k_ada", "feat", "k_ada", None),
    ("clue.w", "clue", "w", "w1"),
    ("clue.b", "clue", "b", "b1"),
    ("clue.gain", "clue", "gain", "gain"),
    ("clue.bias", "clue", "bias", "bias"),
    ("clue.prelu_slope", "clue", "prelu_slope", "prelu_slope"),
    ("clue.k_ada", "clue", "k_ada", "k_ada"),
    ("gamma.w", None, "w_gamma", "w_gamma"),
    ("gamma.b", None, "b_gamma", "b_gamma"),
    ("beta.w", None, "w_beta", "w_beta"),
    ("beta.b", None, "b_beta", "b_beta"),
)


@dataclass
class FusionWeights:
    bands: list

    def __post_init__(self):
        if not self.bands:
            raise ValueError("need at least one band")

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
    """PReLU(AdaNorm(W c + b)) for each column c of a [dim_in, N] array.

    One matrix product for all columns, then the norm over the channel
    (leading) axis and the PReLU in place. Returns the output [dim_out, N]
    with the standardized pre-activation y [dim_out, N] and its scale s [N],
    which the backward pass reuses.
    """
    a = w.w @ cols
    a += w.b[:, None]
    a -= a.mean(axis=0)
    s = np.einsum("ij,ij->j", a, a)
    s /= a.shape[0]
    s += ADANORM_EPS
    np.sqrt(s, out=s)
    a /= s  # a is now y, standardized over the channel axis
    z = a * -w.k_ada
    z += 1.0
    z *= a
    z *= w.gain[:, None]
    z += w.bias[:, None]
    np.multiply(z, w.prelu_slope, out=z, where=z < 0.0)
    return z, a, s


def _clue_matrix(clue, dim_expected: int, num_frames: int) -> tuple[np.ndarray, bool]:
    """Coerce a clue to [Tc x dim]: one row if static, num_frames rows if not."""
    if isinstance(clue, ClueEmbedding):
        mat, static = clue.vector[None, :], True
    elif isinstance(clue, TimeVaryingClue):
        mat, static = clue.matrix, False
    else:
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
    """Mix input planes down to the band's channel count at every (t, f).

    The same linear -> AdaNorm -> PReLU block as the clue encoder, over the
    leading (channel) axis.
    """
    # one contiguous copy of a strided band view, so the checks and the
    # product below run over whole rows
    band = np.ascontiguousarray(band, dtype=np.float64)
    _finite("encoding_block input", band)
    if band.shape[0] != w.dim_in:
        raise ValueError(f"input width {band.shape[0]} != weight input {w.dim_in}")
    out, _, _ = _encode_columns(band.reshape(band.shape[0], -1), w)  # [C_k, T*F]
    return out.reshape((w.dim_out,) + band.shape[1:])  # [C_k, T, F]


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

    Returns a dict with d_feat, d_clue (matching the clue's own shape), and
    per-parameter entries w1, b1, gain, bias, prelu_slope, k_ada (clue
    encoder), w_gamma, b_gamma, w_beta, b_beta.
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
    d_w1 = g_a @ clue_mat
    d_b1 = g_a.sum(axis=1)
    d_clue = g_a.T @ w.w
    if static:
        d_clue = d_clue[0]

    return {
        "d_feat": d_feat,
        "d_clue": d_clue,
        "w1": d_w1,
        "b1": d_b1,
        "gain": d_gain,
        "bias": d_bias,
        "prelu_slope": d_slope,
        "k_ada": d_k_ada,
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
    step: float = 1e-5,
    rng: np.random.Generator | None = None,
):
    """Compare analytic gradients to central differences at random coordinates.

    Perturbs the feature, the clue and every BAND_PARAMS row with a gradient
    key, each on a copy: max(1, num_coords // 6) coordinates of an array, the
    value of a float. Returns (max_relative_error, checked_count). Coordinates
    where both the analytic and numeric values are tiny (< 1e-12) count as exact.
    """
    rng = rng or np.random.default_rng(0)
    grads = film_gradients(feat_k, clue, bw, upstream)
    # the clue as an array in its own shape, so it indexes like grads["d_clue"]
    clue = _clue_matrix(clue, bw.clue.dim_in, feat_k.shape[1])[0].reshape(grads["d_clue"].shape)
    inputs = SimpleNamespace(feat=feat_k, clue=clue)
    slots = [(inputs, "feat", "d_feat"), (inputs, "clue", "d_clue")]
    slots += [(getattr(bw, owner) if owner else bw, attr, key) for _, owner, attr, key in BAND_PARAMS if key]

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
    for obj, attr, key in slots:
        shape = np.shape(getattr(obj, attr))
        for _ in range(max(1, num_coords // 6) if shape else 1):
            idx = tuple(rng.integers(0, d) for d in shape)
            numeric = (loss_at(obj, attr, idx, step) - loss_at(obj, attr, idx, -step)) / (2.0 * step)
            analytic = np.asarray(grads[key])[idx]
            checked += 1
            denom = max(abs(analytic), abs(numeric))
            if denom >= 1e-12:
                max_rel = max(max_rel, abs(analytic - numeric) / denom)
    return max_rel, checked


# ---------------------------------------------------------------------------
# Initialization and serialization


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


_BAND_PREFIX = re.compile(r"band([0-9]+)\.")


def save_weights(weights: FusionWeights, bin_path, manifest_path) -> None:
    """float32 little-endian tensors in manifest order: BAND_PARAMS per band."""
    entries = []
    with open(bin_path, "wb") as f:
        for k, bw in enumerate(weights.bands):
            for suffix, owner, attr, _ in BAND_PARAMS:
                tensor = np.atleast_1d(getattr(getattr(bw, owner) if owner else bw, attr))
                f.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())
                entries.append({"name": f"band{k}.{suffix}", "shape": list(tensor.shape)})
    manifest = {"format": "float32-le", "tensors": entries}
    Path(manifest_path).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def load_weights(bin_path, manifest_path) -> FusionWeights:
    """Read save_weights' files: exactly the BAND_PARAMS rows of bands 0..K-1."""
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors"), list):
        raise ValueError("weight manifest must be a JSON object with a 'tensors' list")
    if manifest.get("format") != "float32-le":
        raise ValueError(f"unsupported weight format {manifest.get('format')!r}")
    raw = Path(bin_path).read_bytes()
    tensors = {}
    offset = 0
    for entry in manifest["tensors"]:
        name, shape = (entry.get("name"), entry.get("shape")) if isinstance(entry, dict) else (None, None)
        if not isinstance(name, str) or name in tensors:
            raise ValueError(f"tensor name {name!r} is not a string or is listed twice")
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise ValueError(f"tensor {name!r} shape must be a list of integers >= 0, got {shape!r}")
        count = math.prod(shape)
        nbytes = count * 4
        if offset + nbytes > len(raw):
            raise ValueError(f"weight file truncated at tensor {name}")
        tensors[name] = (
            np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
            .reshape(shape)
            .astype(np.float64)
        )
        offset += nbytes
    if offset != len(raw):
        raise ValueError("weight file has trailing bytes not covered by the manifest")

    band_ids = sorted({int(m.group(1)) for n in tensors if (m := _BAND_PREFIX.match(n))})
    if band_ids != list(range(len(band_ids))):
        raise ValueError("manifest band indices must be contiguous from 0")
    unused = sorted(set(tensors) - {f"band{k}.{row[0]}" for k in band_ids for row in BAND_PARAMS})
    if unused:
        raise ValueError(f"weight manifest has tensors no band uses: {unused}")
    bands = []
    for k in band_ids:
        kw, encoders = {}, {}
        for suffix, owner, attr, _ in BAND_PARAMS:
            name = f"band{k}.{suffix}"
            if name not in tensors:
                raise ValueError(f"weight manifest lacks tensor {name!r}")
            (encoders.setdefault(owner, {}) if owner else kw)[attr] = tensors[name]
        kw.update({owner: EncoderWeights(**enc) for owner, enc in encoders.items()})
        bands.append(BandFusionWeights(**kw))
    return FusionWeights(bands)
