"""Per-subband fusion of pairwise spatial features with a direction embedding.

Each band runs the same wiring: the clue vector goes through a small encoder
(linear, adaptive layer norm, PReLU) whose output is mapped to a scale gamma
and shift beta per feature channel; the band feature is then modulated with a
residual connection, out = x + gamma*x + beta. gamma and beta vary per
(channel, frame) and broadcast across the band's frequency bins. A
time-varying clue supplies one encoder input per frame; a static embedding
broadcasts across frames.

Everything here is a deterministic forward pass plus hand-derived reverse-mode
gradients; there is no training loop. The gradient code is checked against
central finite differences (see finite_difference_check).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

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


def _standardize(a: np.ndarray):
    """Zero-mean unit-variance over the last axis; returns (y, scale s)."""
    mu = a.mean(axis=-1, keepdims=True)
    var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
    s = np.sqrt(var + ADANORM_EPS)
    return (a - mu) / s, s


def _encode_columns(cols: np.ndarray, w: EncoderWeights) -> np.ndarray:
    """PReLU(AdaNorm(W c + b)) for each column c of a [dim_in, N] array.

    One matrix product for all columns, then the norm over the channel
    (leading) axis and the PReLU in place; returns [dim_out, N].
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
    return z


def encoding_block(x: np.ndarray, w: EncoderWeights) -> np.ndarray:
    """PReLU(AdaNorm(W x + b)) applied over the last axis of x."""
    x = np.asarray(x, dtype=np.float64)
    _finite("encoding_block input", x)
    if x.shape[-1] != w.dim_in:
        raise ValueError(f"input width {x.shape[-1]} != weight input {w.dim_in}")
    out = _encode_columns(x.reshape(-1, w.dim_in).T, w)
    return out.T.reshape(x.shape[:-1] + (w.dim_out,))


def _clue_matrix(clue, dim_expected: int) -> tuple[np.ndarray, bool]:
    """Coerce a static embedding or time-varying clue to [Tc x dim]."""
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
    return mat, static


def _gamma_beta(clue_mat: np.ndarray, bw: BandFusionWeights):
    h = encoding_block(clue_mat, bw.clue)  # [Tc, H]
    gamma = h @ bw.w_gamma.T + bw.b_gamma  # [Tc, C]
    beta = h @ bw.w_beta.T + bw.b_beta
    return gamma, beta


def film_fuse(feat_k: np.ndarray, clue, bw: BandFusionWeights) -> np.ndarray:
    """out[c,t,f] = feat[c,t,f] * (1 + gamma[c,t]) + beta[c,t]."""
    feat_k = np.asarray(feat_k, dtype=np.float64)
    if feat_k.ndim != 3:
        raise ValueError("feat_k must be [C x T x F]")
    if feat_k.shape[0] != bw.num_channels:
        raise ValueError(f"feature channels {feat_k.shape[0]} != weights {bw.num_channels}")
    _finite("film_fuse input", feat_k)
    clue_mat, static = _clue_matrix(clue, bw.clue.dim_in)
    if not static and clue_mat.shape[0] != feat_k.shape[1]:
        raise ValueError(
            f"time-varying clue has {clue_mat.shape[0]} frames, features have {feat_k.shape[1]}"
        )
    gamma, beta = _gamma_beta(clue_mat, bw)
    g = gamma.T[:, :, None] if not static else gamma[0][:, None, None]
    b = beta.T[:, :, None] if not static else beta[0][:, None, None]
    out = feat_k * (1.0 + g)
    out += b
    return out


def encode_band_feature(band: np.ndarray, w: EncoderWeights) -> np.ndarray:
    """Mix input planes down to the band's channel count at every (t, f).

    The same block as encoding_block, over the leading (channel) axis.
    """
    band = np.asarray(band, dtype=np.float64)
    _finite("encoding_block input", band)
    if band.shape[0] != w.dim_in:
        raise ValueError(f"input width {band.shape[0]} != weight input {w.dim_in}")
    out = _encode_columns(band.reshape(band.shape[0], -1), w)  # [C_k, T*F]
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
    clue_mat, static = _clue_matrix(clue, bw.clue.dim_in)
    if not static and clue_mat.shape[0] != feat_k.shape[1]:
        raise ValueError("time-varying clue frame count must match features")

    w = bw.clue
    # forward trace (kept for the backward pass)
    a = clue_mat @ w.w.T + w.b
    y, s = _standardize(a)
    yw = (1.0 - w.k_ada * y) * y
    z = w.gain * yw + w.bias
    h = np.where(z >= 0.0, z, w.prelu_slope * z)  # [Tc, H]
    gamma = h @ bw.w_gamma.T + bw.b_gamma  # [Tc, C]

    if static:
        d_feat = upstream * (1.0 + gamma[0][:, None, None])
        g_gamma = np.einsum("ctf,ctf->c", upstream, feat_k)[None, :]  # [1, C]
        g_beta = np.einsum("ctf->c", upstream)[None, :]
    else:
        d_feat = upstream * (1.0 + gamma.T[:, :, None])
        g_gamma = np.einsum("ctf,ctf->tc", upstream, feat_k)  # [T, C]
        g_beta = np.einsum("ctf->tc", upstream)

    d_w_gamma = g_gamma.T @ h
    d_b_gamma = g_gamma.sum(axis=0)
    d_w_beta = g_beta.T @ h
    d_b_beta = g_beta.sum(axis=0)

    g_h = g_gamma @ bw.w_gamma + g_beta @ bw.w_beta  # [Tc, H]
    g_z = g_h * np.where(z >= 0.0, 1.0, w.prelu_slope)
    d_slope = float((g_h * z * (z < 0.0)).sum())
    g_yw = g_z * w.gain
    d_gain = (g_z * yw).sum(axis=0)
    d_bias = g_z.sum(axis=0)
    g_y = g_yw * (1.0 - 2.0 * w.k_ada * y)
    d_k_ada = float((g_yw * (-(y**2))).sum())
    # standardization backward: y = (a - mean a)/s with s fixed by a
    g_a = (g_y - g_y.mean(axis=-1, keepdims=True) - y * (g_y * y).mean(axis=-1, keepdims=True)) / s
    d_w1 = g_a.T @ clue_mat
    d_b1 = g_a.sum(axis=0)
    d_clue_mat = g_a @ w.w
    d_clue = d_clue_mat[0] if static else d_clue_mat

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


def _film_loss(feat_k, clue_mat, static, bw, upstream):
    clue = clue_mat[0] if static else clue_mat
    return float((upstream * film_fuse(feat_k, clue, bw)).sum())


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

    Returns (max_relative_error, checked_count). Coordinates where both the
    analytic and numeric values are tiny (< 1e-12) are counted as exact.
    """
    rng = rng or np.random.default_rng(0)
    clue_mat, static = _clue_matrix(clue, bw.clue.dim_in)
    grads = film_gradients(feat_k, clue_mat[0] if static else clue_mat, bw, upstream)

    slots = []

    def arr_slot(name, arr, grad):
        for _ in range(max(1, num_coords // 6)):
            idx = tuple(rng.integers(0, d) for d in arr.shape)
            slots.append(
                (
                    f"{name}{list(idx)}",
                    lambda a=arr, i=idx: a[i],
                    lambda v, a=arr, i=idx: a.__setitem__(i, v),
                    grad[idx] if hasattr(grad, "__getitem__") else grad,
                )
            )

    w = bw.clue
    arr_slot("feat", feat_k, grads["d_feat"])
    arr_slot("clue", clue_mat, grads["d_clue"][None, :] if static else grads["d_clue"])
    arr_slot("w1", w.w, grads["w1"])
    arr_slot("b1", w.b, grads["b1"])
    arr_slot("gain", w.gain, grads["gain"])
    arr_slot("bias", w.bias, grads["bias"])
    arr_slot("w_gamma", bw.w_gamma, grads["w_gamma"])
    arr_slot("b_beta", bw.b_beta, grads["b_beta"])
    slots.append(
        (
            "prelu_slope",
            lambda: w.prelu_slope,
            lambda v: setattr(w, "prelu_slope", v),
            grads["prelu_slope"],
        )
    )
    slots.append(("k_ada", lambda: w.k_ada, lambda v: setattr(w, "k_ada", v), grads["k_ada"]))

    max_rel = 0.0
    for name, get, set_, analytic in slots:
        base = get()
        set_(base + step)
        hi = _film_loss(feat_k, clue_mat, static, bw, upstream)
        set_(base - step)
        lo = _film_loss(feat_k, clue_mat, static, bw, upstream)
        set_(base)
        numeric = (hi - lo) / (2.0 * step)
        denom = max(abs(analytic), abs(numeric))
        if denom < 1e-12:
            continue
        rel = abs(analytic - numeric) / denom
        max_rel = max(max_rel, rel)
    return max_rel, len(slots)


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


def _named_tensors(weights: FusionWeights):
    for k, bw in enumerate(weights.bands):
        for part, enc in (("feat", bw.feat), ("clue", bw.clue)):
            yield f"band{k}.{part}.w", enc.w
            yield f"band{k}.{part}.b", enc.b
            yield f"band{k}.{part}.gain", enc.gain
            yield f"band{k}.{part}.bias", enc.bias
            yield f"band{k}.{part}.prelu_slope", np.array([enc.prelu_slope])
            yield f"band{k}.{part}.k_ada", np.array([enc.k_ada])
        yield f"band{k}.gamma.w", bw.w_gamma
        yield f"band{k}.gamma.b", bw.b_gamma
        yield f"band{k}.beta.w", bw.w_beta
        yield f"band{k}.beta.b", bw.b_beta


def save_weights(weights: FusionWeights, bin_path, manifest_path) -> None:
    """float32 little-endian tensors, concatenated in manifest order."""
    entries = []
    with open(bin_path, "wb") as f:
        for name, tensor in _named_tensors(weights):
            data = np.ascontiguousarray(tensor, dtype="<f4")
            f.write(data.tobytes())
            entries.append({"name": name, "shape": list(tensor.shape)})
    manifest = {"format": "float32-le", "tensors": entries}
    Path(manifest_path).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def load_weights(bin_path, manifest_path) -> FusionWeights:
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    if manifest.get("format") != "float32-le":
        raise ValueError(f"unsupported weight format {manifest.get('format')!r}")
    raw = Path(bin_path).read_bytes()
    tensors = {}
    offset = 0
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 4
        if offset + nbytes > len(raw):
            raise ValueError(f"weight file truncated at tensor {entry['name']}")
        tensors[entry["name"]] = (
            np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
            .reshape(shape)
            .astype(np.float64)
        )
        offset += nbytes
    if offset != len(raw):
        raise ValueError("weight file has trailing bytes not covered by the manifest")

    band_ids = sorted({int(n.split(".")[0][4:]) for n in tensors if n.startswith("band")})
    if band_ids != list(range(len(band_ids))):
        raise ValueError("manifest band indices must be contiguous from 0")
    bands = []
    for k in band_ids:
        def enc(part):
            p = f"band{k}.{part}"
            return EncoderWeights(
                w=tensors[f"{p}.w"],
                b=tensors[f"{p}.b"],
                gain=tensors[f"{p}.gain"],
                bias=tensors[f"{p}.bias"],
                prelu_slope=float(tensors[f"{p}.prelu_slope"][0]),
                k_ada=float(tensors[f"{p}.k_ada"][0]),
            )

        bands.append(
            BandFusionWeights(
                feat=enc("feat"),
                clue=enc("clue"),
                w_gamma=tensors[f"band{k}.gamma.w"],
                b_gamma=tensors[f"band{k}.gamma.b"],
                w_beta=tensors[f"band{k}.beta.w"],
                b_beta=tensors[f"band{k}.beta.b"],
            )
        )
    return FusionWeights(bands)
