from dataclasses import fields

import numpy as np
import pytest

from soundcompass import fusion
from soundcompass.fusion import (
    ADANORM_EPS,
    BandFusionWeights,
    EncoderWeights,
    FusedFeature,
    encode_band_feature,
    film_fuse,
    film_gradients,
    finite_difference_check,
    fuse_all_bands,
    init_fusion_weights,
)
from soundcompass.spectral import BandLayout, ComplexSpectrogram, make_band_layout
from soundcompass.spin import spin_forward

from conftest import complex_normal


# film_gradients' parameter keys, in finite_difference_check's order: the clue
# encoder's fields as "clue.<field>", then the band's own fields
PARAM_KEYS = [f"clue.{f.name}" for f in fields(EncoderWeights)] + [
    f.name for f in fields(BandFusionWeights) if f.name not in ("feat", "clue")
]


def param_slot(bw, key):
    """The (object, attribute) a film_gradients parameter key names."""
    owner, _, attr = key.rpartition(".")
    return (getattr(bw, owner) if owner else bw), attr


def make_encoder(rng, dim_in, dim_out, bias_free=False):
    return EncoderWeights(
        w=rng.standard_normal((dim_out, dim_in)),
        b=np.zeros(dim_out) if bias_free else rng.standard_normal(dim_out),
        gain=rng.uniform(0.5, 1.5, dim_out),
        bias=np.zeros(dim_out) if bias_free else rng.standard_normal(dim_out) * 0.1,
    )


def make_band_weights(rng, dim_clue=6, c=3, hidden=5, **kw):
    return BandFusionWeights(
        feat=make_encoder(rng, kw.get("c_in", c), c),
        clue=make_encoder(rng, dim_clue, hidden, bias_free=kw.get("bias_free", False)),
        w_gamma=rng.standard_normal((c, hidden)) * 0.3,
        b_gamma=rng.standard_normal(c) * 0.1,
        w_beta=rng.standard_normal((c, hidden)) * 0.3,
        b_beta=rng.standard_normal(c) * 0.1,
    )


def oracle_encoding(x, w):
    """Loop-free restatement of the block from its written definition."""
    a = x @ w.w.T + w.b
    mu = a.mean(axis=-1, keepdims=True)
    var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
    y = (a - mu) / np.sqrt(var + ADANORM_EPS)
    z = w.gain * ((1.0 - w.k_ada * y) * y) + w.bias
    return np.where(z >= 0, z, w.prelu_slope * z)


def oracle_film(feat, clue_rows, bw, static):
    """Scalar-loop oracle for the modulation, one (c, t, f) cell at a time."""
    c_n, t_n, f_n = feat.shape
    out = np.empty_like(feat)
    for t in range(t_n):
        row = clue_rows[0] if static else clue_rows[t]
        h = oracle_encoding(row, bw.clue)
        gamma = bw.w_gamma @ h + bw.b_gamma
        beta = bw.w_beta @ h + bw.b_beta
        for c in range(c_n):
            for f in range(f_n):
                out[c, t, f] = feat[c, t, f] + gamma[c] * feat[c, t, f] + beta[c]
    return out


# ---------------------------------------------------------------------------
# Forward path


def test_film_matches_scalar_oracle_static(rng):
    bw = make_band_weights(rng)
    feat = rng.standard_normal((3, 4, 5))
    clue = rng.standard_normal(6)
    got = film_fuse(feat, clue, bw)
    want = oracle_film(feat, clue[None, :], bw, static=True)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_film_matches_scalar_oracle_time_varying(rng):
    bw = make_band_weights(rng)
    feat = rng.standard_normal((3, 4, 5))
    clue = rng.standard_normal((4, 6))
    got = film_fuse(feat, clue, bw)
    want = oracle_film(feat, clue, bw, static=False)
    np.testing.assert_allclose(got, want, atol=1e-12)


def last_axis_encode(x, w):
    """encode_band_feature over the last axis of x, on the moved-axis input."""
    return np.moveaxis(encode_band_feature(np.moveaxis(x, -1, 0), w), 0, -1)


def test_encoding_block_matches_oracle(rng):
    w = make_encoder(rng, 7, 4)
    x = rng.standard_normal((3, 5, 7))
    np.testing.assert_allclose(last_axis_encode(x, w), oracle_encoding(x, w), atol=1e-12)


def test_null_modulation_is_bitwise_passthrough(rng):
    c, hidden = 3, 5
    bw = BandFusionWeights(
        feat=make_encoder(rng, c, c),
        clue=make_encoder(rng, 6, hidden),
        w_gamma=np.zeros((c, hidden)),
        b_gamma=np.zeros(c),
        w_beta=np.zeros((c, hidden)),
        b_beta=np.zeros(c),
    )
    feat = rng.standard_normal((c, 4, 5))
    out = film_fuse(feat, rng.standard_normal(6), bw)
    np.testing.assert_array_equal(out, feat)


def test_unit_gamma_doubles(rng):
    c, hidden = 2, 4
    bw = BandFusionWeights(
        feat=make_encoder(rng, c, c),
        clue=make_encoder(rng, 6, hidden),
        w_gamma=np.zeros((c, hidden)),
        b_gamma=np.ones(c),
        w_beta=np.zeros((c, hidden)),
        b_beta=np.zeros(c),
    )
    feat = rng.standard_normal((c, 3, 4))
    out = film_fuse(feat, rng.standard_normal(6), bw)
    np.testing.assert_allclose(out, 2.0 * feat, atol=1e-15)


def test_beta_shift_is_additive(rng):
    bw = make_band_weights(rng)
    feat = rng.standard_normal((3, 4, 5))
    clue = rng.standard_normal(6)
    base = film_fuse(feat, clue, bw)
    bw.b_beta = bw.b_beta + 0.75
    shifted = film_fuse(feat, clue, bw)
    np.testing.assert_allclose(shifted - base, 0.75, atol=1e-12)


def test_relu_limit_zero_slope(rng):
    w = make_encoder(rng, 6, 5)
    w.prelu_slope = 0.0
    out = last_axis_encode(rng.standard_normal((10, 6)), w)
    assert np.all(out >= 0.0)
    assert (out == 0.0).any()  # some units do go negative pre-activation


@pytest.mark.parametrize("slope", [-0.5, 0.0, 0.25, 1.0, 1.5])
def test_prelu_equals_masked_multiply_bitwise(rng, slope):
    tiny = np.finfo(np.float64).smallest_subnormal
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, 3 * tiny, -2.5e-310, 2.5e-310]
    z = np.concatenate([special, rng.standard_normal(1000), 1e300 * rng.standard_normal(50)])
    want = z.copy()
    with np.errstate(invalid="ignore"):  # -inf * 0 is NaN on both paths
        np.multiply(want, slope, out=want, where=want < 0.0)
        fusion._prelu(z, slope)
    assert z.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_zero_clue_bias_free_passthrough(rng):
    # all-zero clue through a bias-free encoder leaves h = 0, so with zero
    # gamma/beta biases the modulation is exactly the identity
    c, hidden = 3, 5
    bw = BandFusionWeights(
        feat=make_encoder(rng, c, c),
        clue=make_encoder(rng, 6, hidden, bias_free=True),
        w_gamma=rng.standard_normal((c, hidden)),
        b_gamma=np.zeros(c),
        w_beta=rng.standard_normal((c, hidden)),
        b_beta=np.zeros(c),
    )
    feat = rng.standard_normal((c, 4, 5))
    out = film_fuse(feat, np.zeros(6), bw)
    np.testing.assert_array_equal(out, feat)


def test_static_equals_constant_time_varying(rng):
    bw = make_band_weights(rng)
    feat = rng.standard_normal((3, 4, 5))
    vec = rng.standard_normal(6)
    static = film_fuse(feat, vec, bw)
    tv = film_fuse(feat, np.tile(vec, (4, 1)), bw)
    np.testing.assert_allclose(static, tv, atol=1e-14)


def test_forward_deterministic(rng):
    bw = make_band_weights(rng)
    feat = rng.standard_normal((3, 4, 5))
    clue = rng.standard_normal(6)
    a = film_fuse(feat, clue, bw)
    b = film_fuse(feat, clue, bw)
    np.testing.assert_array_equal(a, b)


def test_film_shape_errors(rng):
    bw = make_band_weights(rng)
    with pytest.raises(ValueError):
        film_fuse(rng.standard_normal((3, 4)), rng.standard_normal(6), bw)
    with pytest.raises(ValueError):
        film_fuse(rng.standard_normal((3, 4, 5)), rng.standard_normal(7), bw)
    with pytest.raises(ValueError):  # TV frame mismatch
        film_fuse(rng.standard_normal((3, 4, 5)), rng.standard_normal((9, 6)), bw)
    with pytest.raises(ValueError):  # wrong channel count
        film_fuse(rng.standard_normal((2, 4, 5)), rng.standard_normal(6), bw)


@pytest.mark.parametrize(
    "clue, match",
    [
        (np.zeros((4, 6, 1)), "clue must be a vector or"),
        (np.zeros(7), "clue dim 7 != encoder input 6"),
        (np.zeros((4, 7)), "clue dim 7 != encoder input 6"),
        (np.zeros((9, 6)), "time-varying clue has 9 frames, features have 4"),
        (np.full(6, np.nan), "non-finite values in clue"),
        (np.full((4, 6), np.inf), "non-finite values in clue"),
    ],
    ids=["3d", "vector_dim", "matrix_dim", "frames", "nan_vector", "inf_matrix"],
)
def test_clue_matrix_rejections_name_the_fault(rng, clue, match):
    bw = make_band_weights(rng)
    feat = rng.standard_normal((3, 4, 5))
    with pytest.raises(ValueError, match=match):
        film_fuse(feat, clue, bw)
    with pytest.raises(ValueError, match=match):
        film_gradients(feat, clue, bw, feat)


def test_encode_band_feature_shape(rng):
    w = make_encoder(rng, 9, 4)
    band = rng.standard_normal((9, 6, 11))
    out = encode_band_feature(band, w)
    assert out.shape == (4, 6, 11)
    # channel mixing happens per (t, f) cell
    np.testing.assert_allclose(out[:, 2, 3], oracle_encoding(band[:, 2, 3], w), atol=1e-12)


# ---------------------------------------------------------------------------
# All-band fusion


def test_fuse_all_bands_shapes(rng):
    layout = make_band_layout(33, 2000, f_min=80.0)
    spin = spin_forward(ComplexSpectrogram(complex_normal(rng, (2, 5, 33)), 32, 64, 2000))
    weights = init_fusion_weights(layout, dim_clue=6, c_in=16, c_band=3, hidden=5, seed=1)
    fused = fuse_all_bands(spin, layout, rng.standard_normal(6), weights)
    assert len(fused.bands) == layout.num_bands
    for (lo, hi), band in zip(layout.bands, fused.bands):
        assert band.shape == (3, 5, hi - lo + 1)


def test_fuse_all_bands_single_band_matches_manual(rng):
    layout = BandLayout(bands=[(0, 8)], num_bins=9)
    spin = spin_forward(ComplexSpectrogram(complex_normal(rng, (2, 5, 9)), 8, 16, 16000))
    weights = init_fusion_weights(layout, dim_clue=6, c_in=16, c_band=3, hidden=5, seed=2)
    clue = rng.standard_normal(6)
    fused = fuse_all_bands(spin, layout, clue, weights)
    manual = film_fuse(
        encode_band_feature(spin.pairwise, weights.bands[0].feat), clue, weights.bands[0]
    )
    np.testing.assert_array_equal(fused.bands[0], manual)


def test_fuse_all_bands_error_names_band(rng):
    layout = BandLayout(bands=[(0, 4), (3, 8)], num_bins=9)
    spin = spin_forward(ComplexSpectrogram(complex_normal(rng, (2, 5, 9)), 8, 16, 16000))
    weights = init_fusion_weights(layout, dim_clue=6, c_in=16, c_band=3, hidden=5)
    with pytest.raises(ValueError, match="band 0"):
        fuse_all_bands(spin, layout, rng.standard_normal(7), weights)


def test_fused_feature_validates_frames(rng):
    layout = BandLayout(bands=[(0, 4), (3, 8)], num_bins=9)
    with pytest.raises(ValueError):
        FusedFeature([rng.standard_normal((2, 4, 5)), rng.standard_normal((2, 3, 6))], layout)


# ---------------------------------------------------------------------------
# Gradients


def test_gradients_match_finite_differences_static(rng):
    bw = make_band_weights(rng)
    feat = rng.standard_normal((3, 4, 5))
    clue = rng.standard_normal(6)
    upstream = rng.standard_normal((3, 4, 5))
    max_rel, checked = finite_difference_check(bw, feat, clue, upstream, num_coords=40, rng=rng)
    assert checked >= 10
    assert max_rel <= 1e-5


def test_gradients_match_finite_differences_time_varying(rng):
    bw = make_band_weights(rng)
    feat = rng.standard_normal((3, 4, 5))
    clue = rng.standard_normal((4, 6))
    upstream = rng.standard_normal((3, 4, 5))
    max_rel, checked = finite_difference_check(bw, feat, clue, upstream, num_coords=40, rng=rng)
    assert max_rel <= 1e-5


def test_gradients_many_seeded_configs():
    # sweep of shapes and seeds; every configuration must pass the check.
    # hidden >= 3: a two-unit normalization pins y to +-1 and leaves encoder
    # gradients near the central-difference truncation floor, where a pure
    # relative comparison is meaningless.
    worst = 0.0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(1, 5))
        hidden = int(rng.integers(3, 8))
        dim = int(rng.integers(2, 9))
        t_n = int(rng.integers(1, 6))
        bw = make_band_weights(rng, dim_clue=dim, c=c, hidden=hidden)
        feat = rng.standard_normal((c, t_n, 3))
        upstream = rng.standard_normal((c, t_n, 3))
        clue = rng.standard_normal(dim) if seed % 2 else rng.standard_normal((t_n, dim))
        max_rel, _ = finite_difference_check(bw, feat, clue, upstream, num_coords=20, rng=rng)
        worst = max(worst, max_rel)
    assert worst <= 1e-5


@pytest.mark.parametrize("key", PARAM_KEYS, ids=[key.rpartition(".")[2] for key in PARAM_KEYS])
def test_finite_difference_check_catches_each_wrong_gradient(rng, monkeypatch, key):
    # every weight film_fuse reads is perturbed: a 1% error in any one gradient shows
    exact = fusion.film_gradients

    def skewed(*args):
        grads = exact(*args)
        grads[key] = 1.01 * grads[key] + 1e-3
        return grads

    monkeypatch.setattr(fusion, "film_gradients", skewed)
    bw = make_band_weights(rng)
    feat, upstream = rng.standard_normal((2, 3, 4, 5))
    max_rel, checked = finite_difference_check(bw, feat, rng.standard_normal(6), upstream, rng=rng)
    assert max_rel > 1e-5, key
    assert checked == 2 + 10  # feat, clue and one coordinate or float per gradient key


def test_film_gradients_keys_name_the_weight_fields(rng):
    bw = make_band_weights(rng)
    feat, upstream = rng.standard_normal((2, 3, 4, 5))
    grads = film_gradients(feat, rng.standard_normal(6), bw, upstream)
    assert list(grads) == ["d_feat", "d_clue"] + PARAM_KEYS
    for key in PARAM_KEYS:
        assert np.shape(getattr(*param_slot(bw, key))) == np.shape(grads[key]), key


def test_finite_difference_check_restores_every_value(rng):
    bw = make_band_weights(rng)
    feat, upstream = rng.standard_normal((2, 3, 4, 5))
    clue = rng.standard_normal((4, 6))
    params = [param_slot(bw, key) for key in PARAM_KEYS]
    before = [getattr(obj, attr) for obj, attr in params]
    copies = [np.copy(v) for v in before + [feat, clue]]
    finite_difference_check(bw, feat, clue, upstream, num_coords=40, rng=rng)
    after = [getattr(obj, attr) for obj, attr in params]
    assert all(a is b for a, b in zip(after, before))  # floats stay floats, arrays are not replaced
    for value, copy in zip(after + [feat, clue], copies):
        np.testing.assert_array_equal(value, copy)


def test_zero_upstream_zeroes_gradients(rng):
    bw = make_band_weights(rng)
    feat = rng.standard_normal((3, 4, 5))
    grads = film_gradients(feat, rng.standard_normal(6), bw, np.zeros((3, 4, 5)))
    for name, g in grads.items():
        np.testing.assert_array_equal(np.asarray(g), 0.0, err_msg=name)


def test_gamma_path_closed_form(rng):
    # with w_beta = b_beta = 0, loss = sum(U * (F + gamma*F)) so
    # d/d_b_gamma[c] = sum_{t,f} U[c,t,f] * F[c,t,f]
    c, hidden = 3, 4
    bw = BandFusionWeights(
        feat=make_encoder(rng, c, c),
        clue=make_encoder(rng, 6, hidden),
        w_gamma=rng.standard_normal((c, hidden)),
        b_gamma=rng.standard_normal(c),
        w_beta=np.zeros((c, hidden)),
        b_beta=np.zeros(c),
    )
    feat = rng.standard_normal((c, 4, 5))
    upstream = rng.standard_normal((c, 4, 5))
    grads = film_gradients(feat, rng.standard_normal(6), bw, upstream)
    np.testing.assert_allclose(grads["b_gamma"], (upstream * feat).sum(axis=(1, 2)), atol=1e-12)
    np.testing.assert_allclose(grads["b_beta"], upstream.sum(axis=(1, 2)), atol=1e-12)


def test_d_feat_closed_form(rng):
    # gamma is constant under a static clue: d_feat = U * (1 + gamma)
    bw = make_band_weights(rng)
    feat = rng.standard_normal((3, 4, 5))
    clue = rng.standard_normal(6)
    upstream = rng.standard_normal((3, 4, 5))
    grads = film_gradients(feat, clue, bw, upstream)
    base = film_fuse(np.zeros_like(feat), clue, bw)
    ones_resp = film_fuse(np.ones_like(feat), clue, bw) - base  # equals 1 + gamma
    np.testing.assert_allclose(grads["d_feat"], upstream * ones_resp, atol=1e-12)


# ---------------------------------------------------------------------------
# Reference-pinned band kernels: the last-axis formulations these functions
# replaced, kept here as references

KERNEL_BOUND = 1e-12  # relative to the reference's largest magnitude; set before measuring


def last_axis_encoding_block(x, w):
    """The block over the last axis, as the removed encoding_block computed it."""
    a = x @ w.w.T + w.b
    mu = a.mean(axis=-1, keepdims=True)
    y = (a - mu) / np.sqrt(((a - mu) ** 2).mean(axis=-1, keepdims=True) + ADANORM_EPS)
    z = w.gain * ((1.0 - w.k_ada * y) * y) + w.bias
    return np.where(z >= 0.0, z, w.prelu_slope * z)


def moveaxis_encode_band_feature(band, w):
    return np.moveaxis(last_axis_encoding_block(np.moveaxis(band, 0, -1), w), -1, 0)


def reference_gamma_beta(clue, bw):
    clue_mat = np.atleast_2d(clue)
    h = last_axis_encoding_block(clue_mat, bw.clue)
    return h, h @ bw.w_gamma.T + bw.b_gamma, h @ bw.w_beta.T + bw.b_beta


def sum_film_fuse(feat, clue, bw):
    _, gamma, beta = reference_gamma_beta(clue, bw)
    static = np.ndim(clue) == 1
    g = gamma[0][:, None, None] if static else gamma.T[:, :, None]
    b = beta[0][:, None, None] if static else beta.T[:, :, None]
    return feat + g * feat + b


def sum_film_gradients(feat, clue, bw, upstream):
    """The backward pass with the band reductions written as .sum(axis=2)."""
    static = np.ndim(clue) == 1
    clue_mat = np.atleast_2d(clue)
    w = bw.clue
    a = clue_mat @ w.w.T + w.b
    mu = a.mean(axis=-1, keepdims=True)
    s = np.sqrt(((a - mu) ** 2).mean(axis=-1, keepdims=True) + ADANORM_EPS)
    y = (a - mu) / s
    yw = (1.0 - w.k_ada * y) * y
    z = w.gain * yw + w.bias
    h = np.where(z >= 0.0, z, w.prelu_slope * z)
    gamma = h @ bw.w_gamma.T + bw.b_gamma
    if static:
        d_feat = upstream * (1.0 + gamma[0][:, None, None])
        g_gamma = (upstream * feat).sum(axis=(1, 2))[None, :]
        g_beta = upstream.sum(axis=(1, 2))[None, :]
    else:
        d_feat = upstream * (1.0 + gamma.T[:, :, None])
        g_gamma = (upstream * feat).sum(axis=2).T
        g_beta = upstream.sum(axis=2).T
    g_h = g_gamma @ bw.w_gamma + g_beta @ bw.w_beta
    g_z = g_h * np.where(z >= 0.0, 1.0, w.prelu_slope)
    g_yw = g_z * w.gain
    g_y = g_yw * (1.0 - 2.0 * w.k_ada * y)
    g_a = (g_y - g_y.mean(axis=-1, keepdims=True) - y * (g_y * y).mean(axis=-1, keepdims=True)) / s
    d_clue = g_a @ w.w
    return {
        "d_feat": d_feat,
        "d_clue": d_clue[0] if static else d_clue,
        "clue.w": g_a.T @ clue_mat,
        "clue.b": g_a.sum(axis=0),
        "clue.gain": (g_z * yw).sum(axis=0),
        "clue.bias": g_z.sum(axis=0),
        "clue.prelu_slope": float((g_h * z * (z < 0.0)).sum()),
        "clue.k_ada": float((g_yw * (-(y**2))).sum()),
        "w_gamma": g_gamma.T @ h,
        "b_gamma": g_gamma.sum(axis=0),
        "w_beta": g_beta.T @ h,
        "b_beta": g_beta.sum(axis=0),
    }


def assert_close_to_reference(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= KERNEL_BOUND * max(1.0, np.abs(want).max())


def kernel_cases(rng):
    """(band, clue, weights, upstream): static and time-varying clues, and a
    band that is a strided view into a wider tensor."""
    t, width, c_in, c = 7, 5, 12, 4
    wide = rng.standard_normal((c_in, t, 3 * width))
    contiguous = rng.standard_normal((c_in, t, width))
    for band in (contiguous, wide[:, :, 1 : 3 * width : 3]):
        for clue in (rng.standard_normal(6), rng.standard_normal((t, 6))):
            bw = make_band_weights(rng, c=c, c_in=c_in)
            yield band, clue, bw, rng.standard_normal((c, t, width))


def test_band_kernels_match_last_axis_references(rng):
    for band, clue, bw, upstream in kernel_cases(rng):
        x = np.moveaxis(band, 0, -1)
        assert_close_to_reference(last_axis_encode(x, bw.feat), last_axis_encoding_block(x, bw.feat))
        assert_close_to_reference(last_axis_encode(clue, bw.clue), last_axis_encoding_block(clue, bw.clue))
        enc = encode_band_feature(band, bw.feat)
        assert_close_to_reference(enc, moveaxis_encode_band_feature(band, bw.feat))
        assert_close_to_reference(film_fuse(enc, clue, bw), sum_film_fuse(enc, clue, bw))
        got = film_gradients(enc, clue, bw, upstream)
        want = sum_film_gradients(enc, clue, bw, upstream)
        assert sorted(got) == sorted(want)
        for name in want:
            assert_close_to_reference(got[name], want[name])


def test_encode_band_feature_checks_kept(rng):
    w = make_encoder(rng, 9, 4)
    band = rng.standard_normal((9, 6, 11))
    band[3, 2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite values in encoding_block input"):
        encode_band_feature(band, w)
    with pytest.raises(ValueError, match="input width 8 != weight input 9"):
        encode_band_feature(np.zeros((8, 6, 11)), w)


def test_fuse_all_bands_matches_per_band_references(rng):
    layout = make_band_layout(33, 2000, f_min=80.0)
    spin = spin_forward(ComplexSpectrogram(complex_normal(rng, (4, 9, 33)), 16, 64, 2000))
    c_in = spin.pairwise.shape[0]
    weights = init_fusion_weights(layout, dim_clue=6, c_in=c_in, c_band=4, hidden=5, seed=3)
    clue = rng.standard_normal((9, 6))
    fused = fuse_all_bands(spin, layout, clue, weights)
    for (lo, hi), bw, got in zip(layout.bands, weights.bands, fused.bands):
        band = spin.pairwise[..., lo : hi + 1]
        want = sum_film_fuse(moveaxis_encode_band_feature(band, bw.feat), clue, bw)
        assert_close_to_reference(got, want)


@pytest.mark.parametrize("frames", [1, 4])
def test_static_clue_gradients_equal_tiled_clue_gradients(rng, frames):
    # a static clue is the one-frame case: its gradients are the tiled
    # clue's, with d_clue summed over the frames it modulates
    bw = make_band_weights(rng)
    feat = rng.standard_normal((3, frames, 5))
    upstream = rng.standard_normal(feat.shape)
    vec = rng.standard_normal(6)
    static = film_gradients(feat, vec, bw, upstream)
    tiled = film_gradients(feat, np.tile(vec, (frames, 1)), bw, upstream)
    assert sorted(static) == sorted(tiled)
    for name, want in tiled.items():
        assert_close_to_reference(static[name], want.sum(axis=0) if name == "d_clue" else want)


# ---------------------------------------------------------------------------
# Init


def test_init_deterministic_per_seed():
    layout = BandLayout(bands=[(0, 4), (3, 8)], num_bins=9)
    a = init_fusion_weights(layout, dim_clue=6, c_in=16, c_band=3, hidden=5, seed=7)
    b = init_fusion_weights(layout, dim_clue=6, c_in=16, c_band=3, hidden=5, seed=7)
    c = init_fusion_weights(layout, dim_clue=6, c_in=16, c_band=3, hidden=5, seed=8)
    np.testing.assert_array_equal(a.bands[0].feat.w, b.bands[0].feat.w)
    np.testing.assert_array_equal(a.bands[1].w_gamma, b.bands[1].w_gamma)
    assert not np.array_equal(a.bands[0].feat.w, c.bands[0].feat.w)
    assert a.num_bands == 2
