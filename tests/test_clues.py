import json
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from soundcompass.cli import main
from soundcompass.clues import (
    CYC_POS_MAX_ORDER,
    DoAClue,
    assoc_legendre,
    build_time_varying_clue,
    encode_cyc_pos,
    encode_sh,
    sh_complex,
)


def angle(a, b):
    """Great-circle angle between two clues, from their unit vectors."""
    return math.acos(max(-1.0, min(1.0, float(np.dot(a.unit_vector(), b.unit_vector())))))


# ---------------------------------------------------------------------------
# Independent associated-Legendre oracle: differentiate (x^2-1)^n explicitly
# via polynomial coefficients, then apply the Condon-Shortley phase and the
# (1-x^2)^(m/2) prefactor. Shares no code path with the recurrence under test.


def legendre_oracle(n: int, m: int, x: float) -> float:
    poly = npoly.polypow([-1.0, 0.0, 1.0], n) / (2.0**n * math.factorial(n))
    deriv = npoly.polyder(poly, n + m)
    return ((-1.0) ** m) * (1.0 - x * x) ** (m / 2.0) * npoly.polyval(x, deriv)


FROZEN = [
    # (n, m, x, value) computed once with legendre_oracle and frozen
    (5, 3, 0.3, 8.65914461606197),
    (3, 2, -0.6, -5.76),
    (4, 4, 0.1, 102.9105),
    (6, 0, 0.25, 0.0242767333984375),
    (5, 5, 0.9, -14.8701658009418),
    (0, 0, 0.77, 1.0),
    (1, 1, 0.5, -0.8660254037844386),
]


def test_legendre_frozen_values():
    for n, m, x, val in FROZEN:
        assert assoc_legendre(n, m, x) == pytest.approx(val, rel=1e-12, abs=1e-14)


def test_legendre_against_oracle_grid():
    xs = np.linspace(-0.95, 0.95, 21)
    for n in range(0, 7):
        for m in range(0, n + 1):
            for x in xs:
                want = legendre_oracle(n, m, float(x))
                got = assoc_legendre(n, m, float(x))
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10), (n, m, x)


def test_legendre_endpoints():
    # only m=0 survives at the poles
    for n in range(6):
        assert assoc_legendre(n, 0, 1.0) == pytest.approx(1.0)
        assert assoc_legendre(n, 0, -1.0) == pytest.approx((-1.0) ** n)
        for m in range(1, n + 1):
            assert assoc_legendre(n, m, 1.0) == 0.0
            assert assoc_legendre(n, m, -1.0) == 0.0


def test_legendre_validation():
    with pytest.raises(ValueError):
        assoc_legendre(2, 3, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre(2, -1, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre(-1, 0, 0.5)


# ---------------------------------------------------------------------------
# Complex spherical harmonics


def test_sh_frozen_value():
    got = sh_complex(2, 1, math.pi / 3, math.pi / 4)
    want = -0.23654367393939 - 0.23654367393939j
    assert got == pytest.approx(want, abs=1e-12)


def test_sh_n0_constant():
    for theta, phi in [(0.1, 0.2), (2.0, 5.0), (math.pi / 2, 0.0)]:
        assert sh_complex(0, 0, theta, phi) == pytest.approx(1.0 / math.sqrt(4 * math.pi))


def test_sh_negative_m_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(0, 6))
        m = int(rng.integers(0, n + 1))
        theta = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(0, 2 * math.pi))
        pos = sh_complex(n, m, theta, phi)
        neg = sh_complex(n, -m, theta, phi)
        assert neg == pytest.approx(((-1.0) ** m) * np.conj(pos), abs=1e-12)


def test_sh_orthonormality_quadrature():
    # Gauss-Legendre in cos(theta) x uniform trapezoid in phi integrates
    # products of harmonics up to degree 5 essentially exactly
    nodes, gl_w = np.polynomial.legendre.leggauss(16)
    thetas = np.arccos(nodes)
    n_phi = 16
    phis = 2 * math.pi * np.arange(n_phi) / n_phi
    pairs = [(n, m) for n in range(6) for m in range(-n, n + 1)]
    table = np.empty((len(pairs), len(thetas), n_phi), dtype=complex)
    for p, (n, m) in enumerate(pairs):
        for a, th in enumerate(thetas):
            for b, ph in enumerate(phis):
                table[p, a, b] = sh_complex(n, m, float(th), float(ph))
    w_full = gl_w[:, None] * (2 * math.pi / n_phi)
    gram = np.einsum("iab,jab,ab->ij", table, np.conj(table), w_full)
    np.testing.assert_allclose(gram, np.eye(len(pairs)), atol=1e-6)


def test_sh_addition_theorem():
    # sum_m |Y_n^m|^2 = (2n+1)/(4 pi), independent of direction
    rng = np.random.default_rng(11)
    for _ in range(100):
        theta = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(0, 2 * math.pi))
        for n in range(6):
            total = sum(abs(sh_complex(n, m, theta, phi)) ** 2 for m in range(-n, n + 1))
            assert total == pytest.approx((2 * n + 1) / (4 * math.pi), abs=1e-10)


def test_sh_rotation_invariance_of_kernel():
    # sum_m Y_n^m(a) conj(Y_n^m(b)) = (2n+1)/(4pi) P_n(cos angle(a,b))
    rng = np.random.default_rng(5)
    for _ in range(20):
        ta, pa = float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
        tb, pb = float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
        cosg = math.sin(ta) * math.sin(tb) * math.cos(pa - pb) + math.cos(ta) * math.cos(tb)
        for n in range(6):
            ker = sum(
                sh_complex(n, m, ta, pa) * np.conj(sh_complex(n, m, tb, pb))
                for m in range(-n, n + 1)
            )
            coeffs = np.zeros(n + 1)
            coeffs[n] = 1.0
            want = (2 * n + 1) / (4 * math.pi) * np.polynomial.legendre.legval(cosg, coeffs)
            assert ker.imag == pytest.approx(0.0, abs=1e-10)
            assert ker.real == pytest.approx(want, abs=1e-8)


# ---------------------------------------------------------------------------
# DoAClue


def test_clue_wrapping_and_validation():
    c = DoAClue(azimuth=2 * math.pi + 0.5, polar=1.0)
    assert c.azimuth == pytest.approx(0.5)
    c = DoAClue(azimuth=-0.5, polar=1.0)
    assert c.azimuth == pytest.approx(2 * math.pi - 0.5)
    with pytest.raises(ValueError):
        DoAClue(azimuth=0.0, polar=-0.1)
    with pytest.raises(ValueError):
        DoAClue(azimuth=0.0, polar=math.pi + 0.1)


def test_clue_degrees_round_trip():
    c = DoAClue.from_degrees(azimuth_deg=45.0, elevation_deg=30.0)
    assert c.azimuth == pytest.approx(math.radians(45))
    assert c.polar == pytest.approx(math.radians(60))  # polar = 90 - elevation
    az, el = c.to_degrees()
    assert az == pytest.approx(45.0)
    assert el == pytest.approx(30.0)


def test_clue_vector_round_trip():
    for az, el in [(0, 0), (90, 0), (0, 90), (45, 30), (270, -45)]:
        c = DoAClue.from_degrees(az, el)
        v = c.unit_vector()
        assert np.linalg.norm(v) == pytest.approx(1.0)
        back = DoAClue.from_vector(v)
        assert angle(c, back) == pytest.approx(0.0, abs=1e-12)


def test_clue_axis_vectors():
    np.testing.assert_allclose(DoAClue.from_degrees(0, 90).unit_vector(), [0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(DoAClue.from_degrees(0, 0).unit_vector(), [1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(DoAClue.from_degrees(90, 0).unit_vector(), [0, 1, 0], atol=1e-12)


def test_clue_angle_cases():
    a = DoAClue.from_degrees(0, 0)
    assert angle(a, DoAClue.from_degrees(90, 0)) == pytest.approx(math.pi / 2)
    assert angle(a, DoAClue.from_degrees(180, 0)) == pytest.approx(math.pi)
    assert angle(a, a) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Harmonic embedding


def test_encode_sh_layout():
    emb = encode_sh(DoAClue.from_degrees(30, 20), order=5)
    assert emb.dtype == np.float64
    assert emb.shape == (72,)  # 2 * (5+1)^2
    # first half is the real parts, second half the imaginary parts
    c = DoAClue.from_degrees(30, 20)
    vals = [
        sh_complex(n, m, c.polar, c.azimuth) for n in range(6) for m in range(-n, n + 1)
    ]
    np.testing.assert_allclose(emb[:36], [v.real for v in vals], atol=1e-12)
    np.testing.assert_allclose(emb[36:], [v.imag for v in vals], atol=1e-12)


def test_encode_sh_order_zero():
    emb = encode_sh(DoAClue.from_degrees(123, -45), order=0)
    np.testing.assert_allclose(emb, [1.0 / math.sqrt(4 * math.pi), 0.0], atol=1e-15)


def test_encode_sh_azimuth_periodicity():
    a = encode_sh(DoAClue(azimuth=0.3, polar=1.1), order=4)
    b = encode_sh(DoAClue(azimuth=0.3 + 2 * math.pi, polar=1.1), order=4)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_encode_sh_continuity():
    eps = 1e-7
    a = encode_sh(DoAClue(azimuth=1.0, polar=1.0), order=5)
    b = encode_sh(DoAClue(azimuth=1.0 + eps, polar=1.0 + eps), order=5)
    assert np.abs(a - b).max() < 1e-5


def test_encode_sh_distinguishes_directions():
    a = encode_sh(DoAClue.from_degrees(0, 0), order=5)
    b = encode_sh(DoAClue.from_degrees(10, 0), order=5)
    assert np.abs(a - b).max() > 1e-3


# ---------------------------------------------------------------------------
# Cyclic positional embedding


def test_cyc_pos_zero_direction():
    emb = encode_cyc_pos(DoAClue(azimuth=0.0, polar=0.0), order=1)
    np.testing.assert_allclose(emb, [0, 1, 0, 1, 0, 1, 0, 1], atol=1e-15)


def test_cyc_pos_structure():
    v = encode_cyc_pos(DoAClue(azimuth=0.7, polar=1.2), order=5)
    assert v.shape == (72,)
    # azimuth block: octave o contributes sin/cos of 2^o * az
    for o in range(18):
        assert v[2 * o] == pytest.approx(math.sin((2.0**o) * 0.7), abs=1e-12)
        assert v[2 * o + 1] == pytest.approx(math.cos((2.0**o) * 0.7), abs=1e-12)
    for o in range(18):
        assert v[36 + 2 * o] == pytest.approx(math.sin((2.0**o) * 1.2), abs=1e-12)
        assert v[36 + 2 * o + 1] == pytest.approx(math.cos((2.0**o) * 1.2), abs=1e-12)


def test_cyc_pos_azimuth_periodicity():
    a = encode_cyc_pos(DoAClue(azimuth=0.25, polar=0.5), order=3)
    b = encode_cyc_pos(DoAClue(azimuth=0.25 + 2 * math.pi, polar=0.5), order=3)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_cyc_pos_order_validation():
    """Only odd orders in 1-43 give a whole number of octaves that stay finite."""
    for order in (-1, 0, 2, 4, 45):
        with pytest.raises(ValueError, match=rf"cyc-pos order must be odd and in \[1, 43\], got {order}$"):
            encode_cyc_pos(DoAClue(azimuth=0.0, polar=0.0), order)


def test_encoders_agree_in_length_for_every_cyc_pos_order():
    clue = DoAClue.from_degrees(45, 10)
    for order in range(1, CYC_POS_MAX_ORDER + 1, 2):
        sh, cyc = encode_sh(clue, order), encode_cyc_pos(clue, order)
        assert sh.shape == cyc.shape == (2 * (order + 1) ** 2,)
        assert sh.dtype == cyc.dtype == np.float64
        assert np.isfinite(cyc).all()


# ---------------------------------------------------------------------------
# The JSON that `clue` writes


def test_embedding_json_round_trip(tmp_path):
    """`soundcompass clue` writes the given kind and order and the embedding, to 10 decimals."""
    emb = encode_sh(DoAClue.from_degrees(12, 34), order=3)
    out = tmp_path / "clue.json"
    assert main(["clue", "--az", "12", "--el", "34", "--order", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert set(payload) == {"kind", "order", "vector"}
    assert (payload["kind"], payload["order"]) == ("sh", 3)
    np.testing.assert_allclose(payload["vector"], emb, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# Time-varying clue


def test_time_varying_outer_product():
    emb = encode_sh(DoAClue.from_degrees(0, 0), order=2)
    act = np.array([0.0, 1.0, 0.5, 1.0])
    mat = build_time_varying_clue(emb, act, num_frames=4)
    assert mat.shape == (4, 18) and mat.dtype == np.float64
    np.testing.assert_allclose(mat[0], 0.0, atol=1e-15)
    np.testing.assert_allclose(mat[1], emb, atol=1e-15)
    np.testing.assert_allclose(mat[2], 0.5 * emb, atol=1e-15)


def test_time_varying_interpolation():
    emb = encode_sh(DoAClue.from_degrees(0, 0), order=0)
    act = np.array([0.0, 1.0])
    mat = build_time_varying_clue(emb, act, num_frames=5)
    # activation resampled linearly onto 5 frames: 0, .25, .5, .75, 1
    scale = mat[:, 0] / emb[0]
    np.testing.assert_allclose(scale, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)


def test_time_varying_constant_activation():
    emb = encode_sh(DoAClue.from_degrees(40, 10), order=3)
    mat = build_time_varying_clue(emb, np.ones(7), num_frames=3)
    for t in range(3):
        np.testing.assert_allclose(mat[t], emb, atol=1e-15)


def branched_scale(activation, num_frames):
    """The per-case resampling that np.interp over one position grid replaced."""
    t_src = activation.size
    if num_frames == 1:
        return activation[:1] if t_src == 1 else np.array([activation[0]])
    if t_src == 1:
        return np.full(num_frames, activation[0])
    pos = np.arange(num_frames) * (t_src - 1) / (num_frames - 1)
    return np.interp(pos, np.arange(t_src), activation)


def test_time_varying_scale_matches_branched_reference():
    emb = encode_sh(DoAClue.from_degrees(30, -5), order=2)
    rng = np.random.default_rng(5)
    for t_src in (1, 2, 3, 7, 250):
        act = rng.uniform(0.0, 1.0, t_src)
        for num_frames in (1, 2, 3, 7, 250):
            mat = build_time_varying_clue(emb, act, num_frames)
            expected = branched_scale(act, num_frames)[:, None] * emb[None, :]
            assert np.array_equal(mat, expected), (t_src, num_frames)


def test_time_varying_validation():
    emb = encode_sh(DoAClue.from_degrees(0, 0), order=1)
    with pytest.raises(ValueError):
        build_time_varying_clue(emb, np.array([0.0, 1.5]), num_frames=3)
    with pytest.raises(ValueError):
        build_time_varying_clue(emb, np.array([-0.1, 0.5]), num_frames=3)
    with pytest.raises(ValueError):
        build_time_varying_clue(emb, np.array([]), num_frames=3)
    with pytest.raises(ValueError):
        build_time_varying_clue(emb, np.ones(4), num_frames=0)
