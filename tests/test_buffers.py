import numpy as np
import pytest

from soundcompass import buffers
from soundcompass.buffers import MIN_BYTES, recycled_empty
from soundcompass.spectral import ComplexSpectrogram, make_band_layout, merge_bands, split_bands
from soundcompass.spin import normalize_planes, spin_forward

from conftest import complex_normal

LARGE = (4, MIN_BYTES // 8 // 4)  # exactly MIN_BYTES of float64


@pytest.fixture(autouse=True)
def no_spare(monkeypatch):
    monkeypatch.setattr(buffers, "_spare", [])


def mapping(a):
    return a.base.base.obj  # reshape view -> flat array -> memoryview -> mmap


def spare_is(*maps):
    return len(buffers._spare) == len(maps) and all(s is m for s, m in zip(buffers._spare, maps))


def test_small_array_is_plain_numpy():
    a = recycled_empty((3, 5))
    assert a.shape == (3, 5) and a.dtype == np.float64 and a.flags.owndata


def test_freed_mapping_goes_to_next_array_of_its_size():
    a = recycled_empty(LARGE)
    assert a.flags.c_contiguous and a.flags.writeable and a.shape == LARGE
    first = mapping(a)
    view = a[1:]
    del a
    assert spare_is()  # a view keeps the mapping in use
    del view
    assert spare_is(first)
    b = recycled_empty(LARGE[::-1])
    assert mapping(b) is first and spare_is()
    c = recycled_empty(LARGE)
    assert mapping(c) is not first and not np.shares_memory(b, c)
    d = recycled_empty((2,) + LARGE)
    del c, d
    assert [len(m) for m in buffers._spare] == [MIN_BYTES, 2 * MIN_BYTES]


def test_spare_mappings_are_capped(monkeypatch):
    monkeypatch.setattr(buffers, "MAX_SPARE_BYTES", MIN_BYTES)
    a, b = recycled_empty(LARGE), recycled_empty(LARGE)
    kept = mapping(a)
    del a, b
    assert spare_is(kept)


def test_outputs_on_reused_memory_match_reference(rng):
    x = complex_normal(rng, (4, 64, 257))  # pairwise of 64 * 64 * 257 floats
    spec = ComplexSpectrogram(x, 256, 512, 16000)
    layout = make_band_layout(257, 16000)
    unit = normalize_planes(np.concatenate([x.real, x.imag]))
    want = (unit[:, None] * unit[None, :]).reshape(64, 64, 257)
    for reused in (0, 2):
        assert len(buffers._spare) == reused
        for m in buffers._spare:  # stale data that the outputs must not show
            np.frombuffer(m, dtype=np.float64).fill(7.0)
        feat = spin_forward(spec)
        np.testing.assert_array_equal(feat.pairwise, want)
        zeros = merge_bands([np.zeros_like(b) for b in split_bands(feat.pairwise, layout)], layout)
        assert not zeros.any()
        del feat, zeros
