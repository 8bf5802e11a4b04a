import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundcompass.scenes import (
    SceneSpec,
    SceneValidationError,
    SourceSpec,
    read_manifest,
    resolve_array,
    scene_from_dict,
    tetrahedral_offsets,
)

from conftest import JSON_VALUES, UNREADABLE_JSON, replace_at


def minimal_dict(**over):
    d = {
        "room_dims": [6.0, 5.0, 3.0],
        "rt60_s": 0.3,
        "array_center": [3.0, 2.5, 1.5],
        "array": "tetrahedral_4ch_r0.042",
        "sources": [
            {"position": [1.0, 1.0, 1.0], "class": "speech", "gain_db": 0.0, "wav": "s.wav"}
        ],
    }
    d.update(over)
    return d


def test_tetrahedral_geometry():
    v = tetrahedral_offsets(0.042)
    assert v.shape == (4, 3)
    # all vertices on the circumsphere
    np.testing.assert_allclose(np.linalg.norm(v, axis=1), 0.042, atol=1e-12)
    # centroid at the origin
    np.testing.assert_allclose(v.mean(axis=0), 0.0, atol=1e-12)
    # regular: all 6 edges equal r*sqrt(8/3)
    edges = [np.linalg.norm(v[i] - v[j]) for i in range(4) for j in range(i + 1, 4)]
    np.testing.assert_allclose(edges, 0.042 * math.sqrt(8.0 / 3.0), atol=1e-12)
    # first vertex on +z, second in the xz plane
    assert v[0, 0] == pytest.approx(0.0)
    assert v[0, 2] == pytest.approx(0.042)
    assert v[1, 1] == pytest.approx(0.0)


def test_preset_radius_parsing():
    off = resolve_array("tetrahedral_4ch_r0.05")
    np.testing.assert_allclose(np.linalg.norm(off, axis=1), 0.05, atol=1e-12)
    with pytest.raises(SceneValidationError):
        resolve_array("pentagonal_5ch_r0.042")


def test_explicit_offsets():
    off = resolve_array({"offsets": [[0, 0, 0], [0.1, 0, 0]]})
    np.testing.assert_array_equal(off, [[0, 0, 0], [0.1, 0, 0]])


def test_scene_from_dict_round_trip(tmp_path):
    # a scene dict written as a manifest line reads back as the same scene
    d = minimal_dict(noise={"wav": "n.wav", "gain_db": -3.0}, seed=4)
    spec = scene_from_dict(d)
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps(d) + "\n", encoding="utf-8")
    (spec2,) = read_manifest(path)
    np.testing.assert_array_equal(spec2.room_dims, d["room_dims"])
    np.testing.assert_array_equal(spec2.array_center, d["array_center"])
    np.testing.assert_array_equal(spec2.array_offsets, tetrahedral_offsets(0.042))
    np.testing.assert_array_equal(spec2.sources[0].position, d["sources"][0]["position"])
    assert spec2.sources[0].class_label == "speech"
    assert (spec2.rt60_s, spec2.absorption, spec2.seed) == (0.3, None, 4)
    assert (spec2.noise.wav, spec2.noise.gain_db) == ("n.wav", -3.0)
    np.testing.assert_array_equal(spec2.array_offsets, spec.array_offsets)


def test_unknown_key_rejected():
    with pytest.raises(SceneValidationError, match="unknown"):
        scene_from_dict(minimal_dict(extra_field=1))
    bad_source = minimal_dict()
    bad_source["sources"][0]["loudness"] = 3
    with pytest.raises(SceneValidationError, match="unknown"):
        scene_from_dict(bad_source)


def test_missing_field_named_in_error():
    d = minimal_dict()
    del d["room_dims"]
    with pytest.raises(SceneValidationError, match="room_dims"):
        scene_from_dict(d)


def test_rt60_xor_absorption():
    with pytest.raises(SceneValidationError):
        scene_from_dict(minimal_dict(absorption=[0.5] * 6))  # both given
    d = minimal_dict()
    del d["rt60_s"]
    with pytest.raises(SceneValidationError):
        scene_from_dict(d)  # neither given
    ok = minimal_dict()
    del ok["rt60_s"]
    ok["absorption"] = [0.4] * 6
    np.testing.assert_array_equal(scene_from_dict(ok).absorption, [0.4] * 6)


def test_absorption_range_checked():
    d = minimal_dict()
    del d["rt60_s"]
    d["absorption"] = [0.4] * 5 + [1.5]
    with pytest.raises(SceneValidationError):
        scene_from_dict(d)


def test_negative_seed_rejected():
    with pytest.raises(SceneValidationError, match="seed must be a non-negative integer, got -1"):
        scene_from_dict(minimal_dict(seed=-1))
    assert scene_from_dict(minimal_dict(seed=10**30)).seed == 10**30


def test_source_outside_room_rejected():
    d = minimal_dict()
    d["sources"][0]["position"] = [7.0, 1.0, 1.0]
    with pytest.raises(SceneValidationError, match="source"):
        scene_from_dict(d)


def test_array_outside_room_rejected():
    d = minimal_dict(array_center=[5.999, 2.5, 1.5])
    with pytest.raises(SceneValidationError):
        scene_from_dict(d)


def test_needs_at_least_one_source():
    with pytest.raises(SceneValidationError):
        scene_from_dict(minimal_dict(sources=[]))


def test_noise_block_parsed():
    spec = scene_from_dict(minimal_dict(noise={"wav": "n.wav", "gain_db": -5.0}))
    assert spec.noise.wav == "n.wav"
    assert spec.noise.gain_db == -5.0


def test_manifest_reports_line_numbers(tmp_path):
    good = json.dumps(minimal_dict())
    bad = json.dumps(minimal_dict(room_dims=[-1, 5, 3]))
    path = tmp_path / "m.jsonl"
    path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(SceneValidationError, match=r":2:"):
        read_manifest(path)
    path.write_text(good + "\n\n" + good + "\n", encoding="utf-8")
    assert len(read_manifest(path)) == 2  # blank lines skipped


@pytest.mark.parametrize(
    "line",
    [b'{"room_dims": [6.0, 5.0, 3.0\x80]}', b'{"seed": ' + b"7" * 5000 + b"}", b"[" * 10**5 + b"]" * 10**5],
    ids=["not_utf8", "integer_over_4300_digits", "nested_too_deep"],
)
def test_manifest_unreadable_line_named(tmp_path, line):
    path = tmp_path / "m.jsonl"
    path.write_bytes(json.dumps(minimal_dict()).encode() + b"\n" + line + b"\n")
    with pytest.raises(SceneValidationError, match=r"m\.jsonl:2: invalid JSON"):
        read_manifest(path)


BAD_SCENES = {
    **UNREADABLE_JSON,
    "wrong_type": b"[]",
    "missing_key": json.dumps({k: v for k, v in minimal_dict().items() if k != "room_dims"}).encode(),
}


@pytest.mark.parametrize("bad", sorted(BAD_SCENES))
def test_parse_scene_bad_document_named(tmp_path, bad):
    # one bad scene as a one-line manifest: the error names the file and line
    path = tmp_path / "m.jsonl"
    path.write_bytes(BAD_SCENES[bad] + b"\n")
    with pytest.raises(SceneValidationError, match=r"^\S*m\.jsonl:1: "):
        read_manifest(path)


@pytest.mark.parametrize(
    "over, field",
    [
        ({"rt60_s": math.nan}, "rt60_s"),
        ({"rt60_s": math.inf}, "rt60_s"),
        ({"rt60_s": None, "absorption": [math.nan] * 6}, "absorption"),
        ({"array_center": [3.0, math.nan, 1.5]}, "array_center"),
        ({"array": {"offsets": [[0.05, 0, 0], [-math.inf, 0, 0]]}}, "array offsets"),
        ({"sources": [minimal_dict()["sources"][0] | {"gain_db": -math.inf}]}, "source 0 gain_db"),
        ({"noise": {"wav": "n.wav", "gain_db": math.nan}}, "noise gain_db"),
    ],
)
def test_manifest_rejects_non_finite_numbers(tmp_path, over, field):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps(minimal_dict()) + "\n" + json.dumps(minimal_dict(**over)) + "\n", encoding="utf-8")
    with pytest.raises(SceneValidationError, match=rf":2: {field} must be finite"):
        read_manifest(path)


@pytest.mark.parametrize("kind", ["string", "bool"])
@pytest.mark.parametrize(
    "field", ["room_dims", "array_center", "absorption", "array offsets", "sources[0] position"]
)
def test_manifest_rejects_strings_and_bools_for_numbers(tmp_path, field, kind):
    # np.asarray(..., float64) would read "6.0" as 6.0 and true as 1.0
    d = minimal_dict(array={"offsets": [[0.05, 0, 0], [-0.05, 0, 0]]})
    if field == "absorption":
        del d["rt60_s"]
        d["absorption"] = [1.0] * 6
    target = {
        "room_dims": d["room_dims"],
        "array_center": d["array_center"],
        "absorption": d.get("absorption"),
        "array offsets": d["array"]["offsets"][0],
        "sources[0] position": d["sources"][0]["position"],
    }[field]
    target[-1] = str(target[-1]) if kind == "string" else True
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps(minimal_dict()) + "\n" + json.dumps(d) + "\n", encoding="utf-8")
    with pytest.raises(SceneValidationError, match=rf":2: scene has a malformed value: {re.escape(field)}: expected JSON numbers"):
        read_manifest(path)


def test_validate_positive_dims():
    with pytest.raises(SceneValidationError):
        SceneSpec(
            room_dims=[0.0, 5.0, 3.0],
            array_center=[1.0, 1.0, 1.0],
            array_offsets=tetrahedral_offsets(),
            sources=[SourceSpec([0.5, 0.5, 0.5], "x", 0.0, "s.wav")],
            rt60_s=0.3,
        ).validate()


def test_readme_scene_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    line = readme.split("A scene line looks like:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    scene = json.loads(line)
    spec = scene_from_dict(scene)
    np.testing.assert_array_equal(spec.array_offsets, tetrahedral_offsets(0.042))
    assert spec.rt60_s == 0.32
    array = re.search(r'`"array": (\{.*?\})`', readme.replace("\n", " ")).group(1)
    spec = scene_from_dict({**scene, "array": json.loads(array)})
    np.testing.assert_array_equal(spec.array_offsets, json.loads(array)["offsets"])


@pytest.mark.parametrize("field", ["room_dims", "position", "gain_db"])
def test_integer_too_large_for_float_rejected(field):
    d = minimal_dict()
    if field == "room_dims":
        d["room_dims"] = [10**400, 5.0, 3.0]
    else:
        d["sources"][0][field] = [10**400, 1.0, 1.0] if field == "position" else 10**400
    with pytest.raises(SceneValidationError, match="malformed"):
        scene_from_dict(d)


FUZZ_LINE = json.dumps(
    minimal_dict(noise={"wav": "n.wav", "gain_db": -3.0}, seed=4)
    | {"array": {"offsets": tetrahedral_offsets().tolist()}}
)
@settings(max_examples=300, deadline=None)
@given(
    path=st.lists(st.integers(0, 20), max_size=4),
    value=JSON_VALUES,
    edits=st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 3), st.text(max_size=3)), max_size=4),
    flips=st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 255)), max_size=2),
    lines=st.integers(1, 3),
)
def test_read_manifest_fuzz_raises_only_scene_validation_error(tmp_path_factory, path, value, edits, flips, lines):
    """Mutated manifest lines either parse to scenes or raise SceneValidationError."""
    line = json.dumps(replace_at(json.loads(FUZZ_LINE), path, value))
    for i, cut, text in edits:  # replace `cut` characters at i with text
        i %= len(line) + 1
        line = line[:i] + text + line[i + cut :]
    blob = bytearray("\n".join([FUZZ_LINE] * (lines - 1) + [line]).encode("utf-8"))
    for i, byte in flips if blob else ():
        blob[i % len(blob)] = byte
    manifest = tmp_path_factory.mktemp("fuzz") / "m.jsonl"
    manifest.write_bytes(bytes(blob))
    try:
        scenes = read_manifest(manifest)
    except SceneValidationError:
        return
    assert all(isinstance(s, SceneSpec) for s in scenes)
