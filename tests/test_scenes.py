import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from soundcompass import (
    SceneSpec,
    SceneValidationError,
    SourceSpec,
    parse_scene,
    read_manifest,
    scene_from_dict,
    serialize_scene,
    tetrahedral_offsets,
)
from soundcompass.scenes import resolve_array, scene_to_dict


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
    off, preset = resolve_array("tetrahedral_4ch_r0.05")
    assert preset == "tetrahedral_4ch_r0.05"
    np.testing.assert_allclose(np.linalg.norm(off, axis=1), 0.05, atol=1e-12)
    with pytest.raises(SceneValidationError):
        resolve_array("pentagonal_5ch_r0.042")


def test_explicit_offsets():
    off, preset = resolve_array({"offsets": [[0, 0, 0], [0.1, 0, 0]]})
    assert preset is None
    assert off.shape == (2, 3)


def test_scene_from_dict_round_trip():
    spec = scene_from_dict(minimal_dict())
    d = scene_to_dict(spec)
    spec2 = scene_from_dict(d)
    np.testing.assert_array_equal(spec2.room_dims, spec.room_dims)
    assert spec2.sources[0].class_label == "speech"
    np.testing.assert_allclose(spec2.array_offsets, spec.array_offsets)


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


def test_parse_and_serialize_file(tmp_path):
    spec = scene_from_dict(minimal_dict())
    path = tmp_path / "scene.json"
    serialize_scene(spec, path)
    spec2 = parse_scene(path)
    assert spec2.rt60_s == pytest.approx(0.3)


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
    assert spec.array_preset == "tetrahedral_4ch_r0.042" and spec.rt60_s == 0.32
    array = re.search(r'`"array": (\{.*?\})`', readme.replace("\n", " ")).group(1)
    spec = scene_from_dict({**scene, "array": json.loads(array)})
    assert spec.array_preset is None and spec.num_mics == 2
