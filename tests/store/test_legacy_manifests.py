"""Legacy manifests (formats 1–3) still load, byte-identically.

Manifest format 4 keeps segment containers in packs; formats 1–3 kept
one ``.rseg`` file per segment under ``segments/`` (flat store) or
``cells/`` (cube).  ``fixtures/format3/`` holds a small flat store and
a small cube saved by the format-3 writer from the ``_flat_twin`` and
``_cube_twin`` builders below.  The tests open them — and format-1/2
rewrites of tmp copies of them (the containers are untouched; the RSEG
framing never changed) — and assert that :func:`repro.store.load`
builds the same store as a freshly built twin: identical fingerprint,
identical answers.  A save over a legacy directory converts it to
format 4.

``fixtures/format4_json_v2/`` holds a flat store and a cube saved with
``codec="json.v2"`` by the writer that kept each state's keys in
``to_dict`` order (``generate.py`` there names the commit).  Their
payloads load through the re-encode check, with segment fingerprints
and answers equal to those pinned in ``expected.json``.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from repro.core import codecs
from repro.store import CubeStore, SegmentStore, load
from repro.store.persistence import _manifest_checksum

from .test_persistence import CountingFilesystem

FIXTURES = Path(__file__).parent / "fixtures" / "format3"


def _flat_twin() -> SegmentStore:
    store = SegmentStore(width=1.0, codec="binary.v1")
    store.add_member("count", "exact_counter", field="value")
    store.add_member("hot", "misra_gries", field="value", k=8)
    store.ingest(
        [{"value": i % 7} for i in range(32)],
        [float(i // 4) for i in range(32)],
    )
    store.compact()
    return store


def _cube_twin() -> CubeStore:
    cube = CubeStore(width=1.0, dims=("region", "device"), codec="binary.v1")
    cube.add_member("count", "exact_counter", field="value")
    cube.add_member("hot", "misra_gries", field="value", k=8)
    for epoch in range(3):
        for region in ("eu", "us"):
            for device in ("mobile", "web"):
                cube.ingest(
                    [
                        {"value": (epoch + i) % 5, "region": region, "device": device}
                        for i in range(4)
                    ],
                    [float(epoch)] * 4,
                )
    cube.query(0.0, 3.0)  # log the grand-total shape so compact builds a mask
    cube.compact(budget=10**6)
    # a post-compact ingest leaves stale mask marks the manifest must carry
    cube.ingest([{"value": 1, "region": "eu", "device": "web"}], [0.25])
    return cube


def _flat_answers(store):
    result = store.query(1.0, 7.0)
    return result.n, {name: result[name].to_dict() for name in ("count", "hot")}


def _cube_answers(cube):
    result = cube.query(0.0, 3.0, group_by=("region",))
    return {
        key: {name: summary.to_dict() for name, summary in members.items()}
        for key, members in result.groups.items()
    }


KINDS = {
    "store": (_flat_twin, _flat_answers, SegmentStore, "segments"),
    "cube": (_cube_twin, _cube_answers, CubeStore, "cells"),
}


def _copy_fixture(kind, tmp_path) -> Path:
    return Path(shutil.copytree(FIXTURES / kind, tmp_path / kind))


def _rewrite_manifest(target, transform) -> None:
    path = target / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest = transform(manifest)
    manifest.pop("checksum", None)
    manifest["checksum"] = _manifest_checksum(manifest)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_format3_fixture_loads(kind):
    build, answers, cls, legacy_dir = KINDS[kind]
    manifest = json.loads((FIXTURES / kind / "manifest.json").read_text())
    assert manifest["format"] == 3
    assert (FIXTURES / kind / legacy_dir).is_dir()
    twin = build()
    loaded = load(FIXTURES / kind)
    assert isinstance(loaded, cls)
    assert loaded.fingerprint() == twin.fingerprint()
    assert answers(loaded) == answers(twin)
    assert cls.verify(FIXTURES / kind)["ok"]


def test_legacy_flat_manifest_loads(tmp_path):
    target = _copy_fixture("store", tmp_path)
    twin = _flat_twin()

    def to_format_1(manifest):
        (chain,) = manifest.pop("chains")
        assert chain["id"] == ["flat"]
        manifest["segments"] = chain["segments"]
        manifest["max_level"] = chain["max_level"]
        manifest["format"] = 1
        manifest.pop("kind", None)  # format 1 predates the kind tag
        manifest.pop("checksum", None)  # ...and the manifest checksum
        return manifest

    _rewrite_manifest(target, to_format_1)
    manifest = json.loads((target / "manifest.json").read_text())
    manifest.pop("checksum")  # format 1 shipped without one: still loads
    (target / "manifest.json").write_text(json.dumps(manifest))

    loaded = load(target)
    assert isinstance(loaded, SegmentStore)
    assert loaded.fingerprint() == twin.fingerprint()
    assert _flat_answers(loaded) == _flat_answers(twin)


def test_legacy_cube_manifest_loads(tmp_path):
    target = _copy_fixture("cube", tmp_path)
    twin = _cube_twin()

    def to_format_2(manifest):
        groups = []
        per_mask = {tuple(mask): [] for mask in manifest["masks"]}
        for chain in manifest.pop("chains"):
            chain_id = chain["id"]
            entry = {
                "key": chain_id[-1],
                "max_level": chain["max_level"],
                "segments": chain["segments"],
            }
            if chain_id[0] == "g":
                groups.append(entry)
            else:
                per_mask[tuple(chain_id[1])].append(entry)
        stale = {}
        for mask, coarse, epochs in manifest.pop("stale"):
            stale.setdefault(tuple(mask), []).append([coarse, epochs])
        manifest["groups"] = groups
        manifest["masks"] = [
            {
                "dims": list(mask),
                "groups": chains,
                "stale": stale.get(mask, []),
            }
            for mask, chains in per_mask.items()
        ]
        manifest["format"] = 2
        return manifest

    _rewrite_manifest(target, to_format_2)
    loaded = load(target)
    assert isinstance(loaded, CubeStore)
    assert loaded.fingerprint() == twin.fingerprint()
    assert _cube_answers(loaded) == _cube_answers(twin)

    # a save after a legacy load rewrites the manifest at format 4 and
    # the round trip stays byte-identical
    loaded.save(target)
    manifest = json.loads((target / "manifest.json").read_text())
    assert manifest["format"] == 4
    assert manifest["kind"] == "cube"
    assert CubeStore.open(target).fingerprint() == twin.fingerprint()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_save_over_format3_directory_converts_to_packs(tmp_path, kind):
    build, answers, cls, legacy_dir = KINDS[kind]
    target = _copy_fixture(kind, tmp_path)
    legacy_files = sorted((target / legacy_dir).iterdir())
    assert legacy_files and all(p.suffix == ".rseg" for p in legacy_files)

    fs = CountingFilesystem()
    report = cls.open(target).save(target, fs=fs)
    # no snapshot id in a format-3 manifest: every segment is rewritten
    assert report["written"] == report["segments"] > 0
    commit = fs.log.index(("replace", str(target / "manifest.json")))
    removed = [path for op, path in fs.log if op == "remove"]
    assert sorted(removed) == sorted(str(p) for p in legacy_files)
    assert all(
        index > commit for index, (op, _path) in enumerate(fs.log) if op == "remove"
    ), "a legacy container was deleted before the format-4 commit"

    manifest = json.loads((target / "manifest.json").read_text())
    assert manifest["format"] == 4
    assert not list((target / legacy_dir).iterdir())
    reopened = cls.open(target)
    twin = build()
    assert reopened.fingerprint() == twin.fingerprint()
    assert answers(reopened) == answers(twin)
    assert cls.verify(target)["ok"]


# ---------------------------------------------------------------------------
# json.v2 payloads written before states were stored canonically
# ---------------------------------------------------------------------------

JSON_V2_FIXTURES = Path(__file__).parent / "fixtures" / "format4_json_v2"


def _fixture_generator():
    spec = importlib.util.spec_from_file_location(
        "format4_json_v2_generate", JSON_V2_FIXTURES / "generate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", ["cube", "store"])
def test_old_json_v2_fixture_loads_through_reencode_check(kind, reference_checks):
    generate = _fixture_generator()
    expected = json.loads((JSON_V2_FIXTURES / "expected.json").read_text())[kind]
    manifest = json.loads((JSON_V2_FIXTURES / kind / "manifest.json").read_text())
    assert manifest["format"] == 4 and manifest["codec"] == "json.v2"

    loaded = load(JSON_V2_FIXTURES / kind)
    # the old writer kept each state's keys in to_dict order, so those
    # payloads fail the stored-bytes CRC and take the re-encode check
    checked = {envelope["type"] for envelope in reference_checks}
    assert {"kll_quantiles", "misra_gries", "hyperloglog"} <= checked
    assert generate.segment_fingerprints(loaded) == expected["segments"]
    assert generate.answers(JSON_V2_FIXTURES / kind) == expected["answers"]
    assert type(loaded).verify(JSON_V2_FIXTURES / kind)["ok"]


@pytest.mark.parametrize("kind", ["cube", "store"])
def test_resaved_json_v2_fixture_skips_reencode_check(
    kind, tmp_path, monkeypatch, reference_checks
):
    generate = _fixture_generator()
    target = tmp_path / kind
    load(JSON_V2_FIXTURES / kind).save(target)  # rewrites every payload
    reference_checks.clear()

    fast = generate.segment_fingerprints(load(target))
    assert reference_checks == []
    fast_answers = generate.answers(target)

    # the same directory read through the re-encode check alone
    monkeypatch.setattr(codecs, "_stored_state", lambda payload: None)
    assert generate.segment_fingerprints(load(target)) == fast
    assert reference_checks
    assert generate.answers(target) == fast_answers
