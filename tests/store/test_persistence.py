"""Segment-store persistence: RSEG containers, packs, manifest, reload fidelity."""

from __future__ import annotations

import json
import shutil
from collections import Counter

import pytest

from repro.core import ParameterError, SerializationError
from repro.core.fsio import RealFilesystem
from repro.store import SegmentStore, persistence
from repro.store.persistence import read_segment, write_segment

from .test_crash_injection import _assert_invariant, _seed_store, op_compact_save


def _populated_store(codec: str = "binary.v1") -> SegmentStore:
    store = SegmentStore(width=1.0, codec=codec)
    store.add_member("count", "exact_counter", field="value")
    store.add_member("hot", "misra_gries", field="value", k=8)
    store.ingest(
        [{"value": i % 7} for i in range(96)],
        [float(i // 4) for i in range(96)],
    )
    store.compact()
    return store


@pytest.mark.parametrize("codec", ["json.v2", "binary.v1"])
def test_save_open_round_trip(tmp_path, codec):
    store = _populated_store(codec)
    before = store.query(3.0, 21.0)
    report = store.save(tmp_path / "store")
    assert report["segments"] == store.num_segments + store.num_rollups
    assert report["bytes"] > 0

    loaded = SegmentStore.open(tmp_path / "store")
    assert loaded.width == store.width
    assert loaded.records == store.records
    assert loaded.num_segments == store.num_segments
    assert loaded.num_rollups == store.num_rollups
    assert set(loaded.schema) == {"count", "hot"}
    after = loaded.query(3.0, 21.0)
    assert after.n == before.n
    for name in ("count", "hot"):
        assert after[name].to_dict() == before[name].to_dict()
    assert after.plan.fan_in == before.plan.fan_in


def test_reloaded_store_keeps_growing(tmp_path):
    store = _populated_store()
    store.save(tmp_path / "store")
    loaded = SegmentStore.open(tmp_path / "store")
    with pytest.raises(ParameterError, match="after ingest"):
        loaded.add_member("late", "exact_counter", field="value")
    loaded.ingest([{"value": 3}], [2.5])
    assert loaded.records == store.records + 1
    loaded.compact()
    assert loaded.query(0.0, 24.0)["count"].n == 97


def _manifest_entries(target):
    manifest = json.loads((target / "manifest.json").read_text())
    return [meta for chain in manifest["chains"] for meta in chain["segments"]]


def test_save_removes_stale_segment_files(tmp_path):
    store = _populated_store()
    target = tmp_path / "store"
    store.save(target)
    packs = target / "packs"
    stale = packs / "000099.rpak"
    stale.write_bytes(b"junk")
    leftover = packs / "000005.rpak.tmp"
    leftover.write_bytes(b"junk")
    report = store.save(target)  # nothing new: no pack, GC only
    assert (report["written"], report["copied"], report["packs"]) == (0, 0, 0)
    assert not stale.exists()
    assert not leftover.exists()
    listed = {p.name for p in packs.iterdir()}
    manifest = json.loads((target / "manifest.json").read_text())
    assert manifest["kind"] == "store"
    referenced = {meta["pack"] for meta in _manifest_entries(target)}
    assert listed == referenced == {"000001.rpak"}


class CountingFilesystem(RealFilesystem):
    """The real filesystem, logging every mutating call in order."""

    def __init__(self) -> None:
        self.log = []

    def open_write(self, path):
        self.log.append(("open_write", str(path)))
        return super().open_write(path)

    def fsync(self, handle):
        self.log.append(("fsync", handle.name))
        super().fsync(handle)

    def fsync_dir(self, path):
        self.log.append(("fsync_dir", str(path)))
        super().fsync_dir(path)

    def replace(self, src, dst):
        self.log.append(("replace", str(dst)))
        super().replace(src, dst)

    def remove(self, path):
        self.log.append(("remove", str(path)))
        super().remove(path)

    @property
    def calls(self):
        return Counter(op for op, _path in self.log)


@pytest.mark.parametrize("epochs", [5, 500])
def test_fsyncs_per_save_do_not_grow_with_containers(tmp_path, epochs):
    store = SegmentStore(width=1.0, codec="binary.v1")
    store.add_member("count", "exact_counter", field="value")
    store.ingest(
        [{"value": i % 3} for i in range(epochs)], [float(i) for i in range(epochs)]
    )
    fs = CountingFilesystem()
    report = store.save(tmp_path / "store", fs=fs)
    assert report["written"] == epochs
    assert fs.calls["fsync"] == 2  # the pack and the manifest
    assert fs.calls["fsync_dir"] == 2  # packs/ and the store directory

    # nothing new: no pack, just the manifest commit
    packs_before = sorted((tmp_path / "store" / "packs").iterdir())
    again = CountingFilesystem()
    report = store.save(tmp_path / "store", fs=again)
    assert (report["written"], report["copied"], report["bytes"]) == (0, 0, 0)
    assert not [path for op, path in again.log if path.endswith(".rpak")]
    assert sorted((tmp_path / "store" / "packs").iterdir()) == packs_before
    assert again.calls["fsync"] == again.calls["fsync_dir"] == 1


def test_a_save_past_the_pack_cap_writes_more_packs(tmp_path, monkeypatch):
    """No pack holds more than ``_PACK_BYTES``; each pack costs one fsync."""
    monkeypatch.setattr(persistence, "_PACK_BYTES", 2048)
    store = SegmentStore(width=1.0, codec="binary.v1")
    store.add_member("count", "exact_counter", field="value")
    store.ingest([{"value": i % 3} for i in range(200)], [float(i) for i in range(200)])
    target = tmp_path / "store"
    fs = CountingFilesystem()
    report = store.save(target, fs=fs)
    sizes = {p.name: p.stat().st_size for p in (target / "packs").iterdir()}
    assert report["packs"] == len(sizes) > 2
    assert {"000001.rpak", "000001-1.rpak"} <= set(sizes)
    assert max(sizes.values()) <= 2048
    assert fs.calls["fsync"] == report["packs"] + 1
    assert fs.calls["fsync_dir"] == 2
    _assert_packs_fully_live(target)
    assert SegmentStore.open(target).fingerprint() == store.fingerprint()


def test_copy_forward_does_not_grow_with_the_store(tmp_path, monkeypatch):
    """Late records and the roll-ups they invalidate fall in the newest
    packs, so what a save writes stays bounded by the pack cap while
    the store grows; one uncapped pack would be copied whole."""
    cap = 4096
    monkeypatch.setattr(persistence, "_PACK_BYTES", cap)
    target = tmp_path / "store"
    store = SegmentStore(width=1.0, codec="binary.v1")
    store.add_member("count", "exact_counter", field="value")
    written = []
    for epoch in range(160):
        # a record for this epoch and a late one two epochs back
        store.ingest(
            [{"value": epoch % 7}, {"value": 1}],
            [epoch + 0.5, max(0, epoch - 2) + 0.5],
        )
        if epoch % 4 == 3:
            store.compact()
            written.append(store.save(target)["bytes"])
    disk = sum(p.stat().st_size for p in (target / "packs").iterdir())
    assert disk > 10 * cap
    assert max(written[-10:]) < 2 * cap
    _assert_packs_fully_live(target)
    assert SegmentStore.open(target).fingerprint() == store.fingerprint()


def test_multi_pack_save_lands_on_one_side_of_any_crash(tmp_path, monkeypatch):
    """The save crash sweep, over a save that writes several packs and
    copies containers out of packs that hold dead ones."""
    monkeypatch.setattr(persistence, "_PACK_BYTES", 1000)
    initial = tmp_path / "initial"
    _seed_store().save(initial)
    assert len(list((initial / "packs").iterdir())) > 1
    probe = tmp_path / "probe"
    shutil.copytree(initial, probe)
    op_compact_save(RealFilesystem(), str(probe))
    before = {meta["id"]: meta["pack"] for meta in _manifest_entries(initial)}
    after = {meta["id"]: meta["pack"] for meta in _manifest_entries(probe)}
    new_packs = set(after.values()) - set(before.values())
    assert len(new_packs) > 1
    assert any(after[seg_id] in new_packs for seg_id in before.keys() & after.keys())
    assert _assert_invariant(str(initial), op_compact_save, str(tmp_path / "sweep")) > 0


def _assert_packs_fully_live(target):
    """Every pack on disk is exactly the containers the manifest locates."""
    ranges = {}
    for meta in _manifest_entries(target):
        ranges.setdefault(meta["pack"], []).append((meta["offset"], meta["length"]))
    on_disk = {p.name: p.stat().st_size for p in (target / "packs").iterdir()}
    assert set(on_disk) == set(ranges)
    for pack, spans in ranges.items():
        position = 0
        for offset, length in sorted(spans):
            assert offset == position, f"{pack}: gap or overlap at {offset}"
            position += length
        assert position == on_disk[pack], f"{pack}: dead bytes at its end"


def test_no_pack_holds_a_dead_container_after_a_save(tmp_path):
    """Packs are rewritten once any of their containers dies, and a pack
    the committed manifest references is never opened for writing or
    deleted before the next manifest commits."""
    target = tmp_path / "store"
    store = SegmentStore(width=1.0, codec="binary.v1")
    store.add_member("count", "exact_counter", field="value")
    store.add_member("hot", "misra_gries", field="value", k=8)
    steps = [
        (range(0, 8), False, {1}),
        (range(8, 12), False, {1, 2}),  # only new epochs: pack 1 stays whole
        (range(12, 16), True, {1, 2, 3}),  # new base segments and roll-ups
        # re-ingest epoch 2: its base segment (pack 1) and the roll-ups
        # over it (pack 3) die, so both packs' live containers move to 4
        (range(2, 3), False, {2, 4}),
        (range(16, 17), True, {2, 4, 5}),
    ]
    for epochs, compact, packs in steps:
        store.ingest(
            [{"value": e % 5} for e in epochs for _ in range(3)],
            [e + i / 3 for e in epochs for i in range(3)],
        )
        if compact:
            store.compact()
        committed = set()
        if (target / "manifest.json").exists():
            committed = {str(target / "packs" / m["pack"]) for m in _manifest_entries(target)}
        fs = CountingFilesystem()
        store.save(target, fs=fs)
        commit = fs.log.index(("replace", str(target / "manifest.json")))
        for op, path in fs.log[:commit]:
            assert not (op in ("open_write", "remove") and path in committed), (op, path)
        _assert_packs_fully_live(target)
        assert {p.name for p in (target / "packs").iterdir()} == {
            f"{n:06d}.rpak" for n in packs
        }
        assert SegmentStore.open(target).fingerprint() == store.fingerprint()


def _counter_store(value: int) -> SegmentStore:
    store = SegmentStore(width=1.0, codec="binary.v1")
    store.add_member("count", "exact_counter", field="value")
    store.ingest([{"value": value}] * 40, [float(i // 10) for i in range(40)])
    return store


def test_save_over_another_stores_directory(tmp_path):
    """Segment ids are per-store counters: a fresh store saved over
    another store's directory must not adopt that store's containers."""
    target = tmp_path / "store"
    first, second = _counter_store(1), _counter_store(2)
    first.save(target)
    second.save(target)
    reopened = SegmentStore.open(target)
    assert reopened.fingerprint() == second.fingerprint()
    answer = reopened.query(0.0, 4.0)["count"]
    assert answer.estimate(2) == 40
    assert answer.estimate(1) == 0
    assert SegmentStore.verify(target)["ok"]


def test_two_writers_from_one_snapshot(tmp_path):
    """Two stores opened from one snapshot allocate the same next ids;
    the second save must write its own epoch, not the first writer's."""
    target = tmp_path / "store"
    _counter_store(1).save(target)
    first, second = SegmentStore.open(target), SegmentStore.open(target)
    first.ingest([{"value": 5}] * 3, [10.0] * 3)
    second.ingest([{"value": 7}] * 2, [10.0] * 2)
    first.save(target)
    second.save(target)
    reopened = SegmentStore.open(target)
    assert reopened.fingerprint() == second.fingerprint()
    epoch = reopened.query(10.0, 11.0)["count"]
    assert epoch.estimate(7) == 2
    assert epoch.estimate(5) == 0


def test_segment_container_round_trip(tmp_path):
    store = _populated_store()
    segment = store.segments()[0]
    path = tmp_path / "one.rseg"
    written = write_segment(segment, path, "binary.v1")
    assert written == path.stat().st_size
    restored = read_segment(path)
    assert restored.segment_id == segment.segment_id
    assert restored.level == segment.level
    assert restored.start == segment.start
    assert restored.count == segment.count
    assert sorted(restored.members) == sorted(segment.members)
    for name, summary in segment.members.items():
        assert restored.members[name].to_dict() == summary.to_dict()


class TestCorruption:
    def _segment_file(self, tmp_path):
        store = _populated_store()
        path = tmp_path / "seg.rseg"
        write_segment(store.segments()[0], path, "binary.v1")
        return path

    def test_bad_magic_rejected(self, tmp_path):
        path = self._segment_file(tmp_path)
        payload = bytearray(path.read_bytes())
        payload[:4] = b"XXXX"
        path.write_bytes(bytes(payload))
        with pytest.raises(SerializationError, match="segment container"):
            read_segment(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = self._segment_file(tmp_path)
        payload = bytearray(path.read_bytes())
        payload[4] = 99
        path.write_bytes(bytes(payload))
        with pytest.raises(SerializationError, match="version"):
            read_segment(path)

    def test_truncation_rejected(self, tmp_path):
        path = self._segment_file(tmp_path)
        payload = path.read_bytes()
        for cut in (2, 6, len(payload) // 2, len(payload) - 1):
            path.write_bytes(payload[:cut])
            with pytest.raises(SerializationError):
                read_segment(path)

    def test_corrupt_meta_json_rejected(self, tmp_path):
        path = self._segment_file(tmp_path)
        payload = bytearray(path.read_bytes())
        payload[12] ^= 0xFF  # inside the meta JSON block
        path.write_bytes(bytes(payload))
        with pytest.raises(SerializationError):
            read_segment(path)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(SerializationError, match="manifest"):
            SegmentStore.open(tmp_path / "nowhere")

    def test_corrupt_manifest_rejected(self, tmp_path):
        store = _populated_store()
        target = tmp_path / "store"
        store.save(target)
        (target / "manifest.json").write_text("{not json")
        with pytest.raises(SerializationError):
            SegmentStore.open(target)

    def test_missing_segment_file_rejected(self, tmp_path):
        store = _populated_store()
        target = tmp_path / "store"
        store.save(target)
        victim = next((target / "packs").iterdir())
        victim.unlink()
        with pytest.raises(SerializationError):
            SegmentStore.open(target)
