"""Writes the fixtures of the retired ``windowed_misra_gries`` type next to this file.

Commit ``f0a05f0`` is the last that registers ``windowed_misra_gries``
(``repro.decay.WindowedMisraGries``, a fixed-bucket Misra-Gries).  Later
code reads such data through the decode-only ``repro.windows.legacy``
and cannot write it, so this script documents the fixtures rather than
refreshing them.  It was run from a checkout of that commit::

    PYTHONPATH=src python tests/store/fixtures/format4_windowed_mg/generate.py

It writes:

* ``envelopes/shim.<codec>``: one summary whose oldest buckets were
  evicted, in ``json.v1``, ``json.v2`` and ``binary.v1``;
* ``envelopes/first.<codec>``: the first schema,
  ``{k, bucket_width, num_buckets, n, evicted_through, buckets: {index:
  misra_gries state}}``, which that commit's ``from_dict`` migrated.  No
  codec of that commit writes it, so the three envelopes are framed here
  the way each codec frames a state;
* ``store/`` (``binary.v1``) and ``cube/`` (``json.v2``): format-4 stores
  whose member ``w`` is a ``windowed_misra_gries``;
* ``expected.json``: what that commit read back.  For each envelope the
  type, ``n``, ``clock``, ``expired_end`` and every bucket's level, count,
  span and ``to_dict()``; for each store the records and the ``n`` of
  ``w`` over a full-range query (per region for the cube).
"""

from __future__ import annotations

import json
import shutil
import warnings
import zlib
from pathlib import Path

from repro import MisraGries
from repro.core import codecs
from repro.store import CubeStore, SegmentStore, load

HERE = Path(__file__).resolve().parent
CODECS = ("json.v1", "json.v2", "binary.v1")
LEGACY = {"k": 8, "bucket_width": 5.0, "num_buckets": 4}


def shim():
    from repro.decay import WindowedMisraGries

    summary = WindowedMisraGries(**LEGACY)
    for t in range(40):
        summary.observe(t % 5, float(t))
    summary.observe(9, 21.0)  # late: folds into the bucket at 20
    return summary


def first_schema() -> dict:
    """What the fixed-bucket layout held after an event in bucket 5:
    buckets 2-5 live, 0 and 1 evicted."""
    chunks = {"2": [1, 1, 2], "3": [1, 3], "4": [2, 2, 2], "5": [3]}
    return {
        **LEGACY,
        "n": 9,
        "evicted_through": 1,
        "buckets": {i: MisraGries(8).extend(v).to_dict() for i, v in chunks.items()},
    }


def frame(codec: str, name: str, state: dict) -> bytes:
    """``state`` under ``name`` as ``codec`` frames a summary's state."""
    canonical = json.dumps(state, separators=(",", ":"), sort_keys=True)
    if codec == "json.v1":
        envelope = {"format": 1, "type": name, "state": state}
        return json.dumps(envelope, separators=(",", ":")).encode("utf-8")
    if codec == "json.v2":
        checksum = zlib.crc32(canonical.encode("utf-8"))
        text = f'{{"format":2,"type":{json.dumps(name)},"state":{canonical},"checksum":{checksum}}}'
        return text.encode("utf-8")
    raw = canonical.encode("utf-8")
    body = zlib.compress(raw, level=6)
    header = codecs._BINARY_HEADER.pack(
        1, len(name), zlib.crc32(raw) & 0xFFFFFFFF, len(raw), len(body)
    )
    return codecs._BINARY_MAGIC + header + name.encode("utf-8") + body


def described(summary) -> dict:
    state = summary.to_dict()
    return {
        "type": summary.registry_name,
        "n": summary.n,
        "clock": state["clock"],
        "expired_end": state["expired_end"],
        "buckets": state["buckets"],
    }


def _add_members(store) -> None:
    store.add_member("w", "windowed_misra_gries", field="value", **LEGACY)
    store.add_member("count", "exact_counter", field="value")


def flat_store() -> SegmentStore:
    store = SegmentStore(width=1.0, codec="binary.v1")
    _add_members(store)
    store.ingest(
        [{"value": (i * 7) % 11} for i in range(60)],
        [float(i // 6) for i in range(60)],
    )
    store.compact()
    return store


def cube_store() -> CubeStore:
    cube = CubeStore(width=1.0, dims=("region",), codec="json.v2")
    _add_members(cube)
    for epoch in range(4):
        for region in ("eu", "us"):
            cube.ingest(
                [{"value": (epoch + i * 3) % 7, "region": region} for i in range(5)],
                [float(epoch)] * 5,
            )
    cube.query(0.0, 4.0, group_by=("region",))  # logs a shape to materialize
    cube.compact(budget=10**6)
    return cube


def full_range(store) -> dict:
    """The members of a query over every epoch either store holds."""
    result = store.query(0.0, 12.0)
    return result.members if isinstance(store, CubeStore) else result


def main() -> None:
    expected = {"envelopes": {}}
    (HERE / "envelopes").mkdir(exist_ok=True)
    for codec in CODECS:
        payload = codecs.encode_summary(shim(), codec)
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        (HERE / "envelopes" / f"shim.{codec}").write_bytes(payload)
        first = frame(codec, "windowed_misra_gries", first_schema())
        (HERE / "envelopes" / f"first.{codec}").write_bytes(first)
    for name in sorted(p.name for p in (HERE / "envelopes").iterdir()):
        decoded = codecs.decode_summary((HERE / "envelopes" / name).read_bytes())
        expected["envelopes"][name] = described(decoded)
    for name, build in (("store", flat_store), ("cube", cube_store)):
        target = HERE / name
        shutil.rmtree(target, ignore_errors=True)
        build().save(target)
        store = load(target)
        entry = {"records": store.records, "n": full_range(store)["w"].n}
        if name == "cube":
            groups = store.query(0.0, 4.0, group_by=("region",)).groups
            entry["groups"] = {key[0]: m["w"].n for key, m in sorted(groups.items())}
        expected[name] = entry
    with open(HERE / "expected.json", "w") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    warnings.simplefilter("ignore", DeprecationWarning)
    main()
