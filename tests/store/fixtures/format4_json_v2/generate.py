"""Writes the format-4 ``json.v2`` fixtures next to this file.

``store/`` and ``cube/`` were saved by commit ``7c91fe8``, the last
``json.v2`` writer that dumped each envelope with the state's keys in
``to_dict`` order, so every payload in them whose state keys are not
already sorted fails the stored-bytes CRC and loads through the
re-encode check.  Regenerating them with a later writer would store canonical
states and stop covering that path, so this script documents the
fixtures rather than refreshing them.  ``expected.json`` holds what
that commit read back from them: every segment's fingerprint and the
answers of :func:`answers`.  It was run from a checkout of that commit::

    PYTHONPATH=src python tests/store/fixtures/format4_json_v2/generate.py
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.store import CubeStore, SegmentStore, load

HERE = Path(__file__).resolve().parent


def _add_members(store) -> None:
    store.add_member("count", "exact_counter", field="value")
    store.add_member("hot", "misra_gries", field="value", k=8)
    store.add_member("q", "kll_quantiles", field="value", k=8, rng=5)
    store.add_member("d", "hyperloglog", field="value", p=4)


def flat_store() -> SegmentStore:
    store = SegmentStore(width=1.0, codec="json.v2")
    _add_members(store)
    store.ingest(
        [{"value": (i * 7) % 23} for i in range(96)],
        [float(i // 8) for i in range(96)],
    )
    store.compact()
    return store


def cube_store() -> CubeStore:
    cube = CubeStore(width=1.0, dims=("region", "device"), codec="json.v2")
    _add_members(cube)
    for epoch in range(4):
        for region in ("eu", "us"):
            for device in ("mobile", "web"):
                cube.ingest(
                    [
                        {"value": (epoch * 5 + i * 3) % 17, "region": region,
                         "device": device}
                        for i in range(6)
                    ],
                    [float(epoch)] * 6,
                )
    cube.query(0.0, 4.0, group_by=("region",))  # logs a shape to materialize
    cube.compact(budget=10**6)
    return cube


def segment_fingerprints(store) -> dict:
    """``{segment id: fingerprint}`` of a freshly opened store."""
    return {
        str(segment.segment_id): segment.fingerprint()
        for _chain_id, chain in store._chain_index()
        for segment in chain.segments()
    }


def _member_answers(members) -> dict:
    return {
        "count": members["count"].to_dict(),
        "hot": members["hot"].to_dict(),
        "q": [members["q"].quantile(q) for q in (0.1, 0.5, 0.9)],
        "d": members["d"].distinct(),
    }


def answers(path) -> dict:
    """A few query answers, each from a fresh open of the store at ``path``."""
    store = load(path)
    if isinstance(store, CubeStore):
        result = store.query(0.0, 4.0, group_by=("region",))
        out = {key[0]: _member_answers(members) for key, members in result.groups.items()}
        web = load(path).query(1.0, 3.0, where={"device": "web"})
        out["web"] = _member_answers(web.members)
        return out
    return {"range": _member_answers(store.query(1.0, 9.0))}


def main() -> None:
    expected = {}
    for name, build in (("store", flat_store), ("cube", cube_store)):
        target = HERE / name
        shutil.rmtree(target, ignore_errors=True)
        build().save(target)
        expected[name] = {
            "segments": segment_fingerprints(load(target)),
            "answers": answers(target),
        }
    with open(HERE / "expected.json", "w") as handle:
        json.dump(expected, handle, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
