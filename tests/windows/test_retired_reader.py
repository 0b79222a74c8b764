"""The retired ``windowed_misra_gries`` type decodes, and only decodes.

``tests/store/fixtures/format4_windowed_mg/`` holds what that type wrote
at the last commit that registered it (its ``generate.py`` says how):
envelopes of both its state schemas in every codec, and a format-4 store
and cube with such a member.  Each reads as ``windowed.misra_gries``
holding the buckets that commit read back; the stores answer, take
ingest and save under the new name.  Nothing constructs the retired type.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import repro
import repro.decay
from repro.core import (
    ParameterError,
    QueryError,
    SerializationError,
    get_summary_class,
    registered_names,
)
from repro.core.codecs import decode_summary, state_checksum
from repro.frequency import MisraGries
from repro.store import CubeStore, SegmentStore, load
from repro.store.segment import MemberSpec
from repro.windows import windowed_class

FIXTURES = Path(__file__).parents[1] / "store" / "fixtures" / "format4_windowed_mg"
EXPECTED = json.loads((FIXTURES / "expected.json").read_text())
RETIRED = "windowed_misra_gries"
#: the retired constructor's arguments in every fixture
LEGACY = {"k": 8, "bucket_width": 5.0, "num_buckets": 4}
#: what they built: eps 1/num_buckets, window width * num_buckets
GEOMETRY = {"eps": 0.25, "window": 20.0, "mode": "time", "granularity": 5.0}


def _decoded(name: str):
    return decode_summary((FIXTURES / "envelopes" / name).read_bytes())


@pytest.mark.parametrize("name", sorted(EXPECTED["envelopes"]))
def test_envelope_decodes_to_the_buckets_it_held(name):
    want = EXPECTED["envelopes"][name]
    summary = _decoded(name)
    assert type(summary) is windowed_class("misra_gries")
    state = summary.to_dict()
    assert summary.n == want["n"]
    assert state["clock"] == want["clock"]
    assert state["expired_end"] == want["expired_end"]
    assert state["buckets"] == want["buckets"]
    assert state["pending"] is None
    assert {key: state[key] for key in GEOMETRY} == GEOMETRY
    # and it saves under the name of the type it now is
    assert json.loads(repro.dumps(summary))["type"] == "windowed.misra_gries"


@pytest.mark.parametrize("name", sorted(EXPECTED["envelopes"]))
def test_queries_keep_the_index_aligned_horizon(name):
    summary = _decoded(name)
    with pytest.raises(QueryError, match="expired"):
        summary.window_query()  # reaches before the evicted buckets' end
    longest = (LEGACY["num_buckets"] - 1) * LEGACY["bucket_width"]
    view = summary.window_query(window=longest)
    cutoff = summary.to_dict()["clock"] - longest
    held = [b for b in EXPECTED["envelopes"][name]["buckets"] if b["end"] > cutoff]
    assert view.n == sum(b["count"] for b in held)
    merged = MisraGries(8)
    for bucket in held:
        merged.merge(MisraGries.from_dict(bucket["state"]))
    assert view.summary.counters() == merged.counters()


def test_spec_reads_as_the_geometry_the_retired_type_built():
    spec = MemberSpec.from_dict({"type": RETIRED, "field": "value", "kwargs": LEGACY})
    assert spec.type_name == "windowed.misra_gries"
    assert spec.kwargs == {**GEOMETRY, "k": 8}
    fresh = spec.build()
    for name in EXPECTED["envelopes"]:
        decoded = _decoded(name)
        assert fresh.compatible_with(decoded) is None
        fresh.merge(decoded)
    assert MemberSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("kind", ["store", "cube"])
def test_saved_store_opens_answers_takes_ingest_and_resaves(kind, tmp_path):
    path = tmp_path / kind
    shutil.copytree(FIXTURES / kind, path)
    want = EXPECTED[kind]

    def members(store, hi):
        result = store.query(0.0, hi)
        return result.members if isinstance(store, CubeStore) else result

    store = load(path)
    assert store.schema["w"].type_name == "windowed.misra_gries"
    assert store.records == want["records"]
    assert members(store, 12.0)["w"].n == want["n"]
    if kind == "cube":
        groups = store.query(0.0, 4.0, group_by=("region",)).groups
        assert {key[0]: m["w"].n for key, m in groups.items()} == want["groups"]
    tags = {"region": "eu"} if kind == "cube" else {}
    store.ingest([{"value": i % 5, **tags} for i in range(10)], [13.0] * 10)
    store.save(path)
    manifest = json.loads((path / "manifest.json").read_text())
    assert manifest["schema"]["w"]["type"] == "windowed.misra_gries"
    reopened = load(path)
    assert members(reopened, 14.0)["w"].n == want["n"] + 10
    assert reopened.fingerprint() == store.fingerprint()


def test_the_retired_name_constructs_nothing():
    assert RETIRED not in registered_names()
    assert not hasattr(repro, "WindowedMisraGries")
    assert not hasattr(repro.decay, "WindowedMisraGries")
    with pytest.raises(SerializationError, match="unknown summary name"):
        get_summary_class(RETIRED)
    for store in (SegmentStore(width=1.0), CubeStore(width=1.0, dims=("region",))):
        with pytest.raises(SerializationError, match="unknown summary name"):
            store.add_member("w", RETIRED, field="value", **LEGACY)


def _envelope(name: str, state) -> str:
    return json.dumps(
        {"format": 2, "type": name, "state": state, "checksum": state_checksum(state)}
    )


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda s: s.update(num_buckets=0), ParameterError),
        (lambda s: s.update(num_buckets="x"), SerializationError),
        (lambda s: s.update(bucket_width=-5.0), ParameterError),
        (lambda s: s.update(n=99), ParameterError),
        (lambda s: s.pop("k"), SerializationError),
        (lambda s: s["buckets"].update(x={}), SerializationError),
    ],
    ids=["no-buckets", "text-buckets", "negative-width", "n-off", "no-k", "bad-index"],
)
def test_a_malformed_first_schema_state_raises_a_typed_error(edit, error):
    state = json.loads((FIXTURES / "envelopes" / "first.json.v1").read_text())["state"]
    edit(state)
    with pytest.raises(error):
        repro.loads(_envelope(RETIRED, state))


def test_other_unknown_names_stay_unknown():
    with pytest.raises(SerializationError, match="unknown summary name"):
        repro.loads(_envelope("windowed_space_saving", {}))
