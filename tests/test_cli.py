"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main
from repro.distributed import balanced_tree, kary_tree


@pytest.fixture
def item_files(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("\n".join(["7"] * 30 + [str(i) for i in range(20)]))
    b.write_text("\n".join(["7"] * 20 + [str(i) for i in range(20, 40)]))
    return a, b


class TestBuild:
    def test_build_misra_gries(self, item_files, tmp_path, capsys):
        a, _ = item_files
        out = tmp_path / "s.json"
        assert main(["build", "--type", "misra_gries", "--arg", "k=8",
                     "--input", str(a), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["type"] == "misra_gries"
        assert "n=50" in capsys.readouterr().out

    def test_build_unknown_type_fails(self, item_files, tmp_path, capsys):
        a, _ = item_files
        assert main(["build", "--type", "nope", "--input", str(a),
                     "--out", str(tmp_path / "x.json")]) == 1
        assert "unknown summary name" in capsys.readouterr().err

    def test_build_quantile_summary_with_float_items(self, tmp_path):
        data = tmp_path / "vals.txt"
        data.write_text("\n".join(str(i / 10) for i in range(100)))
        out = tmp_path / "q.json"
        assert main(["build", "--type", "mergeable_quantiles", "--arg", "s=16",
                     "--input", str(data), "--out", str(out)]) == 0

    def test_bad_arg_format_exits(self, item_files, tmp_path):
        a, _ = item_files
        with pytest.raises(SystemExit):
            main(["build", "--type", "misra_gries", "--arg", "k:8",
                  "--input", str(a), "--out", str(tmp_path / "x.json")])

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["build", "--type", "misra_gries", "--arg", "k=8",
                     "--input", str(tmp_path / "nothere.txt"),
                     "--out", str(tmp_path / "x.json")]) == 1

    def test_build_with_weights(self, tmp_path, capsys):
        data = tmp_path / "items.txt"
        wfile = tmp_path / "weights.txt"
        data.write_text("7\n8\n9\n")
        wfile.write_text("10\n20\n30\n")
        out = tmp_path / "w.json"
        assert main(["build", "--type", "exact_counter",
                     "--input", str(data), "--weights", str(wfile),
                     "--out", str(out)]) == 0
        assert "n=60" in capsys.readouterr().out
        assert main(["query", str(out), "--estimate", "8"]) == 0
        assert capsys.readouterr().out.strip() == "20"

    def test_build_weights_length_mismatch_exits(self, tmp_path):
        data = tmp_path / "items.txt"
        wfile = tmp_path / "weights.txt"
        data.write_text("7\n8\n9\n")
        wfile.write_text("10\n20\n")
        with pytest.raises(SystemExit):
            main(["build", "--type", "exact_counter",
                  "--input", str(data), "--weights", str(wfile),
                  "--out", str(tmp_path / "x.json")])

    def test_build_non_integer_weights_exits(self, tmp_path):
        data = tmp_path / "items.txt"
        wfile = tmp_path / "weights.txt"
        data.write_text("7\n")
        wfile.write_text("1.5\n")
        with pytest.raises(SystemExit):
            main(["build", "--type", "exact_counter",
                  "--input", str(data), "--weights", str(wfile),
                  "--out", str(tmp_path / "x.json")])


class TestMergeAndQuery:
    def _build_two(self, item_files, tmp_path):
        a, b = item_files
        s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
        for src, dst in ((a, s1), (b, s2)):
            assert main(["build", "--type", "misra_gries", "--arg", "k=8",
                         "--input", str(src), "--out", str(dst)]) == 0
        return s1, s2

    def test_merge_and_heavy_hitters(self, item_files, tmp_path, capsys):
        s1, s2 = self._build_two(item_files, tmp_path)
        merged = tmp_path / "m.json"
        assert main(["merge", str(s1), str(s2), "--out", str(merged)]) == 0
        capsys.readouterr()
        assert main(["query", str(merged), "--heavy-hitters", "0.2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("7\t")  # item 7 holds 50/100 of the stream

    def test_merge_incompatible_fails(self, item_files, tmp_path, capsys):
        a, _ = item_files
        s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
        main(["build", "--type", "misra_gries", "--arg", "k=8",
              "--input", str(a), "--out", str(s1)])
        main(["build", "--type", "misra_gries", "--arg", "k=16",
              "--input", str(a), "--out", str(s2)])
        assert main(["merge", str(s1), str(s2), "--out",
                     str(tmp_path / "m.json")]) == 1
        assert "k mismatch" in capsys.readouterr().err

    def test_query_estimate(self, item_files, tmp_path, capsys):
        s1, _ = self._build_two(item_files, tmp_path)
        capsys.readouterr()
        assert main(["query", str(s1), "--estimate", "7"]) == 0
        assert int(capsys.readouterr().out.strip()) >= 25

    def test_query_quantile_on_quantile_summary(self, tmp_path, capsys):
        data = tmp_path / "vals.txt"
        data.write_text("\n".join(str(i) for i in range(1000)))
        out = tmp_path / "q.json"
        main(["build", "--type", "exact_quantiles", "--input", str(data),
              "--out", str(out)])
        capsys.readouterr()
        assert main(["query", str(out), "--quantile", "0.5"]) == 0
        assert float(capsys.readouterr().out.strip()) == 499.0

    def test_query_distinct_on_kmv(self, item_files, tmp_path, capsys):
        a, _ = item_files
        out = tmp_path / "kmv.json"
        main(["build", "--type", "k_min_values", "--arg", "k=32",
              "--input", str(a), "--out", str(out)])
        capsys.readouterr()
        assert main(["query", str(out), "--distinct"]) == 0
        # file `a` holds {0..19} (7 is among them): 20 distinct items,
        # counted exactly because k=32 exceeds the cardinality
        assert float(capsys.readouterr().out.strip()) == 20.0

    def test_query_without_selector_exits(self, item_files, tmp_path):
        s1, _ = self._build_two(item_files, tmp_path)
        with pytest.raises(SystemExit):
            main(["query", str(s1)])

    def test_query_unsupported_operation(self, item_files, tmp_path, capsys):
        s1, _ = self._build_two(item_files, tmp_path)
        assert main(["query", str(s1), "--quantile", "0.5"]) == 1
        assert "unsupported" in capsys.readouterr().err


class TestSimulate:
    @pytest.fixture
    def stream_file(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("\n".join(str(i % 37) for i in range(2000)))
        return path

    def test_simulate_clean_run(self, stream_file, tmp_path, capsys):
        out = tmp_path / "root.json"
        assert main(["simulate", "--type", "misra_gries", "--arg", "k=64",
                     "--input", str(stream_file), "--nodes", "8",
                     "--seed", "1", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "n=2000" in text
        assert "coverage: 100.00%" in text
        payload = json.loads(out.read_text())
        assert payload["type"] == "misra_gries"

    def test_simulate_with_faults_reports_coverage(self, stream_file, capsys):
        assert main(["simulate", "--type", "misra_gries", "--arg", "k=32",
                     "--input", str(stream_file), "--nodes", "8",
                     "--loss", "0.2", "--crash", "0.1", "--duplicate", "0.2",
                     "--corruption", "0.05", "--seed", "7"]) == 0
        text = capsys.readouterr().out
        assert "coverage:" in text
        assert "faults:" in text
        assert "duplicates=" in text

    def test_simulate_invalid_probability_fails(self, stream_file, capsys):
        assert main(["simulate", "--type", "misra_gries", "--arg", "k=8",
                     "--input", str(stream_file), "--loss", "1.5"]) == 1
        assert "loss" in capsys.readouterr().err

    def test_simulate_more_nodes_than_records_fails(self, tmp_path, capsys):
        small = tmp_path / "small.txt"
        small.write_text("1\n2\n3\n")
        assert main(["simulate", "--type", "misra_gries", "--arg", "k=8",
                     "--input", str(small), "--nodes", "16"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["--type", "kll_quantiles", "--arg", "k=32"],
         ["--type", "bottom_k_sample", "--arg", "k=16", "--loss", "0.2"]],
    )
    def test_simulate_seed_fixes_the_root_bytes(self, stream_file, tmp_path, argv):
        # randomized summaries get per-leaf generators derived from --seed
        roots = []
        for run in range(2):
            out = tmp_path / f"root{run}.json"
            assert main(["simulate", *argv, "--input", str(stream_file),
                         "--nodes", "8", "--seed", "7", "--out", str(out)]) == 0
            roots.append(out.read_bytes())
        assert roots[0] == roots[1]
        other = tmp_path / "other.json"
        assert main(["simulate", *argv, "--input", str(stream_file),
                     "--nodes", "8", "--seed", "8", "--out", str(other)]) == 0
        assert other.read_bytes() != roots[0]

    @pytest.mark.parametrize("topology", ["balanced", "kary", "random"])
    def test_simulate_zero_nodes_fails(self, stream_file, topology, capsys):
        assert main(["simulate", "--type", "misra_gries", "--arg", "k=8",
                     "--input", str(stream_file), "--nodes", "0",
                     "--topology", topology]) == 1
        assert "error: leaves must be >= 1" in capsys.readouterr().err


class TestPlan:
    @staticmethod
    def _pairs(text):
        return [tuple(map(int, m)) for m in re.findall(r"merge (\d+) <- (\d+)$", text, re.M)]

    def test_tree_prints_the_schedule_merge_all_replays(self, capsys):
        assert main(["plan", "--strategy", "tree", "--count", "5"]) == 0
        out = capsys.readouterr().out
        assert out == balanced_tree(5).describe() + "\n"
        assert self._pairs(out) == balanced_tree(5).steps

    def test_random_strategy_is_seeded(self, capsys):
        assert main(["plan", "--strategy", "random", "--count", "6",
                     "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert self._pairs(out) == [(0, 5), (1, 2), (0, 3), (0, 1), (0, 4)]

    def test_kway_prints_one_fan_in(self, capsys):
        assert main(["plan", "--strategy", "kway", "--count", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "kway: leaves=4, one merge_many, root=0",
            "    0. merge 0 <- 1, 2, 3",
        ]

    def test_kary_topology(self, capsys):
        assert main(["plan", "--topology", "kary", "--nodes", "9"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("schedule '4-ary': leaves=9, merges=8")
        assert self._pairs(out) == kary_tree(9).steps

    @pytest.mark.parametrize(
        "argv",
        [["--strategy", "chain", "--count", "3"],
         ["--topology", "chain", "--nodes", "3"],
         ["--topology", "balanced", "--nodes", "3"]],
    )
    def test_seed_on_a_deterministic_shape_fails(self, argv, capsys):
        with pytest.raises(SystemExit, match="only meaningful with a randomized"):
            main(["plan", *argv, "--seed", "3"])
        assert capsys.readouterr().out == ""

    def test_random_topology_is_seeded(self, capsys):
        outs = []
        for _ in range(2):
            assert main(["plan", "--topology", "random", "--nodes", "6",
                         "--seed", "3"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0].startswith("schedule 'random'")

    @pytest.mark.parametrize(
        "argv",
        [["--count", "0"], ["--strategy", "kway", "--count", "0"],
         ["--topology", "balanced", "--nodes", "0"]],
    )
    def test_fewer_than_one_leaf_fails(self, argv, capsys):
        assert main(["plan", *argv]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestStore:
    @pytest.fixture
    def keyed_stream(self, tmp_path):
        items = tmp_path / "items.txt"
        keys = tmp_path / "keys.txt"
        values = [i % 11 for i in range(640)]
        items.write_text("\n".join(str(v) for v in values))
        keys.write_text("\n".join(str(i // 10) for i in range(640)))
        return items, keys, values

    def _ingest(self, tmp_path, items, keys):
        return main(["store", "ingest", "--dir", str(tmp_path / "st"),
                     "--type", "misra_gries", "--arg", "k=16",
                     "--width", "1", "--input", str(items),
                     "--keys", str(keys), "--codec", "binary.v1"])

    def test_ingest_compact_query(self, keyed_stream, tmp_path, capsys):
        items, keys, values = keyed_stream
        assert self._ingest(tmp_path, items, keys) == 0
        assert "ingested 640 records" in capsys.readouterr().out
        assert main(["store", "compact", "--dir", str(tmp_path / "st")]) == 0
        assert "roll-ups" in capsys.readouterr().out
        assert main(["store", "query", "--dir", str(tmp_path / "st"),
                     "--lo", "0", "--hi", "64", "--estimate", "3",
                     "--explain"]) == 0
        out = capsys.readouterr().out
        assert "fan_in=1" in out  # full span collapses to one roll-up
        assert out.strip().endswith(str(values.count(3)))

    def test_query_range_and_no_rollups_agree(self, keyed_stream, tmp_path, capsys):
        items, keys, values = keyed_stream
        self._ingest(tmp_path, items, keys)
        main(["store", "compact", "--dir", str(tmp_path / "st")])
        capsys.readouterr()
        answers = []
        for extra in ([], ["--no-rollups"]):
            assert main(["store", "query", "--dir", str(tmp_path / "st"),
                         "--lo", "5", "--hi", "61", "--estimate", "3",
                         *extra]) == 0
            answers.append(capsys.readouterr().out.strip())
        assert answers[0] == answers[1]
        assert int(answers[0]) == sum(
            1 for i, v in enumerate(values) if v == 3 and 50 <= i < 610
        )

    def test_second_ingest_appends(self, keyed_stream, tmp_path, capsys):
        items, keys, _ = keyed_stream
        self._ingest(tmp_path, items, keys)
        # re-ingest into existing store: --type no longer needed
        assert main(["store", "ingest", "--dir", str(tmp_path / "st"),
                     "--input", str(items), "--keys", str(keys)]) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--dir", str(tmp_path / "st")]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["records"] == 1280
        assert stats["members"]["value"]["type"] == "misra_gries"

    def test_new_store_without_type_exits(self, keyed_stream, tmp_path):
        items, keys, _ = keyed_stream
        with pytest.raises(SystemExit, match="--type"):
            main(["store", "ingest", "--dir", str(tmp_path / "st"),
                  "--input", str(items), "--keys", str(keys)])

    def test_key_length_mismatch_exits(self, keyed_stream, tmp_path):
        items, _, _ = keyed_stream
        short = tmp_path / "short.txt"
        short.write_text("1\n2\n")
        with pytest.raises(SystemExit, match="--keys"):
            main(["store", "ingest", "--dir", str(tmp_path / "st"),
                  "--type", "exact_counter", "--input", str(items),
                  "--keys", str(short)])

    def test_query_missing_store_fails(self, tmp_path, capsys):
        assert main(["store", "query", "--dir", str(tmp_path / "nowhere"),
                     "--lo", "0", "--hi", "1", "--distinct"]) == 1
        assert "error" in capsys.readouterr().err

    def test_query_without_selector_exits(self, keyed_stream, tmp_path):
        items, keys, _ = keyed_stream
        self._ingest(tmp_path, items, keys)
        with pytest.raises(SystemExit):
            main(["store", "query", "--dir", str(tmp_path / "st"),
                  "--lo", "0", "--hi", "64"])


def _damage_first_segment(target):
    """Flip one byte inside the first segment's range of its pack."""
    manifest = json.loads((target / "manifest.json").read_text())
    meta = manifest["chains"][0]["segments"][0]
    pack = target / "packs" / meta["pack"]
    blob = bytearray(pack.read_bytes())
    blob[meta["offset"] + meta["length"] - 1] ^= 0xFF
    pack.write_bytes(bytes(blob))


class TestStoreDurability:
    @pytest.fixture
    def small_store(self, tmp_path):
        items = tmp_path / "items.txt"
        keys = tmp_path / "keys.txt"
        items.write_text("\n".join(str(i % 5) for i in range(40)))
        keys.write_text("\n".join(str(i // 10) for i in range(40)))
        target = tmp_path / "st"
        assert main(["store", "ingest", "--dir", str(target),
                     "--type", "misra_gries", "--arg", "k=8",
                     "--width", "1", "--input", str(items),
                     "--keys", str(keys)]) == 0
        return target, items, keys

    def test_ingest_with_wal_logs_and_retires(self, small_store, capsys):
        target, items, keys = small_store
        capsys.readouterr()
        assert main(["store", "ingest", "--dir", str(target), "--wal",
                     "--input", str(items), "--keys", str(keys)]) == 0
        out = capsys.readouterr().out
        assert "wal seq 1" in out
        assert "retired 1 file(s)" in out  # save covered the batch
        assert not list((target / "wal").glob("*.log"))

    def test_wal_batch_survives_a_kill_before_save(self, small_store, capsys):
        target, items, keys = small_store
        from repro.store import SegmentStore

        # a process that logged an ingest but died before save
        store = SegmentStore.open_durable(target)
        store.ingest([{"value": 3}] * 4, [9.0, 9.1, 9.2, 9.3])
        del store  # no save
        capsys.readouterr()
        assert main(["store", "stats", "--dir", str(target)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["records"] == 44  # replayed from the WAL

    def test_verify_clean_and_damaged(self, small_store, capsys):
        target, _items, _keys = small_store
        capsys.readouterr()
        assert main(["store", "verify", "--dir", str(target)]) == 0
        assert capsys.readouterr().out.startswith("ok:")
        _damage_first_segment(target)
        assert main(["store", "verify", "--dir", str(target)]) == 1
        out = capsys.readouterr().out
        assert "NOT ok" in out and "corrupt segment" in out
        assert main(["store", "verify", "--dir", str(target),
                     "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert len(report["segments"]["corrupt"]) == 1

    def test_recover_quarantines_torn_wal(self, small_store, capsys):
        target, _items, _keys = small_store
        from repro.store import SegmentStore

        store = SegmentStore.open_durable(target)
        store.ingest([{"value": 1}], [20.0])
        store.ingest([{"value": 2}], [21.0])
        wal_path = store.wal.path
        blob = open(wal_path, "rb").read()
        with open(wal_path, "wb") as handle:
            handle.write(blob[:-3])  # tear the last frame
        capsys.readouterr()
        # strict open refuses and points at recover
        assert main(["store", "stats", "--dir", str(target)]) == 1
        assert "recover" in capsys.readouterr().err
        assert main(["store", "recover", "--dir", str(target)]) == 0
        out = capsys.readouterr().out
        assert "replayed 1 WAL batch(es)" in out
        assert "quarantined WAL" in out
        assert list((target / "quarantine").glob("wal-*.log"))
        assert list((target / "quarantine").glob("recovery-*.json"))
        # idempotent: a second recovery is clean, and the store serves
        assert main(["store", "recover", "--dir", str(target)]) == 0
        assert "clean" in capsys.readouterr().out
        assert main(["store", "stats", "--dir", str(target)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["records"] == 41  # 40 + first batch; torn one lost

    def test_recover_json_report(self, small_store, capsys):
        target, _items, _keys = small_store
        capsys.readouterr()
        assert main(["store", "recover", "--dir", str(target),
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is True
        assert report["path"] == str(target)


class TestCubeCli:
    """recover/verify/stats are kind-generic: the CLI sniffs the kind
    from the manifest, so the same subcommands serve cube directories."""

    @pytest.fixture
    def small_cube(self, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text(
            "\n".join(
                json.dumps(
                    {
                        "value": i % 5,
                        "region": ("eu", "us")[i % 2],
                    }
                )
                for i in range(40)
            )
        )
        keys = tmp_path / "keys.txt"
        keys.write_text("\n".join(str(i // 10) for i in range(40)))
        target = tmp_path / "cube"
        assert main(["store", "ingest", "--dir", str(target),
                     "--dims", "region", "--type", "misra_gries",
                     "--arg", "k=8", "--width", "1",
                     "--input", str(records), "--keys", str(keys)]) == 0
        return target, records, keys

    def test_ingest_reports_cells(self, small_cube, capsys):
        target, records, keys = small_cube
        capsys.readouterr()
        assert main(["store", "ingest", "--dir", str(target),
                     "--input", str(records), "--keys", str(keys)]) == 0
        out = capsys.readouterr().out
        assert "ingested 40 records" in out
        assert "cells" in out  # the cube's unit, same report shape

    def test_ingest_into_corrupt_manifest_reports_corruption(self, small_cube, capsys):
        # the directory is opened through load(), which names the damage,
        # instead of guessing the kind from a manifest it cannot read
        target, records, keys = small_cube
        manifest = target / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:40])
        capsys.readouterr()
        assert main(["store", "ingest", "--dir", str(target),
                     "--dims", "region",
                     "--input", str(records), "--keys", str(keys)]) == 1
        err = capsys.readouterr().err
        assert f"{target}: corrupt store manifest" in err
        assert "flat store" not in err

    def test_stats_schema_matches_flat_store(self, small_cube, tmp_path, capsys):
        target, _records, _keys = small_cube
        items = tmp_path / "items.txt"
        items.write_text("\n".join(str(i % 5) for i in range(10)))
        flat = tmp_path / "flat"
        assert main(["store", "ingest", "--dir", str(flat),
                     "--type", "misra_gries", "--arg", "k=8",
                     "--width", "1", "--input", str(items)]) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--dir", str(target)]) == 0
        cube_stats = json.loads(capsys.readouterr().out)
        assert main(["store", "stats", "--dir", str(flat)]) == 0
        flat_stats = json.loads(capsys.readouterr().out)
        assert cube_stats["kind"] == "cube"
        assert flat_stats["kind"] == "store"
        # one schema: both kinds report the same shared keys, and the
        # planner/view-cache sub-schemas are identical
        shared = set(flat_stats) & set(cube_stats)
        assert {"kind", "width", "codec", "members", "records",
                "generation", "key_span", "view_cache",
                "planner"} <= shared
        assert set(cube_stats["planner"]) == set(flat_stats["planner"])
        assert set(cube_stats["view_cache"]) == set(flat_stats["view_cache"])
        assert cube_stats["records"] == 40

    def test_verify_clean_and_damaged(self, small_cube, capsys):
        target, _records, _keys = small_cube
        capsys.readouterr()
        assert main(["store", "verify", "--dir", str(target)]) == 0
        assert capsys.readouterr().out.startswith("ok:")
        _damage_first_segment(target)
        assert main(["store", "verify", "--dir", str(target)]) == 1
        out = capsys.readouterr().out
        assert "NOT ok" in out and "corrupt segment" in out

    def test_recover_replays_cube_wal(self, small_cube, capsys):
        target, records, keys = small_cube
        capsys.readouterr()
        assert main(["store", "ingest", "--dir", str(target), "--wal",
                     "--input", str(records), "--keys", str(keys)]) == 0
        out = capsys.readouterr().out
        assert "wal seq 1" in out
        assert "retired 1 file(s)" in out
        from repro.store import CubeStore

        # a process that logged an ingest but died before save
        cube = CubeStore.open_durable(target)
        cube.ingest([{"value": 3, "region": "eu"}] * 4,
                    [9.0, 9.1, 9.2, 9.3])
        del cube  # no save
        assert main(["store", "recover", "--dir", str(target)]) == 0
        out = capsys.readouterr().out
        assert "replayed 1 WAL batch(es)" in out
        assert main(["store", "stats", "--dir", str(target)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["records"] == 84  # 40 + 40 + the replayed 4


class TestInspectAndTypes:
    def test_inspect(self, item_files, tmp_path, capsys):
        a, _ = item_files
        out = tmp_path / "s.json"
        main(["build", "--type", "misra_gries", "--arg", "k=8",
              "--input", str(a), "--out", str(out)])
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 0
        text = capsys.readouterr().out
        assert "type: misra_gries" in text
        assert "k: 8" in text

    def test_types_lists_registry(self, capsys):
        assert main(["types"]) == 0
        out = capsys.readouterr().out
        assert "misra_gries" in out
        assert "hyperloglog" in out


class TestWindowedCli:
    """The sliding-window surface: build --window/--eps, types --kind,
    store query --window/--window-eps."""

    def test_build_windowed(self, item_files, tmp_path, capsys):
        a, _ = item_files
        out = tmp_path / "w.json"
        assert main(["build", "--type", "misra_gries", "--arg", "k=8",
                     "--window", "40", "--eps", "0.25",
                     "--input", str(a), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["type"] == "windowed.misra_gries"
        text = capsys.readouterr().out
        assert "built windowed.misra_gries" in text
        # the window retains roughly the trailing 40 of 50 items
        assert "n=4" in text

    def test_build_eps_alone_windows_without_expiry(
        self, item_files, tmp_path, capsys
    ):
        a, _ = item_files
        out = tmp_path / "w.json"
        assert main(["build", "--type", "exact_counter", "--eps", "0.5",
                     "--input", str(a), "--out", str(out)]) == 0
        assert "built windowed.exact_counter: n=50" in capsys.readouterr().out

    def test_windowed_summary_round_trips_through_inspect(
        self, item_files, tmp_path, capsys
    ):
        a, _ = item_files
        out = tmp_path / "w.json"
        main(["build", "--type", "misra_gries", "--arg", "k=8",
              "--window", "40", "--input", str(a), "--out", str(out)])
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 0
        assert "type: windowed.misra_gries" in capsys.readouterr().out

    def test_query_answers_from_the_window_view(
        self, item_files, tmp_path, capsys
    ):
        # items: 30x "7" then 0..19; a 20-item window covers the tail,
        # so 7 must NOT dominate the windowed answer
        a, _ = item_files
        out = tmp_path / "w.json"
        main(["build", "--type", "exact_counter", "--window", "20",
              "--granularity", "5", "--input", str(a), "--out", str(out)])
        capsys.readouterr()
        assert main(["query", str(out), "--estimate", "7"]) == 0
        windowed_sevens = int(capsys.readouterr().out.strip())
        assert windowed_sevens < 30
        # an explicit narrower --window narrows further
        assert main(["query", str(out), "--window", "5",
                     "--estimate", "7"]) == 0
        assert int(capsys.readouterr().out.strip()) <= windowed_sevens

    def test_query_window_flag_rejected_on_flat_summary(
        self, item_files, tmp_path, capsys
    ):
        a, _ = item_files
        out = tmp_path / "s.json"
        main(["build", "--type", "exact_counter",
              "--input", str(a), "--out", str(out)])
        capsys.readouterr()
        assert main(["query", str(out), "--window", "10",
                     "--estimate", "7"]) == 1
        assert "windowed summary" in capsys.readouterr().err

    def test_types_kind_filter(self, capsys):
        assert main(["types", "--kind", "windowed"]) == 0
        windowed = capsys.readouterr().out.split()
        assert windowed
        assert all(name.startswith("windowed.") for name in windowed)
        assert main(["types", "--kind", "base"]) == 0
        base = capsys.readouterr().out.split()
        assert "misra_gries" in base
        assert not any(name.startswith("windowed.") for name in base)
        assert main(["types"]) == 0
        assert set(capsys.readouterr().out.split()) == set(windowed) | set(base)

    @pytest.fixture
    def window_store(self, tmp_path):
        items = tmp_path / "items.txt"
        keys = tmp_path / "keys.txt"
        values = [i % 11 for i in range(640)]
        items.write_text("\n".join(str(v) for v in values))
        keys.write_text("\n".join(str(i // 10) for i in range(640)))
        assert main(["store", "ingest", "--dir", str(tmp_path / "st"),
                     "--type", "exact_counter", "--width", "1",
                     "--input", str(items), "--keys", str(keys)]) == 0
        assert main(["store", "compact", "--dir", str(tmp_path / "st")]) == 0
        return tmp_path / "st", values

    def test_store_window_query_equals_explicit_range(
        self, window_store, capsys
    ):
        store_dir, values = window_store
        capsys.readouterr()
        answers = []
        for flags in (["--window", "16"], ["--lo", "48", "--hi", "64"]):
            assert main(["store", "query", "--dir", str(store_dir),
                         *flags, "--estimate", "3"]) == 0
            answers.append(capsys.readouterr().out.strip())
        assert answers[0] == answers[1]
        assert int(answers[0]) == sum(
            1 for i, v in enumerate(values) if v == 3 and i >= 480
        )

    def test_store_window_eps_absorbs_rollup(self, window_store, capsys):
        store_dir, _ = window_store
        capsys.readouterr()
        assert main(["store", "query", "--dir", str(store_dir),
                     "--window", "48", "--window-eps", "0.5",
                     "--estimate", "3", "--explain"]) == 0
        relaxed = capsys.readouterr().out
        assert main(["store", "query", "--dir", str(store_dir),
                     "--window", "48", "--estimate", "3", "--explain"]) == 0
        exact = capsys.readouterr().out
        # the relaxed plan serves the whole-store roll-up: one segment
        assert "fan_in=1" in relaxed
        assert "fan_in=1" not in exact

    def test_store_window_and_range_mutually_exclusive(
        self, window_store, capsys
    ):
        store_dir, _ = window_store
        assert main(["store", "query", "--dir", str(store_dir),
                     "--lo", "0", "--window", "8", "--estimate", "3"]) == 1
        assert "not both" in capsys.readouterr().err

    def test_store_window_validation(self, window_store, capsys):
        store_dir, _ = window_store
        assert main(["store", "query", "--dir", str(store_dir),
                     "--window", "-4", "--estimate", "3"]) == 1
        assert "window must be positive" in capsys.readouterr().err
        assert main(["store", "query", "--dir", str(store_dir),
                     "--window", "8", "--window-eps", "3",
                     "--estimate", "3"]) == 1
        assert "eps must be in" in capsys.readouterr().err
