"""Tests for the command-line interface (in-process via main())."""

import pytest

from repro.cli import main
from repro.data.io import read_dat, write_dat


@pytest.fixture
def dat_file(tmp_path, paper_db):
    path = tmp_path / "db.dat"
    write_dat(paper_db, path)
    return str(path)


class TestMine:
    def test_basic(self, dat_file, capsys):
        assert main(["mine", "--input", dat_file, "--min-support", "2"]) == 0
        out = capsys.readouterr().out
        assert "# 13 itemsets" in out
        assert "{A, B}" in out

    def test_relative_support_argument(self, dat_file, capsys):
        assert main(["mine", "--input", dat_file, "--min-support", "0.34"]) == 0
        assert "min_support=3" in capsys.readouterr().out

    def test_method_selection(self, dat_file, capsys):
        assert (
            main(
                ["mine", "--input", dat_file, "--min-support", "2", "--method", "fpgrowth"]
            )
            == 0
        )
        assert "method=fpgrowth" in capsys.readouterr().out

    def test_closed_kind(self, dat_file, capsys):
        assert (
            main(["mine", "--input", dat_file, "--min-support", "2", "--kind", "closed"])
            == 0
        )
        assert "plt-closed" in capsys.readouterr().out

    def test_maximal_kind(self, dat_file, capsys):
        assert (
            main(["mine", "--input", dat_file, "--min-support", "2", "--kind", "maximal"])
            == 0
        )
        out = capsys.readouterr().out
        assert "plt-maximal" in out

    def test_output_file(self, dat_file, tmp_path, capsys):
        out_path = tmp_path / "result.txt"
        assert (
            main(
                [
                    "mine",
                    "--input",
                    dat_file,
                    "--min-support",
                    "2",
                    "--output",
                    str(out_path),
                ]
            )
            == 0
        )
        assert "{A, B}" in out_path.read_text()
        assert capsys.readouterr().out == ""

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = main(["mine", "--input", str(tmp_path / "no.dat"), "--min-support", "2"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_method_is_runtime_error(self, dat_file, capsys):
        code = main(
            ["mine", "--input", dat_file, "--min-support", "2", "--method", "bogus"]
        )
        assert code == 1

    def test_bad_support_is_argparse_error(self, dat_file):
        with pytest.raises(SystemExit) as exc:
            main(["mine", "--input", dat_file, "--min-support", "abc"])
        assert exc.value.code == 2


class TestMineGoverned:
    """Budget flags on the mine subcommand, success and failure paths."""

    @pytest.fixture
    def dense_file(self, tmp_path):
        import random

        rng = random.Random(3)
        db = [tuple(rng.sample(range(40), 12)) for _ in range(200)]
        path = tmp_path / "dense.dat"
        write_dat(db, path)
        return str(path)

    def test_max_itemsets_prints_partial_header(self, dense_file, capsys):
        code = main(
            ["mine", "--input", dense_file, "--min-support", "4",
             "--max-itemsets", "25"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# PARTIAL (max_itemsets)" in out
        assert "supports are exact" in out
        assert "method=plt+partial" in out

    def test_deadline_flag_accepted(self, dense_file, capsys):
        code = main(
            ["mine", "--input", dense_file, "--min-support", "4",
             "--deadline", "30"]
        )
        assert code == 0
        # generous deadline: completes, no PARTIAL banner
        assert "# PARTIAL" not in capsys.readouterr().out

    def test_degrade_produces_approximate_header(self, dense_file, capsys):
        code = main(
            ["mine", "--input", dense_file, "--min-support", "4",
             "--max-itemsets", "10", "--degrade", "topk"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# APPROXIMATE:" in out
        assert "method=plt+approx-topk" in out

    def test_degrade_sketch_labels_bounds(self, dense_file, capsys):
        code = main(
            ["mine", "--input", dense_file, "--min-support", "4",
             "--max-itemsets", "10", "--degrade", "sketch"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# APPROXIMATE:" in out
        assert "method=plt+approx-sketch" in out
        assert "one-sided" in out

    def test_memory_budget_suffix_parsed(self, dense_file, capsys):
        code = main(
            ["mine", "--input", dense_file, "--min-support", "4",
             "--memory-budget", "256m"]
        )
        assert code == 0
        assert "# PARTIAL" not in capsys.readouterr().out

    def test_tiny_memory_budget_is_admission_error(self, dense_file, capsys):
        code = main(
            ["mine", "--input", dense_file, "--min-support", "4",
             "--memory-budget", "1"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_budget_flags_reject_condensed_kinds(self, dense_file, capsys):
        code = main(
            ["mine", "--input", dense_file, "--min-support", "4",
             "--kind", "closed", "--deadline", "5"]
        )
        assert code == 1
        assert "only apply to --kind all" in capsys.readouterr().err

    def test_degrade_without_budget_is_error(self, dense_file, capsys):
        code = main(
            ["mine", "--input", dense_file, "--min-support", "4",
             "--degrade", "sampling"]
        )
        assert code == 1
        assert "requires a budget flag" in capsys.readouterr().err

    def test_bad_memory_budget_is_argparse_error(self, dense_file):
        for bad in ("nonsense", "-4k", "0"):
            with pytest.raises(SystemExit) as exc:
                main(
                    ["mine", "--input", dense_file, "--min-support", "4",
                     "--memory-budget", bad]
                )
            assert exc.value.code == 2

    def test_bad_degrade_choice_is_argparse_error(self, dense_file):
        with pytest.raises(SystemExit) as exc:
            main(
                ["mine", "--input", dense_file, "--min-support", "4",
                 "--deadline", "5", "--degrade", "bogus"]
            )
        assert exc.value.code == 2

    def test_budget_with_nongoverned_method_is_error(self, dense_file, capsys):
        code = main(
            ["mine", "--input", dense_file, "--min-support", "4",
             "--method", "apriori", "--deadline", "5"]
        )
        assert code == 1
        assert "governance" in capsys.readouterr().err


class TestFailurePaths:
    def test_no_command_is_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_is_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_rules_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = main(
            ["rules", "--input", str(tmp_path / "no.dat"),
             "--min-support", "2", "--min-confidence", "0.5"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_encode_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = main(
            ["encode", "--input", str(tmp_path / "no.dat"),
             "--min-support", "2", "--output", str(tmp_path / "o.plt")]
        )
        assert code == 1

    def test_info_missing_input_is_runtime_error(self, tmp_path):
        assert main(["info", "--input", str(tmp_path / "no.dat")]) == 1

    def test_chaos_bad_crash_spec_is_runtime_error(self, capsys):
        code = main(["chaos", "--crash", "nonsense"])
        assert code == 1
        assert "invalid --crash" in capsys.readouterr().err

    def test_chaos_crash_outside_cluster_is_runtime_error(self, capsys):
        code = main(["chaos", "--n-nodes", "3", "--crash", "5:2"])
        assert code == 1
        assert "outside the 3-node cluster" in capsys.readouterr().err

    def test_mine_tolerates_dirty_input(self, tmp_path, capsys):
        # robust parsing end to end: junk lines are skipped, not fatal
        path = tmp_path / "dirty.dat"
        path.write_bytes(b"1 2\n\xff\xfe garbage\n1 2 3\n2 3\n")
        code = main(["mine", "--input", str(path), "--min-support", "2"])
        assert code == 0
        assert "itemsets" in capsys.readouterr().out


class TestRules:
    def test_basic(self, dat_file, capsys):
        assert (
            main(
                [
                    "rules",
                    "--input",
                    dat_file,
                    "--min-support",
                    "2",
                    "--min-confidence",
                    "0.8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "rules from" in out
        assert "->" in out

    def test_top_limits_output(self, dat_file, capsys):
        main(
            [
                "rules",
                "--input",
                dat_file,
                "--min-support",
                "2",
                "--min-confidence",
                "0.5",
                "--top",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert len([l for l in out.splitlines() if "->" in l]) == 2


class TestGenerate:
    @pytest.mark.parametrize("kind", ["quest", "dense", "zipf", "uniform"])
    def test_kinds(self, kind, tmp_path, capsys):
        out_path = tmp_path / f"{kind}.dat"
        assert (
            main(
                [
                    "generate",
                    "--kind",
                    kind,
                    "--output",
                    str(out_path),
                    "--transactions",
                    "50",
                    "--items",
                    "30",
                    "--avg-len",
                    "5",
                ]
            )
            == 0
        )
        db = read_dat(out_path)
        assert len(db) == 50

    def test_deterministic_seed(self, tmp_path):
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        for path in (a, b):
            main(
                [
                    "generate", "--kind", "zipf", "--output", str(path),
                    "--transactions", "30", "--items", "20", "--seed", "9",
                ]
            )
        assert a.read_text() == b.read_text()


class TestEncodeInfoDatasets:
    def test_encode_roundtrip(self, dat_file, tmp_path, capsys):
        out_path = tmp_path / "db.plt"
        assert (
            main(
                [
                    "encode", "--input", dat_file, "--min-support", "2",
                    "--output", str(out_path), "--gzip",
                ]
            )
            == 0
        )
        from repro.compress import deserialize_plt

        plt = deserialize_plt(out_path.read_bytes())
        assert plt.n_vectors() == 5

    def test_info(self, dat_file, capsys):
        assert main(["info", "--input", dat_file, "--min-support", "2"]) == 0
        out = capsys.readouterr().out
        assert "transactions:       6" in out
        assert "aggregated vectors: 5" in out

    def test_info_without_support(self, dat_file, capsys):
        assert main(["info", "--input", dat_file]) == 0
        assert "PLT" not in capsys.readouterr().out

    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "paper-example" in out
        assert "DENSE-50" in out


class TestStream:
    @pytest.fixture
    def stream_file(self, tmp_path):
        path = tmp_path / "feed.dat"
        path.write_text("1 2\n" * 30 + "3\n" * 5)
        return str(path)

    def test_file_ingest_text_report(self, stream_file, capsys):
        assert main(["stream", "--input", stream_file]) == 0
        out = capsys.readouterr().out
        assert "# ingested 35 (35 transactions)" in out
        assert "item bound" in out

    def test_json_report(self, stream_file, capsys):
        import json

        assert main(["stream", "--input", stream_file, "--json"]) == 0
        final = json.loads(capsys.readouterr().out)
        assert final["ingested"] == 35
        assert final["n_items"] == 3
        assert final["windowed"] is False
        assert final["parse"] == {
            "lines": 35,
            "transactions": 35,
            "skipped": 0,
            "truncated": False,
        }
        top = {tuple(e["items"]): e["estimate"] for e in final["top"]}
        assert top[(1, 2)] >= 30

    def test_stdin_ingest(self, stream_file, capsys, monkeypatch):
        import io
        import json

        payload = open(stream_file, "rb").read()
        monkeypatch.setattr(
            "sys.stdin", type("S", (), {"buffer": io.BytesIO(payload)})()
        )
        assert main(["stream", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ingested"] == 35

    def test_min_support_lists_frequent(self, stream_file, capsys):
        import json

        assert (
            main(["stream", "--input", stream_file, "--json", "--min-support", "20"])
            == 0
        )
        final = json.loads(capsys.readouterr().out)
        assert final["min_support"] == 20
        found = {tuple(e["items"]) for e in final["frequent"]}
        assert (1, 2) in found and (3,) not in found

    def test_snapshot_restore_digest_identical(self, stream_file, tmp_path, capsys):
        import json

        ckpt = str(tmp_path / "ckpt")
        assert (
            main(["stream", "--input", stream_file, "--json", "--snapshot", ckpt]) == 0
        )
        first = json.loads(capsys.readouterr().out)
        assert first["snapshots"] >= 1
        # restore and ingest nothing: state must be byte-identical
        empty = tmp_path / "empty.dat"
        empty.write_text("")
        assert (
            main(["stream", "--restore", ckpt, "--input", str(empty), "--json"]) == 0
        )
        second = json.loads(capsys.readouterr().out)
        assert second["ingested"] == 0
        assert second["digest"] == first["digest"]

    def test_windowed_ingest(self, stream_file, capsys):
        import json

        assert (
            main(["stream", "--input", stream_file, "--json", "--window", "10"]) == 0
        )
        final = json.loads(capsys.readouterr().out)
        assert final["windowed"] is True
        assert final["window"] == 10
        assert final["n_seen"] == 35
        assert final["n_transactions"] <= 10

    def test_window_flags_require_window(self, stream_file, capsys):
        assert main(["stream", "--input", stream_file, "--buckets", "2"]) == 1
        assert "--window" in capsys.readouterr().err
        assert main(["stream", "--input", stream_file, "--exact-tail", "5"]) == 1
        assert "--window" in capsys.readouterr().err

    def test_report_cadence(self, stream_file, capsys):
        assert (
            main(["stream", "--input", stream_file, "--report-every", "10"]) == 0
        )
        out = capsys.readouterr().out
        assert "# 10 transactions in" in out
        assert "# 30 transactions in" in out

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.dat")
        assert main(["stream", "--input", missing]) == 1
        assert "error:" in capsys.readouterr().err


class TestServeSketchArgs:
    def test_sketch_rejects_store(self, dat_file, tmp_path, capsys):
        assert (
            main(
                ["serve", "--db", dat_file, "--sketch", "--store", str(tmp_path / "s")]
            )
            == 1
        )
        assert "error:" in capsys.readouterr().err

    def test_sketch_requires_db(self, capsys):
        assert main(["serve", "--sketch", "--port", "0"]) == 1
        assert "error:" in capsys.readouterr().err
