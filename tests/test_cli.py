"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.cli import main
from repro.datalake.domains import get_domain


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny end-to-end CLI workspace: lake dir + index + column files."""
    root = tmp_path_factory.mktemp("cli")
    rng = random.Random(4)

    assert main([
        "generate", "--profile", "enterprise", "--tables", "30",
        "--seed", "3", "--out", str(root / "lake"),
    ]) == 0
    assert main([
        "index", "--corpus", str(root / "lake"), "--out", str(root / "lake.base"),
    ]) == 0

    spec = get_domain("datetime_slash")
    (root / "feed.txt").write_text("\n".join(spec.sample_many(rng, 50)))
    (root / "clean.txt").write_text("\n".join(spec.sample_many(rng, 200)))
    drifted = get_domain("datetime_iso")
    (root / "drifted.txt").write_text("\n".join(drifted.sample_many(rng, 200)))
    (root / "examples.txt").write_text("\n".join(
        get_domain("locale_lower").sample_many(rng, 10)
    ))
    return root


class TestGenerateAndIndex:
    def test_lake_on_disk(self, workspace):
        csvs = list((workspace / "lake").glob("*.csv"))
        assert len(csvs) == 30
        assert (workspace / "lake.base").exists()


class TestInferAndValidate:
    def test_infer_writes_rule(self, workspace, capsys):
        code = main([
            "infer", "--index", str(workspace / "lake.base"),
            "--column", str(workspace / "feed.txt"),
            "--rule", str(workspace / "rule.json"),
            "--min-coverage", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pattern:" in out and "<digit>" in out
        payload = json.loads((workspace / "rule.json").read_text())
        assert payload["variant"] == "fmdv-vh"

    def test_validate_clean_exits_zero(self, workspace, capsys):
        code = main([
            "validate", "--rule", str(workspace / "rule.json"),
            "--column", str(workspace / "clean.txt"),
        ])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_drifted_exits_two(self, workspace, capsys):
        code = main([
            "validate", "--rule", str(workspace / "rule.json"),
            "--column", str(workspace / "drifted.txt"),
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert "ALERT" in out
        assert "non-conforming:" in out

    def test_infer_failure_exit_code(self, workspace, tmp_path, capsys):
        weird = tmp_path / "weird.txt"
        weird.write_text("⟦a⟧\n⟦b⟧\n")
        code = main([
            "infer", "--index", str(workspace / "lake.base"),
            "--column", str(weird),
        ])
        assert code == 1

    def test_variant_selector(self, workspace, capsys):
        for variant in ("basic", "v", "h", "vh", "cmdv"):
            main([
                "infer", "--index", str(workspace / "lake.base"),
                "--column", str(workspace / "feed.txt"),
                "--variant", variant, "--min-coverage", "5",
            ])  # must not raise


class TestShardedIndexAndBatch:
    def test_index_shards_writes_v2_directory(self, workspace, capsys):
        code = main([
            "index", "--corpus", str(workspace / "lake"),
            "--out", str(workspace / "lake.idx"), "--format", "v2", "--shards", "8",
        ])
        assert code == 0
        assert "format v2" in capsys.readouterr().out
        assert (workspace / "lake.idx" / "manifest.json").exists()
        assert len(list((workspace / "lake.idx").glob("shard-*.json.gz"))) == 8

    def test_infer_from_sharded_index(self, workspace, capsys):
        code = main([
            "infer", "--index", str(workspace / "lake.idx"),
            "--column", str(workspace / "feed.txt"),
            "--min-coverage", "5",
        ])
        assert code == 0
        assert "pattern:" in capsys.readouterr().out

    def test_infer_batch_of_columns(self, workspace, capsys):
        code = main([
            "infer", "--index", str(workspace / "lake.idx"),
            "--column", str(workspace / "feed.txt"), str(workspace / "clean.txt"),
            "--min-coverage", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("== ") == 2
        assert out.count("pattern:") == 2

    def test_rule_output_requires_single_column(self, workspace, capsys):
        code = main([
            "infer", "--index", str(workspace / "lake.idx"),
            "--column", str(workspace / "feed.txt"), str(workspace / "clean.txt"),
            "--rule", str(workspace / "nope.json"),
        ])
        assert code == 2


class TestStoreFormatsAndMerge:
    def test_index_format_v3_writes_binary_directory(self, workspace, capsys):
        code = main([
            "index", "--corpus", str(workspace / "lake"),
            "--out", str(workspace / "lake.v3"), "--format", "v3", "--shards", "8",
        ])
        assert code == 0
        assert "format v3" in capsys.readouterr().out
        assert (workspace / "lake.v3" / "manifest.json").exists()
        assert len(list((workspace / "lake.v3").glob("shard-*.bin"))) == 8

    def test_infer_from_v3_index(self, workspace, capsys):
        code = main([
            "infer", "--index", str(workspace / "lake.v3"),
            "--column", str(workspace / "feed.txt"),
            "--min-coverage", "5",
        ])
        assert code == 0
        assert "pattern:" in capsys.readouterr().out

    def test_v3_infer_matches_v2_infer(self, workspace, capsys):
        """The same corpus served from v2 and v3 must answer identically."""
        args_tail = ["--column", str(workspace / "feed.txt"), "--min-coverage", "5"]
        assert main(["infer", "--index", str(workspace / "lake.idx"), *args_tail]) == 0
        v2_out = capsys.readouterr().out
        assert main(["infer", "--index", str(workspace / "lake.v3"), *args_tail]) == 0
        assert capsys.readouterr().out == v2_out

    def test_format_v1_rejected(self, workspace, capsys):
        """v1 is read-only legacy: the parser offers only the live formats."""
        with pytest.raises(SystemExit) as exit_info:
            main([
                "index", "--corpus", str(workspace / "lake"),
                "--out", str(workspace / "x"), "--format", "v1",
            ])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "'v2'" in err and "'v3'" in err
        assert not (workspace / "x").exists()

    def test_env_selected_v1_rejected(self, workspace, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_INDEX_FORMAT", "v1")
        code = main([
            "index", "--corpus", str(workspace / "lake"),
            "--out", str(workspace / "x"),
        ])
        assert code == 2
        assert "v2 or v3" in capsys.readouterr().err
        assert not (workspace / "x").exists()

    def test_missing_corpus_is_a_usage_error(self, workspace, tmp_path, capsys):
        code = main([
            "index", "--corpus", str(tmp_path / "no-such-lake"),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "corpus directory not found" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["dist-build", "--corpus", "{ghost}", "--worker", "http://127.0.0.1:1",
          "--out", "{out}"], "--corpus"),
        (["infer", "--index", "{ghost}", "--column", "{ws}/feed.txt"], "--index"),
        (["infer", "--index", "{ws}/lake.base", "--column", "{ws}/feed.txt",
          "{ghost}"], "--column"),
        (["validate", "--rule", "{ghost}", "--column", "{ws}/feed.txt"], "--rule"),
        (["serve", "--index", "{ghost}"], "--index"),
        (["tag", "--index", "{ghost}", "--examples", "{ws}/examples.txt"],
         "--index"),
        (["tag", "--index", "{ws}/lake.base", "--examples", "{ghost}"],
         "--examples"),
        (["tag", "--index", "{ws}/lake.base", "--examples", "{ws}/examples.txt",
          "--corpus", "{ghost}"], "--corpus"),
        (["watch", "--state-dir", "{out}", "--index", "{ghost}", "--serve"],
         "--index"),
    ])
    def test_missing_input_path_is_one_line_exit_2(
        self, workspace, tmp_path, capsys, argv, flag
    ):
        """Every command fails on a missing input the way ``index`` does:
        one stderr line naming the path, exit 2, nothing run or written."""
        ghost = tmp_path / "no-such-path"
        names = {"ghost": ghost, "ws": workspace, "out": tmp_path / "out"}
        code = main([arg.format(**names) for arg in argv])
        assert code == 2, flag
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "not found" in captured.err and str(ghost) in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--shards", "0"), ("--spill-mb", "0"), ("--workers", "-1"),
    ])
    def test_bad_build_knobs_rejected(self, workspace, tmp_path, capsys, flag, value):
        """Every knob is validated on every build: there is one pipeline,
        so no flag combination silently ignores another."""
        code = main([
            "index", "--corpus", str(workspace / "lake"),
            "--out", str(tmp_path / "x"), flag, value,
        ])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_merge_subcommand(self, workspace, tmp_path, capsys):
        from repro.core.enumeration import EnumerationConfig
        from repro.index import build_index, open_index, save_index

        a = build_index([["1:23"] * 20], EnumerationConfig(), corpus_name="a")
        b = build_index([["4:56"] * 20], EnumerationConfig(), corpus_name="b")
        save_index(a, tmp_path / "a.v3", format="v3", n_shards=4)
        save_index(b, tmp_path / "b.v3", format="v3", n_shards=4)
        code = main([
            "merge", "--a", str(tmp_path / "a.v3"), "--b", str(tmp_path / "b.v3"),
            "--out", str(tmp_path / "merged.v3"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "merged" in out and "4 shards" in out
        merged = open_index(tmp_path / "merged.v3")
        assert dict(merged.items()) == dict(a.merge(b).items())

    def test_merge_mixed_formats_rejected(self, workspace, tmp_path, capsys):
        code = main([
            "merge", "--a", str(workspace / "lake.idx"),
            "--b", str(workspace / "lake.v3"),
            "--out", str(tmp_path / "nope"),
        ])
        assert code == 2
        assert "mixed formats" in capsys.readouterr().err

    def test_merge_missing_input_rejected(self, workspace, tmp_path, capsys):
        code = main([
            "merge", "--a", str(tmp_path / "ghost"),
            "--b", str(workspace / "lake.v3"),
            "--out", str(tmp_path / "nope"),
        ])
        assert code == 2


class TestTag:
    def test_tag_sweeps_corpus(self, workspace, capsys):
        code = main([
            "tag", "--index", str(workspace / "lake.base"),
            "--examples", str(workspace / "examples.txt"),
            "--corpus", str(workspace / "lake"),
            "--min-coverage", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tag pattern:" in out
        assert "matching columns" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_mentions_paper(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "data-lake patterns" in capsys.readouterr().out


class TestServeArgs:
    def test_serve_rejects_bad_max_concurrency(self, workspace, capsys):
        from repro.cli import main as cli_main

        code = cli_main([
            "serve", "--index", str(workspace / "lake.idx"),
            "--max-concurrency", "0",
        ])
        assert code == 2
        assert "--max-concurrency" in capsys.readouterr().err

    def test_serve_rejects_negative_rate(self, workspace, capsys):
        from repro.cli import main as cli_main

        code = cli_main([
            "serve", "--index", str(workspace / "lake.idx"), "--rate", "-1",
        ])
        assert code == 2
        assert "--rate" in capsys.readouterr().err
