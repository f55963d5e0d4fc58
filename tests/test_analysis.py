"""Tests for repro-lint (``repro.analysis``): framework, every rule family
(positive + negative + suppressed fixtures), the CLI contract, and the
self-check that the shipped tree is violation-free."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    LintRule,
    available_rules,
    get_rule,
    lint_paths,
    lint_source,
    register_rule,
)
from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_of(findings: list[Finding]) -> list[str]:
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# framework
# ---------------------------------------------------------------------------


class TestFramework:
    def test_builtin_rules_registered(self):
        ids = available_rules()
        for expected in (
            "AV101",
            "AV102",
            "AV103",
            "AV104",
            "AV201",
            "AV301",
            "AV401",
            "AV501",
        ):
            assert expected in ids

    def test_get_rule_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            get_rule("AV999")

    def test_register_rule_requires_id_and_name(self):
        with pytest.raises(ValueError, match="must define rule_id and name"):
            register_rule(LintRule())

    def test_register_rule_rejects_duplicate_without_replace(self):
        with pytest.raises(ValueError, match="already registered"):
            register_rule(get_rule("AV101"))

    def test_third_party_rule_roundtrip(self):
        class NoTodoRule(LintRule):
            rule_id = "XX900"
            name = "custom/no-todo-name"

            def check(self, module):
                import ast

                for node in ast.walk(module.tree):
                    if isinstance(node, ast.Name) and node.id == "todo":
                        yield self.finding(module, node, "todo is not a name")

        register_rule(NoTodoRule(), replace=True)
        try:
            findings = lint_source("todo = 1\n", "x.py", rules=["XX900"])
            assert rules_of(findings) == ["XX900"]
        finally:
            from repro.analysis.core import _RULES

            _RULES.pop("XX900", None)

    def test_scope_restricts_rule(self):
        src = "vals = hash('a')\n"
        assert rules_of(lint_source(src, "src/repro/index/x.py")) == ["AV103"]
        # same source outside the scoped tree: not flagged
        assert lint_source(src, "src/repro/core/x.py") == []
        # scope override applies the rule anywhere
        assert rules_of(
            lint_source(src, "src/repro/core/x.py", rules=["AV103"], respect_scope=False)
        ) == ["AV103"]

    def test_findings_sorted_deterministically(self):
        src = "import os\nb = os.listdir('.')\na = os.listdir('.')\n"
        findings = lint_source(src, "x.py")
        assert [f.line for f in findings] == [2, 3]

    def test_parse_error_becomes_av000_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = lint_paths([bad])
        assert not report.ok
        assert rules_of(list(report.findings)) == ["AV000"]
        assert report.parse_errors[0][0] == str(bad)

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["no/such/dir-xyz"])

    def test_report_json_shape(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text("import os\nx = os.listdir('.')\n")
        payload = json.loads(lint_paths([mod]).to_json())
        assert payload["version"] == 1
        assert payload["ok"] is False
        assert payload["files_scanned"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "AV101"
        assert finding["line"] == 2

    def test_human_format_is_file_line_rule(self):
        (finding,) = lint_source("import os\nx = os.listdir('.')\n", "pkg/m.py")
        text = finding.format_human()
        assert text.startswith("pkg/m.py:2:")
        assert " AV101 " in text and "[determinism/unsorted-listing]" in text


class TestSuppression:
    SRC = "import os\nx = os.listdir('.')\n"

    def test_trailing_comment_suppresses_own_line(self):
        src = "import os\nx = os.listdir('.')  # repro-lint: disable=AV101\n"
        assert lint_source(src, "x.py") == []

    def test_comment_line_suppresses_next_line(self):
        src = "import os\n# repro-lint: disable=AV101\nx = os.listdir('.')\n"
        assert lint_source(src, "x.py") == []

    def test_disable_file_covers_whole_file(self):
        src = "# repro-lint: disable-file=AV101\nimport os\n" + "x = os.listdir('.')\n" * 3
        assert lint_source(src, "x.py") == []

    def test_disable_all_wildcard(self):
        src = "import os\nx = os.listdir('.')  # repro-lint: disable=all\n"
        assert lint_source(src, "x.py") == []

    def test_unrelated_rule_id_does_not_suppress(self):
        src = "import os\nx = os.listdir('.')  # repro-lint: disable=AV103\n"
        assert rules_of(lint_source(src, "x.py")) == ["AV101"]


# ---------------------------------------------------------------------------
# determinism family (AV101 / AV102 / AV103)
# ---------------------------------------------------------------------------


class TestUnsortedListing:
    @pytest.mark.parametrize(
        "src",
        [
            "import os\nfor f in os.listdir('.'):\n    print(f)\n",
            "import glob\nnames = list(glob.glob('*.py'))\n",
            "from pathlib import Path\nfor p in Path('.').glob('*.csv'):\n    p.unlink()\n",
            "from pathlib import Path\nfiles = [p for p in Path('.').iterdir()]\n",
            "from pathlib import Path\nfiles = list(Path('.').rglob('*.py'))\n",
        ],
    )
    def test_violations(self, src):
        assert rules_of(lint_source(src, "x.py")) == ["AV101"]

    @pytest.mark.parametrize(
        "src",
        [
            "import os\nfor f in sorted(os.listdir('.')):\n    print(f)\n",
            "from pathlib import Path\nfor p in sorted(Path('.').glob('*')):\n    p.unlink()\n",
            # order-insensitive reducers are fine
            "import os\nn = len(os.listdir('.'))\n",
            "from pathlib import Path\nsz = sum(p.stat().st_size for p in Path('.').glob('*'))\n",
            "import os\npresent = set(os.listdir('.'))\n",
        ],
    )
    def test_clean(self, src):
        assert lint_source(src, "x.py") == []


class TestSetIteration:
    PATH = "src/repro/index/x.py"

    @pytest.mark.parametrize(
        "src",
        [
            "for k in {'a', 'b'}:\n    print(k)\n",
            "s = set(['a'])\nout = [v for v in s if v]\n",
            "a = {'x': 1}\nb = {'y': 2}\nfor k in a.keys() | b.keys():\n    print(k)\n",
        ],
    )
    def test_violations(self, src):
        assert rules_of(lint_source(src, self.PATH)) == ["AV102"]

    @pytest.mark.parametrize(
        "src",
        [
            "for k in sorted({'a', 'b'}):\n    print(k)\n",
            # comprehension result goes straight into sorted(): deterministic
            "a = {'x': 1}\nb = {'y': 1}\nm = sorted(k for k in a.keys() | b.keys())\n",
            # membership tests are not iteration
            "ok = 'a' in {'a', 'b'}\n",
            "for k in ['a', 'b']:\n    print(k)\n",
        ],
    )
    def test_clean(self, src):
        assert lint_source(src, self.PATH) == []

    def test_out_of_scope_not_flagged(self):
        src = "for k in {'a', 'b'}:\n    print(k)\n"
        assert lint_source(src, "src/repro/core/x.py") == []


class TestBareHash:
    PATH = "src/repro/service/x.py"

    def test_violation(self):
        assert rules_of(lint_source("key = hash('col')\n", self.PATH)) == ["AV103"]

    def test_dunder_hash_exempt(self):
        src = (
            "class C:\n"
            "    def __hash__(self):\n"
            "        return hash(('a', 1))\n"
        )
        assert lint_source(src, self.PATH) == []

    def test_stable_digests_clean(self):
        src = "import zlib\nkey = zlib.crc32(b'col')\n"
        assert lint_source(src, self.PATH) == []


class TestBareMostCommon:
    PATH = "src/repro/core/x.py"

    @pytest.mark.parametrize(
        "src",
        [
            "from collections import Counter\n"
            "top = Counter('aab').most_common(1)\n",
            "from collections import Counter\n"
            "c = Counter()\n"
            "for t, w in c.most_common(4):\n"
            "    print(t, w)\n",
            # flagged on any attribute receiver, not just literal Counters
            "best = weights.most_common()\n",
        ],
    )
    def test_violations(self, src):
        assert rules_of(lint_source(src, self.PATH)) == ["AV104"]

    def test_index_scope_flagged(self):
        src = "top = counts.most_common(1)\n"
        assert rules_of(
            lint_source(src, "src/repro/index/x.py")
        ) == ["AV104"]

    @pytest.mark.parametrize(
        "src",
        [
            "from repro.util import most_common_stable\n"
            "top = most_common_stable(counts, 1)\n",
            # the sanctioned wrapper's own definition may call most_common
            "def most_common_stable(counts, k):\n"
            "    return counts.most_common(k)\n",
        ],
    )
    def test_clean(self, src):
        assert lint_source(src, self.PATH) == []

    def test_out_of_scope_not_flagged(self):
        src = "top = counts.most_common(1)\n"
        assert lint_source(src, "src/repro/eval/x.py") == []

    def test_suppressible(self):
        src = "top = counts.most_common(1)  # repro-lint: disable=AV104\n"
        assert lint_source(src, self.PATH) == []


# ---------------------------------------------------------------------------
# spawn safety (AV201)
# ---------------------------------------------------------------------------


class TestSpawnSafety:
    def test_submit_compiled_regex_flagged(self):
        src = (
            "import re\n"
            "def run(pool, chunk):\n"
            "    rx = re.compile('a+')\n"
            "    return pool.submit(work, chunk, rx)\n"
        )
        assert rules_of(lint_source(src, "x.py")) == ["AV201"]

    def test_submit_self_lock_flagged(self):
        src = (
            "def run(self, chunk):\n"
            "    return self._pool.submit(work, chunk, self._lock)\n"
        )
        assert rules_of(lint_source(src, "x.py")) == ["AV201"]

    def test_submit_mmap_attribute_flagged(self):
        src = (
            "def run(pool, self):\n"
            "    return pool.map(work, self._mm)\n"
        )
        assert rules_of(lint_source(src, "x.py")) == ["AV201"]

    def test_initargs_open_file_flagged(self):
        src = (
            "import concurrent.futures\n"
            "def start(path):\n"
            "    fh = open(path, 'rb')\n"
            "    return concurrent.futures.ProcessPoolExecutor(\n"
            "        max_workers=2, initargs=(fh,)\n"
            "    )\n"
        )
        assert rules_of(lint_source(src, "x.py")) == ["AV201"]

    def test_plain_data_clean(self):
        src = (
            "def run(pool, chunks, config, variant):\n"
            "    return [pool.submit(work, c, config, variant) for c in chunks]\n"
        )
        assert lint_source(src, "x.py") == []

    def test_path_instead_of_handle_clean(self):
        src = (
            "def run(pool, index_path, columns):\n"
            "    return pool.submit(work, str(index_path), columns)\n"
        )
        assert lint_source(src, "x.py") == []

    def test_non_pool_submit_ignored(self):
        src = "def run(form, rx):\n    return form.submit(rx)\n"
        assert lint_source(src, "x.py") == []


# ---------------------------------------------------------------------------
# lock discipline (AV301)
# ---------------------------------------------------------------------------

LOCKED_CLASS = """
import threading

class Cache:
    def __init__(self):
        self._data = {{}}  # guarded-by: _lock
        self._lock = threading.Lock()

    def {method}
"""


class TestLockDiscipline:
    def test_unlocked_read_flagged(self):
        src = LOCKED_CLASS.format(method="size(self):\n        return len(self._data)\n")
        (finding,) = lint_source(src, "x.py")
        assert finding.rule == "AV301"
        assert "_data" in finding.message and "_lock" in finding.message

    def test_unlocked_write_flagged(self):
        src = LOCKED_CLASS.format(
            method="reset(self):\n        self._data = {}\n"
        )
        assert rules_of(lint_source(src, "x.py")) == ["AV301"]

    def test_locked_access_clean(self):
        src = LOCKED_CLASS.format(
            method=(
                "size(self):\n"
                "        with self._lock:\n"
                "            return len(self._data)\n"
            )
        )
        assert lint_source(src, "x.py") == []

    def test_holds_lock_annotation_exempts_method(self):
        src = LOCKED_CLASS.format(
            method=(
                "_size_locked(self):  # holds-lock: _lock\n"
                "        return len(self._data)\n"
            )
        )
        assert lint_source(src, "x.py") == []

    def test_init_and_del_exempt(self):
        src = LOCKED_CLASS.format(
            method="__del__(self):\n        self._data = None\n"
        )
        assert lint_source(src, "x.py") == []

    def test_unannotated_attribute_not_enforced(self):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "        self._lock = threading.Lock()\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
        )
        assert lint_source(src, "x.py") == []

    def test_suppression_works_on_access_line(self):
        src = LOCKED_CLASS.format(
            method=(
                "size(self):\n"
                "        return len(self._data)  # repro-lint: disable=AV301\n"
            )
        )
        assert lint_source(src, "x.py") == []


# ---------------------------------------------------------------------------
# fixed-point exactness (AV401)
# ---------------------------------------------------------------------------


class TestFixedPoint:
    PATH = "src/repro/index/builder.py"

    def test_fsum_flagged(self):
        src = "import math\ntotal = math.fsum(values)\n"
        assert rules_of(lint_source(src, self.PATH)) == ["AV401"]

    def test_sum_over_impurity_flagged(self):
        src = "total = sum(ps.impurity(n) for ps in stats)\n"
        assert rules_of(lint_source(src, self.PATH)) == ["AV401"]

    def test_augadd_raw_impurity_flagged(self):
        src = "fpr_sums[key] += ps.impurity(n)\n"
        assert rules_of(lint_source(src, self.PATH)) == ["AV401"]

    def test_binop_raw_impurity_flagged(self):
        src = "acc[key] = acc.get(key, 0) + ps.impurity(n)\n"
        assert rules_of(lint_source(src, self.PATH)) == ["AV401"]

    def test_fixed_point_accumulation_clean(self):
        src = (
            "fpr_fixed[key] = fpr_fixed.get(key, 0) "
            "+ impurity_to_fixed(ps.impurity(n))\n"
        )
        assert lint_source(src, self.PATH) == []

    def test_fixed_augadd_clean(self):
        src = "fpr_fixed[key] += impurity_to_fixed(ps.impurity(n))\n"
        assert lint_source(src, self.PATH) == []

    def test_unrelated_sum_clean(self):
        src = "total = sum(len(c) for c in columns)\n"
        assert lint_source(src, self.PATH) == []

    def test_out_of_scope_not_flagged(self):
        src = "import math\ntotal = math.fsum(values)\n"
        assert lint_source(src, "src/repro/eval/x.py") == []


# ---------------------------------------------------------------------------
# resource lifecycle (AV501)
# ---------------------------------------------------------------------------


class TestResourceLifecycle:
    PATH = "src/repro/index/x.py"

    def test_unclosed_open_flagged(self):
        src = "def read(p):\n    fh = open(p, 'rb')\n    return fh.read()\n"
        assert rules_of(lint_source(src, self.PATH)) == ["AV501"]

    def test_unclosed_mmap_flagged(self):
        src = (
            "import mmap\n"
            "def view(fh):\n"
            "    mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)\n"
            "    return mm[:4]\n"
        )
        assert rules_of(lint_source(src, self.PATH)) == ["AV501"]

    def test_with_block_clean(self):
        src = "def read(p):\n    with open(p, 'rb') as fh:\n        return fh.read()\n"
        assert lint_source(src, self.PATH) == []

    def test_contextlib_closing_clean(self):
        src = (
            "import contextlib, mmap\n"
            "def view(fh):\n"
            "    with contextlib.closing(mmap.mmap(fh.fileno(), 0)) as mm:\n"
            "        return mm[:4]\n"
        )
        assert lint_source(src, self.PATH) == []

    def test_local_close_pairing_clean(self):
        src = (
            "def read(p):\n"
            "    fh = open(p, 'rb')\n"
            "    try:\n"
            "        return fh.read()\n"
            "    finally:\n"
            "        fh.close()\n"
        )
        assert lint_source(src, self.PATH) == []

    def test_os_open_paired_with_os_close_clean(self):
        src = (
            "import os\n"
            "def probe(p):\n"
            "    fd = os.open(p, os.O_RDONLY)\n"
            "    try:\n"
            "        return os.fstat(fd).st_size\n"
            "    finally:\n"
            "        os.close(fd)\n"
        )
        assert lint_source(src, self.PATH) == []

    def test_reader_handle_pattern_clean(self):
        src = (
            "import mmap\n"
            "class Reader:\n"
            "    def __init__(self, path):\n"
            "        self._file = open(path, 'rb')\n"
            "        self._mm = mmap.mmap(self._file.fileno(), 0)\n"
            "    def _close(self):\n"
            "        self._mm.close()\n"
            "        self._file.close()\n"
        )
        assert lint_source(src, self.PATH) == []

    def test_out_of_scope_not_flagged(self):
        src = "def read(p):\n    fh = open(p, 'rb')\n    return fh.read()\n"
        assert lint_source(src, "src/repro/eval/x.py") == []


# ---------------------------------------------------------------------------
# durable publish (AV502)
# ---------------------------------------------------------------------------


class TestDurableReplace:
    PATH = "src/repro/index/x.py"

    def test_bare_replace_flagged(self):
        src = (
            "import os\n"
            "def publish(tmp, final):\n"
            "    os.replace(tmp, final)\n"
        )
        assert rules_of(lint_source(src, self.PATH)) == ["AV502"]

    def test_replace_after_write_without_fsync_flagged(self):
        src = (
            "import os\n"
            "def publish(tmp, final, data):\n"
            "    with open(tmp, 'wb') as fh:\n"
            "        fh.write(data)\n"
            "    os.replace(tmp, final)\n"
        )
        assert rules_of(lint_source(src, self.PATH)) == ["AV502"]

    def test_fsync_after_replace_still_flagged(self):
        # A directory fsync *after* the rename does not make the renamed
        # contents durable; the data fsync must come first.
        src = (
            "import os\n"
            "def publish(tmp, final, dir_fd):\n"
            "    os.replace(tmp, final)\n"
            "    os.fsync(dir_fd)\n"
        )
        assert rules_of(lint_source(src, self.PATH)) == ["AV502"]

    def test_os_fsync_before_replace_clean(self):
        src = (
            "import os\n"
            "def publish(tmp, final, data):\n"
            "    with open(tmp, 'wb') as fh:\n"
            "        fh.write(data)\n"
            "        fh.flush()\n"
            "        os.fsync(fh.fileno())\n"
            "    os.replace(tmp, final)\n"
        )
        assert lint_source(src, self.PATH) == []

    def test_fsync_file_helper_before_replace_clean(self):
        src = (
            "import os\n"
            "from repro.durability import fsync_file\n"
            "def publish(tmp, final, data):\n"
            "    with open(tmp, 'wb') as fh:\n"
            "        fh.write(data)\n"
            "        fsync_file(fh)\n"
            "    os.replace(tmp, final)\n"
        )
        assert lint_source(src, self.PATH) == []

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/watch/x.py",
            "src/repro/dist/x.py",
        ],
    )
    def test_watch_and_dist_in_scope(self, path):
        src = "import os\ndef p(a, b):\n    os.replace(a, b)\n"
        assert rules_of(lint_source(src, path)) == ["AV502"]

    def test_durability_module_out_of_scope(self):
        # repro/durability.py owns the raw fsync+replace sequence.
        src = "import os\ndef p(a, b):\n    os.replace(a, b)\n"
        assert lint_source(src, "src/repro/durability.py") == []


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_with_location(self, tmp_path, capsys):
        mod = tmp_path / "m.py"
        mod.write_text("import os\nx = os.listdir('.')\n")
        assert main([str(mod)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert f"{mod}:2:" in out and "AV101" in out

    def test_json_format(self, tmp_path, capsys):
        mod = tmp_path / "m.py"
        mod.write_text("import os\nx = os.listdir('.')\n")
        assert main([str(mod), "--format", "json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False and payload["findings"][0]["rule"] == "AV101"

    def test_rules_filter(self, tmp_path, capsys):
        mod = tmp_path / "m.py"
        mod.write_text("import os\nx = os.listdir('.')\n")
        assert main([str(mod), "--rules", "AV201"]) == EXIT_CLEAN
        capsys.readouterr()

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path), "--rules", "AV999"]) == EXIT_USAGE
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["no/such/dir-xyz"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in ("AV101", "AV201", "AV301", "AV401", "AV501"):
            assert rule_id in out

    def test_auto_validate_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        mod = tmp_path / "m.py"
        mod.write_text("import os\nx = os.listdir('.')\n")
        assert cli_main(["lint", str(mod), "--format", "json"]) == EXIT_FINDINGS
        assert json.loads(capsys.readouterr().out)["findings"]

    def test_python_dash_m_entry_point(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text("import os\nx = os.listdir('.')\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(mod)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == EXIT_FINDINGS
        assert "AV101" in proc.stdout


# ---------------------------------------------------------------------------
# the tree itself is lint-clean (regression guard for the fixes this
# checker motivated: sorted shard/result globs, locked cache accessors)
# ---------------------------------------------------------------------------


class TestStrictTyping:
    def test_py_typed_marker_ships(self):
        assert (REPO_ROOT / "src" / "repro" / "py.typed").is_file()

    def test_mypy_strict_on_opted_in_packages(self):
        # mypy is an optional dependency (``pip install .[lint]``); the CI
        # static-analysis job always runs this.
        pytest.importorskip("mypy")
        from mypy import api as mypy_api

        stdout, stderr, status = mypy_api.run(
            ["--config-file", str(REPO_ROOT / "pyproject.toml"), "--no-error-summary"]
        )
        assert status == 0, f"mypy strict check failed:\n{stdout}\n{stderr}"


class TestShippedTreeClean:
    def test_src_scripts_benchmarks_violation_free(self):
        report = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "scripts", REPO_ROOT / "benchmarks"]
        )
        assert report.ok, "\n" + report.format_human()
        assert report.files_scanned > 50

    def test_determinism_regressions_stay_fixed(self):
        # The unsorted directory sweeps this PR fixed must stay sorted.
        for relative in (
            "src/repro/index/index.py",
            "src/repro/index/store.py",
            "src/repro/index/builder.py",
            "benchmarks/conftest.py",
        ):
            report = lint_paths([REPO_ROOT / relative], rules=["AV101", "AV102"])
            assert report.ok, "\n" + report.format_human()

    def test_service_lock_annotations_enforced(self):
        # The guarded-by annotations are present and verified: the rule
        # sees annotated attributes in these modules (non-trivial input)
        # and every access passes.
        from repro.analysis.core import ModuleContext
        import ast as ast_mod

        rule = get_rule("AV301")
        annotated_classes = 0
        for relative in (
            "src/repro/service/cache.py",
            "src/repro/service/service.py",
        ):
            path = REPO_ROOT / relative
            module = ModuleContext.parse(path.read_text(encoding="utf-8"), str(path))
            for node in ast_mod.walk(module.tree):
                if isinstance(node, ast_mod.ClassDef):
                    if rule._guarded_attributes(module, node):
                        annotated_classes += 1
            assert list(rule.check(module)) == []
        assert annotated_classes >= 2
