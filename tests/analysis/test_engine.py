"""Engine behavior: suppressions, config, file walking, determinism."""

import ast
import json
import textwrap

import pytest

from repro.analysis.config import LintConfig, load_config
from repro.analysis.diagnostics import render_json, render_text
from repro.analysis.engine import lint_paths, lint_source
from repro.analysis.cli import main as lint_main

FLAGGED = "def f(items=[]):\n    return items\n"


class TestSuppressions:
    def test_inline_disable(self):
        source = "def f(items=[]):  # omega-lint: disable=GEN001\n    return items\n"
        assert lint_source(source) == []

    def test_inline_disable_with_justification(self):
        source = (
            "def f(items=[]):  "
            "# omega-lint: disable=GEN001 -- read-only sentinel\n"
            "    return items\n"
        )
        assert lint_source(source) == []

    def test_disable_next_line(self):
        source = (
            "# omega-lint: disable-next-line=GEN001\n"
            "def f(items=[]):\n"
            "    return items\n"
        )
        assert lint_source(source) == []

    def test_disable_wrong_rule_keeps_finding(self):
        source = "def f(items=[]):  # omega-lint: disable=FLT001\n    return items\n"
        assert [d.rule for d in lint_source(source)] == ["GEN001"]

    def test_multiple_rules_in_one_comment(self):
        source = (
            "import random  # omega-lint: disable=DET001,GEN001\n"
        )
        assert lint_source(source, path="repro/core/x.py") == []

    def test_unknown_rule_id_is_a_finding(self):
        source = "x = 1  # omega-lint: disable=NOPE999\n"
        findings = lint_source(source)
        assert [d.rule for d in findings] == ["LNT000"]
        assert "NOPE999" in findings[0].message

    def test_suppression_only_covers_its_line(self):
        source = (
            "def f(items=[]):  # omega-lint: disable=GEN001\n"
            "    return items\n"
            "def g(table={}):\n"
            "    return table\n"
        )
        findings = lint_source(source)
        assert [d.rule for d in findings] == ["GEN001"]
        assert findings[0].line == 3


class TestConfig:
    def test_disable_rule_globally(self):
        config = LintConfig(disable=("GEN001",))
        assert lint_source(FLAGGED, config=config) == []

    def test_load_config_reads_tool_section(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            '[tool.omega-lint]\ndisable = ["GEN001"]\nexclude = ["gen/*"]\n'
        )
        config = load_config(pyproject)
        assert config.disable == ("GEN001",)
        assert config.exclude == ("gen/*",)
        # untouched keys keep their defaults
        assert config.rng_allow == ("repro/sim/random.py",)

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[tool.omega-lint]\ndissable = ["GEN001"]\n')
        with pytest.raises(ValueError, match="dissable"):
            load_config(pyproject)

    def test_missing_pyproject_yields_defaults(self, tmp_path):
        assert load_config(tmp_path / "nowhere") == LintConfig()

    def test_repo_pyproject_parses(self):
        # The shipped [tool.omega-lint] section must always load.
        import repro

        repo_root = [
            parent
            for parent in __import__("pathlib").Path(repro.__file__).parents
            if (parent / "pyproject.toml").is_file()
        ]
        if not repo_root:
            pytest.skip("not running from a source checkout")
        load_config(repo_root[0] / "pyproject.toml")

    def test_fallback_parser_matches_tomllib(self):
        # Python 3.10 has no tomllib; its parser must read the shipped
        # section, multi-line lists included, exactly as tomllib does.
        from pathlib import Path

        from repro.analysis import config

        if config.tomllib is None:
            pytest.skip("tomllib needs Python >= 3.11")
        text = (Path(__file__).parents[2] / "pyproject.toml").read_text()
        expected = config.tomllib.loads(text)["tool"]["omega-lint"]
        assert config._parse_toml_fallback(text) == expected


class TestLintPaths:
    def test_walks_directories_and_sorts(self, tmp_path):
        (tmp_path / "b.py").write_text(FLAGGED)
        (tmp_path / "a.py").write_text(FLAGGED)
        findings = lint_paths([tmp_path])
        assert [d.path for d in findings] == [
            (tmp_path / "a.py").as_posix(),
            (tmp_path / "b.py").as_posix(),
        ]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "missing"])

    def test_exclude_glob(self, tmp_path):
        (tmp_path / "skip_me.py").write_text(FLAGGED)
        config = LintConfig(exclude=("*skip_me.py",))
        assert lint_paths([tmp_path], config=config) == []

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings = lint_paths([tmp_path])
        assert [d.rule for d in findings] == ["LNT001"]

    @pytest.mark.parametrize(
        "content", [b"x = 1\x00\n", b'x = "\xff\xfe"\n'], ids=["nul", "not-utf8"]
    )
    def test_unreadable_file_is_one_finding(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.py"
        bad.write_bytes(content)
        findings = lint_paths([tmp_path])
        assert [(d.path, d.line, d.col, d.rule) for d in findings] == [
            (bad.as_posix(), 1, 1, "LNT001")
        ]
        assert lint_main([str(bad)]) == 1
        assert f"{bad.as_posix()}:1:1: LNT001" in capsys.readouterr().out

    def test_parser_value_error_is_one_finding(self, monkeypatch):
        # Python 3.10 rejects a NUL byte with ValueError, not SyntaxError.
        parse = ast.parse

        def parse_as_310(source, *args, **kwargs):
            if isinstance(source, str) and "\x00" in source:
                raise ValueError("source code string cannot contain null bytes")
            return parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", parse_as_310)
        findings = lint_source("x = 1\x00\n", "bad.py")
        assert [(d.path, d.line, d.col, d.rule) for d in findings] == [
            ("bad.py", 1, 1, "LNT001")
        ]
        assert "null bytes" in findings[0].message

    def test_deterministic_output(self, tmp_path):
        for name in ("m1.py", "m2.py", "m3.py"):
            (tmp_path / name).write_text(FLAGGED + "import random\n")
        assert lint_paths([tmp_path]) == lint_paths([tmp_path])


class TestRendering:
    def test_text_format_is_clickable(self):
        findings = lint_source(FLAGGED, path="pkg/mod.py")
        text = render_text(findings)
        assert "pkg/mod.py:1:" in text
        assert "GEN001" in text
        assert "1 finding" in text

    def test_json_format_round_trips(self):
        findings = lint_source(FLAGGED, path="pkg/mod.py")
        payload = json.loads(render_json(findings))
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "GEN001"
        assert payload["findings"][0]["path"] == "pkg/mod.py"

    def test_clean_report(self):
        assert "0 findings" in render_text([])
        assert json.loads(render_json([]))["count"] == 0


class TestSourceTreeIsClean:
    def test_src_passes_omega_lint(self):
        """The acceptance gate: the shipped tree has no findings."""
        import pathlib

        import repro

        src = pathlib.Path(repro.__file__).parent
        repo_root = next(
            (p for p in src.parents if (p / "pyproject.toml").is_file()), None
        )
        config = (
            load_config(repo_root / "pyproject.toml")
            if repo_root is not None
            else LintConfig()
        )
        findings = lint_paths([src], config=config)
        assert findings == [], "\n" + textwrap.indent(
            render_text(findings), "  "
        )
