"""CLI behavior: ``omega-sim lint`` and ``python -m repro.analysis``.

Exit-code contract (matches the ``trace`` subcommand): 0 clean, 1
findings, 2 user error with a one-line message on stderr.
"""

import json

import pytest

from repro.analysis import config as lint_config
from repro.analysis.cli import main as lint_main
from repro.experiments.cli import main as omega_sim_main

CLEAN = "def f(items=None):\n    return items\n"
DIRTY = "def f(items=[]):\n    return items\n"


@pytest.fixture()
def tree(tmp_path):
    (tmp_path / "clean.py").write_text(CLEAN)
    (tmp_path / "dirty.py").write_text(DIRTY)
    return tmp_path


class TestStandaloneCli:
    def test_clean_exit_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text(CLEAN)
        assert lint_main([str(target)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tree, capsys):
        assert lint_main([str(tree)]) == 1
        out = capsys.readouterr().out
        assert "GEN001" in out
        assert "dirty.py" in out

    def test_missing_path_exit_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "missing")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # a one-line message
        assert "no such path" in err

    def test_bad_format_exit_two(self, tree):
        with pytest.raises(SystemExit) as excinfo:
            lint_main([str(tree), "--format", "yaml"])
        assert excinfo.value.code == 2

    def test_json_format(self, tree, capsys):
        assert lint_main([str(tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "GEN001"

    def test_bad_config_exit_two(self, tree, tmp_path, capsys):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[tool.omega-lint]\nbogus-key = ["x"]\n')
        assert lint_main([str(tree), "--config", str(pyproject)]) == 2
        assert "bad config" in capsys.readouterr().err

    @pytest.mark.parametrize("parser", ["tomllib", "fallback"])
    @pytest.mark.parametrize("value", ["[1, 2]", "5", "[\n  1,\n]", "true"])
    def test_non_string_config_value_exit_two(
        self, tree, tmp_path, capsys, monkeypatch, value, parser
    ):
        if parser == "fallback":
            monkeypatch.setattr(lint_config, "tomllib", None)
        elif lint_config.tomllib is None:
            pytest.skip("tomllib needs Python >= 3.11")
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(f"[tool.omega-lint]\nrng-allow = {value}\n")
        assert lint_main([str(tree), "--config", str(pyproject)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # a one-line message, not a traceback
        assert "bad config" in err and "rng-allow" in err


class TestOmegaSimSubcommand:
    def test_lint_subcommand_clean(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text(CLEAN)
        assert omega_sim_main(["lint", str(target)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_lint_subcommand_findings(self, tree, capsys):
        assert omega_sim_main(["lint", str(tree)]) == 1
        assert "GEN001" in capsys.readouterr().out

    def test_lint_subcommand_missing_path(self, tmp_path, capsys):
        assert omega_sim_main(["lint", str(tmp_path / "gone")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_lint_listed_in_help(self):
        with pytest.raises(SystemExit):
            omega_sim_main(["--help"])

    def test_suppressed_finding_reaches_exit_zero(self, tmp_path):
        target = tmp_path / "ok.py"
        target.write_text(
            "def f(items=[]):  # omega-lint: disable=GEN001 -- sentinel\n"
            "    return items\n"
        )
        assert omega_sim_main(["lint", str(target)]) == 0
