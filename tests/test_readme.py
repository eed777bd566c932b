"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from mzfidelity import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(section: str, language: str) -> str:
    """The first ``language`` code block under the ``## section`` heading."""
    match = re.search(rf"^## {section}\n.*?^```{language}\n(.*?)^```", README,
                      re.MULTILINE | re.DOTALL)
    assert match, f"no {language} block under ## {section}"
    return match.group(1)


def test_library_example_runs(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("line", [line for line in _block("CLI", "sh").splitlines()
                                  if line.startswith("mzfidelity ")])
def test_cli_example_runs(line, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
