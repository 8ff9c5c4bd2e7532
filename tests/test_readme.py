"""Every `$ smallrank ...` example in README.md, replayed byte for byte."""

import importlib.util
import shlex
from pathlib import Path

import pytest

from smallrank.cli import main

# tools/pythons.py parses README.md for its stdlib-only replay; one parser
# serves both
_spec = importlib.util.spec_from_file_location(
    "pythons", Path(__file__).resolve().parent.parent / "tools" / "pythons.py")
_pythons = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_pythons)

SESSIONS = _pythons.readme_sessions()
# the `$ cat FILE` blocks give the input files of the later examples
FILES, COMMANDS = _pythons.readme_inputs(SESSIONS)


def test_readme_sessions_are_all_replayed():
    assert len(FILES) + len(COMMANDS) == len(SESSIONS)
    assert "pair.json" in FILES and len(COMMANDS) >= 9


@pytest.mark.parametrize("command,expected", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_readme_example(command, expected, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main(shlex.split(command)[1:]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""
