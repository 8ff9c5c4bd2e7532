"""Every `$ smallrank ...` example in README.md, replayed byte for byte."""

import re
import shlex
from pathlib import Path

import pytest

from smallrank.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _sessions():
    # (command, expected output) for each `$ ` line of the ```text blocks
    out = []
    for block in re.findall(r"```text\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            out.append((command, output.rstrip("\n") + "\n"))
    return out


SESSIONS = _sessions()
# the `$ cat FILE` blocks give the input files of the later examples
FILES = {command.split()[1]: text for command, text in SESSIONS if command.startswith("cat ")}
COMMANDS = [(command, text) for command, text in SESSIONS if command.startswith("smallrank ")]


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
