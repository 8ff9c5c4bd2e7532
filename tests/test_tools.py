"""Tests of the scripts under ``tools/``."""

import subprocess
import sys
from pathlib import Path

SRC_LINES = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"


def test_src_lines_refuses_a_directory_that_is_no_package(tmp_path):
    # a wrong path, such as src for src/smallrank, would read as a package
    # of no modules, "total 0 0"
    (tmp_path / "module.py").write_text("x = 1\n")
    for path in (tmp_path, tmp_path / "missing", SRC_LINES.parents[1] / "src"):
        proc = subprocess.run(
            [sys.executable, str(SRC_LINES), str(path)], capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.count("\n") == 1 and "no __init__.py" in proc.stderr


def test_src_lines_counts_a_package_directory(tmp_path):
    (tmp_path / "__init__.py").write_text('"""Doc."""\n\n# comment\nx = 1\n')
    proc = subprocess.run(
        [sys.executable, str(SRC_LINES), str(tmp_path)], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "__init__.py               4      1" in proc.stdout.splitlines()
