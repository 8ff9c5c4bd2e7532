"""Tests of the scripts under ``tools/``."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC_LINES = ROOT / "tools" / "src_lines.py"
BENCH_PAIR = ROOT / "tools" / "bench_pair.py"


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


def test_src_lines_exits_141_with_nothing_on_stderr_when_its_stdout_pipe_is_closed():
    # the reader is gone before the first write, as "src_lines.py | head -1"
    # can leave it; 141 = 128 + SIGPIPE, as the CLI exits
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, str(SRC_LINES)], stdout=write, stderr=subprocess.PIPE,
                              timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_bench_pair_refuses_an_unknown_workload_before_any_run(tmp_path):
    # the refusal comes before the checkouts are byte-compiled, so the
    # checkout given holds BENCHMARK.json alone and nothing else is run
    text = (ROOT / "BENCHMARK.json").read_text()
    (tmp_path / "BENCHMARK.json").write_text(text)
    names = [w["name"] for w in json.loads(text)["workloads"]]
    proc = subprocess.run(
        [sys.executable, str(BENCH_PAIR), str(tmp_path), str(tmp_path), names[0], "nope"],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("\n") == 1 and "nope" in proc.stderr
    assert all(name in proc.stderr for name in names)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json"]
