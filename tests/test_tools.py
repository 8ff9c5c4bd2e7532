"""Tests of the scripts under ``tools/``."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC_LINES = ROOT / "tools" / "src_lines.py"
BENCH_PAIR = ROOT / "tools" / "bench_pair.py"
PYTHONS = ROOT / "tools" / "pythons.py"


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


def _bench_pair():
    # tools/bench_pair.py as a module; importing it runs no benchmark
    spec = importlib.util.spec_from_file_location("bench_pair", BENCH_PAIR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pair_summary_verdicts_on_synthetic_pairs():
    summary = _bench_pair().summary
    parent = [100, 104, 101, 108, 102, 106, 103, 109, 105, 107]  # q1 102.25, q3 106.75

    def verdict(change, higher=True, bound=0.22, runs=parent):
        return summary(runs, change, higher, bound)["verdict"]

    # inside the bound and no consistent loss
    assert verdict(parent) == verdict([v + 1 for v in parent]) == "ok"
    # 10 of 10 pairs lost, median 6 below the parent's, spread 4.5: SLOWER
    assert verdict([v - 6 for v in parent]) == "SLOWER"
    row = summary(parent, [v - 6 for v in parent], True, 0.22)
    assert row["won"] == 0 and row["parent"] == {"median": 104.5, "q1": 102.25, "q3": 106.75}
    assert row["change"]["median"] == 98.5
    # 9 of 10 lost is enough, 8 of 10 is not
    assert verdict([v - 6 for v in parent[:9]] + [parent[9] + 1]) == "SLOWER"
    assert verdict([v - 6 for v in parent[:8]] + [v + 1 for v in parent[8:]]) == "ok"
    # every pair lost, by less than the parent's quartile spread: ok
    assert verdict([v - 4 for v in parent]) == "ok"
    # the direction of the metric: a latency that rises loses
    assert verdict([v + 6 for v in parent], higher=False) == "SLOWER"
    assert verdict([v - 6 for v in parent], higher=False) == "ok"
    # worse than the bound comes first, whatever the pairs say
    assert verdict([0.7 * v for v in parent]) == "WORSE"
    assert verdict([1.3 * v for v in parent], higher=False) == "WORSE"
    # a parent spread wider than the bound cannot tell, unless the change
    # beats every run of the parent
    wide = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]
    assert verdict(wide, runs=wide) == verdict([v + 5 for v in wide], runs=wide) == "unresolved"
    assert verdict([v + 100 for v in wide], runs=wide) == "ok"
    # no bound, no verdict
    assert verdict([v - 50 for v in parent], bound=None) == "-"


def test_bench_pair_revision_marks_a_dirty_checkout(tmp_path):
    # a checkout with uncommitted changes is its HEAD plus "+dirty", so the
    # two sides of a report cannot read the same revision while running
    # different code; a directory that is no checkout has none
    revision = _bench_pair()._revision
    assert revision(tmp_path) is None

    def git(*args):
        config = ["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
        subprocess.run(["git", *config, *args], cwd=tmp_path, check=True, capture_output=True, timeout=60)

    git("init", "-q")
    (tmp_path / "module.py").write_text("x = 1\n")
    git("add", "module.py")
    git("commit", "-q", "-m", "one")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60).stdout.strip()
    assert len(head) == 40 and revision(tmp_path) == head
    (tmp_path / "module.py").write_text("x = 2\n")  # a modified file
    assert revision(tmp_path) == head + "+dirty"
    git("commit", "-q", "-am", "two")
    assert revision(tmp_path) not in (head, None) and not revision(tmp_path).endswith("+dirty")
    (tmp_path / "new.py").write_text("")  # an untracked file
    assert revision(tmp_path).endswith("+dirty")


def _pythons():
    # tools/pythons.py as a module; importing it runs no check
    spec = importlib.util.spec_from_file_location("pythons", PYTHONS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pythons_refuses_a_path_that_is_no_interpreter(tmp_path):
    # refused before any check runs: one line on stderr, exit status 2
    script = tmp_path / "python"
    script.write_text("#!/bin/sh\necho hello\n")
    script.chmod(0o755)
    for bad in (tmp_path / "missing", script, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(PYTHONS), sys.executable, str(bad)], capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.count("\n") == 1 and str(bad) in proc.stderr


def test_pythons_replays_the_cli_goldens_in_an_interpreter():
    # the replay, run here on this interpreter: the input files are those of
    # test_cli, and every case passes or is skipped as test_golden_output does
    from test_cli import GOLDEN, GOLDEN_FILES

    pythons = _pythons()
    assert pythons.golden_files() == GOLDEN_FILES
    ok, summary = pythons.replay(sys.executable)
    skipped = sum("usage:" in out + err for _, _, out, err in GOLDEN["cases"])
    if "%d.%d" % sys.version_info[:2] == GOLDEN["python"]:
        skipped = 0
    assert ok and summary == "%d passed, %d skipped, 0 failed" % (len(GOLDEN["cases"]) - skipped, skipped)


def test_pythons_replays_the_readme_sessions_in_an_interpreter():
    # every session that test_readme replays passes
    from test_readme import COMMANDS

    pythons = _pythons()
    assert pythons.readme_replay(sys.executable) == (True, "%d passed, 0 skipped, 0 failed" % len(COMMANDS))


def test_pythons_readme_replay_names_a_session_whose_output_differs(tmp_path, monkeypatch):
    # a README whose second session shows the wrong output, read by the
    # replay from a checkout whose src is this one's
    (tmp_path / "src").symlink_to(ROOT / "src")
    (tmp_path / "README.md").write_text(
        "```text\n$ smallrank reduce 1 0 1\nreduced: (1, 0, 1)\nmatrix:  ((1, 0), (0, 1))\n\n"
        "$ smallrank reduce 15 27 13\nreduced: (1, 1, 13)\n```\n",
        encoding="utf-8",
    )
    pythons = _pythons()
    monkeypatch.setattr(pythons, "ROOT", tmp_path)
    assert pythons.readme_replay(sys.executable) == (False, "1 passed, 0 skipped, 1 failed [smallrank reduce 15 27 13]")


def test_pythons_runs_both_replays_where_pytest_does_not_import(tmp_path):
    # a pytest on PYTHONPATH that fails to import makes this interpreter one
    # without pytest: its line gives the golden replay and the README replay
    from test_readme import COMMANDS

    (tmp_path / "pytest.py").write_text("raise ImportError('no pytest here')\n")
    proc = subprocess.run(
        [sys.executable, str(PYTHONS), "--pythonpath", str(tmp_path), sys.executable],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("\n") == 1 and " golden replay: " in proc.stdout
    assert proc.stdout.endswith("; README replay: %d passed, 0 skipped, 0 failed\n" % len(COMMANDS))
