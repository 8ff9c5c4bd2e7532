"""Run the checks of this checkout under other Python interpreters.

    python tools/pythons.py [--pythonpath PATH] PYTHON [PYTHON ...]

Each PYTHON is the path of an interpreter.  Every one is first asked for
its version; a path that does not run as a Python interpreter is refused
before any check, with one line on stderr and exit status 2.  Then, for
each interpreter in turn: if ``pytest`` and ``hypothesis`` import in it,
with ``src`` and PATH (when given, for example another interpreter's
pure-Python ``site-packages``) on its ``PYTHONPATH``, it runs tier-1,

    python -m pytest -q --continue-on-collection-errors -p no:cacheprovider

in the root of the checkout, and reports pytest's summary counts.
Otherwise it replays ``tests/cli_golden.json`` through ``cli.main`` in
that interpreter, in a temporary directory holding the input files that
``GOLDEN_FILES`` of ``tests/test_cli.py`` names (read from that file's
syntax tree, not imported), with ``COLUMNS=80``, and skips the cases
whose bytes are argparse's wording when the interpreter's minor version
is not the one the goldens were printed by, as ``test_golden_output``
does.  Then it replays every ``$ smallrank ...`` session of README.md the
same way, parsed and given the input files of its ``$ cat FILE`` blocks
as ``tests/test_readme.py`` does: exit status 0, the shown output on
stdout and nothing on stderr.  It prints one line per interpreter: its
version, its path, which checks ran and their counts.  The exit status
is 1 when a check of some interpreter failed and 0 otherwise.  Stdlib
only.
"""

import ast
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]

# run in the interpreter under test, with a JSON list of cases as argv[1],
# each [label, argv, exit status, stdout, stderr, python]: a case whose
# bytes hold argparse's "usage:" is skipped when python is not None and not
# the interpreter's minor version; the counts of the replay as one JSON line
REPLAY = """\
import contextlib, io, json, sys
from smallrank.cli import main
counts = {"passed": 0, "skipped": 0, "failed": []}
for label, argv, code, out, err, python in json.load(open(sys.argv[1], encoding="utf-8")):
    if python and "usage:" in out + err and "%d.%d" % sys.version_info[:2] != python:
        counts["skipped"] += 1
        continue
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        got = main(argv)
    if (got, stdout.getvalue(), stderr.getvalue()) == (code, out, err):
        counts["passed"] += 1
    else:
        counts["failed"].append(label)
print(json.dumps(counts))
"""


def golden_files():
    """The ``GOLDEN_FILES`` dict of ``tests/test_cli.py``, read from its syntax tree."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["GOLDEN_FILES"]:
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_cli.py assigns no GOLDEN_FILES")


def readme_sessions():
    """The ``(command, output)`` of each session of README.md.

    Each ``$ `` line of a ```` ```text ```` block and the lines up to the
    next one are a session.  ``tests/test_readme.py`` reads README.md
    through this function too.
    """
    sessions = []
    for block in re.findall(r"```text\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            sessions.append((command, output.rstrip("\n") + "\n"))
    return sessions


def readme_inputs(sessions):
    """(files, commands) of ``sessions``: ``files`` maps the FILE of each
    ``$ cat FILE`` session to its output, the input file of the later ones,
    and ``commands`` lists each ``$ smallrank ...`` session."""
    files = {command.split()[1]: text for command, text in sessions if command.startswith("cat ")}
    return files, [(command, text) for command, text in sessions if command.startswith("smallrank ")]


def _env(pythonpath):
    # the environment of a child: src, then pythonpath, on its PYTHONPATH
    paths = [str(ROOT / "src")] + ([pythonpath] if pythonpath else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths), COLUMNS="80")


def version(python):
    """The version of the interpreter at ``python``, or None if it does not run as one."""
    try:
        proc = subprocess.run([python, "-c", "import sys; print('%d.%d.%d' % sys.version_info[:3])"],
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = proc.stdout.strip()
    return out if proc.returncode == 0 and re.fullmatch(r"\d+\.\d+\.\d+", out) else None


def tier1(python, pythonpath=None):
    """(ok, summary) of tier-1 under ``python``; its summary counts, timing dropped."""
    proc = subprocess.run([python] + TIER1, cwd=ROOT, env=_env(pythonpath), capture_output=True, text=True)
    last = (proc.stdout.strip().splitlines() or ["no output"])[-1]
    return proc.returncode == 0, re.sub(r" in [\d.]+s.*$", "", last.strip("= "))


def _replay(python, pythonpath, files, cases):
    # (ok, summary) of REPLAY on cases under python, run in a temporary
    # directory that holds files and nothing else
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp, "cwd")
        cwd.mkdir()
        for name, text in files.items():
            (cwd / name).write_text(text, encoding="utf-8")
        Path(tmp, "cases.json").write_text(json.dumps(cases), encoding="utf-8")
        proc = subprocess.run([python, "-c", REPLAY, str(Path(tmp, "cases.json"))],
                              cwd=cwd, env=_env(pythonpath), capture_output=True, text=True)
    try:
        counts = json.loads(proc.stdout.splitlines()[-1])
    except (ValueError, IndexError):
        return False, "no result: %s" % (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
    failed = counts["failed"]
    summary = "%d passed, %d skipped, %d failed" % (counts["passed"], counts["skipped"], len(failed))
    return not failed, summary + "".join(" [%s]" % label for label in failed)


def replay(python, pythonpath=None):
    """(ok, summary) of the golden replay through ``cli.main`` under ``python``."""
    golden = json.loads((ROOT / "tests" / "cli_golden.json").read_text(encoding="utf-8"))
    cases = [[command, shlex.split(command), code, out, err, golden["python"]]
             for command, code, out, err in golden["cases"]]
    return _replay(python, pythonpath, golden_files(), cases)


def readme_replay(python, pythonpath=None):
    """(ok, summary) of the README sessions replayed through ``cli.main`` under ``python``."""
    files, commands = readme_inputs(readme_sessions())
    cases = [[command, shlex.split(command)[1:], 0, out, "", None] for command, out in commands]
    return _replay(python, pythonpath, files, cases)


def main(argv):
    pythonpath = None
    if argv[:1] == ["--pythonpath"] and len(argv) > 1:
        pythonpath, argv = argv[1], argv[2:]
    if not argv:
        print("usage: python tools/pythons.py [--pythonpath PATH] PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    versions = [version(python) for python in argv]
    bad = [python for python, v in zip(argv, versions) if v is None]
    if bad:
        print("not a Python interpreter: %s" % ", ".join(bad), file=sys.stderr)
        return 2
    status = 0
    for python, v in zip(argv, versions):
        probe = subprocess.run([python, "-c", "import pytest, hypothesis"], env=_env(pythonpath),
                               capture_output=True)
        if probe.returncode == 0:
            checks = [("tier-1", tier1)]
        else:
            checks = [("golden replay", replay), ("README replay", readme_replay)]
        results = [(name,) + check(python, pythonpath) for name, check in checks]
        line = "; ".join("%s: %s" % (name, summary) for name, _, summary in results)
        print("%s %s %s" % (v, python, line), flush=True)
        status = status or (0 if all(ok for _, ok, _ in results) else 1)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
