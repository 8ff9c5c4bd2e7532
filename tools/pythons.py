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
does.  It prints one line per interpreter: its version, its path, which
check ran and its counts.  The exit status is 1 when a check of some
interpreter failed and 0 otherwise.  Stdlib only.
"""

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]

# run in the interpreter under test, with the golden file as argv[1]: the
# counts of the replay as one JSON line
REPLAY = """\
import contextlib, io, json, shlex, sys
from smallrank.cli import main
golden = json.load(open(sys.argv[1], encoding="utf-8"))
counts = {"passed": 0, "skipped": 0, "failed": []}
for command, code, out, err in golden["cases"]:
    if "usage:" in out + err and "%d.%d" % sys.version_info[:2] != golden["python"]:
        counts["skipped"] += 1
        continue
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        got = main(shlex.split(command))
    if (got, stdout.getvalue(), stderr.getvalue()) == (code, out, err):
        counts["passed"] += 1
    else:
        counts["failed"].append(command)
print(json.dumps(counts))
"""


def golden_files():
    """The ``GOLDEN_FILES`` dict of ``tests/test_cli.py``, read from its syntax tree."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["GOLDEN_FILES"]:
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_cli.py assigns no GOLDEN_FILES")


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


def replay(python, pythonpath=None):
    """(ok, summary) of the golden replay through ``cli.main`` under ``python``."""
    with tempfile.TemporaryDirectory() as cwd:
        for name, text in golden_files().items():
            Path(cwd, name).write_text(text, encoding="utf-8")
        proc = subprocess.run([python, "-c", REPLAY, str(ROOT / "tests" / "cli_golden.json")],
                              cwd=cwd, env=_env(pythonpath), capture_output=True, text=True)
    try:
        counts = json.loads(proc.stdout.splitlines()[-1])
    except (ValueError, IndexError):
        return False, "no result: %s" % (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
    failed = counts["failed"]
    summary = "%d passed, %d skipped, %d failed" % (counts["passed"], counts["skipped"], len(failed))
    return not failed, summary + "".join(" [%s]" % command for command in failed)


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
        name, check = ("tier-1", tier1) if probe.returncode == 0 else ("golden replay", replay)
        ok, summary = check(python, pythonpath)
        print("%s %s %s: %s" % (v, python, name, summary), flush=True)
        status = status or (0 if ok else 1)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
