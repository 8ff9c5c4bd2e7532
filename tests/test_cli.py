"""Command-line interface: output formats, round trips, exit codes."""

import ast
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from callcounts import call_counts
from hypothesis import given, settings, strategies as st

import smallrank
from smallrank import cli, cubes, quadforms
from smallrank.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    with_flag = [argv[0], "--json"] + list(argv[1:])
    code, out, err = run(capsys, *with_flag)
    assert code == 0, err
    return json.loads(out)


def test_reduce_text(capsys):
    code, out, err = run(capsys, "reduce", "15", "27", "13")
    assert code == 0
    assert "reduced: (1, 1, 13)" in out


def test_classgroup_example(capsys):
    code, out, err = run(capsys, "classgroup", "--", "-100")
    assert code == 0
    assert "classes: 2" in out
    assert "S = (1, 0, 25)" in out
    assert "A = (2, 2, 13)" in out
    # the table shows A*A = S
    lines = [l.split() for l in out.splitlines() if l.startswith("A ")]
    table_row = [l for l in lines if l[0] == "A" and len(l) == 3]
    assert table_row and table_row[0][2] == "S"


def test_semigroup_example(capsys):
    code, out, err = run(capsys, "semigroup", "--", "-100")
    assert code == 0
    assert "classes: 3" in out
    assert "(not invertible)" in out
    # absorbing row: B B B
    rows = [l.split() for l in out.splitlines()]
    b_row = [r for r in rows if r and r[0] == "B" and len(r) == 4]
    assert b_row and b_row[0][1:] == ["B", "B", "B"]


def test_class_tables_make_no_s_call_per_cell(capsys):
    # counted, not timed: _s guards the forms and the structure, a fixed
    # number of calls per class, and the h^2 table cells are plain indices
    for command in ("classgroup", "semigroup"):
        for flags in ([], ["--json"]):
            code, counts = call_counts(main, [command, *flags, "--", "-9999"])
            assert code == 0
            out = capsys.readouterr().out
            # the text starts "discriminant: D", "classes: h"
            h = len(json.loads(out)["elements"]) if flags else int(out.split()[3])
            assert h >= 88
            assert 0 < counts["cli._s"] <= 7 * h < h * h


def test_resolvent_example(capsys, tmp_path):
    payload = {
        "A": ["0", "0", "0", "5", "0", "-5"],
        "B": ["0", "0", "0", "0", "1", "-1"],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "resolvent", str(path))
    assert code == 0
    assert "content: 5" in out
    assert "count:   6" in out
    data = run_json(capsys, "resolvent", str(path))
    assert data == {"content": "5", "count": "6", "form": ["0", "-25", "-5", "0"]}


def test_padic_count_example(capsys):
    code, out, err = run(capsys, "padic-count", "3", "4", "2", "2", "2")
    assert code == 0
    assert out.strip() == "3"
    data = run_json(capsys, "padic-count", "3", "4", "2", "2", "2")
    assert data == {"count": "3"}


def test_form_ideal_round_trip(capsys, tmp_path):
    data = run_json(capsys, "form-ideal", "2", "2", "13")
    assert data["ring"] == {"t": "0", "u": "25"}
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(data))
    back = run_json(capsys, "ideal-form", str(path))
    assert back == {"form": ["2", "2", "13"]}


def test_cube_triple_round_trip(capsys, tmp_path):
    cube = ["1", "2", "2", "-1", "2", "-1", "-1", "-2"]
    data = run_json(capsys, "cube-triple", "--", *cube)
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(data))
    back = run_json(capsys, "triple-cube", str(path))
    assert back == {"cube": cube}


def test_triple_cube_parses_its_ring_once(capsys, tmp_path):
    # counted, not timed: the three bases are read against one parsed ring
    cube = ["1", "2", "2", "-1", "2", "-1", "-1", "-2"]
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(run_json(capsys, "cube-triple", "--", *cube)))
    code, counts = call_counts(main, ["triple-cube", str(path)])
    assert code == 0 and capsys.readouterr().out == "cube: %s\n" % " ".join(cube)
    assert counts["cli._json_ring"] == 1 and counts["cli._json_basis"] == 3
    assert counts["quadrings.QuadraticRing.__init__"] == 1


def test_cubic_round_trip(capsys, tmp_path):
    data = run_json(capsys, "cubic-ring", "--", "1", "-3", "1", "2")
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(data))
    back = run_json(capsys, "cubic-form", str(path))
    assert back == {"form": ["1", "-3", "1", "2"]}


def test_cube_commands(capsys):
    cube = ("--", "1", "2", "2", "-1", "2", "-1", "-1", "-2")
    data = run_json(capsys, "cube-forms", *cube)
    assert data == {"forms": [["5", "0", "5"]] * 3}
    data = run_json(capsys, "cube-ring", *cube)
    assert data == {"t": "-8", "u": "41"}


def test_compose_command(capsys):
    code, out, err = run(capsys, "compose", "--", "-23", "2", "1", "3", "2", "-1", "3")
    assert code == 0
    assert "(1, 1, 6)" in out


def test_quartic_ring_and_maximal(capsys, tmp_path):
    payload = {
        "A": ["0", "0", "0", "1", "0", "-1"],
        "B": ["0", "0", "0", "0", "1", "-1"],
    }
    path = tmp_path / "pz4.json"
    path.write_text(json.dumps(payload))
    data = run_json(capsys, "quartic-ring", str(path))
    assert data["c"]["11,1"] == "1"
    assert data["c"]["12,3"] == "0"
    assert len(data["c"]) == 24
    data = run_json(capsys, "maximal", str(path), "2", "3", "5")
    assert [r["maximal"] for r in data["results"]] == [True, True, True]
    assert all(r["witness"] is None for r in data["results"])

    scaled = {
        "A": ["0", "0", "0", "5", "0", "-5"],
        "B": ["0", "0", "0", "0", "1", "-1"],
    }
    path2 = tmp_path / "scaled.json"
    path2.write_text(json.dumps(scaled))
    data = run_json(capsys, "maximal", str(path2), "5")
    row = data["results"][0]
    assert row["maximal"] is False and row["tag"] == "d"
    assert row["witness"] is not None


def test_stella_command(capsys):
    code, out, err = run(capsys, "stella", "1", "1", "1", "1")
    assert code == 0
    assert "tetrahedron 1" in out
    data = run_json(capsys, "stella", "2", "0", "2", "2")
    assert data == {"inside": False, "tetrahedron": None}


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "compose", "--", "-24", "2", "1", "3", "2", "-1", "3")
    assert code == 1
    assert "DiscriminantMismatch" in err
    code, out, err = run(capsys, "padic-count", "3", "4", "2", "1", "2")
    assert code == 1
    assert "DomainError" in err
    code, out, err = run(capsys, "cube-ring", "0", "0", "0", "0", "0", "0", "0", "1")
    assert code == 1
    assert "Degenerate" in err


def test_compose_indefinite_exit_code(capsys):
    code, out, err = run(capsys, "compose", "--", "9", "-1", "3", "0", "0", "-3", "2")
    assert code == 1
    assert "UnsupportedDiscriminant" in err
    assert "Traceback" not in err
    assert out == ""


def test_failed_self_check_exits_1_with_one_line(capsys, monkeypatch):
    # a reduction that returns the principal form breaks the content check
    # of every composition; that is a bug to report, not a traceback
    monkeypatch.setattr(quadforms, "_reduce", lambda a, b, c: ((1, 0, 25), ((1, 0), (0, 1))))
    code, out, err = run(capsys, "semigroup", "--", "-100")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("InvariantViolation: content of")


def test_ideal_form_non_module_exit_code(capsys, tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"ring": {"t": "0", "u": "1"}, "basis": [["1", "0"], ["0", "2"]]}))
    code, out, err = run(capsys, "ideal-form", "--json", str(path))
    assert code == 1
    assert "NotAModule" in err
    assert "Traceback" not in err
    assert out == ""


def test_non_decimal_digit_is_a_usage_error(capsys, tmp_path):
    # "\u00b2".isdigit() is true, but int() rejects it
    path = tmp_path / "ideal.json"
    ideal = {"ring": {"t": "\u00b2", "u": "1"}, "basis": [["1", "0"], ["0", "1"]]}
    path.write_text(json.dumps(ideal))
    code, out, err = run(capsys, "ideal-form", str(path))
    assert code == 2
    assert "usage error" in err
    assert "Traceback" not in err
    assert out == ""


def test_non_utf8_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, "resolvent", str(path))
    assert code == 2
    assert "usage error" in err
    assert "Traceback" not in err
    assert out == ""


def test_usage_error_exit_code(capsys, tmp_path):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["reduce", "1", "2"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, out, err = run(capsys, "ideal-form", str(bad))
    assert code == 2
    assert "usage error" in err
    missing_key = tmp_path / "missing.json"
    missing_key.write_text(json.dumps({"A": ["1"] * 6}))
    code, out, err = run(capsys, "resolvent", str(missing_key))
    assert code == 2


def test_json_of_the_wrong_shape_is_a_usage_error(capsys, tmp_path):
    # len() of a non-list, nesting deeper than the decoder recurses, and one
    # payload for each shape check of an ideal, a ring and a pair
    ring = {"t": "0", "u": "1"}
    files = {
        "ideals": {"ring": ring, "ideals": 5},
        "zero-denominator": {"ring": ring, "basis": [["1/0", "0"], ["0", "1"]]},
        "ring-without-u": {"ring": {"t": "0"}, "basis": [["1", "0"], ["0", "1"]]},
        "three-rows": {"ring": ring, "basis": [["1", "0"], ["0", "1"], ["1", "1"]]},
        "five-coefficients": {"A": ["0"] * 5, "B": ["0"] * 6},
    }
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for argv, message in (
        (("triple-cube", str(tmp_path / "ideals")), "a triple is"),
        (("resolvent", str(deep)), "malformed JSON"),
        (("ideal-form", str(tmp_path / "zero-denominator")), "expected a rational 'p/q'"),
        (("ideal-form", str(tmp_path / "ring-without-u")), 'a ring is {"t": str, "u": str}'),
        (("ideal-form", str(tmp_path / "three-rows")), "an ideal basis is a 2x2 matrix"),
        (("resolvent", str(tmp_path / "five-coefficients")), "each ternary form has exactly 6"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("usage error: " + message)
        assert out == ""


def test_a_rational_is_p_or_p_over_q(tmp_path):
    # Fraction(str) also read exponents, so an 11-character entry made a
    # denominator of ten million digits: "1e-10000000" down the diagonal
    # took 17 s to print a form on a 2-core Xeon, and "1e-999999999" asks
    # for a billion digits; run in a subprocess with a timeout, so that a
    # slow parse fails.  A rational is "p" or "p/q" with q > 0, each part an integer
    # as _parse_int reads one
    src = os.path.dirname(os.path.dirname(smallrank.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    path = tmp_path / "ideal.json"
    for text in ("1e-10000000", "1e-999999999", "1_0", "+3", "0.5", "1/-2", "1 /2", "1/2/3"):
        path.write_text(json.dumps({"ring": {"t": "0", "u": "1"}, "basis": [[text, "0"], ["0", text]]}))
        proc = subprocess.run(
            [sys.executable, "-m", "smallrank.cli", "ideal-form", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=30,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "usage error: expected a rational 'p/q', got %r\n" % (text,)


def test_stdin_input(capsys, monkeypatch):
    import io

    payload = json.dumps(
        {"A": ["0", "0", "0", "1", "0", "-1"], "B": ["0", "0", "0", "0", "1", "-1"]}
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out, err = run(capsys, "resolvent", "-")
    assert code == 0
    assert "content: 1" in out


def test_json_determinism(capsys):
    first = run_json(capsys, "classgroup", "--", "-23")
    second = run_json(capsys, "classgroup", "--", "-23")
    assert first == second
    assert first["structure"] == ["3"]


def test_entry_point_subprocess():
    # the child imports the same package as this test, installed or not
    src = os.path.dirname(os.path.dirname(smallrank.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "smallrank.cli", "classgroup", "--json", "--", "-23"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["structure"] == ["3"]


def child(code, *argv):
    """Popen arguments of "python -I -S -c CODE" with this package first on
    sys.path and ARGV as sys.argv[1:]; -S, so that no .pth file of
    site-packages imports a module first."""
    src = os.path.dirname(os.path.dirname(smallrank.__file__))
    code = "import sys; sys.path.insert(0, %r)\n%s" % (src, code)
    return [sys.executable, "-I", "-S", "-c", code, *argv]


MAIN = "import smallrank.cli; sys.exit(smallrank.cli.main(sys.argv[1:]))"


def test_the_package_binds_each_submodule_in_all():
    # whenever a submodule is loaded: dir() lists the eight names before any
    # is read, "import *" binds each, each is the module of that name, and
    # a name that is no submodule stays an AttributeError and an ImportError
    code = (
        "import smallrank\n"
        "names = sorted(set(smallrank.__all__) - {'__version__'})\n"
        "assert len(names) == 8, names\n"
        "assert set(smallrank.__all__) <= set(dir(smallrank))\n"
        "star = {}\n"
        "exec('from smallrank import *', star)\n"
        "for name in names:\n"
        "    module = sys.modules['smallrank.' + name]\n"
        "    assert star[name] is getattr(smallrank, name) is module, name\n"
        "assert set(smallrank.__all__) <= set(dir(smallrank))\n"
        "assert not hasattr(smallrank, 'nope')\n"
        "try:\n"
        "    from smallrank import nope\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('imported smallrank.nope')\n"
    )
    proc = subprocess.run(child(code), capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_s_prints_an_int_a_fraction_and_a_fraction_subclass_alike():
    class FractionSubclass(Fraction):
        pass

    for v, text in ((7, "7"), (-2, "-2"), (Fraction(-3, 4), "-3/4"), (Fraction(6, 3), "2")):
        assert cli._s(v) == cli._s(Fraction(v)) == cli._s(FractionSubclass(v)) == text


def _package_imports(node):
    # the names an import statement takes from this package, [] for another
    if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "smallrank"):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names if alias.name.split(".")[0] == "smallrank"]
    return []


def test_the_cli_reaches_the_library_through_the_package_alone():
    # one loader: a handler reads smallrank.quadforms and so on, which the
    # package's __getattr__ loads on first use, so no function imports a
    # module of the package, and the CLI imports no private name of one
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    in_functions = [
        (function.name, name)
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        for name in _package_imports(node)
    ]
    private = [
        name
        for node in ast.walk(tree)
        for name in _package_imports(node)
        if name.rpartition(".")[2].startswith("_")
    ]
    assert (in_functions, private) == ([], [])


def test_importing_the_cli_loads_no_parser_or_json_module(capsys):
    # nor does writing --json output load json
    argv = ["classgroup", "--json", "--", "-23"]
    cold = (
        "import smallrank, smallrank.cli\n"
        "loaded = sorted({'argparse', 'json'} & set(sys.modules))\n"
        "assert not loaded, 'imported at import time: %s' % loaded\n"
        "code = smallrank.cli.main(sys.argv[1:])\n"
        "assert 'json' not in sys.modules, 'json imported to write the output'\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(child(cold, *argv), capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    # the same bytes as the call made in this process
    assert run(capsys, *argv) == (0, proc.stdout.decode(), "")


def test_a_subcommand_that_reads_a_json_file_imports_json(tmp_path):
    # json loads only to read an input file: a cold call that reads one has
    # it loaded, and prints the golden bytes
    (tmp_path / "pair.json").write_text(GOLDEN_FILES["pair.json"], encoding="utf-8")
    cold = (
        "import smallrank.cli\n"
        "code = smallrank.cli.main(sys.argv[1:])\n"
        "assert 'json' in sys.modules, 'a JSON file read without json'\n"
        "sys.exit(code)\n"
    )
    command = "resolvent --json pair.json"
    proc = subprocess.run(child(cold, *command.split()), cwd=tmp_path, capture_output=True, timeout=60)
    golden = next(case[1:] for case in GOLDEN["cases"] if case[0] == command)
    assert [proc.returncode, proc.stdout.decode(), proc.stderr.decode()] == golden


# payload trees of the grammar the handlers build: dicts with str keys,
# lists, tuples, _s strings of ints and Fractions, literal strings, bools
# and None
payload_strings = st.one_of(
    st.integers().map(cli._s),
    st.fractions().map(cli._s),
    st.text("abcdefghijklmnopqrstuvwxyz0123456789,_", max_size=8),
)
payload_trees = st.recursive(
    st.one_of(payload_strings, st.booleans(), st.none()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(payload_strings, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(tree=payload_trees)
def test_the_json_writer_writes_the_bytes_of_json_dumps(tree):
    assert cli._dumps(tree) == json.dumps(tree, sort_keys=True)


@pytest.mark.parametrize("value", [5, 0, 1.5, Fraction(1, 2)])
def test_the_json_writer_refuses_a_value_outside_the_payload_grammar(value):
    # a raw number is never a payload value (numbers go through _s): it
    # fails loudly, alone or inside a list, and is not written as a bool
    for tree in (value, [value], {"n": value}):
        with pytest.raises(TypeError):
            cli._dumps(tree)


def test_importing_and_warming_up_loads_no_fractions_or_decimal_module():
    # the warm-ups of the classgroup, semigroup and cli benchmarks build no
    # Fraction; one built afterwards still passes the gate, which looks the
    # type up at call time
    code = (
        "import contextlib, io\n"
        "import smallrank, smallrank.cli\n"
        "from smallrank.quadforms import class_group\n"
        "from smallrank.quadrings import QuadIdeal, class_semigroup, ideal_norm, ring_from_disc\n"
        "class_group(-1999)\n"
        "class_semigroup(-100)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert smallrank.cli.main(['classgroup', '--json', '--', '-23']) == 0\n"
        "loaded = sorted({'fractions', 'decimal'} & set(sys.modules))\n"
        "assert not loaded, 'loaded without a Fraction: %s' % loaded\n"
        "from fractions import Fraction\n"
        "half = Fraction(1, 2)\n"
        "ideal = QuadIdeal(ring_from_disc(-4), [(half, half), (half, -half)])\n"
        "assert ideal.basis == ((half, half), (half, -half))\n"
        "assert type(ideal_norm(ideal)) is Fraction\n"
    )
    proc = subprocess.run(child(code), capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")


# the warm-up request of each benchmark workload and the library modules it
# needs: the package loads none and the CLI only errors, each other module
# is loaded when first used
WARMUPS = {
    "import": ("", ()),
    "classgroup": ("smallrank.quadforms.class_group(-1999)", ("exactlattice", "quadforms")),
    "semigroup": (
        "smallrank.quadrings.class_semigroup(-100)",
        ("exactlattice", "quadforms", "quadrings"),
    ),
    "quartic": (
        "r = smallrank.quarticrings.ring_from_pair(((0, 0, 0, 1, 0, -1), (0, 0, 0, 0, 1, -1)))\n"
        "smallrank.quarticrings.is_maximal_at_p(r, 2)\n"
        "smallrank.quarticrings.pair_from_ring(r)",
        ("cubicrings", "exactlattice", "quarticrings"),
    ),
    "cli": (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert smallrank.cli.main(['classgroup', '--json', '--', '-23']) == 0",
        ("exactlattice", "quadforms"),
    ),
}


@pytest.mark.parametrize("warmup, added", WARMUPS.values(), ids=WARMUPS)
def test_importing_and_warming_up_loads_only_the_modules_used(warmup, added):
    code = (
        "import smallrank, smallrank.cli\n%s\n"
        "print(' '.join(sorted(m for m in sys.modules if m.partition('.')[0] == 'smallrank')))"
        % warmup
    )
    proc = subprocess.run(child(code), capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    cold = ["smallrank", "smallrank.cli", "smallrank.errors"]
    assert proc.stdout.decode().split() == sorted(cold + ["smallrank." + m for m in added])


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_a_closed_stdout_pipe_exits_141_with_nothing_on_stderr(flags, tmp_path):
    # 258 KB of text (332 KB of JSON), far above a 64 KiB pipe buffer, so
    # the write meets the closed pipe; 141 = 128 + SIGPIPE, as a shell
    # reports "yes | head -1", not 1, the code of a domain error
    with open(tmp_path / "stderr", "w+b") as err:
        proc = subprocess.Popen(
            child(MAIN, "classgroup", *flags, "--", "-99999"), stdout=subprocess.PIPE, stderr=err
        )
        assert proc.stdout.read(100)
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        err.seek(0)
        assert err.read() == b""


def test_overlong_json_integer_is_a_usage_error(capsys, tmp_path):
    # int() refuses more than sys.get_int_max_str_digits() digits
    big = "7" * 5000
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"A": [big, "0", "0", "0", "0", "0"], "B": ["0"] * 6}))
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"ring": {"t": big, "u": "1"}, "basis": [["1", "0"], ["0", "1"]]}))
    for argv in (("resolvent", str(pair)), ("ideal-form", str(ideal))):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "usage error" in err
        assert "Traceback" not in err
        assert out == ""


def test_padic_count_too_long_to_print_is_a_usage_error(capsys):
    # 4 * 3^9999 has 4772 digits, over the default limit of 4300
    code, out, err = run(capsys, "padic-count", "3", "30000", "10000", "10000", "10000")
    assert code == 2
    assert "usage error" in err
    assert "Traceback" not in err
    assert out == ""
    # 4 * 3^8999 has 4295 digits and still prints
    code, out, err = run(capsys, "padic-count", "3", "30000", "9000", "9000", "12000")
    assert code == 0
    assert out == str(4 * 3**8999) + "\n"


def test_result_too_long_to_print_is_a_usage_error(capsys):
    # the cube forms, and the discriminant of the first form in the compose
    # error, have ~6000 digits, over the default limit of 4300; so has the
    # denominator of a Fraction in the cube's first ideal, printed after
    # the ring, whose t and u have 3001 digits
    big = "9" * 3000
    cube = ("1", big, big, "1", "1", "1", "1", "1")
    triple = cubes.triple_from_cube(tuple(map(int, cube)))
    assert len(str(triple.ring.t)) == len(str(triple.ring.u)) == 3001
    assert triple.ideals[0].basis[1][0].denominator > 10 ** sys.get_int_max_str_digits()
    for argv in (
        ("cube-forms", *cube),
        ("cube-forms", "--json", *cube),
        ("cube-triple", *cube),
        ("cube-triple", "--json", *cube),
        ("compose", "--", "-4", big, "1", big, "1", "0", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("usage error")
        assert out == ""


def test_maximal_at_a_large_prime_finishes(tmp_path):
    # a walk over all ~p^4 subspaces of Q/pQ would take hours at p = 101
    src = os.path.dirname(os.path.dirname(smallrank.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    a, b = ["0", "0", "0", "1", "0", "-1"], ["0", "0", "0", "0", "1", "-1"]
    # the Z^4 pair, and both forms scaled by p: there Q/pQ has a 3-dimensional
    # nilradical, so the restricted walk has the most subspaces to choose from
    for scale, maximal in ((1, True), (101, False)):
        path = tmp_path / ("pair%d.json" % scale)
        path.write_text(
            json.dumps({"A": [str(scale * int(v)) for v in a], "B": [str(scale * int(v)) for v in b]})
        )
        proc = subprocess.run(
            [sys.executable, "-m", "smallrank.cli", "maximal", "--json", str(path), "101"],
            capture_output=True,
            text=True,
            env=env,
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        (row,) = json.loads(proc.stdout)["results"]
        assert row["p"] == "101" and row["maximal"] is maximal
        if maximal:
            assert row["witness"] is None
        else:
            assert len(row["witness"]) == 4 and all(len(r) == 4 for r in row["witness"])


def test_padic_count_at_a_19_digit_prime_exits_within_a_second(capsys):
    # trial division by 6k +- 1 up to sqrt(p) ~ 10^9 ran for minutes
    p = "1000000000000000003"
    start = time.perf_counter()
    code, out, err = run(capsys, "padic-count", p, "4", "2", "2", "2")
    assert time.perf_counter() - start < 1
    assert code == 0, err
    assert out == p + "\n"


# ------------------------------------------------------------ golden bytes

# every subcommand in text and --json, exits 1 and 2 for each input kind, and
# all help texts: [command line, exit code, stdout, stderr] as the CLI printed
# them before its parser was built from a registry
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8"))

# the input files the golden command lines name, in the working directory
GOLDEN_FILES = {
    "pair.json": '{"A": ["5","0","0","5","0","-5"], "B": ["0","0","0","0","1","-1"]}',
    "trivial.json": '{"A": ["1","0","0","1","0","-1"], "B": ["1","0","0","1","0","-1"]}',
    "ideal.json": '{"basis": [["1", "0"], ["1/2", "1/2"]], "ring": {"t": "0", "u": "25"}}',
    "nonmodule.json": '{"ring": {"t": "0", "u": "1"}, "basis": [["1", "0"], ["0", "2"]]}',
    "triple.json": '{"ideals": [[["1", "0"], ["4/5", "1/5"]], [["1", "0"], ["4/5", "1/5"]], '
    '[["14", "1"], ["3", "2"]]], "ring": {"t": "-8", "u": "41"}}',
    "two-ideals.json": '{"ideals": [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]]], '
    '"ring": {"t": "0", "u": "1"}}',
    "ring.json": '{"a": "0", "b": "1", "e": "-1", "f": "1"}',
    "missing-key.json": '{"A": ["1", "1", "1", "1", "1", "1"]}',
    "list.json": "[1, 2]",
    "bad.json": "not json",
}


@pytest.fixture
def golden_cwd(tmp_path, monkeypatch):
    # the golden input files in the working directory, help at 80 columns
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")


@pytest.mark.parametrize(
    "command,code,out,err", GOLDEN["cases"], ids=[case[0] for case in GOLDEN["cases"]]
)
def test_golden_output(command, code, out, err, capsys, golden_cwd):
    if "usage:" in out + err and "%d.%d" % sys.version_info[:2] != GOLDEN["python"]:
        pytest.skip("argparse words its help and errors differently in other Pythons")
    assert run(capsys, *shlex.split(command)) == (code, out, err)


def test_golden_output_covers_every_subcommand():
    commands = {case[0] for case in GOLDEN["cases"]}
    for name, _handler, _help, _params in cli._COMMANDS:
        assert name + " --help" in commands
        assert any(c.startswith(name + " ") and "--json" not in c for c in commands), name
        assert any(c.startswith(name + " --json ") for c in commands), name


# ------------------------------------------------------------ exit codes

@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    # the golden inputs, plus shapes that once escaped as a traceback
    root = tmp_path_factory.mktemp("fuzz")
    files = dict(GOLDEN_FILES)
    files["ideals.json"] = '{"ring": {"t": "0", "u": "1"}, "ideals": 5}'
    files["deep.json"] = "[" * 100000 + "]" * 100000
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return [str(root / name) for name in files] + [str(root / "missing.json")]


# the int params with a range of their own; the others take [-9, 9]
FUZZ_BOUNDS = {"D": 400, "p": 7, "primes": 7, "--u": 7}


@st.composite
def random_argv(draw, files):
    # a well-formed call of a random subcommand, then up to two noise tokens
    # anywhere, the first position included
    name, _handler, _help, params = draw(st.sampled_from(cli._COMMANDS))
    options, values = draw(st.sampled_from([[], ["--json"]])), []
    for param in params:
        ints = st.integers(-FUZZ_BOUNDS.get(param, 9), FUZZ_BOUNDS.get(param, 9)).map(str)
        if param == "file":
            values.append(draw(st.sampled_from(files)))
        elif param == "primes":
            values += draw(st.lists(ints, min_size=1, max_size=3))
        elif param.startswith("--"):
            if draw(st.booleans()):
                options += [param, draw(ints)]
        else:
            values.append(draw(ints))
    argv = [name] + options + ["--"] + values
    noise = st.one_of(st.sampled_from(["--json", "--", "-h", "--u"]), st.text(max_size=4))
    for token in draw(st.lists(noise, max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_random_argv_exits_0_1_or_2(fuzz_files, data):
    argv = data.draw(random_argv(fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert code == 0 or out.getvalue() == ""
    # a --json call that succeeds prints what json.dumps writes of its output
    args = parse(cli._parse_args, argv)[0] if code == 0 else None
    if isinstance(args, dict) and args["json"]:
        assert out.getvalue() == json.dumps(json.loads(out.getvalue()), sort_keys=True) + "\n"


# ------------------------------------------------------------ parser per call

def parse(parse_args, argv):
    """vars() of the namespace without "command", the handler by name, or the
    exit code; and what parsing printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse_args(argv))
            result.pop("command", None)
            result["handler"] = result["handler"].__name__
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


# tokens that leave arguments over after a subcommand's own parse, or that
# it reads as an option, a separator or a negative number
TAIL_TOKENS = ["5", "x", "--json", "-h", "--", "--u", "-1", "--foo"]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parser_for_argv_parses_as_the_full_parser(fuzz_files, data):
    # the parser of all subcommands is the oracle
    argv = data.draw(random_argv(fuzz_files))
    argv += data.draw(st.lists(st.sampled_from(TAIL_TOKENS), max_size=2))
    assert parse(cli._parse_args, argv) == parse(cli._build_parser().parse_args, argv)


def _golden_cases(code):
    # {subcommand: its first golden case with that exit code, --help aside}
    cases = {}
    for command, case_code, out, err in GOLDEN["cases"]:
        if case_code == code and "--help" not in command:
            cases.setdefault(command.partition(" ")[0], (command, out, err))
    return cases


def test_a_named_subcommand_builds_no_top_level_parser(capsys, golden_cwd):
    cases = _golden_cases(0)
    assert len(cases) == len(cli._COMMANDS) == 17
    for command, out, err in cases.values():
        code, counts = call_counts(main, shlex.split(command))
        assert (code, *capsys.readouterr()) == (0, out, err), command
        assert counts["cli._build_parser"] == 0, command


def test_each_subcommand_prints_the_same_bytes_when_called_again(capsys, golden_cwd):
    # a valid call, an argument error and --help, twice in one process: what
    # a parser reused across calls would have to keep
    for name, (command, _out, _err) in _golden_cases(0).items():
        for argv, code in ((shlex.split(command), 0), ([name], 2), ([name, "--help"], 0)):
            first = run(capsys, *argv)
            assert first[0] == code, argv
            assert run(capsys, *argv) == first, argv


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    # the [project.scripts] entry point calls main() with no argument
    golden = {case[0]: case[1:] for case in GOLDEN["cases"]}["reduce --json 15 27 13"]
    monkeypatch.setattr(sys, "argv", ["smallrank", "reduce", "--json", "15", "27", "13"])
    assert main() == 0
    assert tuple(capsys.readouterr()) == (golden[1], golden[2])
