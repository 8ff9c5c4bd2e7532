"""Count the lines of each module of ``src/smallrank``.

For each module it prints the raw lines and the code lines, then the
totals.  A code line holds at least one token of code: blank lines,
comment lines and the lines of the docstrings of the module, its classes
and its functions (found by ``ast``) are not code.  Under the table it
lists, for each library module (all but ``__init__``, ``cli`` and
``errors``), the public functions and classes that no other module of the
package reads by name: a name or an attribute in the ``ast``, so an import
alone does not count.  The public methods and properties of the public
classes, and of the classes they inherit from, are listed the same way, as
``Class.name``.  Stdlib only.

    python tools/src_lines.py [SRC_DIR]

SRC_DIR defaults to the ``src/smallrank`` of this checkout, so the same
script counts another checkout given its package directory.  A SRC_DIR
with no ``__init__.py`` is refused with one line on stderr and exit
status 2, so a wrong path does not read as an empty package.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree):
    # the line numbers of every module, class and function docstring
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def count(text):
    """(raw lines, code lines) of one module's source text."""
    docs = _docstring_lines(ast.parse(text))
    code = set()
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def _members(cls):
    # the names a class body defines: methods, properties and class attributes
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def _unread(src):
    # {module: sorted public top-level functions and classes of a library
    # module, and "Class.member" public members of its classes that are
    # public or a base of a public class, that no other module reads by name}
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    classes = {node.name: node for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    shown = {name for name in classes if not name.startswith("_")}
    shown |= {b.id for name in list(shown) for b in classes[name].bases if isinstance(b, ast.Name) and b.id in classes}
    out = {}
    for name, tree in trees.items():
        if name in ("__init__.py", "cli.py", "errors.py"):
            continue
        public = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        }
        public |= {
            "%s.%s" % (node.name, member)
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in shown
            for member in _members(node)
            if not member.startswith("_")
        }
        read = {
            node.id if isinstance(node, ast.Name) else node.attr
            for other, t in trees.items()
            if other != name
            for node in ast.walk(t)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        out[name] = sorted(n for n in public if n.rpartition(".")[2] not in read)
    return out


def main(argv):
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "smallrank"
    if not (src / "__init__.py").is_file():
        print("src_lines.py: %s is not a package directory: no __init__.py" % src, file=sys.stderr)
        return 2
    total_raw = total_code = 0
    print("%-20s %6s %6s" % ("module", "raw", "code"))
    for path in sorted(src.glob("*.py")):
        raw, code = count(path.read_text(encoding="utf-8"))
        total_raw, total_code = total_raw + raw, total_code + code
        print("%-20s %6d %6d" % (path.name, raw, code))
    print("%-20s %6d %6d" % ("total", total_raw, total_code))
    print()
    print("public names no other module reads:")
    for name, unread in _unread(src).items():
        print("%-20s %s" % (name, ", ".join(unread) or "-"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
