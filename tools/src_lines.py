"""Count the lines of each module of ``src/smallrank``.

For each module it prints the raw lines and the code lines, then the
totals.  A code line holds at least one token of code: blank lines,
comment lines and the lines of the docstrings of the module, its classes
and its functions (found by ``ast``) are not code.  Stdlib only.

    python tools/src_lines.py [SRC_DIR]

SRC_DIR defaults to the ``src/smallrank`` of this checkout, so the same
script counts another checkout given its package directory.
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


def main(argv):
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "smallrank"
    total_raw = total_code = 0
    print("%-20s %6s %6s" % ("module", "raw", "code"))
    for path in sorted(src.glob("*.py")):
        raw, code = count(path.read_text(encoding="utf-8"))
        total_raw, total_code = total_raw + raw, total_code + code
        print("%-20s %6d %6d" % (path.name, raw, code))
    print("%-20s %6d %6d" % ("total", total_raw, total_code))


if __name__ == "__main__":
    main(sys.argv[1:])
