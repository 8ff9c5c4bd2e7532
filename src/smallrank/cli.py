"""Command-line interface for the smallrank package.

One subcommand per pipeline; plain aligned text by default, bit-exact JSON
with ``--json``.  All integers in JSON payloads are decimal strings (and
rationals are ``"p/q"`` strings) so consumers never face 64-bit overflow.
An input rational is read as ``"p"`` or ``"p/q"``: decimal integers, an
optional ``-`` on p alone, q > 0, and no exponent, ``_``, ``+`` or point.
Negative numbers can be passed after a ``--`` separator.  Exit codes:
0 success, 1 domain error (the error class name is printed on stderr),
2 malformed input, 141 stdout closed before the output was written (as a
shell reports a process ended by SIGPIPE).

Importing this module loads neither ``argparse`` nor ``json`` nor
``fractions``, and of the package only ``errors``: ``main`` imports
``argparse`` when it builds a parser and ``json`` only to read a JSON file,
as it writes ``--json`` output itself, ``fractions`` is imported where a
``Fraction`` is built, and each subcommand reaches
the pipeline modules it calls as ``smallrank.quadforms`` and so on, which
the package loads on first use, so callers that need none of them do not
pay for them.
"""

import os
import sys
from math import log10

import smallrank

from .errors import DiscriminantMismatch, SmallRankError

__all__ = ["main"]


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------- helpers

def _s(v):
    """Serialize an int or Fraction as a decimal / 'p/q' string."""
    try:
        return str(v)
    except ValueError:  # more digits than int -> str converts
        raise _UsageError(
            "a result has more than %d digits, too long to print" % sys.get_int_max_str_digits()
        )


def _json(v):
    """Nested tuples and lists of numbers as nested lists of ``_s`` strings."""
    return [_json(t) for t in v] if isinstance(v, (tuple, list)) else _s(v)


def _dumps(v):
    """``json.dumps(v, sort_keys=True)`` of a payload: dicts with str keys,
    lists, tuples, str, bools and None; any other value raises TypeError."""
    # every string is an _s number (digits, "-" and "/"), the str of a table
    # index or a literal key, tag or label, so none needs an escape and each
    # is written between quotes as it is
    if isinstance(v, str):
        return '"%s"' % v
    if isinstance(v, dict):
        return "{%s}" % ", ".join('"%s": %s' % (k, _dumps(v[k])) for k in sorted(v))
    if isinstance(v, (list, tuple)):
        try:  # a list of strings, such as a row of a class table, in one join
            return '["%s"]' % '", "'.join(v) if v else "[]"
        except TypeError:
            return "[%s]" % ", ".join(map(_dumps, v))
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    raise TypeError(v)


def _ring_json(ring):
    return {"t": _s(ring.t), "u": _s(ring.u)}


def _parse_int(text):
    text = str(text).strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    if not text.isdecimal():
        raise _UsageError("expected an integer, got %r" % (text,))
    try:
        return sign * int(text)
    except ValueError:  # more digits than int() converts
        raise _UsageError("an integer of %d digits is too long" % len(text))


def _parse_frac(text):
    # "p" or "p/q" with q > 0 and no space at the slash, each part read by
    # _parse_int: Fraction(str) also takes exponents, and "1e-999999999"
    # builds a billion digits
    num, slash, den = str(text).strip().partition("/")
    try:
        if num == num.rstrip() and den == den.lstrip():
            p, q = _parse_int(num), _parse_int(den) if slash else 1
            if q > 0:
                from fractions import Fraction

                return Fraction(p, q)
    except _UsageError:
        pass
    raise _UsageError("expected a rational 'p/q', got %r" % (text,))


def _read_json(path):
    import json

    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise _UsageError("cannot read %s: %s" % (path, e))
    except (ValueError, RecursionError) as e:  # malformed, not UTF-8, or nested too deep
        raise _UsageError("malformed JSON in %s: %s" % (path, e))


def _json_ring(payload):
    try:
        return smallrank.quadrings.QuadraticRing(
            _parse_int(payload["t"]), _parse_int(payload["u"])
        )
    except (KeyError, TypeError):
        raise _UsageError('a ring is {"t": str, "u": str}')


_IDEAL_SHAPE = 'an ideal is {"ring": {...}, "basis": [[..],[..]]}'


def _json_ideal(payload):
    try:
        ring, rows = _json_ring(payload["ring"]), payload["basis"]
    except (KeyError, TypeError):
        raise _UsageError(_IDEAL_SHAPE)
    return _json_basis(ring, rows)


def _json_basis(ring, rows):
    # the ideal of an already parsed ring with the JSON basis rows
    try:
        basis = tuple(tuple(_parse_frac(v) for v in row) for row in rows)
    except (KeyError, TypeError):
        raise _UsageError(_IDEAL_SHAPE)
    if len(basis) != 2 or any(len(r) != 2 for r in basis):
        raise _UsageError("an ideal basis is a 2x2 matrix")
    return smallrank.quadrings.QuadIdeal(ring, basis)


def _json_pair(payload):
    try:
        a = tuple(_parse_int(v) for v in payload["A"])
        b = tuple(_parse_int(v) for v in payload["B"])
    except (KeyError, TypeError):
        raise _UsageError('a ternary pair is {"A": [6 ints], "B": [6 ints]}')
    if len(a) != 6 or len(b) != 6:
        raise _UsageError("each ternary form has exactly 6 coefficients")
    return (a, b)


def _fmt_form(f):
    return "(%s)" % (", ".join(_s(t) for t in f))


def _fmt_matrix(m):
    return "((%s, %s), (%s, %s))" % tuple(_s(v) for row in m for v in row)


def _ring_line(ring):
    return "ring: xi^2 = %s xi - %s" % (_s(ring.t), _s(ring.u))


def _class_table(D, elements, table, notes, payload, footer):
    """Payload and lines of a class table over discriminant D.

    ``notes[i]`` ends the line of element i, ``payload`` gains the elements
    and the table, and the ``footer`` lines go between the elements and the
    table.  S labels the principal class, then A, B, ... (S skipped).
    """
    letters = "ABCDEFGHIJKLMNOPQRTUVWXYZ"  # S reserved
    principal = smallrank.quadforms.principal_form(D)
    labels, used = [], 0
    for f in elements:
        if f == principal:
            labels.append("S")
        else:
            labels.append(letters[used] if used < len(letters) else "K%d" % used)
            used += 1
    payload["elements"] = _json(elements)
    # the cells are indices below h, too short for the digit limit _s guards
    payload["table"] = [list(map(str, row)) for row in table]
    lines = ["discriminant: %d" % D, "classes: %d" % len(elements)]
    lines += ["%s = %s%s" % (l, _fmt_form(f), n) for l, f, n in zip(labels, elements, notes)]
    lines += footer
    width = max(len(l) for l in labels)
    padded = [l.rjust(width) for l in labels]
    lines.append("%s  %s" % ("*".rjust(width), " ".join(padded)))
    for l, row in zip(padded, table):
        lines.append("%s  %s" % (l, " ".join(map(padded.__getitem__, row))))
    return payload, lines


# ------------------------------------------------------------ subcommands

# (name, handler, help text, params) in --help order; the handler gets the
# values of params in order and returns (JSON payload, text lines)
_COMMANDS = []

# add_argument keywords of the params that are not an int positional
_PARAM_KWARGS = {
    "file": {"help": "JSON file path or - for stdin"},
    "primes": {"type": int, "nargs": "+"},
    "--u": {"type": int, "default": None, "help": "non-residue (default: least)"},
}


def _command(name, help_text, *params):
    def register(handler):
        _COMMANDS.append((name, handler, help_text, params))
        return handler

    return register


@_command("reduce", "reduce a positive definite binary form", *"abc")
def _cmd_reduce(*f):
    g, m = smallrank.quadforms.reduce(f)
    payload = {"form": _json(g), "matrix": _json(m)}
    return payload, ["reduced: %s" % _fmt_form(g), "matrix:  %s" % _fmt_matrix(m)]


@_command(
    "compose", "compose two forms of discriminant D", "D", "a1", "b1", "c1", "a2", "b2", "c2"
)
def _cmd_compose(D, *coeffs):
    f, g = coeffs[:3], coeffs[3:]
    disc = smallrank.quadforms.discriminant(f)
    if disc != D:
        raise DiscriminantMismatch("first form has discriminant %s, not %s" % (_s(disc), _s(D)))
    h = smallrank.quadforms.compose(f, g)
    return {"form": _json(h)}, ["composed: %s" % _fmt_form(h)]


@_command("classgroup", "class group of a discriminant", "D")
def _cmd_classgroup(D):
    elements, table, structure = smallrank.quadforms.class_group(D)
    text = " x ".join("Z/%s" % _s(t) for t in structure) if structure else "trivial"
    payload = {"structure": _json(structure)}
    return _class_table(D, elements, table, [""] * len(elements), payload, ["structure: " + text])


@_command("semigroup", "class semigroup incl. non-invertible", "D")
def _cmd_semigroup(D):
    elements, table = smallrank.quadrings.class_semigroup(D)
    invertible = [smallrank.quadforms.content(f) == 1 for f in elements]
    notes = ["" if inv else "  (not invertible)" for inv in invertible]
    return _class_table(D, elements, table, notes, {"invertible": invertible}, [])


@_command("ideal-form", "form of a JSON ideal", "file")
def _cmd_ideal_form(file):
    ideal = _json_ideal(_read_json(file))
    f = smallrank.quadrings.form_from_ideal(ideal)
    return {"form": _json(f)}, ["form: %s" % _fmt_form(f)]


@_command("form-ideal", "ideal of a form (JSON out)", *"abc")
def _cmd_form_ideal(*f):
    ring = smallrank.quadrings.ring_from_disc(smallrank.quadforms.discriminant(f))
    ideal = smallrank.quadrings.ideal_from_form(f, ring)
    payload = {"ring": _ring_json(ring), "basis": _json(ideal.basis)}
    return payload, [_ring_line(ring), "basis: %s" % _fmt_matrix(ideal.basis)]


@_command("cube-forms", "three quadratic forms of a 2x2x2 cube", *"abcdefgh")
def _cmd_cube_forms(*q):
    f1, f3, f2 = smallrank.cubes.associated_forms(q)
    payload = {"forms": _json((f1, f3, f2))}
    lines = [
        "phi1: %s" % _fmt_form(f1),
        "phi3: %s" % _fmt_form(f3),
        "phi2: %s" % _fmt_form(f2),
    ]
    return payload, lines


@_command("cube-ring", "quadratic ring of a cube", *"abcdefgh")
def _cmd_cube_ring(*q):
    ring = smallrank.cubes.ring_of_cube(q)
    return _ring_json(ring), [_ring_line(ring), "disc: %s" % _s(ring.disc())]


@_command("cube-triple", "balanced ideal triple of a cube", *"abcdefgh")
def _cmd_cube_triple(*q):
    triple = smallrank.cubes.triple_from_cube(q)
    payload = {
        "ring": _ring_json(triple.ring),
        "ideals": _json([i.basis for i in triple.ideals]),
    }
    lines = [_ring_line(triple.ring)]
    for n, ideal in enumerate(triple.ideals, 1):
        lines.append("I%d basis: %s" % (n, _fmt_matrix(ideal.basis)))
    return payload, lines


@_command("triple-cube", "cube of a balanced triple (JSON in)", "file")
def _cmd_triple_cube(file):
    payload_in = _read_json(file)
    try:
        ring = _json_ring(payload_in["ring"])
        bases = payload_in["ideals"]
        if len(bases) != 3:
            raise _UsageError("a triple has exactly 3 ideal bases")
    except (KeyError, TypeError):
        raise _UsageError('a triple is {"ring": {...}, "ideals": [b1, b2, b3]}')
    ideals = tuple(_json_basis(ring, b) for b in bases)
    q = smallrank.cubes.cube_from_triple(smallrank.cubes.BalancedTriple(ring, ideals))
    return {"cube": _json(q)}, ["cube: %s" % " ".join(_s(t) for t in q)]


@_command("cubic-ring", "cubic ring of a binary cubic form", *"pqrs")
def _cmd_cubic_ring(*form):
    ring = smallrank.cubicrings.ring_from_cubic_form(form)
    payload = {
        "a": _s(ring.a),
        "b": _s(ring.b),
        "e": _s(ring.e),
        "f": _s(ring.f),
    }
    lines = [
        "xi1^2   = %s + %s xi1 + %s xi2" % (_s(ring.ell), _s(ring.a), _s(ring.b)),
        "xi1*xi2 = %s" % _s(ring.m),
        "xi2^2   = %s + %s xi1 + %s xi2" % (_s(ring.n), _s(ring.e), _s(ring.f)),
        "disc: %s" % _s(ring.disc()),
    ]
    return payload, lines


@_command("cubic-form", "binary cubic form of a ring (JSON in)", "file")
def _cmd_cubic_form(file):
    payload_in = _read_json(file)
    try:
        ring = smallrank.cubicrings.CubicRing(
            _parse_int(payload_in["a"]),
            _parse_int(payload_in["b"]),
            _parse_int(payload_in["e"]),
            _parse_int(payload_in["f"]),
        )
    except (KeyError, TypeError):
        raise _UsageError('a cubic ring is {"a": str, "b": str, "e": str, "f": str}')
    form = smallrank.cubicrings.form_from_cubic_ring(ring)
    return {"form": _json(form)}, ["form: %s" % _fmt_form(form)]


@_command("quartic-ring", "quartic ring of a ternary pair", "file")
def _cmd_quartic_ring(file):
    ring = smallrank.quarticrings.ring_from_pair(_json_pair(_read_json(file)))
    table, c, lines = ring.c, {}, []
    for i in range(1, 4):
        for j in range(i, 4):
            v = [_s(table[(i, j, k)]) for k in range(4)]
            c.update(("%d%d,%d" % (i, j, k), v[k]) for k in range(4))
            terms = [v[0]] + ["%s xi%d" % (v[k], k) for k in range(1, 4)]
            lines.append("xi%d*xi%d = %s" % (i, j, " + ".join(terms)))
    lines.append("disc: %s" % _s(ring.disc()))
    return {"c": c}, lines


@_command("resolvent", "resolvent data of a ternary pair", "file")
def _cmd_resolvent(file):
    pair = _json_pair(_read_json(file))
    ring = smallrank.quarticrings.ring_from_pair(pair)
    resolvent, _witness = smallrank.quarticrings.pair_from_ring(ring)
    count = smallrank.quarticrings.count_numerical_resolvents(ring)
    form = smallrank.quarticrings.cubic_resolvent_form(pair)
    payload = {
        "content": _s(resolvent.content),
        "count": _s(count),
        "form": _json(form),
    }
    lines = [
        "content: %s" % _s(resolvent.content),
        "count:   %s" % _s(count),
        "form:    %s" % _fmt_form(form),
    ]
    return payload, lines


@_command("maximal", "maximality of the pair's ring at primes", "file", "primes")
def _cmd_maximal(file, primes):
    pair = _json_pair(_read_json(file))
    ring = smallrank.quarticrings.ring_from_pair(pair)
    results = []
    lines = []
    for p in primes:
        ok, witness = smallrank.quarticrings.is_maximal_at_p(ring, p)
        tag = smallrank.quarticrings.nonmaximality_conditions_witness(pair, p)
        entry = {
            "p": _s(p),
            "maximal": ok,
            "tag": tag,
            "witness": _json(witness) if witness is not None else None,
        }
        results.append(entry)
        if ok:
            lines.append("p=%d: maximal" % p)
        else:
            lines.append("p=%d: not maximal (tag %s)" % (p, tag))
            for row in witness:
                lines.append("    (%s)" % ", ".join(_s(v) for v in row))
    return {"results": results}, lines


@_command("padic-count", "balanced triple count", "p", "n", "i", "j", "k", "--u")
def _cmd_padic_count(p, n, i, j, k, u):
    # the count is at most (p+1)*p^(i-1); refuse, before computing it, one
    # with more digits than int -> str converts
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and p > 1 and 0 < i <= n:
        if (i - 1) * log10(p) + log10(p + 1) >= limit:
            raise _UsageError("the count may exceed %d digits: (p+1)*p^(i-1) does" % limit)
    if u is None:
        u = smallrank.padic.least_nonresidue(p)
    cfg = smallrank.padic.PadicConfig(p, n, u)
    count = smallrank.padic.balanced_count(cfg, (i, j, k))
    return {"count": _s(count)}, [_s(count)]


@_command("stella", "two-tetrahedra membership of a signed index", *"nijk")
def _cmd_stella(n, *index):
    inside, label = smallrank.padic.stella_membership(n, index)
    payload = {"inside": inside, "tetrahedron": None if label is None else str(label)}
    if not inside:
        lines = ["outside"]
    elif label == "boundary":
        lines = ["inside: boundary of both tetrahedra"]
    else:
        lines = ["inside: tetrahedron %s" % label]
    return payload, lines


# ---------------------------------------------------------------- parser

def _add_arguments(parser, handler, params):
    parser.add_argument("--json", action="store_true", help="emit JSON")
    for param in params:
        parser.add_argument(param, **_PARAM_KWARGS.get(param, {"type": int}))
    parser.set_defaults(handler=handler, params=params)


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="smallrank",
        description="Exact arithmetic for quadratic forms, cubes of integers, "
        "and the rings they parameterize.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, handler, help_text, params in _COMMANDS:
        _add_arguments(sub.add_parser(name, help=help_text), handler, params)
    return parser


def _parse_args(argv):
    # argv[0] naming a subcommand: its parser alone, built and run as the
    # full parser's subparsers action would (same prog, so the same usage,
    # help and errors); the namespace then has no "command".  Any other
    # argv, and arguments left over, go to the full parser, which reports
    # them as its own error.
    import argparse

    for name, handler, _help, params in _COMMANDS:
        if argv and argv[0] == name:
            parser = argparse.ArgumentParser(prog="smallrank " + name)
            _add_arguments(parser, handler, params)
            args, rest = parser.parse_known_args(argv[1:])
            if not rest:
                return args
    return _build_parser().parse_args(argv)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        payload, lines = args.handler(*(getattr(args, p.lstrip("-")) for p in args.params))
    except _UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 2
    except SmallRankError as e:
        print("%s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 1
    text = _dumps(payload) if args.json else "\n".join(lines)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so that the
        # interpreter's final flush of what is still buffered neither
        # raises nor prints "Exception ignored"
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())
