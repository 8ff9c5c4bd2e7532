"""Command-line interface for the smallrank package.

One subcommand per pipeline; plain aligned text by default, bit-exact JSON
with ``--json``.  All integers in JSON payloads are decimal strings (and
rationals are ``"p/q"`` strings) so consumers never face 64-bit overflow.
Negative numbers can be passed after a ``--`` separator.  Exit codes:
0 success, 1 domain error (the error class name is printed on stderr),
2 malformed input.
"""

import argparse
import json
import sys
from fractions import Fraction
from math import log10

from .errors import DiscriminantMismatch, SmallRankError
from . import quadforms
from . import quadrings
from . import cubes
from . import cubicrings
from . import quarticrings
from . import padic

__all__ = ["main"]


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------- helpers

def _s(v):
    """Serialize an int or Fraction as a decimal / 'p/q' string."""
    try:
        return str(v) if isinstance(v, Fraction) else str(int(v))
    except ValueError:  # more digits than int -> str converts
        raise _UsageError(
            "a result has more than %d digits, too long to print" % sys.get_int_max_str_digits()
        )


def _form_json(f):
    return [_s(t) for t in f]


def _ring_json(ring):
    return {"t": _s(ring.t), "u": _s(ring.u)}


def _basis_json(basis):
    return [[_s(t) for t in row] for row in basis]


def _ideal_json(ideal):
    return {"ring": _ring_json(ideal.ring), "basis": _basis_json(ideal.basis)}


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
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise _UsageError("expected a rational 'p/q', got %r" % (text,))


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise _UsageError("cannot read %s: %s" % (path, e))
    except ValueError as e:  # malformed JSON or bytes that are not UTF-8
        raise _UsageError("malformed JSON in %s: %s" % (path, e))


def _json_ring(payload):
    try:
        return quadrings.QuadraticRing(
            _parse_int(payload["t"]), _parse_int(payload["u"])
        )
    except (KeyError, TypeError):
        raise _UsageError('a ring is {"t": str, "u": str}')


def _json_ideal(payload):
    try:
        ring = _json_ring(payload["ring"])
        basis = tuple(
            tuple(_parse_frac(v) for v in row) for row in payload["basis"]
        )
    except (KeyError, TypeError):
        raise _UsageError('an ideal is {"ring": {...}, "basis": [[..],[..]]}')
    if len(basis) != 2 or any(len(r) != 2 for r in basis):
        raise _UsageError("an ideal basis is a 2x2 matrix")
    return quadrings.QuadIdeal(ring, basis)


def _json_pair(payload):
    try:
        a = tuple(_parse_int(v) for v in payload["A"])
        b = tuple(_parse_int(v) for v in payload["B"])
    except (KeyError, TypeError):
        raise _UsageError('a ternary pair is {"A": [6 ints], "B": [6 ints]}')
    if len(a) != 6 or len(b) != 6:
        raise _UsageError("each ternary form has exactly 6 coefficients")
    return (a, b)


def _labels(elements, principal):
    """Single-letter class labels: S for the principal class, then A, B, ..."""
    letters = [ch for ch in "ABCDEFGHIJKLMNOPQRTUVWXYZ"]  # S reserved
    out = []
    used = 0
    for f in elements:
        if f == principal:
            out.append("S")
        else:
            out.append(letters[used] if used < len(letters) else "K%d" % used)
            used += 1
    return out


def _table_lines(labels, table):
    width = max(len(l) for l in labels)
    head = " ".join(l.rjust(width) for l in labels)
    lines = ["%s  %s" % ("*".rjust(width), head)]
    for i, row in enumerate(table):
        cells = " ".join(labels[t].rjust(width) for t in row)
        lines.append("%s  %s" % (labels[i].rjust(width), cells))
    return lines


def _fmt_form(f):
    return "(%s)" % (", ".join(_s(t) for t in f))


# ------------------------------------------------------------ subcommands

def _cmd_reduce(args):
    f = (args.a, args.b, args.c)
    g, m = quadforms.reduce(f)
    payload = {"form": _form_json(g), "matrix": _basis_json(m)}
    lines = [
        "reduced: %s" % _fmt_form(g),
        "matrix:  ((%s, %s), (%s, %s))"
        % (_s(m[0][0]), _s(m[0][1]), _s(m[1][0]), _s(m[1][1])),
    ]
    return payload, lines


def _cmd_compose(args):
    f = (args.a1, args.b1, args.c1)
    g = (args.a2, args.b2, args.c2)
    if quadforms.discriminant(f) != args.D:
        raise DiscriminantMismatch(
            "first form has discriminant %s, not %s"
            % (_s(quadforms.discriminant(f)), _s(args.D))
        )
    h = quadforms.compose(f, g)
    return {"form": _form_json(h)}, ["composed: %s" % _fmt_form(h)]


def _cmd_classgroup(args):
    elements, table, structure = quadforms.class_group(args.D)
    principal = quadforms.principal_form(args.D)
    labels = _labels(elements, principal)
    payload = {
        "elements": [_form_json(f) for f in elements],
        "table": [[_s(t) for t in row] for row in table],
        "structure": [_s(t) for t in structure],
    }
    lines = ["discriminant: %d" % args.D, "classes: %d" % len(elements)]
    for lab, f in zip(labels, elements):
        lines.append("%s = %s" % (lab, _fmt_form(f)))
    lines.append(
        "structure: %s"
        % (" x ".join("Z/%s" % _s(t) for t in structure) if structure else "trivial")
    )
    lines.extend(_table_lines(labels, table))
    return payload, lines


def _cmd_semigroup(args):
    elements, table = quadrings.class_semigroup(args.D)
    invertible = [quadforms.content(f) == 1 for f in elements]
    principal = quadforms.principal_form(args.D)
    labels = _labels(elements, principal)
    payload = {
        "elements": [_form_json(f) for f in elements],
        "table": [[_s(t) for t in row] for row in table],
        "invertible": invertible,
    }
    lines = ["discriminant: %d" % args.D, "classes: %d" % len(elements)]
    for lab, f, inv in zip(labels, elements, invertible):
        lines.append(
            "%s = %s%s" % (lab, _fmt_form(f), "" if inv else "  (not invertible)")
        )
    lines.extend(_table_lines(labels, table))
    return payload, lines


def _cmd_ideal_form(args):
    ideal = _json_ideal(_read_json(args.file))
    f = quadrings.form_from_ideal(ideal)
    return {"form": _form_json(f)}, ["form: %s" % _fmt_form(f)]


def _cmd_form_ideal(args):
    f = (args.a, args.b, args.c)
    ring = quadrings.ring_from_disc(quadforms.discriminant(f))
    ideal = quadrings.ideal_from_form(f, ring)
    payload = _ideal_json(ideal)
    lines = [
        "ring: xi^2 = %s xi - %s" % (_s(ring.t), _s(ring.u)),
        "basis: ((%s, %s), (%s, %s))"
        % tuple(_s(v) for row in ideal.basis for v in row),
    ]
    return payload, lines


def _cube_arg(args):
    return tuple(getattr(args, ch) for ch in "abcdefgh")


def _cmd_cube_forms(args):
    q = _cube_arg(args)
    f1, f3, f2 = cubes.associated_forms(q)
    payload = {"forms": [_form_json(f1), _form_json(f3), _form_json(f2)]}
    lines = [
        "phi1: %s" % _fmt_form(f1),
        "phi3: %s" % _fmt_form(f3),
        "phi2: %s" % _fmt_form(f2),
    ]
    return payload, lines


def _cmd_cube_ring(args):
    ring = cubes.ring_of_cube(_cube_arg(args))
    payload = _ring_json(ring)
    lines = [
        "ring: xi^2 = %s xi - %s" % (_s(ring.t), _s(ring.u)),
        "disc: %s" % _s(ring.disc),
    ]
    return payload, lines


def _cmd_cube_triple(args):
    triple = cubes.triple_from_cube(_cube_arg(args))
    payload = {
        "ring": _ring_json(triple.ring),
        "ideals": [_basis_json(i.basis) for i in triple.ideals],
    }
    lines = ["ring: xi^2 = %s xi - %s" % (_s(triple.ring.t), _s(triple.ring.u))]
    for n, ideal in enumerate(triple.ideals, 1):
        lines.append(
            "I%d basis: ((%s, %s), (%s, %s))"
            % ((n,) + tuple(_s(v) for row in ideal.basis for v in row))
        )
    return payload, lines


def _cmd_triple_cube(args):
    payload_in = _read_json(args.file)
    try:
        ring = _json_ring(payload_in["ring"])
        bases = payload_in["ideals"]
    except (KeyError, TypeError):
        raise _UsageError('a triple is {"ring": {...}, "ideals": [b1, b2, b3]}')
    if len(bases) != 3:
        raise _UsageError("a triple has exactly 3 ideal bases")
    ideals = tuple(
        _json_ideal({"ring": payload_in["ring"], "basis": b}) for b in bases
    )
    for i in ideals[1:]:
        if i.ring != ring:
            raise _UsageError("all ideals must share the ring")
    q = cubes.cube_from_triple(cubes.BalancedTriple(ring, ideals))
    return {"cube": [_s(t) for t in q]}, ["cube: %s" % " ".join(_s(t) for t in q)]


def _cmd_cubic_ring(args):
    form = (args.p, args.q, args.r, args.s)
    ring = cubicrings.ring_from_cubic_form(form)
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


def _cmd_cubic_form(args):
    payload_in = _read_json(args.file)
    try:
        ring = cubicrings.CubicRing(
            _parse_int(payload_in["a"]),
            _parse_int(payload_in["b"]),
            _parse_int(payload_in["e"]),
            _parse_int(payload_in["f"]),
        )
    except (KeyError, TypeError):
        raise _UsageError('a cubic ring is {"a": str, "b": str, "e": str, "f": str}')
    form = cubicrings.form_from_cubic_ring(ring)
    return {"form": _form_json(form)}, ["form: %s" % _fmt_form(form)]


def _quartic_json(ring):
    c = {}
    for i in range(1, 4):
        for j in range(i, 4):
            for k in range(4):
                c["%d%d,%d" % (i, j, k)] = _s(ring.c[(i, j, k)])
    return {"c": c}


def _cmd_quartic_ring(args):
    pair = _json_pair(_read_json(args.file))
    ring = quarticrings.ring_from_pair(pair)
    payload = _quartic_json(ring)
    lines = []
    for i in range(1, 4):
        for j in range(i, 4):
            terms = [_s(ring.c[(i, j, 0)])]
            for k in range(1, 4):
                terms.append("%s xi%d" % (_s(ring.c[(i, j, k)]), k))
            lines.append("xi%d*xi%d = %s" % (i, j, " + ".join(terms)))
    lines.append("disc: %s" % _s(ring.disc()))
    return payload, lines


def _cmd_resolvent(args):
    pair = _json_pair(_read_json(args.file))
    ring = quarticrings.ring_from_pair(pair)
    resolvent, _witness = quarticrings.pair_from_ring(ring)
    count = quarticrings.count_numerical_resolvents(ring)
    form = quarticrings.cubic_resolvent_form(pair)
    payload = {
        "content": _s(resolvent.content),
        "count": _s(count),
        "form": _form_json(form),
    }
    lines = [
        "content: %s" % _s(resolvent.content),
        "count:   %s" % _s(count),
        "form:    %s" % _fmt_form(form),
    ]
    return payload, lines


def _cmd_maximal(args):
    pair = _json_pair(_read_json(args.file))
    ring = quarticrings.ring_from_pair(pair)
    results = []
    lines = []
    for p in args.primes:
        ok, witness = quarticrings.is_maximal_at_p(ring, p)
        tag = quarticrings.nonmaximality_conditions_witness(pair, p)
        entry = {
            "p": _s(p),
            "maximal": ok,
            "tag": tag,
            "witness": _basis_json(witness) if witness is not None else None,
        }
        results.append(entry)
        if ok:
            lines.append("p=%d: maximal" % p)
        else:
            lines.append("p=%d: not maximal (tag %s)" % (p, tag))
            for row in witness:
                lines.append("    (%s)" % ", ".join(_s(v) for v in row))
    return {"results": results}, lines


def _cmd_padic_count(args):
    # the count is at most (p+1)*p^(i-1); refuse, before computing it, one
    # with more digits than int -> str converts
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and args.p > 1 and 0 < args.i <= args.n:
        if (args.i - 1) * log10(args.p) + log10(args.p + 1) >= limit:
            raise _UsageError("the count may exceed %d digits: (p+1)*p^(i-1) does" % limit)
    u = args.u if args.u is not None else padic.least_nonresidue(args.p)
    cfg = padic.PadicConfig(args.p, args.n, u)
    count = padic.balanced_count(cfg, (args.i, args.j, args.k))
    return {"count": _s(count)}, [_s(count)]


def _cmd_stella(args):
    inside, label = padic.stella_membership(args.n, (args.i, args.j, args.k))
    label_json = None if label is None else str(label)
    payload = {"inside": inside, "tetrahedron": label_json}
    if not inside:
        lines = ["outside"]
    elif label == "boundary":
        lines = ["inside: boundary of both tetrahedra"]
    else:
        lines = ["inside: tetrahedron %s" % label]
    return payload, lines


# ---------------------------------------------------------------- parser

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="smallrank",
        description="Exact arithmetic for quadratic forms, cubes of integers, "
        "and the rings they parameterize.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(handler=handler)
        return p

    p = add("reduce", _cmd_reduce, "reduce a positive definite binary form")
    for ch in "abc":
        p.add_argument(ch, type=int)

    p = add("compose", _cmd_compose, "compose two forms of discriminant D")
    p.add_argument("D", type=int)
    for ch in ("a1", "b1", "c1", "a2", "b2", "c2"):
        p.add_argument(ch, type=int)

    p = add("classgroup", _cmd_classgroup, "class group of a discriminant")
    p.add_argument("D", type=int)

    p = add("semigroup", _cmd_semigroup, "class semigroup incl. non-invertible")
    p.add_argument("D", type=int)

    p = add("ideal-form", _cmd_ideal_form, "form of a JSON ideal")
    p.add_argument("file", help="JSON file path or - for stdin")

    p = add("form-ideal", _cmd_form_ideal, "ideal of a form (JSON out)")
    for ch in "abc":
        p.add_argument(ch, type=int)

    for name, handler, help_text in (
        ("cube-forms", _cmd_cube_forms, "three quadratic forms of a 2x2x2 cube"),
        ("cube-ring", _cmd_cube_ring, "quadratic ring of a cube"),
        ("cube-triple", _cmd_cube_triple, "balanced ideal triple of a cube"),
    ):
        p = add(name, handler, help_text)
        for ch in "abcdefgh":
            p.add_argument(ch, type=int)

    p = add("triple-cube", _cmd_triple_cube, "cube of a balanced triple (JSON in)")
    p.add_argument("file", help="JSON file path or - for stdin")

    p = add("cubic-ring", _cmd_cubic_ring, "cubic ring of a binary cubic form")
    for ch in "pqrs":
        p.add_argument(ch, type=int)

    p = add("cubic-form", _cmd_cubic_form, "binary cubic form of a ring (JSON in)")
    p.add_argument("file", help="JSON file path or - for stdin")

    p = add("quartic-ring", _cmd_quartic_ring, "quartic ring of a ternary pair")
    p.add_argument("file", help="JSON file path or - for stdin")

    p = add("resolvent", _cmd_resolvent, "resolvent data of a ternary pair")
    p.add_argument("file", help="JSON file path or - for stdin")

    p = add("maximal", _cmd_maximal, "maximality of the pair's ring at primes")
    p.add_argument("file", help="JSON file path or - for stdin")
    p.add_argument("primes", type=int, nargs="+")

    p = add("padic-count", _cmd_padic_count, "balanced triple count")
    for ch in ("p", "n", "i", "j", "k"):
        p.add_argument(ch, type=int)
    p.add_argument("--u", type=int, default=None, help="non-residue (default: least)")

    p = add("stella", _cmd_stella, "two-tetrahedra membership of a signed index")
    for ch in ("n", "i", "j", "k"):
        p.add_argument(ch, type=int)

    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        payload, lines = args.handler(args)
    except _UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 2
    except SmallRankError as e:
        print("%s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
