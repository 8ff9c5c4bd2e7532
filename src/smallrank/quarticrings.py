"""Quartic rings from pairs of integral ternary quadratic forms.

A pair ``P = (A, B)`` of ternary quadratic forms with integer coefficients
is stored as two 6-tuples in the coefficient order

    (a11, a22, a33, a12, a13, a23),

meaning ``A(x1,x2,x3) = a11*x1^2 + a22*x2^2 + a33*x3^2 + a12*x1*x2 +
a13*x1*x3 + a23*x2*x3`` (cross coefficients are *not* halved).

Such a pair determines a commutative ring with unit that is free of rank 4
as a Z-module, with basis ``1, xi1, xi2, xi3`` and multiplication table

    xi_i * xi_j = c_ij^0 + c_ij^1 xi1 + c_ij^2 xi2 + c_ij^3 xi3 ,

where the structure constants are integer polynomials in the 2x2 minors

    lam(x, y) = a_x * b_y - a_y * b_x

of the 2x6 coefficient matrix of the pair (x, y run over the six index
pairs above).  The basis is normalized so that c_12^1 = c_23^2 = c_13^3 = 0;
with that normalization the xi-coefficients c_ij^k are *linear* in the
minors and the constants c_ij^0 are determined by associativity.

The module provides the pair -> ring map, its inverse (reconstructing, up
to the intrinsic ambiguity, a pair from a quartic ring together with a
choice of rank-2 quotient lattice), the associated cubic resolvent form,
discriminant comparisons, and a maximality test for the ring at a prime.
"""

from collections import namedtuple
from itertools import combinations
from math import gcd

from .errors import DegenerateRing, DomainError, InvariantViolation, TrivialRing, _ints, _of
from .exactlattice import (
    _Ring,
    _coords2,
    _hnf_coords,
    _hnf_from_rref,
    _hnf_int,
    _rref_mod_p,
    _unscaled,
    divisors,
    is_prime,
    mat2_det,
)
from .cubicrings import cubic_form_disc, ring_from_cubic_form

__all__ = [
    "SIX",
    "MinimalResolvent",
    "QuarticRing",
    "lambda_system",
    "plucker_check",
    "ring_from_pair",
    "pair_from_ring",
    "count_numerical_resolvents",
    "enumerate_numerical_resolvents",
    "cubic_resolvent_form",
    "disc_match",
    "resolvent_identity_check",
    "is_maximal_at_p",
    "nonmaximality_conditions_witness",
]

#: Index pairs (i, j) of the six ternary-form coefficients, in storage order.
SIX = ((1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3))

#: A distinguished rank-2 quotient lattice of a quartic ring: ``lattice`` is
#: the canonical basis of the minimal rank-2 lattice receiving the quadratic
#: map, and ``content`` is the gcd of the lambda-minors (the index scale
#: governing how many enlargements of ``lattice`` also receive the map).
MinimalResolvent = namedtuple("MinimalResolvent", ["lattice", "content"])


def _coerce_pair(pair):
    """Validate a pair of ternary forms and return it as two int 6-tuples."""
    if not isinstance(pair, (tuple, list)) or len(pair) != 2:
        raise DomainError("a pair of ternary forms must be two 6-tuples of integers")
    return _ints(pair[0], 6), _ints(pair[1], 6)


def _ternary_eval(form, v):
    """Evaluate a ternary quadratic form (6-tuple) at an integer vector."""
    x1, x2, x3 = v
    a11, a22, a33, a12, a13, a23 = form
    return (
        a11 * x1 * x1
        + a22 * x2 * x2
        + a33 * x3 * x3
        + a12 * x1 * x2
        + a13 * x1 * x3
        + a23 * x2 * x3
    )


#: The keys (x, y), 0 <= x < y <= 5, of the fifteen minors.
_MINORS = tuple(combinations(range(6), 2))


def lambda_system(pair):
    """The fifteen 2x2 minors of a pair of ternary forms.

    Returns a dict mapping ``(x, y)`` with ``0 <= x < y <= 5`` (indices into
    :data:`SIX`) to ``a_x * b_y - a_y * b_x``.
    """
    return dict(zip(_MINORS, _minors(*_coerce_pair(pair))))


def _minors(a, b):
    # the fifteen minors a_x * b_y - a_y * b_x of two int 6-tuples, as a
    # tuple in _MINORS order
    a0, a1, a2, a3, a4, a5 = a
    b0, b1, b2, b3, b4, b5 = b
    return (
        a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0, a0 * b4 - a4 * b0, a0 * b5 - a5 * b0,
        a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a1 * b4 - a4 * b1, a1 * b5 - a5 * b1,
        a2 * b3 - a3 * b2, a2 * b4 - a4 * b2, a2 * b5 - a5 * b2,
        a3 * b4 - a4 * b3, a3 * b5 - a5 * b3,
        a4 * b5 - a5 * b4,
    )


#: Row x of the alternating matrix of minors, lam(x, z) for z = 0..5, as
#: (sign, position in _MINORS): lam(x, z) = -lam(z, x), and lam(x, x) = 0
#: is 0 times position 0.
_SIGNED = tuple(
    tuple((1, _MINORS.index((x, z))) if x < z else (-1, _MINORS.index((z, x))) if z < x else (0, 0) for z in range(6))
    for x in range(6)
)


#: The 15 Plucker relations, one per four slots w < x < y < z among the six,
#: as the positions in _MINORS of their six minors (w,x), (y,z), (w,y),
#: (x,z), (w,z), (x,y).
_PLUCKER = tuple(
    tuple(map(_MINORS.index, ((w, x), (y, z), (w, y), (x, z), (w, z), (x, y))))
    for w, x, y, z in combinations(range(6), 4)
)


def plucker_check(lam):
    """Whether a dict of minors from :func:`lambda_system` satisfies all Plucker relations.

    For every choice of four distinct indices ``w < x < y < z`` among the
    six coefficient slots the alternating relation

        lam(w,x)*lam(y,z) - lam(w,y)*lam(x,z) + lam(w,z)*lam(x,y) == 0

    must hold; these are exactly the conditions for the minors to come from
    an actual 2x6 matrix.  A missing minor, or one that is not an ``int``,
    is a :class:`~smallrank.errors.DomainError`.
    """
    if not isinstance(lam, dict):
        raise DomainError("a minor system is the dict made by lambda_system")
    try:
        m = _ints([lam[k] for k in _MINORS], 15, "minors")
    except KeyError as e:
        raise DomainError("the minor system has no minor %r" % (e.args[0],))
    return not any(m[wx] * m[yz] - m[wy] * m[xz] + m[wz] * m[xy] for wx, yz, wy, xz, wz, xy in _PLUCKER)


#: The unit basis 1, xi1, xi2, xi3; row i is also the table row 1 * e_i.
_UNIT = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


#: The keys (i, j) with i <= j of the six table rows xi_i * xi_j.
_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


def _rows(c):
    # the 4x4 table of e_i * e_j for e_0 = 1, e_i = xi_i, read off a dict c
    # keyed (i, j, k) with i <= j: unit row and both orders included
    a, b, d, e, f, g = [(c[(i, j, 0)], c[(i, j, 1)], c[(i, j, 2)], c[(i, j, 3)]) for i, j in _PAIRS]
    _, u1, u2, u3 = _UNIT
    return (_UNIT, (u1, a, b, d), (u2, b, e, f), (u3, d, f, g))


class QuarticRing(_Ring):
    """A commutative unital ring, free of rank 4 over Z.

    Elements are 4-tuples ``(x0, x1, x2, x3)`` standing for
    ``x0 + x1*xi1 + x2*xi2 + x3*xi3``.  The full multiplication table is
    supplied as a dict ``c`` with keys ``(i, j, k)`` for ``1 <= i <= j <= 3``
    and ``0 <= k <= 3``; a non-dict, a missing key, a non-``int`` entry or
    a table that is not associative is a
    :class:`~smallrank.errors.DomainError`.  So every ``QuarticRing`` is a
    ring, checked once, when it is built (:func:`_associative`, 36
    coordinates of straight-line integer sums), and no later entry point
    checks it again.
    The ring keeps one table, ``_t``, which products, traces and the
    self-checks read: ``_t[i][j]`` is the coordinate tuple of ``e_i * e_j``
    in the basis ``e_0 = 1, e_1 = xi1, e_2 = xi2, e_3 = xi3``, unit row and
    both orders included, so ``_t[i]`` is the matrix of multiplication by
    ``e_i``.  The property ``c`` reads the 24 entries back off ``_t`` as a
    new dict on every access.  The ring holds nothing else: what the
    resolvents and maximality need is read off ``_t`` on every call.
    """

    __slots__ = ()

    def __init__(self, c):
        if not isinstance(c, dict):
            raise DomainError("a multiplication table is a dict keyed by (i, j, k)")
        try:
            table = {(i, j, k): c[(i, j, k)] for i, j in _PAIRS for k in range(4)}
        except KeyError as e:
            raise DomainError("multiplication table is missing entry %r" % (e.args[0],))
        _ints(tuple(table.values()), 24, "table entries")
        self._t = _rows(table)
        if not _associative(self._t):
            raise DomainError("multiplication table is not associative")

    @classmethod
    def _from_rows(cls, t):
        # the ring with table rows t of ints, made by _table_of, its
        # associativity not checked: _table_of says who does
        ring = cls.__new__(cls)
        ring._t = t
        return ring

    @property
    def c(self):
        return {(i, j, k): self._t[i][j][k] for i, j in _PAIRS for k in range(4)}

    def __repr__(self):
        return "QuarticRing(%r)" % (self.c,)

    def disc(self):
        """Discriminant: det of the trace form Tr(e_i*e_j), as straight-line integer sums.

        It reads any table, in any basis; the tests check it against a
        ``Fraction`` elimination of the trace form.  The traces are
        T_k = sum_i c_ki^i, read off the diagonals, so row 0 of the form is
        (4, T_1, T_2, T_3), as e_0 = 1, and each of the other six entries
        is a table row dotted with (4, T_1, T_2, T_3).  The determinant is
        the Laplace expansion over rows 0 and 1: the six 2x2 minors of rows
        0-1 times their complementary minors in rows 2-3.
        """
        _, (_, a, b, d), (_, _, e, f), (_, _, _, g) = self._t
        t1, t2, t3 = a[1] + b[2] + d[3], b[1] + e[2] + f[3], d[1] + f[2] + g[3]
        # the trace form [[4, t1, t2, t3], [t1, A, B, D], [t2, B, E, F], [t3, D, F, G]]
        A = 4 * a[0] + a[1] * t1 + a[2] * t2 + a[3] * t3
        B = 4 * b[0] + b[1] * t1 + b[2] * t2 + b[3] * t3
        D = 4 * d[0] + d[1] * t1 + d[2] * t2 + d[3] * t3
        E = 4 * e[0] + e[1] * t1 + e[2] * t2 + e[3] * t3
        F = 4 * f[0] + f[1] * t1 + f[2] * t2 + f[3] * t3
        G = 4 * g[0] + g[1] * t1 + g[2] * t2 + g[3] * t3
        # the minor of rows 0-1 in columns 2, 3 is that of rows 2-3 in
        # columns 0, 1, by symmetry: its term is a square
        s23 = t2 * D - t3 * B
        return (
            (4 * A - t1 * t1) * (E * G - F * F)
            - (4 * B - t1 * t2) * (B * G - D * F)
            + (4 * D - t1 * t3) * (B * F - D * E)
            + (t1 * B - t2 * A) * (t2 * G - t3 * F)
            - (t1 * D - t3 * A) * (t2 * F - t3 * E)
            + s23 * s23
        )

    def mul(self, x, y):
        """Product of two elements given as length-4 coordinate tuples.

        The table is commutative, so the terms x_i*y_j and x_j*y_i share the
        row xi_i*xi_j: the xi-part is six symmetric products against six rows.
        """
        x0, x1, x2, x3 = x
        y0, y1, y2, y3 = y
        _, (_, a, b, c), (_, _, d, e), (_, _, _, f) = self._t
        s11 = x1 * y1
        s12 = x1 * y2 + x2 * y1
        s13 = x1 * y3 + x3 * y1
        s22 = x2 * y2
        s23 = x2 * y3 + x3 * y2
        s33 = x3 * y3
        return (
            x0 * y0 + s11 * a[0] + s12 * b[0] + s13 * c[0] + s22 * d[0] + s23 * e[0] + s33 * f[0],
            x0 * y1 + x1 * y0 + s11 * a[1] + s12 * b[1] + s13 * c[1] + s22 * d[1] + s23 * e[1] + s33 * f[1],
            x0 * y2 + x2 * y0 + s11 * a[2] + s12 * b[2] + s13 * c[2] + s22 * d[2] + s23 * e[2] + s33 * f[2],
            x0 * y3 + x3 * y0 + s11 * a[3] + s12 * b[3] + s13 * c[3] + s22 * d[3] + s23 * e[3] + s33 * f[3],
        )


def _prime(p):
    # the one check on the prime of a maximality test
    if not is_prime(p):
        raise DomainError("maximality test requires a prime")


def _lambda_from_c(t):
    # the minors of a ring's table rows t in the normalized basis, as a
    # tuple in _MINORS order: the inverse of the xi-coefficients of _table_of
    _, (_, a, b, d), (_, _, e, f), (_, _, _, g) = t
    return (
        b[3], -d[2], a[3], -a[2], -b[2],
        f[1], -e[3], -f[3], e[1],
        -d[1], g[2], -g[1],
        a[1] - b[2], f[3] - e[2],
        g[3] - d[1],
    )


def ring_from_pair(pair):
    """The quartic ring attached to a pair of integral ternary forms.

    The xi-coefficients of the multiplication table are linear in the 2x2
    minors of the pair.  Associativity forces the constants, and
    ``_table_of`` computes them.  Let ``t`` be the table rows with every
    constant 0.  For w != v, the xi_w coordinate of (xi_u*xi_v)*xi_w is
    c_uv^0 + sum_{k>=1} t[u][v][k]*t[w][k][w], as 1*xi_w has xi_w
    coordinate 1; that of (xi_u*xi_w)*xi_v is sum_{k>=1}
    t[u][w][k]*t[v][k][w], as 1*xi_v has no xi_w part.  The two are equal,
    so c_uv^0 = sum_{k>=1} (t[u][w][k]*t[v][k][w] - t[u][v][k]*t[w][k][w]),
    one instance (u, v, w) per constant; the sums read no constant of ``t``.
    Associativity also checks them: any other instance that disagrees is an
    associator that is not zero.  So the table is checked for associativity
    on the 9 basis triples (xi_x, xi_y, xi_z) with x < z
    (:func:`_associative`), and a failure raises
    :class:`~smallrank.errors.InvariantViolation`.

    Cost: the 15 minors of the validated pair, 30 integer products, then
    17 integer products for the 6 constants, at most three each, and the
    associativity check: 36 coordinates of 8 integer products each, with
    no function call.  The 24 entries are ints computed from the minors,
    so the ring is built with none of the other checks of
    ``QuarticRing(c)`` and its table once.
    """
    ring = _table_of(_minors(*_coerce_pair(pair)))
    if not _associative(ring._t):
        raise InvariantViolation("associativity failure in constructed table")
    return ring


def _table_of(m):
    # the QuarticRing of the minors m of a pair, a tuple in _MINORS order,
    # its associativity not checked: ring_from_pair checks it, and
    # pair_from_ring compares the table with a QuarticRing, which is
    # associative.  Every entry is an int computed from the int minors, so
    # the ring is built by _from_rows
    l01, l02, l03, l04, l05, l12, l13, l14, l15, l23, l24, l25, l34, l35, l45 = m
    # the xi-coefficients c_ij^k, k >= 1, each +- one minor, plus a second
    # coefficient on the diagonal c_ii^i, and c_12^1 = c_23^2 = c_13^3 = 0.
    # The signs are the unique solution, under that normalization, of the
    # determinant identity det[x | y | sum_c] = sum lam^{ij}_{kl} x_i x_j
    # y_k y_l, checked by exact linear solve; summaries of this system
    # elsewhere can differ by pair-orientation in the first two families
    c112, c113, c221, c223, c331, c332 = -l04, l03, l15, -l13, -l25, l24
    c123, c132, c231, c122, c233, c131 = l01, -l02, l12, -l05, -l14, -l23
    c111, c222, c333 = l34 + c122, c233 - l35, l45 + c131
    # the constants c_uv^0, one instance (u, v, w) of ring_from_pair each,
    # with the terms of a zero coefficient dropped and c_11^1 - c_12^2 = l34
    # and c_33^3 - c_13^1 = l45 factored out: at most three products each
    a = (-c122 * l34 - c112 * c222 + c123 * c132, c111, c112, c113)
    b = (c112 * c221 + c113 * c231 - c123 * c131, 0, c122, c123)
    d = (c112 * c231 + c113 * c331, c131, c132, 0)
    e = (-c221 * l34 + c123 * c231 - c223 * c131, c221, c222, c223)
    f = (c221 * c132 - c231 * c122 + c223 * c332, c231, 0, c233)
    g = (-c131 * l45 - c331 * c111 + c132 * c231, c331, c332, c333)
    _, u1, u2, u3 = _UNIT
    return QuarticRing._from_rows((_UNIT, (u1, a, b, d), (u2, b, e, f), (u3, d, f, g)))


def _associative(t):
    """Whether the table rows ``t`` of a rank-4 ring are associative.

    The associator a(x, y, z) = (xy)z - x(yz) is trilinear and vanishes when
    an argument is 1, so the ring is associative iff it vanishes on the 27
    triples of xi1, xi2, xi3.  Multiplication is commutative, as ``mul``
    reads xi_i*xi_j and xi_j*xi_i from the same table entry, so
    a(z, y, x) = (zy)x - z(yx) = x(yz) - (xy)z = -a(x, y, z).  Hence
    a(x, y, x) = 0, and a(x, y, z) with x > z is minus a(z, y, x): the 9
    triples with x < z suffice.  Each side is a table row times one xi:
    (xi_x*xi_y)*xi_z is the row ``t[x][y]`` times the matrix ``t[z]`` of
    multiplication by xi_z, and xi_x*(xi_y*xi_z) is ``t[y][z]``, which is
    ``t[z][y]``, times ``t[x]``.  Both read the rows of ``t[x]`` and
    ``t[z]`` alone, so each pair x < z unpacks them once and compares the 4
    coordinates of its 3 triples as integer sums: 36 coordinates, 8
    products each, the 18 row-times-matrix products of the 9 triples.
    """
    for x, z in ((1, 2), (1, 3), (2, 3)):
        (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3), (s0, s1, s2, s3) = m = t[x]
        (P0, P1, P2, P3), (Q0, Q1, Q2, Q3), (R0, R1, R2, R3), (S0, S1, S2, S3) = n = t[z]
        for y in (1, 2, 3):
            a0, a1, a2, a3 = m[y]
            b0, b1, b2, b3 = n[y]
            if (
                a0 * P0 + a1 * Q0 + a2 * R0 + a3 * S0 != b0 * p0 + b1 * q0 + b2 * r0 + b3 * s0
                or a0 * P1 + a1 * Q1 + a2 * R1 + a3 * S1 != b0 * p1 + b1 * q1 + b2 * r1 + b3 * s1
                or a0 * P2 + a1 * Q2 + a2 * R2 + a3 * S2 != b0 * p2 + b1 * q2 + b2 * r2 + b3 * s2
                or a0 * P3 + a1 * Q3 + a2 * R3 + a3 * S3 != b0 * p3 + b1 * q3 + b2 * r3 + b3 * s3
            ):
                return False
    return True


def _content(ring):
    """The gcd n of the minors of a quartic ring, and the minors, read off its table.

    Returns ``(n, m)``, ``m`` the minors as a tuple in ``_MINORS`` order
    (:func:`_lambda_from_c`).  The table must be in the normalized basis,
    c_12^1 = c_23^2 = c_13^3 = 0, as the minors are read off it by that
    basis: otherwise a :class:`~smallrank.errors.DomainError`.
    n = 0, all minors zero, is a :class:`~smallrank.errors.TrivialRing`.
    """
    t = _of(QuarticRing, ring)._t
    if t[1][2][1] or t[2][3][2] or t[1][3][3]:
        raise DomainError("resolvents need the normalized basis, c_12^1 = c_23^2 = c_13^3 = 0")
    m = _lambda_from_c(t)
    n = gcd(*m)
    if n == 0:
        raise TrivialRing("all minors vanish; no rank-2 quotient structure exists")
    return n, m


def _resolvent_data(ring):
    """Content, mu-vectors and minimal lattice of a quartic ring, on integers.

    Returns ``(content, mu, h, den)``: ``content`` is the gcd of the minors
    (:func:`_content`, with its checks), ``mu`` lists, for the six
    coefficient slots, integer rows over ``den`` whose pairwise dets are
    exactly the minors, and ``h`` is the integer HNF of the lattice the
    mu's span, over the same ``den``.  Both are checked on every call: the
    dets of the mu's against the minors, and the covolume of ``h`` against
    ``content``, which also checks :func:`_content` against the minors.  The
    minors satisfy the Plucker relations: a QuarticRing is associative, so
    in the normalized basis its constants are forced and its table is that
    of :func:`ring_from_pair` on its own minors, whose associator
    coordinates span the Plucker quadrics over Q.
    """
    content, m = _content(ring)

    # the first nonzero minor d = lam(x, y), x < y; mu_z = (-lam(y,z)/d,
    # lam(x,z)) has mu_x = (1, 0) and mu_y = (0, d), here over |d|
    k = next(k for k, v in enumerate(m) if v)
    (x, y), d = _MINORS[k], m[k]
    s, den = (1 if d > 0 else -1), abs(d)
    mu = tuple((-s * sy * m[iy], den * sx * m[ix]) for (sx, ix), (sy, iy) in zip(_SIGNED[x], _SIGNED[y]))
    for (u, v), e in zip(_MINORS, m):
        if mat2_det((mu[u], mu[v])) != e * d * d:
            raise InvariantViolation("mu realization does not reproduce the minors")

    h = _hnf_int(mu)
    if mat2_det(h) != content * d * d:
        raise InvariantViolation("covolume of the mu-lattice must equal the minor gcd")
    return content, mu, h, den


def _enlargement(n, h, d, b):
    # the integer HNF, over den * n, of the index-n enlargement M of the
    # mu-lattice (integer HNF h = ((alpha, beta), (0, delta)) over den) with
    # n*M = ((n/d, b), (0, d)) * h, for d | n and 0 <= b < d, written down:
    # that product is ((n/d*alpha, n/d*beta + b*delta), (0, d*delta)), upper
    # triangular with positive pivots, so its HNF only reduces the corner
    (alpha, beta), (_, delta) = h
    e = n // d
    return (e * alpha, (e * beta + b * delta) % (d * delta)), (0, d * delta)


def count_numerical_resolvents(ring):
    """Number of rank-2 lattices receiving the ring's quadratic structure.

    Equals the sum of divisors of the minor gcd.  The table must be in the
    normalized basis of a pair, c_12^1 = c_23^2 = c_13^3 = 0, as the minors
    are read off it by that basis.  Raises
    :class:`~smallrank.errors.TrivialRing` when all minors vanish, and
    :class:`~smallrank.errors.DomainError` when the table is not in the
    normalized basis, so that no pair gives it in this basis.
    Cost: the 15 minors read off the table and their gcd
    (:func:`_content`), then its ``divisors``: one ``factorize``, one
    product each.  No mu-vector or HNF is computed.  A
    ``QuarticRing`` is associative and its minors satisfy Plucker, so the
    table is checked for neither here.
    """
    return sum(divisors(_content(ring)[0]))


def enumerate_numerical_resolvents(ring):
    """All lattices M between the minimal mu-lattice and its n-fold shrink.

    Enumerates, for ``n`` the minor gcd, the index-``n`` superlattices of the
    minimal lattice inside Q^2 (one per 2x2 column-style HNF with det n);
    returns their canonical bases, pairwise distinct, ``sigma(n)`` in all.
    The table must be in the normalized basis (:func:`count_numerical_resolvents`).
    Cost: the resolvent data (:func:`_resolvent_data`: the minors, their
    mu-vectors, the rank-2 HNF of the six of them, one xgcd fold, and its
    checks), then one ``factorize(n)``, n divisibility tests for the count check, and one
    :func:`_enlargement` per lattice, sigma(n) > n of them.
    """
    n, _, h, den = _resolvent_data(ring)
    # Index-n enlargements M of the mu-lattice (integer HNF h over den) biject
    # with its index-n sublattices S = n*M: one per row-style Hermite form
    # ((n/d, b), (0, d)), 0 <= b < d.  Their HNFs are distinct: the second
    # pivot d*delta fixes d, and then the corner (n/d*beta + b*delta) mod
    # d*delta fixes b, as b*delta runs over distinct residues mod d*delta.
    out = [_enlargement(n, h, d, b) for d in divisors(n) for b in range(d)]
    # sigma(n) by trial division, with no second factorize(n): n tests,
    # fewer than the lattices built
    if len(out) != sum(d for d in range(1, n + 1) if n % d == 0):
        raise InvariantViolation("need sigma(%d) resolvent lattices, got %d" % (n, len(out)))
    return [_unscaled(rows, den * n) for rows in out]


def pair_from_ring(ring):
    """A rank-2 quotient datum and a witness pair reproducing the ring.

    Returns ``(MinimalResolvent(lattice, content), witness_pair)`` where the
    witness is the pair of ternary forms obtained by expressing the intrinsic
    quadratic map in the coordinates of the first enumerated lattice; by
    construction ``ring_from_pair(witness_pair)`` equals ``ring`` exactly,
    so the table must be in the normalized basis of a pair
    (:func:`count_numerical_resolvents`).
    Cost: the resolvent data (:func:`_resolvent_data`: the minors, their
    mu-vectors, the rank-2 HNF of the six of them, one xgcd fold, and its
    checks), then one 2x2 coordinate solve and the witness check: the
    witness's table, built as :func:`ring_from_pair` builds it (the 15
    minors, then 17 integer products for the constants) with no
    associativity check, compared with the ring's.  The witness is not
    validated: it is two 6-tuples of the ints of the solve.  The ring
    passed the associativity check when it was built, so a table equal to
    it passes it too, and a table that is not equal raises
    :class:`~smallrank.errors.InvariantViolation`.
    """
    n, mu, h, den = _resolvent_data(ring)
    # the first of enumerate_numerical_resolvents: divisor 1, offset 0
    chosen = _enlargement(n, h, 1, 0)
    # both over den * n, so the common denominator cancels
    coords = _coords2(chosen, [(n * e, n * f) for e, f in mu])
    if coords is None:
        raise InvariantViolation("mu-vectors must be integral in lattice coords")
    witness = tuple(zip(*coords))
    if _table_of(_minors(*witness)) != ring:
        raise InvariantViolation("witness pair must rebuild the identical table")
    return MinimalResolvent(lattice=_unscaled(h, den), content=n), witness


def cubic_resolvent_form(pair):
    """The integral binary cubic form ``4 det(A x + B y)`` of a pair.

    With ``m_ij = a_ij x + b_ij y`` ranging over the six coefficient slots,
    the determinant of the symmetric matrix with halved off-diagonal entries
    expands to the integral cubic

        g(x, y) = 4 m11 m22 m33 + m12 m13 m23 - m11 m23^2 - m22 m13^2 - m33 m12^2.

    The form ``p x^3 + q x^2 y + r x y^2 + s y^3`` is written out as
    straight-line integer sums: p = g(1, 0) and s = g(0, 1) are 4 det(A)
    and 4 det(B) expanded, and q and r are their polarizations, the sum
    over the factors of each term of the term with that one factor taken
    from B (for q) or A (for r) instead.
    """
    (a0, a1, a2, a3, a4, a5), (b0, b1, b2, b3, b4, b5) = _coerce_pair(pair)
    return (
        4 * a0 * a1 * a2 + a3 * a4 * a5 - a0 * a5 * a5 - a1 * a4 * a4 - a2 * a3 * a3,
        4 * (b0 * a1 * a2 + a0 * b1 * a2 + a0 * a1 * b2)
        + b3 * a4 * a5 + a3 * b4 * a5 + a3 * a4 * b5
        - (b0 * a5 + 2 * a0 * b5) * a5 - (b1 * a4 + 2 * a1 * b4) * a4 - (b2 * a3 + 2 * a2 * b3) * a3,
        4 * (a0 * b1 * b2 + b0 * a1 * b2 + b0 * b1 * a2)
        + a3 * b4 * b5 + b3 * a4 * b5 + b3 * b4 * a5
        - (a0 * b5 + 2 * b0 * a5) * b5 - (a1 * b4 + 2 * b1 * a4) * b4 - (a2 * b3 + 2 * b2 * a3) * b3,
        4 * b0 * b1 * b2 + b3 * b4 * b5 - b0 * b5 * b5 - b1 * b4 * b4 - b2 * b3 * b3,
    )


def disc_match(pair):
    """Whether the ring discriminant equals the resolvent form discriminant."""
    return ring_from_pair(pair).disc() == cubic_form_disc(cubic_resolvent_form(pair))


def resolvent_identity_check(pair, x):
    """Check the degree-3 / degree-2 determinant identity at one element.

    ``x`` is an element of the rank-3 quotient of the ring of ``pair``,
    given by its three xi-coordinates.  The identity compares the volume
    spanned by the xi-shadows of x, x^2, x^3 with the area spanned in the
    resolvent cubic ring by the image of x under the quadratic map and the
    square of that image.  In the basis of the cubic ring built from the
    resolvent form, the image of x has coordinates (B(x), -A(x)); this
    symplectic twist is forced by the orientation conventions of the two
    form/ring dictionaries and was fixed by exact evaluation on generic
    pairs (any other sign/order combination fails).
    """
    a, b = _coerce_pair(pair)
    x1, x2, x3 = _ints(x, 3, "coordinates")
    ring = ring_from_pair(pair)
    e = (0, x1, x2, x3)
    e2 = ring.mul(e, e)
    _, u1, u2, u3 = e2
    _, v1, v2, v3 = ring.mul(e2, e)
    # the 3x3 determinant of the xi-shadows, by cofactors along x's row
    lhs = x1 * (u2 * v3 - u3 * v2) - x2 * (u1 * v3 - u3 * v1) + x3 * (u1 * v2 - u2 * v1)

    av = _ternary_eval(a, (x1, x2, x3))
    bv = _ternary_eval(b, (x1, x2, x3))
    cub = ring_from_cubic_form(cubic_resolvent_form(pair))
    y = (0, bv, -av)
    y2 = cub.mul(y, y)
    rhs = mat2_det((y[1:], y2[1:]))
    return lhs == rhs


def _radical(ring, p):
    """The nilradical R of Q/pQ, as the rows of its RREF basis over F_p.

    The ring may have any rank n; its table row ``_t[0]`` is the unit basis.
    R is the kernel of x -> x^q, with q the least power of p that is >= n
    (a nilpotent element of a rank-n algebra has x^n = 0).  That map is
    Frobenius iterated, so it is F_p-linear: its matrix has the rows e_i^q,
    and the RREF of [matrix | I] over F_p ends with the rows [0 | b], an
    RREF basis of its kernel.  The row of e_0 = 1 is written down; each
    other e_i^q is squared once per bit of q below the top one, and
    multiplied by e_i after each square whose bit is set, left to right,
    the first square e_i^2 read off the table row ``_t[i][i]``, with no
    product by 1 and no square past the top bit.  Then one n x 2n RREF.
    """
    t = ring._t
    unit = t[0]
    n = len(unit)
    q = p
    while q < n:
        q *= p
    rows = [unit[0] + unit[0]]
    for i, e in enumerate(unit[1:], 1):
        power = tuple(x % p for x in t[i][i])  # the first square, e_i^2, is a table row
        for k, bit in enumerate(bin(q)[3:]):
            if k:
                power = tuple(x % p for x in ring.mul(power, power))
            if bit == "1":
                power = tuple(x % p for x in ring.mul(power, e))
        rows.append(power + e)
    return [row[n:] for row in _rref_mod_p(rows, p) if not any(row[:n])]


def _radical_subspaces(radical, p):
    """The nonzero subspaces of the span of RREF rows B = (b_1..b_s) over F_p.

    Each subspace is yielded as its RREF rows, a new list each time.  If C
    is in RREF then so is C*B, with pivot columns those of B picked by C's
    pivots, and an entry of C*B off B's pivot columns depends only on the
    entries of C to its left.  So the subspaces come out in the order of
    dimension, pivot columns and free entries in row-major order, both of C
    over F_p^s and of C*B over F_p^n.  Row a of C*B is b_(c_a) plus v*b_c
    for each free entry v of C in row a, column c; the rows are built one
    step at a time, each step adding one b_c mod p, so nothing is stored
    beyond the current candidate.  There are sum_(r=1..s) [s r]_p of them
    (Gaussian binomials).
    """
    s = len(radical)
    for r in range(1, s + 1):
        for pivots in combinations(range(s), r):
            rows = [radical[c] for c in pivots]
            steps = [(a, radical[c]) for a, i in enumerate(pivots) for c in range(i + 1, s) if c not in pivots]
            digits = [0] * len(steps)
            while True:
                yield list(rows)
                # the next free entries in row-major order, the last one
                # least significant: it steps up by one, and an entry that
                # wraps from p - 1 to 0 (its p-th step adds p*b_c = 0 mod p)
                # carries into the entry before it
                for k in reversed(range(len(steps))):
                    a, b = steps[k]
                    rows[a] = tuple((x + y) % p for x, y in zip(rows[a], b))
                    digits[k] = (digits[k] + 1) % p
                    if digits[k]:
                        break
                else:
                    break


def is_maximal_at_p(ring, p):
    """Decide whether a nondegenerate quartic ring is maximal at a prime.

    Candidate enlargements are ``Q' = Q + (1/p) L`` with ``L/pQ`` a nonzero
    subspace of Q/pQ, and each is tested for multiplicative closure.  Only
    subspaces of the nilradical R of Q/pQ need testing: if Q' is closed,
    then for v in L, (v/p)^2 lies in Q', so v^2 lies in p^2 Q' within pQ and
    v is nilpotent mod p; hence L/pQ lies in R, which never contains 1.
    Since dim R <= 3, at most 2p^2 + 2p + 3 candidates are tested, in the
    order of dimension, pivot columns and free entries of their RREF over
    F_p.  None is tested, and the radical is not computed, when p^2 does not
    divide the discriminant: an overring Q' of index p^k has
    disc(Q) = p^(2k) disc(Q'), so there is none.

    Each candidate is decided over F_p, with no HNF.  Let w_1..w_r be its
    RREF rows, entries in [0, p), and W their span mod p.  Then
    L = pQ + sum Z*w_a, Q' = L/p, and Q' is a ring iff L*L lies in pL.
    A product of two generators p*e_i lies in p^2 Q, within pL.
    p*e_i * w_a lies in pL iff e_i*w_a mod p lies in W, which holds for
    e_0 = 1.  w_a*w_b lies in pL iff it is 0 mod p and (w_a*w_b/p) mod p
    lies in W.  So Q' is a ring iff (ii) w_a*w_b = 0 mod p and
    (w_a*w_b/p) mod p lies in W for every a <= b, tested first as it
    rejects most candidates, and (i) e_i*w_a mod p lies in W for every
    i >= 1 (W is an ideal of Q/pQ): at most r(n-1) + r(r+1)/2 products
    for a ring of rank n, each membership one reduction against W's
    pivot columns.  Returns ``(True, None)`` if no enlargement is closed,
    else ``(False, basis)`` with the canonical basis of the first ring
    found in that order: H/p, for H the integer HNF of L, checked closed
    under multiplication; a failure raises
    :class:`~smallrank.errors.InvariantViolation`.
    The ring was checked associative when it was built, so it is not
    checked here.

    Cost: one discriminant, and nothing more when p^2 does not divide it.
    Otherwise the radical, n - 1 powers e_i^q of floor(log2(q)) +
    popcount(q) - 2 products each and one n x 2n RREF over F_p (n = 4: 3
    products at p = 2, q = 4; 9 at p = 3, q = 9; at most 6*log2(p) - 3 at
    p > 3, q = p), then at most 2p^2 + 2p + 3 candidates of at most
    r(n-1) + r(r+1)/2 products each, for a candidate of dimension r, and
    n(n+1)/2 for the witness's closure check.  No integer HNF is built.
    The walk stays O(p^2): the totally ramified pair
    ``((0, -1, 0, 0, 1, 0), (p, 0, 1, 0, 0, 0))``, maximal at p, walks all
    20,607 candidates at p = 101.
    """
    return _maximal_at_p(_of(QuarticRing, ring), p)


def _closed_mod_p(ring, rows, p):
    # whether Q' = (pQ + L)/p is a ring, for L spanned mod pQ by the RREF
    # rows w_a over F_p; the proof is in is_maximal_at_p.  Since the rows
    # are in RREF, v lies in W = span(w_a) mod p iff v - sum v[c_a] w_a
    # vanishes mod p, with c_a the pivot column of w_a: the pivot 1 is the
    # first nonzero entry, and no other row has an entry in column c_a
    pivot_rows = [(row.index(1), row) for row in rows]

    def in_w(v):
        for c, w in pivot_rows:
            k = v[c]
            if k:
                v = [x - k * y for x, y in zip(v, w)]
        return not any(x % p for x in v)

    for a, u in enumerate(rows):
        for w in rows[a:]:
            uw = ring.mul(u, w)
            if any(t % p for t in uw) or not in_w([t // p for t in uw]):
                return False
    return all(in_w(ring.mul(e, w)) for e in ring._t[0][1:] for w in rows)


def _witness(ring, rows, p):
    # the enlargement Q' = H/p of a closed candidate, H the integer HNF of
    # pQ + L written down from its RREF rows w_a, checked closed by the
    # integer test: each H_i*H_j lies in pH, one substitution pass as p*H
    # is an HNF
    n = len(ring._t)
    h = _hnf_from_rref(rows, p, n)
    ph = [[p * e for e in row] for row in h]
    for i in range(n):
        for j in range(i, n):
            if _hnf_coords(ph, ring.mul(h[i], h[j])) is None:
                raise InvariantViolation("enlargement witness is not closed under multiplication")
    return _unscaled(h, p)


def _maximal_at_p(ring, p):
    # is_maximal_at_p on a ring of any rank
    d = ring.disc()
    if d == 0:
        raise DegenerateRing("maximality is undefined for discriminant zero")
    _prime(p)
    if d % (p * p):
        return (True, None)
    for rows in _radical_subspaces(_radical(ring, p), p):
        if _closed_mod_p(ring, rows, p):
            return (False, _witness(ring, rows, p))
    return (True, None)


#: The divisibility patterns of :func:`nonmaximality_conditions_witness`,
#: in precedence order: the tag, then for each of the 12 coefficients of
#: ``A`` and ``B`` in storage order the exponent e with p^e dividing it
#: (0 for no condition).
_NONMAXIMALITY_PATTERNS = (
    ("c", (2, 2, 0, 2, 1, 1, 0, 0, 0, 0, 0, 0)),
    ("d", (1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0)),
    ("a", (2, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0)),
    ("b", (1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0)),
)


def nonmaximality_conditions_witness(pair, p):
    """Coefficient-divisibility certificate of nonmaximality at a prime.

    Tests the four sufficient divisibility patterns on the given coefficients
    of the pair and returns the tag of the first that matches, in the fixed
    precedence order ``c, d, a, b`` (later patterns are special cases of
    earlier ones for some inputs, and this order keeps the returned tag the
    most specific).  Returns ``"none"`` when no pattern matches; the patterns
    are sufficient but not necessary, so ``"none"`` carries no maximality
    claim.  ``p`` must be a prime, as for :func:`is_maximal_at_p`.
    """
    a, b = _coerce_pair(pair)
    _prime(p)
    powers = (1, p, p * p)
    for tag, exponents in _NONMAXIMALITY_PATTERNS:
        for v, e in zip(a + b, exponents):
            if v % powers[e]:
                break
        else:
            return tag
    return "none"
