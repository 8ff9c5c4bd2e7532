"""Binary cubic forms and cubic rings: the rank-3 dictionary.

A binary cubic form (p, q, r, s) stands for p*x^3 + q*x^2*y + r*x*y^2 +
s*y^3.  Its cubic ring has basis (1, xi1, xi2) and multiplication table

    xi1^2   = -b*f + a*xi1 + b*xi2
    xi1*xi2 = b*e
    xi2^2   = -a*e + e*xi1 + f*xi2

with (a, b, e, f) = (-q, p, -s, r).  The constant terms are the unique
choice making the table associative once the cross product xi1*xi2 has no
xi1, xi2 component; general tables are brought to that shape by translating
the generators.
"""

from .errors import DomainError, NotUnimodular, _int, _ints, _matrix, _of
from .exactlattice import _Ring, _form_act, mat2_det


class CubicRing(_Ring):
    """Cubic ring with normalized multiplication table, determined by (a, b, e, f).

    The ring holds its table ``_t`` over (1, xi1, xi2) alone.  ``a``, ``b``,
    ``e``, ``f`` and ``ell``, ``m``, ``n``, the constant terms of xi1^2,
    xi1*xi2 and xi2^2, are read-only views of it.
    """

    __slots__ = ()

    def __init__(self, a, b, e, f):
        a, b, e, f = _ints((a, b, e, f), 4)
        ell, m, n = -b * f, b * e, -a * e
        self._t = (
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((0, 1, 0), (ell, a, b), (m, 0, 0)),
            ((0, 0, 1), (m, 0, 0), (n, e, f)),
        )

    ell = property(lambda self: self._t[1][1][0])
    a = property(lambda self: self._t[1][1][1])
    b = property(lambda self: self._t[1][1][2])
    m = property(lambda self: self._t[1][2][0])
    n = property(lambda self: self._t[2][2][0])
    e = property(lambda self: self._t[2][2][1])
    f = property(lambda self: self._t[2][2][2])

    @classmethod
    def from_table(cls, ell, m, n, a, b, c, d, e, f):
        """Normalize a general associative table

            xi1^2   = ell + a*xi1 + b*xi2
            xi1*xi2 = m   + c*xi1 + d*xi2
            xi2^2   = n   + e*xi1 + f*xi2

        by the translation xi1 -> xi1 - d, xi2 -> xi2 - c.  An entry that
        is not an ``int`` is a :class:`~smallrank.errors.DomainError`.
        """
        ell, m, n, a, b, c, d, e, f = _ints((ell, m, n, a, b, c, d, e, f), 9, "table entries")
        a2, b2, e2, f2 = a - 2 * d, b, e, f - 2 * c
        ring = cls(a2, b2, e2, f2)
        # the normalized constants are forced; mismatches mean a bad table
        ell2 = ell + d * d + (a - 2 * d) * d + b * c
        m2 = m + c * d
        n2 = n + c * c + (f - 2 * c) * c + d * e
        if (ell2, m2, n2) != (ring.ell, ring.m, ring.n):
            raise DomainError("multiplication table is not associative")
        return ring

    def disc(self):
        """Discriminant: that of the ring's binary cubic form, disc R(f) = disc f.

        The table is normalized, so this is the determinant of the trace form
        Tr(xi_i*xi_j) (Delone-Faddeev), in closed form.
        """
        return cubic_form_disc(form_from_cubic_ring(self))

    def mul(self, x, y):
        """Product of two elements given as coordinate triples over (1, xi1, xi2)."""
        x0, x1, x2 = x
        y0, y1, y2 = y
        _, (_, (ell, a, b), (m, _, _)), (_, _, (n, e, f)) = self._t
        return (
            x0 * y0 + x1 * y1 * ell + (x1 * y2 + x2 * y1) * m + x2 * y2 * n,
            x0 * y1 + x1 * y0 + x1 * y1 * a + x2 * y2 * e,
            x0 * y2 + x2 * y0 + x1 * y1 * b + x2 * y2 * f,
        )

    def __repr__(self):
        return "CubicRing(a=%d, b=%d, e=%d, f=%d)" % (self.a, self.b, self.e, self.f)


def ring_from_cubic_form(form) -> CubicRing:
    """Cubic ring of a binary cubic form (p, q, r, s)."""
    p, q, r, s = _ints(form, 4)
    return CubicRing(-q, p, -s, r)


def form_from_cubic_ring(ring) -> tuple:
    """Binary cubic form of a normalized cubic ring; inverse of ring_from_cubic_form."""
    ring = _of(CubicRing, ring)
    return (ring.b, -ring.a, ring.f, -ring.e)


def _cubic_eval(form, x, y):
    p, q, r, s = form
    return p * x**3 + q * x * x * y + r * x * y * y + s * y**3


def cubic_form_disc(form) -> int:
    """Discriminant 18pqrs - 4q^3 s + q^2 r^2 - 4p r^3 - 27 p^2 s^2."""
    p, q, r, s = form
    return (
        18 * p * q * r * s
        - 4 * q**3 * s
        + q * q * r * r
        - 4 * p * r**3
        - 27 * p * p * s * s
    )


def values_mod(form, m) -> frozenset:
    """The set of residues the form attains modulo m.

    Cost: m^2 evaluations, one for each (x, y) modulo m.
    """
    m, form = _int(m, "modulus"), _ints(form, 4)
    if m < 2:
        raise DomainError("modulus %r below 2" % (m,))
    return frozenset(_cubic_eval(form, x, y) % m for x in range(m) for y in range(m))


def cubic_twisted_act(mat, form):
    """Substitute (x, y) -> (x, y) * mat and divide by det(mat)."""
    mat, form = _matrix(mat), _ints(form, 4)
    det = mat2_det(mat)
    if det not in (1, -1):
        raise NotUnimodular("determinant %r not a unit" % (det,))
    return tuple(e // det for e in _form_act(mat, form))  # exact, as det = +-1


def idempotents_within(ring, height=10):
    """All coordinate triples x with x*x == x and |coordinates| <= height.

    Brute-force box search: a semi-decision used to recognize split rings.
    Cost: (2*height + 1)^3 products, one for each point of the box.
    """
    ring, height = _of(CubicRing, ring), _int(height, "height")
    out = []
    rng = range(-height, height + 1)
    for x0 in rng:
        for x1 in rng:
            for x2 in rng:
                x = (x0, x1, x2)
                if ring.mul(x, x) == x:
                    out.append(x)
    return tuple(sorted(out))
