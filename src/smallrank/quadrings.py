"""Quadratic rings over Z and their fractional ideals.

A ring is Z[xi] with xi^2 = t*xi - u, stored as its table over (1, xi)
with (t, u) exactly as given (no silent normalization, so raw
presentations coming out of cube computations survive round trips).
Elements are coordinate pairs (x, y) meaning x + y*xi.  Ideals are rank-2
lattices in Q^2 stable under multiplication by xi, stored as integer rows
over their least denominator.
"""

from math import gcd
from operator import attrgetter

from .errors import (
    DimensionError,
    DomainError,
    FormRingMismatch,
    InvariantViolation,
    NotAModule,
    RankError,
    RingMismatch,
    ZeroForm,
    _ints,
    _of,
)
from .exactlattice import _Ring, _coords2, _hnf_int, _scaled, _unscaled, mat2_det
from .quadforms import (
    _disc_tu, _form_table, content, discriminant, enumerate_reduced, reduce, twisted_act,
)


class QuadraticRing(_Ring):
    """Z[xi] with xi^2 = t*xi - u, held as its table ``_t`` over (1, xi) alone.

    ``t`` and ``u`` are read-only views of the row xi*xi = (-u, t).
    """

    __slots__ = ()

    def __init__(self, t, u):
        t, u = _ints((t, u), 2)
        self._t = (((1, 0), (0, 1)), ((0, 1), (-u, t)))

    t = property(lambda self: self._t[1][1][1])
    u = property(lambda self: -self._t[1][1][0])

    @property
    def disc(self):
        return self.t * self.t - 4 * self.u

    def normalized(self):
        """Isomorphic presentation with t in {0, 1} (xi shifted by an integer)."""
        return ring_from_disc(self.disc)

    def mul(self, x, y):
        _, (_, (v, t)) = self._t  # xi^2 = v + t*xi
        return (
            x[0] * y[0] + v * x[1] * y[1],
            x[0] * y[1] + x[1] * y[0] + t * x[1] * y[1],
        )

    def conj(self, x):
        return (x[0] + self.t * x[1], -x[1])

    def norm(self, x):
        return x[0] * x[0] + self.t * x[0] * x[1] + self.u * x[1] * x[1]

    def __repr__(self):
        return "QuadraticRing(t=%d, u=%d)" % (self.t, self.u)


def ring_from_disc(d) -> QuadraticRing:
    """The quadratic ring of discriminant d in normalized presentation."""
    return QuadraticRing(*_disc_tu(d))


class QuadIdeal:
    """Fractional ideal of a quadratic ring.

    ``rows`` and ``den`` hold the basis as integer rows over one
    denominator, ``den`` the least positive such; the ideal arithmetic runs
    on them.  ``basis`` is the same basis as ``Fraction`` rows, ``rows / den``,
    and ``xi`` the matrix of multiplication by xi on it.  ``ring``, ``rows``,
    ``den`` and ``xi`` are read-only, so the form read off ``xi`` cannot
    drift from the lattice that equality and the hash compare.
    """

    __slots__ = ("_ring", "_rows", "_den", "_xi")

    ring = property(attrgetter("_ring"))
    rows = property(attrgetter("_rows"))
    den = property(attrgetter("_den"))
    xi = property(attrgetter("_xi"))

    def __init__(self, ring, basis):
        _of(QuadraticRing, ring)
        seqs = (tuple, list)
        if not isinstance(basis, seqs) or len(basis) != 2 or any(
            not isinstance(r, seqs) or len(r) != 2 for r in basis
        ):
            raise RankError("an ideal basis is two row vectors of length 2")
        self._set(ring, *_scaled(basis))

    @classmethod
    def _from_rows(cls, ring, rows, den):
        # the ideal with basis integer rows / den, den > 0
        if len(rows) != 2:
            raise RankError("an ideal basis is two row vectors of length 2")
        g = gcd(den, *(e for row in rows for e in row))
        ideal = cls.__new__(cls)
        ideal._set(ring, [[e // g for e in row] for row in rows], den // g)
        return ideal

    def _set(self, ring, rows, den):
        self._ring, self._rows, self._den = ring, tuple(map(tuple, rows)), den
        # matrix X with xi*eta_i = X[0][i]*eta_1 + X[1][i]*eta_2; RankError
        # if the rows are dependent
        x = _coords2(self._rows, [ring.mul((0, 1), row) for row in self._rows])
        if x is None:
            raise NotAModule("lattice is not xi-stable over %r" % ring)
        self._xi = tuple(zip(*x))

    @property
    def basis(self):
        return _unscaled(self.rows, self.den)

    def _key(self):
        # canonical: den is least, and the HNF keeps the gcd of the entries
        return self.ring, tuple(map(tuple, _hnf_int(self.rows))), self.den

    def __eq__(self, other):
        return isinstance(other, QuadIdeal) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "QuadIdeal(%r, %r)" % (self.ring, self.basis)


def unit_ideal(ring) -> QuadIdeal:
    return QuadIdeal._from_rows(_of(QuadraticRing, ring), ((1, 0), (0, 1)), 1)


def raw_form(ideal):
    """Associated form of the stored basis, before any reduction."""
    (a, b), (c, d) = _of(QuadIdeal, ideal).xi
    if a + d != ideal.ring.t or mat2_det(ideal.xi) != ideal.ring.u:
        raise InvariantViolation("xi on %r does not have trace t and norm u" % (ideal,))
    # so its discriminant is (a + d)^2 - 4(ad - bc) = t^2 - 4u, the ring's
    return (c, d - a, -b)


def form_from_ideal(ideal):
    """Associated form; Lagrange-reduced when the discriminant is negative."""
    f = raw_form(ideal)
    if ideal.ring.disc >= 0:
        return f
    if f[0] < 0:
        f = twisted_act(((1, 0), (0, -1)), f)  # improper twist: (-a, b, -c)
    return reduce(f)[0]


def ideal_from_form(f, ring) -> QuadIdeal:
    """The ideal whose stored basis has raw associated form exactly f."""
    f, ring = _ints(f, 3), _of(QuadraticRing, ring)
    if f == (0, 0, 0):
        raise ZeroForm("the zero form defines no ideal")
    if discriminant(f) != ring.disc:
        raise FormRingMismatch("form disc %d != ring disc %d" % (discriminant(f), ring.disc))
    p, q, r = f
    # a basis over |p|, else over |r|, else over |q|; the last two are the
    # p != 0 basis of f moved by ((0, 1), (-1, 0)) or ((1, 1), (0, 1)),
    # whose leading term is r or q, pulled back through that move
    if p != 0:
        # (1, 0), (-a/p, 1/p)
        a, sign = (ring.t - q) // 2, (1 if p > 0 else -1)
        rows, den = ((abs(p), 0), (-a * sign, sign)), abs(p)
    elif r != 0:
        # (a/r, -1/r), (1, 0)
        a, sign = (ring.t + q) // 2, (1 if r > 0 else -1)
        rows, den = ((a * sign, -sign), (abs(r), 0)), abs(r)
    else:
        # (1 + a/q, -1/q), (-a/q, 1/q)
        a, sign = (ring.t - q) // 2, (1 if q > 0 else -1)
        rows, den = ((abs(q) + a * sign, -sign), (-a * sign, sign)), abs(q)
    ideal = QuadIdeal._from_rows(ring, rows, den)
    if raw_form(ideal) != f:
        raise InvariantViolation("ideal built from %r does not have that form" % (f,))
    return ideal


def _span(ring, rows, den):
    # the ideal spanned by integer rows over den, canonical (HNF) basis
    return QuadIdeal._from_rows(ring, _hnf_int(rows), den)


def multiply(i, j) -> QuadIdeal:
    """Product ideal, canonical (HNF) basis."""
    if _of(QuadIdeal, i).ring != _of(QuadIdeal, j).ring:
        raise RingMismatch("%r vs %r" % (i.ring, j.ring))
    rows = [i.ring.mul(a, b) for a in i.rows for b in j.rows]
    return _span(i.ring, rows, i.den * j.den)


def conjugate(i) -> QuadIdeal:
    """Image under the nontrivial ring involution, canonical basis."""
    i = _of(QuadIdeal, i)
    return _span(i.ring, [i.ring.conj(row) for row in i.rows], i.den)


def ideal_norm(i) -> "Fraction":
    """Covolume relative to the ring of coefficients, always positive."""
    from fractions import Fraction

    return Fraction(abs(mat2_det(_of(QuadIdeal, i).rows)), i.den**2)


def scale(i, elt) -> QuadIdeal:
    """The ideal elt * I for a ring element elt = (x, y), canonical basis."""
    i = _of(QuadIdeal, i)
    if not isinstance(elt, (tuple, list)) or len(elt) != 2:
        raise DimensionError("a ring element has 2 coordinates, got %r" % (elt,))
    (e,), e_den = _scaled([elt])
    return _span(i.ring, [i.ring.mul(e, row) for row in i.rows], i.den * e_den)


def endomorphism_ring(i) -> QuadraticRing:
    """Multiplier ring of the lattice, in normalized presentation."""
    c = content(raw_form(i))
    return ring_from_disc(i.ring.disc // (c * c))


def is_invertible(i) -> bool:
    """Invertible as a module over its own ring (primitive associated form)."""
    return content(raw_form(i)) == 1


def inverse(i) -> QuadIdeal:
    """Inverse of an invertible ideal: conjugate divided by the norm."""
    if not is_invertible(i):
        raise DomainError("ideal is not invertible over %r" % i.ring)
    # conj(rows/den) / (det/den^2) == den * conj(rows) / det
    rows = [[i.den * e for e in i.ring.conj(row)] for row in i.rows]
    inv = _span(i.ring, rows, abs(mat2_det(i.rows)))
    if multiply(i, inv) != unit_ideal(i.ring):
        raise InvariantViolation("%r times its inverse is not the unit ideal" % (i,))
    return inv


def class_semigroup(d):
    """All reduced forms of discriminant d and their ideal-class product table.

    Returns (elements, table): table[i][j] is the index of the reduced form of
    the product of the ideals of elements[i] and elements[j].  Each product is
    one ``_compose`` of the two forms, primitive or not, and no ideal is
    built.  Conjugation (a, b, c) -> (a, -b, c) is an automorphism of the
    whole semigroup, conj(IJ) = conj(I)*conj(J), so each composition
    y = g*k also gives g*conj(y) = N*conj(k) with N = g*conj(g) once N is
    reached (``_monoid_table``).  Cost: for h reduced forms, about |d|/19 divisibility
    tests (``enumerate_reduced``), one composition per generator and one per
    orbit of the reached classes on the rest: about h/2 when most classes
    are invertible, at most 7h/3 for |d| < 3000 (21 for the 9 forms of
    d = -288), under h^2 always.  The table
    holds h^2 ints, built a row at a time: one ``bytes.translate`` per row
    for h <= 256, one gather of a list above.
    """
    ring_from_disc(d)  # checked first: its message for a bad residue names it
    elements = enumerate_reduced(d)
    return elements, _form_table(d, elements)[0]
