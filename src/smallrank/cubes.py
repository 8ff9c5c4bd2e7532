"""2x2x2 integer cubes and the composition law on balanced ideal triples.

A cube is a tuple (a, b, c, d, e, f, g, h) holding the entries a_ijk in
lexicographic index order: a=a111, b=a112, c=a121, d=a122, e=a211, f=a212,
g=a221, h=a222.  Slicing along each axis and taking negated determinants
yields three binary quadratic forms of equal discriminant; the cube
parametrizes a triple of ideals over the ring Z[xi] with xi^2 = t*xi - u,
where t and u are the symmetric cube invariants below.
"""

from collections import namedtuple

from .errors import (
    Degenerate, DomainError, InvariantViolation, NotBalanced, NotInGamma, RingMismatch,
    UnsupportedDiscriminant, _ints, _matrix, _of,
)
from .exactlattice import _coords2, _form_act, _unscaled, mat2_det
from .quadforms import content, discriminant, represent
from .quadrings import (
    QuadIdeal,
    QuadraticRing,
    conjugate,
    form_from_ideal,
    ideal_from_form,
    ideal_norm,
    multiply,
    raw_form,
    ring_from_disc,
    scale,
)

BalancedTriple = namedtuple("BalancedTriple", ["ring", "ideals"])


def _slice_forms(q):
    # forms in slice order (first, second, third index)
    a, b, c, d, e, f, g, h = q
    f1 = (b * c - a * d, b * g + c * f - a * h - d * e, f * g - e * h)
    f2 = (b * e - a * f, b * g + d * e - a * h - c * f, d * g - c * h)
    f3 = (c * e - a * g, c * f + d * e - a * h - b * g, d * f - b * h)
    return f1, f2, f3


def _cube(q):
    # the one gate on a cube; the private helpers below take its output
    return _ints(q, 8, "cube entries")


def _invariants(q):
    a, b, c, d, e, f, g, h = q
    t = a * h + b * g + c * f + d * e
    u = (
        a * b * g * h + a * c * f * h + a * d * e * h
        + b * c * f * g + b * d * e * g + c * d * e * f
        - a * d * f * g - b * c * e * h
    )
    return t, u


def _forms(q):
    f1, f2, f3 = _slice_forms(q)
    t, u = _invariants(q)
    for f in (f1, f2, f3):
        if discriminant(f) != t * t - 4 * u:
            raise InvariantViolation("associated form %r has the wrong discriminant" % (f,))
    return f1, f3, f2


def associated_forms(q):
    """The three associated forms, in display order (phi1, phi3, phi2)."""
    return _forms(_cube(q))


def _ring(q):
    if any(f == (0, 0, 0) for f in _slice_forms(q)):
        raise Degenerate("a pair of opposite faces is linearly dependent")
    return QuadraticRing(*_invariants(q))


def ring_of_cube(q) -> QuadraticRing:
    """The quadratic ring (t, u) of a nondegenerate cube."""
    return _ring(_cube(q))


def triple_from_cube(q) -> BalancedTriple:
    """Reconstruct the balanced ideal triple of a nondegenerate cube.

    The first two ideals come from the associated forms with their standard
    bases; the third ideal's basis is the unique solution of the eight
    coefficient equations xi-coeff(x_i * y_j * z_k) = a_ijk.
    """
    return _triple(_cube(q))[0]


def _triple(q):
    # triple_from_cube on a checked cube, with the eight triple products over
    # their denominator that its balancedness check computed
    f1, f2, f3 = _slice_forms(q)
    ring = _ring(q)
    i1 = ideal_from_form(f1, ring)
    i2 = ideal_from_form(f2, ring)
    # xi-coeff(w*z) = w[1]*z0 + (w[0] + t*w[1])*z1 with w = x_i*y_j; on the
    # integer rows, over den = den1*den2, z_k solves rows * z_k = den * a_ijk.
    den = i1.den * i2.den
    rows = []
    for x in i1.rows:
        for y in i2.rows:
            w = ring.mul(x, y)
            rows.append((w[1], w[0] + ring.t * w[1]))
    # the rows have rank 2: i1 holds a unit x of Q[xi] (a field, Q x Q or
    # Q[eps]), and x*i2 already spans, so some pair (r, s) is independent
    r, s = next((r, s) for r in range(4) for s in range(r + 1, 4) if mat2_det((rows[r], rows[s])))
    det = abs(mat2_det((rows[r], rows[s])))
    # z_k times det, as coordinates against the transpose of rows r and s;
    # _coords2 never returns None, as right-hand sides that are multiples of
    # det make each Cramer numerator divisible by det
    rhs = [[den * det * q[2 * n + k] for n in range(4)] for k in range(2)]  # n = 2i + j
    zs = _coords2(tuple(zip(rows[r], rows[s])), [(c[r], c[s]) for c in rhs])
    if not all(a * z0 + b * z1 == c for (z0, z1), cs in zip(zs, rhs) for (a, b), c in zip(rows, cs)):
        raise InvariantViolation("third ideal of the cube does not solve all four equations")
    i3 = QuadIdeal._from_rows(ring, zs, det)
    if raw_form(i3) != f3:
        raise InvariantViolation("third ideal of the cube does not have the third form %r" % (f3,))
    balanced = _balanced_products(i1, i2, i3)
    if balanced is None:
        raise InvariantViolation("triple rebuilt from the cube is not balanced")
    return BalancedTriple(ring, (i1, i2, i3)), balanced


def _ideals(triple):
    # the three ideals of a triple argument, each checked by errors._of and
    # checked to live over the triple's ring, itself checked by errors._of
    ring, ideals = _of(BalancedTriple, triple)
    _of(QuadraticRing, ring)
    if not isinstance(ideals, (tuple, list)) or len(ideals) != 3:
        raise DomainError("a triple holds three ideals, got %r" % (ideals,))
    if any(_of(QuadIdeal, i).ring != ring for i in ideals):
        raise RingMismatch("ideals live over a ring other than the triple's")
    return tuple(ideals)


def _balanced_products(i1, i2, i3):
    # the eight products x_i*y_j*z_k of the integer rows of a balanced
    # triple of ideals over one ring, in cube order, and the product of the
    # three denominators they are over; None for a triple that is not
    # balanced
    ring = i1.ring
    if i2.ring != ring or i3.ring != ring:
        raise RingMismatch("ideals live over different rings")
    den = i1.den * i2.den * i3.den
    # norm product 1, as N(i) = |det(rows)| / den_i^2
    if abs(mat2_det(i1.rows) * mat2_det(i2.rows) * mat2_det(i3.rows)) != den * den:
        return None
    mul = ring.mul
    products = [mul(w, z) for w in [mul(x, y) for x in i1.rows for y in i2.rows] for z in i3.rows]
    if any(c % den for w in products for c in w):
        return None
    return products, den


def is_balanced(i1, i2, i3) -> bool:
    """Norm product 1 and all triple products of basis elements integral."""
    return _balanced_products(*(_of(QuadIdeal, i) for i in (i1, i2, i3))) is not None


def cube_from_triple(triple):
    """Cube of a balanced triple with respect to the stored ideal bases."""
    balanced = _balanced_products(*_ideals(triple))
    if balanced is None:
        raise NotBalanced("triple fails the balancedness conditions")
    products, den = balanced
    return tuple(w[1] // den for w in products)


def tau_system(q):
    """All eight products tau[i][j][k] = x_i * y_j * z_k of the triple bases."""
    _, (products, den) = _triple(_cube(q))
    t = _unscaled(products, den)
    return ((tuple(t[0:2]), tuple(t[2:4])), (tuple(t[4:6]), tuple(t[6:8])))


def gamma_act(ms, q):
    """Twisted action of a GL2(Z)^3 triple with determinant product 1."""
    try:
        m1, m2, m3 = ms = tuple(map(_matrix, ms))
    except (TypeError, ValueError):
        raise DomainError("need three 2x2 integer matrices, got %r" % (ms,))
    q = _cube(q)
    dets = []
    for m in ms:
        det = mat2_det(m)
        if det not in (1, -1):
            raise NotInGamma("matrix determinant %d" % det)
        dets.append(det)
    if dets[0] * dets[1] * dets[2] != 1:
        raise NotInGamma("determinant product %d" % (dets[0] * dets[1] * dets[2]))
    # one degree-1 substitution per axis: a_ijk sits at 4i + 2j + k, so the
    # matrix of the axis with that stride acts on each pair of entries
    # (q[i], q[i + stride]) with i & stride == 0, a linear form in (x, y)
    out = list(q)
    for m, stride in ((m1, 4), (m2, 2), (m3, 1)):
        for i in range(8):
            if not i & stride:
                out[i], out[i + stride] = _form_act(m, (out[i], out[i + stride]))
    new = tuple(out)
    t0, u0 = _invariants(q)
    t1, u1 = _invariants(new)
    if t1 * t1 - 4 * u1 != t0 * t0 - 4 * u0:
        raise InvariantViolation("gamma action changed the discriminant of the cube")
    return new


def _scalar_candidates(src, dst):
    # all gamma with gamma*src == dst, for src and dst of one form.  One form
    # gives one multiplier ring O and one content c, and a lattice is
    # invertible over its multiplier ring: src*conj(src) == k*O with
    # k = c*N(src), so M = (dst : src) = dst*conj(src) / k.  A gamma in M maps
    # src into dst, and onto it iff N(gamma) = N(dst)/N(src), as then
    # gamma*src has the covolume of dst.  The HNF basis (w1, w2) of k*M has
    # det > 0, so N(x*w1 + y*w2) = N(k*M)*raw_form(k*M)(x, y), and the
    # candidates (x*w1 + y*w2)/k are the representations of
    # N(dst)/(N(src)*N(M)) by raw_form(k*M).  That is an integer: one form
    # gives dst = g*src for some g in K, so M = g*O, N(M) = N(g)*N(O), and
    # the value is 1/N(O) = [O : Z[xi]]
    k = content(raw_form(src)) * ideal_norm(src)
    km = multiply(dst, conjugate(src))
    value = ideal_norm(dst) * k * k / (ideal_norm(src) * ideal_norm(km))
    if value.denominator != 1:
        raise InvariantViolation("scalars onto %r would need norm form value %s" % (dst, value))
    (a, b), (c, d) = km.basis
    reps = represent(raw_form(km), value.numerator)
    return [((x * a + y * c) / k, (x * b + y * d) / k) for x, y in reps]


def triples_equivalent(t1, t2) -> bool:
    """Do scalars (g1, g2, g3) with product 1 map one triple onto the other?

    Cost: six ``form_from_ideal``; for each of the first two ideals, one
    ``conjugate`` and one ``multiply`` for the colon ideal (dst : src) and
    one ``represent`` of [O : Z[xi]] by its norm form; and at most 6 * 6
    ``scale``, one per pair of scalars.
    """
    i1, i2, i3, j1, j2, j3 = _ideals(t1) + _ideals(t2)
    ring = t1.ring
    if t2.ring != ring:
        raise RingMismatch("triples live over different rings")
    if ring.disc >= 0:
        raise UnsupportedDiscriminant("scalar search needs a definite norm form")
    for a, b in ((i1, j1), (i2, j2), (i3, j3)):
        if form_from_ideal(a) != form_from_ideal(b):
            return False
    # g3*i3 == j3 with g3 = (g1*g2)^-1 iff i3 == g1*g2*j3
    c2 = _scalar_candidates(i2, j2)
    return any(scale(j3, ring.mul(g1, g2)) == i3 for g1 in _scalar_candidates(i1, j1) for g2 in c2)


def identity_cube(d):
    """Cube whose three associated forms are the principal form of d."""
    ring = ring_from_disc(d)
    return (0, 1, 1, ring.t, 1, ring.t, ring.t, ring.t - ring.u)


def dirichlet_cube(d, f, g, h):
    """Classical composition data: forms (-d, h, f*g), (-g, h, d*f), (-f, h, d*g)."""
    d, f, g, h = _ints((d, f, g, h), 4)
    return (1, 0, 0, d, 0, f, g, -h)
