"""Integral binary quadratic forms: twisted GL2 action, reduction,
Gauss composition and class groups.

A form (a, b, c) means a*x^2 + b*x*y + c*y^2.  The GL2(Z) action is
twisted by the determinant: (M.f)(v) = f(vM) / det M, so both proper and
improper equivalences preserve the discriminant.
"""

from math import gcd, isqrt

from .errors import (
    DiscriminantMismatch,
    NotPositiveDefinite,
    NotPrimitive,
    NotUnimodular,
    UnsupportedDiscriminant,
)
from .exactlattice import mat2_det, xgcd

IDENTITY = ((1, 0), (0, 1))


def discriminant(f) -> int:
    a, b, c = f
    return b * b - 4 * a * c


def content(f) -> int:
    a, b, c = f
    return gcd(gcd(abs(a), abs(b)), abs(c))


def mat2_mul(m1, m2):
    return (
        (m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0], m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]),
        (m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0], m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]),
    )


def twisted_act(m, f):
    """Determinant-twisted action of m in GL2(Z) on the form f."""
    det = mat2_det(m)
    if det not in (1, -1):
        raise NotUnimodular("determinant %d" % det)
    a, b, c = f
    (p, q), (r, s) = m
    a1 = (a * p * p + b * p * q + c * q * q) // det
    c1 = (a * r * r + b * r * s + c * s * s) // det
    b1 = (2 * a * p * r + b * (p * s + q * r) + 2 * c * q * s) // det
    g = (a1, b1, c1)
    assert discriminant(g) == discriminant(f)
    return g


def is_reduced(f) -> bool:
    a, b, c = f
    if not (abs(b) <= a <= c):
        return False
    return b >= 0 or (abs(b) != a and a != c)


def reduce(f):
    """Lagrange-reduce a positive definite form.

    Returns (g, m) with g reduced and twisted_act(m, f) == g.
    """
    a, b, c = f
    if discriminant(f) >= 0:
        raise UnsupportedDiscriminant("reduction implemented for negative discriminants only")
    if a <= 0:
        raise NotPositiveDefinite("leading coefficient %d <= 0; negate the form first" % a)
    m = IDENTITY
    while not is_reduced((a, b, c)):
        if a > c or (a == c and b < 0):
            # swap the two variables with a sign to flip b
            a, b, c = c, -b, a
            m = mat2_mul(((0, -1), (1, 0)), m)
        else:
            # translate so that -a < b <= a
            k = (a - b) // (2 * a)
            a, b, c = a, b + 2 * k * a, a * k * k + b * k + c
            m = mat2_mul(((1, 0), (k, 1)), m)
    g = (a, b, c)
    assert twisted_act(m, f) == g
    return g, m


def _check_disc(d):
    if d >= 0:
        raise UnsupportedDiscriminant("need a negative discriminant")
    if d % 4 not in (0, 1):
        raise UnsupportedDiscriminant("%d is not 0 or 1 mod 4" % d)


def enumerate_reduced(d):
    """All reduced forms of discriminant d < 0, imprimitive ones included."""
    _check_disc(d)
    forms = []
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            if (b - d) % 2:
                continue
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            forms.append((a, b, c))
        a += 1
    return sorted(forms)


def compose(f, g):
    """Gauss/Dirichlet composition of two primitive forms, reduced output."""
    if discriminant(f) != discriminant(g):
        raise DiscriminantMismatch("%d vs %d" % (discriminant(f), discriminant(g)))
    if content(f) != 1 or content(g) != 1:
        raise NotPrimitive("composition needs primitive forms")
    d = discriminant(f)
    if d >= 0:
        raise UnsupportedDiscriminant("composition implemented for negative discriminants only")
    a1, b1, c1 = f
    a2, b2, c2 = g
    s = (b1 + b2) // 2
    n = (b1 - b2) // 2
    g1, u1, v1 = xgcd(a1, a2)
    e, u2, w = xgcd(g1, s)
    # u*a1 + v*a2 + w*s = e with (u, v) = u2*(u1, v1)
    u, v = u2 * u1, u2 * v1
    assert u * a1 + v * a2 + w * s == e
    big_a = a1 * a2 // (e * e)
    big_b = (b2 + 2 * (a2 // e) * (v * n - w * c2)) % (2 * big_a)
    big_c = (big_b * big_b - d) // (4 * big_a)
    assert discriminant((big_a, big_b, big_c)) == d
    return reduce((big_a, big_b, big_c))[0]


def principal_form(d):
    _check_disc(d)
    if d % 4 == 0:
        return (1, 0, -d // 4)
    return (1, 1, (1 - d) // 4)


def _structure(elements, table):
    # invariant factors d1 | d2 | ... with product h, matched against
    # the statistics of solutions of x^m = identity
    h = len(elements)
    ident = elements.index(reduce(principal_form(discriminant(elements[0])))[0])
    orders = []
    for i in range(h):
        k, j = 1, i
        while j != ident:
            j = table[j][i]
            k += 1
        orders.append(k)

    def counts_match(factors):
        for m in range(1, h + 1):
            expected = 1
            for dd in factors:
                expected *= gcd(dd, m)
            if expected != sum(1 for o in orders if m % o == 0):
                return False
        return True

    def divisor_chains(h, least):
        if h == 1:
            yield ()
            return
        for dd in range(least, h + 1):
            if h % dd == 0:
                for rest in divisor_chains(h // dd, dd):
                    yield (dd,) + tuple(r for r in rest)

    for factors in divisor_chains(h, 2):
        if all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1)):
            if counts_match(factors):
                return factors
    raise AssertionError("no invariant factor decomposition matched")


def class_group(d):
    """Primitive reduced forms of discriminant d, composition table, structure.

    Returns (elements, table, structure) where table[i][j] is the index of
    elements[i] * elements[j] and structure is the tuple of invariant factors.
    """
    _check_disc(d)
    elements = [f for f in enumerate_reduced(d) if content(f) == 1]
    index = {f: i for i, f in enumerate(elements)}
    table = [[index[compose(f, g)] for g in elements] for f in elements]
    return elements, table, _structure(elements, table)


def represent(f, value):
    """All integer (x, y) with f(x, y) == value, for positive definite f."""
    a, b, c = f
    d = discriminant(f)
    if d >= 0:
        raise UnsupportedDiscriminant("finite enumeration needs a definite form")
    if a <= 0:
        raise NotPositiveDefinite("leading coefficient %d <= 0" % a)
    if value < 0:
        return []
    out = []
    ybound = isqrt(4 * a * value // -d)
    for y in range(-ybound, ybound + 1):
        # a x^2 + (b y) x + (c y^2 - value) = 0
        disc = (b * y) ** 2 - 4 * a * (c * y * y - value)
        if disc < 0:
            continue
        root = isqrt(disc)
        if root * root != disc:
            continue
        for sign in ((1,) if root == 0 else (1, -1)):
            num = -b * y + sign * root
            if num % (2 * a) == 0:
                out.append((num // (2 * a), y))
    return sorted(set(out))
