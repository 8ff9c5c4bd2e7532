"""Integral binary quadratic forms: twisted GL2 action, reduction,
Gauss composition and class groups.

A form (a, b, c) means a*x^2 + b*x*y + c*y^2.  The GL2(Z) action is
twisted by the determinant: (M.f)(v) = f(vM) / det M, so both proper and
improper equivalences preserve the discriminant.
"""

from collections import Counter
from itertools import accumulate, chain
from math import gcd, isqrt, lcm
from operator import itemgetter

from .errors import (
    DiscriminantMismatch,
    InvariantViolation,
    NotPositiveDefinite,
    NotPrimitive,
    NotUnimodular,
    UnsupportedDiscriminant,
    _int,
    _ints,
    _matrix,
)
from .exactlattice import _form_act, factorize, mat2_det, xgcd


def discriminant(f) -> int:
    a, b, c = f
    return b * b - 4 * a * c


def content(f) -> int:
    a, b, c = f
    return gcd(a, b, c)


def twisted_act(m, f):
    """Determinant-twisted action of m in GL2(Z) on the form f."""
    m, f = _matrix(m), _ints(f, 3)
    det = mat2_det(m)
    if det not in (1, -1):
        raise NotUnimodular("determinant %d" % det)
    g = tuple(e // det for e in _form_act(m, f))
    if discriminant(g) != discriminant(f):
        raise InvariantViolation("%r acting on %r changed the discriminant" % (m, f))
    return g


def reduce(f):
    """Lagrange-reduce a positive definite form.

    Returns (g, m) with g reduced and twisted_act(m, f) == g.
    """
    a, b, c = f = _ints(f, 3)
    if discriminant(f) >= 0:
        raise UnsupportedDiscriminant("reduction implemented for negative discriminants only")
    if a <= 0:
        raise NotPositiveDefinite("leading coefficient %d <= 0; negate the form first" % a)
    return _reduce(a, b, c)


def _reduce(a, b, c):
    # Lagrange steps on the positive definite form (a, b, c), tracking
    # m = ((p, q), (r, s)) with det m = 1: a swap multiplies m on the left by
    # ((0, -1), (1, 0)) and a translation by ((1, 0), (k, 1)).  The loop stops
    # exactly when the form is reduced; the end checks that m takes the input
    # to the output, as twisted_act would, written out because it runs on
    # every composition.
    a0, b0, c0 = a, b, c
    p, q, r, s = 1, 0, 0, 1
    while True:
        if a > c or (a == c and b < 0):
            # swap the two variables with a sign to flip b
            a, b, c = c, -b, a
            p, q, r, s = -r, -s, p, q
        elif -a < b <= a:
            break
        else:
            # translate so that -a < b <= a
            k = (a - b) // (2 * a)
            b, c = b + 2 * k * a, a * k * k + b * k + c
            r, s = r + k * p, s + k * q
    if p * s - q * r != 1 or (
        a0 * p * p + b0 * p * q + c0 * q * q,
        2 * a0 * p * r + b0 * (p * s + q * r) + 2 * c0 * q * s,
        a0 * r * r + b0 * r * s + c0 * s * s,
    ) != (a, b, c):
        raise InvariantViolation(
            "reduction matrix does not take %r to %r" % ((a0, b0, c0), (a, b, c))
        )
    return (a, b, c), ((p, q), (r, s))


def _disc_tu(d):
    # (t, u) of the normalized ring of discriminant d: t = d mod 4 in {0, 1}, u = (t - d)/4
    t = _int(d, "discriminant", UnsupportedDiscriminant) % 4
    if t > 1:
        raise UnsupportedDiscriminant("%d is not 0 or 1 mod 4" % d)
    return t, (t - d) // 4


def _check_disc(d):
    if _int(d, "discriminant", UnsupportedDiscriminant) >= 0:
        raise UnsupportedDiscriminant("need a negative discriminant")
    return _disc_tu(d)


def enumerate_reduced(d):
    """All reduced forms of discriminant d < 0, imprimitive ones included.

    Walks b >= 0 with b = d (mod 2) and 3b^2 <= -d, and the divisors a of
    N = (b^2 - d)/4 with max(b, 1) <= a and a^2 <= N, so c = N/a >= a; the
    form with -b is reduced too when 0 < b < a < c (Cohen, GTM 138, 5.3).
    An odd N has no even divisor, so then only odd a are walked.
    Cost: about |d|/19 divisibility tests, one per pair (b, a) walked:
    |d|/14.5 for d = 1 (mod 8), where every N is even, and |d|/29 for
    d = 5 (mod 8), where every N is odd.
    """
    _check_disc(d)
    forms = []
    b = d % 2
    while 3 * b * b <= -d:
        n = (b * b - d) // 4
        odd = n % 2
        for a in range(max(b, 1) | odd, isqrt(n) + 1, 1 + odd):
            if n % a == 0:
                c = n // a
                forms.append((a, b, c))
                if 0 < b < a < c:
                    forms.append((a, -b, c))
        b += 2
    return sorted(forms)


def compose(f, g):
    """Gauss/Dirichlet composition of two primitive forms, reduced output.

    Checks the input, then runs ``_compose``, the kernel that the class
    semigroup also uses for imprimitive forms; its docstring has the proof.
    Cost: two xgcd steps and one reduction.
    """
    f, g = _ints(f, 3), _ints(g, 3)
    d = discriminant(f)
    if d != discriminant(g):
        raise DiscriminantMismatch("%d vs %d" % (d, discriminant(g)))
    if content(f) != 1 or content(g) != 1:
        raise NotPrimitive("composition needs primitive forms")
    if d >= 0:
        raise UnsupportedDiscriminant("composition implemented for negative discriminants only")
    return _compose(f, g, d)


def _compose(f, g, d):
    """Reduced form of the product of the ideals of f and g, disc d < 0.

    The forms may be imprimitive.  With beta_i = (b_i + sqrt d)/2 the product
    lattice is spanned by a1*a2, a1*beta2, a2*beta1 and beta1*beta2, whose
    coefficients of sqrt(d)/2 are 0, a1, a2 and s = (b1 + b2)/2, so the least
    positive one on the lattice is e = gcd(a1, a2, s) (Dirichlet composition,
    Cohen, GTM 138, 5.4).
    The 2x2 minors of the generators are a1^2*a2, a1*a2^2, a1*a2*s, a1*a2*n,
    a1*a2*c1 and a1*a2*c2 with n = (b1 - b2)/2, so the covolume is a1*a2*k
    with k = gcd(a1, a2, s, n, c1, c2) = gcd(e, n, c1, c2), and the lattice is
    e * <A, (B + sqrt d)/2> with A = a1*a2*k/e^2; k = 1 for primitive forms.
    The Bezout vector u*a1*beta2 + v*a2*beta1 + w*beta1*beta2 has e for its
    sqrt(d)/2 coefficient and gives B; the lattice has only that vector with
    that coefficient, up to multiples of (e*A, 0), so B is right modulo 2A.
    Cost: two xgcd steps and one reduction per product.

    The multiplier ring of IJ is O(I)O(J), whose conductors combine by gcd,
    so the content of the product is the lcm of the two contents; that is
    checked on every call.
    """
    a1, b1, c1 = f
    a2, b2, c2 = g
    s = (b1 + b2) // 2
    n = (b1 - b2) // 2
    g1, u1, v1 = xgcd(a1, a2)
    e, u2, w = xgcd(g1, s)
    # u*a1 + v*a2 + w*s = e with (u, v) = u2*(u1, v1)
    u, v = u2 * u1, u2 * v1
    if u * a1 + v * a2 + w * s != e:
        raise InvariantViolation("Bezout coefficients of %r * %r do not give %d" % (f, g, e))
    big_a = a1 * a2 * gcd(e, n, c1, c2) // (e * e)
    if big_a <= 0:
        raise NotPositiveDefinite("composition of a positive and a negative definite form")
    big_b = (b2 + 2 * (a2 // e) * (v * n - w * c2)) % (2 * big_a)
    big_c = (big_b * big_b - d) // (4 * big_a)
    if discriminant((big_a, big_b, big_c)) != d:
        raise InvariantViolation("composite of %r * %r has the wrong discriminant" % (f, g))
    h = _reduce(big_a, big_b, big_c)[0]
    if gcd(*h) != lcm(gcd(a1, b1, c1), gcd(a2, b2, c2)):
        raise InvariantViolation("content of %r * %r is not the lcm of theirs" % (f, g))
    return h


def principal_form(d):
    return (1, *_check_disc(d))


def _monoid_table(n, ident, product, conj):
    """table[x][y] of a finite commutative monoid on range(n).

    conj is an automorphism of the monoid, as an index permutation.  Each g
    not yet reached is a generator, those with conj(g) != g first and then
    those with conj(g) = g, each in index order.  "Times g" reads column g
    of the reached rows R; for each other k still unknown it calls
    product(g, k) once and spreads y = g*k over the orbit of k,
    g*(r*k) = r*(g*k) for r in R.  One rule gives one more entry from the
    same product: g*conj(y) = N*conj(k) with N = g*conj(g), when row N is
    reached, because g*conj(g*k) = g*conj(g)*conj(k); N costs one product
    per generator and is itself the entry of k = conj(g).

    In a class group conj is the inverse and N the identity, so each
    product fills two cosets of R: about n/2 products in all, and always
    fewer than 2n, as without conj.  There g*conj(k) = conj(y) for a g with
    conj(g) = g would add nothing: such a g comes after every class of
    order > 2 is in R, so conj(k) = r*k and conj(y) = r*y with r = k^-2 in
    R, an entry the spreading of (k, y) has filled.  Every entry is spread
    alike, and an entry reached twice must agree.  R is then closed under
    times g, which suffices because the product commutes.  When n <= 256
    every index fits in a byte: a row is ``bytes``, and each new row is the
    old one mapped by the values of times g, row(x*g) =
    row(x).translate(times_g), as (x*g)*k = g*(x*k); the rows become lists
    once, at the end.  Above 256 a row is a list, and each new row is one
    gather of row(x) by times_g, row(x*g)[k] = x*(g*k).  Cost: the products above and n^2 byte or list
    entries, built a row at a time.

    The order of the generators changes which products are called, never
    the table.  By induction on the rows reached, row x holds x*k for every
    k.  The identity row does.  Times g starts from the reached rows,
    r*g; each pair (k1, y1) spread above has y1 = g*k1, from product(g, k1)
    or from the conj rule, an identity of every commutative monoid with
    automorphism conj, so times_g[r*k1] = r*y1 = (r*k1)*g for r in R; and a
    new row is row(x*g)[k] = times_g[x*k] = (x*k)*g.  Every g is reached by
    its own turn at the latest, so the table is the product table, whatever
    the order.  The order only sets the count.  In a class group a
    generator costs about (n/|R| - 1)/2 products and multiplies |R| by its
    order over R, so generators that grow R most should come first; a g
    with conj(g) = g is ambiguous, of order at most 2, and at most doubles
    R for a full column, so taking the others first lets more ambiguous
    classes be reached instead of adjoined.

    The two checks see a product that gives one entry two values and a
    finished table that is not symmetric; the second compares each column
    of the joined byte rows, or of the transposed lists, with its row.
    They cannot see every non-commutative product, since product(g, k) is
    only called with a generator on the left: of the 54 products on
    {0, 1, 2} with identity 0 and 1*2 != 2*1, 30 give a symmetric table.
    The callers compose ideal classes, which commute by theorem.
    """
    small = n <= 256
    rows = {ident: bytes(range(n)) if small else list(range(n))}
    moved = [g for g in range(n) if conj[g] != g]
    fixed = [g for g in range(n) if conj[g] == g]
    for g in chain(moved, fixed):
        if g in rows:
            continue
        times_g = [None] * n
        for j, row in rows.items():
            times_g[j] = row[g]
        # the reached rows R as a list: rows grows only once times g is full
        reached = list(rows.values())
        norm_g = product(g, conj[g])
        norm = rows.get(norm_g)
        # lazy: times_g[k] is tested when the loop reaches k
        products = ((k, product(g, k)) for k in range(n) if times_g[k] is None)
        for k, y in chain([(conj[g], norm_g)], products):
            entries = ((k, y),) if norm is None else ((k, y), (conj[y], norm[conj[k]]))
            for k1, y1 in entries:
                for row in reached:
                    x, z = row[k1], row[y1]
                    if times_g[x] is None:
                        times_g[x] = z
                    elif times_g[x] != z:
                        raise InvariantViolation("monoid table must be symmetric")
        # a translate table has 256 entries, and no row holds the padding;
        # above 256 the gather has n > 1 indices, so it returns a tuple
        by_g = bytes(times_g).ljust(256) if small else itemgetter(*times_g)
        todo = list(rows)
        while todo:
            x = todo.pop()
            y = times_g[x]
            if y not in rows:
                rows[y] = rows[x].translate(by_g) if small else list(by_g(rows[x]))
                todo.append(y)
    table = [rows[x] for x in range(n)]
    if small:
        flat = b"".join(table)
        for j, row in enumerate(table):
            if flat[j::n] != row:
                raise InvariantViolation("monoid table must be symmetric")
        return [list(row) for row in table]
    if table != [list(col) for col in zip(*table)]:
        raise InvariantViolation("monoid table must be symmetric")
    return table


def _form_table(d, elements):
    # (table, ident): the _monoid_table of the reduced forms of discriminant
    # d < 0 in elements, one _compose per product, and the index of the
    # principal form; conj maps (a, b, c) to (a, -b, c), and a form whose
    # conjugate is not reduced (b = 0, b = a or a = c) is equivalent to it
    index = {f: i for i, f in enumerate(elements)}
    ident = index[principal_form(d)]
    conj = [index.get((a, -b, c), i) for i, (a, b, c) in enumerate(elements)]

    def product(i, j):
        return index[_compose(elements[i], elements[j], d)]

    return _monoid_table(len(elements), ident, product, conj), ident


def _structure(orders):
    # invariant factors d1 | d2 | ... of a finite abelian group from the
    # orders of its elements: p^k divides exactly the r largest factors,
    # where p^r = n_k / n_(k-1) with n_k = #{x : x^(p^k) = 1}, the running
    # sum of the counts of the orders 1, p, ..., p^k; so the r leading
    # slots, as many as the ratio has factors p, are multiplied by p
    largest_first = [1] * len(orders).bit_length()
    counts = Counter(orders)
    for p, e in factorize(len(orders)).items():
        n = list(accumulate(counts[p**k] for k in range(e + 1)))
        for k in range(1, e + 1):
            ratio, j = n[k] // n[k - 1], 0
            while ratio % p == 0:
                ratio //= p
                largest_first[j] *= p
                j += 1
    return tuple(reversed([f for f in largest_first if f > 1]))


def class_group(d):
    """Primitive reduced forms of discriminant d, composition table, structure.

    Returns (elements, table, structure) where table[i][j] is the index of
    elements[i] * elements[j] and structure is the tuple of invariant factors.
    Cost: about |d|/19 divisibility tests (``enumerate_reduced``); for h
    classes, about h/2 compositions, under h for |d| <= 20000 (23 for the 24
    classes of d = -3780) and fewer than 2h always, the table of h^2
    ints built a row at a time (one ``bytes.translate`` per row for h <= 256,
    one gather of a list above), and under h^2 steps for the orders: one
    walk of the powers of each x whose order m is unknown, along row x of
    the table (x^(k+1) = x*x^k, one lookup a step), ord(x^k) =
    m / gcd(k, m); then, for each prime p | h, the counts of the orders
    1, p, p^2, ... only.  The
    conjugate (a, -b, c) is the inverse class, so each composition y = g*k
    also gives g*conj(y) = conj(k), because g*conj(g) is principal
    (``_monoid_table``).
    """
    elements = [f for f in enumerate_reduced(d) if content(f) == 1]
    table, ident = _form_table(d, elements)
    h = len(elements)
    orders = [0] * h
    for i in range(h):
        if not orders[i]:
            row, powers = table[i], [i]
            while powers[-1] != ident:
                powers.append(row[powers[-1]])
            m = len(powers)
            for k, j in enumerate(powers, 1):
                orders[j] = m // gcd(k, m)
    return elements, table, _structure(orders)


def represent(f, value):
    """All integer (x, y) with f(x, y) == value, for positive definite f.

    Cost: 2*isqrt(4*a*value/|d|) + 1 values of y, one isqrt each, so it
    grows as sqrt(value).
    """
    value = _int(value, "value")
    a, b, c = f = _ints(f, 3)
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
        # a x^2 + (b y) x + (c y^2 - value) = 0, whose discriminant
        # 4a*value - |d|*y^2 is >= 0 as |d|*y^2 <= |d|*ybound^2 <= 4a*value
        disc = (b * y) ** 2 - 4 * a * (c * y * y - value)
        root = isqrt(disc)
        if root * root != disc:
            continue
        for sign in ((1,) if root == 0 else (1, -1)):
            num = -b * y + sign * root
            if num % (2 * a) == 0:
                out.append((num // (2 * a), y))
    return sorted(set(out))
