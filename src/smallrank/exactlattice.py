"""Exact lattices over Q: Hermite normal form, coordinates, determinants.

Lattices are given by generating sets of row vectors with rational entries.
The canonical form is the row-style HNF: pivots positive and on the diagonal
of the surviving rows, entries above each pivot reduced into [0, pivot).

One representation: integer rows over one positive denominator, produced
by ``_scaled``, and one kernel per primitive on those integers:
``_hnf_int`` for the HNF of rows of length 2, the only lattices the package
reduces (ideals of quadratic rings and the mu-lattice of a quartic ring), by
one xgcd fold of the first column, and for coordinates ``_hnf_coords``
against a basis already in HNF, by substitution column by column, and
``_coords2`` against a 2x2 basis, by Cramer's rule on ``mat2_det``, the
one determinant kernel here.  Over F_p, ``_rref_mod_p`` (Gauss-Jordan)
gives the reduced row echelon form, and ``_hnf_from_rref`` lifts it to the
HNF of its span and p*Z^n.  ``_unscaled`` builds the ``Fraction`` rows that
public functions return, one ``Fraction`` per distinct value.
``_form_act``, the substitution of a binary form of any degree, is behind
every GL2 action of the package: the twisted actions on quadratic and cubic
forms, and on cubes one degree-1 pass per axis.  ``_Ring`` is the one ring
state of every rank, its table ``_t``, and the protocol every rank shares.
"""

import sys
from math import gcd, isfinite, isqrt, lcm

from .errors import DimensionError, DomainError, RankError, _int


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a,b) >= 0 and a*x + b*y = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _hnf_int(rows):
    # row-style HNF of integer rows of length 2, as a tuple of its nonzero
    # rows: ((alpha, beta), (0, delta)), alpha, delta > 0, 0 <= beta < delta
    # at rank 2.  The first column folds into (alpha, beta): a row (c, e)
    # with alpha | c is cleared by subtraction, else by the unimodular step
    # [[x, y], [-c/g, alpha/g]], alpha*x + c*y = g (Cohen, GTM 138, 2.4.2).
    # Either leaves (0, e') and delta is the gcd of those e'
    alpha = beta = delta = 0
    for c, e in rows:
        if c:
            if alpha and not c % alpha:
                e -= c // alpha * beta
            else:
                g, x, y = xgcd(alpha, c)
                alpha, beta, e = g, x * beta + y * e, (alpha * e - c * beta) // g
        delta = gcd(delta, e)
    if not delta:
        return ((alpha, beta),) if alpha else ()
    return ((alpha, beta % delta), (0, delta)) if alpha else ((0, delta),)


def _rref_mod_p(rows, p):
    # reduced row echelon form over F_p, p prime, of integer rows by
    # Gauss-Jordan: the nonzero rows as tuples, entries in [0, p), in pivot
    # order, each pivot 1 and alone in its column; zero rows dropped
    rows = [[e % p for e in row] for row in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        inv = pow(rows[i][col], -1, p)
        piv = [e * inv % p for e in rows[i]]
        rows[i], rows[r] = rows[r], piv
        for k, row in enumerate(rows):
            c = row[col]
            if c and k != r:
                rows[k] = [(e - c * f) % p for e, f in zip(row, piv)]
        r += 1
    return [tuple(row) for row in rows[:r]]


def _hnf_from_rref(rows, p, n):
    # the integer HNF of p*Z^n + sum Z*w_a, for w_a the rows of an RREF over
    # F_p with entries in [0, p), written down with no elimination: row j is
    # the w_a with pivot column j, else p*e_j.  That is upper triangular,
    # with the entries above a pivot p in [0, p) and those above a pivot 1
    # zero, so it is the HNF
    by_pivot = {row.index(1): row for row in rows}
    return [list(by_pivot.get(j) or (p * int(i == j) for i in range(n))) for j in range(n)]


def _fraction_type():
    # fractions.Fraction if that module is loaded, else None: no Fraction
    # exists before it is, so a type test needs no import; read on each
    # call, as the module may be loaded after this one
    return getattr(sys.modules.get("fractions"), "Fraction", None)


def _rational(e):
    # whether e's type is exactly int, Fraction or a finite float: not a
    # bool, and not a str (Fraction would parse "1/2")
    return type(e) is int or type(e) is float and isfinite(e) or type(e) is _fraction_type()


def _scaled(rows):
    # integer rows and the least positive denominator den with
    # rows == int_rows / den; DimensionError for rows of unequal length,
    # DomainError for an entry that is not _rational
    rows = [list(row) for row in rows]
    if any(len(row) != len(rows[0]) for row in rows):
        raise DimensionError("rows of unequal length")
    if all(type(e) is int for row in rows for e in row):  # the usual input
        return rows, 1
    if not all(_rational(e) for row in rows for e in row):
        raise DomainError("need rational entries, got %r" % (rows,))
    from fractions import Fraction

    rows = [[Fraction(e) if type(e) is float else e for e in row] for row in rows]
    den = lcm(*(e.denominator for row in rows for e in row))
    return [[e.numerator * (den // e.denominator) for e in row] for row in rows], den


def _unscaled(rows, den):
    # the Fraction rows of int_rows / den, as a tuple of tuples, with one
    # Fraction per distinct entry: a Fraction is immutable and compares by
    # value, so the rows can share it
    from fractions import Fraction

    values = {e: Fraction(e, den) for e in {e for row in rows for e in row}}
    return tuple(tuple(map(values.__getitem__, row)) for row in rows)


class _Ring:
    """A based ring of any rank, held as its table ``_t`` and nothing else.

    Every rank shares one protocol: the table ``_t``, the product ``mul``,
    the discriminant ``disc()``, ``trace``, ``==`` and ``hash``.  Each
    subclass writes ``mul`` and ``disc()`` in closed form; all of them read
    ``_t`` alone, and the named coefficients of a subclass are read-only
    views of it, so no second copy of the table can drift from it.
    """

    __slots__ = ("_t",)

    def trace(self, x):
        """Trace of multiplication by the element ``x``.

        The table ``_t[i][j]`` is e_i*e_j in the basis e_0 = 1, e_1, ...,
        so ``_t[i]`` is the matrix of multiplication by e_i, and Tr is linear.
        """
        return sum(xi * sum(row[k] for k, row in enumerate(m)) for xi, m in zip(x, self._t))

    def __eq__(self, other):
        return type(other) is type(self) and self._t == other._t

    def __hash__(self):
        return hash(self._t)


def mat2_det(m):
    """Determinant of a 2x2 matrix, in the type of its entries."""
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _form_act(m, f):
    # coefficients of f((x, y) m) for a binary form f = (c_0, ..., c_n) of
    # any degree, f = sum c_i x^(n-i) y^i, and m = ((p, q), (r, s)): x goes
    # to X = p*x + r*y and y to Y = q*x + s*y.  Horner's rule
    # g_k = g_(k-1)*X + c_k*Y^k multiplies by one linear factor at a time.
    (p, q), (r, s) = m
    g, y_pow = [f[0]], [1]
    for c in f[1:]:
        y_pow = [q * u + s * v for u, v in zip(y_pow + [0], [0] + y_pow)]
        g = [p * u + r * v + c * w for u, v, w in zip(g + [0], [0] + g, y_pow)]
    return g


def _hnf_coords(h, v):
    # integer coordinates x with x * h == v, for h square integer rows in
    # HNF with nonzero pivots (h[i][j] == 0 for j < i) and v an integer
    # vector; None if v is off the lattice.  Column j of x * h involves
    # x_0..x_j only, so x_j follows from the residual of v in column j.
    r = list(v)
    x = []
    for j, row in enumerate(h):
        q, rem = divmod(r[j], row[j])
        if rem:
            return None
        if q:
            r = [a - q * b for a, b in zip(r, row)]
        x.append(q)
    return tuple(x)


def _coords2(rows, vectors):
    # integer coordinate rows x with x * rows == v, one per vector v, for a
    # 2x2 integer basis, by Cramer's rule: x = (v0*d - v1*c, a*v1 - b*v0) / det
    # for rows ((a, b), (c, d)); RankError if det == 0, None if some v is off
    # the lattice
    (a, b), (c, d) = rows
    det = mat2_det(rows)
    if not det:
        raise RankError("singular or empty basis")
    out = []
    for v0, v1 in vectors:
        x0, r0 = divmod(v0 * d - v1 * c, det)
        x1, r1 = divmod(a * v1 - b * v0, det)
        if r0 or r1:
            return None
        out.append((x0, x1))
    return tuple(out)


def factorize(n):
    """Prime factorization of n >= 1 as a dict {p: exponent}.

    Cost: trial division by 2, 3 and the numbers 6k +- 1 up to the square
    root of what is left of n.  Once the trial divisor passes 1000, each new
    cofactor gets one ``is_prime`` test, and a prime cofactor ends the
    search: 2^61 - 1 takes 332 divisions and one ``is_prime``.  A cofactor
    with two large prime factors still costs about sqrt(n)/3 divisions:
    (10^9 + 7)(10^9 + 9) took 61 s on a 2-core Xeon.
    """
    if _int(n, "n") < 1:
        raise DomainError("factorize needs a positive integer")
    out = {}
    for p in [2, 3]:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f, composite = 5, None  # composite: the last cofactor found not prime
    while f * f <= n:
        if f > 1000 and n != composite:
            if is_prime(n):
                break
            composite = n
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n):
    """The positive divisors of n >= 1, in increasing order.

    Cost: that of ``factorize(n)`` (about sqrt(n)/3 trial divisions at
    worst), then one product per divisor.
    """
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


# the first 13 primes; a composite that passes the strong test to all of
# them is at least psi_13 (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(n) -> bool:
    """Primality: trial division by the primes up to 41, then strong tests.

    Below psi_13 ~ 3.3e24 the answer is proven: the strong Miller-Rabin test
    to those 13 prime bases.  Above it the answer is the Baillie-PSW test
    (strong base 2 and strong Lucas): unproven, but no composite is known
    to pass it.  Cost: at most 13 modular powers, O(log(n)^3) bit operations.
    """
    if type(n) is not int or n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _PSI_13:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n, a):
    # strong Fermat test to base a of odd n > a: n - 1 = d * 2^s, d odd
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1:
        return True
    for _ in range(s):
        if x == n - 1:
            return True
        x = x * x % n
    return False


def _jacobi(a, n):
    # Jacobi symbol (a/n) for odd n > 0
    a, out = a % n, 1
    while a:
        t = (a & -a).bit_length() - 1
        a >>= t
        if t % 2 and n % 8 in (3, 5):
            out = -out
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a, n = n % a, a
    return out if n == 1 else 0


def _strong_lucas_probable_prime(n):
    # strong Lucas test of odd n with no prime factor below 43, with P = 1
    # and Q = (1 - D)/4 for the first D in 5, -7, 9, -11, ... with (D/n) = -1
    if isqrt(n) ** 2 == n:
        return False
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:
            return False  # 1 < gcd(d, n) since |d| < n
        d = -d - 2 if d > 0 else -d + 2
    q, half = (1 - d) // 4, (n + 1) // 2
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    # U_m, V_m, Q^m mod n for m the leading bits of (n + 1) / 2^s
    u, v, qm = 1, 1, q
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qm = u * v % n, (v * v - 2 * qm) % n, qm * qm % n
        if bit == "1":
            u, v, qm = (u + v) * half % n, (d * u + v) * half % n, qm * q % n
    if u == 0:
        return True
    for _ in range(s):
        if v == 0:
            return True
        v, qm = (v * v - 2 * qm) % n, qm * qm % n
    return False
