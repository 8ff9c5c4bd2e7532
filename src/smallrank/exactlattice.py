"""Exact lattices over Q: Hermite normal form, coordinates, intersection.

Lattices are given by generating sets of row vectors with rational entries.
The canonical form is the row-style HNF: pivots positive and on the diagonal
of the surviving rows, entries above each pivot reduced into [0, pivot).

One representation: integer rows over one positive denominator, produced
by ``_scaled``.  All elimination in the package runs here, on those
integers (HNF, and one fraction-free Gauss-Jordan pass for determinant,
trace-form discriminant and coordinates), and ``_unscaled`` builds the
``Fraction`` rows that public functions return.  Two special cases skip the
elimination: ``_hnf_coords`` solves against a basis already in HNF by
substitution, column by column, and ``_coords2`` solves a 2x2 system by
Cramer's rule on ``mat2_det``.
"""

from fractions import Fraction
from math import isqrt, lcm, prod

from .errors import DimensionError, DomainError, RankError


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
    # row-style HNF of integer rows, echelon with positive pivots,
    # entries above each pivot reduced; zero rows dropped.  One unimodular
    # step [[x, y], [-b/g, a/g]], a*x + b*y = g, clears each b below pivot a
    rows = [list(r) for r in rows]
    if not rows:
        return []
    r = 0
    for col in range(len(rows[0])):
        i = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        piv = rows[r]
        for i, row in enumerate(rows[r + 1 :], r + 1):
            b = row[col]
            if b:
                g, x, y = xgcd(piv[col], b)
                a, b = piv[col] // g, b // g
                piv, rows[i] = (
                    [x * u + y * v for u, v in zip(piv, row)],
                    [a * v - b * u for u, v in zip(piv, row)],
                )
        if piv[col] < 0:
            piv = [-a for a in piv]
        rows[r] = piv
        for k in range(r):
            q = rows[k][col] // piv[col]
            if q:
                rows[k] = [a - q * b for a, b in zip(rows[k], piv)]
        r += 1
    return rows[:r]


def _scaled(rows):
    # integer rows and the least positive denominator den with
    # rows == int_rows / den; DimensionError for rows of unequal length
    rows = [list(row) for row in rows]
    if any(len(row) != len(rows[0]) for row in rows):
        raise DimensionError("rows of unequal length")
    if all(type(e) is int for row in rows for e in row):  # the usual input
        return rows, 1
    rows = [[e if isinstance(e, (int, Fraction)) else Fraction(e) for e in row] for row in rows]
    den = lcm(*(e.denominator for row in rows for e in row))
    return [[e.numerator * (den // e.denominator) for e in row] for row in rows], den


def _unscaled(rows, den):
    # the Fraction rows of int_rows / den, as a tuple of tuples
    return tuple(tuple(Fraction(e, den) for e in row) for row in rows)


def _bareiss(a):
    # fraction-free Gauss-Jordan (Bareiss 1968) on integer rows a, n x m with
    # m >= n, in place; returns the determinant d of the leading n x n block.
    # Row swaps negate the incoming row, so when d != 0 the leading block
    # ends as d*I and the trailing columns as adj(leading block) times them.
    n = len(a)
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = [-e for e in a[p]], a[k]
        pivot_row = a[k]
        pk = pivot_row[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pk * e - f * b) // prev for e, b in zip(a[i], pivot_row)]
        prev = pk
    return prev


def _trace(ring, x):
    """Trace of multiplication by the element ``x``.

    A ring's table ``_t[i][j]`` is e_i*e_j in its basis e_0 = 1, e_1, ...,
    so ``_t[i]`` is the matrix of multiplication by e_i, and Tr is linear.
    """
    return sum(xi * sum(row[k] for k, row in enumerate(m)) for xi, m in zip(x, ring._t))


def _trace_disc(ring):
    """Discriminant: det of the trace form, Tr(e_i*e_j) = sum_k _t[i][j][k] Tr(e_k)."""
    t = ring._t
    tr = [_trace(ring, e) for e in t[0]]
    return _bareiss([[sum(a * b for a, b in zip(e, tr)) for e in m] for m in t])


def hnf_canonicalize(basis):
    """Canonical full-rank HNF basis of the lattice generated by the rows."""
    ints, den = _scaled(basis)
    if not ints:
        raise RankError("empty generating set")
    n = len(ints[0])
    hnf = _hnf_int(ints)
    if len(hnf) < n:
        raise RankError("rank %d < ambient dimension %d" % (len(hnf), n))
    return _unscaled(hnf, den)


def mat_det(rows):
    """Determinant of a square rational matrix, as a Fraction."""
    ints, den = _scaled(rows)
    n = len(ints)
    if ints and len(ints[0]) != n:
        raise DimensionError("mat_det needs a square matrix")
    return Fraction(_bareiss(ints), den**n)


def mat_mul(a, b):
    """Matrix product of two row-major rational matrices."""
    return tuple(
        tuple(sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for ra in a
    )


def mat2_det(m):
    """Determinant of a 2x2 matrix, in the type of its entries."""
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def lattice_coords(basis, vectors):
    """Integer coordinate rows x with x * basis == v, one per vector v.

    None if some v is off the lattice.  ``basis`` is a square, full-rank
    rational matrix (RankError if singular or empty) and every vector has
    its length (DimensionError otherwise).
    """
    n = len(basis)
    rows = [*basis, *vectors]
    if any(len(row) != n for row in rows):
        raise DimensionError("lattice_coords needs a square basis and vectors of its length")
    ints, _ = _scaled(rows)  # the common denominator cancels
    # basis^T x^T = v^T: Bareiss on [basis^T | vectors^T] leaves det * x^T
    aug = [list(col) for col in zip(*ints)]
    det = _bareiss(aug)
    if not n or not det:
        raise RankError("singular or empty basis")
    if any(e % det for row in aug for e in row[n:]):
        return None
    return tuple(zip(*([e // det for e in row[n:]] for row in aug)))


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
    # lattice_coords for a 2x2 basis, by Cramer's rule: x * rows == v has
    # x = (v0*d - v1*c, a*v1 - b*v0) / det for rows ((a, b), (c, d)), all
    # integers; RankError if det == 0, None if some v is off the lattice
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


def lattice_intersect(b1, b2):
    """Canonical HNF basis of the intersection of two full-rank lattices.

    The rows [B1 | B1] and [B2 | 0] span {(x + y, x) : x in L1, y in L2}.
    Its HNF has n pivots in the first n columns (L1 + L2); the rows after
    them are (0, x) with x in L1 and -x in L2, already the HNF of L1 & L2.
    """
    ints, den = _scaled([*b1, *b2])
    if not ints:
        raise RankError("empty generating set")
    n, k = len(ints[0]), len(b1)
    h = _hnf_int([row + row for row in ints[:k]] + [row + [0] * n for row in ints[k:]])
    if len(h) < 2 * n:
        raise RankError("both lattices must have full rank %d" % n)
    return _unscaled([row[n:] for row in h[n:]], den)


def factorize(n):
    """Prime factorization of n >= 1 as a dict {p: exponent}.

    Cost: trial division by 2, 3 and the numbers 6k +- 1 up to the square
    root of what is left of n.  Once the trial divisor passes 1000, each new
    cofactor gets one ``is_prime`` test, and a prime cofactor ends the
    search: 2^61 - 1 takes 332 divisions and one ``is_prime``.  A cofactor
    with two large prime factors still costs about sqrt(n)/3 divisions:
    (10^9 + 7)(10^9 + 9) took 61 s on a 2-core Xeon.
    """
    if not isinstance(n, int) or n < 1:
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


def divisor_sigma(n) -> int:
    """Sum of the positive divisors of n.

    Cost: that of ``factorize(n)``, then one term (p^(e+1) - 1)/(p - 1) per
    prime power p^e exactly dividing n.
    """
    if not isinstance(n, int) or n <= 0:
        raise DomainError("divisor_sigma needs a positive integer")
    return prod((p ** (e + 1) - 1) // (p - 1) for p, e in factorize(n).items())


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
    if not isinstance(n, int) or n < 2:
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
