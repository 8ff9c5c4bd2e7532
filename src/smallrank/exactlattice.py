"""Exact lattices over Q: Hermite normal form, coordinates, intersection.

Lattices are given by generating sets of row vectors with rational entries.
The canonical form is the row-style HNF: pivots positive and on the diagonal
of the surviving rows, entries above each pivot reduced into [0, pivot).

One representation: integer rows over one positive denominator, produced
by ``_scaled``.  All elimination runs on those integers (HNF, and one
fraction-free Gauss-Jordan pass for determinant and coordinates), and
``_unscaled`` builds the ``Fraction`` rows that public functions return.
"""

from fractions import Fraction
from math import isqrt, lcm

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
    # entries above each pivot reduced; zero rows dropped
    rows = [list(r) for r in rows]
    if not rows:
        return []
    n = len(rows[0])
    r = 0
    for col in range(n):
        # clear everything below position r in this column
        while True:
            live = [i for i in range(r, len(rows)) if rows[i][col]]
            if not live:
                break
            i = min(live, key=lambda i: abs(rows[i][col]))
            rows[r], rows[i] = rows[i], rows[r]
            if len(live) == 1:
                break
            p = rows[r][col]
            for i in range(r + 1, len(rows)):
                if rows[i][col]:
                    q = rows[i][col] // p
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        if r < len(rows) and rows[r][col]:
            if rows[r][col] < 0:
                rows[r] = [-a for a in rows[r]]
            p = rows[r][col]
            for k in range(r):
                q = rows[k][col] // p
                if q:
                    rows[k] = [a - q * b for a, b in zip(rows[k], rows[r])]
            r += 1
    return [row for row in rows[:r]]


def _scaled(rows):
    # integer rows and the least positive denominator den with
    # rows == int_rows / den; DimensionError for rows of unequal length
    rows = [[e if isinstance(e, (int, Fraction)) else Fraction(e) for e in row] for row in rows]
    if any(len(row) != len(rows[0]) for row in rows):
        raise DimensionError("rows of unequal length")
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
    root of what is left of n, so about sqrt(n)/3 divisions when n is prime
    or has two large prime factors: (10^9 + 7)(10^9 + 9) took 61 s on a
    2-core Xeon.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError("factorize needs a positive integer")
    out = {}
    for p in [2, 3]:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
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
    """Sum of the positive divisors of n."""
    if not isinstance(n, int) or n <= 0:
        raise DomainError("divisor_sigma needs a positive integer")
    return sum(divisors(n))


def is_prime(n) -> bool:
    """Deterministic primality by trial division (intended for small n).

    Cost: about sqrt(n)/3 divisions when n is prime (2, 3, then 6k +- 1 up
    to sqrt(n)).
    """
    if not isinstance(n, int) or n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f <= isqrt(n):
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True
