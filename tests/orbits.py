"""Exact counts of the vectors mod p^2 whose ring is maximal at p, by group
orbits and cosets rather than one ring per vector.

A ring parameterized by a vector v of integers (a binary cubic form, a pair
of ternary quadratic forms) is maximal at p or not according to v mod p^2,
and a change of basis by a group G over Z_p leaves that answer alone.  So
the answer is counted once per G(F_p)-orbit of v mod p (``orbits``), and,
among the lifts v + p*w of v, once per coset of the tangent space S_v of
the action at v, as the kernel I + p*M of G(Z/p^2) -> G(F_p) moves w by S_v
(``count_maximal_lifts``).
"""

from itertools import product


def generators(n, p):
    """Matrices that generate GL_n(F_p).

    A transposition and, for n > 2, an n-cycle permute the axes, so with
    one transvection they give every elementary transvection, which
    generate SL_n(F_p); diag(g, 1, ..) for a primitive root g adds every
    determinant.
    """
    one = [[int(i == j) for j in range(n)] for i in range(n)]
    swap, shear = [one[1], one[0], *one[2:]], [row[:] for row in one]
    shear[0][1] = 1
    out = [swap, shear]
    if n > 2:
        out.append(one[1:] + one[:1])
    g = next(g for g in range(1, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
    if g != 1:
        out.append([[g if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)])
    return out


def orbits(p, n, acts):
    """(representative, size) of each orbit on F_p^n of the group that the
    linear maps ``acts`` generate, each a function of an integer n-tuple."""
    # each map is kept as the nonzero entries (column, coefficient) of each
    # row of its matrix
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    maps = [[[(k, c) for k, c in enumerate(row) if c] for row in zip(*map(act, units))] for act in acts]
    seen, out = set(), []
    for v in product(range(p), repeat=n):
        if v in seen:
            continue
        seen.add(v)
        todo, size = [v], 0
        while todo:
            w = todo.pop()
            size += 1
            for rows in maps:
                x = tuple(sum(c * w[k] for k, c in row) % p for row in rows)
                if x not in seen:
                    seen.add(x)
                    todo.append(x)
        out.append((v, size))
    return out


def pivot_columns(rows, p):
    """The pivot columns of the F_p-span of the integer ``rows``."""
    rows, pivots = [[x % p for x in row] for row in rows], []
    for col in range(len(rows[0])):
        i = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        r = len(pivots)
        rows[r], rows[i] = rows[i], rows[r]
        inv = pow(rows[r][col], -1, p)
        for k in range(r + 1, len(rows)):
            c = rows[k][col] * inv
            rows[k] = [(x - c * y) % p for x, y in zip(rows[k], rows[r])]
        pivots.append(col)
    return pivots


def count_maximal_lifts(p, orbits, tangents, maximal):
    """(count, tested) of the vectors mod p^2 with ``maximal(w)`` true.

    ``orbits`` are the (v, size) of the vectors mod p, ``tangents(v)`` rows
    spanning S_v mod p, and ``maximal(w)`` the answer for a list w of
    integers that is v + p*w' for some w'.  The p^n lifts of v fall into
    p^(n - dim S_v) cosets of S_v; one lift per coset is tested, w' zero on
    the pivot columns of S_v, and ``tested`` counts them.  The lifts of 0
    are p*u, whose ring has index p^2 (rank 3) or p^6 (rank 4) in the ring
    of u, so is never maximal at p.
    """
    total, tested = 0, 0
    for v, size in orbits:
        if not any(v):
            continue
        pivots = pivot_columns(tangents(v), p)
        free = [c for c in range(len(v)) if c not in pivots]
        count = 0
        for digits in product(range(p), repeat=len(free)):
            w = list(v)
            for c, d in zip(free, digits):
                w[c] += p * d
            count += maximal(w)
            tested += 1
        total += size * count * p ** len(pivots)
    return total, tested
