"""Exact integer/rational lattice arithmetic."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt, prod
from pathlib import Path

import pytest
from callcounts import call_counts
from hypothesis import assume, example, given, settings, strategies as st

import smallrank
from smallrank.errors import DimensionError, DomainError, RankError
from smallrank.exactlattice import (
    _MR_BASES,
    _PSI_13,
    _coords2,
    _hnf_coords,
    _hnf_int,
    _scaled,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    _unscaled,
    divisors,
    factorize,
    is_prime,
    mat2_det,
    xgcd,
)

ints = st.integers(min_value=-10**6, max_value=10**6)


def _oracle_mat_mul(a, b):
    """Matrix product of two row-major rational matrices, as a tuple of tuples."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


# The HNF kernel of integer rows of any length, which the rank-2 kernel
# _hnf_int replaced when every caller in the package passed rows of length 2:
# echelon with positive pivots, entries above each pivot reduced, zero rows
# dropped, by one unimodular step [[x, y], [-b/g, a/g]], a*x + b*y = g, per
# entry b cleared below pivot a.  Kept as the HNF of the tests on more than two
# columns and as an oracle of the rank-2 kernel.
def _oracle_hnf_xgcd(rows):
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


# The Fraction front-ends of the integer kernels, public once but with no
# caller in the package; kept as the references that the kernels and the
# Fraction oracles of the other modules are checked against.
def _oracle_hnf_canonicalize(basis):
    """Canonical full-rank HNF basis of the lattice generated by the rows."""
    ints, den = _scaled(basis)
    if not ints:
        raise RankError("empty generating set")
    n = len(ints[0])
    hnf = _oracle_hnf_xgcd(ints)
    if len(hnf) < n:
        raise RankError("rank %d < ambient dimension %d" % (len(hnf), n))
    return _unscaled(hnf, den)


# The fraction-free Gauss-Jordan solve, kept as the solve of the coordinate
# oracles and checked against the Fraction elimination _oracle_det.
def _oracle_bareiss_solve(a):
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


def _oracle_lattice_coords(basis, vectors):
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
    det = _oracle_bareiss_solve(aug)
    if not n or not det:
        raise RankError("singular or empty basis")
    if any(e % det for row in aug for e in row[n:]):
        return None
    return tuple(zip(*([e // det for e in row[n:]] for row in aug)))


# Reference Gaussian eliminations over Fraction, the implementation that the
# fraction-free integer kernels replaced; kept as the determinant of the tests.
def _oracle_det(rows):
    rows = [[Fraction(e) for e in row] for row in rows]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for i in range(col + 1, n):
            if rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return det


def _oracle_mat_det(rows):
    """Determinant of a square rational matrix, as a Fraction."""
    if any(len(row) != len(rows) for row in rows):
        raise DimensionError("mat_det needs a square matrix")
    return _oracle_det(rows)


def _oracle_inv(rows):
    rows = [[Fraction(e) for e in row] for row in rows]
    n = len(rows)
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [e * inv for e in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


# Rational solve through the inverse, the implementation (solve_left and the
# inverse-and-denominator loops) that lattice_coords replaced; kept as the
# oracle of _oracle_lattice_coords.
def _oracle_coords(basis, vectors):
    inv = _oracle_inv(basis)
    out = []
    for v in vectors:
        x = tuple(sum(Fraction(v[k]) * inv[k][j] for k in range(len(v))) for j in range(len(v)))
        if any(c.denominator != 1 for c in x):
            return None
        out.append(tuple(int(c) for c in x))
    return tuple(out)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def square_matrices(draw, entries=rationals, max_size=5):
    n = draw(st.integers(min_value=1, max_value=max_size))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # overwrite one row with a combination of the others: singular
        i = draw(st.integers(min_value=0, max_value=n - 1))
        c = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n))
        rows[i] = [sum(c[k] * rows[k][j] for k in range(n) if k != i) for j in range(n)]
    return rows


def _identity(n, scalar=1):
    return [[scalar * int(i == j) for j in range(n)] for i in range(n)]


@given(square_matrices())
def test_det_and_inverse_agree_with_fraction_oracle(m):
    # the Gauss-Jordan solve on [m | I], m scaled to integer rows over den:
    # the determinant, then d*I and the adjugate d * m^-1 when d != 0
    det = _oracle_det(m)
    n = len(m)
    ints, den = _scaled(m)
    aug = [row + e for row, e in zip(ints, _identity(n))]
    d = _oracle_bareiss_solve(aug)
    assert Fraction(d, den**n) == det
    if d:
        assert [row[:n] for row in aug] == _identity(n, d)
        assert [row[n:] for row in aug] == [[d * e for e in row] for row in _oracle_inv(ints)]


@st.composite
def integer_square_matrices(draw):
    # integer matrices up to 5 x 5, about half of them singular, with the
    # first k columns zeroed in the top rows, so that the pivot search must
    # move a row up, at more than one step when k > 1
    rows = draw(square_matrices(st.integers(-9, 9)))
    k, top = draw(st.integers(0, len(rows))), draw(st.integers(0, len(rows)))
    for row in rows[:top]:
        row[:k] = [0] * k
    return rows


@given(integer_square_matrices())
@example([[0, 1], [1, 0]])  # one swap: -1
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])  # the first pivot in row 2: -1
@example([[0, 0, 1], [1, 0, 0], [0, 1, 0]])  # a 3-cycle of rows: 1
@example([[0, 2, 3], [0, 4, 5], [0, 6, 7]])  # a zero column: 0
@example([[2, 4, 6], [1, 2, 3], [0, 1, 1]])  # singular after one step: 0
@example([[0, 0, 0, 0, 3], [0, 0, 0, 2, 0], [0, 0, 1, 0, 0], [0, 5, 0, 0, 0], [7, 0, 0, 0, 0]])
def test_determinant_agrees_with_gauss_jordan_oracle(m):
    # the Gauss-Jordan solve, which works in place on a copy, against the
    # Fraction elimination, on integer matrices whose pivots need row moves
    assert _oracle_bareiss_solve([row[:] for row in m]) == _oracle_det(m)


@st.composite
def bases_and_vectors(draw):
    # a basis, integer combinations of its rows and arbitrary rational vectors
    basis = draw(square_matrices(max_size=4))
    n = len(basis)
    combos = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), max_size=3))
    others = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=3))
    return basis, combos, others


@given(bases_and_vectors())
def test_lattice_coords_agrees_with_inverse_oracle(case):
    # the Bareiss solve on [basis^T | vectors^T], the reference that the two
    # coordinate kernels are checked against below
    basis, combos, others = case
    n = len(basis)
    on = [[sum(c[i] * basis[i][j] for i in range(n)) for j in range(n)] for c in combos]
    if _oracle_det(basis) == 0:
        with pytest.raises(RankError):
            _oracle_lattice_coords(basis, on + others)
        return
    assert _oracle_lattice_coords(basis, on) == tuple(tuple(c) for c in combos)
    coords = _oracle_lattice_coords(basis, on + others)
    assert coords == _oracle_coords(basis, on + others)
    if coords is None:
        assert any(_oracle_lattice_coords(basis, [v]) is None for v in others)


@st.composite
def hnfs_and_vectors(draw):
    # a full-rank integer HNF, integer combinations of its rows (on the
    # lattice), and those plus a small shift (mostly off it)
    n = draw(st.integers(1, 5))
    bound = draw(st.sampled_from([3, 30, 10**6]))
    entry = st.integers(-bound, bound)
    extra = draw(st.integers(0, 2))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n + extra)]
    h = _oracle_hnf_xgcd(rows)
    assume(len(h) == n)
    combos = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=3))
    on = [[sum(c[i] * h[i][j] for i in range(n)) for j in range(n)] for c in combos]
    shifts = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=3))
    off = [[a + b for a, b in zip(v, s)] for v, s in zip(on, shifts)]
    return h, on + off


@settings(max_examples=200, deadline=None)
@given(hnfs_and_vectors())
def test_hnf_coords_agrees_with_lattice_coords(case):
    h, vectors = case
    for v in vectors:
        x = _hnf_coords(h, v)
        expected = _oracle_lattice_coords(h, [v])
        assert x == (None if expected is None else expected[0])


small = st.integers(-12, 12)
vectors2 = st.tuples(small, small)
bases2 = st.one_of(
    st.tuples(st.tuples(small, small), st.tuples(small, small)),
    # singular: the second row an integer multiple of the first
    st.tuples(st.tuples(small, small), st.integers(-3, 3), st.integers(1, 3)).map(
        lambda t: (t[0], tuple(t[1] * e * t[2] for e in t[0]))
    ),
)


@settings(max_examples=300, deadline=None)
@given(bases2, st.lists(vectors2, max_size=3), st.lists(vectors2, max_size=3))
def test_coords2_agrees_with_lattice_coords(rows, combos, others):
    on = [tuple(x * a + y * c for a, c in zip(*rows)) for x, y in combos]
    vectors = on + others
    if mat2_det(rows) == 0:
        for f in (_coords2, _oracle_lattice_coords):
            with pytest.raises(RankError):
                f(rows, vectors)
        return
    assert _coords2(rows, vectors) == _oracle_lattice_coords(rows, vectors)
    assert _coords2(rows, on) == _oracle_lattice_coords(rows, on) == tuple(map(tuple, combos))


def test_coords2_spots():
    # negative determinant, off-lattice vector, empty vector list
    rows = ((0, 1), (2, 0))
    assert mat2_det(rows) == -2
    assert _coords2(rows, [(4, 3), (-2, 0)]) == ((3, 2), (0, -1))
    assert _coords2(rows, [(4, 3), (1, 0)]) is None
    assert _coords2(rows, []) == ()
    with pytest.raises(RankError):
        _coords2(((1, 2), (2, 4)), [(1, 2)])


def test_lattice_coords_errors():
    # the two coordinate kernels off the lattice and on no vectors
    h = ((2, 1), (0, 3))
    assert _hnf_coords(h, (4, 5)) == (2, 1)
    assert _hnf_coords(h, (0, 0)) == (0, 0)
    assert _hnf_coords(h, (1, 0)) is None
    assert _hnf_coords(h, (2, 2)) is None  # x_0 = 1 leaves 1 in the last column
    assert _coords2(((2, 0), (0, 2)), [(1, 0)]) is None
    assert _coords2(((2, 0), (1, 1)), []) == ()


@given(square_matrices(st.integers(min_value=-50, max_value=50)))
def test_det_of_integer_matrix_is_an_integral_fraction(m):
    # the fraction-free Gauss-Jordan solve divides exactly: an int, the
    # integral Fraction of the Fraction elimination
    det = _oracle_mat_det(m)
    assert det.denominator == 1
    d = _oracle_bareiss_solve([row[:] for row in m])
    assert type(d) is int and d == det


@given(ints, ints)
def test_xgcd_bezout(a, b):
    g, x, y = xgcd(a, b)
    assert g == a * x + b * y
    assert g >= 0
    if (a, b) != (0, 0):
        assert a % g == 0 and b % g == 0


def _random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    return tuple(tuple(row) for row in m)


def test_hnf_shape_and_idempotence():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        basis = tuple(
            tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n)
        )
        h = _oracle_hnf_xgcd(basis)
        if len(h) < n:
            assert _oracle_det(basis) == 0
            continue
        assert _oracle_det(basis) != 0
        # pivots positive, entries above each pivot reduced into [0, pivot)
        for i in range(n):
            assert h[i][i] > 0
            for r in range(i):
                assert 0 <= h[r][i] < h[i][i]
            for j in range(i):
                assert h[i][j] == 0
        assert _oracle_hnf_xgcd(h) == h


def test_hnf_is_a_lattice_invariant():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.choice((2, 3))
        basis = tuple(
            tuple(Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2, 3))) for _ in range(n))
            for _ in range(n)
        )
        ints, den = _scaled(basis)
        h = _oracle_hnf_xgcd(ints)
        if len(h) < n:
            continue
        # the least denominator and the HNF of den * L depend on L only
        u = _random_unimodular(rng, n)
        ints_u, den_u = _scaled(_oracle_mat_mul(u, basis))
        assert den_u == den
        assert _oracle_hnf_xgcd(ints_u) == h


def test_hnf_errors():
    # a rank-deficient or empty set keeps fewer rows than the dimension
    assert _hnf_int(((1, 2), (2, 4))) == ((1, 2),) and _oracle_hnf_xgcd(((1, 2), (2, 4))) == [[1, 2]]
    assert _hnf_int(((0, 3), (0, -6))) == ((0, 3),) and _hnf_int(((0, 0),)) == _hnf_int(()) == ()
    assert _oracle_hnf_xgcd(()) == []
    for ragged in (((1, 2), (1,)), ((1,), (2, 3)), ((1, 2, 3), (4, 5))):
        with pytest.raises(DimensionError):
            _scaled(ragged)


@pytest.mark.parametrize("den", [1, 2, 7, 10**9 + 7])
@pytest.mark.parametrize(
    "rows",
    [
        [[2, 0, 0, 0], [1, 2, 0, 0], [0, 0, 2, 0], [0, 1, 0, 2]],  # repeated entries
        [(5, -7), (0, 11)],  # distinct entries
        [[3, 3, 3], [-3, 3, 0], [6, 10**9 + 7, -(10**9 + 7)]],
        [(0, 0)],
        [],
    ],
)
def test_unscaled_agrees_with_one_fraction_per_entry(rows, den):
    # one Fraction per distinct entry, shared by the rows: the same values,
    # all of type Fraction, as one Fraction(e, den) per entry
    out = _unscaled(rows, den)
    assert out == tuple(tuple(Fraction(e, den) for e in row) for row in rows)
    assert all(type(row) is tuple for row in out) and all(type(x) is Fraction for row in out for x in row)


def test_mat_inverse_and_solve():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.choice((2, 3, 4))
        m = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
        # the Gauss-Jordan solve on [m | I] leaves adj(m) in the trailing columns
        aug = [list(row) + e for row, e in zip(m, _identity(n))]
        det = _oracle_bareiss_solve(aug)
        assert det == _oracle_det(m)
        if det == 0:
            continue
        inv = tuple(tuple(Fraction(e, det) for e in row[n:]) for row in aug)
        ident = tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
            for i in range(n)
        )
        assert _oracle_mat_mul(m, inv) == ident
        assert _oracle_mat_mul(inv, m) == ident
        c = tuple(rng.randint(-9, 9) for _ in range(n))
        v = tuple(sum(c[i] * m[i][j] for i in range(n)) for j in range(n))
        assert _oracle_mat_mul((v,), inv) == (c,)
        # and the coordinate kernels: against the HNF basis, and 2x2 by Cramer
        h = _oracle_hnf_xgcd(m)
        x = _hnf_coords(h, v)
        assert _oracle_mat_mul((x,), h) == (v,)
        if n == 2:
            assert _coords2(m, [v]) == (c,)


def test_det_multiplicative():
    # the determinant of the tests, behind their trace-form discriminants
    rng = random.Random(14)
    for _ in range(50):
        a = tuple(tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3))
        b = tuple(tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3))
        assert _oracle_mat_det(_oracle_mat_mul(a, b)) == _oracle_mat_det(a) * _oracle_mat_det(b)


def test_index_contains_intersect():
    ident = ((1, 0), (0, 1))
    double = ((2, 0), (0, 2))
    assert _oracle_mat_det(double) / _oracle_mat_det(ident) == 4
    assert _coords2(ident, [(7, -3)]) == ((7, -3),)
    assert _coords2(double, [(1, 0)]) is None
    # the intersection oracle comes out in HNF
    for b1, b2, meet in (
        (double, ((3, 0), (0, 3)), ((6, 0), (0, 6))),
        (((1, 0), (0, 2)), ((2, 0), (0, 1)), ((2, 0), (0, 2))),
    ):
        ints, den = _scaled(_oracle_intersect(b1, b2))
        assert den == 1 and tuple(map(tuple, ints)) == _hnf_int(ints) == meet


def test_intersection_is_largest_common_sublattice():
    # the intersection oracle, which the scalar search of test_cubes is
    # checked against, lies in both lattices with an integral index in each
    rng = random.Random(15)
    for _ in range(40):
        b1 = tuple(tuple(rng.randint(-6, 6) for _ in range(2)) for _ in range(2))
        b2 = tuple(tuple(rng.randint(-6, 6) for _ in range(2)) for _ in range(2))
        if mat2_det(b1) == 0 or mat2_det(b2) == 0:
            continue
        meet, den = _scaled(_oracle_intersect(b1, b2))
        assert den == 1
        assert _coords2(b1, meet) is not None
        assert _coords2(b2, meet) is not None
        # the index in either factor is integral
        assert mat2_det(meet) % mat2_det(b1) == 0
        assert mat2_det(meet) % mat2_det(b2) == 0


# The intersection of two full-rank lattices as the dual of the sum of their
# duals, on the Fraction inverse oracle; test_cubes builds the scalar search
# of triples_equivalent on it.
def _oracle_intersect(b1, b2):
    b1 = _oracle_hnf_canonicalize(b1)
    b2 = _oracle_hnf_canonicalize(b2)
    if len(b1[0]) != len(b2[0]):
        raise DimensionError("ambient dimensions differ")
    d1 = tuple(zip(*_oracle_inv(b1)))  # rows of (B^-1)^T span the dual
    d2 = tuple(zip(*_oracle_inv(b2)))
    dsum = _oracle_hnf_canonicalize(d1 + d2)
    return _oracle_hnf_canonicalize(tuple(zip(*_oracle_inv(dsum))))


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reconstructs(n):
    factors = factorize(n)
    prod = 1
    for p, e in factors.items():
        assert is_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == n
    assert list(factors) == sorted(factors)


@given(st.integers(min_value=1, max_value=10**5))
def test_divisors_match_trial_division(n):
    assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_factorize_rejects_non_positive_input():
    for bad in (0, -5, 2.0, "7"):
        with pytest.raises(DomainError):
            factorize(bad)
    with pytest.raises(DomainError):
        divisors(0)


def test_factorize_domain_check_survives_optimize_flag():
    # under python -O an assert would vanish and factorize(0) loop forever
    src = os.path.dirname(os.path.dirname(smallrank.__file__))
    code = (
        "from smallrank.errors import DomainError\n"
        "from smallrank.exactlattice import factorize\n"
        "for n in (0, -5):\n"
        "    try:\n"
        "        factorize(n)\n"
        "    except DomainError:\n"
        "        print('DomainError')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["DomainError", "DomainError"]


# Trial division by 2, 3 and 6k +- 1 to the square root of the cofactor,
# the factorize that stops at a prime cofactor replaced; kept as its oracle.
def _oracle_factorize(n):
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


# The product formula exactlattice.divisor_sigma computed before the one
# divisor helper, divisors, replaced it; kept as an oracle for the sum of
# divisors, on the trial-division factorization.
def _oracle_divisor_sigma(n):
    return prod((p ** (e + 1) - 1) // (p - 1) for p, e in _oracle_factorize(n).items())


def test_factorize_agrees_with_trial_division_to_5000():
    for n in range(1, 5001):
        assert factorize(n) == _oracle_factorize(n), n


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 40000), min_size=1, max_size=4))
def test_factorize_agrees_with_trial_division_past_the_primality_cutoff(factors):
    # products of factors up to 4 * 10^4: cofactors above 10^6 reach the
    # is_prime test after trial division passes 1000
    n = 1
    for f in factors:
        n *= f
    assert factorize(n) == _oracle_factorize(n)


def test_factorize_stops_at_a_large_prime():
    m61 = 2**61 - 1
    start = time.perf_counter()
    assert sum(divisors(m61)) == 2**61
    assert factorize(3 * 1009**2 * m61) == {3: 1, 1009: 2, m61: 1}
    assert factorize(1013 * 1019 * m61) == {1013: 1, 1019: 1, m61: 1}
    assert time.perf_counter() - start < 1.0


def test_divisor_sigma_spots():
    # sigma(n), the sum of the divisors of n, as the package computes it
    assert sum(divisors(1)) == 1
    assert sum(divisors(4)) == 7
    assert sum(divisors(5)) == 6
    assert sum(divisors(12)) == 28
    with pytest.raises(DomainError):
        divisors(0)


def test_divisor_sigma_matches_the_divisor_sum():
    # the oracle's sigma comes from the factorization, so this compares two
    # computations
    for n in range(1, 2001):
        assert _oracle_divisor_sigma(n) == sum(divisors(n)), n


def test_divisor_sigma_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in list(range(1, 2001)) + [55440, 3**40 * 7**5, (10**9 + 7) * 97]:
        assert sum(divisors(n)) == sympy.divisor_sigma(n), n


def test_is_prime_agrees_with_sieve():
    sieve = [True] * 200
    sieve[0] = sieve[1] = False
    for i in range(2, 200):
        if sieve[i]:
            for j in range(2 * i, 200, i):
                sieve[j] = False
    for n in range(200):
        assert is_prime(n) == sieve[n]


# Euclid rounds with a search for the least live entry, the HNF kernel that
# one xgcd step per row replaced; kept as its oracle.
def _oracle_hnf_int(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return []
    n = len(rows[0])
    r = 0
    for col in range(n):
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


def integer_generating_sets(shapes=((16, 4), (8, 8), (4, 2), (6, 3), (3, 5))):
    # up to n x m for (n, m) in shapes, with zero rows, rows that combine
    # earlier ones (so rank-deficient sets too), negative entries and
    # entries up to 10^12
    @st.composite
    def sets(draw):
        n, m = draw(st.sampled_from(shapes))
        bound = draw(st.sampled_from([1, 10, 10**4, 10**12]))
        entry = st.integers(-bound, bound)
        rows = []
        for _ in range(draw(st.integers(0, n))):
            kind = draw(st.sampled_from(["free", "free", "zero", "combination"]))
            if kind == "zero" or (kind == "combination" and not rows):
                rows.append([0] * m)
            elif kind == "combination":
                a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
                x, y = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
                rows.append([x * u + y * v for u, v in zip(a, b)])
            else:
                rows.append([draw(entry) for _ in range(m)])
        return rows

    return sets()


@settings(max_examples=200, deadline=None)
@given(integer_generating_sets())
def test_hnf_int_agrees_with_euclid_oracle(rows):
    # the n-column xgcd kernel against the Euclid rounds, on every shape;
    # on two columns the rank-2 kernel gives the same rows, as tuples
    h = _oracle_hnf_xgcd(rows)
    assert h == _oracle_hnf_int(rows)
    if rows and len(rows[0]) == 2:
        assert _hnf_int(rows) == tuple(map(tuple, h))


@settings(max_examples=500, deadline=None)
@given(integer_generating_sets(((0, 2), (1, 2), (2, 2), (3, 2), (6, 2), (12, 2))))
@example([])
@example([[0, 0], [0, 0]])
@example([[0, -4], [0, 6]])  # first column zero: one row (0, gcd)
@example([[3, 5], [-6, -10]])  # dependent: rank 1, the row with a positive pivot
@example([[10**12, 1], [10**12 - 1, 0], [0, 10**12]])
def test_rank2_hnf_agrees_with_both_oracles(rows):
    # the rank-2 kernel, one xgcd fold of the first column, against the
    # n-column xgcd kernel it replaced and the Euclid rounds before that:
    # the same nonzero rows, as tuples, in HNF
    h = _hnf_int(rows)
    assert h == tuple(map(tuple, _oracle_hnf_xgcd(rows))) == tuple(map(tuple, _oracle_hnf_int(rows)))
    assert type(h) is tuple and all(type(row) is tuple for row in h)
    if len(h) == 2:
        (alpha, beta), (zero, delta) = h
        assert alpha > 0 and zero == 0 and 0 <= beta < delta
    assert _hnf_int(h) == h


# Trial division by 2, 3 and 6k +- 1, the primality test that strong
# probable-prime tests replaced; kept as their oracle.
def _oracle_is_prime(n):
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


def test_is_prime_agrees_with_trial_division_below_10_5():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _oracle_is_prime(n)
    ]
    for bad in (-7, 0, 1, 2.0, "7", None):
        assert is_prime(bad) is False


@given(st.integers(min_value=10**5, max_value=10**10))
def test_is_prime_agrees_with_trial_division(n):
    assert is_prime(n) == _oracle_is_prime(n)


# composites that pass the strong test to every base in a prefix of the
# primes: the least for 1, 2, ..., 13 bases (psi_1, ..., psi_13)
STRONG_PSEUDOPRIMES = [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, _PSI_13,
]
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
              5394826801, 232250619601, 9746347772161, 1436697831295441,
              60977817398996785, 7156857700403137441, 1791562810662585767521]
# the least strong Lucas pseudoprimes with Selfridge's parameters (A217255)
STRONG_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519]


def test_strong_pseudoprimes_and_carmichael_numbers_are_composite():
    for k, n in enumerate(STRONG_PSEUDOPRIMES, start=1):
        assert not is_prime(n), n
        assert all(_strong_probable_prime(n, a) for a in _MR_BASES[:k])
    for n in CARMICHAEL + STRONG_LUCAS_PSEUDOPRIMES:
        assert not is_prime(n), n
    # the Lucas half of the test is the standard one: it is fooled exactly
    # where the published list says, so base 2 must catch these
    assert all(_strong_lucas_probable_prime(n) for n in STRONG_LUCAS_PSEUDOPRIMES)
    assert _MR_BASES[-1] == 41 and len(_MR_BASES) == 13


def test_strong_lucas_test_exits_early_on_a_square_and_on_a_common_factor():
    # a square has no D with (D/n) = -1: without the square test the search
    # for D would run until D = +-1009 shares the factor
    probable, counts = call_counts(_strong_lucas_probable_prime, 1009**2)
    assert not probable and counts["exactlattice._jacobi"] == 0
    # n = 47 * 10000000223387: the 21 values of D before -47 give a symbol
    # other than -1, and D = -47, the 22nd, gives 0, so gcd(D, n) > 1
    probable, counts = call_counts(_strong_lucas_probable_prime, 470000010499189)
    assert not probable and counts["exactlattice._jacobi"] == 22


def test_is_prime_cross_checks_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    cases = STRONG_PSEUDOPRIMES + CARMICHAEL + STRONG_LUCAS_PSEUDOPRIMES
    cases += [2**k - 1 for k in (61, 67, 89, 107, 127, 521)]
    for lo in (10**12, 10**18, _PSI_13 // 10, _PSI_13, 10**40):
        cases += [rng.randrange(lo, 10 * lo) for _ in range(40)]
        primes = [sympy.randprime(lo, 10 * lo) for _ in range(6)]
        cases += primes + [p * q for p in primes[:3] for q in primes[3:]]
        cases += [p * p for p in primes[:2]] + [p * (2 * (p - 1) + 1) for p in primes[:3]]
    cases += [_PSI_13 + k for k in range(-200, 200)]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n


ROOT = Path(__file__).resolve().parents[1]


def _unread():
    # tools/src_lines.py's {module file: public names no other module reads},
    # on the package under test; the script is loaded by its path
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    return src_lines._unread(Path(smallrank.__file__).parent)


def test_every_public_function_has_a_caller_in_the_package():
    # each primitive has one kernel, and public surface with no caller is
    # deleted: every public function of exactlattice is read by name in
    # another module of the package (an import alone does not count)
    unread = _unread()
    library = ("cubes", "cubicrings", "exactlattice", "padic", "quadforms", "quadrings", "quarticrings")
    assert sorted(unread) == [m + ".py" for m in library]
    assert [name for name in unread["exactlattice.py"] if "." not in name] == []


def test_every_public_name_is_read_documented_or_accepted():
    # a public function or class of a library module, or a public method
    # or property of a public class, stays only if another module reads it,
    # the README names it as code (an inline span or a fenced block) or the
    # acceptance suite imports it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = {w for span in re.findall(r"```.*?```|`[^`\n]+`", readme, re.S) for w in re.findall(r"\w+", span)}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = {a.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom) for a in node.names}
    unread = _unread()
    kept = named | imported
    assert {m: [n for n in names if n.rpartition(".")[2] not in kept] for m, names in unread.items()} == {
        m: [] for m in unread
    }
    # a star import takes __all__: every name there exists, and every public
    # function and class of the module is there
    for name in ("quarticrings", "padic"):
        module = importlib.import_module("smallrank." + name)
        assert [n for n in module.__all__ if not hasattr(module, n)] == []
        defined = {
            n for n, obj in vars(module).items()
            if (inspect.isfunction(obj) or inspect.isclass(obj))
            and not n.startswith("_") and obj.__module__ == module.__name__
        }
        assert sorted(defined - set(module.__all__)) == []


def test_integer_checks_live_only_in_the_errors_gate():
    # one input gate: no module but errors.py calls isinstance(x, int) or
    # isinstance(x, (..., int, ...)), the others run errors._ints/_int; nor
    # isinstance(x, C) for a class C of smallrank outside an __eq__, the
    # others run errors._of
    pkg = os.path.dirname(smallrank.__file__)
    classes = {
        attr
        for info in pkgutil.iter_modules([pkg])
        for attr, obj in vars(importlib.import_module("smallrank." + info.name)).items()
        if inspect.isclass(obj) and obj.__module__.startswith("smallrank.")
    }
    found = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py") or name == "errors.py":
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as f:
            module = ast.parse(f.read(), name)
        in_eq = {
            id(node)
            for eq in ast.walk(module)
            if isinstance(eq, ast.FunctionDef) and eq.name == "__eq__"
            for node in ast.walk(eq)
        }
        for node in ast.walk(module):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                kinds = node.args[1]
                kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                kinds = {k.id for k in kinds if isinstance(k, ast.Name)}
                if "int" in kinds or (kinds & classes and id(node) not in in_eq):
                    found.append("%s:%d" % (name, node.lineno))
    assert found == []


def test_self_checks_are_one_form_that_python_O_keeps():
    # every self-check is `if <violated>: raise InvariantViolation(...)`: no
    # module has an assert statement, which python -O drops, or names
    # AssertionError outside errors.py, and none reads __debug__, so -O runs
    # the same checks
    pkg = os.path.dirname(smallrank.__file__)
    found = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as f:
            module = ast.parse(f.read(), name)
        for node in ast.walk(module):
            names = {node.id} if isinstance(node, ast.Name) else set()
            if isinstance(node, ast.Assert):
                found.append("%s:%d assert" % (name, node.lineno))
            elif "__debug__" in names or ("AssertionError" in names and name != "errors.py"):
                found.append("%s:%d %s" % (name, node.lineno, node.id))
    assert found == []
