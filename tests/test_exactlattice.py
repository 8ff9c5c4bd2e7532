"""Exact integer/rational lattice arithmetic."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

import smallrank
from smallrank.errors import DimensionError, DomainError, RankError
from smallrank.exactlattice import (
    _MR_BASES,
    _PSI_13,
    _coords2,
    _hnf_coords,
    _hnf_int,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    divisor_sigma,
    divisors,
    factorize,
    hnf_canonicalize,
    is_prime,
    lattice_coords,
    lattice_intersect,
    mat2_det,
    mat_det,
    mat_mul,
    xgcd,
)

ints = st.integers(min_value=-10**6, max_value=10**6)


# Reference Gaussian eliminations over Fraction, the implementation that the
# fraction-free integer kernel replaced; kept as the oracle for it.
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
# inverse-and-denominator loops) that lattice_coords replaced; kept as its
# oracle.
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
    det = _oracle_det(m)
    assert mat_det(m) == det
    n = len(m)
    if det == 0:
        with pytest.raises(RankError):
            lattice_coords(m, _identity(n))
    else:
        # the coordinates of s*I are s*m^-1, integral once s clears denominators
        inv = _oracle_inv(m)
        s = lcm(*(e.denominator for row in inv for e in row))
        assert lattice_coords(m, _identity(n, s)) == tuple(
            tuple(s * e for e in row) for row in inv
        )


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
    basis, combos, others = case
    n = len(basis)
    on = [[sum(c[i] * basis[i][j] for i in range(n)) for j in range(n)] for c in combos]
    with pytest.raises(DimensionError):
        lattice_coords(basis, on + [[0] * (n + 1)])
    if _oracle_det(basis) == 0:
        with pytest.raises(RankError):
            lattice_coords(basis, on + others)
        return
    assert lattice_coords(basis, on) == tuple(tuple(c) for c in combos)
    coords = lattice_coords(basis, on + others)
    assert coords == _oracle_coords(basis, on + others)
    if coords is None:
        assert any(lattice_coords(basis, [v]) is None for v in others)


@st.composite
def hnfs_and_vectors(draw):
    # a full-rank integer HNF, integer combinations of its rows (on the
    # lattice), and those plus a small shift (mostly off it)
    n = draw(st.integers(1, 5))
    bound = draw(st.sampled_from([3, 30, 10**6]))
    entry = st.integers(-bound, bound)
    extra = draw(st.integers(0, 2))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n + extra)]
    h = _hnf_int(rows)
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
        expected = lattice_coords(h, [v])
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
        for f in (_coords2, lattice_coords):
            with pytest.raises(RankError):
                f(rows, vectors)
        return
    assert _coords2(rows, vectors) == lattice_coords(rows, vectors)
    assert _coords2(rows, on) == lattice_coords(rows, on) == tuple(map(tuple, combos))


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
    with pytest.raises(RankError):
        lattice_coords((), [])
    with pytest.raises(DimensionError):
        lattice_coords(((1, 0),), [])
    assert lattice_coords(((2, 0), (0, 2)), [(1, 0)]) is None
    assert lattice_coords(((2, 0), (1, 1)), []) == ()


@given(square_matrices(st.integers(min_value=-50, max_value=50)))
def test_det_of_integer_matrix_is_an_integral_fraction(m):
    det = mat_det(m)
    assert isinstance(det, Fraction)
    assert det.denominator == 1
    assert det == _oracle_det(m)


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
        try:
            h = hnf_canonicalize(basis)
        except RankError:
            assert mat_det(basis) == 0
            continue
        assert mat_det(basis) != 0
        # pivots positive, entries above each pivot reduced into [0, pivot)
        for i in range(n):
            assert h[i][i] > 0
            for r in range(i):
                assert 0 <= h[r][i] < h[i][i]
            for j in range(i):
                assert h[i][j] == 0
        assert hnf_canonicalize(h) == h


def test_hnf_is_a_lattice_invariant():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.choice((2, 3))
        basis = tuple(
            tuple(Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2, 3))) for _ in range(n))
            for _ in range(n)
        )
        try:
            h = hnf_canonicalize(basis)
        except RankError:
            continue
        u = _random_unimodular(rng, n)
        assert hnf_canonicalize(mat_mul(u, basis)) == h


def test_hnf_errors():
    with pytest.raises(RankError):
        hnf_canonicalize(((1, 2), (2, 4)))
    with pytest.raises(RankError):
        hnf_canonicalize(())
    for ragged in (((1, 2), (1,)), ((1,), (2, 3)), ((1, 2, 3), (4, 5))):
        with pytest.raises(DimensionError):
            hnf_canonicalize(ragged)
    with pytest.raises(DimensionError):
        lattice_intersect(((1, 2),), ((1, 2, 3),))
    with pytest.raises(RankError):
        lattice_intersect((), ())
    # plain tuples of Fraction tuples, not a subclass
    h = hnf_canonicalize(((2, 0), (1, 1)))
    assert type(h) is tuple and type(h[0]) is tuple
    assert repr(h) == "((Fraction(1, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(2, 1)))"


def test_mat_det_rejects_non_square():
    with pytest.raises(DimensionError):
        mat_det(((1, 2, 3), (4, 5, 6)))
    with pytest.raises(DimensionError):
        mat_det(((1, 2), (3,)))


def test_mat_inverse_and_solve():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.choice((2, 3, 4))
        m = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
        det = mat_det(m)
        if det == 0:
            with pytest.raises(RankError):
                lattice_coords(m, _identity(n))
            continue
        # the coordinates of det*I are adj(m), so m^-1 = adj / det
        adj = lattice_coords(m, _identity(n, int(det)))
        inv = tuple(tuple(Fraction(e) / det for e in row) for row in adj)
        ident = tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
            for i in range(n)
        )
        assert mat_mul(m, inv) == ident
        assert mat_mul(inv, m) == ident
        c = tuple(rng.randint(-9, 9) for _ in range(n))
        v = tuple(sum(c[i] * m[i][j] for i in range(n)) for j in range(n))
        assert lattice_coords(m, [v]) == (c,)


def test_det_multiplicative():
    rng = random.Random(14)
    for _ in range(50):
        a = tuple(tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3))
        b = tuple(tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3))
        assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)


def test_index_contains_intersect():
    ident = ((1, 0), (0, 1))
    double = ((2, 0), (0, 2))
    assert mat_det(double) / mat_det(ident) == 4
    assert lattice_coords(ident, [(7, -3)]) == ((7, -3),)
    assert lattice_coords(double, [(1, 0)]) is None
    assert hnf_canonicalize(lattice_intersect(double, ((3, 0), (0, 3)))) == (
        (6, 0),
        (0, 6),
    )
    mixed = lattice_intersect(((1, 0), (0, 2)), ((2, 0), (0, 1)))
    assert hnf_canonicalize(mixed) == ((2, 0), (0, 2))


def test_intersection_is_largest_common_sublattice():
    rng = random.Random(15)
    for _ in range(40):
        b1 = tuple(tuple(rng.randint(-6, 6) for _ in range(2)) for _ in range(2))
        b2 = tuple(tuple(rng.randint(-6, 6) for _ in range(2)) for _ in range(2))
        if mat_det(b1) == 0 or mat_det(b2) == 0:
            continue
        meet = lattice_intersect(b1, b2)
        assert lattice_coords(b1, meet) is not None
        assert lattice_coords(b2, meet) is not None
        # the index in either factor is integral
        assert (mat_det(meet) / mat_det(b1)).denominator == 1
        assert (mat_det(meet) / mat_det(b2)).denominator == 1


# The dual-sum intersection that the one block HNF replaced, on the Fraction
# inverse oracle; kept as the oracle for lattice_intersect.
def _oracle_intersect(b1, b2):
    b1 = hnf_canonicalize(b1)
    b2 = hnf_canonicalize(b2)
    if len(b1[0]) != len(b2[0]):
        raise DimensionError("ambient dimensions differ")
    d1 = tuple(zip(*_oracle_inv(b1)))  # rows of (B^-1)^T span the dual
    d2 = tuple(zip(*_oracle_inv(b2)))
    dsum = hnf_canonicalize(d1 + d2)
    return hnf_canonicalize(tuple(zip(*_oracle_inv(dsum))))


@st.composite
def generating_sets(draw, n):
    # n or n + 1 rational rows; sometimes every row is a combination of n - 1
    # of them, so the set is rank-deficient
    k = draw(st.integers(min_value=n, max_value=n + 1))
    rows = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(k)]
    if draw(st.booleans()):
        for i in range(n - 1, k):
            c = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
            rows[i] = [sum(c[r] * rows[r][j] for r in range(n - 1)) for j in range(n)]
    return rows


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(generating_sets(n), generating_sets(n))))
def test_lattice_intersect_agrees_with_dual_sum_oracle(pair):
    b1, b2 = pair
    try:
        expected = _oracle_intersect(b1, b2)
    except RankError:
        with pytest.raises(RankError):
            lattice_intersect(b1, b2)
        return
    meet = lattice_intersect(b1, b2)
    assert meet == expected
    assert repr(meet) == repr(expected)


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
    assert divisor_sigma(m61) == 2**61
    assert factorize(3 * 1009**2 * m61) == {3: 1, 1009: 2, m61: 1}
    assert factorize(1013 * 1019 * m61) == {1013: 1, 1019: 1, m61: 1}
    assert time.perf_counter() - start < 1.0


def test_divisor_sigma_spots():
    assert divisor_sigma(1) == 1
    assert divisor_sigma(4) == 7
    assert divisor_sigma(5) == 6
    assert divisor_sigma(12) == 28
    with pytest.raises(DomainError):
        divisor_sigma(0)


def test_divisor_sigma_matches_the_divisor_sum():
    # sigma comes from the factorization, so this compares two computations
    for n in range(1, 2001):
        assert divisor_sigma(n) == sum(divisors(n)), n


def test_divisor_sigma_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in list(range(1, 2001)) + [55440, 3**40 * 7**5, (10**9 + 7) * 97]:
        assert divisor_sigma(n) == sympy.divisor_sigma(n), n


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


@st.composite
def integer_generating_sets(draw):
    # up to 16 x 4 and 8 x 8, with zero rows, rows that combine earlier ones
    # (so rank-deficient sets too), negative entries and entries up to 10^12
    n, m = draw(st.sampled_from([(16, 4), (8, 8), (4, 2), (6, 3), (3, 5)]))
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


@settings(max_examples=200, deadline=None)
@given(integer_generating_sets())
def test_hnf_int_agrees_with_euclid_oracle(rows):
    assert _hnf_int(rows) == _oracle_hnf_int(rows)


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
