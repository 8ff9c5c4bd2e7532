"""Quartic rings from pairs of integral ternary quadratic forms."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product as iproduct
from math import gcd
from unittest import mock

import pytest
from callcounts import call_counts
from hypothesis import assume, example, given, settings, strategies as st
from orbits import count_maximal_lifts, generators, orbits
from test_cubicrings import _oracle_trace_disc
from test_exactlattice import (
    _oracle_divisor_sigma,
    _oracle_hnf_canonicalize,
    _oracle_hnf_xgcd,
    _oracle_inv,
    _oracle_lattice_coords,
    _oracle_mat_det,
    _oracle_mat_mul,
)

from smallrank import quarticrings
from smallrank.errors import DegenerateRing, DomainError, InvariantViolation, TrivialRing, _of
from smallrank.cubicrings import CubicRing, _cubic_eval, cubic_form_disc, cubic_twisted_act, ring_from_cubic_form
from smallrank.exactlattice import (
    _Ring,
    _coords2,
    _hnf_coords,
    _hnf_from_rref,
    _hnf_int,
    _rref_mod_p,
    _unscaled,
    divisors,
    factorize,
    mat2_det,
)
from smallrank.quadrings import QuadraticRing
from smallrank.quarticrings import (
    SIX,
    QuarticRing,
    count_numerical_resolvents,
    cubic_resolvent_form,
    disc_match,
    enumerate_numerical_resolvents,
    is_maximal_at_p,
    lambda_system,
    nonmaximality_conditions_witness,
    pair_from_ring,
    plucker_check,
    resolvent_identity_check,
    ring_from_pair,
)
from smallrank.quarticrings import (
    _MINORS,
    MinimalResolvent,
    _associative,
    _closed_mod_p,
    _content,
    _lambda_from_c,
    _maximal_at_p,
    _minors,
    _radical,
    _radical_subspaces,
    _resolvent_data,
    _rows,
    _table_of,
    _ternary_eval,
)

P_A = (0, 0, 0, 1, 0, -1)
P_B = (0, 0, 0, 0, 1, -1)
P_Z4 = (P_A, P_B)
I4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

forms = st.tuples(*[st.integers(-3, 3)] * 6)


def _random_pairs(seed, count, bound=3):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pair = (
            tuple(rng.randint(-bound, bound) for _ in range(6)),
            tuple(rng.randint(-bound, bound) for _ in range(6)),
        )
        if any(v for v in lambda_system(pair).values()):
            out.append(pair)
    return out


# Maximality at every prime, which the library offered while these tests were
# its only callers; kept as their oracle, under its old name, which the
# golden errors family hashes with the message.  Only primes whose square
# divides the discriminant can carry a proper enlargement, so those are the
# only ones tested, and it stops at the first where the ring is not maximal.
def is_maximal(ring):
    d = _of(QuarticRing, ring).disc()
    if d == 0:
        raise DegenerateRing("maximality is undefined for discriminant zero")
    return all(e < 2 or _maximal_at_p(ring, p)[0] for p, e in factorize(abs(d)).items())


def test_six_ordering():
    assert SIX == ((1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3))


def test_ternary_eval():
    assert _ternary_eval((1, 2, 3, 4, 5, 6), (1, 1, 1)) == 21
    assert _ternary_eval((1, 2, 3, 4, 5, 6), (1, 0, 0)) == 1
    assert _ternary_eval((1, 2, 3, 4, 5, 6), (0, 1, 1)) == 2 + 3 + 6


def test_lambda_system_spots():
    lam = lambda_system(P_Z4)
    assert len(lam) == 15
    nonzero = {k: v for k, v in lam.items() if v}
    assert nonzero == {(3, 4): 1, (3, 5): -1, (4, 5): 1}


def test_plucker():
    assert plucker_check(lambda_system(P_Z4))
    assert not plucker_check({k: 1 for k in lambda_system(P_Z4)})
    with pytest.raises(DomainError):
        plucker_check(tuple(lambda_system(P_Z4).values()))
    for pair in _random_pairs(41, 40):
        assert plucker_check(lambda_system(pair))


def test_z4_structure():
    ring = ring_from_pair(P_Z4)
    nonzero = {k: v for k, v in ring.c.items() if v}
    assert nonzero == {(1, 1, 1): 1, (2, 2, 2): 1, (3, 3, 3): 1}
    assert ring.disc() == 1


def test_mutating_the_table_dict_leaves_the_ring_unchanged():
    # c is read off the one table _t as a new dict, so a caller's edit to it
    # reaches neither the products, the discriminant nor == and hash
    ring, fresh = ring_from_pair(P_Z4), ring_from_pair(P_Z4)
    x, y = (1, 2, -1, 3), (0, 1, 1, -2)
    product = ring.mul(x, y)
    c = ring.c
    c[(1, 2, 0)] += 5
    c[(1, 1, 1)] = 7
    assert ring.c == fresh.c and ring.c != c
    assert ring.disc() == 1 and ring.mul(x, y) == product
    assert ring == fresh and hash(ring) == hash(fresh)
    with pytest.raises(DomainError, match="not associative"):
        QuarticRing(c)


def test_ring_axioms_on_random_pairs():
    rng = random.Random(42)
    for pair in _random_pairs(43, 40):
        ring = ring_from_pair(pair)
        one = (1, 0, 0, 0)
        for _ in range(4):
            x = tuple(rng.randint(-5, 5) for _ in range(4))
            y = tuple(rng.randint(-5, 5) for _ in range(4))
            z = tuple(rng.randint(-5, 5) for _ in range(4))
            assert ring.mul(one, x) == x
            assert ring.mul(x, y) == ring.mul(y, x)
            assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))


# The check over all 27 triples of xi1, xi2, xi3, which the 9 triples of
# _associative replaced; kept as its oracle.
def _oracle_associative(ring):
    basis = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    for x in basis:
        for y in basis:
            xy = ring.mul(x, y)
            for z in basis:
                if ring.mul(xy, z) != ring.mul(x, ring.mul(y, z)):
                    return False
    return True


# The row vector r times the 4x4 matrix m, the sum of r[k] * m[k]: the
# product _associative made 18 calls of before it compared the coordinates
# as integer sums; kept as the product of the oracles below.
def _oracle_times(r, m):
    return tuple(sum(r[k] * m[k][j] for k in range(4)) for j in range(4))


# The 9 triples x < z of _associative as 18 row-times-matrix products, the
# check before it unpacked the rows; kept as its oracle.
def _oracle_associative_by_products(t):
    return all(
        _oracle_times(t[x][y], t[z]) == _oracle_times(t[y][z], t[x])
        for x in (1, 2)
        for z in range(x + 1, 4)
        for y in (1, 2, 3)
    )


class _CountedInt(int):
    # an int that counts the products it is the left factor of, which
    # return plain ints
    products = 0

    def __mul__(self, other):
        _CountedInt.products += 1
        return int(self) * other


def _associativity_products(t):
    # the integer products _associative makes on table rows t
    _CountedInt.products = 0
    _associative(tuple(tuple(tuple(map(_CountedInt, row)) for row in m) for m in t))
    return _CountedInt.products


TABLE_KEYS = [(i, j, k) for i in range(1, 4) for j in range(i, 4) for k in range(4)]


def _unchecked(c):
    # the ring of any table dict c, associative or not, built as _table_of
    # builds its rings: with none of the checks of QuarticRing(c)
    return QuarticRing._from_rows(_rows(c))


def _associative_by_check(c):
    # whether QuarticRing(c) builds a ring; it refuses only a table that is
    # not associative, as every entry here is an int
    try:
        QuarticRing(c)
    except DomainError as e:
        assert str(e) == "multiplication table is not associative"
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=len(TABLE_KEYS), max_size=len(TABLE_KEYS)))
@example([0] * len(TABLE_KEYS))
@example([int(k == (i, j)[0] == j) for i, j, k in TABLE_KEYS])  # xi_i^2 = xi_i: Z^4
def test_associativity_check_agrees_with_27_triple_oracle(entries):
    c = dict(zip(TABLE_KEYS, entries))
    assert _associative_by_check(c) == _oracle_associative(_unchecked(c))
    assert _associative(_rows(c)) == _oracle_associative_by_products(_rows(c))


@settings(max_examples=200, deadline=None)
@given(forms, forms, st.sampled_from(TABLE_KEYS), st.integers(-2, 2))
@example(P_A, P_B, (1, 2, 0), 1)
def test_associativity_check_on_perturbed_tables(a, b, key, delta):
    c = dict(ring_from_pair((a, b)).c)
    c[key] += delta
    assert _associative_by_check(c) == _oracle_associative(_unchecked(c))
    assert _associative(_rows(c)) == _oracle_associative_by_products(_rows(c))
    if delta == 0:
        assert _associative_by_check(c)


def test_ring_from_pair_makes_at_most_18_products():
    # structural guard for the reduced associativity check: one check, the
    # 288 integer products of 18 row-times-matrix products (36 coordinates
    # of 8), 864 with all 27 triples, on an associative table; the table
    # constants are integer arithmetic on the minors and make none, and no
    # product of elements; the minors are one tuple, with no dict; counted,
    # not timed
    for pair in _random_pairs(50, 5) + [P_Z4]:
        ring, counts = call_counts(ring_from_pair, pair)
        assert counts["quarticrings._associative"] == 1 and counts["quarticrings.QuarticRing.mul"] == 0
        assert counts["quarticrings._minors"] == 1 and counts["quarticrings.lambda_system"] == 0
        assert _associativity_products(ring._t) == 18 * 16


# The xi-coefficients c_ij^k (k >= 1) as linear expressions in the minors,
# under the normalization c_12^1 = c_23^2 = c_13^3 = 0, one table that drove
# both directions of the minors <-> table map before _table_of and
# _lambda_from_c wrote them out; kept as their oracle.  Each entry
# (key, sign, minor, diag) reads c[key] = sign * lam[minor] + c[diag], with
# c[diag] taken as 0 when diag is None.  Minor indices refer to SIX:
# 0=(1,1), 1=(2,2), 2=(3,3), 3=(1,2), 4=(1,3), 5=(2,3).
#
# Orientation note: the entries are the unique solution (under the chosen
# normalization) of the determinant identity
#   det[x | y | sum_c] = sum lam^{ij}_{kl} x_i x_j y_k y_l ,
# checked by exact linear solve; summaries of this system elsewhere can
# differ by pair-orientation in the first two equation families.
_C_FROM_LAMBDA = (
    ((1, 1, 2), -1, (0, 4), None),
    ((1, 1, 3), 1, (0, 3), None),
    ((2, 2, 1), 1, (1, 5), None),
    ((2, 2, 3), -1, (1, 3), None),
    ((3, 3, 1), -1, (2, 5), None),
    ((3, 3, 2), 1, (2, 4), None),
    ((1, 2, 3), 1, (0, 1), None),
    ((1, 3, 2), -1, (0, 2), None),
    ((2, 3, 1), 1, (1, 2), None),
    ((1, 2, 2), -1, (0, 5), None),
    ((2, 3, 3), -1, (1, 4), None),
    ((1, 3, 1), -1, (2, 3), None),
    ((1, 1, 1), 1, (3, 4), (1, 2, 2)),
    ((2, 2, 2), -1, (3, 5), (2, 3, 3)),
    ((3, 3, 3), 1, (4, 5), (1, 3, 1)),
)


def _c_linear_from_lambda(lam):
    # the xi-coefficients c_ij^k (k >= 1) of the table, from a dict of minors
    c = {(1, 2, 1): 0, (2, 3, 2): 0, (1, 3, 3): 0}
    for key, sign, minor, diag in _C_FROM_LAMBDA:
        c[key] = sign * lam[minor] + (c[diag] if diag else 0)
    return c


def _lambda_from_c_by_table(t):
    # the inverse of _c_linear_from_lambda, read off table rows t
    return {
        minor: sign * (t[i][j][k] - (t[d[0]][d[1]][d[2]] if d else 0))
        for (i, j, k), sign, minor, d in _C_FROM_LAMBDA
    }


# The dict comprehension that lambda_system ran before it zipped the keys
# with the tuple of _minors; kept as its oracle.
def _oracle_lambda_system(pair):
    a, b = pair
    return {(x, y): a[x] * b[y] - a[y] * b[x] for x, y in combinations(range(6), 2)}


big = st.integers(-10**30, 10**30)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[big] * 6), st.tuples(*[big] * 6))
@example((0,) * 6, (0,) * 6)
@example(P_A, P_B)
def test_minors_agree_with_the_dict_comprehension(a, b):
    m = _minors(a, b)
    assert type(m) is tuple and all(type(v) is int for v in m)
    assert dict(zip(_MINORS, m)) == _oracle_lambda_system((a, b)) == lambda_system((a, b))
    assert list(lambda_system((a, b))) == list(_MINORS)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[big] * 15))
@example((0,) * 15)
@example(tuple(range(1, 16)))
def test_minors_round_trip_through_the_table(m):
    # any 15 ints, Plucker or not: the xi-coefficients of _table_of are
    # those of the oracle table, and _lambda_from_c reads the minors back
    ring, lam = _table_of(m), dict(zip(_MINORS, m))
    t = ring._t
    assert {key: v for key, v in ring.c.items() if key[2]} == _c_linear_from_lambda(lam)
    assert _lambda_from_c(t) == m
    assert dict(zip(_MINORS, _lambda_from_c(t))) == _lambda_from_c_by_table(t) == lam


def _oracle_table_of(lam):
    # the constants as the xi_w coordinates of two full row-times-matrix
    # products each, which _table_of computed before it read that
    # coordinate alone; kept as its oracle
    c = _c_linear_from_lambda(lam)
    for i, j in quarticrings._PAIRS:
        c[(i, j, 0)] = 0
    t = _rows(c)
    for u, v, w in ((1, 2, 1), (1, 3, 1), (2, 3, 2), (1, 1, 2), (2, 2, 1), (3, 3, 1)):
        c[(u, v, 0)] = _oracle_times(t[u][w], t[v])[w] - _oracle_times(t[u][v], t[w])[w]
    return c


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-9, 9), big), min_size=15, max_size=15))
def test_table_constants_agree_with_row_times_matrix_oracle(values):
    # any minors, Plucker or not: the constants are read off t alone
    lam = dict(zip(sorted(lambda_system(P_Z4)), values))
    assert _table_of(tuple(values)).c == _oracle_table_of(lam)


def test_tables_from_pairs_are_built_once_and_checked_once():
    # structural guard: ring_from_pair builds its ring with none of the
    # checks of QuarticRing(c), and pair_from_ring rebuilds the witness's
    # table from its minors, computed once, with no associativity check
    # and no check of the witness it built, whose entries are ints of its
    # coordinate solve; counted, not timed
    pairs = _random_pairs(53, 10) + [P_Z4, (tuple(6 * v for v in P_A), P_B)]
    for pair in pairs:
        ring, counts = call_counts(ring_from_pair, pair)
        assert counts["quarticrings.QuarticRing.__init__"] == 0 and counts["quarticrings._minors"] == 1
        _, counts = call_counts(pair_from_ring, ring)
        assert counts["quarticrings.QuarticRing.__init__"] == 0 and counts["quarticrings._associative"] == 0
        assert counts["quarticrings._coerce_pair"] == 0 and counts["errors._ints"] == 0
        assert counts["quarticrings._minors"] == 1 and counts["quarticrings.lambda_system"] == 0
        assert QuarticRing(ring.c) == ring


@pytest.mark.parametrize("p, square_and_multiply", [(2, 6), (3, 12), (5, 9), (7, 12), (11, 15), (13, 15)])
def test_radical_powers_make_no_product_by_one(p, square_and_multiply):
    # counted, not timed: e_0^q = 1 is written down, and square-and-multiply
    # takes floor(log2(q)) + popcount(q) - 1 products for each of the three
    # other e_i^q, q = 4 at p = 2, 9 at p = 3, else p; the first square
    # e_i^2 of each is read off the table row _t[i][i], so three fewer
    # products are made; the walk that follows makes none
    ring = ring_from_pair(((0, -1, 0, 0, 1, 0), (p, 0, 1, 0, 0, 0)))
    walk, counts = call_counts(lambda: list(_radical_subspaces(_radical(ring, p), p)))
    q = {2: 4, 3: 9}.get(p, p)
    assert square_and_multiply == 3 * (q.bit_length() - 1 + bin(q).count("1") - 1)
    assert counts["quarticrings.QuarticRing.mul"] == square_and_multiply - 3
    assert walk == list(_oracle_radical_subspaces(ring, p))


def test_enumerate_numerical_resolvents_factorizes_once():
    # one factorize of the content, 6: divisors(n) makes it, the count check
    # none
    ring = ring_from_pair((tuple(6 * v for v in P_A), P_B))
    lattices, counts = call_counts(enumerate_numerical_resolvents, ring)
    assert len(lattices) == 12 and counts["exactlattice.factorize"] == 1


def test_ring_from_pair_rejects_non_integer_coefficients():
    # int() used to truncate: this pair gave the Z^4 ring, disc 1
    for pair in (
        ((0.5, 0, 0, 1, 0, -1), P_B),
        (P_A, (0, 0, 0, 0, 1, -1.0)),
        (P_A, (0, 0, 0, 0, "1", -1)),
    ):
        with pytest.raises(DomainError):
            ring_from_pair(pair)
        with pytest.raises(DomainError):
            cubic_resolvent_form(pair)


def test_quartic_ring_rejects_non_integer_table_entries():
    # int() used to store an entry 1.7 as 1
    c = dict(ring_from_pair(P_Z4).c)
    for bad in (1.7, 1.0, Fraction(1), "1"):
        with pytest.raises(DomainError):
            QuarticRing({**c, (1, 2, 3): bad})


def test_resolvent_form_is_four_times_determinant():
    for pair in _random_pairs(44, 25):
        a, b = pair
        form = cubic_resolvent_form(pair)
        for x in range(-3, 4):
            for y in range(-3, 4):
                m = tuple(
                    tuple(
                        Fraction(
                            a[SIX.index((min(i, j) + 1, max(i, j) + 1))] * x
                            + b[SIX.index((min(i, j) + 1, max(i, j) + 1))] * y,
                            1 if i == j else 2,
                        )
                        for j in range(3)
                    )
                    for i in range(3)
                )
                assert 4 * _oracle_mat_det(m) == _cubic_eval(form, x, y)


# cubic_resolvent_form as it was, reading the form off g(x, y) = 4 det(A x +
# B y) at the four points (1, 0), (0, 1), (1, 1) and (1, -1): p = g(1, 0),
# s = g(0, 1), and g(1, +-1) = p +- q + r +- s; kept as its oracle.
def _oracle_cubic_resolvent_form(pair):
    a, b = pair

    def g(x, y):
        m11, m22, m33, m12, m13, m23 = (x * u + y * v for u, v in zip(a, b))
        return 4 * m11 * m22 * m33 + m12 * m13 * m23 - m11 * m23 * m23 - m22 * m13 * m13 - m33 * m12 * m12

    p, s, plus, minus = g(1, 0), g(0, 1), g(1, 1), g(1, -1)
    return p, (plus - minus) // 2 - s, (plus + minus) // 2 - p, s


big_forms = st.tuples(*[st.integers(-(2**64), 2**64)] * 6)


@settings(max_examples=300, deadline=None)
@given(st.one_of(forms, big_forms), st.one_of(forms, big_forms))
@example(P_A, P_B)
@example((2**64, -(2**64), 2**64 - 1, 1, -1, 2**64), (-(2**64) + 1, 2**64, 3, -(2**64), 2**64, 0))
def test_resolvent_form_agrees_with_four_point_oracle(a, b):
    form = cubic_resolvent_form((a, b))
    assert all(type(c) is int for c in form) and form == _oracle_cubic_resolvent_form((a, b))


def test_resolvent_form_spot():
    assert cubic_resolvent_form(P_Z4) == (0, -1, -1, 0)
    scaled = (tuple(5 * v for v in P_A), P_B)
    assert cubic_resolvent_form(scaled) == (0, -25, -5, 0)


def test_disc_agrees_with_trace_matrix_oracle():
    pairs = _random_pairs(48, 60) + [P_Z4, ((0,) * 6, (0,) * 6)]
    for a, b in pairs:
        for pair in ((a, b), (tuple(3 * v for v in a), b)):
            ring = ring_from_pair(pair)
            d = ring.disc()
            assert type(d) is int and d == _oracle_trace_disc(ring, 4)


def test_disc_match_and_identity():
    rng = random.Random(45)
    for pair in _random_pairs(46, 60):
        assert disc_match(pair)
        for _ in range(2):
            x = tuple(rng.randint(-4, 4) for _ in range(3))
            assert resolvent_identity_check(pair, x)



def test_resolvent_identity_check_rejects_non_integer_x():
    # truncation would check x = (0.5, 1, 2) as (0, 1, 2), which holds
    assert resolvent_identity_check(P_Z4, (0, 1, 2))
    for x in ((0.5, 1, 2), (0, 1.0, 2), (0, 1), 5):
        with pytest.raises(DomainError):
            resolvent_identity_check(P_Z4, x)


# resolvent_identity_check as it was, with the Fraction determinant of the
# xi-shadows of x, x^2, x^3; kept as its oracle.
def _oracle_resolvent_identity_check(pair, x):
    a, b = pair
    ring = ring_from_pair(pair)
    e = (0, *x)
    e2 = ring.mul(e, e)
    e3 = ring.mul(e2, e)
    lhs = _oracle_mat_det((e[1:], e2[1:], e3[1:]))
    y = (0, _ternary_eval(b, x), -_ternary_eval(a, x))
    y2 = ring_from_cubic_form(cubic_resolvent_form(pair)).mul(y, y)
    return lhs == mat2_det((y[1:], y2[1:]))


@settings(max_examples=150, deadline=None)
@given(forms, forms, st.tuples(*[st.integers(-6, 6)] * 3))
def test_resolvent_identity_check_agrees_with_fraction_determinant(a, b, x):
    assert resolvent_identity_check((a, b), x) == _oracle_resolvent_identity_check((a, b), x)
    # the answer compares both sides: the resolvent side one off, and the
    # check fails
    with mock.patch.object(quarticrings, "mat2_det", lambda rows: mat2_det(rows) + 1):
        assert not resolvent_identity_check((a, b), x)

def test_minimal_resolvent_of_z4():
    resolvent, witness = pair_from_ring(ring_from_pair(P_Z4))
    assert resolvent.content == 1
    assert resolvent.lattice == ((1, 0), (0, 1))
    assert witness == P_Z4


def test_pair_round_trip():
    for pair in _random_pairs(47, 40):
        ring = ring_from_pair(pair)
        _, witness = pair_from_ring(ring)
        assert ring_from_pair(witness) == ring


def _witness_in_first_lattice(ring):
    # the pair in the coordinates of the first enumerated resolvent lattice
    _, mu, _, den = _resolvent_data(ring)
    first = enumerate_numerical_resolvents(ring)[0]
    return tuple(zip(*_oracle_lattice_coords(first, _unscaled(mu, den))))


def test_pair_from_ring_uses_the_first_resolvent_lattice():
    for pair in _random_pairs(49, 30, bound=4):
        ring = ring_from_pair(pair)
        assert pair_from_ring(ring)[1] == _witness_in_first_lattice(ring)
    ring = ring_from_pair((tuple(5040 * v for v in P_A), P_B))
    resolvent, witness = pair_from_ring(ring)
    assert resolvent.content == 5040
    assert witness == _witness_in_first_lattice(ring)
    assert ring_from_pair(witness) == ring


def test_resolvent_counting():
    for p in (2, 3, 5):
        scaled = (tuple(p * v for v in P_A), P_B)
        ring = ring_from_pair(scaled)
        res, _ = pair_from_ring(ring)
        assert res.content == p
        assert count_numerical_resolvents(ring) == p + 1
        lattices = enumerate_numerical_resolvents(ring)
        assert len(lattices) == p + 1
        assert len(set(lattices)) == p + 1
    four = ring_from_pair((tuple(4 * v for v in P_A), P_B))
    assert count_numerical_resolvents(four) == 7


def test_trivial_ring():
    zero = ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0))
    ring = ring_from_pair(zero)
    with pytest.raises(TrivialRing):
        count_numerical_resolvents(ring)
    with pytest.raises(TrivialRing):
        pair_from_ring(ring)


# The gcd of the 15 xi-coefficients c_ij^k (k >= 1) of the six rows
# xi_i*xi_j other than the three zeros of the normalized basis, which
# _content took before it read the minors; kept as its oracle.  It is the
# gcd of the minors: twelve of the coefficients are +- one minor, and each
# of the other three, c_ii^i, is +- a minor plus one of those twelve, so
# both sets span the same Z-module.
def _oracle_content(ring):
    _, (_, a, b, c), (_, _, d, e), (_, _, _, f) = ring._t
    return gcd(a[1], a[2], a[3], b[2], b[3], c[1], c[2], d[1], d[2], d[3], e[1], e[3], f[1], f[2], f[3])


def _assert_content(ring, m):
    # _content of the ring of the minors m is their gcd, also the oracle's,
    # with m itself, and TrivialRing when every minor is 0
    n = gcd(*m)
    assert _oracle_content(ring) == n
    if n == 0:
        with pytest.raises(TrivialRing):
            _content(ring)
    else:
        assert _content(ring) == (n, m)


@settings(max_examples=300, deadline=None)
@given(forms, forms, st.sampled_from([1, 2, 6, 5040]))
@example(P_A, P_B, 1)
@example((0,) * 6, (0,) * 6, 1)
def test_content_is_the_gcd_of_the_minors(a, b, k):
    pair = (tuple(k * v for v in a), b)
    _assert_content(ring_from_pair(pair), tuple(lambda_system(pair).values()))


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[big] * 15))
@example((0,) * 15)
@example((0,) * 14 + (-(10**30),))
def test_content_of_any_fifteen_minors_is_their_gcd(m):
    # any 15 ints, Plucker or not, through the table of _table_of
    _assert_content(_table_of(m), m)


def test_resolvent_data_is_computed_once_per_call():
    # counted, not timed: the ring keeps nothing, so each call of
    # pair_from_ring or enumerate_numerical_resolvents makes one mu-lattice
    # _hnf_int (six rows of length 2, one xgcd fold: at most one xgcd per
    # mu-vector with a nonzero first coordinate, five at most as mu_y has
    # none), and none for the lattices, which are written down;
    # count_numerical_resolvents reads the content off the table and makes
    # none; each reads the minors off the table once
    for pair in _random_pairs(51, 20) + [(tuple(6 * v for v in P_A), P_B)]:
        ring = ring_from_pair(pair)
        count, counts = call_counts(count_numerical_resolvents, ring)
        assert counts["exactlattice._hnf_int"] == 0 and counts["quarticrings._lambda_from_c"] == 1
        assert counts["exactlattice.xgcd"] == 0
        for fn in (pair_from_ring, enumerate_numerical_resolvents):
            first, counts = call_counts(fn, ring)
            assert counts["exactlattice._hnf_int"] == 1 and counts["quarticrings._lambda_from_c"] == 1
            assert 1 <= counts["exactlattice.xgcd"] <= 5
            assert call_counts(fn, ring) == (first, counts)
        assert len(first) == count


def test_enumerated_lattices_need_no_hnf():
    # counted: enumerate_numerical_resolvents makes one _hnf_int call, for
    # the six mu-vectors, at most five xgcd steps, and none for the
    # lattices, for contents up to 60 times that of the unscaled pair; the
    # lattices agree with the oracle's
    for k, (a, b) in enumerate(_random_pairs(52, 25)):
        ring = ring_from_pair((tuple((1, 2, 6, 12, 60)[k % 5] * v for v in a), b))
        lattices, counts = call_counts(enumerate_numerical_resolvents, ring)
        assert counts["exactlattice._hnf_int"] == 1 and len(lattices) == count_numerical_resolvents(ring)
        assert counts["exactlattice.xgcd"] <= 5
        assert lattices == _oracle_enumerate_numerical_resolvents(ring)


@pytest.mark.parametrize(
    "name, fault, message",
    [
        # doubled dets: the first det checked, of two mu-vectors, is twice
        # its minor times d^2, d != 0 the first minor
        ("mat2_det", lambda f: lambda rows: 2 * f(rows), "mu realization"),
        # a doubled HNF: 4 times the covolume of the mu-lattice
        ("_hnf_int", lambda f: lambda rows: tuple(tuple(2 * e for e in row) for row in f(rows)), "covolume"),
        # a doubled content, the minors kept: the covolume checks it against them
        ("_content", lambda f: lambda ring: (lambda n, m: (2 * n, m))(*f(ring)), "covolume"),
    ],
    ids=["mu-vectors", "covolume", "content"],
)
def test_resolvent_self_checks_run_on_every_call(monkeypatch, name, fault, message):
    # the ring keeps no resolvent data, so a fault just upstream of each
    # check of _resolvent_data raises from both entry points that compute
    # it, on every call, also on a ring that answered before the fault;
    # without the fault the same ring answers again
    pair = (tuple(6 * v for v in P_A), P_B)
    ring = ring_from_pair(pair)
    answers = [entry(ring) for entry in (pair_from_ring, enumerate_numerical_resolvents)]
    monkeypatch.setattr(quarticrings, name, fault(getattr(quarticrings, name)))
    for entry in (pair_from_ring, enumerate_numerical_resolvents):
        for _ in range(2):
            with pytest.raises(InvariantViolation, match=message):
                entry(ring)
    monkeypatch.undo()
    assert [entry(ring) for entry in (pair_from_ring, enumerate_numerical_resolvents)] == answers


def test_resolvent_and_maximality_errors_are_raised_on_every_call():
    # nothing is kept from a call that raises: the kind gate and TrivialRing
    # of the resolvents, and DegenerateRing of maximality; a table that is
    # neither Plucker nor associative is refused, every time, when built
    zero = ring_from_pair(((0,) * 6, (0,) * 6))
    c = dict(ring_from_pair(((1, 2, 3, 0, 1, 1), (0, 1, -1, 2, 0, 1))).c)
    c[(1, 1, 1)] += 1
    assert not plucker_check(dict(zip(_MINORS, _lambda_from_c(_rows(c))))) and not _associative(_rows(c))
    cases = ((zero, TrivialRing), ("ring", DomainError), (None, DomainError))
    for entry in (pair_from_ring, count_numerical_resolvents, enumerate_numerical_resolvents):
        for ring, error in cases:
            for _ in range(2):
                with pytest.raises(error):
                    entry(ring)
    for _ in range(2):
        with pytest.raises(DomainError, match="not associative"):
            QuarticRing(c)
        with pytest.raises(DegenerateRing):
            is_maximal_at_p(zero, 2)
        with pytest.raises(DegenerateRing):
            is_maximal(zero)


def test_resolvents_refuse_a_table_that_is_not_associative():
    # a constant term one off leaves the minors as they are, so Plucker
    # holds, but the table is no ring: QuarticRing refuses it on every
    # attempt, so no resolvent entry point is ever given it
    ring = ring_from_pair(((1, 2, 3, 0, 1, 1), (0, 1, -1, 2, 0, 1)))
    c = dict(ring.c)
    c[(1, 2, 0)] += 1
    lam = _lambda_from_c(_rows(c))
    assert lam == _lambda_from_c(ring._t) and plucker_check(dict(zip(_MINORS, lam)))
    assert not _associative(_rows(c))
    for _ in range(2):
        with pytest.raises(DomainError, match="multiplication table is not associative"):
            QuarticRing(c)


def _shifted(ring, s):
    # the table of ring in the basis 1, xi_i + s_i, an isomorphic ring: an
    # element w0 + sum w_k*xi_k has there the coordinates w0 - sum w_k*s_k,
    # w1, w2, w3
    basis = [(s[i], *(int(i == k) for k in range(3))) for i in range(3)]
    c = {}
    for i, j in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)):
        w = ring.mul(basis[i - 1], basis[j - 1])
        new = (w[0] - sum(a * b for a, b in zip(w[1:], s)), *w[1:])
        c.update({(i, j, k): new[k] for k in range(4)})
    return QuarticRing(c)


def test_resolvents_refuse_a_table_outside_the_normalized_basis():
    # xi1 shifted by 1 gives an isomorphic ring with c_13^3 = 1; its minors
    # were read off by the normalized-basis formula, which then failed the
    # Plucker relations with a message that blamed the table
    ring = ring_from_pair(((1, 2, 3, 0, 1, 1), (0, 1, -1, 2, 0, 1)))
    shifted = _shifted(ring, (1, 0, 0))
    assert _associative(shifted._t) and shifted._t[1][3][3] == 1
    assert shifted.disc() == ring.disc() and is_maximal(shifted) == is_maximal(ring)
    for entry in (pair_from_ring, count_numerical_resolvents, enumerate_numerical_resolvents):
        with pytest.raises(DomainError, match="normalized basis"):
            entry(shifted)
    assert _shifted(ring, (0, 0, 0)) == ring


def test_every_ring_class_holds_only_its_table():
    # one state at every rank: _t alone
    assert _Ring.__slots__ == ("_t",)
    for cls in (QuadraticRing, CubicRing, QuarticRing):
        assert cls.__bases__ == (_Ring,) and cls.__slots__ == ()
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
    rings = (QuadraticRing(1, 6), CubicRing(0, 1, -1, 1), ring_from_pair(P_Z4))
    assert not any(hasattr(ring, "__dict__") for ring in rings)
    # the table alone decides == and the hash, and rings of two ranks differ
    assert all(hash(ring) == hash(ring._t) for ring in rings)
    assert rings[2] == QuarticRing._from_rows(rings[2]._t)
    assert len(set(rings)) == 3 and rings[0] != rings[1] != rings[2]


@pytest.mark.parametrize(
    "ring",
    [QuadraticRing(1, 6), CubicRing(0, 1, -1, 1), ring_from_pair(P_Z4)],
    ids=lambda ring: type(ring).__name__,
)
def test_ring_repr_evaluates_to_an_equal_ring(ring):
    assert eval(repr(ring), vars(sys.modules[type(ring).__module__])) == ring


# The 15 Plucker quadrics of the minors m, a tuple in _MINORS order, written
# out in the sign of the alternating sum lam(w,x)lam(y,z) - lam(w,y)lam(x,z) +
# lam(w,z)lam(x,y) over w < x < y < z, each key in increasing order.
def _plucker_quadrics(m):
    def lam(x, y):
        return m[_MINORS.index((x, y))]

    return [
        lam(w, x) * lam(y, z) - lam(w, y) * lam(x, z) + lam(w, z) * lam(x, y)
        for w, x, y, z in combinations(range(6), 4)
    ]


def test_associativity_implies_the_plucker_relations_symbolically():
    # for symbolic minors, each Plucker quadric lies in the Q-span of the
    # associator coordinates of _table_of(lam): so an associative table in
    # the normalized basis, which is _table_of of its own minors, has minors
    # that satisfy Plucker, and _resolvent_data need not check them
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols("l0:15")
    t = _table_of(symbols)._t
    associator = [
        sympy.expand(u - v)
        for x in (1, 2, 3)
        for y in (1, 2, 3)
        for z in (1, 2, 3)
        for u, v in zip(_oracle_times(t[x][y], t[z]), _oracle_times(t[y][z], t[x]))
    ]
    associator = [e for e in associator if e != 0]
    plucker = [sympy.expand(e) for e in _plucker_quadrics(symbols)]
    assert len(plucker) == 15 and all(plucker)
    polys = [sympy.Poly(e, *symbols) for e in associator + plucker]
    monomials = sorted({m for poly in polys for m in poly.as_dict()})
    rows = [[poly.as_dict().get(m, 0) for m in monomials] for poly in polys]
    span = sympy.Matrix(rows[: len(associator)]).rank()
    assert span == sympy.Matrix(rows).rank()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=15, max_size=15))
@example([1] + [0] * 13 + [1])  # lam(0,1) = lam(4,5) = 1: the quadric of 0 < 1 < 4 < 5 is 1
def test_minors_that_violate_plucker_give_a_table_that_is_not_associative(values):
    lam = dict(zip(sorted(lambda_system(P_Z4)), values))
    assume(not plucker_check(lam))
    assert not _associative(_table_of(tuple(values))._t)


@settings(max_examples=150, deadline=None)
@given(forms, forms, st.sampled_from((2, 3, 5)), st.booleans(), forms, forms)
@example((0, 0, 0, 1, 0, -1), (0, 0, 0, 0, 1, -1), 2, True, (1, 0, 0, 0, 0, 0), (0,) * 6)
def test_maximality_at_p_is_a_condition_mod_p_squared(a, b, p, scaled, s, t):
    # the pairs whose ring is maximal at p are cut out by congruences mod p^2
    # (Bhargava, Ann. Math. 162, 2005): adding p^2 times integers to A and B
    # never changes the answer.  A scaled by p makes most rings not maximal
    if scaled:
        a = tuple(p * v for v in a)
    moved = tuple(v + p * p * w for v, w in zip(a, s)), tuple(v + p * p * w for v, w in zip(b, t))
    rings = ring_from_pair((a, b)), ring_from_pair(moved)
    assume(all(ring.disc() for ring in rings))
    assert is_maximal_at_p(rings[0], p)[0] == is_maximal_at_p(rings[1], p)[0]


# Bhargava's density of quartic rings maximal at p, counted exactly with the
# action written here on coefficient tuples, (a11, a22, a33, a12, a13, a23)
# as in _ternary_eval, and only ring_from_pair and is_maximal_at_p called.
_SLOT = {(0, 0): 0, (1, 1): 1, (2, 2): 2, (0, 1): 3, (0, 2): 4, (1, 2): 5}


def _substitute(form, g):
    # the coefficients of form(y) with y_i = sum_k g[i][k] x_k
    out = [0] * 6
    for (i, j), c in zip(_SLOT, form):
        for k in range(3):
            for m in range(3):
                out[_SLOT[min(k, m), max(k, m)]] += c * g[i][k] * g[j][m]
    return out


def _pair_act(v, g2, g3):
    # (g2, g3) on a pair v = A + B as one 12-tuple: A and B substituted by
    # g3, then (A, B) -> (rA + sB, tA + uB) for g2 = ((r, s), (t, u))
    a, b = _substitute(v[:6], g3), _substitute(v[6:], g3)
    (r, s), (t, u) = g2
    return tuple([r * x + s * y for x, y in zip(a, b)] + [t * x + u * y for x, y in zip(a, b)])


def _shear(i, j, t):
    # the 3x3 matrix of x_i -> x_i + t*x_j
    return [[int(k == m) + t * (k == i and m == j) for m in range(3)] for k in range(3)]


_ONE2, _ONE3 = ((1, 0), (0, 1)), _shear(0, 0, 0)


def _pair_orbits(p):
    # (representative, size) of each GL2(F_p) x GL3(F_p)-orbit on the p^12
    # pairs mod p
    moves = [(g, _ONE3) for g in generators(2, p)] + [(_ONE2, g) for g in generators(3, p)]
    return orbits(p, 12, [lambda v, g2=g2, g3=g3: _pair_act(v, g2, g3) for g2, g3 in moves])


def _pair_tangents(v):
    # the 13 tangent vectors of the action at v: (A, 0), (B, 0), (0, A),
    # (0, B) from GL2, and from GL3 the derivative of x_i -> x_i + t*x_j at
    # t = 0, (g(1) - g(-1))/2 exactly
    rows = [v[:6] + (0,) * 6, v[6:] + (0,) * 6, (0,) * 6 + v[:6], (0,) * 6 + v[6:]]
    for i in range(3):
        for j in range(3):
            plus, minus = (_pair_act(v, _ONE2, _shear(i, j, t)) for t in (1, -1))
            rows.append(tuple((x - y) // 2 for x, y in zip(plus, minus)))
    return rows


def test_bhargava_density_of_pairs_maximal_at_2():
    # among the p^24 pairs mod p^2, exactly p^24 mu_p give a ring maximal at
    # p, mu_p = (1 - p^-2)^2 (1 - p^-3)(1 + p^-2 - p^-3 - p^-4) (Bhargava,
    # Ann. Math. 162, 2005; IMRN 2007), as maximality at p is a condition
    # mod p^2.  At p = 2 the 2^12 pairs mod 2 fall into 20 orbits, and one
    # lift per coset makes 1,585 rings.  A lift of disc 0 is moved by
    # p^2*P_Z4 until its disc is not 0: a polynomial of degree 12 in the
    # number of moves, with leading coefficient p^24*disc(P_Z4) = p^24
    p = 2
    pairs = _pair_orbits(p)
    assert len(pairs) == 20 and sum(size for _, size in pairs) == p**12

    def maximal(w):
        while not (ring := ring_from_pair((tuple(w[:6]), tuple(w[6:])))).disc():
            w = [x + p * p * y for x, y in zip(w, P_A + P_B)]
        return is_maximal_at_p(ring, p)[0]

    total, rings = count_maximal_lifts(p, pairs, _pair_tangents, maximal)
    assert rings == 1585
    assert total == (p**2 - 1) ** 2 * (p**3 - 1) * (p**4 + p**2 - p - 1) * p**13 == 8_773_632


def test_associativity_is_checked_once_when_a_ring_is_built():
    # counted, not timed: a table built by hand gets its check once, in
    # QuarticRing(c), with no product of elements; then neither it nor a
    # ring from ring_from_pair costs maximality or the resolvent count one
    # associativity check
    rings = [ring_from_pair(pair) for pair in _random_pairs(52, 10) + [P_144]]
    built, counts = call_counts(QuarticRing, dict(rings[-1].c))
    assert counts["quarticrings._associative"] == 1 and counts["quarticrings.QuarticRing.mul"] == 0
    assert built == rings[-1]

    def answers():
        for ring in rings + [built]:
            if ring.disc():
                is_maximal_at_p(ring, 2)
                is_maximal(ring)
            count_numerical_resolvents(ring)

    assert call_counts(answers)[1]["quarticrings._associative"] == 0
    assert is_maximal(built) and is_maximal_at_p(built, 3) == (True, None)


# The 2x2 product and second HNF that pair_from_ring ran for its chosen
# lattice before it wrote that HNF down; kept as its oracle.
def _oracle_chosen_lattice(n, h):
    return _hnf_int(_oracle_mat_mul(((n, 0), (0, 1)), h))


@settings(max_examples=200, deadline=None)
@given(forms, forms, st.sampled_from([1, 2, 3, 4, 6, 12]))
@example((-2, 1, 3, 3, 3, -3), (-1, -3, 0, 3, 0, 0), 6)  # h = ((6, 504), (0, 1764)), n = 6
@example((1, 1, -2, 3, -3, 3), (1, 3, 3, 3, -1, -3), 2)  # h = ((2, 8), (0, 16)), n = 2
@example(P_A, P_B, 5040)
def test_chosen_lattice_agrees_with_hnf_oracle(a, b, k):
    # the witness is the pair in the coordinates of the chosen lattice, so
    # the oracle's lattice gives the same witness exactly when it is the
    # same HNF (another basis of one lattice gives a GL2-moved pair)
    pair = (tuple(k * v for v in a), b)
    assume(any(lambda_system(pair).values()))
    ring = ring_from_pair(pair)
    n, mu, h, _ = _resolvent_data(ring)
    coords = _coords2(_oracle_chosen_lattice(n, h), [(n * e, n * f) for e, f in mu])
    assert pair_from_ring(ring)[1] == tuple(zip(*coords))


def test_maximality_of_z4():
    ring = ring_from_pair(P_Z4)
    for p in (2, 3, 5):
        ok, witness = is_maximal_at_p(ring, p)
        assert ok and witness is None
    assert is_maximal(ring)


def test_non_maximality_with_witness():
    for p in (2, 3, 5):
        scaled = (tuple(p * v for v in P_A), P_B)
        ring = ring_from_pair(scaled)
        ok, witness = is_maximal_at_p(ring, p)
        assert not ok
        index = 1 / abs(_oracle_mat_det(witness))
        assert index.denominator == 1 and int(index) % p == 0
        assert _oracle_lattice_coords(witness, I4) is not None
    two = ring_from_pair((tuple(2 * v for v in P_A), P_B))
    assert not is_maximal(two)


def _subspaces_avoiding_one(p):
    """Row-reduced bases of subspaces of F_p^4 not containing (1,0,0,0).

    Yields lists of integer row vectors (entries in [0, p)) in reduced
    echelon form, one list per subspace of dimension 1, 2 or 3.
    """
    for r in range(1, 4):
        for pivots in combinations(range(4), r):
            free_positions = []
            for row, piv in enumerate(pivots):
                for col in range(piv + 1, 4):
                    if col not in pivots:
                        free_positions.append((row, col))
            for values in iproduct(range(p), repeat=len(free_positions)):
                rows = [[0] * 4 for _ in range(r)]
                for row, piv in enumerate(pivots):
                    rows[row][piv] = 1
                for (row, col), v in zip(free_positions, values):
                    rows[row][col] = v
                # (1,0,0,0) lies in the span iff the first pivot column is 0
                # and that row vanishes elsewhere
                if pivots[0] == 0 and all(v == 0 for v in rows[0][1:]):
                    continue
                yield [tuple(row) for row in rows]


# The walk over all ~p^4 subspaces of Q/pQ avoiding 1 that is_maximal_at_p
# ran before it was restricted to the subspaces of the nilradical; kept as
# its oracle.
def _oracle_walk_is_maximal_at_p(ring, p):
    p_rows = [tuple(p * int(i == j) for j in range(4)) for i in range(4)]
    for rows in _subspaces_avoiding_one(p):
        h = _oracle_hnf_xgcd(p_rows + rows)
        ph = [[p * e for e in row] for row in h]
        if all(
            _oracle_lattice_coords(ph, [ring.mul(h[i], h[j])]) is not None
            for i in range(4)
            for j in range(i, 4)
        ):
            return (False, _unscaled(h, p))
    return (True, None)


# The Fraction candidate loop that is_maximal_at_p ran before it moved to
# integer HNF rows and lattice_coords; kept as its oracle.
def _oracle_is_maximal_at_p(ring, p):
    identity_rows = [tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)]
    for rows in _subspaces_avoiding_one(p):
        cand = identity_rows + [tuple(Fraction(t, p) for t in v) for v in rows]
        basis = _oracle_hnf_canonicalize(tuple(cand))
        inv = _oracle_inv(basis)
        closed = True
        for i in range(4):
            for j in range(i, 4):
                w = ring.mul(basis[i], basis[j])
                coords = tuple(sum(w[k] * inv[k][t] for k in range(4)) for t in range(4))
                if any(co.denominator != 1 for co in coords):
                    closed = False
                    break
            if not closed:
                break
        if closed:
            return (False, basis)
    return (True, None)


def test_maximality_agrees_with_fraction_oracle():
    answers = []
    for pair in _random_pairs(47, 12):
        for p in (2, 3):
            for a in (pair[0], tuple(p * v for v in pair[0])):
                ring = ring_from_pair((a, pair[1]))
                if ring.disc() == 0:
                    continue
                result = is_maximal_at_p(ring, p)
                assert result == _oracle_is_maximal_at_p(ring, p)
                answers.append(result[0])
    assert len(answers) >= 40 and set(answers) == {True, False}


def test_maximality_and_semigroup_run_without_generic_elimination():
    # structural guard: the package has no generic determinant or trace-form
    # elimination; the closure tests and the ideal constructor use the
    # substitution and 2x2 helpers, and each ring class has its own
    # closed-form discriminant
    import sys

    from smallrank.quadrings import class_semigroup

    # totally ramified and maximal at 3: every candidate's closure is tested
    ramified = ring_from_pair(((0, -1, 0, 0, 1, 0), (3, 0, 1, 0, 0, 0)))
    assert is_maximal_at_p(ramified, 3) == (True, None)
    scaled = ring_from_pair((tuple(2 * v for v in P_A), P_B))
    assert not is_maximal_at_p(scaled, 2)[0]
    elements, table = class_semigroup(-300)
    assert len(table) == len(elements) > 1
    assert resolvent_identity_check(P_Z4, (0, 1, 2))
    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "smallrank"]
    assert len(modules) > 1
    gone = ("_bareiss", "_trace_disc", "_nonzero_disc", "_trace")
    assert not any(hasattr(module, name) for module in modules for name in gone)
    assert not hasattr(_Ring, "disc")
    assert all("disc" in vars(cls) for cls in (QuadraticRing, CubicRing, QuarticRing))
    # one calling convention: disc() is a method on every rank
    for n, ring in enumerate((QuadraticRing(1, 6), ring_from_cubic_form((1, -3, 1, 2)), scaled), 2):
        d = ring.disc()
        assert type(d) is int and d == _oracle_trace_disc(ring, n), n


def test_maximality_walk_rejects_rank_2_and_3_rings_of_discriminant_zero():
    # the walk reads the discriminant of a ring of any rank itself
    for ring in (QuadraticRing(2, 1), ring_from_cubic_form((1, 0, 0, 0))):
        assert ring.disc() == 0
        with pytest.raises(DegenerateRing, match="^maximality is undefined for discriminant zero$"):
            _maximal_at_p(ring, 2)


@settings(max_examples=60, deadline=None)
@given(forms, forms, st.sampled_from([2, 3, 5]), st.sampled_from([(1, 1), (0, 1), (1, 0), (0, 0)]))
@example(P_A, P_B, 5, (1, 1))
@example(P_A, P_B, 5, (0, 1))
def test_maximality_agrees_with_full_walk(a, b, p, scale):
    pair = (tuple(p**scale[0] * v for v in a), tuple(p**scale[1] * v for v in b))
    ring = ring_from_pair(pair)
    if ring.disc() == 0:
        return
    assert is_maximal_at_p(ring, p) == _oracle_walk_is_maximal_at_p(ring, p)


def _nilpotent_mod_p(ring, v, p):
    # v^4 = 0 in Q/pQ; a nilpotent element of a rank-4 algebra has v^4 = 0
    v2 = ring.mul(v, v)
    return all(t % p == 0 for t in ring.mul(v2, v2))


@settings(max_examples=100, deadline=None)
@given(forms, forms, st.sampled_from([2, 3, 5]), st.booleans())
@example(P_A, P_B, 2, False)
@example(P_A, P_B, 3, True)
def test_radical_subspaces(a, b, p, scaled):
    pair = (tuple(p * v for v in a) if scaled else a, b)
    ring = ring_from_pair(pair)
    if ring.disc() == 0:
        return
    walk = list(_radical_subspaces(_radical(ring, p), p))
    # exactly the nilpotent subspaces, in the order of the full walk
    assert walk == [
        rows
        for rows in _subspaces_avoiding_one(p)
        if all(_nilpotent_mod_p(ring, v, p) for v in rows)
    ]
    # Q/pQ has a nonzero nilradical iff p divides the discriminant; R lies
    # in the kernel of the trace form mod p, so p^(dim R) divides it
    assert (len(walk) > 0) == (ring.disc() % p == 0)
    dim = max((len(rows) for rows in walk), default=0)
    assert ring.disc() % p**dim == 0


@st.composite
def matrices_mod_p(draw):
    # up to 12 rows of n <= 8 integers: random, zero, or a combination of
    # two earlier rows
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 101]))
    n = draw(st.integers(1, 8))
    entries, coeffs = st.integers(-3 * p, 3 * p), st.integers(-p, p)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["random", "zero", "dependent"]))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "dependent" and rows:
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(coeffs), draw(coeffs)
            rows.append([a * u + b * v for u, v in zip(x, y)])
        else:
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
    return rows, n, p


@settings(max_examples=150, deadline=None)
@given(matrices_mod_p())
@example(([], 4, 2))
@example(([[0] * 8] * 3, 8, 101))
def test_rref_mod_p_is_the_pivot_one_rows_of_the_hnf(case):
    # the integer HNF of the rows and p*I_n is the oracle of the RREF over F_p
    rows, n, p = case
    p_rows = [[p * int(i == j) for j in range(n)] for i in range(n)]
    hnf = _oracle_hnf_xgcd(rows + p_rows)
    # full rank: a pivot in every column, each pivot 1 or p
    assert len(hnf) == n
    assert all(not any(row[:i]) and row[i] in (1, p) for i, row in enumerate(hnf))
    pivot_one = [tuple(row) for row in hnf if next(filter(None, row)) == 1]
    assert pivot_one == _rref_mod_p(rows, p)


@settings(max_examples=150, deadline=None)
@given(matrices_mod_p())
@example(([], 4, 2))
@example(([[1, 2, 0, 3], [0, 0, 1, 4]], 4, 5))
def test_hnf_from_rref_is_the_hnf_of_the_rows_and_p_times_the_identity(case):
    # the witness HNF is written down from the RREF rows; the n-column xgcd
    # HNF is its oracle
    rows, n, p = case
    rref = _rref_mod_p(rows, p)
    p_rows = [[p * int(i == j) for j in range(n)] for i in range(n)]
    assert _hnf_from_rref(rref, p, n) == _oracle_hnf_xgcd(p_rows + rref) == _oracle_hnf_xgcd(rows + p_rows)


# The subspace walk that _radical_subspaces ran before it built each
# candidate one step at a time: every RREF coefficient matrix C over F_p^s,
# then the product C*B; kept as its oracle.
def _subspaces(p, s):
    """RREF bases of the nonzero subspaces of F_p^s.

    Yields tuples of integer rows (entries in [0, p)) ordered by dimension,
    then pivot columns, then the free entries in row-major order.
    """
    for r in range(1, s + 1):
        for pivots in combinations(range(s), r):
            free = [
                (row, col)
                for row, piv in enumerate(pivots)
                for col in range(piv + 1, s)
                if col not in pivots
            ]
            for values in iproduct(range(p), repeat=len(free)):
                rows = [[int(col == piv) for col in range(s)] for piv in pivots]
                for (row, col), v in zip(free, values):
                    rows[row][col] = v
                yield tuple(map(tuple, rows))


def _oracle_radical_subspaces(ring, p):
    # _radical_subspaces as it ran before the RREF over F_p: the kernel of
    # x -> x^q read off the integer HNF of [e_i^q | e_i] and p*I_2n, then
    # the walk above
    unit = ring._t[0]
    n = len(unit)
    q = p
    while q < n:
        q *= p
    rows = []
    for e in unit:
        power, x, k = unit[0], e, q
        while k:
            if k & 1:
                power = tuple(t % p for t in ring.mul(power, x))
            x = tuple(t % p for t in ring.mul(x, x))
            k >>= 1
        rows.append(power + e)
    echelon = _oracle_hnf_xgcd(rows + [[p * int(i == j) for j in range(2 * n)] for i in range(2 * n)])
    rref = [row for row in echelon if next(filter(None, row)) == 1]
    radical = [row[n:] for row in rref if not any(row[:n])]
    for coeffs in _subspaces(p, len(radical)):
        yield [tuple(t % p for t in row) for row in _oracle_mat_mul(coeffs, radical)]


def test_radical_subspaces_agree_with_rref_oracle():
    # every rank, every radical dimension it allows, at six primes
    dims = {2: set(), 3: set(), 4: set()}
    for p in (2, 3, 5, 7, 11, 13):
        rings = []
        for a, b in _random_pairs(49 + p, 8) + [P_Z4, (RAMIFIED_A, (p, 0, 1, 0, 0, 0))]:
            for pair in ((a, b), (tuple(p * v for v in a), b), (a, tuple(p * v for v in b))):
                rings.append(ring_from_pair(pair))
        rng = random.Random(p)
        for _ in range(12):
            t, u = rng.randint(-6, 6), rng.randint(-30, 30)
            form = tuple(rng.randint(-4, 4) for _ in range(4))
            rings += [QuadraticRing(t, u), QuadraticRing(p * t, p * p * u)]
            rings += [ring_from_cubic_form(form), ring_from_cubic_form((p * p * form[0], p * form[1], *form[2:]))]
        rings += [ring_from_cubic_form((0, 0, 0, 0)), QuadraticRing(0, 0)]
        for ring in rings:
            walk = list(_radical_subspaces(_radical(ring, p), p))
            assert walk == list(_oracle_radical_subspaces(ring, p))
            dims[len(ring._t)].add(max((len(rows) for rows in walk), default=0))
    assert dims == {2: {0, 1}, 3: {0, 1, 2}, 4: {0, 1, 2, 3}}


def _gaussian_binomial(s, r, p):
    # the number of subspaces of dimension r of F_p^s
    num = den = 1
    for i in range(r):
        num *= p ** (s - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_radical_subspaces_walks_each_subspace_of_the_rows_once(s, p):
    # the walk alone, on the unit rows e_1..e_s of F_p^4: every nonzero
    # subspace once, each as its own RREF
    rows = [tuple(int(j == i) for j in range(4)) for i in range(1, s + 1)]
    walk = [tuple(candidate) for candidate in _radical_subspaces(rows, p)]
    assert all(_rref_mod_p(candidate, p) == list(candidate) for candidate in walk)
    assert len(set(walk)) == len(walk) == sum(_gaussian_binomial(s, r, p) for r in range(1, s + 1))
    if s == 3:
        assert len(walk) == 2 * p * p + 2 * p + 3


def test_radical_is_the_rref_of_the_nilpotent_vectors():
    # brute force over F_p^n: v is nilpotent mod p iff v^n = 0 mod p, and
    # the nilpotent vectors of a commutative ring form a subspace, so there
    # are p^(dim R) of them and their RREF is the radical's basis
    dims = set()
    for p in (2, 3):
        rng = random.Random(70 + p)
        rings = []
        for a, b in _random_pairs(70 + p, 4):
            rings += [ring_from_pair((a, b)), ring_from_pair((tuple(p * v for v in a), b))]
        for _ in range(4):
            t, u = rng.randint(-6, 6), rng.randint(-30, 30)
            form = tuple(rng.randint(-4, 4) for _ in range(4))
            rings += [QuadraticRing(t, u), QuadraticRing(p * t, p * p * u)]
            rings += [ring_from_cubic_form(form), ring_from_cubic_form((p * p * form[0], p * form[1], *form[2:]))]
        for ring in rings:
            n = len(ring._t)
            nilpotent = []
            for v in iproduct(range(p), repeat=n):
                power = v
                for _ in range(n - 1):
                    power = ring.mul(power, v)
                if all(x % p == 0 for x in power):
                    nilpotent.append(v)
            radical = _radical(ring, p)
            assert len(nilpotent) == p ** len(radical)
            assert _rref_mod_p(nilpotent, p) == radical
            dims.add((n, len(radical)))
    # every rank, every radical dimension it allows: R never contains 1
    assert dims == {(n, k) for n in (2, 3, 4) for k in range(n)}


def test_condition_tags():
    assert nonmaximality_conditions_witness(P_Z4, 2) == "none"
    for p in (2, 3, 5):
        scaled = (tuple(p * v for v in P_A), P_B)
        assert nonmaximality_conditions_witness(scaled, p) == "d"
    assert nonmaximality_conditions_witness(
        ((9, 18, 9, 9, 3, 6), (1, 2, 0, 1, 1, 1)), 3
    ) == "c"
    assert nonmaximality_conditions_witness(
        ((4, 1, 1, 2, 2, 1), (2, 1, 0, 1, 1, 0)), 2
    ) == "a"
    assert nonmaximality_conditions_witness(
        ((3, 6, 1, 3, 1, 2), (6, 3, 2, 9, 1, 1)), 3
    ) == "b"


def test_condition_tags_are_sound():
    rng = random.Random(48)
    tagged = 0
    for _ in range(60):
        p = rng.choice((2, 3))
        a = tuple(rng.randint(-3, 3) for _ in range(6))
        b = tuple(rng.randint(-3, 3) for _ in range(6))
        if rng.random() < 0.5:
            a = tuple(p * v for v in a)
        pair = (a, b)
        if not any(lambda_system(pair).values()):
            continue
        ring = ring_from_pair(pair)
        if ring.disc() == 0:
            continue
        tag = nonmaximality_conditions_witness(pair, p)
        if tag != "none":
            tagged += 1
            ok, witness = is_maximal_at_p(ring, p)
            assert not ok and witness is not None
    assert tagged >= 5


def test_error_paths():
    ring = ring_from_pair(P_Z4)
    with pytest.raises(DomainError):
        is_maximal_at_p(ring, 6)
    with pytest.raises(DomainError):
        ring_from_pair(((1, 2, 3), (4, 5, 6)))
    degenerate = ring_from_pair(((1, 1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0)))
    with pytest.raises(DegenerateRing):
        is_maximal_at_p(degenerate, 2)
    with pytest.raises(DegenerateRing):
        is_maximal(degenerate)


# The literal minor <-> table maps and the Fraction-basis resolvent code that
# one shared table and integer rows over |d| replaced; kept as their oracle.
def _oracle_c_linear_from_lambda(lam):
    def lg(x, y):
        return lam[(x, y)]

    c = {
        (1, 2, 1): 0,
        (2, 3, 2): 0,
        (1, 3, 3): 0,
        (1, 1, 2): -lg(0, 4),
        (1, 1, 3): lg(0, 3),
        (2, 2, 1): lg(1, 5),
        (2, 2, 3): -lg(1, 3),
        (3, 3, 1): -lg(2, 5),
        (3, 3, 2): lg(2, 4),
        (1, 2, 3): lg(0, 1),
        (1, 3, 2): -lg(0, 2),
        (2, 3, 1): lg(1, 2),
        (1, 2, 2): -lg(0, 5),
        (2, 3, 3): -lg(1, 4),
        (1, 3, 1): -lg(2, 3),
    }
    c[(1, 1, 1)] = lg(3, 4) + c[(1, 2, 2)]
    c[(2, 2, 2)] = -lg(3, 5) + c[(2, 3, 3)]
    c[(3, 3, 3)] = lg(4, 5) + c[(1, 3, 1)]
    return c


def _oracle_lambda_from_c(c):
    return {
        (0, 4): -c[(1, 1, 2)],
        (0, 3): c[(1, 1, 3)],
        (1, 5): c[(2, 2, 1)],
        (1, 3): -c[(2, 2, 3)],
        (2, 5): -c[(3, 3, 1)],
        (2, 4): c[(3, 3, 2)],
        (0, 1): c[(1, 2, 3)],
        (0, 2): -c[(1, 3, 2)],
        (1, 2): c[(2, 3, 1)],
        (0, 5): -c[(1, 2, 2)],
        (1, 4): -c[(2, 3, 3)],
        (2, 3): -c[(1, 3, 1)],
        (3, 4): c[(1, 1, 1)] - c[(1, 2, 2)],
        (3, 5): c[(2, 3, 3)] - c[(2, 2, 2)],
        (4, 5): c[(3, 3, 3)] - c[(1, 3, 1)],
    }


def _oracle_resolvent_data(ring):
    lam = _oracle_lambda_from_c(ring.c)

    def lg(x, y):
        # lam(x, y) = -lam(y, x), lam(x, x) = 0
        return 0 if x == y else lam[(x, y)] if x < y else -lam[(y, x)]

    assert plucker_check(lam)
    if all(v == 0 for v in lam.values()):
        raise TrivialRing("all minors vanish")
    content = 0
    for v in lam.values():
        content = gcd(content, abs(v))
    x, y = next((x, y) for x in range(6) for y in range(x + 1, 6) if lam[(x, y)] != 0)
    d = lam[(x, y)]
    mu = {x: (Fraction(1), Fraction(0)), y: (Fraction(0), Fraction(d))}
    for z in range(6):
        if z not in mu:
            mu[z] = (Fraction(-lg(y, z), d), Fraction(lg(x, z)))
    for u in range(6):
        for v in range(u + 1, 6):
            assert mat2_det((mu[u], mu[v])) == lam[(u, v)]
    basis0 = _oracle_hnf_canonicalize(tuple(mu[z] for z in range(6) if mu[z] != (0, 0)))
    assert _oracle_mat_det(basis0) == content
    return lam, content, mu, basis0


def _oracle_enumerate_numerical_resolvents(ring):
    _, n, _, basis0 = _oracle_resolvent_data(ring)
    out = []
    for d in divisors(n):
        for b in range(d):
            shrunk = _oracle_mat_mul(((n // d, b), (0, d)), basis0)
            out.append(_oracle_hnf_canonicalize([[e / n for e in row] for row in shrunk]))
    assert len(out) == len(set(out)) == _oracle_divisor_sigma(n)
    return out


def _oracle_pair_from_ring(ring):
    _, content, mu, basis0 = _oracle_resolvent_data(ring)
    chosen = _oracle_enumerate_numerical_resolvents(ring)[0]
    coords = _oracle_lattice_coords(chosen, [mu[z] for z in range(6)])
    witness = tuple(zip(*coords))
    assert ring_from_pair(witness) == ring
    return MinimalResolvent(lattice=basis0, content=content), witness


def _outcome(f, *args):
    # repr of the value, or the name of the SmallRankError raised
    try:
        return repr(f(*args))
    except TrivialRing as e:
        return type(e).__name__



@settings(max_examples=200, deadline=None)
@given(forms, forms, st.sampled_from([1, 2, 3, 4, 6]))
@example((0,) * 6, (0,) * 6, 1)
@example(P_A, P_B, 1)
@example(P_A, P_B, 5)
@example((1, 1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0), 1)
@example((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), 1)
def test_resolvents_agree_with_fraction_oracle(a, b, k):
    pair = (tuple(k * v for v in a), b)
    lam = lambda_system(pair)
    assert repr(_c_linear_from_lambda(lam)) == repr(_oracle_c_linear_from_lambda(lam))
    ring = ring_from_pair(pair)
    assert {key: v for key, v in ring.c.items() if key[2]} == _oracle_c_linear_from_lambda(lam)
    assert repr(_lambda_from_c_by_table(ring._t)) == repr(_oracle_lambda_from_c(ring.c))
    assert dict(zip(_MINORS, _lambda_from_c(ring._t))) == lam
    result = _outcome(pair_from_ring, ring)
    assert result == _outcome(_oracle_pair_from_ring, ring)
    assert _outcome(enumerate_numerical_resolvents, ring) == _outcome(
        _oracle_enumerate_numerical_resolvents, ring
    )
    if result == "TrivialRing":
        with pytest.raises(TrivialRing):
            count_numerical_resolvents(ring)
        return
    content, mu, h, den = _resolvent_data(ring)
    _, content0, mu0, basis0 = _oracle_resolvent_data(ring)
    assert content == content0
    assert count_numerical_resolvents(ring) == _oracle_divisor_sigma(content)
    assert _unscaled(mu, den) == tuple(mu0[z] for z in range(6))
    assert _unscaled(h, den) == basis0


# The double-loop product and the trace over the dict c that QuarticRing
# computed before it read one 4x4 table; kept as their oracle.
def _oracle_mul(ring, x, y):
    c = ring.c
    out = [x[0] * y[0], x[0] * y[1] + y[0] * x[1], x[0] * y[2] + y[0] * x[2], x[0] * y[3] + y[0] * x[3]]
    for i in range(1, 4):
        if not x[i]:
            continue
        for j in range(1, 4):
            if not y[j]:
                continue
            t = x[i] * y[j]
            for k in range(4):
                out[k] += t * c[(min(i, j), max(i, j), k)]
    return tuple(out)


def _oracle_trace(ring, x):
    t = 4 * x[0]
    for i in range(1, 4):
        if x[i]:
            t += x[i] * sum(ring.c[(min(i, j), max(i, j), j)] for j in range(1, 4))
    return t


tables = st.lists(st.integers(-2, 2), min_size=len(TABLE_KEYS), max_size=len(TABLE_KEYS))
elements = st.tuples(*[st.one_of(st.just(0), st.integers(-3, 3))] * 4)


@settings(max_examples=300, deadline=None)
@given(tables, elements, elements)
@example([0] * len(TABLE_KEYS), (1, 0, 0, 0), (0, 0, 0, 0))
@example([int(k == (i, j)[0] == j) for i, j, k in TABLE_KEYS], (0, 1, 0, 2), (3, 0, 1, 0))
@example([(-1) ** k * (2**64 - i * j - k) for i, j, k in TABLE_KEYS], (0, 1, -1, 2), (1, 0, 3, -1))
def test_table_product_trace_and_disc_agree_with_oracles(entries, x, y):
    # any table, associative or not: the product, the trace and the trace
    # form filled from the basis traces are linear algebra on the table, and
    # QuarticRing.disc expands the determinant that the Fraction oracle
    # eliminates
    ring = _unchecked(dict(zip(TABLE_KEYS, entries)))
    assert ring.mul(x, y) == _oracle_mul(ring, x, y)
    assert ring.trace(x) == _oracle_trace(ring, x)
    d = ring.disc()
    assert type(d) is int and d == _oracle_trace_disc(ring, 4)


# The nested-loop check that plucker_check ran before it looped over the 15
# index sextuples; kept as its oracle.
def _oracle_plucker_check(lam):
    for w in range(6):
        for x in range(w + 1, 6):
            for y in range(x + 1, 6):
                for z in range(y + 1, 6):
                    s = lam[(w, x)] * lam[(y, z)] - lam[(w, y)] * lam[(x, z)] + lam[(w, z)] * lam[(x, y)]
                    if s != 0:
                        return False
    return True


MINOR_KEYS = sorted(lambda_system(P_Z4))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-2, 2), min_size=15, max_size=15),
    forms,
    forms,
    st.sampled_from(MINOR_KEYS),
    st.integers(-2, 2),
)
@example([0] * 15, P_A, P_B, (4, 5), 0)
def test_plucker_check_agrees_with_nested_loop_oracle(values, a, b, key, delta):
    lam = dict(zip(MINOR_KEYS, values))
    assert plucker_check(lam) == _oracle_plucker_check(lam)
    lam = lambda_system((a, b))
    assert plucker_check(lam) and _oracle_plucker_check(lam)
    lam[key] += delta
    assert plucker_check(lam) == _oracle_plucker_check(lam)


def test_plucker_check_rejects_a_missing_minor():
    # the KeyError of a missing minor used to escape
    with pytest.raises(DomainError):
        plucker_check({})
    lam = lambda_system(P_Z4)
    del lam[(4, 5)]
    with pytest.raises(DomainError):
        plucker_check(lam)


def test_quartic_ring_rejects_a_table_that_is_not_a_dict():
    # indexing a list or None used to let a TypeError escape
    for bad in ([], None, tuple(ring_from_pair(P_Z4).c.items())):
        with pytest.raises(DomainError):
            QuarticRing(bad)


def test_condition_tags_require_a_prime():
    # p = 0 raised ZeroDivisionError, and p = 1.5 returned "none"
    for p in (0, 1.5, 1, 4, -2, "2"):
        with pytest.raises(DomainError, match="maximality test requires a prime"):
            nonmaximality_conditions_witness(P_Z4, p)


def test_maximality_answers_without_the_radical_when_p_squared_does_not_divide_disc():
    # structural guard: an overring of index p^k has disc(Q) = p^(2k) disc(Q'),
    # so p^2 not dividing disc(Q) answers at once; counted, not timed
    answered = {}
    for p in (2, 3, 5, 7):
        for pair in _random_pairs(60 + p, 40) + [P_Z4]:
            ring = ring_from_pair(pair)
            d = ring.disc()
            if d and d % (p * p):
                answer, counts = call_counts(is_maximal_at_p, ring, p)
                assert answer == (True, None)
                assert counts["quarticrings._radical_subspaces"] == 0
                answered[p] = answered.get(p, 0) + 1
    assert min(answered.values()) >= 10 and sum(answered.values()) >= 80
    # the error types and their order are unchanged
    degenerate = ring_from_pair(((1, 1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0)))
    with pytest.raises(DegenerateRing):
        is_maximal_at_p(degenerate, 6)
    with pytest.raises(DomainError):
        is_maximal_at_p(ring_from_pair(P_Z4), 6)
    _, counts = call_counts(is_maximal_at_p, ring_from_pair((tuple(2 * v for v in P_A), P_B)), 2)
    assert counts["quarticrings._radical_subspaces"] > 0


# the oracle walks all ~p^4 candidates of a maximal ring, 0.3 s at p = 7
@settings(max_examples=12, deadline=None)
@given(forms, forms, st.sampled_from([2, 3, 5, 7]))
@example(P_A, P_B, 7)
def test_maximality_when_p_squared_does_not_divide_disc_agrees_with_full_walk(a, b, p):
    ring = ring_from_pair((a, b))
    d = ring.disc()
    assume(d and d % (p * p))
    assert is_maximal_at_p(ring, p) == _oracle_walk_is_maximal_at_p(ring, p) == (True, None)


def test_table_self_checks_survive_optimize_flag():
    # a perturbed constant fails the associativity check of ring_from_pair,
    # and so does a perturbed xi-coefficient, as its constants no longer
    # fit; a closure
    # test that accepts every candidate fails the witness check, doubled
    # dets the mu-vector check of the resolvent data, a doubled HNF and a
    # doubled content its covolume check, a
    # witness pair that rebuilds another table the check in pair_from_ring,
    # coordinates that are not integral its integrality check, and a
    # missing divisor the lattice count of enumerate_numerical_resolvents,
    # under python -O too
    src = os.path.dirname(os.path.dirname(quarticrings.__file__))
    code = (
        "from smallrank import quarticrings as q\n"
        "pair = ((0, 0, 0, 1, 0, -1), (0, 0, 0, 0, 1, -1))\n"
        "c = dict(q.ring_from_pair(pair).c)\n"
        "c[(1, 2, 0)] += 1\n"
        "table_of = q._table_of\n"
        "q._table_of = lambda lam: q.QuarticRing._from_rows(q._rows(c))\n"
        "try:\n"
        "    q.ring_from_pair(pair)\n"
        "except AssertionError as e:\n"
        "    print(e)\n"
        "def perturbed(m):\n"
        "    c = table_of(m).c\n"
        "    c[(1, 2, 3)] += 1\n"
        "    return q.QuarticRing._from_rows(q._rows(c))\n"
        "q._table_of = perturbed\n"
        "try:\n"
        "    q.ring_from_pair(pair)\n"
        "except AssertionError as e:\n"
        "    print(e)\n"
        "q._table_of = table_of\n"
        "q._closed_mod_p = lambda ring, rows, p: True\n"
        "try:\n"
        "    q.is_maximal_at_p(q.ring_from_pair(((0, -1, 0, 0, 1, 0), (3, 0, 1, 0, 0, 0))), 3)\n"
        "except AssertionError as e:\n"
        "    print(e)\n"
        "faults = (\n"
        "    ('mat2_det', lambda f: lambda rows: 2 * f(rows)),\n"
        "    ('_hnf_int', lambda f: lambda rows: tuple(tuple(2 * e for e in row) for row in f(rows))),\n"
        "    ('_content', lambda f: lambda ring: (lambda n, m: (2 * n, m))(*f(ring))),\n"
        ")\n"
        "for name, fault in faults:\n"
        "    f = getattr(q, name)\n"
        "    setattr(q, name, fault(f))\n"
        "    try:\n"
        "        q.pair_from_ring(q.ring_from_pair(pair))\n"
        "    except AssertionError as e:\n"
        "        print(e)\n"
        "    setattr(q, name, f)\n"
        "ring = q.ring_from_pair(pair)\n"
        "c = dict(ring.c)\n"
        "c[(1, 2, 0)] += 1\n"
        "q._table_of = lambda lam: q.QuarticRing._from_rows(q._rows(c))\n"
        "try:\n"
        "    q.pair_from_ring(ring)\n"
        "except AssertionError as e:\n"
        "    print(e)\n"
        "q._table_of = table_of\n"
        "q._coords2 = lambda rows, vectors: None\n"
        "try:\n"
        "    q.pair_from_ring(q.ring_from_pair(pair))\n"
        "except AssertionError as e:\n"
        "    print(e)\n"
        "divisors = q.divisors\n"
        "q.divisors = lambda n: divisors(n)[:-1]\n"
        "try:\n"
        "    q.enumerate_numerical_resolvents(q.ring_from_pair((tuple(6 * v for v in pair[0]), pair[1])))\n"
        "except AssertionError as e:\n"
        "    print(e)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "associativity failure in constructed table",
        "associativity failure in constructed table",
        "enlargement witness is not closed under multiplication",
        "mu realization does not reproduce the minors",
        "covolume of the mu-lattice must equal the minor gcd",
        "covolume of the mu-lattice must equal the minor gcd",
        "witness pair must rebuild the identical table",
        "mu-vectors must be integral in lattice coords",
        "need sigma(6) resolvent lattices, got 6",
    ]


# maximal at 2 and at 3, with 2^4 * 3^2 = disc
P_144 = ((1, -2, -2, -2, -2, 2), (0, 0, 0, 0, 0, 1))


def test_is_maximal_at_p_computes_the_discriminant_once():
    # counted, not timed: each answer reads one discriminant, by the rank-4
    # kernel with no generic elimination, and walks the radical's subspaces
    # only when p^2 divides it
    for ring in (ring_from_pair((tuple(6 * v for v in P_A), P_B)), ring_from_pair(P_144)):
        d = ring.disc()
        for p in (2, 3, 5):
            _, counts = call_counts(is_maximal_at_p, ring, p)
            assert counts["quarticrings.QuarticRing.disc"] == 1, (d, p)
            assert (counts["quarticrings._radical_subspaces"] > 0) == (d % (p * p) == 0), (d, p)
    assert ring.disc() == 144 and is_maximal(ring)
    assert is_maximal_at_p(ring, 2) == is_maximal_at_p(ring, 3) == (True, None)


def test_trace_and_disc_read_the_table():
    # structural guard: one trace for every rank, and a discriminant that
    # makes no product
    assert QuadraticRing.trace is CubicRing.trace is QuarticRing.trace
    form = (1, -3, 1, 2)
    cubic = ring_from_cubic_form(form)
    quartic = ring_from_pair(P_144)
    assert cubic_form_disc(form) == 5 and cubic_form_disc(cubic_resolvent_form(P_144)) == 144
    for ring, disc in ((cubic, 5), (quartic, 144)):
        d, counts = call_counts(ring.disc)
        assert d == disc and counts["cubicrings.CubicRing.mul"] == counts["quarticrings.QuarticRing.mul"] == 0
    assert QuadraticRing(1, 5).trace((3, 4)) == 10


def _nonmaximal_quadratic(d, p):
    # Z[xi] of discriminant d is non-maximal at p exactly when p^2 | d and
    # d/p^2 is again a discriminant, 0 or 1 mod 4
    return d % (p * p) == 0 and (d // (p * p)) % 4 in (0, 1)


@settings(max_examples=300, deadline=None)
@given(st.integers(-6, 6), st.integers(-30, 30), st.sampled_from([2, 3, 5, 7]))
@example(0, 1, 2)  # Z[i], disc -4: maximal
@example(0, 4, 2)  # Z[2i], disc -16: not maximal
@example(1, 2, 2)  # disc -7: maximal, 2^2 does not divide
def test_walk_on_quadratic_rings_agrees_with_the_discriminant_criterion(t, u, p):
    ring = QuadraticRing(t, u)
    d = ring.disc()
    assume(d)
    ok, witness = _maximal_at_p(ring, p)
    assert ok == (not _nonmaximal_quadratic(d, p))
    if witness is not None:
        # the overring has the integral discriminant d / [Q' : Q]^2
        assert (d * _oracle_mat_det(witness) ** 2).denominator == 1


def _nonmaximal_cubic(form, p):
    # the ring of a binary cubic form f is non-maximal at p exactly when
    # f = 0 mod p, or some g in GL2(Z/p^2) carries f to a form with p^2 | a
    # and p | b (Davenport-Heilbronn).  Substituting x -> al*x + ga*y,
    # y -> be*x + de*y makes a = f(al, be) and b = ga*f_x(al, be) +
    # de*f_y(al, be); a needs (al, be) mod p^2, b only (ga, de) mod p.
    a, b, c, d = form
    if all(v % p == 0 for v in form):
        return True
    for al in range(p * p):
        for be in range(p * p):
            if (al % p or be % p) and _cubic_eval(form, al, be) % (p * p) == 0:
                fx = 3 * a * al * al + 2 * b * al * be + c * be * be
                fy = b * al * al + 2 * c * al * be + 3 * d * be * be
                for ga in range(p):
                    for de in range(p):
                        if (al * de - be * ga) % p and (ga * fx + de * fy) % p == 0:
                            return True
    return False


cubic_forms = st.tuples(*[st.integers(-4, 4)] * 4)


@settings(max_examples=200, deadline=None)
@given(cubic_forms, st.sampled_from([2, 3, 5]), st.booleans())
@example((1, 0, 1, 1), 2, False)  # disc -31: maximal, q = 4
@example((1, 0, 0, 2), 2, True)  # (4, 0, 0, 2): p^2 | a and p | b, q = 4
@example((1, 0, 0, -3), 3, False)  # Eisenstein at 3: maximal, q = 3
@example((1, 0, 0, -10), 3, False)  # 10 = 1 mod 9: not maximal, q = 3
def test_walk_on_cubic_rings_agrees_with_the_davenport_heilbronn_criterion(form, p, tilt):
    if tilt:
        form = (p * p * form[0], p * form[1], form[2], form[3])
    d = cubic_form_disc(form)
    assume(d)
    ring = ring_from_cubic_form(form)
    ok, witness = _maximal_at_p(ring, p)
    assert ok == (not _nonmaximal_cubic(form, p))
    if witness is not None:
        assert (d * _oracle_mat_det(witness) ** 2).denominator == 1


# The integer closure test that _maximal_at_p ran on every candidate before
# it decided each one over F_p: the candidate is closed iff every H_i*H_j
# lies in pH, for H the integer HNF of pQ + L; kept as its oracle.
def _oracle_closed(ring, rows, p):
    n = len(ring._t)
    h = _oracle_hnf_xgcd([tuple(p * e for e in row) for row in ring._t[0]] + rows)
    ph = [[p * e for e in row] for row in h]
    return all(
        _hnf_coords(ph, ring.mul(h[i], h[j])) is not None for i in range(n) for j in range(i, n)
    )


def _closure_agrees(ring, p):
    # the F_p test against the oracle on every candidate of the walk
    for rows in _radical_subspaces(_radical(ring, p), p):
        assert _closed_mod_p(ring, rows, p) == _oracle_closed(ring, rows, p), rows


RAMIFIED_A = (0, -1, 0, 0, 1, 0)


def _ramified(p):
    # totally ramified at p and maximal there: every candidate is rejected
    return ring_from_pair((RAMIFIED_A, (p, 0, 1, 0, 0, 0)))


@settings(max_examples=80, deadline=None)
@given(forms, forms, st.sampled_from([2, 3, 5, 7]), st.booleans())
@example(P_A, P_B, 7, True)  # closed candidates among rejected ones
@example(RAMIFIED_A, (3, 0, 1, 0, 0, 0), 3, False)  # dim R = 3, every candidate rejected
def test_closure_over_fp_agrees_with_the_integer_test_on_quartic_rings(a, b, p, scaled):
    ring = ring_from_pair((tuple(p * v for v in a) if scaled else a, b))
    assume(ring.disc())
    _closure_agrees(ring, p)


@settings(max_examples=150, deadline=None)
@given(st.integers(-6, 6), st.integers(-30, 30), cubic_forms, st.sampled_from([2, 3, 5, 7]), st.booleans())
@example(0, 1, (1, 0, 0, 2), 2, True)  # Z[2i] and (4, 0, 0, 2): both not maximal
@example(0, 1, (1, 0, 0, -10), 3, False)  # 10 = 1 mod 9: closed at 3
def test_closure_over_fp_agrees_with_the_integer_test_on_quadratic_and_cubic_rings(t, u, form, p, tilt):
    # tilted: Z[p*xi] in rank 2, and (p^2 a, p b, c, d) in rank 3
    if tilt:
        t, u, form = p * t, p * p * u, (p * p * form[0], p * form[1], form[2], form[3])
    quadratic, cubic = QuadraticRing(t, u), ring_from_cubic_form(form)
    if quadratic.disc():
        _closure_agrees(quadratic, p)
    if cubic_form_disc(form):
        _closure_agrees(cubic, p)


def test_maximality_builds_no_integer_hnf():
    # counted, not timed: the radical is one RREF over F_p, each candidate
    # is decided over F_p and the witness HNF is written down from its RREF
    # rows, so no answer builds an integer HNF.  The totally ramified pair
    # walks the whole bound of 2p^2 + 2p + 3 candidates
    for p, bound in ((11, 267), (13, 367)):
        answer, counts = call_counts(is_maximal_at_p, _ramified(p), p)
        assert answer == (True, None) and counts["exactlattice._hnf_int"] == 0
        assert counts["quarticrings._closed_mod_p"] == 2 * p**2 + 2 * p + 3 == bound
    seen = set()
    for p in (2, 3, 5, 7):
        for a, b in _random_pairs(80 + p, 25) + [P_Z4]:
            for scale in (1, p):
                ring = ring_from_pair((tuple(scale * v for v in a), b))
                d = ring.disc()
                if not d:
                    continue
                (ok, _), counts = call_counts(is_maximal_at_p, ring, p)
                assert counts["exactlattice._hnf_int"] == 0
                seen.add((d % (p * p) == 0, ok, min(counts["quarticrings._closed_mod_p"], 2)))
    # "maximal" at once and after several candidates, "not maximal" at the
    # first candidate and after rejected ones
    assert {(False, True, 0), (True, True, 2), (True, False, 1), (True, False, 2)} <= seen


def test_witness_self_check_catches_a_closure_test_that_accepts_everything(monkeypatch):
    monkeypatch.setattr(quarticrings, "_closed_mod_p", lambda ring, rows, p: True)
    with pytest.raises(InvariantViolation, match="enlargement witness is not closed under multiplication"):
        is_maximal_at_p(_ramified(3), 3)


def _substitute(form, g):
    # the ternary form x -> form(g x), coefficients read off its values
    def value(x):
        return _ternary_eval(form, [sum(gij * xj for gij, xj in zip(row, x)) for row in g])

    e = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    diag = [value(v) for v in e]
    cross = [
        value([a + b for a, b in zip(e[i], e[j])]) - diag[i] - diag[j]
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    return tuple(diag + cross)


# GL2(Z) matrices, three of determinant -1
GL2 = (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (0, -1)), ((2, 1), (1, 1)), ((1, 2), (0, -1)))
# elementary SL3(Z) moves: add k times column j to column i
OFF_DIAGONAL = [(i, j) for i in range(3) for j in range(3) if i != j]
sl3_moves = st.lists(st.tuples(st.sampled_from(OFF_DIAGONAL), st.integers(-2, 2)), max_size=4)


def _invariants(pair):
    ring = ring_from_pair(pair)
    d = ring.disc()
    try:
        count = count_numerical_resolvents(ring)
    except TrivialRing:
        count = None
    maximal = [is_maximal_at_p(ring, p)[0] for p in (2, 3, 5)] if d else None
    return d, count, maximal


@settings(max_examples=150, deadline=None)
@given(forms, forms, st.sampled_from(GL2), st.integers(-2, 2), sl3_moves)
@example(P_A, P_B, GL2[1], 0, [])
@example(tuple(2 * v for v in P_A), P_B, GL2[2], 1, [((0, 1), 1), ((2, 0), -1)])
@example(P_144[0], P_144[1], GL2[4], -1, [((1, 2), 2)])
def test_quartic_invariants_are_gl2_times_sl3_invariant(a, b, g2, k, moves):
    # g.(A, B) gives an isomorphic ring (Bhargava, HCL III, Thm 1), so its
    # discriminant, resolvent count and maximality answers do not move; the
    # resolvent form moves by the twisted GL2 action of the cubic rings,
    # times det(G), for G the GL2 part applied to (A, B)
    (r, s), (t, u) = g2
    a2 = tuple(r * x + s * y + k * (t * x + u * y) for x, y in zip(a, b))
    b2 = tuple(t * x + u * y for x, y in zip(a, b))
    g3 = [[int(i == j) for j in range(3)] for i in range(3)]
    for (i, j), c in moves:
        for row in g3:
            row[i] += c * row[j]
    assert _oracle_mat_det(g3) == 1
    moved = (_substitute(a2, g3), _substitute(b2, g3))
    assert _invariants(moved) == _invariants((a, b))
    g = ((r + k * t, s + k * u), (t, u))
    f = cubic_resolvent_form((a, b))
    assert cubic_resolvent_form(moved) == tuple(mat2_det(g) * e for e in cubic_twisted_act(g, f))


# Dedekind's criterion (Cohen, GTM 138, Thm. 6.1.4), an oracle for the
# maximality of Q = Z[x]/(f) that shares no code with the radical walk.
# Polynomials are coefficient lists, lowest degree first.
DEDEKIND_PRIMES = (2, 3, 5, 7, 11, 13)


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _fp(f, p):
    # f mod p without trailing zeros; [] is the zero polynomial
    f = [c % p for c in f]
    while f and not f[-1]:
        f.pop()
    return f


def _fp_divmod(f, g, p):
    # quotient and remainder of f by g != 0 over F_p
    f, q = _fp(f, p), [0] * max(len(f) - len(g) + 1, 1)
    inv = pow(g[-1], -1, p)
    while len(f) >= len(g):
        k, c = len(f) - len(g), f[-1] * inv % p
        q[k] = c
        f = _fp([a - c * g[i - k] if k <= i else a for i, a in enumerate(f)], p)
    return _fp(q, p), f


def _fp_gcd(f, g, p):
    while g:
        f, g = g, _fp_divmod(f, g, p)[1]
    return f


def _fp_factor(f, p):
    # {monic irreducible u: e} with f = lead * prod u^e over F_p, deg f <= 4,
    # by brute force over the monic u of degree 1, then of degree 2; what is
    # left has no factor of degree <= 2, so it is 1 or irreducible
    f, out = _fp(f, p), {}
    for d in (1, 2):
        for low in iproduct(range(p), repeat=d):
            u = [*low, 1]
            while len(f) > d:
                q, r = _fp_divmod(f, u, p)
                if r:
                    break
                f, out[tuple(u)] = q, out.get(tuple(u), 0) + 1
    if len(f) > 1:
        out[tuple(c * pow(f[-1], -1, p) % p for c in f)] = 1
    return out


def _dedekind_gcd(f, p):
    # f monic of degree 4: with f = prod u^e mod p, g = prod u and
    # h = prod u^(e-1) lifted with entries in [0, p), and F = (f - g*h)/p,
    # Z[x]/(f) is p-maximal iff t = gcd(g, h, F) = 1 over F_p; returns t
    g, h = [1], [1]
    for u, e in _fp_factor(f, p).items():
        g = _poly_mul(g, u)
        for _ in range(e - 1):
            h = _poly_mul(h, u)
    big_f = [(a - b) // p for a, b in zip(f, _poly_mul(g, h))]
    return _fp_gcd(_fp_gcd(_fp(g, p), _fp(h, p), p), _fp(big_f, p), p)


def _mod_f(a, f):
    # the coordinates of a(x) mod f on 1, x, x^2, x^3, for f monic of degree 4
    a = list(a) + [0] * (4 - len(a))
    for k in range(len(a) - 1, 3, -1):
        c = a[k]
        for i in range(5):
            a[k - 4 + i] -= c * f[i]
    return tuple(a[:4])


def _check_dedekind_enlargement(f, t, p):
    # if t != 1, O' = Z[x] + (U(x)/p) Z[x] with U = f/t over F_p, lifted, is
    # a ring containing Q = Z[x]/(f) with index p^(deg t) (Cohen, GTM 138,
    # Thm. 6.1.4); checked on Fraction rows, away from the walk and the radical
    ring = _monogenic_ring(f)
    u = _fp_divmod(f, t, p)[0]
    gens = [tuple(Fraction(e, p) for e in _mod_f([0] * k + u, f)) for k in range(4)]
    basis = _oracle_hnf_canonicalize(I4 + tuple(gens))
    inv = _oracle_inv(basis)

    def member(v):
        return all(sum(v[k] * inv[k][j] for k in range(4)).denominator == 1 for j in range(4))

    assert all(member(v) for v in I4 + tuple(gens))  # Q and U(x)/p lie in O'
    assert all(member(ring.mul(x, y)) for x in basis for y in basis)
    assert 1 / abs(_oracle_mat_det(basis)) == p ** (len(t) - 1)


def _monogenic_ring(f):
    # Z[x]/(f) for f monic of degree 4, on the basis 1, x, x^2, x^3: the
    # table entry of x^i * x^j is x^(i+j) mod f, with x^4 = -(f0 + ... + f3 x^3)
    powers = [[1, 0, 0, 0]]
    for _ in range(6):
        prev = powers[-1]
        powers.append([(prev[k - 1] if k else 0) - prev[3] * f[k] for k in range(4)])
    return QuarticRing(
        {(i, j, k): powers[i + j][k] for i in (1, 2, 3) for j in range(i, 4) for k in range(4)}
    )


@st.composite
def _monic_quartic_and_prime(draw):
    # f with coefficients in [-40, 40] and p <= 13 with p^2 | disc != 0
    f = tuple(draw(st.integers(-40, 40)) for _ in range(4)) + (1,)
    d = _monogenic_ring(f).disc()
    primes = [p for p in DEDEKIND_PRIMES if d and d % (p * p) == 0]
    assume(primes)
    return f, draw(st.sampled_from(primes))


@settings(max_examples=150, deadline=None)
@given(_monic_quartic_and_prime())
@example(((-11, 0, 0, 0, 1), 11))  # Eisenstein: maximal, and 11^3 | disc, so the walk runs
@example(((-101, 0, 0, 0, 1), 2))  # (x + 1)^4 mod 2: not maximal
@example(((10, 1, 23, -28, 1), 3))  # (x^2 + x + 2)^2 mod 3: not maximal
@example(((-101, 0, 0, 0, 1), 101))  # Eisenstein: maximal, the walk rejects 20,607 candidates
def test_is_maximal_at_p_agrees_with_dedekinds_criterion(case):
    f, p = case
    t = _dedekind_gcd(f, p)
    assert is_maximal_at_p(_monogenic_ring(f), p)[0] == (len(t) == 1)
    if len(t) > 1:
        _check_dedekind_enlargement(f, t, p)


def test_fp_factorizer_and_monogenic_disc_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(16)
    cases = [((-11, 0, 0, 0, 1), 11), ((-101, 0, 0, 0, 1), 2), ((10, 1, 23, -28, 1), 3)]
    for _ in range(150):
        cases.append((tuple(rng.randint(-40, 40) for _ in range(4)) + (1,), rng.choice(DEDEKIND_PRIMES)))
    for f, p in cases:
        poly = sum(c * x**k for k, c in enumerate(f))
        expected = {}
        for u, e in sympy.Poly(poly, x, modulus=p).factor_list()[1]:
            coeffs = [int(c) % p for c in reversed(u.all_coeffs())]
            monic = tuple(c * pow(coeffs[-1], -1, p) % p for c in coeffs)
            expected[monic] = expected.get(monic, 0) + e
        assert _fp_factor(f, p) == expected, (f, p)
        assert _monogenic_ring(f).disc() == sympy.discriminant(poly, x), f
