"""Quadratic rings, fractional ideals, and the form-ideal dictionary."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import gcd, isqrt

import pytest
from callcounts import call_counts
from hypothesis import example, given, settings, strategies as st
from test_cubicrings import _oracle_trace_disc
from test_exactlattice import _oracle_hnf_canonicalize, _oracle_mat_det, _oracle_mat_mul
from test_quadforms import _oracle_monoid_table, _raises_under_optimize_flag

import smallrank
from smallrank.errors import (
    DomainError,
    InvariantViolation,
    NotAModule,
    RankError,
    RingMismatch,
    SmallRankError,
    UnsupportedDiscriminant,
)
from smallrank.exactlattice import (
    _hnf_int,
    _scaled,
    _unscaled,
    mat2_det,
)
from smallrank.quadforms import (
    _compose,
    _monoid_table,
    class_group,
    discriminant,
    enumerate_reduced,
    principal_form,
    reduce,
    twisted_act,
)
from smallrank.quadrings import (
    QuadIdeal,
    QuadraticRing,
    _span,
    class_semigroup,
    conjugate,
    endomorphism_ring,
    form_from_ideal,
    ideal_from_form,
    ideal_norm,
    inverse,
    is_invertible,
    multiply,
    raw_form,
    ring_from_disc,
    scale,
    unit_ideal,
)

coords = st.tuples(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)
rings = st.tuples(
    st.integers(min_value=-10, max_value=10),
    st.integers(min_value=-10, max_value=10),
).map(lambda tu: QuadraticRing(*tu))


@given(rings, coords, coords)
def test_ring_multiplication_identities(ring, x, y):
    assert ring.mul(x, y) == ring.mul(y, x)
    assert ring.norm(ring.mul(x, y)) == ring.norm(x) * ring.norm(y)
    assert ring.mul(ring.conj(x), ring.conj(y)) == ring.conj(ring.mul(x, y))
    # x + conj(x) = trace(x) and x * conj(x) = norm(x) as scalars
    s = (x[0] + ring.conj(x)[0], x[1] + ring.conj(x)[1])
    assert s == (ring.trace(x), 0)
    assert ring.mul(x, ring.conj(x)) == (ring.norm(x), 0)


@given(rings, coords, coords, coords)
def test_ring_multiplication_associative(ring, x, y, z):
    assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))


@given(rings)
def test_defining_relation_and_normalization(ring):
    xi = (0, 1)
    assert ring.mul(xi, xi) == (-ring.u, ring.t)
    n = ring.normalized()
    assert n.t in (0, 1)
    assert n.disc == ring.disc


@given(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6))
@example(0, 1)
@example(1, 0)
def test_disc_agrees_with_trace_matrix_oracle(t, u):
    # rank 2: the closed form t^2 - 4u against the trace form of the ring
    ring = QuadraticRing(t, u)
    assert ring.disc == _oracle_trace_disc(ring, 2) == t * t - 4 * u


def test_ring_from_disc():
    for d in (-100, -23, -4, -3, -84, 5, 8, 13):
        ring = ring_from_disc(d)
        assert ring.disc == d
        assert ring.t in (0, 1)
    with pytest.raises(UnsupportedDiscriminant):
        ring_from_disc(-5)


def test_form_ideal_round_trip():
    for d in (-100, -23, -47, -84, -56):
        ring = ring_from_disc(d)
        for f in enumerate_reduced(d):
            ideal = ideal_from_form(f, ring)
            assert form_from_ideal(ideal) == f
            assert ideal_norm(ideal) == Fraction(1, f[0])


def test_raw_form_checks_the_trace_and_norm_of_xi(monkeypatch):
    # the one self-check of raw_form: with trace t and norm u the form has
    # the ring's discriminant, so a wrong trace is the fault it must catch
    ideal = ideal_from_form((2, 1, 3), ring_from_disc(-23))
    (a, b), (c, d) = ideal.xi
    monkeypatch.setattr(ideal, "_xi", ((a + 1, b), (c, d)))
    with pytest.raises(InvariantViolation, match="trace t and norm u"):
        raw_form(ideal)


def test_ideal_norm_multiplicative_on_invertible():
    for d in (-23, -47, -84):
        ring = ring_from_disc(d)
        ideals = [ideal_from_form(f, ring) for f in class_group(d)[0]]
        for i in ideals:
            for j in ideals:
                assert ideal_norm(multiply(i, j)) == ideal_norm(i) * ideal_norm(j)


def test_multiplication_matches_composition():
    for d in (-23, -100, -84):
        ring = ring_from_disc(d)
        elements, table, _ = class_group(d)
        for i, f in enumerate(elements):
            for j, g in enumerate(elements):
                prod = multiply(ideal_from_form(f, ring), ideal_from_form(g, ring))
                assert reduce(form_from_ideal(prod))[0] == elements[table[i][j]]


def test_inverse_and_conjugate():
    for d in (-23, -100):
        ring = ring_from_disc(d)
        unit = unit_ideal(ring)
        for f in class_group(d)[0]:
            ideal = ideal_from_form(f, ring)
            assert is_invertible(ideal)
            assert multiply(ideal, inverse(ideal)) == unit
            n = ideal_norm(ideal)
            assert multiply(ideal, conjugate(ideal)) == scale(
                unit, (Fraction(n), Fraction(0))
            )


def test_noninvertible_ideal():
    ring = ring_from_disc(-100)
    b = ideal_from_form((5, 0, 5), ring)
    assert not is_invertible(b)
    assert endomorphism_ring(b) == QuadraticRing(0, 1)
    # B * B = B up to the scalar 1/5: the absorbing class
    bb = multiply(b, b)
    assert form_from_ideal(bb) == (5, 0, 5)
    with pytest.raises(DomainError):
        inverse(b)


def test_inverse_check_survives_optimize_flag():
    # under python -O a self-check assert would vanish and inverse return
    # a lattice that is not an inverse
    src = os.path.dirname(os.path.dirname(smallrank.__file__))
    code = (
        "from smallrank.errors import DomainError\n"
        "from smallrank.quadrings import ideal_from_form, inverse, ring_from_disc\n"
        "try:\n"
        "    inverse(ideal_from_form((5, 0, 5), ring_from_disc(-100)))\n"
        "except DomainError:\n"
        "    print('DomainError')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["DomainError"]


def test_inverse_product_check_survives_optimize_flag():
    # a conjugation that returns its argument makes the inverse of the
    # ideal of (2, 1, 3), of order 3, the ideal times a scalar: its product
    # with the ideal is not the unit ideal
    message, check = _raises_under_optimize_flag(
        "from smallrank import quadrings\n"
        "quadrings.QuadraticRing.conj = lambda self, x: tuple(x)\n",
        "quadrings.inverse(quadrings.ideal_from_form((2, 1, 3), quadrings.ring_from_disc(-23)))",
    )
    assert message.endswith("times its inverse is not the unit ideal")
    assert check == "if multiply(i, inv) != unit_ideal(i.ring):"


def test_ideal_from_form_check_survives_optimize_flag():
    # a basis built in the other order has the twisted form (b, a - d, -c)
    # in place of the form (c, d - a, -b) it was built for
    message, check = _raises_under_optimize_flag(
        "from smallrank import quadrings\n"
        "from_rows = quadrings.QuadIdeal._from_rows.__func__\n"
        "quadrings.QuadIdeal._from_rows = classmethod(\n"
        "    lambda cls, ring, rows, den: from_rows(cls, ring, rows[::-1], den)\n"
        ")\n",
        "quadrings.ideal_from_form((2, 1, 3), quadrings.ring_from_disc(-23))",
    )
    assert message == "ideal built from (2, 1, 3) does not have that form"
    assert check == "if raw_form(ideal) != f:"


def test_an_ideal_cannot_drift_from_its_form():
    # ring, rows, den and xi are read-only: assigning the unit ideal's basis
    # used to leave raw_form at (2, 1, 3) while == said the unit ideal
    ring = ring_from_disc(-23)
    ideal = ideal_from_form((2, 1, 3), ring)
    for name, value in (("rows", ((1, 0), (0, 1))), ("den", 1), ("xi", ((0, -6), (1, 1))), ("ring", ring)):
        with pytest.raises(AttributeError):
            setattr(ideal, name, value)
    assert not hasattr(ideal, "__dict__")
    assert raw_form(ideal) == (2, 1, 3) and ideal != QuadIdeal(ring, ((1, 0), (0, 1)))


def test_a_quadratic_ring_holds_its_table_alone():
    # t, u and disc are read-only views of the one table _t
    ring = ring_from_disc(-23)
    for name in ("t", "u", "disc"):
        with pytest.raises(AttributeError):
            setattr(ring, name, 5)
    assert not hasattr(ring, "__dict__") and type(ring).__slots__ == ()
    assert (ring.t, ring.u, ring.disc) == (1, 6, -23) and ring._t[1][1] == (-6, 1)
    assert ring == QuadraticRing(1, 6) and hash(ring) == hash(QuadraticRing(1, 6))
    assert ring != QuadraticRing(-1, 6) and ring.normalized() == ring


def test_ideal_rejects_non_module_and_dependent_rows():
    ring = QuadraticRing(0, 1)
    with pytest.raises(NotAModule):
        QuadIdeal(ring, ((1, 0), (0, 2)))  # Z + 2iZ does not contain i
    with pytest.raises(RankError):
        QuadIdeal(ring, ((1, 2), (2, 4)))


def test_endomorphism_ring_of_invertible_is_the_ring():
    for d in (-23, -100, -84):
        ring = ring_from_disc(d)
        for f in class_group(d)[0]:
            assert endomorphism_ring(ideal_from_form(f, ring)) == ring


def test_ideal_equality_and_canonicalization():
    ring = ring_from_disc(-100)
    ideal = ideal_from_form((2, 2, 13), ring)
    resc = QuadIdeal(
        ring,
        (
            tuple(a + b for a, b in zip(ideal.basis[0], ideal.basis[1])),
            ideal.basis[1],
        ),
    )
    assert resc == ideal
    assert _span(ring, resc.rows, resc.den).basis == _span(ring, ideal.rows, ideal.den).basis
    assert QuadIdeal(ring, ((2, 0), (0, 2))) != unit_ideal(ring)


@pytest.mark.parametrize(
    "d, given",
    [
        (-4, ((1, 0), (0, 1))),
        (-4, ((2, 2), (2, -2))),
        # a string such as "1/2" is a DomainError; the CLI parses it first
        (-4, ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2)))),
        (-4, ((Fraction(3), -3), (Fraction(6, 2), 3.0))),
        # the least common denominator 6 is not the product of the entries'
        (-4, ((Fraction(1, 2), Fraction(1, 3)), (Fraction(-1, 3), Fraction(1, 2)))),
        (-4, ((Fraction(4, 6), Fraction(4, 6)), (Fraction(-4, 6), Fraction(4, 6)))),
        (-4, ((Fraction(5, 4), 0), (0, 1.25))),
        (-100, ((Fraction(9, 8), 0.375), (Fraction(6, 16), Fraction(3, 8)))),
    ],
)
def test_constructor_basis_is_the_given_values(d, given):
    ring = ring_from_disc(d)
    ideal = QuadIdeal(ring, given)
    expected = tuple(tuple(Fraction(e) for e in row) for row in given)
    assert ideal.basis == expected
    assert all(type(e) is Fraction for row in ideal.basis for e in row)
    assert repr(ideal) == "QuadIdeal(%r, %r)" % (ring, expected)


def test_scale_changes_norm_by_element_norm():
    ring = ring_from_disc(-23)
    ideal = ideal_from_form((2, 1, 3), ring)
    g = (3, 2)
    assert ideal_norm(scale(ideal, g)) == ideal_norm(ideal) * ring.norm(g)


def test_ring_mismatch():
    i1 = ideal_from_form((1, 0, 1), ring_from_disc(-4))
    i2 = ideal_from_form((1, 1, 6), ring_from_disc(-23))
    with pytest.raises(RingMismatch):
        multiply(i1, i2)


def test_class_semigroup_minus_100():
    elements, table = class_semigroup(-100)
    assert set(elements) == {(1, 0, 25), (2, 2, 13), (5, 0, 5)}
    bi = elements.index((5, 0, 5))
    n = len(elements)
    for i in range(n):
        assert table[bi][i] == bi and table[i][bi] == bi
    pi = elements.index((1, 0, 25))
    for i in range(n):
        assert table[pi][i] == i
    ai = elements.index((2, 2, 13))
    assert table[ai][ai] == pi


def test_quadratic_ring_rejects_non_integer_coefficients():
    # int() used to truncate: QuadraticRing(0.5, 2) was t = 0, disc -8
    for t, u in ((0.5, 2), (0, 2.0), (Fraction(1), 2), ("1", 2)):
        with pytest.raises(DomainError):
            QuadraticRing(t, u)
    with pytest.raises(UnsupportedDiscriminant):
        ring_from_disc(-4.0)


def test_class_semigroup_of_a_float_is_a_domain_error():
    # unless rejected first, -4.0 yields ([(1, 0, 1.0)], [[0]])
    with pytest.raises(UnsupportedDiscriminant):
        class_semigroup(-4.0)


def test_ideal_from_form_rejects_non_integer_coefficients():
    # (2.0, 1, 3) has discriminant -23.0 == -23; both used to let a TypeError
    # escape from the integer HNF
    ring = ring_from_disc(-23)
    for f in ((2.0, 1, 3), (2, 1, "3")):
        with pytest.raises(DomainError):
            ideal_from_form(f, ring)


@pytest.mark.parametrize(
    "build",
    [
        lambda ring, e: QuadIdeal(ring, [(1, 0), (0, e)]),
        lambda ring, e: scale(unit_ideal(ring), (1, e)),
    ],
    ids=["QuadIdeal", "scale"],
)
def test_non_rational_entries_are_a_domain_error(build):
    # Fraction(e) used to raise ValueError, TypeError or OverflowError; a
    # float is a rational number and stays accepted, exactly
    ring = ring_from_disc(-23)
    for bad in ("x", None, float("inf"), float("nan"), 1j, "1/2", " 3 "):
        with pytest.raises(DomainError):
            build(ring, bad)
    assert build(ring, 0.5) == build(ring, Fraction(1, 2))


class _FractionSubclass(Fraction):
    pass


@pytest.mark.parametrize(
    "build",
    [
        lambda ring, e: QuadIdeal(ring, [(e, 0), (0, e)]),
        lambda ring, e: scale(unit_ideal(ring), (1, e)),
    ],
    ids=["QuadIdeal", "scale"],
)
def test_rational_entries_are_gated_by_exact_type(build):
    # int, Fraction and a finite float, the float read exactly; a Fraction
    # subclass, a str and a bool are refused like any other type
    ring = ring_from_disc(-23)
    assert build(ring, Fraction(1, 3)) == build(ring, Fraction(2, 6))
    assert build(ring, 0.1) == build(ring, Fraction(0.1)) != build(ring, Fraction(1, 10))
    for bad in (_FractionSubclass(1, 2), "1/2", True, None, float("inf"), float("nan")):
        with pytest.raises(DomainError):
            build(ring, bad)


def _class_number(d):
    # primitive reduced forms (a, b, c) of discriminant d < 0, counted from
    # the definition: |b| <= a <= c, b >= 0 when |b| == a or a == c
    h = 0
    a = 1
    while 3 * a * a <= -d:
        for b in range(1 - a, a + 1):
            c, r = divmod(b * b - d, 4 * a)
            if not r and (a < c or (a == c and b >= 0)) and gcd(a, b, c) == 1:
                h += 1
        a += 1
    return h


@settings(max_examples=150, deadline=None)
@given(st.integers(-3000, -3).filter(lambda d: d % 4 in (0, 1)))
@example(-3)
@example(-12)
@example(-27)
@example(-300)
@example(-2883)  # -3 * 31^2
@example(-4)
@example(-16)
@example(-36)
@example(-400)
@example(-2916)  # -4 * 27^2
def test_class_semigroup_size_is_a_sum_of_class_numbers(d):
    # each reduced form of d is g times a primitive reduced form of d / g^2,
    # for the g with g^2 | d and d / g^2 a discriminant; content 1 is Cl(d)
    elements, _ = class_semigroup(d)
    quotients = [d // (g * g) for g in range(1, isqrt(-d) + 1) if d % (g * g) == 0]
    assert len(elements) == sum(_class_number(q) for q in quotients if q % 4 in (0, 1))
    primitive = [f for f in elements if gcd(*f) == 1]
    assert len(primitive) == _class_number(d) == len(class_group(d)[0])


def test_class_semigroup_contains_class_group():
    for d in (-23, -100, -84):
        elements, table = class_semigroup(d)
        group = set(class_group(d)[0])
        assert group <= set(elements)
        # semigroup is commutative and closed
        n = len(elements)
        for i in range(n):
            for j in range(n):
                assert table[i][j] == table[j][i]
                assert 0 <= table[i][j] < n


def test_semigroup_agrees_with_principal():
    for d in (-23, -100):
        elements, table = class_semigroup(d)
        pi = elements.index(principal_form(d))
        assert all(table[pi][i] == i for i in range(len(elements)))
        for f in elements:
            assert discriminant(f) == d


def test_class_semigroup_table_matches_products_in_both_orders():
    for d in (-100, -108, -300, -392, -612):
        elements, table = class_semigroup(d)
        ring = ring_from_disc(d)
        ideals = [ideal_from_form(f, ring) for f in elements]
        for i, a in enumerate(ideals):
            for j, b in enumerate(ideals):
                assert elements[table[i][j]] == form_from_ideal(multiply(a, b))
                assert elements[table[j][i]] == form_from_ideal(multiply(b, a))


# The product loop over all h(h+1)/2 pairs of ideals that the monoid-table
# builder replaced; kept as its oracle.
def _oracle_class_semigroup(d):
    ring = ring_from_disc(d)
    elements = enumerate_reduced(d)
    ideals = [ideal_from_form(f, ring) for f in elements]
    index = {f: i for i, f in enumerate(elements)}
    table = [[None] * len(ideals) for _ in ideals]
    for i, a in enumerate(ideals):
        for j in range(i, len(ideals)):
            table[i][j] = table[j][i] = index[form_from_ideal(multiply(a, ideals[j]))]
    return elements, table


def test_class_semigroup_agrees_with_product_oracle():
    for d in range(-3, -401, -1):
        if d % 4 in (0, 1):
            assert class_semigroup(d) == _oracle_class_semigroup(d), d


def _is_disc(d):
    return d % 4 in (0, 1)


NON_FUNDAMENTAL = [
    d
    for d in range(-3, -1500, -1)
    if _is_disc(d)
    and any(d % (f * f) == 0 and _is_disc(d // (f * f)) for f in range(2, 39))
]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(NON_FUNDAMENTAL))
def test_class_semigroup_agrees_with_product_oracle_non_fundamental(d):
    assert class_semigroup(d) == _oracle_class_semigroup(d)


@settings(max_examples=40, deadline=None)
@given(st.integers(-3000, -3).filter(lambda d: d % 4 in (0, 1)))
@example(-3 * 5 * 5)
@example(-3 * 31 * 31)
@example(-4 * 9 * 9)
@example(-4 * 27 * 27)
@example(-420)  # (2, 2, 2): every class is its own conjugate
@example(-100)
def test_class_semigroup_table_agrees_with_product_only_builder(d):
    elements, table = class_semigroup(d)
    index = {f: i for i, f in enumerate(elements)}

    def product(i, j):
        return index[_compose(elements[i], elements[j], d)]

    assert table == _oracle_monoid_table(len(elements), index[principal_form(d)], product)


def test_monoid_table_rejects_a_non_commutative_product():
    # composition in the symmetric group S3: the table the builder derives
    # from the generators is not symmetric, and the self-check says so
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose_perms(i, j):
        return index[tuple(perms[i][k] for k in perms[j])]

    with pytest.raises(AssertionError, match="symmetric"):
        _monoid_table(len(perms), index[(0, 1, 2)], compose_perms, list(range(len(perms))))


def test_monoid_table_rejects_a_commutative_product_with_one_pair_changed():
    # addition on Z/n with 1 + j and j + 1 both changed to j + 2, for
    # 1 <= j <= n - 2: the product commutes and the table derived from it is
    # symmetric, so only the check that an entry reached twice agrees sees
    # it; conj is the identity, an automorphism of every monoid
    for n in range(3, 13):
        for j in range(1, n - 1):

            def add(x, y):
                return (j + 2) % n if sorted((x, y)) == [1, j] else (x + y) % n

            with pytest.raises(AssertionError, match="symmetric"):
                _monoid_table(n, 0, add, list(range(n)))


def test_monoid_table_with_negation_never_accepts_a_wrong_table():
    # the same faults with conj the negation, an automorphism of Z/n: the
    # derived entries may fill the faulty pair's cell before it is asked
    # for, but then the builder never calls it and the table is the true
    # one; whenever it calls the faulty pair, it raises
    raised = 0
    for n in range(3, 13):
        for j in range(1, n - 1):
            called = []

            def add(x, y):
                if sorted((x, y)) == [1, j]:
                    called.append((x, y))
                    return (j + 2) % n
                return (x + y) % n

            try:
                table = _monoid_table(n, 0, add, [-i % n for i in range(n)])
            except AssertionError as e:
                assert "symmetric" in str(e) and called
                raised += 1
            else:
                assert called == []
                assert table == [[(x + y) % n for y in range(n)] for x in range(n)]
    assert raised == 30


@st.composite
def _reduced_form_pairs(draw):
    # (f, g, d): D = D0 * m^2 with m <= 25 and |D| <= 2 * 10^5, and each form
    # drawn from the imprimitive reduced forms half the time, when D has any
    m = draw(st.integers(min_value=1, max_value=25))
    q = draw(st.integers(min_value=0, max_value=(200000 // (m * m) - 3) // 4))
    d0 = -(4 * q + 3) if draw(st.booleans()) or q == 0 else -4 * q
    d = d0 * m * m
    forms = enumerate_reduced(d)
    imprimitive = [f for f in forms if gcd(*f) > 1]
    pair = []
    for _ in range(2):
        pool = imprimitive if imprimitive and draw(st.booleans()) else forms
        pair.append(pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))])
    return pair[0], pair[1], d


@settings(max_examples=150, deadline=None)
@given(_reduced_form_pairs())
@example(((5, 0, 5), (5, 0, 5), -100))
def test_compose_kernel_agrees_with_ideal_product_oracle(case):
    # the lattice product that the composition kernel replaced in
    # class_semigroup is its oracle, for primitive and imprimitive forms
    f, g, d = case
    ring = ring_from_disc(d)
    product = multiply(ideal_from_form(f, ring), ideal_from_form(g, ring))
    assert _compose(f, g, d) == form_from_ideal(product)


def test_class_semigroup_makes_180_compositions():
    # structural guard: one composition per unreached orbit made 348, and
    # conjugation halves that; counted, not timed
    (elements, _), counts = call_counts(class_semigroup, -99999)
    assert len(elements) == 336 and counts["quadforms._compose"] == 180


def test_class_semigroup_composition_counts():
    # counted, not timed: with the generators in index order, -1152 made 63
    # and -999999 made 659, the figure the README quotes
    for d, h, expected in ((-1152, 21, 33), (-999999, 1216, 654)):
        (elements, _), counts = call_counts(class_semigroup, d)
        assert len(elements) == h and counts["quadforms._compose"] == expected, d


@settings(max_examples=40, deadline=None)
@given(st.integers(-2999, -3).filter(lambda d: d % 4 in (0, 1)))
@example(-288)  # 21 compositions for 9 forms
@example(-1152)  # 33 for 21, and 63 with its generators in index order
def test_class_semigroup_makes_at_most_7h_over_3_compositions_below_3000(d):
    # the bound of the docstring's Cost line; counted, not timed
    (elements, _), counts = call_counts(class_semigroup, d)
    assert 3 * counts["quadforms._compose"] <= 7 * len(elements)


def test_class_semigroup_builds_no_ideal():
    # structural guard: the lattice path is not reached at all, so no ideal
    # is built; counted, not timed
    for d in (-100, -300, -99999):
        _, counts = call_counts(class_semigroup, d)
        for name in ("multiply", "ideal_from_form", "form_from_ideal", "QuadIdeal.__init__", "QuadIdeal._from_rows"):
            assert counts["quadrings." + name] == 0, (d, name)
        assert counts["exactlattice._hnf_int"] == 0


# The Fraction-row ideal operations that integer rows over one denominator
# replaced; kept as their oracle.
def _oracle_multiply(i, j):
    rows = [i.ring.mul(bi, bj) for bi in i.basis for bj in j.basis]
    return QuadIdeal(i.ring, _oracle_hnf_canonicalize(rows))


def _oracle_conjugate(i):
    return QuadIdeal(i.ring, _oracle_hnf_canonicalize([i.ring.conj(row) for row in i.basis]))


def _oracle_norm(i):
    return abs(_oracle_mat_det(i.basis))


def _oracle_scale(i, elt):
    return QuadIdeal(i.ring, _oracle_hnf_canonicalize([i.ring.mul(elt, row) for row in i.basis]))


def _oracle_inverse(i):
    n = _oracle_norm(i)
    rows = [[e / n for e in row] for row in _oracle_conjugate(i).basis]
    return QuadIdeal(i.ring, _oracle_hnf_canonicalize(rows))


def _random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


# a few forms of each positive discriminant, non-primitive ones included
INDEFINITE_FORMS = {
    5: ((1, 1, -1), (-1, 1, 1), (1, 3, 1)),
    12: ((1, 0, -3), (-1, 0, 3), (2, 2, -1), (3, 0, -1)),
    20: ((1, 0, -5), (2, 2, -2), (-2, 2, 2), (1, 4, -1)),
}


def _random_ideals(rng, d, count):
    # ideals of forms of d (all reduced ones when d < 0), on a random basis
    # of the same lattice, times a random nonzero rational
    ring = ring_from_disc(d)
    forms = enumerate_reduced(d) if d < 0 else INDEFINITE_FORMS[d]
    base = [ideal_from_form(f, ring) for f in forms]
    out = []
    while len(out) < count:
        (x0, x1), (y0, y1) = rng.choice(base).basis
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        c = _random_rational(rng) or Fraction(1)
        rows = ((x0 + a * y0, x1 + a * y1), (y0 + b * (x0 + a * y0), y1 + b * (x1 + a * y1)))
        out.append(QuadIdeal(ring, [[c * e for e in row] for row in rows]))
    return out


def _same(a, b):
    return a.ring == b.ring and repr(a) == repr(b)


def test_ideal_operations_agree_with_fraction_oracle():
    rng = random.Random(31)
    for d in (-3, -4, -23, -100, -108, -300, -392, 5, 12, 20):
        ideals = _random_ideals(rng, d, 12)
        for i in ideals:
            assert i.basis == tuple(tuple(Fraction(e, i.den) for e in row) for row in i.rows)
            assert i.den > 0 and gcd(i.den, *(e for row in i.rows for e in row)) == 1
            assert ideal_norm(i) == _oracle_norm(i)
            assert _same(conjugate(i), _oracle_conjugate(i))
            j = rng.choice(ideals)
            assert _same(multiply(i, j), _oracle_multiply(i, j))
            elt = (_random_rational(rng), _random_rational(rng))
            if elt == (0, 0):
                elt = (Fraction(1, 2), Fraction(0))
            assert _same(scale(i, elt), _oracle_scale(i, elt))
            assert _same(scale(i, (3, -2)), _oracle_scale(i, (3, -2)))
            with pytest.raises(RankError):
                scale(i, (0, 0))
            if is_invertible(i):
                assert _same(inverse(i), _oracle_inverse(i))


# The Fraction round trip that construction from integer rows replaced:
# every computed ideal went to Fraction rows and back through
# QuadIdeal(ring, basis).  Kept as the oracle for ideal_from_form,
# multiply, conjugate, scale and inverse.
def _round_trip_span(ring, rows, den):
    return QuadIdeal(ring, _unscaled(_hnf_int(rows), den))


def _round_trip_ideal_from_form(f, ring):
    p, q, r = f
    if p != 0:
        a = (ring.t - q) // 2
        return QuadIdeal(ring, ((Fraction(1), Fraction(0)), (Fraction(-a, p), Fraction(1, p))))
    m = ((0, 1), (-1, 0)) if r != 0 else ((1, 1), (0, 1))
    inner = _round_trip_ideal_from_form(twisted_act(m, f), ring)
    return QuadIdeal(ring, _oracle_mat_mul(((m[1][1], -m[0][1]), (-m[1][0], m[0][0])), inner.basis))


def _round_trip_multiply(i, j):
    rows = [i.ring.mul(a, b) for a in i.rows for b in j.rows]
    return _round_trip_span(i.ring, rows, i.den * j.den)


def _round_trip_conjugate(i):
    return _round_trip_span(i.ring, [i.ring.conj(row) for row in i.rows], i.den)


def _round_trip_scale(i, elt):
    (e,), e_den = _scaled([elt])
    return _round_trip_span(i.ring, [i.ring.mul(e, row) for row in i.rows], i.den * e_den)


def _round_trip_inverse(i):
    if not is_invertible(i):
        raise DomainError("not invertible")
    rows = [[i.den * e for e in i.ring.conj(row)] for row in i.rows]
    return _round_trip_span(i.ring, rows, abs(mat2_det(i.rows)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (SmallRankError, AssertionError) as e:
        return type(e)


def _identical(a, b):
    # the same basis tuple, Fraction types included, and the same integer state
    if not (isinstance(a, QuadIdeal) and isinstance(b, QuadIdeal)):
        return a == b
    return (
        a.ring == b.ring
        and a.basis == b.basis
        and all(type(e) is Fraction for row in a.basis + b.basis for e in row)
        and (a.rows, a.den, a.xi) == (b.rows, b.den, b.xi)
        and all(type(e) is int for row in a.rows + a.xi for e in row)
    )


# all forms in a box of each discriminant: p = 0 or r = 0 needs a square d
FORMS_BY_DISC = {
    d: [
        (p, q, r)
        for p in range(-8, 9)
        for q in range(-8, 9)
        for r in range(-30, 31)
        if q * q - 4 * p * r == d and (p, q, r) != (0, 0, 0)
    ]
    for d in (-3, -4, -15, -23, -36, -100, -108, 0, 1, 4, 9, 16, 25, 5, 12, 13, 20, 45)
}


@st.composite
def ideal_cases(draw):
    # a presentation t = d mod 2 of a ring of discriminant d, two of its
    # forms, a rational change of basis and an element to scale by
    d = draw(st.sampled_from(sorted(FORMS_BY_DISC)))
    t = d % 2 + 2 * draw(st.integers(-2, 2))
    ring = QuadraticRing(t, (t * t - d) // 4)
    f, g = draw(st.sampled_from(FORMS_BY_DISC[d])), draw(st.sampled_from(FORMS_BY_DISC[d]))
    a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    c = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 6)))
    small = st.integers(-4, 4)
    elt = draw(st.tuples(small, small) | st.tuples(small, small).map(
        lambda xy: (Fraction(xy[0], 3), Fraction(xy[1], 2))))
    return ring, f, g, (a, b, c), elt


@settings(max_examples=100, deadline=None)
@given(ideal_cases())
def test_integer_ideals_agree_with_fraction_round_trip(case):
    ring, f, g, (a, b, c), elt = case
    i = _outcome(ideal_from_form, f, ring)
    assert _identical(i, _outcome(_round_trip_ideal_from_form, f, ring))
    j = _outcome(ideal_from_form, g, ring)
    if not isinstance(i, QuadIdeal) or not isinstance(j, QuadIdeal):
        return
    (x0, x1), (y0, y1) = j.basis
    rows = ((x0 + a * y0, x1 + a * y1), (y0 + b * (x0 + a * y0), y1 + b * (x1 + a * y1)))
    k = QuadIdeal(ring, [[c * e for e in row] for row in rows])  # basis as given
    ideals = [i, j, k]
    for x in ideals:
        assert _identical(_outcome(conjugate, x), _outcome(_round_trip_conjugate, x))
        assert _identical(_outcome(scale, x, elt), _outcome(_round_trip_scale, x, elt))
        assert _identical(_outcome(inverse, x), _outcome(_round_trip_inverse, x))
        for y in ideals:
            assert _identical(_outcome(multiply, x, y), _outcome(_round_trip_multiply, x, y))
    # equality is the old comparison of Fraction HNFs, and equal ideals hash
    # alike; the list holds equal ideals on different bases
    ideals += [_span(ring, k.rows, k.den), scale(k, (1, 0)), multiply(k, unit_ideal(ring))]
    ideals += [scale(i, (c, 0)), scale(j, (c, 0)), QuadIdeal(ring, rows)]
    for x in ideals:
        for y in ideals:
            assert (x == y) == (_oracle_hnf_canonicalize(x.basis) == _oracle_hnf_canonicalize(y.basis))
            if x == y:
                assert hash(x) == hash(y)


def test_class_semigroup_constructs_no_fraction():
    # -100, -108 and -300 have classes that are not invertible
    for d in (-3, -23, -100, -108, -300, -999):
        assert call_counts(class_semigroup, d)[1]["fractions.Fraction.__new__"] == 0
    assert call_counts(Fraction, 1, 3)[1]["fractions.Fraction.__new__"] == 1  # the counter does count
