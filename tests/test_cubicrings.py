"""Cubic rings and the binary cubic form dictionary."""

import random
from itertools import product
from math import gcd

import pytest
from hypothesis import given, strategies as st
from orbits import count_maximal_lifts, generators, orbits
from test_exactlattice import _oracle_mat_det, _oracle_mat_mul

from smallrank.errors import DomainError, NotUnimodular
from smallrank.cubicrings import (
    CubicRing,
    _cubic_eval,
    cubic_form_disc,
    cubic_twisted_act,
    form_from_cubic_ring,
    idempotents_within,
    ring_from_cubic_form,
    values_mod,
)
from smallrank.exactlattice import _form_act, mat2_det
from smallrank.quarticrings import _maximal_at_p

coeff = st.integers(min_value=-8, max_value=8)
forms = st.tuples(coeff, coeff, coeff, coeff)
elements = st.tuples(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
)


@given(forms)
def test_round_trip(form):
    assert form_from_cubic_ring(ring_from_cubic_form(form)) == form


@given(forms, elements, elements, elements)
def test_ring_is_commutative_and_associative(form, x, y, z):
    ring = ring_from_cubic_form(form)
    assert ring.mul(x, y) == ring.mul(y, x)
    assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))


def test_generator_products():
    ring = ring_from_cubic_form((1, -3, 1, 2))
    xi1, xi2 = (0, 1, 0), (0, 0, 1)
    assert ring.mul(xi1, xi1) == (ring.ell, ring.a, ring.b)
    assert ring.mul(xi1, xi2) == (ring.m, 0, 0)
    assert ring.mul(xi2, xi2) == (ring.n, ring.e, ring.f)
    one = (1, 0, 0)
    assert ring.mul(one, xi1) == xi1


def test_forced_constants():
    ring = CubicRing(3, -2, 5, 7)
    assert ring.ell == -ring.b * ring.f
    assert ring.m == ring.b * ring.e
    assert ring.n == -ring.a * ring.e


def test_from_table_normalizes_translations():
    rng = random.Random(31)
    for _ in range(60):
        ring = CubicRing(*(rng.randint(-6, 6) for _ in range(4)))
        c, d = rng.randint(-5, 5), rng.randint(-5, 5)
        ell, m, n = ring.ell, ring.m, ring.n
        a, b, e, f = ring.a, ring.b, ring.e, ring.f
        shifted = (
            ell - a * d - d * d - b * c,
            m - c * d,
            n - e * d - f * c - c * c,
            a + 2 * d,
            b,
            c,
            d,
            e,
            f + 2 * c,
        )
        assert CubicRing.from_table(*shifted) == ring


def test_cubic_ring_rejects_non_integer_coefficients():
    # int() used to truncate: CubicRing(0.5, 1, -1, 1).disc() was -31
    for coeffs in ((0.5, 1, -1, 1), (0, 1, -1, 1.0), (0, 1, "-1", 1)):
        with pytest.raises(DomainError):
            CubicRing(*coeffs)


def test_a_cubic_ring_holds_its_table_alone():
    # the named coefficients are read-only views of _t: setting a = 5 used
    # to make the ring equal to that of (1, -5, 1, 1), of disc 404 and
    # n = 5, while disc() stayed -31 and n stayed 0
    ring = ring_from_cubic_form((1, 0, 1, 1))
    for name in ("a", "b", "e", "f", "ell", "m", "n"):
        with pytest.raises(AttributeError):
            setattr(ring, name, 5)
    assert not hasattr(ring, "__dict__") and type(ring).__slots__ == ()
    assert ring == ring_from_cubic_form((1, 0, 1, 1)) and (ring.disc(), ring.n) == (-31, 0)
    assert ring_from_cubic_form((1, -5, 1, 1)).disc() == 404


@given(forms)
def test_named_coefficients_read_the_table(form):
    p, q, r, s = form
    ring = ring_from_cubic_form(form)
    a, b, e, f = -q, p, -s, r
    assert (ring.a, ring.b, ring.e, ring.f) == (a, b, e, f)
    assert (ring.ell, ring.m, ring.n) == (-b * f, b * e, -a * e)
    assert ring == CubicRing(a, b, e, f) and hash(ring) == hash(CubicRing(a, b, e, f))


def test_from_table_rejects_non_associative():
    with pytest.raises(DomainError):
        CubicRing.from_table(1, 2, 3, 4, 5, 0, 0, 6, 7)


@given(forms)
def test_disc_equals_trace_form_disc(form):
    # disc R(f) = disc f: the closed form against the trace form of the ring
    assert cubic_form_disc(form) == _oracle_trace_disc(ring_from_cubic_form(form), 3)


# The trace-matrix determinant that the rings of rank 3 and 4 took, as a
# Fraction, before each moved to a closed form (the discriminant of the
# ring's cubic form, and in rank 4 a straight-line expansion); kept as the
# discriminant oracle of ranks 2, 3 and 4.
def _oracle_trace_disc(ring, n):
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    d = _oracle_mat_det([[ring.trace(ring.mul(u, v)) for v in basis] for u in basis])
    assert d.denominator == 1
    return int(d)


@given(forms)
def test_disc_agrees_with_trace_matrix_oracle(form):
    ring = ring_from_cubic_form(form)
    d = ring.disc()
    assert type(d) is int and d == _oracle_trace_disc(ring, 3)


def test_disc_spots():
    assert cubic_form_disc((0, 1, 1, 0)) == 1
    assert cubic_form_disc((1, 0, 1, 1)) == -31
    assert cubic_form_disc((1, -3, 1, 2)) == 5
    assert cubic_form_disc((1, 0, 0, 0)) == 0


def test_values_mod():
    assert values_mod((5, 0, 0, 7), 7) == {0, 2, 5}
    assert values_mod((0, 1, 1, 0), 2) == {0}
    with pytest.raises(DomainError):
        values_mod((1, 0, 0, 0), 1)
    # '3' and 2.5 used to let a TypeError escape
    for m in ("3", 2.5):
        with pytest.raises(DomainError, match="need an integer modulus"):
            values_mod((1, 0, 0, 1), m)
    # a float coefficient used to give float residues
    with pytest.raises(DomainError, match="need integer coefficients"):
        values_mod((1.5, 0, 0, 1), 3)


def test_content():
    # the content of a form is the gcd of its four coefficients, 0 for the
    # zero form
    for form, content in (((2, 4, 6, 8), 2), ((0, 0, 0, 0), 0), ((1, -3, 1, 2), 1)):
        assert gcd(*form) == content


def test_twisted_act_composes_and_preserves_disc():
    rng = random.Random(32)
    mats = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (-1, 0)), ((0, 1), (1, 0))]
    for _ in range(40):
        form = tuple(rng.randint(-6, 6) for _ in range(4))
        m1, m2 = rng.choice(mats), rng.choice(mats)
        acted = cubic_twisted_act(m1, form)
        assert cubic_form_disc(acted) == cubic_form_disc(form)
        assert gcd(*acted) == gcd(*form)
        assert cubic_twisted_act(m2, acted) == cubic_twisted_act(
            _oracle_mat_mul(m2, m1), form
        )


def test_twisted_act_values_correspond():
    form = (1, -3, 1, 2)
    m = ((2, 1), (1, 1))
    acted = cubic_twisted_act(m, form)
    for x in range(-3, 4):
        for y in range(-3, 4):
            # row-vector substitution: acted(x, y) = form((x, y) * m) / det
            xx, yy = x * m[0][0] + y * m[1][0], x * m[0][1] + y * m[1][1]
            assert _cubic_eval(acted, x, y) == _cubic_eval(form, xx, yy)


def test_twisted_act_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        cubic_twisted_act(((2, 0), (0, 1)), (1, 0, 0, 1))


def test_twisted_act_rejects_non_integer_coefficients():
    # a float coefficient used to fail the divisibility assert
    with pytest.raises(DomainError, match="need integer coefficients"):
        cubic_twisted_act(((1, 0), (0, 1)), (1.5, 0, 0, 1))


def test_idempotents():
    split = ring_from_cubic_form((0, 1, 1, 0))
    assert len(idempotents_within(split)) == 8
    assert (0, 0, 0) in idempotents_within(split)
    assert (1, 0, 0) in idempotents_within(split)
    domain = ring_from_cubic_form((1, 0, 1, 1))
    assert idempotents_within(domain) == ((0, 0, 0), (1, 0, 0))
    # a float height used to let a TypeError escape from range
    with pytest.raises(DomainError, match="need an integer height"):
        idempotents_within(domain, 1.5)


@pytest.mark.parametrize("p", [2, 3])
def test_davenport_heilbronn_count_of_forms_maximal_at_p(p):
    # among the p^8 binary cubic forms mod p^2, exactly p^8 (1 - p^-2)(1 - p^-3)
    # give a ring maximal at p (Davenport-Heilbronn, Proc. R. Soc. A 322,
    # 1971), as maximality at p is a condition mod p^2.  A form of disc 0 is
    # moved by p^2 * (1, 1, 1, 1), whose disc -16 is not 0, until its disc
    # is not 0: a polynomial of degree 4 in the number of moves
    q = p * p
    maximal = 0
    for form in product(range(q), repeat=4):
        while cubic_form_disc(form) == 0:
            form = tuple(c + q for c in form)
        ring = ring_from_cubic_form(form)
        maximal += _maximal_at_p(ring, p, ring.disc())[0]
    assert maximal == p**3 * (p**2 - 1) * (p**3 - 1)  # 168 at p = 2, 5616 at p = 3


def _form_tangents(v):
    # the tangent vectors at f = (a, b, c, d) of the twisted action, one per
    # elementary matrix E_ij: d/dt of f((x, y)(I + t*E_ij)) - tr(E_ij)*f
    a, b, c, d = v
    return [(2 * a, b, 0, -d), (-a, 0, c, 2 * d), (b, 2 * c, 3 * d, 0), (0, 3 * a, 2 * b, c)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_davenport_heilbronn_count_by_orbits_and_cosets(p):
    # the count of the test above, p^3 (p^2 - 1)(p^3 - 1), from the 6 orbits
    # of GL2(F_p) on the forms mod p under f -> f((x, y) g)/det g and one
    # lift per coset of each orbit's tangent space: 372,000 at p = 5 and
    # 5,630,688 at p = 7 (0.01 and 0.03 s on a 2-core Xeon, 33 and 59
    # rings), where brute force would build p^8 rings
    q = p * p
    acts = [lambda f, g=g: [e * pow(mat2_det(g), -1, p) for e in _form_act(g, f)] for g in generators(2, p)]
    forms = orbits(p, 4, acts)
    assert len(forms) == 6 and sum(size for _, size in forms) == p**4

    def maximal(w):
        while cubic_form_disc(w) == 0:
            w = [c + q for c in w]
        ring = ring_from_cubic_form(tuple(w))
        return _maximal_at_p(ring, p, ring.disc())[0]

    total, _ = count_maximal_lifts(p, forms, _form_tangents, maximal)
    assert total == p**3 * (p**2 - 1) * (p**3 - 1)
