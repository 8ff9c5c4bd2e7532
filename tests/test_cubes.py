"""2x2x2 integer cubes, their forms, and balanced ideal triples."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from callcounts import call_counts
from test_exactlattice import _oracle_intersect
from test_quadforms import _raises_under_optimize_flag

from smallrank.errors import (
    Degenerate,
    DomainError,
    InvariantViolation,
    NotBalanced,
    NotInGamma,
    UnsupportedDiscriminant,
)
from smallrank.quadforms import compose, content, discriminant, principal_form, represent, twisted_act
from smallrank.quadforms import reduce as qreduce
from smallrank import cubes
from smallrank.cubes import (
    BalancedTriple,
    associated_forms,
    cube_from_triple,
    dirichlet_cube,
    gamma_act,
    identity_cube,
    is_balanced,
    ring_of_cube,
    tau_system,
    triple_from_cube,
    triples_equivalent,
)
from smallrank.cubes import _invariants
from smallrank.exactlattice import mat2_det
from smallrank.quadforms import enumerate_reduced
from smallrank.quadrings import (
    QuadIdeal,
    QuadraticRing,
    conjugate,
    ideal_from_form,
    ideal_norm,
    raw_form,
    ring_from_disc,
    scale,
    unit_ideal,
)

BOX1 = (1, 2, 2, -1, 2, -1, -1, -2)
BOX2 = (-1, 2, 2, 1, 2, 1, 1, -2)
IDENT2 = ((1, 0), (0, 1))


def _random_cubes(seed, count, bound=4):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = tuple(rng.randint(-bound, bound) for _ in range(8))
        try:
            ring_of_cube(q)
        except Degenerate:
            continue
        out.append(q)
    return out


def normalize_triple(tr):
    """Move a triple to the normalized presentation (t in {0,1}) of its ring."""
    ring = tr.ring
    r0 = ring.normalized()
    k = ring.t // 2
    mv = lambda row: (row[0] + k * row[1], row[1])
    ideals = tuple(
        QuadIdeal(r0, (mv(i.basis[0]), mv(i.basis[1]))) for i in tr.ideals
    )
    return BalancedTriple(r0, ideals)


def test_invariants_and_form_discs():
    for q in _random_cubes(21, 60):
        t, u = _invariants(q)
        d = t * t - 4 * u
        for f in associated_forms(q):
            assert discriminant(f) == d
        assert ring_of_cube(q).disc == d


def test_xi_action_matrices_have_trace_t_det_u():
    for q in _random_cubes(22, 40):
        ring = ring_of_cube(q)
        t, u = ring.t, ring.u
        for x in (ideal_from_form(f, ring).xi for f in associated_forms(q)):
            assert x[0][0] + x[1][1] == t
            assert x[0][0] * x[1][1] - x[0][1] * x[1][0] == u


# xi on the ideal of a form, read off the form by inverting
# quadrings.raw_form, as the library did before it built the ideals; kept
# as the oracle of their xi.
def _oracle_xi_from_form(f, t):
    p, qq, r = f
    assert (t - qq) % 2 == 0
    return ((t - qq) // 2, -r), (p, (t + qq) // 2)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(-4, 4)] * 8))
@example(BOX1)
@example(identity_cube(-4))
def test_xi_actions_agree_with_form_oracle(q):
    try:
        ring = ring_of_cube(q)
    except Degenerate:
        assert (0, 0, 0) in associated_forms(q)
        return
    xis = tuple(ideal_from_form(f, ring).xi for f in associated_forms(q))
    expected = tuple(_oracle_xi_from_form(f, ring.t) for f in associated_forms(q))
    assert repr(xis) == repr(expected)


def test_degenerate_cube():
    with pytest.raises(Degenerate):
        ring_of_cube((0, 0, 0, 0, 0, 0, 0, 1))
    with pytest.raises(Degenerate):
        triple_from_cube((0, 0, 0, 0, 0, 0, 0, 1))


def test_identity_cubes():
    for d in (-100, -23, -4, -3):
        q = identity_cube(d)
        assert all(f == principal_form(d) for f in associated_forms(q))
        tr = triple_from_cube(q)
        s = unit_ideal(tr.ring)
        assert tr.ideals == (s, s, s)


def test_identity_cube_rejects_a_non_integer_discriminant():
    # -3.0 used to give the cube (0, 1, 1, 1, 1, 1, 1, 0.0)
    with pytest.raises(UnsupportedDiscriminant, match="need an integer discriminant"):
        identity_cube(-3.0)


def test_unit_triple_reproduces_identity_cube():
    for d in (-100, -23):
        ring = QuadraticRing(0, -d // 4) if d % 4 == 0 else QuadraticRing(1, (1 - d) // 4)
        s = unit_ideal(ring)
        assert cube_from_triple(BalancedTriple(ring, (s, s, s))) == identity_cube(d)


def test_two_boxes_forms_and_ring():
    for box in (BOX1, BOX2):
        assert ring_of_cube(box).disc == -100
        for f in associated_forms(box):
            assert qreduce(f)[0] == (5, 0, 5)


def test_two_boxes_third_ideals_and_inequivalence():
    t1 = normalize_triple(triple_from_cube(BOX1))
    t2 = normalize_triple(triple_from_cube(BOX2))
    r0 = QuadraticRing(0, 25)
    assert t1.ring == r0 and t2.ring == r0
    b = ideal_from_form((5, 0, 5), r0)
    assert t1.ideals[2] == scale(b, (10, 1))
    assert t2.ideals[2] == scale(b, (10, -1))
    assert t1.ideals[2] != t2.ideals[2]
    assert triples_equivalent(t1, t1)
    assert triples_equivalent(t2, t2)
    assert not triples_equivalent(t1, t2)


def test_balancedness():
    r0 = QuadraticRing(0, 25)
    s = unit_ideal(r0)
    b = ideal_from_form((5, 0, 5), r0)
    b5 = scale(b, (Fraction(5), Fraction(0)))
    assert is_balanced(s, b, b5)
    assert not is_balanced(s, s, b)
    q = cube_from_triple(BalancedTriple(r0, (s, b, b5)))
    assert q == (0, 1, 1, 0, 5, 0, 0, -5)
    assert associated_forms(q) == ((1, 0, 25), (5, 0, 5), (5, 0, 5))
    with pytest.raises(NotBalanced):
        cube_from_triple(BalancedTriple(r0, (s, s, b)))


# The Fraction-row balancedness test that the integer-row one replaced; kept
# as its oracle.
def _oracle_is_balanced(i1, i2, i3):
    ring = i1.ring
    if ideal_norm(i1) * ideal_norm(i2) * ideal_norm(i3) != 1:
        return False
    for x in i1.basis:
        for y in i2.basis:
            for z in i3.basis:
                w = ring.mul(ring.mul(x, y), z)
                if w[0].denominator != 1 or w[1].denominator != 1:
                    return False
    return True


def test_balancedness_agrees_with_fraction_oracle():
    rng = random.Random(29)
    answers = []
    triples = [triple_from_cube(q).ideals for q in _random_cubes(37, 30)]
    for d in (-23, -100, -300, -392):
        ring = ring_from_disc(d)
        ideals = [ideal_from_form(f, ring) for f in enumerate_reduced(d)]
        # i1 * i2 * conj(i3) / N(i3) has norm product 1 when N(i2) == N(i3)
        for i2 in ideals:
            for i3 in ideals:
                if ideal_norm(i2) == ideal_norm(i3):
                    inv3 = scale(conjugate(i3), (1 / ideal_norm(i3), 0))
                    triples.append((unit_ideal(ring), i2, inv3))
    for i1, i2, i3 in list(triples):
        # move a rational scalar between two ideals, or scale one alone
        c = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        triples.append((scale(i1, (c, 0)), scale(i2, (1 / c, 0)), i3))
        if i3.ring.norm((c, 1)):
            triples.append((i1, i2, scale(i3, (c, 1))))
    for tr in [t[k:] + t[:k] for t in triples for k in range(3)]:  # balancedness is symmetric
        result = is_balanced(*tr)
        assert result == _oracle_is_balanced(*tr)
        answers.append(result)
    assert set(answers) == {True, False}


def test_invertible_triple_forms_compose_to_principal():
    r0 = QuadraticRing(0, 25)
    s = unit_ideal(r0)
    a = ideal_from_form((2, 2, 13), r0)
    # conjugate ideal rescaled so the three norms multiply to 1
    n = ideal_norm(a)
    abar = QuadIdeal(
        r0, tuple(tuple(v / n for v in row) for row in conjugate(a).basis)
    )
    tr = BalancedTriple(r0, (s, a, abar))
    assert is_balanced(*tr.ideals)
    q = cube_from_triple(tr)
    f1, f3, f2 = associated_forms(q)
    reduced = [qreduce(f)[0] for f in (f1, f3, f2)]
    assert reduced == [(1, 0, 25), (2, 2, 13), (2, 2, 13)]
    prod = compose(compose(f1, f2), f3)
    assert qreduce(prod)[0] == (1, 0, 25)


def test_round_trip_cube_triple_cube():
    for q in _random_cubes(23, 60):
        tr = triple_from_cube(q)
        assert is_balanced(*tr.ideals)
        assert cube_from_triple(tr) == q


def test_cube_from_triple_computes_the_triple_products_once():
    # counted, not timed: the balancedness test and the cube share one set
    # of the eight products, from the four x_i*y_j and then one ring product
    # each, on a balanced and on an unbalanced triple
    qs = _random_cubes(41, 5)
    for q in qs:
        cube, counts = call_counts(cube_from_triple, triple_from_cube(q))
        assert cube == q and counts["quadrings.QuadraticRing.mul"] == 12
    r0 = QuadraticRing(0, 25)
    # s, g*s and s/conj(g) for g = 1 + xi of norm 26: norm product 1, so the
    # products are computed, and g/conj(g) = (-24 + 2 xi)/26 is not integral
    s = unit_ideal(r0)
    unbalanced = BalancedTriple(r0, (s, scale(s, (1, 1)), scale(s, (Fraction(1, 26), Fraction(1, 26)))))

    def refused():
        with pytest.raises(NotBalanced, match="triple fails the balancedness conditions"):
            cube_from_triple(unbalanced)

    assert call_counts(refused)[1]["quadrings.QuadraticRing.mul"] == 12


def test_tau_system_computes_the_triple_products_once(monkeypatch):
    # counted, not timed: the taus reuse the products of the balancedness
    # self-check in triple_from_cube, and that check still fires.  22 ring
    # products: 12 for the eight triple products, 4 for the equations of the
    # third ideal and 2 for the xi matrix of each of the three ideals; a
    # second set of triple products would make 34
    qs = _random_cubes(43, 5)
    for q in qs:
        taus, counts = call_counts(tau_system, q)
        assert counts["quadrings.QuadraticRing.mul"] == 22
        assert tuple(t[1] for pair in taus for row in pair for t in row) == q
    monkeypatch.setattr(cubes, "_balanced_products", lambda *ideals: None)
    with pytest.raises(InvariantViolation, match="triple rebuilt from the cube is not balanced"):
        tau_system(qs[0])


def test_cube_maps_construct_no_fraction():
    # the third ideal, the triple products and the norm product are solved
    # and tested on integers, also on a triple that is not balanced;
    # tau_system makes one Fraction per distinct value of the 16 entries it
    # returns
    for q in _random_cubes(47, 5):
        triple, counts = call_counts(triple_from_cube, q)
        assert counts["fractions.Fraction.__new__"] == 0
        assert call_counts(cube_from_triple, triple)[1]["fractions.Fraction.__new__"] == 0
        i1, i2, i3 = triple.ideals
        for ideals in ((i1, i2, i3), (i1, i2, scale(i3, (2, 0)))):
            assert call_counts(is_balanced, *ideals)[1]["fractions.Fraction.__new__"] == 0
        taus, counts = call_counts(tau_system, q)
        values = {x for pair in taus for row in pair for t in row for x in t}
        assert counts["fractions.Fraction.__new__"] == len(values) <= 16
    assert call_counts(Fraction, 1, 3)[1]["fractions.Fraction.__new__"] == 1  # the counter does count


def test_associated_form_discriminant_check_survives_optimize_flag():
    # slices that give forms of discriminant -4 on a cube of discriminant -23
    message, check = _raises_under_optimize_flag(
        "from smallrank import cubes\n"
        "cubes._slice_forms = lambda q: ((1, 0, 1),) * 3\n",
        "cubes.associated_forms(cubes.identity_cube(-23))",
    )
    assert message == "associated form (1, 0, 1) has the wrong discriminant"
    assert check == "if discriminant(f) != t * t - 4 * u:"


def test_gamma_act_discriminant_check_survives_optimize_flag():
    # a substitution that sends every pair of entries to zero: the zero cube
    message, check = _raises_under_optimize_flag(
        "from smallrank import cubes\n"
        "cubes._form_act = lambda m, f: (0, 0)\n",
        "cubes.gamma_act((((1, 0), (0, 1)),) * 3, cubes.identity_cube(-23))",
    )
    assert message == "gamma action changed the discriminant of the cube"
    assert check == "if t1 * t1 - 4 * u1 != t0 * t0 - 4 * u0:"


def test_third_form_check_survives_optimize_flag():
    # a third slice form with its middle coefficient negated, (1, -1, 6):
    # the third ideal solved from the cube has the form (1, 1, 6)
    message, check = _raises_under_optimize_flag(
        "from smallrank import cubes\n"
        "slice_forms = cubes._slice_forms\n"
        "cubes._slice_forms = lambda q: (lambda f1, f2, f3: (f1, f2, (f3[0], -f3[1], f3[2])))(*slice_forms(q))\n",
        "cubes.triple_from_cube(cubes.identity_cube(-23))",
    )
    assert message == "third ideal of the cube does not have the third form (1, -1, 6)"
    assert check == "if raw_form(i3) != f3:"


def test_four_equations_check_survives_optimize_flag():
    # the unit ideal in place of the first two ideals: over the ring (3, 8)
    # of the identity cube of -23, the third ideal solved from the products
    # 1*1 and 1*xi does not give the cube's entries at xi*xi
    message, check = _raises_under_optimize_flag(
        "from smallrank import cubes, quadrings\n"
        "cubes.ideal_from_form = lambda f, ring: quadrings.unit_ideal(ring)\n",
        "cubes.triple_from_cube(cubes.identity_cube(-23))",
    )
    assert message == "third ideal of the cube does not solve all four equations"
    assert check == "if not all(a * z0 + b * z1 == c for (z0, z1), cs in zip(zs, rhs) for (a, b), c in zip(rows, cs)):"


def test_reconstructed_triple_equivalent_to_source():
    r0 = QuadraticRing(0, 25)
    s = unit_ideal(r0)
    b = ideal_from_form((5, 0, 5), r0)
    b5 = scale(b, (Fraction(5), Fraction(0)))
    tr = BalancedTriple(r0, (s, b, b5))
    back = normalize_triple(triple_from_cube(cube_from_triple(tr)))
    assert triples_equivalent(tr, back)


def test_dirichlet_cube_display_forms():
    assert associated_forms(dirichlet_cube(2, 3, 5, 1)) == (
        (-2, 1, 15),
        (-5, 1, 6),
        (-3, 1, 10),
    )


def test_dirichlet_cube_rejects_non_integers():
    # -1.0 used to come back as a float entry of the cube
    with pytest.raises(DomainError, match="need integer coefficients"):
        dirichlet_cube(-1.0, 2, 3, 1)


def test_dirichlet_cubes_compose_to_principal():
    count = 0
    seeds = set(itertools.permutations((-1, -2, -3))) | set(
        itertools.permutations((-1, -1, -6))
    )
    for (d, f, g) in seeds:
        for h in (1, -1):
            if h * h + 4 * d * f * g != -23:
                continue
            q = dirichlet_cube(d, f, g, h)
            f1, f3, f2 = associated_forms(q)
            assert qreduce(compose(compose(f1, f2), f3))[0] == (1, 1, 6)
            count += 1
    assert count == 18


def test_gamma_functoriality():
    m = ((1, 1), (0, 1))
    ident = IDENT2
    for q in _random_cubes(24, 25):
        forms = associated_forms(q)
        for slot, pos in ((0, 0), (1, 2), (2, 1)):
            ms = [ident, ident, ident]
            ms[slot] = m
            new_forms = associated_forms(gamma_act(tuple(ms), q))
            for p in range(3):
                if p == pos:
                    assert new_forms[p] == twisted_act(m, forms[p])
                else:
                    assert new_forms[p] == forms[p]


def test_gamma_act_group_action():
    rng = random.Random(25)
    shears = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (-1, 0))]
    for q in _random_cubes(26, 15):
        ms1 = tuple(rng.choice(shears) for _ in range(3))
        ms2 = tuple(rng.choice(shears) for _ in range(3))
        composed = tuple(
            tuple(
                tuple(
                    sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)
                )
                for i in range(2)
            )
            for a, b in zip(ms1, ms2)
        )
        assert gamma_act(ms1, gamma_act(ms2, q)) == gamma_act(composed, q)


def test_gamma_rejects_non_members():
    q = BOX1
    with pytest.raises(NotInGamma):
        gamma_act((((2, 0), (0, 1)), IDENT2, IDENT2), q)
    with pytest.raises(NotInGamma):
        gamma_act((((-1, 0), (0, 1)), IDENT2, IDENT2), q)


def _oracle_gamma_act(ms, q):
    # the 64-term sum that gamma_act wrote out before it ran one degree-1
    # substitution per axis; kept as its oracle
    m1, m2, m3 = ms
    return tuple(
        sum(
            m1[i][l] * m2[j][m] * m3[k][n] * q[4 * l + 2 * m + n]
            for l in range(2)
            for m in range(2)
            for n in range(2)
        )
        for i in range(2)
        for j in range(2)
        for k in range(2)
    )


@st.composite
def unimodular(draw):
    # a product of elementary matrices, det +1 or -1
    p, q, r, s = draw(st.sampled_from(((1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, -1))))
    for k, lower in draw(st.lists(st.tuples(st.integers(-3, 3), st.booleans()), max_size=4)):
        if lower:
            r, s = r + k * p, s + k * q
        else:
            p, q = p + k * r, q + k * s
    return (p, q), (r, s)


@settings(max_examples=300, deadline=None)
@given(unimodular(), unimodular(), unimodular(), st.tuples(*[st.integers(-9, 9)] * 8))
@example(IDENT2, IDENT2, IDENT2, BOX1)
@example(((0, 1), (1, 0)), ((1, 0), (0, -1)), ((2, 1), (1, 1)), identity_cube(-23))
def test_gamma_act_agrees_with_the_nested_sum(m1, m2, m3, q):
    if mat2_det(m1) * mat2_det(m2) * mat2_det(m3) == -1:
        (p, q3), row = m3
        m3 = ((-p, -q3), row)
    ms = (m1, m2, m3)
    assert gamma_act(ms, q) == _oracle_gamma_act(ms, q)


def test_tau_projection_and_trilinearity():
    for q in _random_cubes(27, 25):
        tr = triple_from_cube(q)
        ring = tr.ring
        taus = tau_system(q)
        xs, ys, zs = (i.basis for i in tr.ideals)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    w = taus[i][j][k]
                    assert w[1] == q[4 * i + 2 * j + k]
                    assert w == ring.mul(ring.mul(xs[i], ys[j]), zs[k])


# The Fraction-basis cube code that integer rows over one denominator
# replaced; kept as its oracle.
def _oracle_xi_coeff(ring, w, z):
    return w[1] * z[0] + (w[0] + ring.t * w[1]) * z[1]


def _oracle_triple_from_cube(q):
    f1, f3, f2 = associated_forms(q)
    if (0, 0, 0) in (f1, f2, f3):
        raise Degenerate("a pair of opposite faces is linearly dependent")
    ring = QuadraticRing(*_invariants(q))
    i1 = ideal_from_form(f1, ring)
    i2 = ideal_from_form(f2, ring)
    xs, ys = i1.basis, i2.basis
    zs = []
    for k in range(2):
        rows, rhs = [], []
        for i in range(2):
            for j in range(2):
                w = ring.mul(xs[i], ys[j])
                rows.append((w[1], w[0] + ring.t * w[1]))
                rhs.append(Fraction(q[4 * i + 2 * j + k]))
        piv = next(
            ((r, s) for r in range(4) for s in range(r + 1, 4) if mat2_det((rows[r], rows[s]))),
            None,
        )
        if piv is None:
            raise Degenerate("product lattice does not determine a third ideal")
        r, s = piv
        det = mat2_det((rows[r], rows[s]))
        z0 = mat2_det(((rhs[r], rows[r][1]), (rhs[s], rows[s][1]))) / det
        z1 = mat2_det(((rows[r][0], rhs[r]), (rows[s][0], rhs[s]))) / det
        z = (z0, z1)
        assert all(
            _oracle_xi_coeff(ring, ring.mul(xs[i], ys[j]), z) == rhs[2 * i + j]
            for i in range(2)
            for j in range(2)
        )
        zs.append(z)
    i3 = QuadIdeal(ring, zs)
    assert raw_form(i3) == f3
    return BalancedTriple(ring, (i1, i2, i3))


def _oracle_tau_system(triple):
    ring, (i1, i2, i3) = triple
    return tuple(
        tuple(
            tuple(ring.mul(ring.mul(i1.basis[i], i2.basis[j]), i3.basis[k]) for k in range(2))
            for j in range(2)
        )
        for i in range(2)
    )


def _oracle_cube_from_triple(triple):
    if not _oracle_is_balanced(*triple.ideals):
        raise NotBalanced("triple fails the balancedness conditions")
    taus = _oracle_tau_system(triple)
    cube = []
    for i in range(2):
        for j in range(2):
            for k in range(2):
                coeff = taus[i][j][k][1]
                assert coeff.denominator == 1
                cube.append(int(coeff))
    return tuple(cube)


def _outcome(f, *args):
    # repr of the value, or the name of the SmallRankError raised
    try:
        return repr(f(*args))
    except (Degenerate, NotBalanced) as e:
        return type(e).__name__


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(-4, 4)] * 8))
@example((0,) * 8)
@example((0, 0, 0, 0, 0, 0, 0, 1))
@example((1, 0, 0, 0, 0, 0, 0, 1))
@example(BOX1)
@example(identity_cube(-4))
def test_cube_triple_and_taus_agree_with_fraction_oracle(q):
    result = _outcome(triple_from_cube, q)
    assert result == _outcome(_oracle_triple_from_cube, q)
    if result == "Degenerate":
        with pytest.raises(Degenerate):
            tau_system(q)
        return
    triple = triple_from_cube(q)
    assert repr(tau_system(q)) == repr(_oracle_tau_system(triple))
    assert cube_from_triple(triple) == _oracle_cube_from_triple(triple) == q
    i1, i2, i3 = triple.ideals
    for ideals in ((i1, i1, i3), (i2, i1, i3), (i3, i2, i1)):
        other = BalancedTriple(triple.ring, ideals)
        assert _outcome(cube_from_triple, other) == _outcome(_oracle_cube_from_triple, other)


def test_scalar_search_checks_that_the_norm_form_value_is_an_integer(monkeypatch):
    # a colon ideal three times too large has nine times the norm, so the
    # value [O : Z[xi]] = 1 of a primitive triple would come out as 1/9
    tr = triple_from_cube(identity_cube(-23))
    assert triples_equivalent(tr, tr)
    multiply = cubes.multiply
    monkeypatch.setattr(cubes, "multiply", lambda i, j: scale(multiply(i, j), (3, 0)))
    with pytest.raises(InvariantViolation, match="norm form value 1/9"):
        triples_equivalent(tr, tr)


def _oracle_scalar_candidates(src, dst):
    # the search that triples_equivalent ran before the colon ideal: the
    # gamma with gamma*src inside dst are the intersection of the lattices
    # dst*b^-1 over the basis b of src, and those of norm N(dst)/N(src) > 0
    # scale the covolume of src to that of dst, so gamma*src is all of dst
    ring = src.ring
    target = ideal_norm(dst) / ideal_norm(src)
    inverses = [tuple(c / ring.norm(b) for c in ring.conj(b)) for b in src.basis]
    lats = [scale(dst, inverse).basis for inverse in inverses]
    v1, v2 = _oracle_intersect(*lats)
    aa = ring.norm(v1)
    bb = ring.trace(ring.mul(v1, ring.conj(v2)))
    cc = ring.norm(v2)
    s = lcm(*(Fraction(val).denominator for val in (aa, bb, cc, target)))
    reps = represent((int(aa * s), int(bb * s), int(cc * s)), int(target * s))
    return [(m * v1[0] + n * v2[0], m * v1[1] + n * v2[1]) for m, n in reps]


# seeded cubes over a negative discriminant, 23 of the 78 with imprimitive
# forms
DEFINITE_CUBES = [q for q in _random_cubes(30, 400, bound=3) if ring_of_cube(q).disc < 0]
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DEFINITE_CUBES), st.integers(0, 2), rationals, rationals)
@example(BOX1, 2, Fraction(1), Fraction(1, 2))  # forms (5, 0, 5): content 5
@example(tuple(2 * e for e in identity_cube(-3)), 0, Fraction(0), Fraction(-2, 3))  # content 4
@example(identity_cube(-4), 1, Fraction(1), Fraction(0))  # four units
def test_scalar_candidates_agree_with_the_intersection_oracle(q, k, x, y):
    # the candidates gamma with gamma*src == dst for dst = (x + y*xi)*src,
    # src an ideal of a cube over a negative discriminant
    assume((x, y) != (0, 0))
    triple = triple_from_cube(q)
    src = triple.ideals[k]
    dst = scale(src, (x, y))
    got = cubes._scalar_candidates(src, dst)
    assert sorted(got) == sorted(_oracle_scalar_candidates(src, dst))
    assert (x, y) in got and all(scale(src, g) == dst for g in got)
    # one candidate per unit of the multiplier ring, of disc D / content^2
    assert len(got) == {-3: 6, -4: 4}.get(triple.ring.disc // content(raw_form(src)) ** 2, 2)
