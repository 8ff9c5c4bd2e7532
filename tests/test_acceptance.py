"""Acceptance suite: ten exact criteria, one test per criterion.

Each test prints a single ``CRITERION n: PASS`` line on success; a failing
assertion marks the criterion failed.  All comparisons are exact — integer
or rational equality, never approximate.
"""

import itertools
import random
from fractions import Fraction

from smallrank.quadforms import (
    class_group,
    compose,
    discriminant,
    enumerate_reduced,
    principal_form,
)
from smallrank.quadforms import reduce as qreduce
from smallrank.quadrings import (
    QuadIdeal,
    QuadraticRing,
    class_semigroup,
    ideal_from_form,
    is_invertible,
    ring_from_disc,
    scale,
    unit_ideal,
)
from smallrank.cubes import (
    BalancedTriple,
    associated_forms,
    cube_from_triple,
    dirichlet_cube,
    identity_cube,
    is_balanced,
    ring_of_cube,
    tau_system,
    triple_from_cube,
    triples_equivalent,
)
from smallrank.cubicrings import (
    cubic_form_disc,
    form_from_cubic_ring,
    ring_from_cubic_form,
    values_mod,
)
from smallrank.quarticrings import (
    count_numerical_resolvents,
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
from smallrank.padic import (
    PadicConfig,
    balanced_count,
    enumerate_balanced_oracle,
    least_nonresidue,
    stella_membership,
)
from smallrank.errors import Degenerate

P_A = (0, 0, 0, 1, 0, -1)
P_B = (0, 0, 0, 0, 1, -1)


def _pass(n, msg):
    print("CRITERION %d: PASS — %s" % (n, msg))


def test_criterion_01_reduced_forms_and_class_semigroup():
    assert set(enumerate_reduced(-100)) == {(1, 0, 25), (2, 2, 13), (5, 0, 5)}
    elements, table = class_semigroup(-100)
    assert set(elements) == {(1, 0, 25), (2, 2, 13), (5, 0, 5)}
    s = elements.index((1, 0, 25))
    a = elements.index((2, 2, 13))
    b = elements.index((5, 0, 5))
    assert table[a][a] == s
    for i in range(3):
        assert table[s][i] == i and table[i][s] == i
        assert table[b][i] == b and table[i][b] == b
    ring = ring_from_disc(-100)
    flags = tuple(
        is_invertible(ideal_from_form(f, ring))
        for f in ((1, 0, 25), (2, 2, 13), (5, 0, 5))
    )
    assert flags == (True, True, False)
    _pass(1, "reduced forms of -100, semigroup table, invertibility flags")


def test_criterion_02_identity_cubes():
    for d in (-100, -23, -4, -3):
        q = identity_cube(d)
        assert all(f == principal_form(d) for f in associated_forms(q))
        tr = triple_from_cube(q)
        s = unit_ideal(tr.ring)
        assert tr.ideals == (s, s, s)
    _pass(2, "identity cubes give principal forms and (S, S, S) triples")


def _normalize_triple(tr):
    ring = tr.ring
    r0 = ring.normalized()
    k = ring.t // 2
    mv = lambda row: (row[0] + k * row[1], row[1])
    ideals = tuple(
        QuadIdeal(r0, (mv(i.basis[0]), mv(i.basis[1]))) for i in tr.ideals
    )
    return BalancedTriple(r0, ideals)


def test_criterion_03_two_boxes():
    box1 = (1, 2, 2, -1, 2, -1, -1, -2)
    box2 = (-1, 2, 2, 1, 2, 1, 1, -2)
    for box in (box1, box2):
        assert ring_of_cube(box).disc() == -100
        assert all(qreduce(f)[0] == (5, 0, 5) for f in associated_forms(box))
    t1 = _normalize_triple(triple_from_cube(box1))
    t2 = _normalize_triple(triple_from_cube(box2))
    r0 = QuadraticRing(0, 25)
    assert t1.ring == r0 and t2.ring == r0
    b = ideal_from_form((5, 0, 5), r0)
    # xi = 5i in the normalized ring, so 10 + 5i has coordinates (10, 1)
    assert t1.ideals[2] == scale(b, (10, 1))
    assert t2.ideals[2] == scale(b, (10, -1))
    assert not triples_equivalent(t1, t2)
    assert triples_equivalent(t1, t1) and triples_equivalent(t2, t2)
    _pass(3, "two boxes: same forms, inequivalent triples, (10±5i)B third ideals")


def test_criterion_04_composition_coherence():
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
            assert all(discriminant(x) == -23 for x in (f1, f2, f3))
            assert qreduce(compose(compose(f1, f2), f3))[0] == (1, 1, 6)
            count += 1
    assert count == 18
    elements, _, structure = class_group(-23)
    assert len(elements) == 3 and structure == (3,)
    _pass(4, "Dirichlet cubes compose to the principal class; Cl(-23) = Z/3")


def test_criterion_05_cubic_dictionary():
    span = range(-5, 6)
    xi1, xi2 = (0, 1, 0), (0, 0, 1)
    gens = (xi1, xi2)
    for p in span:
        for q in span:
            for r in span:
                for s in span:
                    form = (p, q, r, s)
                    ring = ring_from_cubic_form(form)
                    assert form_from_cubic_ring(ring) == form
                    for x in gens:
                        for y in gens:
                            xy = ring.mul(x, y)
                            for z in gens:
                                assert ring.mul(xy, z) == ring.mul(
                                    x, ring.mul(y, z)
                                )
    rng = random.Random(505)
    for _ in range(500):
        form = tuple(rng.randint(-40, 40) for _ in range(4))
        assert ring_from_cubic_form(form).disc() == cubic_form_disc(form)
    assert values_mod((5, 0, 0, 7), 7) == {0, 2, 5}
    _pass(5, "cubic form/ring round trip on [-5,5]^4, disc agreement, values mod 7")


def test_criterion_06_quartic_construction():
    rng = random.Random(606)
    done = 0
    while done < 500:
        pair = (
            tuple(rng.randint(-3, 3) for _ in range(6)),
            tuple(rng.randint(-3, 3) for _ in range(6)),
        )
        lam = lambda_system(pair)
        if not any(lam.values()):
            continue
        ring = ring_from_pair(pair)
        assert all(isinstance(v, int) for v in ring.c.values())
        assert plucker_check(lam)
        assert disc_match(pair)
        x = tuple(rng.randint(-4, 4) for _ in range(4))
        y = tuple(rng.randint(-4, 4) for _ in range(4))
        z = tuple(rng.randint(-4, 4) for _ in range(4))
        assert ring.mul(x, y) == ring.mul(y, x)
        assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))
        assert resolvent_identity_check(
            pair, tuple(rng.randint(-4, 4) for _ in range(3))
        )
        done += 1
    _pass(6, "500 random pairs: integral rings, Plücker, disc match, identity")


def test_criterion_07_resolvent_counting():
    for p in (2, 3, 5):
        scaled = (tuple(p * v for v in P_A), P_B)
        ring = ring_from_pair(scaled)
        resolvent, _ = pair_from_ring(ring)
        assert resolvent.content == p
        assert count_numerical_resolvents(ring) == p + 1
        lattices = enumerate_numerical_resolvents(ring)
        assert len(lattices) == p + 1 and len(set(lattices)) == p + 1
    four = ring_from_pair((tuple(4 * v for v in P_A), P_B))
    assert count_numerical_resolvents(four) == 7
    _pass(7, "content-p pairs have sigma(p) numerical resolvents; sigma(4) = 7")


def test_criterion_08_maximality():
    ring = ring_from_pair((P_A, P_B))
    for p in (2, 3, 5):
        ok, witness = is_maximal_at_p(ring, p)
        assert ok and witness is None
    for p in (2, 3, 5):
        scaled = (tuple(p * v for v in P_A), P_B)
        assert nonmaximality_conditions_witness(scaled, p) == "d"
        ok, witness = is_maximal_at_p(ring_from_pair(scaled), p)
        assert not ok and witness is not None
    rng = random.Random(808)
    tagged = 0
    checked = 0
    while checked < 200:
        p = rng.choice((2, 3))
        a = tuple(rng.randint(-3, 3) for _ in range(6))
        b = tuple(rng.randint(-3, 3) for _ in range(6))
        if rng.random() < 0.5:
            a = tuple(p * v for v in a)
        pair = (a, b)
        if not any(lambda_system(pair).values()):
            continue
        q = ring_from_pair(pair)
        if q.disc() == 0:
            continue
        checked += 1
        tag = nonmaximality_conditions_witness(pair, p)
        if tag != "none":
            tagged += 1
            ok, witness = is_maximal_at_p(q, p)
            assert not ok and witness is not None
    assert tagged >= 20
    _pass(8, "maximality oracle agrees with congruence conditions (%d tagged)" % tagged)


def test_criterion_09_padic_counting():
    cfg34 = PadicConfig(3, 4, 2)
    assert balanced_count(cfg34, (2, 2, 2)) == 3
    assert balanced_count(cfg34, (1, 1, 2)) == 4
    for p in (3, 5):
        u = least_nonresidue(p)
        for n in range(0, 4):
            cfg = PadicConfig(p, n, u)
            m = 2 * n + 2
            for idx in itertools.combinations_with_replacement(range(n + 1), 3):
                assert balanced_count(cfg, idx) == enumerate_balanced_oracle(
                    cfg, idx, m
                ), (p, n, idx)
    for n in (1, 2, 3):
        for x in range(-n - 1, n + 2):
            for y in range(-n - 1, n + 2):
                for z in range(-n - 1, n + 2):
                    base = stella_membership(n, (x, y, z))[0]
                    for perm in itertools.permutations((x, y, z)):
                        for signs in itertools.product((1, -1), repeat=3):
                            pt = tuple(s * c for s, c in zip(signs, perm))
                            assert stella_membership(n, pt)[0] == base
    _pass(9, "balanced-count formula matches oracle; stella symmetry holds")


def test_criterion_10_cube_triple_round_trip():
    rng = random.Random(1010)
    done = 0
    while done < 200:
        q = tuple(rng.randint(-4, 4) for _ in range(8))
        try:
            tr = triple_from_cube(q)
        except Degenerate:
            continue
        assert is_balanced(*tr.ideals)
        assert cube_from_triple(tr) == q
        ring = tr.ideals[0].ring
        taus = tau_system(q)
        xs, ys, zs = (i.basis for i in tr.ideals)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert taus[i][j][k][1] == q[4 * i + 2 * j + k]
        # trilinearity: products of arbitrary integer combinations expand
        # through the eight basis products
        for _ in range(2):
            al = [rng.randint(-3, 3) for _ in range(2)]
            be = [rng.randint(-3, 3) for _ in range(2)]
            ga = [rng.randint(-3, 3) for _ in range(2)]
            xv = tuple(sum(al[i] * xs[i][c] for i in range(2)) for c in range(2))
            yv = tuple(sum(be[j] * ys[j][c] for j in range(2)) for c in range(2))
            zv = tuple(sum(ga[k] * zs[k][c] for k in range(2)) for c in range(2))
            lhs = ring.mul(ring.mul(xv, yv), zv)
            rhs = (Fraction(0), Fraction(0))
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        w = taus[i][j][k]
                        cshares = al[i] * be[j] * ga[k]
                        rhs = (rhs[0] + cshares * w[0], rhs[1] + cshares * w[1])
            assert lhs == rhs
        done += 1
    _pass(10, "200 cube/triple round trips with tau projection and trilinearity")
