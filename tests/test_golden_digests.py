"""Outputs stay bit-identical: one sha256 per seeded sweep of the library.

Each family below is a fixed, seeded sweep of one or more entry points.
Every item it yields is reduced to its ``repr``, one line per item, and the
sha256 of those lines is stored in ``golden_digests.json``.  An input that
raises gives the class name and the message of the error as its item, so
messages are pinned too.  A change that alters a digest must say in
CHANGES.md which outputs changed and why, and then rewrite the file with

    python tests/test_golden_digests.py --update

The families in ``SWEEPS`` cover a whole input range, or 4,000 quartic
pairs, and are too slow for tier-1: their tests carry the ``sweep``
marker and run only with ``python -m pytest -m sweep``;
``--update`` rewrites them too.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

if __name__ == "__main__":  # run as a script: import the package of this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest
from test_quarticrings import is_maximal

from smallrank.cubes import (
    BalancedTriple, cube_from_triple, gamma_act, identity_cube, is_balanced, tau_system, triple_from_cube,
    triples_equivalent,
)
from smallrank.cubicrings import cubic_twisted_act, form_from_cubic_ring, idempotents_within
from smallrank.errors import SmallRankError
from smallrank.exactlattice import is_prime, mat2_det
from smallrank.padic import (
    PadicConfig, balanced_count, enumerate_balanced_oracle, least_nonresidue, stella_membership,
)
from smallrank.quadforms import (
    class_group, discriminant, enumerate_reduced, principal_form, represent, twisted_act,
)
from smallrank.quadrings import (
    QuadIdeal,
    QuadraticRing,
    class_semigroup,
    ideal_from_form,
    ideal_norm,
    ring_from_disc,
    scale,
    unit_ideal,
)
from smallrank.quarticrings import (
    count_numerical_resolvents,
    cubic_resolvent_form,
    disc_match,
    enumerate_numerical_resolvents,
    is_maximal_at_p,
    nonmaximality_conditions_witness,
    pair_from_ring,
    resolvent_identity_check,
    ring_from_pair,
)

FILE = Path(__file__).with_name("golden_digests.json")


def _outcome(fn, *args):
    # the result, or the class and message of the typed error it raised
    try:
        return fn(*args)
    except SmallRankError as e:
        return type(e).__name__, str(e)


def _class_groups():
    for d in range(-3, -5001, -1):
        if d % 4 in (0, 1):
            yield d, class_group(d)


def _class_group_sweep():
    # every discriminant of the classgroup benchmark, |D| <= 20000
    for d in range(-3, -20001, -1):
        if d % 4 in (0, 1):
            yield d, class_group(d)


def _class_semigroup_sweep():
    # the class_group_sweep range; the tier-1 family stops at |D| <= 3000
    for d in range(-3, -20001, -1):
        if d % 4 in (0, 1):
            yield d, class_semigroup(d)


def _class_semigroups():
    for d in range(-3, -3001, -1):
        if d % 4 in (0, 1):
            yield d, class_semigroup(d)


def _quartic_pairs():
    # as the quartic benchmark draws them: A scaled by p on every other pair
    rng = random.Random(22)
    tags = set()
    for k in range(1000):
        a = [rng.randint(-3, 3) for _ in range(6)]
        b = tuple(rng.randint(-3, 3) for _ in range(6))
        if k % 2:
            a = [(2, 3, 5)[k // 2 % 3] * v for v in a]
        pair = (tuple(a), b)
        ring = ring_from_pair(pair)
        yield pair, sorted(ring.c.items()), ring.disc(), _outcome(count_numerical_resolvents, ring)
        for p in (2, 3, 5):
            tag = nonmaximality_conditions_witness(pair, p)
            tags.add(tag)
            yield p, _outcome(is_maximal_at_p, ring, p), tag
    assert tags == {"a", "b", "c", "d", "none"}, tags


def _quartic_pairs_sweep():
    # 4,000 pairs drawn as in quartic_pairs, A scaled by p on every other
    # pair, and maximality at each p of the quartic benchmark: the Fraction
    # rows of its witnesses
    rng = random.Random(7)
    for k in range(4000):
        a = [rng.randint(-3, 3) for _ in range(6)]
        b = tuple(rng.randint(-3, 3) for _ in range(6))
        if k % 2:
            a = [(2, 3, 5, 7)[k // 2 % 4] * v for v in a]
        pair = (tuple(a), b)
        ring = ring_from_pair(pair)
        yield pair, [_outcome(is_maximal_at_p, ring, p) for p in (2, 3, 5, 7)]


def _long_walks():
    # maximality at p = 7 and 11, with A scaled by p on every other pair:
    # walks of up to about a hundred candidates, and their witnesses
    rng = random.Random(22)
    for k in range(200):
        a = tuple(rng.randint(-3, 3) for _ in range(6))
        b = tuple(rng.randint(-3, 3) for _ in range(6))
        for p in (7, 11):
            pair = (tuple(p * v for v in a) if k % 2 else a, b)
            yield p, pair, _outcome(is_maximal_at_p, ring_from_pair(pair), p)


def _unimodular(rng):
    # a product of elementary matrices, det +1 or -1
    p, q, r, s = rng.choice(((1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, -1)))
    for _ in range(rng.randint(0, 4)):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            p, q, r, s = p + k * r, q + k * s, r, s
        else:
            p, q, r, s = p, q, r + k * p, s + k * q
    return (p, q), (r, s)


def _twisted_actions():
    rng = random.Random(22)
    for _ in range(400):
        m = _unimodular(rng)
        f = tuple(rng.randint(-9, 9) for _ in range(3))
        g = tuple(rng.randint(-9, 9) for _ in range(4))
        yield m, f, g, twisted_act(m, f), cubic_twisted_act(m, g)


def _cube_actions():
    # gamma_act on seeded unimodular triples with determinant product 1 and
    # cubes with entries in [-9, 9]; then triples with determinant product -1,
    # and triples with one matrix that is not unimodular
    rng = random.Random(22)
    for k in range(330):
        ms = [_unimodular(rng) for _ in range(3)]
        q = tuple(rng.randint(-9, 9) for _ in range(8))
        (p, s), row = ms[2]
        dets = [mat2_det(m) for m in ms]
        if k < 300 and dets[0] * dets[1] * dets[2] == -1:
            ms[2] = (-p, -s), row  # one row negated: product 1
        elif k >= 300 and dets[0] * dets[1] * dets[2] == 1:
            ms[2] = (-p, -s), row  # product -1
        if k >= 315:
            ms[rng.randrange(3)] = ((rng.randint(2, 4), rng.randint(-3, 3)), (0, rng.randint(1, 3)))
        yield ms, q, _outcome(gamma_act, tuple(ms), q)


def _stella_points():
    for n in range(5):
        for idx in product(range(-n, n + 1), repeat=3):
            yield n, idx, stella_membership(n, idx)


def _cube_round_trips():
    rng = random.Random(22)
    for _ in range(300):
        q = tuple(rng.randint(-2, 2) for _ in range(8))
        triple = _outcome(triple_from_cube, q)
        if isinstance(triple[1], tuple):  # ring, ideals; not a name and message
            ring, ideals = triple
            yield q, ring, [i.basis for i in ideals], cube_from_triple(triple)
        else:
            yield q, triple


def _cube_products():
    # tau_system and is_balanced on the seeded cubes of _cube_round_trips;
    # for the first triple over each ring, is_balanced with the third ideal
    # moved by a non-unit gam (norm product N(gam)), and with the second
    # moved by gam and the third by 1/conj(gam) (norm product 1, products
    # times gam/conj(gam)); then identity_cube(d) and its tau_system, or the
    # error, for every d in [-2004, 2004]
    rng = random.Random(22)
    rings = set()
    for _ in range(300):
        q = tuple(rng.randint(-2, 2) for _ in range(8))
        triple = _outcome(triple_from_cube, q)
        yield q, _outcome(tau_system, q)
        if isinstance(triple, BalancedTriple):
            ring, (i1, i2, i3) = triple
            yield is_balanced(i1, i2, i3)
            if ring not in rings:
                rings.add(ring)
                gam = (2, 1)
                while abs(ring.norm(gam)) in (0, 1):
                    gam = (gam[0] + 1, gam[1])
                inv = tuple(Fraction(c, ring.norm(gam)) for c in gam)  # 1/conj(gam)
                yield gam, is_balanced(i1, i2, scale(i3, gam)), is_balanced(i1, scale(i2, gam), scale(i3, inv))
    for d in range(-2004, 2005):
        yield d, _outcome(lambda: (identity_cube(d), tau_system(identity_cube(d))))


def _small_searches():
    # represent on seeded positive definite forms, value 0 included; the
    # least non-residue of every odd prime below 3000; the balanced-triple
    # oracle on every sorted index at p = 3, 5, n <= 3, at precision 2n + 2
    rng = random.Random(22)
    for _ in range(150):
        a, b = rng.randint(1, 9), rng.randint(-9, 9)
        c = (b * b) // (4 * a) + rng.randint(1, 9)  # b^2 - 4ac < 0
        value = rng.choice((0, rng.randint(1, 60), rng.randint(1, 600)))
        yield (a, b, c), value, represent((a, b, c), value)
    for p in range(3, 3000, 2):
        if is_prime(p):
            yield p, least_nonresidue(p)
    for p in (3, 5):
        for n in range(4):
            cfg = PadicConfig(p, n, least_nonresidue(p))
            for idx in product(range(n + 1), repeat=3):
                if list(idx) == sorted(idx):
                    yield cfg, idx, enumerate_balanced_oracle(cfg, idx, 2 * n + 2)


def _triple_equivalences():
    # triples_equivalent on the triples of seeded cubes with entries in
    # [-2, 2] over a negative discriminant, grouped by their ring: every
    # ordered pair of distinct triples in a group; each triple against its
    # copy moved by scalars (g1, g2, (g1*g2)^-1), both ways; and each triple
    # against its copy with the third ideal moved by a non-unit, both ways
    rng = random.Random(22)
    groups = {}
    for _ in range(750):
        q = tuple(rng.randint(-2, 2) for _ in range(8))
        triple = _outcome(triple_from_cube, q)
        if isinstance(triple, BalancedTriple) and triple.ring.disc() < 0:
            groups.setdefault(triple.ring, []).append((q, triple))
    for ring, group in groups.items():
        for (qa, a), (qb, b) in product(group, repeat=2):
            if qa != qb:
                yield qa, qb, _outcome(triples_equivalent, a, b)
        for q, a in group:
            g1, g2, gam = ((rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3))
            while ring.norm(gam) == 1:
                gam = (gam[0] + 1, gam[1])
            g12 = ring.mul(g1, g2)
            g3 = tuple(Fraction(c, ring.norm(g12)) for c in ring.conj(g12))
            i1, i2, i3 = a.ideals
            moved = BalancedTriple(ring, (scale(i1, g1), scale(i2, g2), scale(i3, g3)))
            off = BalancedTriple(ring, (i1, i2, scale(i3, gam)))
            yield q, g1, g2, _outcome(triples_equivalent, a, moved), _outcome(
                triples_equivalent, moved, a
            )
            yield q, gam, _outcome(triples_equivalent, a, off), _outcome(triples_equivalent, off, a)


def _writedowns():
    # ideal_from_form on every nonzero form with entries in [-5, 5], over the
    # normalized ring of its discriminant and over the presentation with xi
    # shifted by 1, (t, u) -> (t + 2, u + t + 1); then the resolvent lattices
    # of seeded [-3, 3] pairs with A scaled by 1, 2, 6, 12 or 60
    for f in product(range(-5, 6), repeat=3):
        if f == (0, 0, 0):
            continue
        base = ring_from_disc(discriminant(f))
        for ring in (base, QuadraticRing(base.t + 2, base.u + base.t + 1)):
            ideal = _outcome(ideal_from_form, f, ring)
            if isinstance(ideal, QuadIdeal):
                ideal = ideal.rows, ideal.den, ideal.basis
            yield f, ring, ideal
    rng = random.Random(22)
    for k in range(60):
        scale = (1, 2, 6, 12, 60)[k % 5]
        a = tuple(scale * rng.randint(-3, 3) for _ in range(6))
        b = tuple(rng.randint(-3, 3) for _ in range(6))
        yield a, b, _outcome(enumerate_numerical_resolvents, ring_from_pair((a, b)))


def _resolvents():
    # the resolvent form, its discriminant match, the witness pair and the
    # determinant identity at one seeded point, on seeded pairs: 400 with
    # entries in [-3, 3], then 100 in [-30, 30], A scaled by 1, 2, 3, 5, 60
    rng = random.Random(22)
    for k in range(500):
        bound = 3 if k < 400 else 30
        a = tuple((1, 2, 3, 5, 60)[k % 5] * rng.randint(-bound, bound) for _ in range(6))
        b = tuple(rng.randint(-bound, bound) for _ in range(6))
        pair = (a, b)
        x = tuple(rng.randint(-5, 5) for _ in range(3))
        yield (
            pair,
            cubic_resolvent_form(pair),
            disc_match(pair),
            _outcome(pair_from_ring, ring_from_pair(pair)),
            x,
            resolvent_identity_check(pair, x),
        )


I = ((1, 0), (0, 1))
PAIR = ((0, 0, 0, 1, 0, -1), (0, 0, 0, 0, 1, -1))
SQUARE_ZERO = ((1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))  # all minors vanish

# (entry point, arguments) that raise a typed error
BAD_INPUTS = [
    (twisted_act, (((1, 1), (1, 1)), (1, 1, 6))),
    (twisted_act, (((2, 0), (0, 1)), (1, 1, 6))),
    (twisted_act, (I, (1, 1))),
    (twisted_act, ((1, 0), (1, 1, 6))),
    (cubic_twisted_act, (((2, 0), (0, 1)), (1, 0, 0, 1))),
    (cubic_twisted_act, (((1, 2), (2, 4)), (1, 0, 0, 1))),
    (cubic_twisted_act, (I, (1, 0, 0))),
    (class_group, (0,)),
    (class_group, (5,)),
    (class_group, (-2,)),
    (class_group, (1.5,)),
    (class_semigroup, (0,)),
    (class_semigroup, (-2,)),
    (class_semigroup, (True,)),
    (is_maximal_at_p, ("ring", 2)),
    (is_maximal_at_p, (ring_from_pair(SQUARE_ZERO), 2)),
    (is_maximal_at_p, (ring_from_pair(PAIR), 4)),
    (is_maximal, ("ring",)),
    (is_maximal, (ring_from_pair(SQUARE_ZERO),)),
    (count_numerical_resolvents, ("ring",)),
    (count_numerical_resolvents, (ring_from_pair(SQUARE_ZERO),)),
    (enumerate_numerical_resolvents, (None,)),
    (pair_from_ring, (ring_from_pair(SQUARE_ZERO),)),
    (nonmaximality_conditions_witness, (PAIR, 4)),
    (nonmaximality_conditions_witness, (PAIR, 1)),
    (nonmaximality_conditions_witness, ((1, 2), 2)),
    (nonmaximality_conditions_witness, ((PAIR[0][:5], PAIR[1]), 2)),
    (stella_membership, (-1, (0, 0, 0))),
    (stella_membership, (1, (0, 0))),
    (stella_membership, (1.0, (0, 0, 0))),
    # one argument of the wrong kind per kind gate
    (unit_ideal, (5,)),
    (QuadIdeal, (None, I)),
    (ideal_from_form, ((1, 1, 6), "ring")),
    (ideal_norm, (5,)),
    (is_balanced, (1, 2, 3)),
    (form_from_cubic_ring, (5,)),
    (idempotents_within, ((1, 0, 1, 1), 1)),
    (balanced_count, ("config", (1, 1, 2))),
    (balanced_count, ((3, 2, 2), (1, 1, 2))),
    (cube_from_triple, (5,)),
    (triples_equivalent, (None, None)),
    (is_maximal_at_p, (PadicConfig(3, 2, 2), 2)),
    # each discriminant site: not an int, not 0 or 1 mod 4, not negative
    (ring_from_disc, (2,)),
    (ring_from_disc, (-1,)),
    (ring_from_disc, ("5",)),
    (principal_form, (-2,)),
    (principal_form, (3,)),
    (principal_form, (0,)),
    (principal_form, (-3.0,)),
    (enumerate_reduced, (-5,)),
    (enumerate_reduced, (4,)),
]


def _errors():
    for fn, args in BAD_INPUTS:
        out = _outcome(fn, *args)
        assert isinstance(out, tuple) and isinstance(out[0], str), (fn, args, out)
        yield fn.__name__, out


FAMILIES = {
    "class_group": _class_groups,
    "class_semigroup": _class_semigroups,
    "quartic_pairs": _quartic_pairs,
    "long_walks": _long_walks,
    "twisted_actions": _twisted_actions,
    "cube_actions": _cube_actions,
    "stella_points": _stella_points,
    "cube_round_trips": _cube_round_trips,
    "cube_products": _cube_products,
    "errors": _errors,
    "small_searches": _small_searches,
    "writedowns": _writedowns,
    "triple_equivalences": _triple_equivalences,
    "resolvents": _resolvents,
}

SWEEPS = {
    "class_group_sweep": _class_group_sweep,
    "class_semigroup_sweep": _class_semigroup_sweep,
    "quartic_pairs_sweep": _quartic_pairs_sweep,
}


def _digest(family):
    h = hashlib.sha256()
    for item in family():
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_output_digest_is_unchanged(name):
    assert _digest(FAMILIES[name]) == json.loads(FILE.read_text(encoding="utf-8"))[name]


@pytest.mark.sweep
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_digest_is_unchanged(name):
    assert _digest(SWEEPS[name]) == json.loads(FILE.read_text(encoding="utf-8"))[name]


def test_digest_file_has_one_entry_per_family():
    assert sorted(json.loads(FILE.read_text(encoding="utf-8"))) == sorted({**FAMILIES, **SWEEPS})


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden_digests.py --update")
    digests = {name: _digest(family) for name, family in sorted({**FAMILIES, **SWEEPS}.items())}
    FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
