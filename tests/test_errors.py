"""The input gate: every public entry point rejects a bad integer argument
with a typed error.

One table row per gated argument of an entry point: a valid call, the path
to one integer inside it and the error expected.  Each row gives the cases
of that integer made a float, ``True`` or a str, and of each tuple on the
path to it (a form, a matrix and its rows, a pair and its forms) one value
short, one value long or the int 5.  A scalar argument has no shape cases.

A second table holds one call per branch that no gate row reaches: a typed
error of the operation itself, or a value from a branch of its own.
"""

import importlib
import inspect
from fractions import Fraction
from itertools import product

import pytest
from test_quarticrings import _shifted

from smallrank.cubes import (
    BalancedTriple,
    associated_forms,
    cube_from_triple,
    cube_invariants,
    dirichlet_cube,
    gamma_act,
    identity_cube,
    is_balanced,
    ring_of_cube,
    tau_system,
    triple_from_cube,
    triples_equivalent,
    xi_actions,
)
from smallrank.cubicrings import (
    CubicRing,
    cubic_twisted_act,
    form_from_cubic_ring,
    idempotents_within,
    ring_from_cubic_form,
    values_mod,
)
from smallrank.errors import (
    DimensionError,
    DomainError,
    FormRingMismatch,
    NotUnimodular,
    RankError,
    RingMismatch,
    SmallRankError,
    UnsupportedDiscriminant,
    ZeroForm,
    _int,
    _ints,
    _matrix,
)
from smallrank.exactlattice import divisors, factorize
from smallrank.padic import (
    PadicConfig,
    balanced_count,
    enumerate_balanced_oracle,
    least_nonresidue,
    stella_membership,
    unit_coset_reps,
)
from smallrank.quadforms import (
    class_group,
    compose,
    enumerate_reduced,
    principal_form,
    reduce,
    represent,
    twisted_act,
)
from smallrank.quadrings import (
    QuadIdeal,
    QuadraticRing,
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
from smallrank.quarticrings import (
    MinimalResolvent,
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

I = ((1, 0), (0, 1))
F = (1, 1, 6)  # disc -23
R = ring_from_disc(-23)
CUBE = identity_cube(-23)  # (0, 1, 1, 1, 1, 1, 1, -5)
PAIR = ((0, 0, 0, 1, 0, -1), (0, 0, 0, 0, 1, -1))
QUARTIC = ring_from_pair(PAIR)
CUBIC = ring_from_cubic_form((1, 0, 1, 1))
CFG = PadicConfig(3, 2, 2)
D = UnsupportedDiscriminant
# floats stay exact entries of an ideal basis or a ring element
BASIS = {"float": None, "short": RankError, "long": RankError, "scalar": RankError}
ELEMENT = {"float": None, "short": DimensionError, "long": DimensionError, "scalar": DimensionError}

# (entry point, valid arguments, path to an integer in them, error); the
# path starts with the argument's position, and error is a class or a dict
# of classes by case (None: the call returns), DomainError for the rest
GATES = [
    (twisted_act, (I, F), (0, 1, 1), DomainError),
    (twisted_act, (I, F), (1, 0), DomainError),
    (reduce, (F,), (0, 1), DomainError),
    (compose, (F, (2, 1, 3)), (0, 1), DomainError),
    (compose, (F, (2, 1, 3)), (1, 1), DomainError),
    (represent, (F, 6), (0, 0), DomainError),
    (represent, (F, 6), (1,), DomainError),
    (enumerate_reduced, (-23,), (0,), D),
    (principal_form, (-23,), (0,), D),
    (class_group, (-23,), (0,), D),
    (QuadraticRing, (1, 6), (0,), DomainError),
    (QuadraticRing, (1, 6), (1,), DomainError),
    (ring_from_disc, (-23,), (0,), D),
    (class_semigroup, (-23,), (0,), D),
    (ideal_from_form, (F, R), (0, 1), DomainError),
    (QuadIdeal, (R, I), (1, 1, 1), BASIS),
    (scale, (unit_ideal(R), (1, 2)), (1, 0), ELEMENT),
    (cube_invariants, (CUBE,), (0, 1), DomainError),
    (associated_forms, (CUBE,), (0, 1), DomainError),
    (ring_of_cube, (CUBE,), (0, 1), DomainError),
    (xi_actions, (CUBE,), (0, 1), DomainError),
    (triple_from_cube, (CUBE,), (0, 1), DomainError),
    (tau_system, (CUBE,), (0, 1), DomainError),
    (gamma_act, ((I, I, I), CUBE), (0, 2, 1, 1), DomainError),
    (gamma_act, ((I, I, I), CUBE), (1, 1), DomainError),
    (identity_cube, (-23,), (0,), D),
    *((dirichlet_cube, (-1, 2, 3, 1), (k,), DomainError) for k in range(4)),
    *((CubicRing, (1, 1, 1, 1), (k,), DomainError) for k in range(4)),
    # the table of CubicRing(1, 1, 1, 1): ell, m, n = -1, 1, -1 and c = d = 0
    *((CubicRing.from_table, (-1, 1, -1, 1, 1, 0, 0, 1, 1), (k,), DomainError) for k in range(9)),
    (ring_from_cubic_form, ((1, 0, 1, 1),), (0, 0), DomainError),
    (values_mod, ((1, 0, 0, 1), 3), (0, 0), DomainError),
    (values_mod, ((1, 0, 0, 1), 3), (1,), DomainError),
    (cubic_twisted_act, (I, (1, 0, 0, 1)), (0, 0, 0), DomainError),
    (cubic_twisted_act, (I, (1, 0, 0, 1)), (1, 0), DomainError),
    (idempotents_within, (CUBIC, 1), (1,), DomainError),
    (factorize, (12,), (0,), DomainError),
    (divisors, (12,), (0,), DomainError),
    *((PadicConfig, (3, 1, 2), (k,), DomainError) for k in range(3)),
    (least_nonresidue, (3,), (0,), DomainError),
    (balanced_count, (CFG, (1, 1, 2)), (1, 0), DomainError),
    (enumerate_balanced_oracle, (CFG, (1, 1, 2), 6), (1, 0), DomainError),
    (enumerate_balanced_oracle, (CFG, (1, 1, 2), 6), (2,), DomainError),
    (stella_membership, (1, (1, 1, 1)), (0,), DomainError),
    (stella_membership, (1, (1, 1, 1)), (1, 0), DomainError),
    *((unit_coset_reps, (3, 0, 1), (k,), DomainError) for k in range(3)),
    (lambda_system, (PAIR,), (0, 0, 3), DomainError),
    (ring_from_pair, (PAIR,), (0, 0, 3), DomainError),
    (cubic_resolvent_form, (PAIR,), (0, 0, 3), DomainError),
    (disc_match, (PAIR,), (0, 1, 4), DomainError),
    (resolvent_identity_check, (PAIR, (1, 1, 1)), (0, 0, 3), DomainError),
    (resolvent_identity_check, (PAIR, (1, 1, 1)), (1, 0), DomainError),
    (nonmaximality_conditions_witness, (PAIR, 2), (0, 1, 4), DomainError),
    (nonmaximality_conditions_witness, (PAIR, 2), (1,), DomainError),
    (is_maximal_at_p, (QUARTIC, 2), (1,), DomainError),
    (QuarticRing, (QUARTIC.c,), (0, (1, 1, 1)), DomainError),
]


def _replace(obj, path, make):
    # obj with the item at path replaced by make(item); tuples and dicts
    if not path:
        return make(obj)
    key, rest = path[0], path[1:]
    if isinstance(obj, dict):
        return {**obj, key: _replace(obj[key], rest, make)}
    return obj[:key] + (_replace(obj[key], rest, make),) + obj[key + 1 :]


VALUES = {"float": float, "bool": lambda v: True, "str": str}
SHAPES = {"short": lambda t: t[:-1], "long": lambda t: t + t[-1:], "scalar": lambda t: 5}


def _cases():
    for fn, args, path, error in GATES:
        name = "%s-%s" % (fn.__qualname__, "-".join(map(str, path)))
        for case, make in VALUES.items():
            yield name, case, fn, _replace(args, path, make), error
        # each tuple on the path to the integer, from the argument inwards
        outer = args
        for depth, key in enumerate(path[:-1], 1):
            outer = outer[key]
            if isinstance(outer, tuple):
                for case, make in SHAPES.items():
                    bad = _replace(args, path[:depth], make)
                    yield "%s@%d" % (name, depth), case, fn, bad, error


CASES = list(_cases())


@pytest.mark.parametrize(
    "fn, args, error, case",
    [(fn, args, error, case) for _, case, fn, args, error in CASES],
    ids=["%s-%s" % (name, case) for name, case, *_ in CASES],
)
def test_every_gated_argument_rejects_bad_integers(fn, args, error, case):
    expected = error.get(case, DomainError) if isinstance(error, dict) else error
    if expected is None:
        fn(*args)
    else:
        with pytest.raises(expected):
            fn(*args)


TRIPLE = triple_from_cube(CUBE)
# forms (2, 1, 3) three times, over the ring of CUBE
OTHER_TRIPLE = triple_from_cube((-2, -1, -1, -2, -1, -2, 1, 0))
REAL_TRIPLE = triple_from_cube(identity_cube(5))
U20 = unit_ideal(ring_from_disc(-20))
U23 = unit_ideal(R)  # over (1, 6); TRIPLE lives over (3, 8), also of disc -23
MINORS = lambda_system(PAIR)
# three tables that are not associative, so that QuarticRing refuses them:
# a xi-coefficient one off, so Plucker fails too; a constant term one off,
# so the minors, and Plucker, hold; and a constant one off in a ring outside
# the normalized basis
NOT_PLUCKER = dict(ring_from_pair(((1, 2, 3, 0, 1, 1), (0, 1, -1, 2, 0, 1))).c)
NOT_PLUCKER[(1, 1, 1)] += 1
NOT_ASSOCIATIVE = dict(ring_from_pair(((1, 2, 3, 0, 1, 1), (0, 1, -1, 2, 0, 1))).c)
NOT_ASSOCIATIVE[(1, 2, 0)] += 1
# the same ring with xi1 shifted by 1: a ring, but not in the normalized basis
SHIFTED = _shifted(ring_from_pair(((1, 2, 3, 0, 1, 1), (0, 1, -1, 2, 0, 1))), (1, 0, 0))
SHIFTED_NOT_ASSOCIATIVE = dict(SHIFTED.c)
SHIFTED_NOT_ASSOCIATIVE[(1, 1, 0)] += 1
T = Fraction(1, 3)

# (id, entry point, arguments, expected): the error class, or the value
# returned.  Each id is written in its row, so that adding, deleting or
# moving a row renames no other
BRANCHES = [
    ("twisted_act-0", twisted_act, (((1, 1), (1, 1)), F), NotUnimodular),
    ("form_from_ideal-1", form_from_ideal, (QuadIdeal(R, ((0, 1), (1, 0))),), (1, 1, 6)),  # negatively oriented
    ("form_from_ideal-2", form_from_ideal, (unit_ideal(ring_from_disc(5)),), (1, 1, -1)),  # real: not reduced
    ("ideal_from_form-3", ideal_from_form, (F, ring_from_disc(-20)), FormRingMismatch),
    # the p = 0 bases of ideal_from_form, written down: r > 0, r < 0, then
    # r = 0 with q > 0 and q < 0, and the zero form
    ("ideal_from_form-35", ideal_from_form, ((0, 1, 3), ring_from_disc(1)),
     QuadIdeal(ring_from_disc(1), ((T, -T), (1, 0)))),
    ("ideal_from_form-38", ideal_from_form, ((0, 1, -3), ring_from_disc(1)),
     QuadIdeal(ring_from_disc(1), ((-T, T), (1, 0)))),
    ("ideal_from_form-41", ideal_from_form, ((0, 3, 0), ring_from_disc(9)),
     QuadIdeal(ring_from_disc(9), ((2 * T, -T), (T, T)))),
    ("ideal_from_form-42", ideal_from_form, ((0, -3, 0), ring_from_disc(9)),
     QuadIdeal(ring_from_disc(9), ((T, T), (2 * T, -T)))),
    ("ideal_from_form-43", ideal_from_form, ((0, 0, 0), R), ZeroForm),
    ("is_balanced-4", is_balanced, (*TRIPLE.ideals[:2], U20), RingMismatch),
    ("triples_equivalent-5", triples_equivalent, (TRIPLE, triple_from_cube(identity_cube(-20))), RingMismatch),
    ("triples_equivalent-6", triples_equivalent, (REAL_TRIPLE, REAL_TRIPLE), UnsupportedDiscriminant),
    ("triples_equivalent-7", triples_equivalent, (TRIPLE, OTHER_TRIPLE), False),
    ("triples_equivalent-8", triples_equivalent, (BalancedTriple(R, TRIPLE.ideals[:1]),) * 2, DomainError),
    # a triple holding an ideal over another presentation of its ring
    ("triples_equivalent-46", triples_equivalent,
     (BalancedTriple(TRIPLE.ring, (*TRIPLE.ideals[:2], U23)), TRIPLE), RingMismatch),
    ("cube_from_triple-9", cube_from_triple, (BalancedTriple(R, TRIPLE.ideals[:1]),), DomainError),
    # a triple whose ideals all live over a ring other than its own
    ("cube_from_triple-47", cube_from_triple, (BalancedTriple(QuadraticRing(0, 1), TRIPLE.ideals),), RingMismatch),
    # a triple whose ring is not a ring: the kind gate names it, before the
    # ideals are compared with it (RingMismatch)
    ("cube_from_triple-48", cube_from_triple, (BalancedTriple(None, TRIPLE.ideals),), DomainError),
    ("cube_from_triple-49", cube_from_triple, (BalancedTriple(5, TRIPLE.ideals),), DomainError),
    ("triples_equivalent-50", triples_equivalent, (TRIPLE, BalancedTriple(None, TRIPLE.ideals)), DomainError),
    ("balanced_count-10", balanced_count, ("config", (1, 1, 2)), DomainError),
    ("stella_membership-11", stella_membership, (-1, (0, 0, 0)), DomainError),
    ("unit_coset_reps-12", unit_coset_reps, (3, -1, 1), DomainError),
    ("unit_coset_reps-13", unit_coset_reps, (3, 0, -1), DomainError),
    ("QuarticRing-14", QuarticRing, ({k: v for k, v in QUARTIC.c.items() if k != (2, 3, 1)},), DomainError),
    # tables that are not associative, so QuarticRing refuses them: minors
    # that violate the Plucker relations, a table outside the normalized
    # basis, and minors that satisfy them
    ("QuarticRing-40", QuarticRing, (NOT_PLUCKER,), DomainError),
    ("QuarticRing-44", QuarticRing, (SHIFTED_NOT_ASSOCIATIVE,), DomainError),
    ("QuarticRing-45", QuarticRing, (NOT_ASSOCIATIVE,), DomainError),
    ("plucker_check-15", plucker_check, ({k: "a" for k in MINORS},), DomainError),
    ("plucker_check-16", plucker_check, ({k: 0.5 for k in MINORS},), DomainError),
    # a ring outside the normalized basis has no resolvent
    ("pair_from_ring-33", pair_from_ring, (SHIFTED,), DomainError),
    ("count_numerical_resolvents-34", count_numerical_resolvents, (SHIFTED,), DomainError),
    ("enumerate_numerical_resolvents-39", enumerate_numerical_resolvents, (SHIFTED,), DomainError),
    # an argument that is not an ideal, a triple or a ring
    ("multiply-17", multiply, (5, 5), DomainError),
    ("form_from_ideal-18", form_from_ideal, (5,), DomainError),
    ("conjugate-19", conjugate, (None,), DomainError),
    ("is_balanced-20", is_balanced, (1, 2, 3), DomainError),
    ("cube_from_triple-21", cube_from_triple, (5,), DomainError),
    ("idempotents_within-22", idempotents_within, (5, 1), DomainError),
    ("raw_form-23", raw_form, (5,), DomainError),
    ("ideal_norm-24", ideal_norm, (5,), DomainError),
    ("inverse-25", inverse, (5,), DomainError),
    ("is_invertible-26", is_invertible, (5,), DomainError),
    ("endomorphism_ring-27", endomorphism_ring, (5,), DomainError),
    ("unit_ideal-28", unit_ideal, (5,), DomainError),
    ("scale-29", scale, (5, (1, 0)), DomainError),
    ("ideal_from_form-30", ideal_from_form, (F, 5), DomainError),
    ("form_from_cubic_ring-31", form_from_cubic_ring, (5,), DomainError),
    ("QuadIdeal-32", QuadIdeal, (5, [(1, 0), (0, 1)]), DomainError),
]


@pytest.mark.parametrize(
    "fn, args, expected",
    [row[1:] for row in BRANCHES],
    ids=[row[0] for row in BRANCHES],
)
def test_every_branch_of_an_entry_point(fn, args, expected):
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected):
            fn(*args)
    else:
        assert fn(*args) == expected


def test_the_gate_itself():
    assert _ints([1, 2], 2) == (1, 2) and _ints((3,), 1) == (3,)
    assert _int(-5, "n") == -5 and _matrix([[1, 2], [3, 4]]) == ((1, 2), (3, 4))

    class Int(int):
        pass

    # only a tuple or a list: bytes and a dict iterate as ints, but are not
    bad_seqs = (b"\x01\x02", bytearray(b"\x01\x02"), {1: 0, 2: 0}, {1, 2}, iter((1, 2)))
    for bad in (5, None, (1, Int(2)), (1, Fraction(2)), "12", *bad_seqs):
        with pytest.raises(DomainError, match="need integer coefficients"):
            _ints(bad, 2)
    for bad in (Int(1), True, 1.0, "1", None):
        with pytest.raises(UnsupportedDiscriminant, match="need an integer discriminant"):
            _int(bad, "discriminant", UnsupportedDiscriminant)
    for bad in (5, b"\x01\x02", (I[0],), (I[0], (1, 0, 0)), ((1.0, 0), (0, 1)), (b"\x01\0", I[1])):
        with pytest.raises(DomainError):
            _matrix(bad)
    # bytes used to pass as a form of small ints
    for call in (lambda: reduce(b"\x01\x01\x06"), lambda: compose(b"\x01\x01\x06", F)):
        with pytest.raises(DomainError, match="need integer coefficients"):
            call()


# the pure arithmetic helpers that the composition kernel calls on every
# product, unchecked by design (README, "Input checking")
UNCHECKED = {
    "discriminant", "content", "mat2_det", "xgcd",
    "cubic_eval", "ternary_eval", "cubic_form_disc", "cubic_content",
}
LIBRARY = ("exactlattice", "quadforms", "quadrings", "cubes", "cubicrings", "quarticrings", "padic")
PROBES = (5, None, [5], [[1]], (1, 2), "x", -1, 0)


def _public(module, test):
    # (name, object) for each public member of a library module that passes
    # test and is defined there
    mod = importlib.import_module("smallrank." + module)
    for name, obj in inspect.getmembers(mod, test):
        if not name.startswith("_") and obj.__module__ == mod.__name__:
            yield name, obj


def _public_callables():
    # (name, callable, number of required positional arguments) for every
    # public class and function defined in a library module, and every
    # public classmethod of such a class
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for module in LIBRARY:
        for owner, obj in _public(module, lambda o: inspect.isfunction(o) or inspect.isclass(o)):
            methods = inspect.getmembers(obj, inspect.ismethod) if inspect.isclass(obj) else []
            found = [(owner, obj)] + [(owner + "." + m, f) for m, f in methods if not m.startswith("_")]
            for name, fn in found:
                if name not in UNCHECKED:
                    params = inspect.signature(fn).parameters.values()
                    yield name, fn, sum(p.default is p.empty and p.kind in kinds for p in params)


def test_every_public_callable_returns_or_raises_a_typed_error():
    # each probe value in every required argument: all combinations for up
    # to 3 arguments, the same value in every slot for more
    found = list(_public_callables())
    names = {name for name, _, _ in found}
    assert len(found) >= 60 and {"QuarticRing", "ideal_from_form", "factorize", "CubicRing.from_table"} <= names
    escaped = []
    for name, fn, n in found:
        calls = product(PROBES, repeat=n) if n <= 3 else [(v,) * n for v in PROBES]
        for args in calls:
            try:
                fn(*args)
            except SmallRankError:
                pass
            except Exception as e:  # any other class escaped the gates
                escaped.append((name, args, type(e).__name__))
    assert escaped == []


# one instance of each public class of the library, built twice
SAMPLES = {
    QuadraticRing: lambda: QuadraticRing(1, 6),
    QuadIdeal: lambda: unit_ideal(R),
    BalancedTriple: lambda: triple_from_cube(CUBE),
    CubicRing: lambda: ring_from_cubic_form((1, 0, 1, 1)),
    MinimalResolvent: lambda: pair_from_ring(QUARTIC)[0],
    QuarticRing: lambda: ring_from_pair(PAIR),
    PadicConfig: lambda: PadicConfig(3, 2, 2),
}


def test_every_public_value_is_read_only():
    # a value that can be edited can leave a dict key or a hash that was
    # taken before, or hold what its constructor refuses (a composite p)
    classes = {obj for module in LIBRARY for _, obj in _public(module, inspect.isclass)}
    assert classes == set(SAMPLES)
    for cls, make in SAMPLES.items():
        value, same = make(), make()
        for name in [n for n in dir(value) if not n.startswith("_")] + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(value, name, 4)
        assert value == same and hash(value) == hash(same)
