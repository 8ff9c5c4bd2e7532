"""Local counting of balanced ideal triples in quadratic suborder towers."""

import itertools

import pytest
from hypothesis import given, strategies as st

from smallrank.errors import DomainError, PrecisionError
from smallrank.padic import (
    PadicConfig,
    balanced_count,
    enumerate_balanced_oracle,
    least_nonresidue,
    stella_membership,
)
from smallrank.padic import _unit_coset_reps


def test_config_validation():
    PadicConfig(3, 2, 2)
    with pytest.raises(DomainError):
        PadicConfig(2, 1, 1)  # even prime unsupported
    with pytest.raises(DomainError):
        PadicConfig(9, 1, 2)  # composite
    with pytest.raises(DomainError):
        PadicConfig(3, -1, 2)  # negative level
    with pytest.raises(DomainError):
        PadicConfig(3, 1, 1)  # 1 is a square
    with pytest.raises(DomainError):
        PadicConfig(5, 1, 4)  # 4 is a square
    # a config is a named tuple whose _replace and _make run the same checks
    cfg = PadicConfig(3, 2, 2)
    for make in (lambda: cfg._replace(p=4), lambda: PadicConfig._make((4, 2, 2)), lambda: cfg._replace(u=1)):
        with pytest.raises(DomainError):
            make()
    assert cfg._replace(n=3) == PadicConfig._make((3, 3, 2)) == PadicConfig(3, 3, 2)



def test_config_rejects_non_integers():
    # truncation would make PadicConfig(3.7, 1.9, 2.2) p = 3, n = 1, u = 2
    for args in ((3.7, 1.9, 2.2), (3, 1.0, 2), (3, 1, "2"), (5.0, 1, 2)):
        with pytest.raises(DomainError):
            PadicConfig(*args)

def test_config_equality():
    assert PadicConfig(3, 2, 2) == PadicConfig(3, 2, 2)
    assert PadicConfig(3, 2, 2) != PadicConfig(3, 1, 2)
    assert len({PadicConfig(5, 1, 2), PadicConfig(5, 1, 2)}) == 1
    # a named tuple: equal to the plain tuple of its fields, and with the
    # repr it had as a class of its own
    assert PadicConfig(3, 2, 2) == (3, 2, 2) and hash(PadicConfig(3, 2, 2)) == hash((3, 2, 2))
    assert repr(PadicConfig(3, 2, 2)) == "PadicConfig(p=3, n=2, u=2)"


def test_least_nonresidue():
    assert least_nonresidue(3) == 2
    assert least_nonresidue(5) == 2
    assert least_nonresidue(7) == 3
    assert least_nonresidue(17) == 3
    with pytest.raises(DomainError):
        least_nonresidue(8)


def test_balanced_count_spots():
    cfg = PadicConfig(3, 4, 2)
    assert balanced_count(cfg, (2, 2, 2)) == 3
    assert balanced_count(cfg, (1, 1, 2)) == 4
    assert balanced_count(PadicConfig(3, 2, 2), (0, 2, 2)) == 0
    assert balanced_count(PadicConfig(3, 0, 2), (0, 0, 0)) == 1
    # parity violations vanish
    assert balanced_count(cfg, (0, 0, 1)) == 0


def test_balanced_count_requires_sorted_index():
    cfg = PadicConfig(3, 4, 2)
    with pytest.raises(DomainError):
        balanced_count(cfg, (2, 1, 2))
    with pytest.raises(DomainError):
        balanced_count(cfg, (0, 0, 5))
    with pytest.raises(DomainError):
        balanced_count(cfg, (-1, 0, 0))



def test_balanced_count_rejects_a_non_integer_index():
    # truncation would count (1, 1, 2.9) as (1, 1, 2)
    cfg = PadicConfig(3, 4, 2)
    for idx in ((1, 1, 2.9), (1, 1, 2.0), ("1", 1, 2), (1, 1), None):
        with pytest.raises(DomainError):
            balanced_count(cfg, idx)
        with pytest.raises(DomainError):
            enumerate_balanced_oracle(cfg, idx, 10)

def test_formula_matches_oracle_small():
    for p in (3, 5):
        u = least_nonresidue(p)
        for n in range(0, 3):
            cfg = PadicConfig(p, n, u)
            m = 2 * n + 2
            for idx in itertools.combinations_with_replacement(range(n + 1), 3):
                assert balanced_count(cfg, idx) == enumerate_balanced_oracle(
                    cfg, idx, m
                ), (p, n, idx)


def test_oracle_precision_guard():
    cfg = PadicConfig(3, 2, 2)
    with pytest.raises(PrecisionError):
        enumerate_balanced_oracle(cfg, (0, 0, 0), 5)


def test_unit_coset_counts():
    for p in (3, 5):
        for i in range(0, 4):
            reps = _unit_coset_reps(p, 0, i)
            expected = 1 if i == 0 else p ** (i - 1) * (p + 1)
            assert len(reps) == len(set(reps)) == expected
        for t in (1, 2):
            for i in range(t, t + 3):
                reps = _unit_coset_reps(p, t, i)
                assert len(reps) == len(set(reps)) == p ** (i - t)
            assert _unit_coset_reps(p, t, t - 1) == [(1, 0)]


def test_stella_spots():
    assert stella_membership(1, (1, 1, 1)) == (True, 1)
    assert stella_membership(1, (1, 1, -1)) == (True, 2)
    assert stella_membership(2, (0, 2, 2)) == (False, None)
    assert stella_membership(0, (0, 0, 0)) == (True, "boundary")
    inside, label = stella_membership(2, (0, 0, 2))
    assert inside and label == "boundary"



def test_stella_rejects_non_integers():
    # truncation would place (1.5, (1, 1, 1.9)) at (True, 1)
    for n, idx in ((1.5, (1, 1, 1.9)), (1, (1, 1, 1.9)), (1.0, (1, 1, 1)), (1, (1, 1))):
        with pytest.raises(DomainError):
            stella_membership(n, idx)

coord = st.integers(min_value=-6, max_value=6)


@given(st.integers(min_value=0, max_value=4), coord, coord, coord)
def test_stella_signed_permutation_symmetry(n, x, y, z):
    """Membership is invariant under the 48 signed permutations with the
    tetrahedron labels swapping under odd sign changes."""
    base = stella_membership(n, (x, y, z))
    for perm in itertools.permutations((x, y, z)):
        for sx in (1, -1):
            for sy in (1, -1):
                for sz in (1, -1):
                    pt = (sx * perm[0], sy * perm[1], sz * perm[2])
                    assert stella_membership(n, pt)[0] == base[0]


@given(st.integers(min_value=0, max_value=5), coord, coord, coord)
def test_stella_closed_form(n, x, y, z):
    inside, _ = stella_membership(n, (x, y, z))
    a = sorted((abs(x), abs(y), abs(z)), reverse=True)
    expected = (x + y + z - n) % 2 == 0 and a[0] + a[1] - a[2] <= n
    assert inside == expected


def test_stella_label_flips_under_sign_change():
    # a point strictly inside tetrahedron 1 moves to tetrahedron 2 when one
    # coordinate flips sign
    assert stella_membership(3, (3, 1, 1)) == (True, 1)
    assert stella_membership(3, (-3, 1, 1)) == (True, 2)


def test_least_nonresidue_rejects_a_non_integer():
    # the comparison p < 3 used to let a TypeError escape
    with pytest.raises(DomainError):
        least_nonresidue("7")


def test_oracle_rejects_a_non_integer_precision():
    # a float m used to run, with a float modulus, and return 0
    with pytest.raises(DomainError):
        enumerate_balanced_oracle(PadicConfig(3, 2, 2), (1, 1, 1), 6.5)
    cfg = PadicConfig(3, 3, 2)
    assert enumerate_balanced_oracle(cfg, (1, 1, 1), 8) == balanced_count(cfg, (1, 1, 1)) == 4
    with pytest.raises(DomainError):
        enumerate_balanced_oracle(cfg, (1, 1, 1), 8.0)
