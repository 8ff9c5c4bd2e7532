"""Binary quadratic forms: reduction, composition, class groups."""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm
from operator import itemgetter

import pytest
from callcounts import call_counts
from hypothesis import example, given, settings, strategies as st
from test_exactlattice import _oracle_mat_mul

from smallrank import quadforms
from smallrank.errors import (
    DiscriminantMismatch,
    DomainError,
    NotPositiveDefinite,
    NotPrimitive,
    UnsupportedDiscriminant,
)
from smallrank.exactlattice import factorize
from smallrank.quadforms import (
    _compose,
    _monoid_table,
    _structure,
    class_group,
    compose,
    content,
    discriminant,
    enumerate_reduced,
    principal_form,
    reduce,
    represent,
    twisted_act,
)
from smallrank.quadrings import class_semigroup

small = st.integers(min_value=-30, max_value=30)


def _posdef_forms():
    # c is forced far enough above b^2/4a that the discriminant is negative
    return st.tuples(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=-12, max_value=12),
        st.integers(min_value=2, max_value=12),
    ).map(lambda t: (t[0], t[1], (t[1] * t[1]) // (4 * t[0]) + t[2]))


def _unimodular():
    # products of shears and a sign flip; determinant is always +-1
    shear = st.integers(min_value=-4, max_value=4)

    def build(x, y, z, e):
        m = _oracle_mat_mul(((1, x), (0, 1)), ((1, 0), (y, 1)))
        m = _oracle_mat_mul(m, ((1, z), (0, 1)))
        return _oracle_mat_mul(m, ((1, 0), (0, e)))

    return st.builds(build, shear, shear, shear, st.sampled_from((1, -1)))


def test_discriminant_and_content():
    assert discriminant((1, 0, 25)) == -100
    assert discriminant((2, 1, 3)) == -23
    assert content((4, 6, 8)) == 2
    assert content((5, 0, 5)) == 5
    assert content((2, 1, 3)) == 1


# The reducedness test that _reduce's loop condition inlines; it was public
# with no reader outside the tests, and is kept as their oracle.
def _oracle_is_reduced(f):
    a, b, c = f
    if not (abs(b) <= a <= c):
        return False
    return b >= 0 or (abs(b) != a and a != c)


@given(_unimodular(), _unimodular(), _posdef_forms())
def test_twisted_action_composes(m2, m1, f):
    assert twisted_act(m2, twisted_act(m1, f)) == twisted_act(_oracle_mat_mul(m2, m1), f)


@given(_unimodular(), _posdef_forms())
def test_twisted_action_preserves_disc_and_content(m, f):
    g = twisted_act(m, f)
    assert discriminant(g) == discriminant(f)
    assert content(g) == content(f)


@given(_posdef_forms())
def test_reduce_contract(f):
    g, m = reduce(f)
    assert _oracle_is_reduced(g)
    assert discriminant(g) == discriminant(f)
    assert twisted_act(m, f) == g


# The reduction that multiplied 2x2 matrix tuples on every step and checked
# the result with twisted_act, replaced by the four-int walk of _reduce;
# kept as its oracle.
def _oracle_reduce(f):
    a, b, c = f
    m = ((1, 0), (0, 1))
    while not _oracle_is_reduced((a, b, c)):
        if a > c or (a == c and b < 0):
            a, b, c = c, -b, a
            m = _oracle_mat_mul(((0, -1), (1, 0)), m)
        else:
            k = (a - b) // (2 * a)
            a, b, c = a, b + 2 * k * a, a * k * k + b * k + c
            m = _oracle_mat_mul(((1, 0), (k, 1)), m)
    g = (a, b, c)
    assert twisted_act(m, f) == g
    return g, m


@given(
    st.tuples(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    ).map(lambda t: (t[0], t[1], (t[1] * t[1]) // (4 * t[0]) + t[2]))
)
@example((15, 27, 13))
@example((1, 1, 1))
@example((3, -3, 3))
def test_reduce_agrees_with_matrix_walk_oracle(f):
    # both the reduced form and the matrix, for forms far from reduced too
    assert reduce(f) == _oracle_reduce(f)


def test_reduce_errors():
    with pytest.raises(UnsupportedDiscriminant):
        reduce((1, 5, 1))
    with pytest.raises(NotPositiveDefinite):
        reduce((-1, 0, -1))


def test_enumerate_reduced_spots():
    assert set(enumerate_reduced(-100)) == {(1, 0, 25), (2, 2, 13), (5, 0, 5)}
    assert set(enumerate_reduced(-23)) == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}
    assert set(enumerate_reduced(-4)) == {(1, 0, 1)}
    assert set(enumerate_reduced(-3)) == {(1, 1, 1)}
    with pytest.raises(UnsupportedDiscriminant):
        enumerate_reduced(-5)
    with pytest.raises(UnsupportedDiscriminant):
        enumerate_reduced(4)


def test_enumerate_reduced_is_complete_and_reduced():
    for d in (-23, -56, -84, -100, -47):
        forms = enumerate_reduced(d)
        assert len(set(forms)) == len(forms)
        for f in forms:
            assert _oracle_is_reduced(f)
            assert discriminant(f) == d
        # every reduced class appears: reducing a random equivalent lands back
        rng = random.Random(d)
        for f in forms:
            m = ((1, rng.randint(-3, 3)), (0, 1))
            g = twisted_act(m, f)
            assert reduce(g)[0] == f


# The scan over every (a, b) with |b| <= a <= sqrt(|d|/3) that the divisor
# walk replaced; kept as its oracle.
def _oracle_enumerate_reduced(d):
    forms = []
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            if (b - d) % 2:
                continue
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            forms.append((a, b, c))
        a += 1
    return sorted(forms)


def test_enumerate_reduced_agrees_with_scan_oracle():
    for d in range(-3, -3001, -1):
        if d % 4 in (0, 1):
            assert enumerate_reduced(d) == _oracle_enumerate_reduced(d), d


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=751, max_value=250000), st.sampled_from((0, 1)))
def test_enumerate_reduced_agrees_with_scan_oracle_sampled(k, r):
    d = -4 * k + r
    assert enumerate_reduced(d) == _oracle_enumerate_reduced(d)


def test_compose_group_laws():
    for d in (-23, -47, -100, -84):
        elements, table, _ = class_group(d)
        p = principal_form(d)
        pi = elements.index(p)
        n = len(elements)
        for i in range(n):
            # identity and closure
            assert table[pi][i] == i and table[i][pi] == i
            # commutativity
            for j in range(n):
                assert table[i][j] == table[j][i]
            # inverse exists: conjugate class composes to principal
            a, b, c = elements[i]
            conj = reduce((a, -b, c))[0]
            assert compose(elements[i], conj) == p
        # associativity, spot-checked
        rng = random.Random(d)
        for _ in range(20):
            i, j, k = (rng.randrange(n) for _ in range(3))
            assert table[table[i][j]][k] == table[i][table[j][k]]


def test_compose_disc_mismatch():
    with pytest.raises(DiscriminantMismatch):
        compose((1, 0, 1), (1, 1, 6))


def test_compose_indefinite_is_a_domain_error():
    # this pair once divided by zero inside the composition formula
    with pytest.raises(UnsupportedDiscriminant):
        compose((-1, 3, 0), (0, -3, 2))
    with pytest.raises(UnsupportedDiscriminant):
        compose((1, 3, 1), (1, 3, 1))
    # negative definite forms still compose, to a reduced positive form
    assert compose((-2, 1, -3), (-2, -1, -3)) == (1, 1, 6)
    assert compose((-1, 1, -6), (-2, 1, -3)) == (2, 1, 3)
    # a positive with a negative definite form has no positive product
    with pytest.raises(NotPositiveDefinite):
        compose((1, 1, 6), (-1, 1, -6))


def test_non_integer_coefficients_are_domain_errors():
    # each once raised a bare AssertionError or let a TypeError escape
    with pytest.raises(DomainError, match="need integer coefficients"):
        reduce((1.5, 1, 3))
    with pytest.raises(DomainError, match="need integer coefficients"):
        twisted_act(((1, 0), (0, 1)), (1.5, 0, 1))
    with pytest.raises(DomainError, match="need integer coefficients"):
        compose((1, 1, 1.5), (1, 1, 1.5))
    with pytest.raises(DomainError, match="need integer coefficients"):
        represent((1.5, 0, 1), 4)



def test_compose_keeps_its_checks_and_the_kernel_takes_imprimitive_forms():
    # (5, 0, 5) is not invertible at -100 and its ideal is idempotent
    with pytest.raises(NotPrimitive):
        compose((5, 0, 5), (5, 0, 5))
    assert _compose((5, 0, 5), (5, 0, 5), -100) == (5, 0, 5)
    assert _compose((5, 0, 5), (2, 2, 13), -100) == (5, 0, 5)
    assert _compose((2, 2, 13), (2, 2, 13), -100) == compose((2, 2, 13), (2, 2, 13))


def _principal_reduce(a, b, c):
    return principal_form(discriminant((a, b, c))), ((1, 0), (0, 1))


def test_compose_content_check_catches_a_wrong_reduction(monkeypatch):
    # fault injection: a reduction that returns the principal form gives
    # content 1, not lcm(5, 5) = 5
    monkeypatch.setattr(quadforms, "_reduce", _principal_reduce)
    with pytest.raises(AssertionError, match="lcm"):
        _compose((5, 0, 5), (5, 0, 5), -100)


def _raises_under_optimize_flag(setup, call):
    # runs setup, then call, in a python -O child; returns the message of
    # the AssertionError it raises and the source line of the check, the
    # line above the raise
    src = os.path.dirname(os.path.dirname(quadforms.__file__))
    code = (
        "import linecache\n"
        "from smallrank import quadforms\n"
        + setup
        + "try:\n"
        + "    " + call + "\n"
        + "except AssertionError as e:\n"
        + "    tb = e.__traceback__\n"
        + "    while tb.tb_next:\n"
        + "        tb = tb.tb_next\n"
        + "    print(e)\n"
        + "    print(linecache.getline(tb.tb_frame.f_code.co_filename, tb.tb_lineno - 1).strip())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(proc.stdout.splitlines())


def test_compose_content_check_survives_optimize_flag():
    message, check = _raises_under_optimize_flag(
        "quadforms._reduce = lambda a, b, c: ((1, 0, 25), ((1, 0), (0, 1)))\n",
        "quadforms._compose((5, 0, 5), (5, 0, 5), -100)",
    )
    assert "lcm" in message and check.startswith("if gcd(*h) != lcm(")


def test_compose_bezout_check_survives_optimize_flag():
    # wrong Bezout coefficients: u*a1 + v*a2 + w*s is not the gcd
    message, check = _raises_under_optimize_flag(
        "xgcd = quadforms.xgcd\n"
        "quadforms.xgcd = lambda a, b: (lambda g, x, y: (g, x + 1, y))(*xgcd(a, b))\n",
        "quadforms._compose((2, 1, 3), (3, 1, 2), -23)",
    )
    assert "Bezout" in message and check == "if u * a1 + v * a2 + w * s != e:"


def test_monoid_table_symmetry_check_survives_optimize_flag():
    # addition on Z/5 with 1 + 1, 1 + 4 and 2 + 2 changed; 4 + 1 stays 0, so
    # the product does not commute.  Every entry reached twice agrees, and
    # only the final check of the whole table sees it
    message, check = _raises_under_optimize_flag(
        "changed = {(1, 1): 1, (1, 4): 4, (2, 2): 3}\n"
        "def add(x, y):\n"
        "    return changed.get((x, y), (x + y) % 5)\n",
        "quadforms._monoid_table(5, 0, add, list(range(5)))",
    )
    assert message == "monoid table must be symmetric"
    assert check == "if flat[j::n] != row:"


def test_monoid_table_list_symmetry_check_survives_optimize_flag():
    # the twin above n = 256, where rows are lists: addition on Z/257 with
    # 1 + 1 and 1 + 256 changed; every entry reached twice agrees, and only
    # the final check of the transposed lists sees it
    message, check = _raises_under_optimize_flag(
        "changed = {(1, 1): 1, (1, 256): 256}\n"
        "def add(x, y):\n"
        "    return changed.get((x, y), (x + y) % 257)\n",
        "quadforms._monoid_table(257, 0, add, list(range(257)))",
    )
    assert message == "monoid table must be symmetric"
    assert check == "if table != [list(col) for col in zip(*table)]:"


def test_monoid_table_spread_check_survives_optimize_flag():
    # addition on Z/5 with 1 + 1 changed to 1: the entry 2 + 0 = 2 is
    # reached again, spread from row 1, as 1 + (2 + 4) = 1 + 1 = 1
    message, check = _raises_under_optimize_flag(
        "def add(x, y):\n"
        "    return 1 if (x, y) == (1, 1) else (x + y) % 5\n",
        "quadforms._monoid_table(5, 0, add, list(range(5)))",
    )
    assert message == "monoid table must be symmetric"
    assert check == "elif times_g[x] != z:"


def test_twisted_act_discriminant_check_survives_optimize_flag():
    # a substitution that returns the form of another discriminant
    message, check = _raises_under_optimize_flag(
        "quadforms._form_act = lambda m, f: (1, 0, 1)\n",
        "quadforms.twisted_act(((1, 0), (0, 1)), (1, 1, 1))",
    )
    assert "changed the discriminant" in message
    assert check == "if discriminant(g) != discriminant(f):"


def test_compose_discriminant_check_survives_optimize_flag():
    # a wrong conductor factor k = gcd(e, n, c1, c2) doubles A, and no B
    # modulo 2A then gives discriminant d
    message, check = _raises_under_optimize_flag(
        "quadforms.gcd = lambda *values: 2\n",
        "quadforms._compose((1, 1, 1), (1, 1, 1), -3)",
    )
    assert "wrong discriminant" in message
    assert check == "if discriminant((big_a, big_b, big_c)) != d:"


def test_reduce_matrix_check_survives_optimize_flag():
    # the steps are exact on ints, so the check sees only inexact input: an
    # input check that lets floats through, whose rounding the loop carries
    message, check = _raises_under_optimize_flag(
        "quadforms._ints = lambda values, n, what=None: tuple(values)\n",
        "quadforms.reduce((121.0, -6.043100779701934e17, 7.545261783808707e32))",
    )
    assert "reduction matrix does not take" in message
    assert check == ") != (a, b, c):"


def test_class_group_structures():
    assert class_group(-23)[2] == (3,)
    assert class_group(-4)[2] == ()
    assert class_group(-3)[2] == ()
    assert class_group(-47)[2] == (5,)
    assert class_group(-84)[2] == (2, 2)
    assert class_group(-56)[2] == (4,)
    assert class_group(-420)[2] == (2, 2, 2)
    assert class_group(-972)[2] == (3, 3)
    assert class_group(-1356)[2] == (3, 6)
    assert class_group(-3299)[2] == (3, 9)
    assert class_group(-3360)[2] == (2, 2, 2, 2)


def test_class_group_of_a_float_is_a_domain_error():
    # unless rejected first, -3.0 reaches range() and raises a TypeError
    with pytest.raises(UnsupportedDiscriminant):
        class_group(-3.0)


# The h^2 composition table and the divisor-chain structure search that the
# monoid-table builder and the order-count formula replaced; kept as oracles.
def _oracle_structure(orders):
    # the first divisor chain whose statistics of solutions of x^m = 1
    # match those of the element orders
    h = len(orders)
    counts = Counter(orders)

    def counts_match(factors):
        for m in range(1, h + 1):
            expected = 1
            for dd in factors:
                expected *= gcd(dd, m)
            if expected != sum(c for o, c in counts.items() if m % o == 0):
                return False
        return True

    def divisor_chains(h, least):
        if h == 1:
            yield ()
            return
        for dd in range(least, h + 1):
            if h % dd == 0:
                for rest in divisor_chains(h // dd, dd):
                    yield (dd,) + rest

    for factors in divisor_chains(h, 2):
        if all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1)):
            if counts_match(factors):
                return factors
    raise AssertionError("no invariant factor decomposition matched")


def _oracle_class_group(d):
    elements = [f for f in enumerate_reduced(d) if content(f) == 1]
    index = {f: i for i, f in enumerate(elements)}
    table = [[index[compose(f, g)] for g in elements] for f in elements]
    ident = elements.index(reduce(principal_form(d))[0])
    orders = []
    for i in range(len(elements)):
        k, j = 1, i
        while j != ident:
            j = table[j][i]
            k += 1
        orders.append(k)
    return elements, table, _oracle_structure(orders)


def test_class_group_agrees_with_composition_oracle():
    for d in range(-3, -2001, -1):
        if d % 4 in (0, 1):
            assert class_group(d) == _oracle_class_group(d), d


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=501, max_value=5000), st.sampled_from((0, 1)))
def test_class_group_agrees_with_composition_oracle_sampled(k, r):
    d = -4 * k + r
    assert class_group(d) == _oracle_class_group(d)


# The product-only monoid-table builder that conjugation halved; kept as its
# oracle.  It makes one product per orbit of the reached rows that is not
# yet filled in, and uses no automorphism.
def _oracle_monoid_table(n, ident, product):
    rows = {ident: list(range(n))}
    for g in range(n):
        if g in rows:
            continue
        times_g = [rows[j][g] if j in rows else None for j in range(n)]
        for k in range(n):
            if times_g[k] is None:
                gk = product(g, k)
                for row in rows.values():
                    x, y = row[k], row[gk]
                    if times_g[x] is None:
                        times_g[x] = y
                    elif times_g[x] != y:
                        raise AssertionError("monoid table must be symmetric")
        todo = list(rows)
        while todo:
            x = todo.pop()
            y = times_g[x]
            if y not in rows:
                rows[y] = [times_g[z] for z in rows[x]]
                todo.append(y)
    table = [rows[x] for x in range(n)]
    if table != [list(col) for col in zip(*table)]:
        raise AssertionError("monoid table must be symmetric")
    return table


@settings(max_examples=40, deadline=None)
@given(st.integers(-20000, -3).filter(lambda d: d % 4 in (0, 1)))
@example(-3 * 7 * 7)
@example(-3 * 45 * 45)
@example(-4 * 11 * 11)
@example(-4 * 60 * 60)
@example(-420)  # (2, 2, 2): every class is its own conjugate
@example(-3360)  # (2, 2, 2, 2)
def test_class_group_table_agrees_with_product_only_builder(d):
    elements, table, _ = class_group(d)
    index = {f: i for i, f in enumerate(elements)}

    def product(i, j):
        return index[_compose(elements[i], elements[j], d)]

    assert table == _oracle_monoid_table(len(elements), index[principal_form(d)], product)


# The table builder with list rows, one gather per new row and its
# generators in index order, and the structure that scanned all h orders
# once for each prime power, that byte rows (n <= 256), the generators moved
# by conj first and one count of each order replaced; kept as oracles.
def _oracle_list_monoid_table(n, ident, product, conj):
    rows = {ident: list(range(n))}
    for g in range(n):
        if g in rows:
            continue
        times_g = [rows[j][g] if j in rows else None for j in range(n)]
        norm_g = product(g, conj[g])
        norm = rows.get(norm_g)
        products = ((k, product(g, k)) for k in range(n) if times_g[k] is None)
        for k, y in chain([(conj[g], norm_g)], products):
            entries = [(k, y)]
            if norm is not None:
                entries.append((conj[y], norm[conj[k]]))
            if conj[g] == g:
                entries.append((conj[k], conj[y]))
            for k1, y1 in entries:
                for row in rows.values():
                    x, z = row[k1], row[y1]
                    if times_g[x] is None:
                        times_g[x] = z
                    elif times_g[x] != z:
                        raise AssertionError("monoid table must be symmetric")
        gather = itemgetter(*times_g)
        todo = list(rows)
        while todo:
            x = todo.pop()
            y = times_g[x]
            if y not in rows:
                rows[y] = list(gather(rows[x]))
                todo.append(y)
    table = [rows[x] for x in range(n)]
    if table != [list(col) for col in zip(*table)]:
        raise AssertionError("monoid table must be symmetric")
    return table


def _oracle_scan_structure(orders):
    largest_first = [1] * len(orders).bit_length()
    for p, e in factorize(len(orders)).items():
        n = [sum(1 for o in orders if p**k % o == 0) for k in range(e + 1)]
        for k in range(1, e + 1):
            for j in range(len(largest_first)):
                if n[k] > n[k - 1] * p**j:
                    largest_first[j] *= p
    return tuple(reversed([f for f in largest_first if f > 1]))


@settings(max_examples=30, deadline=None)
@given(st.integers(-30000, -3).filter(lambda d: d % 4 in (0, 1)))
@example(-3)
@example(-27431)  # h = 259, the least |d| with h > 256: list rows
def test_class_tables_agree_with_list_row_builder(d):
    expected = class_group(d), class_semigroup(d)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(quadforms, "_monoid_table", _oracle_list_monoid_table)
        monkeypatch.setattr(quadforms, "_structure", _oracle_scan_structure)
        assert (class_group(d), class_semigroup(d)) == expected


def _sum_monoid(m1, m2):
    # Z/m1 x Z/m2 under addition, (a, b) as a*m2 + b, conj the negation
    def add(x, y):
        return (x // m2 + y // m2) % m1 * m2 + (x + y) % m2

    return m1 * m2, 0, add, [-(x // m2) % m1 * m2 + -x % m2 for x in range(m1 * m2)]


def _product_monoid(m):
    # (Z/m, *), conj the identity
    return m, 1 % m, lambda x, y: x * y % m, list(range(m))


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.integers(1, 20).flatmap(lambda m1: st.integers(1, 300 // m1).map(lambda m2: _sum_monoid(m1, m2))),
        st.integers(1, 300).map(_product_monoid),
    )
)
@example(_sum_monoid(1, 257))
@example(_sum_monoid(16, 16))
@example(_sum_monoid(2, 150))
@example(_product_monoid(256))
@example(_product_monoid(257))
@example(_product_monoid(300))
def test_monoid_table_agrees_with_list_row_builder(monoid):
    # byte rows up to n = 256 and list rows above, on monoids that are not
    # class groups: every entry is the product itself
    n, ident, product, conj = monoid
    table = _monoid_table(n, ident, product, conj)
    assert table == _oracle_list_monoid_table(n, ident, product, conj)
    assert table == [[product(x, y) for y in range(n)] for x in range(n)]


def test_list_row_class_table_agrees_with_every_composition():
    # the table of h = 259 > 256 classes, built on list rows, against the
    # h^2 compositions of the naive table
    d = -27431
    elements, table, _ = class_group(d)
    index = {f: i for i, f in enumerate(elements)}
    assert len(elements) == 259
    assert table == [[index[_compose(f, g, d)] for g in elements] for f in elements]


def _genus_characters(d):
    # mu(d), the number of assigned characters of discriminant d < 0 (Cox,
    # Prop. 3.11 and Thm. 3.15), from a count of the odd primes dividing d
    m, r, p = -d, 0, 3
    while m % 2 == 0:
        m //= 2
    while p * p <= m:
        if m % p == 0:
            r += 1
            while m % p == 0:
                m //= p
        p += 2
    r += m > 1
    if d % 4 == 1:
        return r
    n = -d // 4
    if n % 4 == 3:
        return r
    if n % 8 == 0:
        return r + 2
    return r + 1


@settings(max_examples=150, deadline=None)
@given(st.integers(-20000, -3).filter(lambda d: d % 4 in (0, 1)))
@example(-32)  # mu = r + 2
@example(-96)  # mu = r + 2
@example(-3 * 7 * 7)
@example(-4 * 9 * 9)
@example(-3)
@example(-4)
@example(-420)
@example(-3360)
def test_class_group_two_rank_is_given_by_genus_theory(d):
    # Cl(d)/Cl(d)^2 has 2^(mu - 1) genera, so 2^(mu - 1) classes square to
    # the principal one and mu - 1 invariant factors are even; this shares
    # no code with the table builder or with _structure
    elements, table, structure = class_group(d)
    mu = _genus_characters(d)
    assert sum(1 for f in structure if f % 2 == 0) == mu - 1
    ident = elements.index(principal_form(d))
    assert sum(1 for i in range(len(elements)) if table[i][i] == ident) == 2 ** (mu - 1)


def _kronecker(a, n):
    # Kronecker symbol (a/n) for n >= 1: (a/2) by a mod 8, then the Jacobi
    # symbol by quadratic reciprocity (Cohen, GTM 138, Algorithm 1.4.10)
    k = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            k = -k
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def _fundamental(d):
    # (d0, f) with d = d0 * f^2 and d0 a fundamental discriminant, by trial
    # division: d = -m * s^2 with m squarefree
    m, s, p = -d, 1, 2
    while p * p <= m:
        while m % (p * p) == 0:
            m, s = m // (p * p), s * p
        p += 1
    return (-m, s) if -m % 4 == 1 else (-4 * m, s // 2)


def _dirichlet_class_number(d):
    # h(d0) = -(w / 2|d0|) * sum_{a=1}^{|d0|-1} (d0/a) * a for fundamental
    # d0 < 0, then h(d0 f^2) = h(d0) * f / [O*:O_f*] * prod_{p | f} (1 - (d0/p)/p)
    # (Cox, Primes of the Form x^2 + ny^2, Thm 7.24)
    d0, f = _fundamental(d)
    w = {-3: 6, -4: 4}.get(d0, 2)
    h = Fraction(-w * sum(_kronecker(d0, a) * a for a in range(1, -d0)), -2 * d0)
    for p in range(2, f + 1):
        if f % p == 0 and all(p % q for q in range(2, p)):
            h *= 1 - Fraction(_kronecker(d0, p), p)
    return h * f / (w // 2 if f > 1 else 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(-3000, -3).filter(lambda d: d % 4 in (0, 1)))
@example(-3)
@example(-4)
@example(-3 * 2 * 2)  # the unit index [O*:O_f*] is 3
@example(-3 * 7 * 7)  # 7 splits
@example(-3 * 5 * 5)  # 5 is inert
@example(-3 * 3 * 3)  # 3 ramifies
@example(-3 * 30 * 30)
@example(-4 * 2 * 2)  # the unit index is 2; 2 ramifies
@example(-4 * 3 * 3)  # 3 is inert
@example(-4 * 5 * 5)  # 5 splits
@example(-4 * 15 * 15)
def test_class_number_is_given_by_dirichlet_formula(d):
    # no reduced form and no composition: h from the L-value sum and the
    # conductor's local factors
    assert len(class_group(d)[0]) == _dirichlet_class_number(d)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5000), st.sampled_from((0, 1)))
@example(840, 0)  # -3360, (2, 2, 2, 2): 49 compositions with one per unreached column
def test_class_group_makes_fewer_than_2h_compositions(k, r):
    # structural guard: one composition per coset of the classes reached so
    # far, and the reached set at least doubles with each generator; counted,
    # not timed
    (elements, _, _), counts = call_counts(class_group, -4 * k + r)
    compositions = counts["quadforms._compose"]
    assert compositions < 2 * len(elements)
    assert compositions or len(elements) == 1


def test_class_group_composition_counts():
    # h^2 compositions in the oracle; 3,837 and 1,754 with one composition
    # per unreached column, 951 and 783 with one per unreached coset; -1704,
    # of structure (2, 12), made 23 with its generators in index order, the
    # first of them ambiguous
    for d, h, structure, expected in (
        (-999999, 912, (2, 2, 2, 114), 479),
        (-299999, 780, (2, 390), 395),
        (-1704, 24, (2, 12), 14),
    ):
        (elements, _, found), counts = call_counts(class_group, d)
        assert (len(elements), found) == (h, structure)
        assert counts["quadforms._compose"] == expected, d


@st.composite
def _invariant_factor_chains(draw):
    # d1 | d2 | ... | dk with every di >= 2 and the product at most 2000
    chain, total = [], 1
    for step in draw(st.lists(st.integers(min_value=1, max_value=12), max_size=6)):
        d = chain[-1] * step if chain else step + 1
        if total * d > 2000:
            break
        chain.append(d)
        total *= d
    return tuple(chain)


def _cyclic_sum_table(chain):
    # the table of Z/d1 x ... x Z/dk on mixed-radix codes, the first factor
    # the most significant, as itertools.product orders the tuples
    if not chain:
        return [[0]]
    d, rest = chain[0], _cyclic_sum_table(chain[1:])
    m = len(rest)
    return [[(a + b) % d * m + s for b in range(d) for s in row] for a in range(d) for row in rest]


@settings(max_examples=20, deadline=None)
@given(_invariant_factor_chains(), st.randoms(use_true_random=False))
@example((2, 2, 2, 2, 2, 2), random.Random(0))  # every class fixed by conj
@example((2, 130), random.Random(0))  # list rows
@example((3, 6, 12), random.Random(0))
def test_monoid_table_does_not_depend_on_the_labels(chain, rng):
    # relabelled at random, the group's generators come in another order,
    # and the table must be the relabelled table all the same
    table = _cyclic_sum_table(chain)
    n = len(table)
    label = list(range(n))
    rng.shuffle(label)
    code = sorted(range(n), key=label.__getitem__)
    relabelled = [[label[table[code[i]][code[j]]] for j in range(n)] for i in range(n)]
    conj = [label[table[code[i]].index(0)] for i in range(n)]
    assert _monoid_table(n, label[0], lambda i, j: label[table[code[i]][code[j]]], conj) == relabelled


@settings(max_examples=60, deadline=None)
@given(_invariant_factor_chains(), st.randoms(use_true_random=False))
@example((2, 2, 2, 2), random.Random(0))  # count ratio 16 at k = 1
@example((4, 4, 4), random.Random(0))  # ratio 8 at k = 1 and at k = 2
@example((3, 9, 9), random.Random(0))  # ratio 27 at k = 1, 9 at k = 2
def test_structure_recovers_invariant_factor_chains(chain, rng):
    # the element orders of Z/d1 x ... x Z/dk, in a random order
    orders = [
        lcm(*(dd // gcd(a, dd) for a, dd in zip(x, chain)))
        for x in product(*(range(dd) for dd in chain))
    ]
    rng.shuffle(orders)
    assert _structure(orders) == chain
    assert _oracle_structure(orders) == chain
    assert _oracle_scan_structure(orders) == chain


def test_class_group_excludes_imprimitive():
    elements, _, structure = class_group(-100)
    assert (5, 0, 5) not in elements
    assert len(elements) == 2
    assert structure == (2,)


def test_represent():
    reps = represent((1, 0, 1), 25)
    assert len(reps) == 12
    assert all(x * x + y * y == 25 for x, y in reps)
    assert represent((1, 0, 1), 3) == []
    assert represent((1, 0, 1), 0) == [(0, 0)]
    assert represent((1, 0, 1), -4) == []
    with pytest.raises(UnsupportedDiscriminant):
        represent((1, 5, 1), 10)
    with pytest.raises(NotPositiveDefinite):
        represent((-1, 0, -1), 10)
    # 2.5 used to let a TypeError escape from isqrt
    with pytest.raises(DomainError, match="need an integer value"):
        represent((1, 0, 1), 2.5)
