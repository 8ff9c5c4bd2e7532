"""Counting balanced ideal triples over p-adic orders in an unramified field.

For an odd prime ``p`` and a quadratic non-residue ``u`` mod ``p``, the ring
``S_0 = Z_p[sqrt(u)]`` is the maximal order of the unramified quadratic
extension of ``Q_p``, and ``S_m = Z_p + p^m sqrt(u) Z_p`` is its index-``p^m``
suborder.  Fixing a base order ``S_n``, a triple of fractional ``S_n``-ideals
``(I_1, I_2, I_3)`` is *balanced* when ``I_1 I_2 I_3`` is contained in ``S_n``
and the product of the three norms is 1.  Up to the natural equivalence, the
ideals in such a triple may be scaled to the orders ``S_i, S_j, S_k``
themselves, and the number of inequivalent balanced triples whose three
members are ``S_i, S_j, S_k`` admits a closed formula:

    with s = (3n - i - j - k)/2 and t = max(n - s, 0),
    the count is 0 unless i + j + k = n (mod 2) and i >= t ("reflected
    triangle inequality"), and otherwise equals

        1                   if i = t = 0,
        p^(i-1) (p + 1)     if i > t = 0,
        p^(i-t)             if i >= t > 0.

The counts live on the lattice points of a solid star (two interpenetrating
tetrahedra) once the indices are allowed signs; :func:`stella_membership`
reports that geometry.  :func:`enumerate_balanced_oracle` recomputes the
count by brute force at finite precision, via explicit unit-coset
representatives, and is the reference the formula is tested against.
"""

from collections import namedtuple
from itertools import product

from .errors import DomainError, PrecisionError, _int, _ints, _of
from .exactlattice import _jacobi, is_prime

__all__ = [
    "PadicConfig",
    "least_nonresidue",
    "balanced_count",
    "stella_membership",
    "enumerate_balanced_oracle",
]


def _odd_prime(p):
    # the one check on p; is_prime is False for anything but an int
    if p == 2 or not is_prime(p):
        raise DomainError("p must be an odd prime, got %r" % (p,))


class PadicConfig(namedtuple("PadicConfig", ["p", "n", "u"])):
    """An odd prime ``p``, a base-order level ``n >= 0``, and a non-residue ``u``.

    ``u`` must be a quadratic non-residue modulo ``p`` so that
    ``Z_p[sqrt(u)]`` is the unramified quadratic extension's maximal order.
    A config is a read-only named tuple, checked when it is built, also by
    ``_make`` and ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, p, n, u):
        _odd_prime(p)
        if _int(n, "level n") < 0:
            raise DomainError("the base-order level n must be nonnegative")
        if _jacobi(_int(u, "non-residue u"), p) != -1:
            raise DomainError("u must be a quadratic non-residue modulo p")
        return super().__new__(cls, p, n, u)

    @classmethod
    def _make(cls, iterable):
        # _replace builds its result by _make, so both run the checks
        return cls(*iterable)


def least_nonresidue(p):
    """The smallest positive quadratic non-residue modulo an odd prime."""
    _odd_prime(p)
    # an odd prime has (p - 1)/2 non-residues below it, so one is found
    return next(u for u in range(2, p) if _jacobi(u, p) == -1)


def _split_index(cfg, idx):
    _of(PadicConfig, cfg)
    i, j, k = _ints(idx, 3, "triple index entries")
    if not (0 <= i <= j <= k <= cfg.n):
        raise DomainError(
            "balanced_count requires a sorted index 0 <= i <= j <= k <= n"
        )
    return i, j, k


def balanced_count(cfg, idx):
    """Number of balanced triples of type ``(S_i, S_j, S_k)`` over ``S_n``.

    ``idx`` must be sorted, ``0 <= i <= j <= k <= n``.  Returns 0 when the
    parity condition ``i+j+k = n (mod 2)`` or the reflected triangle
    inequality fails, else evaluates the closed formula.
    """
    i, j, k = _split_index(cfg, idx)
    p, n = cfg.p, cfg.n
    if (i + j + k - n) % 2 != 0:
        return 0
    s = (3 * n - i - j - k) // 2
    t = max(n - s, 0)
    if i < t:
        return 0
    if t == 0:
        return 1 if i == 0 else p ** (i - 1) * (p + 1)
    return p ** (i - t)


def stella_membership(n, idx):
    """Locate a signed index triple relative to the two-tetrahedra star.

    Returns ``(inside, label)``.  ``inside`` is True when the parity
    condition holds and the point lies in the union of the two tetrahedra:
    tetrahedron 1 is the convex hull of ``(n,n,n), (n,-n,-n), (-n,n,-n),
    (-n,-n,n)`` and tetrahedron 2 its mirror image.  ``label`` reports the
    geometry alone: ``1`` or ``2`` when the point is in exactly one
    tetrahedron, ``"boundary"`` when in both, ``None`` when in neither.
    """
    if _int(n, "level n") < 0:
        raise DomainError("the level n must be nonnegative")
    x, y, z = _ints(idx, 3, "signed triple index entries")

    def in_tetrahedron_1(x, y, z):
        return x + y + z >= -n and x + y - z <= n and x - y + z <= n and -x + y + z <= n

    # tetrahedron 2 is the image of tetrahedron 1 under v -> -v
    in1, in2 = in_tetrahedron_1(x, y, z), in_tetrahedron_1(-x, -y, -z)
    if in1 and in2:
        label = "boundary"
    elif in1:
        label = 1
    elif in2:
        label = 2
    else:
        label = None
    parity = (x + y + z - n) % 2 == 0
    return (parity and (in1 or in2), label)


def _unit_coset_reps(p, t, i):
    """Representatives of the unit classes of ``S_t`` modulo ``S_i`` units.

    Elements are pairs ``(a, b)`` standing for ``a + b sqrt(u)``; the list
    has ``p^(i-1) (p+1)`` entries for ``t = 0 < i``, ``p^(i-t)`` entries for
    ``0 < t <= i``, and a single entry when the quotient is trivial
    (``i <= t``).  Representatives are exact integers independent of ``u``.
    ``p`` is the odd prime of a checked config and ``t``, ``i`` are levels
    its caller checked.  Cost: the list itself, at most ``p^(i-1) (p+1)`` pairs.
    """
    if i <= t:
        return [(1, 0)]
    if t == 0:
        reps = [(1, b) for b in range(p**i)]
        reps += [(a, 1) for a in range(0, p**i, p)]
        return reps
    return [(1, c * p**t) for c in range(p ** (i - t))]


def enumerate_balanced_oracle(cfg, idx, m):
    """Brute-force the balanced-triple count at working precision ``p^m``.

    Models ``Z_p`` as ``Z/p^m``; enumerates the unit-coset representatives
    of ``S_t`` modulo ``S_i`` units and counts those ``g`` for which
    ``p^s * g * S_i S_j S_k`` lands in ``S_n``, checked on all eight products
    of the module generators ``{1, p^i sqrt(u)} x {1, p^j sqrt(u)} x
    {1, p^k sqrt(u)}``.  Requires ``m >= 2n + 2`` so that every valuation
    comparison is decided exactly.

    Cost: one pass over at most ``p^(i-1) (p+1)`` coset representatives
    (``_unit_coset_reps``), each tested on up to 8 products modulo ``p^m``.
    """
    i, j, k = _split_index(cfg, idx)
    p, n, u = cfg.p, cfg.n, cfg.u
    if _int(m, "precision m") < 2 * n + 2:
        raise PrecisionError("precision m must be at least 2n + 2")
    if (i + j + k - n) % 2 != 0:
        return 0
    s = (3 * n - i - j - k) // 2
    t = max(n - s, 0)

    mod, pn, ps = p**m, p**n, p**s

    def mul(a, b):
        return ((a[0] * b[0] + u * a[1] * b[1]) % mod, (a[0] * b[1] + a[1] * b[0]) % mod)

    gens = [((1, 0), (0, p**level)) for level in (i, j, k)]
    # p^s * g * x_i * x_j * x_k lies in S_n iff p^n divides its sqrt(u)
    # part, decided exactly mod p^m as n < m
    return sum(
        all(mul(mul(mul(g, a), b), c)[1] * ps % pn == 0 for a, b, c in product(*gens))
        for g in _unit_coset_reps(p, t, i)
    )
